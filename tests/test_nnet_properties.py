"""Property tests for the fused loss passes and the dense stacks: each
equals the form it replaced, bit for bit (the separate loss and
gradient passes; ``np.matmul`` products)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdet import pipeline
from graphdet.nnet import (
    DenseLayer,
    DenseStack,
    LossConfig,
    focal_loss,
    focal_loss_and_grad,
    focal_loss_grad,
    masked_smooth_l1_mean,
    masked_smooth_l1_mean_and_grad,
    masked_smooth_l1_mean_grad,
    _product_for,
    _smooth_l1_sum_and_grad,
    flat_views,
)

from oracles import (
    matmul_stack_backward,
    matmul_stack_forward,
    separate_focal_loss,
    separate_focal_loss_grad,
    separate_masked_smooth_l1_mean,
    separate_masked_smooth_l1_mean_grad,
    separate_smooth_l1,
    whole_array_focal_loss_grad,
)

LO, HI = 1e-7, 1.0 - 1e-7
# Probabilities at, just inside and beyond both clamps, and NaN.
EDGE_PROBS = [
    -0.5, 0.0, 1e-9, LO, np.nextafter(LO, 1.0), np.nextafter(HI, 0.0), HI, 1.0, 1.5,
    -np.inf, np.inf, np.nan,
]
PROBS = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_PROBS))
CONFIGS = st.builds(
    LossConfig,
    focal_alpha=st.floats(0.0, 1.0, exclude_min=True),
    focal_gamma=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]), st.floats(0.0, 5.0)),
    focal_background=st.booleans(),
)


@st.composite
def focal_cases(draw):
    """Probabilities, a foreground mask (mixed, all or no foreground) and
    a loss config."""
    n = draw(st.integers(1, 40))
    probs = np.array(draw(st.lists(PROBS, min_size=n, max_size=n)), dtype=float)
    kind = draw(st.sampled_from(["mixed", "all", "none"]))
    if kind == "mixed":
        fg = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        fg = np.full(n, kind == "all")
    return probs, fg, draw(CONFIGS)


def _same_float(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


def _selections(fg):
    """The foreground and background selections, as masks and as indices."""
    return [(fg, ~fg), (np.flatnonzero(fg), np.flatnonzero(~fg))]


@settings(max_examples=300, deadline=None)
@given(case=focal_cases())
def test_fused_focal_equals_the_separate_passes_bit_for_bit(case):
    probs, fg, config = case
    want_loss = separate_focal_loss(probs, fg, config)
    want_grad = separate_focal_loss_grad(probs, fg, config)
    for sel_fg, sel_bg in _selections(fg):
        if fg.any():
            loss, grad = focal_loss_and_grad(probs, sel_fg, sel_bg, config, True)
            assert focal_loss_and_grad(probs, sel_fg, sel_bg, config, False)[1] is None
        else:
            with pytest.warns(RuntimeWarning, match="no foreground"):
                loss, grad = focal_loss_and_grad(probs, sel_fg, sel_bg, config, True)
        assert _same_float(loss, want_loss)
        assert grad.dtype == want_grad.dtype and np.array_equal(grad, want_grad)
    # A NaN probability has no gradient: the clamp counts as active there.
    assert not np.isnan(want_grad).any()
    assert not want_grad[np.isnan(probs)].any()


@settings(max_examples=200, deadline=None)
@given(case=focal_cases())
def test_fused_focal_grad_equals_the_whole_array_form(case):
    probs, fg, config = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the no-foreground case
        _, grad = focal_loss_and_grad(probs, fg, ~fg, config, True)
    assert np.array_equal(grad, whole_array_focal_loss_grad(probs, fg, config))


@settings(max_examples=100, deadline=None)
@given(case=focal_cases())
def test_focal_wrappers_return_the_fused_pass(case):
    probs, fg, config = case
    if fg.any():
        loss = focal_loss(probs, fg, config)
    else:
        with pytest.warns(RuntimeWarning, match="no foreground"):
            loss = focal_loss(probs, fg, config)
        assert loss == 0.0
    assert _same_float(loss, separate_focal_loss(probs, fg, config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the gradient alone never warns
        grad = focal_loss_grad(probs, fg, config)
    assert np.array_equal(grad, separate_focal_loss_grad(probs, fg, config))
    if not fg.any():
        assert np.array_equal(grad, np.zeros(len(probs)))


# Differences at, and one step either side of, the smooth-L1 kink.
@st.composite
def smooth_l1_cases(draw):
    n = draw(st.integers(1, 12))
    beta = draw(st.sampled_from([1.0, 0.5, 1.0 / 9.0, 2.0]))
    diffs = st.one_of(
        st.floats(-5.0, 5.0),
        st.sampled_from([0.0, -0.0, beta, -beta, np.nextafter(beta, 0.0), np.nextafter(beta, 9.0)]),
    )
    target = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=7 * n, max_size=7 * n)))
    x = np.array(draw(st.lists(diffs, min_size=7 * n, max_size=7 * n)))
    pred, target = (target + x).reshape(n, 7), target.reshape(n, 7)
    kind = draw(st.sampled_from(["mixed", "all", "none"]))
    if kind == "mixed":
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        mask = np.full(n, kind == "all")
    return pred, target, mask, beta


@settings(max_examples=300, deadline=None)
@given(case=smooth_l1_cases())
def test_fused_masked_smooth_l1_equals_the_separate_passes_bit_for_bit(case):
    pred, target, mask, beta = case
    want_loss = separate_masked_smooth_l1_mean(pred, target, mask, beta)
    want_grad = separate_masked_smooth_l1_mean_grad(pred, target, mask, beta)
    for rows in (mask, np.flatnonzero(mask)):
        loss, grad = masked_smooth_l1_mean_and_grad(pred, rows, target[rows], beta, True)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)
        assert masked_smooth_l1_mean_and_grad(pred, rows, target[rows], beta, False) == (loss, None)
    assert masked_smooth_l1_mean(pred, target, mask, beta) == want_loss
    assert np.array_equal(masked_smooth_l1_mean_grad(pred, target, mask, beta), want_grad)
    if not mask.any():
        assert want_loss == 0.0 and not want_grad.any()
    want_sum, want_elementwise = separate_smooth_l1(pred, target, beta)
    assert _smooth_l1_sum_and_grad(pred - target, beta, False) == (want_sum, None)
    total, elementwise = _smooth_l1_sum_and_grad(pred - target, beta, True)
    assert total == want_sum
    assert np.array_equal(elementwise, want_elementwise)


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 9), min_size=1, max_size=4),
    no_fg=st.integers(0, 3),
    config=CONFIGS,
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_selections_give_each_worlds_separate_losses(sizes, no_fg, config, seed):
    # One world of the batch (if it has rows) has no foreground: it warns
    # and adds a zero loss and zero gradients; empty worlds are skipped.
    rng = np.random.default_rng(seed)
    fgs = [rng.random(n) < 0.5 for n in sizes]
    fgs[no_fg % len(sizes)][:] = False
    regs = [np.where(fg[:, None], rng.normal(size=(len(fg), 7)), 0.0) for fg in fgs]
    ends = np.cumsum(sizes).tolist()
    targets = pipeline._Targets(
        np.concatenate(fgs), np.concatenate(regs), list(zip([0] + ends, ends))
    )
    assert [w.rows for w in targets.worlds] == [
        slice(lo, hi) for lo, hi in targets.bounds if lo < hi
    ]
    scores = rng.uniform(size=ends[-1])
    residuals = rng.normal(size=(ends[-1], 7))
    for rows, fg, bg, fg_targets in targets.worlds:
        mask = targets.prop_fg[rows]
        assert np.array_equal(fg, np.flatnonzero(mask))
        assert np.array_equal(bg, np.flatnonzero(~mask))
        if len(fg):
            focal, d_focal = focal_loss_and_grad(scores[rows], fg, bg, config, True)
        else:
            with pytest.warns(RuntimeWarning, match="no foreground"):
                focal, d_focal = focal_loss_and_grad(scores[rows], fg, bg, config, True)
        assert focal == separate_focal_loss(scores[rows], mask, config)
        assert np.array_equal(d_focal, separate_focal_loss_grad(scores[rows], mask, config))
        box, d_box = masked_smooth_l1_mean_and_grad(residuals[rows], fg, fg_targets, 1.0, True)
        reg = targets.prop_reg_targets[rows]
        assert box == separate_masked_smooth_l1_mean(residuals[rows], reg, mask, 1.0)
        assert np.array_equal(
            d_box, separate_masked_smooth_l1_mean_grad(residuals[rows], reg, mask, 1.0)
        )


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _sprinkled(rng, shape, special):
    """Normal draws with about a fifth of the entries replaced by zeros of
    either sign, infinities and NaN when ``special``."""
    a = rng.normal(size=shape)
    if special:
        hit = rng.random(shape) < 0.2
        a[hit] = rng.choice(_SPECIAL, size=int(hit.sum()))
    return a


def _strided(a, strided):
    """``a``, or a view of the same values whose rows step over a column."""
    if not strided:
        return a
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    return wide[:, ::2]


def _bits(a, any_nan=False):
    """The bits of ``a``; with ``any_nan``, every NaN as ``np.nan``."""
    a = np.array(a, dtype=float)
    if any_nan:
        a[np.isnan(a)] = np.nan
    return a.view(np.uint64)


# Layer widths: 1 gives 1 x 1 products; from 16 inputs on, BLAS rounds a
# product differently from a plain loop, which np.matmul runs on a strided
# operand.
_WIDTHS = st.one_of(st.integers(1, 4), st.integers(1, 24))


@st.composite
def stack_cases(draw):
    """A stack, an input and an upstream gradient.  Widths and row counts
    of 1 give 1 x 1 products; inputs and weights may be strided views;
    and a square single-layer linear stack may take its own input as the
    upstream gradient, which makes the weight gradient a matrix times its
    own transpose."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.booleans())
    rows = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 48)))
    aliased = draw(st.booleans())
    if aliased:
        dims = [draw(_WIDTHS)] * 2
        activations = ["none"]
    else:
        dims = draw(st.lists(_WIDTHS, min_size=2, max_size=4))
        n_layers = len(dims) - 1
        activations = draw(
            st.lists(st.sampled_from(["relu", "none"]), min_size=n_layers, max_size=n_layers)
        )
    strided_weights = draw(st.booleans())
    layers = [
        DenseLayer(
            _strided(_sprinkled(rng, (d_out, d_in), special), strided_weights),
            _sprinkled(rng, d_out, special),
            act,
        )
        for d_in, d_out, act in zip(dims, dims[1:], activations)
    ]
    x = _strided(_sprinkled(rng, (rows, dims[0]), special), draw(st.booleans()))
    grad_out = x if aliased else _sprinkled(rng, (rows, dims[-1]), special)
    return DenseStack(layers), x, grad_out, draw(st.booleans()), aliased


def _assert_same_bits(got, want, any_nan=False):
    (out, grads, d_in), (want_out, want_grads, want_d_in) = got, want
    pairs = [(out, want_out)]
    for layer, want_layer in zip(grads, want_grads, strict=True):
        pairs += zip(layer, want_layer)
    if want_d_in is None:
        assert d_in is None
    else:
        pairs.append((d_in, want_d_in))
    for a, b in pairs:
        assert np.array_equal(_bits(a, any_nan), _bits(b, any_nan))


def _matmul_pass(stack, x, grad_out, want_input_grad):
    out, cache = matmul_stack_forward(stack, x)
    return out, *matmul_stack_backward(stack, cache, grad_out, want_input_grad)


@settings(max_examples=400, deadline=None)
@given(case=stack_cases())
def test_dense_stack_equals_the_matmul_form_bit_for_bit(case):
    # The checked methods on any input, and the kernels with the product
    # a training run would pick on contiguous copies of it (np.dot, unless
    # a 1 x 1 operand can occur or a weight is strided), give the bits of
    # the np.matmul form.  Where both factors of a product are NaN, np.dot
    # may keep the other one's sign, so the kernels' NaNs are compared as
    # NaN.
    stack, x, grad_out, want_input_grad, aliased = case
    with np.errstate(all="ignore"):
        out, cache = stack.forward(x)
        got = (out, *stack.backward(cache, grad_out, want_input_grad))
        _assert_same_bits(got, _matmul_pass(stack, x, grad_out, want_input_grad))

        x = np.ascontiguousarray(x)
        grad_out = x if aliased else grad_out
        product = _product_for(len(x), [stack])
        out, cache = stack._forward(x, product)
        got = (out, *stack._backward(cache, grad_out, want_input_grad, product))
        _assert_same_bits(got, _matmul_pass(stack, x, grad_out, want_input_grad), any_nan=True)


@settings(max_examples=300, deadline=None)
@given(case=stack_cases())
def test_backward_into_gradient_vector_views_equals_the_allocating_form_bit_for_bit(case):
    # Under either product a training run can pick, the kernel writing
    # into views of a gradient vector gives the bits of the kernel that
    # allocates, every entry of the vector is written, and the views are
    # what it returns.
    stack, x, grad_out, want_input_grad, aliased = case
    x = np.ascontiguousarray(x)
    grad_out = x if aliased else grad_out
    with np.errstate(all="ignore"):
        for product in {np.matmul, _product_for(len(x), [stack])}:
            _, cache = stack._forward(x, product)
            want_grads, want_d_in = stack._backward(cache, grad_out, want_input_grad, product)
            vector = np.full(stack.flat_params().size, 7.0)
            (views,) = flat_views(vector, [stack])
            grads, d_in = stack._backward(cache, grad_out, want_input_grad, product, views)
            assert grads is views
            want_vector = np.concatenate([a.ravel() for pair in want_grads for a in pair])
            assert np.array_equal(_bits(vector), _bits(want_vector))
            assert (d_in is None) == (want_d_in is None)
            if d_in is not None:
                assert np.array_equal(_bits(d_in), _bits(want_d_in))
