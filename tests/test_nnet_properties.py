"""Property tests for the fused loss passes: each equals the separate
loss and gradient passes it replaced, bit for bit."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdet import pipeline
from graphdet.nnet import (
    LossConfig,
    focal_loss,
    focal_loss_and_grad,
    focal_loss_grad,
    masked_smooth_l1_mean,
    masked_smooth_l1_mean_and_grad,
    masked_smooth_l1_mean_grad,
    smooth_l1,
    smooth_l1_grad,
)

from oracles import (
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
    assert smooth_l1(pred, target, beta) == want_sum
    assert np.array_equal(smooth_l1_grad(pred, target, beta), want_elementwise)


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
