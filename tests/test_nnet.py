"""Dense stacks with hand-written gradients, and the detection losses."""

import copy

import numpy as np
import pytest

from graphdet.nnet import (
    DenseLayer,
    DenseStack,
    LossConfig,
    bind_flat_params,
    flat_views,
    focal_loss,
    focal_loss_grad,
    masked_smooth_l1_mean,
    masked_smooth_l1_mean_grad,
    offset_loss,
    offset_loss_grad,
    smooth_l1,
    smooth_l1_grad,
    total_loss,
)

from oracles import add_layer_grads, whole_array_focal_loss_grad


def central_diff(f, x, h=1e-6):
    """Central finite differences of a scalar function over a flat vector."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi.flat[i] += h
        lo.flat[i] -= h
        out.flat[i] = (f(hi) - f(lo)) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# layers and stacks


def test_layer_validation():
    with pytest.raises(ValueError, match="shapes"):
        DenseLayer(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ValueError, match="activation"):
        DenseLayer(np.zeros((2, 3)), np.zeros(2), "tanh")


def test_stack_width_chaining():
    good = DenseStack(
        [
            DenseLayer(np.zeros((4, 3)), np.zeros(4)),
            DenseLayer(np.zeros((2, 4)), np.zeros(2), "none"),
        ]
    )
    assert good.in_dim == 3 and good.out_dim == 2 and good.flat_params().size == 12 + 4 + 8 + 2
    with pytest.raises(ValueError, match="chain"):
        DenseStack(
            [
                DenseLayer(np.zeros((4, 3)), np.zeros(4)),
                DenseLayer(np.zeros((2, 5)), np.zeros(2)),
            ]
        )
    with pytest.raises(ValueError, match="at least one layer"):
        DenseStack([])


def test_zero_stack_maps_everything_to_zero():
    stack = DenseStack.zeros((5, 8, 3))
    x = np.random.default_rng(0).normal(size=(1, 5))
    out, cache = stack.forward(x)
    assert np.array_equal(out, np.zeros((1, 3)))
    grads, dx = stack.backward(cache, np.ones((1, 3)))
    assert np.array_equal(dx, np.zeros((1, 5)))


def test_identity_layer_passes_through():
    stack = DenseStack([DenseLayer(np.eye(4), np.zeros(4), "none")])
    x = np.array([[1.0, -2.0, 0.5, 3.0]])
    assert np.array_equal(stack.apply(x), x)
    _, cache = stack.forward(x)
    grads, dx = stack.backward(cache, np.ones((1, 4)))
    assert np.array_equal(dx, np.ones((1, 4)))


def test_relu_clips_and_has_zero_subgradient_at_zero():
    stack = DenseStack([DenseLayer(np.eye(2), np.zeros(2), "relu")])
    out, cache = stack.forward(np.array([[3.0, -5.0]]))
    assert np.array_equal(out, [[3.0, 0.0]])
    _, dx = stack.backward(cache, np.array([[1.0, 1.0]]))
    assert np.array_equal(dx, [[1.0, 0.0]])
    # pre-activation exactly zero: the subgradient is taken as zero
    _, cache = stack.forward(np.array([[0.0, 1.0]]))
    _, dx = stack.backward(cache, np.array([[1.0, 1.0]]))
    assert dx[0, 0] == 0.0


def test_forward_batches_match_single_rows():
    stack = DenseStack.seeded((6, 9, 4), seed=7)
    xs = np.random.default_rng(1).normal(size=(5, 6))
    batch = stack.apply(xs)
    assert batch.shape == (5, 4)
    for i in range(5):
        assert np.allclose(batch[i], stack.apply(xs[i : i + 1])[0], atol=0)


@pytest.mark.parametrize("shape", [(4, 2), (5, 7, 3), (6, 9, 9, 4)])
def test_backward_without_the_input_gradient_keeps_every_layer_gradient(shape):
    stack = DenseStack.seeded(shape, seed=3)
    x = np.random.default_rng(4).normal(size=(7, shape[0]))
    _, cache = stack.forward(x)
    g = np.random.default_rng(5).normal(size=(7, shape[-1]))
    want, dx = stack.backward(cache, g)
    got, skipped = stack.backward(cache, g, want_input_grad=False)
    assert skipped is None and dx.shape == x.shape
    assert len(got) == len(want) == len(stack.layers)
    for (dw, db), (rw, rb) in zip(got, want, strict=True):
        assert np.array_equal(dw, rw) and np.array_equal(db, rb)


def test_backward_accumulates_over_batch():
    stack = DenseStack.seeded((3, 5, 2), seed=8)
    x = np.random.default_rng(2).normal(size=(1, 3))
    g = np.array([[0.3, -0.7]])
    _, cache1 = stack.forward(x)
    grads1, _ = stack.backward(cache1, g)
    _, cache2 = stack.forward(np.concatenate([x, x]))
    grads2, _ = stack.backward(cache2, np.concatenate([g, g]))
    for (w1, b1), (w2, b2) in zip(grads1, grads2):
        assert np.allclose(w2, 2 * w1, atol=1e-12)
        assert np.allclose(b2, 2 * b1, atol=1e-12)


def test_stack_input_width_check():
    stack = DenseStack.seeded((4, 2), seed=0)
    with pytest.raises(ValueError, match="width"):
        stack.apply(np.zeros((1, 5)))
    # Stacks take (rows, width) matrices only: a vector is no row.
    with pytest.raises(ValueError, match="width"):
        stack.apply(np.zeros(4))
    with pytest.raises(ValueError, match="width"):
        stack.forward(np.zeros((2, 1, 4)))


def test_stack_gradients_match_finite_differences():
    stack = DenseStack.seeded((5, 7, 3), seed=11)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 5))
    target = rng.normal(size=(1, 3))

    def loss_of_params(flat):
        probe = copy.deepcopy(stack)
        probe.set_flat_params(flat)
        return 0.5 * float(((probe.apply(x) - target) ** 2).sum())

    out, cache = stack.forward(x)
    grads, dx = stack.backward(cache, out - target)
    flat_grad = stack.flat_grads(grads)
    fd = central_diff(loss_of_params, stack.flat_params())
    assert np.allclose(flat_grad, fd, atol=1e-5)

    fd_x = central_diff(
        lambda v: 0.5 * float(((stack.apply(v[None, :]) - target) ** 2).sum()), x[0]
    )
    assert np.allclose(dx[0], fd_x, atol=1e-5)


def test_flat_params_round_trip_and_sgd_step():
    stack = DenseStack.seeded((3, 4, 2), seed=5)
    flat = stack.flat_params()
    assert flat.size == 3 * 4 + 4 + 4 * 2 + 2
    other = DenseStack.zeros((3, 4, 2))
    other.set_flat_params(flat)
    assert np.array_equal(other.flat_params(), flat)
    shapes = [(l.weight.shape, l.bias.shape) for l in other.layers]
    for wrong in (flat[:-1], np.append(flat, 1.0)):
        with pytest.raises(ValueError, match=f"expected {flat.size} parameters, got {wrong.size}"):
            other.set_flat_params(2.0 * wrong)
        assert np.array_equal(other.flat_params(), flat)
        assert [(l.weight.shape, l.bias.shape) for l in other.layers] == shapes

    grads = stack.zero_grads()
    grads[0] = (np.ones_like(grads[0][0]), np.ones_like(grads[0][1]))
    stack.sgd_step(grads, lr=0.1)
    assert np.allclose(stack.layers[0].weight, flat[:12].reshape(4, 3) - 0.1)
    assert np.allclose(stack.layers[1].weight, flat[16:24].reshape(2, 4))


def test_bound_parameter_vector_descends_like_sgd_step_bit_for_bit():
    stacks = [DenseStack.seeded((3, 4, 2), seed=5), DenseStack.seeded((2, 5), seed=6)]
    twins = [copy.deepcopy(stack) for stack in stacks]
    vector = bind_flat_params(stacks)
    assert np.array_equal(vector, np.concatenate([s.flat_params() for s in twins]))
    layers = [layer for stack in stacks for layer in stack.layers]
    assert all(np.shares_memory(a, vector) for l in layers for a in (l.weight, l.bias))
    rng = np.random.default_rng(0)
    for _ in range(3):
        grads = [
            [(rng.normal(size=l.weight.shape), rng.normal(size=l.bias.shape)) for l in s.layers]
            for s in stacks
        ]
        vector -= 0.3 * np.concatenate([a.ravel() for g in grads for pair in g for a in pair])
        for twin, twin_grads in zip(twins, grads):
            twin.sgd_step(twin_grads, 0.3)
        for stack, twin in zip(stacks, twins):
            assert np.array_equal(stack.flat_params(), twin.flat_params())
    # A second binding is a new vector: the first no longer moves the layers.
    again = bind_flat_params(stacks)
    assert not np.shares_memory(again, vector)
    vector[:] = 0.0
    assert np.array_equal(again, np.concatenate([s.flat_params() for s in twins]))


def test_flat_views_lay_out_a_gradient_vector_like_the_bound_parameters():
    stacks = [DenseStack.seeded((3, 4, 2), seed=5), DenseStack.seeded((2, 5), seed=6)]
    params = bind_flat_params(stacks)
    gradient = np.zeros(params.shape)
    views = flat_views(gradient, stacks)
    # Entry i of every view is entry i of the parameter vector's layout.
    gradient[:] = params[:] = np.arange(len(params))
    assert len(views) == len(stacks)
    for stack, stack_views in zip(stacks, views):
        for layer, (dw, db) in zip(stack.layers, stack_views, strict=True):
            assert np.array_equal(dw, layer.weight) and np.array_equal(db, layer.bias)
            assert dw.flags.c_contiguous and np.shares_memory(dw, gradient)
            assert db.flags.c_contiguous and np.shares_memory(db, gradient)


def test_seeded_stack_is_deterministic():
    a = DenseStack.seeded((4, 6, 2), seed=42)
    b = DenseStack.seeded((4, 6, 2), seed=42)
    c = DenseStack.seeded((4, 6, 2), seed=43)
    assert np.array_equal(a.flat_params(), b.flat_params())
    assert not np.array_equal(a.flat_params(), c.flat_params())
    assert all(np.array_equal(l.bias, np.zeros_like(l.bias)) for l in a.layers)
    limit = np.sqrt(6.0 / (4 + 6))
    assert np.abs(a.layers[0].weight).max() <= limit


def test_add_layer_grads():
    a = [(np.ones((2, 2)), np.ones(2))]
    b = [(np.full((2, 2), 3.0), np.full(2, 5.0))]
    (w, bias), = add_layer_grads(a, b)
    assert np.array_equal(w, np.full((2, 2), 4.0))
    assert np.array_equal(bias, np.full(2, 6.0))


# ---------------------------------------------------------------------------
# smooth L1


def test_smooth_l1_quadratic_inside_kink():
    assert smooth_l1(np.array([0.5]), np.array([0.0])) == pytest.approx(0.125)


def test_smooth_l1_linear_outside_kink():
    assert smooth_l1(np.array([2.0]), np.array([0.0])) == pytest.approx(1.5)
    assert smooth_l1(np.array([-2.0]), np.array([0.0])) == pytest.approx(1.5)


def test_smooth_l1_sums_elements_and_is_continuous():
    assert smooth_l1(np.array([0.5, 2.0]), np.zeros(2)) == pytest.approx(1.625)
    beta = 2.0
    at_kink = smooth_l1(np.array([2.0]), np.array([0.0]), beta)
    just_inside = smooth_l1(np.array([2.0 - 1e-9]), np.array([0.0]), beta)
    assert at_kink == pytest.approx(1.0)
    assert abs(at_kink - just_inside) < 1e-8


def test_smooth_l1_grad_matches_finite_differences():
    rng = np.random.default_rng(4)
    pred = rng.normal(scale=2.0, size=12)
    target = rng.normal(scale=2.0, size=12)
    grad = smooth_l1_grad(pred, target, beta=0.7)
    fd = central_diff(lambda p: smooth_l1(p, target, beta=0.7), pred)
    assert np.allclose(grad, fd, atol=1e-6)


# ---------------------------------------------------------------------------
# focal loss


def test_focal_loss_single_foreground_pin():
    # -0.25 * (1 - 0.5)^2 * log(0.5) = 0.0625 * log 2
    got = focal_loss(np.array([0.5]), np.array([True]))
    assert got == pytest.approx(0.0625 * np.log(2.0), rel=1e-12)


def test_focal_loss_confident_foreground_vanishes():
    assert focal_loss(np.array([1.0]), np.array([True])) == pytest.approx(0.0, abs=1e-12)


def test_focal_loss_degenerates_to_mean_cross_entropy():
    config = LossConfig(focal_alpha=1.0, focal_gamma=0.0, focal_background=False)
    probs = np.array([0.5, 0.25, 0.9])
    fg = np.array([True, True, True])
    want = -np.mean(np.log(probs))
    assert focal_loss(probs, fg, config) == pytest.approx(want, rel=1e-12)


def test_focal_loss_background_term():
    config = LossConfig(focal_alpha=0.25, focal_gamma=2.0, focal_background=True)
    probs = np.array([0.9, 0.3])
    fg = np.array([True, False])
    want = -0.25 * (0.1**2) * np.log(0.9) - 0.75 * (0.3**2) * np.log(0.7)
    assert focal_loss(probs, fg, config) == pytest.approx(want, rel=1e-12)
    off = LossConfig(focal_alpha=0.25, focal_gamma=2.0, focal_background=False)
    want_fg_only = -0.25 * (0.1**2) * np.log(0.9)
    assert focal_loss(probs, fg, off) == pytest.approx(want_fg_only, rel=1e-12)


def test_focal_loss_normalises_by_foreground_count():
    probs = np.array([0.5, 0.5])
    one = focal_loss(np.array([0.5]), np.array([True]), LossConfig(focal_background=False))
    two = focal_loss(probs, np.array([True, True]), LossConfig(focal_background=False))
    assert two == pytest.approx(one)


def test_focal_loss_no_foreground_warns_and_returns_zero():
    with pytest.warns(RuntimeWarning, match="no foreground"):
        got = focal_loss(np.array([0.4, 0.6]), np.array([False, False]))
    assert got == 0.0
    grad = focal_loss_grad(np.array([0.4, 0.6]), np.array([False, False]))
    assert np.array_equal(grad, np.zeros(2))


def test_focal_loss_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        focal_loss(np.zeros(3), np.zeros(2, dtype=bool))


def test_focal_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    probs = rng.uniform(0.05, 0.95, size=16)
    fg = rng.random(16) < 0.4
    if not fg.any():
        fg[0] = True
    for config in (
        LossConfig(),
        LossConfig(focal_alpha=0.6, focal_gamma=1.0),
        LossConfig(focal_background=False),
        LossConfig(focal_alpha=1.0, focal_gamma=0.0, focal_background=False),
    ):
        grad = focal_loss_grad(probs, fg, config)
        fd = central_diff(lambda p: focal_loss(p, fg, config), probs)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-8)


def test_focal_grad_zero_where_clamped():
    probs = np.array([1.0, 0.5])
    fg = np.array([True, True])
    grad = focal_loss_grad(probs, fg)
    assert grad[0] == 0.0 and grad[1] != 0.0


def test_focal_grad_matches_the_whole_array_form_bit_for_bit():
    # Evaluating each branch on its own rows must not move a bit.
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(1, 4000))
        probs = rng.uniform(size=n) ** rng.uniform(0.2, 5.0)
        edge = rng.random(n) < 0.02
        probs[edge] = rng.choice([0.0, 1e-9, 1e-7, 1.0 - 1e-7, 1.0], size=int(edge.sum()))
        fg = rng.random(n) < rng.uniform()
        config = LossConfig(
            focal_alpha=float(rng.choice([0.25, 0.5, 1.0])),
            focal_gamma=float(rng.choice([0.0, 1.0, 1.5, 2.0, 3.0])),
            focal_background=bool(rng.random() < 0.8),
        )
        want = whole_array_focal_loss_grad(probs, fg, config)
        assert np.array_equal(focal_loss_grad(probs, fg, config), want)


def test_loss_config_validation():
    LossConfig(focal_alpha=1.0)  # inclusive upper end is allowed
    with pytest.raises(ValueError, match="focal_alpha"):
        LossConfig(focal_alpha=0.0)
    with pytest.raises(ValueError, match="focal_alpha"):
        LossConfig(focal_alpha=1.2)
    with pytest.raises(ValueError, match="focal_gamma"):
        LossConfig(focal_gamma=-0.5)
    with pytest.raises(ValueError, match="smooth_l1_beta"):
        LossConfig(smooth_l1_beta=0.0)


# ---------------------------------------------------------------------------
# masked regression losses


def test_masked_smooth_l1_single_active_row():
    pred = np.array([[0.5], [9.0], [9.0]])
    target = np.zeros((3, 1))
    mask = np.array([True, False, False])
    assert masked_smooth_l1_mean(pred, target, mask) == pytest.approx(0.125)


def test_masked_smooth_l1_empty_mask_is_zero():
    pred = np.ones((4, 2))
    assert masked_smooth_l1_mean(pred, np.zeros((4, 2)), np.zeros(4, dtype=bool)) == 0.0
    grad = masked_smooth_l1_mean_grad(pred, np.zeros((4, 2)), np.zeros(4, dtype=bool))
    assert np.array_equal(grad, np.zeros((4, 2)))


def test_masked_smooth_l1_divides_by_row_count():
    pred = np.array([[0.5], [0.5]])
    target = np.zeros((2, 1))
    mask = np.ones(2, dtype=bool)
    assert masked_smooth_l1_mean(pred, target, mask) == pytest.approx(0.125)


def test_masked_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    pred = rng.normal(size=(6, 7))
    target = rng.normal(size=(6, 7))
    mask = np.array([True, False, True, True, False, True])
    grad = masked_smooth_l1_mean_grad(pred, target, mask, beta=0.5)
    fd = central_diff(
        lambda p: masked_smooth_l1_mean(p.reshape(6, 7), target, mask, beta=0.5),
        pred.ravel(),
    ).reshape(6, 7)
    assert np.allclose(grad, fd, atol=1e-6)
    assert np.array_equal(grad[~mask], np.zeros((2, 7)))


def test_offset_loss_and_grad():
    pred = np.array([[1.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
    gt = np.zeros((2, 3))
    mask = np.array([True, False])
    assert offset_loss(pred, gt, mask) == pytest.approx(0.5)
    grad = offset_loss_grad(pred, gt, mask)
    assert np.array_equal(grad[1], np.zeros(3))
    assert grad[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="shapes"):
        offset_loss(np.zeros((2, 3)), np.zeros((3, 3)), mask)


def test_total_loss_is_plain_sum():
    assert total_loss(1.0, 2.0, 3.0, 4.0) == 10.0
    assert total_loss(0.0, 0.0, 0.0, 0.0) == 0.0
