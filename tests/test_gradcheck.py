"""Tests for the finite-difference gradient verification harness."""

import numpy as np
import pytest

from graphdet.gradcheck import (
    _params_fd_error,
    central_difference,
    max_relative_error,
    relative_errors,
    run_all,
)
from graphdet.nnet import DenseStack, bind_flat_params

EXPECTED_CHECKS = {
    "dense_stack",
    "smooth_l1",
    "focal_loss",
    "masked_smooth_l1",
    "unaligned_update",
    "extended_update",
    "header",
    "composed",
}


def test_central_difference_on_a_cubic():
    x = np.array([0.5, -1.2, 2.0])
    grad = central_difference(lambda v: float(np.sum(v**3)), x)
    assert np.allclose(grad, 3.0 * x**2, atol=1e-8)


def test_central_difference_leaves_input_unchanged():
    x = np.array([1.0, 2.0])
    central_difference(lambda v: float(v @ v), x)
    assert np.array_equal(x, [1.0, 2.0])


def test_central_difference_moves_only_1d_float_arrays():
    for x in (np.array([1, 2]), np.zeros((2, 2)), [1.0, 2.0]):
        with pytest.raises(ValueError, match="1-D float64 array: its entries are moved in place"):
            central_difference(lambda v: 0.0, x)


def test_central_difference_moves_a_bound_vector_through_the_stacks_views():
    stacks = [DenseStack.seeded((3, 4, 2), seed=5), DenseStack.seeded((2, 3), seed=6)]
    params = bind_flat_params(stacks)
    params[-1] = -0.0  # a sign bit that only an exact restore keeps
    before = params.copy()
    x = np.random.default_rng(0).normal(size=(4, 3))
    seen = []

    def value(flat):
        assert flat is params
        seen.append(np.concatenate([stack.flat_params() for stack in stacks]))
        return float(stacks[1].apply(stacks[0].apply(x)).sum())

    h = 1e-3
    central_difference(value, params, h)
    assert params.tobytes() == before.tobytes()
    assert all(np.shares_memory(l.weight, params) for s in stacks for l in s.layers)
    # Call 2i sees entry i moved by +h, call 2i + 1 by -h, through the layers.
    want = np.repeat(before[None, :], 2 * params.size, axis=0)
    for i in range(params.size):
        want[2 * i, i] = before[i] + h
        want[2 * i + 1, i] = before[i] - h
    assert np.array_equal(np.array(seen), want)


def _two_stack_instance():
    """Two chained stacks, the first with two (3, 3) layers, under a
    linear probe: the stacks, their analytic gradients and the loss."""
    stacks = [DenseStack.zeros((3, 3, 3), ["relu", "relu"]), DenseStack.zeros((3, 2))]
    rng = np.random.default_rng(1)
    params = bind_flat_params(stacks)
    # Random biases too: with zero ones, an all-zero hidden row sits on the ReLU kink.
    params[:] = rng.normal(size=params.size)
    x, probe = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))

    def value():
        return float((probe * stacks[1].apply(stacks[0].apply(x))).sum())

    hidden, cache0 = stacks[0].forward(x)
    _, cache1 = stacks[1].forward(hidden)
    grads1, d_hidden = stacks[1].backward(cache1, probe)
    grads0, _ = stacks[0].backward(cache0, d_hidden)
    return stacks, [grads0, grads1], value


def test_params_fd_error_passes_true_gradients_and_keeps_the_parameters():
    stacks, grads, value = _two_stack_instance()
    before = np.concatenate([stack.flat_params() for stack in stacks])
    assert _params_fd_error(stacks, grads, value) < 1e-6
    assert np.concatenate([stack.flat_params() for stack in stacks]).tobytes() == before.tobytes()


def test_params_fd_error_flags_one_wrong_entry():
    stacks, grads, value = _two_stack_instance()
    dw, db = grads[1][0]
    dw = dw.copy()
    dw[1, 2] += 1e-3
    grads[1][0] = (dw, db)
    assert _params_fd_error(stacks, grads, value) > 1e-4


def test_params_fd_error_flags_two_swapped_layers():
    stacks, grads, value = _two_stack_instance()
    first, second = grads[0]
    assert first[0].shape == second[0].shape and first[1].shape == second[1].shape
    assert _params_fd_error(stacks, [[second, first], grads[1]], value) > 1e-4


def test_params_fd_error_refuses_gradients_shaped_unlike_their_layers():
    stacks, grads, value = _two_stack_instance()
    dw, db = grads[1][0]
    grads[1][0] = (dw[:1], db)
    with pytest.raises(ValueError, match="gradient shapes"):
        _params_fd_error(stacks, grads, value)


def test_relative_errors_floor_small_denominators():
    # both gradients tiny: the 1e-6 floor keeps noise from exploding
    errs = relative_errors(np.array([0.0]), np.array([1e-9]))
    assert errs[0] == pytest.approx(1e-3)


def test_relative_errors_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        relative_errors(np.zeros(3), np.zeros(4))


def test_max_relative_error_of_empty_gradients_is_zero():
    assert max_relative_error(np.empty(0), np.empty(0)) == 0.0


def test_run_all_covers_every_operation_and_is_tight():
    report = run_all(seed=0)
    assert set(report) == EXPECTED_CHECKS
    for name, err in report.items():
        assert err < 1e-4, f"{name} gradient off by {err:.3e}"


def test_run_all_is_deterministic():
    assert run_all(seed=7) == run_all(seed=7)
