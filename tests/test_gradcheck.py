"""Tests for the finite-difference gradient verification harness."""

import numpy as np
import pytest

from graphdet.gradcheck import (
    central_difference,
    max_relative_error,
    relative_errors,
    run_all,
)

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
