"""Central finite-difference verification of every hand-written gradient.

Each ``check_*`` function draws a seeded random instance, evaluates the
analytic gradient, compares it against central differences, and returns
the worst relative error.  Instances are redrawn (with a derived seed)
until every non-smooth point — ReLU pre-activations, max-pool winners,
the smooth-L1 elbow, probability clamps — sits at a safe margin from the
finite-difference step, so a check failure always means a wrong
gradient, never an unlucky kink crossing.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .gnn import (
    GraphUpdater,
    NeighborhoodGraph,
    build_graph,
    header_backward,
    header_forward,
    update,
    update_backward,
)
from .nnet import (
    DenseStack,
    LossConfig,
    focal_loss,
    focal_loss_grad,
    masked_smooth_l1_mean,
    masked_smooth_l1_mean_grad,
    smooth_l1,
    smooth_l1_grad,
)
from .scene import BoxArray

DEFAULT_STEP = 1e-5
_ERR_FLOOR = 1e-6
_KINK_MARGIN = 1e-3
_MAX_REDRAWS = 64


def central_difference(
    fn: Callable[[np.ndarray], float], x: np.ndarray, h: float = DEFAULT_STEP
) -> np.ndarray:
    """Two-sided finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float).copy()
    grad = np.empty_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        f_plus = fn(x)
        x[i] = orig - h
        f_minus = fn(x)
        x[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Element-wise |a - n| / max(|a|, |n|, 1e-6)."""
    a = np.asarray(analytic, dtype=float).ravel()
    n = np.asarray(numeric, dtype=float).ravel()
    if a.shape != n.shape:
        raise ValueError(f"gradient shapes differ: {a.shape} vs {n.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), _ERR_FLOOR)
    return np.abs(a - n) / denom


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    errs = relative_errors(analytic, numeric)
    return float(errs.max()) if errs.size else 0.0


def _stack_preact_margin(cache: list) -> float:
    """Smallest |pre-activation| across all cached layers."""
    margins = [float(np.abs(pre).min()) for _, pre in cache if pre.size]
    return min(margins) if margins else np.inf


def _stack_fd_error(
    stack: DenseStack, value_fn: Callable[[], float], grads: list
) -> float:
    """Compare a stack's analytic parameter gradient against differences.

    ``value_fn`` evaluates the scalar loss at the stack's *current*
    parameters; ``grads`` is the analytic per-layer gradient already
    computed at the unperturbed parameters.
    """
    analytic = stack.flat_grads(grads)
    base = stack.flat_params()

    def scalar(flat: np.ndarray) -> float:
        stack.set_flat_params(flat)
        return value_fn()

    fd = central_difference(scalar, base)
    stack.set_flat_params(base)
    return max_relative_error(analytic, fd)


# ---------------------------------------------------------------------------
# Individual operations
# ---------------------------------------------------------------------------


def check_dense_stack(seed: int) -> float:
    """Parameter and input gradients of a two-layer stack under a linear probe."""
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng([seed, 11, attempt])
        stack = DenseStack.seeded((4, 8, 3), seed * 1009 + attempt)
        x = rng.normal(size=(5, 4))
        _, cache = stack.forward(x)
        if _stack_preact_margin(cache) > _KINK_MARGIN:
            break
    else:
        raise RuntimeError("no kink-free dense stack instance found")
    probe = rng.normal(size=(5, 3))

    def value() -> float:
        return float((probe * stack.apply(x)).sum())

    _, fcache = stack.forward(x)
    grads, d_in = stack.backward(fcache, probe)
    err = _stack_fd_error(stack, value, grads)
    fd_in = central_difference(
        lambda flat: float((probe * stack.apply(flat.reshape(x.shape))).sum()), x.ravel()
    )
    return max(err, max_relative_error(d_in.ravel(), fd_in))


def check_smooth_l1(seed: int) -> float:
    beta = 1.0
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng([seed, 23, attempt])
        pred = rng.normal(scale=1.5, size=9)
        target = rng.normal(scale=1.5, size=9)
        if np.all(np.abs(np.abs(pred - target) - beta) > _KINK_MARGIN):
            break
    else:
        raise RuntimeError("no elbow-free smooth-L1 instance found")
    analytic = smooth_l1_grad(pred, target, beta)
    fd = central_difference(lambda p: smooth_l1(p, target, beta), pred)
    return max_relative_error(analytic, fd)


def check_focal_loss(seed: int) -> float:
    worst = 0.0
    for background in (False, True):
        rng = np.random.default_rng([seed, 37, int(background)])
        probs = rng.uniform(0.05, 0.95, size=12)
        fg = rng.uniform(size=12) < 0.4
        fg[0] = True  # keep the normaliser positive
        config = LossConfig(focal_background=background)
        analytic = focal_loss_grad(probs, fg, config)
        fd = central_difference(lambda p: focal_loss(p, fg, config), probs)
        worst = max(worst, max_relative_error(analytic, fd))
    return worst


def check_masked_smooth_l1(seed: int) -> float:
    beta = 1.0
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng([seed, 41, attempt])
        pred = rng.normal(scale=1.5, size=(6, 7))
        target = rng.normal(scale=1.5, size=(6, 7))
        mask = rng.uniform(size=6) < 0.5
        mask[0] = True
        if np.all(np.abs(np.abs(pred[mask] - target[mask]) - beta) > _KINK_MARGIN):
            break
    else:
        raise RuntimeError("no elbow-free masked smooth-L1 instance found")
    analytic = masked_smooth_l1_mean_grad(pred, target, mask, beta)
    fd = central_difference(
        lambda p: masked_smooth_l1_mean(p.reshape(pred.shape), target, mask, beta),
        pred.ravel(),
    )
    return max_relative_error(analytic.ravel(), fd)


def _toy_graph(coords: np.ndarray, states: np.ndarray, radius: float) -> NeighborhoodGraph:
    """Unit boxes at ``coords`` carrying ``states``, linked within ``radius``."""
    n = len(coords)
    params = np.column_stack([coords, np.ones((n, 3)), np.zeros(n)])
    boxes = BoxArray(params, np.full(n, np.nan), np.full(n, None, dtype=object))
    return build_graph(boxes, states, radius)


def _update_margin(cache) -> float:
    """Smallest kink margin over every iteration of an update forward.

    Covers the fusion/aggregation/alignment pre-activations and the gap
    between the winning and runner-up rows of each max-pool channel.
    """
    margin = np.inf
    for it in cache.iterations:
        margin = min(margin, _stack_preact_margin(it.fus_cache))
        margin = min(margin, _stack_preact_margin(it.agg_cache))
        if it.align_cache is not None:
            margin = min(margin, _stack_preact_margin(it.align_cache))
        # runner-up: the block maximum with the winner masked (-inf if alone)
        winners = it.argmax_rows, np.arange(it.argmax_rows.shape[1])
        rest = it.pool_inputs.copy()
        rest[winners] = -np.inf
        runner_up = np.maximum.reduceat(rest, cache.graph.offsets[:-1], axis=0)
        best = it.pool_inputs[winners]
        margin = min(margin, float((best - runner_up).min()))
    return margin


def _check_update(seed: int, extended: bool) -> float:
    n, f, hidden, depth = 3, 4, 4, 3
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng([seed, 53 if extended else 59, attempt])
        coords = rng.normal(scale=0.8, size=(n, 3))
        states = rng.normal(size=(n, f))
        updater = GraphUpdater.seeded(
            f, hidden, depth, seed * 1013 + attempt, extended=extended
        )
        graph = _toy_graph(coords, states, radius=4.0)
        refined, cache = update(graph, updater)
        if _update_margin(cache) > _KINK_MARGIN:
            break
    else:
        raise RuntimeError("no kink-free update instance found")
    probe = rng.normal(size=refined.shape)

    def value() -> float:
        return float((probe * update(graph, updater)[0]).sum())

    _, cache = update(graph, updater)
    grads, d_states = update_backward(cache, probe)
    worst = 0.0
    for stack, stack_grads in zip(updater.stacks, grads, strict=True):
        worst = max(worst, _stack_fd_error(stack, value, stack_grads))

    def scalar_states(flat: np.ndarray) -> float:
        g = graph.with_states(flat.reshape(states.shape))
        return float((probe * update(g, updater)[0]).sum())

    fd_states = central_difference(scalar_states, states.ravel())
    return max(worst, max_relative_error(d_states.ravel(), fd_states))


def check_vanilla_update(seed: int) -> float:
    return _check_update(seed, extended=False)


def check_extended_update(seed: int) -> float:
    return _check_update(seed, extended=True)


def check_header(seed: int) -> float:
    n, f, hidden = 3, 4, 4
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng([seed, 61, attempt])
        states = rng.normal(size=(n, f))
        cls_stack = DenseStack.seeded((f, hidden, 1), seed * 1019 + attempt)
        reg_stack = DenseStack.seeded((f, hidden, 7), seed * 1021 + attempt)
        _, _, (cls_cache, reg_cache, _) = header_forward(states, cls_stack, reg_stack)
        if min(_stack_preact_margin(cls_cache), _stack_preact_margin(reg_cache)) > _KINK_MARGIN:
            break
    else:
        raise RuntimeError("no kink-free header instance found")
    probe_s = rng.normal(size=n)
    probe_r = rng.normal(size=(n, 7))

    def value() -> float:
        scores, residuals, _ = header_forward(states, cls_stack, reg_stack)
        return float((probe_s * scores).sum() + (probe_r * residuals).sum())

    _, _, cache = header_forward(states, cls_stack, reg_stack)
    cls_grads, reg_grads, dz = header_backward(
        cache, cls_stack, reg_stack, probe_s, probe_r
    )
    worst = _stack_fd_error(cls_stack, value, cls_grads)
    worst = max(worst, _stack_fd_error(reg_stack, value, reg_grads))

    def scalar_states(flat: np.ndarray) -> float:
        scores, residuals, _ = header_forward(
            flat.reshape(states.shape), cls_stack, reg_stack
        )
        return float((probe_s * scores).sum() + (probe_r * residuals).sum())

    fd = central_difference(scalar_states, states.ravel())
    return max(worst, max_relative_error(dz.ravel(), fd))


def check_composed(seed: int) -> float:
    """Extended update (K=3) -> header -> detection losses, end to end."""
    n, f, hidden, depth, beta = 3, 4, 4, 3, 1.0
    config = LossConfig()
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng([seed, 71, attempt])
        coords = rng.normal(scale=0.8, size=(n, 3))
        states = rng.normal(size=(n, f))
        updater = GraphUpdater.seeded(f, hidden, depth, seed * 1031 + attempt, extended=True)
        cls_stack = DenseStack.seeded((f, hidden, 1), seed * 1033 + attempt)
        reg_stack = DenseStack.seeded((f, hidden, 7), seed * 1039 + attempt)
        fg = rng.uniform(size=n) < 0.6
        fg[0] = True
        targets = rng.normal(scale=0.5, size=(n, 7))

        graph = _toy_graph(coords, states, radius=4.0)
        refined, ucache = update(graph, updater)
        scores, residuals, hcache = header_forward(refined, cls_stack, reg_stack)
        margin = _update_margin(ucache)
        margin = min(margin, _stack_preact_margin(hcache[0]))
        margin = min(margin, _stack_preact_margin(hcache[1]))
        margin = min(margin, float(np.minimum(scores, 1.0 - scores).min()) - 0.01)
        if fg.any():
            margin = min(
                margin,
                float(np.abs(np.abs(residuals[fg] - targets[fg]) - beta).min()),
            )
        if margin > _KINK_MARGIN:
            break
    else:
        raise RuntimeError("no kink-free composed instance found")

    def value_from(graph: NeighborhoodGraph) -> float:
        refined, _ = update(graph, updater)
        scores, residuals, _ = header_forward(refined, cls_stack, reg_stack)
        return focal_loss(scores, fg, config) + masked_smooth_l1_mean(
            residuals, targets, fg, beta
        )

    def value() -> float:  # parameter perturbations leave the graph as it is
        return value_from(graph)

    refined, ucache = update(graph, updater)
    scores, residuals, hcache = header_forward(refined, cls_stack, reg_stack)
    d_scores = focal_loss_grad(scores, fg, config)
    d_res = masked_smooth_l1_mean_grad(residuals, targets, fg, beta)
    cls_grads, reg_grads, dz = header_backward(
        hcache, cls_stack, reg_stack, d_scores, d_res
    )
    ugrads, d_states = update_backward(ucache, dz)

    worst = _stack_fd_error(cls_stack, value, cls_grads)
    worst = max(worst, _stack_fd_error(reg_stack, value, reg_grads))
    for stack, stack_grads in zip(updater.stacks, ugrads, strict=True):
        worst = max(worst, _stack_fd_error(stack, value, stack_grads))

    fd_states = central_difference(
        lambda flat: value_from(graph.with_states(flat.reshape(states.shape))),
        states.ravel(),
    )
    return max(worst, max_relative_error(d_states.ravel(), fd_states))


_CHECKS: dict[str, Callable[[int], float]] = {
    "dense_stack": check_dense_stack,
    "smooth_l1": check_smooth_l1,
    "focal_loss": check_focal_loss,
    "masked_smooth_l1": check_masked_smooth_l1,
    "vanilla_update": check_vanilla_update,
    "extended_update": check_extended_update,
    "header": check_header,
    "composed": check_composed,
}


def run_all(seed: int = 0) -> dict[str, float]:
    """Max relative error per operation for one seed."""
    return {name: fn(seed) for name, fn in _CHECKS.items()}
