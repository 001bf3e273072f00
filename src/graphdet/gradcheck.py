"""Central finite-difference verification of every hand-written gradient.

Each ``check_*`` function draws a seeded random instance, evaluates the
analytic gradient, compares it against central differences, and returns
the worst relative error.  Instances are redrawn (with a derived seed)
until every non-smooth point — ReLU pre-activations, max-pool winners,
the smooth-L1 elbow, probability clamps — sits at a safe margin from the
finite-difference step, so a check failure always means a wrong
gradient, never an unlucky kink crossing.

As in training, the stacks under check are bound to one parameter
vector, which is differenced in place (:func:`_params_fd_error`), and
the losses are the fused passes, called on row indices as
:func:`graphdet.pipeline._evaluate` calls them.
"""

from __future__ import annotations

from functools import partial
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
    LayerGrads,
    LossConfig,
    _smooth_l1_sum_and_grad,
    bind_flat_params,
    flat_views,
    focal_loss_and_grad,
    masked_smooth_l1_mean_and_grad,
)
from .scene import BoxArray

DEFAULT_STEP = 1e-5
_ERR_FLOOR = 1e-6
_KINK_MARGIN = 1e-3
_MAX_REDRAWS = 64


def central_difference(
    fn: Callable[[np.ndarray], float], x: np.ndarray, h: float = DEFAULT_STEP
) -> np.ndarray:
    """Two-sided finite-difference gradient of ``fn`` at ``x``, a 1-D
    float64 array whose entries are moved in place, so through every view
    of it (a bound parameter vector's layers), and restored bit for bit."""
    if not (isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64):
        raise ValueError("x must be a 1-D float64 array: its entries are moved in place")
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


def _params_fd_error(
    stacks: list[DenseStack], grads: list[list[LayerGrads]], value: Callable[[], float]
) -> float:
    """Worst relative error of ``grads``, one list of (dW, db) pairs per
    stack of ``stacks``, against central differences of ``value``, the
    scalar loss at the stacks' current parameters.

    Binds every weight and bias of ``stacks`` as a view of one vector
    (:func:`~graphdet.nnet.bind_flat_params`), copies ``grads`` into a
    vector of the same layout (:func:`~graphdet.nnet.flat_views`) and
    differences the bound vector in place.  Gradients shaped unlike
    their layers raise ``ValueError``.
    """
    params = bind_flat_params(stacks)
    analytic = np.empty(params.shape)
    for views, stack_grads in zip(flat_views(analytic, stacks), grads, strict=True):
        for (dw, db), (gw, gb) in zip(views, stack_grads, strict=True):
            if (gw.shape, gb.shape) != (dw.shape, db.shape):
                raise ValueError(f"gradient shapes {gw.shape}, {gb.shape} != {dw.shape}, {db.shape}")
            dw[...], db[...] = gw, gb
    return max_relative_error(analytic, central_difference(lambda _: value(), params))


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

    def value(inputs: np.ndarray = x) -> float:
        return float((probe * stack.apply(inputs)).sum())

    grads, d_in = stack.backward(cache, probe)
    err = _params_fd_error([stack], [grads], value)
    fd_in = central_difference(lambda flat: value(flat.reshape(x.shape)), x.ravel())
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
    analytic = _smooth_l1_sum_and_grad(pred - target, beta, True)[1]
    fd = central_difference(lambda p: _smooth_l1_sum_and_grad(p - target, beta, False)[0], pred)
    return max_relative_error(analytic, fd)


def check_focal_loss(seed: int) -> float:
    worst = 0.0
    for background in (False, True):
        rng = np.random.default_rng([seed, 37, int(background)])
        probs = rng.uniform(0.05, 0.95, size=12)
        is_fg = rng.uniform(size=12) < 0.4
        is_fg[0] = True  # keep the normaliser positive
        fg, bg = np.flatnonzero(is_fg), np.flatnonzero(~is_fg)
        config = LossConfig(focal_background=background)
        analytic = focal_loss_and_grad(probs, fg, bg, config, True)[1]
        fd = central_difference(lambda p: focal_loss_and_grad(p, fg, bg, config, False)[0], probs)
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
    rows = np.flatnonzero(mask)
    analytic = masked_smooth_l1_mean_and_grad(pred, rows, target[rows], beta, True)[1]
    fd = central_difference(
        lambda p: masked_smooth_l1_mean_and_grad(
            p.reshape(pred.shape), rows, target[rows], beta, False
        )[0],
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


def check_update(seed: int, alignment: bool) -> float:
    n, f, hidden, depth = 3, 4, 4, 3
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng([seed, 53 if alignment else 59, attempt])
        coords = rng.normal(scale=0.8, size=(n, 3))
        states = rng.normal(size=(n, f))
        updater = GraphUpdater.seeded(f, hidden, depth, seed * 1013 + attempt, alignment)
        graph = _toy_graph(coords, states, radius=4.0)
        refined, cache = update(graph, updater)
        if _update_margin(cache) > _KINK_MARGIN:
            break
    else:
        raise RuntimeError("no kink-free update instance found")
    probe = rng.normal(size=refined.shape)

    def value(g: NeighborhoodGraph = graph) -> float:
        return float((probe * update(g, updater)[0]).sum())

    grads, d_states = update_backward(cache, probe)
    worst = _params_fd_error(updater.stacks, grads, value)
    fd_states = central_difference(
        lambda flat: value(graph.with_states(flat.reshape(states.shape))), states.ravel()
    )
    return max(worst, max_relative_error(d_states.ravel(), fd_states))


def check_header(seed: int) -> float:
    n, f, hidden = 3, 4, 4
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng([seed, 61, attempt])
        states = rng.normal(size=(n, f))
        cls_stack = DenseStack.seeded((f, hidden, 1), seed * 1019 + attempt)
        reg_stack = DenseStack.seeded((f, hidden, 7), seed * 1021 + attempt)
        _, _, cache = header_forward(states, cls_stack, reg_stack)
        if min(_stack_preact_margin(cache[0]), _stack_preact_margin(cache[1])) > _KINK_MARGIN:
            break
    else:
        raise RuntimeError("no kink-free header instance found")
    probe_s = rng.normal(size=n)
    probe_r = rng.normal(size=(n, 7))

    def value(z: np.ndarray = states) -> float:
        scores, residuals, _ = header_forward(z, cls_stack, reg_stack)
        return float((probe_s * scores).sum() + (probe_r * residuals).sum())

    cls_grads, reg_grads, dz = header_backward(
        cache, cls_stack, reg_stack, probe_s, probe_r
    )
    worst = _params_fd_error([cls_stack, reg_stack], [cls_grads, reg_grads], value)
    fd = central_difference(lambda flat: value(flat.reshape(states.shape)), states.ravel())
    return max(worst, max_relative_error(dz.ravel(), fd))


def check_composed(seed: int) -> float:
    """Extended update (K=3) -> header -> detection losses, end to end."""
    n, f, hidden, depth, beta = 3, 4, 4, 3, 1.0
    config = LossConfig()
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng([seed, 71, attempt])
        coords = rng.normal(scale=0.8, size=(n, 3))
        states = rng.normal(size=(n, f))
        updater = GraphUpdater.seeded(f, hidden, depth, seed * 1031 + attempt)
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
        margin = min(margin, float(np.abs(np.abs(residuals[fg] - targets[fg]) - beta).min()))
        if margin > _KINK_MARGIN:
            break
    else:
        raise RuntimeError("no kink-free composed instance found")

    fg_rows, bg_rows = np.flatnonzero(fg), np.flatnonzero(~fg)
    fg_targets = targets[fg_rows]

    def value(g: NeighborhoodGraph = graph) -> float:
        refined, _ = update(g, updater)
        scores, residuals, _ = header_forward(refined, cls_stack, reg_stack)
        focal = focal_loss_and_grad(scores, fg_rows, bg_rows, config, False)[0]
        return focal + masked_smooth_l1_mean_and_grad(residuals, fg_rows, fg_targets, beta, False)[0]

    d_scores = focal_loss_and_grad(scores, fg_rows, bg_rows, config, True)[1]
    d_res = masked_smooth_l1_mean_and_grad(residuals, fg_rows, fg_targets, beta, True)[1]
    cls_grads, reg_grads, dz = header_backward(
        hcache, cls_stack, reg_stack, d_scores, d_res
    )
    ugrads, d_states = update_backward(ucache, dz)

    stacks = [*updater.stacks, cls_stack, reg_stack]
    worst = _params_fd_error(stacks, [*ugrads, cls_grads, reg_grads], value)

    fd_states = central_difference(
        lambda flat: value(graph.with_states(flat.reshape(states.shape))), states.ravel()
    )
    return max(worst, max_relative_error(d_states.ravel(), fd_states))


_CHECKS: dict[str, Callable[[int], float]] = {
    "dense_stack": check_dense_stack,
    "smooth_l1": check_smooth_l1,
    "focal_loss": check_focal_loss,
    "masked_smooth_l1": check_masked_smooth_l1,
    "unaligned_update": partial(check_update, alignment=False),
    "extended_update": partial(check_update, alignment=True),
    "header": check_header,
    "composed": check_composed,
}


def run_all(seed: int = 0) -> dict[str, float]:
    """Max relative error per operation for one seed."""
    return {name: fn(seed) for name, fn in _CHECKS.items()}
