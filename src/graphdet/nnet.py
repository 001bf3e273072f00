"""Small dense networks with hand-written gradients, plus the detection losses.

There is no autodiff here: every forward has a matching analytic
backward, which keeps the whole training path checkable against central
finite differences.  Stacks operate on row-batched (n, width) matrices;
gradients accumulate over the rows.  Each loss term has one
implementation, which returns the loss and, if wanted, its gradient in
one pass (:func:`focal_loss_and_grad`,
:func:`masked_smooth_l1_mean_and_grad`, :func:`_smooth_l1_sum_and_grad`);
training and :mod:`graphdet.gradcheck` call these.  The wrappers
(:func:`focal_loss`, :func:`masked_smooth_l1_mean`, :func:`offset_loss`
and their ``_grad`` twins) and :func:`total_loss` reach no detection and
no report: they remain only because the benchmark's tracer
(``bench/tracer.py``) wraps them by name.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

_ACTIVATIONS = ("relu", "none")

# One layer's gradient: (dW, db) matching the layer's weight and bias shapes.
LayerGrads = tuple[np.ndarray, np.ndarray]


@dataclass
class DenseLayer:
    """Affine map followed by an optional ReLU.

    ``weight`` is (out, in) and ``bias`` (out,).  The ReLU subgradient at
    exactly zero is taken as zero.
    """

    weight: np.ndarray
    bias: np.ndarray
    activation: str = "relu"

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError(
                f"inconsistent layer shapes {self.weight.shape} / {self.bias.shape}"
            )
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class DenseStack:
    """A sequence of dense layers with explicit forward/backward passes.

    :meth:`forward` and :meth:`backward` convert and check their input,
    then run the kernels :meth:`_forward` and :meth:`_backward`, which
    take their matrix product as an argument, with ``np.matmul``.
    Training checks its stacks once per run and calls the kernels with
    the product :func:`_product_for` picks.
    """

    def __init__(self, layers: list[DenseLayer]):
        if not layers:
            raise ValueError("a stack needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError(
                    f"layer widths do not chain: {prev.weight.shape} -> {nxt.weight.shape}"
                )
        self.layers = layers

    @classmethod
    def seeded(
        cls,
        dims: list[int] | tuple[int, ...],
        seed: int,
        activations: list[str] | None = None,
    ) -> "DenseStack":
        """Build a stack with uniform +-sqrt(6 / (fan_in + fan_out)) weights.

        ``dims`` lists layer widths input-first, e.g. (8, 16, 4) makes two
        layers.  Activations default to ReLU on every layer except the
        last, which is linear.
        """
        if len(dims) < 2:
            raise ValueError("dims must list at least input and output width")
        n_layers = len(dims) - 1
        if activations is None:
            activations = ["relu"] * (n_layers - 1) + ["none"]
        if len(activations) != n_layers:
            raise ValueError("one activation per layer is required")
        rng = np.random.default_rng(seed)
        layers = []
        for i in range(n_layers):
            fan_in, fan_out = dims[i], dims[i + 1]
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            weight = rng.uniform(-limit, limit, size=(fan_out, fan_in))
            layers.append(DenseLayer(weight, np.zeros(fan_out), activations[i]))
        return cls(layers)

    @classmethod
    def zeros(
        cls,
        dims: list[int] | tuple[int, ...],
        activations: list[str] | None = None,
    ) -> "DenseStack":
        """All-zero weights and biases; handy as an identity-residual stub."""
        if len(dims) < 2:
            raise ValueError("dims must list at least input and output width")
        n_layers = len(dims) - 1
        if activations is None:
            activations = ["relu"] * (n_layers - 1) + ["none"]
        layers = [
            DenseLayer(np.zeros((dims[i + 1], dims[i])), np.zeros(dims[i + 1]), activations[i])
            for i in range(n_layers)
        ]
        return cls(layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def _input_rows(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a float (rows, in_dim) matrix, or the error naming its
        shape: the check :meth:`forward` runs before its kernel."""
        h = np.asarray(x, dtype=float)
        in_dim = self.layers[0].weight.shape[1]
        if h.ndim != 2 or h.shape[1] != in_dim:
            raise ValueError(f"input of shape {h.shape} is not (rows, stack width {in_dim})")
        return h

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """Evaluate the stack on an (n, in_dim) matrix of rows, returning
        the output and a backward cache: :meth:`_forward` after
        :meth:`_input_rows`' check."""
        return self._forward(self._input_rows(x), np.matmul)

    def _forward(self, h: np.ndarray, product: Callable) -> tuple[np.ndarray, list]:
        """The forward kernel: ``h`` must already be a float (rows,
        in_dim) matrix, or with ``np.matmul`` a stack of them, and
        ``product`` multiplies two matrices.  The cache lists each
        layer's (input, pre-activation) pair."""
        cache = []
        for layer in self.layers:
            pre = product(h, layer.weight.T)
            pre += layer.bias
            cache.append((h, pre))
            h = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
        return h, cache

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Evaluate without keeping the cache."""
        return self.forward(x)[0]

    def backward(
        self, cache: list, grad_out: np.ndarray, want_input_grad: bool = True
    ) -> tuple[list[LayerGrads], np.ndarray | None]:
        """Back-propagate an upstream gradient through the cached forward.

        Returns per-layer (dW, db) pairs (input-first order) and the
        gradient with respect to the stack input, shaped like it, or None
        if not ``want_input_grad`` (the first layer's input product is then
        skipped).  The bias gradient is ``np.add.reduce`` over the rows,
        the reduce that ``g.sum(axis=0)`` runs, called without its
        Python-level wrapper.  Converts ``grad_out`` to float and runs
        :meth:`_backward` with ``np.matmul`` products.
        """
        return self._backward(cache, np.asarray(grad_out, dtype=float), want_input_grad, np.matmul)

    def _backward(
        self, cache: list, g: np.ndarray, want_input_grad: bool, product: Callable,
        out: list[LayerGrads] | None = None, winners: np.ndarray | None = None,
    ) -> tuple[list[LayerGrads], np.ndarray | None]:
        """The backward kernel: ``g`` must already be a float array, and
        ``product`` multiplies two matrices.  ``out`` (a C-contiguous (dW,
        db) pair per layer) receives the gradients.  ``winners``, the flat
        indices, row by row, of every entry of the last layer's masked ``g``
        that can be non-zero, make its bias gradient sum just those, unless
        that layer is one column wide: NumPy sums one column pairwise, not
        row by row, so the zeros between the winners move its rounding."""
        layers = self.layers
        grads: list[LayerGrads] = out or [(None, None)] * len(layers)  # type: ignore[list-item]
        for idx in range(len(layers) - 1, -1, -1):
            layer = layers[idx]
            h_in, pre = cache[idx]
            if layer.activation == "relu":
                g = g * (pre > 0.0)
            dw, db = grads[idx]
            last = winners is not None and idx == len(layers) - 1 and g.shape[1] > 1
            rows = g.take(winners) if last else g
            grads[idx] = (product(g.T, h_in, out=dw), np.add.reduce(rows, axis=0, out=db))
            if idx == 0 and not want_input_grad:
                return grads, None
            g = product(g, layer.weight)
        return grads, g

    def zero_grads(self, out: list[LayerGrads] | None = None) -> list[LayerGrads]:
        grads = out or [(np.empty_like(l.weight), np.empty_like(l.bias)) for l in self.layers]
        for dw, db in grads:
            dw[...] = db[...] = 0.0
        return grads

    def sgd_step(self, grads: list[LayerGrads], lr: float) -> None:
        """In-place gradient-descent update."""
        for layer, (dw, db) in zip(self.layers, grads):
            layer.weight -= lr * dw
            layer.bias -= lr * db

    def flat_params(self) -> np.ndarray:
        """A new vector of every layer's weight then bias, input layer
        first: the order :func:`bind_flat_params` binds."""
        return np.concatenate(
            [np.concatenate([l.weight.ravel(), l.bias.ravel()]) for l in self.layers]
        )


def _product_for(rows: int, stacks: list[DenseStack]) -> Callable:
    """The matrix product for the kernels' passes over ``rows`` rows
    through ``stacks`` when every input and upstream gradient is a
    contiguous array of its own: ``np.dot`` where it gives
    ``np.matmul``'s bits, which costs about 0.5 us less per call, else
    ``np.matmul``.  Training picks it once per run; the checked entry
    points, whose inputs come from callers, run ``np.matmul``.

    ``np.dot`` gives those bits on contiguous operands of more than one
    entry, except that where both factors of a product are NaN it may
    keep the other one, and so the other sign.  It multiplies by a 1 x 1
    operand with ``axpy``, which skips a zero factor and so drops the
    NaN or infinity of the other operand, and it copies a strided
    operand where ``np.matmul`` may loop over it.  Each product of a
    pass multiplies an operand of ``rows`` rows by a weight or by an
    operand of ``rows`` columns, so a 1 x 1 operand needs one row (or
    none) or a 1 x 1 weight.
    """
    weights = [layer.weight for stack in stacks for layer in stack.layers]
    if rows > 1 and all(
        w.size > 1 and (w.flags.c_contiguous or w.flags.f_contiguous) for w in weights
    ):
        return np.dot
    return np.matmul


def flat_views(vector: np.ndarray, stacks: list[DenseStack]) -> list[list[LayerGrads]]:
    """Per stack, per layer, views of ``vector`` shaped like the layer's
    (weight, bias), in :meth:`DenseStack.flat_params`' order."""
    arrays = [a for stack in stacks for layer in stack.layers for a in (layer.weight, layer.bias)]
    parts = np.split(vector, np.cumsum([a.size for a in arrays])[:-1])
    views = [part.reshape(a.shape) for part, a in zip(parts, arrays)]
    pairs = iter(zip(views[::2], views[1::2]))
    return [[next(pairs) for _ in stack.layers] for stack in stacks]


def bind_flat_params(stacks: list[DenseStack]) -> np.ndarray:
    """Copy every layer weight and bias of ``stacks`` into one new
    contiguous vector and rebind them as views of it (:func:`flat_views`);
    returns the vector.

    The order is :meth:`DenseStack.flat_params`' order, so with the
    gradients in views of a vector of the same layout one ``vector -= lr
    * gradient`` descends every layer as :meth:`DenseStack.sgd_step`
    does, ``w - lr * dw``.  Each call binds to a new vector, so the
    stacks share no memory with any earlier binding.  No stacks bind an
    empty vector.
    """
    vector = np.concatenate([np.empty(0), *(stack.flat_params() for stack in stacks)])
    for stack, pairs in zip(stacks, flat_views(vector, stacks)):
        for layer, (weight, bias) in zip(stack.layers, pairs):
            layer.weight, layer.bias = weight, bias
    return vector


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated without overflow for either sign:
    ``1 / (1 + e)`` where x >= 0 and ``e / (1 + e)`` elsewhere (NaN
    included), with ``e = exp(-|x|)``."""
    e = np.exp(-np.abs(x))
    one_p = 1.0 + e
    return np.where(x >= 0, 1.0 / one_p, e / one_p)


@dataclass(frozen=True)
class LossConfig:
    """Shared loss hyper-parameters."""

    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    smooth_l1_beta: float = 1.0
    focal_background: bool = True  # include the background focal term

    def __post_init__(self) -> None:
        if not 0.0 < self.focal_alpha <= 1.0:
            raise ValueError("focal_alpha must lie in (0, 1]")
        if self.focal_gamma < 0.0:
            raise ValueError("focal_gamma must be non-negative")
        if self.smooth_l1_beta <= 0.0:
            raise ValueError("smooth_l1_beta must be positive")
        if not isinstance(self.focal_background, bool):
            raise ValueError(f"focal_background must be a bool, got {self.focal_background!r}")


def _smooth_l1_sum_and_grad(
    x: np.ndarray, beta: float, want_grad: bool
) -> tuple[float, np.ndarray | None]:
    """Summed smooth-L1 of the differences ``x`` (0.5 x^2 / beta inside
    the kink, |x| - beta/2 outside) and, if wanted, its elementwise
    derivative: the one smooth-L1 implementation."""
    ax = np.abs(x)
    inside = ax < beta
    terms = np.where(inside, 0.5 * x * x / beta, ax - 0.5 * beta)
    total = float(np.add.reduce(terms, axis=None))
    return total, np.where(inside, x / beta, np.sign(x)) if want_grad else None


_P_CLAMP = (1e-7, 1.0 - 1e-7)


def focal_loss_and_grad(
    probs: np.ndarray,
    fg: np.ndarray,
    bg: np.ndarray,
    config: LossConfig,
    want_grad: bool,
) -> tuple[float, np.ndarray | None]:
    """The focal loss of :func:`focal_loss` and, if ``want_grad``, its
    gradient with respect to ``probs``, in one pass: the one focal-loss
    implementation, which :func:`focal_loss` and :func:`focal_loss_grad`
    wrap.

    ``probs`` is a float64 array; ``fg`` and ``bg`` select its foreground
    and background entries, as boolean masks or index arrays (a training
    run derives them once from its targets).  Each branch is evaluated
    only on its own entries, and the clamped power and logarithm are
    shared by the loss and its gradient.  The gradient is zero where the
    clamp is active (a NaN probability included) and off both
    selections.  With no foreground the loss is zero, the gradient is
    zero and a warning is emitted.
    """
    lo, hi = _P_CLAMP
    alpha, gamma = config.focal_alpha, config.focal_gamma
    pf = np.minimum(np.maximum(probs[fg], lo), hi)
    n_pos = len(pf)
    if n_pos == 0:
        warnings.warn("focal_loss: no foreground entries, returning 0", RuntimeWarning)
        return 0.0, np.zeros(probs.shape) if want_grad else None
    one_m = 1.0 - pf
    one_m_gamma = one_m**gamma
    log_pf = np.log(pf)
    total = float(np.add.reduce(-alpha * one_m_gamma * log_pf))
    if config.focal_background:
        q = np.minimum(np.maximum(probs[bg], lo), hi)
        q_gamma = q**gamma
        one_m_q = 1.0 - q
        log_one_m_q = np.log(one_m_q)
        total += float(np.add.reduce(-(1.0 - alpha) * q_gamma * log_one_m_q))
    if not want_grad:
        return total / n_pos, None
    grad = np.zeros(probs.shape)
    grad[fg] = alpha * (gamma * one_m ** (gamma - 1.0) * log_pf - one_m_gamma / pf)
    if config.focal_background:
        grad[bg] = (1.0 - alpha) * (
            -gamma * q ** (gamma - 1.0) * log_one_m_q + q_gamma / one_m_q
        )
    grad[~((probs > lo) & (probs < hi))] = 0.0
    grad /= n_pos
    return total / n_pos, grad


def _focal_inputs(probs: np.ndarray, foreground: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(probs, dtype=float)
    fg = np.asarray(foreground, dtype=bool)
    if p.shape != fg.shape:
        raise ValueError(f"probs shape {p.shape} != mask shape {fg.shape}")
    return p, fg


def focal_loss(
    probs: np.ndarray,
    foreground: np.ndarray,
    config: LossConfig = LossConfig(),
) -> float:
    """Foreground-normalised focal classification loss.

    Averages ``-alpha (1 - p)^gamma log p`` over foreground entries,
    normalised by the foreground count.  With ``config.focal_background``
    the background entries add ``-(1 - alpha) p^gamma log(1 - p)`` into
    the same normalised sum.  Probabilities are clamped to
    [1e-7, 1 - 1e-7]; with no foreground the loss is zero and a warning
    is emitted.  Computed by :func:`focal_loss_and_grad`.
    """
    p, fg = _focal_inputs(probs, foreground)
    return focal_loss_and_grad(p, fg, ~fg, config, want_grad=False)[0]


def focal_loss_grad(
    probs: np.ndarray,
    foreground: np.ndarray,
    config: LossConfig = LossConfig(),
) -> np.ndarray:
    """d(focal_loss)/d(probs); zero where the clamp is active or loss is
    zero (with no foreground, without the loss's warning).  Computed by
    :func:`focal_loss_and_grad`."""
    p, fg = _focal_inputs(probs, foreground)
    if not fg.any():
        return np.zeros_like(p)
    return focal_loss_and_grad(p, fg, ~fg, config, want_grad=True)[1]


def masked_smooth_l1_mean_and_grad(
    pred: np.ndarray,
    fg: np.ndarray,
    fg_targets: np.ndarray,
    beta: float,
    want_grad: bool,
) -> tuple[float, np.ndarray | None]:
    """Smooth-L1 of the rows ``fg`` of ``pred`` (a boolean mask or an
    index array) against ``fg_targets``, those rows' targets, summed and
    divided by the row count; and, if ``want_grad``, its gradient with
    respect to ``pred``, zero off those rows.  No rows give a zero loss
    and a zero gradient.  The one masked smooth-L1 implementation, which
    :func:`masked_smooth_l1_mean` and its gradient wrap."""
    x = pred[fg] - fg_targets
    n_pos = len(x)
    grad = np.zeros(pred.shape) if want_grad else None
    if n_pos == 0:
        return 0.0, grad
    total, d_x = _smooth_l1_sum_and_grad(x, beta, want_grad)
    if want_grad:
        grad[fg] = d_x / n_pos
    return total / n_pos, grad


def masked_smooth_l1_mean(
    pred: np.ndarray, target: np.ndarray, mask: np.ndarray, beta: float = 1.0
) -> float:
    """Smooth-L1 summed over masked rows, divided by the masked row count."""
    mask = np.asarray(mask, dtype=bool)
    return masked_smooth_l1_mean_and_grad(
        np.asarray(pred, dtype=float), mask, np.asarray(target, dtype=float)[mask], beta, False
    )[0]


def masked_smooth_l1_mean_grad(
    pred: np.ndarray, target: np.ndarray, mask: np.ndarray, beta: float = 1.0
) -> np.ndarray:
    """d(masked_smooth_l1_mean)/d(pred); zero on unmasked rows."""
    mask = np.asarray(mask, dtype=bool)
    return masked_smooth_l1_mean_and_grad(
        np.asarray(pred, dtype=float), mask, np.asarray(target, dtype=float)[mask], beta, True
    )[1]


def offset_loss(
    pred_offsets: np.ndarray,
    gt_offsets: np.ndarray,
    in_box_mask: np.ndarray,
    beta: float = 1.0,
) -> float:
    """Mean smooth-L1 over the offset rows of in-box points.

    Rows outside the mask contribute nothing; with no in-box points the
    loss is zero.
    """
    pred = np.asarray(pred_offsets, dtype=float)
    gt = np.asarray(gt_offsets, dtype=float)
    if pred.shape != gt.shape:
        raise ValueError(f"offset shapes differ: {pred.shape} vs {gt.shape}")
    return masked_smooth_l1_mean(pred, gt, in_box_mask, beta)


def offset_loss_grad(
    pred_offsets: np.ndarray,
    gt_offsets: np.ndarray,
    in_box_mask: np.ndarray,
    beta: float = 1.0,
) -> np.ndarray:
    """d(offset_loss)/d(pred_offsets)."""
    pred = np.asarray(pred_offsets, dtype=float)
    gt = np.asarray(gt_offsets, dtype=float)
    return masked_smooth_l1_mean_grad(pred, gt, in_box_mask, beta)


def total_loss(l_rpn: float, l_gnn: float, l_offset: float, l_seg: float) -> float:
    """Unweighted sum of the four training terms."""
    return float(l_rpn) + float(l_gnn) + float(l_offset) + float(l_seg)
