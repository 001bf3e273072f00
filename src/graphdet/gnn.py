"""Graph construction and iterative refinement of 3D proposals.

Proposals become nodes of a radius graph (strictly closer than ``radius``,
always including a self-loop).  Each refinement iteration transforms every
neighbour's state, max-pools the results per channel, fuses the pooled
vector, and adds it back onto the node state:

    h_i^k = h_i^{k-1} + sigma(W_f^k . max_j W_g^k . [input_j])

The vanilla update feeds neighbour states alone; the extended update
prepends the aligned relative offset ``x_i - x_j - dx_i`` where ``dx_i``
comes from a per-iteration alignment stack, making the update exactly
translation invariant.  Both updates are synchronous (iteration k reads
only k-1 states) and come with analytic backward passes.  :func:`update`
runs the variant the updater is built for (extended when it has
alignment stacks), and :func:`update_backward` returns one gradient per
stack in :attr:`GraphUpdater.stacks` order.  A batch of graphs is
refined as one: :func:`join_graphs` forms their disjoint union.

The graph is stored as arrays: the proposals as one
:class:`~graphdet.scene.BoxArray`, whose centres are the node
coordinates, and the adjacency in compressed sparse row (CSR) form: row
i's neighbours are ``indices[offsets[i]:offsets[i+1]]``, ascending, with
the self-loop included.  Each iteration transforms one row per directed
edge and max-pools with one ``argmax`` along the last, contiguous axis of
the rows laid out as an (n, D, max_degree) block padded with ``-inf``: on
an exact tie the lowest row (the lowest neighbour index) wins, and a NaN
beats every number, the first NaN winning among several.  The backward
pass stores each channel's gradient on that one winning row (blocks are
disjoint, so no row receives two) and scatters the rows' gradients onto
nodes with one ``np.bincount`` per iteration, which adds them in edge
order as ``np.add.at`` would.  The block layout, the edge vectors and
the scatter keys depend only on the adjacency and the coordinates, so
each graph derives them once, when it is built, and every update reads
them from it.  An update fills its ``-inf`` block once and reuses it
across the iterations, overwriting only the edge slots.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .geom import decode_boxes
from .neighbors import radius_pairs
from .nnet import DenseStack, LayerGrads, _sigmoid
from .scene import BoxArray


def _state_matrix(states, n: int) -> np.ndarray:
    """``states`` as a float (n, F) copy, or the error naming what is wrong."""
    try:
        states = np.array(states, dtype=float)
    except ValueError as exc:  # ragged rows
        raise ValueError("node states must be an (n, F) matrix of one width") from exc
    if states.ndim != 2:
        raise ValueError("node states must be an (n, F) matrix of one width")
    if len(states) != n:
        raise ValueError(
            f"one proposal box per node is required: {n} boxes for {len(states)} state rows"
        )
    return states


@dataclass(frozen=True, eq=False)
class NeighborhoodGraph:
    """Proposal nodes and their symmetric radius-graph adjacency, as arrays.

    ``boxes`` (a :class:`~graphdet.scene.BoxArray`) and ``states`` (n, F)
    hold one entry per node; ``coords`` (n, 3) is the read-only view of
    the boxes' centres.  The adjacency is in compressed sparse row (CSR)
    form: row i's neighbours are ``indices[offsets[i]:offsets[i+1]]``,
    strictly ascending, with the self-loop included, so ``offsets`` has
    n + 1 entries and ``indices`` one per directed edge; ``row_node``
    holds the owning node of each entry of ``indices``.  The refiner
    max-pools each node's block per channel with one ``argmax`` over a
    ``-inf``-padded (n, D, width) layout, ``width`` being the largest
    degree: the lowest row wins an exact tie and the first NaN row beats
    every number.  The state and adjacency arrays are copied and made
    read-only.

    Construction validates the CSR once and derives, read-only, what
    every refinement step reads from the adjacency and coordinates
    alone: the pool layout (``width`` and ``slot``, each edge's position
    within its node's block, so edge e sits at ``[row_node[e], :,
    slot[e]]`` of the padded layout), ``edge_vec`` (``coords[row_node] -
    coords[indices]``, one per edge) and the backward pass's scatter
    keys ``neigh_keys`` (``node * F + channel`` for every node, then for
    each edge's neighbour, F being the state width) and ``extended_keys``
    (the same, with each edge's three offset columns first, sent to
    ``n * F + row_node * 3 + axis``).  :meth:`with_states` swaps the
    states of a validated graph and shares all of it.
    """

    boxes: BoxArray
    states: np.ndarray
    offsets: np.ndarray
    indices: np.ndarray
    radius: float
    coords: np.ndarray = field(init=False, repr=False)
    row_node: np.ndarray = field(init=False, repr=False)
    width: int = field(init=False, repr=False)
    slot: np.ndarray = field(init=False, repr=False)
    edge_vec: np.ndarray = field(init=False, repr=False)
    neigh_keys: np.ndarray = field(init=False, repr=False)
    extended_keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        coords = self.boxes.params[:, :3]
        n = len(self.boxes)
        states = _state_matrix(self.states, n)
        offsets = np.array(self.offsets, dtype=np.int64).reshape(-1)
        indices = np.array(self.indices, dtype=np.int64).reshape(-1)
        if (
            len(offsets) != n + 1
            or offsets[0] != 0
            or offsets[-1] != len(indices)
            or np.any(np.diff(offsets) < 0)
        ):
            raise ValueError("one adjacency list per node is required")
        if not (np.all(np.isfinite(coords)) and np.all(np.isfinite(states))):
            raise ValueError("node coords/state must be finite")
        degree = np.diff(offsets)
        row_node = np.repeat(np.arange(n), degree)
        bad = np.flatnonzero((indices < 0) | (indices >= n))
        if bad.size:
            e = bad[0]
            raise ValueError(f"adjacency of node {row_node[e]} references node {indices[e]}")
        lonely = np.setdiff1d(np.arange(n), indices[indices == row_node])
        if lonely.size:
            raise ValueError(f"node {lonely[0]} is missing its self-loop")
        bad = np.flatnonzero((np.diff(row_node) == 0) & (np.diff(indices) <= 0))
        if bad.size:
            raise ValueError(f"adjacency of node {row_node[bad[0]]} is not strictly ascending")
        bad = np.flatnonzero(~np.isin(indices * n + row_node, row_node * n + indices))
        if bad.size:
            e = bad[0]
            raise ValueError(f"edge ({row_node[e]}, {indices[e]}) is not symmetric")
        # The pool lays the rows out as an (n, D, width) block, each
        # node's edges in its first slots and -inf up to the largest
        # degree ``width``.
        width = int(degree.max()) if n else 0
        f = states.shape[1]
        bins = np.arange(n * f)
        state_keys = indices[:, None] * f + np.arange(f)
        offset_keys = n * f + row_node[:, None] * 3 + np.arange(3)
        arrays = {
            "states": states,
            "offsets": offsets,
            "indices": indices,
            "coords": coords,
            "row_node": row_node,
            "slot": np.arange(len(indices)) - offsets[row_node],
            "edge_vec": coords[row_node] - coords[indices],
            "neigh_keys": np.concatenate([bins, state_keys.ravel()]),
            "extended_keys": np.concatenate([bins, np.hstack([offset_keys, state_keys]).ravel()]),
        }
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "width", width)

    def with_states(self, states: np.ndarray) -> "NeighborhoodGraph":
        """This graph with ``states`` in place of its own.

        Only the new states are checked, with the constructor's messages;
        the boxes, the validated adjacency and the derived layout are
        shared.  The state width must stay the same, because
        the scatter keys are derived for it.
        """
        states = _state_matrix(states, len(self))
        if not np.all(np.isfinite(states)):
            raise ValueError("node coords/state must be finite")
        if states.shape[1] != self.state_dim:
            raise ValueError(
                f"with_states keeps the state width {self.state_dim}, got {states.shape[1]}"
            )
        states.setflags(write=False)
        swapped = copy.copy(self)
        object.__setattr__(swapped, "states", states)
        return swapped

    def __len__(self) -> int:
        return len(self.boxes)

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Read-only per-node neighbour tuples derived from the CSR arrays."""
        flat = self.indices.tolist()
        bounds = self.offsets.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))


def build_graph(boxes: BoxArray, states: np.ndarray, radius: float = 2.0) -> NeighborhoodGraph:
    """Connect proposals whose centres lie strictly closer than ``radius``.

    ``boxes`` holds one proposal per node and ``states`` its (n, F) state
    row.  Neighbour candidates come from the cell hash of ``neighbors``
    with ``radius``-sized cells, so construction stays near-linear in the
    node count.  ``radius_pairs`` returns the pairs sorted by node, then
    neighbour, which is the CSR order directly.
    """
    if radius <= 0 or not math.isfinite(radius):
        raise ValueError("radius must be a positive real")
    src, dst = radius_pairs(boxes.params[:, :3], radius)
    offsets = np.r_[0, np.cumsum(np.bincount(src, minlength=len(boxes)))]
    return NeighborhoodGraph(boxes, states, offsets, dst, radius)


def join_graphs(graphs: list[NeighborhoodGraph]) -> NeighborhoodGraph:
    """The disjoint union of ``graphs``: graph k's rows follow graph k-1's,
    its edges shifted by the rows before it, and no edge joins two graphs,
    so the refiner gives each graph's rows as on that graph alone.  One
    graph is returned unchanged."""
    if len(graphs) == 1:
        return graphs[0]
    if len({g.radius for g in graphs}) != 1:
        raise ValueError("join_graphs needs one or more graphs of one radius")
    first_row = np.cumsum([0] + [len(g) for g in graphs])
    first_edge = np.cumsum([0] + [len(g.indices) for g in graphs])
    boxes = [g.boxes for g in graphs]
    boxes = BoxArray(
        np.concatenate([b.params for b in boxes]),
        np.concatenate([b.scores for b in boxes]),
        np.concatenate([b.class_ids for b in boxes]),
    )
    offsets = np.concatenate([[0]] + [g.offsets[1:] + e for g, e in zip(graphs, first_edge)])
    indices = np.concatenate([g.indices + r for g, r in zip(graphs, first_row)])
    states = np.concatenate([g.states for g in graphs])
    return NeighborhoodGraph(boxes, states, offsets, indices, graphs[0].radius)


@dataclass
class GraphUpdater:
    """Per-iteration parameter stacks for the refinement loop.

    ``agg_stacks[k]`` transforms neighbour inputs before max-pooling,
    ``fus_stacks[k]`` fuses the pooled vector back to the state width
    (its final activation plays the role of sigma), and ``align_stacks``
    (extended mode only) predicts the 3-vector alignment offset from the
    node's own state.  Depth zero means no iterations: the update is the
    identity.  :attr:`stacks` lists every stack in one fixed order, the
    order of :func:`update_backward`'s gradients, and ``align_stacks``
    being set selects the extended update in :func:`update`.
    """

    agg_stacks: list[DenseStack]
    fus_stacks: list[DenseStack]
    align_stacks: list[DenseStack] | None = None

    def __post_init__(self) -> None:
        if len(self.agg_stacks) != len(self.fus_stacks):
            raise ValueError("aggregation and fusion stacks must pair up")
        if self.align_stacks is not None and len(self.align_stacks) != len(self.agg_stacks):
            raise ValueError("alignment stacks must pair with the other stacks")

    @property
    def depth(self) -> int:
        return len(self.agg_stacks)

    @property
    def stacks(self) -> list[DenseStack]:
        """Every stack: the aggregation, then fusion, then alignment stacks."""
        return self.agg_stacks + self.fus_stacks + (self.align_stacks or [])

    @classmethod
    def seeded(
        cls,
        state_dim: int,
        hidden_dim: int,
        depth: int,
        seed: int,
        extended: bool = True,
    ) -> "GraphUpdater":
        """Single-layer stacks per iteration with seeded initial weights."""
        if depth < 0:
            raise ValueError("depth must be non-negative")
        child = np.random.SeedSequence(seed).generate_state(max(3 * depth, 1))
        agg, fus, align = [], [], []
        in_dim = state_dim + (3 if extended else 0)
        for k in range(depth):
            agg.append(DenseStack.seeded((in_dim, hidden_dim), int(child[3 * k]), ["none"]))
            fus.append(
                DenseStack.seeded((hidden_dim, state_dim), int(child[3 * k + 1]), ["relu"])
            )
            if extended:
                align.append(
                    DenseStack.seeded((state_dim, 3), int(child[3 * k + 2]), ["none"])
                )
        return cls(agg, fus, align if extended else None)

    def validate_for(self, state_dim: int, extended: bool) -> None:
        """Check that all stack widths chain for the given state width."""
        expect_in = state_dim + (3 if extended else 0)
        if extended and self.align_stacks is None:
            raise ValueError("extended updates need alignment stacks")
        for k in range(self.depth):
            agg, fus = self.agg_stacks[k], self.fus_stacks[k]
            if agg.in_dim != expect_in:
                raise ValueError(
                    f"iteration {k}: aggregation input {agg.in_dim} != expected {expect_in}"
                )
            if fus.in_dim != agg.out_dim or fus.out_dim != state_dim:
                raise ValueError(
                    f"iteration {k}: fusion widths {fus.in_dim}->{fus.out_dim} do not chain"
                )
            if extended:
                align = self.align_stacks[k]
                if align.in_dim != state_dim or align.out_dim != 3:
                    raise ValueError(
                        f"iteration {k}: alignment widths {align.in_dim}->{align.out_dim}"
                    )


@dataclass(slots=True)
class _IterCache:
    agg_cache: list
    fus_cache: list
    argmax_flat: np.ndarray  # (n, D) flat index (row * D + channel) into pool_inputs
    pool_inputs: np.ndarray  # (rows, D) transformed neighbour features
    align_cache: list | None

    @property
    def argmax_rows(self) -> np.ndarray:
        """(n, D) absolute row index feeding each pooled channel."""
        return self.argmax_flat // self.pool_inputs.shape[1]


@dataclass(slots=True)
class UpdateCache:
    """Everything the backward pass needs from one forward update."""

    graph: NeighborhoodGraph
    updater: GraphUpdater
    extended: bool
    iterations: list[_IterCache]
    product: Callable  # the matrix product of the forward, which the backward runs too


def _update_forward(
    graph: NeighborhoodGraph, updater: GraphUpdater, extended: bool, product: Callable
) -> tuple[np.ndarray, UpdateCache]:
    """The update kernel: the updater's widths must already fit the
    graph (:meth:`GraphUpdater.validate_for`), so its stacks run their
    kernels unchecked, with ``product`` as the matrix product."""
    n = len(graph)
    h = graph.states
    row_node, row_neigh, slot = graph.row_node, graph.indices, graph.slot
    starts = graph.offsets[:-1]

    # The pool's (n, D, width) block: its -inf padding never changes, so
    # it is filled once and each iteration overwrites only the edge slots.
    block = None
    # Extended edge rows are [aligned offset, neighbour state]: one row
    # take from the states behind three zero columns, which the offsets
    # then overwrite in the taken rows.
    padded = np.zeros((n, 3 + graph.state_dim)) if extended else None
    iterations: list[_IterCache] = []
    for k in range(updater.depth if n else 0):
        prev = h
        align_cache = None
        if extended:
            align_out, align_cache = updater.align_stacks[k]._forward(prev, product)
            padded[:, 3:] = prev
            rows = padded.take(row_neigh, axis=0)
            np.subtract(graph.edge_vec, align_out.take(row_node, axis=0), out=rows[:, :3])
        else:
            rows = prev.take(row_neigh, axis=0)
        pooled_in, agg_cache = updater.agg_stacks[k]._forward(rows, product)
        # Per node and channel argmax picks the lowest row holding the
        # block maximum, or the first NaN row; -inf padding never wins
        # because it follows the node's own rows.
        d = pooled_in.shape[1]
        if block is None or block.shape[1] != d:
            block = np.empty((n, d, graph.width))
            block.fill(-np.inf)
            # Each node's first row as a flat index, plus the channel.
            first = starts[:, None] * d + np.arange(d)
        block[row_node, :, slot] = pooled_in
        # The winners as flat indices into pooled_in, row * D + channel,
        # so that the pool and its backward each index it once.
        argmax_flat = block.argmax(axis=2)
        argmax_flat *= d
        argmax_flat += first
        pooled = pooled_in.take(argmax_flat)
        fused, fus_cache = updater.fus_stacks[k]._forward(pooled, product)
        h = prev + fused
        iterations.append(_IterCache(agg_cache, fus_cache, argmax_flat, pooled_in, align_cache))
    return h, UpdateCache(graph, updater, extended, iterations, product)


def _check_update(graph: NeighborhoodGraph, updater: GraphUpdater, extended: bool) -> None:
    """The updates' one check: the updater's widths against the graph's
    state width, skipped on an empty graph, where no iteration runs."""
    if len(graph):
        updater.validate_for(graph.state_dim, extended)


def update_vanilla_forward(
    graph: NeighborhoodGraph, updater: GraphUpdater
) -> tuple[np.ndarray, UpdateCache]:
    _check_update(graph, updater, extended=False)
    return _update_forward(graph, updater, False, np.matmul)


def update_extended_forward(
    graph: NeighborhoodGraph, updater: GraphUpdater
) -> tuple[np.ndarray, UpdateCache]:
    _check_update(graph, updater, extended=True)
    return _update_forward(graph, updater, True, np.matmul)


def update(graph: NeighborhoodGraph, updater: GraphUpdater) -> tuple[np.ndarray, UpdateCache]:
    """Refine the graph's states with the updater's own variant: the
    offset-aligned update if it has alignment stacks, the state-only one
    otherwise.  Returns the (n, F) refined states and the backward cache."""
    if updater.align_stacks is None:
        return update_vanilla_forward(graph, updater)
    return update_extended_forward(graph, updater)


def update_backward(
    cache: UpdateCache, grad_out: np.ndarray, want_state_grad: bool = True, out: list | None = None
) -> tuple[list[list[LayerGrads]], np.ndarray | None]:
    """Back-propagate through a cached update.

    ``grad_out`` is d(loss)/d(refined states), shape (n, F).  Returns one
    gradient per stack, in :attr:`GraphUpdater.stacks` order, and
    d(loss)/d(initial states), a new array, or None if not
    ``want_state_grad``; with ``out`` (one list of (dW, db) arrays per
    stack, in that order) the stack gradients are written there instead.
    Training reads only the stack gradients, so it skips the first
    iteration's state scatter, which feeds nothing else, and the input
    gradients that feed only that scatter: the alignment stack's, and the
    aggregation stack's under the state-only update.  That iteration's
    offset scatter still runs, because the alignment stack's gradient
    reads it.  A stack that took no part (every stack when no iteration
    ran, at depth zero or on an empty graph; the alignment stacks under
    the state-only update) gets a zero gradient.

    Max-pool gradients are stored on the winning neighbour row per
    channel (the lowest row on exact forward ties), with one assignment
    through the forward's flat indices; node blocks are disjoint, so each
    row and channel receives at most one, and the last aggregation
    layer's bias gradient sums the winners alone, node by node: the
    row-by-row sum's non-zero terms in its order.  Each iteration
    scatters ``dh`` and the rows with one ``np.bincount`` over the
    graph's ``neigh_keys`` or ``extended_keys``; ``d_align`` is the
    offset bins negated.  ``bincount`` adds its weights in input order,
    so the residual ``dh`` goes first and then the rows in edge order:
    every sum runs in ``np.add.at``'s order, up to an exact zero's sign.
    (``np.add.reduceat`` would not: it adds long blocks pairwise.)
    The stacks' products are the forward's (``cache.product``).
    """
    updater = cache.updater
    depth = len(cache.iterations)
    outs = out or [None] * len(updater.stacks)
    if depth == 0:
        dh = np.array(grad_out, dtype=float) if want_state_grad else None
        return [s.zero_grads(o) for s, o in zip(updater.stacks, outs)], dh
    # No iteration writes into dh, so grad_out needs no copy.
    dh = np.asarray(grad_out, dtype=float)
    graph, product = cache.graph, cache.product
    n, f = dh.shape
    keys = graph.extended_keys if cache.extended else graph.neigh_keys
    agg, fus, align = outs[:depth], outs[depth : 2 * depth], outs[2 * depth :]
    if not cache.extended:
        align = [s.zero_grads(o) for s, o in zip(updater.align_stacks or [], align)]
    for k in range(depth - 1, -1, -1):
        it = cache.iterations[k]
        fus[k], d_pooled = updater.fus_stacks[k]._backward(it.fus_cache, dh, True, product, fus[k])

        d_pool_in = np.zeros(it.pool_inputs.shape)
        d_pool_in.ravel()[it.argmax_flat] = d_pooled
        state_grad = k > 0 or want_state_grad
        # The third argument is want_input_grad: the state-only update
        # reads the row gradients only for the state scatter.
        agg[k], d_rows = updater.agg_stacks[k]._backward(
            it.agg_cache, d_pool_in, state_grad or cache.extended, product, agg[k], it.argmax_flat
        )
        if state_grad:
            # The residual connection passes dh straight through.
            sums = np.bincount(keys, np.concatenate((dh.ravel(), d_rows.ravel())))
            dh = sums[: n * f].reshape(n, f)
        elif cache.extended:
            sums = np.bincount(keys[n * f :], d_rows.ravel())
        if cache.extended:
            align[k], d_prev_align = updater.align_stacks[k]._backward(
                it.align_cache, -sums[n * f :].reshape(n, 3), state_grad, product, align[k]
            )
            if state_grad:
                dh += d_prev_align
    return agg + fus + align, dh if want_state_grad else None


def header_stacks(
    state_dim: int, hidden: int, seeds: tuple[int, int] | None
) -> tuple[DenseStack, DenseStack]:
    """The header's classification and regression stacks: seeded
    (state_dim, hidden, 1) and (state_dim, hidden, 7) stacks from
    ``seeds``' two entries, or, with ``seeds`` None, zero (state_dim, 1)
    and (state_dim, 7) stacks, which score every node 0.5 and keep its
    proposal box."""
    if seeds is None:
        return DenseStack.zeros((state_dim, 1)), DenseStack.zeros((state_dim, 7))
    cls_seed, reg_seed = seeds
    return (
        DenseStack.seeded((state_dim, hidden, 1), cls_seed),
        DenseStack.seeded((state_dim, hidden, 7), reg_seed),
    )


def _check_header(states: np.ndarray, cls_stack: DenseStack, reg_stack: DenseStack) -> np.ndarray:
    """The header's checks: its output widths, then the states as each
    stack's input (:meth:`~graphdet.nnet.DenseStack._input_rows`).
    Returns the states as a float matrix."""
    if cls_stack.out_dim != 1:
        raise ValueError("classification stack must end in one unit")
    if reg_stack.out_dim != 7:
        raise ValueError("regression stack must end in seven units")
    z = cls_stack._input_rows(states)
    reg_stack._input_rows(z)
    return z


def header_forward(
    states: np.ndarray, cls_stack: DenseStack, reg_stack: DenseStack
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Score and regress every node state.

    Returns sigmoid class scores (n,), box residuals (n, 7), and a cache
    for :func:`header_backward`.
    """
    z = _check_header(states, cls_stack, reg_stack)
    return _header_forward(z, cls_stack, reg_stack, np.matmul)


def _header_forward(
    z: np.ndarray, cls_stack: DenseStack, reg_stack: DenseStack, product: Callable
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The header kernel: ``z`` must have passed :func:`_check_header`,
    and ``product`` is the stacks' matrix product."""
    logits, cls_cache = cls_stack._forward(z, product)
    residuals, reg_cache = reg_stack._forward(z, product)
    scores = _sigmoid(logits[:, 0])
    return scores, residuals, (cls_cache, reg_cache, scores)


def header_backward(
    cache: tuple,
    cls_stack: DenseStack,
    reg_stack: DenseStack,
    d_scores: np.ndarray,
    d_residuals: np.ndarray,
) -> tuple[list[LayerGrads], list[LayerGrads], np.ndarray]:
    """Gradients of the header outputs back to stacks and states."""
    return _header_backward(
        cache,
        cls_stack,
        reg_stack,
        np.asarray(d_scores, dtype=float),
        np.asarray(d_residuals, dtype=float),
        np.matmul,
    )


def _header_backward(
    cache: tuple,
    cls_stack: DenseStack,
    reg_stack: DenseStack,
    d_scores: np.ndarray,
    d_residuals: np.ndarray,
    product: Callable,
    out: list[list[LayerGrads]] | None = None,
) -> tuple[list[LayerGrads], list[LayerGrads], np.ndarray]:
    """The header's backward kernel: both gradients must be float arrays,
    ``product`` is the stacks' matrix product, and ``out``, if given, the
    two stacks' (dW, db) arrays, which receive the gradients."""
    cls_cache, reg_cache, scores = cache
    d_logits = (d_scores * scores * (1.0 - scores))[:, None]
    cls_grads, dz_cls = cls_stack._backward(cls_cache, d_logits, True, product, out and out[0])
    reg_grads, dz_reg = reg_stack._backward(reg_cache, d_residuals, True, product, out and out[1])
    return cls_grads, reg_grads, dz_cls + dz_reg


def refine_proposals(
    graph: NeighborhoodGraph,
    refined_states: np.ndarray,
    cls_stack: DenseStack,
    reg_stack: DenseStack,
) -> BoxArray:
    """Decode headed residuals against each node's own proposal box, in
    one :func:`graphdet.geom.decode_boxes` call."""
    scores, residuals, _ = header_forward(refined_states, cls_stack, reg_stack)
    return decode_boxes(residuals, graph.boxes, scores)
