"""Oriented-box geometry: overlap, suppression, anchors, and box coding.

BEV overlap of yaw-rotated rectangles is computed exactly, by
Sutherland-Hodgman polygon clipping plus the shoelace formula, in one
batched kernel over arrays of box pairs: :func:`bev_iou_pairs`.  It
repeats the scalar float loop kept in ``tests/oracles.py`` operation for
operation on padded vertex arrays, so each IoU is bit-identical to that
loop's; a one-pair call (:func:`rotated_iou_bev`) costs the kernel's fixed
NumPy overhead.  Pairs whose footprints cannot reach each other are found
through :class:`graphdet.neighbors.CellIndex` (:func:`reaching_pairs`)
and never clipped.  3D IoU extends the BEV overlap with the vertical
interval overlap.  The module also carries greedy NMS (block leaders
kept and suppressing first, then waves over the boxes they leave
undecided), the anchor grid, IoU-threshold target assignment and the
relative box encoding used for regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .neighbors import _SLACK, CellIndex
from .scene import (
    CAR_DIMS,
    Box3D,
    BoxArray,
    RangeBounds,
    _check_bounds,
    normalize_yaw,
)

# Candidate (box, box) pairs that reaching_pairs tests at once.
_REACH_CHUNK = 1 << 14
# Boxes smaller than 2**-_MAX_LEVEL of the largest share one size level.
_MAX_LEVEL = 60

# Anchor match labels.
POSITIVE = 1
NEGATIVE = 0
IGNORE = -1


class _Footprints:
    """Per-box terms of the overlap kernel, one (n, 2, 5) table ``xy``:
    row 0 holds x terms and row 1 y terms, column 0 the BEV centre and
    columns 1-4 each corner's offset from it in counter-clockwise order
    (the corner sums of ``corners_bev`` in ``tests/oracles.py`` before the
    centre is added); and the footprint areas.  Each yaw's cosine and sine
    are taken once, with ``math``."""

    def __init__(self, boxes: BoxArray):
        p = boxes.params
        yaw = p[:, 6].tolist()
        c = np.array(list(map(math.cos, yaw)), dtype=float)
        s = np.array(list(map(math.sin, yaw)), dtype=float)
        lc, ls = 0.5 * p[:, 3] * c, 0.5 * p[:, 3] * s
        wc, ws = 0.5 * p[:, 4] * c, 0.5 * p[:, 4] * s
        self.xy = np.stack(
            [
                np.stack([p[:, 0], lc - ws, -lc - ws, -lc + ws, lc + ws], axis=1),
                np.stack([p[:, 1], ls + wc, -ls + wc, -ls - wc, ls - wc], axis=1),
            ],
            axis=1,
        )
        self.area = p[:, 3] * p[:, 4]


def _polygon_ends(pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first and of the last vertex of each polygon in a
    vertex array grouped by ``pair``."""
    starts = np.empty(len(pair), dtype=bool)
    starts[0] = True
    np.not_equal(pair[1:], pair[:-1], out=starts[1:])
    first = starts.nonzero()[0]
    last = np.empty_like(first)
    last[:-1] = first[1:] - 1
    last[-1] = len(pair) - 1
    return first, last


def _clip_edge(x, y, pair, ax, ay, bx, by):
    """One Sutherland-Hodgman step on every pair's polygon at once.

    ``x``, ``y`` are the vertices of all polygons, grouped by ``pair`` in
    polygon order.  Each is cut by the half-plane left of its pair's edge
    A -> B (boundary points count as inside): a vertex emits the crossing
    from its predecessor, if any, then itself, if inside.  Returns the
    emitted vertices in the same layout.  Crossing points are computed for
    every vertex, with division warnings off; only the real ones are kept.
    """
    v = len(pair)
    side = (bx - ax)[pair] * (y - ay[pair]) - (by - ay)[pair] * (x - ax[pair])
    first, last = _polygon_ends(pair)
    prev = np.arange(-1, v - 1)
    prev[first] = last  # a polygon's first vertex follows its last
    s_side, sx, sy = side[prev], x[prev], y[prev]
    # Per vertex, the crossing then the vertex itself.
    emit = np.empty((v, 2), dtype=bool)
    inside = np.greater_equal(side, 0.0, out=emit[:, 1])
    np.not_equal(inside, inside[prev], out=emit[:, 0])
    t = s_side / (s_side - side)
    out_x, out_y = np.empty((v, 2)), np.empty((v, 2))
    np.add(sx, t * (x - sx), out=out_x[:, 0])
    np.add(sy, t * (y - sy), out=out_y[:, 0])
    out_x[:, 1], out_y[:, 1] = x, y
    keep = emit.reshape(2 * v).nonzero()[0]
    return out_x.reshape(2 * v)[keep], out_y.reshape(2 * v)[keep], pair[keep >> 1]


def _shoelace(x, y, pair, n_pairs):
    """Shoelace area of each pair's polygon; 0 below three vertices.  The
    two cross-product sums run vertex by vertex (``cumsum`` along padded
    rows), as the float loop adds them."""
    count = np.bincount(pair, minlength=n_pairs)
    if len(x) == 0:
        return np.zeros(n_pairs)
    first, last = _polygon_ends(pair)
    nxt = np.arange(1, len(x) + 1)
    nxt[last] = first  # a polygon's last vertex wraps to its first
    col = np.arange(len(x)) - first.repeat(last - first + 1)
    # x * next y, then next x * y, padded per pair.
    terms = np.zeros((2, n_pairs, int(count.max())))
    terms[0, pair, col] = x * y[nxt]
    terms[1, pair, col] = x[nxt] * y
    forward, backward = terms.cumsum(axis=2)[:, :, -1]
    area = 0.5 * np.abs(forward - backward)
    area[count < 3] = 0.0
    return area


def _overlap(fa: _Footprints, fb: _Footprints, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Footprint intersection area of each pair (box ``i[k]`` of ``fa``,
    box ``j[k]`` of ``fb``): the first footprint clipped by the second.

    Both are placed relative to the midpoint of the two centres, an origin
    that does not depend on the argument order, so the rounding error
    scales with the boxes' size and distance rather than with their
    distance from the world origin.
    """
    a, b = fa.xy[i], fb.xy[j]
    origin = 0.5 * (a[:, :, :1] + b[:, :, :1])
    subject = a[:, :, 1:] + (a[:, :, :1] - origin)
    clip = b[:, :, 1:] + (b[:, :, :1] - origin)
    x, y = subject[:, 0].reshape(4 * len(i)), subject[:, 1].reshape(4 * len(i))
    del a, b, subject  # the clipping steps are the kernel's memory peak
    pair = np.arange(len(i)).repeat(4)
    with np.errstate(divide="ignore", invalid="ignore"):
        for e in range(4):
            if len(x) == 0:  # every polygon is clipped away
                break
            f = (e + 1) % 4
            x, y, pair = _clip_edge(x, y, pair, clip[:, 0, e], clip[:, 1, e], clip[:, 0, f], clip[:, 1, f])
    return _shoelace(x, y, pair, len(i))


def _bev_iou(fa: _Footprints, fb: _Footprints, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    if len(i) == 0:
        return np.zeros(0)
    area_a, area_b = fa.area[i], fb.area[j]
    # Clipping noise must not exceed either box.
    inter = np.minimum(np.minimum(_overlap(fa, fb, i, j), area_a), area_b)
    union = area_a + area_b - inter
    iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
    return np.minimum(np.maximum(iou, 0.0), 1.0)


def bev_iou_pairs(a: BoxArray, b: BoxArray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Bird's-eye-view IoU, in [0, 1], of each pair (``a[i[k]]``, ``b[j[k]]``).

    One batched kernel: each value is bit-identical to the scalar float
    loop (``tests/oracles.py``), and so to :func:`rotated_iou_bev` on the
    same two boxes in the same order.
    """
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    return _bev_iou(_Footprints(a), _Footprints(b), i, j)


_ONE = np.zeros(1, dtype=np.int64)  # the index array of a one-pair call
_ONE.setflags(write=False)


def intersection_area_bev(a: Box3D, b: Box3D) -> float:
    """Footprint intersection area of two oriented boxes: one pair
    through the overlap kernel, ``a`` clipped by ``b``."""
    return float(_overlap(_Footprints(BoxArray.of([a])), _Footprints(BoxArray.of([b])), _ONE, _ONE)[0])


def rotated_iou_bev(a: Box3D, b: Box3D) -> float:
    """Bird's-eye-view IoU of two yaw-rotated boxes, in [0, 1]: one pair
    through :func:`bev_iou_pairs`."""
    return float(bev_iou_pairs(BoxArray.of([a]), BoxArray.of([b]), _ONE, _ONE)[0])


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU: BEV intersection times vertical overlap over union."""
    bot_a, top_a = a.z_interval()
    bot_b, top_b = b.z_interval()
    dz = min(top_a, top_b) - max(bot_a, bot_b)
    if dz <= 0.0:
        return 0.0
    inter = intersection_area_bev(a, b) * dz
    inter = min(inter, a.volume, b.volume)
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def _size_levels(diag: np.ndarray, top: float) -> np.ndarray:
    """Each diagonal's size level: the largest L <= _MAX_LEVEL with
    ``diag <= top * 2**-L``.  The quotient ``top / diag`` is correctly
    rounded, so it reaches 2**L exactly when that holds."""
    return np.minimum(np.frexp(top / diag)[1] - 1, _MAX_LEVEL)


def _filed_pairs(index: CellIndex, queries: np.ndarray | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every (query, point) pair within each query's 3x3 block of
    ``index``, about ``_REACH_CHUNK`` pairs at a time.  Without
    ``queries``, the indexed points against each other, each pair once:
    the forward half of each point's block, and in its own cell only the
    points after it in index order."""
    if queries is None:
        rows, slots = index.block_slots(index.cell_of(index.points), forward=True)
        position = np.empty(len(index.order), dtype=np.int64)
        position[index.order] = np.arange(len(index.order))
    else:
        rows, slots = index.block_slots(index.cell_of(queries))
    # A chunk is the hits whose first pair falls in one run of
    # _REACH_CHUNK pairs.
    count = index.count[slots]
    cuts = np.flatnonzero(np.diff((np.cumsum(count) - count) // _REACH_CHUNK)) + 1
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(rows)]):
        q, s = index.expand(rows[lo:hi], slots[lo:hi])
        if queries is None:
            later = position[q] < position[s]
            q, s = q[later], s[later]
        yield q, s


def reaching_pairs(a: BoxArray, b: BoxArray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (i, j), box ``a[i]`` and box ``b[j]``, whose centres lie
    within the sum of their half-diagonals (inclusive): ``dx * dx + dy * dy
    <= reach * reach`` with ``reach = 0.5 * (diag_i + diag_j)``.  Any other
    pair's footprints are disjoint, with IoU 0.  With ``b`` omitted, the
    pairs of ``a`` with ``i < j``.  The pairs come in no particular order.

    Cost: boxes are split into size levels, level L holding the diagonals
    in (top * 2**-(L+1), top * 2**-L] for the largest diagonal ``top``.  A
    pair is looked up in a :class:`~graphdet.neighbors.CellIndex` of its
    larger box's level, of cell side ``top * 2**-L``, which bounds the
    pair's reach, so the pair lies in the 3x3 block of the smaller box's
    cell.  One huge box therefore adds one level and a pair per box, never
    a coarse grid for all.  Within one set, each same-level pair is listed
    once, from the forward half of a block.  Candidates are tested
    ``_REACH_CHUNK`` at a time, so memory grows with the pairs that reach.
    """
    same = b is None
    b = a if same else b
    empty = np.empty(0, dtype=np.int32)
    if len(a) == 0 or len(b) == 0:
        return empty, empty
    xy = (a.params[:, :2], b.params[:, :2])
    diag = (a.bev_diagonal, b.bev_diagonal)
    top = max(diag[0].max(), diag[1].max())
    level = (_size_levels(diag[0], top), _size_levels(diag[1], top))
    found_i, found_j = [], []

    def add_near(i: np.ndarray, j: np.ndarray) -> None:
        if same:
            i, j = np.minimum(i, j), np.maximum(i, j)
        dx, dy = xy[0][i, 0] - xy[1][j, 0], xy[0][i, 1] - xy[1][j, 1]
        reach = 0.5 * (diag[0][i] + diag[1][j])
        near = dx * dx + dy * dy <= reach * reach
        found_i.append(i[near].astype(np.int32))
        found_j.append(j[near].astype(np.int32))

    for lv in np.union1d(*level).tolist():
        side = math.ldexp(top, -lv) * (1.0 + _SLACK)
        # The larger box of a pair is filed, the other queries.
        if same:
            # This level's boxes against each other, then the smaller ones
            # against them.
            s_idx, q_idx = np.flatnonzero(level[0] == lv), np.flatnonzero(level[0] > lv)
            index = CellIndex(xy[0][s_idx], side)
            for q, s in _filed_pairs(index):
                add_near(s_idx[q], s_idx[s])
            if len(q_idx):
                for q, s in _filed_pairs(index, xy[0][q_idx]):
                    add_near(q_idx[q], s_idx[s])
            continue
        # b's boxes of this level against a's of this level or smaller,
        # then a's of this level against b's strictly smaller.
        for filed, query, q_level in ((1, 0, level[0] >= lv), (0, 1, level[1] > lv)):
            q_idx, s_idx = np.flatnonzero(q_level), np.flatnonzero(level[filed] == lv)
            if len(q_idx) == 0 or len(s_idx) == 0:
                continue
            index = CellIndex(xy[filed][s_idx], side)
            for q, s in _filed_pairs(index, xy[query][q_idx]):
                add_near(*((q_idx[q], s_idx[s]) if filed else (s_idx[s], q_idx[q])))
    if not found_i:
        return empty, empty
    return np.concatenate(found_i), np.concatenate(found_j)


def _leader_pass(
    candidates: BoxArray, footprints: _Footprints, iou_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """The kept and the undecided masks of ranked candidates after their
    block leaders have been kept and have suppressed.

    The candidates are filed in a :class:`~graphdet.neighbors.CellIndex`
    whose cell side bounds every pair's reach, so a box that reaches
    another lies in the 3x3 block of its cell.  A leader ranks first in
    its own block: no higher-ranked box can reach it, so the greedy sweep
    keeps it.  Its reaching lower-ranked partners are clipped against it
    in one kernel call, and those above ``iou_threshold`` are suppressed.
    Two leaders never share or neighbour a cell, so a cell lies in at most
    four leaders' blocks and the pass lists at most 4n pairs.
    """
    xy, diag = candidates.params[:, :2], candidates.bev_diagonal
    index = CellIndex(xy, float(diag.max()) * (1.0 + _SLACK))
    # A cell's points come in index order, which is rank order; the block
    # hits come grouped by cell, each cell's own among them.
    best = index.order[index.start]
    rows, slots = index.block_slots(index.cell_of(xy[best]))
    leads = best == np.minimum.reduceat(best[slots], np.searchsorted(rows, np.arange(len(best))))
    hit = leads[rows]  # the hits of the leaders' blocks
    k, j = index.expand(rows[hit], slots[hit])
    k = best[k]
    dx, dy = xy[j, 0] - xy[k, 0], xy[j, 1] - xy[k, 1]
    reach = 0.5 * (diag[j] + diag[k])
    near = (dx * dx + dy * dy <= reach * reach) & (j > k)
    k, j = k[near], j[near]
    kept = np.zeros(len(candidates), dtype=bool)
    kept[best[leads]] = True
    undecided = ~kept
    undecided[j[_bev_iou(footprints, footprints, j, k) > iou_threshold]] = False
    return kept, undecided


def _waves(
    high: np.ndarray, low: np.ndarray, footprints: _Footprints, ids: np.ndarray, iou_threshold: float
) -> np.ndarray:
    """The greedy sweep's keep mask over ranked boxes, box k being
    ``ids[k]`` of ``footprints``, decided in waves (see :func:`nms`) from
    their :func:`reaching_pairs`, ``high`` outranking ``low``."""
    n = len(ids)
    # The pairs filed by ``high``: the lower-ranked neighbours of box k
    # are lower[start[k]:start[k + 1]].
    lower = low[np.argsort(high)]
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(high, minlength=n), out=start[1:])

    def neighbours_below(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        count = start[boxes + 1] - start[boxes]
        first = np.repeat(start[boxes] - (np.cumsum(count) - count), count)
        return np.repeat(boxes, count), lower[first + np.arange(count.sum())]

    pending = np.bincount(low, minlength=n)  # undecided higher-ranked neighbours
    undecided = np.ones(n, dtype=bool)
    kept = np.zeros(n, dtype=bool)
    new = np.flatnonzero(pending == 0)
    while len(new):
        kept[new] = True
        undecided[new] = False
        k, j = neighbours_below(new)
        live = undecided[j]
        k, j = k[live], j[live]
        hit = np.zeros(n, dtype=bool)
        hit[j[_bev_iou(footprints, footprints, ids[j], ids[k]) > iou_threshold]] = True
        suppressed = np.flatnonzero(hit)
        undecided[suppressed] = False
        # Every lower neighbour of a box decided in this wave has one
        # undecided higher-ranked neighbour fewer per pair; the bincounts
        # count them by box without sorting the pairs.
        _, below = neighbours_below(suppressed)
        fewer = np.bincount(j, minlength=n) + np.bincount(below, minlength=n)
        pending -= fewer
        new = np.flatnonzero((fewer > 0) & (pending == 0) & undecided)
    return kept


def nms(
    boxes: Sequence[Box3D],
    iou_threshold: float = 0.1,
    score_threshold: float = 0.3,
) -> BoxArray:
    """Greedy non-maximum suppression on BEV IoU.

    Boxes scoring below ``score_threshold`` are dropped up front.  The
    rest are visited by descending score (ties by lower input index); a
    box is kept iff its IoU with every already-kept box is at most
    ``iou_threshold``.  The kept boxes come back as a
    :class:`~graphdet.scene.BoxArray`, sorted by descending score, whether
    ``boxes`` is a BoxArray or a sequence of :class:`Box3D`.  Both
    thresholds must lie in [0, 1].

    Cost: one sort, then block leaders first and waves over the rest.
    The ranked candidates are filed once in a
    :class:`~graphdet.neighbors.CellIndex` whose cell side, the largest
    BEV diagonal, bounds every pair's reach.  A candidate ranking first in
    its 3x3 block of cells (a leader) is kept, since nothing higher-ranked
    can reach it, and one kernel call clips its reaching lower-ranked
    block partners against it and suppresses those above the threshold.
    Leaders never share or neighbour a cell, so a cell lies in at most
    four leaders' blocks: the leader pass lists at most 4n pairs, however
    dense the frame, with no size levels.  Only the candidates still
    undecided have their reaching pairs listed (:func:`reaching_pairs`),
    filed by the higher-ranked box, and go through waves.  Each wave keeps
    every undecided candidate whose count of undecided higher-ranked
    neighbours is 0, takes the IoUs of those new keeps with their
    undecided lower-ranked neighbours in one kernel call, suppresses the
    neighbours whose IoU is above the threshold, and counts down the
    lower-ranked neighbours of every box it decided.  A wave thus reads
    only the pairs of the boxes it decides, so each pair is read once in
    all, and a wave's fixed cost is one kernel call.  The waves are as many
    as the longest chain of kept or suppressing neighbours: n boxes in one
    spot at threshold 1 take n waves.  This is exactly the greedy sweep: a
    candidate is decided only once every higher-ranked neighbour is (the
    leaders it reaches have all been tried against it), and each IoU is
    bit-identical to the sweep's (the candidate's footprint clipped by the
    kept box's).  Pairs that cannot reach have IoU 0 and are never
    computed.
    """
    for name, value in (("iou_threshold", iou_threshold), ("score_threshold", score_threshold)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"nms {name} must be a finite number in [0, 1], got {value}")
    arr = BoxArray.of(boxes)
    missing = np.flatnonzero(np.isnan(arr.scores))
    if len(missing):
        raise ValueError(f"box {missing[0]} has no score; NMS needs scored boxes")
    order = np.lexsort((np.arange(len(arr)), -arr.scores))
    order = order[arr.scores[order] >= score_threshold]
    candidates = arr.take(order)
    if len(candidates) == 0:
        return candidates
    footprints = _Footprints(candidates)
    kept, undecided = _leader_pass(candidates, footprints, iou_threshold)
    rest = np.flatnonzero(undecided)
    kept[rest[_waves(*reaching_pairs(candidates.take(rest)), footprints, rest, iou_threshold)]] = True
    return arr.take(order[kept])


@dataclass(frozen=True)
class AnchorConfig:
    """Layout of the fixed BEV anchor grid.

    ``bev_resolution`` is (rows, cols): rows stride the y extent, columns
    the x extent.  One anchor per configured yaw sits at every cell
    centre, at height ``z_center``.
    """

    dims: tuple[float, float, float] = CAR_DIMS
    yaws: tuple[float, ...] = (0.0, math.pi / 2)
    bev_resolution: tuple[int, int] = (200, 176)
    z_center: float = -1.0
    pos_iou: float = 0.6
    neg_iou: float = 0.45

    def __post_init__(self) -> None:
        rows, cols = self.bev_resolution
        if rows < 1 or cols < 1:
            raise ValueError("bev_resolution must be positive")
        if not self.yaws:
            raise ValueError("at least one anchor yaw is required")
        if not 0.0 <= self.neg_iou <= self.pos_iou <= 1.0:
            raise ValueError("need 0 <= neg_iou <= pos_iou <= 1")

    @property
    def count(self) -> int:
        rows, cols = self.bev_resolution
        return rows * cols * len(self.yaws)


def generate_anchors(config: AnchorConfig, range_bounds: RangeBounds) -> list[Box3D]:
    """Materialise the anchor grid in row-major, yaw-minor order."""
    bounds = _check_bounds(range_bounds)
    (x_lo, x_hi), (y_lo, y_hi), _ = bounds
    rows, cols = config.bev_resolution
    dy = (y_hi - y_lo) / rows
    dx = (x_hi - x_lo) / cols
    anchors = []
    for r in range(rows):
        cy = y_lo + (r + 0.5) * dy
        for c in range(cols):
            cx = x_lo + (c + 0.5) * dx
            for yaw in config.yaws:
                anchors.append(
                    Box3D((cx, cy, config.z_center), config.dims, yaw, class_id=0)
                )
    return anchors


@dataclass(frozen=True)
class AnchorAssignment:
    """Per-anchor match labels and ground-truth indices.

    ``labels[i]`` is POSITIVE / NEGATIVE / IGNORE; ``gt_indices[i]`` gives
    the matched ground-truth index for positive anchors and -1 otherwise.
    """

    labels: np.ndarray
    gt_indices: np.ndarray
    max_iou: np.ndarray


def pairwise_bev_iou(boxes_a: Sequence[Box3D], boxes_b: Sequence[Box3D]) -> np.ndarray:
    """Dense BEV IoU matrix: entry (i, j) is the IoU of ``boxes_a[i]``
    clipped by ``boxes_b[j]``, computed in one kernel call over the pairs
    that reach (:func:`reaching_pairs`); the rest are 0."""
    a, b = BoxArray.of(boxes_a), BoxArray.of(boxes_b)
    iou = np.zeros((len(a), len(b)))
    i, j = reaching_pairs(a, b)
    iou[i, j] = bev_iou_pairs(a, b, i, j)
    return iou


def match_anchors(
    anchors: Sequence[Box3D],
    gt_boxes: Sequence[Box3D],
    config: AnchorConfig,
) -> AnchorAssignment:
    """Assign ground truth to anchors by BEV IoU thresholds.

    An anchor is positive when its best overlap reaches ``pos_iou`` and
    negative below ``neg_iou``; anything between is ignored.  On top of
    the thresholds, the best-overlapping anchor of every ground-truth box
    is forced positive (provided the overlap is non-zero) so no object
    goes unclaimed.  Ties always resolve to the lower index; an anchor
    forced by several ground-truth boxes goes to the one with the higher
    overlap.
    """
    n = len(anchors)
    labels = np.full(n, NEGATIVE, dtype=np.int8)
    gt_indices = np.full(n, -1, dtype=np.int64)
    max_iou = np.zeros(n)
    if n == 0 or len(gt_boxes) == 0:
        return AnchorAssignment(labels, gt_indices, max_iou)

    iou = pairwise_bev_iou(anchors, gt_boxes)
    best_gt = iou.argmax(axis=1)  # ties -> lower gt index
    max_iou = iou[np.arange(n), best_gt]

    labels[max_iou >= config.pos_iou] = POSITIVE
    labels[(max_iou >= config.neg_iou) & (max_iou < config.pos_iou)] = IGNORE
    gt_indices[labels == POSITIVE] = best_gt[labels == POSITIVE]

    # Force-match each gt to its best anchor; conflicts keep the higher IoU.
    forced: dict[int, tuple[float, int]] = {}
    for g in range(len(gt_boxes)):
        a = int(iou[:, g].argmax())  # ties -> lower anchor index
        if iou[a, g] <= 0.0:
            continue
        incumbent = forced.get(a)
        if incumbent is None or iou[a, g] > incumbent[0]:
            forced[a] = (float(iou[a, g]), g)
    for a, (_, g) in forced.items():
        labels[a] = POSITIVE
        gt_indices[a] = g
    return AnchorAssignment(labels, gt_indices, max_iou)


def encode_boxes(gt: BoxArray, reference: BoxArray) -> np.ndarray:
    """(n, 7) regression residuals of each box ``gt[k]`` relative to ``reference[k]``.

    Centre offsets are normalised by the reference footprint diagonal
    (x, y) and height (z); sizes are log ratios, taken with ``math.log``
    entry by entry; yaw is the difference wrapped to (-pi, pi], so two
    yaws straddling the seam encode as a small angle.
    """
    if len(gt) != len(reference):
        raise ValueError(f"{len(gt)} boxes but {len(reference)} references")
    g, r = gt.params, reference.params
    ratios = (g[:, 3:6] / r[:, 3:6]).ravel().tolist()
    out = np.empty((len(g), 7))
    out[:, :3] = (g[:, :3] - r[:, :3]) / _centre_scale(reference)
    out[:, 3:6] = np.array(list(map(math.log, ratios)), dtype=float).reshape(-1, 3)
    out[:, 6] = normalize_yaw(g[:, 6] - r[:, 6])
    return out


def _centre_scale(reference: BoxArray) -> np.ndarray:
    """(n, 3) units of the centre residuals: the footprint diagonal for x
    and y, the height for z."""
    d = reference.bev_diagonal
    return np.column_stack([d, d, reference.params[:, 5]])


def _exp(x: float) -> float:
    """``math.exp``, infinite where the result overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def decode_boxes(residuals: np.ndarray, reference: BoxArray, scores: np.ndarray) -> BoxArray:
    """Invert :func:`encode_boxes`: the box each residual row encodes
    relative to ``reference[k]``, scored ``scores[k]``, with the
    reference's class.  Sizes scale by ``math.exp`` entry by entry; yaws
    are re-normalised to (-pi, pi].  A row that decodes to a non-finite
    box, a non-positive size or a score outside [0, 1], as from a
    diverged header, raises ValueError naming the first such row.
    """
    res = np.asarray(residuals, dtype=float)
    n = len(reference)
    scores = np.array(scores, dtype=float)
    if res.shape != (n, 7) or scores.shape != (n,):
        raise ValueError(
            f"expected ({n}, 7) residuals and ({n},) scores, got {res.shape} and {scores.shape}"
        )
    r = reference.params
    scale = np.array(list(map(_exp, res[:, 3:6].ravel().tolist())), dtype=float)
    params = np.empty((n, 7))
    with np.errstate(over="ignore", invalid="ignore"):
        params[:, :3] = r[:, :3] + res[:, :3] * _centre_scale(reference)
        params[:, 3:6] = r[:, 3:6] * scale.reshape(-1, 3)
        params[:, 6] = r[:, 6] + res[:, 6]
    valid = np.isfinite(params).all(axis=1) & (params[:, 3:6] > 0.0).all(axis=1)
    bad = np.flatnonzero(~(valid & (scores >= 0.0) & (scores <= 1.0)))
    if len(bad):
        i = bad[0]
        raise ValueError(
            f"proposal {i} decodes to box {params[i].tolist()} with score {scores[i]}: "
            "a box needs finite parameters, positive dims and a score in [0, 1]"
        )
    params[:, 6] = normalize_yaw(params[:, 6])
    return BoxArray(params, scores, reference.class_ids)


def points_in_box(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Vectorised face-inclusive containment for an (N, 3) array."""
    d = points[:, :2] - np.array(box.center[:2])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx = c * d[:, 0] + s * d[:, 1]
    ly = -s * d[:, 0] + c * d[:, 1]
    l, w, h = box.dims
    return (
        (np.abs(lx) <= 0.5 * l)
        & (np.abs(ly) <= 0.5 * w)
        & (np.abs(points[:, 2] - box.center[2]) <= 0.5 * h)
    )
