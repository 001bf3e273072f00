"""Oriented-box geometry: overlap, suppression, anchors, and box coding.

BEV overlap of yaw-rotated rectangles is computed exactly with
Sutherland-Hodgman polygon clipping plus the shoelace formula; 3D IoU
extends it with the vertical interval overlap.  Both run on Python floats
(a few microseconds per pair; NumPy's per-call cost dwarfs four vertices).
The module also carries greedy NMS, the anchor grid, IoU-threshold target
assignment and the relative box encoding used for regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scene import (
    CAR_DIMS,
    Box3D,
    RangeBounds,
    _check_bounds,
    normalize_yaw,
)

# NMS grid: relative and absolute (metres) slack on each box's bounding
# square, and the most cells a square may touch and still be filed.
_NMS_SLACK = 1e-9
_GRID_SPAN = 1024

# Anchor match labels.
POSITIVE = 1
NEGATIVE = 0
IGNORE = -1


def _footprint(box: Box3D, ox: float, oy: float) -> list[tuple[float, float]]:
    """Footprint corners relative to the origin ``(ox, oy)``, as float
    pairs in :meth:`Box3D.corners_bev` order."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lc, ls = 0.5 * box.dims[0] * c, 0.5 * box.dims[0] * s
    wc, ws = 0.5 * box.dims[1] * c, 0.5 * box.dims[1] * s
    cx, cy = box.center[0] - ox, box.center[1] - oy  # each sum in corners_bev's matmul order
    return [
        (lc - ws + cx, ls + wc + cy),
        (-lc - ws + cx, -ls + wc + cy),
        (-lc + ws + cx, -ls - wc + cy),
        (lc + ws + cx, ls - wc + cy),
    ]


def _area(poly: list) -> float:
    """Shoelace area of a vertex list; the loop behind :func:`polygon_area`."""
    if len(poly) < 3:
        return 0.0
    forward = backward = 0.0
    for (x, y), (nx, ny) in zip(poly, poly[1:] + poly[:1]):
        forward += x * ny
        backward += nx * y
    return 0.5 * abs(forward - backward)


def _clip(subject: list, clip: list) -> list:
    """Sutherland-Hodgman on vertex lists; the loop behind :func:`clip_polygon`."""
    output = subject
    for (ax, ay), (bx, by) in zip(clip, clip[1:] + clip[:1]):
        if not output:
            break
        ex_, ey_ = bx - ax, by - ay
        vertices = output
        output = []
        sx, sy = vertices[-1]
        s_side = ex_ * (sy - ay) - ey_ * (sx - ax)
        s_in = s_side >= 0.0
        for px, py in vertices:
            p_side = ex_ * (py - ay) - ey_ * (px - ax)
            p_in = p_side >= 0.0
            if p_in != s_in:  # the edge crosses the clip line
                t = s_side / (s_side - p_side)
                output.append((sx + t * (px - sx), sy + t * (py - sy)))
            if p_in:
                output.append((px, py))
            sx, sy, s_in, s_side = px, py, p_in, p_side
    return output


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a simple polygon given as an (n, 2) vertex array."""
    return _area(np.asarray(poly, dtype=float).tolist())


def clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Clip ``subject`` against a convex counter-clockwise polygon ``clip``.

    Standard Sutherland-Hodgman sweep: the subject is cut by each clip
    edge's half-plane in turn.  Boundary points count as inside, so
    touching boxes produce a degenerate (zero-area) polygon rather than
    disappearing outright.
    """
    output = _clip(np.asarray(subject, dtype=float).tolist(), np.asarray(clip, dtype=float).tolist())
    return np.array(output) if output else np.empty((0, 2))


def intersection_area_bev(a: Box3D, b: Box3D) -> float:
    """Footprint intersection area of two oriented boxes.

    Both footprints are clipped relative to the midpoint of the two
    centres, an origin that does not depend on the argument order, so the
    rounding error scales with the boxes' size and distance rather than
    with their distance from the world origin.
    """
    ox = 0.5 * (a.center[0] + b.center[0])
    oy = 0.5 * (a.center[1] + b.center[1])
    return _area(_clip(_footprint(a, ox, oy), _footprint(b, ox, oy)))


def rotated_iou_bev(a: Box3D, b: Box3D) -> float:
    """Bird's-eye-view IoU of two yaw-rotated boxes, in [0, 1]."""
    area_a = a.dims[0] * a.dims[1]
    area_b = b.dims[0] * b.dims[1]
    inter = intersection_area_bev(a, b)
    inter = min(inter, area_a, area_b)  # clipping noise must not exceed either box
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def footprints_reach(a: Box3D, b: Box3D) -> bool:
    """Whether two footprints can overlap: their centres lie within the sum
    of their half-diagonals (inclusive).  Pairs failing this have IoU 0."""
    dx, dy = a.center[0] - b.center[0], a.center[1] - b.center[1]
    reach = 0.5 * (a.bev_diagonal + b.bev_diagonal)
    return dx * dx + dy * dy <= reach * reach


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


def nms(
    boxes: Sequence[Box3D],
    iou_threshold: float = 0.1,
    score_threshold: float = 0.3,
) -> list[Box3D]:
    """Greedy non-maximum suppression on BEV IoU.

    Boxes scoring below ``score_threshold`` are dropped up front.  The
    rest are visited by descending score (ties by lower input index); a
    box is kept iff its IoU with every already-kept box is at most
    ``iou_threshold``.  The kept list comes back sorted by descending
    score.  Both thresholds must lie in [0, 1].

    Cost: one sort, then per candidate a few dictionary lookups and exact
    IoU only with the kept boxes it can reach, in kept order, up to the
    first suppressor.  The pairs that get IoU are those passing
    :func:`footprints_reach`, written out here on precomputed floats.

    Kept boxes are filed in a BEV grid whose cell side is the median
    candidate diagonal: each under every cell its bounding square touches,
    the square's half-side being half its diagonal enlarged by a 1e-9
    relative and absolute slack.  A candidate applies the reach test only
    to the kept boxes filed in the cells its own square touches.  The grid
    is exact: a pair passing the floating-point reach test lies within a
    few rounding errors of ``reach`` on each axis, so the two slackened
    squares overlap; rounding the square edges, dividing by the cell side
    and flooring are monotone, so their cell ranges overlap too.  A square
    touching more than ``_GRID_SPAN`` cells (a box far wider than the
    median) is not filed: every candidate tests such a kept box, and such
    a candidate tests every kept box.
    """
    for name, value in (("iou_threshold", iou_threshold), ("score_threshold", score_threshold)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"nms {name} must be a finite number in [0, 1], got {value}")
    for i, box in enumerate(boxes):
        if box.score is None:
            raise ValueError(f"box {i} has no score; NMS needs scored boxes")
    scores = np.array([b.score for b in boxes], dtype=float)
    order = np.lexsort((np.arange(len(boxes)), -scores))
    candidates = [boxes[i] for i in order[scores[order] >= score_threshold].tolist()]
    if not candidates:
        return []
    xs = [b.center[0] for b in candidates]
    ys = [b.center[1] for b in candidates]
    diags = [b.bev_diagonal for b in candidates]
    cell = float(np.median(diags))
    half = 0.5 * np.array(diags) * (1.0 + _NMS_SLACK) + _NMS_SLACK
    lo = np.floor((np.array([xs, ys]) - half) / cell)
    hi = np.floor((np.array([xs, ys]) + half) / cell)
    # A filed square touches at most _GRID_SPAN cells, all with int64 indices; inf and NaN fail.
    filed = ((hi - lo + 1.0).prod(axis=0) <= _GRID_SPAN) & (np.abs(lo) < 2.0**62).all(axis=0)
    (x0, y0), (x1, y1) = np.where(filed, np.stack([lo, hi]), 0.0).astype(np.int64).tolist()
    filed = filed.tolist()

    # Grid cells and the unfiled list hold candidate positions; kept ones
    # ascend, so sorting a set of them restores kept order.
    grid: dict[tuple[int, int], list[int]] = {}
    unfiled: list[int] = []
    kept: list[int] = []
    for p, candidate in enumerate(candidates):
        if filed[p]:
            cells = [(gx, gy) for gx in range(x0[p], x1[p] + 1) for gy in range(y0[p], y1[p] + 1)]
            near = set(unfiled)
            for key in cells:
                near.update(grid.get(key, ()))
            near = sorted(near)
        else:
            near = kept
        cx, cy, diag = xs[p], ys[p], diags[p]
        for q in near:
            dx, dy = cx - xs[q], cy - ys[q]
            reach = 0.5 * (diag + diags[q])
            if dx * dx + dy * dy <= reach * reach and rotated_iou_bev(candidate, candidates[q]) > iou_threshold:
                break
        else:
            if filed[p]:
                for key in cells:
                    grid.setdefault(key, []).append(p)
            else:
                unfiled.append(p)
            kept.append(p)
    return [candidates[p] for p in kept]


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


def _pairwise_bev_iou(boxes_a: Sequence[Box3D], boxes_b: Sequence[Box3D]) -> np.ndarray:
    """Dense BEV IoU matrix with a centre-distance prefilter for far pairs."""
    n_a, n_b = len(boxes_a), len(boxes_b)
    iou = np.zeros((n_a, n_b))
    if n_a == 0 or n_b == 0:
        return iou
    ca = np.array([b.center[:2] for b in boxes_a])
    cb = np.array([b.center[:2] for b in boxes_b])
    da = np.array([b.bev_diagonal for b in boxes_a])
    db = np.array([b.bev_diagonal for b in boxes_b])
    reach = 0.5 * (da[:, None] + db[None, :])
    d2 = ((ca[:, None, :] - cb[None, :, :]) ** 2).sum(axis=2)
    for i, j in zip(*np.nonzero(d2 <= reach**2)):
        iou[i, j] = rotated_iou_bev(boxes_a[i], boxes_b[j])
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

    iou = _pairwise_bev_iou(anchors, gt_boxes)
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


def encode_box(gt: Box3D, anchor: Box3D) -> np.ndarray:
    """Regression residuals of ``gt`` relative to ``anchor``.

    Centre offsets are normalised by the anchor footprint diagonal (x, y)
    and height (z); sizes are log ratios; yaw is a plain difference.
    """
    d = anchor.bev_diagonal
    return np.array(
        [
            (gt.center[0] - anchor.center[0]) / d,
            (gt.center[1] - anchor.center[1]) / d,
            (gt.center[2] - anchor.center[2]) / anchor.dims[2],
            math.log(gt.dims[0] / anchor.dims[0]),
            math.log(gt.dims[1] / anchor.dims[1]),
            math.log(gt.dims[2] / anchor.dims[2]),
            gt.yaw - anchor.yaw,
        ]
    )


def decode_box(
    residuals: np.ndarray,
    anchor: Box3D,
    score: float | None = None,
    class_id: int | None = None,
) -> Box3D:
    """Invert :func:`encode_box`; the yaw is re-normalised to (-pi, pi]."""
    res = np.asarray(residuals, dtype=float)
    if res.shape != (7,):
        raise ValueError(f"expected 7 residuals, got shape {res.shape}")
    d = anchor.bev_diagonal
    return Box3D(
        center=(
            anchor.center[0] + res[0] * d,
            anchor.center[1] + res[1] * d,
            anchor.center[2] + res[2] * anchor.dims[2],
        ),
        dims=(
            anchor.dims[0] * math.exp(res[3]),
            anchor.dims[1] * math.exp(res[4]),
            anchor.dims[2] * math.exp(res[5]),
        ),
        yaw=anchor.yaw + res[6],
        score=score,
        class_id=class_id if class_id is not None else anchor.class_id,
    )


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
