"""Independent reference for the benchmark's output checks.

Nothing here imports ``graphdet``.  Boxes are plain tuples
``(cx, cy, l, w, yaw)`` in the ground plane: the length runs along the
heading ``yaw``, as in ``graphdet.scene.Box3D``.

* :func:`bev_iou` computes the rotated-rectangle IoU by collecting the
  vertices of the intersection polygon (corners of one rectangle inside
  the other, plus edge crossings), ordering them by angle around their
  centroid and applying the shoelace formula.  ``graphdet.geom`` clips
  polygons instead, so agreement between the two means something.
* :func:`check_greedy_nms` checks four properties that together fix the
  result of greedy non-maximum suppression.
* :func:`average_precision` recomputes AP by greedy matching and recall
  interpolation, comparing recall levels exactly in integers.
"""

from __future__ import annotations

import math
from collections import defaultdict

_INSIDE_EPS = 1e-9


def _frame(box):
    cx, cy, l, w, yaw = box
    return cx, cy, 0.5 * l, 0.5 * w, math.cos(yaw), math.sin(yaw)


def _corners(box):
    cx, cy, hl, hw, c, s = _frame(box)
    return [
        (cx + c * u - s * v, cy + s * u + c * v)
        for u, v in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    ]


def _inside(point, box) -> bool:
    cx, cy, hl, hw, c, s = _frame(box)
    dx, dy = point[0] - cx, point[1] - cy
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return abs(u) <= hl * (1 + _INSIDE_EPS) and abs(v) <= hw * (1 + _INSIDE_EPS)


def _crossing(p1, p2, q1, q2):
    """Intersection point of segments p1-p2 and q1-q2, or None."""
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    sx, sy = q2[0] - q1[0], q2[1] - q1[1]
    denom = rx * sy - ry * sx
    if denom == 0.0:
        return None  # parallel: shared stretches come in through the corners
    qpx, qpy = q1[0] - p1[0], q1[1] - p1[1]
    t = (qpx * sy - qpy * sx) / denom
    u = (qpx * ry - qpy * rx) / denom
    if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
        return (p1[0] + t * rx, p1[1] + t * ry)
    return None


def could_overlap(a, b) -> bool:
    """False when the centres are further apart than the two circumradii."""
    reach = 0.5 * (math.hypot(a[2], a[3]) + math.hypot(b[2], b[3]))
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 <= reach * reach


def intersection_area(a, b) -> float:
    """Area of the intersection of two rotated rectangles."""
    if not could_overlap(a, b):
        return 0.0
    ca, cb = _corners(a), _corners(b)
    points = [p for p in ca if _inside(p, b)] + [q for q in cb if _inside(q, a)]
    for i in range(4):
        for j in range(4):
            hit = _crossing(ca[i], ca[(i + 1) % 4], cb[j], cb[(j + 1) % 4])
            if hit is not None:
                points.append(hit)
    if len(points) < 3:
        return 0.0
    mx = sum(p[0] for p in points) / len(points)
    my = sum(p[1] for p in points) / len(points)
    points.sort(key=lambda p: math.atan2(p[1] - my, p[0] - mx))
    twice = 0.0
    for i, (x0, y0) in enumerate(points):
        x1, y1 = points[(i + 1) % len(points)]
        twice += x0 * y1 - x1 * y0
    return 0.5 * abs(twice)


def bev_iou(a, b) -> float:
    """Rotated BEV IoU of two ``(cx, cy, l, w, yaw)`` boxes, in [0, 1]."""
    area_a, area_b = a[2] * a[3], b[2] * b[3]
    inter = min(intersection_area(a, b), area_a, area_b)
    union = area_a + area_b - inter
    return min(max(inter / union, 0.0), 1.0) if union > 0.0 else 0.0


def _angle_gap(x: float, y: float) -> float:
    d = (x - y) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _near(boxes):
    """Grid over box centres: returns a function listing possibly overlapping indices."""
    cell = max((math.hypot(b[2], b[3]) for b in boxes), default=1.0)
    grid = defaultdict(list)
    for i, b in enumerate(boxes):
        grid[(math.floor(b[0] / cell), math.floor(b[1] / cell))].append(i)

    def lookup(box):
        gx, gy = math.floor(box[0] / cell), math.floor(box[1] / cell)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                yield from grid.get((gx + dx, gy + dy), ())

    return lookup


def check_greedy_nms(
    candidates,
    kept,
    iou_threshold: float,
    score_threshold: float,
    tol: float = 1e-9,
) -> list[str]:
    """Problems found in ``kept`` as greedy NMS of ``candidates``; empty if none.

    Both arguments are sequences of ``(cx, cy, cz, l, w, h, yaw, score)``
    records; ``kept`` is in output order.  Candidates rank by descending
    score, ties by input index.  The four properties checked fix the
    greedy result uniquely:

    1. kept boxes are candidates scoring at least ``score_threshold``;
    2. kept boxes come in descending score order;
    3. no two kept boxes overlap by more than ``iou_threshold``;
    4. every other candidate above the score threshold overlaps a
       higher-ranked kept box by more than ``iou_threshold``.

    Pairs whose IoU lies within ``tol`` of the threshold are undecided and
    violate neither 3 nor 4.
    """
    problems: list[str] = []
    eligible = [i for i, c in enumerate(candidates) if c[7] >= score_threshold]
    eligible.sort(key=lambda i: (-candidates[i][7], i))
    rank = {i: r for r, i in enumerate(eligible)}
    by_key = defaultdict(list)
    for i in eligible:
        c = candidates[i]
        by_key[(c[0], c[1], c[2], c[3], c[4], c[5], c[7])].append(i)

    kept_index: list[int] = []
    for k, box in enumerate(kept):
        pool = by_key.get((box[0], box[1], box[2], box[3], box[4], box[5], box[7]), [])
        match = next((i for i in pool if _angle_gap(candidates[i][6], box[6]) < 1e-9), None)
        if match is None:
            problems.append(f"kept box {k} is not a candidate above the score threshold")
            continue
        pool.remove(match)
        kept_index.append(match)
    for k in range(1, len(kept)):
        if kept[k][7] > kept[k - 1][7]:
            problems.append(f"kept box {k} scores above kept box {k - 1}")

    def bev(i):
        c = candidates[i]
        return (c[0], c[1], c[3], c[4], c[6])

    kept_bev = [bev(i) for i in kept_index]
    near = _near(kept_bev)
    for a, box_a in enumerate(kept_bev):
        for b in near(box_a):
            if b > a and bev_iou(box_a, kept_bev[b]) > iou_threshold + tol:
                problems.append(f"kept boxes {a} and {b} overlap beyond the threshold")
    kept_set = set(kept_index)
    for i in eligible:
        if i in kept_set:
            continue
        box = bev(i)
        if not any(
            rank[kept_index[k]] < rank[i] and bev_iou(box, kept_bev[k]) > iou_threshold - tol
            for k in near(box)
        ):
            problems.append(f"candidate {i} was dropped without a higher-ranked overlap")
    return problems


def average_precision(detections, ground_truth, iou_threshold: float, n_levels: int = 40) -> float:
    """Interpolated AP at recall levels ``1/n, 2/n, ..., 1``.

    ``detections`` are ``(box, score)`` pairs and ``ground_truth`` boxes,
    all boxes as ``(cx, cy, l, w, yaw)``.  Detections are visited by
    descending score (ties by index) and each takes the unmatched ground
    truth of highest IoU at or above ``iou_threshold`` (ties to the lower
    index).  Level ``i`` takes the best precision among points whose
    recall ``tp / n_gt`` is at least ``i / n_levels``.
    """
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][1], i))
    matched = [False] * len(ground_truth)
    points: list[tuple[float, int]] = []
    tp = fp = 0
    for i in order:
        box = detections[i][0]
        best, best_g = -1.0, -1
        for g, gt in enumerate(ground_truth):
            if matched[g]:
                continue
            q = bev_iou(box, gt)
            if q >= iou_threshold and q > best:
                best, best_g = q, g
        if best_g >= 0:
            matched[best_g] = True
            tp += 1
        else:
            fp += 1
        points.append((tp / (tp + fp), tp))
    n_gt = len(ground_truth)
    total = 0.0
    for level in range(1, n_levels + 1):
        total += max(
            (p for p, hits in points if n_gt and hits * n_levels >= level * n_gt),
            default=0.0,
        )
    return total / n_levels
