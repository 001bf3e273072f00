"""Independent reference implementations used by the test suite.

Everything here is written the slow, obvious way — pure-Python loops,
all-pairs scans, Monte-Carlo sampling — deliberately sharing as little
code as possible with the library so agreement actually means something.
Only the Box3D container is reused.  The rotated-IoU float loop below
(``loop_rotated_iou_bev``) is the reference the library's batched kernel
must match bit for bit; the other oracles use it where the quantity under
test is the surrounding algorithm rather than the overlap itself.
"""

from __future__ import annotations

import math

import numpy as np

from graphdet import pipeline
from graphdet.gnn import header_backward, header_forward, update, update_backward
from graphdet.interp import FeatureSet
from graphdet.nnet import (
    focal_loss,
    focal_loss_grad,
    masked_smooth_l1_mean,
    masked_smooth_l1_mean_grad,
)
from graphdet.scene import Box3D, DetectionParseError, normalize_yaw


# ---------------------------------------------------------------------------
# overlap oracles


def point_in_rect(px: np.ndarray, py: np.ndarray, box: Box3D) -> np.ndarray:
    """Vectorised membership of BEV points in a rotated footprint."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx = px - box.center[0]
    dy = py - box.center[1]
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return (np.abs(lx) <= 0.5 * box.dims[0]) & (np.abs(ly) <= 0.5 * box.dims[1])


def point_in_box(point: np.ndarray, box: Box3D) -> bool:
    """Face-inclusive containment of one 3D point, on Python floats."""
    dx = point[0] - box.center[0]
    dy = point[1] - box.center[1]
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    l, w, h = box.dims
    return (
        abs(lx) <= 0.5 * l
        and abs(ly) <= 0.5 * w
        and abs(point[2] - box.center[2]) <= 0.5 * h
    )


def mc_iou_bev(a: Box3D, b: Box3D, n_samples: int, seed: int) -> float:
    """Monte-Carlo BEV IoU: sample uniformly inside a's footprint.

    The intersection is ``area(a) * P(point of a lies in b)``; sampling
    one box only keeps the variance of the ratio low.
    """
    rng = np.random.default_rng(seed)
    l, w = a.dims[0], a.dims[1]
    u = rng.uniform(-0.5 * l, 0.5 * l, size=n_samples)
    v = rng.uniform(-0.5 * w, 0.5 * w, size=n_samples)
    c, s = math.cos(a.yaw), math.sin(a.yaw)
    px = a.center[0] + c * u - s * v
    py = a.center[1] + s * u + c * v
    inter = l * w * float(np.count_nonzero(point_in_rect(px, py, b))) / n_samples
    union = l * w + b.dims[0] * b.dims[1] - inter
    return inter / union


def mc_iou_3d(a: Box3D, b: Box3D, n_samples: int, seed: int) -> float:
    """Monte-Carlo volumetric IoU, sampling uniformly inside box a."""
    rng = np.random.default_rng(seed)
    l, w, h = a.dims
    u = rng.uniform(-0.5 * l, 0.5 * l, size=n_samples)
    v = rng.uniform(-0.5 * w, 0.5 * w, size=n_samples)
    z = rng.uniform(*a.z_interval(), size=n_samples)
    c, s = math.cos(a.yaw), math.sin(a.yaw)
    px = a.center[0] + c * u - s * v
    py = a.center[1] + s * u + c * v
    bot, top = b.z_interval()
    hit = point_in_rect(px, py, b) & (z >= bot) & (z <= top)
    inter = a.volume * float(np.count_nonzero(hit)) / n_samples
    union = a.volume + b.volume - inter
    return inter / union


def bev_diagonal(box: Box3D) -> float:
    """Diagonal of the box footprint, sqrt(l^2 + w^2)."""
    return math.hypot(box.dims[0], box.dims[1])


def corners_bev(box: Box3D) -> np.ndarray:
    """Footprint corners as a (4, 2) array in counter-clockwise order: a
    rotation matrix applied by one matmul per box."""
    l, w, _ = box.dims
    local = np.array(
        [
            [0.5 * l, 0.5 * w],
            [-0.5 * l, 0.5 * w],
            [-0.5 * l, -0.5 * w],
            [0.5 * l, -0.5 * w],
        ]
    )
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array(box.center[:2])


def footprint(box: Box3D, ox: float, oy: float) -> list[tuple[float, float]]:
    """Footprint corners relative to the origin ``(ox, oy)``, as float
    pairs in :func:`corners_bev` order."""
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


def loop_area(poly: list) -> float:
    """Shoelace area of a vertex list, summed vertex by vertex."""
    if len(poly) < 3:
        return 0.0
    forward = backward = 0.0
    for (x, y), (nx, ny) in zip(poly, poly[1:] + poly[:1]):
        forward += x * ny
        backward += nx * y
    return 0.5 * abs(forward - backward)


def loop_clip(subject: list, clip: list) -> list:
    """Sutherland-Hodgman on vertex lists: ``subject`` cut by each edge's
    half-plane of the convex counter-clockwise ``clip`` in turn.  Boundary
    points count as inside, so touching boxes give a degenerate polygon."""
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
    return loop_area(np.asarray(poly, dtype=float).tolist())


def clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """:func:`loop_clip` on (n, 2) vertex arrays."""
    output = loop_clip(np.asarray(subject, dtype=float).tolist(), np.asarray(clip, dtype=float).tolist())
    return np.array(output) if output else np.empty((0, 2))


def loop_rotated_iou_bev(a: Box3D, b: Box3D) -> float:
    """BEV IoU on Python floats: the library's former scalar kernel, the
    bit-exact reference of ``geom.bev_iou_pairs``.  Both footprints are
    clipped relative to the midpoint of the two centres."""
    ox = 0.5 * (a.center[0] + b.center[0])
    oy = 0.5 * (a.center[1] + b.center[1])
    area_a = a.dims[0] * a.dims[1]
    area_b = b.dims[0] * b.dims[1]
    inter = loop_area(loop_clip(footprint(a, ox, oy), footprint(b, ox, oy)))
    inter = min(inter, area_a, area_b)  # clipping noise must not exceed either box
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def np_polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a simple polygon given as an (n, 2) vertex array."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def np_clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Clip ``subject`` against a convex counter-clockwise polygon ``clip``.

    Standard Sutherland-Hodgman sweep: the subject is cut by each clip
    edge's half-plane in turn.  Boundary points count as inside, so
    touching boxes produce a degenerate (zero-area) polygon rather than
    disappearing outright.
    """
    output = [tuple(p) for p in subject]
    n_clip = len(clip)
    for e in range(n_clip):
        if not output:
            break
        ax, ay = clip[e]
        bx, by = clip[(e + 1) % n_clip]
        ex_, ey_ = bx - ax, by - ay
        vertices = output
        output = []
        sx, sy = vertices[-1]
        s_side = ex_ * (sy - ay) - ey_ * (sx - ax)
        s_in = s_side >= 0.0
        for px, py in vertices:
            p_side = ex_ * (py - ay) - ey_ * (px - ax)
            p_in = p_side >= 0.0
            if p_in:
                if not s_in:
                    t = s_side / (s_side - p_side)
                    output.append((sx + t * (px - sx), sy + t * (py - sy)))
                output.append((px, py))
            elif s_in:
                t = s_side / (s_side - p_side)
                output.append((sx + t * (px - sx), sy + t * (py - sy)))
            sx, sy, s_in, s_side = px, py, p_in, p_side
    return np.array(output) if output else np.empty((0, 2))


def np_intersection_area_bev(a: Box3D, b: Box3D) -> float:
    """Footprint intersection area of two oriented boxes.

    Both corner sets are shifted by the midpoint of the two centres before
    clipping (overlap does not depend on the origin).  In world
    coordinates the shoelace products of decimetre boxes 16 m out lose
    about 1e-12 of IoU, more than the bound the library is held to.
    """
    mid = 0.5 * (np.array(a.center[:2]) + np.array(b.center[:2]))
    inter = np_clip_polygon(corners_bev(a) - mid, corners_bev(b) - mid)
    return np_polygon_area(inter)


def np_rotated_iou_bev(a: Box3D, b: Box3D) -> float:
    """The library's former NumPy rotated IoU, kept as an oracle.

    Corners come from :func:`corners_bev` (a matmul per box) and the
    shoelace sum from ``np.dot``, so it agrees with the float kernel only
    up to summation order and the rounding of the world-coordinate
    corners.
    """
    area_a = a.dims[0] * a.dims[1]
    area_b = b.dims[0] * b.dims[1]
    inter = np_intersection_area_bev(a, b)
    inter = min(inter, area_a, area_b)  # clipping noise must not exceed either box
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def aligned_iou_bev(a: Box3D, b: Box3D) -> float:
    """Closed-form BEV IoU for boxes whose yaw is a multiple of pi/2."""

    def half_extents(box: Box3D) -> tuple[float, float]:
        quarter = round(box.yaw / (0.5 * math.pi)) % 2
        l, w = box.dims[0], box.dims[1]
        return (0.5 * l, 0.5 * w) if quarter == 0 else (0.5 * w, 0.5 * l)

    ax, ay = half_extents(a)
    bx, by = half_extents(b)
    ox = min(a.center[0] + ax, b.center[0] + bx) - max(a.center[0] - ax, b.center[0] - bx)
    oy = min(a.center[1] + ay, b.center[1] + by) - max(a.center[1] - ay, b.center[1] - by)
    if ox <= 0.0 or oy <= 0.0:
        return 0.0
    inter = ox * oy
    union = 4.0 * ax * ay + 4.0 * bx * by - inter
    return inter / union


# ---------------------------------------------------------------------------
# box file oracles

_CLASS_NAMES = ("Car", "Pedestrian", "Cyclist")


def loop_write_detections(path, boxes: list[Box3D]) -> None:
    """One ``class cx cy cz l w h yaw [score]`` line per box, ``repr``
    floats, classes 0-2 by name: the library's former writer."""
    lines = []
    for box in boxes:
        parts = [_CLASS_NAMES[box.class_id]]
        parts += [repr(float(v)) for v in (*box.center, *box.dims, box.yaw)]
        if box.score is not None:
            parts.append(repr(float(box.score)))
        lines.append(" ".join(parts) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def loop_read_detections(path) -> list[Box3D]:
    """One :class:`Box3D` per line of a well-formed box file with classes
    0-2: the library's former per-line reader, without its error paths."""
    boxes = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().split("\n"):
            tokens = line.split()
            if not tokens:
                continue
            v = [float(t) for t in tokens[1:]]
            score = v[7] if len(v) == 8 else None
            boxes.append(Box3D(tuple(v[:3]), tuple(v[3:6]), v[6], score, _CLASS_NAMES.index(tokens[0])))
    return boxes


def _block_fields(rows: list[list[str]], counts: np.ndarray) -> np.ndarray:
    values = np.full((len(rows), 8), math.nan)
    flat = [float(t) for tokens in rows for t in tokens[1:]]
    values[np.arange(8) < (counts - 1)[:, None]] = np.array(flat, dtype=float)
    return values


def _block_parse(lines: list[str]) -> tuple[np.ndarray, list[str], int, str | None]:
    split = [line.split() for line in lines]
    where = [i for i, tokens in enumerate(split) if tokens]
    rows = [tokens for tokens in split if tokens]
    counts = np.array([len(tokens) for tokens in rows], dtype=np.int64)
    bad = np.flatnonzero((counts != 8) & (counts != 9))
    limit = int(bad[0]) if len(bad) else len(rows)
    error = f"expected 8 or 9 fields, got {counts[limit]}" if len(bad) else None
    try:
        values = _block_fields(rows[:limit], counts[:limit])
    except ValueError:
        for limit, tokens in enumerate(rows):
            try:
                [float(t) for t in tokens[1:]]
            except ValueError as exc:
                error = str(exc)
                break
        values = _block_fields(rows[:limit], counts[:limit])
    scored = counts[:limit] == 9
    score = values[:, 7]
    finite = np.isfinite(values[:, :7]).all(axis=1) & (np.isfinite(score) | ~scored)
    valid = (values[:, 3:6] > 0.0).all(axis=1) & ~(scored & ((score < 0.0) | (score > 1.0)))
    bad = np.flatnonzero(~(finite & valid))
    if len(bad):
        limit = int(bad[0])
        error = "non-finite value"
        if finite[limit]:
            row, s = values[limit].tolist(), float(score[limit])
            try:
                Box3D(tuple(row[:3]), tuple(row[3:6]), row[6], None if math.isnan(s) else s)
            except ValueError as exc:
                error = str(exc)
    names = [tokens[0] for tokens in rows[:limit]]
    return values[:limit], names, where[limit] if limit < len(rows) else len(lines), error


def _file_class_id(name: str) -> int | None:
    if name in _CLASS_NAMES:
        return _CLASS_NAMES.index(name)
    if name.startswith("Class"):
        try:
            return int(name[5:])
        except ValueError:
            return None
    return None


def block_read_detections(path) -> tuple[np.ndarray, np.ndarray, list]:
    """``(params, scores, class_ids)`` of any box file, and the exact
    :class:`DetectionParseError` of a bad one: the library's former
    reader, which split blocks of 1,024 lines and converted every field
    with ``float``.  A file that is not UTF-8 raises UnicodeDecodeError."""
    blocks, names = [], []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for start in range(0, len(lines), 1024):
        values, block_names, bad, error = _block_parse(lines[start : start + 1024])
        if error is not None:
            raise DetectionParseError(f"{path}, line {start + 1 + bad}: {error}")
        blocks.append(values)
        names += block_names
    values = np.concatenate(blocks) if blocks else np.full((0, 8), math.nan)
    params = values[:, :7].copy()
    params[:, 6] = normalize_yaw(params[:, 6])
    return params, values[:, 7].copy(), [_file_class_id(name) for name in names]


def eval_frame(seed: int) -> list[Box3D]:
    """A seeded pre-NMS dump of 3,300 scored boxes, shaped like the
    eval-dump benchmark's frames: 150 jittered copies around each of 12
    car-sized objects plus 1,500 scattered false positives.  Scores are
    whole percent, so many tie; classes are 0-2."""
    return eval_frame_and_objects(seed)[0]


def eval_frame_and_objects(seed: int) -> tuple[list[Box3D], list[Box3D]]:
    """:func:`eval_frame` and its 12 objects, as class-0 boxes of the
    nominal car size at each cluster's centre and yaw."""
    rng = np.random.default_rng(seed)
    car = np.array([3.9, 1.6, 1.56])
    rows, objects = [], []
    for cx, cy in rng.uniform((2.0, -38.0), (68.0, 38.0), size=(12, 2)):
        yaw = rng.uniform(-math.pi, math.pi)
        objects.append(Box3D((cx, cy, -1.0), tuple(car), yaw, class_id=0))
        for _ in range(150):
            rows.append((cx + rng.normal(0.0, 0.5), cy + rng.normal(0.0, 0.5), yaw + rng.normal(0.0, 0.1)))
    for x, y in rng.uniform((2.0, -38.0), (68.0, 38.0), size=(1500, 2)):
        rows.append((x, y, rng.uniform(-math.pi, math.pi)))
    boxes = [
        Box3D(
            (x, y, -1.0),
            tuple(car * rng.uniform(0.9, 1.1, 3)),
            yaw,
            score=int(rng.integers(0, 101)) / 100,
            class_id=int(rng.integers(0, 3)),
        )
        for x, y, yaw in rows
    ]
    return [boxes[i] for i in rng.permutation(len(boxes))], objects


# ---------------------------------------------------------------------------
# suppression / sampling / graph oracles


def brute_nms(
    boxes: list[Box3D],
    iou_fn,
    iou_threshold: float,
    score_threshold: float,
) -> list[Box3D]:
    """O(n^2) greedy suppression; ``iou_fn`` supplies the overlap."""
    order = sorted(
        (i for i, b in enumerate(boxes) if b.score >= score_threshold),
        key=lambda i: (-boxes[i].score, i),
    )
    kept: list[int] = []
    for i in order:
        if all(iou_fn(boxes[i], boxes[k]) <= iou_threshold for k in kept):
            kept.append(i)
    return [boxes[i] for i in kept]


def sweep_nms(
    boxes: list[Box3D],
    iou_fn,
    iou_threshold: float,
    score_threshold: float,
) -> list[Box3D]:
    """:func:`brute_nms` that skips the kept boxes a candidate cannot reach
    (centres farther apart than the sum of the half-diagonals), for frames
    too large to compare every pair."""
    order = sorted(
        (i for i, b in enumerate(boxes) if b.score >= score_threshold),
        key=lambda i: (-boxes[i].score, i),
    )
    kept: list[Box3D] = []
    for i in order:
        box = boxes[i]
        for k in kept:
            dx, dy = box.center[0] - k.center[0], box.center[1] - k.center[1]
            reach = 0.5 * (bev_diagonal(box) + bev_diagonal(k))
            if dx * dx + dy * dy <= reach * reach and iou_fn(box, k) > iou_threshold:
                break
        else:
            kept.append(box)
    return kept


def brute_fps(positions: np.ndarray, k: int, start_index: int = 0) -> list[int]:
    """Exhaustive greedy farthest point sampling with explicit loops."""
    n = len(positions)
    chosen = [start_index]
    for _ in range(k - 1):
        best_i, best_d = -1, -1.0
        for i in range(n):
            d = min(
                float(((positions[i] - positions[j]) ** 2).sum()) for j in chosen
            )
            if d > best_d:  # strict: exact ties keep the earlier (lower) index
                best_i, best_d = i, d
        chosen.append(best_i)
    return chosen


def brute_radius_graph(coords: np.ndarray, radius: float) -> list[tuple[int, ...]]:
    """All-pairs strict-radius adjacency, self-loops included, sorted."""
    n = len(coords)
    out = []
    for i in range(n):
        neigh = [
            j
            for j in range(n)
            if float(((coords[i] - coords[j]) ** 2).sum()) < radius * radius
        ]
        out.append(tuple(sorted(neigh)))
    return out


def brute_propagate(
    src_pos: np.ndarray, src_feat: np.ndarray, queries: np.ndarray, eps: float = 1e-8
) -> np.ndarray:
    """Loop-wise 3-nearest inverse-squared-distance interpolation."""
    out = np.zeros((len(queries), src_feat.shape[1]))
    k = min(3, len(src_pos))
    for qi, q in enumerate(queries):
        d2 = [float(((q - p) ** 2).sum()) for p in src_pos]
        nearest = sorted(range(len(src_pos)), key=lambda i: (d2[i], i))[:k]
        weights = [1.0 / (d2[i] + eps) for i in nearest]
        total = sum(weights)
        for w, i in zip(weights, nearest):
            out[qi] += (w / total) * src_feat[i]
    return out


def dense_propagate(source: FeatureSet, query_positions: np.ndarray) -> FeatureSet:
    """Dense-table 3-nearest interpolation: the library's former kernel.

    Builds the full (m, n, 3) difference array and a stable argsort of
    every row, so its neighbours and squared distances are the ones the
    cell-hash search must reproduce bit for bit.
    """
    if len(source) == 0:
        raise ValueError("cannot propagate from an empty feature set")
    queries = np.asarray(query_positions, dtype=float)
    if queries.size == 0:
        return FeatureSet(np.empty((0, 3)), np.empty((0, source.dim)))
    if queries.ndim != 2 or queries.shape[1] != 3:
        raise ValueError(f"query positions must be (m, 3), got {queries.shape}")

    k = min(3, len(source))
    diff = queries[:, None, :] - source.positions[None, :, :]
    d2 = (diff**2).sum(axis=2)
    nn = np.argsort(d2, axis=1, kind="stable")[:, :k]
    rows = np.arange(len(queries))[:, None]
    inv = 1.0 / (d2[rows, nn] + 1e-8)
    weights = inv / inv.sum(axis=1, keepdims=True)
    gathered = source.features[nn]  # (m, k, d)
    out = (gathered * weights[:, :, None]).sum(axis=1)
    return FeatureSet(queries, out)


def scan_set_abstraction(
    source: FeatureSet, centers: np.ndarray, radius: float, mlp
) -> np.ndarray:
    """Set abstraction by a per-centre scan of every source: the library's
    former kernel.  Each centre's group keeps ascending source order."""
    r2 = radius * radius
    out = np.zeros((len(centers), mlp.out_dim))
    for m, centre in enumerate(centers):
        d2 = ((source.positions - centre) ** 2).sum(axis=1)
        mask = d2 <= r2
        if not np.any(mask):
            continue
        grouped = np.concatenate(
            [source.features[mask], source.positions[mask] - centre], axis=1
        )
        out[m] = mlp.apply(grouped).max(axis=0)
    return out


# ---------------------------------------------------------------------------
# anchor matching oracle


def brute_match_anchors(
    anchors: list[Box3D],
    gt_boxes: list[Box3D],
    pos_iou: float,
    neg_iou: float,
    iou_fn,
) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive two-phase assignment with forced best-anchor positives.

    Returns (labels, gt_indices) with labels 1/0/-1 for
    positive/negative/ignore.  Phase one applies the IoU thresholds to
    each anchor's best overlap (ties to the lower gt index).  Phase two
    forces the best anchor of every ground truth positive (skipping zero
    overlaps), overriding phase one; an anchor forced by several ground
    truths keeps the higher overlap, earlier gt on exact ties.
    """
    n, g = len(anchors), len(gt_boxes)
    labels = np.zeros(n, dtype=np.int8)
    gt_indices = np.full(n, -1, dtype=np.int64)
    if n == 0 or g == 0:
        return labels, gt_indices
    iou = np.array([[iou_fn(a, gt) for gt in gt_boxes] for a in anchors])
    for i in range(n):
        best = 0
        for j in range(1, g):
            if iou[i, j] > iou[i, best]:
                best = j
        if iou[i, best] >= pos_iou:
            labels[i] = 1
            gt_indices[i] = best
        elif iou[i, best] >= neg_iou:
            labels[i] = -1
    forced: dict[int, tuple[float, int]] = {}
    for j in range(g):
        best = 0
        for i in range(1, n):
            if iou[i, j] > iou[best, j]:
                best = i
        if iou[best, j] <= 0.0:
            continue
        if best not in forced or iou[best, j] > forced[best][0]:
            forced[best] = (float(iou[best, j]), j)
    for i, (_, j) in forced.items():
        labels[i] = 1
        gt_indices[i] = j
    return labels, gt_indices


# ---------------------------------------------------------------------------
# metric oracles


def brute_pr_curve(
    detections: list[Box3D],
    gt_boxes: list[Box3D],
    quality_fn,
) -> list[tuple[float, float]]:
    """Greedy confidence-ordered matching, recomputed with plain loops.

    ``quality_fn(det, gt)`` returns a comparable quality or None for an
    inadmissible pair; higher quality wins.
    """
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    taken = set()
    curve = []
    tp = fp = 0
    for i in order:
        best_g, best_q = -1, None
        for g in range(len(gt_boxes)):
            if g in taken:
                continue
            q = quality_fn(detections[i], gt_boxes[g])
            if q is None:
                continue
            if best_q is None or q > best_q:
                best_g, best_q = g, q
        if best_g >= 0:
            taken.add(best_g)
            tp += 1
        else:
            fp += 1
        recall = tp / len(gt_boxes) if gt_boxes else 0.0
        curve.append((tp / (tp + fp), recall))
    return curve


def all_pairs_precision_recall(
    detections: list[Box3D],
    gt_boxes: list[Box3D],
    iou_threshold: float,
) -> list[tuple[float, float]]:
    """BEV IoU matching with no prefilter: the exact IoU of every visited
    (detection, unmatched ground truth) pair decides admissibility."""

    def quality(det: Box3D, gt: Box3D) -> float | None:
        iou = loop_rotated_iou_bev(det, gt)
        return iou if iou >= iou_threshold else None

    return brute_pr_curve(detections, gt_boxes, quality)


def center_distance_quality(max_distance: float):
    """The centre-distance match quality of one pair, as a loop computes
    it: the negated ``math.hypot`` distance, None at or beyond the limit."""

    def quality(det: Box3D, gt: Box3D) -> float | None:
        dist = math.hypot(det.center[0] - gt.center[0], det.center[1] - gt.center[1])
        return -dist if dist < max_distance else None

    return quality


def max_scan_ap(curve: list[tuple[float, float]], levels: list[float]) -> float:
    """Literal definition of interpolated AP: per level, scan every curve
    point for the best precision achieved at recall >= level."""
    total = 0.0
    for level in levels:
        best = 0.0
        for precision, recall in curve:
            if recall >= level and precision > best:
                best = precision
        total += best
    return total / len(levels)


# ---------------------------------------------------------------------------
# graph refiner oracle


def loop_update_forward(graph, updater, extended: bool):
    """The refiner's forward pass with a per-node max-pool loop.

    Reads the graph through its ``adjacency`` tuples.  Returns the refined
    (n, F) states and, per iteration, the (n, D) absolute row index that
    fed each pooled channel (``argmax`` per block: the lowest row wins
    exact ties, the first NaN row wins over numbers).
    """
    if len(graph):
        updater.validate_for(graph.state_dim, extended)
    h = graph.states
    n = len(graph)
    coords = graph.coords
    row_node = np.concatenate(
        [np.full(len(a), i, dtype=np.int64) for i, a in enumerate(graph.adjacency)]
    ) if n else np.empty(0, dtype=np.int64)
    row_neigh = np.concatenate(
        [np.asarray(a, dtype=np.int64) for a in graph.adjacency]
    ) if n else np.empty(0, dtype=np.int64)
    starts = np.zeros(n + 1, dtype=np.int64)
    if n:
        starts[1:] = np.cumsum([len(a) for a in graph.adjacency])

    argmax_per_iteration = []
    for k in range(updater.depth):
        if n == 0:
            break
        prev = h
        if extended:
            align_out, _ = updater.align_stacks[k].forward(prev)
            offsets = coords[row_node] - coords[row_neigh] - align_out[row_node]
            rows = np.concatenate([offsets, prev[row_neigh]], axis=1)
        else:
            rows = prev[row_neigh]
        pooled_in, _ = updater.agg_stacks[k].forward(rows)
        d = pooled_in.shape[1]
        pooled = np.empty((n, d))
        argmax_rows = np.empty((n, d), dtype=np.int64)
        for i in range(n):
            block = pooled_in[starts[i] : starts[i + 1]]
            local = block.argmax(axis=0)  # lowest row index wins exact ties
            argmax_rows[i] = starts[i] + local
            pooled[i] = block[local, np.arange(d)]
        fused, _ = updater.fus_stacks[k].forward(pooled)
        h = prev + fused
        argmax_per_iteration.append(argmax_rows)
    return h, argmax_per_iteration


def loop_update_backward(cache, grad_out, want_state_grad=True):
    """The refiner's backward pass with ``np.add.at`` scatters.

    Starts every stack gradient at zero and adds each iteration's onto
    it; adds each pooled channel's gradient onto its winning row, the
    neighbour-state gradients onto the neighbours and the alignment
    gradients onto the owning nodes, one edge at a time in edge order.
    Returns ``(stack gradients, d_states)`` like ``gnn.update_backward``:
    the aggregation, fusion and alignment stacks' gradients, in that order.
    It always computes ``d_states``, and returns None in its place if not
    ``want_state_grad``, as the library does.
    """
    updater = cache.updater
    offsets = cache.graph.offsets
    row_node = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    row_neigh = cache.graph.indices
    depth = updater.depth
    grads = [s.zero_grads() for s in updater.stacks]
    dh = np.asarray(grad_out, dtype=float).copy()
    for k in range(len(cache.iterations) - 1, -1, -1):
        it = cache.iterations[k]
        n, d = it.argmax_rows.shape
        fus_grads, d_pooled = updater.fus_stacks[k].backward(it.fus_cache, dh)
        grads[depth + k] = add_layer_grads(grads[depth + k], fus_grads)

        d_pool_in = np.zeros_like(it.pool_inputs)
        cols = np.broadcast_to(np.arange(d), (n, d))
        np.add.at(d_pool_in, (it.argmax_rows, cols), d_pooled)

        agg_grads, d_rows = updater.agg_stacks[k].backward(it.agg_cache, d_pool_in)
        grads[k] = add_layer_grads(grads[k], agg_grads)

        d_prev = dh  # residual connection passes the gradient straight through
        if cache.extended:
            d_offsets = d_rows[:, :3]
            d_states = d_rows[:, 3:]
            np.add.at(d_prev, row_neigh, d_states)
            d_align = np.zeros((n, 3))
            np.add.at(d_align, row_node, -d_offsets)
            align_grads, d_prev_align = updater.align_stacks[k].backward(
                it.align_cache, d_align
            )
            grads[2 * depth + k] = add_layer_grads(grads[2 * depth + k], align_grads)
            d_prev = d_prev + d_prev_align
        else:
            np.add.at(d_prev, row_neigh, d_rows)
        dh = d_prev
    return grads, dh if want_state_grad else None


def add_layer_grads(acc, extra):
    """Element-wise sum of two per-layer gradient lists."""
    return [(aw + bw, ab + bb) for (aw, ab), (bw, bb) in zip(acc, extra)]


# ---------------------------------------------------------------------------
# per-world training oracle


def _sum_grads(total, extra):
    """``extra`` added onto ``total``, stack by stack; ``total`` None means
    nothing is summed yet."""
    if total is None:
        return extra
    return [add_layer_grads(acc, new) for acc, new in zip(total, extra, strict=True)]


def _world_evaluate(models, graph, fg, reg_targets, config, want_grads):
    """One world's refinement loss and gradients, in its own forward and
    backward pass; an empty graph gives zero loss and zero gradients."""
    if len(graph) == 0:
        zero = [stack.zero_grads() for stack in models.stacks]
        return 0.0, zero if want_grads else None
    cfg_loss = config.loss
    beta = cfg_loss.smooth_l1_beta
    refined, ucache = update(graph, models.updater)
    scores, residuals, hcache = header_forward(refined, models.cls_stack, models.reg_stack)
    loss = focal_loss(scores, fg, cfg_loss) + masked_smooth_l1_mean(residuals, reg_targets, fg, beta)
    if not want_grads:
        return loss, None
    dscores = focal_loss_grad(scores, fg, cfg_loss)
    dres = masked_smooth_l1_mean_grad(residuals, reg_targets, fg, beta)
    cls_grads, reg_grads, dz = header_backward(
        hcache, models.cls_stack, models.reg_stack, dscores, dres
    )
    updater_grads, _ = update_backward(ucache, dz)
    return loss, [*updater_grads, cls_grads, reg_grads]


def loop_batch_evaluate(models, graphs, targets, config, want_grads=True):
    """The batch's refinement loss and gradients one world at a time: each
    world's graph (``targets.bounds`` gives its rows of the stacked
    targets) in its own pass, losses and gradient lists summed in world
    order.  Returns ``(loss, grads)`` like ``pipeline._evaluate``.  It
    shares the update, header and losses with the library: what it checks
    is the batching."""
    grads, total = None, 0.0
    for graph, (lo, hi) in zip(graphs, targets.bounds, strict=True):
        fg, reg = targets.prop_fg[lo:hi], targets.prop_reg_targets[lo:hi]
        loss, world_grads = _world_evaluate(models, graph, fg, reg, config, want_grads)
        total += loss
        if want_grads:
            grads = _sum_grads(grads, world_grads)
    return total, grads


def loop_train_models(config, steps):
    """``pipeline._train_models`` with :func:`loop_batch_evaluate` as the
    step: returns the trained models and the loss history."""
    worlds, _, targets = pipeline._training_worlds(config)
    graphs = [world.graph for world in worlds]
    models = pipeline.init_models(config)
    lr = config.train.learning_rate / len(worlds)
    history = []
    for step in range(steps + 1):
        loss, grads = loop_batch_evaluate(models, graphs, targets, config, step < steps)
        history.append(loss / len(worlds))
        for stack, stack_grads in zip(models.stacks, grads or []):
            stack.sgd_step(stack_grads, lr)
    return models, history


# ---------------------------------------------------------------------------
# dense stack oracle


def matmul_stack_forward(stack, x):
    """``DenseStack.forward`` as it was written with ``np.matmul``
    products: the output and the cache of (input, pre-activation) pairs."""
    h = np.asarray(x, dtype=float)
    cache = []
    for layer in stack.layers:
        pre = np.matmul(h, layer.weight.T)
        pre += layer.bias
        cache.append((h, pre))
        h = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
    return h, cache


def matmul_stack_backward(stack, cache, grad_out, want_input_grad=True):
    """``DenseStack.backward`` as it was written with ``np.matmul``
    products, on :func:`matmul_stack_forward`'s cache."""
    g = np.asarray(grad_out, dtype=float)
    grads = [None] * len(stack.layers)
    for idx in range(len(stack.layers) - 1, -1, -1):
        layer = stack.layers[idx]
        h_in, pre = cache[idx]
        if layer.activation == "relu":
            g = g * (pre > 0.0)
        grads[idx] = (g.T @ h_in, np.add.reduce(g, axis=0))
        if idx == 0 and not want_input_grad:
            return grads, None
        g = g @ layer.weight
    return grads, g


# ---------------------------------------------------------------------------
# loss oracle


def whole_array_focal_loss_grad(probs, foreground, config):
    """d(focal_loss)/d(probs) with both branches evaluated on every entry
    and then selected by the mask (zero where the clamp is active, that
    is wherever ``lo < p < hi`` fails, NaN included)."""
    lo, hi = 1e-7, 1.0 - 1e-7
    p_raw = np.asarray(probs, dtype=float)
    fg = np.asarray(foreground, dtype=bool)
    n_pos = int(fg.sum())
    if n_pos == 0:
        return np.zeros_like(p_raw)
    p = np.clip(p_raw, lo, hi)
    alpha, gamma = config.focal_alpha, config.focal_gamma
    one_m = 1.0 - p
    fg_grad = alpha * (gamma * one_m ** (gamma - 1.0) * np.log(p) - one_m**gamma / p)
    bg_grad = (1.0 - alpha) * (-gamma * p ** (gamma - 1.0) * np.log(1.0 - p) + p**gamma / one_m)
    grad = np.where(fg, fg_grad, bg_grad if config.focal_background else 0.0)
    grad[~((p_raw > lo) & (p_raw < hi))] = 0.0
    return grad / n_pos


_P_LO, _P_HI = 1e-7, 1.0 - 1e-7


def separate_focal_loss(probs, foreground, config):
    """The focal loss in its own pass, as it was written before the loss
    and its gradient were fused: clamp, mask, then each branch."""
    p = np.clip(np.asarray(probs, dtype=float), _P_LO, _P_HI)
    fg = np.asarray(foreground, dtype=bool)
    n_pos = int(fg.sum())
    if n_pos == 0:
        return 0.0
    alpha, gamma = config.focal_alpha, config.focal_gamma
    pf = p[fg]
    total = float((-alpha * (1.0 - pf) ** gamma * np.log(pf)).sum())
    if config.focal_background:
        q = p[~fg]
        total += float((-(1.0 - alpha) * q**gamma * np.log(1.0 - q)).sum())
    return total / n_pos


def separate_focal_loss_grad(probs, foreground, config):
    """d(focal loss)/d(probs) in its own pass, as it was written before
    the fusion; zero where the clamp is active (NaN included)."""
    p_raw = np.asarray(probs, dtype=float)
    fg = np.asarray(foreground, dtype=bool)
    n_pos = int(fg.sum())
    grad = np.zeros_like(p_raw)
    if n_pos == 0:
        return grad
    active = (p_raw > _P_LO) & (p_raw < _P_HI)
    p = np.clip(p_raw, _P_LO, _P_HI)
    alpha, gamma = config.focal_alpha, config.focal_gamma
    pf = p[fg]
    one_m = 1.0 - pf
    grad[fg] = alpha * (gamma * one_m ** (gamma - 1.0) * np.log(pf) - one_m**gamma / pf)
    if config.focal_background:
        q = p[~fg]
        grad[~fg] = (1.0 - alpha) * (
            -gamma * q ** (gamma - 1.0) * np.log(1.0 - q) + q**gamma / (1.0 - q)
        )
    grad[~active] = 0.0
    return grad / n_pos


def separate_smooth_l1(pred, target, beta):
    """Summed smooth-L1 and its elementwise gradient, as written before the
    fusion (the gradient re-takes the absolute value)."""
    x = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
    ax = np.abs(x)
    per = np.where(ax < beta, 0.5 * x * x / beta, ax - 0.5 * beta)
    return float(per.sum()), np.where(np.abs(x) < beta, x / beta, np.sign(x))


def separate_masked_smooth_l1_mean(pred, target, mask, beta):
    """Masked mean smooth-L1 in its own pass, as written before the fusion."""
    n_pos = int(np.asarray(mask, dtype=bool).sum())
    if n_pos == 0:
        return 0.0
    return separate_smooth_l1(pred[mask], target[mask], beta)[0] / n_pos


def separate_masked_smooth_l1_mean_grad(pred, target, mask, beta):
    """d(masked mean smooth-L1)/d(pred) in its own pass, as written before
    the fusion; zero on unmasked rows."""
    mask = np.asarray(mask, dtype=bool)
    grad = np.zeros_like(np.asarray(pred, dtype=float))
    n_pos = int(mask.sum())
    if n_pos == 0:
        return grad
    grad[mask] = separate_smooth_l1(pred[mask], target[mask], beta)[1] / n_pos
    return grad


def separate_loss_evaluate(models, graph, targets, config):
    """``pipeline._evaluate`` with the four separate loss passes per world,
    each re-deriving its masks from ``targets.prop_fg``, as the step was
    written before the fusion.  Returns ``(loss, grads)``."""
    cfg_loss = config.loss
    beta = cfg_loss.smooth_l1_beta
    refined, ucache = update(graph, models.updater)
    scores, residuals, hcache = header_forward(refined, models.cls_stack, models.reg_stack)
    dscores, dres = np.zeros_like(scores), np.zeros_like(residuals)
    loss = 0.0
    for lo, hi in targets.bounds:
        if lo == hi:
            continue
        rows = slice(lo, hi)
        fg, reg_targets = targets.prop_fg[rows], targets.prop_reg_targets[rows]
        loss += separate_focal_loss(scores[rows], fg, cfg_loss) + separate_masked_smooth_l1_mean(
            residuals[rows], reg_targets, fg, beta
        )
        dscores[rows] = separate_focal_loss_grad(scores[rows], fg, cfg_loss)
        dres[rows] = separate_masked_smooth_l1_mean_grad(residuals[rows], reg_targets, fg, beta)
    cls_grads, reg_grads, dz = header_backward(
        hcache, models.cls_stack, models.reg_stack, dscores, dres
    )
    updater_grads, _ = update_backward(ucache, dz)
    return loss, [*updater_grads, cls_grads, reg_grads]


# ---------------------------------------------------------------------------
# voxel oracle


def brute_voxelize(
    points: np.ndarray,
    origin: tuple[float, float, float],
    step: tuple[float, float, float],
    resolution: tuple[int, int, int],
    cap: int | None,
) -> dict[tuple[int, int, int], tuple[np.ndarray, int]]:
    """Dict-of-lists voxelization keeping the first ``cap`` points per cell."""
    cells: dict[tuple[int, int, int], list[np.ndarray]] = {}
    for p in points:
        idx = tuple(
            min(int(math.floor((p[ax] - origin[ax]) / step[ax])), resolution[ax] - 1)
            for ax in range(3)
        )
        cells.setdefault(idx, []).append(p)
    out = {}
    for idx, rows in cells.items():
        kept = rows if cap is None else rows[:cap]
        out[idx] = (np.mean(np.stack(kept), axis=0), len(kept))
    return out


def loop_voxelize(points: np.ndarray, config) -> tuple[np.ndarray, ...]:
    """The per-voxel loop ``voxel.voxelize`` replaced, as the bit-exact reference.

    Points are grouped by a stable argsort of their packed keys, and each
    voxel sums its first ``cap`` points with ``block.sum(axis=0)``.
    Returns ``(cells, counts, features, centres)`` in ascending key order;
    a centre is ``origin + (np.array([i, j, k]) + 0.5) * step``, one voxel
    at a time.
    """
    bits = 21
    mask = (1 << bits) - 1
    mins = np.array(config.origin)
    step = np.array(config.step)
    idx = np.floor((points[:, :3] - mins) / step).astype(np.int64)
    idx = np.minimum(idx, np.array(config.resolution) - 1)
    keys = (idx[:, 0] << (2 * bits)) | (idx[:, 1] << bits) | idx[:, 2]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    group_starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    group_ends = np.r_[group_starts[1:], len(sorted_keys)]
    cap = config.max_points_per_voxel
    entries = {}
    # an empty cloud has no groups, though np.r_ leaves one start
    for start, end in zip(group_starts[: len(points)], group_ends[: len(points)]):
        rows = order[start:end]
        if cap is not None and len(rows) > cap:
            rows = rows[:cap]
        entries[int(sorted_keys[start])] = (points[rows].sum(axis=0) / len(rows), len(rows))
    cells, counts, features, centres = [], [], [], []
    for key in sorted(entries):
        ijk = ((key >> (2 * bits)) & mask, (key >> bits) & mask, key & mask)
        feature, count = entries[key]
        cells.append(ijk)
        counts.append(count)
        features.append(feature)
        centres.append(mins + (np.array(ijk) + 0.5) * step)
    return (
        np.array(cells, dtype=np.int64).reshape(-1, 3),
        np.array(counts, dtype=np.int64),
        np.array(features).reshape(-1, 4),
        np.array(centres).reshape(-1, 3),
    )


# ---------------------------------------------------------------------------
# proposal labelling oracle


def loop_training_targets(proposals, gt_boxes, pos_iou: float):
    """Proposal targets by the former labelling loop: the IoU of every
    (proposal, ground truth) pair, with no reach prefilter, keeping the
    first best, and the target encoded box by box with the yaw wrapped."""
    prop_fg = np.zeros(len(proposals), dtype=bool)
    prop_reg_targets = np.zeros((len(proposals), 7))
    for i, prop in enumerate(proposals):
        best_iou, best_g = 0.0, -1
        for g, gt in enumerate(gt_boxes):
            iou = loop_rotated_iou_bev(prop, gt)
            if iou > best_iou:
                best_iou, best_g = iou, g
        if best_iou >= pos_iou and best_g >= 0:
            prop_fg[i] = True
            prop_reg_targets[i] = encode_box(gt_boxes[best_g], prop)
            prop_reg_targets[i, 6] = normalize_yaw(prop_reg_targets[i, 6])
    return prop_fg, prop_reg_targets


# ---------------------------------------------------------------------------
# BEV probe, box coding and proposal oracles


def loop_sample_bev_grid(bev, box: Box3D, m1: int, m2: int) -> np.ndarray:
    """One box's m1 x m2 probe grid, one ``sample_bev_point`` call per
    probe: the library's former per-box sampler."""
    from graphdet.interp import sample_bev_point

    l, w, _ = box.dims
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    out = np.empty(m1 * m2)
    for i in range(m1):
        lx = ((i + 0.5) / m1 - 0.5) * l
        for j in range(m2):
            ly = ((j + 0.5) / m2 - 0.5) * w
            x = box.center[0] + c * lx - s * ly
            y = box.center[1] + s * lx + c * ly
            g = i * m2 + j
            out[g] = sample_bev_point(bev, x, y)[g]
    return out


def encode_box(gt: Box3D, anchor: Box3D) -> np.ndarray:
    """Regression residuals of ``gt`` relative to ``anchor``, one box at a
    time: the library's former scalar coder.  The yaw is a plain
    difference; ``geom.encode_boxes`` wraps it."""
    d = bev_diagonal(anchor)
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


def decode_box(residuals: np.ndarray, anchor: Box3D, score: float | None = None) -> Box3D:
    """Invert :func:`encode_box` into a validated :class:`Box3D` (which
    re-normalises the yaw): the library's former scalar decoder."""
    res = np.asarray(residuals, dtype=float)
    d = bev_diagonal(anchor)
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
        class_id=anchor.class_id,
    )


def loop_make_proposals(
    gt_boxes, per_gt: int, center_noise: float, yaw_noise: float, seed: int
) -> list[Box3D]:
    """Noisy copies of each ground-truth box by the former per-proposal
    loop: four normal draws per proposal, in the order dx and dy together,
    dz, dyaw."""
    rng = np.random.default_rng(seed)
    out = []
    for gt in gt_boxes:
        for _ in range(per_gt):
            dx, dy = rng.normal(0.0, center_noise, size=2)
            dz = rng.normal(0.0, 0.3 * center_noise)
            dyaw = rng.normal(0.0, yaw_noise)
            out.append(
                Box3D(
                    center=(gt.center[0] + dx, gt.center[1] + dy, gt.center[2] + dz),
                    dims=gt.dims,
                    yaw=gt.yaw + dyaw,
                    class_id=gt.class_id,
                )
            )
    return out


# ---------------------------------------------------------------------------
# random instance helpers


def random_box(rng: np.random.Generator, spread: float = 10.0, score: bool = False) -> Box3D:
    """A well-conditioned random box for oracle comparisons."""
    return Box3D(
        center=tuple(rng.uniform(-spread, spread, size=3)),
        dims=tuple(rng.uniform(0.8, 4.5, size=3)),
        yaw=float(rng.uniform(-math.pi, math.pi)),
        score=float(rng.uniform(0.0, 1.0)) if score else None,
    )
