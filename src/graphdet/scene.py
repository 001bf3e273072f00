"""Scene primitives: point clouds, oriented 3D boxes, synthetic scenes, and text I/O.

Coordinates follow the usual lidar convention: x forward, y left, z up,
yaw measured counter-clockwise from +x in the ground plane.  Scene extents
are half-open intervals ``[min, max)`` on every axis so that points and
voxel indices partition cleanly.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Default detection range, metres: ((x_min, x_max), (y_min, y_max), (z_min, z_max)).
KITTI_RANGE = ((0.0, 70.4), (-40.0, 40.0), (-3.0, 1.0))

# Default object prior (length, width, height), metres.
CAR_DIMS = (3.9, 1.6, 1.56)

_CLASS_NAMES = ("Car", "Pedestrian", "Cyclist")
_UNKNOWN_CLASS = "Unknown"
_PLACEMENT_DRAWS = 200  # rejection-sampling draws per object

RangeBounds = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]


class DetectionParseError(ValueError):
    """Raised when a detection text file cannot be parsed."""


def normalize_yaw(theta: float | np.ndarray) -> float | np.ndarray:
    """Wrap angles in radians into the interval (-pi, pi]: a float, or
    every entry of an array (``%`` on arrays rounds as it does on floats)."""
    wrapped = theta % (2.0 * math.pi)  # in [0, 2*pi)
    return wrapped - (2.0 * math.pi) * (wrapped > math.pi)


@dataclass(frozen=True)
class Box3D:
    """An oriented 3D bounding box.

    Attributes:
        center: (cx, cy, cz) box centre in metres.
        dims: (length, width, height); length runs along the heading axis.
        yaw: heading angle, normalised to (-pi, pi] on construction.
        score: optional detection confidence in [0, 1]; ``None`` for ground truth.
        class_id: optional integer class label.
    """

    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    yaw: float
    score: float | None = None
    class_id: int | None = None

    def __post_init__(self) -> None:
        center = tuple(map(float, self.center))
        dims = tuple(map(float, self.dims))
        if len(center) != 3 or len(dims) != 3:
            raise ValueError("center and dims must have three components")
        if not all(map(math.isfinite, (*center, *dims, self.yaw))):
            raise ValueError("box parameters must be finite")
        if min(dims) <= 0.0:
            raise ValueError(f"box dims must be positive, got {dims}")
        if self.score is not None:
            s = float(self.score)
            if not math.isfinite(s) or not 0.0 <= s <= 1.0:
                raise ValueError(f"score must lie in [0, 1], got {self.score}")
            object.__setattr__(self, "score", s)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "yaw", normalize_yaw(float(self.yaw)))

    @property
    def volume(self) -> float:
        l, w, h = self.dims
        return l * w * h

    def z_interval(self) -> tuple[float, float]:
        """Vertical extent (bottom, top) spanned by the box."""
        half = 0.5 * self.dims[2]
        return self.center[2] - half, self.center[2] + half


@dataclass(frozen=True, eq=False)
class BoxArray(Sequence):
    """Oriented boxes as arrays; ``boxes[i]`` is the :class:`Box3D` view of box ``i``.

    Attributes:
        params: (n, 7) rows ``cx cy cz l w h yaw``, yaw in (-pi, pi].
        scores: (n,) confidences, NaN for a box without one (ground truth).
        class_ids: (n,) object array of integer labels or None.

    The arrays are read-only.  The constructor trusts its input: boxes
    come from :meth:`of` or :func:`read_detections`, which validate.
    """

    params: np.ndarray
    scores: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.params, self.scores, self.class_ids):
            arr.setflags(write=False)

    @classmethod
    def of(cls, boxes: Sequence[Box3D]) -> BoxArray:
        """The boxes as arrays; a BoxArray is returned unchanged."""
        if isinstance(boxes, BoxArray):
            return boxes
        params = np.array([(*b.center, *b.dims, b.yaw) for b in boxes], dtype=float)
        scores = np.array([math.nan if b.score is None else b.score for b in boxes], dtype=float)
        class_ids = np.empty(len(boxes), dtype=object)
        class_ids[:] = [b.class_id for b in boxes]
        return cls(params.reshape(-1, 7), scores, class_ids)

    def __len__(self) -> int:
        return len(self.params)

    def __getitem__(self, i: int | slice) -> Box3D | BoxArray:
        """The :class:`Box3D` view of box ``i``, or a BoxArray of a slice."""
        if isinstance(i, slice):
            return self.take(i)
        return _box_view(self.params[i].tolist(), float(self.scores[i]), self.class_ids[i])

    def __iter__(self) -> Iterator[Box3D]:
        return map(_box_view, self.params.tolist(), self.scores.tolist(), self.class_ids.tolist())

    def take(self, indices: np.ndarray | slice) -> BoxArray:
        """The boxes at ``indices`` (or in a slice), in that order."""
        return BoxArray(self.params[indices], self.scores[indices], self.class_ids[indices])

    @cached_property
    def bev_diagonal(self) -> np.ndarray:
        """Footprint diagonals, each ``math.hypot(l, w)``."""
        return np.array(list(map(math.hypot, self.params[:, 3].tolist(), self.params[:, 4].tolist())))


def _box_view(row: list[float], score: float, class_id: int | None) -> Box3D:
    return Box3D(tuple(row[:3]), tuple(row[3:6]), row[6], None if math.isnan(score) else score, class_id)


@dataclass(frozen=True)
class PointCloud:
    """An immutable set of lidar returns stored as an (N, 4) array.

    Columns are x, y, z, reflectance.  The backing array is marked
    read-only; make a copy before mutating.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.points, dtype=float)
        if arr.size == 0:
            arr = arr.reshape(0, 4)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"expected an (N, 4) point array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point cloud contains non-finite values")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def reflectance(self) -> np.ndarray:
        return self.points[:, 3]


def _check_bounds(range_bounds: RangeBounds) -> RangeBounds:
    bounds = tuple((float(lo), float(hi)) for lo, hi in range_bounds)
    if len(bounds) != 3:
        raise ValueError("range_bounds needs one (min, max) pair per axis")
    for axis, (lo, hi) in enumerate(bounds):
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValueError(f"range_bounds axis {axis} is not well-ordered: ({lo}, {hi})")
    return bounds  # type: ignore[return-value]


@dataclass(frozen=True)
class Scene:
    """A point cloud together with its ground-truth boxes and valid range.

    Every ground-truth centre must lie inside ``range_bounds`` (half-open
    per axis); construction fails otherwise.
    """

    cloud: PointCloud
    gt_boxes: tuple[Box3D, ...]
    range_bounds: RangeBounds = KITTI_RANGE

    def __post_init__(self) -> None:
        bounds = _check_bounds(self.range_bounds)
        boxes = tuple(self.gt_boxes)
        for i, box in enumerate(boxes):
            for axis in range(3):
                lo, hi = bounds[axis]
                if not (lo <= box.center[axis] < hi):
                    raise ValueError(
                        f"gt box {i} centre {box.center} falls outside range axis {axis}"
                    )
        object.__setattr__(self, "gt_boxes", boxes)
        object.__setattr__(self, "range_bounds", bounds)


def _sample_surface_points(rng: np.random.Generator, box: Box3D, count: int) -> np.ndarray:
    """Draw points uniformly on the faces of ``box``, weighted by face area."""
    l, w, h = box.dims
    areas = np.array([w * h, w * h, l * h, l * h, l * w, l * w])
    faces = rng.choice(6, size=count, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=count)
    v = rng.uniform(-0.5, 0.5, size=count)

    local = np.empty((count, 3))
    for face, (ax, sign) in enumerate([(0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)]):
        mask = faces == face
        if not np.any(mask):
            continue
        if ax == 0:  # +-x end caps
            local[mask, 0] = sign * 0.5 * l
            local[mask, 1] = u[mask] * w
            local[mask, 2] = v[mask] * h
        elif ax == 1:  # +-y sides
            local[mask, 0] = u[mask] * l
            local[mask, 1] = sign * 0.5 * w
            local[mask, 2] = v[mask] * h
        else:  # top and bottom
            local[mask, 0] = u[mask] * l
            local[mask, 1] = v[mask] * w
            local[mask, 2] = sign * 0.5 * h

    c, s = math.cos(box.yaw), math.sin(box.yaw)
    world = np.empty_like(local)
    world[:, 0] = c * local[:, 0] - s * local[:, 1] + box.center[0]
    world[:, 1] = s * local[:, 0] + c * local[:, 1] + box.center[1]
    world[:, 2] = local[:, 2] + box.center[2]
    return world


def generate_synthetic_scene(
    seed: int,
    n_objects: int,
    points_per_object: int,
    clutter_points: int,
    range_bounds: RangeBounds = KITTI_RANGE,
    object_dims: tuple[float, float, float] = CAR_DIMS,
    min_separation: float = 6.0,
) -> Scene:
    """Build a reproducible scene of box-shaped objects plus uniform clutter.

    Objects are car-sized by default, placed with rejection sampling so
    centres stay at least ``min_separation`` metres apart in the ground
    plane, and skinned with surface points; an object with no such place
    after 200 draws raises ValueError.  Clutter points are uniform over
    the range.  Identical arguments produce byte-identical scenes.

    The cloud lists object points first (object 0, object 1, ...) followed
    by the clutter block; total size is
    ``n_objects * points_per_object + clutter_points``.
    """
    if n_objects < 0 or points_per_object < 0 or clutter_points < 0:
        raise ValueError("scene sizes must be non-negative")
    bounds = _check_bounds(range_bounds)
    rng = np.random.default_rng(seed)

    l, w, h = object_dims
    margin = 0.5 * math.hypot(l, w) + 0.5
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = bounds
    if n_objects > 0 and (x_hi - x_lo <= 2 * margin or y_hi - y_lo <= 2 * margin):
        raise ValueError("range too small to place objects")
    z_centre_lo = z_lo + 0.5 * h + 0.05
    z_centre_hi = min(z_hi - 0.5 * h, z_centre_lo + 1.0)
    if z_centre_hi <= z_centre_lo:
        z_centre_hi = z_centre_lo + 1e-6

    centres: list[tuple[float, float, float]] = []
    boxes: list[Box3D] = []
    for index in range(n_objects):
        for _attempt in range(_PLACEMENT_DRAWS):
            cx = rng.uniform(x_lo + margin, x_hi - margin)
            cy = rng.uniform(y_lo + margin, y_hi - margin)
            if all(math.hypot(cx - px, cy - py) >= min_separation for px, py, _ in centres):
                break
        else:
            raise ValueError(
                f"object {index} of n_objects={n_objects} found no place after "
                f"{_PLACEMENT_DRAWS} draws with min_separation={min_separation}"
            )
        cz = rng.uniform(z_centre_lo, z_centre_hi)
        yaw = rng.uniform(-math.pi, math.pi)
        centres.append((cx, cy, cz))
        boxes.append(Box3D((cx, cy, cz), object_dims, yaw, class_id=0))

    blocks: list[np.ndarray] = []
    for box in boxes:
        xyz = _sample_surface_points(rng, box, points_per_object)
        refl = rng.uniform(0.0, 1.0, size=points_per_object)
        blocks.append(np.column_stack([xyz, refl]))
    if clutter_points > 0:
        xyz = np.column_stack(
            [
                rng.uniform(x_lo, x_hi, size=clutter_points),
                rng.uniform(y_lo, y_hi, size=clutter_points),
                rng.uniform(z_lo, z_hi, size=clutter_points),
            ]
        )
        refl = rng.uniform(0.0, 1.0, size=clutter_points)
        blocks.append(np.column_stack([xyz, refl]))

    points = np.vstack(blocks) if blocks else np.empty((0, 4))
    return Scene(PointCloud(points), tuple(boxes), bounds)


def clip_to_range(scene: Scene) -> Scene:
    """Drop cloud points outside the scene range (half-open per axis).

    Ground-truth boxes are untouched; their centres are inside the range
    by the scene invariant.  Applying the clip twice is a no-op.
    """
    pts = scene.cloud.points
    keep = np.ones(len(pts), dtype=bool)
    for axis, (lo, hi) in enumerate(scene.range_bounds):
        keep &= (pts[:, axis] >= lo) & (pts[:, axis] < hi)
    return Scene(PointCloud(pts[keep]), scene.gt_boxes, scene.range_bounds)


def _class_name(class_id: int | None) -> str:
    if class_id is None:
        return _UNKNOWN_CLASS
    if 0 <= class_id < len(_CLASS_NAMES):
        return _CLASS_NAMES[class_id]
    return f"Class{class_id}"


def _class_id(name: str) -> int | None:
    if name in _CLASS_NAMES:
        return _CLASS_NAMES.index(name)
    if name.startswith("Class"):
        try:
            return int(name[5:])
        except ValueError:
            return None
    return None


def write_detections(path: str, boxes: Sequence[Box3D]) -> None:
    """Write boxes (a :class:`BoxArray` or :class:`Box3D` sequence) as
    ``class cx cy cz l w h yaw [score]`` lines.

    Floats are written with full round-trip precision (``repr``).  The
    score column is omitted for boxes without one (ground truth).
    """
    boxes = BoxArray.of(boxes)
    class_ids = boxes.class_ids.tolist()
    names = {class_id: _class_name(class_id) for class_id in set(class_ids)}
    lines = []
    for row, score, class_id in zip(boxes.params.tolist(), boxes.scores.tolist(), class_ids):
        parts = [names[class_id], *map(repr, row)]
        if not math.isnan(score):
            parts.append(repr(score))
        lines.append(" ".join(parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def _text_rows(path: str, parse: Callable) -> Iterator:
    """``parse(tokens)`` of each nonblank line of a UTF-8 text file, in
    file order, the tokens being ``line.split()``; lines end where text
    mode ends them.  At the first line that is not UTF-8, or whose tokens
    ``parse`` refuses with ValueError, raises :class:`DetectionParseError`
    as ``"{path}, line {N}: {reason}"``, the reason being the codec's
    message on that line's bytes or ``parse``'s.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                if not line.isascii():  # bytes that are not UTF-8 come back as escapes
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                tokens = line.split()
                if tokens:
                    yield parse(tokens)
            except ValueError as exc:  # UnicodeDecodeError is a ValueError
                raise DetectionParseError(f"{path}, line {lineno}: {exc}") from None


def _finite_floats(tokens: list[str]) -> list[float]:
    """The tokens as floats; raises ValueError on one ``float`` rejects,
    then on a non-finite value."""
    values = list(map(float, tokens))
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value")
    return values


def _box_fields(tokens: list[str]) -> tuple[str, list[float]]:
    """The class token and the eight numbers (score NaN where absent) of a
    box line; raises ValueError on the first failed check in the order
    field count, number syntax, finiteness, then :class:`Box3D`'s own."""
    if len(tokens) not in (8, 9):
        raise ValueError(f"expected 8 or 9 fields, got {len(tokens)}")
    values = _finite_floats(tokens[1:])
    if len(values) == 7:
        values.append(math.nan)
    score = values[7]
    if min(values[3:6]) <= 0.0 or not (math.isnan(score) or 0.0 <= score <= 1.0):
        _box_view(values, score, None)  # raises Box3D's message
    return tokens[0], values


def _load_table(path: str) -> tuple[np.ndarray, list[str]]:
    """The numbers after each line's class token of a box file as (rows,
    8) floats, NaN where a line has no score, and the class tokens,
    parsed by one ``np.loadtxt`` call.  Raises ValueError where loadtxt
    refuses the file or a box fails a check."""
    with open(path, "r", encoding="utf-8") as fh:
        first = next(filter(None, map(str.split, fh)), None)
    if first is None:  # loadtxt would warn that the file holds no data
        return np.full((0, 8), math.nan), []
    numbers = len(first) - 1
    if numbers not in (7, 8):
        raise ValueError("expected 8 or 9 fields")
    table = np.loadtxt(
        path, dtype=[("name", object), ("values", float, (numbers,))],
        comments=None, encoding="utf-8", ndmin=1,
    )
    values = np.full((len(table), 8), math.nan)
    values[:, :numbers] = table["values"]
    score = values[:, 7]
    if not (
        np.isfinite(values[:, :numbers]).all()
        and (values[:, 3:6] > 0.0).all()
        and (numbers == 7 or ((score >= 0.0) & (score <= 1.0)).all())
    ):
        raise ValueError("a box fails a check")
    return values, table["name"].tolist()


def read_detections(path: str) -> BoxArray:
    """Parse a detection text file written by :func:`write_detections`.

    Blank lines are ignored.  A malformed line raises
    :class:`DetectionParseError` naming the 1-based line number of the
    first bad line; within a line the checks run in the order UTF-8
    decoding, field count, number syntax, finiteness, then
    :class:`Box3D`'s own checks.  Lines end at ``"\n"`` only (text mode
    folds ``"\r\n"`` and ``"\r"`` into it); other line breaks
    ``str.splitlines`` knows, such as ``"\x0c"``, are whitespace between
    fields.

    Cost: a file whose lines all parse goes through one ``np.loadtxt``
    call, whose C reader converts each number with the routine ``float``
    uses, into arrays that are checked whole; no Python object is built
    per number.  Any other file (a bad line, or one that ``float`` reads
    and loadtxt does not, such as mixed 8- and 9-field lines or ``1_0``)
    is walked once by :func:`_text_rows`, line by line with one ``float``
    per field, up to its first bad line.
    """
    try:
        values, names = _load_table(path)
    except ValueError:
        rows = list(_text_rows(path, _box_fields))
        names = [name for name, _ in rows]
        values = np.array([fields for _, fields in rows], dtype=float).reshape(-1, 8)
    ids = {name: _class_id(name) for name in set(names)}
    class_ids = np.empty(len(names), dtype=object)
    class_ids[:] = [ids[name] for name in names]
    params = values[:, :7].copy()
    params[:, 6] = normalize_yaw(params[:, 6])
    return BoxArray(params, values[:, 7].copy(), class_ids)
