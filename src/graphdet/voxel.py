"""Sparse voxelization of point clouds.

A cloud is quantised onto a regular grid anchored at the range minimum;
each occupied voxel keeps the mean of (up to) ``max_points_per_voxel`` of
its points as a 4-channel feature (x, y, z, reflectance).  The grid is
held as arrays over the occupied voxels only, so memory tracks occupancy
rather than grid volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import KITTI_RANGE, PointCloud, RangeBounds, _check_bounds

# Bits per axis in the packed voxel key.  21 bits * 3 axes fit a 64-bit int
# and allow grids up to 2_097_152 cells per side.
_AXIS_BITS = 21
_AXIS_CAP = 1 << _AXIS_BITS


def _axis_cells(extent: float, step: float) -> int:
    """ceil(extent / step) with a tolerance for exact divisions stored in floats."""
    ratio = extent / step
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) <= 1e-6 * max(1.0, nearest):
        return int(nearest)
    return int(math.ceil(ratio))


@dataclass(frozen=True)
class VoxelizationConfig:
    """Grid geometry and per-voxel capacity.

    Attributes:
        step: voxel edge lengths (v_l, v_w, v_h) in metres.
        max_points_per_voxel: retention cap per voxel; ``None`` keeps all points.
        range_bounds: half-open extent covered by the grid.
    """

    step: tuple[float, float, float] = (0.05, 0.05, 0.1)
    max_points_per_voxel: int | None = 5
    range_bounds: RangeBounds = KITTI_RANGE

    def __post_init__(self) -> None:
        step = tuple(float(s) for s in self.step)
        if len(step) != 3 or any(not math.isfinite(s) or s <= 0 for s in step):
            raise ValueError(f"voxel step must be three positive reals, got {self.step}")
        cap = self.max_points_per_voxel
        if cap is not None and (
            isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1
        ):
            raise ValueError(
                f"max_points_per_voxel must be an int >= 1 (or None for unlimited), got {cap!r}"
            )
        bounds = _check_bounds(self.range_bounds)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "range_bounds", bounds)

    @property
    def origin(self) -> tuple[float, float, float]:
        return tuple(lo for lo, _ in self.range_bounds)  # type: ignore[return-value]

    @property
    def resolution(self) -> tuple[int, int, int]:
        """Cells per axis, ceil(extent / step)."""
        cells = tuple(
            _axis_cells(hi - lo, s) for (lo, hi), s in zip(self.range_bounds, self.step)
        )
        if any(c >= _AXIS_CAP for c in cells):
            raise ValueError(f"grid resolution {cells} exceeds packed-index capacity")
        return cells  # type: ignore[return-value]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class SparseVoxelGrid:
    """The occupied voxels of a cloud, one row each, in ascending (i, j, k) order.

    Attributes:
        cells: (n, 3) int64 voxel indices, lexicographically ascending.
        counts: (n,) retained points per voxel.
        features: (n, 4) mean (x, y, z, reflectance) of the retained points.
        config: the grid the cells index.
    """

    cells: np.ndarray
    counts: np.ndarray
    features: np.ndarray
    config: VoxelizationConfig

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def centres(self) -> np.ndarray:
        """(n, 3) voxel centres, ``origin + (cells + 0.5) * step`` per axis."""
        origin = np.array(self.config.origin)
        step = np.array(self.config.step)
        return origin + (self.cells + 0.5) * step


def voxelize(cloud: PointCloud, config: VoxelizationConfig) -> SparseVoxelGrid:
    """Quantise a cloud onto the configured grid.

    Each point lands in the voxel ``floor((p - range_min) / step)`` per
    axis.  A voxel that receives more than ``max_points_per_voxel`` points
    keeps the earliest of them in input order.  The voxel feature is the
    mean (x, y, z, r) of the retained points, summed in input order.

    Raises ValueError if any point lies outside the configured range.
    """
    pts = cloud.points
    mins = np.array(config.origin)
    maxs = np.array([hi for _, hi in config.range_bounds])
    xyz = pts[:, :3]
    bad = np.any((xyz < mins) | (xyz >= maxs), axis=1)
    if np.any(bad):
        first = int(np.argmax(bad))
        raise ValueError(f"point {first} at {tuple(xyz[first])} lies outside the configured range")

    idx = np.floor((xyz - mins) / np.array(config.step)).astype(np.int64)
    # Guard against points just below the upper bound rounding onto the far face.
    idx = np.minimum(idx, np.array(config.resolution) - 1)
    keys = (idx[:, 0] << (2 * _AXIS_BITS)) | (idx[:, 1] << _AXIS_BITS) | idx[:, 2]

    order = np.argsort(keys, kind="stable")  # groups voxels, keeps input order within
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.diff(sorted_keys, prepend=-1))  # keys are >= 0
    counts = np.diff(np.r_[starts, len(pts)])
    if config.max_points_per_voxel is not None:
        counts = np.minimum(counts, config.max_points_per_voxel)

    # Sum rank by rank: rank r adds the r-th retained point of every voxel
    # holding more than r, so each voxel's sum runs in input order, exactly
    # as a per-voxel ``block.sum(axis=0)``.  Voxels sorted by falling count
    # make the live set of each rank a prefix.
    sums = pts[order[starts]]
    by_count = np.argsort(-counts, kind="stable")
    falling = -counts[by_count]
    for rank in range(1, int(counts.max(initial=0))):
        live = by_count[: np.searchsorted(falling, -rank)]
        sums[live] += pts[order[starts[live] + rank]]

    return SparseVoxelGrid(
        cells=_read_only(idx[order[starts]]),
        counts=_read_only(counts),
        features=_read_only(sums / counts[:, None]),
        config=config,
    )
