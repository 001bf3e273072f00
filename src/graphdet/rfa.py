"""Region feature aggregation: node states for proposals from three sources.

:func:`roi_states` builds every proposal's state in one batched pass.  It
concatenates, in this order, a voxel component (sparse voxel features
propagated onto the raw cloud points nearest the proposal centre, then
onto the centre), a pixel component (a rotated probe grid over a BEV
feature map, read for all proposals in one gather), and a point
component (the top level of a farthest-point-sampled set-abstraction
pyramid, interpolated onto the centre).  Synthetic smooth feature fields
stand in for a learned backbone so the whole path stays deterministic
and cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .geom import points_in_box
from .interp import (
    BevFeatureMap,
    FeatureSet,
    farthest_point_sample,
    inverse_distance_blend,
    propagate_features,
    sample_bev_grid,
    set_abstraction,
)
from .neighbors import nearest_k
from .nnet import DenseStack
from .scene import Box3D, BoxArray, PointCloud
from .voxel import SparseVoxelGrid


@dataclass(frozen=True)
class RfaConfig:
    """Widths and grouping scales of the three feature components.

    ``keypoint_counts`` and ``radii`` configure the point pyramid: each
    level samples that many keypoints (clamped to the available points)
    and groups at two radii whose set-abstraction outputs concatenate.
    ``point_dim`` must equal the concatenated output width of the last
    level's two MLPs.
    """

    m1: int = 2
    m2: int = 2
    voxel_dim: int = 8
    point_dim: int = 8
    keypoint_counts: tuple[int, ...] = (4096, 1024, 256)
    radii: tuple[tuple[float, float], ...] = ((0.1, 0.5), (0.5, 1.0), (1.0, 2.0))

    def __post_init__(self) -> None:
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("probe grid shape must be positive")
        if self.voxel_dim < 1 or self.point_dim < 1:
            raise ValueError("component widths must be positive")
        if len(self.keypoint_counts) != len(self.radii):
            raise ValueError("one radius pair per pyramid level is required")
        if any(k < 1 for k in self.keypoint_counts):
            raise ValueError("keypoint counts must be positive")
        for r1, r2 in self.radii:
            if r1 <= 0 or r2 <= 0:
                raise ValueError("grouping radii must be positive")

    @property
    def pixel_dim(self) -> int:
        return self.m1 * self.m2

    @property
    def feature_dim(self) -> int:
        """Width of the assembled node state."""
        return self.voxel_dim + self.pixel_dim + self.point_dim

    @property
    def levels(self) -> int:
        return len(self.keypoint_counts)


def synthetic_voxel_features(positions: np.ndarray, dim: int, seed: int) -> np.ndarray:
    """A smooth deterministic feature field evaluated at given positions.

    Channels are sinusoids of seeded random frequency and phase, so the
    field is scene-independent, infinitely smooth, and reproducible.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    rng = np.random.default_rng(seed)
    freq = rng.normal(0.0, 0.6, size=(dim, 3))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=dim)
    return np.sin(positions @ freq.T + phase)


def synthetic_bev_map(
    rows: int,
    cols: int,
    channels: int,
    cell_size: float,
    origin: tuple[float, float],
    seed: int,
) -> BevFeatureMap:
    """Rasterise the smooth synthetic field over a BEV grid."""
    ys = origin[1] + (np.arange(rows) + 0.5) * cell_size
    xs = origin[0] + (np.arange(cols) + 0.5) * cell_size
    gx, gy = np.meshgrid(xs, ys)  # (rows, cols)
    flat = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    values = synthetic_voxel_features(flat, channels, seed)
    return BevFeatureMap(values.reshape(rows, cols, channels), cell_size, origin)


def voxel_feature_set(grid: SparseVoxelGrid, dim: int, seed: int) -> FeatureSet:
    """Voxel centres paired with the synthetic field sampled there."""
    positions = grid.centres
    return FeatureSet(positions, synthetic_voxel_features(positions, dim, seed))


def point_pyramid(
    cloud: PointCloud,
    config: RfaConfig,
    stacks: list[tuple[DenseStack, DenseStack]],
) -> FeatureSet:
    """The shared keypoint pyramid feeding every proposal's point component.

    Level-zero input features are the per-point reflectance; positions
    enter only through the relative offsets inside set abstraction, so
    the pyramid describes local point-pattern shape rather than absolute
    placement.  Each level farthest-point-samples its keypoints (clamped
    to the available count, starting from index 0), applies set
    abstraction at the two configured radii, and concatenates the pooled
    outputs into the next level's features.
    """
    if len(stacks) != config.levels:
        raise ValueError(f"expected {config.levels} stack pairs, got {len(stacks)}")
    if len(cloud) == 0:
        raise ValueError("point component needs a non-empty cloud")
    current = FeatureSet(cloud.xyz, cloud.reflectance[:, None])
    for level, ((r1, r2), (mlp1, mlp2)) in enumerate(zip(config.radii, stacks)):
        k = min(config.keypoint_counts[level], len(current))
        centres = current.positions[farthest_point_sample(current.positions, k, 0)]
        grouped1 = set_abstraction(current, centres, r1, mlp1)
        grouped2 = set_abstraction(current, centres, r2, mlp2)
        current = FeatureSet(
            centres, np.concatenate([grouped1.features, grouped2.features], axis=1)
        )
    if current.dim != config.point_dim:
        raise ValueError(
            f"point pyramid produced width {current.dim}, config expects {config.point_dim}"
        )
    return current


def default_point_stacks(config: RfaConfig, seed: int, hidden: int = 16) -> list[tuple[DenseStack, DenseStack]]:
    """Seeded two-layer MLP pairs whose widths chain through the pyramid.

    Each level's two branches output ``point_dim // 2`` channels so the
    final concatenation matches ``config.point_dim`` (which must be even).
    """
    if config.point_dim % 2 != 0:
        raise ValueError("point_dim must be even to split across two radii")
    half = config.point_dim // 2
    child = np.random.SeedSequence(seed).generate_state(2 * config.levels)
    stacks = []
    in_dim = 1 + 3  # reflectance plus relative offset
    for level in range(config.levels):
        mlp1 = DenseStack.seeded((in_dim, hidden, half), int(child[2 * level]))
        mlp2 = DenseStack.seeded((in_dim, hidden, half), int(child[2 * level + 1]))
        stacks.append((mlp1, mlp2))
        in_dim = 2 * half + 3
    return stacks


def roi_states(
    voxels: FeatureSet,
    cloud: PointCloud,
    pyramid: FeatureSet,
    bev: BevFeatureMap,
    proposals: BoxArray,
    config: RfaConfig,
) -> np.ndarray:
    """The (n, feature_dim) node states of the proposals: voxel | pixel | point.

    The voxel component takes two 3-nearest hops: the ``voxels`` field
    onto the cloud points, then onto each proposal centre.  Only the
    centres' nearest points are ever read, so the first hop runs on
    those rows alone (at most three per proposal), which gives them bit
    for bit as propagating onto the whole cloud would.  The ``pyramid``'s
    top level is interpolated onto each centre, and the BEV map is probed
    with an m1 x m2 grid over every footprint in one
    :func:`~graphdet.interp.sample_bev_grid` call.  At least one proposal
    and one cloud point are required.
    """
    if len(proposals) == 0:
        raise ValueError("roi_states needs at least one proposal")
    if len(cloud) == 0:
        raise ValueError("the voxel component needs a non-empty cloud")
    centres = proposals.params[:, :3]
    nn, d2 = nearest_k(cloud.xyz, centres, min(3, len(cloud)))
    rows = np.unique(nn)
    at_rows = propagate_features(voxels, cloud.xyz[rows]).features
    vox_at = inverse_distance_blend(at_rows, np.searchsorted(rows, nn), d2)
    point_at = propagate_features(pyramid, centres).features
    pixel_at = sample_bev_grid(bev, proposals, config.m1, config.m2)
    return np.concatenate([vox_at, pixel_at, point_at], axis=1)


def auxiliary_targets(
    cloud: PointCloud, gt_boxes: list[Box3D] | tuple[Box3D, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point supervision targets: foreground mask and centre offsets.

    A point is foreground when it lies inside any ground-truth box
    (face-inclusive).  Its offset target is ``box centre - point`` for the
    first containing box in list order; background points get zeros.
    """
    n = len(cloud)
    mask = np.zeros(n, dtype=bool)
    offsets = np.zeros((n, 3))
    xyz = cloud.xyz
    for box in gt_boxes:
        inside = points_in_box(xyz, box) & ~mask
        if np.any(inside):
            offsets[inside] = np.array(box.center) - xyz[inside]
            mask |= inside
    return mask, offsets
