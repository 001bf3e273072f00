"""Region feature aggregation: node states for proposals from the point cloud.

:func:`roi_states` builds every proposal's state in one batched pass: the
top level of a farthest-point-sampled set-abstraction pyramid
(:func:`point_pyramid`), interpolated onto each proposal centre.  The
pyramid's MLPs are seeded and frozen, so the whole path stays
deterministic and cheap, and it sees positions only as offsets within a
group, so the states describe local point patterns, not where they sit.

:func:`synthetic_voxel_features`, :func:`synthetic_bev_map` and
:func:`voxel_feature_set` are smooth seeded fields of absolute position.
No node state reads them.
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
    propagate_features,
    set_abstraction,
)
from .nnet import DenseStack
from .scene import Box3D, BoxArray, PointCloud
from .voxel import SparseVoxelGrid


@dataclass(frozen=True)
class RfaConfig:
    """Width and grouping scales of the point pyramid.

    ``keypoint_counts`` and ``radii`` configure the point pyramid: each
    level samples that many keypoints (clamped to the available points)
    and groups at two radii whose set-abstraction outputs concatenate.
    ``point_dim`` must equal the concatenated output width of the last
    level's two MLPs.
    """

    point_dim: int = 8
    keypoint_counts: tuple[int, ...] = (4096, 1024, 256)
    radii: tuple[tuple[float, float], ...] = ((0.1, 0.5), (0.5, 1.0), (1.0, 2.0))

    def __post_init__(self) -> None:
        if self.point_dim < 1:
            raise ValueError("point_dim must be positive")
        if len(self.keypoint_counts) != len(self.radii):
            raise ValueError("one radius pair per pyramid level is required")
        if any(k < 1 for k in self.keypoint_counts):
            raise ValueError("keypoint counts must be positive")
        for r1, r2 in self.radii:
            if not (0 < r1 < math.inf and 0 < r2 < math.inf):
                raise ValueError("grouping radii must be positive reals")

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
    """The shared keypoint pyramid read by every proposal's node state.

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
        raise ValueError("the point pyramid needs a non-empty cloud")
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


def roi_states(pyramid: FeatureSet, proposals: BoxArray) -> np.ndarray:
    """The (n, point_dim) node states of the proposals: the ``pyramid``'s
    top level interpolated onto each proposal centre.  At least one
    proposal is required."""
    if len(proposals) == 0:
        raise ValueError("roi_states needs at least one proposal")
    return propagate_features(pyramid, proposals.params[:, :3]).features


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
