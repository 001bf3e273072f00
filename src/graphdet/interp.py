"""Point-set operators: farthest point sampling, feature propagation,
radius set abstraction, and bilinear BEV sampling.

These are the building blocks that move features between irregular point
sets and regular maps: interpolation weighs the three nearest sources by
inverse squared distance, set abstraction max-pools a pointwise MLP over
a radius neighbourhood, and BEV sampling reads a rotated grid of probes
out of a 2D feature map, for all boxes in one gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .neighbors import ball_pairs, nearest_k
from .nnet import DenseStack
from .scene import BoxArray

_EPS = 1e-8  # inverse-distance regulariser


@dataclass(frozen=True)
class FeatureSet:
    """Positions with aligned feature vectors.

    ``positions`` is (n, 3) and ``features`` (n, d); rows correspond.
    Both arrays are copied and frozen at construction.
    """

    positions: np.ndarray
    features: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        feat = np.asarray(self.features, dtype=float)
        if pos.size == 0:
            pos = pos.reshape(0, 3)
        if feat.size == 0:
            feat = feat.reshape(0, feat.shape[-1] if feat.ndim == 2 else 0)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (n, 3), got {pos.shape}")
        if feat.ndim != 2 or feat.shape[0] != pos.shape[0]:
            raise ValueError(
                f"features must align with positions, got {feat.shape} vs {pos.shape}"
            )
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(feat))):
            raise ValueError("feature set contains non-finite values")
        pos, feat = pos.copy(), feat.copy()
        pos.setflags(write=False)
        feat.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "features", feat)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class BevFeatureMap:
    """A dense bird's-eye-view feature raster.

    ``grid`` has shape (rows, cols, channels); rows stride the y axis and
    columns the x axis.  Cell (r, c) is centred at
    ``origin + ((c + 0.5) * cell_size, (r + 0.5) * cell_size)``.
    """

    grid: np.ndarray
    cell_size: float
    origin: tuple[float, float]

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 3:
            raise ValueError(f"grid must be (rows, cols, channels), got {grid.shape}")
        if self.cell_size <= 0 or not math.isfinite(self.cell_size):
            raise ValueError("cell_size must be a positive real")
        if not np.all(np.isfinite(grid)):
            raise ValueError("feature map contains non-finite values")
        grid = grid.copy()
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))

    @property
    def channels(self) -> int:
        return self.grid.shape[2]


def farthest_point_sample(positions: np.ndarray, k: int, start_index: int = 0) -> list[int]:
    """Greedy farthest point sampling.

    Starting from ``start_index``, repeatedly picks the point whose
    distance to the chosen set is largest; exact distance ties go to the
    lowest index.  Raises ValueError when ``k`` exceeds the number of
    points.  Each pick updates the running minimum squared distance from
    the coordinate columns as ``dx*dx + dy*dy + dz*dz``, in place; numpy
    adds those three terms left to right, so the sums equal a reduce over
    the length-3 axis bit for bit.
    """
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    if k > n:
        raise ValueError(f"cannot sample {k} points from {n}")
    if k <= 0:
        return []
    if not 0 <= start_index < n:
        raise ValueError(f"start_index {start_index} out of range for {n} points")
    # Squared distances preserve the greedy ordering and avoid square roots.
    x, y, z = (np.ascontiguousarray(pos[:, c]) for c in range(3))

    def d2_to(i: int) -> np.ndarray:
        dx, dy, dz = x - x[i], y - y[i], z - z[i]
        return dx * dx + dy * dy + dz * dz

    chosen = [int(start_index)]
    min_d2 = d2_to(start_index)
    for _ in range(k - 1):
        nxt = int(np.argmax(min_d2))  # first maximum = lowest index on ties
        chosen.append(nxt)
        np.minimum(min_d2, d2_to(nxt), out=min_d2)
    return chosen


def inverse_distance_blend(
    features: np.ndarray, nn: np.ndarray, d2: np.ndarray
) -> np.ndarray:
    """Each row's average of ``features[nn[row]]``, weighted by
    ``1 / (d2 + 1e-8)`` normalised over the row."""
    inv = 1.0 / (d2 + _EPS)
    weights = inv / inv.sum(axis=1, keepdims=True)
    return (features[nn] * weights[:, :, None]).sum(axis=1)


def propagate_features(source: FeatureSet, query_positions: np.ndarray) -> FeatureSet:
    """Interpolate source features onto query positions.

    Each query takes an inverse-squared-distance weighted average of its
    three nearest sources (all of them when fewer than three exist);
    weights are ``1 / (d^2 + 1e-8)``, normalised per query, and equal
    distances go to the lower source index.  An empty source set or a
    non-finite query is an error.  Each query's output depends on its own
    neighbours alone, so propagating onto a subset of queries gives those
    rows of the full result bit for bit.

    The neighbours come from ``neighbors.nearest_k``, which is exact: the
    output equals that of a dense (m, n) distance table bit for bit, while
    memory grows with the number of candidate pairs near each query
    rather than with m x n.  Measured on a shared 2-core x86 machine:
    20k uniform queries over 19k uniform sources in a 70 x 80 x 4 m box
    take 0.22-0.29 s with a 72 MB allocation peak, where the dense table
    alone would need 8.7 GiB.  The pipeline propagates only the point
    pyramid's top level onto the proposal centres; see ``rfa.roi_states``.
    """
    if len(source) == 0:
        raise ValueError("cannot propagate from an empty feature set")
    queries = np.asarray(query_positions, dtype=float)
    if queries.size == 0:
        return FeatureSet(np.empty((0, 3)), np.empty((0, source.dim)))
    if queries.ndim != 2 or queries.shape[1] != 3:
        raise ValueError(f"query positions must be (m, 3), got {queries.shape}")
    if not np.all(np.isfinite(queries)):
        raise ValueError("query positions contain non-finite values")

    nn, d2 = nearest_k(source.positions, queries, min(3, len(source)))
    return FeatureSet(queries, inverse_distance_blend(source.features, nn, d2))


def set_abstraction(
    source: FeatureSet,
    centers: np.ndarray,
    radius: float,
    mlp: DenseStack,
) -> FeatureSet:
    """Radius-grouped pointwise MLP with channel-wise max pooling.

    For every centre, gathers source points within ``radius`` (inclusive),
    appends each point's offset from the centre to its feature, pushes the
    rows through ``mlp`` in ascending source order, and max-pools per
    channel.  Empty neighbourhoods yield a zero vector, and points beyond
    the radius can never change the output.

    The groups come from ``neighbors.ball_pairs``, a cell-hash ball query,
    so each centre reads only the sources near it instead of scanning
    them all.  The groups of each size k go through ``mlp`` together, as
    one batch of (k, K) matrices that ``np.matmul`` hands to BLAS one
    matrix at a time, so every group gets the same BLAS call, and so the
    same bits, as a per-centre ``mlp.apply`` whatever the layer widths.
    The Python loop runs over the distinct group sizes, not the centres.
    """
    if not 0 < radius < math.inf:
        raise ValueError("radius must be a positive real")
    centers = np.asarray(centers, dtype=float)
    if centers.size == 0:
        return FeatureSet(np.empty((0, 3)), np.empty((0, mlp.out_dim)))
    if centers.ndim != 2 or centers.shape[1] != 3:
        raise ValueError(f"centers must be (m, 3), got {centers.shape}")
    if mlp.in_dim != source.dim + 3:
        raise ValueError(
            f"mlp expects {mlp.in_dim} inputs but grouped features have {source.dim + 3}"
        )

    out = np.zeros((len(centers), mlp.out_dim))
    c_idx, s_idx = ball_pairs(source.positions, centers, radius)
    grouped = np.concatenate(
        [source.features[s_idx], source.positions[s_idx] - centers[c_idx]], axis=1
    )
    counts = np.bincount(c_idx, minlength=len(centers))
    starts = np.cumsum(counts) - counts
    for k in np.unique(counts[counts > 0]).tolist():
        sel = np.flatnonzero(counts == k)
        batch = grouped[starts[sel, None] + np.arange(k)]  # (groups, k, K)
        out[sel] = mlp._forward(batch, np.matmul)[0].max(axis=1)
    return FeatureSet(centers, out)


def sample_bev_point(bev: BevFeatureMap, x: float, y: float) -> np.ndarray:
    """Sample all map channels at one continuous position, blending the
    four surrounding cell centres bilinearly with zero padding outside
    the raster."""
    rows, cols, channels = bev.grid.shape
    gc = (x - bev.origin[0]) / bev.cell_size - 0.5  # column coordinate
    gr = (y - bev.origin[1]) / bev.cell_size - 0.5  # row coordinate
    r0, c0 = math.floor(gr), math.floor(gc)
    tr, tc = gr - r0, gc - c0
    out = np.zeros(channels)
    for dr, wr in ((0, 1.0 - tr), (1, tr)):
        for dc, wc in ((0, 1.0 - tc), (1, tc)):
            r, c = r0 + dr, c0 + dc
            weight = wr * wc
            if weight != 0.0 and 0 <= r < rows and 0 <= c < cols:
                out += weight * bev.grid[r, c]
    return out


def sample_bev_grid(
    bev: BevFeatureMap,
    boxes: BoxArray,
    m1: int,
    m2: int,
) -> np.ndarray:
    """Read an m1 x m2 probe grid out of each box's rotated footprint
    into row k of the (n, m1 * m2) result.

    Probe (i, j) sits at the centre of sub-cell (i, j) of the footprint,
    with i striding the length axis and j the width axis, and reads map
    channel ``i * m2 + j``.  The map must therefore carry at least
    ``m1 * m2`` channels; probes falling off the raster read zero.  One
    bilinear gather adds the four corner terms in
    :func:`sample_bev_point`'s order, so each value is bit-identical to
    it (an off-raster or zero-weight term adds a zero, which changes no
    sum that starts at +0.0).
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("grid shape must be positive")
    needed = m1 * m2
    if bev.channels < needed:
        raise ValueError(
            f"feature map has {bev.channels} channels but the {m1}x{m2} grid needs {needed}"
        )
    p = boxes.params
    yaw = p[:, 6].tolist()
    cos = np.array(list(map(math.cos, yaw)), dtype=float)[:, None]
    sin = np.array(list(map(math.sin, yaw)), dtype=float)[:, None]
    lx = np.repeat((np.arange(m1) + 0.5) / m1 - 0.5, m2) * p[:, 3:4]
    ly = np.tile((np.arange(m2) + 0.5) / m2 - 0.5, m1) * p[:, 4:5]
    x = p[:, 0:1] + cos * lx - sin * ly
    y = p[:, 1:2] + sin * lx + cos * ly
    rows, cols, _ = bev.grid.shape
    gc = (x - bev.origin[0]) / bev.cell_size - 0.5  # column coordinate
    gr = (y - bev.origin[1]) / bev.cell_size - 0.5  # row coordinate
    r0, c0 = np.floor(gr), np.floor(gc)
    tr, tc = gr - r0, gc - c0
    channel = np.arange(needed)
    out = np.zeros((len(p), needed))
    for dr, wr in ((0, 1.0 - tr), (1, tr)):
        for dc, wc in ((0, 1.0 - tc), (1, tc)):
            r, c = r0 + dr, c0 + dc
            on = (r >= 0) & (r < rows) & (c >= 0) & (c < cols)
            rr = np.clip(r, 0, rows - 1).astype(np.int64)
            cc = np.clip(c, 0, cols - 1).astype(np.int64)
            out += np.where(on, wr * wc * bev.grid[rr, cc, channel], 0.0)
    return out
