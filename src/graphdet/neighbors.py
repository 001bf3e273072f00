"""Exact neighbour search over a spatial cell hash.

Points, in 3D or in the plane, are sorted into cubic (square) cells and
stored CSR-style: the occupied cells' keys in ascending order, and for
each cell the start and count of its points in one index permutation.  A
query reads the 3x3x3 (3x3) block of cells around its own cell as flat
(query, source) pair arrays, so memory grows with the number of candidate
pairs rather than with m x n.

``nearest_k`` is exact and ties go to the lower source index, matching a
stable argsort over each query's full row of squared distances.
``radius_pairs`` lists every pair of one set strictly closer than a
radius; ``ball_pairs`` every (centre, source) pair within a radius,
inclusive.
"""

from __future__ import annotations

from itertools import product

import numpy as np

# (query, source) pairs a hash pass handles at once.  Queries whose full
# distance table holds at most 1/32 of that take the dense pass.
_CHUNK_PAIRS = 1 << 20
# Cells per source over the bounding box in the first k-nearest pass.
# Clouds crowd onto surfaces and objects, so a fine first grid answers
# the dense regions from small blocks; the doubling passes coarsen it
# for the sparse ones.
_CELLS_PER_SOURCE = 32.0
# Cells per axis at most, so that the packed cell keys fit in int64.
_MAX_CELLS = 1 << 20
# Relative slack on cell-face distances, covering rounding in the cell
# assignment and in the squared distances.
_SLACK = 1e-9

# A cell's block: the offsets to its neighbours and itself, per dimension.
_OFFSETS = {dim: np.array(list(product((-1, 0, 1), repeat=dim)), dtype=np.int64) for dim in (2, 3)}


class CellIndex:
    """Points, (n, 3) or (n, 2), sorted into cells of side ``cell_size``.

    Cells are counted from the points' minimum corner, so every point lies
    in a cell of ``[0, shape)``.  Queries are clamped onto that grid.  A
    cell side below 1/_MAX_CELLS of the points' extent is widened to it.
    """

    def __init__(self, points: np.ndarray, cell_size: float):
        self.points = points
        self.origin = points.min(axis=0)
        extent = float((points.max(axis=0) - self.origin).max())
        self.cell_size = cell_size = max(cell_size, extent / _MAX_CELLS)
        cells = np.floor((points - self.origin) / cell_size).astype(np.int64)
        self.shape = cells.max(axis=0) + 1
        keys = self._key(cells)
        self.order = np.argsort(keys, kind="stable")
        self.keys, self.start, self.count = np.unique(
            keys[self.order], return_index=True, return_counts=True
        )
        scale = np.abs(self.origin).max() + self.shape.max() * cell_size
        self._tol = _SLACK * scale

    def _key(self, cells: np.ndarray) -> np.ndarray:
        # One ring of padding, so the block of an edge cell keys uniquely.
        c = cells + 1
        key = c[..., 0]
        for axis in range(1, c.shape[-1]):
            key = key * (self.shape[axis] + 2) + c[..., axis]
        return key

    def cell_of(self, xyz: np.ndarray) -> np.ndarray:
        """Cell coordinates of positions, clamped onto the grid."""
        c = np.floor((xyz - self.origin) / self.cell_size)
        return np.clip(c, 0, self.shape - 1).astype(np.int64)

    def block_slots(self, cells: np.ndarray, forward: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The occupied cells of each query's 3x3x3 (3x3) block; with
        ``forward``, of its forward half: the query's own cell and the
        block cells after it in key order, so that of two neighbouring
        cells only the first lists the second.

        Returns the query row and the cell slot (into ``keys``, ``start``
        and ``count``) of every hit, ordered by query row.
        """
        offsets = _OFFSETS[cells.shape[1]]
        if forward:  # offsets run in key order, the own cell in the middle
            offsets = offsets[len(offsets) // 2:]
        keys = self._key(cells[:, None, :] + offsets).ravel()
        slot = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        hit = self.keys[slot] == keys
        rows = np.repeat(np.arange(len(cells)), len(offsets))
        return rows[hit], slot[hit]

    def expand(self, rows: np.ndarray, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat (query row, point index) pairs for the given cell hits."""
        count = self.count[slots]
        first = np.repeat(self.start[slots] - (np.cumsum(count) - count), count)
        return np.repeat(rows, count), self.order[first + np.arange(count.sum())]

    def block_pairs(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every (query, point) pair within each query's 3x3x3 (3x3) block."""
        return self.expand(*self.block_slots(self.cell_of(queries)))

    def edge_distance(self, queries: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Distance from each query to the nearest block face with points
        beyond it, shrunk by a rounding slack; infinite when the block
        covers the whole grid."""
        lo = self.origin + (cells - 1) * self.cell_size
        hi = self.origin + (cells + 2) * self.cell_size
        d_lo = np.where(cells >= 2, queries - lo, np.inf)
        d_hi = np.where(cells + 2 < self.shape, hi - queries, np.inf)
        edge = np.minimum(d_lo, d_hi).min(axis=1)
        return np.maximum(edge * (1.0 - _SLACK) - self._tol, 0.0)


def _start_cell(points: np.ndarray) -> float:
    """Cell side giving ``_CELLS_PER_SOURCE`` cells per point over the
    bounding box; axes thinner than the cell do not count as volume."""
    extent = np.sort(points.max(axis=0) - points.min(axis=0))[::-1]
    cells = len(points) * _CELLS_PER_SOURCE
    for dims in (3, 2, 1):
        side = (np.prod(extent[:dims]) / cells) ** (1.0 / dims)
        if 0 < side <= extent[dims - 1]:
            break
    return float(side) if side > 0 else 1.0


def _brute_k(
    sources: np.ndarray, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The dense pass: k rounds of a row ``argmin`` over the full table,
    each taking the first (lowest-index) minimum and striking it out."""
    d2 = ((queries[:, None, :] - sources[None, :, :]) ** 2).sum(axis=2)
    rows = np.arange(len(queries))
    nn = np.empty((len(queries), k), dtype=np.int64)
    dk = np.empty((len(queries), k))
    for r in range(k):
        nn[:, r] = j = d2.argmin(axis=1)
        dk[:, r] = d2[rows, j]
        d2[rows, j] = np.inf
    return nn, dk


def _hash_k(
    index: CellIndex, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over the cell hash.

    Returns a mask of the queries whose k nearest provably lie in their
    block, with those queries' indices and squared distances.
    """
    m = len(queries)
    cells = index.cell_of(queries)
    rows, slots = index.block_slots(cells)
    per_query = np.bincount(rows, weights=index.count[slots], minlength=m)
    edge = index.edge_distance(queries, cells)
    done = np.zeros(m, dtype=bool)
    nn = np.empty((m, k), dtype=np.int64)
    d2 = np.empty((m, k))
    # Batch whole queries so that each batch holds about _CHUNK_PAIRS pairs.
    bounds = np.searchsorted(
        np.cumsum(per_query),
        np.arange(_CHUNK_PAIRS, per_query.sum(), _CHUNK_PAIRS),
        side="right",
    )
    for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, m]):
        a, b = np.searchsorted(rows, [lo, hi])
        if a == b:
            continue
        # Pairs come grouped by query; take k rounds of a segmented
        # minimum: the least distance, then the least source index among
        # the pairs at that distance, which is then struck out.  A query
        # with fewer than k candidates ends on an infinite k-th distance,
        # so it never counts as final.
        q_idx, s_idx = index.expand(rows[a:b], slots[a:b])
        d = ((queries[q_idx] - index.points[s_idx]) ** 2).sum(-1)
        q_idx -= lo
        counts = np.bincount(q_idx, minlength=hi - lo)
        hit = np.flatnonzero(counts)
        seg = np.cumsum(counts[hit]) - counts[hit]
        of_pair = np.repeat(np.arange(len(hit)), counts[hit])
        nn_b = np.empty((len(hit), k), dtype=np.int64)
        d2_b = np.empty((len(hit), k))
        for r in range(k):
            d2_b[:, r] = best = np.minimum.reduceat(d, seg)
            tie = d == best[of_pair]
            pick = np.minimum.reduceat(np.where(tie, s_idx, len(index.points)), seg)
            nn_b[:, r] = pick
            d[tie & (s_idx == pick[of_pair])] = np.inf
        ok = d2_b[:, -1] < edge[lo + hit] ** 2
        rows_ok = lo + hit[ok]
        done[rows_ok] = True
        nn[rows_ok] = nn_b[ok]
        d2[rows_ok] = d2_b[ok]
    return done, nn[done], d2[done]


def nearest_k(
    sources: np.ndarray, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and squared distances of each query's ``k`` nearest sources.

    Both outputs are (m, k), nearest first; equal distances go to the
    lower source index.  Squared distances use ``((q - s) ** 2).sum(-1)``,
    so they are bit-identical to a dense m x n table, and so is the
    choice of neighbours: the first k entries of a stable argsort of each
    query's row.  Requires ``1 <= k <= len(sources)`` and coordinates
    whose squared differences stay finite.

    Nothing is sorted: both passes pick the k nearest in k rounds of a
    minimum that strikes out each pick.  Queries are answered from a cell
    hash whose first cell side comes from the source count and extent.  A
    query is final once its k-th distance is strictly below the distance
    to the nearest face of its 3x3x3 block that has sources beyond it;
    the rest retry with the cell side doubled.  Once the remaining
    queries' full distance table is small (at most 1/32 of
    ``_CHUNK_PAIRS``), they take the dense pass.
    """
    m, n = len(queries), len(sources)
    nn = np.empty((m, k), dtype=np.int64)
    d2 = np.empty((m, k))
    todo = np.arange(m)
    side = _start_cell(sources)
    while len(todo) * n > _CHUNK_PAIRS // 32:
        done, nn_done, d2_done = _hash_k(CellIndex(sources, side), queries[todo], k)
        nn[todo[done]] = nn_done
        d2[todo[done]] = d2_done
        todo = todo[~done]
        side *= 2.0
    if len(todo):
        nn[todo], d2[todo] = _brute_k(sources, queries[todo], k)
    return nn, d2


def radius_pairs(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """All ordered pairs (i, j), self-pairs included, strictly closer than
    ``radius``, sorted by i then j."""
    return _pairs_within(points, points, radius, np.less)


def ball_pairs(
    sources: np.ndarray, centres: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every (centre, source) pair with ``((s - c) ** 2).sum(-1)`` at most
    ``radius ** 2`` (inclusive), sorted by centre then source."""
    return _pairs_within(sources, centres, radius, np.less_equal)


def _pairs_within(
    sources: np.ndarray, queries: np.ndarray, radius: float, compare: np.ufunc
) -> tuple[np.ndarray, np.ndarray]:
    if len(sources) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Cells a hair wider than the radius keep every pair inside adjacent
    # cells despite rounding in the cell assignment.
    i, j = CellIndex(sources, radius * (1.0 + _SLACK)).block_pairs(queries)
    keep = compare(((sources[j] - queries[i]) ** 2).sum(-1), radius * radius)
    i, j = i[keep], j[keep]
    order = np.lexsort((j, i))
    return i[order], j[order]
