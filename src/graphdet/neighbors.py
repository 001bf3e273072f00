"""Exact neighbour search over a spatial cell hash.

Points, in 3D or in the plane, are sorted into cubic (square) cells and
stored CSR-style: the occupied cells' keys in ascending order, and for
each cell the start and count of its points in one index permutation.  A
query reads the 3x3x3 (3x3) block of cells around its own cell as flat
(query, source) pair arrays, so memory grows with the number of candidate
pairs rather than with m x n.

Every search is a ball query over cells a hair wider than its radius,
so each point within the radius of a query lies in the query's block.
``radius_pairs`` lists every pair of one set strictly closer than a
radius; ``ball_pairs`` every (centre, source) pair within a radius,
inclusive.  ``nearest_k`` runs ball queries over a doubling radius until
each query holds k sources inside it; it is exact, and ties go to the
lower source index, matching a stable argsort over each query's full row
of squared distances.
"""

from __future__ import annotations

from itertools import product

import numpy as np

# (query, source) pairs a k-nearest pass handles at once.
_CHUNK_PAIRS = 1 << 20
# Cells per axis at most, so that the packed cell keys fit in int64.
_MAX_CELLS = 1 << 20
# Relative slack on a cell side over its radius, covering rounding in the
# cell assignment and in the squared distances.
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
        self.cell_size = max(cell_size, extent / _MAX_CELLS)
        cells = np.floor((points - self.origin) / self.cell_size).astype(np.int64)
        self.shape = cells.max(axis=0) + 1
        keys = self._key(cells)
        self.order = np.argsort(keys, kind="stable")
        self.keys, self.start, self.count = np.unique(
            keys[self.order], return_index=True, return_counts=True
        )

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


def _start_cell(points: np.ndarray, per_cell: int) -> float:
    """Cell side holding ``per_cell`` points on average over the bounding
    box; axes thinner than the cell do not count as volume."""
    extent = np.sort(points.max(axis=0) - points.min(axis=0))[::-1]
    cells = len(points) / per_cell
    for dims in (3, 2, 1):
        side = (np.prod(extent[:dims]) / cells) ** (1.0 / dims)
        if 0 < side <= extent[dims - 1]:
            break
    return float(side) if side > 0 else 1.0


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

    The search runs passes over a radius r that doubles from pass to
    pass, starting at the side of a cell that holds k sources on average.
    A pass files the sources in cells a hair wider than r, as
    ``ball_pairs`` does, so every source within r of a query lies in the
    query's 3x3x3 block, and keeps the block pairs with a squared distance
    of at most r ** 2.  A query with k or more kept pairs is final: every
    source it did not keep is strictly farther than r, so the first k
    kept pairs in (distance, source index) order are its answer, ties
    included.  The other queries go on to the next pass.
    """
    m = len(queries)
    nn = np.empty((m, k), dtype=np.int64)
    d2 = np.empty((m, k))
    todo = np.arange(m)
    radius = _start_cell(sources, k)
    while len(todo):
        index = CellIndex(sources, radius * (1.0 + _SLACK))
        open_queries = queries[todo]
        rows, slots = index.block_slots(index.cell_of(open_queries))
        per_query = np.bincount(rows, weights=index.count[slots], minlength=len(todo))
        done = np.zeros(len(todo), dtype=bool)
        # Batch whole queries so that each batch holds about _CHUNK_PAIRS pairs.
        bounds = np.searchsorted(
            np.cumsum(per_query),
            np.arange(_CHUNK_PAIRS, per_query.sum(), _CHUNK_PAIRS),
            side="right",
        )
        for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, len(todo)]):
            a, b = np.searchsorted(rows, [lo, hi])
            if a == b:
                continue
            q_idx, s_idx = index.expand(rows[a:b], slots[a:b])
            d = ((open_queries[q_idx] - sources[s_idx]) ** 2).sum(-1)
            keep = d <= radius * radius
            q_idx, s_idx, d = q_idx[keep], s_idx[keep], d[keep]
            counts = np.bincount(q_idx - lo, minlength=hi - lo)
            final = np.flatnonzero(counts >= k)
            # Kept pairs come grouped by query; sort each group by
            # distance, then source index, and take its first k.
            order = np.lexsort((s_idx, d, q_idx))
            head = order[(np.cumsum(counts) - counts)[final, None] + np.arange(k)]
            done[lo + final] = True
            nn[todo[lo + final]] = s_idx[head]
            d2[todo[lo + final]] = d[head]
        todo = todo[~done]
        radius *= 2.0
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
