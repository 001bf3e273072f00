"""Cell-hash neighbour search: exactness against the dense kernels, memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdet import neighbors
from graphdet.gnn import build_graph
from graphdet.interp import FeatureSet, propagate_features
from graphdet.neighbors import nearest_k, radius_pairs
from graphdet.scene import Box3D, BoxArray

from oracles import brute_radius_graph, dense_propagate

# Pair budgets for a k-nearest pass: 1 puts each query in a batch of its
# own, 64 batches a few queries at a time, and the default answers these
# small problems in one batch per pass.
CHUNKS = st.sampled_from([1, 64, neighbors._CHUNK_PAIRS])
SEEDS = st.integers(0, 2**32 - 1)


def assert_matches_dense(src_pos, queries, chunk, seed=0):
    rng = np.random.default_rng(seed)
    source = FeatureSet(src_pos, rng.normal(size=(len(src_pos), 4)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "_CHUNK_PAIRS", chunk)
        got = propagate_features(source, queries)
    want = dense_propagate(source, queries)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.positions, want.positions)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 30),
    span=st.integers(1, 4),
    chunk=CHUNKS,
    seed=SEEDS,
)
def test_propagate_matches_dense_on_integer_grid(n, m, span, chunk, seed):
    # Integer and half-integer coordinates: duplicate sources and exact
    # distance ties, some of them on cell faces.
    rng = np.random.default_rng(seed)
    src = rng.integers(-span, span + 1, size=(n, 3)).astype(float)
    queries = rng.integers(-2 * span - 1, 2 * span + 2, size=(m, 3)) / 2.0
    assert_matches_dense(src, queries, chunk, seed)


@settings(max_examples=100, deadline=None)
@given(
    n_clusters=st.integers(1, 4),
    per_cluster=st.integers(1, 40),
    clutter=st.integers(0, 20),
    m=st.integers(1, 40),
    chunk=CHUNKS,
    seed=SEEDS,
)
def test_propagate_matches_dense_on_clustered_clouds(
    n_clusters, per_cluster, clutter, m, chunk, seed
):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-30.0, 30.0, size=(n_clusters, 3))
    members = np.repeat(centres, per_cluster, axis=0)
    members += rng.normal(scale=0.3, size=members.shape)
    src = np.concatenate([members, rng.uniform(-40.0, 40.0, size=(clutter, 3))])
    near = centres[rng.integers(0, n_clusters, size=m)]
    queries = near + rng.normal(scale=2.0, size=(m, 3))
    assert_matches_dense(src, queries, chunk, seed)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 30),
    m=st.integers(1, 20),
    distance=st.sampled_from([5.0, 1e2, 1e4, 1e7]),
    chunk=CHUNKS,
    seed=SEEDS,
)
def test_propagate_matches_dense_for_far_queries(n, m, distance, chunk, seed):
    rng = np.random.default_rng(seed)
    src = rng.uniform(0.0, 3.0, size=(n, 3))
    direction = rng.normal(size=(m, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    queries = 1.5 + distance * direction
    assert_matches_dense(src, queries, chunk, seed)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2]), m=st.integers(1, 30), chunk=CHUNKS, seed=SEEDS)
def test_propagate_matches_dense_with_one_or_two_sources(n, m, chunk, seed):
    rng = np.random.default_rng(seed)
    src = rng.uniform(-2.0, 2.0, size=(n, 3))
    queries = rng.uniform(-5.0, 5.0, size=(m, 3))
    assert_matches_dense(src, queries, chunk, seed)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 30), m=st.integers(1, 20), data=st.data(), chunk=CHUNKS, seed=SEEDS)
def test_nearest_k_is_the_head_of_a_stable_argsort(n, m, data, chunk, seed):
    # Every k, not only 3: the k rounds of minima must give the first k
    # columns of each query's stably sorted row of squared distances.
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(seed)
    src = rng.integers(-2, 3, size=(n, 3)).astype(float)
    queries = rng.integers(-5, 6, size=(m, 3)) / 2.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "_CHUNK_PAIRS", chunk)
        nn, d2 = nearest_k(src, queries, k)
    table = ((queries[:, None, :] - src[None, :, :]) ** 2).sum(axis=2)
    want = np.argsort(table, axis=1, kind="stable")[:, :k]
    assert np.array_equal(nn, want)
    assert np.array_equal(d2, np.take_along_axis(table, want, axis=1))


def test_nearest_k_breaks_ties_by_lower_index():
    src = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=float)
    queries = np.zeros((5, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "_CHUNK_PAIRS", 1)
        nn, d2 = nearest_k(src, queries, 3)
    assert nn.tolist() == [[4, 0, 1]] * 5
    assert d2.tolist() == [[0.0, 1.0, 1.0]] * 5


def test_nearest_k_keeps_a_tie_that_lies_exactly_on_the_pass_radius():
    # Twelve sources on the x axis from -4 to 4 give a first radius of
    # 8 * 3 / 12 = 2.  The query at the origin has two sources closer than 2
    # and its third nearest tied at exactly 2, where the lower index (5,
    # at +2) sits in a later cell than its partner (9, at -2).  The tie
    # is inside the ball, so the first pass settles the query.
    x = [-4, 4, 0.5, -1, 3, 2, -3, 2.5, -2.5, -2, 3.5, -3.5]
    src = np.array([[v, 0.0, 0.0] for v in x])
    queries = np.zeros((1, 3))
    assert neighbors._start_cell(src, 3) == 2.0
    passes = []

    class Counted(neighbors.CellIndex):
        def __init__(self, points, cell_size):
            passes.append(cell_size)
            super().__init__(points, cell_size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "CellIndex", Counted)
        nn, d2 = nearest_k(src, queries, 3)
    assert nn.tolist() == [[2, 3, 5]]
    assert d2.tolist() == [[0.25, 1.0, 4.0]]
    assert len(passes) == 1


def test_propagate_rejects_non_finite_queries():
    source = FeatureSet(np.zeros((2, 3)), np.ones((2, 1)))
    with pytest.raises(ValueError, match="non-finite"):
        propagate_features(source, np.array([[0.0, np.nan, 0.0]]))


def test_propagate_kitti_sized_frame_stays_linear_in_memory():
    # 20k queries over 19k sources: the dense (m, n, 3) table alone would
    # take 8.7 GiB.
    rng = np.random.default_rng(0)
    extent = np.array([70.0, 80.0, 4.0])
    src = rng.uniform(0.0, 1.0, size=(19_000, 3)) * extent
    queries = rng.uniform(0.0, 1.0, size=(20_000, 3)) * extent
    source = FeatureSet(src, rng.normal(size=(len(src), 8)))
    tracemalloc.start()
    try:
        got = propagate_features(source, queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20
    rows = rng.choice(len(queries), size=40, replace=False)
    want = dense_propagate(source, queries[rows])
    assert np.array_equal(got.features[rows], want.features)


# ---------------------------------------------------------------------------
# radius pairs


def test_radius_pairs_of_nothing():
    i, j = radius_pairs(np.empty((0, 3)), 1.0)
    assert i.size == 0 and j.size == 0


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), radius=st.integers(1, 3), seed=SEEDS)
def test_build_graph_matches_oracle_on_integer_grid(n, radius, seed):
    # Integer centres and radii put many pairs exactly on the strict bound.
    rng = np.random.default_rng(seed)
    centres = rng.integers(-4, 5, size=(n, 3)).astype(float)
    boxes = BoxArray.of([Box3D(tuple(c), (1.0, 1.0, 1.0), 0.0) for c in centres])
    graph = build_graph(boxes, np.zeros((n, 2)), radius=float(radius))
    assert list(graph.adjacency) == brute_radius_graph(centres, float(radius))
