"""Point-set operators: FPS, inverse-distance propagation, set abstraction,
BEV sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdet.interp import (
    BevFeatureMap,
    FeatureSet,
    farthest_point_sample,
    propagate_features,
    sample_bev_grid,
    sample_bev_point,
    set_abstraction,
)
from graphdet.nnet import DenseLayer, DenseStack
from graphdet.scene import Box3D, BoxArray

from oracles import brute_fps, brute_propagate, loop_sample_bev_grid, scan_set_abstraction


# ---------------------------------------------------------------------------
# farthest point sampling


def test_fps_k_equals_n_returns_all_indices():
    pts = np.random.default_rng(0).uniform(size=(10, 3))
    assert sorted(farthest_point_sample(pts, 10)) == list(range(10))


def test_fps_collinear_picks_farthest():
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [10, 0, 0]], dtype=float)
    assert farthest_point_sample(pts, 2, start_index=0) == [0, 3]


def test_fps_k_one_is_start_index():
    pts = np.random.default_rng(1).uniform(size=(6, 3))
    assert farthest_point_sample(pts, 1, start_index=4) == [4]
    assert farthest_point_sample(pts, 0) == []


def test_fps_validation():
    pts = np.zeros((3, 3))
    with pytest.raises(ValueError):
        farthest_point_sample(pts, 4)
    with pytest.raises(ValueError):
        farthest_point_sample(pts, 2, start_index=3)


def test_fps_matches_exhaustive_oracle():
    rng = np.random.default_rng(2)
    for trial in range(20):
        pts = rng.uniform(-5, 5, size=(64, 3))
        k = int(rng.integers(1, 65))
        start = int(rng.integers(0, 64))
        assert farthest_point_sample(pts, k, start) == brute_fps(pts, k, start)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 24),
    copies=st.integers(1, 3),
    span=st.integers(0, 3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fps_matches_the_oracle_on_clouds_with_duplicates(n, copies, span, data, seed):
    # Lattice points repeated ``copies`` times: equal distances tie exactly.
    rng = np.random.default_rng(seed)
    base = rng.integers(-span, span + 1, size=(n, 3)).astype(float)
    pts = np.concatenate([base] * copies)[rng.permutation(n * copies)]
    k = data.draw(st.integers(1, len(pts)))
    start = data.draw(st.integers(0, len(pts) - 1))
    assert farthest_point_sample(pts, k, start) == brute_fps(pts, k, start)


def test_fps_tie_break_lowest_index():
    # four corners of a square: after corner 0, corners 1 and 3 tie behind 2
    pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    assert farthest_point_sample(pts, 3, start_index=0) == [0, 2, 1]


# ---------------------------------------------------------------------------
# feature propagation


def test_propagate_exact_hit_dominates():
    src = FeatureSet(
        np.array([[0, 0, 0], [5, 0, 0], [0, 5, 0]], dtype=float),
        np.array([[1.0], [2.0], [3.0]]),
    )
    out = propagate_features(src, np.array([[0.0, 0.0, 0.0]]))
    assert out.features[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_propagate_equidistant_pair_averages():
    src = FeatureSet(
        np.array([[-1, 0, 0], [1, 0, 0], [100, 0, 0]], dtype=float),
        np.array([[0.0], [1.0], [9.0]]),
    )
    out = propagate_features(src, np.array([[0.0, 0.0, 0.0]]))
    assert out.features[0, 0] == pytest.approx(0.5, abs=1e-3)


def test_propagate_single_source_copies_feature():
    src = FeatureSet(np.array([[2.0, 1.0, 0.0]]), np.array([[7.0, -3.0]]))
    out = propagate_features(src, np.array([[9.0, 9.0, 9.0], [0.0, 0.0, 0.0]]))
    assert np.allclose(out.features, [[7.0, -3.0], [7.0, -3.0]])


def test_propagate_empty_source_is_error():
    empty = FeatureSet(np.empty((0, 3)), np.empty((0, 2)))
    with pytest.raises(ValueError, match="empty"):
        propagate_features(empty, np.zeros((1, 3)))


def test_propagate_empty_queries():
    src = FeatureSet(np.zeros((2, 3)), np.ones((2, 4)))
    out = propagate_features(src, np.empty((0, 3)))
    assert len(out) == 0 and out.dim == 4


def test_propagate_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n_src = int(rng.integers(1, 30))
        src_pos = rng.uniform(-3, 3, size=(n_src, 3))
        src_feat = rng.normal(size=(n_src, 5))
        queries = rng.uniform(-3, 3, size=(12, 3))
        got = propagate_features(FeatureSet(src_pos, src_feat), queries)
        assert np.allclose(got.features, brute_propagate(src_pos, src_feat, queries), atol=1e-12)


# ---------------------------------------------------------------------------
# set abstraction


def identity_mlp(dim: int) -> DenseStack:
    return DenseStack([DenseLayer(np.eye(dim), np.zeros(dim), "none")])


def test_set_abstraction_bias_only():
    src = FeatureSet(np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 2.0]]))
    bias = np.array([0.5, -1.0, 2.5])
    mlp = DenseStack([DenseLayer(np.zeros((3, 5)), bias, "none")])
    out = set_abstraction(src, np.array([[0.0, 0.0, 0.0]]), radius=1.0, mlp=mlp)
    assert np.allclose(out.features[0], bias)


def test_set_abstraction_empty_neighbourhood_is_zero():
    src = FeatureSet(np.array([[10.0, 0.0, 0.0]]), np.array([[1.0]]))
    mlp = DenseStack.seeded((4, 3), seed=0)
    out = set_abstraction(src, np.array([[0.0, 0.0, 0.0]]), radius=1.0, mlp=mlp)
    assert np.array_equal(out.features[0], np.zeros(3))


def test_set_abstraction_permutation_invariant():
    rng = np.random.default_rng(4)
    pos = rng.uniform(-1, 1, size=(20, 3))
    feat = rng.normal(size=(20, 4))
    mlp = DenseStack.seeded((7, 6), seed=1)
    centres = rng.uniform(-1, 1, size=(5, 3))
    base = set_abstraction(FeatureSet(pos, feat), centres, 1.5, mlp)
    perm = rng.permutation(20)
    shuffled = set_abstraction(FeatureSet(pos[perm], feat[perm]), centres, 1.5, mlp)
    assert np.allclose(base.features, shuffled.features, atol=0)


def test_set_abstraction_radius_is_inclusive_and_local():
    src = FeatureSet(
        np.array([[1.0, 0.0, 0.0], [2.0 + 1e-9, 0.0, 0.0]]),
        np.array([[5.0], [100.0]]),
    )
    mlp = identity_mlp(4)
    out = set_abstraction(src, np.array([[0.0, 0.0, 0.0]]), radius=2.0, mlp=mlp)
    # second point sits just beyond the radius: only the first contributes
    assert out.features[0, 0] == pytest.approx(5.0)
    # from (1 + 1e-9, 0, 0) the second point sits at distance exactly 1.0:
    # the inclusive boundary admits it and the max-pool picks its feature
    at = set_abstraction(src, np.array([[1.0 + 1e-9, 0.0, 0.0]]), radius=1.0, mlp=mlp)
    assert at.features[0, 0] == pytest.approx(100.0)


def test_set_abstraction_two_point_hand_unrolled():
    src = FeatureSet(
        np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]),
        np.array([[1.0, -1.0], [2.0, 0.5]]),
    )
    rng = np.random.default_rng(5)
    weight = rng.normal(size=(3, 5))
    bias = rng.normal(size=3)
    mlp = DenseStack([DenseLayer(weight, bias, "relu")])
    centre = np.array([[0.1, 0.1, 0.0]])
    out = set_abstraction(src, centre, radius=2.0, mlp=mlp)
    rows = np.array(
        [
            [1.0, -1.0, 0.4, -0.1, 0.0],
            [2.0, 0.5, -0.1, 0.4, 0.0],
        ]
    )
    manual = np.maximum(rows @ weight.T + bias, 0.0).max(axis=0)
    assert np.allclose(out.features[0], manual, atol=1e-12)


@settings(max_examples=250, deadline=None)
@given(
    n=st.integers(0, 40),
    m=st.integers(1, 20),
    span=st.integers(1, 4),
    radius=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    far=st.integers(0, 20),
    # (source feature width, hidden width, output width): the pipeline's
    # narrow layers, layers of 32 inputs and more, and one-output layers,
    # where a stacked BLAS product of several groups rounds differently.
    widths=st.sampled_from([(2, 8, 4), (30, 8, 4), (2, 40, 4), (2, 8, 1), (61, 64, 1)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_set_abstraction_matches_the_scan_on_lattices(n, m, span, radius, far, widths, seed):
    # Integer sources (many duplicates) and half-integer centres put
    # sources exactly on the radius; the first ``far`` centres sit far
    # outside the sources' box.
    rng = np.random.default_rng(seed)
    features, hidden, outputs = widths
    pos = rng.integers(-span, span + 1, size=(n, 3)).astype(float)
    source = FeatureSet(pos, rng.normal(size=(n, features)))
    centres = rng.integers(-2 * span - 1, 2 * span + 2, size=(m, 3)) / 2.0
    centres[:far] += rng.choice([-1.0, 1.0], size=centres[:far].shape) * 1e3
    mlp = DenseStack.seeded((features + 3, hidden, outputs), seed)
    out = set_abstraction(source, centres, radius, mlp)
    assert np.array_equal(out.positions, centres)
    assert np.array_equal(out.features, scan_set_abstraction(source, centres, radius, mlp))


def test_set_abstraction_checks_widths():
    src = FeatureSet(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="expects"):
        set_abstraction(src, np.zeros((1, 3)), 1.0, DenseStack.seeded((5, 2), 0))
    with pytest.raises(ValueError, match="radius"):
        set_abstraction(src, np.zeros((1, 3)), -1.0, DenseStack.seeded((7, 2), 0))


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0])
def test_set_abstraction_rejects_radii_that_are_not_positive_reals(radius):
    src = FeatureSet(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="radius must be a positive real"):
        set_abstraction(src, np.zeros((1, 3)), radius, DenseStack.seeded((7, 2), 0))


# ---------------------------------------------------------------------------
# BEV sampling


def flat_map(value: float, rows=4, cols=4, channels=2) -> BevFeatureMap:
    return BevFeatureMap(np.full((rows, cols, channels), value), 1.0, (0.0, 0.0))


def test_sample_constant_map():
    bev = flat_map(3.5)
    assert np.allclose(sample_bev_point(bev, 2.0, 2.0), 3.5)
    assert np.allclose(sample_bev_point(bev, 1.3, 2.7), 3.5)


def test_sample_cell_centre_reads_that_cell():
    grid = np.arange(16, dtype=float).reshape(4, 4, 1)
    bev = BevFeatureMap(grid, 1.0, (0.0, 0.0))
    # cell (r=2, c=1) centre is (1.5, 2.5)
    assert sample_bev_point(bev, 1.5, 2.5)[0] == grid[2, 1, 0]


def test_sample_bilinear_midpoint():
    grid = np.zeros((1, 2, 1))
    grid[0, 1, 0] = 1.0
    bev = BevFeatureMap(grid, 1.0, (0.0, 0.0))
    assert sample_bev_point(bev, 1.0, 0.5)[0] == pytest.approx(0.5)


def test_sample_outside_map_is_zero_padded():
    bev = flat_map(2.0)
    assert np.allclose(sample_bev_point(bev, -10.0, 0.0), 0.0)
    # halfway off the edge blends with zero padding
    assert np.allclose(sample_bev_point(bev, 0.0, 2.0), 1.0)


def test_sample_bev_grid_constant_map_and_channel_layout():
    bev = flat_map(4.0, channels=6)
    box = Box3D((2.0, 2.0, 0.0), (2.0, 1.0, 1.0), 0.3)
    out = sample_bev_grid(bev, BoxArray.of([box, box]), 3, 2)
    assert out.shape == (2, 6)
    assert np.allclose(out, 4.0)
    assert sample_bev_grid(bev, BoxArray.of([]), 3, 2).shape == (0, 6)


def test_sample_bev_grid_needs_enough_channels():
    bev = flat_map(0.0, channels=3)
    box = Box3D((2.0, 2.0, 0.0), (2.0, 1.0, 1.0), 0.0)
    with pytest.raises(ValueError, match="channels"):
        sample_bev_grid(bev, BoxArray.of([box]), 2, 2)


def test_sample_bev_grid_probe_positions():
    """Probe (i, j) reads channel i*m2+j at the sub-cell centre of the footprint."""
    rng = np.random.default_rng(6)
    grid = rng.normal(size=(8, 8, 4))
    bev = BevFeatureMap(grid, 0.5, (0.0, 0.0))
    box = Box3D((2.0, 2.0, 0.0), (1.6, 1.0, 1.0), yaw=0.7)
    (out,) = sample_bev_grid(bev, BoxArray.of([box]), 2, 2)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    for i in range(2):
        for j in range(2):
            lx = ((i + 0.5) / 2 - 0.5) * box.dims[0]
            ly = ((j + 0.5) / 2 - 0.5) * box.dims[1]
            x = box.center[0] + c * lx - s * ly
            y = box.center[1] + s * lx + c * ly
            g = i * 2 + j
            assert out[g] == pytest.approx(sample_bev_point(bev, x, y)[g], abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    m1=st.integers(1, 3),
    m2=st.integers(1, 3),
    cell=st.sampled_from([0.25, 0.4, 1.0]),
    on_lattice=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_bev_grid_matches_the_per_probe_loop(n, m1, m2, cell, on_lattice, seed):
    # Boxes reach past every edge of the raster, so many probes read the
    # zero padding; on the lattice, probes sit on cell centres and edges,
    # where bilinear weights are exactly zero or one.
    rng = np.random.default_rng(seed)
    rows, cols = (int(v) for v in rng.integers(1, 9, size=2))
    grid = rng.normal(size=(rows, cols, m1 * m2 + int(rng.integers(0, 3))))
    bev = BevFeatureMap(grid, cell, (0.0, 0.0) if on_lattice else tuple(rng.uniform(-2, 2, 2)))
    span = cell * max(rows, cols)
    if on_lattice:
        centres = rng.integers(-4, 2 * max(rows, cols) + 5, size=(n, 2)) * (0.5 * cell)
        dims = rng.integers(1, 5, size=(n, 2)) * cell
        yaws = rng.choice([0.0, math.pi / 2, math.pi, -math.pi / 2], size=n)
    else:
        centres = rng.uniform(-span, 2 * span, size=(n, 2))
        dims = rng.uniform(0.2, span + 0.2, size=(n, 2))
        yaws = rng.uniform(-math.pi, math.pi, size=n)
    boxes = BoxArray.of(
        [Box3D((*c, 0.0), (*d, 1.0), float(yaw)) for c, d, yaw in zip(centres, dims, yaws)]
    )
    got = sample_bev_grid(bev, boxes, m1, m2)
    want = np.stack([loop_sample_bev_grid(bev, box, m1, m2) for box in boxes])
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included


# ---------------------------------------------------------------------------
# containers


def test_feature_set_validation():
    with pytest.raises(ValueError):
        FeatureSet(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        FeatureSet(np.zeros((2, 3)), np.zeros((3, 3)))
    fs = FeatureSet(np.zeros((2, 3)), np.ones((2, 5)))
    assert len(fs) == 2 and fs.dim == 5
    with pytest.raises(ValueError):
        fs.features[0, 0] = 2.0


def test_bev_map_validation():
    with pytest.raises(ValueError):
        BevFeatureMap(np.zeros((2, 2)), 1.0, (0, 0))
    with pytest.raises(ValueError):
        BevFeatureMap(np.zeros((2, 2, 1)), -1.0, (0, 0))
    bev = BevFeatureMap(np.zeros((2, 3, 4)), 0.5, (1.0, -1.0))
    assert bev.channels == 4
