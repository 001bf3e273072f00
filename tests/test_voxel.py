"""Sparse voxelization: quantisation, capping, ordering, voxel centres."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdet.scene import KITTI_RANGE, PointCloud
from graphdet.voxel import VoxelizationConfig, voxelize

from oracles import brute_voxelize, loop_voxelize


BOUNDS_10 = ((0.0, 10.0), (0.0, 10.0), (0.0, 10.0))


def make_cloud(rng, n, bounds=BOUNDS_10):
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    xyz = rng.uniform(lo, hi, size=(n, 3))
    # keep strictly inside the half-open range
    xyz = np.minimum(xyz, hi - 1e-9)
    refl = rng.uniform(0, 1, size=(n, 1))
    return PointCloud(np.hstack([xyz, refl]))


def test_config_validation():
    with pytest.raises(ValueError):
        VoxelizationConfig(step=(0.0, 0.1, 0.1))
    with pytest.raises(ValueError):
        VoxelizationConfig(max_points_per_voxel=0)
    with pytest.raises(ValueError):
        VoxelizationConfig(range_bounds=((1.0, 0.0), (0.0, 1.0), (0.0, 1.0)))


@pytest.mark.parametrize(
    "cap, valid",
    [(None, True), (1, True), (np.int64(3), True), (-3, False), (2.5, False),
     (3.0, False), (True, False), (False, False), ("5", False)],
)
def test_cap_is_none_or_an_int_of_at_least_one(cap, valid):
    # a float cap would give float counts; a bool is not a count
    if valid:
        assert VoxelizationConfig(max_points_per_voxel=cap).max_points_per_voxel == cap
    else:
        with pytest.raises(ValueError, match="max_points_per_voxel"):
            VoxelizationConfig(max_points_per_voxel=cap)


def test_kitti_resolution():
    config = VoxelizationConfig(step=(0.05, 0.05, 0.1), range_bounds=KITTI_RANGE)
    assert config.resolution == (1408, 1600, 40)


def test_single_point_lands_in_expected_voxel():
    config = VoxelizationConfig(step=(0.05, 0.05, 0.1), range_bounds=BOUNDS_10)
    cloud = PointCloud(np.array([[0.12, 0.00, 0.25, 0.7]]))
    grid = voxelize(cloud, config)
    assert len(grid) == 1
    assert grid.cells.tolist() == [[2, 0, 2]]
    assert grid.counts.tolist() == [1]
    assert np.allclose(grid.features[0], [0.12, 0.0, 0.25, 0.7])


def test_two_points_one_voxel_mean_feature():
    config = VoxelizationConfig(step=(0.05, 0.05, 0.1), range_bounds=BOUNDS_10)
    cloud = PointCloud(np.array([[1, 1, 1, 0.2], [1.01, 1.01, 1.01, 0.4]]))
    grid = voxelize(cloud, config)
    assert len(grid) == 1
    assert grid.counts.tolist() == [2]
    assert np.allclose(grid.features[0], [1.005, 1.005, 1.005, 0.3])


def test_out_of_range_point_is_an_error():
    config = VoxelizationConfig(range_bounds=BOUNDS_10)
    with pytest.raises(ValueError, match="outside the configured range"):
        voxelize(PointCloud(np.array([[11.0, 0, 0, 0.5]])), config)


def test_empty_cloud_empty_grid():
    config = VoxelizationConfig(range_bounds=BOUNDS_10)
    grid = voxelize(PointCloud(np.empty((0, 4))), config)
    assert len(grid) == 0
    assert grid.cells.shape == (0, 3) and grid.cells.dtype == np.int64
    assert grid.counts.shape == (0,)
    assert grid.features.shape == (0, 4)
    assert grid.centres.shape == (0, 3)


def test_point_conservation_uncapped():
    rng = np.random.default_rng(1)
    config = VoxelizationConfig(
        step=(0.5, 0.5, 0.5), max_points_per_voxel=None, range_bounds=BOUNDS_10
    )
    cloud = make_cloud(rng, 500)
    grid = voxelize(cloud, config)
    assert grid.counts.sum() == 500


_STEPS = st.sampled_from([0.3, 0.5, 1.0, 2.5, 10.0])


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 300),
    step=st.tuples(_STEPS, _STEPS, _STEPS),
    cap=st.one_of(st.none(), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_point_conservation_matches_the_cap(n, step, cap, seed):
    """The grid equals the per-voxel loop's bit for bit, and each voxel
    retains min(cap, points in the voxel) by the dict-of-lists oracle."""
    config = VoxelizationConfig(step=step, max_points_per_voxel=cap, range_bounds=BOUNDS_10)
    cloud = make_cloud(np.random.default_rng(seed), n)
    grid = voxelize(cloud, config)
    cells, counts, features, centres = loop_voxelize(cloud.points, config)
    assert np.array_equal(grid.cells, cells) and grid.cells.dtype == np.int64
    assert np.array_equal(grid.counts, counts)
    assert np.array_equal(grid.features, features)
    assert np.array_equal(grid.centres, centres)
    for array in (grid.cells, grid.counts, grid.features):
        assert not array.flags.writeable

    every = brute_voxelize(cloud.points, config.origin, config.step, config.resolution, None)
    want = {ijk: c if cap is None else min(cap, c) for ijk, (_, c) in every.items()}
    got = {tuple(ijk): c for ijk, c in zip(grid.cells.tolist(), grid.counts.tolist())}
    assert got == want
    assert sum(got.values()) == (n if cap is None else sum(want.values()))


def test_drop_first_keeps_earliest_points():
    config = VoxelizationConfig(
        step=(10.0, 10.0, 10.0), max_points_per_voxel=2, range_bounds=BOUNDS_10
    )
    pts = np.array(
        [[1, 1, 1, 0.1], [2, 2, 2, 0.2], [3, 3, 3, 0.3], [4, 4, 4, 0.4]], dtype=float
    )
    grid = voxelize(PointCloud(pts), config)
    assert grid.counts.tolist() == [2]
    assert np.allclose(grid.features[0], pts[:2].mean(axis=0))


def test_quantisation_bound_and_oracle_agreement():
    rng = np.random.default_rng(3)
    config = VoxelizationConfig(
        step=(0.4, 0.3, 0.5), max_points_per_voxel=4, range_bounds=BOUNDS_10
    )
    step = np.array(config.step)
    for trial in range(20):
        cloud = make_cloud(rng, 200)
        grid = voxelize(cloud, config)
        ref = brute_voxelize(
            cloud.points, config.origin, config.step, config.resolution, 4
        )
        assert len(grid) == len(ref)
        for ijk, count, feature, centre in zip(
            grid.cells.tolist(), grid.counts, grid.features, grid.centres
        ):
            feat_ref, count_ref = ref[tuple(ijk)]
            assert count == count_ref
            assert np.allclose(feature, feat_ref, atol=1e-12)
            assert np.all(np.abs(feature[:3] - centre) <= 0.5 * step + 1e-12)


def test_restore_centroids_positions_and_order():
    config = VoxelizationConfig(step=(0.05, 0.05, 0.1), range_bounds=KITTI_RANGE)
    grid = voxelize(
        PointCloud(np.array([[3.0, 0.0, 0.0, 0.2], [0.01, -39.99, -2.99, 0.5]])),
        config,
    )
    assert np.allclose(grid.centres[0], [0.025, -39.975, -2.95])
    # lexicographic ordering of the voxel indices, whatever the input order
    assert grid.cells.tolist() == sorted(grid.cells.tolist())


def test_round_trip_quantisation_bound():
    rng = np.random.default_rng(4)
    config = VoxelizationConfig(
        step=(0.2, 0.2, 0.2), max_points_per_voxel=None, range_bounds=BOUNDS_10
    )
    cloud = make_cloud(rng, 100)
    grid = voxelize(cloud, config)
    for centre, feature in zip(grid.centres, grid.features):
        assert np.all(np.abs(feature[:3] - centre) <= 0.5 * np.array(config.step))
