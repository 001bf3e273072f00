"""Sparse voxelization: quantisation, capping, packing, centroid restore."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdet.scene import KITTI_RANGE, PointCloud
from graphdet.voxel import (
    SparseVoxelGrid,
    VoxelizationConfig,
    pack_index,
    restore_centroids,
    unpack_index,
    voxelize,
)

from oracles import brute_voxelize


BOUNDS_10 = ((0.0, 10.0), (0.0, 10.0), (0.0, 10.0))


def make_cloud(rng, n, bounds=BOUNDS_10):
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    xyz = rng.uniform(lo, hi, size=(n, 3))
    # keep strictly inside the half-open range
    xyz = np.minimum(xyz, hi - 1e-9)
    refl = rng.uniform(0, 1, size=(n, 1))
    return PointCloud(np.hstack([xyz, refl]))


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        ijk = tuple(int(v) for v in rng.integers(0, 2**21, size=3))
        assert unpack_index(pack_index(*ijk)) == ijk
    # packing preserves lexicographic order
    keys = [pack_index(*ijk) for ijk in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]]
    assert keys == sorted(keys)


def test_config_validation():
    with pytest.raises(ValueError):
        VoxelizationConfig(step=(0.0, 0.1, 0.1))
    with pytest.raises(ValueError):
        VoxelizationConfig(max_points_per_voxel=0)
    with pytest.raises(ValueError):
        VoxelizationConfig(range_bounds=((1.0, 0.0), (0.0, 1.0), (0.0, 1.0)))


def test_kitti_resolution():
    config = VoxelizationConfig(step=(0.05, 0.05, 0.1), range_bounds=KITTI_RANGE)
    assert config.resolution == (1408, 1600, 40)


def test_single_point_lands_in_expected_voxel():
    config = VoxelizationConfig(step=(0.05, 0.05, 0.1), range_bounds=BOUNDS_10)
    cloud = PointCloud(np.array([[0.12, 0.00, 0.25, 0.7]]))
    grid = voxelize(cloud, config)
    assert len(grid) == 1
    ((ijk, entry),) = list(grid.items_lexicographic())
    assert ijk == (2, 0, 2)
    assert entry.count == 1
    assert np.allclose(entry.feature, [0.12, 0.0, 0.25, 0.7])


def test_two_points_one_voxel_mean_feature():
    config = VoxelizationConfig(step=(0.05, 0.05, 0.1), range_bounds=BOUNDS_10)
    cloud = PointCloud(np.array([[1, 1, 1, 0.2], [1.01, 1.01, 1.01, 0.4]]))
    grid = voxelize(cloud, config)
    assert len(grid) == 1
    ((_, entry),) = list(grid.items_lexicographic())
    assert entry.count == 2
    assert np.allclose(entry.feature, [1.005, 1.005, 1.005, 0.3])


def test_out_of_range_point_is_an_error():
    config = VoxelizationConfig(range_bounds=BOUNDS_10)
    with pytest.raises(ValueError, match="outside the configured range"):
        voxelize(PointCloud(np.array([[11.0, 0, 0, 0.5]])), config)


def test_empty_cloud_empty_grid():
    config = VoxelizationConfig(range_bounds=BOUNDS_10)
    grid = voxelize(PointCloud(np.empty((0, 4))), config)
    assert len(grid) == 0
    assert restore_centroids(grid) == []


def test_point_conservation_uncapped():
    rng = np.random.default_rng(1)
    config = VoxelizationConfig(
        step=(0.5, 0.5, 0.5), max_points_per_voxel=None, range_bounds=BOUNDS_10
    )
    cloud = make_cloud(rng, 500)
    grid = voxelize(cloud, config)
    assert sum(e.count for _, e in grid.items_lexicographic()) == 500


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 300),
    step=st.sampled_from([0.5, 1.0, 2.5, 10.0]),
    cap=st.one_of(st.none(), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_point_conservation_matches_the_cap(n, step, cap, seed):
    # retained points = sum over voxels of min(cap, points in the voxel)
    config = VoxelizationConfig(
        step=(step, step, step), max_points_per_voxel=cap, range_bounds=BOUNDS_10
    )
    cloud = make_cloud(np.random.default_rng(seed), n)
    grid = voxelize(cloud, config)
    every = brute_voxelize(cloud.points, config.origin, config.step, config.resolution, None)
    want = {ijk: c if cap is None else min(cap, c) for ijk, (_, c) in every.items()}
    got = {ijk: e.count for ijk, e in grid.items_lexicographic()}
    assert got == want
    assert sum(got.values()) == (n if cap is None else sum(want.values()))


def test_drop_first_keeps_earliest_points():
    config = VoxelizationConfig(
        step=(10.0, 10.0, 10.0), max_points_per_voxel=2, range_bounds=BOUNDS_10
    )
    pts = np.array(
        [[1, 1, 1, 0.1], [2, 2, 2, 0.2], [3, 3, 3, 0.3], [4, 4, 4, 0.4]], dtype=float
    )
    grid = voxelize(PointCloud(pts), config, drop="first")
    ((_, entry),) = list(grid.items_lexicographic())
    assert entry.count == 2
    assert np.allclose(entry.feature, pts[:2].mean(axis=0))


def test_drop_random_is_seeded_and_subsamples():
    config = VoxelizationConfig(
        step=(10.0, 10.0, 10.0), max_points_per_voxel=3, range_bounds=BOUNDS_10
    )
    rng = np.random.default_rng(2)
    cloud = make_cloud(rng, 20)
    a = voxelize(cloud, config, drop="random", seed=9)
    b = voxelize(cloud, config, drop="random", seed=9)
    ((_, ea),) = list(a.items_lexicographic())
    ((_, eb),) = list(b.items_lexicographic())
    assert ea.count == 3
    assert np.array_equal(ea.feature, eb.feature)
    with pytest.raises(ValueError):
        voxelize(cloud, config, drop="weird")


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
        for ijk, entry in grid.items_lexicographic():
            feat_ref, count_ref = ref[ijk]
            assert entry.count == count_ref
            assert np.allclose(entry.feature, feat_ref, atol=1e-12)
            centre = np.array(config.origin) + (np.array(ijk) + 0.5) * step
            assert np.all(np.abs(entry.feature[:3] - centre) <= 0.5 * step + 1e-12)


def test_restore_centroids_positions_and_order():
    config = VoxelizationConfig(step=(0.05, 0.05, 0.1), range_bounds=KITTI_RANGE)
    entry_grid = voxelize(
        PointCloud(np.array([[0.01, -39.99, -2.99, 0.5], [3.0, 0.0, 0.0, 0.2]])),
        config,
    )
    restored = restore_centroids(entry_grid)
    assert np.allclose(restored[0][0], [0.025, -39.975, -2.95])
    # lexicographic ordering of the voxel indices
    keys = [k for k, _ in entry_grid.items_lexicographic()]
    assert keys == sorted(keys)


def test_round_trip_quantisation_bound():
    rng = np.random.default_rng(4)
    config = VoxelizationConfig(
        step=(0.2, 0.2, 0.2), max_points_per_voxel=None, range_bounds=BOUNDS_10
    )
    cloud = make_cloud(rng, 100)
    grid = voxelize(cloud, config)
    for centre, feature in restore_centroids(grid):
        assert np.all(np.abs(feature[:3] - centre) <= 0.5 * np.array(config.step))
