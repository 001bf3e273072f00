"""Proposal node states: voxel, pixel, and point components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdet import neighbors

from graphdet.interp import BevFeatureMap, FeatureSet, propagate_features, sample_bev_grid
from graphdet.rfa import (
    RfaConfig,
    auxiliary_targets,
    default_point_stacks,
    point_pyramid,
    roi_states,
    synthetic_bev_map,
    synthetic_voxel_features,
    voxel_feature_set,
)
from graphdet.scene import Box3D, BoxArray, PointCloud
from graphdet.voxel import VoxelizationConfig, voxelize

from oracles import brute_fps, brute_propagate, full_cloud_voxel_states, point_in_box


def small_cloud(n, seed=0, spread=4.0):
    rng = np.random.default_rng(seed)
    pts = np.column_stack(
        [rng.uniform(-spread, spread, size=(n, 3)), rng.uniform(0, 1, size=(n, 1))]
    )
    return PointCloud(pts)


def small_grid(cloud):
    config = VoxelizationConfig(
        step=(0.5, 0.5, 0.5),
        max_points_per_voxel=None,
        range_bounds=((-5.0, 5.0), (-5.0, 5.0), (-5.0, 5.0)),
    )
    return voxelize(cloud, config)


SMALL_RFA = RfaConfig(
    keypoint_counts=(16, 8),
    radii=((0.5, 1.0), (1.0, 2.0)),
    point_dim=8,
)


# ---------------------------------------------------------------------------
# configuration


def test_config_dims():
    config = RfaConfig()
    assert config.pixel_dim == 4
    assert config.feature_dim == 8 + 4 + 8
    assert config.levels == 3
    assert SMALL_RFA.levels == 2


def test_config_validation():
    with pytest.raises(ValueError, match="probe grid"):
        RfaConfig(m1=0)
    with pytest.raises(ValueError, match="widths"):
        RfaConfig(voxel_dim=0)
    with pytest.raises(ValueError, match="per pyramid level"):
        RfaConfig(keypoint_counts=(8,), radii=((0.5, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError, match="keypoint counts"):
        RfaConfig(keypoint_counts=(0, 4, 4))
    with pytest.raises(ValueError, match="radii"):
        RfaConfig(radii=((0.0, 1.0), (0.5, 1.0), (1.0, 2.0)))


# ---------------------------------------------------------------------------
# synthetic feature fields


def test_synthetic_field_is_deterministic_and_bounded():
    pos = np.random.default_rng(1).uniform(-50, 50, size=(40, 3))
    a = synthetic_voxel_features(pos, 6, seed=3)
    b = synthetic_voxel_features(pos, 6, seed=3)
    c = synthetic_voxel_features(pos, 6, seed=4)
    assert a.shape == (40, 6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.abs(a) <= 1.0)


def test_synthetic_bev_map_matches_field_at_cell_centres():
    bev = synthetic_bev_map(rows=5, cols=7, channels=3, cell_size=0.4, origin=(1.0, -2.0), seed=5)
    assert bev.grid.shape == (5, 7, 3)
    r, c = 3, 2
    x = 1.0 + (c + 0.5) * 0.4
    y = -2.0 + (r + 0.5) * 0.4
    want = synthetic_voxel_features(np.array([[x, y, 0.0]]), 3, seed=5)[0]
    assert np.allclose(bev.grid[r, c], want, atol=1e-12)


def test_voxel_feature_set_sits_on_centroids():
    cloud = small_cloud(60, seed=2)
    grid = small_grid(cloud)
    fs = voxel_feature_set(grid, dim=4, seed=6)
    assert len(fs) == len(grid)
    assert np.array_equal(fs.positions, grid.centres)
    want = synthetic_voxel_features(fs.positions, 4, seed=6)
    assert np.array_equal(fs.features, want)
    # centroids lie on the half-step lattice of the voxel grid
    shifted = (fs.positions - np.array([-5.0, -5.0, -5.0])) / 0.5 - 0.5
    assert np.allclose(shifted, np.round(shifted), atol=1e-9)


# ---------------------------------------------------------------------------
# point component


def test_point_pyramid_single_point_cloud():
    config = RfaConfig(keypoint_counts=(4,), radii=((0.5, 1.0),), point_dim=8)
    stacks = default_point_stacks(config, seed=9)
    cloud = PointCloud(np.array([[1.0, 2.0, 0.5, 0.7]]))
    pyramid = point_pyramid(cloud, config, stacks)
    assert len(pyramid) == 1
    assert np.array_equal(pyramid.positions[0], [1.0, 2.0, 0.5])
    row = np.array([[0.7, 0.0, 0.0, 0.0]])  # reflectance plus zero offset
    want = np.concatenate([stacks[0][0].apply(row), stacks[0][1].apply(row)], axis=1)
    assert np.allclose(pyramid.features, want, atol=1e-12)


def test_point_pyramid_matches_staged_oracle():
    cloud = small_cloud(32, seed=10, spread=2.0)
    stacks = default_point_stacks(SMALL_RFA, seed=11)
    pyramid = point_pyramid(cloud, SMALL_RFA, stacks)

    current_pos = cloud.xyz
    current_feat = cloud.reflectance[:, None]
    for level, ((r1, r2), (mlp1, mlp2)) in enumerate(zip(SMALL_RFA.radii, stacks)):
        k = min(SMALL_RFA.keypoint_counts[level], len(current_pos))
        idx = brute_fps(current_pos, k, 0)
        centres = current_pos[idx]
        feats = []
        for radius, mlp in ((r1, mlp1), (r2, mlp2)):
            pooled = np.zeros((k, mlp.out_dim))
            for m, centre in enumerate(centres):
                d = np.linalg.norm(current_pos - centre, axis=1)
                mask = d <= radius
                if mask.any():
                    rows = np.concatenate(
                        [current_feat[mask], current_pos[mask] - centre], axis=1
                    )
                    pooled[m] = mlp.apply(rows).max(axis=0)
            feats.append(pooled)
        current_pos = centres
        current_feat = np.concatenate(feats, axis=1)

    assert np.allclose(pyramid.positions, current_pos, atol=0)
    assert np.allclose(pyramid.features, current_feat, atol=1e-12)


def test_point_pyramid_keypoints_clamp_to_cloud_size():
    config = RfaConfig(keypoint_counts=(100,), radii=((0.5, 1.0),), point_dim=8)
    cloud = small_cloud(12, seed=12)
    pyramid = point_pyramid(cloud, config, default_point_stacks(config, seed=13))
    assert len(pyramid) == 12


def test_point_pyramid_validation():
    cloud = small_cloud(8, seed=14)
    with pytest.raises(ValueError, match="stack pairs"):
        point_pyramid(cloud, SMALL_RFA, default_point_stacks(SMALL_RFA, 0)[:1])
    with pytest.raises(ValueError, match="non-empty"):
        point_pyramid(PointCloud(np.empty((0, 4))), SMALL_RFA, default_point_stacks(SMALL_RFA, 0))
    bad_width = RfaConfig(keypoint_counts=(4,), radii=((0.5, 1.0),), point_dim=6)
    stacks = default_point_stacks(RfaConfig(keypoint_counts=(4,), radii=((0.5, 1.0),), point_dim=8), 0)
    with pytest.raises(ValueError, match="width"):
        point_pyramid(cloud, bad_width, stacks)


def test_default_point_stacks_widths_and_determinism():
    stacks = default_point_stacks(RfaConfig(), seed=17)
    assert len(stacks) == 3
    assert stacks[0][0].in_dim == 4  # reflectance + offset
    assert stacks[1][0].in_dim == 8 + 3  # previous level's concat + offset
    assert stacks[2][1].out_dim == 4
    again = default_point_stacks(RfaConfig(), seed=17)
    assert np.array_equal(stacks[1][0].flat_params(), again[1][0].flat_params())
    with pytest.raises(ValueError, match="even"):
        default_point_stacks(
            RfaConfig(keypoint_counts=(4,), radii=((0.5, 1.0),), point_dim=7), seed=0
        )


# ---------------------------------------------------------------------------
# node states: voxel | pixel | point


BOXES = BoxArray.of(
    [
        Box3D((0.5, 0.5, 0.0), (3.9, 1.6, 1.56), 0.2),
        Box3D((1.0, 1.0, 0.5), (3.0, 1.5, 1.2), -0.4),
        Box3D((-1.5, 0.8, -0.3), (2.0, 1.0, 1.0), 1.3),
    ]
)


def roi_inputs(config, seed, cloud=None, voxel_features=None, bev=None):
    """The per-scene inputs of ``roi_states``, built as the pipeline builds them."""
    if cloud is None:
        cloud = small_cloud(40, seed=seed, spread=3.0)
    if voxel_features is None:
        voxel_features = voxel_feature_set(small_grid(cloud), config.voxel_dim, seed + 1)
    if bev is None:
        bev = synthetic_bev_map(16, 16, config.pixel_dim, 0.5, (-4.0, -4.0), seed=seed + 2)
    pyramid = point_pyramid(cloud, config, default_point_stacks(config, seed=seed + 3))
    return voxel_features, cloud, pyramid, bev


def voxel_part(config, states):
    return states[:, : config.voxel_dim]


def pixel_part(config, states):
    return states[:, config.voxel_dim : config.voxel_dim + config.pixel_dim]


def point_part(config, states):
    return states[:, config.voxel_dim + config.pixel_dim :]


def test_voxel_component_preserves_constant_fields():
    config = RfaConfig(voxel_dim=5, keypoint_counts=(16, 8), radii=((0.5, 1.0), (1.0, 2.0)))
    cloud = small_cloud(50, seed=3)
    constant = FeatureSet(cloud.xyz[:10] * 0.9, np.full((10, 5), 2.5))
    inputs = roi_inputs(config, 3, cloud=cloud, voxel_features=constant)
    states = roi_states(*inputs, BOXES, config)
    assert np.allclose(voxel_part(config, states), 2.5, atol=1e-12)


def test_voxel_component_matches_two_hop_oracle():
    config = RfaConfig(voxel_dim=6, keypoint_counts=(16, 8), radii=((0.5, 1.0), (1.0, 2.0)))
    cloud = small_cloud(40, seed=4)
    fs = voxel_feature_set(small_grid(cloud), dim=6, seed=7)
    states = roi_states(*roi_inputs(config, 4, cloud=cloud, voxel_features=fs), BOXES, config)
    hop1 = brute_propagate(fs.positions, fs.features, cloud.xyz)
    hop2 = brute_propagate(cloud.xyz, hop1, np.array([box.center for box in BOXES]))
    assert np.allclose(voxel_part(config, states), hop2, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    n_cloud=st.integers(1, 40),
    n_voxels=st.integers(1, 30),
    n_proposals=st.integers(1, 8),
    span=st.integers(1, 3),
    chunk=st.sampled_from([1, 64, neighbors._CHUNK_PAIRS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_voxel_block_matches_the_full_cloud_two_hops(
    n_cloud, n_voxels, n_proposals, span, chunk, seed
):
    # Lattice clouds, voxels and centres: duplicate points and exact
    # distance ties in both hops.  A chunk of 1 or 64 pairs drives both
    # hops through the cell hash.
    config = RfaConfig(voxel_dim=3)
    rng = np.random.default_rng(seed)
    xyz = rng.integers(-span, span + 1, size=(n_cloud, 3)).astype(float)
    cloud = PointCloud(np.column_stack([xyz, np.zeros(n_cloud)]))
    voxels = FeatureSet(
        rng.integers(-2 * span, 2 * span + 1, size=(n_voxels, 3)) / 2.0,
        rng.normal(size=(n_voxels, config.voxel_dim)),
    )
    centres = rng.integers(-2 * span - 1, 2 * span + 2, size=(n_proposals, 3)) / 2.0
    proposals = BoxArray.of([Box3D(tuple(c), (1.0, 1.0, 1.0), 0.0) for c in centres])
    pyramid = FeatureSet(np.zeros((1, 3)), np.zeros((1, config.point_dim)))
    bev = BevFeatureMap(np.zeros((2, 2, config.pixel_dim)), 1.0, (0.0, 0.0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "_CHUNK_PAIRS", chunk)
        states = roi_states(voxels, cloud, pyramid, bev, proposals, config)
    want = full_cloud_voxel_states(voxels, cloud.xyz, centres)
    assert np.array_equal(voxel_part(config, states), want)


def test_pixel_component_constant_map():
    config = RfaConfig(m1=3, m2=2, keypoint_counts=(16, 8), radii=((0.5, 1.0), (1.0, 2.0)))
    bev = BevFeatureMap(np.full((10, 10, 6), -1.5), 1.0, (-5.0, -5.0))
    box = Box3D((0.0, 0.0, 0.0), (2.0, 1.0, 1.0), 0.8)
    states = roi_states(*roi_inputs(config, 5, bev=bev), BoxArray.of([box]), config)
    assert states.shape == (1, config.feature_dim)
    assert pixel_part(config, states).shape == (1, 6)
    assert np.allclose(pixel_part(config, states), -1.5)


def test_pixel_component_is_a_probe_grid():
    config = RfaConfig(keypoint_counts=(16, 8), radii=((0.5, 1.0), (1.0, 2.0)))
    bev = synthetic_bev_map(12, 12, 4, 0.5, (-3.0, -3.0), seed=8)
    boxes = BoxArray.of([*BOXES, Box3D((0.3, -0.7, 0.0), (1.8, 0.9, 1.0), 1.1)])
    states = roi_states(*roi_inputs(config, 6, bev=bev), boxes, config)
    want = np.stack([sample_bev_grid(bev, boxes.take([k]), 2, 2)[0] for k in range(len(boxes))])
    assert np.array_equal(pixel_part(config, states), want)


def test_point_component_interpolates_pyramid():
    cloud = small_cloud(24, seed=15, spread=2.0)
    voxels, cloud, pyramid, bev = roi_inputs(SMALL_RFA, 15, cloud=cloud)
    boxes = BoxArray.of([*BOXES, Box3D((0.2, 0.4, 0.1), (2.0, 1.0, 1.0), 0.0)])
    states = roi_states(voxels, cloud, pyramid, bev, boxes, SMALL_RFA)
    want = brute_propagate(
        pyramid.positions, pyramid.features, np.array([box.center for box in boxes])
    )
    assert np.allclose(point_part(SMALL_RFA, states), want, atol=1e-12)


def test_roi_states_order_components():
    """Rows concatenate voxel | pixel | point, each computed on its own."""
    voxels, cloud, pyramid, bev = roi_inputs(SMALL_RFA, 18)
    states = roi_states(voxels, cloud, pyramid, bev, BOXES, SMALL_RFA)
    assert states.shape == (len(BOXES), SMALL_RFA.feature_dim)
    centres = np.array([box.center for box in BOXES])
    want = np.concatenate(
        [
            propagate_features(propagate_features(voxels, cloud.xyz), centres).features,
            sample_bev_grid(bev, BOXES, SMALL_RFA.m1, SMALL_RFA.m2),
            propagate_features(pyramid, centres).features,
        ],
        axis=1,
    )
    assert np.array_equal(states, want)
    # One proposal at a time gives the same rows as the batch.
    for i in range(len(BOXES)):
        assert np.array_equal(
            roi_states(voxels, cloud, pyramid, bev, BOXES.take([i]), SMALL_RFA)[0], states[i]
        )
    with pytest.raises(ValueError, match="at least one proposal"):
        roi_states(voxels, cloud, pyramid, bev, BoxArray.of([]), SMALL_RFA)


# ---------------------------------------------------------------------------
# auxiliary supervision targets


def test_auxiliary_targets_inside_and_outside():
    cloud = PointCloud(
        np.array(
            [
                [0.0, 0.0, 0.0, 0.5],  # inside
                [10.0, 0.0, 0.0, 0.5],  # outside
                [1.0, 0.0, 0.0, 0.5],  # on the +x face: inclusive
            ]
        )
    )
    box = Box3D((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
    mask, offsets = auxiliary_targets(cloud, [box])
    assert mask.tolist() == [True, False, True]
    assert np.array_equal(offsets[0], [0.0, 0.0, 0.0])
    assert np.array_equal(offsets[1], [0.0, 0.0, 0.0])
    assert np.array_equal(offsets[2], [-1.0, 0.0, 0.0])


def test_auxiliary_targets_first_box_wins_overlaps():
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0, 0.1]]))
    first = Box3D((0.25, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
    second = Box3D((-0.25, 0.0, 0.0), (2.0, 2.0, 2.0), 0.0)
    _, offsets = auxiliary_targets(cloud, [first, second])
    assert np.array_equal(offsets[0], [0.25, 0.0, 0.0])
    _, swapped = auxiliary_targets(cloud, [second, first])
    assert np.array_equal(swapped[0], [-0.25, 0.0, 0.0])


def test_auxiliary_targets_match_containment_oracle():
    rng = np.random.default_rng(22)
    cloud = PointCloud(
        np.column_stack([rng.uniform(-4, 4, size=(200, 3)), rng.uniform(0, 1, 200)])
    )
    boxes = [
        Box3D(tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(0.5, 3.0, 3)), float(rng.uniform(-3, 3)))
        for _ in range(3)
    ]
    mask, offsets = auxiliary_targets(cloud, boxes)
    for i, p in enumerate(cloud.xyz):
        containing = [b for b in boxes if point_in_box(p, b)]
        assert mask[i] == bool(containing)
        if containing:
            want = np.array(containing[0].center) - p
            # first containing box in list order supplies the offset
            first = next(b for b in boxes if point_in_box(p, b))
            assert np.array_equal(offsets[i], np.array(first.center) - p)
        else:
            assert np.array_equal(offsets[i], np.zeros(3))


def test_auxiliary_targets_no_boxes():
    cloud = small_cloud(5, seed=23)
    mask, offsets = auxiliary_targets(cloud, [])
    assert not mask.any()
    assert np.array_equal(offsets, np.zeros((5, 3)))
