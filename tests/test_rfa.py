"""Proposal node states read from the point pyramid, and the synthetic
position fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from oracles import brute_fps, brute_propagate, point_in_box


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
    assert config.point_dim == 8
    assert config.levels == 3
    assert SMALL_RFA.levels == 2


def test_config_validation():
    with pytest.raises(ValueError, match="point_dim"):
        RfaConfig(point_dim=0)
    with pytest.raises(ValueError, match="per pyramid level"):
        RfaConfig(keypoint_counts=(8,), radii=((0.5, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError, match="keypoint counts"):
        RfaConfig(keypoint_counts=(0, 4, 4))
    with pytest.raises(ValueError, match="radii"):
        RfaConfig(radii=((0.0, 1.0), (0.5, 1.0), (1.0, 2.0)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_config_rejects_non_finite_radii(bad):
    with pytest.raises(ValueError, match="radii must be positive reals"):
        RfaConfig(radii=((0.1, 0.5), (0.5, bad), (1.0, 2.0)))
    with pytest.raises(ValueError, match="radii must be positive reals"):
        RfaConfig(radii=((bad, 0.5), (0.5, 1.0), (1.0, 2.0)))


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
# point pyramid


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
# node states


BOXES = BoxArray.of(
    [
        Box3D((0.5, 0.5, 0.0), (3.9, 1.6, 1.56), 0.2),
        Box3D((1.0, 1.0, 0.5), (3.0, 1.5, 1.2), -0.4),
        Box3D((-1.5, 0.8, -0.3), (2.0, 1.0, 1.0), 1.3),
    ]
)


def test_point_component_interpolates_pyramid():
    cloud = small_cloud(24, seed=15, spread=2.0)
    pyramid = point_pyramid(cloud, SMALL_RFA, default_point_stacks(SMALL_RFA, seed=18))
    boxes = BoxArray.of([*BOXES, Box3D((0.2, 0.4, 0.1), (2.0, 1.0, 1.0), 0.0)])
    states = roi_states(pyramid, boxes)
    assert states.shape == (len(boxes), SMALL_RFA.point_dim)
    want = brute_propagate(
        pyramid.positions, pyramid.features, np.array([box.center for box in boxes])
    )
    assert np.allclose(states, want, atol=1e-12)
    # One proposal at a time gives the same rows as the batch.
    for i in range(len(boxes)):
        assert np.array_equal(roi_states(pyramid, boxes.take([i]))[0], states[i])
    with pytest.raises(ValueError, match="at least one proposal"):
        roi_states(pyramid, BoxArray.of([]))


_DYADIC = 64  # coordinates are multiples of 1/64 m, so every difference is exact


@settings(max_examples=60, deadline=None)
@given(
    n_cloud=st.integers(1, 60),
    n_proposals=st.integers(1, 6),
    shift=st.tuples(*[st.integers(-(2**13), 2**13)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_states_do_not_encode_absolute_position(n_cloud, n_proposals, shift, seed):
    # Shifting the cloud and the proposals together moves no difference,
    # so every group, FPS pick and 3-NN, and so every state bit, stays.
    rng = np.random.default_rng(seed)
    xyz = rng.integers(-128, 129, size=(n_cloud, 3)) / _DYADIC
    reflectance = rng.uniform(0.0, 1.0, size=(n_cloud, 1))
    centres = rng.integers(-160, 161, size=(n_proposals, 3)) / _DYADIC
    offset = np.array(shift) / _DYADIC
    stacks = default_point_stacks(SMALL_RFA, seed=seed % 1000)

    def states(delta):
        cloud = PointCloud(np.column_stack([xyz + delta, reflectance]))
        boxes = BoxArray.of([Box3D(tuple(c + delta), (2.0, 1.0, 1.0), 0.3) for c in centres])
        return roi_states(point_pyramid(cloud, SMALL_RFA, stacks), boxes)

    assert np.array_equal(states(np.zeros(3)), states(offset))


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
