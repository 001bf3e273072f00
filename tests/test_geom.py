"""Oriented-box geometry: IoU, NMS, anchors, box coding, containment."""

import math
import tracemalloc

import numpy as np
import pytest

from graphdet.geom import (
    IGNORE,
    NEGATIVE,
    POSITIVE,
    AnchorConfig,
    decode_boxes,
    encode_boxes,
    generate_anchors,
    iou_3d,
    match_anchors,
    nms,
    points_in_box,
    rotated_iou_bev,
)
from graphdet.scene import CAR_DIMS, Box3D, BoxArray, normalize_yaw, read_detections

from oracles import (
    aligned_iou_bev,
    brute_match_anchors,
    bev_diagonal,
    brute_nms,
    clip_polygon,
    eval_frame,
    loop_write_detections,
    loop_rotated_iou_bev,
    mc_iou_3d,
    mc_iou_bev,
    point_in_box,
    polygon_area,
    random_box,
)


def box2d(cx, cy, l, w, yaw=0.0, score=None):
    return Box3D((cx, cy, 0.0), (l, w, 1.0), yaw, score=score)


# ---------------------------------------------------------------------------
# polygon primitives of the scalar reference loop


def test_polygon_area_shoelace():
    square = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
    assert polygon_area(square) == pytest.approx(4.0)
    assert polygon_area(square[::-1]) == pytest.approx(4.0)  # orientation-free
    assert polygon_area(square[:2]) == 0.0


def test_clip_polygon_square_overlap():
    subject = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
    clip = subject + np.array([1.0, 1.0])
    out = clip_polygon(subject, clip)
    assert polygon_area(out) == pytest.approx(1.0)
    # fully inside: unchanged area
    inner = np.array([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]])
    assert polygon_area(clip_polygon(inner, subject)) == pytest.approx(1.0)
    # fully outside: empty
    far = subject + np.array([10.0, 0.0])
    assert clip_polygon(subject, far).size == 0


# ---------------------------------------------------------------------------
# IoU


def test_iou_identical_and_disjoint():
    a = box2d(0, 0, 4, 2, yaw=0.7)
    assert rotated_iou_bev(a, a) == pytest.approx(1.0, abs=1e-12)
    far = box2d(100, 0, 4, 2)
    assert rotated_iou_bev(a, far) == 0.0


def test_iou_axis_aligned_closed_form():
    a = box2d(0, 0, 2, 2)
    b = box2d(1, 0, 2, 2)
    assert rotated_iou_bev(a, b) == pytest.approx(2.0 / 6.0, abs=1e-12)


def test_iou_touching_boxes_is_zero():
    a = box2d(0, 0, 2, 2)
    b = box2d(2, 0, 2, 2)  # shares an edge, zero-area overlap
    assert rotated_iou_bev(a, b) == pytest.approx(0.0, abs=1e-12)


def test_iou_containment():
    outer = box2d(0, 0, 4, 4)
    inner = box2d(0.2, -0.1, 1, 1, yaw=0.4)
    assert rotated_iou_bev(outer, inner) == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_iou_symmetry_and_range():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = random_box(rng, spread=3.0), random_box(rng, spread=3.0)
        ab, ba = rotated_iou_bev(a, b), rotated_iou_bev(b, a)
        assert ab == pytest.approx(ba, abs=1e-10)
        assert 0.0 <= ab <= 1.0


def test_iou_rotation_of_both_boxes_is_invariant():
    rng = np.random.default_rng(6)
    for _ in range(25):
        a, b = random_box(rng, spread=2.0), random_box(rng, spread=2.0)
        base = rotated_iou_bev(a, b)
        phi = float(rng.uniform(-math.pi, math.pi))
        c, s = math.cos(phi), math.sin(phi)

        def rot(bx: Box3D) -> Box3D:
            x, y, z = bx.center
            return Box3D((c * x - s * y, s * x + c * y, z), bx.dims, bx.yaw + phi)

        assert rotated_iou_bev(rot(a), rot(b)) == pytest.approx(base, abs=1e-9)


def test_iou_matches_aligned_oracle():
    rng = np.random.default_rng(7)
    yaws = [0.0, math.pi / 2, math.pi, -math.pi / 2]
    for _ in range(50):
        a = box2d(*rng.uniform(-4, 4, 2), *rng.uniform(1, 5, 2), yaw=yaws[rng.integers(4)])
        b = box2d(*rng.uniform(-4, 4, 2), *rng.uniform(1, 5, 2), yaw=yaws[rng.integers(4)])
        assert rotated_iou_bev(a, b) == pytest.approx(aligned_iou_bev(a, b), abs=1e-12)


def test_iou_matches_monte_carlo():
    rng = np.random.default_rng(8)
    for trial in range(20):
        a, b = random_box(rng, spread=1.5), random_box(rng, spread=1.5)
        estimate = mc_iou_bev(a, b, 200_000, seed=trial)
        assert rotated_iou_bev(a, b) == pytest.approx(estimate, abs=1.5e-2)


def test_iou_3d_identical_and_half_z_overlap():
    a = Box3D((0, 0, 0), (2, 2, 2), 0.3)
    assert iou_3d(a, a) == pytest.approx(1.0, abs=1e-12)
    b = Box3D((0, 0, 1.0), (2, 2, 2), 0.3)  # same footprint, half the height overlaps
    assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
    c = Box3D((0, 0, 10.0), (2, 2, 2), 0.3)
    assert iou_3d(a, c) == 0.0


def test_iou_3d_matches_monte_carlo():
    rng = np.random.default_rng(9)
    for trial in range(10):
        a, b = random_box(rng, spread=1.0), random_box(rng, spread=1.0)
        estimate = mc_iou_3d(a, b, 200_000, seed=100 + trial)
        assert iou_3d(a, b) == pytest.approx(estimate, abs=1.5e-2)


# ---------------------------------------------------------------------------
# NMS


def test_nms_identical_boxes_keep_best_score():
    a = box2d(0, 0, 2, 2, score=0.9)
    b = box2d(0, 0, 2, 2, score=0.8)
    assert list(nms([a, b], iou_threshold=0.1, score_threshold=0.0)) == [a]


def test_nms_disjoint_boxes_all_kept():
    boxes = [box2d(5 * i, 0, 2, 2, score=0.5 + 0.01 * i) for i in range(5)]
    kept = nms(boxes, iou_threshold=0.1, score_threshold=0.0)
    assert sorted(k.center for k in kept) == sorted(b.center for b in boxes)


def test_nms_score_threshold_filters():
    boxes = [box2d(0, 0, 2, 2, score=0.2), box2d(10, 0, 2, 2, score=0.4)]
    kept = nms(boxes, iou_threshold=0.5, score_threshold=0.3)
    assert len(kept) == 1 and kept[0].score == 0.4


def test_nms_result_slices_to_a_box_array():
    boxes = [box2d(5 * i, 0, 2, 2, score=0.9 - 0.1 * i) for i in range(4)]
    kept = nms(boxes, iou_threshold=0.1, score_threshold=0.0)
    assert kept[-1] == boxes[-1]  # an integer still gives the Box3D view
    tail = kept[1:]
    assert isinstance(tail, BoxArray) and list(tail) == boxes[1:]
    assert list(kept[::-2]) == boxes[::-2]
    assert list(kept[-2:]) == boxes[-2:]
    empty = kept[3:1]
    assert isinstance(empty, BoxArray) and len(empty) == 0 and empty.params.shape == (0, 7)


def test_nms_requires_scores():
    with pytest.raises(ValueError, match="no score"):
        nms([box2d(0, 0, 2, 2)], 0.1, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, 1.5])
def test_nms_rejects_thresholds_outside_the_unit_interval(bad):
    boxes = [box2d(0, 0, 2, 2, score=0.5)]
    with pytest.raises(ValueError, match="iou_threshold must be a finite number in"):
        nms(boxes, iou_threshold=bad, score_threshold=0.0)
    with pytest.raises(ValueError, match="score_threshold must be a finite number in"):
        nms(boxes, iou_threshold=0.1, score_threshold=bad)


def test_nms_tie_breaks_by_input_index():
    a = box2d(0, 0, 2, 2, score=0.5)
    b = box2d(0.2, 0, 2, 2, score=0.5)
    assert list(nms([a, b], iou_threshold=0.1, score_threshold=0.0)) == [a]
    assert list(nms([b, a], iou_threshold=0.1, score_threshold=0.0)) == [b]


def test_nms_matches_brute_force_oracle():
    rng = np.random.default_rng(10)
    for trial in range(20):
        boxes = [random_box(rng, spread=6.0, score=True) for _ in range(50)]
        got = nms(boxes, iou_threshold=0.3, score_threshold=0.1)
        want = brute_nms(boxes, loop_rotated_iou_bev, 0.3, 0.1)
        assert isinstance(got, BoxArray) and list(got) == want


# Measured tracemalloc peaks on the 3,300-box frame: 1.5 MB to read it and
# 2.6 MB for NMS (2.0 and 0.5-1.5 MB with one Box3D per line and the
# scalar sweep); enumerating every candidate pair of the 3x3 cell blocks
# at once took 5.2 MB.
_READ_PEAK_MB = 2.0
_NMS_PEAK_MB = 3.5


@pytest.mark.parametrize("huge", [False, True], ids=["frame", "frame+huge box"])
def test_frame_read_and_nms_memory_is_bounded(tmp_path, huge):
    boxes = eval_frame(7)
    if huge:  # one box 100 times wider than the cars: a size level of its own
        boxes.append(Box3D((30.0, 0.0, -1.0), (160.0, 160.0, 1.56), 0.3, score=0.5, class_id=0))
    path = tmp_path / "dets.txt"
    loop_write_detections(path, boxes)
    nms(read_detections(str(path)).take(np.arange(50)), 0.1, 0.3)  # one-time imports and caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frame = read_detections(str(path))
        read_peak = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kept = nms(frame, 0.1, 0.3)
        nms_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < len(kept) < len(frame)
    assert read_peak < _READ_PEAK_MB * 2**20
    assert nms_peak < _NMS_PEAK_MB * 2**20


# ---------------------------------------------------------------------------
# anchors


def test_anchor_grid_count_and_layout():
    config = AnchorConfig(bev_resolution=(200, 176), yaws=(0.0, math.pi / 2))
    from graphdet.scene import KITTI_RANGE

    anchors = generate_anchors(config, KITTI_RANGE)
    assert len(anchors) == 70400
    assert config.count == 70400
    assert all(a.dims == CAR_DIMS for a in anchors[:10])


def test_single_anchor_sits_at_bev_centre():
    config = AnchorConfig(bev_resolution=(1, 1), yaws=(0.0,), z_center=-1.0)
    bounds = ((0.0, 10.0), (-4.0, 4.0), (-3.0, 1.0))
    (anchor,) = generate_anchors(config, bounds)
    assert anchor.center == (5.0, 0.0, -1.0)


def test_match_anchors_no_gt_all_negative():
    config = AnchorConfig(bev_resolution=(4, 4), yaws=(0.0,))
    bounds = ((0.0, 16.0), (0.0, 16.0), (-2.0, 2.0))
    anchors = generate_anchors(config, bounds)
    out = match_anchors(anchors, [], config)
    assert np.all(out.labels == NEGATIVE)
    assert np.all(out.gt_indices == -1)


def test_match_anchors_exact_match_positive():
    config = AnchorConfig(bev_resolution=(4, 4), yaws=(0.0,))
    bounds = ((0.0, 16.0), (0.0, 16.0), (-2.0, 2.0))
    anchors = generate_anchors(config, bounds)
    gt = anchors[5]  # identical to one anchor
    out = match_anchors(anchors, [gt], config)
    assert out.labels[5] == POSITIVE
    assert out.gt_indices[5] == 0
    assert out.max_iou[5] == pytest.approx(1.0, abs=1e-12)


def test_match_anchors_forces_best_anchor_below_threshold():
    config = AnchorConfig(bev_resolution=(2, 2), yaws=(0.0,), pos_iou=0.99, neg_iou=0.98)
    bounds = ((0.0, 8.0), (0.0, 8.0), (-2.0, 2.0))
    anchors = generate_anchors(config, bounds)
    gt = Box3D((2.5, 2.4, -1.0), CAR_DIMS, 0.2)  # overlaps anchor 0 weakly
    out = match_anchors(anchors, [gt], config)
    assert np.count_nonzero(out.labels == POSITIVE) == 1


def test_match_anchors_agrees_with_brute_oracle():
    rng = np.random.default_rng(11)
    config = AnchorConfig(
        bev_resolution=(4, 5), yaws=(0.0, math.pi / 2), pos_iou=0.35, neg_iou=0.2
    )
    bounds = ((0.0, 20.0), (0.0, 16.0), (-2.0, 2.0))
    anchors = generate_anchors(config, bounds)
    for _ in range(20):
        gts = [
            Box3D(
                (rng.uniform(1, 19), rng.uniform(1, 15), -1.0),
                tuple(rng.uniform(1.2, 4.5, size=3)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        got = match_anchors(anchors, gts, config)
        labels, gt_idx = brute_match_anchors(
            anchors, gts, config.pos_iou, config.neg_iou, loop_rotated_iou_bev
        )
        want_labels = np.where(labels == -1, IGNORE, np.where(labels == 1, POSITIVE, NEGATIVE))
        assert np.array_equal(got.labels, want_labels)
        assert np.array_equal(got.gt_indices, gt_idx)


# ---------------------------------------------------------------------------
# box coding


def one(box):
    return BoxArray.of([box])


def test_encode_identity_is_zero():
    box = one(Box3D((3, -2, 0.5), CAR_DIMS, 0.7))
    assert np.allclose(encode_boxes(box, box), np.zeros((1, 7)), atol=1e-15)


def test_encode_unit_x_shift_by_diagonal():
    anchor = Box3D((0, 0, 0), (3.9, 1.6, 1.56), 0.0)
    gt = Box3D((bev_diagonal(anchor), 0, 0), (3.9, 1.6, 1.56), 0.0)
    (vec,) = encode_boxes(one(gt), one(anchor))
    assert vec[0] == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(vec[1:], 0.0, atol=1e-15)


def test_decode_inverts_encode():
    rng = np.random.default_rng(12)
    gt = BoxArray.of([random_box(rng) for _ in range(100)])
    anchors = BoxArray.of([random_box(rng) for _ in range(100)])
    back = decode_boxes(encode_boxes(gt, anchors), anchors, np.full(100, 0.5))
    assert np.allclose(back.params[:, :6], gt.params[:, :6], atol=1e-9)
    assert np.allclose(normalize_yaw(back.params[:, 6] - gt.params[:, 6] + 1.0), 1.0, atol=1e-9)


def test_decode_validates_shape_and_carries_metadata():
    anchor = one(Box3D((0, 0, 0), CAR_DIMS, 0.0, class_id=0))
    with pytest.raises(ValueError, match="residuals"):
        decode_boxes(np.zeros((1, 6)), anchor, [0.25])
    with pytest.raises(ValueError, match="residuals"):
        decode_boxes(np.zeros((2, 7)), anchor, [0.25, 0.5])
    (out,) = decode_boxes(np.zeros((1, 7)), anchor, [0.25])
    assert out.score == 0.25 and out.class_id == 0


@pytest.mark.parametrize(
    "column, value, shown",
    [
        (3, 1e3, "inf"),  # a dims residual of 1e3: exp overflows
        (0, math.inf, "inf"),
        (6, math.nan, "nan"),
        (4, -1e3, "0.0"),  # exp underflows to a zero width
    ],
)
def test_decode_names_the_first_bad_proposal(column, value, shown):
    anchors = BoxArray.of([Box3D((i, 0, 0), CAR_DIMS, 0.0) for i in range(5)])
    residuals = np.zeros((5, 7))
    residuals[[2, 4], column] = value
    with pytest.raises(ValueError, match="proposal 2 decodes to box ") as info:
        decode_boxes(residuals, anchors, np.full(5, 0.5))
    assert shown in str(info.value).split("]")[0]
    assert "finite parameters, positive dims and a score in [0, 1]" in str(info.value)


@pytest.mark.parametrize("score", [math.nan, -0.1, 1.5])
def test_decode_rejects_scores_outside_the_unit_interval(score):
    anchors = BoxArray.of([Box3D((i, 0, 0), CAR_DIMS, 0.0) for i in range(3)])
    with pytest.raises(ValueError, match=rf"proposal 1 decodes to box \[.*\] with score {score}:"):
        decode_boxes(np.zeros((3, 7)), anchors, [0.5, score, 0.5])


# ---------------------------------------------------------------------------
# containment


def test_point_in_box_face_inclusive():
    # Pins the oracle's convention, which the library's vectorised test shares.
    box = Box3D((0, 0, 0), (2, 2, 2), 0.0)
    pts = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0 + 1e-9, 0.0, 0.0]])  # face, corner, out
    assert [point_in_box(p, box) for p in pts] == [True, True, False]
    assert points_in_box(pts, box).tolist() == [True, True, False]


def test_points_in_box_matches_scalar_version():
    rng = np.random.default_rng(16)
    box = Box3D((1, -2, 0.5), (3, 1.5, 2.0), 0.6)
    pts = rng.uniform(-4, 4, size=(500, 3))
    vec = points_in_box(pts, box)
    scalar = np.array([point_in_box(p, box) for p in pts])
    assert np.array_equal(vec, scalar)
