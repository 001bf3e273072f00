"""Property tests for rotated IoU and greedy NMS, plus a work guard on NMS."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdet import geom
from graphdet.geom import clip_polygon, nms, polygon_area, rotated_iou_bev
from graphdet.scene import Box3D

from oracles import brute_nms, np_clip_polygon, np_polygon_area, np_rotated_iou_bev

_YAW = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi]),
)
_OFFSET = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@st.composite
def box_pairs(draw):
    """Two boxes centred within 20 m of the origin, often overlapping."""
    def box(x, y):
        dims = (draw(st.floats(0.1, 8.0)), draw(st.floats(0.1, 8.0)), 1.0)
        return Box3D((x, y, 0.0), dims, draw(_YAW))

    a = box(draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0)))
    if draw(st.booleans()):
        return a, box(a.center[0] + draw(_OFFSET), a.center[1] + draw(_OFFSET))
    return a, box(draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0)))


@st.composite
def clustered_boxes(draw):
    """Up to 30 car-like boxes around a few centres, with tied scores."""
    centres = draw(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=4))
    boxes = []
    for _ in range(draw(st.integers(0, 30))):
        cx, cy = draw(st.sampled_from(centres))
        boxes.append(
            Box3D(
                (cx + draw(_OFFSET) / 2, cy + draw(_OFFSET) / 2, 0.0),
                (draw(st.floats(1.0, 5.0)), draw(st.floats(0.5, 2.5)), 1.5),
                draw(_YAW),
                score=draw(st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0])),
            )
        )
    return boxes


_SCORES = st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0])


@st.composite
def lattice_boxes(draw):
    """Equal boxes centred on a lattice of multiples of their diagonal, or
    of half-odd multiples: the diagonal is the grid's cell side, so
    neighbours sit exactly ``reach`` apart, and the centres or the edges
    of the boxes' bounding squares fall on cell boundaries."""
    dims = (draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 3.0)), 1.5)
    diag = math.hypot(dims[0], dims[1])
    shift = draw(st.sampled_from([0.0, 0.5]))
    sites = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    return [
        Box3D(((i + shift) * diag, (j + shift) * diag, 0.0), dims, draw(_YAW), score=draw(_SCORES))
        for i, j in draw(st.lists(sites, max_size=30))
    ]


@st.composite
def reach_apart_pairs(draw):
    """Two boxes of different sizes exactly ``reach`` apart on the x axis,
    with the edge their bounding squares share on a cell boundary (the
    cell side, their median diagonal, equals ``reach``)."""
    a_dims, b_dims = ((draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 5.0)), 1.0) for _ in range(2))
    a_half, b_half = 0.5 * math.hypot(*a_dims[:2]), 0.5 * math.hypot(*b_dims[:2])
    reach = a_half + b_half
    ax = draw(st.integers(-50, 50)) * reach - a_half * draw(st.sampled_from([1, -1]))
    bx = ax + reach * draw(st.sampled_from([1, -1]))
    return [
        Box3D((ax, 0.0, 0.0), a_dims, 0.0, score=draw(_SCORES)),
        Box3D((bx, 0.0, 0.0), b_dims, 0.0, score=draw(_SCORES)),
    ]


@st.composite
def mixed_size_boxes(draw):
    """Clustered boxes of mixed sizes plus one box 20 or 40 times wider
    than the widest of them (the 40x box's square touches too many grid
    cells to be filed)."""
    boxes = [
        Box3D(b.center, (b.dims[0] * k, b.dims[1] * k, 1.5), b.yaw, score=b.score)
        for b in draw(clustered_boxes())
        for k in [draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))]
    ]
    width = 20.0 if not boxes else draw(st.sampled_from([20.0, 40.0])) * max(b.dims[1] for b in boxes)
    wide = Box3D(
        (draw(st.floats(-10, 10)), draw(st.floats(-10, 10)), 0.0),
        (draw(st.floats(width, 2 * width)), width, 1.5),
        draw(_YAW),
        score=draw(_SCORES),
    )
    boxes.insert(draw(st.integers(0, len(boxes))), wide)
    return boxes


@st.composite
def far_boxes(draw):
    """Clustered boxes moved by (+-1e5, +-1e5) metres."""
    sx, sy = draw(st.sampled_from([1e5, -1e5])), draw(st.sampled_from([1e5, -1e5]))
    return [
        Box3D((b.center[0] + sx, b.center[1] + sy, 0.0), b.dims, b.yaw, score=b.score)
        for b in draw(clustered_boxes())
    ]


_IOU_THRESHOLDS = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0))
_SCORE_THRESHOLDS = st.sampled_from([0.0, 0.3, 0.5])


# ---------------------------------------------------------------------------
# IoU


@given(box_pairs())
@example(
    (
        Box3D((-12.228443628544746, 15.0, 0.0), (0.125, 0.25, 1.0), 0.0),
        Box3D((-12.228443628544746, 15.0, 0.0), (0.125, 0.5, 1.0), 0.0),
    )
)
def test_iou_is_symmetric_and_bounded(pair):
    a, b = pair
    ab, ba = rotated_iou_bev(a, b), rotated_iou_bev(b, a)
    assert 0.0 <= ab <= 1.0
    assert abs(ab - ba) <= 1e-12


@given(box_pairs())
@example(
    (
        Box3D((5.85925612109444, 15.561141943789519, 0.0), (0.25, 0.125, 1.0), 0.0),
        Box3D((5.85925612109444, 15.561141943789519, 0.0), (0.109375, 0.109375, 1.0), 0.0),
    )
)
def test_iou_agrees_with_the_numpy_oracle(pair):
    a, b = pair
    assert abs(rotated_iou_bev(a, b) - np_rotated_iou_bev(a, b)) <= 1e-12


@given(box_pairs())
def test_array_wrappers_agree_with_the_numpy_oracle(pair):
    a, b = pair
    got = clip_polygon(a.corners_bev(), b.corners_bev())
    want = np_clip_polygon(a.corners_bev(), b.corners_bev())
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert abs(polygon_area(got) - np_polygon_area(want)) <= 1e-12


# ---------------------------------------------------------------------------
# NMS


@settings(max_examples=60)
@given(clustered_boxes(), _IOU_THRESHOLDS, _SCORE_THRESHOLDS)
def test_nms_equals_brute_force(boxes, iou_threshold, score_threshold):
    want = brute_nms(boxes, rotated_iou_bev, iou_threshold, score_threshold)
    assert nms(boxes, iou_threshold, score_threshold) == want


@settings(max_examples=60)
@given(clustered_boxes(), _IOU_THRESHOLDS, _SCORE_THRESHOLDS)
def test_nms_is_idempotent(boxes, iou_threshold, score_threshold):
    kept = nms(boxes, iou_threshold, score_threshold)
    assert nms(kept, iou_threshold, score_threshold) == kept


@settings(max_examples=60)
@given(clustered_boxes(), _IOU_THRESHOLDS, _SCORE_THRESHOLDS)
def test_nms_keeps_a_descending_subset_without_overlaps(boxes, iou_threshold, score_threshold):
    kept = nms(boxes, iou_threshold, score_threshold)
    positions = [next(i for i, b in enumerate(boxes) if b is k) for k in kept]
    assert len(set(positions)) == len(kept)
    assert all(k.score >= score_threshold for k in kept)
    assert all(a.score >= b.score for a, b in zip(kept, kept[1:]))
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert rotated_iou_bev(a, b) <= iou_threshold


def _counted_nms(boxes, iou_threshold, score_threshold):
    """``nms`` with the number of exact IoUs it computed."""
    calls = []

    def counting(a, b):
        calls.append(1)
        return rotated_iou_bev(a, b)

    geom.rotated_iou_bev = counting
    try:
        return nms(boxes, iou_threshold, score_threshold), len(calls)
    finally:
        geom.rotated_iou_bev = rotated_iou_bev


def _check_grid(boxes, iou_threshold, score_threshold):
    kept, calls = _counted_nms(boxes, iou_threshold, score_threshold)
    assert kept == brute_nms(boxes, rotated_iou_bev, iou_threshold, score_threshold)
    assert calls == _sweep_iou_calls(boxes, iou_threshold, score_threshold)


def _pair(ax, a_dims, bx, b_dims):
    return [Box3D((ax, 0.0, 0.0), (*a_dims, 1.0), 0.0, score=0.9), Box3D((bx, 0.0, 0.0), (*b_dims, 1.0), 0.0, score=0.5)]


# Reach-apart pairs whose squares miss each other's cells without the slack.
@example(_pair(2.639225837472875, (3.731711640416467, 3.7331461687854977),
               -1.0574189322710894, (1.8747314647362976, 0.9787344524583863)), 0.1, 0.0)
@example(_pair(-9.913924382789778, (1.6960192058140702, 4.136638495948027),
               -13.96370302707458, (3.3400848813105597, 1.418289390779069)), 0.1, 0.0)
@example(_pair(7.87167142504161, (3.874282209931924, 4.149421017481525),
               2.8384748291341424, (4.322725661094752, 0.7624023826742818)), 0.1, 0.0)
@settings(max_examples=60)
@given(st.one_of(lattice_boxes(), reach_apart_pairs()), _IOU_THRESHOLDS, _SCORE_THRESHOLDS)
def test_nms_grid_on_a_lattice_of_reach_apart_centres(boxes, iou_threshold, score_threshold):
    _check_grid(boxes, iou_threshold, score_threshold)


@settings(max_examples=60)
@given(mixed_size_boxes(), _IOU_THRESHOLDS, _SCORE_THRESHOLDS)
def test_nms_grid_with_mixed_sizes_and_one_wide_box(boxes, iou_threshold, score_threshold):
    _check_grid(boxes, iou_threshold, score_threshold)


@settings(max_examples=60)
@given(far_boxes(), _IOU_THRESHOLDS, _SCORE_THRESHOLDS)
def test_nms_grid_far_from_the_origin(boxes, iou_threshold, score_threshold):
    _check_grid(boxes, iou_threshold, score_threshold)


def _sweep_iou_calls(boxes, iou_threshold, score_threshold):
    """IoU calls of the greedy sweep with the reach prefilter and early exit."""
    order = sorted(
        (i for i, b in enumerate(boxes) if b.score >= score_threshold),
        key=lambda i: (-boxes[i].score, i),
    )
    kept, calls = [], 0
    for i in order:
        candidate = boxes[i]
        for k in kept:
            reach = 0.5 * (candidate.bev_diagonal + k.bev_diagonal)
            dx = candidate.center[0] - k.center[0]
            dy = candidate.center[1] - k.center[1]
            if dx * dx + dy * dy > reach * reach:
                continue
            calls += 1
            if rotated_iou_bev(candidate, k) > iou_threshold:
                break
        else:
            kept.append(candidate)
    return calls


def test_nms_computes_iou_only_where_the_sweep_needs_it(monkeypatch):
    rng = np.random.default_rng(11)
    centres = rng.uniform(-30.0, 30.0, size=(40, 2))
    boxes = [
        Box3D(
            (*(centres[c] + rng.normal(0.0, 0.6, 2)), 0.0),
            (3.9, 1.6, 1.56),
            float(rng.uniform(-math.pi, math.pi)),
            score=float(rng.choice([0.2, 0.4, 0.6, 0.9])),
        )
        for c in rng.integers(0, len(centres), size=600)
    ]
    expected = _sweep_iou_calls(boxes, 0.1, 0.3)
    calls = []

    def counting(a, b):
        calls.append(1)
        return rotated_iou_bev(a, b)

    monkeypatch.setattr(geom, "rotated_iou_bev", counting)
    kept = nms(boxes, 0.1, 0.3)
    assert len(calls) == expected
    assert kept and 0 < expected < len(boxes)  # fewer exact IoUs than boxes
