"""Property tests for rotated IoU and greedy NMS, plus a work guard on NMS."""

import math

import numpy as np
from hypothesis import given, settings
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


_IOU_THRESHOLDS = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0))
_SCORE_THRESHOLDS = st.sampled_from([0.0, 0.3, 0.5])


# ---------------------------------------------------------------------------
# IoU


@given(box_pairs())
def test_iou_is_symmetric_and_bounded(pair):
    a, b = pair
    ab, ba = rotated_iou_bev(a, b), rotated_iou_bev(b, a)
    assert 0.0 <= ab <= 1.0
    assert abs(ab - ba) <= 1e-12


@given(box_pairs())
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
