"""Property tests for rotated IoU, the pairs that reach, and greedy NMS,
plus a work guard on NMS."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdet import geom
from graphdet.geom import (
    bev_iou_pairs,
    decode_boxes,
    encode_boxes,
    nms,
    reaching_pairs,
    rotated_iou_bev,
)
from graphdet.neighbors import CellIndex
from graphdet.scene import Box3D, BoxArray, normalize_yaw

from oracles import (
    bev_diagonal,
    brute_nms,
    clip_polygon,
    corners_bev,
    decode_box,
    encode_box,
    eval_frame,
    loop_rotated_iou_bev,
    np_clip_polygon,
    np_polygon_area,
    np_rotated_iou_bev,
    polygon_area,
    random_box,
    sweep_nms,
)

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


_AXIS_YAW = st.sampled_from([0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi])


@st.composite
def kernel_pair(draw):
    """One pair of a kind the clipping must get exactly right: random,
    identical, touching, nested, disjoint, or decimetre boxes about 20 m
    from the origin."""
    kind = draw(st.sampled_from(["random", "identical", "touching", "nested", "disjoint", "decimetre"]))
    if kind == "random":
        return draw(box_pairs())
    if kind == "decimetre":
        angle = draw(st.floats(-math.pi, math.pi))
        x, y = 20.0 * math.cos(angle), 20.0 * math.sin(angle)

        def small():
            dims = (draw(st.floats(0.05, 0.3)), draw(st.floats(0.05, 0.3)), 1.0)
            return Box3D((x + draw(st.floats(-0.2, 0.2)), y + draw(st.floats(-0.2, 0.2)), 0.0), dims, draw(_YAW))

        return small(), small()
    dims = (draw(st.floats(0.1, 8.0)), draw(st.floats(0.1, 8.0)), 1.0)
    a = Box3D((draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0)), 0.0), dims, draw(_AXIS_YAW))
    if kind == "identical":
        return a, a
    if kind == "touching":  # sharing an edge or a corner, up to the rounding of cos and sin
        step = draw(st.sampled_from([-1, 0, 1])), draw(st.sampled_from([-1, 1]))
        return a, Box3D((a.center[0] + step[0] * dims[0], a.center[1] + step[1] * dims[1], 0.0), dims, 0.0)
    if kind == "nested":
        scale = draw(st.floats(0.05, 1.0))
        return a, Box3D(a.center, (dims[0] * scale, dims[1] * scale, 1.0), draw(_YAW))
    far = bev_diagonal(a) + draw(st.floats(0.0, 10.0))
    return a, Box3D((a.center[0] + far, a.center[1] - far, 0.0), dims, draw(_YAW))


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
    of half-odd multiples: the diagonal is the cell side of the neighbour
    index (all boxes share one size level), so neighbours sit exactly
    ``reach`` and one cell apart, with the centres on or halfway between
    cell boundaries."""
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
    the edge their bounding squares share at a multiple of ``reach``."""
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
    """Clustered boxes of mixed sizes plus one box 20, 40 or 100 times
    wider than the widest of them (a size level of its own)."""
    boxes = [
        Box3D(b.center, (b.dims[0] * k, b.dims[1] * k, 1.5), b.yaw, score=b.score)
        for b in draw(clustered_boxes())
        for k in [draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))]
    ]
    width = 20.0 if not boxes else draw(st.sampled_from([20.0, 40.0, 100.0])) * max(b.dims[1] for b in boxes)
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


@st.composite
def identical_centre_boxes(draw):
    """Up to 20 boxes on one or two shared centres, of mixed sizes and
    yaws, with tied scores."""
    centres = draw(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=2))
    return [
        Box3D(
            (*draw(st.sampled_from(centres)), 0.0),
            (draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 2.5)), 1.5),
            draw(_YAW),
            score=draw(_SCORES),
        )
        for _ in range(draw(st.integers(0, 20)))
    ]


_IOU_THRESHOLDS = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0))
_SCORE_THRESHOLDS = st.sampled_from([0.0, 0.3, 0.5])
# Candidate-pair budgets of reaching_pairs: 1 and 64 split these small
# sets' candidates into many chunks (one cell hit, or a few, per chunk),
# the default tests them in one.
_CHUNKS = st.sampled_from([1, 64, geom._REACH_CHUNK])


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


@settings(max_examples=60)
@given(st.lists(kernel_pair(), min_size=1, max_size=40))
def test_kernel_is_bit_identical_to_the_float_loop(pairs):
    # One batch mixes pairs whose clipped polygons have different vertex
    # counts; every IoU still equals the scalar loop's exactly.
    a, b = BoxArray.of([p[0] for p in pairs]), BoxArray.of([p[1] for p in pairs])
    i = np.arange(len(pairs))
    got = bev_iou_pairs(a, b, i, i).tolist()
    assert got == [loop_rotated_iou_bev(*p) for p in pairs]
    assert got == [rotated_iou_bev(*p) for p in pairs]
    back = bev_iou_pairs(b, a, i, i).tolist()
    assert back == [loop_rotated_iou_bev(q, p) for p, q in pairs]


@given(box_pairs())
def test_array_wrappers_agree_with_the_numpy_oracle(pair):
    a, b = pair
    got = clip_polygon(corners_bev(a), corners_bev(b))
    want = np_clip_polygon(corners_bev(a), corners_bev(b))
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert abs(polygon_area(got) - np_polygon_area(want)) <= 1e-12


# ---------------------------------------------------------------------------
# NMS


@settings(max_examples=60)
@given(clustered_boxes(), _IOU_THRESHOLDS, _SCORE_THRESHOLDS, _CHUNKS)
def test_nms_equals_brute_force(boxes, iou_threshold, score_threshold, chunk):
    want = brute_nms(boxes, loop_rotated_iou_bev, iou_threshold, score_threshold)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "_REACH_CHUNK", chunk)
        assert list(nms(boxes, iou_threshold, score_threshold)) == want


@settings(max_examples=60)
@given(clustered_boxes(), _IOU_THRESHOLDS, _SCORE_THRESHOLDS)
def test_nms_is_idempotent(boxes, iou_threshold, score_threshold):
    kept = nms(boxes, iou_threshold, score_threshold)
    assert list(nms(kept, iou_threshold, score_threshold)) == list(kept)


@settings(max_examples=60)
@given(clustered_boxes(), _IOU_THRESHOLDS, _SCORE_THRESHOLDS)
def test_nms_keeps_a_descending_subset_without_overlaps(boxes, iou_threshold, score_threshold):
    kept = list(nms(boxes, iou_threshold, score_threshold))
    assert not Counter(kept) - Counter(boxes)  # a sub-multiset of the input
    assert all(k.score >= score_threshold for k in kept)
    assert all(a.score >= b.score for a, b in zip(kept, kept[1:]))
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert loop_rotated_iou_bev(a, b) <= iou_threshold


def _reach(a, b):
    dx, dy = a.center[0] - b.center[0], a.center[1] - b.center[1]
    reach = 0.5 * (bev_diagonal(a) + bev_diagonal(b))
    return dx * dx + dy * dy <= reach * reach


def _check_grid(boxes, iou_threshold, score_threshold, chunk):
    """NMS equals the brute-force sweep, and the cell index finds exactly
    the pairs that reach, within one set and across two."""
    left, right = boxes[::2], boxes[1::2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "_REACH_CHUNK", chunk)
        kept = nms(boxes, iou_threshold, score_threshold)
        within = reaching_pairs(BoxArray.of(boxes))
        across = reaching_pairs(BoxArray.of(left), BoxArray.of(right))
    assert list(kept) == brute_nms(boxes, loop_rotated_iou_bev, iou_threshold, score_threshold)
    want = [(p, q) for p in range(len(boxes)) for q in range(p + 1, len(boxes)) if _reach(boxes[p], boxes[q])]
    assert sorted(zip(*(k.tolist() for k in within))) == want
    want = [(p, q) for p, a in enumerate(left) for q, b in enumerate(right) if _reach(a, b)]
    assert sorted(zip(*(k.tolist() for k in across))) == want


def _row(dims):
    """Seven equal boxes one diagonal apart on the x axis."""
    diag = math.hypot(*dims)
    return [Box3D((i * diag, 0.0, 0.0), (*dims, 1.5), 0.0, score=0.5) for i in range(-3, 4)]


def _pair(ax, a_dims, bx, b_dims):
    return [Box3D((ax, 0.0, 0.0), (*a_dims, 1.0), 0.0, score=0.9), Box3D((bx, 0.0, 0.0), (*b_dims, 1.0), 0.0, score=0.5)]


# Reach-apart pairs that a cell grid without a rounding slack misses: in
# the row, x / diag rounds to either side of an integer, so without the
# slack two neighbours land two cells apart.
@example(_row((1.1046390985058054, 2.6185843423430817)), 0.1, 0.0, 1)
@example(_pair(2.639225837472875, (3.731711640416467, 3.7331461687854977),
               -1.0574189322710894, (1.8747314647362976, 0.9787344524583863)), 0.1, 0.0, 1)
@example(_pair(-9.913924382789778, (1.6960192058140702, 4.136638495948027),
               -13.96370302707458, (3.3400848813105597, 1.418289390779069)), 0.1, 0.0, 1)
@example(_pair(7.87167142504161, (3.874282209931924, 4.149421017481525),
               2.8384748291341424, (4.322725661094752, 0.7624023826742818)), 0.1, 0.0, 1)
@settings(max_examples=60)
@given(st.one_of(lattice_boxes(), reach_apart_pairs()), _IOU_THRESHOLDS, _SCORE_THRESHOLDS, _CHUNKS)
def test_nms_grid_on_a_lattice_of_reach_apart_centres(boxes, iou_threshold, score_threshold, chunk):
    _check_grid(boxes, iou_threshold, score_threshold, chunk)


@settings(max_examples=60)
@given(mixed_size_boxes(), _IOU_THRESHOLDS, _SCORE_THRESHOLDS, _CHUNKS)
def test_nms_grid_with_mixed_sizes_and_one_wide_box(boxes, iou_threshold, score_threshold, chunk):
    _check_grid(boxes, iou_threshold, score_threshold, chunk)


@settings(max_examples=60)
@given(far_boxes(), _IOU_THRESHOLDS, _SCORE_THRESHOLDS, _CHUNKS)
def test_nms_grid_far_from_the_origin(boxes, iou_threshold, score_threshold, chunk):
    _check_grid(boxes, iou_threshold, score_threshold, chunk)


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
            if not _reach(candidate, k):
                continue
            calls += 1
            if loop_rotated_iou_bev(candidate, k) > iou_threshold:
                break
        else:
            kept.append(candidate)
    return calls


def test_nms_computes_iou_only_where_the_sweep_needs_it(monkeypatch):
    # Every exact IoU is of a candidate and a higher-ranked kept box within
    # reach, the only pairs the greedy sweep can consult, and none twice.
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
    pairs = []
    kernel = geom._bev_iou

    def recording(fa, fb, i, j):
        pairs.extend(zip(i.tolist(), j.tolist()))
        return kernel(fa, fb, i, j)

    monkeypatch.setattr(geom, "_bev_iou", recording)
    kept = brute_nms(boxes, loop_rotated_iou_bev, 0.1, 0.3)  # the input objects
    assert list(nms(boxes, 0.1, 0.3)) == kept
    ranked = sorted((i for i, b in enumerate(boxes) if b.score >= 0.3), key=lambda i: (-boxes[i].score, i))
    kept_ranks = {r for r, i in enumerate(ranked) if any(boxes[i] is k for k in kept)}
    assert len(set(pairs)) == len(pairs)
    for low, high in pairs:
        assert high < low and high in kept_ranks and _reach(boxes[ranked[low]], boxes[ranked[high]])
    # A candidate suppressed in a wave meets every keep of that wave, where
    # the sweep stops at the first that suppresses it: 539 IoUs here
    # against the sweep's 522, so at most 5 % more.
    expected = _sweep_iou_calls(boxes, 0.1, 0.3)
    assert kept and 0 < len(pairs) <= expected + expected // 20
    assert len(pairs) < len(boxes)  # fewer exact IoUs than boxes


def _ranked(boxes, score_threshold):
    """Input indices of the NMS candidates in rank order, and the
    candidates as one BoxArray."""
    arr = BoxArray.of(boxes)
    order = np.lexsort((np.arange(len(arr)), -arr.scores))
    order = order[arr.scores[order] >= score_threshold]
    return order, arr.take(order)


_LEADER_INPUTS = st.one_of(clustered_boxes(), lattice_boxes(), identical_centre_boxes(), mixed_size_boxes())


@settings(max_examples=80)
@given(_LEADER_INPUTS, _IOU_THRESHOLDS, _SCORE_THRESHOLDS)
def test_leader_pass_decides_only_what_the_sweep_decides(boxes, iou_threshold, score_threshold):
    # Every block leader is kept by the brute-force sweep and every box a
    # leader suppresses is suppressed by it; the pass lists at most 4n
    # (leader, box) pairs.
    order, candidates = _ranked(boxes, score_threshold)
    if len(candidates) == 0:
        return
    listed = []
    expand = CellIndex.expand

    def counting(index, rows, slots):
        pairs = expand(index, rows, slots)
        listed.append(len(pairs[0]))
        return pairs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CellIndex, "expand", counting)
        kept, undecided = geom._leader_pass(candidates, geom._Footprints(candidates), iou_threshold)
    assert sum(listed) <= 4 * len(candidates)
    want = {id(b) for b in brute_nms(boxes, loop_rotated_iou_bev, iou_threshold, score_threshold)}
    assert kept.any() and not (kept & undecided).any()
    for rank, i in enumerate(order.tolist()):
        if kept[rank]:
            assert id(boxes[i]) in want
        elif not undecided[rank]:
            assert id(boxes[i]) not in want


@pytest.mark.parametrize("seed", [0, 7])
def test_nms_equals_the_sweep_on_a_frame_with_a_huge_box(seed):
    # One 160 m box is a size level of its own and fills every block of
    # the leader pass's grid.
    boxes = eval_frame(seed)
    boxes.insert(seed * 100, Box3D((30.0, 0.0, -1.0), (160.0, 160.0, 1.56), 0.3, score=0.5, class_id=0))
    want = sweep_nms(boxes, loop_rotated_iou_bev, 0.1, 0.3)
    assert list(nms(boxes, 0.1, 0.3)) == want


# ---------------------------------------------------------------------------
# box coding


@st.composite
def coding_sets(draw):
    """Equal-length lists of boxes and references; with ``seam``, yaws sit
    just either side of +-pi, so the plain difference is near 2 pi."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 20))
    gts = [random_box(rng) for _ in range(n)]
    refs = [random_box(rng) for _ in range(n)]
    if draw(st.booleans()):
        gts = [replace(b, yaw=math.pi - rng.uniform(0.0, 0.3)) for b in gts]
        refs = [replace(b, yaw=-math.pi + rng.uniform(0.0, 0.3)) for b in refs]
        if n:
            refs[0] = replace(refs[0], yaw=-math.pi)  # stored as pi
    return gts, refs, rng


@settings(max_examples=100, deadline=None)
@given(coding_sets())
def test_encode_boxes_matches_the_scalar_coder(sets):
    gts, refs, _ = sets
    got = encode_boxes(BoxArray.of(gts), BoxArray.of(refs))
    want = np.array([encode_box(g, r) for g, r in zip(gts, refs)]).reshape(-1, 7)
    want[:, 6] = normalize_yaw(want[:, 6])  # the wrapped branch
    assert got.tobytes() == want.tobytes()
    assert np.all(np.abs(got[:, 6]) <= math.pi)


@settings(max_examples=100, deadline=None)
@given(coding_sets())
def test_decode_boxes_matches_the_scalar_decoder(sets):
    gts, refs, rng = sets
    n = len(refs)
    encoded = encode_boxes(BoxArray.of(gts), BoxArray.of(refs))
    residuals = np.concatenate([encoded, rng.normal(0.0, 0.5, (n, 7))])
    refs = refs + refs
    scores = rng.uniform(0.0, 1.0, 2 * n)
    got = decode_boxes(residuals, BoxArray.of(refs), scores)
    want = [decode_box(res, ref, score) for res, ref, score in zip(residuals, refs, scores)]
    assert list(got) == want
    assert got.params.tobytes() == BoxArray.of(want).params.tobytes()
