"""Matched PR curves, interpolated AP, and the composite detection score."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphdet import geom
from graphdet.metrics import (
    BevIouMatcher,
    CenterDistanceMatcher,
    ErrorBundle,
    RecallSchedule,
    interpolated_ap,
    mean_ap_distance,
    nds,
    precision_recall,
)
from graphdet.scene import Box3D, BoxArray

from oracles import (
    all_pairs_precision_recall,
    bev_diagonal,
    brute_pr_curve,
    center_distance_quality,
    loop_rotated_iou_bev,
    max_scan_ap,
    random_box,
)


def det_at(x, y, score, dims=(2.0, 2.0, 2.0)):
    return Box3D((x, y, 0.0), dims, 0.0, score=score)


def gt_at(x, y, dims=(2.0, 2.0, 2.0)):
    return Box3D((x, y, 0.0), dims, 0.0)


# ---------------------------------------------------------------------------
# recall schedules


def test_schedule_eleven_levels():
    levels = RecallSchedule.s11().levels
    assert len(levels) == 11
    assert levels[0] == 0.0 and levels[-1] == 1.0
    assert np.allclose(levels, np.arange(11) / 10)


def test_schedule_forty_levels():
    levels = RecallSchedule.s40().levels
    assert len(levels) == 40
    assert levels[0] == pytest.approx(1.0 / 40.0)
    assert levels[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(levels), 1.0 / 40.0)


def test_schedule_levels_are_exact_rationals():
    assert RecallSchedule.s11().levels == tuple(i / 10 for i in range(11))
    assert RecallSchedule.s40().levels == tuple((i + 1) / 40 for i in range(40))


def test_named_schedules_are_shared_instances():
    assert RecallSchedule.s11() is RecallSchedule.s11()
    assert RecallSchedule.s40() is RecallSchedule.s40()
    assert RecallSchedule.s11() == RecallSchedule(11, 0.0, 1.0)
    assert RecallSchedule.s40() == RecallSchedule(40, 1.0 / 40.0, 1.0)
    assert RecallSchedule.s40().levels == RecallSchedule(40, 1.0 / 40.0, 1.0).levels


def test_named_schedules_are_not_built_at_import():
    code = (
        "import graphdet, graphdet.cli, graphdet.pipeline\n"
        "from graphdet.metrics import RecallSchedule as R\n"
        "print(R.s11.__func__.cache_info().currsize, R.s40.__func__.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split() == ["0", "0"]


def test_schedule_validation():
    with pytest.raises(ValueError, match="two levels"):
        RecallSchedule(1, 0.0, 1.0)
    with pytest.raises(ValueError, match="endpoints"):
        RecallSchedule(5, 0.5, 0.5)
    with pytest.raises(ValueError, match="endpoints"):
        RecallSchedule(5, -0.1, 1.0)


# ---------------------------------------------------------------------------
# matchers


def _quality(matcher, det, gt):
    """The one entry of the matcher's quality matrix for one pair."""
    return matcher.quality_matrix(BoxArray.of([det]), BoxArray.of([gt]))[0, 0]


def test_bev_iou_matcher_threshold():
    m = BevIouMatcher(0.5)
    det = det_at(0.0, 0.0, 0.9)
    assert _quality(m, det, gt_at(0.0, 0.0)) == pytest.approx(1.0)
    # shifted by half a side: IoU = 1/3 < 0.5
    assert math.isnan(_quality(m, det, gt_at(1.0, 0.0)))
    weak = BevIouMatcher(0.3)
    assert _quality(weak, det, gt_at(1.0, 0.0)) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        BevIouMatcher(0.0)


def test_center_distance_matcher_is_strict_and_negates():
    m = CenterDistanceMatcher(2.0)
    det = det_at(0.0, 0.0, 0.9)
    assert _quality(m, det, gt_at(1.0, 1.0)) == pytest.approx(-np.sqrt(2.0))
    assert math.isnan(_quality(m, det, gt_at(2.0, 0.0)))  # boundary distance excluded
    assert _quality(m, det, gt_at(1.9, 0.0)) == pytest.approx(-1.9)
    with pytest.raises(ValueError):
        CenterDistanceMatcher(0.0)


# ---------------------------------------------------------------------------
# precision/recall


def test_pr_empty_detections_empty_curve():
    assert precision_recall([], [gt_at(0, 0)], BevIouMatcher(0.5)) == []


def test_pr_requires_scores():
    with pytest.raises(ValueError, match="no score"):
        precision_recall([gt_at(0, 0)], [gt_at(0, 0)], BevIouMatcher(0.5))


def test_pr_single_true_positive():
    curve = precision_recall([det_at(0, 0, 0.8)], [gt_at(0, 0)], BevIouMatcher(0.5))
    assert curve == [(1.0, 1.0)]


def test_pr_ramp_curve():
    """Three hits then one miss: precision decays, recall saturates."""
    gts = [gt_at(0, 0), gt_at(10, 0), gt_at(20, 0)]
    dets = [
        det_at(0, 0, 0.9),
        det_at(10, 0, 0.8),
        det_at(20, 0, 0.7),
        det_at(40, 0, 0.6),
    ]
    curve = precision_recall(dets, gts, BevIouMatcher(0.5))
    want = [
        (1.0, 1.0 / 3.0),
        (1.0, 2.0 / 3.0),
        (1.0, 1.0),
        (0.75, 1.0),
    ]
    assert curve == pytest.approx(want)


def test_pr_orders_by_score_then_index():
    gts = [gt_at(0, 0)]
    # the low-score detection sits on the gt; the high-score one misses
    dets = [det_at(30, 0, 0.9), det_at(0, 0, 0.2)]
    curve = precision_recall(dets, gts, BevIouMatcher(0.5))
    assert curve == pytest.approx([(0.0, 0.0), (0.5, 1.0)])
    # equal scores: the lower input index goes first (here, a miss)
    tied = [det_at(30, 0, 0.5), det_at(0, 0, 0.5)]
    curve = precision_recall(tied, [gt_at(0, 0)], BevIouMatcher(0.5))
    assert curve == pytest.approx([(0.0, 0.0), (0.5, 1.0)])


def test_pr_detection_takes_best_quality_gt():
    # both gts admissible; the closer one (higher IoU) is claimed
    gts = [gt_at(1.0, 0.0), gt_at(0.25, 0.0)]
    dets = [det_at(0, 0, 0.9)]
    curve = precision_recall(dets, gts, BevIouMatcher(0.1))
    assert curve == [(1.0, 0.5)]
    follow = precision_recall(dets + [det_at(1.0, 0.0, 0.8)], gts, BevIouMatcher(0.1))
    assert follow[-1] == (1.0, 1.0)  # second det picks up the remaining gt


def test_pr_gt_matches_at_most_once():
    gts = [gt_at(0, 0)]
    dets = [det_at(0, 0, 0.9), det_at(0, 0, 0.8)]
    curve = precision_recall(dets, gts, BevIouMatcher(0.5))
    assert curve == pytest.approx([(1.0, 1.0), (0.5, 1.0)])


def test_pr_no_gt_all_false_positives():
    dets = [det_at(0, 0, 0.9), det_at(5, 0, 0.8)]
    curve = precision_recall(dets, [], BevIouMatcher(0.5))
    assert curve == pytest.approx([(0.0, 0.0), (0.0, 0.0)])


def test_pr_matches_independent_oracle():
    rng = np.random.default_rng(0)
    matcher = CenterDistanceMatcher(2.0)
    for trial in range(30):
        dets = [random_box(rng, spread=8.0, score=True) for _ in range(15)]
        gts = [random_box(rng, spread=8.0) for _ in range(5)]
        got = precision_recall(dets, gts, matcher)
        want = brute_pr_curve(dets, gts, center_distance_quality(2.0))
        assert got == pytest.approx(want)


@st.composite
def scored_frames(draw):
    """Detections jittered around a few ground truths, plus scattered ones."""
    def box(x, y, score=None):
        dims = (draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 3.0)), 1.5)
        return Box3D((x, y, 0.0), dims, draw(st.floats(-math.pi, math.pi)), score=score)

    scores = st.sampled_from([0.2, 0.5, 0.5, 0.9])
    gts = [box(draw(st.floats(-15, 15)), draw(st.floats(-15, 15))) for _ in range(draw(st.integers(0, 5)))]
    dets = [
        box(gt.center[0] + draw(st.floats(-1.5, 1.5)), gt.center[1] + draw(st.floats(-1.5, 1.5)), draw(scores))
        for gt in gts
        for _ in range(draw(st.integers(0, 3)))
    ]
    dets += [box(draw(st.floats(-20, 20)), draw(st.floats(-20, 20)), draw(scores)) for _ in range(draw(st.integers(0, 8)))]
    return dets, gts


@given(scored_frames(), st.sampled_from([0.1, 0.25, 0.5, 0.7, 1.0]))
def test_bev_iou_matcher_equals_all_pairs_matching(frame, threshold):
    dets, gts = frame
    got = precision_recall(dets, gts, BevIouMatcher(threshold))
    assert got == all_pairs_precision_recall(dets, gts, threshold)


def _reachable(a, b):
    dx, dy = a.center[0] - b.center[0], a.center[1] - b.center[1]
    reach = 0.5 * (bev_diagonal(a) + bev_diagonal(b))
    return dx * dx + dy * dy <= reach * reach


def test_bev_iou_matcher_computes_iou_only_for_reachable_pairs(monkeypatch):
    rng = np.random.default_rng(5)
    gts = [Box3D((x, y, -1.0), (3.9, 1.6, 1.56), float(rng.uniform(-3, 3))) for x, y in rng.uniform(0, 60, (8, 2))]
    dets = [
        Box3D((*(gt.center[:2] + rng.normal(0.0, 0.5, 2)), -1.0), (3.9, 1.6, 1.56), gt.yaw,
              score=float(rng.uniform(0.3, 1.0)))
        for gt in gts
        for _ in range(3)
    ]
    dets += [random_box(rng, spread=30.0, score=True) for _ in range(40)]

    def quality(det, gt):
        iou = loop_rotated_iou_bev(det, gt)
        return iou if iou >= 0.7 else None

    want = brute_pr_curve(dets, gts, quality)
    pairs = []
    kernel = geom.bev_iou_pairs

    def recording(a, b, i, j):
        pairs.extend(zip(i.tolist(), j.tolist()))
        return kernel(a, b, i, j)

    monkeypatch.setattr(geom, "bev_iou_pairs", recording)
    assert precision_recall(dets, gts, BevIouMatcher(0.7)) == want
    # one kernel call over exactly the reachable (detection, ground truth) pairs
    reachable = [(d, g) for d, det in enumerate(dets) for g, gt in enumerate(gts) if _reachable(det, gt)]
    assert sorted(pairs) == reachable
    assert 0 < len(pairs) < len(dets) * len(gts) // 4


# ---------------------------------------------------------------------------
# interpolated AP


def test_ap_empty_curve_is_zero():
    assert interpolated_ap([], RecallSchedule.s11()) == 0.0
    assert interpolated_ap([], RecallSchedule.s40()) == 0.0


def test_ap_perfect_detection_is_one():
    curve = [(1.0, 0.5), (1.0, 1.0)]
    assert interpolated_ap(curve, RecallSchedule.s11()) == pytest.approx(1.0)
    assert interpolated_ap(curve, RecallSchedule.s40()) == pytest.approx(1.0)


def test_ap_half_recall_on_eleven_levels():
    """One perfect hit of two gts: recall 0.5 covers levels 0 .. 0.5."""
    curve = [(1.0, 0.5)]
    assert interpolated_ap(curve, RecallSchedule.s11()) == pytest.approx(6.0 / 11.0)


def test_ap_recall_exactly_on_a_level_reaches_it():
    """3 perfect hits of 10 gts: recall 3/10 covers levels 0 .. 0.3."""
    gts = [gt_at(10.0 * i, 0.0) for i in range(10)]
    dets = [det_at(10.0 * i, 0.0, 0.9) for i in range(3)]
    curve = precision_recall(dets, gts, BevIouMatcher(0.7))
    assert curve[-1] == (1.0, 0.3)
    assert interpolated_ap(curve, RecallSchedule.s11()) == 4.0 / 11.0


def test_ap_uses_max_precision_at_or_beyond_level():
    curve = [(0.4, 0.2), (0.9, 0.65), (0.5, 1.0)]
    # every level <= 0.65 sees the 0.9 spike further down the curve
    want = (0.9 * 7 + 0.5 * 4) / 11.0
    assert interpolated_ap(curve, RecallSchedule.s11()) == pytest.approx(want)


def test_ap_matches_max_scan_oracle():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(1, 25))
        precisions = rng.uniform(0, 1, n)
        recalls = np.sort(rng.uniform(0, 1, n))
        curve = list(zip(precisions, recalls))
        for schedule in (RecallSchedule.s11(), RecallSchedule.s40()):
            assert interpolated_ap(curve, schedule) == max_scan_ap(
                curve, schedule.levels
            )


# ---------------------------------------------------------------------------
# composite score


def test_nds_perfect_bundle():
    assert nds(ErrorBundle(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)) == pytest.approx(1.0)


def test_nds_reference_value():
    bundle = ErrorBundle(0.4765, 0.30, 0.27, 0.34, 0.41, 0.18)
    assert nds(bundle) == pytest.approx(0.58825, abs=5e-6)


def test_nds_clamps_large_errors():
    assert nds(ErrorBundle(0.0, 2.0, 3.0, 1.0, 1.5, 9.9)) == 0.0
    assert nds(ErrorBundle(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)) == pytest.approx(0.5)


def test_error_bundle_validation():
    with pytest.raises(ValueError, match="m_ap"):
        ErrorBundle(1.2, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="m_aoe"):
        ErrorBundle(0.5, 0, 0, -0.1, 0, 0)


# ---------------------------------------------------------------------------
# distance-thresholded mean AP


def test_mean_ap_distance_perfect():
    gts = [gt_at(0, 0), gt_at(10, 0)]
    dets = [det_at(0, 0, 0.9), det_at(10, 0, 0.8)]
    assert mean_ap_distance(dets, gts) == pytest.approx(1.0)


def test_mean_ap_distance_threshold_sensitivity():
    """A 1.5 m offset matches at 2 m and 4 m but not at 0.5 m and 1 m."""
    gts = [gt_at(0, 0)]
    dets = [det_at(1.5, 0, 0.9)]
    assert mean_ap_distance(dets, gts) == pytest.approx(0.5)


def test_mean_ap_distance_is_mean_of_per_threshold_aps():
    rng = np.random.default_rng(2)
    dets = [random_box(rng, spread=6.0, score=True) for _ in range(12)]
    gts = [random_box(rng, spread=6.0) for _ in range(6)]
    schedule = RecallSchedule.s40()
    per = [
        interpolated_ap(precision_recall(dets, gts, CenterDistanceMatcher(d)), schedule)
        for d in (0.5, 1.0, 2.0, 4.0)
    ]
    assert mean_ap_distance(dets, gts) == pytest.approx(float(np.mean(per)))
