"""Self-test of the benchmark's independent reference (``reference.py``).

Run with ``python3 -m pytest bench``.
"""

import math
import random

import pytest

from reference import average_precision, bev_iou, check_greedy_nms


def test_identical_boxes_give_one():
    for box in [(0.0, 0.0, 4.0, 2.0, 0.0), (3.5, -1.0, 3.9, 1.6, 0.7), (10.0, 5.0, 1.0, 1.0, -2.9)]:
        assert bev_iou(box, box) == pytest.approx(1.0, abs=1e-12)


def test_disjoint_boxes_give_zero():
    assert bev_iou((0.0, 0.0, 4.0, 2.0, 0.3), (10.0, 0.0, 4.0, 2.0, -0.3)) == 0.0
    # Circumscribed circles overlap but the rectangles do not.
    assert bev_iou((0.0, 0.0, 4.0, 1.0, 0.0), (0.0, 1.6, 4.0, 1.0, 0.0)) == 0.0


@pytest.mark.parametrize("yaw", [0.0, math.pi / 2, math.pi, -math.pi / 2])
def test_axis_aligned_overlap_is_the_area_product(yaw):
    # 4 x 2 and 3 x 3 footprints offset by (2.5, 1.0): overlap 1 x 1.5 in the box frame.
    a = (0.0, 0.0, 4.0, 2.0, yaw)
    c, s = math.cos(yaw), math.sin(yaw)
    b = (2.5 * c - 1.0 * s, 2.5 * s + 1.0 * c, 3.0, 3.0, yaw)
    inter = 1.0 * 1.5
    assert bev_iou(a, b) == pytest.approx(inter / (8.0 + 9.0 - inter), rel=1e-12)


def test_box_against_itself_rotated_by_pi_gives_one():
    box = (2.0, -3.0, 3.9, 1.6, 0.4)
    assert bev_iou(box, (2.0, -3.0, 3.9, 1.6, 0.4 + math.pi)) == pytest.approx(1.0, abs=1e-12)


def test_iou_matches_monte_carlo_on_random_pairs():
    rng = random.Random(7)
    for _ in range(20):
        a = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 4), rng.uniform(1, 3), rng.uniform(-3, 3))
        b = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 4), rng.uniform(1, 3), rng.uniform(-3, 3))
        assert bev_iou(a, b) == pytest.approx(bev_iou(b, a), abs=1e-12)
        hits = 0
        n = 40000
        ca, sa = math.cos(a[4]), math.sin(a[4])
        cb, sb = math.cos(b[4]), math.sin(b[4])
        for _ in range(n):
            u, v = rng.uniform(-a[2] / 2, a[2] / 2), rng.uniform(-a[3] / 2, a[3] / 2)
            x, y = a[0] + ca * u - sa * v - b[0], a[1] + sa * u + ca * v - b[1]
            hits += abs(cb * x + sb * y) <= b[2] / 2 and abs(-sb * x + cb * y) <= b[3] / 2
        inter = a[2] * a[3] * hits / n
        assert bev_iou(a, b) == pytest.approx(inter / (a[2] * a[3] + b[2] * b[3] - inter), abs=0.02)


def _record(cx, cy, yaw, score, l=4.0, w=2.0):
    return (cx, cy, 0.0, l, w, 1.5, yaw, score)


def _greedy(cands, iou_thr, score_thr):
    order = sorted((i for i, c in enumerate(cands) if c[7] >= score_thr), key=lambda i: (-cands[i][7], i))
    kept = []
    for i in order:
        box = (cands[i][0], cands[i][1], cands[i][3], cands[i][4], cands[i][6])
        if all(bev_iou(box, (k[0], k[1], k[3], k[4], k[6])) <= iou_thr for k in kept):
            kept.append(cands[i])
    return kept


@pytest.fixture
def scene():
    rng = random.Random(3)
    cands = [
        _record(rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(-3, 3), rng.uniform(0.0, 1.0))
        for _ in range(60)
    ]
    return cands, _greedy(cands, 0.1, 0.3)


def test_nms_checker_accepts_greedy_result(scene):
    cands, kept = scene
    assert 3 < len(kept) < len(cands)
    assert check_greedy_nms(cands, kept, 0.1, 0.3) == []


def test_nms_checker_rejects_each_violation(scene):
    cands, kept = scene
    below = next(c for c in cands if c[7] < 0.3)
    assert check_greedy_nms(cands, kept + [below], 0.1, 0.3)  # 1: not eligible
    assert check_greedy_nms(cands, kept[1:] + kept[:1], 0.1, 0.3)  # 2: order
    dropped = [c for c in cands if c[7] >= 0.3 and c not in kept]
    merged = sorted(kept + dropped[:1], key=lambda c: -c[7])
    assert check_greedy_nms(cands, merged, 0.1, 0.3)  # 3: overlapping pair kept
    assert check_greedy_nms(cands, kept[:-1], 0.1, 0.3)  # 4: a box dropped without cause


def test_nms_checker_leaves_threshold_ties_undecided():
    a = _record(0.0, 0.0, 0.0, 0.9)
    b = _record(2.0, 0.0, 0.0, 0.8)  # IoU 4 / 12
    assert check_greedy_nms([a, b], [a], 1.0 / 3.0, 0.3) == []
    assert check_greedy_nms([a, b], [a, b], 1.0 / 3.0, 0.3) == []


def test_average_precision_closed_cases():
    gts = [(0.0, 0.0, 4.0, 2.0, 0.0), (10.0, 0.0, 4.0, 2.0, 0.0)]
    assert average_precision([(g, 0.9) for g in gts], gts, 0.7) == pytest.approx(1.0)
    assert average_precision([], gts, 0.7) == 0.0
    # One hit then one miss: recall 1/2 at precision 1, nothing beyond.
    dets = [(gts[0], 0.9), ((20.0, 0.0, 4.0, 2.0, 0.0), 0.8)]
    assert average_precision(dets, gts, 0.7) == pytest.approx(0.5)
    # A false positive ranked first: precision 1/2 at recall 1/2.
    dets = [((20.0, 0.0, 4.0, 2.0, 0.0), 0.95), (gts[1], 0.9)]
    assert average_precision(dets, gts, 0.7) == pytest.approx(0.25)
    assert average_precision(dets, gts, 0.7, n_levels=11) == pytest.approx(5 * 0.5 / 11)
