"""Detection metrics: matched precision/recall curves, interpolated AP,
and the composite score that blends mean AP with true-positive errors.

Matching is greedy in confidence order: each detection claims its best
still-unmatched ground truth among those passing the matcher, ground
truths match at most once, and a precision/recall point is emitted after
every detection.  AP averages, over a fixed recall schedule, the best
precision achieved at or beyond each level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .geom import footprints_reach, rotated_iou_bev
from .scene import Box3D


@dataclass(frozen=True)
class RecallSchedule:
    """Evenly spaced recall levels from ``q0`` to ``q1`` inclusive."""

    n_levels: int
    q0: float
    q1: float

    def __post_init__(self) -> None:
        if self.n_levels < 2:
            raise ValueError("a schedule needs at least two levels")
        if not 0.0 <= self.q0 < self.q1 <= 1.0:
            raise ValueError("recall endpoints must satisfy 0 <= q0 < q1 <= 1")

    @cached_property
    def levels(self) -> tuple[float, ...]:
        """Each level correctly rounded from its exact rational value, so
        that 0.3 on the eleven-level schedule is the float 0.3 and a
        recall of exactly 3/10 reaches it.  Computed once per schedule."""
        q0, q1 = Fraction(self.q0), Fraction(self.q1)
        last = self.n_levels - 1
        return tuple(float(q0 + (q1 - q0) * i / last) for i in range(self.n_levels))

    @classmethod
    def s11(cls) -> "RecallSchedule":
        """Eleven levels 0, 0.1, ..., 1."""
        return cls(11, 0.0, 1.0)

    @classmethod
    def s40(cls) -> "RecallSchedule":
        """Forty levels 1/40, 2/40, ..., 1."""
        return cls(40, 1.0 / 40.0, 1.0)


class BevIouMatcher:
    """Detections match ground truth at rotated BEV IoU >= threshold.

    Cost: a pair failing :func:`graphdet.geom.footprints_reach` (the
    inclusive reach test :func:`graphdet.geom.nms` uses) is rejected before
    any IoU is computed: its footprints are disjoint, with IoU 0, below
    every admissible threshold.  On a frame of scattered detections almost
    every pair is such a pair, so matching costs a few exact IoUs instead
    of one per pair.
    """

    def __init__(self, iou_threshold: float):
        if not 0.0 < iou_threshold <= 1.0:
            raise ValueError("iou_threshold must lie in (0, 1]")
        self.iou_threshold = iou_threshold

    def quality(self, det: Box3D, gt: Box3D) -> float | None:
        """Match quality (higher is better), or None when no match."""
        if not footprints_reach(det, gt):
            return None
        iou = rotated_iou_bev(det, gt)
        return iou if iou >= self.iou_threshold else None


class CenterDistanceMatcher:
    """Detections match ground truth at BEV centre distance < limit."""

    def __init__(self, max_distance: float):
        if max_distance <= 0:
            raise ValueError("max_distance must be positive")
        self.max_distance = max_distance

    def quality(self, det: Box3D, gt: Box3D) -> float | None:
        dist = math.hypot(
            det.center[0] - gt.center[0], det.center[1] - gt.center[1]
        )
        return -dist if dist < self.max_distance else None


def precision_recall(
    detections: Sequence[Box3D],
    gt_boxes: Sequence[Box3D],
    matcher,
) -> list[tuple[float, float]]:
    """Greedy matched precision/recall points, one per detection.

    Detections are visited by descending score (ties by input index) and
    take their best-quality unmatched ground truth; a detection with no
    admissible ground truth counts as a false positive.  With no
    detections the curve is empty.
    """
    for i, det in enumerate(detections):
        if det.score is None:
            raise ValueError(f"detection {i} has no score")
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    matched = [False] * len(gt_boxes)
    n_gt = len(gt_boxes)
    curve: list[tuple[float, float]] = []
    tp = fp = 0
    for i in order:
        det = detections[i]
        best_quality = None
        best_gt = -1
        for g, gt in enumerate(gt_boxes):
            if matched[g]:
                continue
            quality = matcher.quality(det, gt)
            if quality is None:
                continue
            if best_quality is None or quality > best_quality:
                best_quality = quality
                best_gt = g
        if best_gt >= 0:
            matched[best_gt] = True
            tp += 1
        else:
            fp += 1
        precision = tp / (tp + fp)
        recall = tp / n_gt if n_gt else 0.0
        curve.append((precision, recall))
    return curve


def interpolated_ap(
    pr_curve: Sequence[tuple[float, float]], schedule: RecallSchedule
) -> float:
    """Average, over the schedule, of the max precision at recall >= level.

    Levels beyond the curve's reach contribute zero; an empty curve gives
    AP zero.
    """
    total = 0.0
    for level in schedule.levels:
        best = 0.0
        for precision, recall in pr_curve:
            if recall >= level and precision > best:
                best = precision
        total += best
    return total / schedule.n_levels


@dataclass(frozen=True)
class ErrorBundle:
    """Mean AP plus the five averaged true-positive error terms."""

    m_ap: float
    m_ate: float  # translation error
    m_ase: float  # scale error
    m_aoe: float  # orientation error
    m_ave: float  # velocity error
    m_aae: float  # attribute error

    def __post_init__(self) -> None:
        if not 0.0 <= self.m_ap <= 1.0:
            raise ValueError("m_ap must lie in [0, 1]")
        for name in ("m_ate", "m_ase", "m_aoe", "m_ave", "m_aae"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


def nds(bundle: ErrorBundle) -> float:
    """Composite detection score in [0, 1].

    One tenth of (five times mean AP plus the sum over error terms of
    ``1 - min(1, error)``); errors at or above one contribute nothing.
    """
    errors = (bundle.m_ate, bundle.m_ase, bundle.m_aoe, bundle.m_ave, bundle.m_aae)
    total = 5.0 * bundle.m_ap
    for err in errors:
        total += 1.0 - min(1.0, err)
    return total / 10.0


def mean_ap_distance(
    detections: Sequence[Box3D],
    gt_boxes: Sequence[Box3D],
    distances: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
) -> float:
    """Mean AP over centre-distance matchers on the 40-level schedule."""
    schedule = RecallSchedule.s40()
    total = 0.0
    for dist in distances:
        curve = precision_recall(detections, gt_boxes, CenterDistanceMatcher(dist))
        total += interpolated_ap(curve, schedule)
    return total / len(distances)
