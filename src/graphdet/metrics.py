"""Detection metrics: matched precision/recall curves, interpolated AP,
and the composite score that blends mean AP with true-positive errors.

Matching is greedy in confidence order: each detection claims its best
still-unmatched ground truth among those passing the matcher, ground
truths match at most once, and a precision/recall point is emitted after
every detection.  A matcher scores all (detection, ground truth) pairs in
one quality matrix.  AP averages, over a fixed recall schedule, the best
precision achieved at or beyond each level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .geom import pairwise_bev_iou
from .scene import Box3D, BoxArray


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
    @cache
    def s11(cls) -> "RecallSchedule":
        """Eleven levels 0, 0.1, ..., 1: one shared instance, built on
        first use, so its levels are computed once per process."""
        return cls(11, 0.0, 1.0)

    @classmethod
    @cache
    def s40(cls) -> "RecallSchedule":
        """Forty levels 1/40, 2/40, ..., 1: one shared instance, built on
        first use."""
        return cls(40, 1.0 / 40.0, 1.0)


class BevIouMatcher:
    """Detections match ground truth at rotated BEV IoU >= threshold.

    Cost: one :func:`graphdet.geom.pairwise_bev_iou` call, which computes
    exact IoUs only for the pairs whose footprints can reach: every other
    pair has IoU 0, below every admissible threshold.  On a frame of
    scattered detections almost every pair is such a pair.
    """

    def __init__(self, iou_threshold: float):
        if not 0.0 < iou_threshold <= 1.0:
            raise ValueError("iou_threshold must lie in (0, 1]")
        self.iou_threshold = iou_threshold

    def quality_matrix(self, dets: BoxArray, gts: BoxArray) -> np.ndarray:
        """IoU of each (detection, ground truth) pair, NaN below the threshold."""
        iou = pairwise_bev_iou(dets, gts)
        return np.where(iou >= self.iou_threshold, iou, np.nan)


class CenterDistanceMatcher:
    """Detections match ground truth at BEV centre distance < limit."""

    def __init__(self, max_distance: float):
        if max_distance <= 0:
            raise ValueError("max_distance must be positive")
        self.max_distance = max_distance

    def quality_matrix(self, dets: BoxArray, gts: BoxArray) -> np.ndarray:
        """Negated centre distance (``math.hypot``) of each (detection,
        ground truth) pair, NaN at or beyond the limit."""
        dx = dets.params[:, None, 0] - gts.params[None, :, 0]
        dy = dets.params[:, None, 1] - gts.params[None, :, 1]
        dist = np.array(list(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist())), dtype=float)
        dist = dist.reshape(dx.shape)
        return np.where(dist < self.max_distance, -dist, np.nan)


def precision_recall(
    detections: Sequence[Box3D],
    gt_boxes: Sequence[Box3D],
    matcher,
) -> list[tuple[float, float]]:
    """Greedy matched precision/recall points, one per detection.

    Detections are visited by descending score (ties by input index) and
    take their best-quality unmatched ground truth (ties by lower index);
    a detection with no admissible ground truth counts as a false
    positive.  With no detections the curve is empty.

    Cost: one quality matrix from the matcher; the greedy pass then reads
    only each detection's admissible ground truths.
    """
    dets, gts = BoxArray.of(detections), BoxArray.of(gt_boxes)
    missing = np.flatnonzero(np.isnan(dets.scores))
    if len(missing):
        raise ValueError(f"detection {missing[0]} has no score")
    quality = matcher.quality_matrix(dets, gts)
    admissible: dict[int, list[tuple[int, float]]] = {}
    det_idx, gt_idx = np.nonzero(~np.isnan(quality))  # by detection, then ground truth
    for d, g, q in zip(det_idx.tolist(), gt_idx.tolist(), quality[det_idx, gt_idx].tolist()):
        admissible.setdefault(d, []).append((g, q))
    order = np.lexsort((np.arange(len(dets)), -dets.scores)).tolist()
    n_gt = len(gts)
    matched = [False] * n_gt
    curve: list[tuple[float, float]] = []
    tp = fp = 0
    for i in order:
        best_quality = None
        best_gt = -1
        for g, quality_g in admissible.get(i, ()):
            if not matched[g] and (best_quality is None or quality_g > best_quality):
                best_quality = quality_g
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
    AP zero.  Recall must not decrease along the curve, as in
    :func:`precision_recall`'s curves.  The points at or beyond a level
    are then a suffix of the curve, found by one ``searchsorted``, whose
    best precision a reverse running maximum holds.  The levels' maxima
    are added one after another (``cumsum``), as a loop over them adds.
    """
    curve = np.array(pr_curve, dtype=float).reshape(-1, 2)
    best = np.append(np.maximum.accumulate(curve[::-1, 0])[::-1], 0.0)
    per_level = best[np.searchsorted(curve[:, 1], schedule.levels)]
    return float(np.cumsum(per_level)[-1]) / schedule.n_levels


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
