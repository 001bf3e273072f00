"""Headline acceptance checks for the whole package.

Each test exercises one end-to-end guarantee, prints a single
``[PASS]``/``[FAIL]`` line with the measured numbers, and asserts both the
stated tolerance and a wall-clock budget.  Run with::

    pytest tests/test_acceptance.py -v -s

to see the summary lines as they complete.  The suite needs no fixtures or
network access; every instance is generated from fixed seeds.
"""

import copy
import math
import time

import numpy as np

from graphdet.geom import (
    AnchorConfig,
    IGNORE,
    NEGATIVE,
    POSITIVE,
    generate_anchors,
    match_anchors,
    nms,
    rotated_iou_bev,
)
from graphdet.gnn import GraphUpdater, build_graph, update
from graphdet.gradcheck import run_all
from graphdet.interp import farthest_point_sample
from graphdet.metrics import (
    CenterDistanceMatcher,
    ErrorBundle,
    RecallSchedule,
    interpolated_ap,
    nds,
    precision_recall,
)
from graphdet.nnet import bind_flat_params
from graphdet.pipeline import (
    GnnPipelineConfig,
    PipelineConfig,
    ProposalConfig,
    TrainPipelineConfig,
    run_pipeline,
    train_smoke,
)
from graphdet.scene import Box3D, BoxArray, CAR_DIMS, PointCloud
from graphdet.voxel import VoxelizationConfig, voxelize

from oracles import (
    aligned_iou_bev,
    brute_fps,
    brute_match_anchors,
    brute_nms,
    brute_pr_curve,
    brute_radius_graph,
    center_distance_quality,
    loop_rotated_iou_bev,
    max_scan_ap,
    mc_iou_bev,
    random_box,
)


def _verdict(number: int, label: str, ok: bool, detail: str, t0: float, budget: float):
    """Print the one-line summary for a criterion, then assert it."""
    elapsed = time.perf_counter() - t0
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[{status}] criterion {number} ({label}): {detail} "
          f"[{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number} ({label}) failed: {detail}"
    assert in_budget, f"criterion {number} took {elapsed:.2f}s, budget {budget:.0f}s"


# ---------------------------------------------------------------------------
# 1. composite detection score reproduction


def test_criterion_1_composite_score_reproduction():
    t0 = time.perf_counter()
    bundle = ErrorBundle(0.4765, 0.30, 0.27, 0.34, 0.41, 0.18)
    score = 100.0 * nds(bundle)
    perfect = nds(ErrorBundle(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    ok = 58.69 <= score <= 58.99 and perfect == 1.0
    _verdict(1, "composite score", ok,
             f"score {score:.3f} in [58.69, 58.99], perfect bundle -> {perfect}",
             t0, 5.0)


# ---------------------------------------------------------------------------
# 2. interpolated AP identical to an exhaustive scan


def test_criterion_2_interpolated_ap_matches_exhaustive_scan():
    t0 = time.perf_counter()
    s11, s40 = RecallSchedule.s11(), RecallSchedule.s40()
    matcher = CenterDistanceMatcher(2.0)
    instances = 1000
    exact = 0
    for trial in range(instances):
        rng = np.random.default_rng(20_000 + trial)
        dets = [random_box(rng, spread=8.0, score=True)
                for _ in range(int(rng.integers(0, 26)))]
        gts = [random_box(rng, spread=8.0)
               for _ in range(int(rng.integers(1, 9)))]
        curve = precision_recall(dets, gts, matcher)
        assert curve == brute_pr_curve(dets, gts, center_distance_quality(2.0))
        ap11 = interpolated_ap(curve, s11)
        ap40 = interpolated_ap(curve, s40)
        assert ap11 == max_scan_ap(curve, list(s11.levels))
        assert ap40 == max_scan_ap(curve, list(s40.levels))
        exact += 1
    ok = exact == instances
    _verdict(2, "AP vs exhaustive scan", ok,
             f"{exact}/{instances} instances bit-exact on both schedules",
             t0, 5.0)


# ---------------------------------------------------------------------------
# 3. rotated IoU against closed form and Monte Carlo


def test_criterion_3_rotated_iou_closed_form_and_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(30_000)
    yaws = [0.0, math.pi / 2, math.pi, -math.pi / 2]
    worst_aligned = 0.0
    for _ in range(50):
        a = Box3D((*rng.uniform(-4, 4, 2), 0.0),
                  (*rng.uniform(1, 5, 2), 1.5), yaws[rng.integers(4)])
        b = Box3D((*rng.uniform(-4, 4, 2), 0.0),
                  (*rng.uniform(1, 5, 2), 1.5), yaws[rng.integers(4)])
        worst_aligned = max(worst_aligned,
                            abs(rotated_iou_bev(a, b) - aligned_iou_bev(a, b)))
    worst_mc = 0.0
    for trial in range(200):
        a = random_box(rng, spread=1.5)
        b = random_box(rng, spread=1.5)
        estimate = mc_iou_bev(a, b, 1_000_000, seed=trial)
        worst_mc = max(worst_mc, abs(rotated_iou_bev(a, b) - estimate))
    ok = worst_aligned <= 1e-12 and worst_mc <= 1e-2
    _verdict(3, "rotated IoU", ok,
             f"50 aligned pairs worst |d| {worst_aligned:.1e} <= 1e-12, "
             f"200 Monte Carlo pairs worst |d| {worst_mc:.1e} <= 1e-2",
             t0, 30.0)


# ---------------------------------------------------------------------------
# 4. analytic gradients against central differences


def test_criterion_4_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    worst_name = ""
    n_checks = 0
    for seed in range(100):
        for name, err in run_all(seed).items():
            n_checks += 1
            if err > worst:
                worst, worst_name = err, name
    ok = worst < 1e-4
    _verdict(4, "gradient suite", ok,
             f"{n_checks} checks over 100 seeds, worst rel err "
             f"{worst:.3e} ({worst_name}) < 1e-4",
             t0, 60.0)


# ---------------------------------------------------------------------------
# 5. refinement update invariants


def _lattice_boxes(coords):
    return BoxArray.of([Box3D(tuple(c), (1.5, 1.5, 1.5), 0.0) for c in coords])


def test_criterion_5_refinement_invariants():
    t0 = time.perf_counter()
    dim, hidden, radius = 6, 5, 2.0
    n_graphs = 200
    worst_perm = 0.0
    locality_checked = 0
    for g in range(n_graphs):
        rng = np.random.default_rng(50_000 + g)
        depth = 1 + g % 3
        if g % 5 == 0:
            # chain of nodes 1.5 m apart: adjacency is exactly i-1, i, i+1
            n = depth + 4
            coords = np.stack([np.array([1.5 * i, 0.0, 0.0]) for i in range(n)])
        else:
            n = int(rng.integers(2, 13))
            coords = rng.integers(-40, 41, size=(n, 3)) * 0.25
        states = rng.standard_normal((n, dim))
        boxes = _lattice_boxes(coords)
        graph = build_graph(boxes, states, radius=radius)
        updater = GraphUpdater.seeded(dim, hidden, depth, seed=900 + g)
        base, _ = update(graph, updater)

        # depth zero is the identity
        idle = GraphUpdater.seeded(dim, hidden, 0, seed=900 + g)
        assert np.array_equal(update(graph, idle)[0], states)

        # zeroed fusion stacks contribute nothing, whatever the depth
        muted = copy.deepcopy(updater)
        bind_flat_params(muted.fus_stacks)[:] = 0.0
        assert np.array_equal(update(graph, muted)[0], states)

        # node order is bookkeeping: permuting inputs permutes outputs
        perm = rng.permutation(n)
        shuffled = build_graph(boxes.take(perm), states[perm], radius=radius)
        out_perm, _ = update(shuffled, updater)
        worst_perm = max(worst_perm, float(np.max(np.abs(out_perm - base[perm]))))

        # integer translations of lattice coordinates change nothing at all
        shift = rng.integers(-20, 21, size=3).astype(float)
        moved_graph = build_graph(_lattice_boxes(coords + shift), states, radius=radius)
        assert list(moved_graph.adjacency) == list(graph.adjacency)
        assert np.array_equal(update(moved_graph, updater)[0], base)

        # information travels one hop per iteration: on a chain, a bump at
        # graph distance depth+1 cannot reach the head nodes
        if g % 5 == 0:
            bumped = states.copy()
            bumped[-1] += 10.0
            out_b, _ = update(build_graph(boxes, bumped, radius=radius), updater)
            quiet = n - 1 - depth  # rows further than `depth` hops from the bump
            assert np.array_equal(out_b[:quiet], base[:quiet])
            assert not np.array_equal(out_b, base)
            locality_checked += 1
    ok = worst_perm <= 1e-12 and locality_checked == n_graphs // 5
    _verdict(5, "refinement invariants", ok,
             f"{n_graphs} graphs: identity/zero-fusion/translation/locality "
             f"exact, permutation worst |d| {worst_perm:.1e} <= 1e-12",
             t0, 30.0)


# ---------------------------------------------------------------------------
# 6. combinatorial kernels against exhaustive oracles


def test_criterion_6_combinatorial_kernels_match_oracles():
    t0 = time.perf_counter()
    trials = 100

    for trial in range(trials):
        rng = np.random.default_rng(60_000 + trial)
        n = int(rng.integers(1, 41))
        centres = rng.uniform(-8.0, 8.0, size=(n, 3))
        radius = float(rng.uniform(0.5, 6.0))
        boxes = BoxArray.of([Box3D(tuple(c), CAR_DIMS, 0.0) for c in centres])
        graph = build_graph(boxes, np.zeros((n, 2)), radius=radius)
        assert list(graph.adjacency) == brute_radius_graph(centres, radius)

    for trial in range(trials):
        rng = np.random.default_rng(61_000 + trial)
        boxes = [random_box(rng, spread=6.0, score=True)
                 for _ in range(int(rng.integers(1, 41)))]
        assert list(nms(boxes, 0.3, 0.2)) == brute_nms(boxes, loop_rotated_iou_bev, 0.3, 0.2)

    for trial in range(trials):
        rng = np.random.default_rng(62_000 + trial)
        n = int(rng.integers(1, 65))
        pts = rng.uniform(-5.0, 5.0, size=(n, 3))
        k = int(rng.integers(1, n + 1))
        assert farthest_point_sample(pts, k) == brute_fps(pts, k)

    config = AnchorConfig(bev_resolution=(4, 5), yaws=(0.0, math.pi / 2),
                          pos_iou=0.35, neg_iou=0.2)
    anchors = generate_anchors(config, ((0.0, 20.0), (0.0, 16.0), (-2.0, 2.0)))
    for trial in range(trials):
        rng = np.random.default_rng(63_000 + trial)
        gts = [Box3D((rng.uniform(1, 19), rng.uniform(1, 15), -1.0),
                     tuple(rng.uniform(1.2, 4.5, size=3)),
                     float(rng.uniform(-math.pi, math.pi)))
               for _ in range(int(rng.integers(1, 4)))]
        got = match_anchors(anchors, gts, config)
        labels, gt_idx = brute_match_anchors(
            anchors, gts, config.pos_iou, config.neg_iou, loop_rotated_iou_bev)
        want = np.where(labels == -1, IGNORE,
                        np.where(labels == 1, POSITIVE, NEGATIVE))
        assert np.array_equal(got.labels, want)
        assert np.array_equal(got.gt_indices, gt_idx)

    _verdict(6, "combinatorial kernels", True,
             f"radius graph / NMS / FPS / anchor matching: {trials} exact each",
             t0, 30.0)


# ---------------------------------------------------------------------------
# 7. voxelization quantization and conservation


def test_criterion_7_voxelization_bounds():
    t0 = time.perf_counter()
    default = VoxelizationConfig()
    ok_res = default.resolution == (1408, 1600, 40)

    bounds = ((-4.0, 4.0), (-4.0, 4.0), (-2.0, 2.0))
    worst_ratio = 0.0
    conserved = 0
    clouds = 100
    for trial in range(clouds):
        rng = np.random.default_rng(70_000 + trial)
        step = tuple(rng.uniform(0.1, 0.8, size=3))
        config = VoxelizationConfig(step=step, max_points_per_voxel=None,
                                    range_bounds=bounds)
        n = int(rng.integers(1, 301))
        xyz = np.column_stack([rng.uniform(lo, hi, size=n) for lo, hi in bounds])
        cloud = PointCloud(np.column_stack([xyz, rng.uniform(0, 1, size=n)]))
        grid = voxelize(cloud, config)
        if grid.counts.sum() == n:
            conserved += 1
        half = np.asarray(step) / 2.0
        worst_ratio = max(worst_ratio, float(np.max(
            np.abs(grid.features[:, :3] - grid.centres) / half)))
    ok = ok_res and conserved == clouds and worst_ratio <= 1.0 + 1e-9
    _verdict(7, "voxelization", ok,
             f"default grid {default.resolution}, {conserved}/{clouds} clouds "
             f"conserve points, centroid offset <= {worst_ratio:.4f} half-steps",
             t0, 10.0)


# ---------------------------------------------------------------------------
# 8. end-to-end pipeline behaviour


def test_criterion_8_end_to_end_pipeline():
    t0 = time.perf_counter()
    passthrough = PipelineConfig(
        proposals=ProposalConfig(center_noise=0.0, yaw_noise=0.0),
        gnn=GnnPipelineConfig(depth=0, header_init="zero"),
        train=TrainPipelineConfig(steps=0),
    )
    _, clean = run_pipeline(passthrough)
    ok_pass = (clean["ap_s11"] == 1.0 and clean["ap_s40"] == 1.0
               and clean["holdout_ap_s40"] == 1.0)

    history = train_smoke(PipelineConfig(), 500)
    drop = (history[0] - history[-1]) / history[0]
    ok_train = len(history) == 501 and drop >= 0.90

    _, refined = run_pipeline(PipelineConfig())
    _, baseline = run_pipeline(PipelineConfig(gnn=GnnPipelineConfig(depth=0)))
    ok_refine = refined["ap_s40"] > baseline["ap_s40"]

    ok = ok_pass and ok_train and ok_refine
    _verdict(8, "end to end", ok,
             f"noise-free passthrough AP {clean['ap_s40']:.1f}, "
             f"loss drop {drop:.1%} over 500 steps, "
             f"refined AP {refined['ap_s40']:.3f} > depth-0 {baseline['ap_s40']:.3f}",
             t0, 120.0)
