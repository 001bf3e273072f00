"""One workload of the graphdet benchmark, run in a process of its own.

``run.py`` starts this file once per set-up sample and once for the
measured run.  Every workload is one closed-loop caller repeating whole
rounds of the same three user operations, each starting when the previous
one ends:

* ``pipeline``: ``run_pipeline(config)`` for each of the workload's fixed
  scene seeds;
* ``train``: ``train_smoke(config)`` and ``train_smoke(config, steps=0)``
  on the default scene with the workload's step count, whose difference
  cancels world building;
* ``frame``: ``graphdet nms`` then ``graphdet eval-ap`` (in-process
  ``graphdet.cli.main``) on pre-NMS detection files made at set-up from
  ``--seed``.

The workloads scale different inputs, so each stresses other layers (see
README.md).  Every output is checked against ``reference.py``, and every
round must reproduce the first round's outputs exactly.  End-to-end times
are scaled by a calibration kernel timed around and during each operation
(see ``CAL_REF_S``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from tracer import Tracer

NMS_IOU = 0.1
NMS_SCORE = 0.3
AP_IOU = 0.7
AP_PRINT_TOL = 5e-7  # eval-ap prints six decimals
RANGE_X = (0.0, 70.4)  # the default pipeline range, KITTI's
RANGE_Y = (-40.0, 40.0)
CAR = (3.9, 1.6, 1.56)


DESK_SCENE = (4, 160, 80)  # n_objects, points_per_object, clutter_points of the default config


@dataclass(frozen=True)
class Spec:
    """Inputs of one workload."""

    scene: tuple[int, int, int]  # scene of the pipeline configs
    steps: int  # training steps of the pipeline configs and of the train pair
    seeds: tuple[int, ...]  # fixed, so holdout AP is a deterministic quality guard
    train_repeats: int
    frames: int
    gt_per_frame: int
    boxes_per_gt: int
    false_positives: int


# Every workload runs all three operation kinds, so that every end-to-end
# metric exists on every workload; each scales the inputs of the layers
# it is meant to stress and keeps the other operations small.  The train
# pair always uses the default scene: on a 4k-point scene the world built
# inside train_smoke costs more than a short training run, and the
# difference of the two calls would be mostly timing noise.
SPECS = {
    # The default run-pipeline config: 500 SGD steps dominate.
    "desk-train": Spec(DESK_SCENE, 500, (0, 1, 2), 2, 8, 4, 50, 400),
    # ~4k in-range points and a short training run: world building dominates.
    "dense-scene": Spec((10, 300, 1000), 100, (0, 1), 4, 8, 4, 50, 400),
    # Pre-NMS dumps of ~3.3k boxes per frame; the pipeline side is kept small.
    "eval-dump": Spec(DESK_SCENE, 100, (0, 1, 2), 2, 4, 12, 150, 1500),
}

# Per-layer metric -> the operation kind it is counted over.  Each feeds
# the end-to-end metric of that kind: pipeline -> pipeline_s,
# train -> train_step_ms (one train_smoke(config) call), frame -> eval_frame_s.
PER_LAYER_KIND = {
    "scene.generate_synthetic_scene.calls": "pipeline",
    "scene.generate_synthetic_scene.s": "pipeline",
    "scene.read_detections.s": "frame",
    "scene.write_detections.s": "frame",
    "voxel.voxelize.s": "pipeline",
    "voxel.voxelize.peak_mb": "pipeline",
    "interp.propagate_features.s": "pipeline",
    "interp.propagate_features.peak_mb": "pipeline",
    "interp.set_abstraction.s": "pipeline",
    "interp.farthest_point_sample.s": "pipeline",
    "interp.sample_bev_point.calls": "pipeline",
    "interp.sample_bev_point.s": "pipeline",
    "interp.sample_bev_grid.s": "pipeline",
    "rfa.point_pyramid.s": "pipeline",
    "rfa.voxel_feature_set.s": "pipeline",
    "rfa.synthetic_bev_map.s": "pipeline",
    "rfa.auxiliary_targets.s": "pipeline",
    "geom.generate_anchors.s": "pipeline",
    "geom.match_anchors.s": "pipeline",
    "geom.nms.s": "frame",
    "geom.rotated_iou_bev.calls": "frame",
    "geom.rotated_iou_bev.s": "frame",
    "geom.rotated_iou_bev.overlap_ratio": "frame",
    "gnn.update_forward.s": "train",
    "gnn.update_backward.s": "train",
    "gnn.header.s": "train",
    "gnn.build_graph.s": "pipeline",
    "gnn.build_graph.edges": "pipeline",
    "nnet.DenseStack.forward.s": "train",
    "nnet.DenseStack.forward.calls": "train",
    "nnet.DenseStack.backward.s": "train",
    "nnet.DenseStack.backward.calls": "train",
    "nnet.DenseStack.sgd_step.s": "train",
    "nnet.losses.s": "train",
    "metrics.precision_recall.s": "frame",
    "metrics.interpolated_ap.s": "frame",
    "pipeline.run_pipeline.self_s": "pipeline",
    "pipeline.train_smoke.self_s": "train",
    "cli.main.self_s": "frame",
}


class CheckFailed(Exception):
    """An output disagrees with the reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Inputs


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def make_frame(rng: np.random.Generator, spec: Spec) -> tuple[np.ndarray, np.ndarray]:
    """One frame: ground truth (g, 7) and scored pre-NMS boxes (n, 8).

    Ground-truth cars sit one per 10 m cell of a random set of cells, so
    they never overlap.  Each has ``boxes_per_gt`` jittered detections
    whose score falls with the centre error; ``false_positives`` boxes are
    scattered over the range with lower scores.
    """
    cells = rng.choice(7 * 8, size=spec.gt_per_frame, replace=False)
    cx = RANGE_X[0] + 10.0 * (cells % 7) + 5.0 + rng.uniform(-2.5, 2.5, spec.gt_per_frame)
    cy = RANGE_Y[0] + 10.0 * (cells // 7) + 5.0 + rng.uniform(-2.5, 2.5, spec.gt_per_frame)
    gt = np.column_stack(
        [
            cx,
            cy,
            rng.uniform(-1.2, -0.8, spec.gt_per_frame),
            np.tile(CAR, (spec.gt_per_frame, 1)),
            rng.uniform(-math.pi, math.pi, spec.gt_per_frame),
        ]
    )

    def jitter_dims(n: int) -> np.ndarray:
        return np.asarray(CAR) * np.exp(rng.normal(0.0, 0.05, size=(n, 3)))

    k = spec.boxes_per_gt
    src = np.repeat(gt, k, axis=0)
    off = rng.normal(0.0, 0.6, size=(len(src), 2))
    near = np.column_stack(
        [
            src[:, 0] + off[:, 0],
            src[:, 1] + off[:, 1],
            src[:, 2] + rng.normal(0.0, 0.1, len(src)),
            jitter_dims(len(src)),
            _wrap_angle(src[:, 6] + rng.normal(0.0, 0.2, len(src))),
            np.clip(
                0.95 * np.exp(-(off**2).sum(axis=1)) * rng.uniform(0.8, 1.0, len(src)),
                1e-4,
                0.9999,
            ),
        ]
    )
    n_fp = spec.false_positives
    far = np.column_stack(
        [
            rng.uniform(RANGE_X[0] + 2.0, RANGE_X[1] - 2.0, n_fp),
            rng.uniform(RANGE_Y[0] + 2.0, RANGE_Y[1] - 2.0, n_fp),
            rng.uniform(-1.2, -0.8, n_fp),
            jitter_dims(n_fp),
            rng.uniform(-math.pi, math.pi, n_fp),
            rng.uniform(1e-4, 0.8, n_fp),
        ]
    )
    dets = np.vstack([near, far])
    return gt, dets[rng.permutation(len(dets))]


def write_boxes(path: Path, rows: np.ndarray) -> None:
    """Write ``class cx cy cz l w h yaw [score]`` lines with round-trip floats."""
    path.write_text("".join("Car " + " ".join(repr(float(v)) for v in row) + "\n" for row in rows))


def read_boxes(path: Path) -> list[tuple[float, ...]]:
    return [tuple(float(t) for t in line.split()[1:]) for line in path.read_text().splitlines() if line]


def _bev(record) -> tuple[float, float, float, float, float]:
    return (record[0], record[1], record[3], record[4], record[6])


@dataclass
class Frame:
    dets: Path
    gts: Path
    kept: Path
    candidates: list[tuple[float, ...]]
    ground_truth: list[tuple[float, ...]]


@dataclass
class Context:
    spec: Spec
    configs: list  # PipelineConfig per seed
    gt_main: list  # reference boxes of each seed's main scene
    train_config: object  # PipelineConfig of the train pair
    frames: list[Frame]


def set_up(name: str, seed: int, work: Path) -> Context:
    """Build configs, regenerate ground truth, write the frame files."""
    from graphdet.pipeline import PipelineConfig, SceneConfig, TrainPipelineConfig
    from graphdet.scene import generate_synthetic_scene

    def pipeline_config(seed, scene, steps):
        n_objects, per_object, clutter = scene
        return PipelineConfig(
            seed=seed,
            scene=SceneConfig(n_objects=n_objects, points_per_object=per_object, clutter_points=clutter),
            train=TrainPipelineConfig(steps=steps),
        )

    spec = SPECS[name]
    n_objects, per_object, clutter = spec.scene
    configs, gt_main = [], []
    for s in spec.seeds:
        config = pipeline_config(s, spec.scene, spec.steps)
        scene = generate_synthetic_scene(
            s,
            n_objects,
            per_object,
            clutter,
            range_bounds=config.range_bounds,
            min_separation=config.scene.min_separation,
        )
        configs.append(config)
        gt_main.append([(*b.center[:2], *b.dims[:2], b.yaw) for b in scene.gt_boxes])

    frames = []
    for f in range(spec.frames):
        gt, dets = make_frame(np.random.default_rng([seed, f]), spec)
        frame = Frame(work / f"dets{f}.txt", work / f"gts{f}.txt", work / f"kept{f}.txt", [], [])
        write_boxes(frame.dets, dets)
        write_boxes(frame.gts, gt)
        frame.candidates = read_boxes(frame.dets)
        frame.ground_truth = [_bev(r) for r in read_boxes(frame.gts)]
        frames.append(frame)
    train_config = pipeline_config(spec.seeds[0], DESK_SCENE, spec.steps)
    return Context(spec, configs, gt_main, train_config, frames)


# ---------------------------------------------------------------------------
# Output checks


def _check_history(history: list[float], steps: int) -> None:
    _require(len(history) == steps + 1, f"loss history has {len(history)} entries, want {steps + 1}")
    _require(all(math.isfinite(v) for v in history), "loss history is not finite")
    _require(steps == 0 or history[-1] < history[0], "loss did not descend")


def check_pipeline(ctx: Context, index: int, output) -> None:
    config = ctx.configs[index]
    detections, report = output
    _check_history(report["loss_history"], config.train.steps)
    scores = [d.score for d in detections]
    _require(
        all(math.isfinite(v) for d in detections for v in (*d.center, *d.dims, d.yaw, d.score)),
        "non-finite detection",
    )
    _require(all(config.nms.score_threshold <= s <= 1.0 for s in scores), "score out of range")
    _require(all(a >= b for a, b in zip(scores, scores[1:])), "detections not in descending score order")
    _require(len(detections) <= report["n_proposals"], "more detections than proposals")
    boxes = [(*d.center[:2], *d.dims[:2], d.yaw) for d in detections]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            _require(
                reference.bev_iou(boxes[i], boxes[j]) <= config.nms.iou_threshold + 1e-9,
                f"detections {i} and {j} overlap beyond the NMS threshold",
            )
    ap = reference.average_precision(list(zip(boxes, scores)), ctx.gt_main[index], config.eval.ap_iou)
    _require(ap == report["ap_s40"], f"ap_s40 {report['ap_s40']} but the reference gives {ap}")


def check_train(ctx: Context, output) -> None:
    history, history0 = output
    _check_history(history, ctx.spec.steps)
    _check_history(history0, 0)
    _require(history0[0] == history[0], "zero-step loss differs from the initial loss")


def check_frame(frame: Frame, output) -> None:
    codes, printed = output
    _require(codes == (0, 0), f"graphdet exited with {codes}")
    kept = read_boxes(frame.kept)
    problems = reference.check_greedy_nms(frame.candidates, kept, NMS_IOU, NMS_SCORE)
    _require(not problems, "; ".join(problems[:3]))
    fields = printed.split()
    _require(len(fields) == 2 and fields[0] == "ap_s40", f"unexpected eval-ap output {printed!r}")
    ap = float(fields[1])
    expected = reference.average_precision([(_bev(r), r[7]) for r in kept], frame.ground_truth, AP_IOU)
    _require(abs(ap - expected) <= AP_PRINT_TOL, f"ap_s40 {ap} but the reference gives {expected}")


# ---------------------------------------------------------------------------
# Operations


def _frame_op(cli, frame: Frame):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        nms_code = cli.main(
            ["nms", "--input", str(frame.dets), "--iou-threshold", str(NMS_IOU),
             "--score-threshold", str(NMS_SCORE), "--output", str(frame.kept)]
        )
        ap_code = cli.main(
            ["eval-ap", "--dets", str(frame.kept), "--gts", str(frame.gts),
             "--threshold", str(AP_IOU), "--schedule", "s40"]
        )
    printed = out.getvalue().splitlines()[-1] if out.getvalue() else ""
    return (nms_code, ap_code), printed


def _detections_key(output):
    detections, report = output
    return [(d.center, d.dims, d.yaw, d.score, d.class_id) for d in detections], report


# Speed normalisation.  On a shared machine the speed of one core toggles
# between about 1x and 2x, in states lasting a few seconds, and the share of
# slow time drifts over minutes: far beyond any useful bound on a wall time.
# A fixed calibration kernel reads the current speed.  It is timed right
# before and after each operation and, from a SIGALRM handler, every
# PROBE_INTERVAL_S while the operation runs, so that a run_pipeline call
# (1 to 10 s) is sampled through every speed state it spans.  Each time is
# scaled to the speed at which the kernel takes CAL_REF_S: the wall time
# minus the probes' own time, times CAL_REF_S over the harmonic mean of the
# kernel timings (each timing stands for an equal stretch of wall time, so
# the work done is proportional to the mean speed).  Raw wall times are kept
# beside the scaled ones in the result file.
CAL_REF_S = 2.0e-3
PROBE_INTERVAL_S = 0.1
_CAL_CORNERS = np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])


def _calibration_kernel() -> float:
    """Fixed work in the program's mix: interpreter loops, float math, tiny arrays."""
    acc = 0.0
    boxes = {}
    for i in range(300):
        yaw = 0.01 * i
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s], [s, c]])
        corners = _CAL_CORNERS @ rot.T + (i, -i)
        boxes[i % 17] = (float(corners[0, 0]), float(corners[2, 1]), yaw)
        acc += math.hypot(*boxes[i % 17][:2])
    return acc


def calibrate(repeats: int = 5) -> float:
    """Fastest of ``repeats`` timings of the calibration kernel, in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedProbe:
    """Times the calibration kernel every PROBE_INTERVAL_S while an operation runs.

    Python runs the SIGALRM handler between bytecodes of the main thread,
    so it never interrupts the program inside a NumPy call and touches none
    of its state.  ``spent`` is the handler's own time, to be subtracted
    from the operation's.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate(repeats=2))
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def running(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True


def run_round(
    ctx: Context,
    span,
    tally: Tally,
    samples: dict,
    outputs: dict,
    probe: SpeedProbe | None = None,
    pipeline_only: bool = False,
) -> None:
    """One round of every operation; ``span(kind)`` brackets each timed call.

    Without a ``probe`` (the traced run, whose per-layer times it would
    inflate) the speed is read only before and after each operation.
    """
    from graphdet import cli, pipeline

    def timed(kind, key, fn, check, canonical=lambda output: output):
        """Run one operation; returns its (raw, scaled) wall time, or None if it raised.

        ``check`` raises CheckFailed on a wrong output; ``canonical`` maps the
        output to the value every later round must reproduce.
        """
        tally.attempted += 1
        before = calibrate()
        try:
            with span(kind):
                start = time.perf_counter()
                with probe.running() if probe else contextlib.nullcontext():
                    output = fn()
                elapsed = time.perf_counter() - start - (probe.spent if probe else 0.0)
        except Exception as exc:  # an operation that raises is a failed operation
            tally.failed += 1
            print(f"{key}: failed: {exc!r}", file=sys.stderr)
            return None
        speeds = [before, *(probe.samples if probe else ()), calibrate()]
        scaled = elapsed * CAL_REF_S * statistics.fmean(1.0 / k for k in speeds)
        sample = (elapsed, scaled)
        samples.setdefault(kind, []).append(sample)
        try:
            check(output)
            value = canonical(output)
            if key in outputs:
                _require(outputs[key] == value, "output differs from the first round's")
            else:
                outputs[key] = value
        except CheckFailed as exc:
            tally.correct = False
            print(f"{key}: check failed: {exc}", file=sys.stderr)
        return sample

    for i, config in enumerate(ctx.configs):
        timed(
            "pipeline",
            f"pipeline/{config.seed}",
            lambda: pipeline.run_pipeline(config),
            lambda out: check_pipeline(ctx, i, out),
            _detections_key,
        )
    if pipeline_only:
        return
    config = ctx.train_config
    for _ in range(ctx.spec.train_repeats):
        history: list = []
        full = timed("train", "train", lambda: pipeline.train_smoke(config), history.append)
        zero = timed("train0", "train0", lambda: pipeline.train_smoke(config, steps=0), history.append)
        if full is not None and zero is not None:
            try:
                check_train(ctx, history)
            except CheckFailed as exc:
                tally.correct = False
                print(f"train: check failed: {exc}", file=sys.stderr)
            steps = config.train.steps
            samples.setdefault("train_step", []).append(tuple((f - z) / steps for f, z in zip(full, zero)))
    for f, frame in enumerate(ctx.frames):
        timed(
            "frame",
            f"frame/{f}",
            lambda: _frame_op(cli, frame),
            lambda out: check_frame(frame, out),
            lambda out: (out, frame.kept.read_text()),
        )


def run_rounds(seconds: float, one_round) -> None:
    """Call ``one_round`` while the next call is expected to end within ``seconds`` (at least once)."""
    start = time.monotonic()
    while True:
        began = time.monotonic()
        one_round()
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            return


def _no_span(kind):
    return contextlib.nullcontext()


def _median(samples: dict, kind: str, scaled: bool = True) -> float:
    return statistics.median(sample[int(scaled)] for sample in samples[kind])


def end_to_end(ctx: Context, samples: dict, outputs: dict) -> dict:
    holdout = [outputs[f"pipeline/{c.seed}"][1]["holdout_ap_s40"] for c in ctx.configs]
    return {
        "pipeline_s": (_median(samples, "pipeline"), "s"),
        "train_step_ms": (1000.0 * _median(samples, "train_step"), "ms"),
        "eval_frame_s": (_median(samples, "frame"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "holdout_ap_s40": (statistics.fmean(holdout), "AP"),
    }


def per_layer(tracer: Tracer, memory: Tracer) -> dict:
    out = {}
    for name, kind in PER_LAYER_KIND.items():
        layer, counter = name.rsplit(".", 1)
        if counter == "peak_mb":
            out[name] = (memory.peak_mb(kind, layer), "MB")
        elif counter == "overlap_ratio":
            calls = tracer.per_op(kind, layer, "calls")
            out[name] = (tracer.per_op(kind, layer, "overlaps") / calls if calls else 0.0, "ratio")
        elif counter in ("calls", "edges"):
            out[name] = (tracer.per_op(kind, layer, counter), "count")
        else:
            out[name] = (tracer.per_op(kind, layer, "s"), "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    parser.add_argument("--work", required=True, help="scratch directory for this process's files")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True)
    try:
        ctx = set_up(args.workload, args.seed, work)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tally, samples, outputs = Tally(), {}, {}
        if not args.trace:
            probe = SpeedProbe()
            run_rounds(args.seconds, lambda: run_round(ctx, _no_span, tally, samples, outputs, probe))
            metrics = end_to_end(ctx, samples, outputs)
            info = {
                "raw_median_s": {kind: _median(samples, kind, scaled=False) for kind in samples},
                "samples": samples,
            }
        else:
            # Untraced and traced rounds alternate, the untraced first: every
            # traced output must equal the untraced one, and the two timings
            # give the tracing overhead.
            tracer = Tracer()
            traced_samples: dict = {}

            def pair():
                run_round(ctx, _no_span, tally, samples, outputs)
                with tracer.installed():
                    run_round(ctx, tracer.operation, tally, traced_samples, outputs)

            run_rounds(args.seconds, pair)
            untraced = _median(samples, "pipeline", scaled=False)
            # Peak memory is only read by pipeline-kind metrics; its tracer's timings are dropped.
            memory = Tracer(memory=True)
            with memory.installed():
                run_round(ctx, memory.operation, tally, {}, outputs, pipeline_only=True)
            metrics = per_layer(tracer, memory)
            traced = _median(traced_samples, "pipeline", scaled=False)
            info = {
                "untraced_pipeline_s": untraced,
                "traced_pipeline_s": traced,
                "overhead": traced / untraced - 1.0,
                "ops": dict(tracer.ops),
            }
        print(json.dumps({
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "setup_s": setup_s,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "info": info,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
