"""Command-line front end.

Subcommands cover the pipeline (run-pipeline, train-smoke), the
individual stages (voxelize, refine, nms, iou), evaluation (eval-ap,
eval-nds), and the gradient self-test (gradcheck).

Box files are whitespace text, one box per line:

    class cx cy cz l w h yaw [score]

as written by :func:`graphdet.scene.write_detections`.  Point files are
``x y z [reflectance]`` lines, state files rows of numbers as wide as
the first; the first bad line of any of them is named as ``path, line N:
reason``.  Exit codes: 0 on success, 2 for bad arguments, files that
cannot be opened (a missing path, a directory) or malformed input files
(config files too), 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable, Sequence
from dataclasses import asdict, replace
from typing import Any

import numpy as np

from .geom import Box3D, iou_3d, nms, rotated_iou_bev
from .gnn import GraphUpdater, build_graph, header_stacks, refine_proposals, update
from .gradcheck import run_all
from .metrics import (
    BevIouMatcher,
    CenterDistanceMatcher,
    ErrorBundle,
    RecallSchedule,
    interpolated_ap,
    mean_ap_distance,
    nds,
    precision_recall,
)
from .pipeline import (
    ConfigError,
    GnnPipelineConfig,
    PipelineConfig,
    SceneConfig,
    load_pipeline_config,
    run_pipeline,
    train_smoke,
)
from .scene import (
    DetectionParseError,
    PointCloud,
    _finite_floats,
    _text_rows,
    clip_to_range,
    generate_synthetic_scene,
    read_detections,
    write_detections,
)
from .voxel import VoxelizationConfig, voxelize

_GRADCHECK_TOL = 1e-4


def _config_value(config: type, name: str, kind: type) -> Callable[[str], Any]:
    """An argparse type: the flag's text as a ``kind``, within the bounds
    that the config class ``config`` puts on its field ``name``, so that a
    bad value exits 2 naming the flag."""

    def parse(text: str) -> Any:
        value = kind(text)
        try:
            config(**{name: value})
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(f"{exc}, got {text}") from None
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


_seed = _config_value(PipelineConfig, "seed", int)  # every --seed flag: non-negative


def _point(tokens: list[str]) -> list[float]:
    if len(tokens) not in (3, 4):
        raise ValueError(f"expected 3 or 4 numbers, got {len(tokens)}")
    return [*_finite_floats(tokens), 0.0][:4]


def _load_points(path: str) -> PointCloud:
    return PointCloud(np.array(list(_text_rows(path, _point)), dtype=float).reshape(-1, 4))


def _load_states(path: str) -> np.ndarray:
    rows: list[list[float]] = []

    def state(tokens: list[str]) -> list[float]:
        width = len(rows[0]) if rows else len(tokens)
        if len(tokens) != width:
            raise ValueError(f"expected {width} values, got {len(tokens)}")
        return _finite_floats(tokens)

    for row in _text_rows(path, state):
        rows.append(row)
    if not rows:
        raise DetectionParseError(f"{path}: no state rows")
    return np.array(rows, dtype=float)


def _emit_boxes(boxes: Sequence[Box3D], output: str | None) -> None:
    if output:
        write_detections(output, boxes)
        print(f"wrote {len(boxes)} boxes to {output}")
    else:
        for box in boxes:
            score = "" if box.score is None else f" {box.score:.6f}"
            print(
                f"{box.center[0]:.4f} {box.center[1]:.4f} {box.center[2]:.4f} "
                f"{box.dims[0]:.4f} {box.dims[1]:.4f} {box.dims[2]:.4f} "
                f"{box.yaw:.4f}{score}"
            )


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    if args.config:
        config = load_pipeline_config(args.config)
    else:
        config = PipelineConfig()
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "steps", None) is not None:
        config = replace(config, train=replace(config.train, steps=args.steps))
    return config


def _cmd_run_pipeline(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    detections, report = run_pipeline(config)
    print(f"proposals {report['n_proposals']}")
    print(f"detections {report['n_detections']}")
    print(f"ground_truth {report['n_gt']}")
    print(f"ap_s11@{report['ap_iou']:.2f} {report['ap_s11']:.6f}")
    print(f"ap_s40@{report['ap_iou']:.2f} {report['ap_s40']:.6f}")
    if "loss_final" in report:
        print(f"loss_first {report['loss_first']:.6f}")
        print(f"loss_final {report['loss_final']:.6f}")
    if args.output:
        write_detections(args.output, detections)
        print(f"wrote {len(detections)} detections to {args.output}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote report to {args.report}")
    return 0


def _cmd_train_smoke(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    history = train_smoke(config)
    first, last = history[0], history[-1]
    drop = 0.0 if first == 0 else (first - last) / first
    print(f"steps {len(history) - 1}")
    print(f"loss_first {first:.6f}")
    print(f"loss_final {last:.6f}")
    print(f"reduction {drop:.4f}")
    return 0


def _cmd_voxelize(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.seed is None):
        raise ConfigError("provide exactly one of --input or --seed")
    if args.input:
        cloud = _load_points(args.input)
    else:
        scene = generate_synthetic_scene(args.seed, **asdict(SceneConfig()))
        cloud = clip_to_range(scene).cloud
    max_points = None if args.max_points == 0 else args.max_points
    config = VoxelizationConfig(step=tuple(args.step), max_points_per_voxel=max_points)
    grid = voxelize(cloud, config)
    lines = [
        f"{i} {j} {k} {count} " + " ".join(repr(float(v)) for v in feature)
        for (i, j, k), count, feature in zip(grid.cells, grid.counts, grid.features)
    ]
    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + ("\n" if lines else ""))
        print(f"wrote {len(lines)} voxels to {args.output}")
    else:
        if text:
            print(text)
    print(f"points {len(cloud)} voxels {len(grid)}", file=sys.stderr)
    return 0


def _cmd_refine(args: argparse.Namespace) -> int:
    proposals = read_detections(args.proposals)
    states = _load_states(args.states)
    if len(states) != len(proposals):
        raise DetectionParseError(
            f"{len(proposals)} proposals in {args.proposals} "
            f"but {len(states)} state rows in {args.states}"
        )
    graph = build_graph(proposals, states, args.radius)
    f = states.shape[1]
    updater = GraphUpdater.seeded(f, args.hidden, args.iters, args.seed, args.alignment)
    seeds = None if args.header == "zero" else (args.seed + 1, args.seed + 2)
    cls_stack, reg_stack = header_stacks(f, args.hidden, seeds)
    refined, _ = update(graph, updater)
    boxes = refine_proposals(graph, refined, cls_stack, reg_stack)
    _emit_boxes(boxes, args.output)
    return 0


def _cmd_eval_ap(args: argparse.Namespace) -> int:
    detections = read_detections(args.dets)
    gts = read_detections(args.gts)
    if args.matcher == "iou":
        matcher = BevIouMatcher(args.threshold)
    else:
        matcher = CenterDistanceMatcher(args.threshold)
    curve = precision_recall(detections, gts, matcher)
    schedule = RecallSchedule.s11() if args.schedule == "s11" else RecallSchedule.s40()
    ap = interpolated_ap(curve, schedule)
    print(f"ap_{args.schedule} {ap:.6f}")
    return 0


def _cmd_eval_nds(args: argparse.Namespace) -> int:
    if args.map is not None:
        m_ap = args.map
    elif args.dets and args.gts:
        detections = read_detections(args.dets)
        gts = read_detections(args.gts)
        m_ap = mean_ap_distance(detections, gts)
        print(f"map_distance {m_ap:.6f}")
    else:
        raise ConfigError("provide --map or both --dets and --gts")
    errors = args.errors
    bundle = ErrorBundle(m_ap, *errors)
    print(f"nds {nds(bundle):.6f}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    results = run_all(args.seed)
    worst = 0.0
    for name, err in results.items():
        flag = "ok" if err < _GRADCHECK_TOL else "FAIL"
        print(f"{name:18s} {err:.3e} {flag}")
        worst = max(worst, err)
    print(f"worst {worst:.3e}")
    return 0 if worst < _GRADCHECK_TOL else 1


def _cmd_iou(args: argparse.Namespace) -> int:
    box_a = Box3D(center=tuple(args.a[:3]), dims=tuple(args.a[3:6]), yaw=args.a[6])
    box_b = Box3D(center=tuple(args.b[:3]), dims=tuple(args.b[3:6]), yaw=args.b[6])
    print(f"iou_bev {rotated_iou_bev(box_a, box_b):.6f}")
    print(f"iou_3d {iou_3d(box_a, box_b):.6f}")
    return 0


def _cmd_nms(args: argparse.Namespace) -> int:
    boxes = read_detections(args.input)
    kept = nms(boxes, args.iou_threshold, args.score_threshold)
    print(f"kept {len(kept)} of {len(boxes)}", file=sys.stderr)
    _emit_boxes(kept, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdet",
        description="Point-cloud detection pipeline with graph-based proposal refinement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "run-pipeline",
        help="train, then report AP: ap_* keys on the first training scene, "
        "holdout_* keys on a held-out scene",
    )
    p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    p.add_argument("--seed", type=_seed, help="override the config seed")
    p.add_argument("--steps", type=int, help="override the training step count")
    p.add_argument("--output", help="write detections to this file")
    p.add_argument("--report", help="write the metrics report as JSON")
    p.set_defaults(func=_cmd_run_pipeline)

    p = sub.add_parser(
        "train-smoke",
        help="descend the refinement loss (header focal + box smooth-L1) and report the drop",
    )
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=_seed, help="override the config seed")
    p.add_argument("--steps", type=int, help="override the training step count")
    p.set_defaults(func=_cmd_train_smoke)

    p = sub.add_parser("voxelize", help="voxelize a point file (or a synthetic scene)")
    p.add_argument("--input", help="point file with x y z [reflectance] lines")
    p.add_argument("--seed", type=_seed, help="use a synthetic scene with this seed")
    p.add_argument(
        "--step", type=float, nargs=3, default=[0.05, 0.05, 0.1],
        metavar=("SX", "SY", "SZ"), help="voxel size per axis (default KITTI)",
    )
    p.add_argument(
        "--max-points", type=int, default=5,
        help="per-voxel point cap before averaging; 0 keeps all points",
    )
    p.add_argument("--output", help="write 'i j k count f0 f1 f2 f3' lines here")
    p.set_defaults(func=_cmd_voxelize)

    p = sub.add_parser("refine", help="run graph refinement over proposal boxes")
    p.add_argument("--proposals", required=True, help="box file of proposals")
    p.add_argument("--states", required=True, help="one row of state floats per proposal")
    p.add_argument(
        "--radius", type=_config_value(GnnPipelineConfig, "radius", float), default=2.0,
        help="neighborhood radius (m), positive and finite",
    )
    p.add_argument(
        "--iters", type=_config_value(GnnPipelineConfig, "depth", int), default=3,
        help="refinement iterations, 0-5",
    )
    p.add_argument(
        "--hidden", type=_config_value(GnnPipelineConfig, "hidden_dim", int), default=32,
        help="hidden width of the stacks, at least 1",
    )
    p.add_argument(
        "--header", choices=("zero", "random"), default="random",
        help="zero makes the refinement a score-0.5 passthrough",
    )
    p.add_argument(
        "--no-alignment", dest="alignment", action="store_false",
        help="keep the edge offsets, drop their predicted alignment",
    )
    p.add_argument("--seed", type=_seed, default=0, help="stack initialization seed")
    p.add_argument("--output", help="write refined boxes here instead of stdout")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("eval-ap", help="interpolated average precision of a detection file")
    p.add_argument("--dets", required=True, help="detections (must carry scores)")
    p.add_argument("--gts", required=True, help="ground-truth boxes")
    p.add_argument(
        "--matcher", choices=("iou", "distance"), default="iou",
        help="match on BEV IoU or on center distance",
    )
    p.add_argument(
        "--threshold", type=float, default=0.7,
        help="min IoU (iou matcher) or max distance in meters (distance matcher)",
    )
    p.add_argument("--schedule", choices=("s11", "s40"), default="s40")
    p.set_defaults(func=_cmd_eval_ap)

    p = sub.add_parser("eval-nds", help="composite detection score from mAP and errors")
    p.add_argument("--map", type=float, help="mean AP over the distance thresholds")
    p.add_argument(
        "--errors", type=float, nargs=5, required=True,
        metavar=("ATE", "ASE", "AOE", "AVE", "AAE"),
        help="the five mean error terms",
    )
    p.add_argument("--dets", help="compute mAP from this detection file instead of --map")
    p.add_argument("--gts", help="ground truth for --dets")
    p.set_defaults(func=_cmd_eval_nds)

    p = sub.add_parser(
        "gradcheck",
        help="central-difference check of every hand-written gradient, on the stacks' "
        "bound parameter vector and the fused loss passes training runs; "
        f"exit 1 if any relative error reaches {_GRADCHECK_TOL:g}",
    )
    p.add_argument("--seed", type=_seed, default=0, help="seed of the checks' random instances")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("iou", help="overlap of two boxes given as 'cx cy cz l w h yaw'")
    p.add_argument("--a", type=float, nargs=7, required=True, metavar="V")
    p.add_argument("--b", type=float, nargs=7, required=True, metavar="V")
    p.set_defaults(func=_cmd_iou)

    p = sub.add_parser("nms", help="greedy suppression of a scored box file")
    p.add_argument("--input", required=True, help="box file with scores")
    p.add_argument("--iou-threshold", type=float, default=0.1)
    p.add_argument("--score-threshold", type=float, default=0.3)
    p.add_argument("--output", help="write kept boxes here instead of stdout")
    p.set_defaults(func=_cmd_nms)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, DetectionParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
