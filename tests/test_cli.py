"""Command-line interface: subcommands, file formats, and exit codes."""

import json

import numpy as np
import pytest

from graphdet.cli import main
from graphdet.pipeline import SceneConfig
from graphdet.scene import (
    Box3D,
    clip_to_range,
    generate_synthetic_scene,
    read_detections,
    write_detections,
)
from graphdet.voxel import VoxelizationConfig, voxelize

from oracles import (
    eval_frame,
    loop_read_detections,
    loop_rotated_iou_bev,
    loop_voxelize,
    loop_write_detections,
    sweep_nms,
)


def write_config(tmp_path, **overrides):
    raw = {
        "scene": {"n_objects": 2, "points_per_object": 48, "clutter_points": 24},
        "rfa": {
            "keypoint_counts": [24, 12, 6],
            "radii": [[0.4, 0.8], [0.8, 1.6], [1.6, 3.2]],
        },
        "train": {"steps": 0},
    }
    for key, value in overrides.items():
        if key in raw and isinstance(value, dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def box_line(x, y, score=None):
    tail = "" if score is None else f" {score}"
    return f"Car {x} {y} 0.0 3.9 1.6 1.56 0.0{tail}\n"


# ---------------------------------------------------------------------------
# small stateless subcommands


def test_iou_identical_boxes(capsys):
    box_args = ["1.0", "2.0", "0.0", "4.0", "2.0", "1.5", "0.3"]
    assert main(["iou", "--a", *box_args, "--b", *box_args]) == 0
    out = capsys.readouterr().out
    assert "iou_bev 1.000000" in out
    assert "iou_3d 1.000000" in out


def test_iou_disjoint_boxes(capsys):
    a = ["0", "0", "0", "2", "2", "2", "0"]
    b = ["50", "0", "0", "2", "2", "2", "0"]
    assert main(["iou", "--a", *a, "--b", *b]) == 0
    out = capsys.readouterr().out
    assert "iou_bev 0.000000" in out


def test_eval_nds_reference_value(capsys):
    code = main(
        ["eval-nds", "--map", "0.4765", "--errors", "0.30", "0.27", "0.34", "0.41", "0.18"]
    )
    assert code == 0
    assert "nds 0.588250" in capsys.readouterr().out


def test_eval_nds_needs_a_map_source(capsys):
    code = main(["eval-nds", "--errors", "0", "0", "0", "0", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "worst" in out
    assert "FAIL" not in out


# ---------------------------------------------------------------------------
# box-file subcommands


def test_nms_file_round_trip(tmp_path, capsys):
    src = tmp_path / "boxes.txt"
    src.write_text(
        box_line(0.0, 0.0, 0.9) + box_line(0.1, 0.0, 0.8) + box_line(20.0, 0.0, 0.2)
    )
    out = tmp_path / "kept.txt"
    code = main(
        ["nms", "--input", str(src), "--output", str(out),
         "--iou-threshold", "0.1", "--score-threshold", "0.3"]
    )
    assert code == 0
    kept = read_detections(str(out))
    # the overlapping pair collapses to its higher score; the weak box is dropped
    assert len(kept) == 1
    assert kept[0].score == pytest.approx(0.9)
    assert "kept 1 of 3" in capsys.readouterr().err


def test_nms_kept_file_matches_the_scalar_path_byte_for_byte(tmp_path):
    # A 3,300-box frame through the array path (BoxArray parse, batched
    # IoU, NMS in waves, array writer) against a per-line parse, the float
    # IoU loop in a greedy sweep and a per-box writer.
    dets, kept, want = tmp_path / "dets.txt", tmp_path / "kept.txt", tmp_path / "want.txt"
    loop_write_detections(dets, eval_frame(3))
    code = main(
        ["nms", "--input", str(dets), "--output", str(kept),
         "--iou-threshold", "0.1", "--score-threshold", "0.3"]
    )
    assert code == 0
    loop_write_detections(want, sweep_nms(loop_read_detections(dets), loop_rotated_iou_bev, 0.1, 0.3))
    assert kept.read_bytes() == want.read_bytes()
    assert 300 < len(read_detections(str(kept))) < 3300


def test_nms_without_scores_is_a_runtime_error(tmp_path, capsys):
    src = tmp_path / "boxes.txt"
    src.write_text(box_line(0.0, 0.0))
    assert main(["nms", "--input", str(src)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--iou-threshold", "--score-threshold"])
def test_nms_bad_threshold_exits_one(tmp_path, capsys, flag):
    src = tmp_path / "boxes.txt"
    src.write_text(box_line(0.0, 0.0, 0.9))
    assert main(["nms", "--input", str(src), flag, "nan"]) == 1
    assert "must be a finite number in [0, 1], got nan" in capsys.readouterr().err


def test_malformed_box_file_exits_two(tmp_path, capsys):
    src = tmp_path / "boxes.txt"
    src.write_text("Car 1.0 2.0\n")
    assert main(["nms", "--input", str(src)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["nms", "eval-ap"])
def test_box_file_that_is_not_utf8_exits_two_naming_the_line(tmp_path, capsys, command):
    src = tmp_path / "latin1.txt"
    src.write_bytes(box_line(0.0, 0.0, 0.9).encode() + b"Caf\xe9 1 2 -1 3.9 1.6 1.56 0 0.5\n")
    args = {"nms": ["--input", str(src)], "eval-ap": ["--dets", str(src), "--gts", str(src)]}
    assert main([command, *args[command]]) == 2
    assert f"{src}, line 2: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["nms", "--input", str(tmp_path / "absent.txt")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["nms", "--input"], ["run-pipeline", "--config"]])
def test_directory_in_place_of_a_file_exits_two_naming_it(tmp_path, capsys, command):
    assert main([*command, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_eval_ap_perfect_and_schedules(tmp_path, capsys):
    gts = tmp_path / "gts.txt"
    gts.write_text(box_line(0.0, 0.0) + box_line(15.0, 0.0))
    dets = tmp_path / "dets.txt"
    dets.write_text(box_line(0.0, 0.0, 0.9) + box_line(15.0, 0.0, 0.8))
    assert main(["eval-ap", "--dets", str(dets), "--gts", str(gts)]) == 0
    assert "ap_s40 1.000000" in capsys.readouterr().out
    assert (
        main(["eval-ap", "--dets", str(dets), "--gts", str(gts), "--schedule", "s11"])
        == 0
    )
    assert "ap_s11 1.000000" in capsys.readouterr().out
    code = main(
        ["eval-ap", "--dets", str(dets), "--gts", str(gts),
         "--matcher", "distance", "--threshold", "2.0"]
    )
    assert code == 0
    assert "ap_s40 1.000000" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# voxelize


def test_voxelize_from_point_file(tmp_path, capsys):
    pts = tmp_path / "points.txt"
    pts.write_text("0.12 0.0 -2.95 0.5\n0.12 0.02 -2.95\n30.0 10.0 0.0 0.25\n")
    out = tmp_path / "voxels.txt"
    code = main(
        ["voxelize", "--input", str(pts), "--step", "0.05", "0.05", "0.1",
         "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # first two points share a voxel
    first = lines[0].split()
    assert [int(v) for v in first[:3]] == [2, 800, 0]
    assert int(first[3]) == 2
    err = capsys.readouterr().err
    assert "points 3 voxels 2" in err


_BAD_LINES = {
    "count": (b"1 2\n", "expected {}, got 2"),
    "token": (b"1 2 x3\n", "could not convert string to float: 'x3'"),
    "nan": (b"1 nan 3\n", "non-finite value"),
    "utf8": (b"1 2 3\xe9\n", "'utf-8' codec can't decode byte 0xe9 in position 5: invalid continuation byte"),
}


@pytest.mark.parametrize("fault", _BAD_LINES)
def test_voxelize_bad_point_line_exits_two_naming_it(tmp_path, capsys, fault):
    line, reason = _BAD_LINES[fault]
    pts = tmp_path / "points.txt"
    pts.write_bytes(b"0.1 0.0 -2.9 0.5\n\n0.1 0.2 -2.9\n" + line + b"1 2 3\n")
    assert main(["voxelize", "--input", str(pts)]) == 2
    assert f"error: {pts}, line 4: {reason.format('3 or 4 numbers')}\n" in capsys.readouterr().err


def test_voxelize_requires_one_source(capsys):
    assert main(["voxelize"]) == 2
    assert main(["voxelize", "--input", "x.txt", "--seed", "1"]) == 2


def test_voxelize_synthetic_scene_is_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    step = ["--step", "0.2", "0.2", "0.2"]
    assert main(["voxelize", "--seed", "5", "--output", str(a), *step]) == 0
    assert main(["voxelize", "--seed", "5", "--output", str(b), *step]) == 0
    assert a.read_text() == b.read_text()
    assert a.read_text().strip()


def test_voxelize_file_rows_match_the_loop_reference(tmp_path):
    """Pins the file format: one ``i j k count x y z r`` row per voxel, reals as repr."""
    out = tmp_path / "voxels.txt"
    assert main(["voxelize", "--seed", "5", "--step", "0.2", "0.2", "0.2",
                 "--output", str(out)]) == 0
    scene = generate_synthetic_scene(
        5, n_objects=4, points_per_object=160, clutter_points=80, min_separation=7.0
    )
    config = VoxelizationConfig(step=(0.2, 0.2, 0.2), max_points_per_voxel=5)
    cells, counts, features, _ = loop_voxelize(clip_to_range(scene).cloud.points, config)
    want = [
        f"{i} {j} {k} {count} " + " ".join(repr(float(v)) for v in feature)
        for (i, j, k), count, feature in zip(cells.tolist(), counts.tolist(), features)
    ]
    assert len(want) > 100
    assert out.read_text() == "\n".join(want) + "\n"


def test_voxelize_seed_voxelizes_the_pipeline_default_scene(tmp_path):
    out = tmp_path / "voxels.txt"
    assert main(["voxelize", "--seed", "3", "--step", "0.2", "0.2", "0.2",
                 "--output", str(out)]) == 0
    scene = SceneConfig()
    cloud = clip_to_range(
        generate_synthetic_scene(
            3,
            scene.n_objects,
            scene.points_per_object,
            scene.clutter_points,
            min_separation=scene.min_separation,
        )
    ).cloud
    grid = voxelize(cloud, VoxelizationConfig(step=(0.2, 0.2, 0.2), max_points_per_voxel=5))
    want = [
        f"{i} {j} {k} {count} " + " ".join(repr(float(v)) for v in feature)
        for (i, j, k), count, feature in zip(grid.cells, grid.counts, grid.features)
    ]
    assert len(want) > 100
    assert out.read_text() == "\n".join(want) + "\n"


# ---------------------------------------------------------------------------
# refine


def refine_inputs(tmp_path, n=3, width=4):
    props = tmp_path / "proposals.txt"
    props.write_text("".join(box_line(8.0 * i, 0.0) for i in range(n)))
    states = tmp_path / "states.txt"
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(n, width))
    states.write_text(
        "\n".join(" ".join(f"{v:.6f}" for v in row) for row in rows) + "\n"
    )
    return str(props), str(states)


def test_refine_zero_header_passes_proposals_through(tmp_path):
    props, states = refine_inputs(tmp_path)
    out = tmp_path / "refined.txt"
    code = main(
        ["refine", "--proposals", props, "--states", states,
         "--header", "zero", "--output", str(out)]
    )
    assert code == 0
    refined = read_detections(str(out))
    originals = read_detections(props)
    assert len(refined) == 3
    for ref, orig in zip(refined, originals):
        want = (*orig.center, *orig.dims, orig.yaw)
        assert np.allclose((*ref.center, *ref.dims, ref.yaw), want, atol=1e-12)
        assert ref.score == pytest.approx(0.5)


def test_refine_is_deterministic(tmp_path):
    props, states = refine_inputs(tmp_path)
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["refine", "--proposals", props, "--states", states, "--seed", "4"]
    assert main([*args, "--output", str(a)]) == 0
    assert main([*args, "--output", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_refine_without_alignment_runs_and_differs_from_the_default(tmp_path, capsys):
    props, states = refine_inputs(tmp_path)
    outs = {}
    for name, extra in (("default", []), ("unaligned", ["--no-alignment"])):
        outs[name] = tmp_path / f"{name}.txt"
        args = ["refine", "--proposals", props, "--states", states, *extra]
        assert main([*args, "--output", str(outs[name])]) == 0
        assert len(read_detections(str(outs[name]))) == 3
    assert outs["default"].read_text() != outs["unaligned"].read_text()
    # The old flag is gone, not silently read as another one.
    assert main(["refine", "--proposals", props, "--states", states, "--vanilla"]) == 2
    assert "unrecognized arguments: --vanilla" in capsys.readouterr().err


def test_refine_state_count_mismatch_exits_two(tmp_path, capsys):
    props, states = refine_inputs(tmp_path)
    short = tmp_path / "short.txt"
    short.write_text("1.0 2.0 3.0 4.0\n")
    assert main(["refine", "--proposals", props, "--states", str(short)]) == 2
    err = capsys.readouterr().err
    assert f"proposals in {props} but 1 state rows in {short}" in err


@pytest.mark.parametrize("fault", _BAD_LINES)
def test_refine_bad_state_line_exits_two_naming_it(tmp_path, capsys, fault):
    line, reason = _BAD_LINES[fault]
    props, _ = refine_inputs(tmp_path, n=4, width=3)
    states = tmp_path / "bad.txt"
    states.write_bytes(b"0.5 -1 2\n\n1 2 3\n" + line + b"1 2 3\n")
    assert main(["refine", "--proposals", props, "--states", str(states)]) == 2
    assert f"error: {states}, line 4: {reason.format('3 values')}\n" in capsys.readouterr().err


def test_refine_empty_states_exits_two(tmp_path, capsys):
    props, _ = refine_inputs(tmp_path)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    assert main(["refine", "--proposals", props, "--states", str(empty)]) == 2
    assert "no state rows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--hidden", "0", "gnn widths must be positive"),
        ("--hidden", "-3", "gnn widths must be positive"),
        ("--iters", "-1", "gnn depth must lie in 0..5"),
        ("--iters", "6", "gnn depth must lie in 0..5"),
        ("--iters", "1000000000", "gnn depth must lie in 0..5"),
        ("--radius", "0", "gnn radius must be positive and finite"),
        ("--radius", "-1.5", "gnn radius must be positive and finite"),
        ("--radius", "nan", "gnn radius must be positive and finite"),
        ("--radius", "inf", "gnn radius must be positive and finite"),
    ],
)
def test_refine_arguments_out_of_the_configs_bounds_exit_two_naming_the_flag(
    tmp_path, capsys, flag, value, reason
):
    props, states = refine_inputs(tmp_path)
    assert main(["refine", "--proposals", props, "--states", states, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: {reason}, got {value}\n" in captured.err


def test_refine_arguments_at_the_configs_bounds_run(tmp_path):
    props, states = refine_inputs(tmp_path)
    for extra in (["--iters", "0"], ["--iters", "5"], ["--hidden", "1"], ["--radius", "1e-9"]):
        out = tmp_path / "refined.txt"
        assert main(["refine", "--proposals", props, "--states", states, *extra, "--output", str(out)]) == 0
        assert len(read_detections(str(out))) == 3


# ---------------------------------------------------------------------------
# pipeline subcommands


def test_run_pipeline_writes_report_and_detections(tmp_path, capsys):
    config = write_config(tmp_path)
    dets = tmp_path / "dets.txt"
    report_path = tmp_path / "report.json"
    code = main(
        ["run-pipeline", "--config", config, "--output", str(dets),
         "--report", str(report_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ap_s11@0.70" in out
    assert "detections" in out
    report = json.loads(report_path.read_text())
    for key in ("ap_s11", "ap_s40", "n_gt", "holdout_ap_s40"):
        assert key in report
    read_detections(str(dets))  # parses cleanly


def test_run_pipeline_output_is_deterministic(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run-pipeline", "--config", config]) == 0
    first = capsys.readouterr().out
    assert main(["run-pipeline", "--config", config]) == 0
    assert capsys.readouterr().out == first


def test_seed_override_changes_the_scene(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["train-smoke", "--config", config, "--steps", "0"]) == 0
    base = capsys.readouterr().out
    assert main(["train-smoke", "--config", config, "--steps", "0", "--seed", "9"]) == 0
    other = capsys.readouterr().out
    assert base != other  # a different scene produces a different initial loss


def test_train_smoke_command(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["train-smoke", "--config", config, "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "steps 2" in out
    assert "loss_first" in out
    assert "reduction" in out


@pytest.mark.parametrize("command", ["train-smoke", "run-pipeline"])
def test_diverging_training_exits_one(tmp_path, capsys, command):
    config = write_config(tmp_path, train={"steps": 50, "learning_rate": 50.0})
    with np.errstate(all="ignore"):
        assert main([command, "--config", config]) == 1
    assert "error: training diverged at step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["gradcheck"],
        ["voxelize"],
        ["run-pipeline", "--steps", "0"],
        ["train-smoke", "--steps", "0"],
        ["refine"],
    ],
)
def test_negative_seed_flags_exit_two_naming_the_flag(tmp_path, capsys, command):
    if command == ["refine"]:
        props, states = refine_inputs(tmp_path)
        command = [*command, "--proposals", props, "--states", states]
    for value in ("-1", "-3"):
        assert main([*command, "--seed", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument --seed: seed must be non-negative, got {value}\n" in captured.err


@pytest.mark.parametrize("command", ["run-pipeline", "train-smoke"])
def test_negative_seed_in_a_config_file_exits_two_naming_the_key(tmp_path, capsys, command):
    config = write_config(tmp_path, seed=-1)
    assert main([command, "--config", config]) == 2
    assert "error: seed must be non-negative\n" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run-pipeline", "train-smoke"])
def test_config_file_that_is_not_utf8_exits_two_naming_it(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"scene": {"name": "caf\xe9"}}')
    assert main([command, "--config", str(path)]) == 2
    assert f"error: {path}: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err


def test_bad_config_file_exits_two(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"turbo": true}')
    assert main(["run-pipeline", "--config", str(path)]) == 2
    assert "unknown config key" in capsys.readouterr().err
