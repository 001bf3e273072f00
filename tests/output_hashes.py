"""SHA-256 fingerprints of graphdet's outputs, for bit-identity checks
between two checkouts.

Usage, from anywhere:

    python3 tests/output_hashes.py [CHECKOUT]
    python3 tests/output_hashes.py CHECKOUT_A CHECKOUT_B

``CHECKOUT`` (default: the checkout holding this file) is the root of a
graphdet tree; its ``src/`` is put first on ``sys.path``, so the hashes
describe that tree's code.  One line is printed per item, then a total
over every line:

- ``run_pipeline`` on 14 configs: the detections (``params`` and
  ``scores`` bytes, class ids) and ``json.dumps(report, sort_keys=True)``;
- the trained parameter vector (every stack's ``flat_params``, in
  ``PipelineModels.stacks`` order) of each of those configs that trains,
  from ``pipeline._train_models``, so a change to the training step
  shows even where the detections do not move;
- ``gradcheck.run_all`` for seeds 0-9;
- ``graphdet refine`` standard output in five modes, on a seeded
  14-proposal, 6-column input;
- three pre-NMS frames of ``tests/oracles.py``: ``eval_frame`` seeds 0
  and 7, and seed 7 plus one 160 m box (a size level of its own).  For
  each, the ``graphdet nms`` kept-file bytes at the (IoU, score)
  thresholds (0.1, 0.3), (0.0, 0.0) and (1.0, 0.3), and the ``graphdet
  eval-ap`` standard output on each kept file against the frame's 12
  objects;
- ``read_detections`` on seeded box files: the ``params`` and ``scores``
  bytes and class ids of one file that NumPy's ``loadtxt`` parses and of
  one it refuses and the line walker parses (mixed 8- and 9-field
  lines, a ``1_0`` token), and the ``DetectionParseError`` text, path
  left out, of one file per check in the order they run: field count,
  number syntax, finiteness, dims, score;
- the arrays the CLI's loaders (``graphdet.cli._load_points`` and
  ``_load_states``) parse from a seeded 300-line point file, 3- and
  4-number lines mixed, and a seeded 40-row, 7-column state file;
- ``neighbors.nearest_k`` indices and squared distances on inputs no
  pipeline config reaches: a KITTI-sized uniform cloud (19k sources,
  20k queries), a 2k-source cloud of four tight clusters with queries
  up to 1e4 m away, and an integer grid full of duplicate sources and
  exact distance ties, each at several k.

With two checkouts, this script hashes each in its own process (the
two run at once) and prints only the items that differ, as ``name
hash_a hash_b`` (``-`` for an item one side lacks); the exit status is 1
if any item differs and 0, with nothing printed, if none does.

No hash is committed: matrix products go through BLAS, whose last bits
depend on the library and the machine, so hashes only compare runs on
one machine.  The file name does not match pytest's ``test_*.py``
pattern, so the suite never collects it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

_DENSE = {"n_objects": 10, "points_per_object": 300, "clutter_points": 1000}

# Name -> pipeline config dict (parse_pipeline_config's schema).
CONFIGS: dict[str, dict] = {
    **{f"desk-seed{s}-500": {"seed": s, "train": {"steps": 500}} for s in range(3)},
    **{f"desk-seed{s}-100": {"seed": s, "train": {"steps": 100}} for s in range(3)},
    **{
        f"dense-seed{s}-100": {"seed": s, "scene": _DENSE, "train": {"steps": 100}}
        for s in range(2)
    },
    "vanilla-200": {"gnn": {"variant": "vanilla"}, "train": {"steps": 200}},
    "depth0-200": {"gnn": {"depth": 0}, "train": {"steps": 200}},
    "batch2-vanilla-200": {
        "gnn": {"variant": "vanilla"},
        "train": {"steps": 200, "batch_scenes": 2},
    },
    "batch4-200": {"train": {"steps": 200, "batch_scenes": 4}},
    "zero-steps": {"train": {"steps": 0}},
    "empty-scene": {"scene": {"n_objects": 0}, "train": {"steps": 20}},
}

REFINE_MODES: dict[str, list[str]] = {
    "default": [],
    "vanilla": ["--vanilla"],
    "header-zero": ["--header", "zero"],
    "iters0": ["--iters", "0"],
    "vanilla-iters2-seed7": ["--vanilla", "--iters", "2", "--seed", "7"],
}


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def pipeline_hashes() -> dict[str, str]:
    from graphdet.pipeline import parse_pipeline_config, run_pipeline

    out = {}
    for name, raw in CONFIGS.items():
        detections, report = run_pipeline(parse_pipeline_config(raw))
        out[f"pipeline/{name}"] = _sha(
            np.ascontiguousarray(detections.params).tobytes(),
            np.ascontiguousarray(detections.scores).tobytes(),
            json.dumps([str(c) for c in detections.class_ids]).encode(),
            json.dumps(report, sort_keys=True).encode(),
        )
    return out


def parameter_hashes() -> dict[str, str]:
    from graphdet.pipeline import _train_models, parse_pipeline_config

    out = {}
    for name, raw in CONFIGS.items():
        config = parse_pipeline_config(raw)
        if config.train.steps == 0:
            continue
        models, _, _ = _train_models(config, config.train.steps)
        vector = np.concatenate([stack.flat_params() for stack in models.stacks])
        out[f"params/{name}"] = _sha(vector.tobytes())
    return out


def gradcheck_hashes() -> dict[str, str]:
    from graphdet.gradcheck import run_all

    return {
        f"gradcheck/seed{seed}": _sha(json.dumps(run_all(seed), sort_keys=True).encode())
        for seed in range(10)
    }


def _refine_inputs(folder: Path) -> tuple[str, str]:
    """A seeded 14-proposal box file and its 6-column state file."""
    rng = np.random.default_rng(2024)
    centres = rng.uniform(0.0, 6.0, size=(14, 3))
    sizes = rng.uniform(1.0, 4.0, size=(14, 3))
    yaws = rng.uniform(-3.0, 3.0, size=14)
    boxes = folder / "proposals.txt"
    boxes.write_text(
        "".join(
            "Car " + " ".join(repr(float(v)) for v in (*c, *s, yaw)) + "\n"
            for c, s, yaw in zip(centres, sizes, yaws)
        )
    )
    states = folder / "states.txt"
    states.write_text(
        "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in rng.normal(size=(14, 6)))
    )
    return str(boxes), str(states)


def refine_hashes() -> dict[str, str]:
    from graphdet.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as folder:
        boxes, states = _refine_inputs(Path(folder))
        for name, extra in REFINE_MODES.items():
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = main(["refine", "--proposals", boxes, "--states", states, *extra])
            if code != 0:
                raise SystemExit(f"refine {name} exited with {code}")
            out[f"refine/{name}"] = _sha(text.getvalue().encode())
    return out


FRAMES: dict[str, tuple[int, bool]] = {
    "seed0": (0, False),
    "seed7": (7, False),
    "seed7-huge": (7, True),
}
NMS_THRESHOLDS = ((0.1, 0.3), (0.0, 0.0), (1.0, 0.3))


def frame_hashes() -> dict[str, str]:
    from graphdet.cli import main
    from graphdet.scene import Box3D

    from oracles import eval_frame_and_objects, loop_write_detections

    out = {}
    with tempfile.TemporaryDirectory() as folder:
        dets, gts, kept = (Path(folder) / name for name in ("dets.txt", "gts.txt", "kept.txt"))
        for name, (seed, huge) in FRAMES.items():
            boxes, objects = eval_frame_and_objects(seed)
            if huge:
                boxes.append(Box3D((30.0, 0.0, -1.0), (160.0, 160.0, 1.56), 0.3, score=0.5, class_id=0))
            loop_write_detections(dets, boxes)
            loop_write_detections(gts, objects)
            for iou, score in NMS_THRESHOLDS:
                args = ["nms", "--input", str(dets), "--output", str(kept),
                        "--iou-threshold", str(iou), "--score-threshold", str(score)]
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    if main(args) != 0:
                        raise SystemExit(f"nms on {name} at {iou}, {score} failed")
                out[f"frame/{name}/nms-{iou}-{score}"] = _sha(kept.read_bytes())
                text = io.StringIO()
                with contextlib.redirect_stdout(text):
                    if main(["eval-ap", "--dets", str(kept), "--gts", str(gts)]) != 0:
                        raise SystemExit(f"eval-ap on {name} at {iou}, {score} failed")
                out[f"frame/{name}/eval-ap-{iou}-{score}"] = _sha(text.getvalue().encode())
    return out


_READER_ROWS = {
    "fields": "Car 1 2 -1 3.9 1.6 1.56\n",
    "syntax": "Car 1 2 -1 3.9 1.6 1.56 0 zero\n",
    "non-finite": "Car 1 2 -1 3.9 1.6 1.56 0 nan\n",
    "dims": "Car 1 2 -1 3.9 -1.6 1.56 0 0.5\n",
    "score": "Car 1 2 -1 3.9 1.6 1.56 0 1.5\n",
}


def reader_hashes() -> dict[str, str]:
    from graphdet.scene import DetectionParseError, read_detections

    rng = np.random.default_rng(23)
    names = rng.choice(["Car", "Pedestrian", "Cyclist", "Class5", "Van"], size=400)
    rows = np.column_stack([
        rng.normal(0.0, 30.0, (400, 3)),
        rng.uniform(0.5, 5.0, (400, 3)),
        rng.uniform(-4.0, 4.0, 400),
        rng.uniform(0.0, 1.0, 400),
    ])
    good = "".join(f"{name} {' '.join(map(repr, row))}\n" for name, row in zip(names, rows.tolist()))
    mixed = good + "Car 1 2 -1 3.9 1.6 1.56 0.5\n" + "Cyclist 1_0 -2 -1 1.7 0.6 1.7 3.1 0.25\n"
    files = {"loadtxt": good, "walker": mixed}
    files |= {f"error-{name}": good + row for name, row in _READER_ROWS.items()}
    out = {}
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "boxes.txt"
        for name, text in files.items():
            path.write_text(text, encoding="utf-8")
            try:
                boxes = read_detections(str(path))
            except DetectionParseError as exc:
                out[f"reader/{name}"] = _sha(str(exc).replace(str(path), "FILE").encode())
            else:
                out[f"reader/{name}"] = _sha(
                    boxes.params.tobytes(),
                    boxes.scores.tobytes(),
                    json.dumps([str(c) for c in boxes.class_ids]).encode(),
                )
    return out


def loader_hashes() -> dict[str, str]:
    from graphdet.cli import _load_points, _load_states

    rng = np.random.default_rng(25)
    points = rng.normal(0.0, 20.0, (300, 4))
    widths = rng.choice([3, 4], size=300)
    states = rng.normal(size=(40, 7))
    files = {
        "points": "".join(" ".join(map(repr, row[:n])) + "\n" for row, n in zip(points.tolist(), widths)),
        "states": "".join(" ".join(map(repr, row)) + "\n" for row in states.tolist()),
    }
    loaders = {"points": lambda path: _load_points(path).points, "states": _load_states}
    out = {}
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "rows.txt"
        for name, text in files.items():
            path.write_text(text, encoding="utf-8")
            out[f"loader/{name}"] = _sha(loaders[name](str(path)).tobytes())
    return out


def nearest_hashes() -> dict[str, str]:
    from graphdet.neighbors import nearest_k

    rng = np.random.default_rng(27)
    extent = np.array([70.0, 80.0, 4.0])
    centres = rng.uniform(-30.0, 30.0, (4, 3))
    clusters = np.repeat(centres, 500, axis=0) + rng.normal(scale=0.05, size=(2000, 3))
    direction = rng.normal(size=(600, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    inputs = {
        "kitti": (rng.uniform(0.0, 1.0, (19_000, 3)) * extent,
                  rng.uniform(0.0, 1.0, (20_000, 3)) * extent, (1, 3)),
        "clusters-far": (clusters,
                         np.concatenate([rng.uniform(-100.0, 100.0, (1400, 3)),
                                         direction * np.geomspace(50.0, 1e4, 600)[:, None]]),
                         (1, 3, 16)),
        "integer-ties": (rng.integers(-6, 7, (3000, 3)).astype(float),
                         rng.integers(-15, 16, (2000, 3)) / 2.0, (1, 3, 27)),
    }
    out = {}
    for name, (sources, queries, ks) in inputs.items():
        for k in ks:
            nn, d2 = nearest_k(sources, queries, k)
            out[f"nearest/{name}/k{k}"] = _sha(nn.tobytes(), d2.tobytes())
    return out


def _item_hashes(checkout: str) -> subprocess.Popen:
    """This script started on one checkout, its standard output piped."""
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), checkout], stdout=subprocess.PIPE, text=True
    )


def compare(checkout_a: str, checkout_b: str) -> int:
    """Print the items whose hashes differ between two checkouts; return
    1 if any does, else 0."""
    procs = [_item_hashes(checkout_a), _item_hashes(checkout_b)]
    outs = [proc.communicate()[0] for proc in procs]
    for proc in procs:
        if proc.returncode != 0:
            raise SystemExit(f"hashing {proc.args[-1]} exited with {proc.returncode}")
    a, b = (dict(line.split(" ", 1) for line in out.splitlines()) for out in outs)
    a.pop("total"), b.pop("total")
    differ = [name for name in {**a, **b} if a.get(name) != b.get(name)]
    for name in differ:
        print(f"{name} {a.get(name, '-')} {b.get(name, '-')}")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        return compare(*argv)
    if len(argv) > 2:
        raise SystemExit("usage: output_hashes.py [CHECKOUT] | CHECKOUT_A CHECKOUT_B")
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(root / "src"))
    import graphdet

    if Path(graphdet.__file__).resolve().parent != root / "src" / "graphdet":
        raise SystemExit(f"imported graphdet from {graphdet.__file__}, not {root}/src")
    lines = [
        f"{name} {digest}"
        for part in (
            pipeline_hashes,
            parameter_hashes,
            gradcheck_hashes,
            refine_hashes,
            frame_hashes,
            reader_hashes,
            loader_hashes,
            nearest_hashes,
        )
        for name, digest in part().items()
    ]
    print("\n".join(lines))
    print(f"total {_sha(chr(10).join(lines).encode())}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
