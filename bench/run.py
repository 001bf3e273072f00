"""graphdet benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the repository root:

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload desk-train --seed 3 --seconds 40
    python3 bench/run.py --workload eval-dump --trace 1   # per-layer metrics

Each workload runs in child processes started one at a time: a few that
only set up (for the set-up time median) and then the measured run.  The
children import ``graphdet`` from ``src/`` of this checkout and use one
BLAS thread.  Every workload prints its metrics by name with their units,
the operations attempted and failed, and whether every output check
passed; the last line of standard output is that result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("desk-train", "dense-scene", "eval-dump")
SETUP_SAMPLES = 5  # set-up is timed in this many processes, the measured run included
# Full-speed wall time of the longest stretch a run cannot cut short: the
# measured loop finishes the round it is in, and the longest is a traced
# dense-scene round pair (an untraced and a traced round, about 50 s) followed
# by the extra tracemalloc round (about 20 s).
LONGEST_ROUND_S = 70


def child_timeout(seconds: int) -> float:
    """Time allowed to a measured process: its loop and one longest round, both at half speed."""
    return 2 * (seconds + LONGEST_ROUND_S) + 30


class BenchError(Exception):
    pass


def _child(args: list[str], env: dict, timeout: float) -> dict:
    """Run one workload process and return the JSON object it prints last."""
    work = ROOT / ".bench_work" / f"{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(BENCH / "workloads.py"), *args, "--work", str(work), "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool, env: dict) -> dict:
    """Run one workload; the full result, with samples, goes to .bench_out/."""
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    if trace:
        result = _child(common, env, child_timeout(seconds))
        (out / f"trace-{name}.json").write_text(json.dumps(result, indent=1) + "\n")
        print(f"{name}: traced pipeline_s {result['info']['traced_pipeline_s']:.4f} s against "
              f"{result['info']['untraced_pipeline_s']:.4f} s untraced "
              f"(overhead {100 * result['info']['overhead']:+.1f}%)")
    else:
        setups = [_child(common + ["--setup-only"], env, 60)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        result = _child(common, env, child_timeout(seconds))
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["info"]["setup_samples"] = setups
        (out / f"result-{name}.json").write_text(json.dumps(result, indent=1) + "\n")
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def _expected_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="graphdet benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated detection frames")
    parser.add_argument("--seconds", type=int, default=40, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "graphdet" / "__init__.py").is_file():
        print(f"error: no graphdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    expected = _expected_metrics(bool(args.trace))

    for name in [args.workload] if args.workload else WORKLOADS:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if sorted(result["metrics"]) != sorted(expected):
            print(f"error: {name} reported metrics that differ from BENCHMARK.json", file=sys.stderr)
            return 1
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric in expected:
            entry = result["metrics"][metric]
            print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
