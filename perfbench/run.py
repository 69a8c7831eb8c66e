"""Benchmark of qmatball: time to a passing certificate, end to end and per
layer.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload fock3-verify --seed 1 --seconds 30 --trace 0

The workloads are defined in ``workloads.py`` and listed with their reasons
in ``BENCHMARK.json``.  The loop is closed: one caller, each pass waiting for
the previous one.  Every pass runs in a fresh child interpreter
(``child.py``) with BLAS pinned to one thread, so the child's peak resident
memory belongs to that pass alone.  Passes repeat until the next one would
end after ``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics: the median pass time
``wall_s``, the median set-up time ``setup_s`` over at least five fresh
interpreters, and the median ``peak_rss_mb``.  Both times are scaled to a
reference host speed sampled in the child (``speed.py``), during the pass
and right after set-up, because the host's own speed drifts by more than
the bounds; the raw times are printed beside them.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracing.py``, medians over the traced passes, with the tracing overhead;
the last traced pass also leaves its spans in
``perfbench/.work/trace-<workload>.json``.
Every output is checked; each check is one attempted operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the benchmark ran, whether or not the checks passed; it is 1 when it
could not run (no source tree, a child that crashed or overran).
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

from speed import scaled_wall

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_SETUP_SAMPLES = 5
# a run ends within this, whatever --seconds asks for
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(
    workload: str, seed: int, run_pass: bool, trace: bool, deadline: float
) -> dict:
    """Runs one child to completion and returns its result, with ``setup_s``
    measured from just before the spawn and scaled to the reference speed."""
    argv = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--pass", str(int(run_pass)), "--trace", str(int(trace)),
    ]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child overran the run limit") from exc
    duration = time.monotonic() - start
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} child exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{workload} child printed no result") from exc
    result["raw_setup_s"] = result["ready"] - start
    result["setup_s"] = scaled_wall(result["raw_setup_s"], 0.0, result["setup_kernel"])
    result["duration_s"] = duration
    return result


def run_children(
    workload: str, seed: int, seconds: int, trace: bool, deadline: float
) -> list[dict]:
    """Pass children until the next would end after ``seconds``.  With
    ``trace`` they come in pairs, an untraced pass and then a traced one."""
    start = time.monotonic()
    kinds = (False, True) if trace else (False,)
    children: list[dict] = []
    while True:
        for traced in kinds:
            child = spawn(workload, seed, True, traced, deadline)
            child["traced"] = traced
            children.append(child)
        step = sum(child["duration_s"] for child in children[-len(kinds):])
        now = time.monotonic()
        if now - start + step > seconds or now + step > deadline:
            return children


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]], required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qmatball" / "__init__.py").is_file():
        print(f"error: no qmatball source tree under {ROOT / 'src'}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        children = run_children(
            args.workload, args.seed, args.seconds, bool(args.trace), deadline
        )
        setups = [child["setup_s"] for child in children]
        if not args.trace:
            while len(setups) < MIN_SETUP_SAMPLES:
                child = spawn(args.workload, args.seed, False, False, deadline)
                setups.append(child["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = dict(children[0]["env"], nproc=os.cpu_count(), blas_threads=BLAS_THREADS)
    env_text = json.dumps(env, sort_keys=True)
    print(f"workload {args.workload} seed {args.seed} env {env_text}")
    for child in children:
        kind = "traced" if child["traced"] else "pass"
        print(
            f"  {kind:6s} wall {child['wall_s']:.4f} s"
            f" (raw {child['raw_wall_s']:.4f} s, kernel {child['kernel_s'] * 1e3:.3f} ms)"
            f"  setup {child['setup_s']:.4f} s (raw {child['raw_setup_s']:.4f} s)  rss {child['peak_rss_mb']:.1f} MB"
            f"  failed {child['failed']}/{child['attempted']}"
            f"  max residual {child['max_residual']:.3g}"
        )
        for failure in child["failures"]:
            print(f"    FAILED {failure}")
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    print("  setup " + " ".join(f"{value:.4f}" for value in setups) + " s")
    print(f"  operations {attempted}, failed {failed}, "
          f"fail_frac {failed / attempted:.6g}")

    plain = [child for child in children if not child["traced"]]
    if args.trace:
        traced = [child for child in children if child["traced"]]
        values = median_metrics([child["layers"] for child in traced])
        untraced_wall = statistics.median(child["wall_s"] for child in plain)
        traced_wall = statistics.median(child["wall_s"] for child in traced)
        values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        spans = sorted(traced[-1]["spans"].items(), key=lambda item: -item[1][1])
        print("  self time by span (last traced pass):")
        for name, (calls, own) in spans:
            print(f"    {name:32s} {own:10.4f} s  {int(calls):8d} calls")
    else:
        values = {
            "wall_s": statistics.median(child["wall_s"] for child in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in plain),
        }
    declared = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    if set(values) != set(declared):
        print(f"error: metrics {sorted(values)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {
        name: {"value": value, "unit": declared[name]} for name, value in values.items()
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
