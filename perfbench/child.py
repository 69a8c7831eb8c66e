"""One fresh interpreter of the benchmark: set up a workload, optionally run
one pass, check it, and print one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --pass 0|1 --trace 0|1

The source tree is found from this file, so the interpreter needs no
installed package.  ``ready`` is the ``time.monotonic()`` reading taken once
the generator images are built; on Linux that clock is shared between
processes, so the parent takes set-up time from its own reading before the
spawn, and set-up covers interpreter start, the imports and the build.
``setup_kernel`` holds the reference kernel's times right after set-up, and
``wall_s`` the pass time scaled by the kernel's times during the pass, both
to put times at the reference speed of ``speed.py``.
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--pass", dest="run_pass", type=int, choices=(0, 1), required=True
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from speed import SETUP_SAMPLES, SpeedSampler, kernel_samples
    from workloads import WORKLOADS, Tally

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    result = {"ready": time.monotonic(), "setup_kernel": kernel_samples(SETUP_SAMPLES)}
    if args.run_pass:
        work_root = Path(__file__).resolve().parent / ".work"
        work_root.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root))
        try:
            tracer = None
            if args.trace:
                from tracing import Tracer

                tracer = Tracer()
                tracer.install()
            try:
                with SpeedSampler() as sampler:
                    start = time.perf_counter()
                    out = workload.run(state, workdir)
                    raw_wall_s = time.perf_counter() - start
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            finally:
                if tracer is not None:
                    tracer.uninstall()
            wall_s = sampler.scaled(raw_wall_s)
            tally = Tally()
            workload.check(state, out, tally)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result.update(
            wall_s=wall_s,
            raw_wall_s=raw_wall_s,
            kernel_s=statistics.median(sampler.samples),
            peak_rss_mb=peak_kb / 1024.0,
            attempted=tally.attempted,
            failed=tally.failed,
            failures=tally.failures,
            max_residual=tally.max_residual,
            env=environment(),
        )
        if tracer is not None:
            from tracing import layer_metrics, span_table

            result["layers"] = layer_metrics(tracer, raw_wall_s)
            result["spans"] = span_table(tracer.spans)
            trace_file = work_root / f"trace-{args.workload}.json"
            trace_file.write_text(json.dumps({"spans": tracer.spans}), encoding="utf-8")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
