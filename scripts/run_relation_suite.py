#!/usr/bin/env python3
"""Run `qmatball verify --fock n` over a grid of (n, q, N) and print the
worst residual and contraction norm per configuration.

Each row is one `verify` run, so it passes or fails exactly as the command
does; the script exits 1 when any row does not exit 0.

Usage: python scripts/run_relation_suite.py
"""

import contextlib
import io
import json
import sys
import time

from qmatball.cli import main as qmatball

GRID = [
    (1, 0.5, 8),
    (2, 0.3, 6),
    (2, 0.5, 6),
    (2, 0.8, 6),
    (3, 0.3, 5),
    (3, 0.5, 5),
]


def main() -> int:
    print(f"{'n':>2} {'q':>5} {'N':>3} {'instances':>10} {'max residual':>14} "
          f"{'max norm':>10} {'time':>8}")
    failed = False
    for n, q, trunc in GRID:
        argv = ["verify", "--fock", str(n), "--q", str(q), "--trunc", str(trunc)]
        start = time.perf_counter()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = qmatball(argv)
        elapsed = time.perf_counter() - start
        failed |= code != 0
        if not out.getvalue():
            print(f"{n:>2} {q:>5} {trunc:>3}  verify exited {code}  <-- FAIL")
            continue
        payload = json.loads(out.getvalue())
        worst = payload["summary"]["max_residual"]
        norms = max(c["norm"] for c in payload["contraction_norms"])
        print(f"{n:>2} {q:>5} {trunc:>3} {len(payload['reports']):>10} {worst:>14.3e} "
              f"{norms:>10.6f} {elapsed:>7.2f}s{'' if code == 0 else '  <-- FAIL'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
