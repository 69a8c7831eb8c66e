#!/usr/bin/env python3
"""Sweep the defining-relation residuals of the vacuum representation over a
grid of (n, q, N) and print the worst residual per configuration.

Usage: python scripts/run_relation_suite.py
"""

import sys
import time

from qmatball.matrixball import a_m_checks, contraction_check, fock_rep, verify_relations

GRID = [
    (1, 0.5, 8),
    (2, 0.3, 6),
    (2, 0.5, 6),
    (2, 0.8, 6),
    (3, 0.5, 4),
    (3, 0.5, 5),
]


def main() -> int:
    print(f"{'n':>2} {'q':>5} {'N':>3} {'instances':>10} {'max residual':>14} "
          f"{'max norm':>10} {'time':>8}")
    failed = False
    for n, q, trunc in GRID:
        start = time.perf_counter()
        g = fock_rep(n, q, trunc)
        reports = verify_relations(g)
        if n >= 2:
            reports += a_m_checks(g)
        worst = max(r.residual for r in reports)
        norms = max(norm for _, norm in contraction_check(g))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-10 and norms <= 1.0 + 1e-9
        failed |= not ok
        print(f"{n:>2} {q:>5} {trunc:>3} {len(reports):>10} {worst:>14.3e} "
              f"{norms:>10.6f} {elapsed:>7.2f}s{'' if ok else '  <-- FAIL'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
