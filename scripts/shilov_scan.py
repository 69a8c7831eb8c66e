#!/usr/bin/env python3
"""Scan every admissible string and measure how far its representation sits
from annihilating the boundary-ideal generators.

The scan confirms the combinatorial prediction: the generators die exactly on
strings with k_i < i for every row (equivalently, no row at its bound).

Usage: python scripts/shilov_scan.py [n]

n is the matrix size (default 3).  The truncation level is N = 6 for n <= 2
and N = 4 otherwise.
"""

import sys

import numpy as np

from qmatball.matrixball import rep_from_string, shilov_eval
from qmatball.permgroup import admissible_bound, AdmissibleString, boundary_set, enumerate_admissible


def string_with_random_phases(ks, rng):
    n = len(ks)
    phases = []
    for j in range(n, 0, -1):
        if ks[n - j] == admissible_bound(ks, j):
            phases.append(0.0)
        else:
            phases.append(float(rng.uniform(0.0, 2.0 * np.pi * 0.999)))
    return AdmissibleString(n, tuple(ks), tuple(phases))


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    trunc = 6 if n <= 2 else 4
    rng = np.random.default_rng(2718281828)
    print(f"{'string':>16} {'interior?':>10} {'max |boundary gen|':>20}")
    mismatches = 0
    for ks in enumerate_admissible(n):
        s = string_with_random_phases(ks, rng)
        g = rep_from_string(s, 0.5, trunc)
        worst = max(
            shilov_eval(g, a, b)[1]
            for a in range(1, n + 1)
            for b in range(1, n + 1)
        )
        interior = not boundary_set(ks)
        annihilates = worst < 1e-10
        flag = "" if interior == annihilates else "  <-- UNEXPECTED"
        mismatches += interior != annihilates
        print(f"{str(list(ks)):>16} {str(interior):>10} {worst:>20.3e}{flag}")
    print("prediction holds" if mismatches == 0 else f"{mismatches} mismatches")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
