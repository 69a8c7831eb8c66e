#!/usr/bin/env python3
"""Tabulate admissible-string counts: direct enumeration vs the exact series.

Usage: python scripts/count_strings.py [N_MAX]
"""

import sys

from qmatball.permgroup import gf_counts, iter_admissible


def main() -> int:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    series = gf_counts(n_max)
    print(f"{'n':>3} {'enumerated':>12} {'series':>12}")
    for n in range(n_max + 1):
        enumerated = sum(1 for _ in iter_admissible(n))
        flag = "" if enumerated == series[n] else "  <-- MISMATCH"
        print(f"{n:>3} {enumerated:>12} {series[n]:>12}{flag}")
        if enumerated != series[n]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
