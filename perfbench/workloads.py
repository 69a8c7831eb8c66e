"""The three benchmark workloads and the checks on their outputs.

Each workload has three steps:

* ``setup(seed)`` builds the generator images the workload needs; the child
  process times it from interpreter start as ``setup_s``;
* ``run(state, workdir)`` is one timed pass through the public API;
* ``check(state, out, tally)`` compares every output against an oracle and
  counts one operation per relation instance, oracle comparison, CLI command
  or count check.

Checks run outside the timed pass and outside any trace.  The module imports
the program, so a child process imports it only after its clock has started.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

from qmatball import cli, diagramcalc, matrixball, permgroup, qoperator
from qmatball.permgroup import AdmissibleString

Q = 0.5
# the CLI's default gate: a residual at or above it is a failed operation
TOL = 1e-10
# slack the CLI itself grants the contraction norms
NORM_SLACK = 1e-9

STRINGS_N = 4
STRINGS_TRUNC = 3
# A002720 at n = 4
STRINGS_COUNT = 209


class Tally:
    """Attempted and failed operations, the worst residual seen, and the
    first few failures by name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.max_residual = 0.0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)

    def residual(self, value: float, what: str) -> None:
        self.max_residual = max(self.max_residual, float(value))
        self.check(value < TOL, f"{what}: residual {value!r}")


# ---------------------------------------------------------------------------
# checks shared by the relation workloads
# ---------------------------------------------------------------------------


def expected_family_counts(n: int, a_m: bool) -> Counter:
    """Relation instances per family, in closed form from the index ranges
    that ``verify_relations`` and ``a_m_checks`` loop over."""
    pairs = n * (n - 1) // 2
    counts = Counter(
        {
            "zaa1": 2 * n * pairs,
            "zaa1*": 2 * n * pairs,
            "zaa2": pairs * pairs,
            "zaa2*": pairs * pairs,
            "zaa3": pairs * pairs,
            "zaa3*": pairs * pairs,
            "zaa41": n * n * (n - 1) ** 2,
            "zaa42": n * n * (n - 1),
            "zaa43": n * n * (n - 1),
            "zaa44": n * n,
            "R-form": n**4,
        }
    )
    if a_m and n >= 2:
        counts["A_m-comm"] = n * (n + 1)
    return +counts


def check_reports(
    reports: list[tuple[str, float]], n: int, a_m: bool, tally: Tally
) -> None:
    """One count check over the families, then one operation per instance."""
    got = Counter(relation for relation, _ in reports)
    want = expected_family_counts(n, a_m)
    tally.check(got == want, f"family counts {dict(got)} != {dict(want)}")
    for relation, residual in reports:
        tally.residual(residual, relation)


def check_verify_output(code: int, path: Path, n: int, tally: Tally) -> None:
    """Checks on the JSON written by ``qmatball verify --fock n --out path``."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        passed = payload["summary"]["pass"] is True
        vacuum = payload["vacuum_annihilation_exact"] is True
        reports = [(r["relation"], r["residual"]) for r in payload["reports"]]
        norms = payload["contraction_norms"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        tally.check(False, f"verify exit code {code}, output unreadable: {exc!r}")
        return
    tally.check(
        code == cli.EXIT_OK and passed and vacuum,
        f"verify exit code {code}, pass {passed}, vacuum annihilation {vacuum}",
    )
    check_reports(reports, n, True, tally)
    tally.check(len(norms) == 2 * n - 1, f"{len(norms)} contraction norms")
    for entry in norms:
        tally.check(
            entry["norm"] <= 1.0 + NORM_SLACK, f"norm of z{entry['generator']}"
        )


# ---------------------------------------------------------------------------
# fock3-verify: the headline CLI command
# ---------------------------------------------------------------------------


class Fock3Verify:
    n = 3
    trunc = 5

    def setup(self, seed: int) -> dict:
        # the images a library caller would build; the CLI builds its own
        return {"g": matrixball.fock_rep(self.n, Q, self.trunc)}

    def run(self, state: dict, workdir: Path) -> dict:
        out = workdir / "verify.json"
        argv = ["verify", "--fock", str(self.n), "--trunc", str(self.trunc)]
        code = cli.main(argv + ["--q", str(Q), "--out", str(out)])
        return {"code": code, "path": out}

    def check(self, state: dict, out: dict, tally: Tally) -> None:
        check_verify_output(out["code"], out["path"], self.n, tally)


# ---------------------------------------------------------------------------
# fock4-relations: the operator algebra at n = 4 through the library API
# ---------------------------------------------------------------------------


class Fock4Relations:
    n = 4
    trunc = 3

    def setup(self, seed: int) -> dict:
        return {"g": matrixball.fock_rep(self.n, Q, self.trunc)}

    def run(self, state: dict, workdir: Path) -> dict:
        g = state["g"]
        reports = matrixball.verify_relations(g, tol=TOL)
        return {"reports": reports, "vacuum": matrixball.vacuum_annihilation_exact(g)}

    def check(self, state: dict, out: dict, tally: Tally) -> None:
        reports = [(r.relation, r.residual) for r in out["reports"]]
        check_reports(reports, self.n, False, tally)
        tally.check(out["vacuum"] is True, "vacuum annihilation")


# ---------------------------------------------------------------------------
# strings4-build: the write side over every admissible string at n = 4
# ---------------------------------------------------------------------------


def _row_bound(ks: tuple[int, ...], j: int) -> int:
    """Admissibility bound of row j for ``ks = (k_n, ..., k_1)``: the larger of
    j and ``k_i + j + 1 - i`` over the rows i above j."""
    n = len(ks)
    return max([j] + [ks[n - i] + j + 1 - i for i in range(j + 1, n + 1)])


def admissible_strings(n: int) -> list[tuple[int, ...]]:
    """Every admissible ``(k_n, ..., k_1)``, by filtering all of ``{0..n}^n``;
    an oracle independent of ``permgroup.enumerate_admissible``."""
    return [
        ks
        for ks in itertools.product(range(n + 1), repeat=n)
        if all(ks[n - j] <= _row_bound(ks, j) for j in range(1, n + 1))
    ]


def string_inputs(seed: int) -> list[dict]:
    """The string files of strings4-build: every admissible string at n = 4,
    with a phase drawn from ``seed`` on each row below its bound (rows at
    their bound must carry phase 0)."""
    rng = random.Random(seed)
    payloads = []
    for ks in admissible_strings(STRINGS_N):
        pairs = []
        for idx, k in enumerate(ks):
            at_bound = k == _row_bound(ks, STRINGS_N - idx)
            pairs.append([k, 0.0 if at_bound else rng.uniform(0.0, 2.0 * math.pi)])
        payloads.append({"n": STRINGS_N, "pairs": pairs})
    return payloads


class Strings4Build:
    n = STRINGS_N
    trunc = STRINGS_TRUNC

    def setup(self, seed: int) -> dict:
        payloads = string_inputs(seed)
        strings = [AdmissibleString.from_json(p) for p in payloads]
        reps = [matrixball.rep_from_string(s, Q, self.trunc) for s in strings]
        return {"payloads": payloads, "strings": strings, "reps": reps}

    def run(self, state: dict, workdir: Path) -> dict:
        n, trunc = self.n, self.trunc
        enumerated = permgroup.enumerate_admissible(n)
        from_gf = permgroup.gf_counts(n)[n]
        common = ["--q", str(Q), "--trunc", str(trunc)]
        builds = []
        oracle = []
        for idx, (payload, string, rep) in enumerate(
            zip(state["payloads"], state["strings"], state["reps"])
        ):
            path = workdir / f"string{idx}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            z_path = workdir / f"z{idx}.json"
            m_path = workdir / f"m{idx}.json"
            z_code = cli.main(
                ["build", "--string", str(path), "--emit", "z", "--out", str(z_path)]
                + common
            )
            m_code = cli.main(
                ["build", "--string", str(path), "--emit", "matrix-elements",
                 "--out", str(m_path)]
                + common
            )
            builds.append((z_code, z_path, m_code, m_path))
            grid = diagramcalc.grid_from_string(string)
            per_string = {}
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    paths = diagramcalc.synthesize_z(grid, k, j, Q, trunc)
                    per_string[(k, j)] = (
                        qoperator.vacuum_matrix_element(paths),
                        qoperator.residual_on_window(rep.gen(k, j), paths, 1),
                    )
            oracle.append(per_string)
        return {
            "enumerated": enumerated,
            "from_gf": from_gf,
            "builds": builds,
            "oracle": oracle,
        }

    def check(self, state: dict, out: dict, tally: Tally) -> None:
        expected = admissible_strings(self.n)
        tally.check(
            sorted(out["enumerated"]) == expected
            and out["from_gf"] == len(expected) == STRINGS_COUNT,
            f"{len(out['enumerated'])} enumerated, {out['from_gf']} from the "
            f"series, {len(expected)} by filtering",
        )
        for idx, rep in enumerate(state["reps"]):
            z_code, z_path, m_code, m_path = out["builds"][idx]
            self._check_z(idx, rep, z_code, z_path, tally)
            self._check_elements(idx, out["oracle"][idx], m_code, m_path, tally)
            for (k, j), (_, residual) in out["oracle"][idx].items():
                tally.residual(residual, f"string {idx} lattice paths z_{k}^{j}")

    def _load(self, code: int, path: Path, emit: str, idx: int, tally: Tally) -> dict:
        """Checks one build command; returns its ``emit`` table, empty when
        the command failed."""
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            ok = (payload["n"], payload["trunc"]) == (self.n, self.trunc)
            table = payload[emit]
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            ok, table = False, {}
        tally.check(
            ok and code == cli.EXIT_OK,
            f"string {idx}: build --emit {emit} exit code {code}",
        )
        return table if ok else {}

    def _check_z(self, idx, rep, code, path, tally: Tally) -> None:
        emitted = self._load(code, path, "z", idx, tally)
        for k in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                what = f"string {idx}: z_{k}^{j} JSON round trip"
                try:
                    op = qoperator.operator_from_json(emitted[f"z_{k}^{j}"])
                    # JSON floats round-trip exactly, so the residual is exactly 0
                    residual = qoperator.residual_on_window(op, rep.gen(k, j), 1)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    tally.check(False, f"{what}: {exc!r}")
                    continue
                tally.check(residual == 0.0, f"{what}: residual {residual!r}")

    def _check_elements(self, idx, oracle, code, path, tally: Tally) -> None:
        emitted = self._load(code, path, "matrix-elements", idx, tally)
        for (k, j), (expected, _) in oracle.items():
            what = f"string {idx}: vacuum element of z_{k}^{j}"
            try:
                value = complex(*emitted[f"z_{k}^{j}"])
            except (KeyError, TypeError, ValueError) as exc:
                tally.check(False, f"{what}: {exc!r}")
                continue
            tally.residual(abs(value - expected), what)


WORKLOADS = {
    "fock3-verify": Fock3Verify(),
    "fock4-relations": Fock4Relations(),
    "strings4-build": Strings4Build(),
}
