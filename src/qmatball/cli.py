"""Batch command surface: counting, coset minimization, representation
building, relation verification, and grid rendering.

Exit codes: 0 success, 1 verification failure, 2 invalid input.  All output
goes to stdout (JSON or plain text); ``--out FILE`` redirects it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import diagramcalc, matrixball, permgroup
from .permgroup import AdmissibleString, Permutation
from .qoperator import TensorOperator, operator_to_json, vacuum_matrix_element

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _dump_json(payload, out_path: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True), out_path)


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _load_string(path: str) -> AdmissibleString:
    return AdmissibleString.from_json(_load_json(path))


def cmd_count(args: argparse.Namespace) -> int:
    enumerated = sum(1 for _ in permgroup.iter_admissible(args.n))
    from_gf = permgroup.gf_counts(args.n)[args.n]
    ok = enumerated == from_gf
    _emit(f"{enumerated} {from_gf} {'OK' if ok else 'MISMATCH'}", args.out_path)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_enumerate(args: argparse.Namespace) -> int:
    strings = permgroup.enumerate_admissible(args.n)
    _dump_json([list(ks) for ks in strings], args.out_path)
    return EXIT_OK


def cmd_minimize(args: argparse.Namespace) -> int:
    sigma = Permutation.from_json(_load_json(args.perm_path))
    fact = permgroup.minimal_coset_rep(sigma)
    lengths = {
        "sigma": sigma.length(),
        "w": fact.w.length(),
        "g": fact.g.length(),
        "h": fact.h.length(),
    }
    additive = lengths["sigma"] == lengths["w"] + lengths["g"] + lengths["h"]
    payload = {
        "w": fact.w.to_json(),
        "g": fact.g.to_json(),
        "h": fact.h.to_json(),
        "lengths": lengths,
        "length_additive": additive,
    }
    _dump_json(payload, args.out_path)
    return EXIT_OK if additive else EXIT_VERIFY_FAILED


def cmd_build(args: argparse.Namespace) -> int:
    string = _load_string(args.string_path)
    g = matrixball.rep_from_string(string, args.q, args.trunc)
    if args.emit == "z":
        payload = {
            f"z_{k}^{j}": operator_to_json(g.gen(k, j))
            for k in range(1, g.n + 1)
            for j in range(1, g.n + 1)
        }
    else:
        payload = {}
        for k in range(1, g.n + 1):
            for j in range(1, g.n + 1):
                value = vacuum_matrix_element(g.gen(k, j))
                payload[f"z_{k}^{j}"] = [value.real, value.imag]
    _dump_json({"n": g.n, "q": g.q, "trunc": g.N, "factors": g.f, args.emit: payload},
               args.out_path)
    return EXIT_OK


def _perturbed(g: matrixball.GeneratorImages, eps: float) -> matrixball.GeneratorImages:
    """Deliberately damage one generator so the verifier must flag it."""
    first = g.gen(1, 1)
    if not first.scalars.size:
        raise ValueError("cannot perturb a zero generator")
    scalars = first.scalars.copy()
    scalars[0] = complex(scalars[0]) * (1.0 + eps)
    damaged = TensorOperator.from_ids(first.f, first.dim, scalars, first.ids)
    table = [[g.gen(k, j) for j in range(1, g.n + 1)] for k in range(1, g.n + 1)]
    table[0][0] = damaged
    return matrixball.GeneratorImages(
        g.n, g.q, g.N, tuple(tuple(row) for row in table),
        provenance=g.provenance + f"+perturb({eps})",
    )


def _warn_vacuum_window(reports: list[matrixball.RelationReport], trunc: int) -> None:
    """One stderr line when the families of depth trunc - 1 were checked on a
    window that keeps only the vacuum."""
    depth = trunc - 1
    families = list(dict.fromkeys(r.relation for r in reports if r.depth == depth))
    if families:
        print(f"warning: at --trunc {trunc} the window of depth {depth} holds only the "
              f"vacuum for {', '.join(families)}; use --trunc {trunc + 1} or more",
              file=sys.stderr)


# a huge --perturb overflows the products to inf and NaN; the summary reports
# that as max_residual and fails, so numpy need not warn as well
@np.errstate(over="ignore", invalid="ignore")
def cmd_verify(args: argparse.Namespace) -> int:
    is_fock = args.fock is not None
    if is_fock:
        string = AdmissibleString(args.fock, (args.fock,) * args.fock)
    else:
        string = _load_string(args.string_path)
    if string.n >= 2 and args.trunc <= matrixball.A_M_DEPTH:
        raise ValueError(
            f"--trunc {args.trunc} is too small at n={string.n}: the A_m commutation "
            f"families (words of length {matrixball.A_M_DEPTH}) would have an empty "
            f"window; use --trunc {matrixball.A_M_DEPTH + 1} or more"
        )
    if is_fock:
        g = matrixball.fock_rep(args.fock, args.q, args.trunc)
    else:
        g = matrixball.rep_from_string(string, args.q, args.trunc)
    if args.perturb:
        g = _perturbed(g, args.perturb)

    reports = matrixball.verify_relations(g)
    if g.n >= 2:
        reports += matrixball.a_m_checks(g)
    if args.oracle:
        # independent reconstruction of every generator through the
        # lattice-path calculus
        grid = diagramcalc.grid_from_string(string)
        for k in range(1, g.n + 1):
            for j in range(1, g.n + 1):
                alt = diagramcalc.synthesize_z(grid, k, j, args.q, args.trunc)
                reports.append(
                    matrixball.RelationReport.of("oracle-cross", (k, j), g.gen(k, j), alt, 1)
                )
    residuals = [r.residual for r in reports]
    # max() skips a NaN that is not first; a NaN anywhere must fail the gate
    max_residual = math.nan if any(map(math.isnan, residuals)) else max(residuals)
    _warn_vacuum_window(reports, args.trunc)

    contraction = matrixball.contraction_check(g)
    contraction_ok = all(norm <= 1.0 + 1e-9 for _, norm in contraction)

    vacuum_ok = True
    if is_fock and not args.perturb:
        vacuum_ok = matrixball.vacuum_annihilation_exact(g)

    passed = max_residual < args.tol and contraction_ok and vacuum_ok
    payload = {
        "provenance": g.provenance,
        "reports": [
            {
                "relation": r.relation,
                "indices": list(r.indices),
                "residual": r.residual,
                "depth": r.depth,
            }
            for r in reports
        ],
        "contraction_norms": [
            {"generator": list(kj), "norm": norm} for kj, norm in contraction
        ],
        "vacuum_annihilation_exact": vacuum_ok,
        "summary": {
            "max_residual": max_residual,
            "tol": args.tol,
            "pass": passed,
        },
    }
    _dump_json(payload, args.out_path)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_render(args: argparse.Namespace) -> int:
    string = _load_string(args.string_path)
    _emit(diagramcalc.render_ascii(diagramcalc.grid_from_string(string)), args.out_path)
    return EXIT_OK


def cmd_paths(args: argparse.Namespace) -> int:
    paths = diagramcalc.enumerate_paths(args.n, args.k, args.j)
    _dump_json([diagramcalc.path_to_json(p) for p in paths], args.out_path)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; parsing does not change it.

    It is the only declaration of the options and their defaults; each
    subcommand carries its handler as ``handler``.
    """
    parser = argparse.ArgumentParser(
        prog="qmatball",
        description="Quantized matrix ball: enumeration, minimization, "
        "representation building and verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--q", type=float, default=0.5)
        p.add_argument("--trunc", type=int, default=6)

    p_count = command("count", cmd_count, "compare enumerated and generating-function counts")
    p_count.add_argument("--n", type=int, required=True)

    p_enum = command("enumerate", cmd_enumerate, "list all admissible strings")
    p_enum.add_argument("--n", type=int, required=True)

    p_min = command("minimize", cmd_minimize, "minimal double-coset factorization")
    p_min.add_argument("--perm", dest="perm_path", required=True)

    p_build = command("build", cmd_build, "build a representation from a string")
    p_build.add_argument("--string", dest="string_path", required=True)
    p_build.add_argument("--emit", choices=["z", "matrix-elements"], default="z")
    common(p_build)

    p_verify = command("verify", cmd_verify, "run the relation suites")
    p_verify.add_argument("--string", dest="string_path")
    p_verify.add_argument("--fock", type=int)
    p_verify.add_argument("--perturb", type=float, default=0.0)
    p_verify.add_argument("--oracle", action="store_true")
    p_verify.add_argument("--tol", type=float, default=1e-10)
    common(p_verify)

    p_render = command("render", cmd_render, "ASCII grid for a string")
    p_render.add_argument("--string", dest="string_path", required=True)

    p_paths = command("paths", cmd_paths, "list staircase paths for (k, j)")
    p_paths.add_argument("--n", type=int, required=True)
    p_paths.add_argument("--k", type=int, required=True)
    p_paths.add_argument("--j", type=int, required=True)

    # last, so that each usage line lists it after the command's own options
    for p in sub.choices.values():
        p.add_argument("--out", dest="out_path")

    return parser


def _check(args: argparse.Namespace) -> None:
    """Refuse an option value out of range, for the subcommands that have it."""
    if "q" in args and not 0.0 < args.q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {args.q}")
    if "trunc" in args and args.trunc < 3:
        raise ValueError(f"truncation level must be at least 3, got {args.trunc}")
    if "tol" in args and not 0.0 < args.tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {args.tol}")
    if "perturb" in args and not math.isfinite(args.perturb):
        raise ValueError(f"perturbation must be finite, got {args.perturb}")
    if args.subcommand == "verify" and (args.string_path is None) == (args.fock is None):
        raise ValueError("verify needs exactly one of --string or --fock")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check(args)
        return args.handler(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
