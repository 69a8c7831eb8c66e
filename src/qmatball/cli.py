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
from dataclasses import dataclass

from . import diagramcalc, matrixball, permgroup
from .permgroup import AdmissibleString, Permutation
from .qoperator import TensorOperator, operator_to_json, vacuum_matrix_element

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2


@dataclass
class CommandConfig:
    subcommand: str
    n: int | None = None
    q: float = 0.5
    trunc: int = 6
    tol: float = 1e-10
    string_path: str | None = None
    perm_path: str | None = None
    out_path: str | None = None
    emit: str = "z"
    fock: int | None = None
    k: int | None = None
    j: int | None = None
    perturb: float = 0.0
    oracle: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if self.trunc < 3:
            raise ValueError(f"truncation level must be at least 3, got {self.trunc}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        if not math.isfinite(self.perturb):
            raise ValueError(f"perturbation must be finite, got {self.perturb}")


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


def cmd_count(cfg: CommandConfig) -> int:
    enumerated = sum(1 for _ in permgroup.iter_admissible(cfg.n))
    from_gf = permgroup.gf_counts(cfg.n)[cfg.n]
    ok = enumerated == from_gf
    _emit(f"{enumerated} {from_gf} {'OK' if ok else 'MISMATCH'}", cfg.out_path)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_enumerate(cfg: CommandConfig) -> int:
    strings = permgroup.enumerate_admissible(cfg.n)
    _dump_json([list(ks) for ks in strings], cfg.out_path)
    return EXIT_OK


def cmd_minimize(cfg: CommandConfig) -> int:
    sigma = Permutation.from_json(_load_json(cfg.perm_path))
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
    _dump_json(payload, cfg.out_path)
    return EXIT_OK if additive else EXIT_VERIFY_FAILED


def cmd_build(cfg: CommandConfig) -> int:
    string = _load_string(cfg.string_path)
    g = matrixball.rep_from_string(string, cfg.q, cfg.trunc)
    if cfg.emit == "z":
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
    _dump_json({"n": g.n, "q": g.q, "trunc": g.N, "factors": g.f, cfg.emit: payload},
               cfg.out_path)
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


def cmd_verify(cfg: CommandConfig) -> int:
    is_fock = cfg.fock is not None
    if is_fock:
        string = AdmissibleString(cfg.fock, (cfg.fock,) * cfg.fock)
    else:
        string = _load_string(cfg.string_path)
    if string.n >= 2 and cfg.trunc <= matrixball.A_M_DEPTH:
        raise ValueError(
            f"--trunc {cfg.trunc} is too small at n={string.n}: the A_m commutation "
            f"families (words of length {matrixball.A_M_DEPTH}) would have an empty "
            f"window; use --trunc {matrixball.A_M_DEPTH + 1} or more"
        )
    if is_fock:
        g = matrixball.fock_rep(cfg.fock, cfg.q, cfg.trunc)
    else:
        g = matrixball.rep_from_string(string, cfg.q, cfg.trunc)
    if cfg.perturb:
        g = _perturbed(g, cfg.perturb)

    reports = matrixball.verify_relations(g, tol=cfg.tol)
    if g.n >= 2:
        reports += matrixball.a_m_checks(g)
    if cfg.oracle:
        # independent reconstruction of every generator through the
        # lattice-path calculus
        grid = diagramcalc.grid_from_string(string)
        for k in range(1, g.n + 1):
            for j in range(1, g.n + 1):
                alt = diagramcalc.synthesize_z(grid, k, j, cfg.q, cfg.trunc)
                reports.append(
                    matrixball.RelationReport.of("oracle-cross", (k, j), g.gen(k, j), alt, 1)
                )
    residuals = [r.residual for r in reports]
    # max() skips a NaN that is not first; a NaN anywhere must fail the gate
    max_residual = math.nan if any(map(math.isnan, residuals)) else max(residuals)
    _warn_vacuum_window(reports, cfg.trunc)

    contraction = matrixball.contraction_check(g)
    contraction_ok = all(norm <= 1.0 + 1e-9 for _, norm in contraction)

    vacuum_ok = True
    if is_fock and not cfg.perturb:
        vacuum_ok = matrixball.vacuum_annihilation_exact(g)

    passed = max_residual < cfg.tol and contraction_ok and vacuum_ok
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
            "tol": cfg.tol,
            "pass": passed,
        },
    }
    _dump_json(payload, cfg.out_path)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_render(cfg: CommandConfig) -> int:
    string = _load_string(cfg.string_path)
    _emit(diagramcalc.render_ascii(diagramcalc.grid_from_string(string)), cfg.out_path)
    return EXIT_OK


def cmd_paths(cfg: CommandConfig) -> int:
    paths = diagramcalc.enumerate_paths(cfg.n, cfg.k, cfg.j)
    _dump_json([diagramcalc.path_to_json(p) for p in paths], cfg.out_path)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="qmatball",
        description="Quantized matrix ball: enumeration, minimization, "
        "representation building and verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--q", type=float, default=0.5)
        p.add_argument("--trunc", type=int, default=6)
        p.add_argument("--out", dest="out_path", default=None)

    p_count = sub.add_parser("count", help="compare enumerated and generating-function counts")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--out", dest="out_path", default=None)

    p_enum = sub.add_parser("enumerate", help="list all admissible strings")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--out", dest="out_path", default=None)

    p_min = sub.add_parser("minimize", help="minimal double-coset factorization")
    p_min.add_argument("--perm", dest="perm_path", required=True)
    p_min.add_argument("--out", dest="out_path", default=None)

    p_build = sub.add_parser("build", help="build a representation from a string")
    p_build.add_argument("--string", dest="string_path", required=True)
    p_build.add_argument("--emit", choices=["z", "matrix-elements"], default="z")
    common(p_build)

    p_verify = sub.add_parser("verify", help="run the relation suites")
    p_verify.add_argument("--string", dest="string_path", default=None)
    p_verify.add_argument("--fock", type=int, default=None)
    p_verify.add_argument("--perturb", type=float, default=0.0)
    p_verify.add_argument("--oracle", action="store_true")
    p_verify.add_argument("--tol", type=float, default=1e-10)
    common(p_verify)

    p_render = sub.add_parser("render", help="ASCII grid for a string")
    p_render.add_argument("--string", dest="string_path", required=True)
    p_render.add_argument("--out", dest="out_path", default=None)

    p_paths = sub.add_parser("paths", help="list staircase paths for (k, j)")
    p_paths.add_argument("--n", type=int, required=True)
    p_paths.add_argument("--k", type=int, required=True)
    p_paths.add_argument("--j", type=int, required=True)
    p_paths.add_argument("--out", dest="out_path", default=None)

    return parser


_HANDLERS = {
    "count": cmd_count,
    "enumerate": cmd_enumerate,
    "minimize": cmd_minimize,
    "build": cmd_build,
    "verify": cmd_verify,
    "render": cmd_render,
    "paths": cmd_paths,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        fields = {
            key: value
            for key, value in vars(args).items()
            if key in CommandConfig.__dataclass_fields__
        }
        cfg = CommandConfig(**fields)
        if cfg.subcommand == "verify" and (cfg.string_path is None) == (cfg.fock is None):
            raise ValueError("verify needs exactly one of --string or --fock")
        return _HANDLERS[cfg.subcommand](cfg)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
