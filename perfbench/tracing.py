"""Spans and counters recorded around the program's public functions.

The benchmark traces the program from outside: ``Tracer.install`` replaces
each entry point in ``TARGETS`` by a wrapper that records a span (name,
parent span, start, end) and updates the counters of that layer, and
``Tracer.uninstall`` puts the originals back.  Functions that a module
imports by name are wrapped under that name too, so calls from inside the
program are seen (``matrixball.residual_on_window`` and so on); methods are
wrapped on the class.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

from qmatball import cli, diagramcalc, matrixball, permgroup, qgrouprep, qoperator
from qmatball.qoperator import TensorOperator

# (span name, owner, attribute); one span name may cover several owners
TARGETS = [
    ("cli.main", cli, "main"),
    ("qoperator.to_json", cli, "operator_to_json"),
    ("qoperator.to_json", qoperator, "operator_to_json"),
    ("permgroup.enumerate", permgroup, "enumerate_admissible"),
    ("permgroup.gf_counts", permgroup, "gf_counts"),
    ("matrixball.build", matrixball, "fock_rep"),
    ("matrixball.build", matrixball, "rep_from_string"),
    ("matrixball.verify_relations", matrixball, "verify_relations"),
    ("matrixball.a_m_checks", matrixball, "a_m_checks"),
    ("matrixball.contraction_check", matrixball, "contraction_check"),
    ("matrixball.vacuum_annihilation", matrixball, "vacuum_annihilation_exact"),
    ("qgrouprep.rep_generator", matrixball, "rep_generator"),
    ("qgrouprep.rep_generator", qgrouprep, "rep_generator"),
    ("qgrouprep.apply_tau", matrixball, "apply_tau"),
    ("qgrouprep.apply_tau", qgrouprep, "apply_tau"),
    ("diagramcalc.synthesize", diagramcalc, "synthesize_z"),
    ("diagramcalc.enumerate_paths", diagramcalc, "enumerate_paths"),
    ("qoperator.residual", matrixball, "residual_on_window"),
    ("qoperator.residual", qoperator, "residual_on_window"),
    ("qoperator.norm_estimate", matrixball, "norm_estimate"),
    ("qoperator.norm_estimate", qoperator, "norm_estimate"),
    ("qoperator.mul", TensorOperator, "__mul__"),
    ("qoperator.adjoint", TensorOperator, "adjoint"),
    ("qoperator.apply", TensorOperator, "apply"),
]

MODULES = ("cli", "matrixball", "qgrouprep", "qoperator", "diagramcalc", "permgroup")

# complex128
_ITEM_BYTES = 16


def _count_apply(c: Counter, args, result) -> None:
    # computed, not measured: each non-identity factor reads and writes the
    # whole vector once, and each term's accumulation reads two and writes one
    op = args[0]
    size = op.dim**op.f * _ITEM_BYTES
    for term in op.terms:
        nontrivial = sum(F is not None for F in term.factors)
        c["qoperator.apply_bytes"] += size * (2 * nontrivial + 3)


def _factor_key(term) -> tuple:
    return tuple(None if F is None else F.provenance for F in term.factors)


def _count_mul(c: Counter, args, result) -> None:
    c["qoperator.mul_terms_out"] += len(result.terms)
    c["mul_distinct_keys"] += len({_factor_key(t) for t in result.terms})


def _count_residual(c: Counter, args, result) -> None:
    a, b, d = args[:3]
    terms = [t for t in a.terms + b.terms if t.scalar != 0]
    c["qoperator.residual_terms_in"] += len(a.terms) + len(b.terms)
    # the window keeps indices 0..N-1-d on every axis some term acts on
    axes = sum(any(t.factors[axis] is not None for t in terms) for axis in range(a.f))
    c["matrixball.window_vectors"] += (a.dim - int(d)) ** axes
    c["max_residual"] = max(c["max_residual"], float(result))


def _count_reports(c: Counter, args, result) -> None:
    c["matrixball.instances"] += len(result)


def _count_rep_generator(c: Counter, args, result) -> None:
    c["qgrouprep.terms_built"] += len(result.terms)


def _count_apply_tau(c: Counter, args, result) -> None:
    c["tau_terms_in"] += len(args[0].terms)
    c["tau_terms_out"] += len(result.terms)


def _count_paths(c: Counter, args, result) -> None:
    c["diagramcalc.paths"] += len(result)


def _count_synthesize(c: Counter, args, result) -> None:
    c["paths_alive"] += len(result.terms)


def _count_cli(c: Counter, args, result) -> None:
    argv = list(args[0])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            c["cli.out_bytes"] += os.path.getsize(path)


def _count_strings(c: Counter, args, result) -> None:
    c["permgroup.strings"] += len(result)


COUNTERS = {
    "qoperator.apply": _count_apply,
    "qoperator.mul": _count_mul,
    "qoperator.residual": _count_residual,
    "matrixball.verify_relations": _count_reports,
    "matrixball.a_m_checks": _count_reports,
    "qgrouprep.rep_generator": _count_rep_generator,
    "qgrouprep.apply_tau": _count_apply_tau,
    "diagramcalc.enumerate_paths": _count_paths,
    "diagramcalc.synthesize": _count_synthesize,
    "cli.main": _count_cli,
    "permgroup.enumerate": _count_strings,
}


class Tracer:
    """Spans as ``[id, parent id, name, start, end]`` lists, plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None, name,
                    time.perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            self.counts[name + "_calls"] += 1
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, _, start, end in spans]
    for _, parent, _, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def outer_time(spans: list[list], name: str) -> float:
    """Total duration of the spans called ``name`` that no other span of that
    name encloses, so recursion is not counted twice."""
    total = 0.0
    for span_id, parent, span_name, start, end in spans:
        if span_name != name:
            continue
        while parent is not None and spans[parent][2] != name:
            parent = spans[parent][1]
        if parent is None:
            total += end - start
    return total


def span_table(spans: list[list]) -> dict[str, list[float]]:
    """``name -> [calls, self seconds]`` over one pass."""
    table: dict[str, list[float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[2], [0, 0.0])
        row[0] += 1
        row[1] += own
    return table


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass that took ``wall_s`` seconds."""
    spans, c = tracer.spans, tracer.counts
    own = self_times(spans)

    def span_s(name: str) -> float:
        return outer_time(spans, name)

    values = {
        "qoperator.apply_calls": c["qoperator.apply_calls"],
        "qoperator.apply_s": span_s("qoperator.apply"),
        "qoperator.apply_bytes": c["qoperator.apply_bytes"],
        "qoperator.norm_estimate_s": span_s("qoperator.norm_estimate"),
        "matrixball.contraction_check_s": span_s("matrixball.contraction_check"),
        "qoperator.mul_calls": c["qoperator.mul_calls"],
        "qoperator.mul_s": span_s("qoperator.mul"),
        "qoperator.mul_terms_out": c["qoperator.mul_terms_out"],
        "qoperator.mul_distinct_ratio": _ratio(
            c["mul_distinct_keys"], c["qoperator.mul_terms_out"]
        ),
        "qoperator.adjoint_s": span_s("qoperator.adjoint"),
        "qoperator.residual_calls": c["qoperator.residual_calls"],
        "qoperator.residual_s": span_s("qoperator.residual"),
        "qoperator.residual_terms_in": c["qoperator.residual_terms_in"],
        "matrixball.verify_relations_s": span_s("matrixball.verify_relations"),
        "qgrouprep.rep_generator_s": span_s("qgrouprep.rep_generator"),
        "qgrouprep.terms_built": c["qgrouprep.terms_built"],
        "qgrouprep.apply_tau_s": span_s("qgrouprep.apply_tau"),
        "qgrouprep.tau_kept_ratio": _ratio(c["tau_terms_out"], c["tau_terms_in"]),
        "diagramcalc.synthesize_s": span_s("diagramcalc.synthesize"),
        "diagramcalc.paths": c["diagramcalc.paths"],
        "diagramcalc.paths_alive_ratio": _ratio(
            c["paths_alive"], c["diagramcalc.paths"]
        ),
        "matrixball.build_s": span_s("matrixball.build"),
        "qoperator.to_json_s": span_s("qoperator.to_json"),
        "cli.calls": c["cli.main_calls"],
        "cli.out_bytes": c["cli.out_bytes"],
        "permgroup.enumerate_s": span_s("permgroup.enumerate"),
        "permgroup.strings": c["permgroup.strings"],
        "matrixball.instances": c["matrixball.instances"],
        "matrixball.window_vectors": c["matrixball.window_vectors"],
        "matrixball.max_residual": c["max_residual"],
    }
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            t for span, t in zip(spans, own) if span[2].startswith(module + ".")
        )
    # time in the pass that no span covers: the benchmark's own loop and the
    # program functions it does not wrap
    values["trace.outside_s"] = wall_s - sum(
        end - start for _, parent, _, start, end in spans if parent is None
    )
    return {key: float(value) for key, value in values.items()}
