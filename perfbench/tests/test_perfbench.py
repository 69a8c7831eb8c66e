"""Tests of the benchmark's own code.  Run from the repository root:

    python -m pytest perfbench/tests
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from qmatball import cli, matrixball  # noqa: E402
from qmatball.permgroup import AdmissibleString, enumerate_admissible  # noqa: E402
from qmatball.qoperator import TensorOperator  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class TestSpans:
    # [id, parent, name, start, end]
    SPANS = [
        [0, None, "cli.main", 0.0, 10.0],
        [1, 0, "matrixball.build", 1.0, 3.0],
        [2, 0, "qoperator.residual", 4.0, 8.0],
        [3, 2, "qoperator.residual", 5.0, 6.0],
        [4, None, "permgroup.enumerate", 11.0, 11.5],
    ]

    def test_self_time_subtracts_direct_children_only(self):
        own = tracing.self_times(self.SPANS)
        assert own == pytest.approx([4.0, 2.0, 3.0, 1.0, 0.5])
        roots = [span for span in self.SPANS if span[1] is None]
        total = sum(end - start for _, _, _, start, end in roots)
        assert sum(own) == pytest.approx(total)

    def test_outer_time_counts_recursion_once(self):
        residual = tracing.outer_time(self.SPANS, "qoperator.residual")
        assert residual == pytest.approx(4.0)
        assert tracing.outer_time(self.SPANS, "cli.main") == pytest.approx(10.0)
        assert tracing.outer_time(self.SPANS, "qgrouprep.apply_tau") == 0.0

    def test_module_self_time_and_uncovered_time(self):
        tracer = tracing.Tracer()
        tracer.spans = [list(span) for span in self.SPANS]
        values = tracing.layer_metrics(tracer, wall_s=12.0)
        assert values["cli.self_s"] == pytest.approx(4.0)
        assert values["qoperator.self_s"] == pytest.approx(4.0)
        assert values["trace.outside_s"] == pytest.approx(1.5)

    def test_tracer_records_nested_spans_and_restores_originals(self):
        original = TensorOperator.__dict__["__mul__"]
        g = matrixball.fock_rep(2, 0.5, 4)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            reports = matrixball.verify_relations(g)
        finally:
            tracer.uninstall()
        assert TensorOperator.__dict__["__mul__"] is original
        assert matrixball.residual_on_window.__name__ == "residual_on_window"
        assert not hasattr(matrixball.residual_on_window, "__wrapped__")
        names = {span[2] for span in tracer.spans}
        assert {
            "matrixball.verify_relations", "qoperator.mul", "qoperator.residual"
        } <= names
        root = tracer.spans[0]
        assert root[2] == "matrixball.verify_relations" and root[1] is None
        residuals = [span for span in tracer.spans if span[2] == "qoperator.residual"]
        assert residuals and all(span[1] == 0 for span in residuals)
        values = tracing.layer_metrics(tracer, wall_s=root[4] - root[3])
        assert values["matrixball.instances"] == len(reports)
        assert values["qoperator.residual_calls"] == len(reports)
        # N = 4 and depth 2 leave two levels on each of the four axes
        assert values["matrixball.window_vectors"] <= len(reports) * 2**4


class TestSpeed:
    def test_scaled_wall_takes_out_handler_time_and_scales_by_median(self):
        # the block took 10 s, 1 s of it in the handler; the kernel ran at
        # half the reference speed, so the same work takes 4.5 s at that speed
        slow = 2 * speed.REFERENCE_S
        samples = [0.9 * slow, slow, 100 * slow]
        assert speed.scaled_wall(10.0, 1.0, samples) == pytest.approx(4.5)

    def test_sampler_samples_during_the_block_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with speed.SpeedSampler(period_s=0.01) as sampler:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        # one sample on entry, one on exit, and the timer's in between
        assert len(sampler.samples) > 2
        assert 0.0 < sampler.handler_s <= sum(sampler.samples)


class TestMetricNames:
    def test_names_are_well_formed_and_unique(self):
        data = spec()
        names = [w["name"] for w in data["workloads"]]
        names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
        assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
        assert len(set(names)) == len(names)

    def test_declared_metrics_are_the_ones_computed(self):
        data = spec()
        computed = set(tracing.layer_metrics(tracing.Tracer(), wall_s=1.0))
        computed.add("trace.overhead_frac")
        assert {m["name"] for m in data["per_layer"]} == computed
        end_to_end = {m["name"] for m in data["end_to_end"]}
        assert end_to_end == {"wall_s", "setup_s", "peak_rss_mb"}
        assert [w["name"] for w in data["workloads"]] == list(workloads.WORKLOADS)


class TestInputs:
    def test_same_seed_same_inputs(self):
        assert workloads.string_inputs(7) == workloads.string_inputs(7)
        assert workloads.string_inputs(7) != workloads.string_inputs(8)

    def test_every_admissible_string_once_with_valid_phases(self):
        payloads = workloads.string_inputs(3)
        assert len(payloads) == workloads.STRINGS_COUNT
        strings = [AdmissibleString.from_json(p) for p in payloads]
        assert sorted(s.ks for s in strings) == sorted(enumerate_admissible(4))
        for s in strings:
            for j in s.boundary():
                assert s.phase(j) == 0.0


class TestChecks:
    def test_family_counts_match_the_headline_totals(self):
        assert sum(workloads.expected_family_counts(3, a_m=True).values()) == 246
        assert sum(workloads.expected_family_counts(4, a_m=False).values()) == 752

    @pytest.mark.parametrize("perturb, damaged", [("0", False), ("1e-3", True)])
    def test_damaged_generator_is_counted(self, tmp_path, perturb, damaged):
        out = tmp_path / "verify.json"
        code = cli.main(
            ["verify", "--fock", "2", "--trunc", "6", "--perturb", perturb,
             "--out", str(out)]
        )
        tally = workloads.Tally()
        workloads.check_verify_output(code, out, 2, tally)
        instances = sum(workloads.expected_family_counts(2, a_m=True).values())
        # the command, the family counts, each instance, the norm count, 3 norms
        assert tally.attempted == 1 + 1 + instances + 1 + 3
        assert (tally.failed > 0) == damaged

    def test_unreadable_output_is_a_failure(self, tmp_path):
        tally = workloads.Tally()
        workloads.check_verify_output(2, tmp_path / "missing.json", 2, tally)
        assert (tally.attempted, tally.failed) == (1, 1)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fock4-relations",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
