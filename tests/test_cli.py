import hashlib
import json
import warnings

import numpy as np
import pytest

from qmatball import cli, qoperator
from qmatball.cli import main
from qmatball.matrixball import rep_from_string
from qmatball.permgroup import AdmissibleString, Permutation, enumerate_admissible
from qmatball.qoperator import MAX_RESIDUAL_ELEMENTS, operator_from_json

from conftest import random_phases_for


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_string(tmp_path, string, name="string.json"):
    path = tmp_path / name
    path.write_text(json.dumps(string.to_json()))
    return str(path)


def write_perm(tmp_path, perm, name="perm.json"):
    path = tmp_path / name
    path.write_text(json.dumps(perm.to_json()))
    return str(path)


class TestCount:
    def test_n2(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2")
        assert code == 0
        assert out.strip() == "7 7 OK"

    def test_n0(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "0")
        assert code == 0
        assert out.strip() == "1 1 OK"

    def test_n5(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "5")
        assert code == 0
        assert out.strip() == "1546 1546 OK"

    def test_counts_without_listing(self, capsys, monkeypatch):
        # the strings are counted one at a time, never held as a list
        def refuse(n):
            raise AssertionError("count built the list of strings")

        monkeypatch.setattr(cli.permgroup, "enumerate_admissible", refuse)
        code, out, _ = run(capsys, "count", "--n", "4")
        assert (code, out.strip()) == (0, "209 209 OK")

    def test_mismatch_is_a_verification_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.permgroup, "gf_counts", lambda n: [0] * (n + 1))
        code, out, _ = run(capsys, "count", "--n", "2")
        assert code == 1
        assert out.strip() == "7 0 MISMATCH"


class TestEnumerate:
    def test_n2_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2")
        assert code == 0
        strings = json.loads(out)
        assert len(strings) == 7
        assert [2, 2] in strings

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--n", "3")
        _, second, _ = run(capsys, "enumerate", "--n", "3")
        assert first == second

    def test_refused_over_the_limit_before_listing(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("enumerate built the list of strings")

        monkeypatch.setattr(cli, "MAX_ENUMERATED_STRINGS", 33)
        monkeypatch.setattr(cli.permgroup, "enumerate_admissible", refuse)
        code, out, err = run(capsys, "enumerate", "--n", "3")
        assert code == 2
        assert out == ""
        assert err == (
            "error: enumerate --n 3 would list 34 strings, more than the limit 33; "
            "count --n 3 counts them\n"
        )
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_ENUMERATED_STRINGS", 34)
        code, out, _ = run(capsys, "enumerate", "--n", "3")
        assert code == 0 and len(json.loads(out)) == 34


class TestMinimize:
    def test_identity(self, capsys, tmp_path):
        path = write_perm(tmp_path, Permutation.identity(4))
        code, out, _ = run(capsys, "minimize", "--perm", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["w"]["images"] == [1, 2, 3, 4]
        assert payload["lengths"]["sigma"] == 0

    def test_block_swap_is_its_own_minimizer(self, capsys, tmp_path):
        path = write_perm(tmp_path, Permutation(4, (3, 4, 1, 2)))
        code, out, _ = run(capsys, "minimize", "--perm", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["w"]["images"] == [3, 4, 1, 2]
        assert payload["g"]["images"] == [1, 2, 3, 4]
        assert payload["h"]["images"] == [1, 2, 3, 4]

    def test_length_additivity_reported(self, capsys, tmp_path):
        path = write_perm(tmp_path, Permutation(6, (5, 3, 6, 1, 4, 2)))
        code, out, _ = run(capsys, "minimize", "--perm", path)
        assert code == 0
        payload = json.loads(out)
        lengths = payload["lengths"]
        assert lengths["sigma"] == lengths["w"] + lengths["g"] + lengths["h"]

    def test_malformed_permutation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 4, "images": [1, 1, 2, 3]}))
        code, _, err = run(capsys, "minimize", "--perm", str(path))
        assert code == 2
        assert "error" in err


class TestBuild:
    def test_fock_n1_dump(self, capsys, tmp_path):
        path = write_string(tmp_path, AdmissibleString(1, (1,)))
        code, out, _ = run(capsys, "build", "--string", path, "--trunc", "4")
        assert code == 0
        payload = json.loads(out)
        op = payload["z"]["z_1^1"]
        assert op["f"] == 1 and op["dim"] == 4
        assert len(op["terms"]) == 1

    def test_coherent_matrix_elements(self, capsys, tmp_path):
        import cmath

        phi = 1.0
        path = write_string(tmp_path, AdmissibleString(3, (3, 3, 2), (0.0, 0.0, phi)))
        code, out, _ = run(
            capsys, "build", "--string", path, "--trunc", "4",
            "--emit", "matrix-elements",
        )
        assert code == 0
        payload = json.loads(out)
        z11 = complex(*payload["matrix-elements"]["z_1^1"])
        assert abs(z11 - cmath.exp(1j * phi)) < 1e-12

    def test_four_factor_operators(self, capsys, tmp_path):
        path = write_string(tmp_path, AdmissibleString(2, (2, 2)))
        code, out, _ = run(capsys, "build", "--string", path, "--trunc", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["factors"] == 4

    def test_n4_at_trunc_4(self, capsys, tmp_path):
        path = write_string(tmp_path, AdmissibleString(4, (4, 4, 4, 4)))
        code, out, _ = run(
            capsys, "build", "--string", path, "--trunc", "4",
            "--emit", "matrix-elements",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["factors"] == 16
        assert len(payload["matrix-elements"]) == 16

    def test_emit_z_round_trip(self, capsys, tmp_path):
        string = AdmissibleString(3, (3, 3, 2), (0.0, 0.0, 1.0))
        path = write_string(tmp_path, string)
        code, out, _ = run(capsys, "build", "--string", path, "--trunc", "6")
        assert code == 0
        emitted = json.loads(out)["z"]
        g = rep_from_string(string, 0.5, 6)
        for k in range(1, g.n + 1):
            for j in range(1, g.n + 1):
                data = emitted[f"z_{k}^{j}"]
                for term in data["terms"]:
                    for F in term["factors"]:
                        assert F == "I" or len(F["amps"]) == 6
                parsed, built = operator_from_json(data), g.gen(k, j)
                assert len(parsed.terms) == len(built.terms)
                for p, b in zip(parsed.terms, built.terms):
                    assert p.scalar == b.scalar
                    for F, G in zip(p.factors, b.factors, strict=True):
                        assert (F is None) == (G is None)
                        if F is not None:
                            assert F.delta == G.delta
                            assert np.array_equal(F.amps, G.amps)

    def test_tol_rejected(self, capsys, tmp_path):
        path = write_string(tmp_path, AdmissibleString(1, (1,)))
        with pytest.raises(SystemExit) as exc:
            main(["build", "--string", path, "--tol", "1e-3"])
        assert exc.value.code == 2

    def test_inadmissible_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "pairs": [[0, 0.0], [2, 0.0]]}))
        code, _, err = run(capsys, "build", "--string", str(path))
        assert code == 2
        assert "row 1" in err


class TestBuildBytes:
    """sha256 of ``build`` outputs written by commit 6252573, before string
    representations were evaluated in one stacked pass: a change that moves
    one bit of a string image, or of its printing, fails here."""

    STRINGS = {
        "n3": ({"n": 3, "pairs": [[3, 0.0], [3, 0.0], [2, 1.25]]}, "3"),
        "n4-light": ({"n": 4, "pairs": [[4, 0.0], [2, 0.7], [1, 2.0], [0, 0.0]]}, "4"),
        "n4-dark": ({"n": 4, "pairs": [[2, 0.4], [1, 2.5], [0, 5.0], [1, 0.0]]}, "3"),
    }

    @pytest.mark.parametrize(
        "name, emit, digest",
        [
            ("n3", "z", "4266a859376d5fdcc1a948f14949a329d22f236f142bd31ee5bd0981e50423b9"),
            ("n3", "matrix-elements",
             "476fe1f974161c4499bcc22dc994585ca544b96b3b005c82e1b094ba9875b0ca"),
            ("n4-light", "z", "faad957b2aab6d108c037b8fe60256cf9d191bc78400401aa56f56a153f228e7"),
            ("n4-light", "matrix-elements",
             "11191227e9f5747df6a501647825f5069c18e863066f4a1b74995100fff7299f"),
            ("n4-dark", "z", "b2481b79d5bec77f76b9f96cf98ccdb144e83c285ae0d2654ba5d745172de3be"),
            ("n4-dark", "matrix-elements",
             "9837579325523b457b8eaa54afeba23f32ef311542a7358ac6ea06cf5d992a94"),
        ],
    )
    def test_output_bytes_are_pinned(self, tmp_path, name, emit, digest):
        payload, trunc = self.STRINGS[name]
        path = tmp_path / "string.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out.json"
        code = main(
            ["build", "--string", str(path), "--trunc", trunc, "--emit", emit, "--out", str(out)]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestObjectText:
    def test_keys_sort_as_strings_like_json_dumps(self):
        # at n >= 10, "z_10^1" sorts before "z_1^1" ('0' < '^'), not after "z_9^9"
        values = {f"z_{k}^{j}": [k, j / 3] for k in range(1, 12) for j in range(1, 12)}
        values.update({"n": 11, "q": 0.7, "factors": 121, "trunc": 3})
        text = cli._object_text({key: json.dumps(value) for key, value in values.items()})
        assert text == json.dumps(values, sort_keys=True)
        assert text.index('"z_10^1"') < text.index('"z_1^1"') < text.index('"z_9^9"')


class TestAllStringsBytes:
    """One sha256 over the ``build`` outputs of all 209 admissible strings
    at n = 4 and ``--trunc 3``, per emit and q, written by commit 9a5cf28,
    before the z tables were encoded as text from per-factor fragments: a
    change that moves one byte of any string's output fails here."""

    @pytest.mark.parametrize(
        "emit, q, digest",
        [
            ("z", "0.5", "09bd87456943c32e49b48e14c091e494aa57f2b570c7d2af4c0c50f2da0d951d"),
            ("matrix-elements", "0.5",
             "6f5812744a5de9b60e8b67f6a85398979db86287850bc495fc8f2ab5236cc009"),
            ("z", "0.7", "d7b510610eb40f681f26a71134b97a8e60bc39b4cb916e605208af6d5d5fc66f"),
            ("matrix-elements", "0.7",
             "2ea02a193fc4385d94b83dd0f22d8b9f493a47cc310f4eebf4578b02a7770f36"),
        ],
    )
    def test_output_bytes_are_pinned(self, tmp_path, emit, q, digest):
        rng = np.random.default_rng(29)
        path, out = tmp_path / "string.json", tmp_path / "out.json"
        total = hashlib.sha256()
        for ks in enumerate_admissible(4):
            path.write_text(json.dumps(random_phases_for(ks, rng).to_json()))
            code = main(["build", "--string", str(path), "--trunc", "3", "--q", q,
                         "--emit", emit, "--out", str(out)])
            assert code == 0
            total.update(out.read_bytes())
        assert total.hexdigest() == digest


class TestIntegerInput:
    """n, each k, m and each image are read exactly: no truncation."""

    @pytest.mark.parametrize("command", ["build", "verify"])
    @pytest.mark.parametrize(
        "data",
        [
            {"n": 1, "pairs": [[1.5, 0.0]]},
            {"n": 1, "pairs": [[1.0, 0.0]]},
            {"n": 1, "pairs": [["1", 0.0]]},
            {"n": 1.0, "pairs": [[1, 0.0]]},
        ],
    )
    def test_string_with_a_non_integer_exits_2(self, capsys, tmp_path, command, data):
        path = tmp_path / "string.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, command, "--string", str(path), "--trunc", "4")
        assert code == 2
        assert out == ""
        assert "must be an integer" in err

    @pytest.mark.parametrize(
        "data", [{"m": 2, "images": [2.9, 1]}, {"m": 2.0, "images": [2, 1]}]
    )
    def test_permutation_with_a_non_integer_exits_2(self, capsys, tmp_path, data):
        path = tmp_path / "perm.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "minimize", "--perm", str(path))
        assert code == 2
        assert out == ""
        assert "must be an integer" in err

    def test_numpy_integers_pass(self):
        string = AdmissibleString(2, (np.int64(2), np.int32(1)), (0.0, 0.5))
        assert string.ks == (2, 1) and all(type(k) is int for k in string.ks)
        data = {"n": np.int64(2), "pairs": [[np.int64(2), 0.0], [np.int16(1), 0.5]]}
        assert AdmissibleString.from_json(data) == string
        perm = Permutation.from_json({"m": np.int64(2), "images": np.array([2, 1])})
        assert perm == Permutation(2, (2, 1))
        assert all(type(x) is int for x in perm.images)


class TestMalformedInput:
    """Every malformed input file exits 2 with one error line."""

    @pytest.mark.parametrize(
        "command, flag, data, message",
        [
            ("verify", "--string", {"n": 2, "pairs": 5}, "pairs must be a list, got 5"),
            ("verify", "--string", [1, 2], "expected a JSON object, got list"),
            ("verify", "--string", {"n": 2}, "missing key 'pairs'"),
            ("render", "--string", {"n": 2, "pairs": [[1], [0, 0.0]]},
             "each pair must be [k, phi], got [1]"),
            ("build", "--string", {"n": 2, "pairs": [None, [0, 0.0]]},
             "each pair must be [k, phi], got None"),
            ("build", "--string", {"n": 1, "pairs": [[1, None]]},
             "phase must be a number, got None"),
            ("minimize", "--perm", {"m": 4, "images": 7}, "images must be a list, got 7"),
            ("minimize", "--perm", {"images": [1, 2]}, "missing key 'm'"),
            ("render", "--string", {"n": 2, "pairs": [[1, "0.5"], [0, 0.0]]},
             "phase must be a number, got '0.5'"),
            ("render", "--string", {"n": 2, "pairs": [[1, True], [0, 0.0]]},
             "phase must be a number, got true"),
            ("build", "--string", {"n": True, "pairs": [[1, 0.0]]}, "n must be a number, got true"),
            ("build", "--string", {"n": 1, "pairs": [[True, 0.0]]}, "k must be a number, got true"),
            ("build", "--string", {"n": 1, "pairs": [[False, 0.0]]},
             "k must be a number, got false"),
            ("minimize", "--perm", {"m": 2, "images": [True, 2]},
             "image must be a number, got true"),
            ("verify", "--string", {"n": 2, "pairs": []}, "expected 2 pairs, got 0/0"),
            ("render", "--string", {"n": 10**12, "pairs": []},
             "expected 1000000000000 pairs, got 0/0"),
            ("build", "--string", {"n": 10**30, "pairs": [[0, 0.0]]},
             f"expected {10**30} pairs, got 1/1"),
        ],
    )
    def test_exits_2_without_a_traceback(self, capsys, tmp_path, command, flag, data, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, command, flag, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_unreadable_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "input.json"
        path.write_text('{"n": 2,')
        code, out, err = run(capsys, "render", "--string", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_fock_2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--fock", "2", "--trunc", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["pass"] is True
        assert payload["summary"]["max_residual"] < 1e-10

    def test_fock_1_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--fock", "1", "--trunc", "6")
        assert code == 0

    def test_perturbation_detected(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--fock", "2", "--trunc", "5", "--perturb", "1e-3"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["pass"] is False

    @pytest.mark.parametrize("n", [2, 3])
    def test_sign_flip_of_the_first_term_is_not_detected(self, capsys, tmp_path, n):
        # --perturb -2 scales term 0 of z_1^1 by -1, a symmetry of every
        # relation: both routes pass, so no negative control may use it
        path = write_string(tmp_path, AdmissibleString(n, (n,) * n))
        for source in (["--fock", str(n)], ["--string", path]):
            code, out, _ = run(
                capsys, "verify", *source, "--trunc", "5", "--perturb", "-2"
            )
            assert code == 0, source
            payload = json.loads(out)
            assert payload["summary"]["pass"] is True
            assert payload["provenance"].endswith("+perturb(-2.0)")

    @pytest.mark.parametrize(
        "flag, value", [("--tol", "inf"), ("--tol", "nan"), ("--perturb", "nan"),
                        ("--perturb", "inf")]
    )
    def test_non_finite_tol_or_perturb_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "verify", "--fock", "2", "--trunc", "6", flag, value)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("verify", "--q", "1.5", "q must lie in (0, 1), got 1.5"),
            ("verify", "--q", "0", "q must lie in (0, 1), got 0.0"),
            ("verify", "--trunc", "2", "truncation level must be at least 3, got 2"),
            ("build", "--trunc", "2", "truncation level must be at least 3, got 2"),
        ],
    )
    def test_q_or_trunc_out_of_range_exit_2(self, capsys, tmp_path, command, flag, value, message):
        if command == "verify":
            source = ["--fock", "2"]
        else:
            source = ["--string", write_string(tmp_path, AdmissibleString(2, (2, 2)))]
        code, out, err = run(capsys, command, *source, flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--fock", "2", "--trunc", "6", "--q", "1e-200"],
             "q = 1e-200 is too small: a power of q overflows a float"),
            (["verify", "--fock", "2", "--trunc", "6", "--q", "1e-160"],
             "q = 1e-160 is too small: a power of q overflows a float"),
            (["verify", "--fock", "3", "--trunc", "4", "--q", "1e-200"],
             "q = 1e-200 is too small: (-q)^-2 overflows a float"),
            (["build", "--string", "STRING", "--trunc", "4", "--q", "1e-200"],
             "q = 1e-200 is too small: (-q)^-2 overflows a float"),
            (["verify", "--string", "STRING", "--oracle", "--trunc", "4", "--q", "1e-200"],
             "q = 1e-200 is too small: (-q)^-2 overflows a float"),
        ],
    )
    def test_q_too_small_for_a_float_power_exits_2(self, capsys, tmp_path, argv, message):
        # a negative power of q that passes 1.8e308 is refused, not a traceback
        path = tmp_path / "string3.json"
        path.write_text(json.dumps({"n": 3, "pairs": [[3, 0.0], [3, 0.0], [2, 1.25]]}))
        code, out, err = run(capsys, *(str(path) if a == "STRING" else a for a in argv))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_tiny_q_within_the_float_range_fails(self, capsys):
        # q^-2 = 1e40 is a float, so the run completes, but the zaa44 and
        # R-form residuals at (1, 1, 1, 1) read 1.2e24: a failed
        # verification, exit 1
        code, out, _ = run(capsys, "verify", "--fock", "2", "--trunc", "6", "--q", "1e-20")
        assert code == 1
        assert json.loads(out)["summary"]["pass"] is False

    def test_tiny_q_where_the_exchange_terms_cancel_passes(self, capsys):
        # at q = 1e-100 the exchange right-hand side at (1, 1, 1, 1), summed
        # in word order (the identity first), cancels to a residual of 0.0;
        # the largest residual is that of zaa3, 1e-100, and the run passes.
        # The small-q failures above are cancellation that depends on the
        # order of the terms: with the identity summed last, this run read
        # 1.0 and exited 1
        code, out, _ = run(capsys, "verify", "--fock", "2", "--trunc", "6", "--q", "1e-100")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["pass"] is True
        assert summary["max_residual"] == 1e-100

    def test_nan_after_the_first_report_fails(self, capsys, monkeypatch):
        a_m_checks = cli.matrixball.a_m_checks

        def with_nan(g):
            return a_m_checks(g) + [
                cli.matrixball.RelationReport("A_m-comm", (0, 0, 0), float("nan"), 2)
            ]

        monkeypatch.setattr(cli.matrixball, "a_m_checks", with_nan)
        code, out, _ = run(capsys, "verify", "--fock", "2", "--trunc", "5")
        assert code == 1
        summary = json.loads(out)["summary"]
        assert summary["pass"] is False
        assert np.isnan(summary["max_residual"])

    def test_overflowing_perturbation_fails_without_a_warning(self, capsys):
        # 1e308 overflows the damaged products to inf and NaN; the NaN fails
        # the gate through max_residual, and numpy stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(
                capsys, "verify", "--fock", "2", "--trunc", "4", "--perturb", "1e308"
            )
        assert code == 1
        assert np.isnan(json.loads(out)["summary"]["max_residual"])

    def test_perturbed_scales_only_the_first_scalar(self):
        g = cli.matrixball.fock_rep(2, 0.5, 5)
        damaged = cli._perturbed(g, 1e-3)
        first, hurt = g.gen(1, 1), damaged.gen(1, 1)
        assert np.array_equal(hurt.ids, first.ids)
        assert hurt.scalars[0] == complex(first.scalars[0]) * (1.0 + 1e-3)
        assert np.array_equal(hurt.scalars[1:], first.scalars[1:])
        assert all(
            damaged.gen(k, j) is g.gen(k, j)
            for k in (1, 2) for j in (1, 2) if (k, j) != (1, 1)
        )

    def test_perturbation_detected_on_the_vacuum_window(self):
        # at n = 4, N = 3 every relation window holds only the vacuum, where
        # most terms vanish and are dropped; the damage to term 0 of z_1^1
        # must still show, in exactly the two reports of the one exchange
        # instance it reaches, with the residual of the full sum
        damaged = cli._perturbed(cli.matrixball.fock_rep(4, 0.5, 3), 1e-6)
        failed = [
            (r.relation, r.indices, r.residual.hex())
            for r in cli.matrixball.verify_relations(damaged)
            if not r.residual < 1e-10
        ]
        want = (1.5000007498322532e-06).hex()
        assert failed == [
            ("zaa44", (1, 1, 1, 1), want),
            ("R-form", (1, 1, 1, 1), want),
        ]

    def test_perturbing_a_zero_generator_raises(self):
        # a damaged zero would still be zero, so the verifier could not flag it
        zero = cli.TensorOperator.zero(1, 3)
        g = cli.matrixball.GeneratorImages(1, 0.5, 3, ((zero,),), provenance="zero")
        with pytest.raises(ValueError, match="cannot perturb a zero generator"):
            cli._perturbed(g, 1e-3)

    def test_string_verification(self, capsys, tmp_path):
        path = write_string(tmp_path, AdmissibleString(2, (2, 1), (0.0, 0.5)))
        code, out, _ = run(capsys, "verify", "--string", path, "--trunc", "5")
        assert code == 0

    def test_trunc_too_small_for_a_m_families(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--fock", "2", "--trunc", "3")
        assert code == 2
        assert out == ""
        assert "A_m" in err and "--trunc 4" in err
        path = write_string(tmp_path, AdmissibleString(2, (2, 1), (0.0, 0.5)))
        code, _, err = run(capsys, "verify", "--string", path, "--trunc", "3")
        assert code == 2
        assert "--trunc 4" in err
        # n = 1 has no A_m families, and build has no window at all
        assert run(capsys, "verify", "--fock", "1", "--trunc", "3")[0] == 0
        assert run(capsys, "build", "--string", path, "--trunc", "3")[0] == 0

    def test_vacuum_only_window_warned(self, capsys):
        code, _, err = run(capsys, "verify", "--fock", "1", "--trunc", "3")
        assert code == 0
        assert err.count("\n") == 1
        assert "depth 2" in err and "zaa44" in err and "--trunc 4" in err
        code, _, err = run(capsys, "verify", "--fock", "2", "--trunc", "4")
        assert code == 0
        assert err.count("\n") == 1
        assert "depth 3" in err and "A_m-comm" in err and "--trunc 5" in err
        code, _, err = run(capsys, "verify", "--fock", "2", "--trunc", "5")
        assert code == 0
        assert err == ""

    def test_residual_memory_limit_exit_2(self, capsys):
        # 16 axes at window 3: two 3^16 arrays would pass the limit
        code, out, err = run(capsys, "verify", "--fock", "4", "--trunc", "5")
        assert code == 2
        assert out == ""
        assert str(MAX_RESIDUAL_ELEMENTS) in err and "16 axes" in err

    def test_product_limit_exit_2(self, capsys, monkeypatch):
        # a product over the limit is refused as invalid input, with one
        # plain line, not a MemoryError (the first product of verify --fock
        # 8 --trunc 4 would hold 27 GB)
        monkeypatch.setattr(qoperator, "MAX_PRODUCT_BYTES", 100)
        code, out, err = run(capsys, "verify", "--fock", "2", "--trunc", "4")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: product of ") and err.endswith("the limit 100\n")

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "verify", "--trunc", "5")
        assert code == 2

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_fock_below_1_exit_2(self, capsys, value):
        code, out, err = run(capsys, "verify", "--fock", value)
        assert (code, out) == (2, "")
        assert err == f"error: --fock must be at least 1, got {value}\n"


class TestParser:
    def test_built_once_and_reused_after_bad_input(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--fock", "two"])
            assert exc.value.code == 2
            code, out, _ = run(capsys, "count", "--n", "3")
            assert code == 0 and out.split() == ["34", "34", "OK"]
            # defaults are not carried over from the previous parse
            args = cli._build_parser().parse_args(["verify", "--fock", "2"])
            assert args.trunc == 6 and args.perturb == 0.0


class TestRender:
    def test_shaded_grid(self, capsys, tmp_path):
        path = write_string(tmp_path, AdmissibleString(3, (0, 2, 2), (0.9, 0.0, 0.0)))
        code, out, _ = run(capsys, "render", "--string", path)
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[0] for line in lines[:3]] == ["#..", "#..", "##o"]


class TestPaths:
    def test_corner(self, capsys):
        code, out, _ = run(capsys, "paths", "--n", "3", "--k", "3", "--j", "3")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["steps"] == [
            {"row": 3, "col": 3, "arrow": "HookBottomRight"}
        ]

    def test_six_paths(self, capsys):
        code, out, _ = run(capsys, "paths", "--n", "3", "--k", "1", "--j", "1")
        assert code == 0
        assert len(json.loads(out)) == 6

    def test_label_outside_the_grid_exit_2(self, capsys, monkeypatch):
        # checked before the count, which labels outside the grid would skew
        monkeypatch.setattr(cli, "MAX_LISTED_PATHS", 0)
        code, out, err = run(capsys, "paths", "--n", "3", "--k", "4", "--j", "1")
        assert code == 2
        assert out == ""
        assert err == "error: boundary labels (4, 1) outside 1..3\n"

    def test_refused_over_the_limit_before_listing(self, capsys, monkeypatch):
        def refuse(n, k, j):
            raise AssertionError("paths listed the paths")

        monkeypatch.setattr(cli, "MAX_LISTED_PATHS", 5)
        monkeypatch.setattr(cli.diagramcalc, "enumerate_paths", refuse)
        code, out, err = run(capsys, "paths", "--n", "3", "--k", "1", "--j", "1")
        assert code == 2
        assert out == ""
        assert err == (
            "error: paths --n 3 --k 1 --j 1 would list 6 paths, more than the limit 5\n"
        )
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_LISTED_PATHS", 6)
        code, out, _ = run(capsys, "paths", "--n", "3", "--k", "1", "--j", "1")
        assert code == 0 and len(json.loads(out)) == 6


class TestOutputFile:
    def test_out_flag(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "count", "--n", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "7 7 OK"


class TestOracleFlag:
    def test_oracle_cross_check_runs(self, capsys):
        code, out, _ = run(capsys, "verify", "--fock", "2", "--trunc", "5", "--oracle")
        assert code == 0
        payload = json.loads(out)
        labels = {r["relation"] for r in payload["reports"]}
        assert "oracle-cross" in labels

    def test_oracle_detects_perturbation(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--fock", "2", "--trunc", "5",
            "--oracle", "--perturb", "1e-4",
        )
        assert code == 1
