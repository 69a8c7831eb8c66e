import json

from qmatball.cli import main
from qmatball.permgroup import AdmissibleString, Permutation


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

    def test_inadmissible_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "pairs": [[0, 0.0], [2, 0.0]]}))
        code, _, err = run(capsys, "build", "--string", str(path))
        assert code == 2
        assert "row 1" in err


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

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "verify", "--trunc", "5")
        assert code == 2


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


class TestOutputFile:
    def test_out_flag(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "count", "--n", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "7 7 OK"


class TestThreadCap:
    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("QMATBALL_THREADS", "many")
        code, _, err = run(capsys, "count", "--n", "1")
        assert code == 2

    def test_cap_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("QMATBALL_THREADS", "4")
        code, out, _ = run(capsys, "count", "--n", "1")
        assert code == 0


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
