import json
from pathlib import Path

import numpy as np
import pytest

from gravtritter.cli import main

GOLDEN = Path(__file__).parent / "golden"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestChiCommand:
    def test_schwarzschild(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"r_s": 2, "r_A": 4, "r_B": 8})
        code, out = run(capsys, ["chi", "--config", cfg])
        assert code == 0
        report = json.loads(out)
        assert report["chi"] == pytest.approx(1.10668, abs=1e-5)
        assert report["omega_ratio"] == pytest.approx(1 / report["chi_sq"])
        assert report["version"]
        assert report["config"] == {"r_s": 2, "r_A": 4, "r_B": 8}

    def test_flat_spacetime(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"r_s": 0, "r_A": 1, "r_B": 9})
        code, out = run(capsys, ["chi", "--config", cfg])
        assert code == 0
        assert json.loads(out)["chi"] == 1.0

    def test_weak_field_zero_height(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"g": 9.81, "h": 0})
        code, out = run(capsys, ["chi", "--config", cfg])
        assert code == 0
        assert json.loads(out)["chi"] == 1.0

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"r_s": 2, "r_A": 4, "r_B": 8, "extra": 1})
        assert main(["chi", "--config", cfg]) == 2

    def test_domain_error_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"r_s": 2, "r_A": 1, "r_B": 8})
        assert main(["chi", "--config", cfg]) == 3


class TestNogoCommand:
    def test_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"chi_grid": [1.0, 2**0.5, 0.5]})
        code, out = run(capsys, ["nogo", "--config", cfg])
        assert code == 0
        results = json.loads(out)["results"]
        assert results[0]["unitary_shift_possible"] is True
        assert results[1]["commutator_norm"] == pytest.approx(0.5)
        assert results[1]["unitary_shift_possible"] is False
        assert results[2]["commutator_norm"] == pytest.approx(4.0)


GAUSSIAN_PAIR = {
    "mode1": {"kind": "gaussian", "omega0": 100.0, "sigma": 1.0},
    "mode2": {"kind": "gaussian", "omega0": 104.0, "sigma": 1.0},
}


class TestTritterCommand:
    def test_identity_at_chi_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**GAUSSIAN_PAIR, "chi": 1.0})
        code, out = run(capsys, ["tritter", "--config", cfg])
        assert code == 0
        report = json.loads(out)
        mat = np.array([complex(re, im) for re, im in report["matrix"]]).reshape(3, 3)
        assert np.max(np.abs(mat - np.eye(3))) < 1e-8
        assert report["unitarity_residual"] < 1e-12

    def test_orthogonality_violation_exit_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "mode1": {"kind": "gaussian", "omega0": 100.0, "sigma": 1.0},
                "mode2": {"kind": "gaussian", "omega0": 101.0, "sigma": 1.0},
                "chi": 1.1,
                "orthonormalize": False,
            },
        )
        assert main(["tritter", "--config", cfg]) == 3

    def test_matches_golden_matrix(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**GAUSSIAN_PAIR, "chi": 1.01})
        code, out = run(capsys, ["tritter", "--config", cfg])
        assert code == 0
        report = json.loads(out)
        golden = json.loads((GOLDEN / "tritter_gaussian.json").read_text())
        got = np.array(report["matrix"])
        want = np.array(golden["matrix"])
        assert np.max(np.abs(got - want)) < 1e-10


class TestEvolveCommand:
    def test_chi_one_separable(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**GAUSSIAN_PAIR, "chi": 1.0})
        code, out = run(capsys, ["evolve", "--config", cfg])
        assert code == 0
        report = json.loads(out)
        assert report["negativity"] < 1e-10
        amp = report["amplitudes"]["110"]
        assert abs(complex(amp[0], amp[1])) == pytest.approx(1.0, abs=1e-8)

    def test_balanced_splitter_angles(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"angles": [0.0, np.pi / 4, 0.0]})
        code, out = run(capsys, ["evolve", "--config", cfg])
        assert code == 0
        report = json.loads(out)
        assert report["hom"]["flag"] is True
        assert report["hom"]["coefficient"] < 1e-14
        assert report["negativity"] == pytest.approx(0.5, abs=1e-10)

    def test_report_revalidates(self, tmp_path, capsys):
        import jsonschema

        from gravtritter.cli import EVOLVE_SCHEMA

        cfg_doc = {**GAUSSIAN_PAIR, "chi": 1.0}
        cfg = write_config(tmp_path, cfg_doc)
        _, out = run(capsys, ["evolve", "--config", cfg])
        jsonschema.validate(json.loads(out)["config"], EVOLVE_SCHEMA)


SWEEP_CONFIG = {
    "mode1": {
        "kind": "comb",
        "peaks": [[1, 0, 100, 1], [-1, 0, 104, 1], [1, 0, 108, 1]],
    },
    "mode2": {
        "kind": "comb",
        "peaks": [[1, 0, 102, 1], [-1, 0, 106, 1], [1, 0, 110, 1]],
    },
    "chi_lo": 1.0,
    "chi_hi": 1.03,
    "grid": 7,
    "population_floor": 1e-4,
}


class TestSweepCommand:
    def test_three_point_sweep(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {**GAUSSIAN_PAIR, "chi_lo": 0.99, "chi_hi": 1.01, "grid": 3}
        )
        out_path = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert len(lines) == 2 + 3
        middle = lines[3].split(",")
        assert float(middle[0]) == pytest.approx(1.0)
        assert float(middle[4]) == pytest.approx(1.0, abs=1e-10)  # hom_coeff
        assert middle[-1] == "ok"

    def test_determinism_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_matches_golden_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out_path)]) == 0
        assert out_path.read_bytes() == (GOLDEN / "sweep_comb.csv").read_bytes()

    def test_json_format(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {**GAUSSIAN_PAIR, "chi_lo": 1.0, "chi_hi": 1.01, "grid": 2}
        )
        code, out = run(capsys, ["sweep", "--config", cfg, "--format", "json"])
        assert code == 0
        assert len(json.loads(out)["rows"]) == 2

    def test_unwritable_output_exit_4(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {**GAUSSIAN_PAIR, "chi_lo": 1.0, "chi_hi": 1.01, "grid": 2}
        )
        code = main(["sweep", "--config", cfg, "--out", "/nonexistent/dir/out.csv"])
        assert code == 4


NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400"]
# One config per subcommand; the "@" value is replaced by a non-finite literal.
NON_FINITE_CONFIGS = {
    "chi": {"g": "@", "h": 1.0},
    "nogo": {"chi": "@"},
    "tritter": {**GAUSSIAN_PAIR, "chi": "@"},
    "evolve": {"angles": [0.0, "@", 0.0]},
    "sweep": {**GAUSSIAN_PAIR, "chi_lo": 1.0, "chi_hi": "@", "grid": 3},
    "find-hom": {
        "mode1": {"kind": "gaussian", "omega0": 100.0, "sigma": "@"},
        "mode2": GAUSSIAN_PAIR["mode2"],
        "chi_lo": 1.0,
        "chi_hi": 1.01,
        "grid": 3,
    },
}


@pytest.mark.parametrize("literal", NON_FINITE)
@pytest.mark.parametrize("command", sorted(NON_FINITE_CONFIGS))
def test_non_finite_config_exit_2(tmp_path, capsys, command, literal):
    path = tmp_path / "config.json"
    text = json.dumps(NON_FINITE_CONFIGS[command]).replace('"@"', literal)
    path.write_text(text)
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert literal in captured.err


class TestFindHomCommand:
    def test_disjoint_pair_empty_exit_0(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "mode1": {"kind": "gaussian", "omega0": 100.0, "sigma": 1.0},
                "mode2": {"kind": "gaussian", "omega0": 140.0, "sigma": 1.0},
                "chi_lo": 1.0,
                "chi_hi": 1.05,
                "grid": 5,
            },
        )
        code, out = run(capsys, ["find-hom", "--config", cfg, "--format", "json"])
        assert code == 0
        assert json.loads(out)["roots"] == []

    def test_comb_pair_finds_roots(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        code, out = run(capsys, ["find-hom", "--config", cfg, "--format", "json"])
        assert code == 0
        roots = json.loads(out)["roots"]
        assert roots
        for r in roots:
            assert r["rho2020"] > 1e-4 and r["rho0202"] > 1e-4
