import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from jsonschema.validators import Draft202012Validator

import gravtritter
from gravtritter import cli
from gravtritter.cli import main
from gravtritter.search import CSV_HEADER

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

    def test_table_with_narrow_gaussian_not_orthogonal_exit_3(self, tmp_path, capsys):
        """A table and a lobe narrower than its node spacing, kept apart by
        orthonormalize: false: their exact overlap fails the orthogonality
        check."""
        omega = np.linspace(90.0, 110.0, 6).tolist()
        table = {"kind": "tabulated", "omega": omega, "re": [1.0] * 6, "im": [0.0] * 6}
        cfg = write_config(
            tmp_path,
            {
                "mode1": table,
                "mode2": {"kind": "gaussian", "omega0": 100.5, "sigma": 0.05},
                "chi": 1.0,
                "orthonormalize": False,
            },
        )
        assert main(["tritter", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: input profiles not orthogonal: |<F1,F2>| = 5.007e-01 > 1e-6\n"
        )

    def test_disjoint_table_and_gaussian_exit_0(self, tmp_path, capsys):
        """A normalized table and a distant gaussian, kept apart by
        orthonormalize: false, take the table x gaussian route."""
        omega = np.linspace(90.0, 110.0, 6).tolist()
        level = [20.0**-0.5] * 6  # |T|^2 integrates to 1 over the 20-wide grid
        table = {"kind": "tabulated", "omega": omega, "re": level, "im": [0.0] * 6}
        cfg = write_config(
            tmp_path,
            {
                "mode1": table,
                "mode2": {"kind": "gaussian", "omega0": 140.0, "sigma": 1.0},
                "chi": 1.01,
                "orthonormalize": False,
            },
        )
        code, out = run(capsys, ["tritter", "--config", cfg])
        assert code == 0
        report = json.loads(out)
        assert report["unitarity_residual"] < 1e-12
        assert report["overlaps"]["o21"] < 1e-12 and report["overlaps"]["o12"] < 1e-12
        # the table, rescaled by 1/chi^2, keeps [90, 110 / 1.0201] of its grid
        assert report["overlaps"]["o11"] == pytest.approx(
            1.01 * (110.0 / 1.0201 - 90.0) / 20.0, abs=1e-12
        )

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


# The literal as the last item of a table's grid, and inside a number array.
NON_FINITE_ARRAY_CONFIGS = {
    "sweep": {
        "mode1": {
            "kind": "tabulated",
            "omega": [90.0, 100.0, "@"],
            "re": [0.0, 1.0, 0.0],
            "im": [0.0, 0.0, 0.0],
        },
        "mode2": GAUSSIAN_PAIR["mode2"],
        "chi_lo": 1.0,
        "chi_hi": 1.01,
        "grid": 3,
    },
    "nogo": {"chi_grid": [1.0, "@", 1.01]},
}


@pytest.mark.parametrize("literal", NON_FINITE)
@pytest.mark.parametrize("command", sorted(NON_FINITE_ARRAY_CONFIGS))
def test_non_finite_number_array_exit_2(tmp_path, capsys, command, literal):
    path = tmp_path / "config.json"
    text = json.dumps(NON_FINITE_ARRAY_CONFIGS[command]).replace('"@"', literal)
    path.write_text(text)
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"non-finite number {literal} is not allowed" in captured.err


# chi whose square underflows to 0 or overflows to inf; "@" marks where it goes.
OUT_OF_RANGE_CHI = [1e-200, 1e200]
OUT_OF_RANGE_CHI_CONFIGS = {
    "nogo": {"chi": "@"},
    "tritter": {**GAUSSIAN_PAIR, "chi": "@"},
    "evolve": {**GAUSSIAN_PAIR, "chi": "@"},
    "find-hom": {**GAUSSIAN_PAIR, "chi_lo": "@", "chi_hi": "@", "grid": 2},
}


@pytest.mark.parametrize("chi", OUT_OF_RANGE_CHI)
@pytest.mark.parametrize("command", sorted(OUT_OF_RANGE_CHI_CONFIGS))
def test_out_of_range_chi_exit_3(tmp_path, capsys, command, chi):
    text = json.dumps(OUT_OF_RANGE_CHI_CONFIGS[command]).replace('"@"', repr(chi))
    doc = json.loads(text)
    assert main([command, "--config", write_config(tmp_path, doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: redshift parameter chi = {chi} out of range: "
        "need chi > 0 with chi^2 and 1/chi^2 finite\n"
    )


@pytest.mark.parametrize("chi", OUT_OF_RANGE_CHI)
def test_sweep_reaching_out_of_range_chi_keeps_rows(tmp_path, capsys, chi):
    """Each grid point past the range fails alone, in its row's status."""
    lo, hi = min(chi, 1.0), max(chi, 1.0)
    cfg = write_config(
        tmp_path, {**GAUSSIAN_PAIR, "chi_lo": lo, "chi_hi": hi, "grid": 2}
    )
    code, out = run(capsys, ["sweep", "--config", cfg, "--format", "json"])
    assert code == 0
    status = {row["chi"]: row["status"] for row in json.loads(out)["rows"]}
    assert status == {
        1.0: "ok",
        chi: f"error:redshift parameter chi = {chi} out of range: "
        "need chi > 0 with chi^2 and 1/chi^2 finite",
    }


# chi^2 and 1/chi^2 are finite, but the overlaps of unit-width lobes are not.
OVERFLOWING_CHI = [1e-100, 1e-153]
OVERFLOW = "out of range: the redshifted overlaps overflow"


@pytest.mark.parametrize("chi", OVERFLOWING_CHI)
@pytest.mark.parametrize("command", ["tritter", "evolve", "find-hom"])
def test_overflowing_chi_exit_3(tmp_path, capsys, command, chi):
    """An error naming chi, not a NaN angle, and no floating-point warning
    (pytest turns any RuntimeWarning into a failure)."""
    text = json.dumps(OUT_OF_RANGE_CHI_CONFIGS[command]).replace('"@"', repr(chi))
    assert main([command, "--config", write_config(tmp_path, json.loads(text))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: redshift parameter chi = {chi} {OVERFLOW}\n"


@pytest.mark.parametrize("chi", OVERFLOWING_CHI)
def test_sweep_reaching_overflowing_chi_keeps_rows(tmp_path, capsys, chi):
    cfg = write_config(
        tmp_path, {**GAUSSIAN_PAIR, "chi_lo": chi, "chi_hi": 1.0, "grid": 2}
    )
    code, out = run(capsys, ["sweep", "--config", cfg, "--format", "json"])
    assert code == 0
    status = {row["chi"]: row["status"] for row in json.loads(out)["rows"]}
    want = f"error:redshift parameter chi = {chi} {OVERFLOW}"
    assert status == {chi: want, 1.0: "ok"}


@pytest.mark.parametrize("orthonormalize", [True, False])
def test_table_grid_overflow_exit_3(tmp_path, capsys, orthonormalize):
    """At chi = 1e-154, chi^2 = 1e-308 is in range but a table's grid over
    it is not; a distant gaussian keeps the pair orthogonal unnormalized."""
    omega = np.linspace(90.0, 110.0, 6).tolist()
    level = [20.0**-0.5] * 6
    table = {"kind": "tabulated", "omega": omega, "re": level, "im": [0.0] * 6}
    cfg = write_config(
        tmp_path,
        {
            "mode1": table,
            "mode2": {"kind": "gaussian", "omega0": 140.0, "sigma": 1.0},
            "chi": 1e-154,
            "orthonormalize": orthonormalize,
        },
    )
    assert main(["tritter", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: redshift parameter chi = 1e-154 {OVERFLOW}\n"


@pytest.mark.parametrize("command", ["sweep", "find-hom"])
@pytest.mark.parametrize("hom_tol", [0.0, -1.0])
def test_non_positive_hom_tol_exit_3(tmp_path, capsys, command, hom_tol):
    cfg = write_config(
        tmp_path,
        {**GAUSSIAN_PAIR, "chi_lo": 1.0, "chi_hi": 1.01, "grid": 2, "hom_tol": hom_tol},
    )
    assert main([command, "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: hom tolerance must be positive, got {hom_tol}\n"


def test_main_calls_in_sequence_share_no_options(tmp_path, capsys):
    """No --format or --out value of one call leaks into the next call in
    the same process."""
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "roots.json"
    argv = ["find-hom", "--config", cfg, "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert "roots" in json.loads(out.read_text())
    code, text = run(capsys, ["sweep", "--config", cfg])
    assert code == 0
    assert text.startswith("#") and CSV_HEADER in text.splitlines()
    chi_cfg = write_config(tmp_path, {"g": 0.0, "h": 1.0}, "chi.json")
    code, text = run(capsys, ["chi", "--config", chi_cfg])
    assert code == 0 and json.loads(text)["chi"] == 1.0


def test_commands_import_no_scipy(tmp_path):
    """scipy is a test dependency only: importing it would add about half a
    second and 47 MB to every command.  A fresh interpreter runs sweep and
    find-hom and reports whether any scipy module got loaded."""
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    script = "\n".join([
        "import sys",
        "from gravtritter import cli",
        "for command in ('sweep', 'find-hom'):",
        f"    argv = [command, '--config', {cfg!r}, '--out', {os.devnull!r}]",
        "    assert cli.main(argv) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    path = [str(Path(gravtritter.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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


@pytest.mark.parametrize(
    "name",
    ["PROFILE_SCHEMA", "CHI_SCHEMA", "NOGO_SCHEMA", "TRITTER_SCHEMA",
     "EVOLVE_SCHEMA", "SWEEP_SCHEMA"],
)
def test_schema_passes_metaschema(name):
    Draft202012Validator.check_schema(getattr(cli, name))


TABLE = {
    "kind": "tabulated",
    "omega": [99.0, 100.0, 101.0, 102.0, 103.0],
    "re": [0.0, 0.5, 1.0, 0.5, 0.0],
    "im": [0.0, 0.1, 0.2, 0.1, 0.0],
}
# subcommand -> (schema the oracle checks against, validator the CLI uses,
# a valid config)
SCHEMA_CASES = {
    "chi": (cli.CHI_SCHEMA, cli._CHI, {"g": 9.81, "h": 1.0}),
    "nogo": (cli.NOGO_SCHEMA, cli._NOGO, {"chi_grid": [1.0, 1.1, 1.2]}),
    "tritter": (
        cli.TRITTER_SCHEMA, cli._TRITTER,
        {"mode1": TABLE, "mode2": GAUSSIAN_PAIR["mode2"], "chi": 1.0},
    ),
    "evolve": (cli.EVOLVE_SCHEMA, cli._EVOLVE, {"angles": [0.0, 0.5, 0.0]}),
    "sweep": (
        cli.SWEEP_SCHEMA, cli._SWEEP,
        {"mode1": GAUSSIAN_PAIR["mode1"], "mode2": TABLE,
         "chi_lo": 1.0, "chi_hi": 1.01, "grid": 3},
    ),
}
# (subcommand, path to a number array) for the array cases
NUMBER_ARRAYS = [
    ("nogo", ("chi_grid",)),
    ("evolve", ("angles",)),
    ("tritter", ("mode1", "omega")),
    ("sweep", ("mode2", "re")),
    ("sweep", ("mode2", "im")),
]
NOT_NUMBERS = ["1.0", True, None, [1.0], {"x": 1.0}]


def _with(doc, path, value):
    """Deep copy of doc with the entry at path (keys and indices) replaced."""
    doc = json.loads(json.dumps(doc))
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    target[last] = value
    return doc


def _array_cases():
    for command, path in NUMBER_ARRAYS:
        array = SCHEMA_CASES[command][2]
        for key in path:
            array = array[key]
        for index in (0, len(array) // 2, len(array) - 1):
            for bad in NOT_NUMBERS:
                yield command, path + (index,), bad


OTHER_CASES = [
    ("chi", ("g",), "9.81"),
    ("chi", ("h",), None),
    ("chi", ("extra",), 1),
    ("nogo", ("chi_grid",), []),
    ("nogo", ("chi_grid",), 1.0),
    ("evolve", ("angles",), [0.0, 1.0]),
    ("evolve", ("angles",), [0.0, 1.0, 2.0, 3.0]),
    ("tritter", ("chi",), True),
    ("tritter", ("orthonormalize",), 1),
    ("tritter", ("mode1", "phase"), 0.0),
    ("tritter", ("mode2", "sigma"), "1"),
    ("sweep", ("grid",), 1),
    ("sweep", ("grid",), 2.5),
    ("sweep", ("seed",), 0),
    ("sweep", ("mode1", "kind"), "lorentzian"),
    ("sweep", ("mode2", "omega"), 1.0),
]


@pytest.mark.parametrize(
    "command,path,value",
    [
        pytest.param(
            command, path, value,
            id=f"{command}-{'.'.join(map(str, path))}="
            + json.dumps(value, separators=(",", ":")),
        )
        for command, path, value in [*_array_cases(), *OTHER_CASES]
    ],
)
def test_schema_error_matches_jsonschema_validate(
    tmp_path, capsys, command, path, value
):
    schema, validator, good = SCHEMA_CASES[command]
    assert validator.schema is schema
    doc = _with(good, path, value)
    with pytest.raises(jsonschema.ValidationError) as oracle:
        jsonschema.validate(doc, schema)
    want = f"config does not match schema: {oracle.value.message}"
    cfg = write_config(tmp_path, doc)
    with pytest.raises(cli._SchemaFailure) as got:
        cli._load_config(cfg, validator)
    assert str(got.value) == want
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {want}\n"


def test_number_tables_skip_per_item_validation(tmp_path, monkeypatch):
    """A 100k-number table is checked without one descent per number, and
    every load reuses the validator built at import."""
    n = 33_334
    omega = np.linspace(90.0, 110.0, n).tolist()
    table = {"kind": "tabulated", "omega": omega, "re": [0.5] * n, "im": [0.0] * n}
    doc = {**SWEEP_CONFIG, "mode1": table}
    validator_cls = type(cli._SWEEP)
    descend, iter_errors = validator_cls.descend, validator_cls.iter_errors
    per_item, used = [], []

    def counting_descend(self, instance, schema, path=None, **kwargs):
        if isinstance(path, int):
            per_item.append(path)
        return descend(self, instance, schema, path=path, **kwargs)

    def recording_iter_errors(self, instance):
        if self.schema is cli.SWEEP_SCHEMA:  # the root, not a oneOf branch
            used.append(self)
        return iter_errors(self, instance)

    monkeypatch.setattr(validator_cls, "descend", counting_descend)
    monkeypatch.setattr(validator_cls, "iter_errors", recording_iter_errors)

    cli._load_config(write_config(tmp_path, doc, "a.json"), cli._SWEEP)
    # peaks of the comb in mode2: one descent per lobe, none per number
    assert len(per_item) == len(SWEEP_CONFIG["mode2"]["peaks"])

    per_item.clear()
    bad = _with(doc, ("mode1", "im", n - 1), "0.0")
    with pytest.raises(cli._SchemaFailure, match="is not of type 'number'"):
        cli._load_config(write_config(tmp_path, bad, "b.json"), cli._SWEEP)
    assert len(per_item) > n  # the fallback that builds the error descends

    assert len(used) == 2 and used[0] is used[1] is cli._SWEEP
