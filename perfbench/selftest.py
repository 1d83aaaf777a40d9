"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test suite: they
reach into private bindings of the program (see tracer.py), which a change
to the program may remove before the benchmark is updated.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from calibrator import Calibrator  # noqa: E402
from gravtritter import cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_PAIR = workloads.comb_pair(1, 100.0, 2.0, 1.0)
TINY_SWEEP = workloads.Command(
    "sweep", {**TINY_PAIR, "chi_lo": 1.0, "chi_hi": 1.01, "grid": 2}
)
# Tabulated on a short table: one root near chi = 1.00552 in well under a
# second, where the comb pair takes seconds.
TINY_FIND_HOM = workloads.Command(
    "find-hom",
    {**workloads.tabulate_pair(workloads.comb_pair(3, 100, 2, 1), 1000),
     "chi_lo": 1.005, "chi_hi": 1.006, "grid": 2, "hom_tol": 1e-11,
     "population_floor": 1e-4},
)


@pytest.fixture(scope="module")
def calibrator(tmp_path_factory):
    counter = tmp_path_factory.mktemp("calibration") / "counter"
    with Calibrator(counter) as cal:
        yield cal


def _run(command, tmp_path, calibrator, tracer=None):
    config_path, out_path = tmp_path / "config.json", tmp_path / "out"
    config_path.write_text(json.dumps(command.config))
    if tracer is None:
        record = run.run_command(cli, command, config_path, out_path, calibrator)
    else:
        with tracer.installed():
            record = run.run_command(cli, command, config_path, out_path, calibrator)
    return run.check_command(checks, command, record, out_path), out_path


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_end_to_end_metrics_named_with_units(tmp_path, calibrator):
    record, _ = _run(TINY_SWEEP, tmp_path, calibrator)
    assert record["problems"] == []
    metrics = run.end_to_end_metrics([record], [0.5, 0.6, 0.7], 90.0)
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_per_layer_metrics_named_with_units(tmp_path, calibrator):
    tracer = tracing.Tracer()
    untraced, traced = [], []
    for command in (TINY_SWEEP, TINY_FIND_HOM):
        untraced.append(_run(command, tmp_path, calibrator)[0])
        tracer.command = len(traced)
        traced.append(_run(command, tmp_path, calibrator, tracer)[0])
    assert all(rec["problems"] == [] for rec in untraced + traced)
    assert traced[1]["roots"] == 1
    metrics = tracing.layer_metrics(tracer.spans, traced, untraced)
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    assert metrics["tritter.overlaps_per_tritter"]["value"] == 5
    assert metrics["search.candidates"]["value"] == 0.5
    spans = tracer.spans
    assert {span[1] for span in spans} == {0, 1}
    assert all(span[3] <= span[4] for span in spans)
    assert all(p is None or p < i for i, p in enumerate(s[2] for s in spans))


def test_tracer_restores_bindings(tmp_path):
    before = [getattr(owner, attr, None) for _, owner, attr in tracing._bindings()]
    with tracing.Tracer().installed():
        pass
    after = [getattr(owner, attr, None) for _, owner, attr in tracing._bindings()]
    assert before == after


def test_calibrator_counts_and_stops(tmp_path):
    with Calibrator(tmp_path / "counter") as cal:
        first = cal.units()
        time.sleep(0.05)
        assert cal.units() > first
        proc = cal._proc
    assert proc.poll() is not None


def test_corrupted_sweep_counts_as_failed(tmp_path, calibrator):
    good, out_path = _run(TINY_SWEEP, tmp_path, calibrator)
    lines = out_path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[5] = f"{float(fields[5]) + 1e-6:.12e}"  # rho2020
    out_path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    bad = run.check_command(checks, TINY_SWEEP, dict(good), out_path)
    assert any("rho2020" in p for p in bad["problems"])
    metrics = run.end_to_end_metrics([good, bad], [0.5], 90.0)
    assert metrics["ok_ratio"]["value"] == 0.5


def test_corrupted_root_counts_as_failed(tmp_path, calibrator):
    good, out_path = _run(TINY_FIND_HOM, tmp_path, calibrator)
    assert good["problems"] == [] and good["roots"] == 1
    doc = json.loads(out_path.read_text())
    doc["roots"].append(dict(doc["roots"][0]))  # the duplicate-root defect
    out_path.write_text(json.dumps(doc))
    problems = checks.check_find_hom(out_path.read_text(), TINY_FIND_HOM.config)
    assert any("twice" in p for p in problems)
    doc["roots"] = [{**doc["roots"][0], "chi": doc["roots"][0]["chi"] + 1e-6}]
    problems = checks.check_find_hom(json.dumps(doc), TINY_FIND_HOM.config)
    assert any("U11U22" in p for p in problems)
    del doc["roots"][0]["negativity"]
    problems = checks.check_find_hom(json.dumps(doc), TINY_FIND_HOM.config)
    assert any("unparsable" in p for p in problems)


def test_truncated_sweep_counts_as_failed():
    text = (checks.REFERENCE_DIR / "sweep_comb.csv").read_text()
    truncated = text[: text.rindex(",")]
    problems = checks.check_sweep(truncated, workloads.GOLDEN_SWEEP, "sweep_comb")
    assert any("unparsable" in p for p in problems)


def test_reference_tolerance_passes_rounding_only():
    text = (checks.REFERENCE_DIR / "sweep_comb.csv").read_text()
    config = workloads.GOLDEN_SWEEP
    assert checks.check_sweep(text, config, "sweep_comb") == []
    rows = text.splitlines()
    shifted = rows[1].replace("2.334261866373e-15", "2.336261866373e-15")
    assert shifted != rows[1]
    nudged = "\n".join([rows[0], shifted] + rows[2:]) + "\n"
    assert checks.check_sweep(nudged, config, "sweep_comb") == []
    broken = nudged.replace("1.892793020110e-01", "1.892803020110e-01")
    assert checks.check_sweep(broken, config, "sweep_comb") != []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_seeded_and_reference_first(workload):
    def first(seed, n=4):
        stream = workloads.commands(workload, seed)
        return [next(stream) for _ in range(n)]

    a, b, c = first(7), first(7), first(8)
    assert a == b
    assert a[0] == c[0] and a[0].reference is not None
    assert a[1:] != c[1:]
    assert all(cmd.reference is None for cmd in a[1:])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "comb_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
