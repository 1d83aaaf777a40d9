"""End-to-end benchmark of the gravtritter CLI.

    python3 perfbench/run.py --workload comb_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. One process runs one workload in a closed loop with a single
client: each CLI command goes through ``gravtritter.cli.main(argv)``
in-process with a generated config file and ``--out``, and the next starts
when it returns. Commands start until ``--seconds`` have passed. Each output
is checked after its command, outside the timed region.

On a shared host each core's speed drifts by tens of percent from one
second to the next. So in the ``--trace 0`` run a counting process
(``calibrator.py``) shares the workload's core and does fixed units of work,
and each command's cost is the number of units counted while it ran
("cal"). The calibrated figures are the end-to-end timing metrics; the raw
seconds, which include the other half of the shared core, are printed too.

``--trace 0`` prints the end-to-end metrics; set-up time is measured in
fresh interpreters first. ``--trace 1`` runs every config twice, untraced
and traced in alternating order, on a core of its own, and prints the
per-layer metrics; the untraced runs give the tracing overhead. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "command_cal_p50": "cal",
    "chi_per_cal": "1/cal",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall time of fresh interpreters that import gravtritter.cli."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}
    walls = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import gravtritter.cli"],
            env=env,
            cwd=ROOT,
            check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        walls.append(time.perf_counter() - start)
    return walls


def run_command(cli, command, config_path: Path, out_path: Path, calibrator=None) -> dict:
    """One timed ``cli.main`` call; a crash counts as exit code 1."""
    out_path.unlink(missing_ok=True)
    argv = command.argv(str(config_path), str(out_path))
    units = calibrator.units() if calibrator else 0
    start = time.perf_counter()
    try:
        exit_code = cli.main(argv)
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        exit_code = 1
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "cal": calibrator.units() - units if calibrator else None,
        "exit_code": exit_code,
        "chi_points": command.chi_points,
        "config_bytes": config_path.stat().st_size,
    }


def check_command(checks, command, record: dict, out_path: Path) -> dict:
    """Add the output's problems and its failed-row and root counts."""
    record.update(problems=[], rows_failed=0, roots=0)
    if record["exit_code"] != 0:
        record["problems"].append(f"exit code {record['exit_code']}")
    try:
        text = out_path.read_text(encoding="utf-8")
    except OSError as exc:
        record["problems"].append(f"no output: {exc}")
        return record
    check = checks.CHECKS[command.subcommand]
    record["problems"] += check(text, command.config, command.reference)
    try:
        if command.subcommand == "sweep":
            rows = checks.parse_sweep_csv(text)
            record["rows_failed"] = sum(row["status"] != "ok" for row in rows)
        else:
            record["roots"] = len(json.loads(text)["roots"])
    except (ValueError, KeyError, TypeError, StopIteration):
        pass  # already reported by the check
    return record


def end_to_end_metrics(records: list[dict], setup: list[float], rss_mb: float) -> dict:
    costs = [rec["cal"] for rec in records]
    failed = sum(bool(rec["problems"]) for rec in records)
    values = {
        "setup_s": statistics.median(setup),
        "command_cal_p50": statistics.median(costs),
        "chi_per_cal": sum(rec["chi_points"] for rec in records) / sum(costs),
        "ok_ratio": (len(records) - failed) / len(records),
        "peak_rss_mb": rss_mb,
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }


def machine_note() -> str:
    import numpy
    import scipy

    blas = ",".join(f"{var}={os.environ.get(var)}" for var in BLAS_THREAD_VARS)
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} {blas}"
    )


def main(argv=None) -> int:
    if not (SRC / "gravtritter" / "cli.py").is_file():
        print(f"error: no gravtritter sources under {SRC}", file=sys.stderr)
        return 2
    # Pin the BLAS pools before numpy is first imported, here and in the
    # import-timing children, which inherit this environment.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from calibrator import Calibrator

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    setup = measure_setup() if args.trace == 0 else []

    import checks
    from gravtritter import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()

    WORK_DIR.mkdir(exist_ok=True)
    config_path = WORK_DIR / f"{args.workload}.json"
    out_path = WORK_DIR / f"{args.workload}.out"
    records, traced = [], []
    stream = workloads.commands(args.workload, args.seed)
    # Per-layer times are plain seconds on a core of the workload's own.
    if tracer is None:
        calibration = Calibrator(WORK_DIR / "calibration.counter")
    else:
        calibration = contextlib.nullcontext()
    with calibration as calibrator:
        start = time.perf_counter()
        while not records or time.perf_counter() - start < args.seconds:
            command = next(stream)
            config_path.write_text(json.dumps(command.config), encoding="utf-8")
            if tracer is None:
                passes = [None]
            else:
                # The second run of a config is a little faster, so the
                # order alternates to keep it out of the overhead ratio.
                tracer.command = len(traced)
                passes = [None, tracer] if len(records) % 2 == 0 else [tracer, None]
            for active in passes:
                with active.installed() if active else contextlib.nullcontext():
                    record = run_command(cli, command, config_path, out_path, calibrator)
                record = check_command(checks, command, record, out_path)
                (traced if active else records).append(record)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    everything = records + traced
    failed = [rec for rec in everything if rec["problems"]]
    for rec in failed:
        print(f"failed: {'; '.join(rec['problems'][:5])}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end_metrics(records, setup, rss_mb)
    else:
        tracer.write(WORK_DIR / f"{args.workload}.spans.json")
        metrics = tracing.layer_metrics(tracer.spans, traced, records)

    print(f"machine: {machine_note()}")
    print(
        f"workload {args.workload} seed {args.seed}: {len(records)} commands, "
        f"median config {statistics.median(r['config_bytes'] for r in records):.0f} "
        f"bytes, {records[0]['chi_points']} chi points per command"
    )
    walls = [rec["wall"] for rec in records]
    shared = " on a shared core" if tracer is None else ""
    print(
        f"raw{shared}: command_s_p50 = {statistics.median(walls):.6g} s "
        f"(n={len(walls)}), chi_per_s = "
        f"{sum(r['chi_points'] for r in records) / sum(walls):.6g} 1/s"
    )
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": not failed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
