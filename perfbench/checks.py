"""Correctness checks on CLI outputs, run outside the timed region.

Each check returns a list of problems; an empty list means the output
passed. The sweep checks rebuild the zero-phase mixer from the reported
angles with numpy alone, so they do not trust the program's own mixer
code. The root check recomputes each root through the program's
``tritter_from_modes``, as a user of the library would.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from gravtritter.modes import orthonormalize_pair, profile_from_json
from gravtritter.tritter import tritter_from_modes

# Reference values are compared to this tolerance, not byte for byte, so
# that a change with documented rounding-level deviations (about 2e-13 for
# closed-form overlaps) still passes.
REFERENCE_TOL = 1e-9
# Quantities recomputed from the 13-digit CSV fields agree to this.
CONSISTENCY_TOL = 1e-9
UNITARITY_TOL = 1e-10
NEGATIVITY_SLACK = 1e-10
ROOT_TOL = 1e-10
# Two roots closer than this (relative) count as one root reported twice.
DISTINCT_ROOT_TOL = 1e-9

SWEEP_HEADER = [
    "chi", "theta", "phi", "psi", "hom_coeff", "rho2020", "rho0202",
    "rho1111", "negativity", "neg_bound", "status",
]
ROOT_FIELDS = ["chi", "hom_coeff", "rho2020", "rho0202", "negativity"]

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def mixer_from_angles(theta: float, phi: float, psi: float) -> np.ndarray:
    """Zero-phase product of three rotations, as defined in the paper."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    cs, ss = np.cos(psi), np.sin(psi)
    return np.array(
        [
            [ct * cp, -ct * sp * cs - st * ss, -ct * sp * ss + st * cs],
            [sp, cp * cs, cp * ss],
            [-st * cp, st * sp * cs - ct * ss, st * sp * ss + ct * cs],
        ]
    )


def parse_sweep_csv(text: str) -> list[dict]:
    """Rows of a sweep CSV as dicts; the '# {...}' comment line is skipped."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader)
    if header != SWEEP_HEADER:
        raise ValueError(f"unexpected header {header}")
    rows = []
    for fields in reader:
        if len(fields) != len(header):
            raise ValueError(f"row of {len(fields)} fields: {fields}")
        row = dict(zip(header, fields))
        for key in SWEEP_HEADER[:-1]:
            row[key] = float(row[key])
        rows.append(row)
    return rows


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def check_sweep(text: str, config: dict, reference: str | None = None) -> list[str]:
    """Grid, per-row status, unitarity, consistency, negativity bound."""
    try:
        rows = parse_sweep_csv(text)
    except (ValueError, StopIteration) as exc:
        return [f"unparsable sweep output: {exc}"]
    problems = []
    grid = np.linspace(config["chi_lo"], config["chi_hi"], config["grid"])
    if len(rows) != len(grid):
        problems.append(f"{len(rows)} rows for a grid of {len(grid)}")
    for row, chi in zip(rows, grid):
        problems += [f"chi={row['chi']:.6f}: {p}" for p in _check_row(row, chi)]
    if reference is not None:
        problems += _compare_sweep(rows, reference)
    return problems


def _check_row(row: dict, chi: float) -> list[str]:
    if row["status"] != "ok":
        return [f"status {row['status']}"]
    values = [row[k] for k in SWEEP_HEADER[:-1]]
    if not all(np.isfinite(values)):
        return ["non-finite field"]
    problems = []
    if not _close(row["chi"], chi, 1e-12):
        problems.append(f"chi off the grid point {chi!r}")
    u = mixer_from_angles(row["theta"], row["phi"], row["psi"])
    residual = np.max(np.abs(u @ u.T - np.eye(3)))
    if residual > UNITARITY_TOL:
        problems.append(f"mixer unitarity residual {residual:.3e}")
    hom = float(abs(u[0, 0] * u[1, 1] + u[0, 1] * u[1, 0]))
    expected = {
        "hom_coeff": hom,
        "rho2020": float(2.0 * (u[0, 0] * u[1, 0]) ** 2),
        "rho0202": float(2.0 * (u[0, 1] * u[1, 1]) ** 2),
        "rho1111": hom**2,
    }
    for key, value in expected.items():
        if not _close(row[key], value, CONSISTENCY_TOL):
            problems.append(f"{key} {row[key]!r} != {value!r} from the angles")
    if row["negativity"] < row["neg_bound"] - NEGATIVITY_SLACK:
        problems.append(
            f"negativity {row['negativity']!r} below its bound {row['neg_bound']!r}"
        )
    return problems


def _compare_sweep(rows: list[dict], reference: str) -> list[str]:
    ref_rows = parse_sweep_csv((REFERENCE_DIR / f"{reference}.csv").read_text())
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference {reference} has {len(ref_rows)}"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        for key in SWEEP_HEADER[:-1]:
            if not _close(row[key], ref[key], REFERENCE_TOL):
                problems.append(
                    f"chi={ref['chi']:.6f}: {key} {row[key]!r} differs from "
                    f"reference {ref[key]!r}"
                )
    return problems


def check_find_hom(
    text: str, config: dict, reference: str | None = None
) -> list[str]:
    """Every root is a zero with both populations above the floor, distinct."""
    try:
        roots = [
            {key: float(root[key]) for key in ROOT_FIELDS}
            for root in json.loads(text)["roots"]
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable find-hom output: {exc}"]
    problems = []
    floor = config["population_floor"]
    chis = [root["chi"] for root in roots]
    if roots:
        problems += _recheck_roots(chis, config, floor)
    ordered = sorted(chis)
    for a, b in zip(ordered, ordered[1:]):
        if b - a <= DISTINCT_ROOT_TOL * b:
            problems.append(f"root reported twice: chi={a!r} and chi={b!r}")
    if reference is not None:
        problems += _compare_roots(roots, reference)
    return problems


def _recheck_roots(chis: list[float], config: dict, floor: float) -> list[str]:
    e1, e2 = orthonormalize_pair(
        profile_from_json(config["mode1"]), profile_from_json(config["mode2"])
    )
    problems = []
    for chi in chis:
        if not config["chi_lo"] <= chi <= config["chi_hi"]:
            problems.append(f"root chi={chi!r} outside the searched range")
            continue
        u, _angles, _rec = tritter_from_modes(e1, e2, chi)
        coincidence = abs(u[0, 0] * u[1, 1] + u[0, 1] * u[1, 0])
        rho2020 = 2.0 * abs(u[0, 0] * u[1, 0]) ** 2
        rho0202 = 2.0 * abs(u[0, 1] * u[1, 1]) ** 2
        if coincidence >= ROOT_TOL:
            problems.append(f"root chi={chi!r}: |U11U22+U12U21| = {coincidence:.3e}")
        if rho2020 <= floor or rho0202 <= floor:
            problems.append(
                f"root chi={chi!r}: populations {rho2020:.3e}, {rho0202:.3e} "
                f"not above the floor {floor:.1e}"
            )
    return problems


def _compare_roots(roots: list[dict], reference: str) -> list[str]:
    ref_roots = json.loads((REFERENCE_DIR / f"{reference}.json").read_text())["roots"]
    if len(roots) != len(ref_roots):
        return [f"{len(roots)} roots, reference {reference} has {len(ref_roots)}"]
    problems = []
    for root, ref in zip(roots, ref_roots):
        for key in ROOT_FIELDS:
            if not _close(root[key], ref[key], REFERENCE_TOL):
                problems.append(
                    f"root {key} {root[key]!r} differs from reference {ref[key]!r}"
                )
    return problems


CHECKS = {"sweep": check_sweep, "find-hom": check_find_hom}
