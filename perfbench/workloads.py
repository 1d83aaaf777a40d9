"""Seeded workload generators: the CLI commands a benchmark run issues.

Each workload is an endless, deterministic sequence of commands. The first
command is always the workload's reference config, whose output is compared
with a committed reference file; the rest are variants drawn from
``numpy.random.default_rng(seed)``. Properties that set a command's cost
(lobe count, table length) cycle in a fixed order, so that every run holds
the same mix whatever the seed; the seed moves centres, spacings, widths and
chi ranges.

Only numpy is needed here: the program under test sees nothing but the
generated config dicts, written to files by the runner.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# A Gaussian lobe's envelope falls below 1e-16 of its peak this many widths
# out; tabulated copies span the whole of that support.
_TABLE_HALF_WIDTH = 2.0 * np.sqrt(np.log(1e16))
MODES = ("mode1", "mode2")


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand, config, and optional reference name."""

    subcommand: str
    config: dict
    reference: str | None = None

    @property
    def chi_points(self) -> int:
        """Input chi grid points the command covers."""
        return int(self.config["grid"])

    def argv(self, config_path: str, out_path: str) -> list[str]:
        args = [self.subcommand, "--config", config_path, "--out", out_path]
        if self.subcommand == "find-hom":
            # JSON keeps every digit of chi; the CSV's 13 would lose the
            # 1e-10 root check to rounding.
            args += ["--format", "json"]
        return args


def _lobes(n: int, first: float, spacing: float, width: float) -> list[list]:
    """Alternating-sign lobes [re, im, centre, width], centres 2*spacing apart."""
    return [
        [(-1) ** k, 0, first + 2 * k * spacing, width] for k in range(n)
    ]


def comb_pair(n_lobes: int, first: float, spacing: float, width: float) -> dict:
    """Interleaved alternating combs; one lobe means the gaussian kind."""
    if n_lobes == 1:
        return {
            "mode1": {"kind": "gaussian", "omega0": first, "sigma": width},
            "mode2": {"kind": "gaussian", "omega0": first + spacing, "sigma": width},
        }
    return {
        "mode1": {"kind": "comb", "peaks": _lobes(n_lobes, first, spacing, width)},
        "mode2": {
            "kind": "comb",
            "peaks": _lobes(n_lobes, first + spacing, spacing, width),
        },
    }


def _peaks(profile: dict) -> list[list]:
    """Lobes [re, im, centre, width] of a gaussian or comb profile."""
    if profile["kind"] == "gaussian":
        return [[1, 0, profile["omega0"], profile["sigma"]]]
    return profile["peaks"]


def _evaluate(profile: dict, omega: np.ndarray) -> np.ndarray:
    vals = np.zeros_like(omega)
    for re, _im, centre, width in _peaks(profile):
        vals += re * (2 * np.pi * width**2) ** -0.25 * np.exp(
            -((omega - centre) ** 2) / (4 * width**2)
        )
    return vals


def tabulate_pair(pair: dict, points: int) -> dict:
    """Real-valued tables of both modes on one grid covering both supports."""
    lobes = [
        (c, s) for name in MODES for _, _, c, s in _peaks(pair[name])
    ]
    lo = min(c - _TABLE_HALF_WIDTH * s for c, s in lobes)
    hi = max(c + _TABLE_HALF_WIDTH * s for c, s in lobes)
    omega = np.linspace(lo, hi, points)
    zeros = [0.0] * points
    return {
        name: {
            "kind": "tabulated",
            "omega": omega.tolist(),
            "re": _evaluate(pair[name], omega).tolist(),
            "im": zeros,
        }
        for name in MODES
    }


# The golden comb sweep of the test suite (tests/golden/sweep_comb.csv).
GOLDEN_SWEEP = {
    **comb_pair(3, 100, 2, 1),
    "chi_lo": 1.0,
    "chi_hi": 1.03,
    "grid": 7,
    "population_floor": 1e-4,
}
# The find_hom spec of acceptance criterion 6.
CRITERION6_SPEC = {
    **comb_pair(3, 100, 2, 1),
    "chi_lo": 1.0,
    "chi_hi": 1.012,
    "grid": 5,
    "hom_tol": 1e-11,
    "population_floor": 1e-4,
}
TABLE_POINTS = (4000, 6000, 8000)
REFERENCE_TABLE_POINTS = 8000


def _near_golden_pair(rng: np.random.Generator, n_lobes: int) -> dict:
    """Lobes within a few percent of the golden pair's: quad_vec's cost
    moves with them, so wider jitter would swamp the run-to-run spread."""
    return comb_pair(
        n_lobes, rng.uniform(98, 102), rng.uniform(1.95, 2.05), rng.uniform(0.98, 1.02)
    )


def _comb_sweep(rng: np.random.Generator) -> Iterator[Command]:
    yield Command("sweep", GOLDEN_SWEEP, "sweep_comb")
    for n_lobes in itertools.cycle((1, 3, 5)):
        config = {
            **_near_golden_pair(rng, n_lobes),
            "chi_lo": 1.0 - rng.uniform(0, 0.01),
            "chi_hi": 1.0 + rng.uniform(0.02, 0.04),
            "grid": 7,
            "population_floor": 1e-4,
        }
        yield Command("sweep", config)


def _comb_find_hom(rng: np.random.Generator) -> Iterator[Command]:
    yield Command("find-hom", CRITERION6_SPEC, "find_hom_criterion6")
    while True:
        config = {
            **_near_golden_pair(rng, 3),
            "chi_lo": 1.0,
            "chi_hi": 1.0 + rng.uniform(0.010, 0.014),
            "grid": 5,
            "hom_tol": 1e-11,
            "population_floor": 1e-4,
        }
        yield Command("find-hom", config)


def _tabulated_sweep(rng: np.random.Generator) -> Iterator[Command]:
    reference = {
        **GOLDEN_SWEEP,
        **tabulate_pair(GOLDEN_SWEEP, REFERENCE_TABLE_POINTS),
    }
    yield Command("sweep", reference, "sweep_tabulated")
    for points in itertools.cycle(TABLE_POINTS):
        # Table length, not the lobes, sets the cost here.
        pair = comb_pair(
            int(rng.choice((1, 3, 5))),
            rng.uniform(95, 105),
            rng.uniform(1.8, 2.2),
            rng.uniform(0.9, 1.1),
        )
        config = {
            **tabulate_pair(pair, points),
            "chi_lo": 1.0 - rng.uniform(0, 0.01),
            "chi_hi": 1.0 + rng.uniform(0.02, 0.04),
            "grid": 7,
            "population_floor": 1e-4,
        }
        yield Command("sweep", config)


WORKLOADS = {
    "comb_sweep": _comb_sweep,
    "comb_find_hom": _comb_find_hom,
    "tabulated_sweep": _tabulated_sweep,
}


def commands(workload: str, seed: int) -> Iterator[Command]:
    """The workload's command sequence for this seed, reference first."""
    return WORKLOADS[workload](np.random.default_rng(seed))
