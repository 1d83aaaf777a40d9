"""Sweeps over the redshift parameter and location of interference points.

A sweep evaluates the full pipeline (mode pair -> mixer -> two-photon state
-> reduced density matrix) on a chi grid as one array program: stacked
overlaps, mixers and closed-form observables; a failed row keeps its chi's
own error.  Root finding operates on the signed coincidence quantity
U11 U22 + U12 U21, which is real for the zero-phase mixer; its modulus has
no sign change and would defeat bracketing.  Each sign change in the
batched grid scan is refined by Brent's method (inverse quadratic and
secant steps inside the bracket, bisection when they stall), which reuses
the grid values at the bracket ends.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DomainError, GravTritterError
from .fock import coincidence_amplitude, two_photon_observables
from .modes import ModeProfile, orthonormalize_pair
from .tritter import tritters_from_modes

# Cap on one bracket's refinement, which reaches float resolution long before.
_ROOT_MAX_EVALS = 200
_MAX_GRID = 10**6  # larger grids are refused before linspace allocates them
# Chi points per array program: a fine grid runs in chunks, so its arrays
# (chi x lobe x lobe) stay small.
_GRID_CHUNK = 256
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SweepSpec:
    """Mode pair plus chi grid and interference thresholds.

    The profiles are orthonormalized internally before any mixer is built.
    """

    profile1: ModeProfile
    profile2: ModeProfile
    chi_lo: float
    chi_hi: float
    grid: int
    hom_tol: float = 1e-8
    population_floor: float = 1e-6

    def __post_init__(self):
        if self.chi_lo <= 0:
            raise DomainError(f"chi_lo must be positive, got {self.chi_lo}")
        if self.chi_hi < self.chi_lo:
            raise DomainError("chi_hi must be >= chi_lo")
        if self.grid < 2:
            raise DomainError(f"grid size must be >= 2, got {self.grid}")
        if self.grid > _MAX_GRID:
            raise DomainError(f"grid size must be <= {_MAX_GRID}, got {self.grid}")
        if self.hom_tol <= 0:
            raise DomainError(f"hom tolerance must be positive, got {self.hom_tol}")
        if self.population_floor <= 0:
            raise DomainError("population floor must be positive")

    def chi_values(self) -> np.ndarray:
        return np.linspace(self.chi_lo, self.chi_hi, self.grid)


@dataclass(frozen=True)
class SweepRow:
    chi: float
    theta: float = float("nan")
    phi: float = float("nan")
    psi: float = float("nan")
    hom_coeff: float = float("nan")
    rho2020: float = float("nan")
    rho0202: float = float("nan")
    rho1111: float = float("nan")
    negativity: float = float("nan")
    neg_bound: float = float("nan")
    status: str = "ok"


@dataclass(frozen=True)
class HomRoot:
    """A refined zero of the signed coincidence quantity."""

    chi: float
    hom_coeff: float
    rho2020: float
    rho0202: float
    negativity: float
    converged: bool = True


CSV_HEADER = (
    "chi,theta,phi,psi,hom_coeff,rho2020,rho0202,rho1111,"
    "negativity,neg_bound,status"
)


class _Pipeline:
    """Orthonormalized pair with whole-grid and per-chi evaluation."""

    def __init__(self, spec: SweepSpec):
        self.e1, self.e2 = orthonormalize_pair(spec.profile1, spec.profile2)
        self._last = ([], None)  # chis and mixers of the last evaluation

    def _mixers(self, chis: list[float]):
        # A root's row reuses the mixer of the Brent step that found it.
        if chis != self._last[0]:
            self._last = (chis, tritters_from_modes(self.e1, self.e2, chis))
        return self._last[1]

    def rows(self, chis: list[float]) -> list:
        """A ``SweepRow`` per chi, or the error raised at that chi."""
        u, angles, _overlaps, errors = self._mixers(chis)
        observed, unitarity_errors = two_photon_observables(u)
        columns = {"theta": angles.theta, "phi": angles.phi, "psi": angles.psi}
        columns.update(observed)
        values = zip(*(column.tolist() for column in columns.values()))
        return [
            error or unitarity_error or SweepRow(chi, **dict(zip(columns, row)))
            for chi, error, unitarity_error, row in zip(
                chis, errors, unitarity_errors, values
            )
        ]

    def row(self, chi: float) -> SweepRow:
        (row,) = self.rows([chi])
        if isinstance(row, GravTritterError):
            raise row
        return row

    def signed_coincidences(self, chis: list[float]) -> list[float]:
        """The signed coincidence quantity at each chi; raises the error of
        the first chi that fails."""
        u, _angles, _overlaps, errors = self._mixers(chis)
        for error in errors:
            if error is not None:
                raise error
        return coincidence_amplitude(u).real.tolist()

    def signed_coincidence(self, chi: float) -> float:
        return self.signed_coincidences([chi])[0]


def sweep_chi(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the pipeline on every grid chi, ascending order.

    A row that fails keeps its chi and carries an error tag in ``status``;
    the sweep continues.
    """
    chis = spec.chi_values().tolist()
    return [
        SweepRow(chi=chi, status=f"error:{row}")
        if isinstance(row, GravTritterError)
        else row
        for chi, row in zip(chis, _chunked(_Pipeline(spec).rows, chis))
    ]


def find_hom(spec: SweepSpec) -> list[HomRoot]:
    """Locate interference points on the chi grid.

    Scans for sign changes of the signed coincidence quantity, refines each
    bracket by Brent's method to |value| < hom_tol, and keeps only roots
    where both double-occupation populations exceed the population floor.
    A bracket that shrinks to float resolution first gives its best point,
    flagged ``converged=False``.  No bracket found is an empty list, not an
    error.
    """
    pipeline = _Pipeline(spec)
    grid = spec.chi_values()
    values = _chunked(pipeline.signed_coincidences, grid.tolist())

    roots: list[HomRoot] = []
    for i in range(len(grid) - 1):
        a, b = float(grid[i]), float(grid[i + 1])
        fa, fb = values[i], values[i + 1]
        if abs(fa) < spec.hom_tol:
            root = _evaluate_root(pipeline, spec, a, abs(fa), converged=True)
            if root is not None:
                roots.append(root)
            continue
        # A right end already below hom_tol is reported as a grid-point root.
        if fa * fb >= 0 or abs(fb) < spec.hom_tol:
            continue
        chi_root, val, converged = _brent(
            pipeline.signed_coincidence, a, b, fa, fb, spec.hom_tol
        )
        root = _evaluate_root(pipeline, spec, chi_root, abs(val), converged)
        if root is not None:
            roots.append(root)
    if values and abs(values[-1]) < spec.hom_tol:
        root = _evaluate_root(
            pipeline, spec, float(grid[-1]), abs(values[-1]), converged=True
        )
        if root is not None:
            roots.append(root)
    return roots


def _chunked(evaluate, chis: list[float]) -> list:
    return [
        out
        for k in range(0, len(chis), _GRID_CHUNK)
        for out in evaluate(chis[k : k + _GRID_CHUNK])
    ]


def _brent(f, a, b, fa, fb, tol):
    """Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) on [a, b], where fa = f(a) and fb = f(b)
    differ in sign.  b is the best point, [b, c] the bracket, a the previous
    b.  Each step is an inverse quadratic (or secant) step, or a bisection
    when that would not shrink the bracket fast enough.  Returns (chi,
    f(chi), |f| < tol) once |f| < tol or the bracket is below float
    resolution.
    """
    for _ in range(_ROOT_MAX_EVALS):
        if (fa > 0) != (fb > 0):
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half = 0.5 * (c - b)
        delta = 2.0 * _EPS * abs(b)
        if abs(fb) < tol or fb == 0.0 or abs(half) < delta:
            return b, fb, abs(fb) < tol
        if abs(prev_step) > delta and abs(fb) < abs(fa):
            if a == c:
                trial = -fb * (b - a) / (fb - fa)
            else:
                da, dc = (fa - fb) / (a - b), (fc - fb) / (c - b)
                trial = -fb * (fc * dc - fa * da) / (da * dc * (fc - fa))
            if 2.0 * abs(trial) < min(abs(prev_step), 3.0 * abs(half) - delta):
                prev_step, step = step, trial
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        a, fa = b, fb
        b += step if abs(step) > delta else math.copysign(delta, half)
        fb = f(b)
    return b, fb, abs(fb) < tol


def _evaluate_root(pipeline, spec, chi, coeff, converged):
    row = pipeline.row(chi)
    if row.rho2020 <= spec.population_floor or row.rho0202 <= spec.population_floor:
        return None
    return HomRoot(
        chi=chi,
        hom_coeff=coeff,
        rho2020=row.rho2020,
        rho0202=row.rho0202,
        negativity=row.negativity,
        converged=converged,
    )


def rows_to_csv(rows, meta_comment: str | None = None, row_type=SweepRow) -> str:
    """Deterministic CSV rendering: one column per field of ``row_type``,
    numbers as %.12e, flags as 0/1, rows in the order given."""
    names = [f.name for f in fields(row_type)]
    lines = [] if meta_comment is None else [f"# {meta_comment}"]
    lines.append(",".join(names))
    for r in rows:
        lines.append(",".join(_csv_field(getattr(r, name)) for name in names))
    return "\n".join(lines) + "\n"


def _csv_field(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(int(value))
    return f"{value:.12e}"


def rows_to_json(rows) -> list[dict]:
    """Each row (a ``SweepRow`` or ``HomRoot``) as a dict of its fields."""
    return [asdict(r) for r in rows]
