"""Photon frequency profiles: evaluation, overlaps, redshift, orthonormalization.

A profile F(omega) is a normalized complex function on omega > 0 describing
the spectral wavepacket of a single photon.  Three kinds are supported:

* ``GaussianProfile`` -- a single bell, F(w) = (2 pi s^2)^(-1/4)
  exp(-(w - w0)^2 / (4 s^2)) e^{i phase}, so |F|^2 has standard deviation s.
* ``CombProfile``     -- a weighted superposition of Gaussian lobes.
* ``TabulatedProfile``-- complex samples on a strictly increasing grid with
  linear interpolation; zero outside the grid.

Evaluation at omega <= 0 returns zero for every kind.  Every overlap
<F,G> = int_0^inf F*(w) G(w) dw is exact (a table: for its linear
interpolant), by one of three routes:

* gaussian/comb with gaussian/comb: sums of half-line Gaussian integrals
  over lobe pairs;
* table with table: the product of two linear interpolants is a quadratic
  between the merged nodes; each side is evaluated once, on those nodes;
* table with gaussian/comb: erf and exp terms of each lobe at the table's
  nodes, or their Taylor series on intervals shorter than the lobe width.

``overlap_matrix`` takes a route once for many pairs (``inner_product`` is
its 1x1 case): one broadcast over all lobe pairs, or one set of nodes for
tables on one row grid and one column grid.  ``redshifted_overlaps`` adds a
chi axis: one broadcast over (chi, lobe, lobe), or one pass per chi for
tables, whose redshifted nodes differ from chi to chi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DegeneracyError, DomainError, GravTritterError
from .geometry import chi_squared

# Truncation level for effective support windows, relative to the peak.
SUPPORT_REL_EPS = 1e-16

# |F| falls below SUPPORT_REL_EPS of its peak this many sigmas out.
_SUPPORT_HALF_WIDTH = 2.0 * np.sqrt(np.log(1.0 / SUPPORT_REL_EPS))


def _gauss_lobe(omega: np.ndarray, center: float, width: float) -> np.ndarray:
    """Unit-normalized real Gaussian lobe on the given frequencies."""
    return (2.0 * np.pi * width**2) ** (-0.25) * np.exp(
        -((omega - center) ** 2) / (4.0 * width**2)
    )


@dataclass(frozen=True)
class GaussianProfile:
    """Single-peak Gaussian wavepacket with peak omega0, width sigma."""

    omega0: float
    sigma: float
    phase: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError(f"gaussian width must be positive, got {self.sigma}")
        if self.omega0 <= 0:
            raise DomainError(f"gaussian peak must be positive, got {self.omega0}")
        if self.omega0 < 5.0 * self.sigma:
            norm_sq = 0.5 * math.erfc(-self.omega0 / (math.sqrt(2.0) * self.sigma))
            warnings.warn(
                f"gaussian peak {self.omega0} < 5 sigma ({self.sigma}); "
                f"half-line norm^2 erfc(-omega0/(sqrt(2) sigma))/2 = {norm_sq:.6g}, "
                "below its 5-sigma value 1 - 2.9e-7",
                stacklevel=3,
            )

    def evaluate(self, omega):
        """F(omega); zero for omega <= 0.  Accepts scalars or arrays."""
        return _as_comb(self).evaluate(omega)

    def support_window(self) -> tuple[float, float]:
        return _as_comb(self).support_window()

    def to_json_dict(self) -> dict:
        return {
            "kind": "gaussian",
            "omega0": self.omega0,
            "sigma": self.sigma,
            "phase": self.phase,
        }


@dataclass(frozen=True)
class CombProfile:
    """Weighted superposition of Gaussian lobes.

    Each peak is (weight, center, width) with complex weight.  The weights
    are stored as given; use :func:`make_comb` to build a normalized comb.
    """

    peaks: tuple[tuple[complex, float, float], ...]

    def __post_init__(self):
        if not self.peaks:
            raise DomainError("comb needs at least one peak")
        for _, center, width in self.peaks:
            if width <= 0:
                raise DomainError(f"comb width must be positive, got {width}")
            if center <= 0:
                raise DomainError(f"comb center must be positive, got {center}")

    def evaluate(self, omega):
        w = np.asarray(omega, dtype=float)
        vals = np.zeros(w.shape, dtype=complex)
        for weight, center, width in self.peaks:
            vals += weight * _gauss_lobe(w, center, width)
        out = np.where(w > 0, vals, 0.0 + 0.0j)
        return out[()] if np.isscalar(omega) or out.ndim == 0 else out

    def support_window(self) -> tuple[float, float]:
        lo = min(c - _SUPPORT_HALF_WIDTH * s for _, c, s in self.peaks)
        hi = max(c + _SUPPORT_HALF_WIDTH * s for _, c, s in self.peaks)
        return (max(lo, 0.0), hi)

    def to_json_dict(self) -> dict:
        return {
            "kind": "comb",
            "peaks": [
                [complex(wt).real, complex(wt).imag, c, s]
                for wt, c, s in self.peaks
            ],
        }


@dataclass(frozen=True, eq=False)
class TabulatedProfile:
    """Complex samples on a strictly increasing positive grid.

    Linear interpolation between grid points; zero outside the grid and for
    omega <= 0 (documented convention).
    """

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.omega, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if grid.ndim != 1 or grid.size < 2:
            raise DomainError("tabulated grid needs at least two points")
        if vals.shape != grid.shape:
            raise DomainError("tabulated grid and values must have equal length")
        if not np.all(np.isfinite(grid)):
            raise DomainError("tabulated grid must be finite")
        if np.any(np.diff(grid) <= 0):
            raise DomainError("tabulated grid must be strictly increasing")
        if grid[0] <= 0:
            raise DomainError("tabulated grid must be strictly positive")
        object.__setattr__(self, "omega", grid)
        object.__setattr__(self, "values", vals)

    def evaluate(self, omega):
        # fmax sends NaN and omega <= 0 to 0, left of the positive grid.
        w = np.fmax(np.asarray(omega, dtype=float), 0.0)
        return np.interp(w, self.omega, self.values, left=0.0, right=0.0)

    def to_json_dict(self) -> dict:
        return {
            "kind": "tabulated",
            "omega": self.omega.tolist(),
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
        }


ModeProfile = GaussianProfile | CombProfile | TabulatedProfile


def profile_from_json(doc: dict) -> ModeProfile:
    """Rebuild a profile from its JSON dict form (see ``to_json_dict``)."""
    kind = doc.get("kind")
    if kind == "gaussian":
        return GaussianProfile(doc["omega0"], doc["sigma"], doc.get("phase", 0.0))
    if kind == "comb":
        return CombProfile(
            tuple((re + 1j * im, c, s) for re, im, c, s in doc["peaks"])
        )
    if kind == "tabulated":
        vals = np.asarray(doc["re"], float) + 1j * np.asarray(doc["im"], float)
        return TabulatedProfile(np.asarray(doc["omega"], float), vals)
    raise DomainError(f"unknown profile kind {kind!r}")


def inner_product(f: ModeProfile, g: ModeProfile) -> complex:
    """Overlap <F,G> = int_0^inf F*(w) G(w) dw: the 1x1 case of
    :func:`overlap_matrix`.

    Exact for every pair of kinds (module docstring), the cut-off at
    omega = 0 included; a table stands for its linear interpolant, zero
    outside its grid, so two tables on disjoint grids give exactly 0.
    """
    return complex(overlap_matrix((f,), (g,))[0, 0])


def overlap_matrix(rows, cols) -> np.ndarray:
    """Overlaps M[i, j] = <rows[i], cols[j]>, each equal bit for bit to the
    pair's own and exact as :func:`inner_product` says; pairs that share a
    route and its nodes share one pass.
    """
    views = [_as_comb(p) for p in (*rows, *cols)]
    if all(v is not None for v in views):
        return _lobe_overlaps(views[: len(rows)], views[len(rows) :])[0]
    if _shared_nodes(rows) and _shared_nodes(cols):
        return _piecewise_inner(rows, cols)
    return np.array([[inner_product(f, g) for g in cols] for f in rows])


def redshifted_overlaps(rows, cols, chis: list[float]) -> tuple[np.ndarray, list]:
    """Overlaps M[k, i, j] = <rows[i]', cols[j]> of the rows redshifted by
    chis[k], each equal bit for bit to :func:`overlap_matrix` of the
    :func:`redshift_transform` profiles, and per chi None or the error it
    raises there; a failed chi's block is NaN.  A chi at which the overlaps
    overflow (1e-154 < chi < 1e-77 or so for unit widths) is such an error,
    with no floating-point warning.
    """
    views = [_as_comb(p) for p in (*rows, *cols)]
    lobes = all(v is not None for v in views)
    out = np.empty((len(chis), len(rows), len(cols)), dtype=complex)
    errors, c2 = [None] * len(chis), np.ones(len(chis))
    for k, chi in enumerate(chis):
        try:
            c2[k] = chi_squared(chi)
            if not lobes:
                shifted = [redshift_transform(p, chi) for p in rows]
                out[k] = overlap_matrix(shifted, cols)
        except GravTritterError as exc:
            errors[k] = exc
    if lobes:
        with np.errstate(over="ignore", invalid="ignore"):
            out = _lobe_overlaps(views[: len(rows)], views[len(rows) :], c2)
    for k in np.flatnonzero(~np.isfinite(out).all(axis=(1, 2))):
        errors[k] = errors[k] or _overflow(chis[k])
    if any(errors):
        out[[e is not None for e in errors]] = np.nan
    return out, errors


def _overflow(chi) -> DomainError:
    message = "out of range: the redshifted overlaps overflow"
    return DomainError(f"redshift parameter chi = {chi} {message}")


def _erfc(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erfc, x.flat), float, x.size).reshape(x.shape)


def _lobe_overlaps(rows, cols, c2=(1.0,)) -> np.ndarray:
    """Exact sums over lobe pairs of half-line Gaussian integrals, one
    (rows, cols) block for each chi^2 in ``c2`` by which the rows are
    redshifted (their centres and widths divided by it).

    Lobes (w_i, a, s1) of F and (w_j, b, s2) of G contribute their full-line
    overlap conj(w_i) w_j sqrt(2 s1 s2 / V) exp(-(a - b)^2 / (4 V)), with
    V = s1^2 + s2^2, times the share erfc(-mu sqrt(A)) / 2 of the product
    Gaussian on w > 0; A = 1/(4 s1^2) + 1/(4 s2^2) is its inverse scale and
    mu = (a/(4 s1^2) + b/(4 s2^2)) / A its centre.  One broadcast gives the
    terms of all lobe pairs at every chi; each profile pair's block, copied
    contiguous by the reshape, sums in the order of that pair alone.
    """
    lobes1 = [lobe for p in rows for lobe in p.peaks]
    lobes2 = [lobe for p in cols for lobe in p.peaks]
    w1, a, s1 = (np.array(col)[:, None] for col in zip(*lobes1))
    w2, b, s2 = (np.array(col)[None, :] for col in zip(*lobes2))
    c2 = np.asarray(c2)[:, None, None]
    a, s1 = a / c2, s1 / c2
    var = s1**2 + s2**2
    mu_sqrt_a = (a * s2**2 + b * s1**2) / (2.0 * s1 * s2 * np.sqrt(var))
    terms = (
        np.conj(w1)
        * w2
        * np.sqrt(2.0 * s1 * s2 / var)
        * np.exp(-((a - b) ** 2) / (4.0 * var))
        * (0.5 * _erfc(-mu_sqrt_a))
    )
    r, c = ([0, *accumulate(len(p.peaks) for p in side)] for side in (rows, cols))
    n = len(c2)
    blocks = [
        [terms[:, r0:r1, c0:c1].reshape(n, -1).sum(axis=1) for c0, c1 in zip(c, c[1:])]
        for r0, r1 in zip(r, r[1:])
    ]
    return np.array(blocks).transpose(2, 0, 1)


def _shared_nodes(profiles) -> bool:
    """One profile, or tables on one grid."""
    return len(profiles) == 1 or all(
        isinstance(p, TabulatedProfile) and np.array_equal(p.omega, profiles[0].omega)
        for p in profiles
    )


def _sorted_union(parts) -> np.ndarray:
    """Distinct values of sorted arrays, ascending: a stable sort merges the
    sorted runs in linear time, where np.unique would sort them afresh."""
    x = np.concatenate(parts)
    x.sort(kind="stable")
    return x[np.concatenate(([True], np.diff(x) > 0))]


def _piecewise_inner(rows, cols) -> np.ndarray:
    """Exact overlaps of tables on one grid with the other side's profiles.

    Two tables: the product of their interpolants is a quadratic on each
    interval of the merged nodes, at which each table is evaluated once.  A
    gaussian/comb row is the conjugate transpose of :func:`_table_lobe_inner`.
    """
    f, g = rows[0], cols[0]
    if not isinstance(f, TabulatedProfile):
        return _piecewise_inner(cols, rows).conj().T
    if not isinstance(g, TabulatedProfile):
        return _table_lobe_inner(rows, _as_comb(g))
    lo, hi = max(f.omega[0], g.omega[0]), min(f.omega[-1], g.omega[-1])
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    if lo >= hi:
        return out
    inside = [t.omega[(t.omega > lo) & (t.omega < hi)] for t in (f, g)]
    x = _sorted_union([[lo, hi], *inside])
    b = [q.evaluate(x) for q in cols]
    for i, p in enumerate(rows):
        a = np.conj(p.evaluate(x))
        a0, a1 = a[:-1], a[1:]
        for j, bj in enumerate(b):
            terms = (2.0 * a0 + a1) * bj[:-1] + (a0 + 2.0 * a1) * bj[1:]
            out[i, j] = np.sum(np.diff(x) / 6.0 * terms)
    return out


def _table_lobe_inner(tables, comb: CombProfile) -> np.ndarray:
    """Column of overlaps <T_i, comb>, exact for the tables' interpolants.

    On a node interval of midpoint m and length 4 s r, a table is its value
    at m plus its slope times (w - m).  With u = (w - c) / 2s, a lobe
    e^{-u^2} integrates against 1 and against w - m to 2s and 4s^2 times the
    moments int e^{-u^2} du and int (u - u_m) e^{-u^2} du over the interval.
    For r >= 1/4 they are steps of sqrt(pi)/2 erf(u) and -e^{-u^2}/2.  On
    shorter intervals these steps cancel, to errors of about eps / r of the
    moments, and the Taylor series of the same antiderivatives about u_m
    takes over: with t_n = H_n(u_m) r^n / n! (Hermite polynomials), the
    moments are 2r e^{-u_m^2} sum_even t_n / (n+1) and
    -2r^2 e^{-u_m^2} sum_odd t_n / (n+2), whose terms from the 16th on fall
    below rounding.  The comb's lobes are summed into two kernels once.
    """
    x = tables[0].omega
    weight, c, s = (np.array(col) for col in zip(*comb.peaks))
    h = np.diff(x)
    um = ((x[:-1] + 0.5 * h)[:, None] - c) / (2.0 * s)
    r = h[:, None] / (4.0 * s)
    area, moment = np.empty_like(um), np.empty_like(um)
    long = r >= 0.25
    lo, hi = um[long] - r[long], um[long] + r[long]
    area[long] = 0.5 * math.sqrt(math.pi) * (_erfc(lo) - _erfc(hi))
    moment[long] = 0.5 * (np.exp(-lo * lo) - np.exp(-hi * hi)) - um[long] * area[long]
    # Past |u_m| = 30, e^{-u_m^2} is 0 and the clip keeps t_n finite.
    u, half = np.clip(um[~long], -30.0, 30.0), r[~long]
    a, b = 2.0 * half * u, 2.0 * half * half  # t_n = (a t_n-1 - b t_n-2) / n
    prev, term = np.ones_like(u), a
    sums = [np.ones_like(u), a / 3.0]  # sum_even t_n / (n+1), sum_odd t_n / (n+2)
    for n in range(2, 16):
        prev, term = term, (a * term - b * prev) / n
        sums[n % 2] += term / (n + 1 + n % 2)
    peak = np.exp(-um[~long] ** 2)
    area[~long], moment[~long] = 2.0 * half * peak * sums[0], -b * peak * sums[1]
    scale = weight * (2.0 * np.pi * s**2) ** (-0.25)
    k0, k1 = (2.0 * s * area) @ scale, (4.0 * s**2 * moment) @ scale
    out = np.empty((len(tables), 1), dtype=complex)
    for i, table in enumerate(tables):
        v = np.conj(table.values)
        out[i, 0] = np.sum(0.5 * (v[:-1] + v[1:]) * k0 + np.diff(v) / h * k1)
    return out


def norm(profile: ModeProfile) -> float:
    """sqrt(<F,F>)."""
    return float(np.sqrt(inner_product(profile, profile).real))


def redshift_transform(profile: ModeProfile, chi: float) -> ModeProfile:
    """Apply the redshift map F'(w) = chi * F(chi^2 w).

    Parametric kinds transform in closed form (peaks and widths divide by
    chi^2); tabulated grids are rescaled.  The map preserves the norm
    exactly, so no renormalization is applied.
    """
    c2 = chi_squared(chi)
    if isinstance(profile, GaussianProfile):
        return GaussianProfile(profile.omega0 / c2, profile.sigma / c2, profile.phase)
    if isinstance(profile, CombProfile):
        return CombProfile(
            tuple((wt, c / c2, s / c2) for wt, c, s in profile.peaks)
        )
    if isinstance(profile, TabulatedProfile):
        with np.errstate(over="ignore"):
            omega = profile.omega / c2
        if not np.isfinite(omega[-1]):
            raise _overflow(chi)
        return TabulatedProfile(omega, chi * profile.values)
    raise DomainError(f"unknown profile type {type(profile)!r}")


def make_comb(peaks) -> CombProfile:
    """Build a normalized comb from (weight, center, width) triples.

    The normalization constant is the exact closed-form norm, folded into
    the stored weights.
    """
    peaks = tuple((complex(wt), float(c), float(s)) for wt, c, s in peaks)
    raw = CombProfile(peaks)
    return _divided(raw, norm(raw))


def _as_comb(profile: ModeProfile) -> CombProfile | None:
    """Lobe-list view of a parametric profile; None for tabulated."""
    if isinstance(profile, GaussianProfile):
        weight = np.exp(1j * profile.phase)
        return CombProfile(((weight, profile.omega0, profile.sigma),))
    if isinstance(profile, CombProfile):
        return profile
    return None


def _tabulate(profile: ModeProfile, grid: np.ndarray) -> TabulatedProfile:
    return TabulatedProfile(grid, np.asarray(profile.evaluate(grid), complex))


def _merged_grid(f: ModeProfile, g: ModeProfile, points_per_window: int = 4001):
    """Common dense grid covering both supports."""
    parts = []
    for p in (f, g):
        if isinstance(p, TabulatedProfile):
            parts.append(p.omega)
        else:
            lo, hi = p.support_window()
            lo = max(lo, np.finfo(float).tiny)
            parts.append(np.linspace(lo, hi, points_per_window))
    grid = _sorted_union(parts)
    return grid[grid > 0]


def orthonormalize_pair(
    f1: ModeProfile, f2: ModeProfile
) -> tuple[ModeProfile, ModeProfile]:
    """Gram-Schmidt anchored on the first argument.

    Returns (F1/||F1||, (F2 - <E1,F2> E1)/||.||).  For gaussian/comb inputs
    the subtraction stays in closed form as a weighted lobe list and every
    overlap is exact; if either input is tabulated, both outputs are
    tabulated on a merged grid so the projection coefficient and the final
    orthogonality check share one exact rule.

    Raises:
        DegeneracyError: inputs numerically parallel.
    """
    p1, p2 = _as_comb(f1), _as_comb(f2)
    if p1 is None or p2 is None:
        grid = _merged_grid(f1, f2)
        p1, p2 = _tabulate(f1, grid), _tabulate(f2, grid)
    e1, n2 = _divided(p1, norm(p1)), _divided(p2, norm(p2))
    c12 = inner_product(e1, n2)
    if abs(c12) >= 1.0 - 1e-12:
        raise DegeneracyError(
            f"profiles numerically parallel, |<F1,F2>| = {abs(c12):.15f}"
        )
    residual = _minus(n2, c12, e1)
    return e1, _divided(residual, norm(residual))


def _divided(p: CombProfile | TabulatedProfile, scale):
    """p / scale, of the same kind."""
    if isinstance(p, TabulatedProfile):
        return TabulatedProfile(p.omega, p.values / scale)
    return CombProfile(tuple((wt / scale, c, s) for wt, c, s in p.peaks))


def _minus(p: CombProfile | TabulatedProfile, k: complex, q):
    """p - k q: a longer lobe list, or a table on the shared grid."""
    if isinstance(p, TabulatedProfile):
        return TabulatedProfile(p.omega, p.values - k * q.values)
    return CombProfile(p.peaks + tuple((-k * wt, c, s) for wt, c, s in q.peaks))
