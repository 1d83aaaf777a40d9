"""Fock-state evolution under a mode mixer, reduction, interference, negativity.

States live on three modes (mode1, mode2, perp) at fixed total photon
number.  The |110> input evolves by the closed form of the permanent rule
of passive linear optics (the rule itself is the tests' oracle).  Reduction
traces out the third (unobserved) mode; entanglement of the remaining two
modes is quantified by the negativity of the partial transpose.  Every
closed form takes a stack of mixers (..., 3, 3) as well as one; a sweep's
grid goes through ``two_photon_observables`` at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import DomainError

_UNITARITY_TOL = 1e-10
# Eigenvalues of the partial transpose below this count as negative.
_EIG_NEG_TOL = 1e-11


@dataclass
class FockState:
    """Amplitudes over three-mode occupation triples at fixed total number."""

    total: int
    amplitudes: dict[tuple[int, int, int], complex]

    def __post_init__(self):
        for occ in self.amplitudes:
            if len(occ) != 3 or any(n < 0 for n in occ) or sum(occ) != self.total:
                raise DomainError(f"occupation {occ} inconsistent with N={self.total}")

    @classmethod
    def single(cls, occ: tuple[int, int, int]) -> "FockState":
        return cls(sum(occ), {tuple(occ): 1.0 + 0.0j})

    def amplitude(self, occ: tuple[int, int, int]) -> complex:
        return self.amplitudes.get(tuple(occ), 0.0 + 0.0j)

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def fidelity(self, other: "FockState") -> float:
        """|<self|other>|^2."""
        ov = sum(
            np.conj(a) * other.amplitude(occ) for occ, a in self.amplitudes.items()
        )
        return float(abs(ov) ** 2)


def unitarity_residual(u: np.ndarray):
    """max |U U^dag - 1| entrywise: a float, or an array for a stack."""
    uu = u @ np.conj(np.swapaxes(u, -1, -2))
    return _float(np.max(np.abs(uu - np.eye(3)), axis=(-2, -1)))


def _unitarity_errors(u: np.ndarray) -> list:
    """Per mixer of a stack, None or the error of a non-unitary one."""
    fails = np.atleast_1d(unitarity_residual(u) > _UNITARITY_TOL).tolist()
    error = "mixer matrix is not unitary to 1e-10"
    return [DomainError(error) if fail else None for fail in fails]


# Occupations of the |110> image, in the order of ``two_photon_image``.
_TWO_PHOTON = ((0, 0, 2), (0, 2, 0), (2, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1))


def coincidence_amplitude(u: np.ndarray) -> np.ndarray:
    """U11 U22 + U12 U21, the amplitude of |110> in U|110>."""
    return u[..., 0, 0] * u[..., 1, 1] + u[..., 0, 1] * u[..., 1, 0]


def two_photon_image(u: np.ndarray) -> np.ndarray:
    """Amplitudes of U|110> on the occupations ``_TWO_PHOTON``, shape
    (..., 6) for mixers (..., 3, 3): the permanent rule in closed form."""
    a, b = u[..., 0, :], u[..., 1, :]
    doubles = sqrt(2.0) * a * b  # sqrt(2) U1i U2i: (2,0,0), (0,2,0), (0,0,2)
    cross = a[..., :, None] * b[..., None, :]  # U1i U2j
    # (0,1,1) U13 U22 + U12 U23, (1,1,0) U11 U22 + U12 U21, (1,0,1) U11 U23 + U13 U21
    pairs = cross[..., [2, 0, 0], [1, 1, 2]] + cross[..., [1, 1, 2], [2, 0, 0]]
    return np.concatenate([doubles[..., ::-1], pairs], axis=-1)


def evolve_two_photon(u: np.ndarray) -> FockState:
    """Closed-form image of |110> under the mixer.

    Must agree entrywise with the permanent rule on |110>, which the tests
    keep as a cross-check.
    """
    (error,) = _unitarity_errors(u)
    if error is not None:
        raise error
    return FockState(2, dict(zip(_TWO_PHOTON, two_photon_image(u).tolist())))


def two_photon_observables(u: np.ndarray) -> tuple[dict, list]:
    """Observables of U|110> for a stack of mixers (n, 3, 3), each row equal
    bit for bit to :func:`hom_record`, rho1111, :func:`negativity` and
    :func:`negativity_lower_bound` of that mixer alone, and per mixer None
    or the error :func:`evolve_two_photon` raises."""
    v = np.zeros(u.shape[:-2] + (9,), dtype=complex)
    v[..., [3 * n + m for n, m, _k in _TWO_PHOTON]] = two_photon_image(u)
    rho = TwoModeDensityMatrix(2, _reduce(v, 3))
    coefficient, rho2020, rho0202 = _hom(u)
    return {
        "hom_coeff": coefficient, "rho2020": rho2020, "rho0202": rho0202,
        "rho1111": rho.matrix[..., 4, 4].real,
        "negativity": negativity(rho), "neg_bound": negativity_lower_bound(rho),
    }, _unitarity_errors(u)


@dataclass
class TwoModeDensityMatrix:
    """Hermitian matrix over |n m>, n,m in 0..n_max, lexicographic order, or
    a stack of them (..., d, d), for which ``partial_transpose``,
    ``negativity`` and ``negativity_lower_bound`` give arrays."""

    n_max: int
    matrix: np.ndarray

    def __post_init__(self):
        d = (self.n_max + 1) ** 2
        self.matrix = np.asarray(self.matrix, complex)
        if self.matrix.shape[-2:] != (d, d):
            raise DomainError(
                f"density matrix shape {self.matrix.shape} != ({d}, {d})"
            )

    def index(self, n: int, m: int) -> int:
        if not (0 <= n <= self.n_max and 0 <= m <= self.n_max):
            raise DomainError(f"occupation ({n},{m}) exceeds cutoff {self.n_max}")
        return n * (self.n_max + 1) + m

    def entry(self, n: int, m: int, p: int, q: int) -> complex:
        """<n m| rho |p q>."""
        return complex(self.matrix[self.index(n, m), self.index(p, q)])

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def to_json_dict(self) -> dict:
        d = self.n_max + 1
        return {
            "n_max": self.n_max,
            "basis": [f"{n}{m}" for n in range(d) for m in range(d)],
            "entries": [
                [float(z.real), float(z.imag)] for z in self.matrix.ravel()
            ],
        }


def trace_out_third(state: FockState, n_max: int = 2) -> TwoModeDensityMatrix:
    """Reduced density matrix of the first two modes.

    rho(nm, pq) = sum_k amp(n,m,k) conj(amp(p,q,k)).

    Raises:
        DomainError: some populated occupation exceeds n_max.
    """
    d = n_max + 1
    v = np.zeros(d * d, dtype=complex)
    for (n1, n2, _k), amp in state.amplitudes.items():
        if n1 <= n_max and n2 <= n_max:
            v[n1 * d + n2] = amp
        elif amp != 0:
            raise DomainError(
                f"occupation ({n1},{n2}) exceeds two-mode cutoff {n_max}"
            )
    return TwoModeDensityMatrix(n_max, _reduce(v, d))


def _reduce(v: np.ndarray, d: int) -> np.ndarray:
    """rho(nm, pq) = v(nm) conj(v(pq)) where n + m = p + q, else 0, for
    vectors v(nm) = amp(n, m, N - n - m) of states of N photons: sector
    k = N - n - m of the third mode is the only one holding both.  Adding
    0 turns each -0.0 into 0.0, as accumulating into zeros did."""
    n, m = np.divmod(np.arange(d * d), d)
    same = (n + m)[:, None] == (n + m)[None, :]
    return np.where(same, v[..., :, None] * np.conj(v[..., None, :]), 0.0) + 0.0


def _float(x):
    """A float for one matrix, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def partial_transpose(rho: TwoModeDensityMatrix) -> np.ndarray:
    """Transpose with respect to the second mode: (nm, pq) -> (nq, pm)."""
    d, m = rho.n_max + 1, rho.matrix
    return m.reshape(m.shape[:-2] + (d,) * 4).swapaxes(-3, -1).reshape(m.shape).copy()


def negativity(rho: TwoModeDensityMatrix) -> float:
    """Sum of |lambda| over negative eigenvalues of the partial transpose.

    Nonzero negativity certifies entanglement of the two observed modes
    (PPT criterion).
    """
    eigs = np.linalg.eigvalsh(partial_transpose(rho))
    # Added one at a time in ascending order, as np.sum adds fewer than
    # eight values: a stack row has the bits of its own matrix's sum.
    negative = np.where(eigs < -_EIG_NEG_TOL, -eigs, 0.0)
    return _float(np.cumsum(negative, axis=-1)[..., -1])


def negativity_lower_bound(rho: TwoModeDensityMatrix) -> float:
    """Analytic lower bound on the negativity from two coherence blocks.

    1/2 [sqrt(rho0101^2 + 4 |rho0211|^2) - rho0101]
    + 1/2 [sqrt(rho1010^2 + 4 |rho2011|^2) - rho1010],
    evaluated on the named entries.  Asserted as a bound only for reduced
    states with the two-photon sparsity structure.
    """
    m, i = rho.matrix, rho.index

    def block(diagonal, coherence):
        # float_power is libm's pow, as ** on floats, which x * x does not
        # always match in the last bit; hypot is abs() of a Python complex.
        r, c = diagonal.real, np.hypot(coherence.real, coherence.imag)
        return 0.5 * (np.sqrt(np.float_power(r, 2) + 4.0 * np.float_power(c, 2)) - r)

    return _float(
        block(m[..., i(0, 1), i(0, 1)], m[..., i(0, 2), i(1, 1)])
        + block(m[..., i(1, 0), i(1, 0)], m[..., i(2, 0), i(1, 1)])
    )


def hom_coefficient(u: np.ndarray) -> float:
    """|U11 U22 + U12 U21|, the surviving coincidence amplitude modulus."""
    return float(np.abs(coincidence_amplitude(u)))


def _hom(u: np.ndarray):
    """|U11 U22 + U12 U21| and the two double-occupation populations."""
    pops = 2.0 * np.float_power(np.abs(u[..., 0, :2] * u[..., 1, :2]), 2)
    return np.abs(coincidence_amplitude(u)), pops[..., 0], pops[..., 1]


@dataclass(frozen=True)
class HomRecord:
    """Interference diagnostics for a mixer acting on |110>.

    ``flag`` is True when the coincidence amplitude vanishes while both
    double-occupation populations survive: Hong-Ou-Mandel-like interference.
    """

    coefficient: float
    rho2020: float
    rho0202: float
    flag: bool


def hom_record(u: np.ndarray, tol: float = 1e-6) -> HomRecord:
    """Coincidence coefficient plus the double-occupation populations."""
    coeff, rho2020, rho0202 = map(float, _hom(u))
    return HomRecord(
        coefficient=coeff,
        rho2020=rho2020,
        rho0202=rho0202,
        flag=bool(coeff < tol and rho2020 > tol and rho0202 > tol),
    )
