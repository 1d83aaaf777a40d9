"""Three-mode mixer (tritter) induced by redshift on a wavepacket pair.

The mixer acts on the operator triple (A_mode1, A_mode2, A_perp), where the
third slot collects everything orthogonal to the two chosen wavepackets and
is never represented pointwise.  The three mixing angles are fixed by the
moduli of the overlaps between the redshifted and original profiles; the
matrix is the zero-phase product of three beam-splitter rotations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconsistencyError
from .geometry import chi_squared
from .modes import ModeProfile, inner_product, overlap_matrix, redshift_transform

# Slack distinguishing float noise from genuinely inconsistent overlaps.
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class TritterAngles:
    """Mixing angles (theta, phi, psi), each in [0, pi/2]."""

    theta: float
    phi: float
    psi: float

    def __post_init__(self):
        for name, val in (("theta", self.theta), ("phi", self.phi), ("psi", self.psi)):
            if not 0.0 <= val <= np.pi / 2 + 1e-12:
                raise DomainError(f"{name} = {val} outside [0, pi/2]")


@dataclass(frozen=True)
class OverlapRecord:
    """Raw overlaps feeding the angle extraction, plus diagnostics.

    o11, o22, o21 are the moduli that define the angles; o12 is the unused
    fourth overlap |<F1', F2>|.  ``u12_residual`` is |U12| - o12: the matrix
    fixes |U12| by unitarity, and real mode pairs need not match it exactly.
    """

    o11: float
    o22: float
    o21: float
    o12: float
    c11: complex
    c22: complex
    c21: complex
    c12: complex
    u12_residual: float = float("nan")


def _clamp_unit(x: float, what: str) -> float:
    """Clamp into [0, 1] when within 1e-9; larger excursions are errors."""
    if x < -_BOUND_SLACK or x > 1.0 + _BOUND_SLACK:
        raise InconsistencyError(f"{what} = {x} outside [0,1] beyond tolerance")
    return min(max(x, 0.0), 1.0)


def angles_from_overlaps(o11: float, o22: float, o21: float) -> TritterAngles:
    """Invert the overlap definitions of the angles.

    cos(theta) cos(phi) = o11, cos(phi) cos(psi) = o22, sin(phi) = o21.

    Raises:
        InconsistencyError: the moduli violate the Bessel bounds
            (o11^2 + o21^2 <= 1, o22^2 <= 1 - o21^2) beyond 1e-9, or
            cos(phi) vanishes while o11/o22 do not.
    """
    for name, val in (("o11", o11), ("o22", o22), ("o21", o21)):
        _clamp_unit(val, name)
    if o11 * o11 + o21 * o21 > 1.0 + _BOUND_SLACK:
        raise InconsistencyError(
            f"o11^2 + o21^2 = {o11 * o11 + o21 * o21} > 1: not from orthonormal pairs"
        )
    if o22 * o22 + o21 * o21 > 1.0 + _BOUND_SLACK:
        raise InconsistencyError(
            f"o22^2 + o21^2 = {o22 * o22 + o21 * o21} > 1: not from orthonormal pairs"
        )
    phi = float(np.arcsin(_clamp_unit(o21, "o21")))
    cphi = float(np.cos(phi))
    if cphi < 1e-12:
        # Degenerate phi = pi/2: any theta/psi consistent; pick 0 deterministically.
        if o11 > _BOUND_SLACK or o22 > _BOUND_SLACK:
            raise InconsistencyError(
                f"cos(phi) ~ 0 but o11 = {o11}, o22 = {o22} nonzero"
            )
        return TritterAngles(0.0, phi, 0.0)
    theta = float(np.arccos(_snap_one(_clamp_unit(o11 / cphi, "o11/cos(phi)"))))
    psi = float(np.arccos(_snap_one(_clamp_unit(o22 / cphi, "o22/cos(phi)"))))
    return TritterAngles(theta, phi, psi)


def _snap_one(x: float) -> float:
    # arccos amplifies O(eps) rounding noise near 1 into O(sqrt(eps))
    # angles; arguments this close to 1 carry no physical signal.
    return 1.0 if x > 1.0 - 1e-12 else x


def build_tritter(angles: TritterAngles) -> np.ndarray:
    """Zero-phase 3x3 tritter matrix for the given angles.

    Row/column order is (A_mode1, A_mode2, A_perp).  The matrix is the
    product of three rotations, hence real orthogonal with determinant +1;
    it is returned as a complex array for uniformity downstream.
    """
    ct, st = np.cos(angles.theta), np.sin(angles.theta)
    cp, sp = np.cos(angles.phi), np.sin(angles.phi)
    cs, ss = np.cos(angles.psi), np.sin(angles.psi)
    u = np.array(
        [
            [ct * cp, -ct * sp * cs - st * ss, -ct * sp * ss + st * cs],
            [sp, cp * cs, cp * ss],
            [-st * cp, st * sp * cs - ct * ss, st * sp * ss + ct * cs],
        ],
        dtype=complex,
    )
    return u


def unitarity_residual(u: np.ndarray) -> float:
    """max |U U^dag - 1| entrywise."""
    return float(np.max(np.abs(u @ u.conj().T - np.eye(3))))


def tritter_from_modes(
    f1: ModeProfile, f2: ModeProfile, chi: float
) -> tuple[np.ndarray, TritterAngles, OverlapRecord]:
    """Mixer induced by redshift chi on an orthonormal profile pair.

    The caller orthonormalizes first; <F1,F2> must vanish to 1e-6.  The
    four overlaps of (F1', F2') with (F1, F2) come from one
    :func:`overlap_matrix` pass.  Returns the matrix, the extracted angles,
    and the raw overlap record (including the diagnostic fourth overlap
    <F1', F2>).
    """
    c0 = inner_product(f1, f2)
    if abs(c0) > 1e-6:
        raise DomainError(
            f"input profiles not orthogonal: |<F1,F2>| = {abs(c0):.3e} > 1e-6"
        )
    f1p = redshift_transform(f1, chi)
    f2p = redshift_transform(f2, chi)
    (c11, c12), (c21, c22) = overlap_matrix((f1p, f2p), (f1, f2)).tolist()
    angles = angles_from_overlaps(abs(c11), abs(c22), abs(c21))
    u = build_tritter(angles)
    record = OverlapRecord(
        o11=abs(c11),
        o22=abs(c22),
        o21=abs(c21),
        o12=abs(c12),
        c11=c11,
        c22=c22,
        c21=c21,
        c12=c12,
        u12_residual=float(abs(u[0, 1]) - abs(c12)),
    )
    return u, angles, record


def nogo_normalization(chi: float) -> float:
    """Commutator norm 1/chi^2 left by the naive sharp-frequency shift.

    A unitary implementing the bare shift would need this to equal 1, which
    happens only at chi = 1: the shift alone is not a unitary operation.
    """
    return 1.0 / chi_squared(chi)


def mixer_to_json(u: np.ndarray) -> list:
    """Row-major [re, im] pairs."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(u, complex).ravel()]
