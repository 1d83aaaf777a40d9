"""Three-mode mixer (tritter) induced by redshift on a wavepacket pair.

The mixer acts on the operator triple (A_mode1, A_mode2, A_perp), where the
third slot collects everything orthogonal to the two chosen wavepackets and
is never represented pointwise.  The three mixing angles are fixed by the
moduli of the overlaps between the redshifted and original profiles; the
matrix is the zero-phase product of three beam-splitter rotations.  A chi
grid takes one array program (``tritters_from_modes``), of which
``tritter_from_modes`` is the one-chi case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GravTritterError, InconsistencyError
from .fock import unitarity_residual  # also this module's, for its callers
from .geometry import chi_squared
from .modes import ModeProfile, inner_product, redshifted_overlaps, require_orthogonal

# Slack distinguishing float noise from genuinely inconsistent overlaps.
_BOUND_SLACK = 1e-9
_RANGE_SLACK = 1e-12  # of the [0, pi/2] range check on each angle
_ANGLE_SNAP = 1e-12  # an arccos argument this close to 1 snaps to 1 (angle 0)
_COS_PHI_FLOOR = 1e-12  # cos(phi) below this is the degenerate phi = pi/2


@dataclass(frozen=True)
class TritterAngles:
    """Mixing angles (theta, phi, psi), each in [0, pi/2]: floats, or arrays
    of one shape for a stack of mixers."""

    theta: float
    phi: float
    psi: float

    def __post_init__(self):
        for name, val in (("theta", self.theta), ("phi", self.phi), ("psi", self.psi)):
            if not np.asarray((0.0 <= val) & (val <= np.pi / 2 + _RANGE_SLACK)).all():
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
    for name, val in (("o11", o11), ("o22", o22)):
        if val * val + o21 * o21 > 1.0 + _BOUND_SLACK:
            raise InconsistencyError(
                f"{name}^2 + o21^2 = {val * val + o21 * o21} > 1: "
                "not from orthonormal pairs"
            )
    theta, phi, psi, _ok = map(float, _stacked_angles(o11, o22, o21))
    cphi = float(np.cos(phi))
    if cphi < _COS_PHI_FLOOR:
        # Degenerate phi = pi/2: any theta/psi consistent; pick 0 deterministically.
        if o11 > _BOUND_SLACK or o22 > _BOUND_SLACK:
            raise InconsistencyError(
                f"cos(phi) ~ 0 but o11 = {o11}, o22 = {o22} nonzero"
            )
        return TritterAngles(0.0, phi, 0.0)
    _clamp_unit(o11 / cphi, "o11/cos(phi)")
    _clamp_unit(o22 / cphi, "o22/cos(phi)")
    return TritterAngles(theta, phi, psi)


def _stacked_angles(o11, o22, o21):
    """The angles of :func:`angles_from_overlaps` for arrays of moduli, and
    the mask of rows that surely pass its checks; any other row is for it
    to decide."""
    phi = np.arcsin(np.minimum(np.maximum(o21, 0.0), 1.0))
    cphi = np.cos(phi)
    # arccos amplifies O(eps) rounding noise near 1 into O(sqrt(eps))
    # angles; arguments this close to 1 carry no physical signal.
    theta, psi = (
        np.arccos(np.where(r > 1.0 - _ANGLE_SNAP, 1.0, np.maximum(r, 0.0)))
        for r in (o11 / cphi, o22 / cphi)
    )
    big = np.maximum(o11, o22)
    ok = (cphi >= _COS_PHI_FLOOR) & (big / cphi <= 1.0 + _BOUND_SLACK)
    return theta, phi, psi, ok & (big**2 + o21 * o21 <= 1.0 + _BOUND_SLACK)


def build_tritter(angles: TritterAngles) -> np.ndarray:
    """Zero-phase 3x3 tritter matrix for the given angles, or an (n, 3, 3)
    stack for angle arrays of shape (n,).

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
    return np.ascontiguousarray(u.transpose(*range(2, u.ndim), 0, 1))


def check_orthogonal(f1: ModeProfile, f2: ModeProfile) -> None:
    """DomainError unless <F1,F2> vanishes to 1e-6."""
    require_orthogonal(abs(inner_product(f1, f2)))


def tritters_from_modes(
    f1: ModeProfile, f2: ModeProfile, chis: list[float]
) -> tuple[np.ndarray, TritterAngles, np.ndarray, list]:
    """:func:`tritter_from_modes` at every chi of a grid, as one array
    program, for a pair the caller has checked to be orthonormal.

    Returns the (n, 3, 3) mixers, a :class:`TritterAngles` of (n,) arrays,
    the (n, 2, 2) overlaps [k, i, j] = <F_i', F_j> at chis[k], and per chi
    None or the error :func:`tritter_from_modes` raises there.  A failed
    row's angles are 0, so its mixer is the identity.
    """
    c, errors = redshifted_overlaps((f1, f2), (f1, f2), chis)
    o = np.hypot(c.real, c.imag)  # abs() of each overlap, to the bit
    theta, phi, psi, ok = _stacked_angles(o[:, 0, 0], o[:, 1, 1], o[:, 1, 0])
    for k in np.flatnonzero(~ok):  # the checks' own verdict and message
        try:
            row = angles_from_overlaps(*o[k, [0, 1, 1], [0, 1, 0]].tolist())
            theta[k], phi[k], psi[k] = row.theta, row.phi, row.psi
        except GravTritterError as exc:
            errors[k] = errors[k] or exc
    if any(errors):
        failed = [e is not None for e in errors]
        theta[failed] = phi[failed] = psi[failed] = 0.0
    angles = TritterAngles(theta, phi, psi)
    return build_tritter(angles), angles, c, errors


def tritter_from_modes(
    f1: ModeProfile, f2: ModeProfile, chi: float
) -> tuple[np.ndarray, TritterAngles, OverlapRecord]:
    """Mixer induced by redshift chi on an orthonormal profile pair.

    The caller orthonormalizes first; <F1,F2> must vanish to 1e-6.  The
    four overlaps of (F1', F2') with (F1, F2) come from one
    :func:`redshifted_overlaps` pass.  Returns the matrix, the extracted
    angles, and the raw overlap record (including the diagnostic fourth
    overlap <F1', F2>).
    """
    check_orthogonal(f1, f2)
    u, angles, c, (error,) = tritters_from_modes(f1, f2, [chi])
    if error is not None:
        raise error
    u = u[0]
    (c11, c12), (c21, c22) = c[0].tolist()
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
    scalars = (angles.theta.item(), angles.phi.item(), angles.psi.item())
    return u, TritterAngles(*scalars), record


def nogo_normalization(chi: float) -> float:
    """Commutator norm 1/chi^2 left by the naive sharp-frequency shift.

    A unitary implementing the bare shift would need this to equal 1, which
    happens only at chi = 1: the shift alone is not a unitary operation.
    """
    return 1.0 / chi_squared(chi)


def mixer_to_json(u: np.ndarray) -> list:
    """Row-major [re, im] pairs."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(u, complex).ravel()]
