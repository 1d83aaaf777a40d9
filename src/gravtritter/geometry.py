"""Redshift parameter chi for static observers in Schwarzschild spacetime.

Convention: chi^2 is the ratio of the locally measured emitted frequency to
the locally measured received frequency, so a receiver higher in the
potential sees chi > 1 (redshift) and a received peak omega0 / chi^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Validity guard for the first-order weak-field formula.
WEAK_FIELD_GUARD = 1e-3


@dataclass(frozen=True)
class StaticSchwarzschildConfig:
    """Static emitter at areal radius r_a, static receiver at r_b (meters)."""

    r_s: float  # Schwarzschild radius
    r_a: float  # emitter
    r_b: float  # receiver

    def __post_init__(self):
        if self.r_s < 0:
            raise DomainError(f"Schwarzschild radius must be >= 0, got {self.r_s}")
        if self.r_a <= self.r_s:
            raise DomainError(
                f"emitter radius {self.r_a} inside horizon {self.r_s}: "
                "no static observer"
            )
        if self.r_b <= self.r_s:
            raise DomainError(
                f"receiver radius {self.r_b} inside horizon {self.r_s}: "
                "no static observer"
            )


def schwarzschild_chi(cfg: StaticSchwarzschildConfig) -> float:
    """chi for a static emitter/receiver pair.

    chi^2 = sqrt[(1 - r_s/r_b) / (1 - r_s/r_a)], hence chi > 1 when the
    receiver sits higher in the potential.
    """
    ratio = (1.0 - cfg.r_s / cfg.r_b) / (1.0 - cfg.r_s / cfg.r_a)
    return float(ratio**0.25)


def weak_field_chi(g: float, h: float, c: float = SPEED_OF_LIGHT) -> float:
    """First-order chi = 1 + g h / (2 c^2) for a uniform field.

    Serves as an independent consistency oracle for ``schwarzschild_chi``
    in the small-potential limit.

    Raises:
        DomainError: |g h| / c^2 >= 1e-3, outside first-order validity.
    """
    if c <= 0:
        raise DomainError(f"speed of light must be positive, got {c}")
    potential = g * h / (c * c)
    if abs(potential) >= WEAK_FIELD_GUARD:
        raise DomainError(
            f"|g h|/c^2 = {abs(potential):.3e} outside weak-field validity "
            f"(< {WEAK_FIELD_GUARD})"
        )
    return 1.0 + 0.5 * potential


def chi_squared(chi: float) -> float:
    """chi^2; DomainError unless chi > 0 with chi^2 and 1/chi^2 finite."""
    c2 = chi * chi
    if not (chi > 0 and 0.0 < c2 < math.inf and 1.0 / c2 < math.inf):
        raise DomainError(
            f"redshift parameter chi = {chi} out of range: "
            "need chi > 0 with chi^2 and 1/chi^2 finite"
        )
    return c2
