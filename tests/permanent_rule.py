"""The permanent rule of passive linear optics on three-mode Fock states:
the oracle that the closed-form two-photon image of ``gravtritter.fock`` is
checked against (acceptance criterion 3)."""

from itertools import permutations
from math import factorial, prod, sqrt

import numpy as np

from gravtritter import DomainError, FockState
from gravtritter.fock import unitarity_residual


def occupation_basis(total: int, n_modes: int = 3) -> list[tuple[int, ...]]:
    """All occupation tuples with the given total, lexicographic order."""
    if n_modes == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in occupation_basis(total - first, n_modes - 1):
            out.append((first, *rest))
    return out


def permanent(mat: np.ndarray) -> complex:
    """Permanent by permutation expansion; fine for the small sizes used here."""
    n = mat.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    return complex(
        sum(prod(mat[i, p[i]] for i in range(n)) for p in permutations(range(n)))
    )


def apply_mixer(state: FockState, u: np.ndarray) -> FockState:
    """Evolve a state through a 3x3 mixer via the permanent rule.

    Creation operators transform by rows: A_j^dag -> sum_i U_ji B_i^dag.
    The amplitude from input occupation n to output occupation m is
    perm(M) / sqrt(prod n! prod m!), with M built from U by repeating row j
    n_j times and column i m_i times.
    """
    if unitarity_residual(u) > 1e-10:
        raise DomainError("mixer matrix is not unitary to 1e-10")
    basis = occupation_basis(state.total)
    out: dict[tuple[int, int, int], complex] = {}
    for occ_in, amp in state.amplitudes.items():
        if amp == 0:
            continue
        rows = [j for j in range(3) for _ in range(occ_in[j])]
        f_in = prod(factorial(n) for n in occ_in)
        for occ_out in basis:
            cols = [i for i in range(3) for _ in range(occ_out[i])]
            sub = u[np.ix_(rows, cols)]
            f_out = prod(factorial(n) for n in occ_out)
            contrib = amp * permanent(sub) / sqrt(f_in * f_out)
            if contrib != 0:
                out[occ_out] = out.get(occ_out, 0.0 + 0.0j) + contrib
    result = FockState(state.total, out)
    if abs(result.norm_sq() - state.norm_sq()) > 1e-10:
        raise DomainError("mixer evolution failed to preserve the norm")
    return result
