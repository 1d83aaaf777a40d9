from math import factorial, sqrt

import numpy as np
import pytest

from gravtritter import (
    DomainError,
    FockState,
    TritterAngles,
    TwoModeDensityMatrix,
    build_tritter,
    evolve_two_photon,
    hom_coefficient,
    hom_record,
    negativity,
    negativity_lower_bound,
    partial_transpose,
    trace_out_third,
)
from gravtritter.fock import two_photon_observables
from permanent_rule import apply_mixer, occupation_basis, permanent


def expansion_oracle(state: FockState, u: np.ndarray) -> FockState:
    """Evolve by direct expansion of the transformed creation operators.

    Applies A_j^dag -> sum_i U_ji B_i^dag one photon at a time, tracking
    sqrt(n+1) ladder factors.  Independent of the permanent rule.
    """
    out: dict[tuple[int, int, int], complex] = {}
    for occ_in, amp in state.amplitudes.items():
        terms = {(0, 0, 0): amp / np.sqrt(
            np.prod([factorial(n) for n in occ_in])
        )}
        for j in range(3):
            for _ in range(occ_in[j]):
                new_terms: dict[tuple[int, int, int], complex] = {}
                for occ, coeff in terms.items():
                    for i in range(3):
                        lifted = list(occ)
                        lifted[i] += 1
                        factor = u[j, i] * np.sqrt(lifted[i])
                        key = tuple(lifted)
                        new_terms[key] = new_terms.get(key, 0.0) + coeff * factor
                terms = new_terms
        for occ, coeff in terms.items():
            out[occ] = out.get(occ, 0.0) + coeff
    return FockState(state.total, out)


def random_tritter(rng) -> np.ndarray:
    t, p, s = rng.uniform(0.0, np.pi / 2, size=3)
    return build_tritter(TritterAngles(t, p, s))


def state_diff(a: FockState, b: FockState) -> float:
    keys = set(a.amplitudes) | set(b.amplitudes)
    return max(abs(a.amplitude(k) - b.amplitude(k)) for k in keys)


class TestPermanent:
    def test_small_matrices(self):
        assert permanent(np.array([[3.0 + 0j]])) == 3.0
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        assert permanent(m) == 1 * 4 + 2 * 3
        m3 = np.arange(9, dtype=complex).reshape(3, 3)
        # explicit expansion over the six permutations
        expected = sum(
            m3[0, p[0]] * m3[1, p[1]] * m3[2, p[2]]
            for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        )
        assert permanent(m3) == expected


class TestApplyMixer:
    def test_identity(self):
        state = FockState.single((1, 1, 0))
        out = apply_mixer(state, np.eye(3, dtype=complex))
        assert state_diff(out, state) < 1e-15

    def test_two_photon_coefficients(self, rng):
        u = random_tritter(rng)
        out = apply_mixer(FockState.single((1, 1, 0)), u)
        r2 = np.sqrt(2.0)
        assert out.amplitude((2, 0, 0)) == pytest.approx(r2 * u[0, 0] * u[1, 0])
        assert out.amplitude((0, 2, 0)) == pytest.approx(r2 * u[0, 1] * u[1, 1])
        assert out.amplitude((0, 0, 2)) == pytest.approx(r2 * u[0, 2] * u[1, 2])
        assert out.amplitude((1, 1, 0)) == pytest.approx(
            u[0, 0] * u[1, 1] + u[0, 1] * u[1, 0]
        )
        assert out.amplitude((1, 0, 1)) == pytest.approx(
            u[0, 0] * u[1, 2] + u[0, 2] * u[1, 0]
        )
        assert out.amplitude((0, 1, 1)) == pytest.approx(
            u[0, 2] * u[1, 1] + u[0, 1] * u[1, 2]
        )

    def test_balanced_splitter_hom_dip(self):
        u = build_tritter(TritterAngles(0.0, np.pi / 4, 0.0))
        out = apply_mixer(FockState.single((1, 1, 0)), u)
        assert abs(out.amplitude((1, 1, 0))) < 1e-15
        assert out.amplitude((2, 0, 0)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert out.amplitude((0, 2, 0)) == pytest.approx(-1 / np.sqrt(2), abs=1e-12)

    def test_matches_expansion_oracle(self, rng):
        for total in (1, 2, 3, 4):
            basis = occupation_basis(total)
            amps = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            amps /= np.linalg.norm(amps)
            state = FockState(total, dict(zip(basis, amps)))
            u = random_tritter(rng)
            got = apply_mixer(state, u)
            want = expansion_oracle(state, u)
            assert state_diff(got, want) < 1e-12

    def test_norm_preserved(self, rng):
        for _ in range(20):
            u = random_tritter(rng)
            out = apply_mixer(FockState.single((2, 1, 1)), u)
            assert out.norm_sq() == pytest.approx(1.0, abs=1e-10)

    def test_non_unitary_rejected(self):
        with pytest.raises(DomainError):
            apply_mixer(FockState.single((1, 1, 0)), 2.0 * np.eye(3, dtype=complex))


class TestEvolveTwoPhoton:
    def test_identity(self):
        out = evolve_two_photon(np.eye(3, dtype=complex))
        assert out.amplitude((1, 1, 0)) == pytest.approx(1.0)
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-14)

    def test_complete_mismatch(self):
        u = build_tritter(TritterAngles(np.pi / 2, 0.0, np.pi / 2))
        out = evolve_two_photon(u)
        assert out.amplitude((0, 1, 1)) == pytest.approx(-1.0)
        assert sum(abs(a) for occ, a in out.amplitudes.items() if occ != (0, 1, 1)) < 1e-14

    def test_agrees_with_permanent_route(self, rng):
        for _ in range(200):
            u = random_tritter(rng)
            fast = evolve_two_photon(u)
            slow = apply_mixer(FockState.single((1, 1, 0)), u)
            assert state_diff(fast, slow) < 1e-12


class TestTraceOutThird:
    def test_pure_coincidence(self):
        rho = trace_out_third(FockState.single((1, 1, 0)))
        assert rho.entry(1, 1, 1, 1) == pytest.approx(1.0)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(np.abs(rho.matrix) > 1e-15) == 1

    def test_bell_like_state(self):
        state = FockState(
            2, {(2, 0, 0): 1 / np.sqrt(2), (0, 2, 0): -1 / np.sqrt(2)}
        )
        rho = trace_out_third(state)
        assert rho.entry(2, 0, 2, 0) == pytest.approx(0.5)
        assert rho.entry(0, 2, 0, 2) == pytest.approx(0.5)
        assert rho.entry(2, 0, 0, 2) == pytest.approx(-0.5)
        assert rho.entry(0, 2, 2, 0) == pytest.approx(-0.5)

    def test_third_mode_coherence_sector(self):
        a, b = 0.6, 0.8
        state = FockState(2, {(1, 0, 1): a, (0, 1, 1): b})
        rho = trace_out_third(state)
        assert rho.entry(1, 0, 1, 0) == pytest.approx(a * a)
        assert rho.entry(0, 1, 0, 1) == pytest.approx(b * b)
        assert rho.entry(1, 0, 0, 1) == pytest.approx(a * b)

    def test_eq11_sparsity_structure(self, rng):
        allowed = {
            ((0, 0), (0, 0)), ((0, 2), (0, 2)), ((2, 0), (2, 0)),
            ((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 1), (1, 1)),
            ((2, 0), (1, 1)), ((0, 2), (1, 1)), ((2, 0), (0, 2)),
            ((1, 0), (0, 1)),
        }
        allowed |= {(b, a) for a, b in allowed}
        for _ in range(50):
            rho = trace_out_third(evolve_two_photon(random_tritter(rng)))
            d = rho.n_max + 1
            for i in range(d * d):
                for j in range(d * d):
                    if abs(rho.matrix[i, j]) > 1e-12:
                        key = ((i // d, i % d), (j // d, j % d))
                        assert key in allowed, key

    def test_reduced_state_validity(self, rng):
        for _ in range(100):
            rho = trace_out_third(evolve_two_photon(random_tritter(rng)))
            assert rho.trace() == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

    def test_cutoff_enforced(self):
        state = FockState(3, {(3, 0, 0): 1.0})
        with pytest.raises(DomainError):
            trace_out_third(state, n_max=2)


class TestPartialTranspose:
    def test_diagonal_unchanged(self):
        diag = np.diag(np.linspace(0.0, 1.0, 9))
        diag /= np.trace(diag)
        rho = TwoModeDensityMatrix(2, diag)
        assert np.allclose(partial_transpose(rho), diag)

    def test_bell_coherence_moves(self):
        state = FockState(
            2, {(2, 0, 0): 1 / np.sqrt(2), (0, 2, 0): -1 / np.sqrt(2)}
        )
        rho = trace_out_third(state)
        pt = partial_transpose(rho)
        d = 3
        # (20,02) coherence lands at (22,00)
        assert pt[2 * d + 2, 0] == pytest.approx(-0.5)
        assert pt[2 * d + 0, 0 * d + 2] == 0.0
        eigs = np.linalg.eigvalsh(pt)
        assert eigs.min() == pytest.approx(-0.5, abs=1e-12)

    def test_involution(self, rng):
        rho = trace_out_third(evolve_two_photon(random_tritter(rng)))
        pt = TwoModeDensityMatrix(2, partial_transpose(rho))
        assert np.array_equal(partial_transpose(pt), rho.matrix)

    def test_hermitian_output(self, rng):
        rho = trace_out_third(evolve_two_photon(random_tritter(rng)))
        pt = partial_transpose(rho)
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


class TestNegativity:
    def test_separable_diagonal(self):
        diag = np.diag([0.5, 0.2, 0.1, 0.1, 0.1, 0, 0, 0, 0]).astype(complex)
        assert negativity(TwoModeDensityMatrix(2, diag)) == 0.0

    def test_bell_like_half(self):
        state = FockState(
            2, {(2, 0, 0): 1 / np.sqrt(2), (0, 2, 0): -1 / np.sqrt(2)}
        )
        rho = trace_out_third(state)
        assert negativity(rho) == pytest.approx(0.5, abs=1e-10)

    def test_product_states_under_third_mode_rotation(self):
        # mixers acting on the unobserved mode alone cannot entangle modes 1,2
        for occ in [(1, 0, 1), (0, 1, 1), (1, 1, 0), (0, 0, 2)]:
            u = np.eye(3, dtype=complex)
            rho = trace_out_third(apply_mixer(FockState.single(occ), u))
            assert negativity(rho) < 1e-12

    def test_dominates_lower_bound(self, rng):
        strict = 0
        for _ in range(200):
            rho = trace_out_third(evolve_two_photon(random_tritter(rng)))
            n = negativity(rho)
            b = negativity_lower_bound(rho)
            assert n >= b - 1e-10
            if n > b + 1e-6 and (
                abs(rho.entry(0, 2, 1, 1)) > 1e-3 or abs(rho.entry(2, 0, 1, 1)) > 1e-3
            ):
                strict += 1
        assert strict > 0


class TestNegativityLowerBound:
    def test_zero_without_coherences(self):
        rho = trace_out_third(FockState.single((1, 1, 0)))
        assert negativity_lower_bound(rho) == 0.0

    def test_arithmetic_example(self):
        d = 3
        m = np.zeros((9, 9), dtype=complex)
        m[0 * d + 1, 0 * d + 1] = 0.3
        m[1 * d + 0, 1 * d + 0] = 0.3
        m[0 * d + 2, 1 * d + 1] = 0.1
        m[1 * d + 1, 0 * d + 2] = 0.1
        rho = TwoModeDensityMatrix(2, m)
        expected = 0.5 * (np.sqrt(0.09 + 0.04) - 0.3)
        assert negativity_lower_bound(rho) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.03028, abs=1e-5)


class TestHomRecord:
    def test_identity(self):
        assert hom_coefficient(np.eye(3, dtype=complex)) == 1.0

    def test_balanced_splitter(self):
        u = build_tritter(TritterAngles(0.0, np.pi / 4, 0.0))
        rec = hom_record(u)
        assert rec.coefficient < 1e-15
        assert rec.rho2020 == pytest.approx(0.5, abs=1e-12)
        assert rec.rho0202 == pytest.approx(0.5, abs=1e-12)
        assert rec.flag

    def test_fully_mixed_branch(self):
        u = build_tritter(TritterAngles(np.pi / 2, 0.0, np.pi / 2))
        rec = hom_record(u)
        assert rec.coefficient < 1e-15
        assert rec.rho2020 < 1e-15 and rec.rho0202 < 1e-15
        assert not rec.flag

    def test_structure_theorem(self, rng):
        # whenever the coincidence amplitude vanishes, so do all |11>
        # coherences of the reduced state
        hits = 0
        for t in np.linspace(0.0, np.pi / 2, 25):
            u = build_tritter(TritterAngles(t, np.pi / 4, 0.0))
            if hom_coefficient(u) < 1e-10:
                hits += 1
                rho = trace_out_third(evolve_two_photon(u))
                assert abs(rho.entry(1, 1, 1, 1)) < 1e-9
                assert abs(rho.entry(0, 2, 1, 1)) < 1e-9
                assert abs(rho.entry(2, 0, 1, 1)) < 1e-9
        assert hits == 25


def per_entry_observables(u: np.ndarray) -> tuple[list, np.ndarray]:
    """hom coefficient, rho2020, rho0202, rho1111, negativity and its bound
    of one mixer, and its reduced state, by per-entry formulas: dict
    amplitudes, rho accumulated entry by entry, the bound in Python float
    arithmetic."""
    amps = {
        (0, 0, 2): sqrt(2.0) * u[0, 2] * u[1, 2],
        (0, 2, 0): sqrt(2.0) * u[0, 1] * u[1, 1],
        (2, 0, 0): sqrt(2.0) * u[0, 0] * u[1, 0],
        (0, 1, 1): u[0, 2] * u[1, 1] + u[0, 1] * u[1, 2],
        (1, 1, 0): u[0, 0] * u[1, 1] + u[0, 1] * u[1, 0],
        (1, 0, 1): u[0, 0] * u[1, 2] + u[0, 2] * u[1, 0],
    }
    rho = np.zeros((9, 9), dtype=complex)
    for (n, m, k), a in amps.items():
        for (p, q, kk), b in amps.items():
            if k == kk:
                rho[3 * n + m, 3 * p + q] += complex(a) * np.conj(complex(b))
    pt = rho.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
    eigs = np.linalg.eigvalsh(pt)
    r0101, r1010 = complex(rho[1, 1]).real, complex(rho[3, 3]).real
    c0211, c2011 = complex(rho[2, 4]), complex(rho[6, 4])
    bound = 0.5 * (sqrt(r0101**2 + 4.0 * abs(c0211) ** 2) - r0101) + 0.5 * (
        sqrt(r1010**2 + 4.0 * abs(c2011) ** 2) - r1010
    )
    return [
        float(abs(amps[(1, 1, 0)])),
        float(2.0 * abs(u[0, 0] * u[1, 0]) ** 2),
        float(2.0 * abs(u[0, 1] * u[1, 1]) ** 2),
        complex(rho[4, 4]).real,
        float(np.sum(np.abs(eigs[eigs < -1e-11]))),
        bound,
    ], rho


class TestStackedObservables:
    def test_rows_equal_per_entry_formulas(self, rng):
        """Bit for bit (repr tells -0.0 from 0.0), on 1500 mixers whose
        angles are often exactly 0 or pi/2, so that U holds exact zeros."""
        angles = rng.uniform(0.0, np.pi / 2, (3, 1500))
        edges = rng.integers(0, 4, angles.shape)
        angles[edges == 0], angles[edges == 1] = 0.0, np.pi / 2
        u = build_tritter(TritterAngles(*angles))
        observed, errors = two_photon_observables(u)
        assert errors == [None] * len(u)
        got = np.column_stack(list(observed.values()))
        for k in range(len(u)):
            want, rho = per_entry_observables(u[k])
            assert list(map(repr, got[k].tolist())) == list(map(repr, want))
            reduced = trace_out_third(evolve_two_photon(u[k])).matrix
            assert repr(reduced.tolist()) == repr(rho.tolist())

    def test_bound_rows_equal_python_arithmetic(self, rng):
        """The bound's squares round as Python's ** does, which x * x does
        not always match in the last bit."""
        rho = np.zeros((5000, 9, 9), dtype=complex)
        for i, j in ((1, 1), (3, 3)):
            rho[:, i, j] = rng.uniform(0.0, 1.0, 5000)
        for i, j in ((2, 4), (6, 4)):
            rho[:, i, j] = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        for k, matrix in enumerate(rho):
            want = negativity_lower_bound(TwoModeDensityMatrix(2, matrix))
            r0101, r1010 = float(matrix[1, 1].real), float(matrix[3, 3].real)
            c0211, c2011 = complex(matrix[2, 4]), complex(matrix[6, 4])
            first = 0.5 * (sqrt(r0101**2 + 4.0 * abs(c0211) ** 2) - r0101)
            second = 0.5 * (sqrt(r1010**2 + 4.0 * abs(c2011) ** 2) - r1010)
            assert want == first + second

    def test_stacked_negativity_adds_as_np_sum(self, rng):
        """Partial transposes with 1 to 7 negative eigenvalues (two-photon
        states reach 3): each stacked row equals np.sum over its own
        negative eigenvalues, bit for bit."""
        shape = (700, 9, 9)
        q, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        lam = rng.uniform(0.01, 1.0, (700, 9))
        lam[np.arange(9) < np.arange(700)[:, None] % 7 + 1] *= -1.0
        pt = (q * lam[:, None, :]) @ np.conj(np.swapaxes(q, -1, -2))
        rho = TwoModeDensityMatrix(2, partial_transpose(TwoModeDensityMatrix(2, pt)))
        got = negativity(rho)
        for k in range(700):
            one = TwoModeDensityMatrix(2, rho.matrix[k])
            eigs = np.linalg.eigvalsh(partial_transpose(one))
            assert got[k] == float(np.sum(np.abs(eigs[eigs < -1e-11])))

    def test_non_unitary_row_fails_alone(self):
        u = np.stack([np.eye(3), 1.1 * np.eye(3), np.eye(3)]).astype(complex)
        _observed, errors = two_photon_observables(u)
        assert errors[0] is None and errors[2] is None
        assert str(errors[1]) == "mixer matrix is not unitary to 1e-10"
