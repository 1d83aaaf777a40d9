import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gravtritter import (
    DomainError,
    GaussianProfile,
    GravTritterError,
    InconsistencyError,
    TritterAngles,
    angles_from_overlaps,
    build_tritter,
    nogo_normalization,
    orthonormalize_pair,
    tritter_from_modes,
)
from gravtritter import tritter
from gravtritter.tritter import _stacked_angles, tritters_from_modes, unitarity_residual
from conftest import gaussian_overlap

# Moduli inside, at and just past the bounds the angle checks enforce.
MODULI = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, 1.0 + 1e-10, 1.0 + 2e-9, 1.5, float("nan")]),
)


class TestAnglesFromOverlaps:
    def test_perfect_overlap(self):
        a = angles_from_overlaps(1.0, 1.0, 0.0)
        assert (a.theta, a.phi, a.psi) == (0.0, 0.0, 0.0)

    def test_complete_mismatch(self):
        a = angles_from_overlaps(0.0, 0.0, 0.0)
        assert a.theta == pytest.approx(np.pi / 2)
        assert a.phi == 0.0
        assert a.psi == pytest.approx(np.pi / 2)

    def test_generic_point_round_trip(self):
        a = angles_from_overlaps(0.8, 0.6, 0.36)
        assert a.phi == pytest.approx(np.arcsin(0.36), abs=1e-12)
        assert a.theta == pytest.approx(np.arccos(0.8 / np.cos(a.phi)), abs=1e-12)
        assert a.psi == pytest.approx(np.arccos(0.6 / np.cos(a.phi)), abs=1e-12)
        assert np.cos(a.theta) * np.cos(a.phi) == pytest.approx(0.8, abs=1e-12)
        assert np.cos(a.phi) * np.cos(a.psi) == pytest.approx(0.6, abs=1e-12)
        assert np.sin(a.phi) == pytest.approx(0.36, abs=1e-12)

    def test_bessel_bound_violation(self):
        with pytest.raises(InconsistencyError):
            angles_from_overlaps(0.9, 0.1, 0.9)
        with pytest.raises(InconsistencyError):
            angles_from_overlaps(0.1, 0.9, 0.9)

    def test_degenerate_phi(self):
        a = angles_from_overlaps(0.0, 0.0, 1.0)
        assert a.phi == pytest.approx(np.pi / 2)
        assert a.theta == 0.0 and a.psi == 0.0

    def test_out_of_range_moduli(self):
        with pytest.raises(InconsistencyError):
            angles_from_overlaps(1.1, 0.0, 0.0)
        with pytest.raises(InconsistencyError):
            angles_from_overlaps(0.5, -0.5, 0.0)

    def test_float_noise_clamped(self):
        a = angles_from_overlaps(1.0 + 1e-10, 0.0, 0.0)
        assert a.theta == 0.0


class TestStackedAngles:
    @given(st.lists(st.tuples(MODULI, MODULI, MODULI), min_size=1, max_size=8))
    def test_rows_pass_only_where_the_checks_pass(self, triples):
        """A row the stacked angles pass has the angles of the scalar
        route, bit for bit; a row it would reject is never passed."""
        theta, phi, psi, ok = _stacked_angles(*map(np.array, zip(*triples)))
        for k, triple in enumerate(triples):
            try:
                want = angles_from_overlaps(*triple)
            except GravTritterError:
                assert not ok[k]
                continue
            if ok[k]:
                assert (theta[k], phi[k], psi[k]) == (want.theta, want.phi, want.psi)

    def test_failed_rows_keep_their_own_errors(self, monkeypatch):
        """Overlaps breaking a Bessel bound fail only their row, with the
        scalar message; a degenerate but valid row takes the scalar angles."""
        c = np.array(
            [
                [[0.8, 0.0], [0.36, 0.6]],
                [[0.9, 0.0], [0.9, 0.1]],
                [[0.0, 0.0], [1.0, 0.0]],
            ],
            dtype=complex,
        )
        monkeypatch.setattr(
            tritter, "redshifted_overlaps", lambda rows, cols, chis: (c, [None] * 3)
        )
        pair = GaussianProfile(100.0, 1.0), GaussianProfile(104.0, 1.0)
        e1, e2 = orthonormalize_pair(*pair)
        u, angles, _c, errors = tritters_from_modes(e1, e2, [1.0, 1.1, 1.2])
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], InconsistencyError)
        with pytest.raises(InconsistencyError) as want:
            angles_from_overlaps(0.9, 0.1, 0.9)
        assert str(errors[1]) == str(want.value)
        assert np.array_equal(u[1], np.eye(3))
        assert angles.phi[2] == np.arcsin(1.0)
        assert angles.theta[2] == angles.psi[2] == 0.0
        assert np.array_equal(u[0], build_tritter(angles_from_overlaps(0.8, 0.6, 0.36)))


class TestBuildTritter:
    def test_stack_equals_each_mixer(self, rng):
        angles = rng.uniform(0.0, np.pi / 2, (3, 6))
        stack = build_tritter(TritterAngles(*angles))
        assert stack.shape == (6, 3, 3)
        for k in range(6):
            one = build_tritter(TritterAngles(*angles[:, k].tolist()))
            assert np.array_equal(stack[k], one)

    def test_angle_arrays_checked_entrywise(self):
        with pytest.raises(DomainError):
            TritterAngles(np.array([0.1, -0.1]), np.zeros(2), np.zeros(2))

    def test_identity(self):
        u = build_tritter(TritterAngles(0.0, 0.0, 0.0))
        assert np.allclose(u, np.eye(3), atol=1e-15)

    def test_complete_mismatch_matrix(self):
        u = build_tritter(TritterAngles(np.pi / 2, 0.0, np.pi / 2))
        expected = np.array([[0, -1, 0], [0, 0, 1], [-1, 0, 0]], dtype=complex)
        assert np.allclose(u, expected, atol=1e-15)

    def test_embedded_balanced_splitter(self):
        u = build_tritter(TritterAngles(0.0, np.pi / 4, 0.0))
        r = 1 / np.sqrt(2)
        expected = np.array([[r, -r, 0], [r, r, 0], [0, 0, 1]], dtype=complex)
        assert np.allclose(u, expected, atol=1e-15)

    def test_unitarity_and_determinant(self, rng):
        triples = rng.uniform(0.0, np.pi / 2, size=(1000, 3))
        for t, p, s in triples:
            u = build_tritter(TritterAngles(t, p, s))
            assert unitarity_residual(u) < 1e-12
            assert np.linalg.det(u).real == pytest.approx(1.0, abs=1e-12)

    def test_angle_round_trip(self, rng):
        for t, p, s in rng.uniform(0.05, np.pi / 2 - 0.05, size=(200, 3)):
            if np.cos(p) < 1e-6:
                continue
            u = build_tritter(TritterAngles(t, p, s))
            back = angles_from_overlaps(abs(u[0, 0]), abs(u[1, 1]), abs(u[1, 0]))
            assert back.theta == pytest.approx(t, abs=1e-9)
            assert back.phi == pytest.approx(p, abs=1e-9)
            assert back.psi == pytest.approx(s, abs=1e-9)

    def test_angle_range_enforced(self):
        with pytest.raises(DomainError):
            TritterAngles(-0.1, 0.0, 0.0)
        with pytest.raises(DomainError):
            TritterAngles(0.0, 2.0, 0.0)


class TestTritterFromModes:
    def orthonormal_pair(self, w1=100.0, w2=104.0, s=1.0):
        return orthonormalize_pair(GaussianProfile(w1, s), GaussianProfile(w2, s))

    def test_chi_one_identity(self):
        e1, e2 = self.orthonormal_pair()
        u, angles, _ = tritter_from_modes(e1, e2, 1.0)
        assert np.max(np.abs(u - np.eye(3))) < 1e-8
        assert angles.theta == pytest.approx(0.0, abs=1e-7)
        assert angles.phi == pytest.approx(0.0, abs=1e-7)
        assert angles.psi == pytest.approx(0.0, abs=1e-7)

    def test_overlaps_embedded_in_matrix(self):
        e1, e2 = self.orthonormal_pair()
        u, _, rec = tritter_from_modes(e1, e2, np.sqrt(1.02))
        assert abs(u[0, 0]) == pytest.approx(rec.o11, abs=1e-12)
        assert abs(u[1, 0]) == pytest.approx(rec.o21, abs=1e-12)
        assert abs(u[1, 1]) == pytest.approx(rec.o22, abs=1e-12)

    def test_gaussian_o11_against_closed_form(self):
        # Non-overlapping pair: orthonormalization leaves the gaussians alone,
        # so o11 is the unequal-width gaussian overlap in closed form.
        e1, e2 = self.orthonormal_pair(100.0, 140.0)
        chi = np.sqrt(1.02)
        u, _, rec = tritter_from_modes(e1, e2, chi)
        expected = abs(
            gaussian_overlap(100.0 / 1.02, 1.0 / 1.02, 100.0, 1.0)
        )
        assert rec.o11 == pytest.approx(expected, abs=1e-8)
        assert rec.o11 == pytest.approx(0.6125, abs=2e-3)

    def test_requires_orthogonal_inputs(self):
        with pytest.raises(DomainError):
            tritter_from_modes(
                GaussianProfile(100.0, 1.0), GaussianProfile(101.0, 1.0), 1.1
            )

    def test_continuity_in_chi(self):
        e1, e2 = self.orthonormal_pair()
        chis = np.linspace(1.0, 1.001, 9)
        mats = [tritter_from_modes(e1, e2, c)[0] for c in chis]
        steps = [
            np.max(np.abs(b - a)) / (chis[1] - chis[0])
            for a, b in zip(mats, mats[1:])
        ]
        # finite-difference slope stays bounded and even: no jumps
        assert max(steps) < 1e3
        assert max(steps) < 10 * min(steps) + 1e-6


class TestNogoNormalization:
    def test_no_redshift(self):
        assert nogo_normalization(1.0) == 1.0

    def test_reference_values(self):
        assert nogo_normalization(np.sqrt(2.0)) == pytest.approx(0.5, abs=1e-15)
        assert nogo_normalization(0.5) == pytest.approx(4.0, abs=1e-15)

    def test_unity_only_at_chi_one(self):
        for chi in np.linspace(0.5, 2.0, 31):
            defect = abs(nogo_normalization(chi) - 1.0)
            if abs(chi - 1.0) < 1e-12:
                assert defect < 1e-12
            else:
                assert defect > 1e-12

    def test_invalid_chi(self):
        """Non-positive chi, and chi whose 1/chi^2 would be 0 or inf."""
        for chi in (0.0, -1.0, 1e-200, 1e-160, 1e160, 1e200):
            with pytest.raises(DomainError, match="redshift parameter chi = "):
                nogo_normalization(chi)
