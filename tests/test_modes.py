import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import simpson

from gravtritter import (
    CombProfile,
    DegeneracyError,
    DomainError,
    GaussianProfile,
    TabulatedProfile,
    inner_product,
    make_comb,
    orthonormalize_pair,
    profile_from_json,
    redshift_transform,
)
from gravtritter.modes import overlap_matrix
from conftest import gaussian_overlap

CHI_GRID = [0.5, 0.9, 1.0, 1.1, 2.0]


def tabulated_from(profile, n=6001):
    lo, hi = profile.support_window()
    grid = np.linspace(max(lo, 1e-6), hi, n)
    tab = TabulatedProfile(grid, np.asarray(profile.evaluate(grid), complex))
    # the linear interpolant's norm differs from 1 at the sampling density;
    # rescale so normalization invariants apply to the tabulated kind too
    scale = np.sqrt(inner_product(tab, tab).real)
    return TabulatedProfile(grid, tab.values / scale)


def simpson_overlap(f, g, n=400001):
    """Independent oracle: composite Simpson on exact samples from w ~ 0."""
    hi = max(f.support_window()[1], g.support_window()[1])
    w = np.linspace(np.finfo(float).tiny, hi, n)
    return simpson(np.conj(f.evaluate(w)) * g.evaluate(w), x=w)


def random_profile(rng):
    """Gaussian with a phase, or a comb of 2-4 lobes with complex weights.

    Lobes are broad and low enough that a redshift by chi in [0.5, 2] keeps
    a sizeable overlap with the original, and comb lobes may reach w = 0.
    """
    if rng.uniform() < 0.3:
        return GaussianProfile(
            rng.uniform(10, 20), rng.uniform(1, 2), rng.uniform(0, 2 * np.pi)
        )
    return make_comb(
        [
            (rng.standard_normal() + 1j * rng.standard_normal(),
             rng.uniform(5, 20), rng.uniform(1, 4))
            for _ in range(rng.integers(2, 5))
        ]
    )


class TestEvaluate:
    def test_gaussian_peak_value(self):
        g = GaussianProfile(10.0, 1.0)
        expected = (2.0 * np.pi) ** (-0.25)  # (2 pi sigma^2)^(-1/4) at sigma=1
        assert g.evaluate(10.0) == pytest.approx(expected, abs=1e-12)

    def test_negative_frequency_is_zero(self):
        for p in (
            GaussianProfile(10.0, 1.0),
            make_comb([(1, 10, 1)]),
            tabulated_from(GaussianProfile(10.0, 1.0)),
        ):
            assert p.evaluate(-1.0) == 0.0

    def test_gaussian_two_widths_out(self):
        g = GaussianProfile(10.0, 1.0)
        expected = (2.0 * np.pi) ** (-0.25) * np.exp(-1.0)
        assert g.evaluate(12.0) == pytest.approx(expected, abs=1e-12)

    def test_phase_factor(self):
        g = GaussianProfile(10.0, 1.0, phase=0.7)
        assert np.angle(g.evaluate(10.0)) == pytest.approx(0.7, abs=1e-12)

    def test_vectorized(self):
        g = GaussianProfile(10.0, 1.0)
        w = np.array([-1.0, 10.0, 12.0])
        vals = g.evaluate(w)
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx(g.evaluate(10.0))

    def test_tabulated_outside_grid_is_zero(self):
        t = TabulatedProfile(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 1.0], complex))
        assert t.evaluate(0.5) == 0.0
        assert t.evaluate(3.5) == 0.0
        assert t.evaluate(1.5) == pytest.approx(1.5)
        c = TabulatedProfile(
            np.array([1.0, 2.0, 3.0]), np.array([1 + 2j, 2 - 1j, -1 + 0.5j])
        )
        assert c.evaluate(1.0) == 1 + 2j and c.evaluate(3.0) == -1 + 0.5j
        assert c.evaluate(1.5) == pytest.approx(1.5 + 0.5j, abs=1e-15)
        w = np.array([-1.0, 0.0, 0.5, 1.0, 2.5, 3.0, 3.5, np.nan, np.inf, -np.inf])
        want = np.array([0, 0, 0, 1 + 2j, 0.5 - 0.25j, -1 + 0.5j, 0, 0, 0, 0])
        got = c.evaluate(w)
        assert got.shape == w.shape and got.dtype == complex
        assert np.max(np.abs(got - want)) <= 1e-15
        for x in (-1.0, 0.0, np.nan):
            assert c.evaluate(x) == 0.0

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            GaussianProfile(10.0, -1.0)
        with pytest.raises(DomainError):
            GaussianProfile(-10.0, 1.0)
        with pytest.raises(DomainError):
            TabulatedProfile(np.array([2.0, 1.0]), np.array([1.0, 1.0], complex))

    def test_low_peak_warns(self):
        with pytest.warns(UserWarning, match=r"half-line norm\^2 .* = 0\.97725,"):
            GaussianProfile(2.0, 1.0)


class TestInnerProduct:
    def test_normalization(self):
        g = GaussianProfile(10.0, 1.0)
        assert inner_product(g, g) == pytest.approx(1.0, abs=1e-8)

    def test_equal_width_pair(self):
        ov = inner_product(GaussianProfile(10.0, 1.0), GaussianProfile(12.0, 1.0))
        assert ov == pytest.approx(np.exp(-0.5), abs=1e-10)

    def test_disjoint_pair_vanishes(self):
        ov = inner_product(GaussianProfile(10.0, 1.0), GaussianProfile(40.0, 1.0))
        assert abs(ov) < 1e-12

    def test_quadrature_matches_closed_form(self, rng):
        for _ in range(20):
            a = rng.uniform(50, 150)
            b = a + rng.uniform(-5, 5)
            s1 = rng.uniform(0.5, 3.0)
            s2 = rng.uniform(0.5, 3.0)
            ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
            got = inner_product(
                GaussianProfile(a, s1, ph1), GaussianProfile(b, s2, ph2)
            )
            assert got == pytest.approx(
                gaussian_overlap(a, s1, b, s2, ph1, ph2), abs=1e-8
            )

    def test_cauchy_schwarz(self, rng):
        for _ in range(10):
            f = GaussianProfile(rng.uniform(50, 100), rng.uniform(0.5, 2))
            g = make_comb(
                [
                    (rng.standard_normal() + 1j * rng.standard_normal(),
                     rng.uniform(50, 100), rng.uniform(0.5, 2))
                    for _ in range(3)
                ]
            )
            assert abs(inner_product(f, g)) <= 1.0 + 1e-10

    def test_closed_form_matches_simpson_oracle(self, rng):
        for _ in range(6):
            f, g = random_profile(rng), random_profile(rng)
            chi = rng.uniform(0.5, 2.0)
            fp = redshift_transform(f, chi)
            for p, q in ((f, g), (fp, f), (fp, g)):
                assert abs(inner_product(p, q) - simpson_overlap(p, q)) < 1e-12

    def test_low_peak_norm_is_half_line_share(self):
        with pytest.warns(UserWarning, match="half-line norm"):
            g = GaussianProfile(2.0, 1.0)
        norm_sq = inner_product(g, g)
        assert abs(norm_sq - 0.5 * math.erfc(-math.sqrt(2.0))) < 1e-15
        assert abs(norm_sq - simpson_overlap(g, g)) < 1e-12

    def test_tabulated_overlap(self):
        g1 = GaussianProfile(10.0, 1.0)
        g2 = GaussianProfile(12.0, 1.0)
        ov = inner_product(tabulated_from(g1), tabulated_from(g2))
        assert ov == pytest.approx(np.exp(-0.5), abs=1e-6)

    def test_tabulated_overlap_matches_exact_piecewise_oracle(self, rng):
        """Simpson on the merged nodes vs the exact integral of the product
        of two linear interpolants, summed interval by interval."""
        grid = np.sort(rng.uniform(10.0, 14.0, 301))
        f = TabulatedProfile(
            grid, np.exp(-((grid - 12.0) ** 2) / 2.0 + 0.7j * grid)
        )
        g = redshift_transform(f, 1.05)  # grid / 1.1025: partly overlapping
        assert g.omega[0] < f.omega[0] < g.omega[-1] < f.omega[-1]
        lo, hi = f.omega[0], g.omega[-1]
        nodes = np.union1d(f.omega, g.omega)
        nodes = nodes[(nodes >= lo) & (nodes <= hi)]

        def linear(p, w):
            return np.interp(w, p.omega, p.values.real) + 1j * np.interp(
                w, p.omega, p.values.imag
            )

        a, b = np.conj(linear(f, nodes[:-1])), np.conj(linear(f, nodes[1:]))
        c, d = linear(g, nodes[:-1]), linear(g, nodes[1:])
        h = np.diff(nodes)
        exact = complex(np.sum(h * (2 * a * c + a * d + b * c + 2 * b * d) / 6.0))
        assert abs(exact) > 0.1
        for got, want in ((inner_product(f, g), exact),
                          (inner_product(g, f), exact.conjugate())):
            assert abs(got - want) <= 1e-13 * abs(want)


    def test_table_pair_overlap_matches_simpson_on_midpoints(self, rng):
        """Exact route vs scipy Simpson on the merged nodes and their
        midpoints, which is exact for the piecewise quadratic integrand."""
        fine = np.sort(rng.uniform(10.0, 14.0, 401))
        coarse = np.sort(rng.uniform(11.0, 13.0, 37))
        f = TabulatedProfile(fine, np.exp(-((fine - 12.0) ** 2) + 0.7j * fine))
        g = TabulatedProfile(coarse, np.cos(coarse) + 1j * np.sin(2.0 * coarse))
        pairs = [(f, g), (g, f), (f, redshift_transform(f, 1.03)),
                 (redshift_transform(g, 0.98), f), (f, f)]
        for p, q in pairs:
            lo = max(p.omega[0], q.omega[0])
            hi = min(p.omega[-1], q.omega[-1])
            nodes = np.union1d(p.omega, q.omega)
            nodes = nodes[(nodes >= lo) & (nodes <= hi)]
            w = np.empty(2 * nodes.size - 1)
            w[0::2], w[1::2] = nodes, 0.5 * (nodes[:-1] + nodes[1:])

            def linear(t):
                return np.interp(w, t.omega, t.values.real) + 1j * np.interp(
                    w, t.omega, t.values.imag
                )

            want = simpson(np.conj(linear(p)) * linear(q), x=w)
            assert abs(want) > 0.05
            assert abs(inner_product(p, q) - want) <= 1e-13 * abs(want)

    def test_table_pair_overlap_evaluates_each_side_on_the_nodes(
        self, monkeypatch
    ):
        """Counting guard, no timing: one table x table overlap evaluates
        each side on no more points than there are merged nodes."""
        f = tabulated_from(GaussianProfile(10.0, 1.0), n=1001)
        g = redshift_transform(tabulated_from(GaussianProfile(10.5, 1.0), n=777), 1.01)
        lo, hi = max(f.omega[0], g.omega[0]), min(f.omega[-1], g.omega[-1])
        nodes = np.union1d(f.omega, g.omega)
        n_nodes = np.count_nonzero((nodes >= lo) & (nodes <= hi))
        points = {id(f): 0, id(g): 0}
        evaluate = TabulatedProfile.evaluate

        def counting_evaluate(self, omega):
            points[id(self)] += np.size(omega)
            return evaluate(self, omega)

        monkeypatch.setattr(TabulatedProfile, "evaluate", counting_evaluate)
        assert abs(inner_product(f, g)) > 0.5
        assert 0 < points[id(f)] <= n_nodes
        assert 0 < points[id(g)] <= n_nodes

    @pytest.mark.parametrize("table_first", [True, False])
    def test_table_with_narrow_gaussian_is_exact(self, table_first):
        """A lobe far narrower than the node spacing, inside a table of ones:
        the overlap is the lobe's full integral, (8 pi sigma^2)^(1/4)."""
        table = TabulatedProfile(np.linspace(90.0, 110.0, 6), np.ones(6, complex))
        pair = (table, GaussianProfile(100.5, 0.05))
        got = inner_product(*(pair if table_first else pair[::-1]))
        assert abs(got - (8.0 * np.pi * 0.05**2) ** 0.25) <= 1e-15

    def test_table_lobe_overlap_matches_fine_simpson(self, rng):
        """Random tables (50-2000 nodes, random spacing, smooth or rough
        values) against gaussians and combs of lobes from 0.05 to 3 wide,
        so node intervals run from far below to far above a lobe width, in
        both orders: the exact route vs scipy Simpson with 256 sub-intervals
        per node interval on the interpolant times the profile.  The bound
        is the oracle's own error, |S_256 - S_128|, plus rounding."""

        def simpson_oracle(table, profile, per_interval):
            x = table.omega
            w = x[:-1, None] + np.diff(x)[:, None] * np.linspace(0, 1, per_interval + 1)
            y = np.conj(table.evaluate(w)) * profile.evaluate(w)
            return simpson(y, x=w, axis=1).sum()

        for trial in range(24):
            n = int(rng.integers(50, 2001))
            grid = np.sort(rng.uniform(80.0, 120.0, n))
            if trial % 2:  # rough: independent values on close-spaced nodes
                values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            else:
                coeffs = np.array([1, 1j]) @ rng.standard_normal((2, 4))
                values = sum(
                    c * np.cos((k + 1) * grid / 3 + k) for k, c in enumerate(coeffs)
                )
            table = TabulatedProfile(grid, values)
            lobes = [
                (rng.standard_normal() + 1j * rng.standard_normal(),
                 rng.uniform(85.0, 115.0), rng.uniform(0.05, 3.0))
                for _ in range(rng.integers(1, 4))
            ]
            profile = make_comb(lobes) if len(lobes) > 1 else GaussianProfile(
                lobes[0][1], lobes[0][2], rng.uniform(0, 2 * np.pi)
            )
            want = simpson_oracle(table, profile, 256)
            tol = abs(want - simpson_oracle(table, profile, 128)) + 1e-13
            assert abs(inner_product(table, profile) - want) <= tol
            assert abs(inner_product(profile, table) - np.conj(want)) <= tol

    @given(
        omega0=st.floats(85.0, 115.0),
        sigma=st.floats(0.02, 5.0),
        phase=st.floats(0.0, 6.3),
        chi=st.floats(0.5, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_table_lobe_symmetry_and_redshift_invariance(
        self, omega0, sigma, phase, chi, seed
    ):
        """<G,T> = conj <T,G>, and <T',G'> = <T,G> under one redshift."""
        rng = np.random.default_rng(seed)
        grid = np.sort(rng.uniform(80.0, 120.0, int(rng.integers(2, 400))))
        table = TabulatedProfile(
            grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        )
        gauss = GaussianProfile(omega0, sigma, phase)
        ov = inner_product(table, gauss)
        assert inner_product(gauss, table) == np.conj(ov)
        moved = inner_product(
            redshift_transform(table, chi), redshift_transform(gauss, chi)
        )
        assert abs(moved - ov) <= 1e-12


class TestRedshiftTransform:
    def test_identity_at_chi_one(self):
        g = GaussianProfile(10.0, 1.0, 0.3)
        assert redshift_transform(g, 1.0) == g

    def test_gaussian_parameter_mapping(self):
        g = redshift_transform(GaussianProfile(10.0, 1.0), np.sqrt(2.0))
        assert g.omega0 == pytest.approx(5.0)
        assert g.sigma == pytest.approx(0.5)

    def test_invalid_chi(self):
        with pytest.raises(DomainError):
            redshift_transform(GaussianProfile(10.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            redshift_transform(GaussianProfile(10.0, 1.0), -1.0)

    @pytest.mark.parametrize("chi", [1e-200, 1e-160, 1e160, 1e200])
    def test_chi_squared_out_of_range(self, chi):
        """chi^2 or 1/chi^2 overflows: rejected by name, for every kind,
        before any profile is built from zero or infinite parameters."""
        for p in (
            GaussianProfile(100.0, 1.0),
            make_comb([(1, 95, 1), (-1, 105, 1)]),
            tabulated_from(GaussianProfile(100.0, 1.0), n=101),
        ):
            message = re.escape(f"redshift parameter chi = {chi} out of range")
            with pytest.raises(DomainError, match=message):
                redshift_transform(p, chi)

    def test_table_grid_overflow_names_chi(self):
        """chi^2 = 1e-308 is in range, but the grid over it is not finite:
        an error naming chi, with no floating-point warning."""
        table = tabulated_from(GaussianProfile(100.0, 1.0), n=101)
        message = re.escape("redshift parameter chi = 1e-154 out of range")
        with pytest.raises(DomainError, match=message):
            redshift_transform(table, 1e-154)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_table_grid_rejected(self, bad):
        for grid in ([1.0, 2.0, bad], [bad, 2.0, 3.0], [1.0, bad, 3.0]):
            with pytest.raises(DomainError, match="tabulated grid must be finite"):
                TabulatedProfile(np.array(grid), np.ones(3, complex))

    @pytest.mark.parametrize("chi", CHI_GRID)
    def test_norm_preserved_all_kinds(self, chi):
        profiles = [
            GaussianProfile(100.0, 1.5),
            make_comb([(1, 90, 1), (-1, 100, 1), (1j, 110, 1)]),
            tabulated_from(GaussianProfile(100.0, 2.0)),
        ]
        for p in profiles:
            pp = redshift_transform(p, chi)
            assert abs(inner_product(pp, pp) - 1.0) < 1e-8

    @pytest.mark.parametrize("chi", CHI_GRID)
    def test_overlap_invariant(self, chi):
        e1, e2 = orthonormalize_pair(
            GaussianProfile(100.0, 1.0), GaussianProfile(103.0, 1.5)
        )
        before = inner_product(e1, e2)
        after = inner_product(
            redshift_transform(e1, chi), redshift_transform(e2, chi)
        )
        assert abs(after - before) < 1e-8

    def test_pointwise_definition(self):
        # F'(w) = chi F(chi^2 w) for every kind
        chi = 1.3
        for p in (
            GaussianProfile(100.0, 2.0, 0.4),
            make_comb([(1, 95, 1), (-0.5, 105, 2)]),
            tabulated_from(GaussianProfile(100.0, 2.0)),
        ):
            pp = redshift_transform(p, chi)
            for w in (52.0, 59.1, 62.0):
                assert pp.evaluate(w) == pytest.approx(
                    chi * p.evaluate(chi**2 * w), abs=1e-10
                )


class TestOrthonormalizePair:
    def test_disjoint_pair_unchanged(self):
        g1 = GaussianProfile(100.0, 1.0)
        g2 = GaussianProfile(140.0, 1.0)
        e1, e2 = orthonormalize_pair(g1, g2)
        assert abs(inner_product(e1, g1)) == pytest.approx(1.0, abs=1e-8)
        assert abs(inner_product(e2, g2)) == pytest.approx(1.0, abs=1e-8)

    def test_overlapping_pair_orthogonal(self):
        e1, e2 = orthonormalize_pair(
            GaussianProfile(10.0, 1.0), GaussianProfile(12.0, 1.0)
        )
        assert abs(inner_product(e1, e2)) < 1e-8
        assert inner_product(e1, e1) == pytest.approx(1.0, abs=1e-8)
        assert inner_product(e2, e2) == pytest.approx(1.0, abs=1e-8)

    def test_parallel_inputs_rejected(self):
        with pytest.raises(DegeneracyError):
            orthonormalize_pair(GaussianProfile(10.0, 1.0), GaussianProfile(10.0, 1.0))

    def test_anchored_on_first_argument(self):
        g1 = GaussianProfile(10.0, 1.0)
        e1, _ = orthonormalize_pair(g1, GaussianProfile(11.0, 1.0))
        assert abs(inner_product(e1, g1)) == pytest.approx(1.0, abs=1e-10)

    def test_tabulated_route(self):
        t1 = tabulated_from(GaussianProfile(100.0, 1.0))
        g2 = GaussianProfile(102.0, 1.0)
        e1, e2 = orthonormalize_pair(t1, g2)
        assert isinstance(e1, TabulatedProfile)
        assert isinstance(e2, TabulatedProfile)
        assert abs(inner_product(e1, e2)) < 1e-8
        assert inner_product(e2, e2) == pytest.approx(1.0, abs=1e-8)


class TestOverlapMatrix:
    """Each entry of the one-pass matrix is the pair's own overlap, bit for
    bit: the block sums and the shared table nodes change no arithmetic."""

    @staticmethod
    def assert_pairwise(rows, cols):
        m = overlap_matrix(rows, cols)
        assert m.shape == (len(rows), len(cols))
        for i, f in enumerate(rows):
            for j, g in enumerate(cols):
                assert m[i, j] == inner_product(f, g)

    def test_gaussian_pairs(self):
        gs = [GaussianProfile(10.0, 1.0), GaussianProfile(11.0, 1.5, 0.7),
              GaussianProfile(9.0, 0.8, 2.0)]
        self.assert_pairwise(gs[:2], gs)
        self.assert_pairwise([redshift_transform(g, 1.05) for g in gs], gs[1:])

    def test_three_lobe_comb_pairs(self, rng):
        f1 = make_comb([(1, 100, 1), (-1, 104, 1), (1, 108, 1)])
        f2 = make_comb([(1, 102, 1), (-1, 106, 1), (1, 110, 1)])
        rows = [redshift_transform(f, 1.007) for f in (f1, f2)]
        self.assert_pairwise(rows, [f1, f2])
        self.assert_pairwise([random_profile(rng), f1], [f2, random_profile(rng)])

    @pytest.mark.parametrize("chi", [0.97, 1.0, 1.0043])
    def test_gram_schmidt_output(self, chi):
        # the second output carries the 3 lobes of each input: 6 lobes
        e1, e2 = orthonormalize_pair(
            make_comb([(1, 100, 1), (-1, 104, 1), (1, 108, 1)]),
            make_comb([(1, 101, 1), (-1, 105, 1), (1, 109, 1)]),
        )
        assert (len(e1.peaks), len(e2.peaks)) == (3, 6)
        rows = [redshift_transform(e, chi) for e in (e1, e2)]
        self.assert_pairwise(rows, [e1, e2])
        self.assert_pairwise([e1, e2], [e1, e2])

    @pytest.mark.parametrize("chi", [0.99, 1.0043, 1.3])
    def test_table_pairs(self, chi):
        e1, e2 = orthonormalize_pair(
            tabulated_from(GaussianProfile(100.0, 1.0), n=2001),
            tabulated_from(GaussianProfile(101.5, 1.2), n=1501),
        )
        rows = [redshift_transform(e, chi) for e in (e1, e2)]
        assert rows[0].omega is not rows[1].omega
        self.assert_pairwise(rows, [e1, e2])

    def test_tables_on_different_grids_go_pair_by_pair(self):
        t1 = tabulated_from(GaussianProfile(10.0, 1.0), n=1001)
        t2 = tabulated_from(GaussianProfile(10.5, 1.0), n=777)
        self.assert_pairwise([t1, redshift_transform(t2, 1.01)], [t1, t2])

    def test_table_pairs_evaluate_each_table_once(self, monkeypatch):
        """Counting guard: a 2x2 matrix of tables evaluates each of its four
        tables once, on one merged node set."""
        e1, e2 = orthonormalize_pair(
            tabulated_from(GaussianProfile(100.0, 1.0), n=2001),
            tabulated_from(GaussianProfile(101.5, 1.2), n=1501),
        )
        rows = [redshift_transform(e, 1.01) for e in (e1, e2)]
        sizes = []
        evaluate = TabulatedProfile.evaluate

        def counting_evaluate(self, omega):
            sizes.append(np.size(omega))
            return evaluate(self, omega)

        monkeypatch.setattr(TabulatedProfile, "evaluate", counting_evaluate)
        overlap_matrix(rows, [e1, e2])
        assert len(sizes) == 4 and len(set(sizes)) == 1

    def test_table_with_gaussian_takes_exact_route(self):
        table = tabulated_from(GaussianProfile(10.0, 1.0), n=2001)
        gs = [GaussianProfile(10.3, 1.0), GaussianProfile(9.8, 1.2, 0.4)]
        self.assert_pairwise([table], gs)
        self.assert_pairwise(gs, [table, gs[0]])
        # tables on one grid against one comb: a column, and its transpose
        comb = make_comb([(1, 9.5, 0.7), (-1j, 10.6, 1.1)])
        tables = [table, TabulatedProfile(table.omega, np.roll(table.values, 40))]
        self.assert_pairwise(tables, [comb])
        self.assert_pairwise([comb], tables)

    @pytest.mark.parametrize("table_first", [True, False])
    def test_table_with_narrow_gaussian_is_exact(self, table_first):
        table = TabulatedProfile(np.linspace(90.0, 110.0, 6), np.ones(6, complex))
        narrow = GaussianProfile(100.5, 0.05)
        rows, cols = ([table], [table, narrow]) if table_first else ([narrow], [table])
        got = overlap_matrix(rows, cols)[0, -1]
        assert abs(got - (8.0 * np.pi * 0.05**2) ** 0.25) <= 1e-15
        self.assert_pairwise(rows, cols)


class TestMakeComb:
    def test_single_peak_equals_gaussian(self):
        comb = make_comb([(1, 10, 1)])
        g = GaussianProfile(10.0, 1.0)
        for w in (8.0, 10.0, 11.5):
            assert comb.evaluate(w) == pytest.approx(g.evaluate(w), abs=1e-10)

    def test_two_far_peaks_split_weight(self):
        comb = make_comb([(1, 10, 0.5), (1, 20, 0.5)])
        assert inner_product(comb, comb) == pytest.approx(1.0, abs=1e-8)
        lobe = GaussianProfile(10.0, 0.5)
        assert abs(inner_product(lobe, comb)) ** 2 == pytest.approx(0.5, abs=1e-8)

    def test_alternating_comb_normalized(self):
        comb = make_comb([(1, 10, 0.5), (-1, 12, 0.5), (1, 14, 0.5)])
        assert len(comb.peaks) == 3
        assert inner_product(comb, comb) == pytest.approx(1.0, abs=1e-8)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            make_comb([])


class TestSerialization:
    def test_round_trip_all_kinds(self):
        profiles = [
            GaussianProfile(10.0, 1.0, 0.3),
            make_comb([(1 + 2j, 10, 1), (-1, 12, 0.5)]),
            tabulated_from(GaussianProfile(10.0, 1.0), n=101),
        ]
        for p in profiles:
            doc = json.loads(json.dumps(p.to_json_dict()))
            q = profile_from_json(doc)
            for w in (8.0, 10.0, 12.5):
                assert q.evaluate(w) == pytest.approx(p.evaluate(w), abs=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            profile_from_json({"kind": "lorentzian"})
