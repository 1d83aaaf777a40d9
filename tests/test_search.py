import numpy as np
import pytest

from gravtritter import (
    DomainError,
    GaussianProfile,
    SweepSpec,
    find_hom,
    make_comb,
    sweep_chi,
)
from gravtritter import search
from gravtritter.search import CSV_HEADER, rows_to_csv, rows_to_json


def alternating_comb_pair():
    f1 = make_comb([(1, 100, 1), (-1, 104, 1), (1, 108, 1)])
    f2 = make_comb([(1, 102, 1), (-1, 106, 1), (1, 110, 1)])
    return f1, f2


class TestSweepSpec:
    def test_validation(self):
        f1, f2 = alternating_comb_pair()
        with pytest.raises(DomainError):
            SweepSpec(f1, f2, -1.0, 1.1, 5)
        with pytest.raises(DomainError):
            SweepSpec(f1, f2, 1.0, 1.1, 1)
        with pytest.raises(DomainError):
            SweepSpec(f1, f2, 1.0, 1.1, 5, population_floor=0.0)
        for hom_tol in (0.0, -1.0):
            with pytest.raises(DomainError, match="hom tolerance must be positive"):
                SweepSpec(f1, f2, 1.0, 1.1, 5, hom_tol=hom_tol)
        with pytest.raises(DomainError):
            SweepSpec(f1, f2, 1.2, 1.1, 5)

    def test_grid_values(self):
        f1, f2 = alternating_comb_pair()
        spec = SweepSpec(f1, f2, 1.0, 1.2, 5)
        assert np.allclose(spec.chi_values(), [1.0, 1.05, 1.1, 1.15, 1.2])


class TestSweepChi:
    def test_identity_row_at_chi_one(self):
        spec = SweepSpec(
            GaussianProfile(100.0, 1.0), GaussianProfile(104.0, 1.0), 1.0, 1.02, 3
        )
        rows = sweep_chi(spec)
        assert len(rows) == 3
        assert [r.chi for r in rows] == sorted(r.chi for r in rows)
        first = rows[0]
        assert first.chi == 1.0
        assert first.hom_coeff == pytest.approx(1.0, abs=1e-10)
        assert first.negativity < 1e-10
        assert first.status == "ok"

    def test_disjoint_pair_no_mixing(self):
        spec = SweepSpec(
            GaussianProfile(100.0, 1.0), GaussianProfile(140.0, 1.0), 1.0, 1.02, 5
        )
        for row in sweep_chi(spec):
            assert np.sin(row.phi) < 1e-9  # |U21| = sin(phi)
            assert row.rho2020 * row.rho0202 < 1e-12

    def test_comb_pair_sign_change(self):
        f1, f2 = alternating_comb_pair()
        spec = SweepSpec(f1, f2, 1.0, 1.03, 13)
        rows = sweep_chi(spec)
        signed = [
            np.cos(r.theta) * (np.cos(r.phi) ** 2 - np.sin(r.phi) ** 2)
            * np.cos(r.psi)
            - np.sin(r.theta) * np.sin(r.phi) * np.sin(r.psi)
            for r in rows
        ]
        assert any(a * b < 0 for a, b in zip(signed, signed[1:]))

    def test_negativity_dominates_bound_rowwise(self):
        f1, f2 = alternating_comb_pair()
        rows = sweep_chi(SweepSpec(f1, f2, 1.0, 1.05, 7))
        for r in rows:
            assert r.status == "ok"
            assert r.negativity >= r.neg_bound - 1e-10


class TestFindHom:
    def test_comb_pair_roots(self):
        f1, f2 = alternating_comb_pair()
        spec = SweepSpec(f1, f2, 1.0, 1.03, 13, hom_tol=1e-9, population_floor=1e-4)
        roots = find_hom(spec)
        assert roots
        for r in roots:
            assert r.converged
            assert r.hom_coeff < 1e-9
            assert r.rho2020 > 1e-4 and r.rho0202 > 1e-4
            assert r.negativity > 0

    def test_root_kills_coincidence_populations(self):
        # full interference condition at the root: no |11> weight left
        from gravtritter import evolve_two_photon, trace_out_third, tritter_from_modes
        from gravtritter.modes import orthonormalize_pair

        f1, f2 = alternating_comb_pair()
        spec = SweepSpec(f1, f2, 1.0, 1.03, 13, hom_tol=1e-12, population_floor=1e-4)
        roots = find_hom(spec)
        assert roots
        e1, e2 = orthonormalize_pair(f1, f2)
        for r in roots:
            u, _, _ = tritter_from_modes(e1, e2, r.chi)
            rho = trace_out_third(evolve_two_photon(u))
            assert abs(rho.entry(1, 1, 1, 1)) < 1e-9
            assert abs(rho.entry(2, 0, 1, 1)) < 1e-9
            assert abs(rho.entry(0, 2, 1, 1)) < 1e-9

    @pytest.mark.parametrize("layout", ["interior", "last"])
    def test_grid_point_root_reported_once(self, layout):
        # a grid point that is itself a root must not also end a bisected
        # bracket, or the same root comes back twice
        f1, f2 = alternating_comb_pair()
        kwargs = dict(hom_tol=1e-11, population_floor=1e-4)
        (root,) = find_hom(SweepSpec(f1, f2, 1.0, 1.012, 5, **kwargs))
        r = root.chi
        if layout == "interior":
            spec = SweepSpec(f1, f2, 1.0, 2 * r - 1.0, 3, **kwargs)
        else:
            spec = SweepSpec(f1, f2, 1.0, r, 5, **kwargs)
        roots = find_hom(spec)
        assert len(roots) == 1
        assert roots[0].chi == pytest.approx(r, abs=1e-12)

    def test_disjoint_pair_empty(self):
        spec = SweepSpec(
            GaussianProfile(100.0, 1.0), GaussianProfile(140.0, 1.0), 1.0, 1.05, 9
        )
        assert find_hom(spec) == []


class TestRootRefinement:
    """Counting guards on the bracket refinement of ``find_hom``, no timing:
    each test counts the signed-coincidence evaluations it makes."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        seen = []
        signed_coincidence = search._Pipeline.signed_coincidence

        def counting(pipeline, chi):
            value = signed_coincidence(pipeline, chi)
            seen.append((chi, value))
            return value

        monkeypatch.setattr(search._Pipeline, "signed_coincidence", counting)
        return seen

    @staticmethod
    def criterion6_spec(hom_tol=1e-11):
        f1, f2 = alternating_comb_pair()
        return SweepSpec(f1, f2, 1.0, 1.012, 5, hom_tol=hom_tol, population_floor=1e-4)

    @staticmethod
    def brackets(spec, evaluations):
        values = [v for _chi, v in evaluations[: spec.grid]]
        return sum(a * b < 0 for a, b in zip(values, values[1:]))

    def test_at_most_12_evaluations_per_bracket(self, evaluations):
        spec = self.criterion6_spec()
        (root,) = find_hom(spec)
        assert root.converged
        assert self.brackets(spec, evaluations) == 1
        assert len(evaluations) - spec.grid <= 12

    def test_root_agrees_with_scipy_brentq(self, evaluations):
        from scipy.optimize import brentq

        spec = self.criterion6_spec()
        (root,) = find_hom(spec)
        grid = spec.chi_values()
        i = int(np.searchsorted(grid, root.chi)) - 1
        want = brentq(
            search._Pipeline(spec).signed_coincidence, grid[i], grid[i + 1],
            xtol=1e-15,
        )
        assert abs(root.chi - want) <= 1e-12

    def test_unreachable_tol_stops_at_float_resolution(self, evaluations):
        spec = self.criterion6_spec(hom_tol=1e-300)
        (root,) = find_hom(spec)
        assert not root.converged
        refined = evaluations[spec.grid :]
        assert len(refined) < 60
        # the bracket collapsed: a point of the other sign lies within a few
        # units in the last place of the returned chi
        value = dict(evaluations)[root.chi]
        assert any(
            v * value < 0 and abs(chi - root.chi) <= 4 * np.spacing(root.chi)
            for chi, v in evaluations
        )

    @pytest.mark.parametrize(
        "f, a, b, want",
        [
            (lambda x: x**3 - 2.0, 1.0, 2.0, 2.0 ** (1 / 3)),
            (np.cos, 0.0, 3.0, np.pi / 2),
            (lambda x: np.tanh(50.0 * (x - 0.7)), -3.0, 1.0, 0.7),
        ],
    )
    def test_brent_on_closed_forms(self, f, a, b, want):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        chi, value, converged = search._brent(counted, a, b, f(a), f(b), 1e-13)
        assert converged and abs(value) < 1e-13
        assert chi == pytest.approx(want, abs=1e-12)
        assert len(calls) < 60


class TestSerialization:
    def test_csv_deterministic(self):
        f1, f2 = alternating_comb_pair()
        spec = SweepSpec(f1, f2, 1.0, 1.02, 5)
        a = rows_to_csv(sweep_chi(spec), meta_comment="{}")
        b = rows_to_csv(sweep_chi(spec), meta_comment="{}")
        assert a == b
        assert a.splitlines()[0] == "# {}"
        assert a.splitlines()[1] == CSV_HEADER

    def test_json_rows_match_csv_fields(self):
        spec = SweepSpec(
            GaussianProfile(100.0, 1.0), GaussianProfile(104.0, 1.0), 1.0, 1.01, 2
        )
        rows = sweep_chi(spec)
        docs = rows_to_json(rows)
        assert len(docs) == 2
        assert set(docs[0]) == set(CSV_HEADER.split(","))
