from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gravtritter import (
    DomainError,
    GaussianProfile,
    GravTritterError,
    SweepSpec,
    TabulatedProfile,
    angles_from_overlaps,
    build_tritter,
    evolve_two_photon,
    find_hom,
    hom_record,
    make_comb,
    negativity,
    negativity_lower_bound,
    orthonormalize_pair,
    redshift_transform,
    sweep_chi,
    trace_out_third,
)
from gravtritter import modes, search, tritter
from gravtritter.modes import overlap_matrix
from gravtritter.search import CSV_HEADER, SweepRow, rows_to_csv, rows_to_json
from gravtritter.tritter import tritters_from_modes


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
        """(chi, value) of every evaluation: each grid chi of the batched
        scan, then each Brent step (``signed_coincidence`` is the one-chi
        case of ``signed_coincidences``)."""
        seen = []
        signed_coincidences = search._Pipeline.signed_coincidences

        def counting(pipeline, chis):
            values = signed_coincidences(pipeline, chis)
            seen.extend(zip(chis, values))
            return values

        monkeypatch.setattr(search._Pipeline, "signed_coincidences", counting)
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

    def test_root_row_reuses_the_last_mixer(self, evaluations, monkeypatch):
        """One mixer stack for the grid, one per Brent step, none for the
        root's row."""
        stacks = []

        def counting(f1, f2, chis):
            stacks.append(len(chis))
            return tritters_from_modes(f1, f2, chis)

        monkeypatch.setattr(search, "tritters_from_modes", counting)
        spec = self.criterion6_spec()
        (root,) = find_hom(spec)
        assert root.converged and root.chi == evaluations[-1][0]
        assert stacks == [spec.grid] + [1] * (len(evaluations) - spec.grid)

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


@st.composite
def profile_pairs(draw):
    """Two distinct gaussian, comb or tabulated profiles near omega = 100."""
    kind = draw(st.sampled_from(["gaussian", "comb", "table"]))
    centre, width = st.floats(92.0, 108.0), st.floats(0.5, 2.0)
    if kind == "gaussian":
        first = GaussianProfile(draw(centre), draw(width), draw(st.floats(0.0, 3.0)))
        offset = draw(st.floats(0.5, 6.0))
        return first, GaussianProfile(first.omega0 + offset, draw(width))
    weight, spacing = st.sampled_from([1.0, -1.0, 0.5j]), st.floats(1.0, 4.0)
    combs = []
    for _ in range(2):
        first, step = draw(centre), draw(spacing)
        lobes = draw(st.integers(1, 3))
        peaks = [(draw(weight), first + k * step, draw(width)) for k in range(lobes)]
        combs.append(make_comb(peaks))
    if kind == "comb":
        return tuple(combs)
    grid = np.linspace(80.0, 120.0, draw(st.integers(40, 200)))
    return tuple(TabulatedProfile(grid, c.evaluate(grid)) for c in combs)


def orthonormal(pair):
    try:
        return orthonormalize_pair(*pair)
    except GravTritterError:  # parallel draws
        return None


def per_chi_row(e1, e2, chi) -> SweepRow:
    """One chi by the one-profile and one-mixer API, the route of sweeps
    before they were batched: the redshifted pair, its overlap matrix with
    the pair, angles from the moduli, the mixer, then the state."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = [redshift_transform(e, chi) for e in (e1, e2)]
            (c11, c12), (c21, c22) = overlap_matrix(shifted, (e1, e2)).tolist()
        if not np.all(np.isfinite([c11, c12, c21, c22])):
            raise DomainError(
                f"redshift parameter chi = {chi} out of range: "
                "the redshifted overlaps overflow"
            )
        angles = angles_from_overlaps(abs(c11), abs(c22), abs(c21))
        u = build_tritter(angles)
        rho = trace_out_third(evolve_two_photon(u))
    except GravTritterError as exc:
        return SweepRow(chi, status=f"error:{exc}")
    rec = hom_record(u)
    return SweepRow(
        chi, angles.theta, angles.phi, angles.psi, rec.coefficient, rec.rho2020,
        rec.rho0202, rho.entry(1, 1, 1, 1).real, negativity(rho),
        negativity_lower_bound(rho),
    )


class TestBatchedPipeline:
    """The sweep's one array program over the chi grid against the
    per-chi route, bit for bit (repr tells -0.0 from 0.0 and matches NaN)."""

    @given(
        pair=profile_pairs(),
        chi_lo=st.sampled_from([1e-170, 1e-153, 1e-100, 0.9, 1.0]),
        chi_hi=st.sampled_from([1.0, 1.04, 1.5, 1e200]),
        grid=st.integers(2, 9),
    )
    def test_rows_equal_the_per_chi_route(self, pair, chi_lo, chi_hi, grid):
        spec = SweepSpec(*pair, chi_lo, chi_hi, grid)
        e12 = orthonormal(pair)
        if e12 is None:
            return
        want = [per_chi_row(*e12, chi) for chi in spec.chi_values().tolist()]
        got = sweep_chi(spec)
        assert [list(map(repr, astuple(r))) for r in got] == [
            list(map(repr, astuple(r))) for r in want
        ]

    @given(pair=profile_pairs(), chis=st.lists(st.floats(0.8, 1.25), max_size=8))
    def test_stacked_mixers_unitary_with_unit_determinant(self, pair, chis):
        e12 = orthonormal(pair)
        if e12 is None:
            return
        u, _angles, _overlaps, _errors = tritters_from_modes(*e12, [1.0, *chis])
        assert u.shape == (len(chis) + 1, 3, 3)
        assert np.max(np.abs(u[0] - np.eye(3))) < 1e-12  # identity at chi = 1
        gram = u @ np.conj(np.swapaxes(u, -1, -2))
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        assert np.max(np.abs(np.linalg.det(u) - 1.0)) < 1e-12

    def test_lobe_passes_do_not_grow_with_the_grid(self, monkeypatch):
        """Counting guard, no timing: a 70-point comb sweep makes as many
        lobe-overlap broadcasts as a 7-point one."""
        calls = []
        lobe_overlaps = modes._lobe_overlaps

        def counting(*args):
            calls.append(args)
            return lobe_overlaps(*args)

        monkeypatch.setattr(modes, "_lobe_overlaps", counting)
        f1, f2 = alternating_comb_pair()
        counts = []
        for grid in (7, 70):
            calls.clear()
            rows = sweep_chi(SweepSpec(f1, f2, 1.0, 1.03, grid))
            assert [r.status for r in rows] == ["ok"] * grid
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_grid_chunks_change_no_bit(self, monkeypatch):
        """A grid longer than a chunk runs in several array programs, with
        the rows and roots of one."""
        f1, f2 = alternating_comb_pair()
        spec = SweepSpec(f1, f2, 0.99, 1.03, 11, hom_tol=1e-11, population_floor=1e-4)
        whole = (sweep_chi(spec), find_hom(spec))
        stacks = []

        def counting(f1, f2, chis):
            stacks.append(len(chis))
            return tritters_from_modes(f1, f2, chis)

        monkeypatch.setattr(search, "_GRID_CHUNK", 4)
        monkeypatch.setattr(search, "tritters_from_modes", counting)
        rows = sweep_chi(spec)
        assert stacks == [4, 4, 3]
        assert [list(map(repr, astuple(r))) for r in rows] == [
            list(map(repr, astuple(r))) for r in whole[0]
        ]
        assert find_hom(spec) == whole[1] and whole[1]

    def test_orthogonality_checked_once_per_sweep(self, monkeypatch):
        calls = []
        inner_product = tritter.inner_product

        def counting(f, g):
            calls.append((f, g))
            return inner_product(f, g)

        monkeypatch.setattr(tritter, "inner_product", counting)
        f1, f2 = alternating_comb_pair()
        sweep_chi(SweepSpec(f1, f2, 1.0, 1.03, 7))
        assert len(calls) == 1
