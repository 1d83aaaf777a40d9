"""Acceptance suite: one test per release criterion, with a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion asserts its stated tolerance and runtime budget.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gravtritter import (
    FockState,
    GaussianProfile,
    StaticSchwarzschildConfig,
    SweepSpec,
    TritterAngles,
    apply_mixer,
    build_tritter,
    evolve_two_photon,
    find_hom,
    hom_coefficient,
    inner_product,
    make_comb,
    negativity,
    negativity_lower_bound,
    nogo_normalization,
    orthonormalize_pair,
    redshift_transform,
    schwarzschild_chi,
    trace_out_third,
    tritter_from_modes,
    weak_field_chi,
)
from gravtritter.cli import main
from gravtritter.geometry import SPEED_OF_LIGHT
from gravtritter.search import _Pipeline
from gravtritter.tritter import unitarity_residual
from conftest import gaussian_overlap


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s > {budget_s}s"
    print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.2f}s)")


def random_tritter(rng):
    t, p, s = rng.uniform(0.0, np.pi / 2, size=3)
    return build_tritter(TritterAngles(t, p, s))


def test_criterion_1_identity_limit():
    with criterion(1, "identity limit at chi=1", 1.0):
        e1, e2 = orthonormalize_pair(
            GaussianProfile(100.0, 1.0), GaussianProfile(104.0, 1.0)
        )
        u, _, _ = tritter_from_modes(e1, e2, 1.0)
        off_diag = np.abs(u - np.diag(np.diag(u)))
        assert np.max(off_diag) < 1e-8
        state = evolve_two_photon(u)
        assert state.fidelity(FockState.single((1, 1, 0))) > 1.0 - 1e-10
        assert negativity(trace_out_third(state)) < 1e-10


def test_criterion_2_unitarity_suite(rng):
    with criterion(2, "unitarity of 1000 random tritters", 1.0):
        worst_unitarity = 0.0
        worst_det = 0.0
        for _ in range(1000):
            u = random_tritter(rng)
            worst_unitarity = max(worst_unitarity, unitarity_residual(u))
            worst_det = max(worst_det, abs(np.linalg.det(u) - 1.0))
        assert worst_unitarity < 1e-12
        assert worst_det < 1e-12


def test_criterion_3_two_photon_oracle_equivalence(rng):
    with criterion(3, "closed form vs permanent rule", 5.0):
        for _ in range(1000):
            u = random_tritter(rng)
            fast = evolve_two_photon(u)
            slow = apply_mixer(FockState.single((1, 1, 0)), u)
            keys = set(fast.amplitudes) | set(slow.amplitudes)
            assert max(abs(fast.amplitude(k) - slow.amplitude(k)) for k in keys) < 1e-12


def test_criterion_4_hom_reproduction():
    with criterion(4, "balanced-splitter interference", 1.0):
        u = build_tritter(TritterAngles(0.0, np.pi / 4, 0.0))
        assert hom_coefficient(u) < 1e-14
        state = evolve_two_photon(u)
        assert abs(state.amplitude((1, 1, 0))) < 1e-14
        rho = trace_out_third(state)
        assert rho.entry(2, 0, 2, 0) == pytest.approx(0.5, abs=1e-12)
        assert rho.entry(0, 2, 0, 2) == pytest.approx(0.5, abs=1e-12)
        assert rho.entry(2, 0, 0, 2) == pytest.approx(-0.5, abs=1e-12)
        assert rho.entry(0, 2, 2, 0) == pytest.approx(-0.5, abs=1e-12)
        # third mode stays in vacuum, so the reduced state is the pure
        # Bell-like state and its negativity is exactly one half
        assert negativity(rho) == pytest.approx(0.5, abs=1e-10)


def test_criterion_5_lower_bound_dominance(rng):
    with criterion(5, "negativity bound dominance", 10.0):
        strict = 0
        for _ in range(1000):
            rho = trace_out_third(evolve_two_photon(random_tritter(rng)))
            n = negativity(rho)
            b = negativity_lower_bound(rho)
            assert n >= b - 1e-10
            big_coherence = (
                abs(rho.entry(0, 2, 1, 1)) > 1e-3 or abs(rho.entry(2, 0, 1, 1)) > 1e-3
            )
            if big_coherence and n > b + 1e-8:
                strict += 1
        assert strict > 0


def test_criterion_6_hom_structure_claim():
    with criterion(6, "vanishing coincidence kills |11> coherences", 10.0):
        checked = 0
        # analytic family with exactly vanishing coincidence amplitude
        for t in np.linspace(0.0, np.pi / 2, 20):
            u = build_tritter(TritterAngles(t, np.pi / 4, 0.0))
            assert hom_coefficient(u) < 1e-10
            rho = trace_out_third(evolve_two_photon(u))
            assert abs(rho.entry(1, 1, 1, 1)) < 1e-9
            assert abs(rho.entry(0, 2, 1, 1)) < 1e-9
            assert abs(rho.entry(2, 0, 1, 1)) < 1e-9
            checked += 1
        # gravitationally induced roots from the alternating-comb sweep
        f1 = make_comb([(1, 100, 1), (-1, 104, 1), (1, 108, 1)])
        f2 = make_comb([(1, 102, 1), (-1, 106, 1), (1, 110, 1)])
        spec = SweepSpec(f1, f2, 1.0, 1.012, 5, hom_tol=1e-11, population_floor=1e-4)
        roots = find_hom(spec)
        assert roots
        pipeline = _Pipeline(spec)
        for root in roots:
            u, _, _ = tritter_from_modes(pipeline.e1, pipeline.e2, root.chi)
            assert hom_coefficient(u) < 1e-10
            rho = trace_out_third(evolve_two_photon(u))
            assert abs(rho.entry(1, 1, 1, 1)) < 1e-9
            assert abs(rho.entry(0, 2, 1, 1)) < 1e-9
            assert abs(rho.entry(2, 0, 1, 1)) < 1e-9
            checked += 1
        assert checked >= 21


def test_criterion_7_mode_transform_invariances():
    with criterion(7, "redshift invariances of profiles", 5.0):
        gaussian_pair = orthonormalize_pair(
            GaussianProfile(100.0, 1.0), GaussianProfile(103.0, 1.0)
        )
        comb_pair = orthonormalize_pair(
            make_comb([(1, 100, 1), (-1, 104, 1)]),
            make_comb([(1, 102, 1), (1, 106, 1)]),
        )
        for chi in (0.5, 0.9, 1.1, 2.0):
            for e1, e2 in (gaussian_pair, comb_pair):
                t1 = redshift_transform(e1, chi)
                t2 = redshift_transform(e2, chi)
                assert abs(inner_product(t1, t1) - 1.0) < 1e-8
                assert abs(inner_product(t2, t2) - 1.0) < 1e-8
                assert abs(
                    inner_product(t1, t2) - inner_product(e1, e2)
                ) < 1e-8
            # half-line lobe sum against the full-line gaussian overlap oracle
            g1 = GaussianProfile(100.0, 1.0)
            g1p = redshift_transform(g1, chi)
            got = inner_product(g1p, g1)
            want = gaussian_overlap(
                100.0 / chi**2, 1.0 / chi**2, 100.0, 1.0
            )
            assert abs(got - want) < 1e-8


def test_criterion_8_geometry():
    with criterion(8, "Schwarzschild chi and weak-field oracle", 1.0):
        chi = schwarzschild_chi(StaticSchwarzschildConfig(2.0, 4.0, 8.0))
        assert chi == pytest.approx(1.10668, abs=1e-5)
        swapped = schwarzschild_chi(StaticSchwarzschildConfig(2.0, 8.0, 4.0))
        assert swapped == pytest.approx(1.0 / chi, abs=1e-14)
        r_s, r_a = 8.87e-3, 6.371e6
        r_b = r_a + 1e5
        exact = schwarzschild_chi(StaticSchwarzschildConfig(r_s, r_a, r_b))
        g = r_s * SPEED_OF_LIGHT**2 / (2.0 * r_a * r_b)
        weak = weak_field_chi(g, r_b - r_a)
        assert exact - 1.0 == pytest.approx(weak - 1.0, rel=1e-6)


def test_criterion_9_nogo_demonstration():
    with criterion(9, "naive shift is non-unitary except chi=1", 1.0):
        for chi in np.linspace(0.25, 2.0, 29):
            value = nogo_normalization(chi)
            assert value == pytest.approx(1.0 / chi**2, abs=1e-15)
            if abs(chi - 1.0) < 1e-12:
                assert abs(value - 1.0) < 1e-12
            else:
                assert abs(value - 1.0) > 1e-12


def test_criterion_10_disjoint_modes_negative_control():
    with criterion(10, "separated bells destroy interference", 5.0):
        e1, e2 = orthonormalize_pair(
            GaussianProfile(100.0, 1.0), GaussianProfile(140.0, 1.0)
        )
        for chi in (1.0, 1.025, 1.05):
            _, _, rec = tritter_from_modes(e1, e2, chi)
            assert rec.o21 < 1e-9  # |<F2',F1>|, the modulus behind U21
            assert rec.o12 < 1e-9  # diagnostic |<F1',F2>|
        spec = SweepSpec(
            GaussianProfile(100.0, 1.0), GaussianProfile(140.0, 1.0), 1.0, 1.05, 5
        )
        assert find_hom(spec) == []


def test_criterion_11_sweep_determinism(tmp_path):
    with criterion(11, "byte-identical repeated sweeps", 5.0):
        config = {
            "mode1": {"kind": "gaussian", "omega0": 100.0, "sigma": 1.0},
            "mode2": {"kind": "gaussian", "omega0": 104.0, "sigma": 1.0},
            "chi_lo": 1.0,
            "chi_hi": 1.02,
            "grid": 5,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
