"""Tests for pulses, adiabatic and stepwise evolution, and the phase ledger."""

import dataclasses
import functools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import chernscope.interferometer
import chernscope.lattice
from chernscope import (
    DEFAULT_GEOMETRY,
    GaplessPoint,
    KPath,
    MalformedPlan,
    ModelParams,
    apply_pi,
    apply_pi2,
    evolve_adiabatic,
    evolve_tdse,
    initial_state,
    landau_zener_estimate,
    noncyclic_zak,
    plan_site,
    perturb_plan,
    readout,
    readout_scan,
    run_fringe,
    validate_plan,
    wrap_angle,
)
from chernscope.interferometer import _leg_propagator

P0 = ModelParams()

# Ledger values at samples_per_leg=2000, frozen from the dual-route check
# against the open-path Zak phase of the concatenated leg pair.
SITE_I_PHASE = 2.8360915281025494
SITE_II_PHASE = -1.3526986766838414
NO_ECHO_GEOMETRIC_I = 0.30550112548724373
LZ_FAST = 0.444858066222941
LEAK_FAST_DOWN = 0.7575582247702286
LEAK_FAST_UP = 0.479697377560215


def evolve_site(site, **kwargs):
    samples = kwargs.pop("samples_per_leg", 2000)
    zeeman_rate = kwargs.pop("zeeman_rate", 0.0)
    plan = plan_site(site, P0, samples_per_leg=samples, **kwargs)
    return evolve_adiabatic(initial_state(), plan, P0, zeeman_rate=zeeman_rate)


# ------------------------------------------------------------------ pulses


def test_pi2_pulse_splits_evenly():
    state = apply_pi2(initial_state(), 0.0)
    assert state.amp_down == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert state.amp_up == pytest.approx(1j / np.sqrt(2), abs=1e-15)


def test_two_pi2_pulses_invert_population():
    state = apply_pi2(apply_pi2(initial_state(), 0.0), 0.0)
    n_down, n_up = readout(state)
    assert n_down == pytest.approx(0.0, abs=1e-14)
    assert n_up == pytest.approx(1.0, abs=1e-14)


def test_pulse_phase_shifts_fringe():
    # The pulse phase enters the up amplitude as exp(i phi_mw).
    for phi in (0.3, -1.2, 2.9):
        state = apply_pi2(initial_state(), phi)
        assert np.angle(state.amp_up) == pytest.approx(
            wrap_angle(np.pi / 2 + phi), abs=1e-12
        )


@given(
    st.floats(-np.pi, np.pi, allow_nan=False),
    st.floats(0.05, 0.95),
    st.floats(-np.pi, np.pi, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_pi2_pulse_is_unitary(phi_mw, weight, rel_phase):
    base = initial_state()
    mixed = dataclasses.replace(
        base,
        amp_down=complex(np.sqrt(weight)),
        amp_up=np.sqrt(1 - weight) * np.exp(1j * rel_phase),
    )
    out = apply_pi2(mixed, phi_mw)
    assert out.norm == pytest.approx(1.0, abs=1e-12)


def test_pi_pulse_is_involutive():
    state = apply_pi2(initial_state(), 0.4)
    back = apply_pi(apply_pi(state))
    assert back.amp_down == pytest.approx(state.amp_down, abs=1e-15)
    assert back.amp_up == pytest.approx(state.amp_up, abs=1e-15)
    assert np.allclose(back.k_down, state.k_down)


def test_state_norm_validated():
    with pytest.raises(ValueError):
        dataclasses.replace(initial_state(), amp_down=0.5)


def test_evolution_requires_pure_spin_down():
    split = apply_pi2(initial_state(), 0.0)
    with pytest.raises(ValueError):
        evolve_adiabatic(split, plan_site("I", P0), P0)


# ------------------------------------------------------------ phase ledger


def test_site_phases_match_frozen_values():
    _, ledger_i = evolve_site("I")
    _, ledger_ii = evolve_site("II")
    assert ledger_i.pancharatnam_phase == pytest.approx(SITE_I_PHASE, abs=1e-12)
    assert ledger_ii.pancharatnam_phase == pytest.approx(SITE_II_PHASE, abs=1e-12)


def test_ledger_matches_open_path_zak():
    """Dual route: the ledger's two-leg Pancharatnam phase must equal the
    noncyclic Zak phase of the reversed-up + down concatenated path."""
    plan = plan_site("I", P0, samples_per_leg=2000)
    _, ledger = evolve_adiabatic(initial_state(), plan, P0)
    pair = KPath(
        np.concatenate([plan.k_path_up.points[::-1], plan.k_path_down.points[1:]])
    )
    assert ledger.pancharatnam_phase == pytest.approx(
        noncyclic_zak(P0, pair), abs=1e-10
    )


def test_nominal_ledger_has_no_dynamic_or_zeeman_phase():
    for site in ("I", "II"):
        _, ledger = evolve_site(site)
        assert ledger.dynamic == pytest.approx(0.0, abs=1e-12)
        assert ledger.zeeman == 0.0
        assert ledger.total == pytest.approx(ledger.geometric, abs=1e-12)


def test_echo_cancels_zeeman_phase_exactly():
    _, ledger = evolve_site("I", zeeman_rate=0.02)
    assert ledger.zeeman == 0.0
    assert ledger.total == pytest.approx(SITE_I_PHASE, abs=1e-12)


def test_no_echo_ledger_transforms():
    _, ledger = evolve_site("I", with_echo=False, zeeman_rate=0.02)
    assert ledger.geometric == pytest.approx(NO_ECHO_GEOMETRIC_I, abs=1e-12)
    assert ledger.geometric == pytest.approx(
        wrap_angle(np.pi - ledger.pancharatnam_phase), abs=1e-12
    )
    # Without the echo the full differential Zeeman phase survives.
    assert ledger.zeeman == pytest.approx(-0.02 * 200.0, abs=1e-12)
    assert ledger.total == pytest.approx(
        wrap_angle(ledger.geometric + ledger.dynamic + ledger.zeeman), abs=1e-12
    )


def test_ledger_gauge_invariant():
    # A pure function of k, so every band_states call inside the evolution
    # applies the same rotation to the same momentum.
    def gauge(kpts):
        kpts = np.asarray(kpts)
        return 2.7 * np.sin(3.1 * kpts[..., 0]) + 1.3 * np.cos(2.3 * kpts[..., 1])

    plan = plan_site("I", P0, samples_per_leg=600)
    _, plain = evolve_adiabatic(initial_state(), plan, P0)
    _, rotated = evolve_adiabatic(initial_state(), plan, P0, gauge_fn=gauge)
    assert rotated.total == pytest.approx(plain.total, abs=1e-10)
    assert rotated.pancharatnam_phase == pytest.approx(
        plain.pancharatnam_phase, abs=1e-10
    )


# ---------------------------------------------------------------- fringes


@pytest.mark.parametrize("with_echo", [True, False])
def test_fringe_law_pointwise(with_echo):
    """N_up must equal (1 - cos(total - phi_mw)) / 2 at every pulse phase."""
    phi = np.linspace(-np.pi, np.pi, 41)
    scan = run_fringe(
        P0, "I", phi, with_echo=with_echo, zeeman_rate=0.01, samples_per_leg=800
    )
    law = 0.5 * (1.0 - np.cos(scan.ledger.total - phi))
    assert np.max(np.abs(scan.n_up - law)) < 1e-9
    assert np.allclose(scan.n_down + scan.n_up, 1.0, atol=1e-12)


def test_run_fringe_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_fringe(P0, "I", [0.0, 1.0], mode="exact")


def test_run_fringe_accepts_prebuilt_plan():
    plan = perturb_plan(plan_site("I", P0, samples_per_leg=600), radius=0.002, seed=1)
    scan = run_fringe(P0, "II", [0.0, 0.5, 1.0], plan=plan)
    assert scan.site == "I"
    assert scan.n_up.shape == (3,)


# ------------------------------------------------------- stepwise evolution


def test_slow_drive_stays_in_band():
    plan = plan_site("I", P0, leg_time=400.0, samples_per_leg=2000)
    _, diag = evolve_tdse(initial_state(), plan, P0)
    assert diag.leakage_down < 1e-3
    assert diag.leakage_up < 1e-3
    assert diag.leakage_down == pytest.approx(3.0182791366240025e-07, rel=1e-6)
    assert diag.leakage_up == pytest.approx(4.010248222385826e-08, rel=1e-6)
    assert diag.norm_drift < 1e-8


def test_slow_drive_phase_matches_adiabatic():
    plan = plan_site("I", P0, leg_time=400.0, samples_per_leg=2000)
    _, diag = evolve_tdse(initial_state(), plan, P0)
    _, ledger = evolve_adiabatic(initial_state(), plan, P0)
    assert abs(diag.extracted_phase - ledger.total) < 1e-2
    assert abs(diag.extracted_phase - ledger.total) == pytest.approx(
        2.0767202520755035e-05, abs=1e-7
    )


def test_step_halving_converged():
    plan = plan_site("I", P0, leg_time=400.0, samples_per_leg=2000)
    _, coarse = evolve_tdse(initial_state(), plan, P0)
    _, fine = evolve_tdse(initial_state(), plan, P0, dt=coarse.dt / 2)
    assert abs(fine.extracted_phase - coarse.extracted_phase) < 1e-6


def test_fast_drive_leaks_like_landau_zener():
    plan = plan_site("I", P0, leg_time=2.0, samples_per_leg=400)
    estimate = landau_zener_estimate(P0, plan)
    assert estimate == pytest.approx(LZ_FAST, abs=1e-9)
    _, diag = evolve_tdse(initial_state(), plan, P0)
    assert diag.leakage_down == pytest.approx(LEAK_FAST_DOWN, rel=1e-9)
    assert diag.leakage_up == pytest.approx(LEAK_FAST_UP, rel=1e-9)
    for leak in (diag.leakage_down, diag.leakage_up):
        assert estimate / 3 < leak < estimate * 3


def test_tdse_step_size_precondition():
    plan = plan_site("I", P0, leg_time=2.0, samples_per_leg=400)
    with pytest.raises(ValueError):
        evolve_tdse(initial_state(), plan, P0, dt=0.01)


def test_tdse_fringe_keeps_populations_physical():
    phi = np.linspace(-np.pi, np.pi, 9)
    scan = run_fringe(
        P0, "I", phi, mode="tdse", leg_time=2.0, samples_per_leg=400
    )
    total = scan.n_down + scan.n_up
    assert np.all(total <= 1.0 + 1e-12)
    assert np.all(total >= 0.0)
    # Leaked weight is excluded from the two-level readout.
    expected = 1.0 - (scan.diagnostics.leakage_down + scan.diagnostics.leakage_up) / 2
    assert np.allclose(total, expected, atol=1e-12)


def test_initial_state_defaults_to_zone_center():
    state = initial_state()
    assert np.allclose(state.k_down, np.zeros(2))
    assert np.allclose(state.k_up, np.zeros(2))
    assert state.amp_down == 1.0 + 0j
    assert state.amp_up == 0j
    custom = initial_state(k=np.array([0.2, 0.1]))
    assert np.allclose(custom.k_down, [0.2, 0.1])


def test_wrap_angle_range():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(2 * np.pi + 0.3) == pytest.approx(0.3, abs=1e-12)
    assert wrap_angle(-np.pi - 0.1) == pytest.approx(np.pi - 0.1, abs=1e-12)
    for x in np.linspace(-12.0, 12.0, 101):
        w = wrap_angle(x)
        assert -np.pi - 1e-12 < w <= np.pi + 1e-12
        assert np.cos(w) == pytest.approx(np.cos(x), abs=1e-12)
        assert np.sin(w) == pytest.approx(np.sin(x), abs=1e-12)


@functools.lru_cache(maxsize=None)
def _end_state(mode):
    """Site I end state before the readout pulse; the TDSE one leaks."""
    if mode == "adiabatic":
        return evolve_site("I")[0]
    plan = plan_site("I", P0, leg_time=2.0, samples_per_leg=400)
    return evolve_tdse(initial_state(), plan, P0)[0]


@pytest.mark.parametrize("mode", ["adiabatic", "tdse"])
@given(
    st.lists(
        st.floats(min_value=-7.0, max_value=7.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_readout_scan_matches_pointwise_pulse(mode, phis):
    end = _end_state(mode)
    if mode == "tdse":
        assert end.upper_band_population > 0.1
    n_down, n_up = readout_scan(end, np.array(phis))
    for phi, down, up in zip(phis, n_down, n_up):
        ref_down, ref_up = readout(apply_pi2(end, phi))
        assert abs(down - ref_down) <= 1e-15
        assert abs(up - ref_up) <= 1e-15


# ------------------------------------------------------------ field passes


@pytest.fixture
def field_calls(monkeypatch):
    """Momenta of every ``bloch_fields`` call, as (n, 2) arrays, in order.

    The counter replaces the function in every chernscope module that holds
    it, so calls from inside the package are seen too.
    """
    original = chernscope.lattice.bloch_fields
    calls = []

    def counting(kpts, p):
        calls.append(np.asarray(kpts, dtype=float).reshape(-1, 2))
        return original(kpts, p)

    for name, module in list(sys.modules.items()):
        if name == "chernscope" or name.startswith("chernscope."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_adiabatic_evolution_evaluates_each_leg_once(field_calls):
    plan = plan_site("I", P0, samples_per_leg=300)
    legs = (plan.k_path_down.points, plan.k_path_up.points)
    state = initial_state()
    assert field_calls == []
    evolve_adiabatic(state, plan, P0)
    assert len(field_calls) == 2
    for leg, kpts in zip(legs, field_calls):
        assert np.array_equal(kpts, leg)


def test_tdse_evaluates_leg_samples_once_besides_midpoints(field_calls):
    plan = plan_site("I", P0, leg_time=2.0, samples_per_leg=300)
    legs = (plan.k_path_down.points, plan.k_path_up.points)
    state = initial_state()
    _, diagnostics = evolve_tdse(state, plan, P0)
    midpoint_calls = [k for k in field_calls if len(k) == diagnostics.n_steps]
    others = [k for k in field_calls if len(k) != diagnostics.n_steps]
    assert len(midpoint_calls) == 2
    assert [len(k) for k in others] == [len(legs[0]), len(legs[1])]
    assert np.array_equal(others[0], legs[0])
    assert np.array_equal(others[1], legs[1])


@pytest.mark.parametrize("evolve", [evolve_adiabatic, evolve_tdse])
def test_malformed_plan_raises_before_gap_check(evolve):
    """A leg through a gapless point: the endpoint check still comes first,
    so a malformed plan keeps its MalformedPlan exit code."""
    p = ModelParams(tp=0.0)
    plan = plan_site("I", p, leg_time=2.0, samples_per_leg=40)
    kpath = KPath(
        np.stack([plan.start, DEFAULT_GEOMETRY.K, plan.endpoint_down])
    )
    gapless = dataclasses.replace(plan, k_path_down=kpath)
    broken = dataclasses.replace(gapless, endpoint_down=plan.endpoint_down + 0.1)
    with pytest.raises(MalformedPlan):
        evolve(initial_state(), broken, p)
    with pytest.raises(GaplessPoint):  # the well-formed plan fails its gap check
        evolve_adiabatic(initial_state(), gapless, p)


# ------------------------------------------------------------ step product


def _dense_step(h0, hx, hy, hz, dt):
    """exp(-i H dt) of the explicit 2x2 Hamiltonian, by diagonalization."""
    h = np.array([[h0 + hz, hx - 1j * hy], [hx + 1j * hy, h0 - hz]])
    e, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * e * dt)) @ v.conj().T


@given(
    n=st.integers(min_value=1, max_value=257),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dt=st.floats(min_value=1e-3, max_value=1.0),
    zero=st.integers(min_value=0, max_value=256),
)
@example(n=1, seed=0, dt=0.37, zero=0)
@example(n=2, seed=1, dt=0.37, zero=1)
@example(n=3, seed=2, dt=0.37, zero=2)
@example(n=128, seed=3, dt=0.37, zero=64)
@example(n=255, seed=4, dt=0.37, zero=0)
@example(n=256, seed=5, dt=0.37, zero=255)
@example(n=257, seed=6, dt=0.37, zero=256)
@settings(max_examples=40, deadline=None)
def test_leg_propagator_matches_dense_product(n, seed, dt, zero):
    """The (a, b) pair product and its phase against explicit 2x2 step
    matrices multiplied in time order, later @ earlier."""
    fields = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(4, n))
    zero %= n
    fields[1:, zero] = 0.0  # at least one step with zero field
    phase, a, b = _leg_propagator(tuple(fields), dt)

    ref_su2 = np.eye(2, dtype=complex)
    ref_phase = 1.0 + 0.0j
    ref = np.eye(2, dtype=complex)
    for h0, hx, hy, hz in fields.T:
        ref_su2 = _dense_step(0.0, hx, hy, hz, dt) @ ref_su2
        ref_phase = np.exp(-1j * h0 * dt) * ref_phase
        ref = _dense_step(h0, hx, hy, hz, dt) @ ref
    assert abs(a - ref_su2[0, 0]) <= 1e-12
    assert abs(b - ref_su2[1, 0]) <= 1e-12
    assert abs(-np.conj(b) - ref_su2[0, 1]) <= 1e-12
    assert abs(np.conj(a) - ref_su2[1, 1]) <= 1e-12
    assert abs(phase - ref_phase) <= 1e-12
    total = phase * np.array([[a, -np.conj(b)], [b, np.conj(a)]])
    assert np.max(np.abs(total - ref)) <= 1e-12


def test_tdse_step_budget_refuses_before_allocating(monkeypatch, field_calls):
    plan = plan_site("I", P0, leg_time=20.0, samples_per_leg=400)
    _, diag = evolve_tdse(initial_state(), plan, P0)
    assert 1000 < diag.n_steps < 10000
    monkeypatch.setattr(chernscope.interferometer, "MAX_TDSE_STEPS", diag.n_steps)
    _, at_budget = evolve_tdse(initial_state(), plan, P0)
    assert at_budget == diag
    monkeypatch.setattr(
        chernscope.interferometer, "MAX_TDSE_STEPS", diag.n_steps - 1
    )
    field_calls.clear()
    with pytest.raises(ValueError, match="budget"):
        evolve_tdse(initial_state(), plan, P0)
    legs = (plan.k_path_down.points, plan.k_path_up.points)
    assert [len(k) for k in field_calls] == [len(k) for k in legs]


@pytest.mark.parametrize("leg_time", [2.0, 400.0])
def test_tdse_diagnostics_carry_plan_xi(leg_time, field_calls):
    plan = plan_site("I", P0, leg_time=leg_time, samples_per_leg=400)
    _, diag = evolve_tdse(initial_state(), plan, P0)
    assert len(field_calls) == 4  # two legs, two midpoint sets
    assert diag.xi == validate_plan(plan, P0).xi
