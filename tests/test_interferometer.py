"""Tests for pulses, adiabatic and stepwise evolution, and the phase ledger."""

import dataclasses
import functools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import chernscope.interferometer
import chernscope.lattice
import chernscope.topology
from chernscope import (
    K,
    GaplessPoint,
    KPath,
    ModelParams,
    SpinorState,
    apply_pi2,
    evolve_adiabatic,
    evolve_endpoints,
    evolve_tdse,
    initial_state,
    landau_zener_estimate,
    noncyclic_zak,
    plan_site,
    perturb_plan,
    readout,
    run_fringe,
    validate_plan,
    wrap_angle,
)
from chernscope.interferometer import (
    _close,
    _line_propagator,
    _stacked_readout,
    _step_pairs,
    _su2_product,
)
from chernscope.protocol import leg_pass, plan_arrays

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
    plan = plan_site(site, samples_per_leg=samples, **kwargs)
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


def test_state_norm_validated():
    with pytest.raises(ValueError):
        dataclasses.replace(initial_state(), amp_down=0.5)


def test_closed_amplitudes_get_the_state_norm_check():
    """The pass's closed amplitudes, an array over the batch, are held to
    the state's norm tolerance with its message, naming the worst row."""
    amplitudes = np.array([[1.0, 1.0], [0.5, 1.0], [1.0, 0.9]], dtype=complex)
    ones = np.ones(3)
    with pytest.raises(ValueError) as got:
        _close(amplitudes, ones.astype(complex), ones, 0.0, True)
    split = apply_pi2(initial_state(), 0.0)
    with pytest.raises(ValueError) as expected:
        SpinorState(split.amp_up, 0.5 * split.amp_down)  # the echo's exchange
    assert str(got.value) == str(expected.value)
    assert _close(amplitudes[:1], ones[:1], ones[:1], 0.0, True).shape == (1, 2)


def test_evolution_requires_pure_spin_down():
    split = apply_pi2(initial_state(), 0.0)
    with pytest.raises(ValueError):
        evolve_adiabatic(split, plan_site("I"), P0)


# ------------------------------------------------------------ phase ledger


def test_site_phases_match_frozen_values():
    _, ledger_i = evolve_site("I")
    _, ledger_ii = evolve_site("II")
    assert ledger_i.pancharatnam_phase == pytest.approx(SITE_I_PHASE, abs=1e-12)
    assert ledger_ii.pancharatnam_phase == pytest.approx(SITE_II_PHASE, abs=1e-12)


def test_ledger_matches_open_path_zak():
    """Dual route: the ledger's two-leg Pancharatnam phase must equal the
    noncyclic Zak phase of the reversed-up + down concatenated path."""
    plan = plan_site("I", samples_per_leg=2000)
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

    plan = plan_site("I", samples_per_leg=600)
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
    plan = plan_site("I", with_echo=with_echo, samples_per_leg=800)
    scan = run_fringe(P0, plan, phi, zeeman_rate=0.01)
    law = 0.5 * (1.0 - np.cos(scan.ledger.total - phi))
    assert np.max(np.abs(scan.n_up - law)) < 1e-9
    assert np.allclose(scan.n_down + scan.n_up, 1.0, atol=1e-12)


def test_run_fringe_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_fringe(P0, plan_site("I"), [0.0, 1.0], mode="exact")


def test_run_fringe_accepts_prebuilt_plan():
    plan = perturb_plan(plan_site("I", samples_per_leg=600), radius=0.002, seed=1)
    scan = run_fringe(P0, plan, [0.0, 0.5, 1.0])
    assert scan.site == "I"
    assert scan.n_up.shape == (3,)


# ------------------------------------------------------- stepwise evolution


def test_slow_drive_stays_in_band():
    plan = plan_site("I", leg_time=400.0, samples_per_leg=2000)
    _, diag = evolve_tdse(initial_state(), plan, P0)
    assert diag.leakage_down < 1e-3
    assert diag.leakage_up < 1e-3
    assert diag.leakage_down == pytest.approx(3.0182791366240025e-07, rel=1e-6)
    assert diag.leakage_up == pytest.approx(4.010248222385826e-08, rel=1e-6)
    assert diag.norm_drift < 1e-8


def test_slow_drive_phase_matches_adiabatic():
    plan = plan_site("I", leg_time=400.0, samples_per_leg=2000)
    _, diag = evolve_tdse(initial_state(), plan, P0)
    _, ledger = evolve_adiabatic(initial_state(), plan, P0)
    assert abs(diag.extracted_phase - ledger.total) < 1e-2
    assert abs(diag.extracted_phase - ledger.total) == pytest.approx(
        2.0767202520755035e-05, abs=1e-7
    )


def test_step_halving_converged():
    plan = plan_site("I", leg_time=400.0, samples_per_leg=2000)
    _, coarse = evolve_tdse(initial_state(), plan, P0)
    _, fine = evolve_tdse(initial_state(), plan, P0, dt=coarse.dt / 2)
    assert abs(fine.extracted_phase - coarse.extracted_phase) < 1e-6


def test_fast_drive_leaks_like_landau_zener():
    plan = plan_site("I", leg_time=2.0, samples_per_leg=400)
    estimate = landau_zener_estimate(P0, plan)
    assert estimate == pytest.approx(LZ_FAST, abs=1e-9)
    _, diag = evolve_tdse(initial_state(), plan, P0)
    assert diag.leakage_down == pytest.approx(LEAK_FAST_DOWN, rel=1e-9)
    assert diag.leakage_up == pytest.approx(LEAK_FAST_UP, rel=1e-9)
    for leak in (diag.leakage_down, diag.leakage_up):
        assert estimate / 3 < leak < estimate * 3


def test_tdse_step_size_precondition():
    plan = plan_site("I", leg_time=2.0, samples_per_leg=400)
    with pytest.raises(ValueError):
        evolve_tdse(initial_state(), plan, P0, dt=0.01)


def test_tdse_fringe_keeps_populations_physical():
    phi = np.linspace(-np.pi, np.pi, 9)
    plan = plan_site("I", leg_time=2.0, samples_per_leg=400)
    scan = run_fringe(P0, plan, phi, mode="tdse")
    total = scan.n_down + scan.n_up
    assert np.all(total <= 1.0 + 1e-12)
    assert np.all(total >= 0.0)
    # Leaked weight is excluded from the two-level readout.
    expected = 1.0 - (scan.diagnostics.leakage_down + scan.diagnostics.leakage_up) / 2
    assert np.allclose(total, expected, atol=1e-12)


def test_tdse_zeeman_phase_survives_without_echo():
    """The stepwise route takes the ledger's Zeeman phase, the rate times
    the signed leg time, and run_fringe hands it the rate."""
    plan = plan_site("I", leg_time=2.0, with_echo=False, samples_per_leg=400)
    _, still = evolve_tdse(initial_state(), plan, P0)
    _, driven = evolve_tdse(initial_state(), plan, P0, zeeman_rate=0.02)
    shift = wrap_angle(driven.extracted_phase - still.extracted_phase)
    assert shift == pytest.approx(-0.02 * 2.0, abs=1e-12)
    phi = np.linspace(-np.pi, np.pi, 9)
    moved = run_fringe(P0, plan, phi, mode="tdse", zeeman_rate=0.02)
    assert np.allclose(
        moved.n_up, run_fringe(P0, plan, phi + 0.04, mode="tdse").n_up, atol=1e-12
    )


def test_initial_state_defaults_to_zone_center():
    state = initial_state()
    assert state.amp_down == 1.0 + 0j
    assert state.amp_up == 0j


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
    plan = plan_site("I", leg_time=2.0, samples_per_leg=400)
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
def test_stacked_readout_matches_pointwise_pulse(mode, phis):
    """The one stacked readout, over two trials of two plans, each plan at
    its own row of pulse phases, is pointwise the pulse of apply_pi2 and
    readout; the second trial's states are the first's slots swapped."""
    end = _end_state(mode)
    if mode == "tdse":
        assert end.upper_band_population > 0.1
    swapped = SpinorState(end.amp_up, end.amp_down, end.upper_band_population)
    states = [end, swapped, swapped, end]
    phases = np.array([phis, phis[::-1]])
    n_down, n_up = _stacked_readout(
        [(s.amp_down, s.amp_up) for s in states], phases
    )
    assert n_down.shape == n_up.shape == (2, 2, len(phis))
    for j, state in enumerate(states):
        trial, plan = divmod(j, 2)
        for phi, down, up in zip(
            phases[plan], n_down[trial, plan], n_up[trial, plan]
        ):
            ref_down, ref_up = readout(apply_pi2(state, phi))
            assert abs(down - ref_down) <= 1e-15
            assert abs(up - ref_up) <= 1e-15


# ------------------------------------------------------------ field passes


@dataclasses.dataclass
class FieldCalls:
    """Arguments of the field routines' calls, in order: ``bloch`` holds the
    momenta of each ``bloch_fields`` call as an (n, 2) array, ``line`` the
    (k0, step, n) of each ``line_fields`` call."""

    bloch: list = dataclasses.field(default_factory=list)
    line: list = dataclasses.field(default_factory=list)


@pytest.fixture
def field_calls(monkeypatch):
    """Records every ``bloch_fields`` and ``line_fields`` call.

    The counters replace the functions in every chernscope module that holds
    them, so calls from inside the package are seen too.
    """
    calls = FieldCalls()
    bloch = chernscope.lattice.bloch_fields
    line = chernscope.lattice.line_fields

    def counting_bloch(kpts, p):
        calls.bloch.append(np.asarray(kpts, dtype=float).reshape(-1, 2))
        return bloch(kpts, p)

    def counting_line(k0, step, n, p):
        calls.line.append((np.array(k0, dtype=float), np.array(step, dtype=float), n))
        return line(k0, step, n, p)

    for name, module in list(sys.modules.items()):
        if name == "chernscope" or name.startswith("chernscope."):
            for attr, value in list(vars(module).items()):
                if value is bloch:
                    monkeypatch.setattr(module, attr, counting_bloch)
                elif value is line:
                    monkeypatch.setattr(module, attr, counting_line)
    return calls


def _stacked_legs(plan, legs=2):
    """The samples of the plan's first ``legs`` legs, down leg first: both
    legs make the (plans, 2, n + 1) stack of the one field pass, which
    sends ``bloch_fields`` both legs of a plan whose up endpoint is moved
    and the down leg alone of a site plan, whose up leg is its mirror."""
    return np.concatenate([plan.k_path_down.points, plan.k_path_up.points][:legs])


def _moved_up(plan):
    """The plan with its up endpoint moved by 1e-3, so its legs do not
    mirror under ky -> -ky."""
    return dataclasses.replace(plan, endpoint_up=plan.endpoint_up + 1e-3)


def test_adiabatic_evolution_evaluates_each_leg_once(monkeypatch, field_calls):
    """One ``bloch_fields`` call, each sample once: a site plan sends only
    its down leg's 301 samples, as its up leg is the down leg's mirror, and
    a plan with a moved up endpoint sends both legs' 602.  One link kernel
    call over the whole (plans, 2, n + 1) stack, the up leg included,
    states built only at the legs' end samples, and no ``transport_link``
    call."""
    site = plan_site("I", samples_per_leg=300)
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def count(fields, kpts, *args, **kwargs):
            calls.append((name, np.shape(fields[1]), np.array(kpts)))
            return original(fields, kpts, *args, **kwargs)

        monkeypatch.setattr(module, name, count)

    counting(chernscope.interferometer, "field_link_phases")
    counting(chernscope.interferometer, "states_from_fields")
    counting(chernscope.topology, "transport_link")
    assert field_calls.bloch == []
    for plan, evaluated in ((site, 1), (_moved_up(site), 2)):
        field_calls.bloch.clear()
        calls.clear()
        evolve_adiabatic(initial_state(), plan, P0)
        assert len(field_calls.bloch) == 1
        assert np.array_equal(field_calls.bloch[0], _stacked_legs(plan, evaluated))
        assert len(field_calls.bloch[0]) == 301 * evaluated
        assert field_calls.line == []
        assert not hasattr(chernscope.interferometer, "transport_link")
        assert [(name, shape) for name, shape, _ in calls] == [
            ("field_link_phases", (1, 2, 301)),
            ("states_from_fields", (1, 2)),
        ]
        stack = _stacked_legs(plan).reshape(1, 2, 301, 2)
        assert np.array_equal(calls[0][2], stack)
        assert np.array_equal(calls[1][2], stack[:, :, -1])


def test_endpoint_rows_equal_single_evolutions(monkeypatch, field_calls):
    """Each row of the array entry holds its plan's own evolution, bit for
    bit: the amplitudes, geometric pair, matching angle and dynamic pair of
    evolve_adiabatic, in one pass per plan or one pass per call.  The plans
    are grouped by echo and sampling, as the entry takes one of each."""
    plans = [
        perturb_plan(
            plan_site(site, with_echo=echo, samples_per_leg=n),
            radius=0.01,
            seed=seed,
        )
        for seed, (site, echo, n) in enumerate(
            [("I", True, 300), ("II", False, 300), ("II", True, 300),
             ("I", False, 200), ("II", True, 200), ("I", True, 300)]
        )
    ]
    groups = {}
    for plan in plans:
        groups.setdefault((plan.with_echo, plan.samples_per_leg), []).append(plan)
    assert [len(group) for group in groups.values()] == [3, 1, 1, 1]
    for batch in (1, 10**6):
        monkeypatch.setattr(chernscope.interferometer, "_ADIABATIC_BATCH", batch)
        for (echo, n), group in groups.items():
            (leg_time,) = {plan.leg_time for plan in group}
            starts, endpoints, _ = plan_arrays(group)
            field_calls.bloch.clear()
            closed, geometric, matching, dynamic = evolve_endpoints(
                starts, endpoints, n, leg_time, echo, P0, zeeman_rate=0.01
            )
            assert len(field_calls.bloch) == (len(group) if batch == 1 else 1)
            for j, plan in enumerate(group):
                ref_end, ref_ledger = evolve_adiabatic(
                    initial_state(), plan, P0, zeeman_rate=0.01
                )
                assert tuple(closed[j]) == (ref_end.amp_down, ref_end.amp_up)
                assert tuple(geometric[j]) == (
                    ref_ledger.geometric_down, ref_ledger.geometric_up
                )
                assert matching[j] == ref_ledger.matching
                assert tuple(dynamic[j]) == (
                    ref_ledger.dynamic_down, ref_ledger.dynamic_up
                )


def _evaluate_every_leg(patch):
    """Turns the mirror rule of ``leg_fields`` off, so that every leg's
    fields are evaluated: the reference the derived legs must equal."""
    patch.setattr(
        chernscope.protocol, "ky_mirrored",
        lambda lines, others: np.zeros(np.shape(lines)[:-2], dtype=bool),
    )


def _pass_bytes(legs):
    """The points, fields and energies of a ``LegPass``, as bytes, so that
    signed zeros count."""
    return [x.tobytes() for x in (legs.points, *legs.fields, *legs.energies)]


@pytest.mark.parametrize("n", [1, 37, 300, 2000])
def test_mirrored_up_leg_equals_the_evaluated_leg_bit_for_bit(field_calls, n):
    """A site plan's up leg, derived from its down leg, has the fields and
    energies that evaluating it gives, to the last bit and the sign of
    every zero: at both sites and seeded couplings, both signs of phi
    among them, each plan alone and both in one pass.  The reference is
    evaluated here, so the test holds numpy's sin odd and cos even, bit
    for bit, at whatever SIMD dispatch it runs on.  Only the down legs'
    samples reach ``bloch_fields``."""
    rng = np.random.default_rng(n)
    plans = [
        dataclasses.replace(plan_site(site), samples_per_leg=n) for site in ("I", "II")
    ]
    for sign in (1.0, -1.0, 1.0):
        p = ModelParams(
            t=rng.uniform(0.5, 2.0), tp=rng.uniform(0.0, 0.5),
            phi=sign * rng.uniform(0.0, np.pi),
        )
        for batch in ([plans[0]], [plans[1]], plans):
            field_calls.bloch.clear()
            got = leg_pass(batch, p)
            assert [len(c) for c in field_calls.bloch] == [len(batch) * (n + 1)]
            with pytest.MonkeyPatch.context() as patch:
                _evaluate_every_leg(patch)
                field_calls.bloch.clear()
                want = leg_pass(batch, p)
            assert [len(c) for c in field_calls.bloch] == [2 * len(batch) * (n + 1)]
            assert _pass_bytes(got) == _pass_bytes(want), (n, sign, len(batch))


def test_leg_fields_evaluates_both_legs_unless_exactly_mirrored(field_calls):
    """Only an up leg whose start and displacement are the down leg's with
    ky negated is derived.  A start at ky = 1e-12, a start at ky = -0.0
    (the legs' first samples then differ in the sign of that zero), an up
    endpoint 1 ulp off in ky, and one 1 ulp below in kx, which moves the
    displacement end - start, each send both legs' samples.  1 ulp above
    in kx vanishes in end - start, so that up leg is still derived.  Each
    pass equals the one with every leg evaluated."""
    p = ModelParams(tp=0.2, phi=-0.7)
    site = plan_site("I", samples_per_leg=300)
    x, y = site.endpoint_up
    cases = [(site, 1)]
    for ky in (1e-12, -0.0):
        start = np.array([site.start[0], ky])
        cases.append((dataclasses.replace(site, start=start), 2))
    for up, evaluated in (
        ([x, np.nextafter(y, 9)], 2), ([np.nextafter(x, -9), y], 2),
        ([np.nextafter(x, 9), y], 1),
    ):
        cases.append((dataclasses.replace(site, endpoint_up=np.array(up)), evaluated))
    for plan, evaluated in cases:
        field_calls.bloch.clear()
        got = leg_pass([plan], p)
        assert [len(c) for c in field_calls.bloch] == [301 * evaluated]
        assert np.array_equal(field_calls.bloch[0], _stacked_legs(plan, evaluated))
        with pytest.MonkeyPatch.context() as patch:
            _evaluate_every_leg(patch)
            assert _pass_bytes(got) == _pass_bytes(leg_pass([plan], p))


def test_endpoint_rows_with_mirrored_plans_equal_the_evaluated_route(
    monkeypatch, field_calls
):
    """Passes that mix site plans with perturbed and moved ones give every
    row the bits of the route with every leg evaluated: with and without
    the echo, with a Zeeman rate, with a gauge that is not even in ky (it
    reads the up legs' own samples), in one pass and in passes of three
    plans, where the mirrored plans sit at different places.  The two site
    plans send 301 leg samples each, the other three 602."""
    def gauge(kpts):
        kpts = np.asarray(kpts)
        return 2.7 * np.sin(3.1 * kpts[..., 0]) + 1.3 * np.sin(2.3 * kpts[..., 1])

    for echo in (True, False):
        sites = [
            plan_site(site, with_echo=echo, samples_per_leg=300) for site in ("I", "II")
        ]
        plans = [
            sites[0], perturb_plan(sites[0], 0.01, 1), sites[1],
            _moved_up(sites[1]), perturb_plan(sites[1], 0.01, 2),
        ]
        starts, endpoints, n = plan_arrays(plans)
        for batch, zeeman_rate, gauge_fn in (
            (10**6, 0.0, None), (3 * 602, 0.01, None), (10**6, 0.0, gauge),
            (3 * 602, 0.01, gauge),
        ):
            monkeypatch.setattr(chernscope.interferometer, "_ADIABATIC_BATCH", batch)
            runs = []
            for rule in (True, False):
                with pytest.MonkeyPatch.context() as patch:
                    if not rule:
                        _evaluate_every_leg(patch)
                    field_calls.bloch.clear()
                    rows = evolve_endpoints(
                        starts, endpoints, n, 200.0, echo, P0, zeeman_rate, gauge_fn
                    )
                    runs.append([row.tobytes() for row in rows])
                    sent = sum(len(c) for c in field_calls.bloch)
                    assert sent == (2 * 301 + 3 * 602 if rule else 5 * 602)
            assert runs[0] == runs[1], (echo, batch, zeeman_rate, gauge_fn)


def _line_blocks_per_leg(line_calls, n_steps, block):
    """Groups ``line_fields`` calls (k0, step, n) into legs of n_steps
    midpoints by their step, in the order of each leg's first call, as one
    loop interleaves the legs' blocks.  Asserts that each leg's calls tile
    its midpoints in order: blocks of ``block`` points and a shorter tail,
    block j starting j * block steps after the first midpoint."""
    by_step = {}
    for call in line_calls:
        by_step.setdefault(call[1].tobytes(), []).append(call)
    legs = []
    for calls in by_step.values():
        first, step, _ = calls[0]
        assert [n for _, _, n in calls] == [
            min(block, n_steps - j) for j in range(0, n_steps, block)
        ]
        for j, (k0, call_step, _) in zip(range(0, n_steps, block), calls):
            assert np.array_equal(call_step, step)
            assert np.array_equal(k0, first + j * step)
        legs.append((first, step))
    return legs


def test_tdse_evaluates_leg_samples_once_besides_midpoints(monkeypatch, field_calls):
    """The legs' samples go through one ``bloch_fields`` call, each sample
    once; the midpoints go through ``line_fields`` once each, in blocks,
    from the leg start plus half a step.  A site plan's legs mirror under
    ky -> -ky, so only the down leg's 301 samples and its midpoints are
    evaluated; a plan whose up endpoint is moved has both legs' 602
    samples and midpoints evaluated.  The leg takes one block at the
    default block size and several with a short tail at 100."""
    site = plan_site("I", leg_time=2.0, samples_per_leg=300)
    for plan, evaluated in ((site, 1), (_moved_up(site), 2)):
        plan_legs = (plan.k_path_down, plan.k_path_up)
        for block in (chernscope.interferometer._TDSE_BLOCK, 100):
            monkeypatch.setattr(chernscope.interferometer, "_TDSE_BLOCK", block)
            field_calls.bloch.clear()
            field_calls.line.clear()
            _, diagnostics = evolve_tdse(initial_state(), plan, P0)
            assert len(field_calls.bloch) == 1
            assert np.array_equal(field_calls.bloch[0], _stacked_legs(plan, evaluated))
            assert len(field_calls.bloch[0]) == 301 * evaluated
            n = diagnostics.n_steps
            assert 100 < n < 8192 and n % 100 != 0
            legs = _line_blocks_per_leg(field_calls.line, n, block)
            assert len(legs) == evaluated
            for leg, (k0, step) in zip(plan_legs, legs):
                assert np.array_equal(k0, leg.k_b + step / 2)
                assert np.allclose(n * step, leg.k_e - leg.k_b, rtol=0, atol=1e-12)


def _leg_propagator(fields, dt):
    """Reference: the time-ordered product of a leg's step exponentials
    exp(-i H dt) in one block, the steps of ``_step_pairs`` multiplied in
    one tree by ``_su2_product``.  Returns the phase exp(-i dt sum(h0)) and
    the (a, b) pair of the SU(2) product."""
    phase, a, b = _step_pairs(fields, dt)
    a, b = _su2_product(a, b)
    return phase, complex(a[0]), complex(b[0])


@given(
    n=st.integers(min_value=1, max_value=300),
    block=st.integers(min_value=1, max_value=64),
    tp=st.floats(min_value=0.0, max_value=0.5),
    phi=st.floats(min_value=-np.pi, max_value=np.pi),
)
@example(n=1, block=1, tp=0.1, phi=0.5)
@example(n=64, block=64, tp=0.1, phi=0.5)
@example(n=65, block=64, tp=0.1, phi=0.5)
@example(n=127, block=64, tp=0.1, phi=0.5)
@settings(max_examples=40, deadline=None)
def test_line_propagator_matches_one_block(n, block, tp, phi):
    """Blocks of any size give the product of the whole line in one block."""
    p = ModelParams(tp=tp, phi=phi)
    k0, step, dt = np.array([0.3, -1.1]), np.array([0.013, 0.021]), 0.05
    whole = _leg_propagator(chernscope.lattice.line_fields(k0, step, n, p), dt)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chernscope.interferometer, "_TDSE_BLOCK", block)
        (blocked,) = _line_propagator(k0[None], step[None], n, p, dt)
    assert max(abs(x - y) for x, y in zip(blocked, whole)) <= 1e-13


# Reference for the blocked product: each block's steps (``np.where`` for s)
# reduced in its own 1-D tree with the odd tail appended, then the blocks'
# products in one more tree.  The stacked finish keeps this pairing, so it
# must give the same bits.


def _reference_su2_product(a, b):
    while len(a) > 1:
        n = len(a) - len(a) % 2
        a1, a0, b1, b0 = a[1:n:2], a[0:n:2], b[1:n:2], b[0:n:2]
        a_next = a1 * a0 - b1.conj() * b0
        b_next = b1 * a0 + a1.conj() * b0
        if n < len(a):
            a_next = np.append(a_next, a[-1])
            b_next = np.append(b_next, b[-1])
        a, b = a_next, b_next
    return complex(a[0]), complex(b[0])


def _with_norm(fields):
    """Four field rows (h0, hx, hy, hz) as a field tuple, |h| appended."""
    h0, hx, hy, hz = fields
    return (h0, hx, hy, hz, np.sqrt(hx * hx + hy * hy + hz * hz))


def _reference_leg_propagator(fields, dt):
    h0, hx, hy, hz = fields[:4]
    hmag = np.sqrt(hx**2 + hy**2 + hz**2)
    s = np.where(hmag > 0.0, np.sin(hmag * dt) / np.where(hmag > 0, hmag, 1.0), dt)
    a = np.empty(len(hmag), dtype=complex)
    a.real = np.cos(hmag * dt)
    a.imag = -s * hz
    b = np.empty(len(hmag), dtype=complex)
    b.real = s * hy
    b.imag = -s * hx
    return (complex(np.exp(-1j * dt * np.sum(h0))),) + _reference_su2_product(a, b)


def _reference_line_propagator(k0, step, n, p, dt, block):
    blocks = [
        _reference_leg_propagator(
            chernscope.lattice.line_fields(k0 + j * step, step, min(block, n - j), p),
            dt,
        )
        for j in range(0, n, block)
    ]
    phases, a, b = (np.array(x) for x in zip(*blocks))
    return (complex(np.prod(phases)),) + _reference_su2_product(a, b)


@pytest.mark.parametrize("block", [1, 3, 64, 65, 8192])
def test_line_propagator_is_bit_exact_against_one_tree_per_block(monkeypatch, block):
    """The stacked finish rounds every product as the per-block trees did:
    one short of a full block, full blocks, a partial tail, and lengths at
    and around the length the full blocks are reduced to before stacking.
    Two unrelated lines stacked in one call each give the line alone."""
    monkeypatch.setattr(chernscope.interferometer, "_TDSE_BLOCK", block)
    short = chernscope.interferometer._SU2_SHORT
    lengths = {1, short - 1, short, short + 1, block - 1, block, block + 1}
    rng = np.random.default_rng(block)
    for n in sorted(x for x in lengths | {3 * block + 5} if x >= 1):
        p = ModelParams(tp=rng.uniform(0.0, 0.5), phi=rng.uniform(-np.pi, np.pi))
        k0 = rng.uniform(-4.0, 4.0, (2, 2))
        step = rng.uniform(-1.0, 1.0, (2, 2)) * 1e-3
        dt = rng.uniform(1e-3, 0.05)
        want = _reference_line_propagator(k0[0], step[0], n, p, dt, block)
        assert _line_propagator(k0[:1], step[:1], n, p, dt) == [want], n
        alone = [
            _line_propagator(k0[l:l + 1], step[l:l + 1], n, p, dt)[0] for l in (0, 1)
        ]
        assert _line_propagator(k0, step, n, p, dt) == alone, n


_MIRROR = np.array([1.0, -1.0])  # (kx, ky) -> (kx, -ky)


@pytest.mark.parametrize("block", [1, 3, 64, 65, 8192])
def test_line_propagator_mirror_is_bit_exact_against_the_mirror_line(
    monkeypatch, field_calls, block
):
    """The mirror's propagator, derived from this line's step pairs, equals
    the one evaluated on the mirror line's own (k0, step), and this line's
    does not change with it: the lengths of the one-tree test, a partial
    tail and lines shorter than a block among them, at both signs of phi.
    Only this line's midpoints are evaluated."""
    monkeypatch.setattr(chernscope.interferometer, "_TDSE_BLOCK", block)
    short = chernscope.interferometer._SU2_SHORT
    lengths = {1, short - 1, short, short + 1, block - 1, block, block + 1}
    rng = np.random.default_rng(block)
    for n in sorted(x for x in lengths | {3 * block + 5} if x >= 1):
        for sign in (1.0, -1.0):
            p = ModelParams(
                tp=rng.uniform(0.0, 0.5), phi=sign * rng.uniform(0.0, np.pi)
            )
            k0, step = rng.uniform(-4.0, 4.0, 2), rng.uniform(-1.0, 1.0, 2) * 1e-3
            dt = rng.uniform(1e-3, 0.05)
            field_calls.line.clear()
            got = _line_propagator(
                np.stack((k0, k0 * _MIRROR)), np.stack((step, step * _MIRROR)),
                n, p, dt,
            )
            assert [call[1].tobytes() for call in field_calls.line] == [
                step.tobytes()
            ] * -(-n // block)
            assert got == [
                _line_propagator(k[None], s[None], n, p, dt)[0]
                for k, s in ((k0, step), (k0 * _MIRROR, step * _MIRROR))
            ], (n, sign)


def test_line_propagator_derives_only_an_exact_mirror_of_the_previous_line(
    field_calls,
):
    """A line is derived only when its k0 and step are the previous line's
    with ky negated, bit for bit: 1 ulp off in either coordinate of either,
    or the mirror of a line before the previous one, and the line is
    evaluated.  Every row equals its line propagated alone."""
    p, n, dt = ModelParams(tp=0.1, phi=0.5), 100, 0.05
    k0, step = np.array([0.3, -1.1]), np.array([0.013, 0.021])
    # Axes: line, (k0, step), (kx, ky).
    rows = np.array([[k0, step], [k0 * _MIRROR, step * _MIRROR]])
    cases = [(rows, 1)]
    for which, i in np.ndindex(2, 2):
        off = rows.copy()
        off[1, which, i] = np.nextafter(off[1, which, i], 9.0)
        cases.append((off, 2))
    cases.append((np.array([rows[0], rows[0] + [[0.5, 0.5], [0.0, 0.0]], rows[1]]), 3))
    for lines, evaluated in cases:
        field_calls.line.clear()
        got = _line_propagator(lines[:, 0], lines[:, 1], n, p, dt)
        assert len(field_calls.line) == evaluated
        assert got == [
            _line_propagator(line[:1], line[1:], n, p, dt)[0] for line in lines
        ]


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 257])
def test_leg_propagator_is_bit_exact_with_zero_fields(n):
    """One mask for s: where |h| = 0 the step takes s = dt exactly, and
    elsewhere sin(|h| dt) / |h|, as in the reference.  Fields of 1e-170 square to 0,
    so their |h| is 0 while b = dt (hy - i hx) is not."""
    fields = np.random.default_rng(n).uniform(-3.0, 3.0, size=(4, n))
    fields[1:, :: max(n // 3, 1)] = 0.0
    fields[1:, n // 2] = 1e-170
    assert _leg_propagator(_with_norm(fields), 0.37) == _reference_leg_propagator(
        tuple(fields), 0.37
    )


def test_gapless_leg_raises_the_state_route_message():
    """The adiabatic pass checks the gap of every leg sample before any
    link, with the message band_states gives on the same stacked samples.
    The gapless leg runs straight through the Dirac point K, its midpoint
    sample at tp = 0."""
    p = ModelParams(tp=0.0)
    plan = plan_site("I", leg_time=2.0)
    gapless = dataclasses.replace(
        plan, endpoint_down=2 * K - plan.start, samples_per_leg=40
    )
    assert np.max(np.abs(gapless.k_path_down.points[20] - K)) <= 5e-16  # 1 ulp
    with pytest.raises(GaplessPoint) as expected:
        chernscope.lattice.band_states(_stacked_legs(gapless), p)
    with pytest.raises(GaplessPoint) as got:
        evolve_adiabatic(initial_state(), gapless, p)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("gap below 1e-09 at k=")


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
    phase, a, b = _leg_propagator(_with_norm(fields), dt)

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
    plan = plan_site("I", leg_time=20.0, samples_per_leg=400)
    _, diag = evolve_tdse(initial_state(), plan, P0)
    assert 1000 < diag.n_steps < 10000
    monkeypatch.setattr(chernscope.interferometer, "MAX_TDSE_STEPS", diag.n_steps)
    _, at_budget = evolve_tdse(initial_state(), plan, P0)
    assert at_budget == diag
    monkeypatch.setattr(
        chernscope.interferometer, "MAX_TDSE_STEPS", diag.n_steps - 1
    )
    field_calls.bloch.clear()
    field_calls.line.clear()
    with pytest.raises(ValueError, match="budget"):
        evolve_tdse(initial_state(), plan, P0)
    assert len(field_calls.bloch) == 1  # the down leg's 401 samples
    assert np.array_equal(field_calls.bloch[0], plan.k_path_down.points)
    assert len(field_calls.bloch[0]) == 401
    assert field_calls.line == []


@pytest.mark.parametrize("leg_time", [2.0, 400.0])
def test_tdse_diagnostics_carry_plan_xi(leg_time, field_calls):
    """A site plan evaluates its down leg's 401 samples and midpoints only,
    as its up leg is the mirror; a plan whose up endpoint is moved
    evaluates both legs' 802 samples and midpoints."""
    site = plan_site("I", leg_time=leg_time, samples_per_leg=400)
    for plan, evaluated in ((site, 1), (_moved_up(site), 2)):
        field_calls.bloch.clear()
        field_calls.line.clear()
        _, diag = evolve_tdse(initial_state(), plan, P0)
        assert len(field_calls.bloch) == 1  # the legs in one pass
        assert np.array_equal(field_calls.bloch[0], _stacked_legs(plan, evaluated))
        assert len(field_calls.bloch[0]) == 401 * evaluated
        legs = _line_blocks_per_leg(  # midpoints
            field_calls.line, diag.n_steps, chernscope.interferometer._TDSE_BLOCK
        )
        assert len(legs) == evaluated
        assert diag.xi == validate_plan(plan, P0).xi


def _each_line_alone(monkeypatch):
    """Makes evolve_tdse propagate each leg in a ``_line_propagator`` call
    of its own, so that no leg is derived from the other."""
    line_propagator = chernscope.interferometer._line_propagator

    def alone(k0, step, *args):
        return [
            line_propagator(k0[l:l + 1], step[l:l + 1], *args)[0]
            for l in range(len(k0))
        ]

    monkeypatch.setattr(chernscope.interferometer, "_line_propagator", alone)


@pytest.mark.parametrize("site", ["I", "II"])
def test_tdse_mirrored_plan_equals_the_evaluated_route(monkeypatch, field_calls, site):
    """A site plan's mirrored up leg gives the evolution that evaluating
    each leg alone gives, bit for bit.  The leg takes a full block and a
    tail."""
    plan = plan_site(site, leg_time=40.0, samples_per_leg=200)
    block = chernscope.interferometer._TDSE_BLOCK
    runs = []
    for evaluated in (1, 2):
        if evaluated == 2:
            _each_line_alone(monkeypatch)
        field_calls.line.clear()
        state, diag = evolve_tdse(initial_state(), plan, P0, zeeman_rate=0.01)
        assert diag.n_steps > block and diag.n_steps % block != 0
        legs = _line_blocks_per_leg(field_calls.line, diag.n_steps, block)
        assert len(legs) == evaluated
        runs.append(
            ((state.amp_down, state.amp_up, state.upper_band_population), diag)
        )
    assert runs[0] == runs[1]


def test_tdse_takes_the_evaluated_route_unless_exactly_mirrored(
    monkeypatch, field_calls
):
    """A site plan's up leg is derived; a start at ky = 1e-12, or an up
    endpoint 1 ulp off in ky, evaluates both legs, as the legs' steps and
    first midpoints no longer mirror.  An up endpoint 1 ulp off in kx
    vanishes in the step (end - start) / leg_time * dt, so its up leg is
    still derived.  Each evolution equals the one with each leg evaluated
    alone."""
    site = plan_site("I", leg_time=2.0, samples_per_leg=300)
    x, y = site.endpoint_up
    start = np.array([site.start[0], 1e-12])
    cases = [(site, 1), (dataclasses.replace(site, start=start), 2)]
    for up, evaluated in (([np.nextafter(x, 9), y], 1), ([x, np.nextafter(y, 9)], 2)):
        cases.append((dataclasses.replace(site, endpoint_up=np.array(up)), evaluated))
    runs = []
    for plan, evaluated in cases:
        field_calls.line.clear()
        state, diag = evolve_tdse(initial_state(), plan, P0)
        legs = _line_blocks_per_leg(
            field_calls.line, diag.n_steps, chernscope.interferometer._TDSE_BLOCK
        )
        assert len(legs) == evaluated
        runs.append((state.amp_down, state.amp_up, diag))
    _each_line_alone(monkeypatch)
    for (plan, _), run in zip(cases, runs):
        state, diag = evolve_tdse(initial_state(), plan, P0)
        assert (state.amp_down, state.amp_up, diag) == run


def test_tdse_memory_stays_near_one_block():
    """A leg of over 2**18 steps peaks near one block's fields and step
    factors (about 1 MB; bound 1.1 MB), plus the full blocks' reduced pairs
    held for the stacked finish: 32 bytes per pair, ``_SU2_SHORT`` pairs
    per block, counted twice for the two legs.  So does a plan whose legs
    are both evaluated: a leg's step factors are released before the other
    leg's fields are made."""
    site = plan_site("I", leg_time=1000.0, samples_per_leg=400)
    for plan in (site, _moved_up(site)):
        evolve_tdse(initial_state(), plan, P0)  # first call sets up numpy
        tracemalloc.start()
        try:
            _, diag = evolve_tdse(initial_state(), plan, P0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert diag.n_steps >= 2**18
        blocks = diag.n_steps // chernscope.interferometer._TDSE_BLOCK
        stacked = 2 * blocks * 32 * chernscope.interferometer._SU2_SHORT
        assert peak < 1_100_000 + stacked, plan
