"""Tests for force-protocol planning, validation, and endpoint perturbation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import chernscope.protocol
from chernscope import (
    B1,
    B2,
    KPath,
    Leg,
    MalformedPlan,
    ModelParams,
    evolve_adiabatic,
    evolve_tdse,
    initial_state,
    perturb_plan,
    plan_site,
    site_displacements,
    site_start,
    validate_plan,
)
from chernscope.protocol import leg_pass

P0 = ModelParams()


def test_site_starts_are_inversion_partners():
    s1 = site_start("I")
    s2 = site_start("II")
    assert np.allclose(s1, [2 * np.pi / (3 * np.sqrt(3)), 0.0], atol=1e-12)
    assert np.allclose(s2, -s1, atol=1e-14)


def test_site_displacements_are_reciprocal_vectors():
    d1 = site_displacements("I")
    assert np.allclose(d1["down"], -(B1 + B2), atol=1e-12)
    assert np.allclose(d1["up"], -B2, atol=1e-12)
    d2 = site_displacements("II")
    assert np.allclose(d2["down"], -d1["down"], atol=1e-12)
    assert np.allclose(d2["up"], -d1["up"], atol=1e-12)


def test_leg_displacements_share_one_length():
    d = site_displacements("I")
    for vec in d.values():
        assert np.linalg.norm(vec) == pytest.approx(4 * np.pi / 3, abs=1e-12)


def test_plan_endpoints_exact():
    for site in ("I", "II"):
        plan = plan_site(site)
        d = site_displacements(site)
        assert np.allclose(plan.endpoint_down, plan.start + d["down"], atol=1e-12)
        assert np.allclose(plan.endpoint_up, plan.start + d["up"], atol=1e-12)


def test_step_sequence():
    echo = plan_site("I", with_echo=True)
    assert [s.kind for s in echo.steps] == [
        "transport", "pi2_pulse", "force_leg", "pi_pulse", "force_leg", "pi2_pulse",
    ]
    plain = plan_site("I", with_echo=False)
    assert [s.kind for s in plain.steps] == [
        "transport", "pi2_pulse", "force_leg", "pi2_pulse",
    ]


def test_echo_does_not_change_momentum_paths():
    """The gradient flip at the echo pulse compensates the spin swap, so
    each packet follows the same straight line either way."""
    echo = plan_site("I", with_echo=True)
    plain = plan_site("I", with_echo=False)
    assert np.allclose(echo.k_path_down.points, plain.k_path_down.points, atol=1e-12)
    assert np.allclose(echo.k_path_up.points, plain.k_path_up.points, atol=1e-12)


def test_force_decomposition():
    plan = plan_site("I")
    leg = next(s for s in plan.steps if s.kind == "force_leg")
    v_down = leg.force.velocity(-1.0)
    v_up = leg.force.velocity(+1.0)
    assert np.allclose((v_down + v_up) / 2, -leg.force.lattice_force, atol=1e-14)
    assert np.allclose((v_up - v_down) / 2, -leg.force.gradient_force, atol=1e-14)
    # Flipping the gradient direction exchanges the two spin velocities.
    assert np.allclose(leg.force.velocity(-1.0, flipped=True), v_up, atol=1e-14)


def test_force_magnitude_ratio_is_sqrt3():
    plan = plan_site("I")
    leg = next(s for s in plan.steps if s.kind == "force_leg")
    assert leg.force.magnitude_ratio == pytest.approx(np.sqrt(3), abs=1e-12)


def test_velocity_times_leg_time_reaches_endpoint():
    plan = plan_site("II", with_echo=False)
    leg = next(s for s in plan.steps if s.kind == "force_leg")
    d = site_displacements("II")
    assert np.allclose(leg.force.velocity(-1.0) * plan.leg_time, d["down"], atol=1e-12)
    assert np.allclose(leg.force.velocity(+1.0) * plan.leg_time, d["up"], atol=1e-12)


def test_samples_per_leg_forced_even():
    plan = plan_site("I", samples_per_leg=7)
    assert plan.samples_per_leg == 8
    assert plan.k_path_down.points.shape == (9, 2)
    assert plan_site("I", samples_per_leg=1).samples_per_leg == 2


_COORD = st.floats(min_value=-20.0, max_value=20.0)


@given(
    a=st.tuples(_COORD, _COORD),
    b=st.tuples(_COORD, _COORD),
    n=st.integers(min_value=1, max_value=500),
)
@settings(max_examples=60, deadline=None)
def test_leg_points_match_kpath_line(a, b, n):
    """A leg's samples are those of the line path with n + 1 points, bit
    for bit.  Ends closer than 1e-6 could repeat a sample, which a path
    refuses."""
    a, b = np.array(a), np.array(b)
    assume(np.max(np.abs(b - a)) > 1e-6)
    assert np.array_equal(Leg(a, b, n).points, KPath.line(a, b, n + 1).points)


@pytest.mark.parametrize("n", [0, -1])
def test_leg_refuses_fewer_than_one_interval(n):
    with pytest.raises(ValueError, match="at least one sample interval"):
        Leg(np.zeros(2), np.ones(2), n)


def test_plan_site_rejects_unknown_site():
    with pytest.raises(ValueError):
        plan_site("III")


def test_validate_nominal_plan():
    diag = validate_plan(plan_site("I"), P0)
    assert diag.endpoint_residual < 1e-12
    assert diag.endpoints_reciprocal
    assert diag.xi == pytest.approx(0.007754946119391695, abs=1e-12)
    assert not diag.adiabatic_warning


def test_validate_warns_on_fast_drive():
    diag = validate_plan(plan_site("I", leg_time=2.0), P0)
    assert diag.xi == pytest.approx(0.7754946119391695, abs=1e-12)
    assert diag.adiabatic_warning
    assert any("adiabatic" in m for m in diag.messages)


def test_validate_rejects_inconsistent_endpoint():
    plan = plan_site("I")
    leg = plan.k_path_down
    broken = dataclasses.replace(
        plan, k_path_down=Leg(leg.start + 0.1, leg.end + 0.1, leg.n)
    )
    with pytest.raises(MalformedPlan):
        validate_plan(broken, P0)


@pytest.mark.parametrize("check", ["validate", "adiabatic", "tdse"])
def test_legs_that_start_apart_are_malformed(check):
    """Both packets leave one start momentum; an up leg that starts 0.3
    away is a broken plan, not a different measurement."""
    plan = plan_site("I")
    shifted = plan.start + np.array([0.3, 0.0])
    apart = dataclasses.replace(
        plan, k_path_up=Leg(shifted, plan.endpoint_up, 2000)
    )
    run = {
        "validate": lambda: validate_plan(apart, P0),
        "adiabatic": lambda: evolve_adiabatic(initial_state(), apart, P0),
        "tdse": lambda: evolve_tdse(initial_state(), apart, P0),
    }[check]
    with pytest.raises(MalformedPlan, match="start"):
        run()


def test_legs_sampled_unequally_are_malformed():
    plan = plan_site("I", samples_per_leg=40)
    uneven = dataclasses.replace(
        plan, k_path_up=Leg(plan.start, plan.endpoint_up, 42)
    )
    with pytest.raises(MalformedPlan, match="sample intervals"):
        validate_plan(uneven, P0)


def test_leg_pass_checks_every_plan_before_any_field(monkeypatch):
    good = plan_site("I", samples_per_leg=40)
    apart = dataclasses.replace(
        good, k_path_up=Leg(good.start + 0.1, good.endpoint_up, 40)
    )

    def refuse(kpts, p):
        raise AssertionError("a field was evaluated before the plan check")

    monkeypatch.setattr(chernscope.protocol, "bloch_fields", refuse)
    with pytest.raises(MalformedPlan, match="start"):
        leg_pass([good, apart], P0)


def test_leg_pass_stacks_each_plans_legs():
    """A batch's samples are each leg's ``Leg.points`` bit for bit, and each
    plan's diagnostics are those of the plan on its own."""
    plans = [
        plan_site("I", samples_per_leg=40),
        perturb_plan(plan_site("II", samples_per_leg=40), radius=0.01, seed=3),
        plan_site("II", leg_time=2.0, samples_per_leg=40),
    ]
    legs = leg_pass(plans, P0)
    assert legs.points.shape == (3, 2, 41, 2)
    for f in legs.fields + legs.energies:
        assert f.shape == (3, 2, 41)
    for plan, points, diagnostics in zip(
        plans, legs.points, legs.diagnostics, strict=True
    ):
        assert np.array_equal(points[0], plan.k_path_down.points)
        assert np.array_equal(points[1], plan.k_path_up.points)
        assert diagnostics == validate_plan(plan, P0)
    assert legs.diagnostics[2].adiabatic_warning


def test_perturb_zero_radius_is_identity():
    plan = plan_site("I")
    same = perturb_plan(plan, radius=0.0, seed=11)
    assert np.array_equal(same.endpoint_down, plan.endpoint_down)
    assert np.array_equal(same.endpoint_up, plan.endpoint_up)
    noargs = perturb_plan(plan)
    assert np.array_equal(noargs.endpoint_down, plan.endpoint_down)


# The lattice scale, which the constants of chernscope.lattice fix at a = 1.
@pytest.mark.parametrize("scale", [1.0])
def test_perturb_zero_radius_reproduces_endpoints_bit_for_bit(scale):
    """The identity the sweep's radius-0 reuse rests on: over 200 seeds,
    both sites, with and without the echo, a zero radius leaves every
    endpoint coordinate equal, sign of zero included."""
    plans = [
        plan_site(site, with_echo=echo)
        for site in ("I", "II")
        for echo in (True, False)
    ]
    seeds = np.random.default_rng(3).integers(0, 2**63 - 1, 200)
    for plan in plans:
        for seed in seeds:
            same = perturb_plan(plan, radius=0.0, seed=int(seed))
            for ours, theirs in (
                (same.endpoint_down, plan.endpoint_down),
                (same.endpoint_up, plan.endpoint_up),
            ):
                assert np.array_equal(ours, theirs)
                assert np.array_equal(np.signbit(ours), np.signbit(theirs))


def test_perturb_is_seed_deterministic():
    plan = plan_site("I")
    a = perturb_plan(plan, radius=0.02, seed=5)
    b = perturb_plan(plan, radius=0.02, seed=5)
    c = perturb_plan(plan, radius=0.02, seed=6)
    assert np.array_equal(a.endpoint_down, b.endpoint_down)
    assert np.array_equal(a.endpoint_up, b.endpoint_up)
    assert not np.array_equal(a.endpoint_down, c.endpoint_down)


def test_perturb_draw_stays_inside_disk():
    plan = plan_site("I")
    for seed in range(20):
        pert = perturb_plan(plan, radius=0.01, seed=seed)
        assert np.linalg.norm(pert.endpoint_down - plan.endpoint_down) <= 0.01
        assert np.linalg.norm(pert.endpoint_up - plan.endpoint_up) <= 0.01


def test_perturb_keeps_sampling_and_shared_start():
    plan = plan_site("II", samples_per_leg=601)
    pert = perturb_plan(plan, radius=0.01, seed=4)
    for leg in (pert.k_path_down, pert.k_path_up):
        assert leg.n == plan.samples_per_leg == 602
        assert np.array_equal(leg.start, plan.start)


def test_perturb_builds_no_sample_arrays():
    """Perturbing a plan at the sampling budget stays within a few KB: the
    legs are redrawn as lines, not as arrays of samples."""
    plan = plan_site("I", samples_per_leg=chernscope.protocol.MAX_SAMPLES_PER_LEG)
    perturb_plan(plan, radius=0.002, seed=0)  # the first draw sets up numpy.random
    tracemalloc.start()
    try:
        perturb_plan(plan, radius=0.002, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000


def test_perturbed_endpoints_lose_reciprocity():
    pert = perturb_plan(plan_site("I"), radius=0.01, seed=3)
    diag = validate_plan(pert, P0)
    assert diag.endpoint_residual < 1e-12
    assert not diag.endpoints_reciprocal


def test_perturb_rejects_oversized_errors():
    plan = plan_site("I")
    limit = np.linalg.norm(B1) / 4
    with pytest.raises(ValueError):
        perturb_plan(plan, radius=limit * 1.01)
