"""Tests for force-protocol planning, validation, and endpoint perturbation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import chernscope.protocol
from chernscope import (
    B1,
    B2,
    KPath,
    ModelParams,
    ProtocolPlan,
    perturb_plan,
    plan_site,
    site_displacements,
    site_start,
    validate_plan,
)
from chernscope.protocol import (
    MAX_SAMPLES_PER_LEG,
    endpoint_errors,
    leg_pass,
    plan_diagnostics,
)

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


def test_force_magnitude_ratio_is_sqrt3():
    plan = plan_site("I")
    leg = next(s for s in plan.steps if s.kind == "force_leg")
    assert leg.force.magnitude_ratio == pytest.approx(np.sqrt(3), abs=1e-12)


def test_velocity_times_leg_time_reaches_endpoint():
    """dk/dt = -(lattice_force + spin_sign * gradient_force), spin_sign -1
    for the down packet and +1 for the up one, carries each packet over
    its site displacement in the leg time."""
    plan = plan_site("II", with_echo=False)
    leg = next(s for s in plan.steps if s.kind == "force_leg")
    lattice, gradient = leg.force.lattice_force, leg.force.gradient_force
    d = site_displacements("II")
    assert np.allclose(-(lattice - gradient) * plan.leg_time, d["down"], atol=1e-12)
    assert np.allclose(-(lattice + gradient) * plan.leg_time, d["up"], atol=1e-12)


def test_samples_per_leg_forced_even():
    plan = plan_site("I", samples_per_leg=7)
    assert plan.samples_per_leg == 8
    assert plan.k_path_down.points.shape == (9, 2)
    assert plan_site("I", samples_per_leg=1).samples_per_leg == 2


def test_plan_fields_are_one_start_two_endpoints_and_one_sampling():
    assert [f.name for f in dataclasses.fields(ProtocolPlan)] == [
        "site", "start", "endpoint_down", "endpoint_up", "samples_per_leg",
        "leg_time", "with_echo",
    ]


@pytest.mark.parametrize("site", ["I", "II"])
@pytest.mark.parametrize("samples", [1, 40, 601])
def test_plan_legs_are_lines_from_the_shared_start(site, samples):
    """Each leg is the line path from the start to its endpoint with one
    point per sample, and its points are the leg pass's, bit for bit."""
    plan = perturb_plan(plan_site(site, samples_per_leg=samples), 0.01, seed=2)
    n = plan.samples_per_leg
    passed = leg_pass([plan], P0).points[0]
    for leg, end, points in (
        (plan.k_path_down, plan.endpoint_down, passed[0]),
        (plan.k_path_up, plan.endpoint_up, passed[1]),
    ):
        assert isinstance(leg, KPath)
        assert np.array_equal(leg.points, KPath.line(plan.start, end, n + 1).points)
        assert np.array_equal(leg.points, points)


@pytest.mark.parametrize("samples", [0, MAX_SAMPLES_PER_LEG + 1])
def test_plan_refuses_sampling_outside_the_budget(samples):
    """Built directly, or replaced into a valid plan: every plan is checked
    where it is made."""
    plan = plan_site("I", samples_per_leg=40)
    message = (
        f"samples per leg must lie between 1 and the budget of "
        f"{MAX_SAMPLES_PER_LEG}, got {samples}"
    )
    with pytest.raises(ValueError) as info:
        dataclasses.replace(plan, samples_per_leg=samples)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        ProtocolPlan(
            "I", plan.start, plan.endpoint_down, plan.endpoint_up, samples,
            200.0, True,
        )
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        plan_site("I", samples_per_leg=samples)
    assert str(info.value) == message


@pytest.mark.parametrize("leg_time", [np.nan, 0.0, np.inf, -1.0])
def test_plan_refuses_leg_time_that_is_not_positive_and_finite(leg_time):
    plan = plan_site("II", samples_per_leg=40)
    message = f"leg_time must be positive and finite, got {leg_time}"
    with pytest.raises(ValueError) as info:
        dataclasses.replace(plan, leg_time=leg_time)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        ProtocolPlan(
            "II", plan.start, plan.endpoint_down, plan.endpoint_up, 40,
            leg_time, False,
        )
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        plan_site("II", leg_time=leg_time)
    assert str(info.value) == message


def test_plan_site_rejects_unknown_site():
    with pytest.raises(ValueError):
        plan_site("III")


def test_validate_nominal_plan():
    diag = validate_plan(plan_site("I"), P0)
    assert diag.endpoints_reciprocal
    assert diag.xi == pytest.approx(0.007754946119391695, abs=1e-12)
    assert not diag.adiabatic_warning


def test_validate_warns_on_fast_drive():
    diag = validate_plan(plan_site("I", leg_time=2.0), P0)
    assert diag.xi == pytest.approx(0.7754946119391695, abs=1e-12)
    assert diag.adiabatic_warning


def test_leg_pass_checks_every_plan_before_any_field(monkeypatch):
    """A batch shares one sampling; a plan sampled otherwise, anywhere in
    the batch, is refused before any field is evaluated."""
    good = plan_site("I", samples_per_leg=40)
    other = plan_site("II", samples_per_leg=42)

    def refuse(kpts, p):
        raise AssertionError("a field was evaluated before the plan check")

    monkeypatch.setattr(chernscope.protocol, "bloch_fields", refuse)
    with pytest.raises(ValueError, match=r"one sampling, got \[40, 42\]"):
        leg_pass([good, good, other], P0)


def test_leg_pass_stacks_each_plans_legs():
    """A batch's samples are each leg's ``KPath`` points bit for bit, and each
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
    diagnostics = plan_diagnostics(plans, legs)
    for plan, points, diagnostic in zip(
        plans, legs.points, diagnostics, strict=True
    ):
        assert np.array_equal(points[0], plan.k_path_down.points)
        assert np.array_equal(points[1], plan.k_path_up.points)
        assert diagnostic == validate_plan(plan, P0)
    assert diagnostics[2].adiabatic_warning


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


def _two_uniform_draw_endpoints(plan, radius, seed):
    """The endpoints of two ``Generator.uniform`` calls per plan, angles
    then radii, the form every trial's draws are pinned to."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2 * np.pi, 2)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, 2))
    down, up = (ri * np.array([np.cos(ti), np.sin(ti)]) for ri, ti in zip(r, theta))
    return plan.endpoint_down + down, plan.endpoint_up + up


def test_perturb_draws_equal_the_two_uniform_calls_bit_for_bit():
    """One ``random(4)`` draw gives the endpoints of the two ``uniform``
    calls bit for bit, over 1,200 seeded (seed, radius) pairs on both
    sites."""
    rng = np.random.default_rng(17)
    limit = np.linalg.norm(B1) / 4
    plans = [plan_site("I"), plan_site("II", with_echo=False)]
    for i in range(1200):
        plan = plans[i % 2]
        seed = int(rng.integers(0, 2**63 - 1))
        radius = float(rng.uniform(0.0, limit))
        pert = perturb_plan(plan, radius=radius, seed=seed)
        down, up = _two_uniform_draw_endpoints(plan, radius, seed)
        assert np.array_equal(pert.endpoint_down, down)
        assert np.array_equal(pert.endpoint_up, up)


@pytest.mark.parametrize("radius", [0.0, -0.0, 0.001, 0.2])
def test_perturb_equals_the_vectorized_draw_bit_for_bit(radius):
    """``perturb_plan`` of each of 1,000 seeds displaces the endpoints by
    that seed's row of one ``endpoint_errors`` call over all of them, bit
    for bit and sign of zero included; at a zero radius the plan comes back
    exactly."""
    plan = plan_site("II", with_echo=False)
    seeds = np.random.default_rng(23).integers(0, 2**63 - 1, 1000).tolist()
    errors = endpoint_errors(radius, seeds)
    assert errors.shape == (1000, 2, 2)
    for seed, (down, up) in zip(seeds, errors):
        pert = perturb_plan(plan, radius=radius, seed=seed)
        pairs = [
            (pert.endpoint_down, plan.endpoint_down + down),
            (pert.endpoint_up, plan.endpoint_up + up),
        ]
        if radius == 0:
            pairs += [
                (pert.endpoint_down, plan.endpoint_down),
                (pert.endpoint_up, plan.endpoint_up),
            ]
        for ours, theirs in pairs:
            assert np.array_equal(ours, theirs)
            assert np.array_equal(np.signbit(ours), np.signbit(theirs))


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
        assert len(leg.points) - 1 == plan.samples_per_leg == 602
        assert np.array_equal(leg.k_b, plan.start)


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
    assert not diag.endpoints_reciprocal


def test_perturb_rejects_oversized_errors():
    plan = plan_site("I")
    limit = np.linalg.norm(B1) / 4
    with pytest.raises(ValueError):
        perturb_plan(plan, radius=limit * 1.01)
