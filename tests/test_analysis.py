"""Tests for fringe fitting, whole-number classification, and the error sweep."""

import io
import tracemalloc

import numpy as np
import pytest

import chernscope.analysis
import chernscope.cli
import chernscope.protocol
from chernscope import (
    DegenerateScan,
    FringeFit,
    FringeScan,
    ModelParams,
    TrialRecord,
    classify,
    default_phi_grid,
    evolve_adiabatic,
    fit_fringe,
    fit_fringes,
    initial_state,
    perturb_plan,
    plan_site,
    robustness_sweep,
    run_fringe,
    wrap_angle,
)

P0 = ModelParams()

# Measured two-site estimate at the detection defaults (24-point grid,
# samples_per_leg=2000): about 0.47 in units of pi, far enough from every
# whole number that the classifier must refuse to commit.
HONEST_C_ESTIMATE = 0.4721786097009374


def synthetic_scan(phi_zak, contrast=1.0, n=24, noise=0.0, seed=None):
    grid = default_phi_grid(n)
    n_up = 0.5 * (1.0 - contrast * np.cos(phi_zak - grid))
    if noise:
        rng = np.random.default_rng(seed)
        n_up = np.clip(n_up + rng.normal(0.0, noise, grid.size), 0.0, 1.0)
    return FringeScan(
        phi_mw_values=grid, n_down=1.0 - n_up, n_up=n_up, mode="adiabatic", site="I"
    )


def fringe_fit(phi_zak, contrast=1.0):
    return FringeFit(phi_zak=phi_zak, contrast=contrast, rms_residual=0.0)


# -------------------------------------------------------------- fringe fit


@pytest.mark.parametrize("phi_zak", [np.pi / 2, -np.pi / 2, 0.3, 2.9, -3.0])
def test_fit_roundtrip_clean(phi_zak):
    fit = fit_fringe(synthetic_scan(phi_zak))
    assert fit.phi_zak == pytest.approx(phi_zak, abs=1e-10)
    assert fit.contrast == pytest.approx(1.0, abs=1e-10)
    assert fit.rms_residual < 1e-12


def test_fit_recovers_reduced_contrast():
    fit = fit_fringe(synthetic_scan(1.2, contrast=0.4))
    assert fit.phi_zak == pytest.approx(1.2, abs=1e-10)
    assert fit.contrast == pytest.approx(0.4, abs=1e-10)


def test_fit_noise_error_stays_small():
    """With 2% readout noise on 24 points the phase error is about 1% rms."""
    errors = []
    for seed in range(100):
        fit = fit_fringe(synthetic_scan(1.1, noise=0.02, seed=seed))
        errors.append(wrap_angle(fit.phi_zak - 1.1))
    rms = float(np.sqrt(np.mean(np.square(errors))))
    assert rms < 0.02


def test_fit_rejects_sparse_scan():
    grid = np.array([0.0, 1.0, 2.0, 3.0])
    n_up = 0.5 * (1.0 - np.cos(1.0 - grid))
    scan = FringeScan(
        phi_mw_values=grid, n_down=1 - n_up, n_up=n_up, mode="adiabatic", site="I"
    )
    with pytest.raises(DegenerateScan):
        fit_fringe(scan)


def test_fit_rejects_flat_scan():
    scan = synthetic_scan(0.7, contrast=0.0)
    with pytest.raises(DegenerateScan):
        fit_fringe(scan)


def noisy_rows(count, seed=0):
    """``count`` fringes of random phase and contrast over the default grid,
    each with 1% readout noise."""
    rng = np.random.default_rng(seed)
    grid = default_phi_grid(24)
    phases = rng.uniform(-np.pi, np.pi, (count, 1))
    contrasts = rng.uniform(0.2, 1.0, (count, 1))
    rows = 0.5 * (1.0 - contrasts * np.cos(phases - grid))
    return grid, rows + rng.normal(0.0, 0.01, rows.shape)


def fit_bits(fit):
    return (fit.phi_zak, fit.contrast, fit.rms_residual)


@pytest.mark.parametrize("count", [1, 3, 50])
def test_stacked_fit_rows_equal_their_own_fits(count):
    """Each row of a stack fits, bit for bit, as it does alone, and as
    ``fit_fringe`` fits its scan."""
    grid, rows = noisy_rows(count)
    stacked = fit_fringes(grid, rows)
    assert len(stacked) == count
    for row, fit in zip(rows, stacked):
        row = row.copy()
        (alone,) = fit_fringes(grid, row[None])
        scan = FringeScan(
            phi_mw_values=grid, n_down=1 - row, n_up=row, mode="adiabatic", site="I"
        )
        assert fit_bits(fit) == fit_bits(alone) == fit_bits(fit_fringe(scan))


def test_fit_past_the_cached_grid_size_keeps_no_basis():
    """A grid over ``_CACHED_GRID`` phases fits like any other, and its
    basis is not kept."""
    grid = default_phi_grid(chernscope.analysis._CACHED_GRID + 1)
    row = 0.5 * (1.0 - 0.8 * np.cos(0.7 - grid))
    cached = chernscope.analysis._fit_basis.cache_info().currsize
    (fit,) = fit_fringes(grid, [row])
    assert fit.phi_zak == pytest.approx(0.7, abs=1e-10)
    assert fit.contrast == pytest.approx(0.8, abs=1e-10)
    assert chernscope.analysis._fit_basis.cache_info().currsize == cached


def test_stacked_fit_rejects_sparse_grid():
    grid = np.array([0.0, 1.0, 2.0, 3.0, 3.0 + 1e-13])
    rows = 0.5 * (1.0 - np.cos(np.array([[1.0], [2.0], [0.5]]) - grid))
    with pytest.raises(DegenerateScan, match="5 distinct"):
        fit_fringes(grid, rows)


def test_stacked_fit_rejects_one_flat_row():
    grid, rows = noisy_rows(6)
    rows[4] = 0.5
    with pytest.raises(DegenerateScan, match="zero variance"):
        fit_fringes(grid, rows)


def test_stacked_fit_rejects_rows_off_the_grid():
    grid, rows = noisy_rows(2)
    with pytest.raises(ValueError, match="do not match"):
        fit_fringes(grid[:-1], rows)


@pytest.mark.parametrize("n", [-1, 0, 4])
def test_default_phi_grid_refuses_fewer_than_five_phases(n):
    with pytest.raises(DegenerateScan, match="need at least 5 distinct phi_mw"):
        default_phi_grid(n)


def test_default_phi_grid_covers_circle():
    grid = default_phi_grid(24)
    assert grid.size == 24
    assert grid[0] == pytest.approx(-np.pi)
    assert np.allclose(np.diff(grid), 2 * np.pi / 24, atol=1e-14)
    assert grid[-1] < np.pi


# ---------------------------------------------------------- classification


def test_classify_whole_number_cases():
    up = classify(fringe_fit(np.pi / 2), fringe_fit(np.pi / 2))
    assert up.c_classified == 1
    assert (up.pattern_i, up.pattern_ii) == ("alpha-", "alpha-")
    flat = classify(fringe_fit(np.pi / 2), fringe_fit(-np.pi / 2))
    assert flat.c_classified == 0
    assert (flat.pattern_i, flat.pattern_ii) == ("alpha-", "alpha+")
    down = classify(fringe_fit(-np.pi / 2), fringe_fit(-np.pi / 2))
    assert down.c_classified == -1


def test_classify_tolerates_quarter_band():
    report = classify(fringe_fit(np.pi / 2), fringe_fit(0.9 * np.pi / 2))
    assert report.c_estimate == pytest.approx(0.95)
    assert report.c_classified == 1


def test_classify_refuses_midpoint():
    report = classify(fringe_fit(np.pi / 2), fringe_fit(-0.04 * np.pi))
    assert 0.25 < abs(report.c_estimate - round(report.c_estimate))
    assert report.c_classified is None
    assert report.classified_label == "Ambiguous"


def test_classify_refuses_out_of_range_integer():
    report = classify(fringe_fit(3.0), fringe_fit(3.0))
    assert report.c_estimate == pytest.approx(6.0 / np.pi)
    assert report.c_classified is None


def test_classify_keeps_oracle():
    report = classify(fringe_fit(np.pi / 2), fringe_fit(np.pi / 2), oracle_c=1)
    assert report.oracle_c == 1
    assert report.classified_label == "+1"


def test_measured_sites_classify_ambiguous():
    """End-to-end defaults: the fitted site phases are honest measurements
    of this model's open-path geometry, and their sum sits near 0.47 pi, so
    the whole-number readout declines."""
    grid = default_phi_grid(24)
    fits = [
        fit_fringe(run_fringe(P0, plan_site(site, samples_per_leg=2000), grid))
        for site in ("I", "II")
    ]
    report = classify(fits[0], fits[1], oracle_c=1)
    assert report.c_estimate == pytest.approx(HONEST_C_ESTIMATE, abs=1e-9)
    assert report.c_classified is None
    assert (report.pattern_i, report.pattern_ii) == ("alpha-", "alpha+")


# ------------------------------------------------------------ phase checks


def dynamic_mismatch(plan):
    return abs(evolve_adiabatic(initial_state(), plan, P0)[1].dynamic)


def test_dynamic_phase_matched_on_nominal_plans():
    for site in ("I", "II"):
        assert dynamic_mismatch(plan_site(site)) == pytest.approx(0.0, abs=1e-8)


def test_dynamic_phase_mismatch_on_perturbed_plan():
    pert = perturb_plan(plan_site("I"), radius=0.01, seed=2)
    assert dynamic_mismatch(pert) == pytest.approx(0.6450902901621021, abs=1e-9)


# ------------------------------------------------------------- error sweep


def test_sweep_zero_radius_row():
    table = robustness_sweep(P0, [0.0], trials=5, seed=0)
    (row,) = table.rows
    assert row.radius == 0.0
    assert row.success_rate == 1.0
    assert row.max_zak_error == 0.0
    assert row.n_ambiguous == 5
    assert table.nominal.c_estimate == pytest.approx(0.47217803525599794, abs=1e-9)
    assert table.nominal.c_classified is None


def test_sweep_success_is_staying_ambiguous_at_defaults():
    """At the default couplings the nominal label is Ambiguous, so a trial
    succeeds by staying Ambiguous: no trial classifies C to an integer."""
    table = robustness_sweep(P0, [0.0, 0.003], trials=10, seed=0)
    assert table.nominal.classified_label == "Ambiguous"
    assert all(rec.c_classified is None for rec in table.trials)
    assert all(rec.success for rec in table.trials)
    assert [row.n_ambiguous for row in table.rows] == [10, 10]


def test_sweep_is_deterministic():
    a = robustness_sweep(P0, [0.002], trials=4, seed=7)
    b = robustness_sweep(P0, [0.002], trials=4, seed=7)
    assert a.rows == b.rows
    assert a.trials == b.trials
    for rec_a, rec_b in zip(a.trials, b.trials):
        assert rec_a.zak_error == rec_b.zak_error


def test_sweep_seed_changes_draws():
    a = robustness_sweep(P0, [0.002], trials=4, seed=7)
    c = robustness_sweep(P0, [0.002], trials=4, seed=8)
    assert any(
        rec_a.zak_error != rec_c.zak_error for rec_a, rec_c in zip(a.trials, c.trials)
    )


def test_sweep_small_errors_never_flip():
    table = robustness_sweep(P0, [0.003], trials=10, seed=0)
    (row,) = table.rows
    assert row.success_rate == 1.0
    assert row.max_zak_error < np.pi / 4


def test_sweep_large_errors_break_classification():
    """Endpoint errors of a third of a reciprocal-vector quarter wreck the
    dynamic-phase balance, so agreement with the nominal readout is lost."""
    table = robustness_sweep(P0, [0.3], trials=10, seed=0)
    (row,) = table.rows
    assert row.success_rate < 1.0
    assert row.max_zak_error > np.pi / 4
    flips = [rec for rec in table.trials if not rec.success]
    assert flips
    assert all(rec.zak_error > np.pi / 4 for rec in flips)


def test_sweep_aggregates_match_records():
    table = robustness_sweep(P0, [0.0, 0.002], trials=3, seed=1)
    for row in table.rows:
        recs = [r for r in table.trials if r.radius == row.radius]
        assert row.trials == len(recs) == 3
        assert row.success_rate == pytest.approx(
            np.mean([r.success for r in recs])
        )
        assert row.max_zak_error == pytest.approx(
            max(r.zak_error for r in recs)
        )
        assert row.n_ambiguous == sum(r.c_classified is None for r in recs)


@pytest.mark.parametrize(
    "radii, trials, seed, with_echo, zeeman_rate, readout_trials",
    [
        ([0.0, 0.002], 3, 0, True, 0.0, None),
        ([0.002, 0.0, 0.001, 0.0], 3, 4, True, 0.0, None),
        ([0.002, 0.0, 0.001], 3, 5, False, 0.0, None),
        ([0.0, 0.002, 0.001], 3, 6, True, 0.01, None),
        ([0.0, 0.002, 0.001], 3, 7, False, 0.01, None),
        ([0.002, 0.0, 0.001], 5, 8, True, 0.0, 2),
    ],
    ids=[
        "zero-first", "zero-anywhere", "no-echo", "zeeman", "no-echo-zeeman",
        "two-readout-blocks",
    ],
)
def test_sweep_records_equal_the_plan_by_plan_route(
    monkeypatch, radii, trials, seed, with_echo, zeeman_rate, readout_trials
):
    """The sweep's stacked readout and fit give, bit for bit, the records
    of the public route taken one plan at a time: ``perturb_plan`` with the
    seeds drawn in (radius, trial, site) order, then ``run_fringe``,
    ``fit_fringe`` and ``classify``.  The route evolves every radius-0 plan
    too, so it checks the sweep's reuse of the nominal end states, with a
    zero radius first, between and last, and an odd trial count, so that
    an evolution pass spans two radii.  The echo-free and Zeeman cases run
    the other branches of the pass, and a readout block of two trials makes
    a radius's trials span several blocks, the last one short."""
    if readout_trials is not None:
        monkeypatch.setattr(chernscope.analysis, "_READOUT_TRIALS", readout_trials)
    samples = 40
    table = robustness_sweep(
        P0, radii, trials=trials, seed=seed, samples_per_leg=samples,
        with_echo=with_echo, zeeman_rate=zeeman_rate,
    )
    grid = default_phi_grid(24)
    plans = [
        plan_site(site, with_echo=with_echo, samples_per_leg=samples)
        for site in ("I", "II")
    ]
    nominal = [
        fit_fringe(run_fringe(P0, plan, grid, zeeman_rate=zeeman_rate))
        for plan in plans
    ]
    assert table.nominal == classify(*nominal)
    nominal_sum = nominal[0].phi_zak + nominal[1].phi_zak
    rng = np.random.default_rng(seed)
    expected = []
    for radius in radii:
        for index in range(trials):
            fits, zeros, at_nominal = [], [], []
            for plan, nominal_fit in zip(plans, nominal):
                drawn = int(rng.integers(0, 2**63 - 1))
                pert = perturb_plan(plan, radius=radius, seed=drawn)
                fits.append(
                    fit_fringe(run_fringe(P0, pert, grid, zeeman_rate=zeeman_rate))
                )
                zero, at = run_fringe(
                    P0, pert, [0.0, nominal_fit.phi_zak], zeeman_rate=zeeman_rate
                ).n_up
                zeros.append(zero)
                at_nominal.append(at)
            report = classify(*fits)
            expected.append(
                TrialRecord(
                    radius=radius,
                    index=index,
                    zak_error=abs(
                        wrap_angle(fits[0].phi_zak + fits[1].phi_zak - nominal_sum)
                    ),
                    c_classified=report.c_classified,
                    success=report.c_classified == table.nominal.c_classified,
                    n_up_zero_i=zeros[0],
                    n_up_zero_ii=zeros[1],
                    n_up_nominal_i=at_nominal[0],
                    n_up_nominal_ii=at_nominal[1],
                )
            )
    assert table.trials == tuple(expected)
    zero_rows = [row for row in table.rows if row.radius == 0]
    assert [row.max_zak_error for row in zero_rows] == [0.0] * radii.count(0.0)


def test_sweep_zero_radii_evolve_only_the_nominal_plans(monkeypatch):
    """Radius-0 trials reuse the nominal end states: the sweep's one field
    pass is the nominal one, over both sites' 2 x 1,201 leg samples."""
    sizes = []
    fields = chernscope.protocol.bloch_fields

    def counting(kpts, p):
        sizes.append(len(kpts))
        return fields(kpts, p)

    monkeypatch.setattr(chernscope.protocol, "bloch_fields", counting)
    table = robustness_sweep(P0, [0.0, 0.0], trials=3)
    assert sizes == [2 * 2 * 1201]
    assert [row.max_zak_error for row in table.rows] == [0.0, 0.0]


def test_sweep_refuses_a_radius_out_of_range_after_a_zero_radius():
    with pytest.raises(ValueError) as info:
        robustness_sweep(P0, [0.0, 1.5], trials=2)
    assert str(info.value) == (
        "error radius must lie in [0, |b1|/4 = 1.0472), got 1.5"
    )


@pytest.mark.parametrize(
    "radii,message",
    [
        ([0.001, 1.5], "error radius must lie in [0, |b1|/4 = 1.0472), got 1.5"),
        ([0.001, np.nan], "error radius must lie in [0, |b1|/4 = 1.0472), got nan"),
        ([], "a sweep needs at least one error radius"),
    ],
    ids=["1.5", "nan", "empty"],
)
def test_sweep_checks_every_radius_before_any_evolution(monkeypatch, radii, message):
    """A radius out of range, or NaN, after a valid one is refused before
    the nominal plans are evolved, with perturb_plan's message; so is an
    empty radius list, which has no trial to report."""
    sizes = []
    fields = chernscope.protocol.bloch_fields

    def counting(kpts, p):
        sizes.append(len(kpts))
        return fields(kpts, p)

    monkeypatch.setattr(chernscope.protocol, "bloch_fields", counting)
    with pytest.raises(ValueError) as info:
        robustness_sweep(P0, radii, trials=25)
    assert str(info.value) == message
    assert sizes == []


def test_sweep_negative_zero_radius_is_a_zero_radius():
    a = robustness_sweep(P0, [-0.0, 0.001], trials=2, samples_per_leg=40)
    b = robustness_sweep(P0, [0.0, 0.001], trials=2, samples_per_leg=40)
    assert a.rows == b.rows
    assert a.trials == b.trials
    assert a.nominal == b.nominal


def test_sweep_rejects_empty_trials():
    with pytest.raises(ValueError):
        robustness_sweep(P0, [0.0], trials=0)


def _sweep_peak(trials):
    """tracemalloc peak of an in-process ``sweep`` at the default 4 radii
    and 100 samples per leg, in bytes."""
    argv = ["sweep", "--trials", str(trials), "--samples-per-leg", "100"]
    tracemalloc.start()
    try:
        code = chernscope.cli.main(argv, stdout=io.StringIO())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_sweep_memory_grows_by_under_0_6_kB_per_trial():
    """The sweep's peak grows by less than 0.6 kB per trial from 400 to
    1,600 trials per radius: about 0.43 kB when each block of at most
    ``_READOUT_TRIALS`` trials is closed once, against 0.77 when every pass
    closed its own plans and 0.70 when all of a sweep's plans close in one
    call.  At 400 trials the peak stays below 3 MB (about 1.7 MB): a
    closing that kept a view of each pass's fields would hold about 0.5 MB
    for each of a block's 11 passes at this sampling (6.9 MB)."""
    chernscope.cli.main(
        ["sweep", "--trials", "2", "--samples-per-leg", "100"], stdout=io.StringIO()
    )
    small, large = _sweep_peak(400), _sweep_peak(1600)
    assert small < 3_000_000
    assert (large - small) / (4 * 1200) < 600
