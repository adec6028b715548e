"""Tests for fringe fitting, whole-number classification, and the error sweep."""

import numpy as np
import pytest

from chernscope import (
    DegenerateScan,
    FringeFit,
    FringeScan,
    ModelParams,
    classify,
    default_phi_grid,
    evolve_adiabatic,
    fit_fringe,
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
        fit_fringe(run_fringe(P0, plan_site(site, P0, samples_per_leg=2000), grid))
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
        assert dynamic_mismatch(plan_site(site, P0)) == pytest.approx(0.0, abs=1e-8)


def test_dynamic_phase_mismatch_on_perturbed_plan():
    pert = perturb_plan(plan_site("I", P0), radius=0.01, seed=2)
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


def test_sweep_rejects_empty_trials():
    with pytest.raises(ValueError):
        robustness_sweep(P0, [0.0], trials=0)
