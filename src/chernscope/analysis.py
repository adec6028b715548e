"""Fringe fitting, site-pair classification, and the robustness study.

The fitted fringe model is N_up(phi_mw) = (1 - c cos(phi_zak - phi_mw)) / 2,
linear in (1, cos, sin) after expansion, so the fit is a plain least-squares
solve.  Two site phases combine into the estimate (phi_I + phi_II) / pi,
classified to the nearest integer when within 1/4 (the per-phase pi/4 error
budget expressed in whole-number units); anything farther is Ambiguous.

The robustness sweep perturbs the leg endpoints, reruns the full pipeline,
and tabulates how the realized phase error moves the classification.  The
readout population at the nominal phase is recorded both at phi_mw = 0 and
at phi_mw equal to the nominal fitted phase; neither is asserted against a
threshold, they are diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateScan
from .interferometer import (
    FringeScan,
    SpinorState,
    evolve_adiabatic_batch,
    readout_scan,
    wrap_angle,
)
from .lattice import ModelParams
from .protocol import perturb_plan, plan_site
from .topology import chern_from_zak

__all__ = [
    "MAX_PHI_MW_POINTS",
    "MAX_SWEEP_TRIALS",
    "FringeFit",
    "ChernReport",
    "TrialRecord",
    "RobustnessRow",
    "RobustnessTable",
    "fit_fringe",
    "classify",
    "robustness_sweep",
    "default_phi_grid",
]

AMBIGUOUS = "Ambiguous"

_SITES = ("I", "II")

# Largest pulse-phase scan and largest sweep, counted in trials over all
# radii; see default_phi_grid and robustness_sweep for what they imply.
MAX_PHI_MW_POINTS = 1_000_000
MAX_SWEEP_TRIALS = 100_000


def default_phi_grid(n: int = 24) -> np.ndarray:
    """Evenly spaced pulse phases covering one full fringe period.

    A ``fringe`` run peaks at about 460 bytes per pulse phase (tracemalloc
    at 20,000 and 80,000 phases), so the budget of ``MAX_PHI_MW_POINTS`` =
    1,000,000 implies a peak of about 460 MB.

    Raises:
        ValueError: if n is over ``MAX_PHI_MW_POINTS``, before anything is
            allocated.
    """
    if n > MAX_PHI_MW_POINTS:
        raise ValueError(
            f"{n} pulse phases are over the budget of {MAX_PHI_MW_POINTS}"
        )
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True)
class FringeFit:
    phi_zak: float
    contrast: float
    rms_residual: float


@dataclass(frozen=True)
class ChernReport:
    """Joint classification of the two site phases.

    ``c_classified`` is an integer in {-1, 0, +1} or None for Ambiguous;
    ``classified_label`` renders it for reports.  The per-site patterns name
    the matched population template: "alpha-" for a positive phase (template
    [1 - cos(pi/2 - phi_mw)] / 2) and "alpha+" for a negative one.
    """

    phi_zak_i: float
    phi_zak_ii: float
    c_estimate: float
    c_classified: Optional[int]
    pattern_i: str
    pattern_ii: str
    oracle_c: Optional[int] = None

    @property
    def classified_label(self) -> str:
        if self.c_classified is None:
            return AMBIGUOUS
        return f"{self.c_classified:+d}" if self.c_classified else "0"


@dataclass(frozen=True)
class TrialRecord:
    radius: float
    index: int
    zak_error: float
    c_classified: Optional[int]
    success: bool
    n_up_zero_i: float
    n_up_zero_ii: float
    n_up_nominal_i: float
    n_up_nominal_ii: float


@dataclass(frozen=True)
class RobustnessRow:
    radius: float
    trials: int
    success_rate: float
    max_zak_error: float
    mean_zak_error: float
    n_ambiguous: int
    mean_n_up_zero: float
    mean_n_up_nominal: float


@dataclass(frozen=True)
class RobustnessTable:
    rows: tuple
    trials: tuple
    nominal: ChernReport


def fit_fringe(scan: FringeScan) -> FringeFit:
    """Least-squares fringe fit; needs at least 5 distinct pulse phases."""
    phi = np.asarray(scan.phi_mw_values, dtype=float)
    n_up = np.asarray(scan.n_up, dtype=float)
    if np.unique(np.round(phi, 12)).size < 5:
        raise DegenerateScan("need at least 5 distinct phi_mw points")
    if np.ptp(n_up) == 0.0:
        raise DegenerateScan("readout has zero variance across the scan")
    basis = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    coef, *_ = np.linalg.lstsq(basis, n_up, rcond=None)
    _, a, b = coef
    phi_zak = wrap_angle(float(np.arctan2(-b, -a)))
    contrast = 2.0 * float(np.hypot(a, b))
    residual = basis @ coef - n_up
    return FringeFit(
        phi_zak=phi_zak,
        contrast=contrast,
        rms_residual=float(np.sqrt(np.mean(residual**2))),
    )


def _pattern(phi: float) -> str:
    return "alpha-" if phi >= 0.0 else "alpha+"


def classify(
    fit_i: FringeFit, fit_ii: FringeFit, oracle_c: Optional[int] = None
) -> ChernReport:
    """Combine the two fitted site phases into a whole-number estimate."""
    c_estimate = chern_from_zak(fit_i.phi_zak, fit_ii.phi_zak)
    nearest = int(np.rint(c_estimate))
    c_classified: Optional[int] = None
    if abs(c_estimate - nearest) <= 0.25 and nearest in (-1, 0, 1):
        c_classified = nearest
    return ChernReport(
        phi_zak_i=fit_i.phi_zak,
        phi_zak_ii=fit_ii.phi_zak,
        c_estimate=float(c_estimate),
        c_classified=c_classified,
        pattern_i=_pattern(fit_i.phi_zak),
        pattern_ii=_pattern(fit_ii.phi_zak),
        oracle_c=oracle_c,
    )


def _site_scan_and_points(
    end: SpinorState, site: str, phi_grid: np.ndarray, nominal_phi: float
) -> tuple[FringeScan, float, float]:
    """The scan of an adiabatic end state over the grid, and N_up at the two
    diagnostic phases 0 and ``nominal_phi``, read out with the grid."""
    n_down, n_up = readout_scan(end, np.append(phi_grid, [0.0, nominal_phi]))
    m = len(phi_grid)
    scan = FringeScan(
        phi_mw_values=phi_grid,
        n_down=n_down[:m],
        n_up=n_up[:m],
        mode="adiabatic",
        site=site,
    )
    return scan, n_up[m], n_up[m + 1]


def _radius_row(radius: float, records: list) -> RobustnessRow:
    """The summary row of one radius's trial records."""
    n = len(records)
    errors = [r.zak_error for r in records]
    zero = sum((r.n_up_zero_i + r.n_up_zero_ii) / 2.0 for r in records)
    nominal = sum((r.n_up_nominal_i + r.n_up_nominal_ii) / 2.0 for r in records)
    return RobustnessRow(
        radius=radius,
        trials=n,
        success_rate=sum(r.success for r in records) / n,
        max_zak_error=float(np.max(errors)),
        mean_zak_error=float(np.mean(errors)),
        n_ambiguous=sum(r.c_classified is None for r in records),
        mean_n_up_zero=zero / n,
        mean_n_up_nominal=nominal / n,
    )


def robustness_sweep(
    p: ModelParams,
    error_radii: Sequence[float],
    trials: int = 100,
    seed: int = 0,
    leg_time: float = 200.0,
    with_echo: bool = True,
    samples_per_leg: int = 1200,
    phi_mw_points: int = 24,
    zeeman_rate: float = 0.0,
) -> RobustnessTable:
    """Endpoint-error Monte Carlo over the full two-site pipeline.

    Success means the classification of a perturbed run equals the nominal
    one.  When the nominal run is Ambiguous, as at the default couplings,
    success means the trial stayed Ambiguous, not that it classified C;
    ``TrialRecord.c_classified`` and ``RobustnessRow.n_ambiguous`` show how
    many trials classified to an integer.  The realized phase error is the
    wrapped deviation of the fitted site-phase sum from its nominal value,
    the quantity the 1/4 tolerance actually budgets.  Fixed iteration order
    and a single seeded generator make the table reproducible.  Every
    evolution runs at ``zeeman_rate``.

    Each perturbed plan is built as its seed is drawn, in (radius, trial,
    site) order, and the plans are evolved by
    :func:`chernscope.interferometer.evolve_adiabatic_batch` a few per
    pass, so only one batch of plans is held at a time.  The
    ``sweep`` command peaks at about 1.2 kB per trial (tracemalloc at 400
    and 1,600 trials per radius over 4 radii), so the budget of
    ``MAX_SWEEP_TRIALS`` = 100,000 trials over all radii implies about
    120 MB; a trial takes about 2 ms at the default sampling on one Intel
    Xeon vCPU, so the budget also bounds the run to about four minutes.

    Raises:
        ValueError: if ``trials`` is below 1, or ``trials`` times the number
            of radii is over ``MAX_SWEEP_TRIALS``, before any evolution.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    total = trials * len(error_radii)
    if total > MAX_SWEEP_TRIALS:
        raise ValueError(
            f"{trials} trials at {len(error_radii)} radii make {total}, over "
            f"the budget of {MAX_SWEEP_TRIALS} trials per sweep"
        )
    phi_grid = default_phi_grid(phi_mw_points)
    plans = {
        site: plan_site(
            site, p, leg_time=leg_time, with_echo=with_echo,
            samples_per_leg=samples_per_leg,
        )
        for site in _SITES
    }
    nominal_fits = {}
    nominal_phi = {}
    nominal_ends = evolve_adiabatic_batch(plans.values(), p, zeeman_rate)
    for site, (end, _) in zip(_SITES, nominal_ends):
        scan, _, _ = _site_scan_and_points(end, site, phi_grid, 0.0)
        nominal_fits[site] = fit_fringe(scan)
        nominal_phi[site] = nominal_fits[site].phi_zak
    nominal = classify(nominal_fits["I"], nominal_fits["II"])
    nominal_sum = nominal_phi["I"] + nominal_phi["II"]

    rng = np.random.default_rng(seed)
    perturbed = (
        perturb_plan(plans[site], radius=radius, seed=int(rng.integers(0, 2**63 - 1)))
        for radius in error_radii
        for _ in range(trials)
        for site in _SITES
    )
    ends = evolve_adiabatic_batch(perturbed, p, zeeman_rate)
    rows = []
    records = []
    for radius in error_radii:
        block = []
        for index in range(trials):
            fits = {}
            zeros = {}
            nominals = {}
            for site in _SITES:
                end, _ = next(ends)
                scan, zeros[site], nominals[site] = _site_scan_and_points(
                    end, site, phi_grid, nominal_phi[site]
                )
                fits[site] = fit_fringe(scan)
            report = classify(fits["I"], fits["II"])
            error = abs(
                wrap_angle(fits["I"].phi_zak + fits["II"].phi_zak - nominal_sum)
            )
            block.append(
                TrialRecord(
                    radius=float(radius),
                    index=index,
                    zak_error=error,
                    c_classified=report.c_classified,
                    success=report.c_classified == nominal.c_classified,
                    n_up_zero_i=zeros["I"],
                    n_up_zero_ii=zeros["II"],
                    n_up_nominal_i=nominals["I"],
                    n_up_nominal_ii=nominals["II"],
                )
            )
        rows.append(_radius_row(float(radius), block))
        records.extend(block)
    return RobustnessTable(rows=tuple(rows), trials=tuple(records), nominal=nominal)
