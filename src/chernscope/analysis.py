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

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateScan
from .interferometer import FringeScan, dynamic_phase, run_fringe, wrap_angle
from .lattice import ModelParams
from .protocol import ProtocolPlan, perturb_plan, plan_site
from .topology import chern_from_zak

__all__ = [
    "FringeFit",
    "ChernReport",
    "TrialRecord",
    "RobustnessRow",
    "RobustnessTable",
    "fit_fringe",
    "classify",
    "robustness_sweep",
    "dynamic_phase_check",
    "default_phi_grid",
]

AMBIGUOUS = "Ambiguous"


def default_phi_grid(n: int = 24) -> np.ndarray:
    """Evenly spaced pulse phases covering one full fringe period."""
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
    p: ModelParams, plan: ProtocolPlan, phi_grid: np.ndarray, nominal_phi: float
) -> tuple[FringeScan, float, float]:
    """One evolution, scanned over the grid plus the two diagnostic phases
    (0 and ``nominal_phi``) appended to it."""
    full = run_fringe(p, plan.site, np.append(phi_grid, [0.0, nominal_phi]), plan=plan)
    m = len(phi_grid)
    scan = dataclasses.replace(
        full, phi_mw_values=phi_grid, n_down=full.n_down[:m], n_up=full.n_up[:m]
    )
    return scan, full.n_up[m], full.n_up[m + 1]


def robustness_sweep(
    p: ModelParams,
    error_radii: Sequence[float],
    trials: int = 100,
    seed: int = 0,
    leg_time: float = 200.0,
    with_echo: bool = True,
    samples_per_leg: int = 1200,
    phi_mw_points: int = 24,
) -> RobustnessTable:
    """Endpoint-error Monte Carlo over the full two-site pipeline.

    Success means the classification of a perturbed run equals the nominal
    one.  When the nominal run is Ambiguous, as at the default couplings,
    success means the trial stayed Ambiguous, not that it classified C;
    ``TrialRecord.c_classified`` and ``RobustnessRow.n_ambiguous`` show how
    many trials classified to an integer.  The realized phase error is the
    wrapped deviation of the fitted site-phase sum from its nominal value,
    the quantity the 1/4 tolerance actually budgets.  Fixed iteration order
    and a single seeded generator make the table reproducible.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phi_grid = default_phi_grid(phi_mw_points)
    plans = {
        site: plan_site(
            site, p, leg_time=leg_time, with_echo=with_echo,
            samples_per_leg=samples_per_leg,
        )
        for site in ("I", "II")
    }
    nominal_fits = {}
    nominal_phi = {}
    for site, plan in plans.items():
        scan, _, _ = _site_scan_and_points(p, plan, phi_grid, 0.0)
        nominal_fits[site] = fit_fringe(scan)
        nominal_phi[site] = nominal_fits[site].phi_zak
    nominal = classify(nominal_fits["I"], nominal_fits["II"])
    nominal_sum = nominal_phi["I"] + nominal_phi["II"]

    rng = np.random.default_rng(seed)
    rows = []
    records = []
    for radius in error_radii:
        errors = []
        successes = 0
        ambiguous = 0
        zero_acc = 0.0
        nominal_acc = 0.0
        for index in range(trials):
            fits = {}
            zeros = {}
            nominals = {}
            for site in ("I", "II"):
                trial_seed = int(rng.integers(0, 2**63 - 1))
                pplan = perturb_plan(plans[site], radius=radius, seed=trial_seed)
                scan, n0, nn = _site_scan_and_points(
                    p, pplan, phi_grid, nominal_phi[site]
                )
                fits[site] = fit_fringe(scan)
                zeros[site] = n0
                nominals[site] = nn
            report = classify(fits["I"], fits["II"])
            error = abs(
                wrap_angle(fits["I"].phi_zak + fits["II"].phi_zak - nominal_sum)
            )
            success = report.c_classified == nominal.c_classified
            errors.append(error)
            successes += success
            ambiguous += report.c_classified is None
            zero_acc += (zeros["I"] + zeros["II"]) / 2.0
            nominal_acc += (nominals["I"] + nominals["II"]) / 2.0
            records.append(
                TrialRecord(
                    radius=float(radius),
                    index=index,
                    zak_error=error,
                    c_classified=report.c_classified,
                    success=success,
                    n_up_zero_i=zeros["I"],
                    n_up_zero_ii=zeros["II"],
                    n_up_nominal_i=nominals["I"],
                    n_up_nominal_ii=nominals["II"],
                )
            )
        rows.append(
            RobustnessRow(
                radius=float(radius),
                trials=trials,
                success_rate=successes / trials,
                max_zak_error=float(np.max(errors)),
                mean_zak_error=float(np.mean(errors)),
                n_ambiguous=ambiguous,
                mean_n_up_zero=zero_acc / trials,
                mean_n_up_nominal=nominal_acc / trials,
            )
        )
    return RobustnessTable(rows=tuple(rows), trials=tuple(records), nominal=nominal)


def dynamic_phase_check(plan: ProtocolPlan, p: ModelParams) -> float:
    """Mismatch of the two packets' dynamical phases along the planned legs."""
    down, up = (
        dynamic_phase(kpath.points, p, plan.leg_time)
        for kpath in (plan.k_path_down, plan.k_path_up)
    )
    return abs(down - up)
