"""Fringe fitting, site-pair classification, and the robustness study.

The fitted fringe model is N_up(phi_mw) = (1 - c cos(phi_zak - phi_mw)) / 2,
linear in (1, cos, sin) after expansion, so the fit is a plain least-squares
solve.  :func:`fit_fringes` fits a stack of readouts over one shared grid
of pulse phases: it checks the grid once, builds the basis and its
pseudo-inverse once (and keeps them for a small grid, which is fitted
again and again), and applies them to each row by an elementwise multiply
and a sum over the phase axis, so a row's fit does not depend on the rows
that share its stack.  :func:`fit_fringe` is its one-row case.
Two site phases combine into the estimate (phi_I + phi_II) / pi,
classified to the nearest integer when within 1/4 (the per-phase pi/4 error
budget expressed in whole-number units); anything farther is Ambiguous.

The robustness sweep perturbs the leg endpoints, reruns the full pipeline,
and tabulates how the realized phase error moves the classification.  It
reads out and fits its plans a block at a time: one readout pulse over the
block's (plans, phases) array and one stacked fit.  The readout population
is recorded both at phi_mw = 0 and at phi_mw equal to the nominal fitted
phase; neither is asserted against a threshold, they are diagnostics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import cycle, islice
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateScan
from .interferometer import (
    FringeScan,
    SpinorState,
    _scan_populations,
    evolve_adiabatic_batch,
    wrap_angle,
)
from .lattice import ModelParams
from .protocol import SITES, perturb_plan, plan_site
from .topology import _require_gapped, chern_from_zak

__all__ = [
    "MAX_PHI_MW_POINTS",
    "MAX_SWEEP_TRIALS",
    "FringeFit",
    "ChernReport",
    "TrialRecord",
    "RobustnessRow",
    "RobustnessTable",
    "fit_fringe",
    "fit_fringes",
    "classify",
    "robustness_sweep",
    "default_phi_grid",
]

AMBIGUOUS = "Ambiguous"

# Largest pulse-phase scan and largest sweep, counted in trials over all
# radii; see default_phi_grid and robustness_sweep for what they imply.
MAX_PHI_MW_POINTS = 1_000_000
MAX_SWEEP_TRIALS = 100_000

# Largest pulse-phase grid whose fit basis _fit_basis keeps: its four
# entries then hold at most about 1 MB.
_CACHED_GRID = 4096

# Trials per readout block of a sweep: a radius's trials are read out and
# fitted at most this many at a time, so a block's arrays (about 0.8 MB at
# the default 24 pulse phases) do not grow with the trial count.
_READOUT_TRIALS = 256


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


@functools.lru_cache(maxsize=4)
def _fit_basis(grid: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The basis (1, cos, sin) of a pulse-phase grid, given as the bytes of
    its float64 array, and the basis's pseudo-inverse, both read-only.

    Raises:
        DegenerateScan: if the grid has fewer than 5 distinct phases.
    """
    phi = np.frombuffer(grid)
    if np.unique(np.round(phi, 12)).size < 5:
        raise DegenerateScan("need at least 5 distinct phi_mw points")
    basis = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    pinv = np.linalg.pinv(basis)
    basis.flags.writeable = pinv.flags.writeable = False
    return basis, pinv


def fit_fringes(phi_mw_values, n_up_rows) -> tuple:
    """Least-squares fringe fit of each row of ``n_up_rows`` over one shared
    grid of pulse phases; one FringeFit per row, in order.

    The grid needs at least 5 distinct pulse phases, and no row may be flat.
    The basis (1, cos, sin) of the grid and its pseudo-inverse are built
    once (:func:`_fit_basis`); each row's coefficients are the
    pseudo-inverse applied by an elementwise multiply and a sum over the
    phase axis, not a matrix product, so a row's fit is bit for bit the
    same whatever rows share its stack.

    Raises:
        DegenerateScan: if the grid has fewer than 5 distinct phases, or
            any row has zero variance, before any fit is returned.
        ValueError: if the rows are not a (rows, phases) array over the
            grid.
    """
    phi = np.asarray(phi_mw_values, dtype=float)
    rows = np.asarray(n_up_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != phi.size:
        raise ValueError(
            f"readout rows of shape {rows.shape} do not match {phi.size} pulse phases"
        )
    # A small grid's basis is cached, so repeated fits over one grid (two
    # per detection) do not decompose it again; a large one is not kept.
    decompose = _fit_basis if phi.size <= _CACHED_GRID else _fit_basis.__wrapped__
    basis, pinv = decompose(phi.tobytes())
    if np.any(np.ptp(rows, axis=1) == 0.0):
        raise DegenerateScan("readout has zero variance across the scan")
    coef = (pinv * rows[:, None, :]).sum(axis=-1)
    residual = (basis * coef[:, None, :]).sum(axis=-1) - rows
    _, a, b = coef.T
    return tuple(
        map(
            FringeFit,
            wrap_angle(np.arctan2(-b, -a)).tolist(),
            (2.0 * np.hypot(a, b)).tolist(),
            np.sqrt((residual**2).sum(axis=-1) / phi.size).tolist(),
        )
    )


def fit_fringe(scan: FringeScan) -> FringeFit:
    """Least-squares fringe fit of one scan: :func:`fit_fringes` of its one
    row; needs at least 5 distinct pulse phases."""
    (fit,) = fit_fringes(scan.phi_mw_values, [scan.n_up])
    return fit


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


def _read_and_fit(
    ends: Sequence[SpinorState], phases: np.ndarray, m: int
) -> tuple[tuple, np.ndarray]:
    """Read out a block of end states and fit their fringes.

    ``ends`` runs over trials and, within a trial, over the sites; row s of
    ``phases`` holds the pulse phases of site s, the grid first.  Returns
    the fit of each end state's first ``m`` phases, in order, and N_up of
    every phase as a (trials, sites, phases) array.  The readout is one
    pulse over the whole block.
    """
    amps = np.array([(end.amp_down, end.amp_up) for end in ends])
    amps = amps.reshape(-1, len(phases), 2, 1)
    _, n_up = _scan_populations(amps[..., 0, :], amps[..., 1, :], phases)
    return fit_fringes(phases[0, :m], n_up[..., :m].reshape(-1, m)), n_up


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
    pass, so only one batch of plans is held at a time.  A zero radius
    (also -0.0) draws its trials' seeds but evolves nothing: its trials
    reuse the nominal end states.  That is exact, because ``perturb_plan``
    at radius 0 reproduces the nominal plan bit for bit and a batched
    evolution gives each plan the bits it gets alone.  The end states are
    read out and fitted in blocks of at most ``_READOUT_TRIALS`` trials of
    one radius: one readout pulse over the block and one
    :func:`fit_fringes` call, whose rows fit as each would alone, so every
    record equals that of ``run_fringe``, ``fit_fringe`` and ``classify``
    taken plan by plan.  The ``sweep`` command peaks at about 1.1 kB per
    trial (tracemalloc at 400 and 1,600 trials per radius over 4 radii), so
    the budget of ``MAX_SWEEP_TRIALS`` = 100,000 trials over all radii
    implies about 110 MB; a trial at a nonzero radius takes about 2.5 ms
    at the default sampling on one Intel Xeon vCPU (400 trials at radius
    0.002; about 0.04 ms at radius 0), so the budget also bounds the run to
    about four minutes.

    Raises:
        ValueError: if ``trials`` is below 1, or ``trials`` times the number
            of radii is over ``MAX_SWEEP_TRIALS``, before any evolution.
        GaplessPoint: if the model is gapless, before any evolution, as
            :func:`chernscope.topology.chern_number` raises it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    total = trials * len(error_radii)
    if total > MAX_SWEEP_TRIALS:
        raise ValueError(
            f"{trials} trials at {len(error_radii)} radii make {total}, over "
            f"the budget of {MAX_SWEEP_TRIALS} trials per sweep"
        )
    _require_gapped(p)
    phi_grid = default_phi_grid(phi_mw_points)
    m = len(phi_grid)
    plans = [
        plan_site(
            site, leg_time=leg_time, with_echo=with_echo,
            samples_per_leg=samples_per_leg,
        )
        for site in SITES
    ]
    nominal_ends = [end for end, _ in evolve_adiabatic_batch(plans, p, zeeman_rate)]
    nominal_fits, _ = _read_and_fit(nominal_ends, np.stack([phi_grid] * 2), m)
    nominal = classify(*nominal_fits)
    nominal_phi = [fit.phi_zak for fit in nominal_fits]
    nominal_sum = nominal_phi[0] + nominal_phi[1]
    # Per site: the grid, then the diagnostic phases 0 and the nominal phase.
    phases = np.array([np.append(phi_grid, [0.0, phi]) for phi in nominal_phi])

    rng = np.random.default_rng(seed)
    draws = (
        (radius, plan, int(rng.integers(0, 2**63 - 1)))
        for radius in error_radii
        for _ in range(trials)
        for plan in plans
    )
    # A zero radius draws its seeds, so later draws keep their order even
    # though the batch reads plans ahead, but evolves nothing: its end
    # states are the nominal ones.
    perturbed = (
        perturb_plan(plan, radius=radius, seed=drawn)
        for radius, plan, drawn in draws
        if radius != 0
    )
    ends = (end for end, _ in evolve_adiabatic_batch(perturbed, p, zeeman_rate))
    rows = []
    records = []
    for radius in error_radii:
        source = cycle(nominal_ends) if radius == 0 else ends
        block = []
        for first in range(0, trials, _READOUT_TRIALS):
            count = min(_READOUT_TRIALS, trials - first)
            fits, n_up = _read_and_fit(
                list(islice(source, count * len(SITES))), phases, m
            )
            for index, fit_i, fit_ii, zero, at_nominal in zip(
                range(first, first + count), fits[0::2], fits[1::2],
                n_up[..., m], n_up[..., m + 1],
            ):
                report = classify(fit_i, fit_ii)
                error = wrap_angle(fit_i.phi_zak + fit_ii.phi_zak - nominal_sum)
                block.append(
                    TrialRecord(
                        radius=float(radius),
                        index=index,
                        zak_error=abs(error),
                        c_classified=report.c_classified,
                        success=report.c_classified == nominal.c_classified,
                        n_up_zero_i=zero[0],
                        n_up_zero_ii=zero[1],
                        n_up_nominal_i=at_nominal[0],
                        n_up_nominal_ii=at_nominal[1],
                    )
                )
        rows.append(_radius_row(float(radius), block))
        records.extend(block)
    return RobustnessTable(rows=tuple(rows), trials=tuple(records), nominal=nominal)
