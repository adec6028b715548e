"""Fringe fitting, the two-site readout, and the robustness study.

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

:class:`TwoSiteReadout` holds that scheme's plans, evolves them, and reads
out, fits and classifies a stack of trials at once.  The robustness sweep
perturbs its leg endpoints and tabulates how the realized phase error
moves the classification.  The readout population is recorded both at
phi_mw = 0 and at phi_mw equal to the nominal fitted phase; neither is
asserted against a threshold, they are diagnostics.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateScan
from .interferometer import (
    FringeScan,
    _stacked_readout,
    evolve_endpoints,
    evolve_tdse,
    initial_state,
    wrap_angle,
)
from .lattice import ModelParams
from .protocol import (
    _require_error_radius,
    endpoint_errors,
    plan_arrays,
    plans_from_config,
)
from .topology import _require_gapped, chern_from_zak

__all__ = [
    "MAX_PHI_MW_POINTS",
    "MAX_SWEEP_TRIALS",
    "FringeFit",
    "ChernReport",
    "TrialRecord",
    "TwoSiteReadout",
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

# Trials per block of a sweep: the sweep's plans are evolved and closed at
# most this many trials' worth at a time, and a radius's trials are read
# out and fitted at most this many at a time, so a block's arrays (about
# 0.8 MB at the default 24 pulse phases) do not grow with the trial count.
_READOUT_TRIALS = 256


def default_phi_grid(n: int = 24) -> np.ndarray:
    """Evenly spaced pulse phases covering one full fringe period.

    A ``fringe`` run peaks at about 460 bytes per pulse phase (tracemalloc
    at 20,000 and 80,000 phases), so the budget of ``MAX_PHI_MW_POINTS`` =
    1,000,000 implies a peak of about 460 MB.

    Raises:
        DegenerateScan: if n is below 5, too few phases to fit.
        ValueError: if n is over ``MAX_PHI_MW_POINTS``, before anything is
            allocated.
    """
    if n < 5:
        raise DegenerateScan("need at least 5 distinct phi_mw points")
    if n > MAX_PHI_MW_POINTS:
        raise ValueError(
            f"{n} pulse phases are over the budget of {MAX_PHI_MW_POINTS}"
        )
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


class FringeFit(NamedTuple):
    phi_zak: float
    contrast: float
    rms_residual: float


class ChernReport(NamedTuple):
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


class TrialRecord(NamedTuple):
    radius: float
    index: int
    zak_error: float
    c_classified: Optional[int]
    success: bool
    n_up_zero_i: float
    n_up_zero_ii: float
    n_up_nominal_i: float
    n_up_nominal_ii: float


class RobustnessRow(NamedTuple):
    radius: float
    trials: int
    success_rate: float
    max_zak_error: float
    mean_zak_error: float
    n_ambiguous: int
    mean_n_up_zero: float
    mean_n_up_nominal: float


class RobustnessTable(NamedTuple):
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


class TwoSiteReadout(NamedTuple):
    """The two-site Zak-phase readout, the spin-dependent-force scheme of
    Abanin et al., PRL 110, 165304 (2013): one plan per detection site, in
    ``SITES`` order.  A trial evolves each plan, reads out and fits its
    fringe, and reduces its fits to a ChernReport by :func:`classify`.
    """

    plans: tuple

    def evolve(
        self, p: ModelParams, zeeman_rate: float = 0.0, mode: str = "adiabatic",
        dt: Optional[float] = None, errors: Sequence[np.ndarray] = (),
    ) -> np.ndarray:
        """Closed slot amplitudes, (plans, 2), of the plans: one
        ``evolve_tdse`` each in tdse mode, else one
        :func:`chernscope.interferometer.evolve_endpoints` pass.  There,
        each array of ``errors``, (trials * plans, 2, 2), adds a row per
        trial and plan with the plan's endpoints displaced by its errors;
        the rows are evolved at most ``_READOUT_TRIALS`` trials at a time.
        """
        if mode == "tdse":
            ends = (evolve_tdse(initial_state(), plan, p, dt, zeeman_rate)[0]
                    for plan in self.plans)
            return np.array([(end.amp_down, end.amp_up) for end in ends])
        k = len(self.plans)
        starts, nominal, n = plan_arrays(self.plans)
        ends = np.concatenate(
            [nominal, *(np.tile(nominal, (len(e) // k, 1, 1)) + e for e in errors)]
        )
        starts = np.tile(starts, (len(ends) // k, 1))
        amps = np.empty((len(ends), 2), dtype=complex)
        for first in range(0, len(ends), _READOUT_TRIALS * k):
            part = slice(first, first + _READOUT_TRIALS * k)
            amps[part] = evolve_endpoints(
                starts[part], ends[part], n, self.plans[0].leg_time,
                self.plans[0].with_echo, p, zeeman_rate,
            )[0]
        return amps

    def read(
        self, amps, grid, extra=(), oracle_c: Optional[int] = None
    ) -> tuple[list, list, np.ndarray]:
        """The one stacked readout and fit: each trial's report and fits and
        N_up of every phase, (trials, plans, phases), of the closed
        amplitudes of whole trials, (trials * plans, 2).  Each plan is read
        at the grid, which is fitted, then at its row of ``extra`` phases;
        one pulse, that of ``run_fringe``, reads the whole stack and one
        :func:`fit_fringes` fits it."""
        k, m = len(self.plans), len(grid)
        phases = np.hstack([np.tile(grid, (k, 1)), np.reshape(extra, (k, -1))])
        _, n_up = _stacked_readout(amps, phases)
        fits = fit_fringes(grid, n_up[..., :m].reshape(-1, m))
        trials = [fits[i:i + k] for i in range(0, len(fits), k)]
        return [classify(*f, oracle_c=oracle_c) for f in trials], trials, n_up


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
    """Endpoint-error Monte Carlo over the two-site readout.

    Success means the classification of a perturbed run equals the nominal
    one.  When the nominal run is Ambiguous, as at the default couplings,
    success means the trial stayed Ambiguous, not that it classified C;
    ``TrialRecord.c_classified`` and ``RobustnessRow.n_ambiguous`` show how
    many trials classified to an integer.  The realized phase error is the
    wrapped deviation of the fitted site-phase sum from its nominal value,
    the quantity the 1/4 tolerance actually budgets.  Fixed iteration order
    and a single seeded generator make the table reproducible.  Every
    evolution runs at ``zeeman_rate``.

    The nominal plans of the :class:`TwoSiteReadout` and every perturbed
    trial of the nonzero radii are evolved as one array of endpoints
    (:meth:`TwoSiteReadout.evolve`), the nominal pair sharing its pass
    with the first perturbed trial.  The seeds are drawn in (radius,
    trial, site) order, one ``rng.integers`` call per radius, and each
    nonzero radius's endpoint errors come from one
    :func:`chernscope.protocol.endpoint_errors` call, whose rows are those
    of ``perturb_plan`` seed by seed.  A zero radius (also -0.0) draws its
    trials' seeds but evolves nothing: its trials reuse the nominal
    amplitudes, which is exact, as ``perturb_plan`` at radius 0 gives the
    nominal plan bit for bit and a batched evolution gives each plan the
    bits it gets alone.  :meth:`TwoSiteReadout.read` then reads the
    nominal trial, as ``detect`` does, and the perturbed trials in blocks
    of at most ``_READOUT_TRIALS`` trials of one radius, each fit as it
    would be alone, so every record equals that of ``perturb_plan``,
    ``run_fringe``, ``fit_fringe`` and ``classify`` taken plan by plan.
    The ``sweep`` command peaks at about 1.8 MB at 400 trials per radius
    over 4 radii and 4.0 MB at 1,600 (tracemalloc), about 0.45 kB more per
    trial, so the budget of ``MAX_SWEEP_TRIALS`` = 100,000 trials over all
    radii implies about 45 MB; a trial at a nonzero radius takes about 0.7
    ms at the default sampling on one Intel Xeon vCPU (best of five runs
    of 400 trials at radius 0.002; about 0.03 ms at radius 0), so the
    budget also bounds the run to under two minutes.

    Raises:
        ValueError: if ``trials`` is below 1, ``seed`` is negative,
            ``error_radii`` is empty or ``trials`` times the number of radii
            is over ``MAX_SWEEP_TRIALS``, before the gap search, or if a
            radius lies outside [0, |b1| / 4), before any evolution.
        GaplessPoint: if the model is gapless, before any evolution, as
            :func:`chernscope.topology.chern_number` raises it.
        DegenerateScan: if ``phi_mw_points`` is below 5, before any
            evolution.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if len(error_radii) == 0:
        raise ValueError("a sweep needs at least one error radius")
    total = trials * len(error_radii)
    if total > MAX_SWEEP_TRIALS:
        raise ValueError(
            f"{trials} trials at {len(error_radii)} radii make {total}, over "
            f"the budget of {MAX_SWEEP_TRIALS} trials per sweep"
        )
    _require_gapped(p)
    phi_grid = default_phi_grid(phi_mw_points)
    for radius in error_radii:
        _require_error_radius(radius)
    readout = TwoSiteReadout(plans_from_config(
        {"leg_time": leg_time, "echo": with_echo, "samples_per_leg": samples_per_leg}
    ))
    k = len(readout.plans)

    # A zero radius draws its seeds, so later draws keep their order, but
    # adds no plan: its end states are the nominal ones.
    rng = np.random.default_rng(seed)
    errors = []
    for radius in error_radii:
        drawn = rng.integers(0, 2**63 - 1, size=trials * k)
        if radius != 0:
            errors.append(endpoint_errors(radius, drawn.tolist()))
    amps = readout.evolve(p, zeeman_rate, errors=errors)

    (nominal,), (nominal_fits,), _ = readout.read(amps[:k], phi_grid)
    nominal_sum = sum(fit.phi_zak for fit in nominal_fits)
    # Read besides the grid: the diagnostic phases 0 and the nominal phase.
    extra = [[0.0, fit.phi_zak] for fit in nominal_fits]

    rows = []
    records = []
    evolved = k
    for radius in error_radii:
        if radius == 0:
            radius_amps = np.tile(amps[:k], (trials, 1))
        else:
            radius_amps = amps[evolved:evolved + trials * k]
            evolved += len(radius_amps)
        block = []
        for first in range(0, trials, _READOUT_TRIALS):
            reports, fits, n_up = readout.read(
                radius_amps[first * k:(first + _READOUT_TRIALS) * k],
                phi_grid, extra,
            )
            for index, report, trial_fits, zero, at_nominal in zip(
                range(first, trials), reports, fits, n_up[..., -2], n_up[..., -1]
            ):
                error = wrap_angle(sum(f.phi_zak for f in trial_fits) - nominal_sum)
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
