"""Plans the interferometer sequence: forces, legs, pulses, endpoints.

A plan realizes one detection site: starting from the zone center the cloud
is pre-positioned to the site's start momentum, split into both spin states
by a pi/2 pulse, and driven by two constant forces, the spin-independent
accelerated-lattice force and the spin-dependent magnetic-gradient force,

    dk/dt(spin) = -lattice_force - spin_sign * gradient_force,

with spin_sign = -1 for the down packet and +1 for the up packet.  The two
packets traverse straight legs to momenta one reciprocal vector apart, where
a final pi/2 pulse closes the interferometer.  An optional spin-echo pi
pulse at the temporal midpoint flips the spin labels together with the
gradient direction, which leaves every momentum path unchanged while
cancelling the differential Zeeman phase.

Site geometry, on the lattice constants of :mod:`chernscope.lattice`:

    site I:  start ( 2 pi / (3 sqrt 3), 0);  down -> -(b1 + b2), up -> -b2
    site II: start (-2 pi / (3 sqrt 3), 0);  down -> +(b1 + b2), up -> +b2

so the endpoint pair differs by b1 in both cases.  The magnitudes satisfy
|lattice| / |gradient| = sqrt(3) exactly.

A plan is its two legs, straight lines from the shared start sampled at
equal intervals; the forces and the pulse table derive from them, the leg
time and the echo flag.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import MalformedPlan
from .lattice import (
    B1,
    B2,
    ModelParams,
    bloch_fields,
    energies_from_fields,
    field_norm,
    is_reciprocal,
)

__all__ = [
    "SITES",
    "MAX_SAMPLES_PER_LEG",
    "Leg",
    "ForceSpec",
    "ProtocolStep",
    "ProtocolPlan",
    "PlanDiagnostics",
    "site_start",
    "site_displacements",
    "plan_site",
    "validate_plan",
    "LegPass",
    "leg_pass",
    "perturb_plan",
]

# The two detection sites, in the order every two-site loop runs them.
SITES = ("I", "II")

MAX_ENDPOINT_ERROR_FRACTION = 0.25  # of |b1|

# Largest leg sampling; see plan_site for the memory it implies.
MAX_SAMPLES_PER_LEG = 1_000_000


@dataclass(frozen=True, eq=False)
class Leg:
    """Straight momentum leg from ``start`` to ``end`` in ``n`` equal sample
    intervals, traversed at uniform speed: a Bloch oscillation under a
    constant force."""

    start: np.ndarray
    end: np.ndarray
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"a leg needs at least one sample interval, got {self.n}")

    @cached_property
    def points(self) -> np.ndarray:
        """The n + 1 samples from ``start`` to ``end``, computed on first use."""
        frac = np.linspace(0.0, 1.0, self.n + 1)
        return self.start + frac[:, None] * (self.end - self.start)


@dataclass(frozen=True, eq=False)
class ForceSpec:
    """Constant force pair acting during a leg."""

    gradient_force: np.ndarray
    lattice_force: np.ndarray

    def velocity(self, spin_sign: float, flipped: bool = False) -> np.ndarray:
        """dk/dt for one spin; ``flipped`` reverses the gradient direction."""
        g = -self.gradient_force if flipped else self.gradient_force
        return -self.lattice_force - spin_sign * g

    @property
    def magnitude_ratio(self) -> float:
        """|lattice| / |gradient|; sqrt(3) for the nominal site legs."""
        return float(
            np.linalg.norm(self.lattice_force) / np.linalg.norm(self.gradient_force)
        )


@dataclass(frozen=True, eq=False)
class ProtocolStep:
    """One element of the pulse/force sequence.

    kind is one of "transport", "pi2_pulse", "pi_pulse", "force_leg".
    ``phi_mw`` of the final pi2_pulse is None: the readout phase is chosen
    at scan time.
    """

    kind: str
    duration: float = 0.0
    force: Optional[ForceSpec] = None
    phi_mw: Optional[float] = None
    gradient_direction_flip: bool = False


@dataclass(frozen=True, eq=False)
class ProtocolPlan:
    """One site's two momentum legs, run in ``leg_time`` with or without
    the midpoint echo.  The legs are the plan: its start, endpoints,
    sampling and pulse/force sequence are read off them, and the two
    inconsistencies left, legs that start apart or are sampled unequally,
    are rejected by ``leg_pass``.
    """

    site: str
    k_path_down: Leg
    k_path_up: Leg
    leg_time: float
    with_echo: bool

    @property
    def legs(self) -> dict[str, Leg]:
        """Each packet's leg, keyed by the packet's initial spin label."""
        return {"down": self.k_path_down, "up": self.k_path_up}

    @property
    def start(self) -> np.ndarray:
        return self.k_path_down.start

    @property
    def endpoint_down(self) -> np.ndarray:
        return self.k_path_down.end

    @property
    def endpoint_up(self) -> np.ndarray:
        return self.k_path_up.end

    @property
    def samples_per_leg(self) -> int:
        """Sample intervals of a leg (even for planned legs)."""
        return self.k_path_down.n

    @property
    def total_displacements(self) -> dict[str, np.ndarray]:
        """Displacement of each packet over its leg."""
        return {packet: leg.end - self.start for packet, leg in self.legs.items()}

    @property
    def steps(self) -> tuple:
        """The pulse/force sequence, its leg force solved from the legs."""
        disp = self.total_displacements
        force = _solve_forces(disp["down"], disp["up"], self.leg_time)
        pre_time = self.leg_time / 4
        legs = (ProtocolStep("force_leg", duration=self.leg_time, force=force),)
        if self.with_echo:
            half = self.leg_time / 2
            legs = (
                ProtocolStep("force_leg", duration=half, force=force),
                ProtocolStep("pi_pulse", gradient_direction_flip=True),
                ProtocolStep(
                    "force_leg", duration=half, force=force,
                    gradient_direction_flip=True,
                ),
            )
        transport = ForceSpec(
            gradient_force=np.zeros(2), lattice_force=-self.start / pre_time
        )
        return (
            ProtocolStep("transport", duration=pre_time, force=transport),
            ProtocolStep("pi2_pulse", phi_mw=0.0),
            *legs,
            ProtocolStep("pi2_pulse", phi_mw=None),
        )


@dataclass(frozen=True)
class PlanDiagnostics:
    """``endpoint_residual`` is the largest coordinate gap between the two
    legs' start points."""

    endpoint_residual: float
    endpoints_reciprocal: bool
    xi: float
    adiabatic_warning: bool
    messages: tuple


def _site_sign(site: str) -> float:
    """-1 for site I and +1 for site II: the sign of its legs, and minus the
    sign of its start's kx."""
    if site not in SITES:
        raise ValueError(f"site must be 'I' or 'II', got {site!r}")
    return -1.0 if site == "I" else 1.0


def site_start(site: str) -> np.ndarray:
    sign = _site_sign(site)
    x = 2 * np.pi / (3 * np.sqrt(3.0))
    return np.array([-sign * x, 0.0])


def site_displacements(site: str) -> dict[str, np.ndarray]:
    """Leg displacement per packet; keys "down" and "up"."""
    sign = _site_sign(site)
    return {"down": sign * (B1 + B2), "up": sign * B2}


def _solve_forces(
    disp_down: np.ndarray, disp_up: np.ndarray, leg_time: float
) -> ForceSpec:
    """Invert the two displacement constraints for the two forces."""
    lattice = -(disp_down + disp_up) / (2 * leg_time)
    gradient = (disp_down - disp_up) / (2 * leg_time)
    return ForceSpec(gradient_force=gradient, lattice_force=lattice)


def plan_site(
    site: str,
    leg_time: float = 200.0,
    with_echo: bool = True,
    samples_per_leg: int = 2000,
) -> ProtocolPlan:
    """Build the nominal plan for one detection site.

    ``leg_time`` is the total driven time in units of 1/t; the default 200
    keeps the adiabaticity figure well below the warning level for the
    default couplings.  With the echo the motion splits into two equal legs
    around the pi pulse, whose gradient flip keeps every k path straight.
    An odd ``samples_per_leg`` is raised by one, so the echo midpoint is a
    sample.

    A run of the plan peaks at about 310 bytes per sample of
    ``samples_per_leg`` (tracemalloc of ``fringe``, ``zak`` and ``sweep``
    at 20,000 and 80,000), so the budget of ``MAX_SAMPLES_PER_LEG`` =
    1,000,000 implies a peak of about 310 MB.

    Raises:
        ValueError: if ``samples_per_leg`` is below 1 or over the budget,
            before anything is allocated, or if ``leg_time`` is not
            positive and finite.
    """
    if not 1 <= samples_per_leg <= MAX_SAMPLES_PER_LEG:
        raise ValueError(
            f"samples per leg must lie between 1 and the budget of "
            f"{MAX_SAMPLES_PER_LEG}, got {samples_per_leg}"
        )
    if not (leg_time > 0 and np.isfinite(leg_time)):
        raise ValueError(f"leg_time must be positive and finite, got {leg_time}")
    start = site_start(site)
    disp = site_displacements(site)
    n = samples_per_leg + samples_per_leg % 2
    return ProtocolPlan(
        site=site,
        k_path_down=Leg(start, start + disp["down"], n),
        k_path_up=Leg(start, start + disp["up"], n),
        leg_time=float(leg_time),
        with_echo=with_echo,
    )


class LegPass(NamedTuple):
    """The legs of a batch of plans that share one sampling of n intervals.

    ``points`` holds the samples as a (plans, 2, n + 1, 2) array, each
    plan's down leg first.  ``fields`` holds the Bloch fields (h0, hx, hy,
    hz) followed by |h| (:func:`chernscope.lattice.field_norm`), and
    ``energies`` the band energies (lower, upper), each a (plans, 2, n + 1)
    array.  ``diagnostics`` holds each plan's PlanDiagnostics, in batch
    order.
    """

    points: np.ndarray
    fields: tuple
    energies: tuple
    diagnostics: tuple


def validate_plan(plan: ProtocolPlan, p: ModelParams) -> PlanDiagnostics:
    """The diagnostics of ``leg_pass`` on the one plan."""
    return leg_pass([plan], p).diagnostics[0]


def leg_pass(plans: Sequence[ProtocolPlan], p: ModelParams) -> LegPass:
    """Bloch fields and band energies of a batch of plans' legs, and each
    plan's diagnostics; raise MalformedPlan when a plan is broken.

    The one field evaluation of the batch: every leg's samples go through a
    single ``bloch_fields`` call on the flat stack.  Each plan is checked
    before any field is evaluated: its legs' start points must lie within
    1e-9 of each other in every coordinate, and each of its legs must have
    the batch's number of sample intervals.  The samples are those of
    ``Leg.points``, with one ``np.linspace`` shared by all legs.  The
    adiabaticity figure of a plan is xi = max over its legs of
    |dk/dt| / gap^2 with the leg's minimum gap; a warning is recorded
    above 0.1.  xi and the reciprocity of the endpoint pairs are arrays
    over the batch; a last loop builds the diagnostics.
    """
    n = plans[0].samples_per_leg
    residuals = []
    for plan in plans:
        down, up = plan.k_path_down, plan.k_path_up
        residual = float(np.max(np.abs(down.start - up.start)))
        if residual >= 1e-9:
            raise MalformedPlan(f"plan legs start {residual:.3e} apart (>= 1e-9)")
        if down.n != n or up.n != n:
            raise MalformedPlan(
                f"plan legs take {down.n} and {up.n} sample intervals where "
                f"the batch takes {n}"
            )
        residuals.append(residual)
    starts = np.array([leg.start for plan in plans for leg in plan.legs.values()])
    ends = np.array([leg.end for plan in plans for leg in plan.legs.values()])
    frac = np.linspace(0.0, 1.0, n + 1)
    diff = ends - starts
    points = np.empty((len(starts), n + 1, 2))
    for c in range(2):  # a coordinate at a time, so each loop runs along a leg
        np.multiply(frac, diff[:, c, None], out=points[..., c])
        points[..., c] += starts[:, c, None]
    points = points.reshape(len(plans), 2, n + 1, 2)
    fields = bloch_fields(points.reshape(-1, 2), p)
    fields = tuple(
        f.reshape(points.shape[:-1]) for f in fields + (field_norm(fields),)
    )
    e_lo, e_up = energies = energies_from_fields(fields)

    # Each packet's displacement from its plan's start, the down leg's, as
    # ProtocolPlan.total_displacements takes it.
    plan_ends = ends.reshape(len(plans), 2, 2)
    disp = plan_ends - starts.reshape(len(plans), 2, 2)[:, :1]
    leg_times = np.array([plan.leg_time for plan in plans])
    speed = np.sqrt(np.vecdot(disp, disp)) / leg_times[:, None]
    # float_power is the libm pow of a scalar gap ** 2, which now and then
    # differs from gap * gap in the last bit.
    min_gaps = np.min(e_up - e_lo, axis=-1)
    xi = np.fmax.reduce(speed / np.float_power(min_gaps, 2.0), axis=-1, initial=0.0)
    reciprocal = is_reciprocal(plan_ends[:, 1] - plan_ends[:, 0])
    diagnostics = tuple(
        map(_diagnostics, residuals, reciprocal.tolist(), xi.tolist())
    )
    return LegPass(points, fields, energies, diagnostics)


def _diagnostics(residual: float, reciprocal: bool, xi: float) -> PlanDiagnostics:
    """A checked plan's diagnostics from its start residual, the
    reciprocity of its endpoint pair and its adiabaticity figure."""
    warning = xi > 0.1
    messages = []
    if warning:
        messages.append(
            f"adiabaticity figure xi = {xi:.3g} exceeds 0.1; expect band leakage"
        )
    if not reciprocal:
        messages.append("endpoint pair is not reciprocal-equivalent")
    return PlanDiagnostics(
        endpoint_residual=residual,
        endpoints_reciprocal=reciprocal,
        xi=xi,
        adiabatic_warning=warning,
        messages=tuple(messages),
    )


def perturb_plan(
    plan: ProtocolPlan, radius: float = 0.0, seed: Optional[int] = None
) -> ProtocolPlan:
    """Redraw both legs from the shared start to displaced endpoints, with
    the plan's sampling.

    Both per-spin endpoint errors are drawn uniformly from the disk of
    ``radius`` using the given seed (deterministic).  The radius must lie
    in [0, |b1| / 4).  Radius 0 reproduces the plan exactly.
    """
    limit = MAX_ENDPOINT_ERROR_FRACTION * float(np.linalg.norm(B1))
    if not 0.0 <= radius < limit:
        raise ValueError(
            f"error radius must lie in [0, |b1|/4 = {limit:.4f}), got {radius}"
        )
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2 * np.pi, 2)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, 2))
    down, up = (ri * np.array([np.cos(ti), np.sin(ti)]) for ri, ti in zip(r, theta))
    n = plan.samples_per_leg
    return dataclasses.replace(
        plan,
        k_path_down=Leg(plan.start, plan.endpoint_down + down, n),
        k_path_up=Leg(plan.start, plan.endpoint_up + up, n),
    )
