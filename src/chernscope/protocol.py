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
|lattice| / |gradient| = sqrt(3) exactly.  Both starts lie on the ky = 0
axis and each up endpoint is its down endpoint with ky negated, bit for
bit, so a site plan's up leg is its down leg mirrored under ky -> -ky.
Both evolution routes rely on this, through one test, :func:`ky_mirrored`:
:func:`leg_fields` derives the up leg's Bloch fields from the down leg's
where :func:`up_legs_mirrored` holds, and
:func:`chernscope.interferometer.evolve_tdse` the up leg's step factors,
instead of evaluating them.

A plan is one start, two endpoints and one sampling: its two legs are
straight lines from the start, each sampled at the same number of equal
intervals, and read as :meth:`chernscope.topology.KPath.line` paths
(``k_path_down``, ``k_path_up``).  The forces and the pulse table derive
from them, the leg time and the echo flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .lattice import (
    B1,
    B2,
    ModelParams,
    bloch_fields,
    energies_from_fields,
    is_reciprocal,
)
from .topology import KPath

__all__ = [
    "SITES",
    "MAX_SAMPLES_PER_LEG",
    "ForceSpec",
    "ProtocolStep",
    "ProtocolPlan",
    "PlanDiagnostics",
    "site_start",
    "site_displacements",
    "plan_site",
    "plans_from_config",
    "validate_plan",
    "LegPass",
    "ky_mirrored",
    "plan_arrays",
    "leg_pass",
    "up_legs_mirrored",
    "leg_fields",
    "plan_diagnostics",
    "endpoint_errors",
    "perturb_plan",
]

# The two detection sites, in the order every two-site loop runs them.
SITES = ("I", "II")

# Endpoint error radii lie below a quarter of |b1|.
_MAX_ENDPOINT_ERROR = 0.25 * float(np.linalg.norm(B1))

# Largest leg sampling; see ProtocolPlan for the memory it implies.
MAX_SAMPLES_PER_LEG = 1_000_000

_KY_MIRROR = np.array([1.0, -1.0])  # (kx, ky) -> (kx, -ky)


class ForceSpec(NamedTuple):
    """Constant force pair acting during a leg."""

    gradient_force: np.ndarray
    lattice_force: np.ndarray

    @property
    def magnitude_ratio(self) -> float:
        """|lattice| / |gradient|; sqrt(3) for the nominal site legs."""
        return float(
            np.linalg.norm(self.lattice_force) / np.linalg.norm(self.gradient_force)
        )


class ProtocolStep(NamedTuple):
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
    """One site's two momentum legs, from ``start`` to ``endpoint_down``
    and to ``endpoint_up``, each in ``samples_per_leg`` equal intervals,
    run in ``leg_time`` with or without the midpoint echo.  The legs and
    the pulse/force sequence are read off these fields.

    A run of the plan peaks at about 270 bytes per sample of
    ``samples_per_leg`` (tracemalloc of ``fringe``, ``zak`` and ``sweep``
    at 20,000 and 80,000), so the budget of ``MAX_SAMPLES_PER_LEG`` =
    1,000,000 implies a peak of about 270 MB.

    Raises:
        ValueError: if ``samples_per_leg`` is below 1 or over the budget,
            before anything is allocated, or if ``leg_time`` is not
            positive and finite.
    """

    site: str
    start: np.ndarray
    endpoint_down: np.ndarray
    endpoint_up: np.ndarray
    samples_per_leg: int
    leg_time: float
    with_echo: bool

    def __post_init__(self) -> None:
        if not 1 <= self.samples_per_leg <= MAX_SAMPLES_PER_LEG:
            raise ValueError(
                f"samples per leg must lie between 1 and the budget of "
                f"{MAX_SAMPLES_PER_LEG}, got {self.samples_per_leg}"
            )
        if not (self.leg_time > 0 and np.isfinite(self.leg_time)):
            raise ValueError(
                f"leg_time must be positive and finite, got {self.leg_time}"
            )

    @cached_property
    def k_path_down(self) -> KPath:
        """The leg of the packet that starts spin-down, as a sampled line."""
        return KPath.line(self.start, self.endpoint_down, self.samples_per_leg + 1)

    @cached_property
    def k_path_up(self) -> KPath:
        """The leg of the packet that starts spin-up, as a sampled line."""
        return KPath.line(self.start, self.endpoint_up, self.samples_per_leg + 1)

    @property
    def steps(self) -> tuple:
        """The pulse/force sequence, its leg force solved from the legs."""
        force = _solve_forces(
            self.endpoint_down - self.start,
            self.endpoint_up - self.start,
            self.leg_time,
        )
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


class PlanDiagnostics(NamedTuple):
    """Whether the endpoint pair is reciprocal-equivalent, and the
    adiabaticity figure xi with its warning above 0.1."""

    endpoints_reciprocal: bool
    xi: float
    adiabatic_warning: bool


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
    """The displacement of each packet's leg; keys "down" and "up"."""
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
    An odd ``samples_per_leg`` within the budget is raised by one, so the
    echo midpoint is a sample; one outside it is refused as given
    (:class:`ProtocolPlan`).
    """
    start = site_start(site)
    disp = site_displacements(site)
    n = samples_per_leg
    if 0 < n < MAX_SAMPLES_PER_LEG:
        n += n % 2
    return ProtocolPlan(
        site=site,
        start=start,
        endpoint_down=start + disp["down"],
        endpoint_up=start + disp["up"],
        samples_per_leg=n,
        leg_time=float(leg_time),
        with_echo=with_echo,
    )


def plans_from_config(settings: Mapping, sites: Sequence[str] = SITES) -> tuple:
    """The nominal plan of each of ``sites`` at the "leg_time", "echo" and
    "samples_per_leg" of ``settings``, keyed as the CLI config's protocol
    section: the one plan builder of the commands and the sweep."""
    keys = ("leg_time", "echo", "samples_per_leg")
    return tuple(plan_site(site, *(settings[k] for k in keys)) for site in sites)


class LegPass(NamedTuple):
    """The legs of a batch that share one sampling of n intervals.

    ``points`` holds the samples as a (plans, 2, n + 1, 2) array, each
    plan's down leg first.  ``fields`` holds the Bloch fields (h0, hx, hy,
    hz, |h|) of :func:`chernscope.lattice.bloch_fields`, and ``energies``
    the band energies (lower, upper), each a (plans, 2, n + 1) array.
    """

    points: np.ndarray
    fields: tuple
    energies: tuple


def validate_plan(plan: ProtocolPlan, p: ModelParams) -> PlanDiagnostics:
    """The diagnostics of the one plan, from its ``leg_pass``."""
    return plan_diagnostics([plan], leg_pass([plan], p))[0]


def plan_diagnostics(
    plans: Sequence[ProtocolPlan], legs: LegPass
) -> tuple[PlanDiagnostics, ...]:
    """Each plan's diagnostics, in batch order, from the plans' leg pass.

    The adiabaticity figure of a plan is xi = max over its legs of
    |dk/dt| / gap^2 with the leg's minimum gap; a warning is recorded above
    0.1.  xi and the reciprocity of the endpoint pairs are arrays over the
    batch; a last loop builds the diagnostics.
    """
    starts, ends, _ = plan_arrays(plans)
    disp = ends - starts[:, None]
    e_lo, e_up = legs.energies
    leg_times = np.array([plan.leg_time for plan in plans])
    speed = np.sqrt(np.vecdot(disp, disp)) / leg_times[:, None]
    # float_power is the libm pow of a scalar gap ** 2, which now and then
    # differs from gap * gap in the last bit.
    min_gaps = np.min(e_up - e_lo, axis=-1)
    xi = np.fmax.reduce(speed / np.float_power(min_gaps, 2.0), axis=-1, initial=0.0)
    reciprocal = is_reciprocal(ends[:, 1] - ends[:, 0])
    return tuple(
        PlanDiagnostics(
            endpoints_reciprocal=r, xi=x, adiabatic_warning=x > 0.1
        )
        for r, x in zip(reciprocal.tolist(), xi.tolist())
    )


def plan_arrays(
    plans: Sequence[ProtocolPlan],
) -> tuple[np.ndarray, np.ndarray, int]:
    """The plans' starts, (plans, 2), their endpoints, (plans, 2, 2), each
    plan's down endpoint first, and their one sampling of n intervals.

    Raises:
        ValueError: if the plans differ in ``samples_per_leg``.
    """
    sampling = {plan.samples_per_leg for plan in plans}
    if len(sampling) > 1:
        raise ValueError(
            f"a leg pass takes plans of one sampling, got {sorted(sampling)} "
            f"sample intervals"
        )
    starts = np.array([plan.start for plan in plans])
    ends = np.array([(plan.endpoint_down, plan.endpoint_up) for plan in plans])
    return starts, ends, plans[0].samples_per_leg


def leg_pass(plans: Sequence[ProtocolPlan], p: ModelParams) -> LegPass:
    """:func:`leg_fields` of a batch of plans, whose sampling
    :func:`plan_arrays` checks before any field is evaluated."""
    starts, ends, n = plan_arrays(plans)
    return leg_fields(starts, ends, n, p, up_legs_mirrored(starts, ends))


def ky_mirrored(lines: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Whether each line of ``others`` is the matching line of ``lines``
    mirrored under ky -> -ky, as a boolean array over the stacks.

    A line is a (point, direction) pair of momenta, so both stacks are
    (..., 2, 2) arrays; the coordinates are compared ``==``, element by
    element, so either signed zero mirrors a ky of 0.  The momenta
    point + s direction of a mirrored line are those of the other line
    with ky negated, bit for bit, wherever that ky is not zero.
    """
    return (others == lines * _KY_MIRROR).all(axis=(-2, -1))


def up_legs_mirrored(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Whether each plan's up leg is its down leg mirrored under ky -> -ky,
    (plans,), for the plans' starts, (plans, 2), and endpoints, (plans, 2,
    2): :func:`ky_mirrored` of the legs' start and displacement, with a
    start at ky = +0.0, as every site plan's is.  A start at ky = -0.0 is
    not mirrored, as the legs' first samples then differ in the sign of
    that zero.  A row depends on its own plan alone, so the rows of a
    batch's passes are slices of the batch's."""
    # Each packet's leg as a line: its start and its displacement from it,
    # (plans, 2, 2, 2), down packet first.
    lines = np.empty((len(ends), 2, 2, 2))
    lines[:, :, 0] = starts[:, None]
    np.subtract(ends, starts[:, None], out=lines[:, :, 1])
    return ky_mirrored(lines[:, 0], lines[:, 1]) & ~np.signbit(starts[:, 1])


def leg_fields(
    starts: np.ndarray, ends: np.ndarray, n: int, p: ModelParams,
    mirror: np.ndarray,
) -> LegPass:
    """Bloch fields and band energies of the straight legs from each start,
    (plans, 2), to its two endpoints, (plans, 2, 2), in n equal intervals,
    where ``mirror`` is the plans' :func:`up_legs_mirrored`.

    The one field evaluation of the batch, in a single ``bloch_fields``
    call on a flat stack of samples.  A mirrored plan sends only its down
    leg's samples.  Its up leg's fields are the down leg's with each
    nonzero hy negated, bit for bit what evaluating them gives: ky -> -ky
    conjugates u = exp(iY), the shared start sample's hy is a zero that
    stays as it is, and an hy that cancels to zero on one leg cancels to
    the same zero on the other.  With no mirrored plan the call takes the
    whole stack, reshaped, and its five arrays are reshaped to the legs as
    they come.  The samples are those of the
    :meth:`chernscope.topology.KPath.line` paths of a plan's legs, with
    one ``np.linspace`` shared by all legs, so a leg's samples do not
    depend on the batch it is in.
    """
    disp = ends - starts[:, None]
    frac = np.linspace(0.0, 1.0, n + 1)
    points = np.empty((len(ends), 2, n + 1, 2))
    for c in range(2):  # a coordinate at a time, so each loop runs along a leg
        np.multiply(frac, disp[..., c, None], out=points[..., c])
        points[..., c] += starts[:, None, c, None]
    if not mirror.any():
        fields = bloch_fields(points.reshape(-1, 2), p)
        fields = tuple(f.reshape(points.shape[:-1]) for f in fields)
    else:
        evaluated = np.ones(points.shape[:2], dtype=bool)
        evaluated[:, 1] = ~mirror
        fields = np.empty((5,) + points.shape[:-1])
        for out, f in zip(fields, bloch_fields(points[evaluated].reshape(-1, 2), p)):
            out[evaluated] = f.reshape(-1, n + 1)
        down = fields[:, mirror, 0]
        np.negative(down[2], out=down[2], where=down[2] != 0.0)
        fields[:, mirror, 1] = down
        fields = tuple(fields)
    return LegPass(points, fields, energies_from_fields(fields))


def _require_error_radius(radius: float) -> None:
    """Refuse an endpoint error radius outside [0, |b1| / 4), NaN included."""
    if not 0.0 <= radius < _MAX_ENDPOINT_ERROR:
        raise ValueError(
            f"error radius must lie in [0, |b1|/4 = {_MAX_ENDPOINT_ERROR:.4f}), "
            f"got {radius}"
        )


def endpoint_errors(radius: float, seeds: Sequence) -> np.ndarray:
    """Both per-spin endpoint errors of each seed, a (seeds, 2, 2) array,
    the down packet's first.

    Each seed's errors are drawn uniformly from the disk of ``radius`` by
    its own generator (deterministic): four uniform draws u, the angles
    2 pi u[:2] and the radii radius sqrt(u[2:]).  A seed's errors are
    those it gets alone, bit for bit.  The radius must lie in
    [0, |b1| / 4); radius 0 gives zero errors.
    """
    _require_error_radius(radius)
    u = np.array([np.random.default_rng(seed).random(4) for seed in seeds])
    u = u.reshape(-1, 4)
    theta = 2 * np.pi * u[:, :2]
    r = radius * np.sqrt(u[:, 2:])
    return r[..., None] * np.stack((np.cos(theta), np.sin(theta)), axis=-1)


def perturb_plan(
    plan: ProtocolPlan, radius: float = 0.0, seed: Optional[int] = None
) -> ProtocolPlan:
    """The plan with both endpoints displaced by the :func:`endpoint_errors`
    of the one seed; its start and sampling stay.  Radius 0 reproduces the
    plan exactly.
    """
    ((down, up),) = endpoint_errors(radius, [seed])
    return ProtocolPlan(
        site=plan.site,
        start=plan.start,
        endpoint_down=plan.endpoint_down + down,
        endpoint_up=plan.endpoint_up + up,
        samples_per_leg=plan.samples_per_leg,
        leg_time=plan.leg_time,
        with_echo=plan.with_echo,
    )
