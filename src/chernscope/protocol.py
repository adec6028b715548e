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

Site geometry (lattice scale a = 1):

    site I:  start ( 2 pi / (3 sqrt 3), 0);  down -> -(b1 + b2), up -> -b2
    site II: start (-2 pi / (3 sqrt 3), 0);  down -> +(b1 + b2), up -> +b2

so the endpoint pair differs by b1 in both cases.  The magnitudes satisfy
|lattice| / |gradient| = sqrt(3) exactly.  The ``swap_spin_assignment`` flag
exchanges which spin takes which leg, for sensitivity studies of the
published assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MalformedPlan
from .lattice import (
    DEFAULT_GEOMETRY,
    LatticeGeometry,
    ModelParams,
    band_energies,
    is_reciprocal,
)
from .topology import KPath

__all__ = [
    "ForceSpec",
    "ProtocolStep",
    "ProtocolPlan",
    "PlanDiagnostics",
    "SPIN_SIGNS",
    "site_start",
    "site_displacements",
    "plan_site",
    "validate_plan",
    "check_plan",
    "perturb_plan",
]

SPIN_SIGNS = {"down": -1.0, "up": +1.0}

MAX_ENDPOINT_ERROR_FRACTION = 0.25  # of |b1|


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
    site: str
    steps: tuple
    k_path_down: KPath
    k_path_up: KPath
    start: np.ndarray
    endpoint_down: np.ndarray
    endpoint_up: np.ndarray
    leg_time: float
    with_echo: bool
    samples_per_leg: int
    geometry: LatticeGeometry = DEFAULT_GEOMETRY

    @property
    def total_displacements(self) -> dict[str, np.ndarray]:
        """Nominal displacement targets of the force legs, per packet."""
        return {
            "down": self.endpoint_down - self.start,
            "up": self.endpoint_up - self.start,
        }

    def integrated_displacements(self) -> dict[str, np.ndarray]:
        """Integral of dk/dt over the force legs for each packet.

        A packet's spin label flips at each pi pulse; a flipped gradient on
        the following legs then reproduces the same velocity, which is the
        echo's path neutrality.
        """
        out = {}
        for packet, sign0 in SPIN_SIGNS.items():
            sign = sign0
            disp = np.zeros(2)
            for step in self.steps:
                if step.kind == "pi_pulse":
                    sign = -sign
                elif step.kind == "force_leg":
                    disp += step.duration * step.force.velocity(
                        sign, step.gradient_direction_flip
                    )
            out[packet] = disp
        return out


@dataclass(frozen=True)
class PlanDiagnostics:
    endpoint_residual: float
    endpoints_reciprocal: bool
    xi: float
    adiabatic_warning: bool
    messages: tuple


def site_start(site: str, p: ModelParams) -> np.ndarray:
    a = p.geometry.a
    x = 2 * np.pi / (3 * np.sqrt(3.0) * a)
    if site == "I":
        return np.array([x, 0.0])
    if site == "II":
        return np.array([-x, 0.0])
    raise ValueError(f"site must be 'I' or 'II', got {site!r}")


def site_displacements(
    site: str, p: ModelParams, swap_spin_assignment: bool = False
) -> dict[str, np.ndarray]:
    """Leg displacement per packet; keys "down" and "up"."""
    g = p.geometry
    sign = -1.0 if site == "I" else 1.0
    if site not in ("I", "II"):
        raise ValueError(f"site must be 'I' or 'II', got {site!r}")
    down = sign * (g.b1 + g.b2)
    up = sign * g.b2
    if swap_spin_assignment:
        down, up = up, down
    return {"down": down, "up": up}


def _solve_forces(
    disp_down: np.ndarray, disp_up: np.ndarray, leg_time: float
) -> ForceSpec:
    """Invert the two displacement constraints for the two forces."""
    lattice = -(disp_down + disp_up) / (2 * leg_time)
    gradient = (disp_down - disp_up) / (2 * leg_time)
    return ForceSpec(gradient_force=gradient, lattice_force=lattice)


def _build_plan(
    site: str,
    geometry: LatticeGeometry,
    start: np.ndarray,
    endpoint_down: np.ndarray,
    endpoint_up: np.ndarray,
    leg_time: float,
    with_echo: bool,
    samples_per_leg: int,
) -> ProtocolPlan:
    force = _solve_forces(endpoint_down - start, endpoint_up - start, leg_time)
    pre_time = leg_time / 4
    steps = [
        ProtocolStep(
            "transport",
            duration=pre_time,
            force=ForceSpec(
                gradient_force=np.zeros(2), lattice_force=-start / pre_time
            ),
        ),
        ProtocolStep("pi2_pulse", phi_mw=0.0),
    ]
    if with_echo:
        steps.append(ProtocolStep("force_leg", duration=leg_time / 2, force=force))
        steps.append(ProtocolStep("pi_pulse", gradient_direction_flip=True))
        steps.append(
            ProtocolStep(
                "force_leg",
                duration=leg_time / 2,
                force=force,
                gradient_direction_flip=True,
            )
        )
    else:
        steps.append(ProtocolStep("force_leg", duration=leg_time, force=force))
    steps.append(ProtocolStep("pi2_pulse", phi_mw=None))

    samples = samples_per_leg + samples_per_leg % 2
    return ProtocolPlan(
        site=site,
        steps=tuple(steps),
        k_path_down=KPath.line(start, endpoint_down, samples + 1),
        k_path_up=KPath.line(start, endpoint_up, samples + 1),
        start=start,
        endpoint_down=np.asarray(endpoint_down, dtype=float),
        endpoint_up=np.asarray(endpoint_up, dtype=float),
        leg_time=float(leg_time),
        with_echo=with_echo,
        samples_per_leg=samples,
        geometry=geometry,
    )


def plan_site(
    site: str,
    p: ModelParams,
    leg_time: float = 200.0,
    with_echo: bool = True,
    samples_per_leg: int = 2000,
    swap_spin_assignment: bool = False,
) -> ProtocolPlan:
    """Build the nominal plan for one detection site.

    ``leg_time`` is the total driven time in units of 1/t; the default 200
    keeps the adiabaticity figure well below the warning level for the
    default couplings.  With the echo the motion splits into two equal legs
    around the pi pulse, whose gradient flip keeps every k path straight.
    """
    if not (leg_time > 0 and np.isfinite(leg_time)):
        raise ValueError(f"leg_time must be positive and finite, got {leg_time}")
    start = site_start(site, p)
    disp = site_displacements(site, p, swap_spin_assignment)
    return _build_plan(
        site,
        p.geometry,
        start,
        start + disp["down"],
        start + disp["up"],
        leg_time,
        with_echo,
        samples_per_leg,
    )


def validate_plan(plan: ProtocolPlan, p: ModelParams) -> PlanDiagnostics:
    """Check endpoints and adiabaticity; raise MalformedPlan when broken.

    The residual compares both the sampled paths and the integrated
    velocities against the plan's endpoint targets.  The adiabaticity figure
    is xi = max over the paths of |dk/dt| / gap(k)^2; a warning is recorded
    above 0.1.
    """
    min_gaps = {}
    for packet, kpath in (("down", plan.k_path_down), ("up", plan.k_path_up)):
        e_lo, e_up = band_energies(kpath.points, p)
        min_gaps[packet] = np.min(e_up - e_lo)
    return check_plan(plan, p, min_gaps)


def check_plan(
    plan: ProtocolPlan, p: ModelParams, min_gaps: dict
) -> PlanDiagnostics:
    """``validate_plan`` given each leg's minimum band gap, keyed by packet.

    The endpoint check runs first, so a malformed plan raises MalformedPlan
    whatever the gaps are.
    """
    integrated = plan.integrated_displacements()
    residual = 0.0
    for packet, kpath in (("down", plan.k_path_down), ("up", plan.k_path_up)):
        target = plan.total_displacements[packet]
        residual = max(residual, float(np.max(np.abs(integrated[packet] - target))))
        endpoint = plan.start + target
        residual = max(residual, float(np.max(np.abs(kpath.k_e - endpoint))))
    if residual >= 1e-9:
        raise MalformedPlan(
            f"plan endpoints miss their targets by {residual:.3e} (>= 1e-9)"
        )

    reciprocal = is_reciprocal(plan.endpoint_up - plan.endpoint_down, p.geometry)

    xi = 0.0
    for packet in ("down", "up"):
        speed = np.linalg.norm(plan.total_displacements[packet]) / plan.leg_time
        xi = max(xi, float(speed / min_gaps[packet] ** 2))
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
    plan: ProtocolPlan,
    error_down: Optional[np.ndarray] = None,
    error_up: Optional[np.ndarray] = None,
    radius: Optional[float] = None,
    seed: Optional[int] = None,
) -> ProtocolPlan:
    """Re-solve the forces so the endpoints land at displaced targets.

    Explicit per-spin endpoint errors take precedence; otherwise, with
    ``radius`` set, both errors are drawn uniformly from the disk of that
    radius using the given seed (deterministic).  Error magnitudes must stay
    below |b1| / 4.  Zero error reproduces the plan exactly.
    """
    limit = MAX_ENDPOINT_ERROR_FRACTION * float(np.linalg.norm(plan.geometry.b1))
    if error_down is None and error_up is None and radius is not None:
        if not 0.0 <= radius < limit:
            raise ValueError(
                f"error radius must lie in [0, |b1|/4 = {limit:.4f}), got {radius}"
            )
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2 * np.pi, 2)
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, 2))
        error_down = r[0] * np.array([np.cos(theta[0]), np.sin(theta[0])])
        error_up = r[1] * np.array([np.cos(theta[1]), np.sin(theta[1])])
    error_down = np.zeros(2) if error_down is None else np.asarray(error_down, float)
    error_up = np.zeros(2) if error_up is None else np.asarray(error_up, float)

    for name, err in (("down", error_down), ("up", error_up)):
        if np.linalg.norm(err) >= limit:
            raise ValueError(
                f"endpoint error for spin {name} must stay below |b1|/4 = {limit:.4f}"
            )
    return _build_plan(
        plan.site,
        plan.geometry,
        plan.start,
        plan.endpoint_down + error_down,
        plan.endpoint_up + error_up,
        plan.leg_time,
        plan.with_echo,
        plan.samples_per_leg,
    )
