"""Spin-state bookkeeping and propagation of the interferometer sequence.

The cloud is a spinor wavepacket; each spin slot carries an amplitude and a
momentum, and stands for the lower-band state at that momentum.  Microwave
pulses act on the amplitudes only.  Between pulses each packet follows its
straight momentum leg, and the two evolution routes are

* ``evolve_adiabatic``: exact lower-band transport.  Geometric phases come
  from the products of :func:`chernscope.topology.transport_link` along the
  sampled legs, dynamical phases from :func:`dynamic_phase` (the trapezoid
  rule on the band energy), and the Zeeman term from the plan-level rate
  times the signed leg time (the sign flips with the gradient direction, so
  a midpoint echo cancels it exactly).
* ``evolve_tdse``: exact stepwise integration of the two-level Schrodinger
  equation with the midpoint Hamiltonian exponentiated in closed form per
  step, which resolves nonadiabatic band leakage.  Each step exponential is
  a scalar phase e^{-i h0 dt} times an SU(2) matrix [[a, -conj(b)],
  [b, conj(a)]]; a leg's SU(2) factors are multiplied in time order as
  (a, b) pairs, and its phases are summed once into exp(-i dt sum(h0)).

Each route evaluates the Bloch fields of each leg's samples once.  The
adiabatic route derives the plan check (its minimum gap), the lower-band
states with their gap check and the dynamical phase from that one pass; the
stepwise route derives the plan check, the step-size bandwidth and its end
states from it, and evaluates new momenta only at the step midpoints.

Both routes end with the two slots at momenta one reciprocal vector apart
(up to planned endpoint error).  Before the final readout pulse the slot
amplitudes are referred to a common orbital: the end state of the packet
that started spin-down, with the other slot rotated by the conjugated
sublattice-matching overlap phase.  With that convention the adiabatic
fringe obeys

    N_up(phi_mw) = (1 - contrast * cos(phi_total - phi_mw)) / 2

pointwise, where phi_total is the ledger total.  The readout itself never
uses that law: :func:`readout_scan` applies the pi/2 pulse matrix to the
slot amplitudes for a whole array of pulse phases in one pass, with the
same formula as :func:`apply_pi2`.  The pre-positioning transport step is
common to both packets and contributes no differential phase, so it only
moves the momenta.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import StepTooLarge
from .lattice import (
    ModelParams,
    band_energies,
    bloch_fields,
    band_gap_min,
    energies_from_fields,
    states_from_fields,
    sublattice_matching,
)
from .protocol import PlanDiagnostics, ProtocolPlan, check_plan, plan_site
from .topology import transport_link

__all__ = [
    "SpinorState",
    "PhaseLedger",
    "TdseDiagnostics",
    "FringeScan",
    "initial_state",
    "apply_pi2",
    "apply_pi",
    "readout",
    "readout_scan",
    "dynamic_phase",
    "evolve_adiabatic",
    "evolve_tdse",
    "run_fringe",
    "landau_zener_estimate",
    "wrap_angle",
]

# Step budget of one TDSE leg; see evolve_tdse for the memory it implies.
MAX_TDSE_STEPS = 2**22


def wrap_angle(x: float) -> float:
    """Reduce a phase to (-pi, pi], matching numpy.angle conventions."""
    return float(np.angle(np.exp(1j * x)))


@dataclass(frozen=True, eq=False)
class SpinorState:
    """Two spin slots with amplitudes and momenta.

    ``upper_band_population`` is the population lost from the tracked
    lower-band amplitudes, so |amp_down|^2 + |amp_up|^2 plus it is 1.
    """

    amp_down: complex
    amp_up: complex
    k_down: np.ndarray
    k_up: np.ndarray
    upper_band_population: float = 0.0

    def __post_init__(self):
        norm_sq = (
            abs(self.amp_down) ** 2 + abs(self.amp_up) ** 2
            + self.upper_band_population
        )
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"state norm deviates from 1 by {norm_sq - 1.0:.3e}")

    @property
    def norm(self) -> float:
        return float(
            np.sqrt(
                abs(self.amp_down) ** 2 + abs(self.amp_up) ** 2
                + self.upper_band_population
            )
        )


def _echo_fold(site_phase: float, with_echo: bool) -> float:
    """Fringe phase of a site phase in (-pi, pi]: the phase itself with the
    echo, pi minus it without, since the echo exchanges the slots."""
    return site_phase if with_echo else wrap_angle(np.pi - site_phase)


@dataclass(frozen=True)
class PhaseLedger:
    """Per-packet phase bookkeeping with mode-aware aggregates.

    The per-packet entries are indexed by the packet's initial spin label.
    ``matching`` is the sublattice-matching overlap angle between the two
    endpoint band states.  The aggregates fold in the slot exchange of the
    echo so that ``total`` always equals the fringe phase of the readout
    law.
    """

    geometric_down: float
    geometric_up: float
    matching: float
    dynamic_down: float
    dynamic_up: float
    zeeman_down: float
    zeeman_up: float
    with_echo: bool

    @property
    def pancharatnam_phase(self) -> float:
        """Open-path geometric phase of the split pair, endpoint-matched."""
        return wrap_angle(self.geometric_down - self.geometric_up + self.matching)

    @property
    def geometric(self) -> float:
        return _echo_fold(self.pancharatnam_phase, self.with_echo)

    @property
    def dynamic(self) -> float:
        if self.with_echo:
            return self.dynamic_up - self.dynamic_down
        return self.dynamic_down - self.dynamic_up

    @property
    def zeeman(self) -> float:
        return self.zeeman_up - self.zeeman_down

    @property
    def total(self) -> float:
        return wrap_angle(self.geometric + self.dynamic + self.zeeman)


@dataclass(frozen=True)
class TdseDiagnostics:
    dt: float
    n_steps: int
    bandwidth: float
    xi: float
    norm_drift: float
    leakage_down: float
    leakage_up: float
    extracted_phase: float


@dataclass(frozen=True, eq=False)
class FringeScan:
    """Readout populations over a scan of the final pulse phase."""

    phi_mw_values: np.ndarray
    n_down: np.ndarray
    n_up: np.ndarray
    mode: str
    site: Optional[str] = None
    ledger: Optional[PhaseLedger] = None
    diagnostics: Optional[TdseDiagnostics] = None


def initial_state(k: Optional[np.ndarray] = None) -> SpinorState:
    """Spin-down cloud at momentum ``k`` (zone center by default)."""
    k = np.zeros(2) if k is None else np.asarray(k, dtype=float)
    return SpinorState(
        amp_down=1.0 + 0.0j,
        amp_up=0.0j,
        k_down=k.copy(),
        k_up=k.copy(),
    )


def _pi2_amplitudes(a: complex, b: complex, phi_mw):
    """The pi/2 pulse [[1, i e^{-i phi}], [i e^{i phi}, 1]] / sqrt(2) applied
    to (a, b); ``phi_mw`` may be an array of pulse phases."""
    phase = np.exp(1j * phi_mw)
    down = (a + 1j * np.conj(phase) * b) / np.sqrt(2.0)
    return down, (1j * phase * a + b) / np.sqrt(2.0)


def apply_pi2(state: SpinorState, phi_mw: float) -> SpinorState:
    """Microwave pi/2 pulse on the spin amplitudes.

    The matrix is [[1, i e^{-i phi}], [i e^{i phi}, 1]] / sqrt(2) acting on
    (amp_down, amp_up); momenta are untouched.  Two pulses at the same
    phase compose to i sigma_x times a phase.
    """
    down, up = _pi2_amplitudes(state.amp_down, state.amp_up, phi_mw)
    return dataclasses.replace(state, amp_down=down, amp_up=up)


def apply_pi(state: SpinorState) -> SpinorState:
    """Echo pulse: exchanges the slot contents wholesale (involutive)."""
    return SpinorState(
        amp_down=state.amp_up,
        amp_up=state.amp_down,
        k_down=state.k_up,
        k_up=state.k_down,
        upper_band_population=state.upper_band_population,
    )


def readout(state: SpinorState) -> tuple[float, float]:
    """Populations (N_down, N_up) of the tracked lower-band amplitudes."""
    return abs(state.amp_down) ** 2, abs(state.amp_up) ** 2


def readout_scan(
    state: SpinorState, phi_mw_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Populations (N_down, N_up) after the readout pi/2 pulse at each phase.

    Pointwise equal to ``readout(apply_pi2(state, phi))``, computed in one
    pass over the array of pulse phases.
    """
    down, up = _pi2_amplitudes(
        state.amp_down, state.amp_up, np.asarray(phi_mw_values, dtype=float)
    )
    return np.abs(down) ** 2, np.abs(up) ** 2


def _require_pure_down(state: SpinorState) -> None:
    if abs(state.amp_up) > 1e-12 or abs(abs(state.amp_down) - 1.0) > 1e-12:
        raise ValueError("evolution starts from a pure spin-down state")


def _signed_leg_time(plan: ProtocolPlan) -> float:
    signed = 0.0
    for step in plan.steps:
        if step.kind == "force_leg":
            signed += -step.duration if step.gradient_direction_flip else step.duration
    return signed


def _matching_overlap(
    plan: ProtocolPlan, u_down_end: np.ndarray, u_up_end: np.ndarray
) -> complex:
    dk = plan.k_path_down.k_e - plan.k_path_up.k_e
    w = np.vdot(sublattice_matching(dk, plan.geometry) * u_up_end, u_down_end)
    if abs(w) < 1e-6:
        raise ValueError("endpoint band states are nearly orthogonal")
    return complex(w)


def _assemble_final_state(
    plan: ProtocolPlan,
    phase_down: complex,
    phase_up: complex,
    w: complex,
    zeeman_phase: float,
    leak_down: float = 0.0,
    leak_up: float = 0.0,
) -> SpinorState:
    """Place the evolved packets into slots and refer them to a common orbital.

    ``phase_down``/``phase_up`` are the complex amplitudes each packet kept
    through its leg, relative to the gauge-fixed end states.  The packet
    that started spin-up is rotated by conj(w)/|w|; the packet that started
    spin-down carries the Zeeman injection.  With an echo the packets have
    swapped slots by the end.
    """
    a0_down = 1.0 / np.sqrt(2.0)
    a0_up = 1j / np.sqrt(2.0)
    amp_packet_down = a0_down * phase_down * np.exp(1j * zeeman_phase)
    amp_packet_up = a0_up * phase_up * np.conj(w) / abs(w)
    if plan.with_echo:
        return SpinorState(
            amp_down=amp_packet_up,
            amp_up=amp_packet_down,
            k_down=plan.k_path_up.k_e.copy(),
            k_up=plan.k_path_down.k_e.copy(),
            upper_band_population=(leak_down + leak_up) / 2.0,
        )
    return SpinorState(
        amp_down=amp_packet_down,
        amp_up=amp_packet_up,
        k_down=plan.k_path_down.k_e.copy(),
        k_up=plan.k_path_up.k_e.copy(),
        upper_band_population=(leak_down + leak_up) / 2.0,
    )


def dynamic_phase(points: np.ndarray, p: ModelParams, leg_time: float) -> float:
    """Trapezoid integral of the lower band energy along a leg sampled
    uniformly at ``points`` and traversed in ``leg_time``."""
    return _trapezoid_phase(band_energies(points, p)[0], leg_time)


def _trapezoid_phase(e_lower: np.ndarray, leg_time: float) -> float:
    """``dynamic_phase`` from the lower band energies at the leg samples."""
    return float(np.trapezoid(e_lower, dx=leg_time / (len(e_lower) - 1)))


def _leg_pass(
    plan: ProtocolPlan, p: ModelParams
) -> tuple[dict, dict, PlanDiagnostics]:
    """Bloch fields and band energies of both legs, keyed by packet, and the
    plan diagnostics.

    The one field evaluation of each leg; the plan is checked against the
    legs' minimum gaps before anything else uses them.
    """
    fields = {
        packet: bloch_fields(kpath.points, p)
        for packet, kpath in (("down", plan.k_path_down), ("up", plan.k_path_up))
    }
    energies = {packet: energies_from_fields(f) for packet, f in fields.items()}
    diagnostics = check_plan(
        plan, p, {packet: np.min(up - lo) for packet, (lo, up) in energies.items()}
    )
    return fields, energies, diagnostics


def evolve_adiabatic(
    state: SpinorState,
    plan: ProtocolPlan,
    p: ModelParams,
    zeeman_rate: float = 0.0,
    gauge_fn=None,
) -> tuple[SpinorState, PhaseLedger]:
    """Lower-band transport through the plan, stopping before the readout pulse.

    Returns the end state and the phase ledger.  The discrete geometric
    phases converge as the leg sampling grows; the plan default keeps them
    well below 1e-8 of the continuum values.
    """
    _require_pure_down(state)
    fields, energies, _ = _leg_pass(plan, p)

    phases = {}
    dynamics = {}
    ends = {}
    for packet, kpath in (("down", plan.k_path_down), ("up", plan.k_path_up)):
        u = states_from_fields(fields[packet], kpath.points, p, gauge_fn=gauge_fn)
        product = complex(np.prod(transport_link(u[1:], u[:-1])))
        phases[packet] = product / abs(product)
        dynamics[packet] = _trapezoid_phase(energies[packet][0], plan.leg_time)
        ends[packet] = u[-1]

    w = _matching_overlap(plan, ends["down"], ends["up"])
    zeeman_phase = zeeman_rate * _signed_leg_time(plan)

    ledger = PhaseLedger(
        geometric_down=float(np.angle(phases["down"])),
        geometric_up=float(np.angle(phases["up"])),
        matching=float(np.angle(w)),
        dynamic_down=dynamics["down"],
        dynamic_up=dynamics["up"],
        zeeman_down=zeeman_phase,
        zeeman_up=0.0,
        with_echo=plan.with_echo,
    )
    final = _assemble_final_state(
        plan,
        phases["down"] * np.exp(-1j * dynamics["down"]),
        phases["up"] * np.exp(-1j * dynamics["up"]),
        w,
        zeeman_phase,
    )
    return final, ledger


def _leg_propagator(fields: tuple, dt: float) -> tuple[complex, complex, complex]:
    """Time-ordered product of the step exponentials exp(-i H dt) of a leg.

    ``fields`` holds (h0, hx, hy, hz) at the step midpoints in time order.
    Each step is a phase times an SU(2) matrix,

        exp(-i H dt) = e^{-i h0 dt} [[a, -conj(b)], [b, conj(a)]],

    with a = cos(|h| dt) - i s hz, b = s (hy - i hx) and s = sin(|h| dt) / |h|
    (s = dt where |h| = 0).  The SU(2) parts are multiplied as (a, b) pairs,
    later @ earlier by pairwise reduction with an odd tail carried to the
    next level, using a = a1 a0 - conj(b1) b0 and b = b1 a0 + conj(a1) b0.
    The scalar phases commute with them and are summed once.  Returns the
    phase exp(-i dt sum(h0)) and the (a, b) pair of the SU(2) product.
    """
    h0, hx, hy, hz = fields
    hmag = np.sqrt(hx**2 + hy**2 + hz**2)
    s = np.where(hmag > 0.0, np.sin(hmag * dt) / np.where(hmag > 0, hmag, 1.0), dt)
    a = np.empty(len(hmag), dtype=complex)
    a.real = np.cos(hmag * dt)
    a.imag = -s * hz
    b = np.empty(len(hmag), dtype=complex)
    b.real = s * hy
    b.imag = -s * hx
    while len(a) > 1:
        n = len(a) - len(a) % 2
        a1, a0, b1, b0 = a[1:n:2], a[0:n:2], b[1:n:2], b[0:n:2]
        a_next = a1 * a0 - b1.conj() * b0
        b_next = b1 * a0 + a1.conj() * b0
        if n < len(a):
            a_next = np.append(a_next, a[-1])
            b_next = np.append(b_next, b[-1])
        a, b = a_next, b_next
    return complex(np.exp(-1j * dt * np.sum(h0))), complex(a[0]), complex(b[0])


def evolve_tdse(
    state: SpinorState,
    plan: ProtocolPlan,
    p: ModelParams,
    dt: Optional[float] = None,
) -> tuple[SpinorState, TdseDiagnostics]:
    """Exact two-level integration along the force legs.

    The step size must satisfy dt <= 0.01 / bandwidth with the bandwidth
    taken as the largest |band energy| along the legs, and a leg may take
    at most ``MAX_TDSE_STEPS`` steps; either violation raises ValueError
    before the midpoints are allocated.  A step costs about 129 bytes of
    peak memory (tracemalloc, 2**16 steps), so the budget of 2**22 steps
    implies a peak of about 540 MB.

    Each step applies the closed-form exponential of the midpoint
    Hamiltonian, a phase e^{-i h0 dt} times an SU(2) matrix.  Each packet's
    SU(2) factors are multiplied as (a, b) pairs by :func:`_leg_propagator`,
    and its phase is exp(-i dt sum(h0)), computed once.  The norm drift of
    the assembled 2x2 total propagator, max |U^dagger U - I|, above 1e-8
    raises StepTooLarge.  Band leakage is reported per packet, and the slot
    amplitudes keep only the lower band projection, so population
    conservation shows up as |amps|^2 + upper_band_population = 1.  The
    diagnostics carry the plan's adiabaticity figure xi from the same
    plan check.
    """
    _require_pure_down(state)
    fields, energies, plan_diagnostics = _leg_pass(plan, p)
    bw = max(float(np.max(np.abs(e))) for pair in energies.values() for e in pair)
    limit = 0.01 / bw
    if dt is None:
        dt = limit
    elif not (dt > 0 and np.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    elif dt > limit * (1.0 + 1e-9):
        raise ValueError(
            f"dt = {dt:.3e} exceeds the precondition 0.01 / bandwidth = {limit:.3e}"
        )

    total_time = plan.leg_time
    steps = total_time / dt
    if not steps <= MAX_TDSE_STEPS:
        raise ValueError(
            f"dt = {dt:.3e} needs {steps:.3e} steps per leg, over the budget of "
            f"{MAX_TDSE_STEPS} (leg time {total_time:.6g})"
        )
    n_steps = int(np.ceil(steps))
    dt_actual = total_time / n_steps

    results = {}
    drift = 0.0
    for packet, kpath in (("down", plan.k_path_down), ("up", plan.k_path_up)):
        start = kpath.k_b
        velocity = (kpath.k_e - kpath.k_b) / total_time
        t_mid = (np.arange(n_steps) + 0.5) * dt_actual
        k_mid = start[None, :] + t_mid[:, None] * velocity[None, :]
        phase, a, b = _leg_propagator(bloch_fields(k_mid, p), dt_actual)
        u_total = phase * np.array([[a, -b.conjugate()], [b, a.conjugate()]])
        drift = max(
            drift, float(np.max(np.abs(u_total.conj().T @ u_total - np.eye(2))))
        )
        leg = fields[packet]
        psi0 = states_from_fields(tuple(f[0] for f in leg), start, p)
        psi_end = u_total @ psi0
        u_end = states_from_fields(tuple(f[-1] for f in leg), kpath.k_e, p)
        c = complex(np.vdot(u_end, psi_end))
        results[packet] = (c, u_end)
    if drift > 1e-8:
        raise StepTooLarge(f"propagator norm drift {drift:.3e} exceeds 1e-8")

    c_down, u_down_end = results["down"]
    c_up, u_up_end = results["up"]
    leak_down = max(0.0, 1.0 - abs(c_down) ** 2)
    leak_up = max(0.0, 1.0 - abs(c_up) ** 2)
    w = _matching_overlap(plan, u_down_end, u_up_end)

    site_phase = float(np.angle(c_down * np.conj(c_up) * w / abs(w)))
    extracted = _echo_fold(site_phase, plan.with_echo)

    final = _assemble_final_state(plan, c_down, c_up, w, 0.0, leak_down, leak_up)
    diagnostics = TdseDiagnostics(
        dt=dt_actual,
        n_steps=n_steps,
        bandwidth=bw,
        xi=plan_diagnostics.xi,
        norm_drift=drift,
        leakage_down=leak_down,
        leakage_up=leak_up,
        extracted_phase=extracted,
    )
    return final, diagnostics


def landau_zener_estimate(p: ModelParams, plan: ProtocolPlan) -> float:
    """Single-crossing leakage scale exp(-pi gap^2 / (2 F)).

    F is the larger leg force magnitude and the gap is the global band gap;
    the realized leakage of a full leg stays within a small factor of this.
    """
    force = max(
        float(np.linalg.norm(d)) / plan.leg_time
        for d in plan.total_displacements.values()
    )
    gap = band_gap_min(p)
    return float(np.exp(-np.pi * gap**2 / (2.0 * force)))


def run_fringe(
    p: ModelParams,
    site: str,
    phi_mw_values: Sequence[float],
    mode: str = "adiabatic",
    leg_time: float = 200.0,
    with_echo: bool = True,
    zeeman_rate: float = 0.0,
    dt: Optional[float] = None,
    samples_per_leg: int = 2000,
    plan: Optional[ProtocolPlan] = None,
    gauge_fn=None,
) -> FringeScan:
    """Evolve once and scan the readout pulse phase.

    ``mode`` selects the adiabatic or the stepwise-integration route.  A
    pre-built (possibly perturbed) plan overrides the construction
    arguments.
    """
    if plan is None:
        plan = plan_site(
            site, p, leg_time=leg_time, with_echo=with_echo,
            samples_per_leg=samples_per_leg,
        )
    state0 = initial_state()
    ledger = None
    diagnostics = None
    if mode == "adiabatic":
        end, ledger = evolve_adiabatic(
            state0, plan, p, zeeman_rate=zeeman_rate, gauge_fn=gauge_fn
        )
    elif mode == "tdse":
        end, diagnostics = evolve_tdse(state0, plan, p, dt=dt)
    else:
        raise ValueError(f"mode must be 'adiabatic' or 'tdse', got {mode!r}")

    phi = np.asarray(list(phi_mw_values), dtype=float)
    n_down, n_up = readout_scan(end, phi)
    return FringeScan(
        phi_mw_values=phi,
        n_down=n_down,
        n_up=n_up,
        mode=mode,
        site=plan.site,
        ledger=ledger,
        diagnostics=diagnostics,
    )
