"""Spin-state bookkeeping and propagation of the interferometer sequence.

The cloud is a spinor wavepacket; each spin slot carries an amplitude only,
and stands for the lower-band state at the momentum of the packet in it.
Microwave pulses act on the amplitudes.  Between pulses each packet follows
its straight momentum leg, and the two evolution routes are

* ``evolve_adiabatic``: exact lower-band transport.  Geometric phases come
  from the products of :func:`chernscope.topology.transport_link` along the
  sampled legs, dynamical phases from the trapezoid rule on the band
  energy, and the Zeeman term from the plan-level rate times the signed leg
  time (the sign flips with the gradient direction, so a midpoint echo
  cancels it exactly).
* ``evolve_tdse``: exact stepwise integration of the two-level Schrodinger
  equation with the midpoint Hamiltonian exponentiated in closed form per
  step, which resolves nonadiabatic band leakage.

Each route evaluates the Bloch fields of both legs' samples in one pass,
:func:`chernscope.protocol.leg_pass`, which also checks the plan and
stacks the legs, each packet's samples a slice of the stack.  The adiabatic
route derives the lower-band states with their gap check, the transport
links and the dynamical phase over the whole stack at once, and reads each
packet's product and trapezoid off its slice, so the one link across the
seam between the legs goes unused; the stepwise route derives the
step-size bandwidth and its end states from the pass, and takes its
midpoint fields from :func:`chernscope.lattice.line_fields` in fixed-size
blocks.

Both routes end with the two packets at momenta one reciprocal vector apart
(up to planned endpoint error), and close the same way: the split state of
:func:`apply_pi2`, each slot times its packet's amplitude, and the echo's
:func:`apply_pi`.  Before the final readout pulse the slot amplitudes are
referred to a common orbital: the end state of the packet that started
spin-down, with the other slot rotated by the conjugated
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
    band_gap_min,
    line_fields,
    states_from_fields,
    sublattice_matching,
)
from .protocol import ProtocolPlan, leg_pass
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
    "evolve_adiabatic",
    "evolve_tdse",
    "run_fringe",
    "landau_zener_estimate",
    "wrap_angle",
]

# Step budget of one TDSE leg; see evolve_tdse for the time it implies.
MAX_TDSE_STEPS = 2**22

# Midpoints per block of a TDSE leg.  A block's fields and step factors
# (about 1.1 MB) stay in cache and their memory is reused by the next
# block, so a call does not page in memory that grows with the step count.
_TDSE_BLOCK = 8192


def wrap_angle(x: float) -> float:
    """Reduce a phase to (-pi, pi], matching numpy.angle conventions."""
    return float(np.angle(np.exp(1j * x)))


@dataclass(frozen=True, eq=False)
class SpinorState:
    """Two spin slots with their amplitudes.

    ``upper_band_population`` is the population lost from the tracked
    lower-band amplitudes, so |amp_down|^2 + |amp_up|^2 plus it is 1.
    """

    amp_down: complex
    amp_up: complex
    upper_band_population: float = 0.0

    def __post_init__(self):
        deviation = self.norm**2 - 1.0
        if abs(deviation) > 1e-12:
            raise ValueError(f"state norm deviates from 1 by {deviation:.3e}")

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
    endpoint band states.  ``zeeman`` is the differential Zeeman phase, minus
    the phase the packet that started spin-down picks up.  The aggregates
    fold in the slot exchange of the echo so that ``total`` always equals
    the fringe phase of the readout law.
    """

    geometric_down: float
    geometric_up: float
    matching: float
    dynamic_down: float
    dynamic_up: float
    zeeman: float
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
    def total(self) -> float:
        return wrap_angle(self.geometric + self.dynamic + self.zeeman)


@dataclass(frozen=True)
class TdseDiagnostics:
    dt: float
    n_steps: int
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
    site: str
    ledger: Optional[PhaseLedger] = None
    diagnostics: Optional[TdseDiagnostics] = None


def initial_state() -> SpinorState:
    """Spin-down cloud."""
    return SpinorState(amp_down=1.0 + 0.0j, amp_up=0.0j)


def _pi2_amplitudes(a: complex, b: complex, phi_mw):
    """The pi/2 pulse [[1, i e^{-i phi}], [i e^{i phi}, 1]] / sqrt(2) applied
    to (a, b); ``phi_mw`` may be an array of pulse phases."""
    phase = np.exp(1j * phi_mw)
    down = (a + 1j * np.conj(phase) * b) / np.sqrt(2.0)
    return down, (1j * phase * a + b) / np.sqrt(2.0)


def apply_pi2(state: SpinorState, phi_mw: float) -> SpinorState:
    """Microwave pi/2 pulse on the spin amplitudes.

    The matrix is [[1, i e^{-i phi}], [i e^{i phi}, 1]] / sqrt(2) acting on
    (amp_down, amp_up).  Two pulses at the same phase compose to i sigma_x
    times a phase.
    """
    down, up = _pi2_amplitudes(state.amp_down, state.amp_up, phi_mw)
    return dataclasses.replace(state, amp_down=down, amp_up=up)


def apply_pi(state: SpinorState) -> SpinorState:
    """Echo pulse: exchanges the slot contents wholesale (involutive)."""
    return dataclasses.replace(state, amp_down=state.amp_up, amp_up=state.amp_down)


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


def _zeeman_phase(plan: ProtocolPlan, zeeman_rate: float) -> float:
    """Zeeman phase of the packet that started spin-down: the rate times the
    leg time weighted by the gradient direction, whose flipped echo half
    cancels the first half.  A NaN or infinite rate raises ValueError."""
    if not np.isfinite(zeeman_rate):
        raise ValueError(f"zeeman_rate must be finite, got {zeeman_rate}")
    return zeeman_rate * (0.0 if plan.with_echo else plan.leg_time)


def _matching_overlap(plan: ProtocolPlan, ends: dict) -> complex:
    """Overlap of the packets' end band states, keyed by packet, with the
    sublattice matching of their momentum difference."""
    dk = plan.endpoint_down - plan.endpoint_up
    w = np.vdot(sublattice_matching(dk, plan.geometry) * ends["up"], ends["down"])
    if abs(w) < 1e-6:
        raise ValueError("endpoint band states are nearly orthogonal")
    return complex(w)


def _close(
    plan: ProtocolPlan,
    phase_down: complex,
    phase_up: complex,
    w: complex,
    zeeman_phase: float,
    upper_band_population: float = 0.0,
) -> SpinorState:
    """The state before the readout pulse, from the packets' evolved amplitudes.

    ``phase_down``/``phase_up`` are the complex amplitudes each packet kept
    through its leg, relative to the gauge-fixed end states.  Each slot of
    the split state is multiplied by its packet's amplitude; the packet that
    started spin-up is rotated by conj(w)/|w| onto the common orbital, and
    the packet that started spin-down carries the Zeeman phase.  The echo
    pulse then exchanges the slots.
    """
    split = apply_pi2(initial_state(), 0.0)
    end = SpinorState(
        amp_down=split.amp_down * phase_down * np.exp(1j * zeeman_phase),
        amp_up=split.amp_up * phase_up * np.conj(w) / abs(w),
        upper_band_population=upper_band_population,
    )
    return apply_pi(end) if plan.with_echo else end


def _trapezoid_phase(e_lower: np.ndarray, leg_time: float) -> float:
    """Trapezoid integral of the lower band energies at a leg's uniform
    samples, the leg traversed in ``leg_time``."""
    return float(np.trapezoid(e_lower, dx=leg_time / (len(e_lower) - 1)))


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
    well below 1e-8 of the continuum values.  A NaN or infinite
    ``zeeman_rate`` raises ValueError.
    """
    _require_pure_down(state)
    zeeman_phase = _zeeman_phase(plan, zeeman_rate)
    legs = leg_pass(plan, p)
    u = states_from_fields(legs.fields, legs.points, p, gauge_fn=gauge_fn)
    links = transport_link(u[1:], u[:-1])

    phases = {}
    dynamics = {}
    ends = {}
    for packet, rows in legs.slices.items():
        product = complex(np.prod(links[rows.start:rows.stop - 1]))
        phases[packet] = product / abs(product)
        dynamics[packet] = _trapezoid_phase(legs.energies[0][rows], plan.leg_time)
        ends[packet] = u[rows.stop - 1]

    w = _matching_overlap(plan, ends)
    ledger = PhaseLedger(
        geometric_down=float(np.angle(phases["down"])),
        geometric_up=float(np.angle(phases["up"])),
        matching=float(np.angle(w)),
        dynamic_down=dynamics["down"],
        dynamic_up=dynamics["up"],
        zeeman=-zeeman_phase,
        with_echo=plan.with_echo,
    )
    final = _close(
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
    (s = dt where |h| = 0).  The SU(2) parts are multiplied as (a, b) pairs
    by :func:`_su2_product`.  The scalar phases commute with them and are
    summed once.  Returns the phase exp(-i dt sum(h0)) and the (a, b) pair
    of the SU(2) product.
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
    return (complex(np.exp(-1j * dt * np.sum(h0))),) + _su2_product(a, b)


def _su2_product(a: np.ndarray, b: np.ndarray) -> tuple[complex, complex]:
    """(a, b) pair of the product of SU(2) pairs given in time order.

    Multiplies later @ earlier by pairwise reduction with an odd tail
    carried to the next level, using a = a1 a0 - conj(b1) b0 and
    b = b1 a0 + conj(a1) b0.
    """
    while len(a) > 1:
        n = len(a) - len(a) % 2
        a1, a0, b1, b0 = a[1:n:2], a[0:n:2], b[1:n:2], b[0:n:2]
        a_next = a1 * a0 - b1.conj() * b0
        b_next = b1 * a0 + a1.conj() * b0
        if n < len(a):
            a_next = np.append(a_next, a[-1])
            b_next = np.append(b_next, b[-1])
        a, b = a_next, b_next
    return complex(a[0]), complex(b[0])


def _line_propagator(
    k0: np.ndarray, step: np.ndarray, n: int, p: ModelParams, dt: float
) -> tuple[complex, complex, complex]:
    """:func:`_leg_propagator` of the n midpoints k0 + j step, by blocks.

    Each block of at most ``_TDSE_BLOCK`` midpoints takes its fields from
    one :func:`chernscope.lattice.line_fields` call and is reduced to a
    phase and an (a, b) pair; the blocks' pairs are then multiplied in time
    order by :func:`_su2_product` and their phases multiplied together.
    """
    blocks = [
        _leg_propagator(
            line_fields(k0 + j * step, step, min(_TDSE_BLOCK, n - j), p), dt
        )
        for j in range(0, n, _TDSE_BLOCK)
    ]
    phases, a, b = (np.array(x) for x in zip(*blocks))
    return (complex(np.prod(phases)),) + _su2_product(a, b)


def evolve_tdse(
    state: SpinorState,
    plan: ProtocolPlan,
    p: ModelParams,
    dt: Optional[float] = None,
    zeeman_rate: float = 0.0,
) -> tuple[SpinorState, TdseDiagnostics]:
    """Exact two-level integration along the force legs.

    The step size must satisfy dt <= 0.01 / bandwidth with the bandwidth
    taken as the largest |band energy| along the legs, and a leg may take
    at most ``MAX_TDSE_STEPS`` steps; either violation raises ValueError
    before the midpoints are allocated.  The midpoints are taken in blocks
    of ``_TDSE_BLOCK``, so peak memory is about 1.1 MB whatever the step
    count (tracemalloc, 2**16 to 2**20 steps) and the budget of 2**22 steps
    bounds time instead: about 0.1 us per step on one Intel Xeon vCPU, so
    under a second per leg.

    Each leg's propagator comes from :func:`_line_propagator`.  The norm
    drift of the assembled 2x2 total propagator, max |U^dagger U - I|,
    above 1e-8 raises StepTooLarge.  Band leakage is reported per packet,
    and the slot amplitudes keep only the lower band projection, so
    population conservation shows up as |amps|^2 + upper_band_population
    = 1.  The diagnostics carry the plan's adiabaticity figure xi from the
    same plan check.  The Zeeman phase and its check on ``zeeman_rate`` are
    those of :func:`evolve_adiabatic`.
    """
    _require_pure_down(state)
    zeeman_phase = _zeeman_phase(plan, zeeman_rate)
    legs = leg_pass(plan, p)
    bw = max(float(np.max(np.abs(e))) for e in legs.energies)
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

    amps = {}
    ends = {}
    drift = 0.0
    for packet, rows in legs.slices.items():
        leg = plan.legs[packet]
        start = leg.start
        step = (leg.end - start) / total_time * dt_actual
        phase, a, b = _line_propagator(
            start + step / 2, step, n_steps, p, dt_actual
        )
        u_total = phase * np.array([[a, -b.conjugate()], [b, a.conjugate()]])
        drift = max(
            drift, float(np.max(np.abs(u_total.conj().T @ u_total - np.eye(2))))
        )
        psi0 = states_from_fields(tuple(f[rows.start] for f in legs.fields), start, p)
        ends[packet] = states_from_fields(
            tuple(f[rows.stop - 1] for f in legs.fields), leg.end, p
        )
        amps[packet] = complex(np.vdot(ends[packet], u_total @ psi0))
    if drift > 1e-8:
        raise StepTooLarge(f"propagator norm drift {drift:.3e} exceeds 1e-8")

    c_down, c_up = amps["down"], amps["up"]
    leak_down = max(0.0, 1.0 - abs(c_down) ** 2)
    leak_up = max(0.0, 1.0 - abs(c_up) ** 2)
    w = _matching_overlap(plan, ends)

    site_phase = float(np.angle(c_down * np.conj(c_up) * w / abs(w)))
    extracted = _echo_fold(site_phase + zeeman_phase, plan.with_echo)

    final = _close(
        plan, c_down, c_up, w, zeeman_phase, (leak_down + leak_up) / 2.0
    )
    diagnostics = TdseDiagnostics(
        dt=dt_actual,
        n_steps=n_steps,
        xi=legs.diagnostics.xi,
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
    plan: ProtocolPlan,
    phi_mw_values: Sequence[float],
    mode: str = "adiabatic",
    zeeman_rate: float = 0.0,
    dt: Optional[float] = None,
) -> FringeScan:
    """Evolve once along the plan's two legs and scan the readout pulse phase.

    The plan, nominal or perturbed, fixes the site, the legs, the leg time
    and the echo; ``mode`` selects the adiabatic or the stepwise-integration
    route.
    """
    state0 = initial_state()
    ledger = None
    diagnostics = None
    if mode == "adiabatic":
        end, ledger = evolve_adiabatic(state0, plan, p, zeeman_rate=zeeman_rate)
    elif mode == "tdse":
        end, diagnostics = evolve_tdse(
            state0, plan, p, dt=dt, zeeman_rate=zeeman_rate
        )
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
