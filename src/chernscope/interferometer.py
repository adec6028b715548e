"""Spin-state bookkeeping and propagation of the interferometer sequence.

The cloud is a spinor wavepacket; each spin slot carries an amplitude only,
and stands for the lower-band state at the momentum of the packet in it.
Microwave pulses act on the amplitudes.  Between pulses each packet follows
its straight momentum leg, and the two evolution routes are

* ``evolve_adiabatic``: exact lower-band transport.  Geometric phases are
  the summed transport-link angles along the sampled legs, taken by
  :func:`chernscope.topology.field_link_phases` straight from the Bloch
  fields, dynamical phases from the trapezoid rule on the band energy,
  and the Zeeman term from the plan-level rate times the signed leg time
  (the sign flips with the gradient direction, so a midpoint echo cancels
  it exactly).
* ``evolve_tdse``: exact stepwise integration of the two-level Schrodinger
  equation with the midpoint Hamiltonian exponentiated in closed form per
  step, which resolves nonadiabatic band leakage.

Each route evaluates the Bloch fields of its legs' samples in one pass,
:func:`chernscope.protocol.leg_pass`, which also checks the plans and
stacks the legs of a batch of plans with one leg sampling into a
(plans, 2, n + 1) array.  The adiabatic route takes such a batch:
:func:`evolve_adiabatic_batch` groups a stream of plans into passes of at
most ``_ADIABATIC_BATCH`` momenta, and :func:`evolve_adiabatic` is the
batch of one.  A pass takes the gap check, the transport links and the
dynamical phase over the whole stack at once, and each leg's summed link
angle and trapezoid over the sample axis; the links are formed from the
real fields of the unnormalized lower-band closed forms, and only the
legs' end samples become normalized states, for the matching overlaps.  The
tail runs over the batch too: the unit link products, the matching
overlaps, the Zeeman factors and the closed amplitudes are arrays over the
plans, each element rounded as the one-plan scalar expression rounds it,
and only the state and ledger objects are built plan by plan.  So a plan's
result does not depend on the batch it ran in.  The stepwise
route passes its one plan, derives the step-size bandwidth and its end
states from the pass, and takes its midpoint fields from
:func:`chernscope.lattice.line_fields` in fixed-size blocks.

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
from typing import Iterable, Iterator, Optional, Sequence

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
from .topology import field_link_phases

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
    "evolve_adiabatic_batch",
    "evolve_tdse",
    "run_fringe",
    "landau_zener_estimate",
    "wrap_angle",
]

# Step budget of one TDSE leg; see evolve_tdse for the time it implies.
MAX_TDSE_STEPS = 2**22

# Midpoints per block of a TDSE leg.  A block's fields and step factors
# (about 1 MB) stay in cache and their memory is reused by the next
# block.  What a block leaves behind is its phase and its _SU2_SHORT
# reduced (a, b) pairs, 32 bytes per pair, so about 2 KB per full block:
# 64 KB at 2**18 steps, 1 MB at the budget of MAX_TDSE_STEPS.
_TDSE_BLOCK = 8192

# Pairs a full TDSE block is reduced to before the full blocks' trees are
# finished together as one (blocks, pairs) stack.  Below about this length
# a tree level costs its numpy call overhead (about 10 us) whatever its
# size, so the stack pays the short levels once per leg, not per block.
_SU2_SHORT = 64

# Momenta per pass of evolve_adiabatic_batch: four plans at the sweep's
# default 1,200 samples per leg.  A pass peaks at about 1.5 MB (tracemalloc),
# which stays in a 2 MB per-core L2 cache, and pays its fixed cost once for
# the batch; two and eight plans per pass made the sweep slower.
_ADIABATIC_BATCH = 9608


def wrap_angle(x: float | np.ndarray) -> float | np.ndarray:
    """Reduce a phase to (-pi, pi], matching numpy.angle conventions; an
    array of phases is reduced element by element."""
    wrapped = np.angle(np.exp(1j * x))
    return float(wrapped) if np.ndim(wrapped) == 0 else wrapped


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


def _pi2_amplitudes(a, b, phi_mw):
    """The pi/2 pulse [[1, i e^{-i phi}], [i e^{i phi}, 1]] / sqrt(2) applied
    to (a, b); the amplitudes and ``phi_mw`` may be arrays that broadcast
    against each other."""
    phase = np.exp(1j * phi_mw)
    down = (a + 1j * np.conj(phase) * b) / np.sqrt(2.0)
    return down, (1j * phase * a + b) / np.sqrt(2.0)


def _scan_populations(a, b, phi_mw) -> tuple[np.ndarray, np.ndarray]:
    """Populations (N_down, N_up) of the amplitudes (a, b) after the readout
    pi/2 pulse at ``phi_mw``, all three broadcast against each other."""
    down, up = _pi2_amplitudes(a, b, phi_mw)
    return np.abs(down) ** 2, np.abs(up) ** 2


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
    return _scan_populations(
        state.amp_down, state.amp_up, np.asarray(phi_mw_values, dtype=float)
    )


def _require_pure_down(state: SpinorState) -> None:
    if abs(state.amp_up) > 1e-12 or abs(abs(state.amp_down) - 1.0) > 1e-12:
        raise ValueError("evolution starts from a pure spin-down state")


def _zeeman_phases(plans: Sequence[ProtocolPlan], zeeman_rate: float) -> np.ndarray:
    """Zeeman phase of the packet that started spin-down, per plan: the rate
    times the leg time weighted by the gradient direction, whose flipped
    echo half cancels the first half.  A NaN or infinite rate raises
    ValueError."""
    if not np.isfinite(zeeman_rate):
        raise ValueError(f"zeeman_rate must be finite, got {zeeman_rate}")
    return zeeman_rate * np.array(
        [0.0 if plan.with_echo else plan.leg_time for plan in plans]
    )


def _scalar_product(a, b) -> np.ndarray:
    """a * b over arrays of complex numbers, rounded as scalar complex
    arithmetic rounds each product.

    numpy's vectorized complex multiply fuses a multiply and an add, so its
    last bits differ from those of the same product taken one scalar at a
    time; here each real product and sum is rounded on its own.
    """
    real = a.real * b.real - a.imag * b.imag
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _matching_overlaps(
    plans: Sequence[ProtocolPlan], ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Overlap w of each plan's packets' end band states, with the
    sublattice matching of their momentum difference, and |w|.

    ``ends`` holds the (plans, 2, 2) end states, each plan's down packet
    first.  Each overlap is one ``np.vecdot`` row, equal to ``np.vdot`` of
    that plan's two states.
    """
    dk = np.array([plan.endpoint_down - plan.endpoint_up for plan in plans])
    matching = sublattice_matching(dk)
    w = np.vecdot(matching * ends[:, 1], ends[:, 0])
    size = np.hypot(w.real, w.imag)
    if np.any(size < 1e-6):
        raise ValueError("endpoint band states are nearly orthogonal")
    return w, size


def _close(
    plans: Sequence[ProtocolPlan],
    amplitudes: np.ndarray,
    w: np.ndarray,
    w_size: np.ndarray,
    zeeman_phase: np.ndarray,
    upper_band_population: float = 0.0,
) -> list[SpinorState]:
    """The state before the readout pulse of each plan of a batch, from the
    packets' evolved amplitudes.

    ``amplitudes`` holds, per plan, the complex amplitude each packet kept
    through its leg relative to the gauge-fixed end states, the down
    packet's first; w, its size |w| and the Zeeman phase are arrays over
    the batch, or scalars for a batch of one.  Each slot of the split state
    of :func:`apply_pi2` is multiplied by its packet's amplitude; the packet
    that started spin-up is rotated by conj(w)/|w| onto the common orbital,
    and the packet that started spin-down carries the Zeeman phase.  The
    echo pulse of :func:`apply_pi` then exchanges the slots.  Each product
    is rounded as on scalars, in the order written here.
    """
    split = apply_pi2(initial_state(), 0.0)
    factors = np.empty_like(amplitudes)
    factors[:, 0] = np.exp(1j * zeeman_phase)
    factors[:, 1] = np.conj(w)
    closed = _scalar_product(
        _scalar_product(np.array([split.amp_down, split.amp_up]), amplitudes), factors
    )
    closed[:, 1] /= w_size
    states = []
    for plan, slots in zip(plans, closed.tolist()):
        amp_down, amp_up = slots[::-1] if plan.with_echo else slots  # the echo
        states.append(SpinorState(amp_down, amp_up, upper_band_population))
    return states


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
    ``zeeman_rate`` raises ValueError.  The pass is that of
    :func:`evolve_adiabatic_batch`, on a batch of one.
    """
    _require_pure_down(state)
    return _adiabatic_pass([plan], p, zeeman_rate, gauge_fn)[0]


def evolve_adiabatic_batch(
    plans: Iterable[ProtocolPlan], p: ModelParams, zeeman_rate: float = 0.0
) -> Iterator[tuple[SpinorState, PhaseLedger]]:
    """``evolve_adiabatic`` from the spin-down state along each plan, in order.

    Consecutive plans with one leg sampling share a pass of at most
    ``_ADIABATIC_BATCH`` momenta, and at least one plan.  Each plan's end
    state and ledger equal those of ``evolve_adiabatic`` bit for bit, and
    ``plans`` is read lazily, so at most one batch of plans is held.
    """
    batch: list = []
    for plan in plans:
        n = plan.samples_per_leg
        if batch and (
            n != batch[0].samples_per_leg
            or 2 * (n + 1) * (len(batch) + 1) > _ADIABATIC_BATCH
        ):
            yield from _adiabatic_pass(batch, p, zeeman_rate)
            batch = []
        batch.append(plan)
    if batch:
        yield from _adiabatic_pass(batch, p, zeeman_rate)


def _adiabatic_pass(
    plans: Sequence[ProtocolPlan], p: ModelParams, zeeman_rate: float, gauge_fn=None
) -> list[tuple[SpinorState, PhaseLedger]]:
    """End state and ledger of each plan of a batch, from one leg pass.

    The transport links and the trapezoid rule on the lower band energy run
    over the whole (plans, 2, n + 1) stack of
    :func:`chernscope.protocol.leg_pass`, and each leg's geometric phase
    and trapezoid are taken over its own sample axis.  The links come from
    one :func:`chernscope.topology.field_link_phases` call on the stack's
    real fields, with the gap check before any link; no normalized state
    is built along the legs.  Only the legs' end samples go through
    :func:`chernscope.lattice.states_from_fields`, for the matching
    overlaps.  ``gauge_fn`` rotates the states of both, every sample's.
    The unit link products, the matching overlaps, the Zeeman factors and
    the closed amplitudes are then arrays over the batch, each element
    rounded as the one-plan scalar expression rounds it, and the last loop
    only builds the states and ledgers.
    """
    zeeman = _zeeman_phases(plans, zeeman_rate)
    legs = leg_pass(plans, p)
    phases = field_link_phases(legs.fields, legs.points, p, gauge_fn)
    ends = states_from_fields(
        tuple(f[..., -1] for f in legs.fields), legs.points[..., -1, :], p,
        gauge_fn=gauge_fn,
    )
    n = legs.points.shape[-2] - 1
    dx = np.array([plan.leg_time for plan in plans])[:, None, None] / n
    dynamics = np.trapezoid(legs.energies[0], dx=dx, axis=-1)

    units = np.exp(1j * phases)  # each packet's unit link product
    w, w_size = _matching_overlaps(plans, ends)
    amplitudes = _scalar_product(units, np.exp(-1j * dynamics))
    finals = _close(plans, amplitudes, w, w_size, zeeman)
    return [
        (
            final,
            PhaseLedger(
                geometric_down=geometric[0],
                geometric_up=geometric[1],
                matching=matching,
                dynamic_down=dynamic[0],
                dynamic_up=dynamic[1],
                zeeman=-zeeman_phase,
                with_echo=plan.with_echo,
            ),
        )
        for plan, final, geometric, matching, dynamic, zeeman_phase in zip(
            plans,
            finals,
            np.angle(units).tolist(),
            np.angle(w).tolist(),
            dynamics.tolist(),
            zeeman.tolist(),
        )
    ]


def _step_pairs(fields: tuple, dt: float) -> tuple[complex, np.ndarray, np.ndarray]:
    """The step exponentials exp(-i H dt) of a leg as a phase and (a, b) pairs.

    ``fields`` holds (h0, hx, hy, hz) at the step midpoints in time order.
    Each step is a phase times an SU(2) matrix,

        exp(-i H dt) = e^{-i h0 dt} [[a, -conj(b)], [b, conj(a)]],

    with a = cos(|h| dt) - i s hz, b = s (hy - i hx) and s = sin(|h| dt) / |h|
    (s = dt where |h| = 0).  The scalar phases commute with the SU(2) parts
    and are summed once.  Returns the phase exp(-i dt sum(h0)) and the
    steps' a and b arrays.
    """
    h0, hx, hy, hz = fields
    hmag = np.sqrt(hx**2 + hy**2 + hz**2)
    x = hmag * dt
    live = hmag > 0.0
    s = np.sin(x)
    np.divide(s, hmag, out=s, where=live)
    s[~live] = dt
    a = np.empty(len(hmag), dtype=complex)
    a.real = np.cos(x)
    a.imag = -s * hz
    b = np.empty(len(hmag), dtype=complex)
    b.real = s * hy
    b.imag = -s * hx
    return complex(np.exp(-1j * dt * np.sum(h0))), a, b


def _leg_propagator(fields: tuple, dt: float) -> tuple[complex, complex, complex]:
    """Time-ordered product of the step exponentials exp(-i H dt) of a leg.

    The steps of :func:`_step_pairs`, their SU(2) parts multiplied in one
    tree by :func:`_su2_product`.  Returns the phase exp(-i dt sum(h0)) and
    the (a, b) pair of the SU(2) product.
    """
    phase, a, b = _step_pairs(fields, dt)
    a, b = _su2_product(a, b)
    return phase, complex(a[0]), complex(b[0])


def _su2_product(
    a: np.ndarray, b: np.ndarray, short: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce SU(2) (a, b) pairs, in time order along the last axis.

    Multiplies later @ earlier by pairwise reduction along the last axis,
    every row of a stack alike, with an odd tail carried to the next level,
    using a = a1 a0 - conj(b1) b0 and b = b1 a0 + conj(a1) b0.  Stops once
    the last axis holds at most ``short`` pairs.  The pairing depends only
    on the length, so a row reduced to a few pairs and finished later,
    alone or stacked with rows of its length, rounds as one reduced to the
    end in one call.
    """
    while a.shape[-1] > short:
        m = a.shape[-1]
        n = m - m % 2
        a1, a0 = a[..., 1:n:2], a[..., 0:n:2]
        b1, b0 = b[..., 1:n:2], b[..., 0:n:2]
        a_next = a1 * a0 - b1.conj() * b0
        b_next = b1 * a0 + a1.conj() * b0
        if n < m:
            a_next = np.concatenate((a_next, a[..., -1:]), axis=-1)
            b_next = np.concatenate((b_next, b[..., -1:]), axis=-1)
        a, b = a_next, b_next
    return a, b


def _line_propagator(
    k0: np.ndarray, step: np.ndarray, n: int, p: ModelParams, dt: float
) -> tuple[complex, complex, complex]:
    """:func:`_leg_propagator` of the n midpoints k0 + j step, by blocks.

    Each block of at most ``_TDSE_BLOCK`` midpoints takes its fields from
    one :func:`chernscope.lattice.line_fields` call.  A full block is
    reduced to at most ``_SU2_SHORT`` (a, b) pairs, and the full blocks'
    pairs, all of one length, are finished as one (blocks, pairs) stack; a
    last, partial block is reduced alone.  The blocks' products are then
    multiplied in time order by :func:`_su2_product` and their phases
    multiplied together.
    """
    n_full = n - n % _TDSE_BLOCK
    phases, a, b = [], [], []
    for j in range(0, n_full, _TDSE_BLOCK):
        phase, a_j, b_j = _step_pairs(
            line_fields(k0 + j * step, step, _TDSE_BLOCK, p), dt
        )
        a_j, b_j = _su2_product(a_j, b_j, _SU2_SHORT)
        phases.append(phase)
        a.append(a_j)
        b.append(b_j)
    if n_full:
        a, b = (list(x[:, 0]) for x in _su2_product(np.stack(a), np.stack(b)))
    if n_full < n:
        phase, a_j, b_j = _leg_propagator(
            line_fields(k0 + n_full * step, step, n - n_full, p), dt
        )
        phases.append(phase)
        a.append(a_j)
        b.append(b_j)
    a, b = _su2_product(np.array(a), np.array(b))
    return complex(np.prod(np.array(phases))), complex(a[0]), complex(b[0])


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
    of ``_TDSE_BLOCK``, so peak memory is about 1.0 MB at 2**16 steps per
    leg and grows only by the 2 KB of reduced pairs each full block keeps
    for the stacked finish: 1.06 MB at 2**18 and 1.29 MB at 2**20 steps
    (tracemalloc).  The budget of 2**22 steps bounds time instead: about
    0.1 us per step on one Intel Xeon vCPU, so under a second per leg.

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
    zeeman_phase = _zeeman_phases([plan], zeeman_rate)[0]
    legs = leg_pass([plan], p)
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
    for i, (packet, leg) in enumerate(plan.legs.items()):
        start = leg.start
        step = (leg.end - start) / total_time * dt_actual
        phase, a, b = _line_propagator(
            start + step / 2, step, n_steps, p, dt_actual
        )
        u_total = phase * np.array([[a, -b.conjugate()], [b, a.conjugate()]])
        drift = max(
            drift, float(np.max(np.abs(u_total.conj().T @ u_total - np.eye(2))))
        )
        psi0 = states_from_fields(tuple(f[0, i, 0] for f in legs.fields), start, p)
        ends[packet] = states_from_fields(
            tuple(f[0, i, -1] for f in legs.fields), leg.end, p
        )
        amps[packet] = complex(np.vdot(ends[packet], u_total @ psi0))
    if drift > 1e-8:
        raise StepTooLarge(f"propagator norm drift {drift:.3e} exceeds 1e-8")

    c_down, c_up = amps["down"], amps["up"]
    leak_down = max(0.0, 1.0 - abs(c_down) ** 2)
    leak_up = max(0.0, 1.0 - abs(c_up) ** 2)
    (w,), (w_size,) = _matching_overlaps(
        [plan], np.array([[ends["down"], ends["up"]]])
    )

    site_phase = float(np.angle(c_down * np.conj(c_up) * w / w_size))
    extracted = _echo_fold(site_phase + zeeman_phase, plan.with_echo)

    (final,) = _close(
        [plan],
        np.array([[c_down, c_up]]),
        w,
        w_size,
        zeeman_phase,
        (leak_down + leak_up) / 2.0,
    )
    diagnostics = TdseDiagnostics(
        dt=dt_actual,
        n_steps=n_steps,
        xi=legs.diagnostics[0].xi,
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
