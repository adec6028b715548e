"""Spin-state bookkeeping and propagation of the interferometer sequence.

The cloud is a spinor wavepacket; each spin slot carries an amplitude only,
and stands for the lower-band state at the momentum of the packet in it.
Microwave pulses act on the amplitudes.  Between pulses each packet follows
its straight momentum leg, and the two evolution routes are

* ``evolve_endpoints``, and ``evolve_adiabatic`` for one plan: exact
  lower-band transport.  Geometric phases are the summed transport-link
  angles along the sampled legs, taken by
  :func:`chernscope.topology.field_link_phases` straight from the Bloch
  fields, dynamical phases from the trapezoid rule on the band energy,
  and the Zeeman term from the plan-level rate times the signed leg time
  (the sign flips with the gradient direction, so a midpoint echo cancels
  it exactly).
* ``evolve_tdse``: exact stepwise integration of the two-level Schrodinger
  equation with the midpoint Hamiltonian exponentiated in closed form per
  step, which resolves nonadiabatic band leakage.

Each route evaluates the Bloch fields of its legs' samples in one pass of
:func:`chernscope.protocol.leg_fields`, over a (plans, 2, n + 1) stack of
legs with one sampling, which derives the fields of an up leg that is the
down leg's mirror under ky -> -ky, as a site plan's up leg is, from the
down leg's instead of evaluating them.  The adiabatic route has one entry,
:func:`evolve_endpoints`, over plans given as arrays, and its math is two
array functions.  :func:`_reduce_legs` runs once per pass of at most
``_ADIABATIC_BATCH`` momenta and reduces the stack to each packet's summed
link angles and dynamical phase and copies of its end sample's fields and
momentum.  :func:`_close_legs` closes the reductions of all the passes at
once: it builds the end states, the matching overlaps and the closed slot
amplitudes, and returns them with each packet's geometric, matching and
dynamical phases.  Each element is rounded as the one-plan scalar
expression rounds it, so a plan's result does not depend on the pass or the
closing it ran in.  :func:`evolve_adiabatic` is the entry's one-plan view:
row 0 of one plan's arrays, wrapped in a state and a phase ledger.  The
stepwise route passes its one plan through
:func:`chernscope.protocol.leg_pass`, derives the step-size bandwidth and
its start and end states from it, and propagates both legs in one loop
over fixed-size blocks of midpoints, whose fields come from
:func:`chernscope.lattice.line_fields`; by the same mirror test,
:func:`chernscope.protocol.ky_mirrored`, the mirrored leg takes the other's
step factors instead.

Both routes end with the two packets at momenta one reciprocal vector apart
(up to planned endpoint error), and close the same way, in :func:`_close`:
the split state of :func:`apply_pi2`, each slot times its packet's
amplitude, and the echo's exchange of the two slots.  Before the final
readout pulse the slot amplitudes are referred to a common orbital: the
end state of the packet that started spin-down, with the other slot
rotated by the conjugated sublattice-matching overlap phase.  With that
convention the adiabatic fringe obeys

    N_up(phi_mw) = (1 - contrast * cos(phi_total - phi_mw)) / 2

pointwise, where phi_total is the ledger total.  The readout itself never
uses that law: :func:`_stacked_readout` applies the pi/2 pulse matrix of
:func:`apply_pi2` to a stack of closed slot amplitudes, trials by plans,
each plan at its own row of pulse phases, in one pass.  :func:`run_fringe`
reads its one state through it, and so do the two-site readout's detect
and sweep in :mod:`chernscope.analysis`.  The pre-positioning transport
step is common to both packets and contributes no differential phase, so
it only moves the momenta.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import StepTooLarge
from .lattice import (
    ModelParams,
    band_gap_min,
    line_fields,
    states_from_fields,
    sublattice_matching,
)
from .protocol import (
    ProtocolPlan,
    ky_mirrored,
    leg_fields,
    leg_pass,
    plan_arrays,
    plan_diagnostics,
    up_legs_mirrored,
)
from .topology import field_link_phases

__all__ = [
    "SpinorState",
    "PhaseLedger",
    "TdseDiagnostics",
    "FringeScan",
    "initial_state",
    "apply_pi2",
    "readout",
    "evolve_adiabatic",
    "evolve_endpoints",
    "evolve_tdse",
    "run_fringe",
    "landau_zener_estimate",
    "wrap_angle",
]

# Step budget of one TDSE leg; see evolve_tdse for the time it implies.
MAX_TDSE_STEPS = 2**22

# Midpoints per block of a TDSE leg.  A block's fields and step factors
# (about 1 MB) stay in cache and their memory is reused by the other
# leg's block or the next block: one leg's step factors are released
# before the other leg's fields are made, or turned in place into the
# other's when it is their mirror (see _line_propagator).  What a block
# leaves behind is its phase and, for each leg, its _SU2_SHORT reduced
# (a, b) pairs, 32 bytes per pair, so about 2 KB per full block and leg:
# 64 KB a leg at 2**18 steps, 1 MB at the budget of MAX_TDSE_STEPS.
_TDSE_BLOCK = 8192

# Pairs a full TDSE block is reduced to before the full blocks' trees are
# finished together as one (lines, blocks, pairs) stack.  Below about this
# length a tree level costs its numpy call overhead (about 10 us) whatever
# its size, so the stack pays the short levels once per call, not per
# block.
_SU2_SHORT = 64

# Momenta per pass of evolve_endpoints, the one adiabatic entry: four plans
# at the sweep's default 1,200 samples per leg.  A pass's leg reduction
# peaks at about 1.4 MB (tracemalloc), which stays in a 2 MB per-core L2
# cache, and pays its fixed cost once for the batch; the call then closes
# all its passes at once.  In-process `sweep --trials 25` loops on one
# Intel Xeon vCPU, measured while each pass still closed its own plans: two
# and three plans per pass were 18% and 3% slower, six and eight 29% and
# 44% slower, as a larger pass's freed memory is handed back to the system
# and faulted in again on every pass.
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
        _require_unit_norm(self.amp_down, self.amp_up, self.upper_band_population)

    @property
    def norm(self) -> float:
        return float(_norm(self.amp_down, self.amp_up, self.upper_band_population))


def _norm(amp_down, amp_up, upper_band_population):
    """sqrt(|amp_down|^2 + |amp_up|^2 + upper_band_population), of scalars
    or elementwise over arrays."""
    return np.sqrt(abs(amp_down) ** 2 + abs(amp_up) ** 2 + upper_band_population)


def _require_unit_norm(amp_down, amp_up, upper_band_population) -> None:
    """Refuse slot amplitudes, scalars or arrays, whose state norm deviates
    from 1 by more than 1e-12, naming the largest deviation."""
    deviation = _norm(amp_down, amp_up, upper_band_population) ** 2 - 1.0
    if (abs(deviation) > 1e-12).any():
        deviation = np.ravel(deviation)
        worst = deviation[np.argmax(abs(deviation))]
        raise ValueError(f"state norm deviates from 1 by {worst:.3e}")


def _echo_fold(site_phase: float, with_echo: bool) -> float:
    """Fringe phase of a site phase in (-pi, pi]: the phase itself with the
    echo, pi minus it without, since the echo exchanges the slots."""
    return site_phase if with_echo else wrap_angle(np.pi - site_phase)


class PhaseLedger(NamedTuple):
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


class TdseDiagnostics(NamedTuple):
    dt: float
    n_steps: int
    xi: float
    norm_drift: float
    leakage_down: float
    leakage_up: float
    extracted_phase: float


class FringeScan(NamedTuple):
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


# The slot amplitudes of the split state: apply_pi2 on the spin-down state.
_SPLIT = np.array(_pi2_amplitudes(1.0 + 0.0j, 0.0j, 0.0))
_SPLIT.flags.writeable = False


def apply_pi2(state: SpinorState, phi_mw: float) -> SpinorState:
    """Microwave pi/2 pulse on the spin amplitudes.

    The matrix is [[1, i e^{-i phi}], [i e^{i phi}, 1]] / sqrt(2) acting on
    (amp_down, amp_up).  Two pulses at the same phase compose to i sigma_x
    times a phase.
    """
    down, up = _pi2_amplitudes(state.amp_down, state.amp_up, phi_mw)
    return dataclasses.replace(state, amp_down=down, amp_up=up)


def readout(state: SpinorState) -> tuple[float, float]:
    """Populations (N_down, N_up) of the tracked lower-band amplitudes."""
    return abs(state.amp_down) ** 2, abs(state.amp_up) ** 2


def _stacked_readout(amps, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Populations (N_down, N_up) of a stack of closed slot amplitudes after
    the readout pi/2 pulse, each a (trials, plans, phases) array.

    ``amps`` holds the (amp_down, amp_up) pairs, (trials * plans, 2), over
    trials and, within a trial, over the plans; row s of ``phases`` holds
    plan s's pulse phases.  One pulse over the whole stack, pointwise equal
    to ``readout(apply_pi2(state, phi))``.
    """
    amps = np.reshape(amps, (-1, len(phases), 2, 1))
    down, up = _pi2_amplitudes(amps[..., 0, :], amps[..., 1, :], phases)
    return np.abs(down) ** 2, np.abs(up) ** 2


def _require_pure_down(state: SpinorState) -> None:
    if abs(state.amp_up) > 1e-12 or abs(abs(state.amp_down) - 1.0) > 1e-12:
        raise ValueError("evolution starts from a pure spin-down state")


def _zeeman_phases(zeeman_rate: float, leg_time, with_echo) -> np.ndarray:
    """Zeeman phase of the packet that started spin-down, per plan: the rate
    times the leg time weighted by the gradient direction, whose flipped
    echo half cancels the first half.  ``leg_time`` and ``with_echo`` are
    arrays over the plans or scalars.  A NaN or infinite rate raises
    ValueError."""
    if not np.isfinite(zeeman_rate):
        raise ValueError(f"zeeman_rate must be finite, got {zeeman_rate}")
    return zeeman_rate * np.where(with_echo, 0.0, leg_time)


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
    endpoints: np.ndarray, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Overlap w of each plan's packets' end band states, with the
    sublattice matching of their momentum difference, and |w|.

    ``endpoints`` holds the (plans, 2, 2) end momenta and ``states`` the
    (plans, 2, 2) end states, each plan's down packet first.  Each overlap
    is one ``np.vecdot`` row, equal to ``np.vdot`` of that plan's two
    states.
    """
    matching = sublattice_matching(endpoints[:, 0] - endpoints[:, 1])
    w = np.vecdot(matching * states[:, 1], states[:, 0])
    size = np.hypot(w.real, w.imag)
    if np.any(size < 1e-6):
        raise ValueError("endpoint band states are nearly orthogonal")
    return w, size


def _close(
    amplitudes: np.ndarray,
    w: np.ndarray,
    w_size: np.ndarray,
    zeeman_phase,
    with_echo,
    upper_band_population: float = 0.0,
) -> np.ndarray:
    """The slot amplitudes before the readout pulse of each plan of a
    batch, a (plans, 2) array, from the packets' evolved amplitudes.

    ``amplitudes`` holds, per plan, the complex amplitude each packet kept
    through its leg relative to the gauge-fixed end states, the down
    packet's first; w, its size |w|, the Zeeman phase and the echo flag are
    arrays over the batch, or scalars.  Each slot of the split state of
    :func:`apply_pi2` is multiplied by its packet's amplitude; the packet
    that started spin-up is rotated by conj(w)/|w| onto the common orbital,
    and the packet that started spin-down carries the Zeeman phase.  The
    echo pulse then exchanges the slots wholesale.  Each product is rounded
    as on scalars, in the order written here.  The closed amplitudes, with
    ``upper_band_population``, must keep the state's unit norm.
    """
    factors = np.empty_like(amplitudes)
    factors[:, 0] = np.exp(1j * zeeman_phase)
    factors[:, 1] = np.conj(w)
    closed = _scalar_product(_scalar_product(_SPLIT, amplitudes), factors)
    closed[:, 1] /= w_size
    closed = np.where(np.reshape(with_echo, (-1, 1)), closed[:, ::-1], closed)
    _require_unit_norm(closed[:, 0], closed[:, 1], upper_band_population)
    return closed


def evolve_adiabatic(
    state: SpinorState,
    plan: ProtocolPlan,
    p: ModelParams,
    zeeman_rate: float = 0.0,
    gauge_fn=None,
) -> tuple[SpinorState, PhaseLedger]:
    """Lower-band transport through the plan, stopping before the readout pulse.

    Returns the end state and the phase ledger, both from row 0 of
    :func:`evolve_endpoints` on the plan's arrays.  The discrete geometric
    phases converge as the leg sampling grows; the plan default keeps them
    well below 1e-8 of the continuum values.  A NaN or infinite
    ``zeeman_rate`` raises ValueError.
    """
    _require_pure_down(state)
    starts, endpoints, n = plan_arrays([plan])
    (closed,), (geometric,), (matching,), (dynamic,) = (
        rows.tolist()
        for rows in evolve_endpoints(
            starts, endpoints, n, plan.leg_time, plan.with_echo, p,
            zeeman_rate, gauge_fn,
        )
    )
    zeeman = _zeeman_phases(zeeman_rate, plan.leg_time, plan.with_echo)
    return SpinorState(*closed), PhaseLedger(
        *geometric, matching, *dynamic, zeeman=-float(zeeman),
        with_echo=plan.with_echo,
    )


def _pass_plans(n: int) -> int:
    """Plans per pass at n sample intervals per leg: as many as fit in
    ``_ADIABATIC_BATCH`` momenta, and at least one."""
    return max(1, _ADIABATIC_BATCH // (2 * (n + 1)))


def evolve_endpoints(
    starts: np.ndarray,
    endpoints: np.ndarray,
    samples_per_leg: int,
    leg_time: float,
    with_echo: bool,
    p: ModelParams,
    zeeman_rate: float = 0.0,
    gauge_fn=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The adiabatic pass of plans given as arrays, the one adiabatic entry.

    Plan j runs from ``starts[j]`` to ``endpoints[j]`` (down endpoint
    first) in ``samples_per_leg`` intervals per leg; all share the leg time
    and the echo.  The sampling and the leg time are not checked here:
    they are to be those of a :class:`ProtocolPlan`, which checks them
    where it is made.  The plans' legs are reduced in order by
    :func:`_reduce_legs`, in passes of at most ``_ADIABATIC_BATCH`` momenta
    and at least one plan (four plans at 1,200 samples per leg), each
    pass's sums and end samples copied into arrays over all the plans, and
    its mirror rows sliced from one
    :func:`chernscope.protocol.up_legs_mirrored` call over all of them; one
    :func:`_close_legs` call then closes them all and its result is
    returned: the closed slot amplitudes, (plans, 2), each packet's
    geometric phase, (plans, 2), the matching overlap angle, (plans,), and
    each packet's dynamical phase, (plans, 2).  Each element is rounded as
    the one-plan scalar expression rounds it, so row j does not depend on
    the passes or the plans it ran with; :func:`evolve_adiabatic` is row 0
    of one plan.  ``gauge_fn`` rotates every sample's state.  At the
    sweep's 1,200 samples per leg a call peaks at about 1.4 MB for one
    pass's reduction (tracemalloc: 1.39 MB for four perturbed plans, 1.42
    MB for the sweep's first pass, which also gathers its two nominal
    plans' down legs for the field call) plus about 0.18 kB per plan for
    the closing (1.48 MB at 512 perturbed plans, 1.76 MB at 2,048), so a
    caller with many plans passes them in chunks.  A NaN or infinite
    ``zeeman_rate`` raises ValueError before any pass.
    """
    zeeman_phase = _zeeman_phases(zeeman_rate, leg_time, with_echo)
    count = len(endpoints)
    phases = np.empty((count, 2))
    dynamics = np.empty((count, 2))
    end_fields = np.empty((5, count, 2))
    end_points = np.empty((count, 2, 2))
    mirror = up_legs_mirrored(starts, endpoints)
    step = _pass_plans(samples_per_leg)
    for first in range(0, count, step):
        part = slice(first, first + step)
        (
            phases[part], dynamics[part], end_fields[:, part], end_points[part]
        ) = _reduce_legs(
            starts[part], endpoints[part], mirror[part], samples_per_leg,
            leg_time, p, gauge_fn,
        )
    return _close_legs(
        endpoints, phases, dynamics, end_fields, end_points, with_echo,
        zeeman_phase, p, gauge_fn,
    )


def _reduce_legs(
    starts: np.ndarray,
    endpoints: np.ndarray,
    mirror: np.ndarray,
    n: int,
    leg_time,
    p: ModelParams,
    gauge_fn=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One adiabatic pass over a batch of plans given as arrays, reduced to
    what the closing needs.

    Plan j runs from ``starts[j]`` to the endpoints ``endpoints[j]``, down
    packet first, in n intervals per leg; ``mirror`` is the plans'
    :func:`chernscope.protocol.up_legs_mirrored`, and the leg time is an
    array over the plans or a scalar.  Returns each packet's summed link
    angles and its dynamical phase, (plans, 2) each, and copies of the
    fields (h0, hx, hy, hz, |h|) of the legs' end samples, (5, plans, 2),
    and of their momenta, (plans, 2, 2), so that nothing of the pass's
    field stack outlives it.

    The legs' fields come from one :func:`chernscope.protocol.leg_fields`
    call.  The transport links and the trapezoid rule on the lower band
    energy run over the whole (plans, 2, n + 1) stack, and each leg's sum
    and trapezoid are taken over its own sample axis.  The links come from
    one :func:`chernscope.topology.field_link_phases` call on the stack's
    real fields, with the gap check before any link; no normalized state
    is built along the legs.  ``gauge_fn`` rotates every sample's state.
    Each element is reduced along its own leg, so a plan's rows do not
    depend on the batch it ran in.
    """
    legs = leg_fields(starts, endpoints, n, p, mirror)
    phases = field_link_phases(legs.fields, legs.points, p, gauge_fn)
    dx = np.reshape(leg_time, (-1, 1, 1)) / n
    dynamics = np.trapezoid(legs.energies[0], dx=dx, axis=-1)
    end_fields = np.array([f[..., -1] for f in legs.fields])
    return phases, dynamics, end_fields, legs.points[..., -1, :].copy()


def _close_legs(
    endpoints: np.ndarray,
    phases: np.ndarray,
    dynamics: np.ndarray,
    end_fields: np.ndarray,
    end_points: np.ndarray,
    with_echo,
    zeeman_phase,
    p: ModelParams,
    gauge_fn=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Close the reduced legs of :func:`_reduce_legs`, of all the passes of
    one :func:`evolve_endpoints` call written into arrays over its plans.

    The echo flag and the Zeeman phase of :func:`_zeeman_phases` are arrays
    over the plans or scalars.  Returns the closed slot amplitudes of
    :func:`_close`, (plans, 2), each packet's geometric phase, (plans, 2),
    the matching overlap angle, (plans,), and each packet's dynamical
    phase, (plans, 2).

    Only the legs' end samples become normalized states, in one
    :func:`chernscope.lattice.states_from_fields` call, which checks their
    gap once more and applies ``gauge_fn``; they give the matching
    overlaps.  The unit link products, the matching overlaps, the Zeeman
    factors and the closed amplitudes are arrays over the plans, each
    element rounded as the one-plan scalar expression rounds it, so a
    plan's row does not depend on the plans closed with it.
    """
    states = states_from_fields(tuple(end_fields), end_points, p, gauge_fn=gauge_fn)
    units = np.exp(1j * phases)  # each packet's unit link product
    w, w_size = _matching_overlaps(endpoints, states)
    amplitudes = _scalar_product(units, np.exp(-1j * dynamics))
    closed = _close(amplitudes, w, w_size, zeeman_phase, with_echo)
    return closed, np.angle(units), np.angle(w), dynamics


def _step_pairs(fields: tuple, dt: float) -> tuple[complex, np.ndarray, np.ndarray]:
    """The step exponentials exp(-i H dt) of a leg as a phase and (a, b) pairs.

    ``fields`` holds (h0, hx, hy, hz, |h|) at the step midpoints in time
    order, as :func:`chernscope.lattice.line_fields` returns them.
    Each step is a phase times an SU(2) matrix,

        exp(-i H dt) = e^{-i h0 dt} [[a, -conj(b)], [b, conj(a)]],

    with a = cos(|h| dt) - i s hz, b = s (hy - i hx) and s = sin(|h| dt) / |h|
    (s = dt where |h| = 0).  The scalar phases commute with the SU(2) parts
    and are summed once.  Returns the phase exp(-i dt sum(h0)) and the
    steps' a and b arrays.
    """
    h0, hx, hy, hz, hmag = fields
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
) -> list[tuple[complex, complex, complex]]:
    """Time-ordered product of the step exponentials exp(-i H dt) of each
    line's n midpoints k0[l] + j step[l]: the steps of :func:`_step_pairs`,
    their SU(2) parts multiplied by :func:`_su2_product`.

    ``k0`` and ``step`` hold one row per line, and all lines run through
    one loop over blocks of at most ``_TDSE_BLOCK`` midpoints.  A line
    whose (k0, step) is the previous line's mirror under ky -> -ky
    (:func:`chernscope.protocol.ky_mirrored`) has u = exp(iY) conjugated,
    so its fields are the previous line's with hy negated and its step
    pairs (a, -conj(b)) with the same phase, made in place with no
    :func:`chernscope.lattice.line_fields` call.  Any other line's block
    takes its fields from one such call, after the previous line's step
    pairs are released.

    A full block is reduced to at most ``_SU2_SHORT`` (a, b) pairs, and all
    the lines' full blocks are finished as one (lines, blocks, pairs)
    stack; a last, partial block is reduced alone.  Each line's block
    products are then multiplied in time order by :func:`_su2_product` and
    its block phases multiplied together.  Returns one (phase, a, b) per
    line.
    """
    rows = np.stack((k0, step), axis=1)
    # Whether each line mirrors the previous one; no line follows the last.
    mirror = [False, *ky_mirrored(rows[:-1], rows[1:]), False]
    n_full = n // _TDSE_BLOCK
    phases = np.empty((len(k0), -(-n // _TDSE_BLOCK)), dtype=complex)
    full = None  # a and b of each line's full blocks, reduced to pairs
    ends = np.empty((2,) + phases.shape, dtype=complex)
    for i, j in enumerate(range(0, n, _TDSE_BLOCK)):
        m = min(_TDSE_BLOCK, n - j)
        for line in range(len(k0)):
            if mirror[line]:
                np.negative(np.conjugate(b, out=b), out=b)
            else:
                k = k0[line] + j * step[line]
                phase, a, b = _step_pairs(line_fields(k, step[line], m, p), dt)
            phases[line, i] = phase
            if i < n_full:
                a_j, b_j = _su2_product(a, b, _SU2_SHORT)
                if full is None:
                    full = np.empty((2, len(k0), n_full, len(a_j)), dtype=complex)
                full[0, line, i], full[1, line, i] = a_j, b_j
            else:
                a_j, b_j = _su2_product(a, b)
                ends[:, line, i] = a_j[0], b_j[0]
            if not mirror[line + 1]:
                del a, b  # released before the next line's fields are made
    if n_full:
        a, b = _su2_product(full[0], full[1])
        ends[0, :, :n_full], ends[1, :, :n_full] = a[..., 0], b[..., 0]
    a, b = _su2_product(ends[0], ends[1])
    return [
        (complex(np.prod(phase)), complex(a_l[0]), complex(b_l[0]))
        for phase, a_l, b_l in zip(phases, a, b)
    ]


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
    before the midpoints are allocated.  Both legs go through one
    :func:`_line_propagator` call, which takes their midpoints in blocks
    of ``_TDSE_BLOCK``, so peak memory is about 0.96 MB at 2**16 steps per
    leg and grows only by the reduced pairs each full block keeps of both
    legs for the stacked finish, 4 KB: 1.06 MB at 2**18 steps and 1.46 MB
    at 2**20 (tracemalloc), whether the up leg is derived or evaluated.
    The budget of 2**22 steps bounds time instead: on one Intel Xeon vCPU
    a step of both legs took about 0.11 us, or 0.07 us with a derived up
    leg (best of 8 calls at 2**20 steps), so about half a second per plan.

    An up leg whose first midpoint and step are the down leg's with ky
    negated, as every site plan's are, has its propagator derived from
    the down leg's step factors, as the leg pass derives its samples'
    fields; any other has its own evaluated.  Both give the same bits.
    The four band states at the legs' first and last samples come from one
    :func:`chernscope.lattice.states_from_fields` call.  The norm
    drift of the assembled 2x2 total propagator, max |U^dagger U - I|,
    above 1e-8 raises StepTooLarge.  Band leakage is reported per packet,
    and the slot amplitudes keep only the lower band projection, so
    population conservation shows up as |amps|^2 + upper_band_population
    = 1.  The diagnostics carry the plan's adiabaticity figure xi from the
    same leg pass.  The Zeeman phase and its check on ``zeeman_rate`` are
    those of :func:`evolve_adiabatic`.
    """
    _require_pure_down(state)
    zeeman_phase = _zeeman_phases(zeeman_rate, plan.leg_time, plan.with_echo)
    legs = leg_pass([plan], p)
    bw = float(np.max([np.max(np.abs(e)) for e in legs.energies]))
    if not np.isfinite(bw):
        raise ValueError(f"bandwidth along the legs is not finite, got {bw}")
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

    start = plan.start
    endpoints = np.array([plan.endpoint_down, plan.endpoint_up])
    steps = (endpoints - start) / total_time * dt_actual
    propagators = _line_propagator(start + steps / 2, steps, n_steps, p, dt_actual)
    # Each packet's band states at its leg's start and end, (packets, 2, 2).
    states = states_from_fields(
        tuple(f[0][:, [0, -1]] for f in legs.fields),
        np.array([[start, end] for end in endpoints]),
        p,
    )
    drift = 0.0
    amps = []
    for (phase, a, b), (psi0, psi1) in zip(propagators, states):
        u_total = phase * np.array([[a, -b.conjugate()], [b, a.conjugate()]])
        drift = max(
            drift, float(np.max(np.abs(u_total.conj().T @ u_total - np.eye(2))))
        )
        amps.append(complex(np.vdot(psi1, u_total @ psi0)))
    if drift > 1e-8:
        raise StepTooLarge(f"propagator norm drift {drift:.3e} exceeds 1e-8")

    c_down, c_up = amps
    leak_down = max(0.0, 1.0 - abs(c_down) ** 2)
    leak_up = max(0.0, 1.0 - abs(c_up) ** 2)
    (w,), (w_size,) = _matching_overlaps(endpoints[None], states[None, :, 1])

    site_phase = float(np.angle(c_down * np.conj(c_up) * w / w_size))
    extracted = _echo_fold(site_phase + zeeman_phase, plan.with_echo)

    upper_band_population = (leak_down + leak_up) / 2.0
    (closed,) = _close(
        np.array([[c_down, c_up]]),
        w,
        w_size,
        zeeman_phase,
        plan.with_echo,
        upper_band_population,
    ).tolist()
    diagnostics = TdseDiagnostics(
        dt=dt_actual,
        n_steps=n_steps,
        xi=plan_diagnostics([plan], legs)[0].xi,
        norm_drift=drift,
        leakage_down=leak_down,
        leakage_up=leak_up,
        extracted_phase=extracted,
    )
    return SpinorState(*closed, upper_band_population), diagnostics


def landau_zener_estimate(p: ModelParams, plan: ProtocolPlan) -> float:
    """Single-crossing leakage scale exp(-pi gap^2 / (2 F)).

    F is the larger leg force magnitude and the gap is the global band gap;
    the realized leakage of a full leg stays within a small factor of this.
    """
    force = max(
        float(np.linalg.norm(end - plan.start)) / plan.leg_time
        for end in (plan.endpoint_down, plan.endpoint_up)
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
    n_down, n_up = _stacked_readout([(end.amp_down, end.amp_up)], phi[None])
    return FringeScan(
        phi_mw_values=phi,
        n_down=n_down[0, 0],
        n_up=n_up[0, 0],
        mode=mode,
        site=plan.site,
        ledger=ledger,
        diagnostics=diagnostics,
    )
