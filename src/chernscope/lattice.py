"""Haldane model on the honeycomb lattice: geometry, Bloch Hamiltonian, bands.

The Bloch Hamiltonian is written in the nearest-neighbor-vector convention,

    H(k) = h0(k) I + hx(k) sigma_x + hy(k) sigma_y + hz(k) sigma_z,

    h0 = -2 t' cos(phi) sum_i cos(k . v_i)
    hx = -t sum_i cos(k . e_i)
    hy = -t sum_i sin(k . e_i)
    hz = -2 t' sin(phi) sum_i sin(k . v_i)

with e_i the three nearest-neighbor displacement vectors (A to B sublattice),
the rows of ``NN_VECTORS``, and v_i the next-nearest-neighbor lattice
vectors.  The NNN vectors are differences of the NN ones,

    v1 = e3 - e2,   v2 = e1 - e3,   v3 = e2 - e1,

so they need no constant of their own.  Only two phases are independent:
with X = k . (e3 - e2) / 2 = (sqrt 3 / 2) kx and Y = k . e1 / 2 = ky / 2,
and w = exp(i X), u = exp(i Y), the NN exponentials z_i = exp(i k . e_i)
are exactly

    z1 = u^2,    z2 = conj(u w),    z3 = w conj(u),

and the NNN ones, exp(i k . v_i), are w^2, conj(w) u^3 and conj(w u^3).
The fields therefore take the two-exponential form

    hx + i hy = -t (u^2 + 2 cos X conj(u))
    h0 = -2 t' cos(phi) Re S,    hz = -2 t' sin(phi) Im S,
    S  = w^2 + 2 cos 3Y conj(w),    cos 3Y = Re u^3,

two complex exponentials per momentum, four real cosines and sines, where
the three NN exponentials take six and the explicit form twelve;
``bloch_fields`` evaluates this form, writing the cosine and sine of X and
Y into the real and imaginary parts of one complex buffer.
Along n evenly spaced momenta k_j = k0 + j step, ``line_fields`` factors
each exponential further: with j = q B + r and B about sqrt(n),

    w(k_j) = w(k0 + q B step) w(r step),   and likewise u(k_j),

a table of about n / B block-start exponentials times a table of B offset
exponentials, each entry computed directly, so the n points cost one
complex product per phase instead of one exponential.  The tables are
component-major, (2, n / B) and (2, B), so the innermost loop of that
product runs over the B offsets and not over the two phases, and w and u
are the two rows of the (2, n) result.  Both routines turn w and u into
fields through one formula and return the five arrays

    (h0, hx, hy, hz, |h|),    |h| = sqrt(hx^2 + hy^2 + hz^2),

the norm being half the gap, so the energies, the eigenvectors, the
transport links and the TDSE steps all read it from the fields instead of
computing it again.  In this convention H is not
literally periodic on the reciprocal lattice; instead

    H(k + G) = V H(k) V*,    V = diag(1, exp(i chi)),   chi = G . e1 (mod 2pi)

for any reciprocal vector G.  The unitary V is the sublattice boundary
matching used everywhere phases are compared across the zone boundary.

The eigenvector gauge is fixed by closed forms.  With n = |h| and the
signs chosen so that the larger-modulus component is real and positive,

    lower band:  (n - hz, -(hx + i hy))      where hz <= 0,
                 (-(hx - i hy), hz + n)      where hz > 0,
    upper band:  (hz + n, hx + i hy)         where hz >= 0,
                 (hx - i hy, n - hz)         where hz < 0,

each normalized.  The real component is at least n, so no form divides by
a small quantity on a gapped set.  Where hz = 0 both components have
modulus n and the tie goes to the first component, which is real and
positive in both bands.

The geometry is one set of read-only module constants: ``NN_VECTORS``, the
reciprocal basis ``B1`` and ``B2`` with the inverse of its matrix,
``INVERSE_RECIPROCAL_BASIS``, and the Dirac points ``K`` and ``KP``.

Units: hbar = 1, lattice scale a = 1, nearest-neighbor hopping t = 1 unless
stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GaplessPoint, NotReciprocal

__all__ = [
    "NN_VECTORS",
    "B1",
    "B2",
    "K",
    "KP",
    "INVERSE_RECIPROCAL_BASIS",
    "ModelParams",
    "RECIPROCAL_TOL",
    "bloch_fields",
    "line_fields",
    "hamiltonian",
    "band_states",
    "band_energies",
    "states_from_fields",
    "lower_band_parts",
    "energies_from_fields",
    "require_gap",
    "is_reciprocal",
    "boundary_phase",
    "boundary_matrix",
    "sublattice_matching",
    "band_gap_min",
    "high_symmetry_path",
    "MAX_PATH_POINTS_PER_SEGMENT",
]

GaugeFn = Optional[Callable[[np.ndarray], np.ndarray]]

RECIPROCAL_TOL = 1e-9  # largest non-integer part of (m, n) still on the lattice

# Largest segment sampling of a high-symmetry path; see high_symmetry_path
# for the memory it implies.
MAX_PATH_POINTS_PER_SEGMENT = 100_000

# Refinement rounds of band_gap_min's search; see there for why 20.
_GAP_ROUNDS = 20


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_S3 = np.sqrt(3.0)

# Rows e1, e2, e3: the nearest-neighbor vectors, A to B sublattice.
NN_VECTORS = _read_only(np.array([[0.0, 1.0], [-_S3 / 2, -1 / 2], [_S3 / 2, -1 / 2]]))
B1 = _read_only(np.array([0.0, 4 * np.pi / 3]))
B2 = _read_only(np.array([2 * np.pi / _S3, -2 * np.pi / 3]))
# The two inequivalent Dirac points.
K = _read_only(np.array([4 * np.pi / (3 * _S3), 0.0]))
KP = _read_only(np.array([-4 * np.pi / (3 * _S3), 0.0]))
# Inverse of the matrix whose columns are B1 and B2.
INVERSE_RECIPROCAL_BASIS = _read_only(np.linalg.inv(np.stack([B1, B2], axis=1)))
# (X, Y) = (kx, ky) * _XY_SCALE, X = k . (e3 - e2) / 2 and Y = k . e1 / 2: the
# other component of e3 - e2 and of e1 is zero, so each phase is one product.
_XY_SCALE = _read_only(
    0.5 * np.array([NN_VECTORS[2, 0] - NN_VECTORS[1, 0], NN_VECTORS[0, 1]])
)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Couplings of the model: NN hopping t, NNN hopping tp, flux phase phi."""

    t: float = 1.0
    tp: float = 0.1
    phi: float = np.pi / 2

    def __post_init__(self) -> None:
        if not np.all(np.isfinite([self.t, self.tp, self.phi])):
            raise ValueError(
                f"t, tp and phi must be finite, got {self.t}, {self.tp}, {self.phi}"
            )
        if not self.t > 0:
            raise ValueError(f"t must be positive, got {self.t}")
        if self.tp < 0:
            raise ValueError(f"tp must be non-negative, got {self.tp}")
        if not (-2 * np.pi < self.phi <= 2 * np.pi):
            raise ValueError(f"phi must lie in (-2pi, 2pi], got {self.phi}")

    @property
    def gap_tol(self) -> float:
        """Below this gap the eigenvector gauge is treated as undefined."""
        return 1e-9 * self.t


def bloch_fields(kpts: np.ndarray, p: ModelParams) -> tuple[np.ndarray, ...]:
    """Vectorized Pauli components and their norm over an (..., 2) array
    of momenta.

    Returns (h0, hx, hy, hz, |h|), each shaped like ``kpts`` without the
    last axis.  Uses the two-exponential form of the module docstring:
    w = exp(i X) and u = exp(i Y) per momentum, the phases scaled from the
    momenta into the real parts of one (m, 2) complex buffer and replaced
    there by their cosines, their sines written into the imaginary parts.
    """
    kpts = np.asarray(kpts, dtype=float)
    flat = kpts.reshape(-1, 2)
    z = np.empty(flat.shape, dtype=complex)
    phases = z.real
    for c in range(2):  # a column at a time, so each loop runs over the momenta
        np.multiply(flat[:, c], _XY_SCALE[c], out=phases[:, c])
    np.sin(phases, out=z.imag)
    np.cos(phases, out=phases)
    fields = _fields_from_z(z[:, 0], z[:, 1], p)
    # A single momentum's fields come out as five numpy scalars.
    return tuple(fields.reshape((5,) + kpts.shape[:-1]))


def line_fields(
    k0: np.ndarray, step: np.ndarray, n: int, p: ModelParams
) -> tuple[np.ndarray, ...]:
    """``bloch_fields`` at the n momenta k0 + j step, j = 0, ..., n - 1.

    Returns (h0, hx, hy, hz, |h|), each of length n.  The exponentials w
    and u come from a block-start table and an offset table of about
    sqrt(n) entries per phase, both component-major (module docstring);
    every table entry is its own ``np.exp``, so the error does not grow
    along the line as a running product's would.
    """
    k0 = np.asarray(k0, dtype=float)
    step = np.asarray(step, dtype=float)
    block = math.isqrt(max(n - 1, 0)) + 1  # ceil(sqrt(n))
    starts = np.arange(0, n, block)
    outer, inner = (
        np.exp(1j * np.ascontiguousarray((k * _XY_SCALE).T))
        for k in (k0 + starts[:, None] * step, np.arange(block)[:, None] * step)
    )
    w, u = (outer[:, :, None] * inner[:, None, :]).reshape(2, -1)[:, :n]
    return tuple(_fields_from_z(w, u, p))


def _fields_from_z(w: np.ndarray, u: np.ndarray, p: ModelParams) -> np.ndarray:
    """The fields h0, hx, hy, hz and |h| as the rows of one (5, m) array,
    from the exponentials w = exp(i X) and u = exp(i Y) of the module
    docstring, two arrays of length m.

    The two-exponential form, written in real parts:

        hx = -t (Re u^2 + 2 cos X cos Y),    hy = t (2 cos X sin Y - Im u^2),
        h0 = -2 t' cos(phi) (Re w^2 + 2 cos 3Y cos X),
        hz = 2 t' sin(phi) (2 cos 3Y sin X - Im w^2),

    with 2 cos 3Y = 2 Re(u^2 u).  Each field is built in place in its row,
    and each temporary is released once read, so no peak rises above the
    result, the two squares and a row.  Only the two squares are complex
    products, so a momentum's bits do not depend on the array or the
    layout it sits in.
    """
    fields = np.empty((5, len(w)))
    h0, hx, hy, hz, hmag = fields
    two_cos_x = 2 * w.real
    u2 = np.multiply(u, u)
    np.multiply(two_cos_x, u.real, out=hx)
    hx += u2.real
    hx *= -p.t
    np.multiply(two_cos_x, u.imag, out=hy)
    hy -= u2.imag
    hy *= p.t
    del two_cos_x
    two_cos_3y = u2.real * u.real
    two_cos_3y -= u2.imag * u.imag
    two_cos_3y *= 2
    del u2
    w2 = np.multiply(w, w)
    np.multiply(two_cos_3y, w.real, out=h0)
    h0 += w2.real
    h0 *= -2 * p.tp * np.cos(p.phi)
    np.multiply(two_cos_3y, w.imag, out=hz)
    hz -= w2.imag
    hz *= 2 * p.tp * np.sin(p.phi)
    del two_cos_3y, w2  # released before the norm's temporaries are made
    # |h| = sqrt(hx * hx + hy * hy + hz * hz), in that order.
    np.multiply(hx, hx, out=hmag)
    hmag += hy * hy
    hmag += hz * hz
    np.sqrt(hmag, out=hmag)
    return fields


def hamiltonian(kpts: np.ndarray, p: ModelParams) -> np.ndarray:
    """Bloch Hamiltonians as a (..., 2, 2) array over (..., 2) momenta.

    A single momentum gives one 2x2 matrix.
    """
    h0, hx, hy, hz, _ = bloch_fields(kpts, p)
    return np.stack(
        [
            np.stack([h0 + hz, hx - 1j * hy], axis=-1),
            np.stack([hx + 1j * hy, h0 - hz], axis=-1),
        ],
        axis=-2,
    )


def band_states(
    kpts: np.ndarray,
    p: ModelParams,
    band: str = "lower",
    gauge_fn: GaugeFn = None,
) -> np.ndarray:
    """Gauge-fixed Bloch eigenvectors for one band, vectorized over momenta.

    Each state is one of the closed forms of the module docstring,
    normalized: the lower band is

        (|h| - hz, -(hx + i hy))     where hz <= 0,
        (-(hx - i hy), hz + |h|)     where hz > 0,

    and the upper band

        (hz + |h|, hx + i hy)        where hz >= 0,
        (hx - i hy, |h| - hz)        where hz < 0.

    The forms are the gauge: the larger-modulus component is real and
    positive, and where hz = 0, when the moduli tie, it is the first.

    Args:
        kpts: (..., 2) momenta.
        p: model couplings.
        band: "lower" or "upper".
        gauge_fn: test instrumentation; maps the momentum array to one phase
            per point and multiplies each state by exp(i theta).  Every
            reported geometric quantity must be unchanged by any choice.

    Raises:
        GaplessPoint: if any requested momentum has gap below ``p.gap_tol``.
    """
    kpts = np.asarray(kpts, dtype=float)
    return states_from_fields(bloch_fields(kpts, p), kpts, p, band, gauge_fn)


def states_from_fields(
    fields: tuple[np.ndarray, ...],
    kpts: np.ndarray,
    p: ModelParams,
    band: str = "lower",
    gauge_fn: GaugeFn = None,
) -> np.ndarray:
    """``band_states`` from fields already evaluated at ``kpts``.

    ``kpts`` only feeds ``gauge_fn`` and the GaplessPoint message.
    """
    if band not in ("lower", "upper"):
        raise ValueError(f"band must be 'lower' or 'upper', got {band!r}")
    hx, hy, hz, n = fields[1:]
    require_gap(n, kpts, p)
    # The closed forms of band_states, written part by part.
    u = np.empty(np.shape(hx) + (2,), dtype=complex)
    re, im = u.real, u.imag
    if band == "lower":
        re[..., 0], im[..., 0], re[..., 1], im[..., 1] = lower_band_parts(
            hx, hy, hz, n
        )
    else:
        first = hz >= 0  # (hz + n, hx + i hy), else (hx - i hy, n - hz)
        re[..., 0] = np.where(first, hz + n, hx)
        im[..., 0] = np.where(first, 0.0, -hy)
        re[..., 1] = np.where(first, hx, n - hz)
        im[..., 1] = np.where(first, hy, 0.0)
    # np.linalg.norm's own expression, sqrt of the summed (conj(u) u).real,
    # with the two-term sum written out: bit for bit its value, without the
    # cost of a length-2 reduction.
    s = (u.conj() * u).real
    u /= np.sqrt(s[..., 0] + s[..., 1])[..., None]
    if gauge_fn is not None:
        u = u * np.exp(1j * np.asarray(gauge_fn(kpts)))[..., None]
    return u


def lower_band_parts(
    hx: np.ndarray, hy: np.ndarray, hz: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Real parts (a, b, c, d) of the unnormalized lower-band closed form
    (a + ib, c + id) at fields hx, hy, hz with norm n = |h|:
    (n - hz, -(hx + i hy)) where hz <= 0, (-(hx - i hy), hz + n) where
    hz > 0."""
    first = hz <= 0
    return (
        np.where(first, n - hz, -hx),
        np.where(first, 0.0, hy),
        np.where(first, -hx, hz + n),
        np.where(first, -hy, 0.0),
    )


def require_gap(n: np.ndarray, kpts: np.ndarray, p: ModelParams) -> None:
    """Raise GaplessPoint, naming the first such momentum, where the gap
    2 |h| of the field norms ``n`` at ``kpts`` is below ``p.gap_tol``."""
    if np.any(2 * n < p.gap_tol):
        bad = np.asarray(kpts)[2 * n < p.gap_tol]
        raise GaplessPoint(f"gap below {p.gap_tol:g} at k={bad[0]}")


def band_energies(kpts: np.ndarray, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(e_lower, e_upper) arrays over an (..., 2) momentum array."""
    return energies_from_fields(bloch_fields(kpts, p))


def energies_from_fields(
    fields: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """``band_energies`` from fields already evaluated."""
    return fields[0] - fields[4], fields[0] + fields[4]


def reciprocal_coefficients(G: np.ndarray) -> np.ndarray:
    """Coefficients (m, n) with G = m b1 + n b2, not necessarily integer, of
    one vector or of each of a (..., 2) stack."""
    G = np.asarray(G, dtype=float)
    return np.matmul(INVERSE_RECIPROCAL_BASIS, G[..., None])[..., 0]


def is_reciprocal(G: np.ndarray) -> bool | np.ndarray:
    """Whether G is an integer combination of b1, b2 within RECIPROCAL_TOL;
    for a (..., 2) stack, a boolean array of the answer for each vector."""
    coeff = reciprocal_coefficients(G)
    on_lattice = np.max(np.abs(coeff - np.round(coeff)), axis=-1) <= RECIPROCAL_TOL
    return bool(on_lattice) if on_lattice.ndim == 0 else on_lattice


def boundary_phase(G: np.ndarray) -> float:
    """Sublattice matching phase chi(G) = G . e1 mod 2pi.

    Eigenvectors at reciprocal-equivalent momenta satisfy
    u(k + G) = exp(i alpha) V u(k) with V = diag(1, exp(i chi)); this is the
    phase every cross-boundary overlap must be corrected by.

    Raises:
        NotReciprocal: if G is not an integer combination of b1, b2
            within RECIPROCAL_TOL.
    """
    if not is_reciprocal(G):
        raise NotReciprocal(f"{np.asarray(G)} is not on the reciprocal lattice")
    return float(np.mod(np.dot(np.asarray(G, dtype=float), NN_VECTORS[0]), 2 * np.pi))


def boundary_matrix(G: np.ndarray) -> np.ndarray:
    """The boundary unitary V(G) = diag(1, exp(i chi(G)))."""
    chi = boundary_phase(G)
    return np.diag([1.0, np.exp(1j * chi)]).astype(complex)


def sublattice_matching(dk: np.ndarray) -> np.ndarray:
    """Diagonal of the continuous matching unitary W(dk) = diag(1, e^{i dk.e1}),
    of one momentum difference or of each of a (..., 2) stack.

    W agrees with the boundary unitary V on reciprocal vectors and extends it
    continuously to arbitrary momentum differences; it is what the physical
    recombination overlap of two Bloch states at momenta k and k + dk picks
    up from the sublattice offsets.  Each dk.e1 is one ``np.vecdot`` row,
    equal to ``np.dot`` of that difference.
    """
    dk = np.asarray(dk, dtype=float)
    w = np.ones(dk.shape, dtype=complex)
    w[..., 1] = np.exp(1j * np.vecdot(dk, NN_VECTORS[0]))
    return w


def band_gap_min(p: ModelParams, n: int = 64) -> float:
    """Minimum direct band gap over the BZ.

    Scans an n x n grid in fractional reciprocal coordinates, then refines
    around the best point for ``_GAP_ROUNDS`` = 20 rounds: each round
    rescans a 7 x 7 grid spanning one window on either side of the centre,
    moves the centre to the grid's best point if its gap is strictly below
    the best so far, and shrinks the window by 0.35, starting from one grid
    step.

    The rounds are evaluated in batches, not one ``band_energies`` call
    each.  Round 1 runs alone, then every remaining round is evaluated
    around the current centre in one call, and the rounds of the batch are
    replayed in order with the same argmin and strict comparison; on the
    first round that moves the centre, the rest of the batch is dropped
    and the rounds after it are batched again around the new centre.  A
    momentum's fields do not depend on the array it sits in
    (``_fields_from_z``), and the windows are the same running product, so
    the result is bit for bit that of the rounds taken one at a time.  A
    search makes 2 + k ``bloch_fields`` calls when the centre moves k times
    in rounds 2 to 19, and evaluates n * n + 49 * (1 + 19 + the rounds
    after each such move) momenta: at the default couplings and n = 32
    the centre moves at rounds 1 and 17, so 4 calls and 32 * 32 + 23 * 49
    = 2,151 momenta, against 21 calls and 2,004 momenta one round at a
    time.  In the worst case, a move in every round, it makes 21 calls and
    evaluates 191 rounds' grids.

    The search stops at 20 rounds because its result has stopped moving:
    the last window is 0.35**20 / n, about 2.4e-11 of the zone at n = 32,
    and further rounds only shuffle rounding noise.  Over 3,000 seeded
    draws (tp in [0, 0.5], n in {32, 64}, a third of them near-gapless with
    |phi| from 1e-12 to 1e-3) every result after 18 to 26 rounds lies within
    4.5e-16 of the 40-round result, and at phi = 0 both stay below 3e-15.
    In every draw the minimum sits at K, K' or M, which the scan or the
    first round samples exactly; the later rounds serve a minimum elsewhere.
    A call takes about 0.43 ms at n = 32 and 1.0 ms at n = 64, against 1.1
    and 1.4 ms with one ``band_energies`` call per round (the best of
    7 x 200 calls over five alternated runs, 2-core Intel Xeon, Python
    3.11, numpy 2.4).

    The gap at K and K' is 2 * 3*sqrt(3) * tp * |sin phi|.  It is the
    minimum only while it stays below the gap elsewhere, for example 2t at
    M, where hz vanishes: at tp = 0.2, phi = pi/2 the minimum is 2 at M,
    not 2.078 at K.  The search does not assume where the minimum lies.
    """
    if n < 16:
        raise ValueError(f"grid size must be at least 16, got {n}")

    def gaps(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
        e_lo, e_up = band_energies(f1[..., None] * B1 + f2[..., None] * B2, p)
        return e_up - e_lo

    fracs = np.arange(n) / n
    f1, f2 = np.meshgrid(fracs, fracs, indexing="ij")
    scan = gaps(f1, f2)
    idx = np.argmin(scan)
    best, c1, c2 = float(scan.flat[idx]), f1.flat[idx], f2.flat[idx]
    offsets = np.linspace(-1.0, 1.0, 7)
    o1, o2 = (o.ravel() for o in np.meshgrid(offsets, offsets, indexing="ij"))
    # The window of round r is 0.35**(r - 1) / n, taken as a running product.
    windows = np.multiply.accumulate(
        np.append(1.0 / n, np.full(_GAP_ROUNDS - 1, 0.35))
    )[:, None]
    done = 0
    while done < _GAP_ROUNDS:
        w = windows[done:_GAP_ROUNDS if done else 1]  # round 1 alone
        f1, f2 = c1 + w * o1, c2 + w * o2
        batch = gaps(f1, f2)
        for r, i in enumerate(np.argmin(batch, axis=1)):
            done += 1
            if batch[r, i] < best:
                best, c1, c2 = float(batch[r, i]), f1[r, i], f2[r, i]
                break
    return best


def high_symmetry_path(
    points_per_segment: int = 60
) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """Sampled Gamma-K-M-K'-Gamma path for band-structure output.

    Returns the (N, 2) point array and a list of (index, label) markers.
    M is the zone-edge midpoint b1 / 2.  The ``bands`` command peaks at
    about 320 bytes per path point inline and 215 with ``--format dsv
    --out`` (tracemalloc at 2,000, 8,000 and 80,000 points per segment),
    its table formatting above the 120 of the path and its fields, so the
    budget of ``MAX_PATH_POINTS_PER_SEGMENT`` = 100,000 implies about
    130 MB.

    Raises:
        ValueError: if points_per_segment is negative or over the budget,
            before anything is allocated.
    """
    if not 0 <= points_per_segment <= MAX_PATH_POINTS_PER_SEGMENT:
        raise ValueError(
            f"points per segment must lie between 0 and the budget of "
            f"{MAX_PATH_POINTS_PER_SEGMENT}, got {points_per_segment}"
        )
    gamma = np.zeros(2)
    corners = [gamma, K, B1 / 2, KP, gamma]
    labels = ["Gamma", "K", "M", "Kp", "Gamma"]
    frac = np.linspace(0.0, 1.0, points_per_segment, endpoint=False)[:, None]
    segments = [a + frac * (b - a) for a, b in zip(corners[:-1], corners[1:])]
    markers = [(i * points_per_segment, label) for i, label in enumerate(labels)]
    return np.concatenate(segments + [gamma[None]]), markers
