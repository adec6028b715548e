"""Momentum-space topology oracles: curvature grids, Chern numbers, phases.

Conventions, fixed once and used by every routine here and downstream:

* Transport link: the discrete link from point k_j to k_{j+1} is
  ``<u(k_{j+1}) | u(k_j)>`` normalized to unit modulus.  It is computed in
  two places: by :func:`transport_link` from normalized states, for every
  routine here, and by :func:`field_link_phases` straight from the lower
  band's Bloch fields, for the interferometer's adiabatic legs.  Both use
  the closed-form gauge of :mod:`chernscope.lattice`; the second leaves the
  states unnormalized, which a normalized link does not see.  Products of
  transport links around a closed circuit are gauge invariant.
* Cross-boundary matching: whenever a circuit closes through a reciprocal
  vector G, the wrap link is ``transport_link(boundary_matched(u(k_b), G),
  u(k_e))``, i.e. it compares the final state against ``V(G) u(k_b)`` with
  V the sublattice boundary unitary from :mod:`chernscope.lattice`.  The
  plaquette grid, loop, open-path and connection routines all match the
  boundary through :func:`boundary_matched`.
* Grid orientation: curvature grids and plaquette circuits follow the
  reciprocal basis (b1, b2).  With this traversal the lower band of the
  model at phi = pi/2 carries total flux +2pi (Chern number +1), i.e.
  positive enclosed flux yields a positive phase.  All loop and open-path
  phases reported by this module share that orientation.  The (b1, b2)
  orientation is clockwise in Cartesian axes (b1 x b2 < 0), so a
  counterclockwise Cartesian loop such as :meth:`KPath.circle` around
  positive grid flux reports a negative phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import GaplessPoint, NoClosure, NotQuantized, PlaquetteSaturated
from .lattice import (
    B1,
    B2,
    GaugeFn,
    ModelParams,
    band_gap_min,
    band_states,
    boundary_phase,
    is_reciprocal,
    lower_band_parts,
    require_gap,
)

__all__ = [
    "MAX_GRID_N",
    "KPath",
    "BerryField",
    "ChernResult",
    "transport_link",
    "field_link_phases",
    "boundary_matched",
    "berry_curvature_fhs",
    "chern_number",
    "berry_phase_loop",
    "noncyclic_zak",
    "connection_integral",
    "chern_from_zak",
]

# Largest side of a curvature grid; see berry_curvature_fhs for the memory
# it implies.
MAX_GRID_N = 1500

# Grid momenta per row block of berry_curvature_fhs, at least one row.  A
# block's states, links and fluxes (about 0.8 MB, 200 B per momentum) are
# freed and their memory reused by the next block, and the heap keeps it
# between calls: in a loop of n = 200 grids that imports scipy and runs
# the benchmark's calibration timer, blocks of 4,096 momenta take about 2
# minor page faults per call, and blocks of 8,192 take about 470, their
# 2 MB handed back to the system at the end of every call.
_FHS_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class KPath:
    """An ordered, discretized momentum-space trajectory.

    ``closure_G`` marks a path whose endpoints are reciprocal-equivalent:
    k_e - k_b = closure_G.  A path with ``closed=True`` and no closure_G
    must literally return to its first point.
    """

    points: np.ndarray
    closed: bool = False
    closure_G: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("a path needs at least two 2-vector points")
        object.__setattr__(self, "points", pts)
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        degenerate = np.all(steps == 0.0)
        if np.any(steps == 0.0) and not degenerate:
            raise ValueError("consecutive path points must be distinct")
        if self.closure_G is not None:
            g = np.asarray(self.closure_G, dtype=float)
            object.__setattr__(self, "closure_G", g)
            if np.max(np.abs(self.k_e - self.k_b - g)) > 1e-9:
                raise ValueError("closure_G does not connect the endpoints")
        elif self.closed and np.max(np.abs(self.k_e - self.k_b)) > 1e-12:
            raise ValueError("closed path must return to its first point")

    @property
    def k_b(self) -> np.ndarray:
        return self.points[0]

    @property
    def k_e(self) -> np.ndarray:
        return self.points[-1]

    @classmethod
    def line(cls, a: np.ndarray, b: np.ndarray, n: int) -> "KPath":
        """Straight segment from ``a`` to ``b`` sampled at ``n`` points."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        frac = np.linspace(0.0, 1.0, n)
        return cls(points=a + frac[:, None] * (b - a))

    @classmethod
    def circle(cls, center: np.ndarray, radius: float, n: int) -> "KPath":
        """Closed counterclockwise circle sampled at ``n`` points plus the
        repeated start.

        Counterclockwise in Cartesian axes is against the clockwise (b1, b2)
        grid orientation, so the circle's Berry phase around positive grid
        flux is negative.
        """
        theta = np.linspace(0.0, 2 * np.pi, n + 1)
        pts = np.asarray(center, dtype=float) + radius * np.stack(
            [np.cos(theta), np.sin(theta)], axis=1
        )
        pts[-1] = pts[0]
        return cls(points=pts, closed=True)

    @classmethod
    def concatenate(cls, *paths: "KPath", **kwargs) -> "KPath":
        """Join paths whose endpoints coincide, dropping duplicate joints."""
        pts = [paths[0].points]
        for prev, nxt in zip(paths, paths[1:]):
            if np.max(np.abs(prev.k_e - nxt.k_b)) > 1e-9:
                raise ValueError("paths do not join end to start")
            pts.append(nxt.points[1:])
        return cls(points=np.concatenate(pts), **kwargs)


class BerryField(NamedTuple):
    """Plaquette Berry fluxes over the BZ torus spanned by (b1, b2)."""

    n: int
    plaquette_flux: np.ndarray
    total: float
    margin: float  # pi - max |flux|: how far the grid is from saturating

    @property
    def chern_estimate(self) -> float:
        return self.total / (2 * np.pi)


class ChernResult(NamedTuple):
    value: int
    residual: float
    n: int
    margin: float


def transport_link(dest: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Normalized links ``<dest|src> / |<dest|src>|`` over the last axis."""
    ov = np.einsum("...c,...c->...", np.conj(dest), src)
    return ov / np.abs(ov)


def field_link_phases(
    fields: tuple[np.ndarray, ...],
    kpts: np.ndarray,
    p: ModelParams,
    gauge_fn: GaugeFn = None,
) -> np.ndarray:
    """Summed angles of the lower-band transport links along the last axis.

    ``fields`` are (h0, hx, hy, hz, |h|), as
    :func:`chernscope.lattice.bloch_fields` returns them, each shaped
    (..., m) over the (..., m, 2) momenta ``kpts``; the result is shaped
    (...).  It is the
    unwrapped sum of the m - 1 angles arg <u(k_{j+1}) | u(k_j)>, so
    exp(i result) is the unit product of the :func:`transport_link` links
    of the :func:`chernscope.lattice.band_states` lower-band states.

    The states are left unnormalized, since a normalized link does not
    depend on their scale: each is the closed form (a + ib, c + id) of
    :func:`chernscope.lattice.lower_band_parts`, and the link from ends 0
    to 1 is

        re = a1 a0 + b1 b0 + c1 c0 + d1 d0
        im = a1 b0 - b1 a0 + c1 d0 - d1 c0.

    ``gauge_fn`` is the instrumentation of ``band_states``: it rotates the
    components of every sample by its exp(i theta) before the links.

    Raises:
        GaplessPoint: before any link, as ``band_states`` raises it, if any
            momentum has gap below ``p.gap_tol``.
    """
    shape = np.shape(fields[1])
    require_gap(fields[4], kpts, p)
    a, b, c, d = lower_band_parts(*(np.reshape(f, -1) for f in fields[1:]))
    if gauge_fn is not None:
        theta = np.broadcast_to(np.asarray(gauge_fn(kpts)), shape).reshape(-1)
        cos, sin = np.cos(theta), np.sin(theta)
        a, b = a * cos - b * sin, a * sin + b * cos
        c, d = c * cos - d * sin, c * sin + d * cos
    # The links between neighbours of the flattened stack, so each product
    # runs over one contiguous array; the link from the last sample of a
    # row to the first of the next is computed but left out of the sums.
    a1, a0, b1, b0 = a[1:], a[:-1], b[1:], b[:-1]
    c1, c0, d1, d0 = c[1:], c[:-1], d[1:], d[:-1]
    angles = np.empty(len(a))
    np.arctan2(
        a1 * b0 - b1 * a0 + c1 * d0 - d1 * c0,
        a1 * a0 + b1 * b0 + c1 * c0 + d1 * d0,
        out=angles[:-1],
    )
    return np.sum(angles.reshape(shape)[..., :-1], axis=-1)


def boundary_matched(u: np.ndarray, G: np.ndarray) -> np.ndarray:
    """States ``V(G) u``: the B component of each (..., 2) state times
    exp(i chi(G)).

    Raises:
        NotReciprocal: if G is not on the reciprocal lattice.
    """
    return u * np.array([1.0, np.exp(1j * boundary_phase(G))])


def _matched_phase(u: np.ndarray, G: Optional[np.ndarray]) -> float:
    """Argument of the transport product along ``u``, times the wrap link
    through G when G is given."""
    prod = np.prod(transport_link(u[1:], u[:-1]))
    if G is not None:
        prod *= transport_link(boundary_matched(u[0], G), u[-1])
    return float(np.angle(prod))


def _require_gapped(p: ModelParams) -> None:
    """Raise GaplessPoint if the gap search finds a gap below ``p.gap_tol``,
    and ValueError if its gap is NaN (energies out of float range), which
    no comparison with the tolerance catches."""
    gap = band_gap_min(p, n=32)
    if math.isnan(gap):
        raise ValueError(
            f"band gap is NaN for tp={p.tp}, phi={p.phi}; topology undefined"
        )
    if gap < p.gap_tol:
        raise GaplessPoint(
            f"band gap closes for tp={p.tp}, phi={p.phi}; topology undefined"
        )


def berry_curvature_fhs(
    p: ModelParams, n: int, band: str = "lower", gauge_fn: GaugeFn = None
) -> BerryField:
    """Lattice field strength on an n x n grid (Fukui-Hatsugai-Suzuki).

    Each plaquette flux is the argument of the product of its four transport
    links taken in the (+b1, +b2, -b1, -b2) order, with boundary-matched
    states beyond the zone edge.  The result is gauge invariant plaquette by
    plaquette, and the total is 2 pi times an integer for any gapped model.

    The grid is evaluated in blocks of whole rows, about ``_FHS_BLOCK``
    momenta each, and each momentum once: a block's fluxes go into the
    (n, n) result, and its last row is carried to the next block, whose
    first plaquette row it closes.  The last block closes the grid with the
    first row matched through b1.  The saturation check takes each block's
    peak |flux| as the block is written, so only the flux grid and one
    block are alive at once: the kernel peaks at about 14 bytes per grid
    point at n = 400 and 10 at n = 800 (tracemalloc), so n =
    ``MAX_GRID_N`` = 1500 implies about 20 MB, extrapolated, not run.  The
    ``curvature`` command also holds its formatted table: it peaks at
    about 55 bytes per grid point with ``--format dsv --out`` and 67 inline
    at n = 400 (51 and 64 at n = 800, tracemalloc, tables formatted column
    by column), about 145 MB inline at the budget.

    Raises:
        ValueError: if n < 6, or n > MAX_GRID_N before anything is allocated;
            if the gap search's gap is NaN.
        GaplessPoint: if the model is gapless.
        PlaquetteSaturated: if any single plaquette reaches |flux| >= pi,
            meaning the grid is too coarse to resolve the curvature.
    """
    if n < 6:
        raise ValueError(f"grid size must be at least 6, got {n}")
    if n > MAX_GRID_N:
        raise ValueError(
            f"grid size {n} is over the budget of {MAX_GRID_N} points per side"
        )
    _require_gapped(p)
    fracs = np.arange(n) / n
    across = fracs * B2[:, None]  # each component's b2 part of a row's momenta
    rows = max(1, _FHS_BLOCK // n)
    flux = np.empty((n, n))
    peaks = []  # each block's largest |flux|
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        # The block's rows, each extended by its b2 wrap, after the row
        # carried from the block before and, in the last block, before the
        # first row matched through b1.
        lead, m = int(start > 0), stop - start
        ue = np.empty((lead + m + (stop == n), n + 1, 2), dtype=complex)
        k = np.empty((m, n, 2))
        for c in range(2):  # a component at a time, so each loop runs along a row
            np.add((fracs[start:stop] * B1[c])[:, None], across[c], out=k[..., c])
        ue[lead:lead + m, :n] = band_states(k, p, band, gauge_fn)
        ue[lead:lead + m, n] = boundary_matched(ue[lead:lead + m, 0], B2)
        if lead:
            ue[0] = carried
        else:
            first = ue[0, :n].copy()
        if stop == n:
            ue[-1, :n] = boundary_matched(first, B1)
            ue[-1, n] = boundary_matched(first[0], B1 + B2)
        carried = ue[lead + m - 1].copy()
        # Each grid link once, along b1 (h) and b2 (v); the -b1 and -b2
        # links are their conjugates bit for bit (same real parts, negated
        # imaginary parts).
        h = transport_link(ue[1:], ue[:-1])
        v = transport_link(ue[:, 1:], ue[:, :-1])
        block = flux[start - lead:start - lead + len(h)]
        block[:] = np.angle(h[:, :-1] * v[1:] * np.conj(h[:, 1:]) * np.conj(v[:-1]))
        # fmax skips a NaN flux, which the saturation check lets pass, and
        # the NaN start of a block with no plaquette row.
        peaks.append(np.fmax.reduce(np.abs(block), axis=None, initial=np.nan))
    peak = float(np.fmax.reduce(peaks))
    if peak >= np.pi - 1e-9:
        raise PlaquetteSaturated(
            f"plaquette flux reached pi on the {n}x{n} grid; refine the grid"
        )
    return BerryField(n, flux, float(np.sum(flux)), np.pi - peak)


def chern_number(p: ModelParams, n: int = 60) -> ChernResult:
    """Chern number of the lower band from the lattice field strength.

    Raises:
        GaplessPoint: if the model is gapless (e.g. phi = 0).
        NotQuantized: if the grid total strays more than 1e-3 from an
            integer multiple of 2 pi.
    """
    fieldgrid = berry_curvature_fhs(p, n, "lower")
    estimate = fieldgrid.chern_estimate
    value = int(np.round(estimate))
    residual = float(abs(estimate - value))
    if residual > 1e-3:
        raise NotQuantized(
            f"total flux / 2pi = {estimate} is not integer within 1e-3"
        )
    return ChernResult(value, residual, n, fieldgrid.margin)


def berry_phase_loop(p: ModelParams, path: KPath, gauge_fn: GaugeFn = None) -> float:
    """Lower-band Berry phase of a closed loop, in (-pi, pi].

    The loop either returns to its first point literally or closes through
    ``closure_G``, in which case the wrap link is boundary matched.
    """
    if not path.closed and path.closure_G is None:
        raise ValueError("berry_phase_loop needs a closed path")
    u = band_states(path.points, p, gauge_fn=gauge_fn)
    return _matched_phase(u, path.closure_G)


def noncyclic_zak(p: ModelParams, path: KPath, gauge_fn: GaugeFn = None) -> float:
    """Gauge-invariant lower-band open-path (Pancharatnam) Zak phase, in
    (-pi, pi].

    The value is the argument of the transport-link product along the path
    times the boundary-matched wrap link ``<V(G) u(k_b) | u(k_e)>`` with
    G = k_e - k_b.  Written this way every intermediate gauge phase cancels
    telescopically, so the result is exactly gauge invariant for any
    endpoint pair connected by a reciprocal vector.

    Raises:
        NoClosure: if the endpoints are not reciprocal-equivalent.
    """
    pts = path.points
    g_vec = pts[-1] - pts[0]
    if not is_reciprocal(g_vec):
        raise NoClosure(
            "endpoints differ by a non-reciprocal vector; the open-path phase "
            "needs reciprocal-equivalent endpoints"
        )
    u = band_states(pts, p, gauge_fn=gauge_fn)
    return _matched_phase(u, g_vec)


def connection_integral(
    p: ModelParams,
    segment: KPath,
    include_closure: bool = False,
    gauge_fn: GaugeFn = None,
) -> float:
    """Discretized lower-band Berry-connection line integral in the fixed
    gauge.

    Returns the accumulated sum of Im log <u(k_j) | u(k_{j+1})> along the
    segment, i.e. the negated angles of the transport links: the
    straight-trajectory connection term evaluated in the module's
    deterministic gauge.  The plain sum is an unwrapped real value and is
    gauge dependent through the endpoint phases.

    With ``include_closure`` the boundary-matched wrap angle
    arg <u(k_e) | V(G) u(k_b)> (G = k_e - k_b, which must be reciprocal) is
    added, making the result the gauge-invariant closed counterpart that
    enters the exact decomposition

        noncyclic_zak(path) = enclosed flux - connection(segment, closed)

    for any path sharing the segment's endpoints.
    """
    pts = segment.points
    if np.all(np.linalg.norm(np.diff(pts, axis=0), axis=1) == 0.0):
        return 0.0
    u = band_states(pts, p, gauge_fn=gauge_fn)
    value = -float(np.sum(np.angle(transport_link(u[1:], u[:-1]))))
    if include_closure:
        matched = boundary_matched(u[0], pts[-1] - pts[0])
        value -= float(np.angle(transport_link(matched, u[-1])))
    return value


def chern_from_zak(phi_i: float, phi_ii: float) -> float:
    """Chern-number estimate (phi_I + phi_II) / pi from two site phases."""
    return (phi_i + phi_ii) / np.pi
