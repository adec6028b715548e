"""Tests for lattice Berry curvature, loop phases, and open-path Zak phases."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chernscope.lattice
import chernscope.protocol
import chernscope.topology
from chernscope import (
    B1,
    B2,
    K,
    KP,
    NN_VECTORS,
    GaplessPoint,
    KPath,
    ModelParams,
    NoClosure,
    band_states,
    berry_curvature_fhs,
    berry_phase_loop,
    boundary_matched,
    chern_from_zak,
    chern_number,
    connection_integral,
    evolve_adiabatic,
    initial_state,
    noncyclic_zak,
    plan_site,
    site_displacements,
    site_start,
    transport_link,
    wrap_angle,
)
from chernscope.protocol import SITES
from chernscope.topology import field_link_phases

P0 = ModelParams()

# Frozen reference values, all computed with this package's deterministic
# gauge at the stated samplings and cross-checked against independent
# constructions (loop splitting, gauge rotations, path reversal).
PAIR_ZAK_SITE_I = 2.8360915281025445
PAIR_ZAK_SITE_II = -1.3526986766838462
K_CIRCLE_DEFAULT_PHI = -2.797915202220227
K_CIRCLE_SMALL_PHI = -3.1381350300652153
SEGMENT_CONN_OPEN = -3.7972911104277873
SEGMENT_ZAK = -0.3914990943586027


def pair_path(site: str, samples: int = 2000) -> KPath:
    """Spin-up leg reversed followed by the spin-down leg of one site plan."""
    plan = plan_site(site, samples_per_leg=samples)
    return KPath(
        np.concatenate([plan.k_path_up.points[::-1], plan.k_path_down.points[1:]])
    )


def corner_segment(n: int = 2001) -> KPath:
    """Vertical straight segment through the K' corner, spanning one b1."""
    kx = -4 * np.pi / (3 * np.sqrt(3))
    return KPath.line(
        np.array([kx, -2 * np.pi / 3]), np.array([kx, 2 * np.pi / 3]), n
    )


# ---------------------------------------------------------------- FHS grid


def test_chern_number_default_couplings():
    res = chern_number(P0, n=60)
    assert res.value == 1
    assert res.residual < 1e-9


def test_chern_number_flips_with_flux_sign():
    res = chern_number(ModelParams(phi=-np.pi / 2), n=60)
    assert res.value == -1
    assert res.residual < 1e-9


def test_upper_band_cancels_lower():
    lower = berry_curvature_fhs(P0, 60, "lower")
    upper = berry_curvature_fhs(P0, 60, "upper")
    assert round(lower.chern_estimate) == 1
    assert round(upper.chern_estimate) == -1
    assert lower.total + upper.total == pytest.approx(0.0, abs=1e-8)


def test_chern_number_gapless_raises():
    with pytest.raises(GaplessPoint):
        chern_number(ModelParams(phi=0.0), n=60)


def test_fhs_rejects_tiny_grid():
    with pytest.raises(ValueError):
        berry_curvature_fhs(P0, 4)


def test_fhs_grid_budget_refuses_before_allocating(monkeypatch):
    """The budget is lowered so no large grid is ever built: one side over
    it raises before the gap check or any state is computed."""
    assert 5 * 200 <= chernscope.topology.MAX_GRID_N  # the curvature table's grid
    at_budget = berry_curvature_fhs(P0, 24)
    monkeypatch.setattr(chernscope.topology, "MAX_GRID_N", 24)
    assert berry_curvature_fhs(P0, 24).total == at_budget.total
    calls = []
    monkeypatch.setattr(
        chernscope.topology, "band_states", lambda *args: calls.append(args)
    )
    monkeypatch.setattr(
        chernscope.topology, "band_gap_min", lambda *args, **kw: calls.append(args)
    )
    with pytest.raises(ValueError, match="budget"):
        berry_curvature_fhs(P0, 25)
    with pytest.raises(ValueError, match="budget"):
        chern_number(P0, n=10**12)
    assert calls == []


def test_fhs_gauge_invariant_per_plaquette():
    rng = np.random.default_rng(7)

    def gauge(kpts):
        return rng.uniform(-np.pi, np.pi, size=np.shape(kpts)[:-1])

    plain = berry_curvature_fhs(P0, 24)
    rotated = berry_curvature_fhs(P0, 24, gauge_fn=gauge)
    assert np.allclose(plain.plaquette_flux, rotated.plaquette_flux, atol=1e-10)


def test_fhs_healthy_grids_stay_below_saturation():
    # Even at tp=0.01 the curvature spike at K fits in a modest grid.
    for n in (24, 60):
        field = berry_curvature_fhs(ModelParams(tp=0.01), n)
        assert np.max(np.abs(field.plaquette_flux)) < np.pi - 1e-9


def _four_link_flux(p, n, band, gauge_fn):
    """The FHS flux with each of a plaquette's four links computed on its
    own, in the (+b1, +b2, -b1, -b2) order."""
    fracs = np.arange(n) / n
    f1, f2 = np.meshgrid(fracs, fracs, indexing="ij")
    u = band_states(f1[..., None] * B1 + f2[..., None] * B2, p, band, gauge_fn)
    ue = np.empty((n + 1, n + 1, 2), dtype=complex)
    ue[:n, :n] = u
    ue[n, :n] = boundary_matched(u[0, :], B1)
    ue[:n, n] = boundary_matched(u[:, 0], B2)
    ue[n, n] = boundary_matched(u[0, 0], B1 + B2)
    l1 = transport_link(ue[1:, :-1], ue[:-1, :-1])
    l2 = transport_link(ue[1:, 1:], ue[1:, :-1])
    l3 = transport_link(ue[:-1, 1:], ue[1:, 1:])
    l4 = transport_link(ue[:-1, :-1], ue[:-1, 1:])
    return np.angle(l1 * l2 * l3 * l4)


def _smooth_gauge(kpts):
    return 0.7 * kpts[..., 0] - 1.3 * kpts[..., 1] + np.sin(3.0 * kpts[..., 0])


@pytest.mark.parametrize("n", [6, 7, 60, 200])
def test_fhs_flux_bit_exact_against_four_links(n, monkeypatch):
    """Reusing each grid link, conjugated for the -b1 and -b2 sides, gives
    the four-link flux bit for bit, sign bits included (no tolerance), at
    every row block edge: the default block, one row per block, two blocks
    with a partial last one, and the whole grid in one block.  The margin,
    taken block by block, is pi less the whole grid's peak |flux|."""
    default_block = chernscope.topology._FHS_BLOCK
    rng = np.random.default_rng(1674)
    for _ in range(3):
        p = ModelParams(
            t=rng.uniform(0.6, 1.4),
            tp=rng.uniform(0.02, 0.15),
            phi=rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 2.7),
        )
        for band in ("lower", "upper"):
            for gauge_fn in (None, _smooth_gauge):
                expected = _four_link_flux(p, n, band, gauge_fn)
                for block in (default_block, n, (n // 2 + 1) * n, n * n):
                    monkeypatch.setattr(chernscope.topology, "_FHS_BLOCK", block)
                    field = berry_curvature_fhs(p, n, band, gauge_fn)
                    flux = field.plaquette_flux
                    assert np.array_equal(flux, expected)
                    assert np.array_equal(np.signbit(flux), np.signbit(expected))
                    assert field.margin == np.pi - np.max(np.abs(expected))


@pytest.mark.parametrize("n, rows", [(7, 1), (7, 3), (60, None), (200, None)])
def test_fhs_evaluates_each_grid_momentum_once(monkeypatch, n, rows):
    """Besides the gap search, stubbed here, one call passes exactly n * n
    momenta through bloch_fields, one block of rows per call."""
    if rows is not None:
        monkeypatch.setattr(chernscope.topology, "_FHS_BLOCK", rows * n)
    rows = max(1, chernscope.topology._FHS_BLOCK // n)
    monkeypatch.setattr(chernscope.topology, "band_gap_min", lambda *a, **kw: 1.0)
    sizes = []
    bloch_fields = chernscope.lattice.bloch_fields

    def spy(kpts, p):
        sizes.append(np.shape(kpts)[:-1])
        return bloch_fields(kpts, p)

    monkeypatch.setattr(chernscope.lattice, "bloch_fields", spy)
    berry_curvature_fhs(P0, n)
    assert sizes == [(min(rows, n - start), n) for start in range(0, n, rows)]
    assert sum(r * c for r, c in sizes) == n * n


def test_fhs_memory_is_the_flux_grid_and_one_block():
    """At n = 400 the kernel peaks at about 14 bytes per grid point: the
    flux grid and one row block (bound 18 B)."""
    n = 400
    berry_curvature_fhs(P0, n)  # first call sets up numpy
    tracemalloc.start()
    try:
        berry_curvature_fhs(P0, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18 * n * n


def test_fhs_margin_is_pi_minus_peak_flux():
    field = berry_curvature_fhs(P0, 60)
    margin = np.pi - np.max(np.abs(field.plaquette_flux))
    assert field.margin == margin
    assert field.margin > 0
    assert chern_number(P0, n=60).margin == margin


def test_integrality_over_random_gapped_couplings():
    rng = np.random.default_rng(42)
    for _ in range(20):
        tp = rng.uniform(0.05, 0.3)
        phi = rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 2.8)
        res = chern_number(ModelParams(tp=tp, phi=phi), n=60)
        assert res.residual < 1e-6
        assert res.value == int(np.sign(np.sin(phi)))


def test_grid_refinement_keeps_integer():
    for n in (30, 60):
        assert chern_number(P0, n=n).value == 1


# ------------------------------------------------------------- loop phases


def test_corner_loop_default_phi():
    loop = KPath.circle(K, 0.3, 400)
    phase = berry_phase_loop(ModelParams(tp=0.01), loop)
    assert phase == pytest.approx(K_CIRCLE_DEFAULT_PHI, abs=1e-12)


def test_corner_loop_small_phi_near_pi():
    p = ModelParams(tp=0.01, phi=0.01)
    phase = berry_phase_loop(p, KPath.circle(K, 0.3, 400))
    assert phase == pytest.approx(K_CIRCLE_SMALL_PHI, abs=1e-12)
    assert abs(abs(phase) - np.pi) < 1e-2


def test_corner_loops_equal_at_both_valleys():
    """With zero sublattice offset H(-k) = sx H(k) sx, so the two valley
    loops (same orientation) carry identical phases, term by term."""
    p = ModelParams(tp=0.01, phi=0.01)
    at_k = berry_phase_loop(p, KPath.circle(K, 0.3, 400))
    at_kp = berry_phase_loop(p, KPath.circle(KP, 0.3, 400))
    assert at_kp == pytest.approx(at_k, abs=1e-12)


def test_corner_loop_odd_in_flux_phase():
    plus = berry_phase_loop(ModelParams(tp=0.01, phi=0.01), KPath.circle(K, 0.3, 400))
    minus = berry_phase_loop(ModelParams(tp=0.01, phi=-0.01), KPath.circle(K, 0.3, 400))
    assert minus == pytest.approx(-plus, abs=1e-12)


def test_zone_center_loop_carries_no_phase():
    phase = berry_phase_loop(P0, KPath.circle(np.zeros(2), 0.3, 400))
    assert abs(phase) < 1e-3


def test_loop_requires_closure():
    open_path = KPath.line(np.zeros(2), np.array([1.0, 0.0]), 50)
    with pytest.raises(ValueError):
        berry_phase_loop(P0, open_path)


def test_loop_through_zone_boundary():
    """A straight line across one reciprocal vector is a torus loop; its
    phase must be independent of where the line starts."""
    for start in (np.array([0.1, -0.4]), np.array([-1.3, 0.7])):
        path = KPath.line(start, start + B2, 501)
        loop = KPath(path.points, closure_G=B2)
        direct = berry_phase_loop(P0, loop)
        via_zak = noncyclic_zak(P0, path)
        assert direct == pytest.approx(via_zak, abs=1e-12)


# ------------------------------------------------------- open-path phases


def test_pair_path_site_phases():
    assert noncyclic_zak(P0, pair_path("I")) == pytest.approx(
        PAIR_ZAK_SITE_I, abs=1e-9
    )
    assert noncyclic_zak(P0, pair_path("II")) == pytest.approx(
        PAIR_ZAK_SITE_II, abs=1e-9
    )


def test_site_phase_sum_estimate():
    phi_i = noncyclic_zak(P0, pair_path("I"))
    phi_ii = noncyclic_zak(P0, pair_path("II"))
    estimate = chern_from_zak(phi_i, phi_ii)
    assert estimate == pytest.approx((phi_i + phi_ii) / np.pi, abs=1e-15)
    # The measured site phases sum to about 0.47 pi, not the ideal pi that
    # a whole-number readout of C = +1 would need; the classification layer
    # treats this as out of tolerance.  Frozen so a change is loud.
    assert estimate == pytest.approx(0.47217860970093456, abs=1e-9)


def test_site_phase_difference_is_matching_phase():
    """Site II's pair path is site I's inverted through the zone center, and
    H(-k) = sx H(k) sx, so the two products differ only in the wrap link:
    phi_I - phi_II = chi(b1) = b1 . e1 exactly.  Moving the cell origin off
    the A site shifts the two site phases oppositely and keeps their sum."""
    chi = float(np.dot(B1, NN_VECTORS[0]))
    for tp in (0.05, 0.1, 0.2):
        for phi in (np.pi / 4, -np.pi / 4, np.pi / 2, -np.pi / 2):
            p = ModelParams(tp=tp, phi=phi)
            phi_i = noncyclic_zak(p, pair_path("I", 1200))
            phi_ii = noncyclic_zak(p, pair_path("II", 1200))
            assert abs(np.angle(np.exp(1j * (phi_i - phi_ii - chi)))) < 1e-12


def test_site_phase_sum_small_tprime():
    p = ModelParams(tp=0.01, phi=np.pi / 2)
    estimate = chern_from_zak(
        noncyclic_zak(p, pair_path("I")), noncyclic_zak(p, pair_path("II"))
    )
    # The oracle gives C = +1 here, yet the origin-independent sum is about
    # 0.05 pi and shrinks towards 0 as tp -> 0, where the curvature gathers
    # at the Dirac points.  Frozen so a change that quantizes it is loud.
    assert chern_number(p, n=60).value == 1
    assert estimate == pytest.approx(0.05126536814847808, abs=1e-9)


def test_zak_gauge_invariance():
    rng = np.random.default_rng(3)

    def gauge(kpts):
        return rng.uniform(-np.pi, np.pi, size=np.shape(kpts)[:-1])

    path = pair_path("I", samples=400)
    plain = noncyclic_zak(P0, path)
    rotated = noncyclic_zak(P0, path, gauge_fn=gauge)
    assert rotated == pytest.approx(plain, abs=1e-10)


def test_zak_reverses_sign_with_path():
    path = pair_path("I", samples=400)
    back = KPath(path.points[::-1])
    assert noncyclic_zak(P0, path) + noncyclic_zak(P0, back) == pytest.approx(
        0.0, abs=1e-12
    )


def test_zak_on_stationary_path_is_zero():
    k = np.array([0.3, 0.2])
    path = KPath(np.stack([k, k]))
    assert noncyclic_zak(P0, path) == pytest.approx(0.0, abs=1e-14)


def test_zak_rejects_open_endpoints_without_geodesic():
    path = KPath.line(np.zeros(2), np.array([0.5, 0.3]), 50)
    with pytest.raises(NoClosure):
        noncyclic_zak(P0, path)


def test_corner_segment_values():
    seg = corner_segment()
    assert connection_integral(P0, seg) == pytest.approx(
        SEGMENT_CONN_OPEN, abs=1e-9
    )
    assert noncyclic_zak(P0, seg) == pytest.approx(SEGMENT_ZAK, abs=1e-9)


def test_zak_is_negated_closed_connection():
    """The matched wrap makes the closed connection the exact negative of
    the Pancharatnam phase, modulo 2 pi."""
    for seg in (corner_segment(801), pair_path("I", samples=400)):
        zak = noncyclic_zak(P0, seg)
        conn = connection_integral(P0, seg, include_closure=True)
        diff = np.angle(np.exp(1j * (zak + conn)))
        assert diff == pytest.approx(0.0, abs=1e-10)


def test_route_difference_equals_enclosed_flux():
    """Two open paths sharing endpoints differ by the Berry flux through
    the loop they bound."""
    a = np.array([0.2, -0.8])
    b = a + B1
    way = np.array([1.4, 0.6])
    direct = KPath.line(a, b, 600)
    dogleg = KPath.concatenate(KPath.line(a, way, 300), KPath.line(way, b, 300))
    loop = KPath.concatenate(dogleg, KPath(direct.points[::-1]), closed=True)
    flux = berry_phase_loop(P0, loop)
    gap = noncyclic_zak(P0, dogleg) - noncyclic_zak(P0, direct)
    assert np.angle(np.exp(1j * (gap - flux))) == pytest.approx(0.0, abs=1e-6)


def _seeded_couplings(seed):
    """Two (tp, phi) draws in tp in [0.05, 0.3] and |phi| in [pi/6, 5 pi/6],
    one per sign of phi, so one per sign of C."""
    rng = np.random.default_rng(seed)
    draws = []
    for sign in (1.0, -1.0):
        tp, phi = rng.uniform([0.05, np.pi / 6], [0.3, 5 * np.pi / 6]).tolist()
        draws.append((tp, sign * phi))
    return draws


@pytest.mark.parametrize(
    "tp, phi", [(0.1, np.pi / 2), (0.1, -np.pi / 2), (0.01, np.pi / 2),
                *_seeded_couplings(3101)],
)
def test_site_phase_is_line_zak_plus_triangle_phase(tp, phi):
    """A site's Pancharatnam phase is, mod 2 pi, W + gamma_T: W is the Zak
    phase of the straight line from its start s to s + G, G = d_down - d_up,
    and gamma_T the Berry phase of the triangle s -> s + d_down -> s + G ->
    s, which the down leg and the up leg shifted by G bound with the line.
    Both sites' triangles carry one phase: site II's is site I's reflected
    through the zone centre, and the curvature is even in k.  The residual
    is the sampling error of the lines, at most 4.8e-7 on these couplings at
    the plan's 2,000 samples per leg.  At the defaults (W_I + W_II)/pi is
    0.916 and 2 gamma_T/pi is 1.556, so the two-site sum is not quantized.
    """
    p = ModelParams(tp=tp, phi=phi)
    assert chern_number(p).value == np.sign(phi)
    line, triangle = {}, {}
    for site in SITES:
        s, d = site_start(site), site_displacements(site)
        g = d["down"] - d["up"]
        line[site] = noncyclic_zak(p, KPath.line(s, s + g, 4001))
        corners = (s, s + d["down"], s + g, s)
        triangle[site] = berry_phase_loop(p, KPath.concatenate(
            *(KPath.line(a, b, 4001) for a, b in zip(corners, corners[1:])),
            closed=True,
        ))
        _, ledger = evolve_adiabatic(initial_state(), plan_site(site), p)
        residual = wrap_angle(ledger.pancharatnam_phase - (line[site] + triangle[site]))
        assert abs(residual) <= 1e-6
    assert abs(triangle["I"] - triangle["II"]) <= 1e-12
    if (tp, phi) == (0.1, np.pi / 2):
        assert (line["I"] + line["II"]) / np.pi == pytest.approx(0.916, abs=5e-4)
        assert 2 * triangle["I"] / np.pi == pytest.approx(1.556, abs=5e-4)


def test_zak_sampling_converged():
    coarse = noncyclic_zak(P0, pair_path("I", samples=2000))
    fine = noncyclic_zak(P0, pair_path("I", samples=4000))
    assert fine == pytest.approx(coarse, abs=1e-6)


def test_chern_from_zak_arithmetic():
    assert chern_from_zak(np.pi / 2, np.pi / 2) == pytest.approx(1.0)
    assert chern_from_zak(np.pi / 2, -np.pi / 2) == pytest.approx(0.0)
    assert chern_from_zak(-np.pi / 2, -np.pi / 2) == pytest.approx(-1.0)


# ------------------------------------------------------------------ KPath


def test_kpath_validation():
    with pytest.raises(ValueError):
        KPath(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        KPath(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        KPath(np.array([[0.0, 0.0], [1.0, 0.0]]), closed=True)
    with pytest.raises(ValueError):
        KPath(
            np.array([[0.0, 0.0], [1.0, 0.0]]),
            closure_G=np.array([0.0, 1.0]),
        )


def test_kpath_concatenate_requires_shared_joint():
    first = KPath.line(np.zeros(2), np.array([1.0, 0.0]), 10)
    apart = KPath.line(np.array([2.0, 0.0]), np.array([3.0, 0.0]), 10)
    with pytest.raises(ValueError):
        KPath.concatenate(first, apart)


def test_kpath_circle_closed():
    loop = KPath.circle(np.array([0.5, 0.5]), 0.2, 32)
    assert loop.closed
    assert np.allclose(loop.points[0], loop.points[-1])
    assert loop.points.shape == (33, 2)


@given(st.integers(2, 40))
@settings(max_examples=30, deadline=None)
def test_kpath_line_sampling(n):
    path = KPath.line(np.zeros(2), np.array([1.0, 2.0]), n)
    assert path.points.shape == (n, 2)
    steps = np.diff(path.points, axis=0)
    assert np.allclose(steps, steps[0], atol=1e-12)


# --------------------------------------------------- field-level link kernel


def _reference_link_phases(fields, kpts, p, gauge_fn=None):
    """Summed link angles the state route takes: transport_link on the
    normalized states_from_fields states."""
    u = chernscope.lattice.states_from_fields(fields, kpts, p, gauge_fn=gauge_fn)
    return np.sum(np.angle(transport_link(u[..., 1:, :], u[..., :-1, :])), axis=-1)


def _assert_kernel_matches_reference(fields, kpts, p, gauge_fn=None):
    """The phases enter only through exp(i phase), so they are compared
    modulo 2 pi; within 1e-13."""
    got = field_link_phases(fields, kpts, p, gauge_fn)
    expected = _reference_link_phases(fields, kpts, p, gauge_fn)
    assert got.shape == np.shape(fields[1])[:-1]
    assert np.max(np.abs(np.angle(np.exp(1j * (got - expected))))) <= 1e-13


def _line_stack(p, lines, m):
    """Fields and momenta of straight lines (start, end), m samples each,
    stacked (lines, m)."""
    frac = np.linspace(0.0, 1.0, m)[:, None]
    kpts = np.stack([a + frac * (b - a) for a, b in lines])
    return chernscope.lattice.bloch_fields(kpts, p), kpts


def _through(k, direction, m, half_width):
    """m samples on a line through k, with k itself the middle sample."""
    s = np.linspace(-half_width, half_width, m)
    s[m // 2] = 0.0
    return k + s[:, None] * np.asarray(direction)


def test_field_link_phases_across_hz_sign_changes():
    """Legs from K to K' through Gamma, and across the zone edge, where hz
    changes sign mid-leg and the closed form switches branch."""
    lines = [(K, KP), (K, -K), (0.3 * K, B1), (KP, K + 0.2)]
    for p in (P0, ModelParams(tp=0.3, phi=-2.0)):
        fields, kpts = _line_stack(p, lines, 401)
        hz = fields[3]
        flips = np.sum(np.diff(hz > 0, axis=-1), axis=-1)
        assert np.all(flips >= 1)
        _assert_kernel_matches_reference(fields, kpts, p)


@pytest.mark.parametrize("tp", [0.1, 1e-3, 1e-6])
def test_field_link_phases_through_the_dirac_point(tp):
    """Legs whose middle sample is K, where hx + i hy vanishes (to
    rounding), down to near-gapless couplings."""
    p = ModelParams(tp=tp)
    kpts = np.stack([
        _through(K, d, 301, 0.2) for d in ([1.0, 0.0], [0.6, 0.8], [0.0, -1.0])
    ] + [_through(KP, [1.0, 1.0], 301, 0.1)])
    fields = chernscope.lattice.bloch_fields(kpts, p)
    _, hx, hy, hz, _ = fields
    assert np.max(np.hypot(hx, hy)[:, 150]) <= 1e-15
    assert np.min(2 * np.abs(hz[:, 150])) > p.gap_tol
    _assert_kernel_matches_reference(fields, kpts, p)


def test_field_link_phases_with_exact_zero_components():
    """Fields with hx = hy = 0 exactly on both branches, and hz = 0 exactly."""
    rng = np.random.default_rng(5)
    h0, hx, hy, hz = rng.normal(size=(4, 3, 200))
    hx[:, ::9] = hy[:, ::9] = 0.0
    hz[:, 4::9] = 0.0
    assert np.any(hz[:, ::9] > 0) and np.any(hz[:, ::9] < 0)
    kpts = rng.uniform(-3.0, 3.0, size=(3, 200, 2))
    norm = np.sqrt(hx * hx + hy * hy + hz * hz)
    _assert_kernel_matches_reference((h0, hx, hy, hz, norm), kpts, P0)


def test_field_link_phases_rotate_every_sample_under_gauge_fn():
    """gauge_fn rotates each sample's components as band_states rotates the
    states; the summed phase changes by the end samples' gauge difference."""
    lines = [(K, KP), (0.3 * K, B1)]
    fields, kpts = _line_stack(P0, lines, 301)
    _assert_kernel_matches_reference(fields, kpts, P0, _smooth_gauge)
    shift = field_link_phases(fields, kpts, P0, _smooth_gauge) - field_link_phases(
        fields, kpts, P0
    )
    theta = _smooth_gauge(kpts)
    telescoped = theta[:, 0] - theta[:, -1]
    assert np.max(np.abs(np.angle(np.exp(1j * (shift - telescoped))))) <= 1e-12


@pytest.mark.parametrize("with_echo", [True, False])
def test_field_link_phases_on_plan_legs(with_echo):
    """The stacked legs of nominal and perturbed plans, echo on and off."""
    plans = [
        chernscope.protocol.perturb_plan(
            plan_site(site, with_echo=with_echo, samples_per_leg=500),
            radius=radius,
            seed=seed,
        )
        for seed, (site, radius) in enumerate(
            [("I", 0.0), ("II", 0.0), ("I", 0.003), ("II", 0.003)]
        )
    ]
    legs = chernscope.protocol.leg_pass(plans, P0)
    _assert_kernel_matches_reference(legs.fields, legs.points, P0)
    _assert_kernel_matches_reference(legs.fields, legs.points, P0, _smooth_gauge)


def test_field_link_phases_check_the_gap_before_any_link():
    """A leg through a gapless K raises the GaplessPoint of the state
    route, same message, before gauge_fn or any link is evaluated."""
    p = ModelParams(tp=0.0)
    kpts = np.stack(
        [_through(KP, [0.0, 1.0], 41, 0.3), _through(K, [1.0, 0.0], 41, 0.3)]
    )
    fields = chernscope.lattice.bloch_fields(kpts, p)
    with pytest.raises(GaplessPoint) as expected:
        chernscope.lattice.states_from_fields(fields, kpts, p)
    seen = []

    def gauge(k):
        seen.append(k)
        return np.zeros(np.shape(k)[:-1])

    with pytest.raises(GaplessPoint) as got:
        field_link_phases(fields, kpts, p, gauge)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("gap below 1e-09 at k=")
    assert seen == []
