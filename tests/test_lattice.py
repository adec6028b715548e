"""Tests for the Bloch Hamiltonian, eigenvector gauge, and lattice geometry."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import chernscope.lattice
import chernscope.topology
from chernscope import (
    B1,
    B2,
    K,
    KP,
    NN_VECTORS,
    GaplessPoint,
    ModelParams,
    NotReciprocal,
    band_energies,
    band_gap_min,
    band_states,
    bloch_fields,
    boundary_matrix,
    boundary_phase,
    hamiltonian,
    high_symmetry_path,
    is_reciprocal,
    line_fields,
    plan_site,
    reciprocal_coefficients,
    sublattice_matching,
)
from chernscope.lattice import INVERSE_RECIPROCAL_BASIS, _fields_from_z
from chernscope.protocol import leg_pass

P0 = ModelParams()
GAMMA = np.zeros(2)

# Analytic values at the default couplings (t=1, tp=0.1, phi=pi/2):
# the mass term at the zone corner is 3*sqrt(3)*tp*sin(phi).
HZ_AT_K = 0.5196152422706632
GAP_AT_K = 1.0392304845413265

momenta = st.tuples(
    st.floats(min_value=-7.0, max_value=7.0, allow_nan=False),
    st.floats(min_value=-7.0, max_value=7.0, allow_nan=False),
)


def explicit_fields(k, p):
    """The twelve-term cos/sin form of the fields: three cosines or sines of
    k . e_i or k . v_i per component, then |h|."""
    e1, e2, e3 = NN_VECTORS
    ke = [np.dot(k, e) for e in (e1, e2, e3)]
    kv = [np.dot(k, v) for v in (e3 - e2, e1 - e3, e2 - e1)]
    h0 = -2 * p.tp * np.cos(p.phi) * sum(np.cos(x) for x in kv)
    hx = -p.t * sum(np.cos(x) for x in ke)
    hy = -p.t * sum(np.sin(x) for x in ke)
    hz = -2 * p.tp * np.sin(p.phi) * sum(np.sin(x) for x in kv)
    return h0, hx, hy, hz, np.sqrt(hx * hx + hy * hy + hz * hz)


@given(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_bloch_fields_match_explicit_formula(radius, angle, tp, phi):
    p = ModelParams(tp=tp, phi=phi)
    k = radius * np.array([np.cos(angle), np.sin(angle)])
    assert np.allclose(bloch_fields(k, p), explicit_fields(k, p), rtol=0, atol=1e-12)
    batch = np.stack([k, -k, k / 3])
    fields = np.array(bloch_fields(batch, p))
    for i, point in enumerate(batch):
        want = explicit_fields(point, p)
        assert np.allclose(fields[:, i], want, rtol=0, atol=1e-12)


def _seeded_disk(rng, n, radius):
    """n momenta drawn uniformly from the disk |k| <= radius."""
    r = radius * np.sqrt(rng.random(n))
    angle = rng.uniform(-np.pi, np.pi, n)
    return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)


def three_exponential_fields(k, p):
    """The three-exponential form: z_i = exp(i k . e_i) per NN vector,
    hx + i hy = -t (z1 + z2 + z3) and S = z3 conj(z2) + z1 conj(z3) +
    z2 conj(z1), then h0, hz from Re S, Im S and |h|."""
    phases = k @ NN_VECTORS.T
    z = np.empty(phases.shape, dtype=complex)
    np.cos(phases, out=z.real)
    np.sin(phases, out=z.imag)
    z1, z2, z3 = z[..., 0], z[..., 1], z[..., 2]
    nn = -p.t * (z1 + z2 + z3)
    nnn = z3 * np.conj(z2) + z1 * np.conj(z3) + z2 * np.conj(z1)
    h0 = -2 * p.tp * np.cos(p.phi) * nnn.real
    hz = -2 * p.tp * np.sin(p.phi) * nnn.imag
    hx, hy = nn.real, nn.imag
    return h0, hx, hy, hz, np.sqrt(hx * hx + hy * hy + hz * hz)


def test_bloch_fields_match_the_three_exponential_form():
    """Two exponentials per momentum give the three-exponential fields to
    4e-15 over 100,000 seeded momenta with |k| <= 7, at t = 1 and
    tp <= 0.5 (tp = 0 included)."""
    rng = np.random.default_rng(23)
    kpts = _seeded_disk(rng, 100_000, 7.0)
    for tp in (0.0, 0.1, 0.5, *rng.uniform(0.0, 0.5, 2)):
        p = ModelParams(t=1.0, tp=tp, phi=rng.uniform(-np.pi, np.pi))
        got = bloch_fields(kpts, p)
        want = three_exponential_fields(kpts, p)
        for g, w in zip(got, want, strict=True):
            assert np.max(np.abs(g - w)) <= 4e-15


def test_nn_exponentials_are_products_of_the_two_phases():
    """z1 = u^2, z2 = conj(u w) and z3 = w conj(u), with w = exp(i X),
    u = exp(i Y) and (X, Y) = k * _XY_SCALE, to rounding over seeded
    momenta with |k| <= 7."""
    kpts = _seeded_disk(np.random.default_rng(29), 50_000, 7.0)
    xy = kpts * chernscope.lattice._XY_SCALE
    w, u = np.exp(1j * xy[:, 0]), np.exp(1j * xy[:, 1])
    z1, z2, z3 = np.exp(1j * (kpts @ NN_VECTORS.T)).T
    for got, want in ((u * u, z1), (np.conj(u * w), z2), (w * np.conj(u), z3)):
        assert np.max(np.abs(got - want)) <= 2e-15


@given(
    n=st.integers(min_value=1, max_value=1100),
    k0=momenta,
    span=st.tuples(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    ),
    tp=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    phi=st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False),
)
# n = 1, 2, 3; perfect squares (whole blocks); one point either side of a
# block boundary (the block size is ceil(sqrt(n))); and a TDSE leg's midpoint
# count across b1, where a running product of step exponentials would be
# about 4e-12 off.
@example(n=1, k0=(0.3, -0.2), span=(4.0, 1.0), tp=0.1, phi=np.pi / 2)
@example(n=2, k0=(0.3, -0.2), span=(4.0, 1.0), tp=0.1, phi=np.pi / 2)
@example(n=3, k0=(0.3, -0.2), span=(4.0, 1.0), tp=0.1, phi=np.pi / 2)
@example(n=4, k0=(0.3, -0.2), span=(4.0, 1.0), tp=0.1, phi=np.pi / 2)
@example(n=5, k0=(0.3, -0.2), span=(4.0, 1.0), tp=0.1, phi=np.pi / 2)
@example(n=255, k0=(7.0, -7.0), span=(-10.0, 3.0), tp=0.2, phi=1.0)
@example(n=256, k0=(7.0, -7.0), span=(-10.0, 3.0), tp=0.2, phi=1.0)
@example(n=257, k0=(7.0, -7.0), span=(-10.0, 3.0), tp=0.2, phi=1.0)
@example(n=271, k0=(-1.0, 2.0), span=(0.0, 4.19), tp=0.1, phi=-0.5)
@example(n=272, k0=(-1.0, 2.0), span=(0.0, 4.19), tp=0.1, phi=-0.5)
@example(n=273, k0=(-1.0, 2.0), span=(0.0, 4.19), tp=0.1, phi=-0.5)
@example(n=1024, k0=(0.0, 0.0), span=(3.6, -2.1), tp=0.3, phi=np.pi)
@example(n=109288, k0=(0.3, -0.2), span=(0.0, 4 * np.pi / 3), tp=0.1, phi=np.pi / 2)
@settings(max_examples=80, deadline=None)
def test_line_fields_match_bloch_fields_on_the_line(n, k0, span, tp, phi):
    p = ModelParams(tp=tp, phi=phi)
    k0, step = np.array(k0), np.array(span) / n
    fields = line_fields(k0, step, n, p)
    want = bloch_fields(k0 + np.arange(n)[:, None] * step, p)
    for got, ref in zip(fields, want):
        assert got.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 1e-13


def _point_major_line_fields(k0, step, n, p):
    """Reference ``line_fields`` with point-major (n / B, B, 2) tables of
    the exponentials w = exp(i X) and u = exp(i Y)."""
    scale = chernscope.lattice._XY_SCALE
    block = math.isqrt(max(n - 1, 0)) + 1
    starts = np.arange(0, n, block)
    outer = np.exp(1j * ((k0 + starts[:, None] * step) * scale))
    inner = np.exp(1j * ((np.arange(block)[:, None] * step) * scale))
    z = (outer[:, None, :] * inner[None, :, :]).reshape(-1, 2)[:n]
    return tuple(_fields_from_z(z[:, 0], z[:, 1], p))


@pytest.mark.parametrize("n", [1, 2, 3, 256, 257, 1000, 8191, 8192, 8193, 109288])
def test_line_fields_bits_do_not_depend_on_the_table_layout(n):
    """Component-major tables give the point-major tables' fields bit for
    bit, signs of zero included, over seeded lines and couplings."""
    rng = np.random.default_rng(n)
    for tp in (0.0, *rng.uniform(0.0, 0.5, 3)):  # tp = 0: fields of zero
        p = ModelParams(tp=tp, phi=rng.uniform(-np.pi, np.pi))
        k0, step = rng.uniform(-8.0, 8.0, 2), rng.uniform(-4.0, 4.0, 2) / n
        got = line_fields(k0, step, n, p)
        want = _point_major_line_fields(k0, step, n, p)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)
            assert np.array_equal(np.signbit(g), np.signbit(w))

@pytest.mark.parametrize("copies", [2, 6, 7, 12])
def test_bloch_fields_of_a_stack_equal_the_single_evaluation(copies):
    """A momentum's fields do not depend on the array it sits in: stacked
    copies of 2,402 momenta give the single evaluation's bits, below and
    past the 16,384 values from which numpy evaluates some products in
    place in their temporaries."""
    kpts = np.random.default_rng(5).uniform(-7.0, 7.0, (2402, 2))
    single = bloch_fields(kpts, P0)
    stacked = bloch_fields(np.tile(kpts, (copies, 1)), P0)
    for one, many in zip(single, stacked, strict=True):
        assert np.array_equal(many, np.tile(one, copies))


def test_every_field_tuple_carries_the_norm():
    """bloch_fields, line_fields and a leg pass each give five arrays, the
    fifth |h| = sqrt(hx*hx + hy*hy + hz*hz) of the other four bit for bit."""
    kpts = np.random.default_rng(3).uniform(-7.0, 7.0, (500, 2))
    legs = leg_pass([plan_site("I", samples_per_leg=40)], P0)
    for fields in (
        bloch_fields(kpts, P0),
        bloch_fields(K, P0),
        line_fields(GAMMA, np.array([0.01, 0.02]), 300, P0),
        legs.fields,
    ):
        assert len(fields) == 5
        _, hx, hy, hz, hmag = fields
        assert np.array_equal(hmag, np.sqrt(hx * hx + hy * hy + hz * hz))


def test_gamma_point_components():
    h0, hx, hy, hz, _ = bloch_fields(GAMMA, P0)
    assert h0 == pytest.approx(0.0, abs=1e-15)
    assert hx == pytest.approx(-3.0, abs=1e-15)
    assert hy == pytest.approx(0.0, abs=1e-15)
    assert hz == pytest.approx(0.0, abs=1e-15)


def test_mass_term_at_zone_corner():
    _, hx, hy, hz, _ = bloch_fields(K, P0)
    assert hx == pytest.approx(0.0, abs=1e-12)
    assert hy == pytest.approx(0.0, abs=1e-12)
    assert hz == pytest.approx(HZ_AT_K, abs=1e-12)
    assert hz == pytest.approx(3 * np.sqrt(3) * P0.tp * np.sin(P0.phi), abs=1e-12)


def test_gap_at_zone_corner():
    lo, up = band_energies(K, P0)
    assert up - lo == pytest.approx(GAP_AT_K, abs=1e-12)


def test_band_gap_min_default_couplings():
    assert band_gap_min(P0) == pytest.approx(GAP_AT_K, abs=1e-9)


def test_band_gap_min_closes_without_flux():
    # With phi = 0 the mass term vanishes and the bands touch at K.
    assert band_gap_min(ModelParams(phi=0.0)) < 1e-6


def test_band_gap_min_rejects_coarse_grid():
    with pytest.raises(ValueError):
        band_gap_min(P0, n=8)


def test_band_gap_min_finds_zone_edge_minimum():
    # The gap at K is 2 * 3*sqrt(3) * tp = 2.078 here; the minimum is 2t at M.
    p = ModelParams(tp=0.2)
    lo, up = band_energies(K, p)
    assert up - lo == pytest.approx(6 * np.sqrt(3.0) * 0.2, abs=1e-12)
    assert band_gap_min(p) == pytest.approx(2.0, abs=1e-9)
    lo, up = band_energies(B1 / 2, p)
    assert up - lo == pytest.approx(2.0, abs=1e-12)


# (tp, phi, n, minimum gap) at 20 draws (numpy seed 1674, tp in [0, 0.5],
# phi in (-pi, pi)), frozen from a Nelder-Mead polish of the grid minimum.
GAP_SEARCH_DRAWS = [
    (0.017431705458300417, 1.1521228176412146, 64, 0.16550901197334508),
    (0.4893596055043473, -0.3230972712384599, 32, 1.6146956768205691),
    (0.4150813694740176, -0.45858438391668876, 64, 1.9095640565097265),
    (0.03776410646043321, -2.4848967789051915, 32, 0.23959573897985337),
    (0.4451631421407205, 1.2702092032060266, 64, 1.9999999999999998),
    (0.4553988776448465, 0.2680340960388117, 32, 1.253375639250335),
    (0.17734692635369803, 1.375861503434245, 64, 1.8081366280391808),
    (0.41864665728708983, 0.9399615680366242, 32, 1.9999999999999998),
    (0.3716631907891332, -3.094474152619256, 64, 0.18192491564149638),
    (0.26638054970651714, -1.3571382120901707, 32, 1.9999999999999998),
    (0.19217366334138758, 2.4925673123645415, 64, 1.207084123080136),
    (0.01989733306145841, -2.318560287033221, 32, 0.15161279130856484),
    (0.16578509340288067, -2.83285703797243, 64, 0.5235072615635098),
    (0.1769191619010187, 0.21495130015408792, 32, 0.3921726474735576),
    (0.13674963696870718, -3.04796817780422, 64, 0.1328595576868956),
    (0.40949102916053287, -1.6300532580961384, 32, 1.9999999999999998),
    (0.4156826495017825, -2.934444753136873, 64, 0.88847233369368),
    (0.4942327375181658, 0.13071235993010122, 32, 0.6694569149663616),
    (0.21546313254198274, 2.1160299677655985, 64, 1.9144943224556872),
    (0.40680624780900076, -2.099580222558198, 32, 1.9999999999999998),
]


@pytest.mark.parametrize("tp, phi, n, gap", GAP_SEARCH_DRAWS)
def test_band_gap_min_matches_frozen_draws(tp, phi, n, gap):
    assert band_gap_min(ModelParams(tp=tp, phi=phi), n) == pytest.approx(
        gap, abs=1e-12
    )


def _gap_search(p, n, rounds):
    """Reference search: ``band_gap_min``'s n x n scan, 7 x 7 grid and 0.35
    shrink, one ``band_energies`` call per round, for ``rounds`` rounds."""

    def grid_min(f1, f2):
        e_lo, e_up = band_energies(f1[..., None] * B1 + f2[..., None] * B2, p)
        gaps = e_up - e_lo
        idx = np.unravel_index(np.argmin(gaps), gaps.shape)
        return float(gaps[idx]), f1[idx], f2[idx]

    fracs = np.arange(n) / n
    best, c1, c2 = grid_min(*np.meshgrid(fracs, fracs, indexing="ij"))
    offsets = np.linspace(-1.0, 1.0, 7)
    o1, o2 = np.meshgrid(offsets, offsets, indexing="ij")
    window = 1.0 / n
    for _ in range(rounds):
        gap, k1, k2 = grid_min(c1 + window * o1, c2 + window * o2)
        if gap < best:
            best, c1, c2 = gap, k1, k2
        window *= 0.35
    return best


def _gap_search_draws(seed, count):
    """(tp, phi, n) draws; every third is near-gapless, |phi| in [1e-12, 1e-3]."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(count):
        tp, n = rng.uniform(0.0, 0.5), int(rng.choice([32, 64]))
        if i % 3 == 2:
            phi = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -3.0)
        else:
            phi = rng.uniform(-np.pi, np.pi)
        draws.append((float(tp), float(phi), n))
    return draws


@pytest.mark.parametrize("tp, phi, n", _gap_search_draws(1674, 60))
def test_band_gap_min_matches_the_40_round_search(tp, phi, n):
    p = ModelParams(tp=tp, phi=phi)
    assert abs(band_gap_min(p, n) - _gap_search(p, n, 40)) <= 1e-15


@pytest.mark.parametrize(
    "tp, phi, n",
    _gap_search_draws(1674, 60) + [(P0.tp, P0.phi, 32), (P0.tp, P0.phi, 64)],
)
def test_band_gap_min_equals_the_sequential_20_round_search(tp, phi, n):
    """The batched rounds give the bits of the rounds taken one at a time.
    At the default couplings the centre moves at round 17, so a search of
    16 or fewer rounds gives another result and fails here."""
    p = ModelParams(tp=tp, phi=phi)
    assert band_gap_min(p, n) == _gap_search(p, n, 20)


def test_band_gap_min_batches_its_rounds(monkeypatch):
    """At the default couplings and n = 32 the centre moves at rounds 1 and
    17: the scan, round 1 alone, rounds 2-20 around the new centre, and
    rounds 18-20 again around the centre round 17 found."""
    sizes = []
    fields = chernscope.lattice.bloch_fields

    def spy(kpts, p):
        sizes.append(np.size(kpts) // 2)
        return fields(kpts, p)

    monkeypatch.setattr(chernscope.lattice, "bloch_fields", spy)
    band_gap_min(P0, n=32)
    assert sizes == [32 * 32, 49, 19 * 49, 3 * 49]


@pytest.mark.parametrize("tp", [0.05, 0.1, 0.37])
@pytest.mark.parametrize("phi", [1e-3, 1e-6, 1e-9, -1e-9, 1e-12])
def test_band_gap_min_near_gapless_equals_the_k_gap(tp, phi):
    # Here the minimum is the gap at K, 2 * 3*sqrt(3) * tp * |sin phi|.
    k_gap = 6 * np.sqrt(3.0) * tp * abs(np.sin(phi))
    assert abs(band_gap_min(ModelParams(tp=tp, phi=phi)) - k_gap) <= 1e-15


@pytest.mark.parametrize("ratio, gapless", [(0.5, True), (2.0, False)])
def test_require_gapped_splits_at_gap_tol(ratio, gapless):
    # phi puts the gap at K, the minimum, at ratio * gap_tol.
    tp = 0.1
    phi = float(np.arcsin(ratio * P0.gap_tol / (6 * np.sqrt(3.0) * tp)))
    p = ModelParams(tp=tp, phi=phi)
    if gapless:
        with pytest.raises(GaplessPoint):
            chernscope.topology._require_gapped(p)
    else:
        chernscope.topology._require_gapped(p)


def test_gapless_point_raised_without_nnn_hopping():
    p = ModelParams(tp=0.0)
    with pytest.raises(GaplessPoint):
        band_states(K, p)


def test_band_states_rejects_unknown_band():
    with pytest.raises(ValueError):
        band_states(GAMMA, P0, band="middle")


@pytest.mark.parametrize(
    "bad",
    [dict(t=0.0), dict(t=-1.0), dict(tp=-0.1), dict(phi=7.0)],
)
def test_model_params_validation(bad):
    with pytest.raises(ValueError):
        ModelParams(**bad)


def test_boundary_phase_values():
    assert boundary_phase(B1) == pytest.approx(4 * np.pi / 3, abs=1e-12)
    assert boundary_phase(B1 + B2) == pytest.approx(2 * np.pi / 3, abs=1e-12)
    # 3 b1 . e1 = 4 pi, a full winding, so the matching phase vanishes.
    assert boundary_phase(3 * B1) % (2 * np.pi) == pytest.approx(0.0, abs=1e-9)


def test_boundary_phase_rejects_off_lattice_vector():
    with pytest.raises(NotReciprocal):
        boundary_phase(np.array([0.3, 0.2]))


def test_boundary_matrix_is_diagonal_unitary():
    v = boundary_matrix(B1)
    assert np.allclose(v @ v.conj().T, np.eye(2), atol=1e-14)
    assert v[0, 1] == 0 and v[1, 0] == 0
    assert v[0, 0] == 1.0


def test_sublattice_matching_extends_boundary_matrix():
    w = sublattice_matching(B1 + B2)
    v = boundary_matrix(B1 + B2)
    assert np.allclose(w, np.diag(v), atol=1e-12)
    assert np.allclose(np.abs(w), 1.0, atol=1e-14)


def test_stacked_matching_and_reciprocity_equal_each_vector():
    """A (..., 2) stack of momentum differences gets, vector by vector and
    bit for bit, the matching diagonal and the reciprocity answer of the
    vector on its own."""
    rng = np.random.default_rng(5)
    dks = np.concatenate(
        [rng.normal(size=(5, 2)), [B1, B1 + B2, -B2 + 1e-7]]
    ).reshape(2, 4, 2)
    w = sublattice_matching(dks)
    on_lattice = is_reciprocal(dks)
    assert w.shape == (2, 4, 2) and on_lattice.shape == (2, 4)
    for index in np.ndindex(2, 4):
        assert np.array_equal(w[index], sublattice_matching(dks[index]))
        assert on_lattice[index] == is_reciprocal(dks[index])
    assert on_lattice.tolist() == [[False] * 4, [False, True, True, False]]


@given(momenta)
@settings(max_examples=200, deadline=None)
def test_hamiltonian_is_hermitian(kxy):
    h = hamiltonian(np.array(kxy), P0)
    assert np.allclose(h, h.conj().T, atol=1e-12)


@given(momenta)
@settings(max_examples=200, deadline=None)
def test_mirror_symmetry_conjugates_hamiltonian(kxy):
    """H(kx, -ky) equals the complex conjugate of H(kx, ky)."""
    kx, ky = kxy
    h = hamiltonian(np.array([kx, ky]), P0)
    h_m = hamiltonian(np.array([kx, -ky]), P0)
    assert np.allclose(h_m, h.conj(), atol=1e-12)


@given(momenta, st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=150, deadline=None)
def test_reciprocal_periodicity(kxy, m, n):
    """H(k + G) = V(G) H(k) V(G)^dag for any reciprocal G."""
    G = m * B1 + n * B2
    k = np.array(kxy)
    v = boundary_matrix(G)
    lhs = hamiltonian(k + G, P0)
    rhs = v @ hamiltonian(k, P0) @ v.conj().T
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(momenta, st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=100, deadline=None)
def test_reciprocal_coefficients_roundtrip(kxy, m, n):
    G = m * B1 + n * B2 + 0.0 * np.array(kxy)
    coeff = reciprocal_coefficients(G)
    assert np.allclose(coeff, [m, n], atol=1e-9)


@given(momenta)
@settings(max_examples=150, deadline=None)
def test_eigensystem_reconstructs_hamiltonian(kxy):
    k = np.array(kxy)
    e_lower, e_upper = band_energies(k, P0)
    u_lower = band_states(k, P0, "lower")
    u_upper = band_states(k, P0, "upper")
    h = hamiltonian(k, P0)
    rebuilt = e_lower * np.outer(u_lower, u_lower.conj()) + (
        e_upper * np.outer(u_upper, u_upper.conj())
    )
    assert np.allclose(rebuilt, h, atol=1e-11)
    assert e_upper - e_lower > 0
    assert abs(np.vdot(u_lower, u_upper)) < 1e-12


@given(momenta, st.sampled_from(["lower", "upper"]))
@settings(max_examples=150, deadline=None)
def test_band_states_are_normalized_eigenvectors(kxy, band):
    k = np.array(kxy)
    u = band_states(k, P0, band=band)
    e_lo, e_up = band_energies(k, P0)
    e = e_lo if band == "lower" else e_up
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(hamiltonian(k, P0) @ u, e * u, atol=1e-10)


@given(momenta, st.sampled_from(["lower", "upper"]))
@settings(max_examples=150, deadline=None)
def test_gauge_fix_largest_component_real_positive(kxy, band):
    u = band_states(np.array(kxy), P0, band=band)
    mags = np.abs(u)
    # Near-ties are anchored on either component, so accept any maximal one.
    leads = u[mags >= mags.max() - 1e-9]
    assert any(abs(c.imag) < 1e-9 and c.real > 0 for c in leads)


def gauge_fixed_reference(fields, band):
    """The former construction of the states, kept here as a reference:
    the lower-band forms (hz - n, hx + i hy) where hz <= 0 and
    (-(hx - i hy), hz + n) elsewhere, normalized, the upper band as the
    orthogonal complement, then each state rotated so that its computed
    larger-modulus component is real positive, ties to the first."""
    hx, hy, hz = fields[1:4]
    n = np.sqrt(hx * hx + hy * hy + hz * hz)
    u = np.empty(np.shape(hx) + (2,), dtype=complex)
    use_a = hz <= 0
    u[..., 0] = np.where(use_a, hz - n, -(hx - 1j * hy))
    u[..., 1] = np.where(use_a, hx + 1j * hy, hz + n)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    if band == "upper":
        u = np.stack([-np.conj(u[..., 1]), np.conj(u[..., 0])], axis=-1)
    mags = np.abs(u)
    idx = (mags[..., 1] > mags[..., 0]).astype(int)
    comp = np.take_along_axis(u, idx[..., None], axis=-1)[..., 0]
    return u * np.conj(comp / np.abs(comp))[..., None]


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False),
)
@example(seed=0, tp=0.1, phi=np.pi / 2)
@example(seed=1, tp=0.0, phi=0.3)
@example(seed=2, tp=0.2, phi=0.0)
@example(seed=3, tp=0.2, phi=np.pi)
@settings(max_examples=60, deadline=None)
def test_closed_form_gauge(seed, tp, phi):
    """Over gapped momenta: the component the closed form puts on the real
    axis has the larger modulus, an imaginary part of exactly 0 and a
    positive real part; each state is a unit eigenvector of H(k) at its
    band energy; the bands are orthogonal; and where hz is nonzero beyond
    rounding the states are the former normalize-then-rotate states."""
    p = ModelParams(tp=tp, phi=phi)
    kpts = np.random.default_rng(seed).uniform(-7.0, 7.0, size=(256, 2))
    fields = bloch_fields(kpts, p)
    hx, hy, hz = fields[1:4]
    n = np.sqrt(hx * hx + hy * hy + hz * hz)
    gapped = 2 * n > 1e-6
    assume(np.any(gapped))
    kpts, fields, n = kpts[gapped], tuple(f[gapped] for f in fields), n[gapped]
    hz = fields[3]
    h = hamiltonian(kpts, p)
    e_lo, e_up = band_energies(kpts, p)
    states = {}
    for band, e, real_first in (("lower", e_lo, hz <= 0), ("upper", e_up, hz >= 0)):
        u = band_states(kpts, p, band)
        states[band] = u
        lead = np.where(real_first, u[:, 0], u[:, 1])
        other = np.where(real_first, u[:, 1], u[:, 0])
        assert np.all(lead.imag == 0.0) and np.all(lead.real > 0.0)
        assert np.all(np.abs(lead) >= np.abs(other) - 1e-15)
        assert np.all(np.abs(np.linalg.norm(u, axis=-1) - 1.0) <= 1e-15)
        residual = np.einsum("kij,kj->ki", h, u) - e[:, None] * u
        assert np.max(np.abs(residual)) <= 1e-12 * max(1.0, float(np.max(n)))
        resolved = np.abs(hz) > 1e-12 * n
        reference = gauge_fixed_reference(fields, band)
        assert np.max(np.abs(u - reference)[resolved], initial=0.0) <= 2e-16
    overlap = np.einsum("kc,kc->k", states["lower"].conj(), states["upper"])
    assert np.max(np.abs(overlap)) <= 1e-15


def _raw_closed_forms(fields, band):
    """The unnormalized closed forms of the band_states docstring, each
    real and imaginary part set on its own, the zeros as +0."""
    hx, hy, hz = fields[1:4]
    n = np.sqrt(hx * hx + hy * hy + hz * hz)
    if band == "lower":  # (n - hz, -(hx + i hy)) or (-(hx - i hy), hz + n)
        pick, parts = hz <= 0, [(n - hz, 0.0, -hx, -hy), (-hx, hy, hz + n, 0.0)]
    else:  # (hz + n, hx + i hy) or (hx - i hy, n - hz)
        pick, parts = hz >= 0, [(hz + n, 0.0, hx, hy), (hx, -hy, n - hz, 0.0)]
    u = np.empty(hx.shape + (2,), dtype=complex)
    for c in range(2):
        u[:, c].real = np.where(pick, parts[0][2 * c], parts[1][2 * c])
        u[:, c].imag = np.where(pick, parts[0][2 * c + 1], parts[1][2 * c + 1])
    return u


@pytest.mark.parametrize("band", ["lower", "upper"])
def test_state_normalization_is_bit_exact_with_linalg_norm(band):
    """states_from_fields divides by numpy's own norm expression, bit for
    bit, values and the signs of zeros, on both gauge branches, at hz = 0
    and at |h| just above gap_tol / 2."""
    rng = np.random.default_rng(11)
    m = 4000
    scale = np.concatenate([
        np.full(m, 1.0),
        np.full(m, 1e3),
        P0.gap_tol * rng.uniform(0.5 * (1 + 1e-12), 10.0, size=m),
    ])
    direction = rng.normal(size=(3, 3 * m))
    direction[2, ::7] = 0.0  # the tie at hz = 0
    direction[2, 1::7] = -0.0
    direction[:2, 3::14] = 0.0  # states with an exact zero component
    hx, hy, hz = scale * direction / np.sqrt(np.sum(direction**2, axis=0))
    fields = (np.zeros(3 * m), hx, hy, hz, np.sqrt(hx * hx + hy * hy + hz * hz))
    assert np.any(hz > 0) and np.any(hz < 0)
    assert np.all(2 * fields[4] >= P0.gap_tol)
    raw = _raw_closed_forms(fields, band)
    expected = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    got = chernscope.lattice.states_from_fields(
        fields, np.zeros((3 * m, 2)), P0, band
    )
    for part in ("real", "imag"):
        a, b = getattr(got, part), getattr(expected, part)
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize(
    "p", [ModelParams(tp=0.0), ModelParams(phi=0.0)], ids=["tp=0", "phi=0"]
)
def test_gauge_ties_go_to_the_first_component(p):
    """Where hz vanishes both components of a state have modulus |h|/sqrt2;
    the documented tie rule puts the first one on the positive real axis in
    both bands."""
    kpts = np.random.default_rng(7).uniform(-7.0, 7.0, size=(20000, 2))
    assert np.all(bloch_fields(kpts, p)[3] == 0.0)
    for band in ("lower", "upper"):
        first = band_states(kpts, p, band)[:, 0]
        assert np.all(first.imag == 0.0)
        assert np.all(first.real > 0.0)


def test_geometry_constants_are_computed_once_and_read_only():
    basis = np.stack([B1, B2], axis=1)
    assert np.allclose(INVERSE_RECIPROCAL_BASIS @ basis, np.eye(2), rtol=0, atol=1e-15)
    for constant in (NN_VECTORS, B1, B2, K, KP, INVERSE_RECIPROCAL_BASIS):
        with pytest.raises(ValueError):
            constant[0] = 0.0


def test_geometry_constants_equal_their_closed_forms():
    """Each constant bit for bit, at lattice scale a = 1."""
    s3 = np.sqrt(3.0)
    assert NN_VECTORS.tolist() == [[0.0, 1.0], [-s3 / 2, -0.5], [s3 / 2, -0.5]]
    assert B1.tolist() == [0.0, 4 * np.pi / 3]
    assert B2.tolist() == [2 * np.pi / s3, -2 * np.pi / 3]
    assert K.tolist() == [4 * np.pi / (3 * s3), 0.0]
    assert KP.tolist() == [-4 * np.pi / (3 * s3), 0.0]
    assert np.array_equal(
        INVERSE_RECIPROCAL_BASIS, np.linalg.inv(np.stack([B1, B2], axis=1))
    )


@given(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.sampled_from([0.0, 1e-13, 1e-11, 1e-7, 1e-3, 0.4]),
    st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_is_reciprocal_agrees_with_a_linear_solve(m, n, offset, angle):
    """The cached inverse basis classifies G as the 2x2 solve does."""
    G = m * B1 + n * B2 + offset * np.array([np.cos(angle), np.sin(angle)])
    coeff = np.linalg.solve(np.stack([B1, B2], axis=1), G)
    expected = bool(np.max(np.abs(coeff - np.round(coeff))) <= 1e-9)
    assert is_reciprocal(G) == expected


def test_band_states_vectorized_matches_pointwise():
    kpts = np.array([[0.1, 0.2], [1.0, -0.5], [-2.0, 0.7]])
    batch = band_states(kpts, P0)
    for k, u in zip(kpts, batch):
        assert np.allclose(u, band_states(k, P0), atol=1e-14)


def test_energies_opposite_without_nnn_hopping():
    p = ModelParams(tp=0.0, phi=0.0)
    kpts = np.array([[0.4, 0.9], [1.3, -0.2]])
    lo, up = band_energies(kpts, p)
    assert np.allclose(lo, -up, atol=1e-13)


def test_high_symmetry_path_markers():
    pts, markers = high_symmetry_path(points_per_segment=40)
    labels = [lab for _, lab in markers]
    assert labels == ["Gamma", "K", "M", "Kp", "Gamma"]
    assert np.allclose(pts[0], GAMMA)
    assert np.allclose(pts[-1], GAMMA)
    idx = dict((lab, i) for i, lab in markers)
    assert np.allclose(pts[idx["K"]], K, atol=1e-12)
    assert np.allclose(pts[idx["M"]], B1 / 2, atol=1e-12)


def test_high_symmetry_path_points_are_segment_lines():
    pts, markers = high_symmetry_path(points_per_segment=7)
    corners = [GAMMA, K, B1 / 2, KP, GAMMA]
    assert [i for i, _ in markers] == [0, 7, 14, 21, 28]
    for i, f in enumerate(np.linspace(0.0, 1.0, 7, endpoint=False)):
        for seg in range(4):
            a, b = corners[seg], corners[seg + 1]
            assert np.array_equal(pts[7 * seg + i], a + f * (b - a))
    assert np.array_equal(pts[-1], GAMMA)


def test_zone_corners_opposite():
    assert np.allclose(K, -KP, atol=1e-14)
    assert K[0] == pytest.approx(4 * np.pi / (3 * np.sqrt(3)), abs=1e-14)
    assert K[1] == 0.0
