"""Tests for the Bloch Hamiltonian, eigenvector gauge, and lattice geometry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernscope import (
    DEFAULT_GEOMETRY,
    GaplessPoint,
    LatticeGeometry,
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
    reciprocal_coefficients,
    sublattice_matching,
)

P0 = ModelParams()
GAMMA = np.zeros(2)
K = DEFAULT_GEOMETRY.K
KP = DEFAULT_GEOMETRY.Kp

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
    k . e_i or k . v_i per component."""
    g = p.geometry
    ke = [np.dot(k, e) for e in (g.e1, g.e2, g.e3)]
    kv = [np.dot(k, v) for v in (g.v1, g.v2, g.v3)]
    h0 = -2 * p.tp * np.cos(p.phi) * sum(np.cos(x) for x in kv)
    hx = -p.t * sum(np.cos(x) for x in ke)
    hy = -p.t * sum(np.sin(x) for x in ke)
    hz = -2 * p.tp * np.sin(p.phi) * sum(np.sin(x) for x in kv)
    return h0, hx, hy, hz


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


def test_geometry_refuses_nnn_vectors_off_the_nn_differences():
    g = DEFAULT_GEOMETRY
    assert np.array_equal(g.v1, g.e3 - g.e2)
    assert np.array_equal(g.v2, g.e1 - g.e3)
    assert np.array_equal(g.v3, g.e2 - g.e1)
    vectors = {name: getattr(g, name) for name in LatticeGeometry.__dataclass_fields__}
    for name in ("v1", "v2", "v3"):
        broken = dict(vectors, **{name: vectors[name] + np.array([1e-6, 0.0])})
        with pytest.raises(ValueError):
            LatticeGeometry(**broken)
    # Scaled geometries keep the identity up to rounding and are accepted.
    LatticeGeometry.with_scale(0.7)


def test_gamma_point_components():
    h0, hx, hy, hz = bloch_fields(GAMMA, P0)
    assert h0 == pytest.approx(0.0, abs=1e-15)
    assert hx == pytest.approx(-3.0, abs=1e-15)
    assert hy == pytest.approx(0.0, abs=1e-15)
    assert hz == pytest.approx(0.0, abs=1e-15)


def test_mass_term_at_zone_corner():
    _, hx, hy, hz = bloch_fields(K, P0)
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
    g = DEFAULT_GEOMETRY
    assert boundary_phase(g.b1) == pytest.approx(4 * np.pi / 3, abs=1e-12)
    assert boundary_phase(g.b1 + g.b2) == pytest.approx(2 * np.pi / 3, abs=1e-12)
    # 3 b1 . e1 = 4 pi, a full winding, so the matching phase vanishes.
    assert boundary_phase(3 * g.b1) % (2 * np.pi) == pytest.approx(0.0, abs=1e-9)


def test_boundary_phase_rejects_off_lattice_vector():
    with pytest.raises(NotReciprocal):
        boundary_phase(np.array([0.3, 0.2]))


def test_boundary_matrix_is_diagonal_unitary():
    v = boundary_matrix(DEFAULT_GEOMETRY.b1)
    assert np.allclose(v @ v.conj().T, np.eye(2), atol=1e-14)
    assert v[0, 1] == 0 and v[1, 0] == 0
    assert v[0, 0] == 1.0


def test_sublattice_matching_extends_boundary_matrix():
    g = DEFAULT_GEOMETRY
    w = sublattice_matching(g.b1 + g.b2, g)
    v = boundary_matrix(g.b1 + g.b2, g)
    assert np.allclose(w, np.diag(v), atol=1e-12)
    assert np.allclose(np.abs(w), 1.0, atol=1e-14)


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
    g = DEFAULT_GEOMETRY
    G = m * g.b1 + n * g.b2
    k = np.array(kxy)
    v = boundary_matrix(G, g)
    lhs = hamiltonian(k + G, P0)
    rhs = v @ hamiltonian(k, P0) @ v.conj().T
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(momenta, st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=100, deadline=None)
def test_reciprocal_coefficients_roundtrip(kxy, m, n):
    g = DEFAULT_GEOMETRY
    G = m * g.b1 + n * g.b2 + 0.0 * np.array(kxy)
    coeff = reciprocal_coefficients(G, g)
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
    assert np.allclose(pts[idx["M"]], DEFAULT_GEOMETRY.b1 / 2, atol=1e-12)


def test_zone_corners_opposite():
    assert np.allclose(K, -KP, atol=1e-14)
    assert K[0] == pytest.approx(4 * np.pi / (3 * np.sqrt(3)), abs=1e-14)
    assert K[1] == 0.0
