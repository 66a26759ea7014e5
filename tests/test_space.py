import math

import numpy as np
import pytest

from indefsaddle import (
    BoxDomain,
    FieldPair,
    SpectralField,
    apply_coupling,
    coupling_eigenvector,
    coupling_form,
    enumerate_basis,
    eigenvector_coordinates,
    from_eigenvector_coordinates,
    pair_inner,
    pair_norm,
    split_pair,
)

from oracles import grid_points


@pytest.fixture(scope="module")
def basis():
    return enumerate_basis(BoxDomain((math.pi,)), 24)


def random_pair(basis, r, rng, scale=1.0):
    n = basis.size
    return FieldPair(
        SpectralField(basis, scale * rng.standard_normal(n)),
        SpectralField(basis, scale * rng.standard_normal(n)),
        r,
    )


def test_pair_norm_examples(basis):
    z = FieldPair(SpectralField.unit(basis, 1), SpectralField.zero(basis), 0.7)
    assert pair_norm(z) == pytest.approx(1.0, abs=1e-14)  # lambda_1 = 1
    e1 = coupling_eigenvector(basis, 1, +1, 1.2)
    assert pair_norm(e1) == pytest.approx(1.0, abs=1e-14)
    assert pair_norm(FieldPair.zero(basis, 1.0)) == 0.0


def test_coupling_swap_at_r_one(basis):
    z = FieldPair(SpectralField.unit(basis, 1), SpectralField.zero(basis), 1.0)
    lz = apply_coupling(z)
    assert not np.any(lz.u.coeffs)
    assert np.array_equal(lz.v.coeffs, z.u.coeffs)


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
def test_coupling_involution_and_selfadjoint(basis, r):
    rng = np.random.default_rng(7)
    for _ in range(25):
        z = random_pair(basis, r, rng)
        w = random_pair(basis, r, rng)
        lz = apply_coupling(z)
        llz = apply_coupling(lz)
        scale = max(1.0, pair_norm(z))
        assert np.abs(llz.u.coeffs - z.u.coeffs).max() / scale < 1e-12
        assert np.abs(llz.v.coeffs - z.v.coeffs).max() / scale < 1e-12
        sym_gap = pair_inner(lz, w) - pair_inner(z, apply_coupling(w))
        assert abs(sym_gap) / max(1.0, pair_norm(z) * pair_norm(w)) < 1e-12


def test_quadratic_form_examples(basis):
    phi1 = SpectralField.unit(basis, 1)
    z = FieldPair(phi1, phi1, 1.0)
    assert coupling_form(z) == pytest.approx(1.0, abs=1e-14)
    e1 = coupling_eigenvector(basis, 1, +1, 1.0)
    assert coupling_form(e1) == pytest.approx(0.5, abs=1e-14)
    flipped = FieldPair(phi1, -phi1, 1.0)
    assert coupling_form(flipped) == pytest.approx(-1.0, abs=1e-14)


def test_quadratic_form_is_gradient_coupling(basis):
    # for r = 1 and resolved fields the form equals int u' v' on the grid
    rng = np.random.default_rng(8)
    decay = basis.eigenvalues**-1.0
    u = SpectralField(basis, decay * rng.standard_normal(basis.size))
    v = SpectralField(basis, decay * rng.standard_normal(basis.size))
    z = FieldPair(u, v, 1.0)
    G = 512
    xs = grid_points(basis.domain, (G,))[0]
    xs_full = np.concatenate([[0.0], xs, [math.pi]])
    scale = math.sqrt(2.0 / math.pi)
    ks = np.arange(1, basis.size + 1)
    du = (u.coeffs * ks * scale) @ np.cos(np.outer(ks, xs_full))
    dv = (v.coeffs * ks * scale) @ np.cos(np.outer(ks, xs_full))
    quad = np.trapezoid(du * dv, xs_full)
    assert coupling_form(z) == pytest.approx(float(quad), abs=1e-10)


def test_eigenvector_example_r1(basis):
    e1 = coupling_eigenvector(basis, 1, +1, 1.0)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert e1.u.coeffs[0] == pytest.approx(inv_sqrt2, abs=1e-15)
    assert e1.v.coeffs[0] == pytest.approx(inv_sqrt2, abs=1e-15)


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
def test_eigenvector_orthonormal_family(basis, r):
    vecs = [
        coupling_eigenvector(basis, k, s, r)
        for k in range(1, 13)
        for s in (+1, -1)
    ]
    for e in vecs:
        le = apply_coupling(e)
        sign = 1.0 if pair_inner(le, e) > 0 else -1.0
        assert np.abs(le.u.coeffs - sign * e.u.coeffs).max() < 1e-12
    gram = np.array([[pair_inner(a, b) for b in vecs] for a in vecs])
    assert np.abs(gram - np.eye(len(vecs))).max() < 1e-12


def test_eigenvector_rank_out_of_range(basis):
    with pytest.raises(ValueError):
        coupling_eigenvector(basis, basis.size + 1, +1, 1.0)
    with pytest.raises(ValueError):
        coupling_eigenvector(basis, 1, 0, 1.0)


def test_split_examples(basis):
    phi1 = SpectralField.unit(basis, 1)
    z = FieldPair(phi1, SpectralField.zero(basis), 1.0)
    parts = split_pair(z)
    assert np.abs(parts.plus.u.coeffs[0] - 0.5) < 1e-15
    assert np.abs(parts.plus.v.coeffs[0] - 0.5) < 1e-15
    assert np.abs(parts.minus.u.coeffs[0] - 0.5) < 1e-15
    assert np.abs(parts.minus.v.coeffs[0] + 0.5) < 1e-15


def test_split_is_projector(basis):
    rng = np.random.default_rng(9)
    coords = rng.standard_normal(6)
    z = sum(
        (float(c) * coupling_eigenvector(basis, k + 1, +1, 0.8) for k, c in enumerate(coords)),
        start=FieldPair.zero(basis, 0.8),
    )
    parts = split_pair(z)
    assert pair_norm(parts.minus) < 1e-13 * max(1.0, pair_norm(z))
    again = split_pair(parts.plus)
    assert pair_norm(again.minus) < 1e-13 * max(1.0, pair_norm(z))


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
def test_split_identities(basis, r):
    rng = np.random.default_rng(10)
    for _ in range(25):
        z = random_pair(basis, r, rng)
        parts = split_pair(z)
        back = parts.plus + parts.minus
        scale = max(1.0, pair_norm(z) ** 2)
        assert np.abs(back.u.coeffs - z.u.coeffs).max() < 1e-12 * scale
        assert abs(pair_inner(parts.plus, parts.minus)) < 1e-12 * scale
        form_sum = coupling_form(parts.plus) + coupling_form(parts.minus)
        assert abs(form_sum - coupling_form(z)) < 1e-12 * scale
        form_gap = coupling_form(parts.plus) - coupling_form(parts.minus)
        assert abs(form_gap - 0.5 * pair_norm(z) ** 2) < 1e-12 * scale


def test_eigenvector_coordinates_roundtrip(basis):
    rng = np.random.default_rng(11)
    z = random_pair(basis, 1.3, rng)
    a_plus, a_minus = eigenvector_coordinates(z)
    back = from_eigenvector_coordinates(basis, 1.3, a_plus, a_minus)
    assert np.abs(back.u.coeffs - z.u.coeffs).max() < 1e-12
    assert np.abs(back.v.coeffs - z.v.coeffs).max() < 1e-12
    # coordinates are the product-space inner products with the basis vectors
    assert a_plus[2] == pytest.approx(
        pair_inner(z, coupling_eigenvector(basis, 3, +1, 1.3)), rel=1e-12
    )


@pytest.mark.parametrize("a_plus, a_minus, name", [
    ([1.0], [0.0], "a_plus"),
    (np.ones(24), np.zeros(25), "a_minus"),
    (np.ones((1, 24)), np.zeros(24), "a_plus"),
])
def test_coordinates_of_another_length_are_rejected(basis, a_plus, a_minus, name):
    """Coordinates are not broadcast: a one-entry a_plus used to set all n
    u coefficients."""
    with pytest.raises(ValueError, match=f"^{name} must have 24 entries"):
        from_eigenvector_coordinates(basis, 1.0, a_plus, a_minus)


def test_combined_tail_bound(basis):
    # both components supported on ranks >= k: squared L2 size is controlled
    # by max(lam_k^-r, lam_k^(r-2)) times the squared pair norm
    rng = np.random.default_rng(12)
    r = 0.9
    k0 = 12
    coeffs_u = np.zeros(basis.size)
    coeffs_v = np.zeros(basis.size)
    coeffs_u[k0 - 1 :] = rng.standard_normal(basis.size - k0 + 1)
    coeffs_v[k0 - 1 :] = rng.standard_normal(basis.size - k0 + 1)
    z = FieldPair(SpectralField(basis, coeffs_u), SpectralField(basis, coeffs_v), r)
    lam_k = basis.eigenvalues[k0 - 1]
    lhs = float(np.dot(coeffs_u, coeffs_u) + np.dot(coeffs_v, coeffs_v))
    bound = max(lam_k**-r, lam_k ** (r - 2.0)) * pair_norm(z) ** 2
    assert lhs <= bound * (1.0 + 1e-14)


def test_mixed_r_rejected(basis):
    a = FieldPair.zero(basis, 0.5)
    b = FieldPair.zero(basis, 1.5)
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        pair_inner(a, b)


def test_r_out_of_range_rejected(basis):
    z = SpectralField.zero(basis)
    with pytest.raises(ValueError):
        FieldPair(z, z, 0.0)
    with pytest.raises(ValueError):
        FieldPair(z, z, 2.0)
