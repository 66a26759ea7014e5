import math

import numpy as np
import pytest

from indefsaddle import (
    BoxDomain,
    SpectralField,
    eigenvalue_growth_constant,
    enumerate_basis,
    frac_laplacian,
    l2_inner,
    sobolev_norm,
)
from indefsaddle.basis import grid_shape

from oracles import grid_points, grid_quadrature, heap_basis, sorted_basis


def test_interval_spectrum():
    basis = enumerate_basis(BoxDomain((math.pi,)), 3)
    assert np.array_equal(basis.eigenvalues, [1.0, 4.0, 9.0])
    # phi_k(x) = sqrt(2/pi) sin(kx) on the collocation nodes
    xs = grid_points(basis.domain, (7,))[0]
    values = basis.grid_tables((7,)).evaluate(SpectralField.unit(basis, 2).coeffs)
    expected = math.sqrt(2.0 / math.pi) * np.sin(2 * xs)
    assert np.abs(values - expected).max() < 1e-14


@pytest.mark.parametrize(
    "lengths, n, caps",
    [
        ((math.pi,), 50, (52,)),
        ((math.pi, math.pi), 400, (26, 26)),
        ((math.pi, math.pi, math.pi), 2000, (19, 19, 19)),
        ((1.0, 1.3), 400, (24, 31)),
        ((1.0, 1.2, 1.5), 2000, (16, 19, 24)),
        ((9.0, 0.3, 0.15), 100, (200, 4, 3)),
        ((0.1592, 9.4726, 0.2504), 368, (3, 200, 4)),
    ],
)
def test_enumeration_matches_sorted_candidates(lengths, n, caps):
    """The enumeration gives the sort of every candidate in a box of per-axis
    caps, bit for bit, on boxes whose sides are equal and differ."""
    domain = BoxDomain(lengths)
    basis, expected = enumerate_basis(domain, n), sorted_basis(domain, n, caps)
    assert np.array_equal(basis.indices, expected.indices)
    assert basis.eigenvalues.tobytes() == expected.eigenvalues.tobytes()
    assert basis == expected


def _outcome(build, lengths, n):
    """The indices and eigenvalue bytes of an enumeration, or its error."""
    try:
        basis = build(BoxDomain(lengths), n)
    except ValueError as exc:
        return str(exc)
    return basis.indices.tolist(), basis.eigenvalues.tobytes()


_RANDOM = np.random.default_rng(7)
HEAP_BOXES = [
    *(tuple(np.exp(_RANDOM.uniform(-3.0, 3.0, dim)).tolist()) for dim in (1, 2, 3) * 4),
    # equal sides, with tied eigenvalues
    (math.pi, math.pi), (math.pi, math.pi, math.pi), (2.0, 2.0, 4.0),
    # thin boxes, whose long side's modes round to one value
    (9.0, 0.3, 0.15), (0.1592, 9.4726, 0.2504), (1e20, 1.0), (1.0, 1e-100),
    # eigenvalues below and above the float range
    (1e300,), (1e-300,),
    # squares of the long side's modes overflow from m = 2 and 14: the walk
    # reaches the first only past n = 1, and never the second
    (math.pi * 1e-154, math.pi), (math.pi, math.pi * 1e-154), (math.pi * 1e-153, math.pi),
]


@pytest.mark.parametrize("n", [1, 4, 7, 8, 14, 32, 100, 400, 2000])
def test_enumeration_matches_the_heap_walk(n):
    """The hyperbolic cross gives the heap walk's indices and eigenvalues bit
    for bit, and its errors, on random, tied, thin and out-of-range boxes."""
    for lengths in HEAP_BOXES:
        assert _outcome(enumerate_basis, lengths, n) == _outcome(heap_basis, lengths, n), lengths


def test_enumeration_errors_follow_the_heap_walk_reach():
    """An overflowing square raises only where the walk computes it."""
    thin = BoxDomain((math.pi * 1e-154, math.pi))
    assert enumerate_basis(thin, 1).indices.tolist() == [[1, 1]]
    with pytest.raises(ValueError, match="above the float range"):
        enumerate_basis(thin, 2)  # the successor (2, 1) of the first index
    basis = enumerate_basis(BoxDomain((math.pi * 1e-153, math.pi)), 14)
    assert basis.indices.tolist() == [[1, m] for m in range(1, 15)]


@pytest.mark.parametrize("lengths", [(1e20, 1.0), (1.0, 1e-100)])
def test_enumeration_with_sides_orders_of_magnitude_apart(lengths):
    """The long side's modes round to one eigenvalue, and the ties go
    lexicographically: the first eight modes run along the long side."""
    basis = enumerate_basis(BoxDomain(lengths), 8)
    assert [tuple(i) for i in basis.indices.tolist()] == [(m, 1) for m in range(1, 9)]
    assert len(set(basis.eigenvalues.tolist())) == 1


def test_square_tie_break():
    basis = enumerate_basis(BoxDomain((math.pi, math.pi)), 2)
    assert np.array_equal(basis.eigenvalues, [2.0, 5.0])
    assert [tuple(i) for i in basis.indices] == [(1, 1), (1, 2)]


def test_square_full_tie_pair():
    basis = enumerate_basis(BoxDomain((math.pi, math.pi)), 3)
    assert [tuple(i) for i in basis.indices] == [(1, 1), (1, 2), (2, 1)]


def test_interval_growth_constant_exact():
    basis = enumerate_basis(BoxDomain((math.pi,)), 50)
    ks = np.arange(1, 51, dtype=float)
    assert np.array_equal(basis.eigenvalues, ks**2)
    assert eigenvalue_growth_constant(basis) == 1.0


def test_anisotropic_box_enumeration():
    # lambda = (m1/2)^2 + m2^2 on (0, 2 pi) x (0, pi); first few by hand
    basis = enumerate_basis(BoxDomain((2 * math.pi, math.pi)), 4)
    expected = [1.25, 2.0, 3.25, 4.25]  # (1,1), (2,1), (3,1), (4,1)... check
    # (1,1) = 0.25+1 = 1.25; (2,1) = 1+1 = 2; (3,1) = 2.25+1 = 3.25;
    # (1,2) = 0.25+4 = 4.25 vs (4,1) = 4+1 = 5 -> 4.25 comes first
    assert np.allclose(basis.eigenvalues, expected, rtol=0, atol=1e-12)
    assert tuple(basis.indices[3]) == (1, 2)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        enumerate_basis(BoxDomain((math.pi,)), 0)
    with pytest.raises(ValueError):
        BoxDomain(())
    with pytest.raises(ValueError):
        BoxDomain((1.0, -2.0))
    with pytest.raises(ValueError):
        BoxDomain((1.0, 1.0, 1.0, 1.0))


def test_frac_laplacian_examples():
    basis = enumerate_basis(BoxDomain((math.pi,)), 8)
    phi2 = SpectralField.unit(basis, 2)
    full = frac_laplacian(phi2, 2.0)
    assert np.abs(full.coeffs - 4.0 * phi2.coeffs).max() == 0.0
    rng = np.random.default_rng(0)
    f = SpectralField(basis, rng.standard_normal(8))
    assert np.array_equal(frac_laplacian(f, 0.0).coeffs, f.coeffs)


def test_frac_laplacian_semigroup():
    basis = enumerate_basis(BoxDomain((math.pi,)), 24)
    rng = np.random.default_rng(1)
    f = SpectralField(basis, rng.standard_normal(24))
    composed = frac_laplacian(frac_laplacian(f, 0.7), -0.3)
    direct = frac_laplacian(f, 0.4)
    assert np.abs(composed.coeffs - direct.coeffs).max() < 1e-13


def test_sobolev_norms():
    basis = enumerate_basis(BoxDomain((math.pi,)), 8)
    assert sobolev_norm(SpectralField.unit(basis, 2), 1.0) == 2.0
    rng = np.random.default_rng(2)
    f = SpectralField(basis, rng.standard_normal(8))
    assert sobolev_norm(f, 0.0) == pytest.approx(
        float(np.linalg.norm(f.coeffs)), abs=1e-15
    )
    both = SpectralField.unit(basis, 1) + SpectralField.unit(basis, 2)
    assert sobolev_norm(both, 2.0) == pytest.approx(math.sqrt(17.0), abs=1e-14)
    # norm of the half-Laplacian image agrees with the weighted norm
    assert sobolev_norm(frac_laplacian(f, 0.8), 0.0) == pytest.approx(
        sobolev_norm(f, 0.8), rel=1e-14
    )


def test_transform_roundtrip():
    for lengths in [(math.pi,), (math.pi, 1.3), (1.0, 0.7, 1.9)]:
        basis = enumerate_basis(BoxDomain(lengths), 10)
        rng = np.random.default_rng(3)
        f = SpectralField(basis, rng.standard_normal(10))
        tables = basis.grid_tables(grid_shape(basis, 4))
        back = tables.pairings(tables.evaluate(f.coeffs))
        assert np.abs(back - f.coeffs).max() < 1e-12


def test_from_grid_of_zero():
    basis = enumerate_basis(BoxDomain((math.pi, math.pi)), 6)
    assert not np.any(basis.grid_tables((8, 8)).pairings(np.zeros((8, 8))))


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("lengths", [(math.pi,), (math.pi, 1.3), (1.0, 0.7, 1.9)])
def test_row_stacks_match_row_by_row(lengths, rows):
    """A (rows, ...) stack gets bit for bit the values of one call per row."""
    basis = enumerate_basis(BoxDomain(lengths), 24)
    shape = grid_shape(basis, 4)
    tables = basis.grid_tables(shape)
    coeffs = np.random.default_rng(rows).standard_normal((rows, basis.size))
    values = tables.evaluate(coeffs)
    cubes = values**3
    pairings = tables.pairings(cubes)
    assert values.shape == (rows, *shape)
    assert pairings.shape == (rows, basis.size)
    for i in range(rows):
        assert np.array_equal(values[i], tables.evaluate(coeffs[i]))
        assert np.array_equal(pairings[i], tables.pairings(cubes[i]))


def test_grid_too_small_rejected():
    basis = enumerate_basis(BoxDomain((math.pi,)), 8)
    with pytest.raises(ValueError):
        basis.grid_tables((5,))
    with pytest.raises(ValueError):
        grid_shape(basis, 0)


def test_quartic_integral_of_first_mode():
    basis = enumerate_basis(BoxDomain((math.pi,)), 8)
    tables = basis.grid_tables(grid_shape(basis, 4))
    phi1 = tables.evaluate(SpectralField.unit(basis, 1).coeffs)
    value = grid_quadrature(np.abs(phi1) ** 4, basis.domain)
    # int phi1^4 = (2/pi)^2 * (3 pi / 8) = 3/(2 pi)
    assert value == pytest.approx(3.0 / (2.0 * math.pi), abs=1e-10)


def test_parseval_against_grid_quadrature():
    for lengths in [(math.pi,), (2.0, 1.1)]:
        basis = enumerate_basis(BoxDomain(lengths), 12)
        rng = np.random.default_rng(4)
        f = SpectralField(basis, rng.standard_normal(12))
        g = SpectralField(basis, rng.standard_normal(12))
        tables = basis.grid_tables(grid_shape(basis, 2))
        quad = grid_quadrature(tables.evaluate(f.coeffs) * tables.evaluate(g.coeffs), basis.domain)
        assert quad == pytest.approx(l2_inner(f, g), abs=1e-12)


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
def test_spectral_tail_bound(r):
    basis = enumerate_basis(BoxDomain((math.pi,)), 32)
    rng = np.random.default_rng(5)
    for k0 in (4, 11, 20):
        coeffs = np.zeros(32)
        coeffs[k0 - 1 :] = rng.standard_normal(32 - k0 + 1)
        tail = SpectralField(basis, coeffs)
        lam_k = basis.eigenvalues[k0 - 1]
        assert sobolev_norm(tail, 0.0) <= lam_k ** (-r / 2.0) * sobolev_norm(
            tail, r
        ) * (1.0 + 1e-14)
        single = SpectralField.unit(basis, k0)
        assert sobolev_norm(single, 0.0) == pytest.approx(
            lam_k ** (-r / 2.0) * sobolev_norm(single, r), rel=1e-14
        )


def test_mixed_bases_rejected():
    b1 = enumerate_basis(BoxDomain((math.pi,)), 8)
    b2 = enumerate_basis(BoxDomain((math.pi,)), 9)
    with pytest.raises(ValueError):
        SpectralField.unit(b1, 1) + SpectralField.unit(b2, 1)


def test_equal_bases_interoperate():
    b1 = enumerate_basis(BoxDomain((math.pi,)), 8)
    b2 = enumerate_basis(BoxDomain((math.pi,)), 8)
    assert b1 == b2
    total = SpectralField.unit(b1, 1) + SpectralField.unit(b2, 1)
    assert total.coeffs[0] == 2.0


def test_nonfinite_coefficients_rejected():
    basis = enumerate_basis(BoxDomain((math.pi,)), 4)
    with pytest.raises(ValueError):
        SpectralField(basis, [1.0, math.nan, 0.0, 0.0])


@pytest.mark.parametrize("lengths", [(1e-310,), (5e-324,), (math.pi, 1e-310)])
def test_side_whose_wave_number_overflows_is_above_the_float_range(lengths):
    """pi / L is inf for these sides; float division and inf ** 2 raise
    nothing, so the check is on pi / L itself."""
    with pytest.raises(ValueError, match="give eigenvalues above the float range"):
        enumerate_basis(BoxDomain(lengths), 4)


# boxes for the parity classes: random sides, tied sides (square, cube) and
# thin boxes, at sizes whose largest index per axis is odd and even
CLASS_BOXES = [
    ((math.pi,), 32), ((math.pi,), 33), ((1.3,), 1),
    ((1.0, 2.5), 40), ((math.pi, math.pi), 30), ((1.0, 1e-100), 9),
    ((1.0, 1.3, 2.0), 60), ((2.0, 2.0, 2.0), 60), ((9.0, 0.3, 0.15), 40),
]


@pytest.mark.parametrize("lengths, n", CLASS_BOXES)
def test_class_tables_agree_with_the_full_tables(lengths, n):
    """Each parity class's tables, on the first half of each grid axis, give
    the full tables' grid values, pairings, integrals and Galerkin blocks of
    the class's fields to roundoff, and the full pairings of the power of a
    class's field, and its Galerkin blocks between two classes, leak only
    roundoff off the class (the reflection argument of the module
    docstring)."""
    basis = enumerate_basis(BoxDomain(lengths), n)
    shape = grid_shape(basis, 4)
    full = basis.grid_tables(shape)
    half = (slice(None), *(slice(0, G // 2) for G in shape))
    rng = np.random.default_rng(n)
    codes = sorted(set(basis.parity_codes.tolist()))
    for code in codes:
        part, positions = basis.parity_class(code)
        assert basis.parity_class(code)[0] is part and part.parent is basis
        assert part.max_index == basis.max_index and (part == basis) == (part.size == n)
        assert part.parity == tuple((basis.indices[positions[0]] % 2).tolist())
        assert np.array_equal(part.indices, basis.indices[positions])
        tables = part.grid_tables(shape)
        coeffs = rng.standard_normal((3, part.size))
        embedded = np.zeros((3, n))
        embedded[:, positions] = coeffs
        values, class_values = full.evaluate(embedded), tables.evaluate(coeffs)
        assert np.abs(class_values - values[half]).max() <= 1e-13 * np.abs(values).max()
        cubes = values**3
        pairings, class_pairings = full.pairings(cubes), tables.pairings(class_values**3)
        size = np.abs(pairings).max()
        assert np.abs(class_pairings - pairings[:, positions]).max() <= 1e-13 * size
        assert np.abs(np.delete(pairings, positions, axis=1)).max(initial=0.0) <= 1e-13 * size
        quartics = full.integrate(values**4)
        assert np.abs(tables.integrate(class_values**4) - quartics).max() <= 1e-13 * quartics.max()
        weights = values**2
        blocks, class_blocks = full.galerkin(weights), tables.galerkin(class_values**2)
        size = np.abs(blocks).max()
        inside = blocks[:, positions][:, :, positions]
        assert np.abs(class_blocks - inside).max() <= 1e-13 * size
        across = np.delete(blocks, positions, axis=2)[:, positions]
        assert np.abs(across).max(initial=0.0) <= 1e-13 * size
    assert sum(basis.parity_class(code)[0].size for code in codes) == n


def test_class_tables_need_grid_axes_of_even_length():
    """At oversample 3 and an odd largest index the grid axis has odd
    length; its midpoint is its own mirror image, and no class table reads
    the first half of the axis."""
    basis = enumerate_basis(BoxDomain((math.pi,)), 7)
    part, _ = basis.parity_class(1)
    assert grid_shape(basis, 3) == (21,)
    with pytest.raises(ValueError, match="even length"):
        part.grid_tables((21,))
    assert part.grid_tables((28,)).points == 14
