import itertools
import math
import sys

import numpy as np
import pytest

from indefsaddle import (
    PQPoint,
    RegionRow,
    admissible_r_interval,
    defect_rates,
    growth_exponents,
    hyperbola_boundary_p,
    hyperbola_gap,
    in_multiplicity_region,
    interpolation_exponents,
    multiplicity_boundary_p,
    multiplicity_margin,
    optimal_r,
    r_thresholds,
)
from indefsaddle.region import _power
from indefsaddle.suite import _random_subcritical, check_region_closed_forms

from oracles import scalar_region_rows, scan_rows

README_GRID = [1.05 + i * 0.05 for i in range(100)]
# near p = q = 1, where the balance point's denominator pq - 1 cancels
NEAR_ONE_GRID = [1.001 + i * 0.01 for i in range(40)]


def test_hyperbola_gap_examples():
    assert hyperbola_gap(PQPoint(2.0, 2.0, 6)) == pytest.approx(0.0, abs=1e-15)
    assert hyperbola_gap(PQPoint(3.0, 3.0, 3)) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert hyperbola_gap(PQPoint(5.0, 5.0, 1)) == math.inf
    assert hyperbola_gap(PQPoint(5.0, 5.0, 2)) == math.inf


def test_hyperbola_intercept_against_axis_label():
    # q -> 1 on the hyperbola gives p = (N+4)/(N-4); evaluated at N = 6: p = 5
    assert hyperbola_boundary_p(1.0, 6) == pytest.approx(5.0, abs=1e-12)
    pt = PQPoint(p=5.0, q=1.0 + 1e-13, N=6)
    assert abs(hyperbola_gap(pt)) < 1e-12


def test_admissible_interval_examples():
    assert admissible_r_interval(PQPoint(3.0, 3.0, 3)) == pytest.approx((0.75, 1.25))
    assert admissible_r_interval(PQPoint(3.0, 3.0, 4)) is None
    assert admissible_r_interval(PQPoint(2.0, 2.0, 3)) == pytest.approx((0.5, 1.5))
    assert admissible_r_interval(PQPoint(2.0, 2.0, 2)) == (0.0, 2.0)


def test_admissible_nonempty_iff_subcritical():
    rng = np.random.default_rng(0)
    for _ in range(500):
        N = int(rng.integers(3, 11))
        p = float(rng.uniform(1.01, 8.0))
        q = float(rng.uniform(1.01, 8.0))
        pt = PQPoint(p, q, N)
        assert (admissible_r_interval(pt) is not None) == (hyperbola_gap(pt) > 0.0)


def test_interpolation_exponent_examples():
    theta, zeta = interpolation_exponents(PQPoint(3.0, 3.0, 3), 1.0)
    assert theta == pytest.approx(0.25, abs=1e-15)
    assert zeta == pytest.approx(0.25, abs=1e-15)
    # boundary degeneracy: theta -> 0 as r drops to the window edge
    pt = PQPoint(3.0, 3.0, 3)
    lo = 3.0 * (0.5 - 0.25)
    theta_edge, _ = interpolation_exponents(pt, lo + 1e-6)
    assert 0.0 < theta_edge < 2e-6
    with pytest.raises(ValueError):
        interpolation_exponents(pt, lo - 1e-6)


def test_growth_exponent_examples():
    q1, p1, alpha = growth_exponents(PQPoint(3.0, 3.0, 3), 1.0)
    assert (q1, p1, alpha) == pytest.approx((1 / 6, 1 / 6, 1 / 6), abs=1e-15)
    q1, p1, alpha = growth_exponents(PQPoint(2.0, 2.0, 3), 1.0)
    assert (q1, p1, alpha) == pytest.approx((0.5, 0.5, 0.5), abs=1e-15)


def test_balance_identity_fuzz():
    rng = np.random.default_rng(1)
    for _ in range(500):
        N = int(rng.integers(3, 11))
        pt = _random_subcritical(rng, N)
        balanced = r_thresholds(pt).balanced
        q1, p1, _ = growth_exponents(pt, balanced)
        assert abs(q1 - p1) < 1e-12


@pytest.mark.parametrize("seed", [2, 27, 76])
def test_closed_forms_check_passes_near_p_q_one(seed):
    # these seeds draw points near p = q = 1, where the balance point's
    # denominator pq - 1 cancels unless it is summed as (p - 1) q + (q - 1)
    result = check_region_closed_forms(seed)
    assert result.passed, result.detail


def test_threshold_examples():
    th = r_thresholds(PQPoint(2.0, 2.0, 3))
    assert th.balanced == pytest.approx(1.0, abs=1e-15)
    assert th.lower == pytest.approx(1.25, abs=1e-15)
    assert th.upper == pytest.approx(0.75, abs=1e-15)
    # p = q always balances at one
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = float(rng.uniform(1.01, 9.0))
        assert r_thresholds(PQPoint(p, p, 5)).balanced == pytest.approx(1.0, abs=1e-12)


def test_threshold_ordering_on_subcritical_points():
    rng = np.random.default_rng(3)
    for _ in range(500):
        N = int(rng.integers(3, 11))
        pt = _random_subcritical(rng, N)
        window = admissible_r_interval(pt)
        assert window[0] < r_thresholds(pt).balanced < window[1]


def test_multiplicity_check_examples():
    # 7/6 < 4/3: outside
    assert not in_multiplicity_region(PQPoint(2.0, 2.0, 3))
    # 2/2.2 + (2.2/(1.2*2.2)) = 1.742... > 4/3: inside
    assert in_multiplicity_region(PQPoint(1.2, 1.2, 3))
    margin = multiplicity_margin(PQPoint(1.2, 1.2, 3))
    assert margin == pytest.approx(2.0 / 2.2 + 1.0 / 1.2 - 4.0 / 3.0, abs=1e-15)
    with pytest.raises(ValueError, match="N >= 3"):
        in_multiplicity_region(PQPoint(2.0, 2.0, 2))


@pytest.mark.parametrize("curve", [hyperbola_boundary_p, multiplicity_boundary_p])
@pytest.mark.parametrize("q, N, name", [
    (1.0, 0.0, "N"), (1.0, -1.0, "N"), (1.0, math.inf, "N"), (1.0, math.nan, "N"),
    (-1.0, 5.0, "q"), (0.0, 5.0, "q"), (math.inf, 5.0, "q"), (math.nan, 5.0, "q"),
])
def test_boundary_curves_reject_nonpositive_and_non_finite_arguments(curve, q, N, name):
    """A non-positive or non-finite q or N raises a ValueError naming it,
    not a ZeroDivisionError or a point on no curve (N = -1 gave p = -0.6)."""
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        curve(q, N)


def test_boundary_curves_keep_their_values_on_positive_arguments():
    for N in (0.5, 1.0, 2.0):  # no hyperbola for N <= 2
        assert hyperbola_boundary_p(1.0, N) == math.inf
    assert multiplicity_boundary_p(1.0, 1.0) == math.inf
    assert multiplicity_boundary_p(1.0, 2.0) == 5.0
    assert hyperbola_boundary_p(0.5, 10.0) == pytest.approx(6.5, rel=1e-12)


@pytest.mark.parametrize("N", [1e308, sys.float_info.max])
def test_multiplicity_boundary_stays_finite_where_2n_overflows(N):
    """At q = 1 the curve (3N+4)/(3N-4) tends to 1; 2N overflows here, which
    gave -1.0, and the curve still reads 1.0 as it does at N = 1e300."""
    assert multiplicity_boundary_p(1.0, 1e300) == 1.0
    assert multiplicity_boundary_p(1.0, N) == 1.0


def test_multiplicity_boundary_intercept():
    # q -> 1 boundary at p = (3N+4)/(3N-4); N = 6 gives 11/7
    assert multiplicity_boundary_p(1.0, 6) == pytest.approx(11.0 / 7.0, abs=1e-12)
    eps = 1e-8
    pt = PQPoint(p=11.0 / 7.0, q=1.0 + eps, N=6)
    assert abs(multiplicity_margin(pt)) < 1e-7  # margin -> 0 with eps


def test_optimal_r_examples():
    best = optimal_r(PQPoint(3.0, 3.0, 3))
    assert best.r_star == pytest.approx(1.0, abs=1e-12)
    best = optimal_r(PQPoint(1.2, 1.2, 3))
    assert best.r_star == pytest.approx(1.0, abs=1e-12)
    assert best.feasible
    q1, _, _ = growth_exponents(PQPoint(1.2, 1.2, 3), 1.0)
    assert 2.0 * q1 == pytest.approx(19.0 / 3.0, abs=1e-12)
    assert max(defect_rates(PQPoint(1.2, 1.2, 3))) == pytest.approx(11.0 / 6.0)
    assert optimal_r(PQPoint(4.0, 4.0, 5)) is None  # supercritical at N=5


def test_equivalence_fuzz():
    rng = np.random.default_rng(4)
    tested = 0
    for _ in range(2000):
        N = int(rng.integers(3, 11))
        pt = _random_subcritical(rng, N)
        if abs(multiplicity_margin(pt)) < 1e-9:
            continue
        tested += 1
        assert in_multiplicity_region(pt) == optimal_r(pt).feasible
    assert tested > 1900


def test_swap_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(300):
        N = int(rng.integers(3, 11))
        pt = _random_subcritical(rng, N)
        swapped = PQPoint(pt.q, pt.p, N)
        assert in_multiplicity_region(pt) == in_multiplicity_region(swapped)
        assert hyperbola_gap(pt) == pytest.approx(hyperbola_gap(swapped), rel=1e-14)
        # the balance points mirror: r(q,p) = 2 - r(p,q)
        assert r_thresholds(swapped).balanced == pytest.approx(
            2.0 - r_thresholds(pt).balanced, rel=1e-12
        )


def test_power_reads_inf_past_the_float_range():
    # near p = q = 1 the lower exponent 2 alpha is about 13333: k^(2 alpha)
    # leaves the float range at k = 2 and reads inf there, not OverflowError
    _, _, alpha = growth_exponents(PQPoint(1.0001, 1.0001, 3), 1.0)
    assert _power(1, 2.0 * alpha) == 1.0
    assert all(_power(k, 2.0 * alpha) == math.inf for k in range(2, 8))
    assert _power(3, 2.0, 0.5) == 4.5


def test_bound_curves_equal_exponents_reduce():
    # p = q: both defect rates coincide, single-equation comparison
    pt = PQPoint(3.0, 3.0, 3)
    rate_u, rate_v = defect_rates(pt)
    assert rate_u == rate_v


def test_region_scan_properties():
    rows = scan_rows(6, [1.1, 1.5, 2.5, 5.5], [1.1, 1.5, 2.5, 5.5])
    by_key = {(row.p, row.q): row for row in rows}
    for row in rows:
        mirrored = by_key[(row.q, row.p)]
        assert row.status == mirrored.status
        # every inside point is strictly subcritical
        if row.status == "inside":
            assert row.subcritical and row.hyperbola_gap > 0.0
    # rows come out in deterministic scan order
    assert [((r.p, r.q)) for r in rows[:4]] == [
        (1.1, 1.1), (1.1, 1.5), (1.1, 2.5), (1.1, 5.5)
    ]


def test_readme_grid_scans_within_roundoff_of_the_hyperbola():
    # the README grid holds points whose hyperbola gap is a rounding error,
    # such as p = 4.0, q = 1.5 at N = 5 and p = 1.5, q = 2.75 at N = 6
    grid = [1.05 + i * 0.05 for i in range(100)]
    for N in range(3, 13):
        for row in scan_rows(N, grid, grid):
            if abs(row.hyperbola_gap) < 1e-9:
                assert row.status == "boundary" and row.r_star is None
            if row.r_star is None:
                continue
            pt = PQPoint(row.p, row.q, N)
            lo, hi = admissible_r_interval(pt)
            assert lo < row.r_star < hi
            growth_exponents(pt, row.r_star)
    near = scan_rows(6, [1.5], [2.75])[0]
    assert 0.0 < near.hyperbola_gap < 1e-15
    assert near.status == "boundary" and near.r_star is None and near.feasible is None


@pytest.mark.parametrize("N", [3, 5, 6])
def test_scan_rows_carry_the_region_formulas(N):
    # every fifth README-grid value, which keeps the points of the README
    # grid within roundoff of the hyperbola (p = 4.0, q = 1.5 and p = 1.5,
    # q = 2.75): boundary rows with no r_star occur at each N
    grid = [1.05 + i * 0.05 for i in range(4, 100, 5)]
    rows = scan_rows(N, grid, grid)
    assert any(row.status == "boundary" and row.r_star is None for row in rows)
    for row in rows:
        pt = PQPoint(row.p, row.q, N)
        assert row.r_balanced == r_thresholds(pt).balanced
        exponents = (row.growth_u, row.growth_v, row.alpha)
        if row.r_star is None:
            assert exponents == (None, None, None)
        else:
            assert exponents == growth_exponents(pt, row.r_star)


def test_optimal_r_strictly_inside_narrow_windows():
    # q a few ulps to a few thousand ulps below the hyperbola: the window is
    # that narrow, and r_star must still lie strictly inside it (or be None)
    for N in range(3, 13):
        for p in np.linspace(1.1, 5.0, 40):
            q_edge = hyperbola_boundary_p(p, N)  # the hyperbola is symmetric in p, q
            if not 1.0 < q_edge < math.inf:
                continue
            for ulps in (1, 3, 10, 100, 1000):
                pt = PQPoint(p, q_edge * (1.0 - ulps * 1e-16), N)
                window = admissible_r_interval(pt)
                best = optimal_r(pt)
                if best is not None:
                    assert window[0] < best.r_star < window[1]


def test_optimal_r_found_whenever_a_float_lies_inside_the_window():
    # a window a few ulps wide has floats strictly inside, and r_star is one
    found = 0
    for N in range(3, 13):
        for p in np.linspace(1.1, 5.0, 40):
            q_edge = hyperbola_boundary_p(p, N)
            if not 1.0 < q_edge < math.inf:
                continue
            for ulps in (3, 10, 100):
                pt = PQPoint(float(p), q_edge * (1.0 - ulps * 1e-16), N)
                window = admissible_r_interval(pt)
                if window is None or not math.nextafter(window[0], 2.0) < window[1]:
                    continue
                found += 1
                assert optimal_r(pt) is not None, pt
    assert found > 100


def test_pqpoint_validation():
    with pytest.raises(ValueError):
        PQPoint(1.0, 2.0, 3)
    with pytest.raises(ValueError, match="finite"):
        PQPoint(math.nan, 2.0, 3)
    with pytest.raises(ValueError, match="finite"):
        PQPoint(2.0, math.inf, 3)
    with pytest.raises(ValueError):
        PQPoint(2.0, 2.0, 0)


@pytest.mark.parametrize("grid", [README_GRID, NEAR_ONE_GRID], ids=["readme", "near_one"])
@pytest.mark.parametrize("N", range(3, 13))
def test_scan_matches_scalar_oracle(N, grid):
    # the array formulas against the public scalar functions point by point:
    # equal values of equal types, None in the same places
    rows = scan_rows(N, grid, grid)
    expected = scalar_region_rows(N, grid, grid)
    assert len(rows) == len(expected) == len(grid) ** 2
    for row, want in zip(rows, expected):
        for name, got, value in zip(RegionRow._fields, row, want):
            assert (got is None) == (value is None), (name, row, want)
            assert got == value and type(got) is type(value), (name, row, want)


def test_scan_cells_are_python_values():
    kinds = {
        name: {type(value) for value in column}
        for name, column in zip(RegionRow._fields, zip(*scan_rows(6, README_GRID, README_GRID)))
    }
    optional = {float, type(None)}
    assert kinds == {
        "p": {float}, "q": {float}, "hyperbola_gap": {float}, "subcritical": {bool},
        "status": {str}, "r_star": optional, "feasible": {bool, type(None)},
        "r_balanced": {float}, "growth_u": optional, "growth_v": optional, "alpha": optional,
    }


BAD_GRIDS = [
    (0, [2.0], [2.0], "dimension must be at least 1"),
    (0, [2.0], [math.nan], "must be finite"),
    (1, [2.0], [2.0], "N >= 3 only"),
    (2, [2.0, 3.0], [2.0, 1.0], "N >= 3 only"),
    (2, [2.0], [1.0, 2.0], "must exceed 1"),
    (5, [2.0, 1.0], [2.0], "must exceed 1"),
    (5, [1.0, 2.0], [2.0, math.inf], "must exceed 1"),
    (5, [2.0, 1.0], [2.0, math.nan], "must be finite"),
    (5, [2.0, math.inf], [2.0], "must be finite"),
    (5, [2.0, 3.0], [3.0, 2.0, -math.inf, 1.0], "must be finite"),
]


@pytest.mark.parametrize("N, p_grid, q_grid, message", BAD_GRIDS)
def test_scan_raises_the_error_of_its_first_bad_point(N, p_grid, q_grid, message):
    # the error, and the point it names, of the first bad point in scan order
    with pytest.raises(ValueError, match=message) as got:
        scan_rows(N, p_grid, q_grid)
    with pytest.raises(ValueError) as want:
        scalar_region_rows(N, p_grid, q_grid)
    assert str(got.value) == str(want.value)


def test_scan_of_an_empty_grid():
    assert scan_rows(5, [], [2.0]) == []
    assert scan_rows(5, [2.0], []) == []
    assert scan_rows(0, [], [math.nan]) == []


@pytest.mark.parametrize("block", [1, 7, 150, 4096, None], ids=["1", "7", "150", "4096", "default"])
def test_scan_blocks_join_to_the_scan(monkeypatch, block):
    """Every block but the last holds _BLOCK points, one column per RegionRow
    field; blocks of more than one point cross p rows, as no block size here
    divides a q row of 1,501 points, which is longer than the default block.  The blocks join, cell for cell, to the rows of the
    scalar oracle."""
    from indefsaddle import region

    p_grid, q_grid = [1.5, 2.5, 4.0], [1.001 + i * 0.002 for i in range(1501)]
    if block is not None:
        monkeypatch.setattr(region, "_BLOCK", block)
    blocks = list(region.scan_blocks(6, p_grid, q_grid))
    sizes = [len(b[0][0]) for b in blocks]
    assert sizes[:-1] == [region._BLOCK] * (len(sizes) - 1)
    assert 0 < sizes[-1] <= region._BLOCK and sum(sizes) == 3 * 1501
    ends = list(itertools.accumulate(sizes))
    crossing = [(end - size) // 1501 != (end - 1) // 1501 for end, size in zip(ends, sizes)]
    assert any(crossing) == (region._BLOCK > 1)
    for b in blocks:
        assert len(b) == len(RegionRow._fields)
        assert {len(values) for values, _ in b} == {len(b[0][0])}
    expected = scalar_region_rows(6, p_grid, q_grid)
    for row, want in zip(scan_rows(6, p_grid, q_grid), expected, strict=True):
        for name, got, value in zip(RegionRow._fields, row, want):
            assert got == value and type(got) is type(value), (name, row, want)


@pytest.mark.parametrize("N, p_grid, q_grid, message", BAD_GRIDS)
def test_scan_blocks_raise_before_the_first_block(N, p_grid, q_grid, message):
    """A bad grid raises at the call, so no block of it is ever written."""
    from indefsaddle import region

    with pytest.raises(ValueError) as got:
        region.scan_blocks(N, p_grid, q_grid)
    with pytest.raises(ValueError) as want:
        scalar_region_rows(N, p_grid, q_grid)
    assert str(got.value) == str(want.value)


def test_scan_blocks_of_an_empty_grid():
    from indefsaddle import region

    assert list(region.scan_blocks(5, [], [2.0])) == []
    assert list(region.scan_blocks(0, [], [math.nan])) == []
