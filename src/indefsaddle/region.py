"""Exponent-plane analysis for the coupled system: admissible windows and curves.

All quantities are closed-form functions of the nonlinearity exponents p, q,
the dimension N, and the split parameter r.  Region predicates use strict
inequalities; scan rows classify near-boundary points separately instead of
collapsing them to true/false.

Each closed form is written once, as a private elementwise function of
floats or numpy arrays (`_gap`, `_window`, `_balanced`, `_margin`,
`_growth`, `_optimal_r`): the public functions call it with the floats of
one point, and scan_blocks with whole columns of a block of the grid.  Its
branches are masks, so that both evaluate the same IEEE operations in the
same order and agree bit for bit.  The blocks stay numpy columns, from
which the CLI writes its files.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class PQPoint:
    """A point of the exponent plane with ambient dimension N."""

    p: float
    q: float
    N: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError(f"exponents must be finite, got p={self.p}, q={self.q}")
        if not (self.p > 1.0 and self.q > 1.0):
            raise ValueError(f"exponents must exceed 1, got p={self.p}, q={self.q}")
        if self.N < 1:
            raise ValueError(f"dimension must be at least 1, got {self.N}")


def hyperbola_gap(pt: PQPoint) -> float:
    """Subcriticality margin 1/(p+1) + 1/(q+1) - (N-2)/N.

    Positive below the dividing hyperbola, zero on it.  For N <= 2 there is
    no constraint and +inf is returned.
    """
    if pt.N <= 2:
        return math.inf
    return _gap(pt.p, pt.q, pt.N)


def _gap(p, q, N):
    return 1.0 / (p + 1.0) + 1.0 / (q + 1.0) - (N - 2.0) / N


def admissible_r_interval(pt: PQPoint) -> tuple[float, float] | None:
    """Open interval of split parameters r giving a well-defined energy.

    The window is N[1/2 - 1/(q+1)] < r < 2 - N[1/2 - 1/(p+1)], intersected
    with (0, 2); it is nonempty exactly when the point is subcritical.  For
    N <= 2 every r in (0, 2) works and the full interval is returned.
    """
    if pt.N <= 2:
        return (0.0, 2.0)
    lo, hi = map(float, _window(pt.p, pt.q, pt.N))
    return (lo, hi) if lo < hi else None


def _window(p, q, N):
    """The ends (lo, hi) of the r window of the exponent formulas, empty
    where lo >= hi: the admissible interval for N >= 3, and for N <= 2 less
    than (0, 2), as the interpolation exponents must stay in (0, 1]."""
    lo = np.maximum(0.0, N * (0.5 - 1.0 / (q + 1.0)))
    hi = np.minimum(2.0, 2.0 - N * (0.5 - 1.0 / (p + 1.0)))
    return lo, hi


def _check_r(pt: PQPoint, r: float) -> None:
    lo, hi = map(float, _window(pt.p, pt.q, pt.N))
    if lo >= hi:
        raise ValueError(
            f"no valid split parameter exists for p={pt.p}, q={pt.q}, N={pt.N}"
        )
    if not lo < r < hi:
        raise ValueError(
            f"r={r} outside the valid window ({lo}, {hi}) "
            f"for p={pt.p}, q={pt.q}, N={pt.N}"
        )


def interpolation_exponents(pt: PQPoint, r: float) -> tuple[float, float]:
    """L2-vs-Sobolev interpolation exponents for the two nonlinear norms.

    Returns (theta, zeta) with
        theta = 1 - (N/r)(1/2 - 1/(q+1)),
        zeta  = 1 - (N/(2-r))(1/2 - 1/(p+1)),
    both in (0, 1] on the valid window (the classical Gagliardo-Nirenberg
    exponents when r is an integer).
    """
    _check_r(pt, r)
    theta = 1.0 - (pt.N / r) * (0.5 - 1.0 / (pt.q + 1.0))
    zeta = 1.0 - (pt.N / (2.0 - r)) * (0.5 - 1.0 / (pt.p + 1.0))
    return theta, zeta


def growth_exponents(pt: PQPoint, r: float) -> tuple[float, float, float]:
    """Level-growth exponents (q1, p1, alpha) at split parameter r.

    q1 = ((q+1)/(q-1)) (r/N) - 1/2 governs the u-nonlinearity, p1 the
    mirrored quantity with r -> 2-r and q -> p; alpha = min(q1, p1) and the
    k-th minimax level grows at least like k^(2 alpha).
    """
    _check_r(pt, r)
    q1, p1, alpha = _growth(pt.p, pt.q, pt.N, r)
    return q1, p1, float(alpha)


def _growth(p, q, N, r):
    q1 = (q + 1.0) / (q - 1.0) * (r / N) - 0.5
    p1 = (p + 1.0) / (p - 1.0) * ((2.0 - r) / N) - 0.5
    return q1, p1, np.minimum(q1, p1)


@dataclass(frozen=True)
class RThresholds:
    """The three split-parameter thresholds of the growth-rate comparison."""

    balanced: float  # r where the two growth exponents coincide
    lower: float     # growth comparison needs r above this
    upper: float     # and below this (mirrored branch)


def r_thresholds(pt: PQPoint) -> RThresholds:
    """Thresholds for r: balance point and the feasibility bounds.

    balanced = (p+1)(q-1)/(pq-1) is where q1 = p1 (equal to 1 when p = q);
    lower = (N/2)((q-1)/(q+1))((2p+1)/p) and
    upper = 2 - (N/2)((p-1)/(p+1))((2p+1)/p)
    bound the window where the minimax growth rate beats the symmetry-defect
    rate on the q >= p branch.  The denominator pq - 1 is summed as
    (p - 1) q + (q - 1), whose terms are exact near p = q = 1, where pq - 1
    cancels.
    """
    lower = (pt.N / 2.0) * (pt.q - 1.0) / (pt.q + 1.0) * (2.0 * pt.p + 1.0) / pt.p
    upper = 2.0 - (pt.N / 2.0) * (pt.p - 1.0) / (pt.p + 1.0) * (2.0 * pt.p + 1.0) / pt.p
    return RThresholds(balanced=_balanced(pt.p, pt.q), lower=lower, upper=upper)


def _balanced(p, q):
    return (p + 1.0) * (q - 1.0) / ((p - 1.0) * q + (q - 1.0))


def defect_rates(pt: PQPoint) -> tuple[float, float]:
    """Growth rates ((q+1)/q, (p+1)/p) of the symmetry-defect recursion."""
    return _defect_rates(pt.p, pt.q)


def _defect_rates(p, q):
    return (q + 1.0) / q, (p + 1.0) / p


def multiplicity_margin(pt: PQPoint) -> float:
    """Signed margin of the multiplicity-region condition (active branch).

    Positive inside the region.  The condition reads
        1/(p+1) + 1/(q+1) + (p+1)/(p(q+1)) > (2N-2)/N   when q >= p,
    with p and q swapped when q <= p; at p = q the branches agree.
    """
    if pt.N < 3:
        raise ValueError(
            f"the multiplicity region is defined for N >= 3 only, got N={pt.N}; "
            "lower dimensions carry no growth constraint"
        )
    return float(_margin(pt.p, pt.q, pt.N))


def _margin(p, q, N):
    base = 1.0 / (p + 1.0) + 1.0 / (q + 1.0)
    extra = np.where(q >= p, (p + 1.0) / (p * (q + 1.0)), (q + 1.0) / (q * (p + 1.0)))
    return base + extra - (2.0 * N - 2.0) / N


def in_multiplicity_region(pt: PQPoint) -> bool:
    """Strict test of the multiplicity-region condition."""
    return multiplicity_margin(pt) > 0.0


@dataclass(frozen=True)
class OptimalR:
    """Best split parameter, the growth exponents (q1, p1) there, and whether
    the growth comparison succeeds there."""

    r_star: float
    feasible: bool
    q1: float
    p1: float


def optimal_r(pt: PQPoint) -> OptimalR | None:
    """Maximize min(2 q1, 2 p1) over the admissible window.

    q1 increases and p1 decreases in r, so the maximum sits at the balance
    point, clipped to the window; feasible records whether the strict
    comparison min(2 q1, 2 p1) > max((q+1)/q, (p+1)/p) holds there.  Returns
    None when no admissible r exists (supercritical point), or when no float
    lies strictly inside the window (a point within roundoff of the dividing
    hyperbola).
    """
    p, q = pt.p, pt.q
    r_star, found, feasible, q1, p1, _ = _optimal_r(p, q, pt.N, _balanced(p, q))
    if not found:
        return None
    return OptimalR(
        r_star=float(r_star), feasible=bool(feasible), q1=float(q1), p1=float(p1)
    )


def _optimal_r(p, q, N, balanced):
    """optimal_r as (r_star, found, feasible, q1, p1, alpha), given the
    balance point: found is false where r_star does not lie strictly inside
    the window, as on an empty window."""
    lo, hi = _window(p, q, N)
    eps = 1e-12 * (hi - lo)
    r_star = np.minimum(np.maximum(balanced, lo + eps), hi - eps)
    # eps rounds away on a window a few ulps wide; step one ulp inside then
    r_star = np.minimum(np.maximum(r_star, np.nextafter(lo, hi)), np.nextafter(hi, lo))
    found = (lo < r_star) & (r_star < hi)
    q1, p1, alpha = _growth(p, q, N, r_star)
    feasible = 2.0 * alpha > np.maximum(*_defect_rates(p, q))
    return r_star, found, feasible, q1, p1, alpha


def _power(k: int, e: float, scale: float = 1.0) -> float:
    """scale k^e as a float, inf once k^e leaves the float range."""
    try:
        return scale * float(k) ** e
    except OverflowError:
        return math.inf


class RegionRow(NamedTuple):
    """One scan entry of the exponent plane; the fields are the CSV columns.

    growth_u, growth_v and alpha are growth_exponents at r_star, None with it.
    """

    p: float
    q: float
    hyperbola_gap: float
    subcritical: bool
    status: str  # "inside" | "outside" | "boundary"
    r_star: float | None
    feasible: bool | None
    r_balanced: float
    growth_u: float | None
    growth_v: float | None
    alpha: float | None


# half-width of the "boundary" band around the hyperbola and the region edge
_BAND = 1e-9
# the status names, by the codes _scan_columns computes
_STATUS = np.array(["inside", "outside", "boundary"])
# the most grid points evaluated, and written, as one block of arrays
_BLOCK = 1 << 10


# one column of a scanned block: its values, and the mask of the points that
# hold one (None where every point does)
_Column = tuple[np.ndarray, np.ndarray | None]


def scan_blocks(N: int, p_grid: list[float], q_grid: list[float]) -> Iterator[list[_Column]]:
    """Classify every grid point, in blocks of _BLOCK points of the (p
    outer, q inner) order, the last one shorter; a block may cross p rows.
    Each block is scanned as it is asked for.

    A block is one column per RegionRow field, each a numpy array (float,
    bool, or str for status) with the mask of the points that hold a value:
    the points given an r_star for the r_star, feasible and growth columns,
    None (every point) for the others.  A point whose hyperbola gap lies
    within _BAND of zero is classified "boundary" with no r_star: its
    admissible window is at most N * _BAND wide, down to no float at all.  A
    subcritical point whose multiplicity margin lies within _BAND of zero is
    "boundary" too, with its r_star.  The first grid point, in scan order,
    that PQPoint or multiplicity_margin rejects raises their ValueError, at
    this call, before the first block.
    """
    # each block is scanned by the private _scan_columns as it is drawn, so
    # a trace of the public functions counts the scan in the time of the
    # caller that draws the blocks, the CLI's writer
    if not (len(p_grid) and len(q_grid)):
        return iter(())
    _check_grid(N, p_grid, q_grid)
    ps, qs = np.asarray(p_grid, dtype=float), np.asarray(q_grid, dtype=float)
    size, step = len(ps) * len(qs), _BLOCK
    # point i is (ps[i // len(qs)], qs[i % len(qs)])
    points = (np.arange(start, min(start + step, size)) for start in range(0, size, step))
    return (_scan_columns(ps[i // len(qs)], qs[i % len(qs)], N) for i in points)


def _check_grid(N: int, p_grid: list[float], q_grid: list[float]) -> None:
    """Raise the ValueError of the first point of the nonempty grid, in scan
    order, that PQPoint or multiplicity_margin rejects."""
    # a bad N fails at the first point; past a valid first point, the first
    # bad q fails in the first row, and else the first bad p in the first column
    multiplicity_margin(PQPoint(p_grid[0], q_grid[0], N))
    for j in _invalid(np.asarray(q_grid, dtype=float))[:1]:
        PQPoint(p_grid[0], q_grid[j], N)
    for i in _invalid(np.asarray(p_grid, dtype=float))[:1]:
        PQPoint(p_grid[i], q_grid[0], N)


def _invalid(values: np.ndarray) -> np.ndarray:
    """The indices of the exponents that PQPoint rejects."""
    return np.flatnonzero(~(np.isfinite(values) & (values > 1.0)))


def _scan_columns(p: np.ndarray, q: np.ndarray, N: int) -> list[_Column]:
    """The RegionRow columns of the points (p[i], q[i])."""
    # overflow and inf / inf pass silently, as in Python float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        gap = _gap(p, q, N)
        margin = _margin(p, q, N)
        balanced = _balanced(p, q)
        r_star, found, feasible, q1, p1, alpha = _optimal_r(p, q, N, balanced)
    near = np.abs(gap) < _BAND
    subcritical = gap > 0.0
    solved = subcritical & ~near  # the points given an r_star, where one is found
    found &= solved
    status = np.where(solved & (margin > 0.0), 0, 1)
    status[near | (solved & (np.abs(margin) < _BAND))] = 2
    return [
        (p, None), (q, None), (gap, None), (subcritical, None), (_STATUS[status], None),
        (r_star, found), (feasible, found), (balanced, None),
        (q1, found), (p1, found), (alpha, found),
    ]


def _check_curve(q: float, N: float) -> None:
    """Raise ValueError naming q or N unless it is positive and finite."""
    for name, value in (("q", q), ("N", N)):
        if not 0.0 < value < math.inf:  # also false for NaN
            raise ValueError(f"{name} must be positive and finite, got {value}")


def hyperbola_boundary_p(q: float, N: float) -> float:
    """p on the dividing hyperbola at given q > 0 and real N > 0, inf if none.

    Solves 1/(p+1) + 1/(q+1) = (N-2)/N; at q = 1 this gives (N+4)/(N-4).
    """
    _check_curve(q, N)
    inv = (N - 2.0) / N - 1.0 / (q + 1.0)
    if inv <= 0.0:
        return math.inf
    return 1.0 / inv - 1.0


def multiplicity_boundary_p(q: float, N: float) -> float:
    """p >= q on the multiplicity-region boundary at given q.

    Solves 1/(p+1) + 1/(q+1) + (q+1)/(q(p+1)) = (2N-2)/N for p; at q = 1
    this gives (3N+4)/(3N-4).  q and N must be positive and finite.
    (2N-2)/N is taken as 2 - 2/N where 2N overflows, which is near
    N = 1e308, and as written everywhere else.
    """
    _check_curve(q, N)
    two_n = 2.0 * N
    rhs = (2.0 - 2.0 / N if two_n == math.inf else (two_n - 2.0) / N) - 1.0 / (q + 1.0)
    coeff = 1.0 + (q + 1.0) / q
    if rhs <= 0.0:
        return math.inf
    return coeff / rhs - 1.0
