"""Independent oracles for the test suite.

The enumeration oracles sort every multi-index in a box of per-axis caps by
(eigenvalue, multi-index), and walk a heap of indices from (1, ..., 1), as
the basis was enumerated before its hyperbolic cross; the walk also gives
the errors of eigenvalues beyond the float range.  The reference grid formulas give the collocation nodes and the
uniform-weight quadrature without the grid tables.

The dense oracle builds the full evaluation matrix S[j, k] = phi_k(x_j) on
the flattened collocation grid and assembles the solver's residual and
Jacobian from it directly, with no separable tables and no transforms.

The ascent oracle is the first-order projected ascent that the level
searches once ran, with its step constants, every start a row of one stack
on its own path.  It climbs the truncated Gagliardo-Nirenberg ratio from
below (gn_constant) and descends to a local sphere minimum from above
(sphere_minimum, which climbs the scale-free ratio, whose gradient is
tangent to the weighted sphere), on the grid quadrature: the library's
certified constants must lie above the first and below the second.  The
radial oracle shoots for the ground state of -Lap Q + Q = Q^e in 2-D and
3-D (radial_ground_state_mass), for the library's collocation solve.

The level oracle (sampled_levels) is the level brackets with their fixed
points built and evaluated one point at a time, each through the
single-point energy functions, and `upper` floored at J(0) = 0.  Its sphere
bounds and lower curve constant are the library's;
lower_growth_constant_scalar scans that curve one grid point at a time in
Python floats, against the library's numpy scan, for all 200 iterations
of its golden-section refine.

The Newton oracle is the deflated Newton loop with its backtracking run one
step at a time: each candidate is unpacked into a pair, evaluated alone,
and deflated by a Python loop over the known points.  Its Newton step is the
library's solve._newton_step, fed the oracle's own deflation factor and
gradient, so that the ladders compare bit for bit; the step itself is
checked in test_solver against dense solves of the Jacobian that
assembled_jacobian builds from the Galerkin matrices of the library's grid
tables.

The region oracle is the exponent-plane scan run one point at a time, with
the branches of its status and of its r_star as Python control flow over
the public scalar functions of region.  scan_rows is not an oracle but a
view: the blocks of region.scan_blocks joined into rows of Python values.

The shooting oracle solves the scalar two-point problem -u'' = u^3 with
u(0) = u(L) = 0 by integrating the initial value problem and root-finding on
the initial slope; it never touches the spectral solver.  Solutions with j
interior sign changes are built from the single positive arch by the exact
scaling u_c(x) = c U(c x), which maps an arch of width T to width T/c.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from indefsaddle import region, solve
from indefsaddle.basis import SineBasis, SpectralField, eigenvalue_growth_constant, grid_shape
from indefsaddle.energy import (
    CutoffConfig,
    DualGradient,
    Evaluation,
    modified_energy,
)
from indefsaddle.solve import (
    LevelBracket,
    NewtonConfig,
    SolveResult,
    _forcing_size,
    lower_growth_constant,
)
from indefsaddle.space import (
    FieldPair,
    coupling_eigenvector,
    pair_norm,
)


def sorted_basis(domain, n: int, caps: tuple[int, ...]) -> SineBasis:
    """The first n of all multi-indices with m_i <= caps[i], sorted by
    (eigenvalue, multi-index).  The caps must be certified: the n-th value
    lies below every eigenvalue one step past a cap."""
    waves = [math.pi / L for L in domain.lengths]
    candidates = sorted(
        (sum((m * w) ** 2 for m, w in zip(index, waves)), index)
        for index in product(*(range(1, cap + 1) for cap in caps))
    )[:n]
    base = sum(w * w for w in waves)
    outside = min(base - w * w + ((cap + 1) * w) ** 2 for w, cap in zip(waves, caps))
    assert len(candidates) == n and candidates[-1][0] < outside, "caps too small"
    return SineBasis(domain, [idx for _, idx in candidates], [val for val, _ in candidates])


def heap_basis(domain, n: int) -> SineBasis:
    """Enumerate the n smallest Dirichlet eigenpairs of the box.

    One walk over a heap keyed by (eigenvalue, multi-index), seeded with
    (1, ..., 1): each pop is the next eigenpair, and pushes the index one
    higher along each axis that is not yet queued.  The eigenvalue never
    decreases when one index grows, in floats too (each rounding is
    monotone), and an index's predecessors precede it lexicographically, so
    every index is queued before it is the smallest left, and the pops come
    in exact (eigenvalue, multi-index) order: ties are broken
    lexicographically, even where a long side's modes round to one value.
    A ValueError reports eigenvalues that leave the float range: a
    (pi/L)^2 that underflows to 0, or one that overflows.
    """
    if n < 1:
        raise ValueError(f"basis size must be at least 1, got {n}")
    lengths = domain.lengths
    waves = [math.pi / L for L in lengths]

    def eigenvalue(index: tuple[int, ...]) -> float:
        return sum((m * w) ** 2 for m, w in zip(index, waves))

    try:
        if min(waves) ** 2 == 0.0:
            raise ValueError(f"side lengths {lengths} give eigenvalues below the float range")
        first = (1,) * domain.dim
        heap = [(eigenvalue(first), first)]
        queued = {first}
        indices, eigenvalues = [], []
        while True:
            value, index = heapq.heappop(heap)
            indices.append(index)
            eigenvalues.append(value)
            if len(indices) == n:
                return SineBasis(domain, indices, eigenvalues)
            for axis in range(len(index)):
                successor = (*index[:axis], index[axis] + 1, *index[axis + 1 :])
                if successor not in queued:
                    queued.add(successor)
                    heapq.heappush(heap, (eigenvalue(successor), successor))
    except OverflowError:
        raise ValueError(f"side lengths {lengths} give eigenvalues above the float range") from None


def grid_points(domain, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Interior collocation nodes x_j = j L/(G+1), j = 1..G, per axis."""
    return tuple(
        L * np.arange(1, G + 1) / (G + 1) for L, G in zip(domain.lengths, shape)
    )


def grid_quadrature(values: np.ndarray, domain) -> float:
    """Integrate grid values: uniform weights, boundary values are zero."""
    values = np.asarray(values, dtype=float)
    h = math.prod(L / (G + 1) for L, G in zip(domain.lengths, values.shape))
    return float(h * values.sum())


def assembled_jacobian(z, spec) -> np.ndarray:
    """The residual's 2n x 2n Jacobian [[-P, Lambda], [Lambda, -Q]] assembled
    from P and Q, the Galerkin matrices of q|u|^(q-1) and p|v|^(p-1) on the
    library's grid tables, Lambda the diagonal of the eigenvalues."""
    n = spec.n
    wu, wv = Evaluation.at(z, spec).weights
    P, Q = spec.tables.galerkin(spec.q * wu), spec.tables.galerkin(spec.p * wv)
    J = np.zeros((2 * n, 2 * n))
    J[:n, :n] = -P
    J[n:, n:] = -Q
    diag = np.arange(n)
    J[diag, n + diag] = spec.basis.eigenvalues
    J[n + diag, diag] = spec.basis.eigenvalues
    return J


def grid_matrix(basis, shape: tuple[int, ...]) -> np.ndarray:
    """Dense evaluation matrix S with S[j, k] = phi_k(x_j), grid flattened."""
    domain = basis.domain
    tables = []
    for axis, (L, G) in enumerate(zip(domain.lengths, shape)):
        j = np.arange(1, G + 1)[:, None]
        m = basis.indices[:, axis][None, :]
        tables.append(math.sqrt(2.0 / L) * np.sin(math.pi * j * m / (G + 1)))
    if domain.dim == 1:
        return tables[0]
    if domain.dim == 2:
        return (tables[0][:, None, :] * tables[1][None, :, :]).reshape(-1, basis.size)
    return np.einsum("ak,bk,ck->abck", *tables).reshape(-1, basis.size)


def grid_data(spec):
    """The dense evaluation matrix of the spec's grid and its quadrature weight."""
    shape = grid_shape(spec.basis, spec.oversample)
    S = grid_matrix(spec.basis, shape)
    weight = math.prod(L / (G + 1) for L, G in zip(spec.domain.lengths, shape))
    return S, weight


def dense_residual(z, spec) -> DualGradient:
    """The system residual assembled through the dense evaluation matrix."""
    S, w = grid_data(spec)
    lam = spec.basis.eigenvalues
    u_vals = S @ z.u.coeffs
    v_vals = S @ z.v.coeffs
    pu = w * (S.T @ (np.abs(u_vals) ** (spec.q - 1.0) * u_vals))
    pv = w * (S.T @ (np.abs(v_vals) ** (spec.p - 1.0) * v_vals))
    du = lam * z.v.coeffs - pu - spec.k.coeffs
    dv = lam * z.u.coeffs - pv - spec.h.coeffs
    return DualGradient(du=du, dv=dv)


def dense_jacobian(z, spec) -> np.ndarray:
    """The residual's Jacobian with blocks -w (S.T * weights) @ S."""
    S, w = grid_data(spec)
    lam = spec.basis.eigenvalues
    n = spec.n
    u_vals = S @ z.u.coeffs
    v_vals = S @ z.v.coeffs
    du_weights = spec.q * np.abs(u_vals) ** (spec.q - 1.0)
    dv_weights = spec.p * np.abs(v_vals) ** (spec.p - 1.0)
    J = np.zeros((2 * n, 2 * n))
    J[:n, :n] = -w * (S.T * du_weights) @ S
    J[n:, n:] = -w * (S.T * dv_weights) @ S
    diag = np.arange(n)
    J[diag, n + diag] = lam
    J[n + diag, diag] = lam
    return J


def projected_ascent(value_grad, starts, weights, iters):
    """The first-order ascent that the level searches ran before their
    Newton steps: maximize value_grad(C)[0] over the unit weighted sphere
    sum_k weights_k c_k^2 = 1, every start as a row of one stack, each row
    with its own step (first 0.5), which grows by 1.3 up to 10 on a step
    that raises the row's value and is halved otherwise; a row stops when
    its step falls below 1e-12 or after `iters` steps.  value_grad(C) gives
    the values and ascent directions at the rows of C.  Returns the first
    best value in start order and the point that reached it."""

    def normalize(C):
        return C / np.sqrt(np.einsum("ij,ij->i", weights * C, C))[:, None]

    C = normalize(np.array(starts, dtype=float))
    vals, grads = value_grad(C)
    steps = np.full(len(C), 0.5)
    going = np.ones(len(C), dtype=bool)
    for _ in range(iters):
        if not going.any():
            break
        cand = normalize(C[going] + steps[going, None] * grads[going])
        cand_vals, cand_grads = value_grad(cand)
        up = cand_vals > vals[going] + 1e-16
        rows = np.flatnonzero(going)
        C[rows[up]], vals[rows[up]], grads[rows[up]] = cand[up], cand_vals[up], cand_grads[up]
        steps[rows] = np.where(up, np.minimum(steps[rows] * 1.3, 10.0), steps[rows] * 0.5)
        going[rows] = steps[rows] >= 1e-12
    best = int(np.argmax(vals))  # the first of ties
    return float(vals[best]), C[best]


def power_moment(spec, coeffs, exponent):
    """int |w|^(exponent+1) and its coefficient gradient at each row w of a
    stack, with the uniform-weight quadrature of grid_quadrature."""
    vals = spec.tables.evaluate(coeffs)
    axes = tuple(range(1, vals.ndim))
    h = math.prod(L / (G + 1) for L, G in zip(spec.domain.lengths, vals.shape[1:]))
    val = h * (np.abs(vals) ** (exponent + 1.0)).sum(axis=axes)
    pair = spec.tables.pairings((exponent + 1.0) * np.abs(vals) ** (exponent - 1.0) * vals)
    return val, pair


def gn_constant(spec, exponent, order, theta, seed, iters):
    """The best constant S of |w|_{e+1} <= S |w|_2^t |w|_o^(1-t) (e =
    exponent, o = order, t = theta) over the truncated span, by
    projected_ascent of the ratio from the 10 random starts of the seed, of
    at most `iters` steps."""
    weights = spec.basis.eigenvalues**order

    def value_grad(C):
        num, pair = power_moment(spec, C, exponent)
        l2 = np.einsum("ij,ij->i", C, C)
        sob = np.einsum("ij,ij->i", weights * C, C)
        ratio = num ** (1.0 / (exponent + 1.0)) / (l2 ** (theta / 2.0) * sob ** ((1.0 - theta) / 2.0))
        return ratio, (
            pair / ((exponent + 1.0) * num)[:, None]
            - theta * C / l2[:, None]
            - (1.0 - theta) * weights * C / sob[:, None]
        )

    rng = np.random.default_rng(seed)
    starts = [rng.standard_normal(spec.n) for _ in range(10)]
    return projected_ascent(value_grad, starts, weights, iters)


def deflation(z_vec, known_vecs, metric):
    """Deflation factor prod_i (d_i^-2 + 1) and its gradient, one known
    point at a time; at a coincident point the factor is infinite."""
    m = 1.0
    grad = np.zeros(z_vec.size)
    for known_vec in known_vecs:
        diff = z_vec - known_vec
        d2 = float(np.dot(metric * diff, diff))
        if d2 <= 1e-28:
            return math.inf, grad
        factor = 1.0 / d2 + 1.0
        m *= factor
        grad += (-1.0 / (d2 * d2) / factor) * (2.0 * metric * diff)
    return m, m * grad


def sequential_newton(z0, spec, config=None, known=None) -> SolveResult:
    """Deflated damped Newton whose line search tries the steps 1, 1/2,
    1/4, ... down to 1e-12 one at a time and takes the first that lowers the
    deflated residual norm."""
    config = config or NewtonConfig()
    deflated = bool(known)
    known = known or []
    n = spec.n
    lam = spec.basis.eigenvalues
    metric = np.concatenate([lam**spec.r, lam ** (2.0 - spec.r)])
    known_vecs = [np.concatenate([zi.u.coeffs, zi.v.coeffs]) for zi in known]

    def unpack(vec):
        return FieldPair(SpectralField(spec.basis, vec[:n]), SpectralField(spec.basis, vec[n:]), spec.r)

    def separated(z):
        return all(pair_norm(z - zi) > config.separation for zi in known)

    def norm(g):
        return float(np.sqrt(np.dot(g.du, g.du) + np.dot(g.dv, g.dv)))

    ev = Evaluation.at(z0, spec)

    def outcome(iterations, converged, message=""):
        _, symmetric, forcing = ev.terms
        return SolveResult(
            z=ev.z, residual_norm=rn, iterations=iterations, converged=converged,
            energy=symmetric - forcing, message=message,
        )

    vec = np.concatenate([z0.u.coeffs, z0.v.coeffs])
    res = ev.gradient()
    rn = norm(res)
    fn = deflation(vec, known_vecs, metric)[0] * rn
    if rn <= config.tol and separated(ev.z):
        return outcome(0, True)
    for it in range(1, config.max_iter + 1):
        rvec = np.concatenate([res.du, res.dv])
        m, mgrad = deflation(vec, known_vecs, metric)
        if not math.isfinite(m):
            return outcome(it - 1, False, "seed coincides with a known solution")
        try:  # the library's step, checked against dense solves in test_solver
            delta = solve._newton_step(ev, rvec, m, mgrad if known else None)
        except np.linalg.LinAlgError:
            return outcome(
                it - 1, False, "singular deflated Jacobian" if deflated else "singular Jacobian"
            )
        step = 1.0
        while step >= 1e-12:
            cand = vec + step * delta
            cand_ev = Evaluation.at(unpack(cand), spec)
            cand_res = cand_ev.gradient()
            cand_rn = norm(cand_res)
            cand_fn = deflation(cand, known_vecs, metric)[0] * cand_rn
            if cand_fn < fn:
                vec, ev, res, rn, fn = cand, cand_ev, cand_res, cand_rn, cand_fn
                break
            step *= 0.5
        else:
            return outcome(
                it, False, "deflated line search stalled" if deflated else "line search stalled"
            )
        if rn <= config.tol and separated(ev.z):
            return outcome(it, True)
    return outcome(config.max_iter, False, "max_iter reached")


def sphere_minimum(spec, active, exponent, order, seed, warm_start=None, iters=300):
    """The minimum of int |w|^(exponent+1) over the unit order-norm sphere of
    the first `active` modes, and its minimizer, by projected_ascent on the
    negative of the scale-free ratio M(c) / Q(c)^((e+1)/2), M the
    power_moment and Q = sum_k lambda_k^order c_k^2, which is M on the
    sphere: its gradient is tangent to the weighted sphere, where that of
    -M is not.  From the warm start, zero-padded to `active` modes, then
    random ones of the seed, 10 in all, of at most `iters` steps each."""
    weights = spec.basis.eigenvalues[:active] ** order
    half = (exponent + 1.0) / 2.0

    def value_grad(C):
        coeffs = np.zeros((len(C), spec.n))
        coeffs[:, :active] = C
        val, pair = power_moment(spec, coeffs, exponent)
        Q = np.einsum("ij,ij->i", weights * C, C)
        ratio = val * Q**-half
        return -ratio, -(pair[:, :active] * (Q**-half)[:, None] - (2.0 * half * ratio / Q)[:, None] * weights * C)

    rng = np.random.default_rng(seed)
    starts = []
    if warm_start is not None:
        starts.append(np.zeros(active))
        starts[0][: len(warm_start)] = warm_start
    while len(starts) < 10:
        starts.append(rng.standard_normal(active))
    val, point = projected_ascent(value_grad, starts, weights, iters)
    return -val, np.asarray(point)


def lower_growth_constant_scalar(spec):
    """solve.lower_growth_constant with its curve evaluated by Python floats
    at every point of its log grid: the grid's first maximum, which NaN
    never takes, is refined by golden section, for all 200 iterations.  A
    power past the float range, where Python's ** raises OverflowError,
    reads numpy's inf.  The curve's constants are formed as the library
    forms them, in logs from the logs of solve._gn_log_constant, and
    scanned in y = x / x_s; with no constant for a half, gamma is 0."""
    pt = region.PQPoint(p=spec.p, q=spec.q, N=spec.domain.dim)
    theta, zeta = region.interpolation_exponents(pt, spec.r)
    log_lam = math.log(eigenvalue_growth_constant(spec.basis))
    log_sq = solve._gn_log_constant(pt.N, spec.q, spec.r)
    log_sp = solve._gn_log_constant(pt.N, spec.p, 2.0 - spec.r)
    if log_sq is None or log_sp is None:
        return 0.0
    q, p, r = spec.q, spec.p, spec.r
    log_dq = (q + 1.0) * log_sq - r * theta * (q + 1.0) / 2.0 * log_lam - math.log(q + 1.0)
    log_dp = (p + 1.0) * log_sp - (2.0 - r) * zeta * (p + 1.0) / 2.0 * log_lam - math.log(p + 1.0)
    log_xs = min(-2.0 * log_dq / (q - 1.0), -2.0 * log_dp / (p - 1.0))
    if not math.isfinite(log_xs):
        log_xs = 0.0
    d_q = math.exp(log_dq + (q - 1.0) / 2.0 * log_xs)
    d_p = math.exp(log_dp + (p - 1.0) / 2.0 * log_xs)
    c0 = _forcing_size(spec)
    c1 = math.exp(math.log(c0) - log_xs / 2.0) if c0 > 0.0 else 0.0

    def g(x):
        try:
            return x - d_q * x ** ((q + 1.0) / 2.0) - d_p * x ** ((p + 1.0) / 2.0) - c1 * math.sqrt(x)
        except OverflowError:
            return g(np.float64(x))

    grid = np.logspace(-12.0, 6.0, 2000).tolist()
    x0, top = grid[0], -math.inf
    for x in grid:
        value = g(x)
        if value > top:
            x0, top = x, value
    best = g(x0)
    if best <= 0.0:
        return 0.0
    lo, hi = x0 / 10.0, x0 * 10.0
    for _ in range(200):
        m1 = lo + 0.381966 * (hi - lo)
        m2 = hi - 0.381966 * (hi - lo)
        if g(m1) < g(m2):
            lo = m1
        else:
            hi = m2
    return math.exp(log_xs + math.log(max(best, g(0.5 * (lo + hi)))))


def sampled_levels(spec, k_max, cutoff=None):
    """The level brackets of solve.estimate_levels, with every fixed point
    built as a pair and evaluated alone, in point order, and `upper` floored
    at J(0) = 0.  The sphere bounds behind each radius are the library's
    solve._sphere_log_bounds, as its lower curve constant is the library's
    (both are checked against the first-order ascent in test_solver)."""
    cutoff = cutoff or CutoffConfig.default_for(spec)
    pt = region.PQPoint(p=spec.p, q=spec.q, N=spec.domain.dim)
    _, _, alpha = region.growth_exponents(pt, spec.r)
    gamma = lower_growth_constant(spec)
    c0 = _forcing_size(spec)
    m_exp = min(spec.p, spec.q) + 1.0
    brackets = []
    bounds = solve._sphere_log_bounds(spec, k_max)
    prev_best_point = None
    prev_upper = -math.inf
    for k in range(1, k_max + 1):
        log_ck = bounds[k - 1]
        radius = 2.0 * math.exp(-(math.log(2.0) + log_ck) / (m_exp - 2.0))
        points = []
        if prev_best_point is not None:
            points.append(prev_best_point)
        for j in range(1, k + 1):
            e_plus = coupling_eigenvector(spec.basis, j, +1, spec.r)
            for frac in (0.25, 0.375, 0.5, 0.75, 1.0):
                points.append(e_plus * (frac * radius))
        upper = prev_upper
        best_point = prev_best_point
        excess = -math.inf
        for z in points:
            jval = modified_energy(z, spec, cutoff)
            zn = pair_norm(z)
            excess = max(excess, jval - (0.5 * zn * zn + c0 * zn))
            if jval > upper:
                upper = jval
                best_point = z
        ceiling = (0.5 + (c0 / radius if radius > 0 else 0.0)) * radius * radius
        brackets.append(LevelBracket(
            k=k, lower=gamma * float(k) ** (2.0 * alpha), upper=max(upper, 0.0), radius=radius,
            ceiling=ceiling, max_pointwise_excess=excess,
        ))
        prev_best_point = best_point
        prev_upper = upper
    return brackets


def radial_ground_state_mass(N, e):
    """int Q^2 over R^N of the positive radial solution Q of -Lap Q + Q =
    Q^e, by shooting from Q(0) = a with scipy's DOP853 (its Taylor start at
    1e-4 of the core width a^(-(e-1)/2)) and bisecting a to the last bit: a
    larger a crosses zero, a smaller one turns up.  The mass is integrated
    along the undershooting trajectory up to its turn, where Q is about the
    square root of the ulp of a and the rest of the mass about that ulp."""

    def rhs(r, y):
        q, dq, _ = y
        return [dq, q - abs(q) ** (e - 1.0) * q - (N - 1.0) / r * dq, q * q * r ** (N - 1.0)]

    def crossing(r, y):
        return y[0]

    def turning(r, y):
        return y[1]

    crossing.terminal = turning.terminal = True
    crossing.direction, turning.direction = -1, 1

    def shoot(a):
        r0, bend = 1e-4 * min(1.0, a ** (-(e - 1.0) / 2.0)), (a - a**e) / (2.0 * N)  # Q = a + bend r^2 + O(r^4)
        start = [a + bend * r0 * r0, 2.0 * bend * r0, a * a * r0**N / N]
        sol = solve_ivp(rhs, [r0, 80.0], start, method="DOP853", rtol=1e-13, atol=1e-30,
                        events=(crossing, turning))
        return sol.t_events[0].size > 0, sol.y[2, -1]

    lo, hi = 1.0, 2.0
    while not shoot(hi)[0]:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if shoot(mid)[0]:
            hi = mid
        else:
            lo = mid
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0) * shoot(lo)[1]


def scan_rows(N: int, p_grid, q_grid) -> list[region.RegionRow]:
    """The rows of the blocks of region.scan_blocks, each value a Python
    scalar, None where its column's mask is false."""
    rows = []
    for block in region.scan_blocks(N, p_grid, q_grid):
        columns = [
            values.tolist() if present is None else np.where(present, values, None).tolist()
            for values, present in block
        ]
        rows += map(region.RegionRow._make, zip(*columns))
    return rows


def scalar_region_rows(N: int, p_grid, q_grid) -> list[tuple]:
    """The rows of region.scan_blocks, one point at a time through the
    public scalar functions, as tuples in RegionRow field order."""
    rows = []
    for p in p_grid:
        for q in q_grid:
            pt = region.PQPoint(p=p, q=q, N=N)
            balanced = region.r_thresholds(pt).balanced
            gap = region.hyperbola_gap(pt)
            subcritical = gap > 0.0
            r_star = feasible = q1 = p1 = alpha = None
            if abs(gap) < 1e-9:
                status = "boundary"
            elif not subcritical:
                status = "outside"
            else:
                margin = region.multiplicity_margin(pt)
                if abs(margin) < 1e-9:
                    status = "boundary"
                else:
                    status = "inside" if margin > 0.0 else "outside"
                best = region.optimal_r(pt)
                if best is not None:
                    r_star, feasible, q1, p1 = best.r_star, best.feasible, best.q1, best.p1
                    alpha = min(q1, p1)
            rows.append(
                (p, q, gap, subcritical, status, r_star, feasible, balanced, q1, p1, alpha)
            )
    return rows


def _integrate(slope: float, span: float):
    def rhs(x, y):
        return [y[1], -y[0] ** 3]

    def crossing(x, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1
    return solve_ivp(
        rhs,
        [0.0, span],
        [0.0, slope],
        events=crossing,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )


def first_zero(slope: float, span: float = 60.0) -> float:
    """Width of the first positive arch for initial slope > 0."""
    sol = _integrate(slope, span)
    if sol.t_events[0].size == 0:
        raise RuntimeError(f"no return to zero within span for slope {slope}")
    return float(sol.t_events[0][0])


@dataclass
class OdeSolution:
    """A Dirichlet solution of -u'' = u^3 on [0, length] with `arches` arches."""

    length: float
    arches: int
    slope: float       # u'(0) of the full solution
    arch_width: float  # length / arches
    _arch_sol: object

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        j = np.clip((x // self.arch_width).astype(int), 0, self.arches - 1)
        local = np.clip(x - j * self.arch_width, 0.0, self.arch_width)
        values = self._arch_sol.sol(local)[0]
        return (-1.0) ** j * values

    def derivative(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        j = np.clip((x // self.arch_width).astype(int), 0, self.arches - 1)
        local = np.clip(x - j * self.arch_width, 0.0, self.arch_width)
        values = self._arch_sol.sol(local)[1]
        return (-1.0) ** j * values

    def energy(self, points: int = 200_001) -> float:
        """The value (1/2) int u'^2 dx (equals the system energy at (u, u))."""
        xs = np.linspace(0.0, self.length, points)
        return 0.5 * float(np.trapezoid(self.derivative(xs) ** 2, xs))


def shooting_solution(length: float = math.pi, arches: int = 1) -> OdeSolution:
    """Shoot for the solution whose first arch has width length/arches."""
    target = length / arches
    slope = brentq(
        lambda s: first_zero(s) - target, 0.05, 500.0, xtol=1e-14, rtol=8.9e-16
    )
    sol = _integrate(slope, 1.25 * target)
    return OdeSolution(
        length=length,
        arches=arches,
        slope=slope,
        arch_width=float(sol.t_events[0][0]),
        _arch_sol=sol,
    )

