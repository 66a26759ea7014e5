"""Critical-point computation: Newton, deflation, continuation, level brackets.

The residual is the coefficient-space gradient of the energy (its zeros are
the Galerkin solutions of the system): `residual` is energy.energy_gradient
under the solver's name, and the Jacobian is the Hessian of the energy.
Newton reads both from one energy.Evaluation per iterate, so u and v are
synthesized once per point; the Hessian's diagonal blocks are the Galerkin
matrices of the power derivatives, built from their cosine moments on the
grid tables of the basis (basis.GridTables).  The dense-matrix residual
and Jacobian that check them live in the tests.  There is one Newton
loop; deflation is an option of it, which multiplies the residual by
prod_i (dist_i^-2 + 1) over known solutions so Newton runs land on new ones,
and with nothing to deflate against it is plain Newton.  Its backtracking
line search evaluates the step ladder as row stacks of doubling size on the
grid tables; every accepted step is still the first decrease in step order,
so the iterates are those of trying one step at a time.  The squared
distances of a stack to the known points, in the product-space metric of
space.py, are computed once, and both the deflation factors and the
separation test (a converged point within `separation` of a known one is
not a new solution) read from them.  Level brackets combine an upper bound
sampled in row stacks over nested saddle-geometry balls with a closed-form
lower growth curve whose constant is assembled from computed embedding
data; a bracket value that leaves the float range is an error.  Both
extremal problems behind them run through one projected-ascent routine,
which advances all its restarts at once as the rows of one stack on the
grid tables, each row on the path it takes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import region
from .basis import (
    SpectralField,
    _row_dots,
    eigenvalue_growth_constant,
    sobolev_norm,
)
from .energy import (
    CutoffConfig,
    DualGradient,
    Evaluation,
    ProblemSpec,
    _stack_rows,
    bump,
    energy_gradient,
)
from .space import (
    FieldPair, _metric_dots, _vecs_from_coordinates, _weights, coupling_eigenvector, pair_norm,
)

residual = energy_gradient  # the system residual, under the solver's name


@dataclass
class NewtonConfig:
    """Newton iteration controls (plus the branch separation threshold)."""

    tol: float = 1e-10
    max_iter: int = 50
    damping: float = 0.5
    min_step: float = 1e-12
    separation: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not 0.0 < self.damping < 1.0:
            raise ValueError(f"damping must lie in (0, 1), got {self.damping}")
        if not self.min_step > 0.0:
            raise ValueError(f"min_step must be positive, got {self.min_step}")
        if not self.separation > 0.0:
            raise ValueError(f"separation must be positive, got {self.separation}")


def jacobian(z: FieldPair, spec: ProblemSpec) -> np.ndarray:
    """Jacobian of the residual (see Evaluation.hessian)."""
    return Evaluation.at(z, spec).hessian()


@dataclass
class SolveResult:
    """Outcome of one Newton run; on failure z is the best iterate seen."""

    z: FieldPair
    residual_norm: float
    iterations: int
    converged: bool
    energy: float  # the unmodified energy at z
    message: str = ""


def newton_solve(
    z0: FieldPair,
    spec: ProblemSpec,
    config: NewtonConfig | None = None,
    known: list[FieldPair] | None = None,
) -> SolveResult:
    """Damped Newton on the system residual, deflated against `known`.

    Deflation (Farrell, Birkisson & Funke) multiplies the residual by
    prod_i (d_i^-2 + 1), d_i the distance to known solution i, which adds a
    rank-one term to the Jacobian; convergence is still judged on the
    undeflated residual, and a point within `separation` of a known solution
    is not accepted.  known=None is plain Newton; a list, even an empty one,
    marks the failure messages as deflated.  Backtracking tries the steps
    1, damping, damping^2, ... down to min_step and accepts the first one,
    in step order, that decreases the (deflated) residual norm, so every
    accepted step is monotone.  The ladder is evaluated in row stacks of
    doubling size (the full step alone, then 2, 4, 8, ... steps), and the
    rows after the accepted one are discarded.  Stalling below min_step or
    exhausting max_iter returns the best iterate with a diagnostic (a bad
    seed, not an error).
    """
    config = config or NewtonConfig()
    deflated = known is not None
    known = known or []
    weights = _weights(spec.basis, spec.r)
    known_stack = np.array([zi.vec for zi in known]).reshape(len(known), 2 * spec.n)
    ev = Evaluation.at(z0, spec)  # the current iterate's, kept for its Jacobian

    def outcome(iterations: int, converged: bool, message: str = "") -> SolveResult:
        _, symmetric, forcing = ev.terms
        return SolveResult(
            z=ev.z, residual_norm=rn, iterations=iterations, converged=converged,
            energy=symmetric - forcing, message=message,
        )

    def separated(d2: list[float]) -> bool:  # beyond `separation` of every known point
        return math.sqrt(min(d2, default=math.inf)) > config.separation

    res = ev.gradient()
    rn = res.norm()
    d2 = _distances(ev.vecs[None], known_stack, weights)[0]
    m = _deflation_factor(d2)
    fn = m * rn
    if rn <= config.tol and separated(d2):
        return outcome(0, True)
    for it in range(1, config.max_iter + 1):
        if not math.isfinite(m):
            return outcome(it - 1, False, "seed coincides with a known solution")
        rvec = np.concatenate([res.du, res.dv])
        J = ev.hessian()
        if known:
            J = m * J + np.outer(rvec, _deflation_gradient(ev.vecs, known_stack, weights, m))
        try:
            delta = np.linalg.solve(J, -m * rvec)
        except np.linalg.LinAlgError:
            return outcome(
                it - 1, False, "singular deflated Jacobian" if deflated else "singular Jacobian"
            )
        del J  # so that the next iteration's Jacobian does not coexist with it
        found = _backtrack(ev.vecs, delta, fn, spec, known_stack, weights, config)
        if found is None:
            return outcome(
                it, False,
                "deflated line search stalled" if deflated
                else "line search stalled below min_step",
            )
        ev, res, d2, m, rn = found
        fn = m * rn
        if rn <= config.tol and separated(d2):
            return outcome(it, True)
    return outcome(config.max_iter, False, "max_iter reached")


def _backtrack(vec, delta, fn, spec, known, weights, config):
    """The first step of the ladder 1, damping, damping^2, ... down to
    min_step whose point vec + step * delta has a deflated residual norm
    below fn, as (the point's evaluation, residual, squared distances to the
    known points, deflation factor, residual norm), or None if no step does.

    The ladder is evaluated in row stacks of doubling size: the full step
    alone, then the next 2, 4, 8, ... steps, up to the stack size of
    energy._stack_rows, counting the known-point differences.  Rows after
    the accepted one are discarded, and a non-finite point raises as it is
    reached, so the outcome is that of trying the steps one at a time."""
    cap = _stack_rows(spec, known.size)
    step, size = 1.0, 1
    while step >= config.min_step:
        steps = []
        while len(steps) < size and step >= config.min_step:
            steps.append(step)
            step *= config.damping
        size = min(2 * size, cap)
        cands = vec + np.multiply.outer(steps, delta)
        rows = Evaluation(cands, spec)
        res = rows.gradient()
        norms = res.norm().tolist()
        for i, (d2, rn) in enumerate(zip(_distances(cands, known, weights), norms)):
            factor = _deflation_factor(d2)
            if factor * rn < fn:
                return rows.row(i), DualGradient(res.du[i], res.dv[i]), d2, factor, rn
            # a non-finite coefficient makes the residual norm non-finite
            if not math.isfinite(rn) and not np.isfinite(cands[i]).all():
                raise ValueError("coefficients must be finite")
    return None


def _distances(Z: np.ndarray, known: np.ndarray, weights: np.ndarray) -> list[list[float]]:
    """Squared product-space distances d_i^2 of each row of Z to the known
    points in the rows of `known`, in known order; each is the np.dot of the
    weighted difference with itself, bit for bit."""
    if not len(known):
        return [[]] * len(Z)
    diff = Z[:, None, :] - known
    return _metric_dots(diff, diff, weights).tolist()


def _deflation_factor(d2: list[float]) -> float:
    """prod_i (d_i^-2 + 1) in known order; infinite at a known point."""
    m = 1.0
    for d in d2:
        if d <= 1e-28:
            return math.inf
        m *= 1.0 / d + 1.0
    return m


def _deflation_gradient(z_vec: np.ndarray, known: np.ndarray, weights: np.ndarray, m: float):
    """Coefficient-space gradient of the deflation factor m (finite) at z_vec:
    m times the sum over known points, in order, of d/dz log(d_i^-2 + 1)."""
    diff = z_vec - known
    d2 = _metric_dots(diff, diff, weights)
    # d/dz of (d^-2 + 1) over (d^-2 + 1), with d^2 the metric distance squared
    terms = (-1.0 / (d2 * d2) / (1.0 / d2 + 1.0))[:, None] * (2.0 * weights * diff)
    # summed in known order from +0.0, as a running sum is, so that the sign
    # of a zero entry does not depend on the first term
    return m * np.sum(terms, axis=0, initial=0.0)


def default_seeds(spec: ProblemSpec, k_max: int | None = None, scales=(1.0, 2.0, 4.0)) -> list[FieldPair]:
    """Seed schedule t (phi_j, +-phi_j): scaled eigenmode pairs, both signs."""
    k_max = k_max or min(spec.n, 6)
    seeds = []
    for j in range(1, k_max + 1):
        mode = SpectralField.unit(spec.basis, j)
        for t in scales:
            for sign in (+1.0, -1.0):
                seeds.append(FieldPair(mode * (sign * t), mode * (sign * t), spec.r))
    return seeds


def deflated_solve(
    spec: ProblemSpec,
    config: NewtonConfig | None = None,
    known: list[FieldPair] | None = None,
    seeds: list[FieldPair] | None = None,
) -> SolveResult:
    """Find one solution distinct from every known one, or report exhaustion."""
    config = config or NewtonConfig()
    known = list(known or [])
    seeds = seeds if seeds is not None else default_seeds(spec)
    best: SolveResult | None = None
    for seed in seeds:
        result = newton_solve(seed, spec, config, known)
        if result.converged:
            return result
        if best is None or result.residual_norm < best.residual_norm:
            best = result
    if best is None:
        best = SolveResult(
            z=spec.zero_pair(), residual_norm=math.inf, iterations=0,
            converged=False, energy=0.0, message="empty seed schedule",
        )
    best.message = f"seed schedule exhausted ({best.message})"
    return best


@dataclass
class SolutionRecord:
    """One computed critical point; mirror holds -z when it also solves."""

    z: FieldPair
    energy: float
    residual: float
    mirror: FieldPair | None = None


@dataclass
class Branch:
    """Computed critical points sorted by increasing energy."""

    records: list[SolutionRecord] = field(default_factory=list)
    exhausted: bool = False
    note: str = ""


def _candidate_key(z: FieldPair, e: float) -> tuple:
    return (e, tuple(z.u.coeffs), tuple(z.v.coeffs))


def find_branch(
    spec: ProblemSpec,
    seeds: list[FieldPair] | None = None,
    count: int = 3,
    config: NewtonConfig | None = None,
) -> Branch:
    """Collect `count` distinct critical points (one record per mirror pair).

    A plain Newton sweep over the seed schedule runs first (its results are
    merged in a fixed order, each kept when it lies beyond `separation` of
    every point kept before); deflation fills in afterwards, and every
    deflated solution it converges to is new.  For a
    symmetric problem each record's mirror -z solves as well, since the
    forcing-free residual is exactly odd, and both are deflated against;
    -z lies beyond `separation` of z because z does of the zero pair.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    config = config or NewtonConfig()
    seeds = seeds if seeds is not None else default_seeds(spec)
    symmetric = spec.is_symmetric()

    results = [newton_solve(seed, spec, config) for seed in seeds]
    candidates = [
        (res.z, res.energy, res.residual_norm) for res in results if res.converged
    ]
    candidates.sort(key=lambda item: _candidate_key(item[0], item[1]))

    records: list[SolutionRecord] = []
    deflate_against: list[FieldPair] = []
    if symmetric:
        # the trivial solution is known a priori; keep Newton away from it
        deflate_against.append(spec.zero_pair())

    def accept(z: FieldPair, e: float, rn: float) -> None:
        mirror = -z if symmetric else None
        records.append(SolutionRecord(z=z, energy=e, residual=rn, mirror=mirror))
        deflate_against.append(z)
        if mirror is not None:
            deflate_against.append(mirror)

    for z, e, rn in candidates:
        if len(records) < count and all(
            pair_norm(z - zi) > config.separation for zi in deflate_against
        ):
            accept(z, e, rn)

    exhausted, note = False, ""
    while len(records) < count:
        # converged means beyond `separation` of everything deflated against
        result = deflated_solve(spec, config, deflate_against, seeds)
        if not result.converged:
            exhausted = True
            note = result.message
            break
        accept(result.z, result.energy, result.residual_norm)

    records.sort(key=lambda rec: _candidate_key(rec.z, rec.energy))
    return Branch(records=records, exhausted=exhausted, note=note)


@dataclass
class ContinuationResult:
    z: FieldPair
    reached: float
    converged: bool
    message: str = ""


def continuation(
    sym_solution: FieldPair,
    spec_target: ProblemSpec,
    steps: int = 5,
    config: NewtonConfig | None = None,
) -> ContinuationResult:
    """Homotopy in the forcing: solve at t/steps * (h, k) for t = 1..steps.

    The input must solve the forcing-free problem; each stage reuses the
    previous solution as the Newton seed.  On failure the largest t reached
    is reported.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    config = config or NewtonConfig()
    z = sym_solution
    reached = 0.0
    for i in range(1, steps + 1):
        t = i / steps
        stage = spec_target.scaled_forcing(t)
        result = newton_solve(z, stage, config)
        if not result.converged:
            return ContinuationResult(
                z=z, reached=reached, converged=False,
                message=f"Newton failed at t={t}: {result.message}",
            )
        z = result.z
        reached = t
    return ContinuationResult(z=z, reached=1.0, converged=True)


# ---------------------------------------------------------------------------
# Level brackets
# ---------------------------------------------------------------------------


def _projected_ascent(value_grad, starts: list[np.ndarray], weights: np.ndarray, iters: int):
    """Maximize a value over the unit weighted sphere sum_k weights_k c_k^2 = 1.

    All starts advance together, one row each: a step along the gradient,
    retracted onto the sphere, is accepted when it raises the row's value;
    the row's step (first 0.5) then grows by 1.3 up to 10, and is halved
    otherwise.  A row stops when its step falls below 1e-12 or after `iters`
    steps, and only rows still running are evaluated, so every row takes the
    path it would take alone.  value_grad(C) returns the values and ascent
    directions at the rows of C.  Returns the best value, the first in start
    order on ties, and the point that reached it.
    """

    def normalize(C: np.ndarray) -> np.ndarray:
        return C / np.array([math.sqrt(x) for x in _row_dots(weights * C, C)])[:, None]

    C = normalize(np.array(starts, dtype=float))
    vals, grads = value_grad(C)
    steps = np.full(len(C), 0.5)
    taken = np.zeros(len(C), dtype=int)
    rows = np.arange(len(C))
    while rows.size:
        cand = normalize(C[rows] + steps[rows, None] * grads[rows])
        cand_vals, cand_grads = value_grad(cand)
        up = cand_vals > vals[rows] + 1e-16
        won = rows[up]
        C[won], vals[won], grads[won] = cand[up], cand_vals[up], cand_grads[up]
        steps[rows] = np.where(up, np.minimum(steps[rows] * 1.3, 10.0), steps[rows] * 0.5)
        taken[rows] += 1
        rows = rows[(steps[rows] >= 1e-12) & (taken[rows] < iters)]
    best_val = -math.inf
    best_c = None
    for val, c in zip(vals, C):
        if val > best_val:
            best_val = float(val)
            best_c = c
    return best_val, best_c


def _power_moment(spec: ProblemSpec, coeffs: np.ndarray, exponent: float):
    """int |w|^(exponent+1) and its gradient in the coefficients of w, for
    each row w of the (rows, n) stack."""
    tables = spec.tables
    vals = tables.evaluate(coeffs)
    val = tables.integrate(np.abs(vals) ** (exponent + 1.0))
    pair = tables.pairings((exponent + 1.0) * np.abs(vals) ** (exponent - 1.0) * vals)
    if not np.all(np.isfinite(pair)):
        raise ValueError("coefficients must be finite")
    return val, pair


def _sphere_extremal(
    spec: ProblemSpec,
    active: int,
    exponent: float,
    order: float,
    seed: int,
    restarts: int = 10,
    iters: int = 300,
    warm_start: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Minimize int |w|^(exponent+1) over the unit order-norm sphere of the
    first `active` modes, by projected ascent on its negative."""
    rng = np.random.default_rng(seed)

    def value_grad(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        coeffs = np.zeros((len(C), spec.n))
        coeffs[:, :active] = C
        val, pair = _power_moment(spec, coeffs, exponent)
        return -val, -pair[:, :active]

    starts = [] if warm_start is None else [np.array(warm_start, dtype=float)]
    while len(starts) < restarts:
        starts.append(rng.standard_normal(active))
    weights = spec.basis.eigenvalues[:active] ** order
    best_val, best_c = _projected_ascent(value_grad, starts, weights, iters)
    return -best_val, np.asarray(best_c)


def _gn_constant(spec: ProblemSpec, exponent: float, order: float, theta: float, seed: int) -> float:
    """Best constant of |w|_{exponent+1} <= S |w|_2^theta |w|_order^(1-theta)
    over the truncated span, by gradient ascent of the scale-invariant ratio."""
    weights = spec.basis.eigenvalues**order
    rng = np.random.default_rng(seed)

    def value_grad(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        num_int, pair = _power_moment(spec, C, exponent)
        l2sq = _row_dots(C, C)
        sobsq = _row_dots(weights * C, C)
        ratio = np.array([
            float(num) ** (1.0 / (exponent + 1.0))
            / (math.sqrt(l2) ** theta * math.sqrt(sob) ** (1.0 - theta))
            for num, l2, sob in zip(num_int, l2sq, sobsq)
        ])
        # ascend along the gradient of log ratio
        return ratio, (
            pair / ((exponent + 1.0) * num_int)[:, None]
            - theta * C / l2sq[:, None]
            - (1.0 - theta) * weights * C / sobsq[:, None]
        )

    starts = [rng.standard_normal(spec.n) for _ in range(10)]
    return max(0.0, _projected_ascent(value_grad, starts, weights, 200)[0])


def _forcing_size(spec: ProblemSpec) -> float:
    """Forcing size C0 = |k|_2 lambda_1^(-r/2) + |h|_2 lambda_1^(r/2-1), which
    bounds the forcing term: |int k u + int h v| <= C0 |(u, v)|."""
    lam1 = float(spec.basis.eigenvalues[0])
    return (
        sobolev_norm(spec.k, 0.0) * lam1 ** (-spec.r / 2.0)
        + sobolev_norm(spec.h, 0.0) * lam1 ** (-(2.0 - spec.r) / 2.0)
    )


def lower_growth_constant(spec: ProblemSpec, seed: int = 0) -> float:
    """Constant gamma of the lower level curve gamma k^(2 alpha).

    Assembled from computed truncation data: interpolation constants on the
    truncated span, the eigenvalue growth constant of the box, and the
    forcing size.  Conservative by construction; the exponent is exact.
    """
    pt = region.PQPoint(p=spec.p, q=spec.q, N=spec.domain.dim)
    theta, zeta = region.interpolation_exponents(pt, spec.r)
    c_lam = eigenvalue_growth_constant(spec.basis)
    s_q = _gn_constant(spec, spec.q, spec.r, theta, seed=seed)
    s_p = _gn_constant(spec, spec.p, 2.0 - spec.r, zeta, seed=seed + 1)
    d_q = s_q ** (spec.q + 1.0) * c_lam ** (-spec.r * theta * (spec.q + 1.0) / 2.0) / (
        spec.q + 1.0
    )
    d_p = s_p ** (spec.p + 1.0) * c_lam ** (
        -(2.0 - spec.r) * zeta * (spec.p + 1.0) / 2.0
    ) / (spec.p + 1.0)
    c1 = _forcing_size(spec)

    def g(x: float) -> float:
        return (
            x
            - d_q * x ** ((spec.q + 1.0) / 2.0)
            - d_p * x ** ((spec.p + 1.0) / 2.0)
            - c1 * math.sqrt(x)
        )

    grid = np.logspace(-12.0, 6.0, 2000)
    values = [g(x) for x in grid]
    best = max(values)
    if best <= 0.0:
        return 0.0
    x0 = float(grid[int(np.argmax(values))])
    lo, hi = x0 / 10.0, x0 * 10.0
    for _ in range(200):  # golden-section refine
        m1 = lo + 0.381966 * (hi - lo)
        m2 = hi - 0.381966 * (hi - lo)
        if g(m1) < g(m2):
            lo = m1
        else:
            hi = m2
    return max(best, g(0.5 * (lo + hi)))


@dataclass
class LevelBracket:
    """Bracket for the k-th minimax level over the truncation."""

    k: int
    lower: float
    upper: float
    radius: float
    ceiling: float
    max_pointwise_excess: float


def estimate_levels(
    spec: ProblemSpec,
    k_max: int,
    samples: int = 200,
    cutoff: CutoffConfig | None = None,
    seed: int = 0,
) -> list[LevelBracket]:
    """Bracket the first k_max minimax levels.

    upper: sampled supremum of the modified energy over the radius-R_k ball
    of the span of the full minus-eigenspace and the first k plus-modes; the
    sample set of level k contains the maximizer of level k-1, so the
    reported sequence is monotone.  Every sample is checked against the
    closed-form ceiling |z|^2/2 + C0 |z| <= ceiling = (1/2 + C0/R_k) R_k^2.
    R_k solves R^2/2 = c_k R^m (m = min(p,q)+1) with a safety factor 2,
    where c_k is the computed minimum of the normalized nonlinear integrals
    over the unit sphere of the first k modes.
    lower: gamma k^(2 alpha) with computed gamma and exact exponent.
    A bracket value that is not finite raises ValueError naming k and field.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    cutoff = cutoff or CutoffConfig.default_for(spec)
    if k_max > spec.n:
        raise ValueError(f"k_max={k_max} exceeds the truncation {spec.n}")
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    pt = region.PQPoint(p=spec.p, q=spec.q, N=spec.domain.dim)
    _, _, alpha = region.growth_exponents(pt, spec.r)
    gamma = lower_growth_constant(spec, seed=seed)
    c0 = _forcing_size(spec)
    m_exp = min(spec.p, spec.q) + 1.0
    weights = _weights(spec.basis, spec.r)
    brackets: list[LevelBracket] = []
    warm_q = warm_p = None
    prev_best_point: np.ndarray | None = None
    prev_upper = -math.inf
    for k in range(1, k_max + 1):
        cq, warm_q = _sphere_extremal(
            spec, k, spec.q, spec.r, seed=seed + 17 * k,
            warm_start=_padded(warm_q, k),
        )
        cp, warm_p = _sphere_extremal(
            spec, k, spec.p, 2.0 - spec.r, seed=seed + 17 * k + 1,
            warm_start=_padded(warm_p, k),
        )
        c_k = min(cq / (spec.q + 1.0), cp / (spec.p + 1.0))
        try:
            radius = 2.0 * (1.0 / (2.0 * c_k)) ** (1.0 / (m_exp - 2.0))
        except OverflowError:
            raise ValueError(
                f"level radius (1/(2 c_k))^(1/(m-2)) overflows at k={k}, m - 2 = {m_exp - 2.0}"
            ) from None
        rng = np.random.default_rng(seed + 1000 + k)
        upper, best_point, excess = prev_upper, prev_best_point, -math.inf
        for points in _level_points(spec, k, radius, prev_best_point, samples, rng):
            jvals = Evaluation(points, spec).modified_energy(cutoff)
            zn = np.sqrt(_metric_dots(points, points, weights))
            # in point order, as the running max of one point at a time
            excess = max(excess, *(jvals - (0.5 * zn * zn + c0 * zn)).tolist())
            for point, jval in zip(points, jvals.tolist()):
                if jval > upper:
                    upper, best_point = jval, point
        ceiling = (0.5 + (c0 / radius if radius > 0 else 0.0)) * radius * radius
        try:
            lower = gamma * float(k) ** (2.0 * alpha)
        except OverflowError:
            lower = math.inf
        bracket = LevelBracket(
            k=k, lower=lower, upper=upper, radius=radius, ceiling=ceiling,
            max_pointwise_excess=excess,
        )
        for name, value in vars(bracket).items():
            if not math.isfinite(value):
                raise ValueError(f"level bracket at k={k}: {name} is not finite ({value})")
        brackets.append(bracket)
        prev_best_point = best_point
        prev_upper = upper
    return brackets


def _level_points(spec, k, radius, prev_best, samples, rng):
    """Level k's points in stacks of energy._stack_rows rows: level k-1's best,
    the scaled plus eigenvectors, then the samples, each drawn in turn."""
    size = _stack_rows(spec)
    fixed = [] if prev_best is None else [prev_best]
    for j in range(1, k + 1):
        e_plus = coupling_eigenvector(spec.basis, j, +1, spec.r).vec
        fixed += [e_plus * (frac * radius) for frac in (0.25, 0.5, 0.75, 1.0)]
    for start in range(0, len(fixed), size):
        yield np.array(fixed[start : start + size])
    for start in range(0, samples, size):
        a_plus = np.zeros((min(size, samples - start), spec.n))
        a_minus = np.empty_like(a_plus)
        rads = np.empty(len(a_plus))
        for i in range(len(a_plus)):
            a_plus[i, :k] = rng.standard_normal(k)
            a_minus[i] = rng.standard_normal(spec.n)
            rads[i] = radius * rng.uniform() ** (1.0 / (spec.n + k))
        scale = (rads / np.sqrt(_row_dots(a_plus, a_plus) + _row_dots(a_minus, a_minus)))[:, None]
        yield _vecs_from_coordinates(spec.basis, spec.r, a_plus * scale, a_minus * scale)


def _padded(vec: np.ndarray | None, size: int) -> np.ndarray | None:
    if vec is None:
        return None
    out = np.zeros(size)
    out[: vec.size] = vec
    return out


@dataclass
class CriticalReport:
    """Diagnostics of a candidate critical point."""

    residual_norm: float
    energy: float
    modified_energy: float
    cutoff_argument: float
    cutoff_weight: float
    bound_ok: bool
    min_bound_constant: float
    energy_gap: float  # modified minus unmodified energy


def verify_critical(
    z: FieldPair, spec: ProblemSpec, cutoff: CutoffConfig | None = None
) -> CriticalReport:
    """Evaluate every critical-point diagnostic at z (no exceptions on bad z).

    bound_ok records whether the nonlinear part is at most
    bound_constant * sqrt(energy^2 + 1), the a-priori inequality that parks
    the cutoff weight at one; min_bound_constant is the smallest constant
    that would satisfy it at this point.
    """
    cutoff = cutoff or CutoffConfig.default_for(spec)
    ev = Evaluation.at(z, spec)
    rn = ev.gradient().norm()
    _, e, _, theta = ev.cutoff_terms(cutoff)
    j = ev.modified_energy(cutoff)
    psi = bump(theta)
    nonlinear = theta * 2.0 * cutoff.bound_constant * math.sqrt(e * e + 1.0)
    min_a = nonlinear / math.sqrt(e * e + 1.0)
    return CriticalReport(
        residual_norm=rn,
        energy=e,
        modified_energy=j,
        cutoff_argument=theta,
        cutoff_weight=psi,
        bound_ok=min_a <= cutoff.bound_constant * (1.0 + 1e-12),
        min_bound_constant=min_a,
        energy_gap=j - e,
    )
