"""Critical-point computation: Newton, deflation, continuation, level brackets.

The residual is the coefficient-space gradient of the energy (its zeros are
the Galerkin solutions of the system): `residual` is energy.energy_gradient
under the solver's name.  Newton reads the residual and the blocks of its
Jacobian from one energy.Evaluation per iterate, so u and v are synthesized
once per point; the diagonal blocks are the Galerkin matrices of the power
derivatives and the off-diagonal blocks the diagonal of the eigenvalues.  No
2n x 2n Jacobian is assembled: each step eliminates one block through that
diagonal and solves one n x n Schur complement, by one of two linear
solves.  Below n = _KRYLOV_N, a measured crossover, the blocks are built
from their cosine moments on the grid tables of the basis
(basis.GridTables) and the complement is solved densely; from it on, GMRES
solves it, applying the blocks on the grid (Evaluation.apply_blocks), so no
n x n matrix or gather index is built.  The dense-matrix residual and
Jacobian, the Jacobian assembled from the blocks, the dense solves that
check the step and scipy's GMRES, which checks this one, live in the tests.
There is one Newton loop; deflation is an option of it, which multiplies the
residual by prod_i (dist_i^-2 + 1) over known solutions so Newton runs land
on new ones (the rank-one term this adds to the Jacobian enters the step by
Sherman-Morrison), and with nothing to deflate against it is plain Newton.
Its backtracking line search evaluates the fixed step ladder 1, 1/2, ...,
2^-39 as row stacks of doubling size on the grid tables; every accepted
step is still the first decrease in step order, so the iterates are those
of trying one step at a time.  The squared distances of a stack to the
known points, in the product-space metric of space.py, are computed once,
and the deflation factors and gradient and the separation test (a point
within `separation` of a known one is not a new solution) read them.  A
branch hunt seeds each eigenmode at a fraction of the amplitude where the
mode's own entries of the residual vanish, in closed form (the one-mode
Galerkin equations), and groups the converged runs into solutions, so its
records depend neither on the seed order nor on roundoff in the energies or
the coefficients.  Level brackets combine an upper bound sampled in row
stacks over nested saddle-geometry balls with a closed-form lower growth
curve whose constant is assembled from computed embedding data; a bracket
value that leaves the float range is an error.  Both extremal problems
behind them run through one projected-ascent routine, which advances all
its restarts at once as the rows of one stack on the grid tables, each row
on the path it takes alone.
"""

from __future__ import annotations

import functools
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
    FieldPair, _metric_dots, _vecs_from_coordinates, _weights, coupling_eigenvector,
)

residual = energy_gradient  # the system residual, under the solver's name

# the line search's step ladder: the full step halved down to 2^-39 >= 1e-12
_STEPS = tuple(0.5**i for i in range(40))

# the least n whose Newton steps solve by GMRES rather than densely.  Whole
# Newton solves from amplitude 3 on mode 1 (p = q = 3, a cube of side pi in
# 1-D, 2-D and 3-D), dense against GMRES, in two or three rounds per size on
# a 2-core x86-64 VM: at n = 64 dense was faster in every dimension and
# round (GMRES took 1.2-1.8 times as long), at n = 96 either was, and from
# n = 112 on GMRES was in every dimension and round (0.71-0.94 times the
# time at n = 112, 0.70-0.90 at n = 128, 0.27-0.61 in 2-D and 3-D at 256)
_KRYLOV_N = 128


@dataclass
class NewtonConfig:
    """Newton iteration controls (plus the branch separation threshold)."""

    tol: float = 1e-10
    max_iter: int = 50
    separation: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not self.separation > 0.0:
            raise ValueError(f"separation must be positive, got {self.separation}")


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
    rank-one term to the Jacobian.  Each step is one n x n solve, dense or
    by GMRES, with that term applied by Sherman-Morrison (see _newton_step);
    a singular Schur complement, GMRES short of its tolerance after n
    iterations, or a singular rank-one update ends the run as a singular
    Jacobian.
    Convergence is still judged on the undeflated residual, and a point
    within `separation` of a known solution is not accepted; with no known
    solution it is plain Newton.  Backtracking accepts the first step of the
    fixed ladder 1, 1/2, ..., 2^-39 that decreases the (deflated) residual
    norm (see _backtrack), so every accepted step is monotone.  Stalling at
    the end of the ladder or exhausting max_iter returns the best iterate
    with a diagnostic (a bad seed, not an error).
    """
    config = config or NewtonConfig()
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
        a = _deflation_gradient(ev.vecs, known_stack, weights, d2, m) if known else None
        try:
            delta = _newton_step(ev, rvec, m, a)
        except np.linalg.LinAlgError:
            return outcome(
                it - 1, False, "singular deflated Jacobian" if known else "singular Jacobian"
            )
        found = _backtrack(ev.vecs, delta, fn, spec, known_stack, weights)
        if found is None:
            return outcome(
                it, False,
                "deflated line search stalled" if known
                else "line search stalled below min_step",
            )
        ev, res, d2, m, rn = found
        fn = m * rn
        if rn <= config.tol and separated(d2):
            return outcome(it, True)
    return outcome(config.max_iter, False, "max_iter reached")


def _newton_step(ev: Evaluation, r: np.ndarray, m: float = 1.0, a: np.ndarray | None = None):
    """The Newton step -(m J + r a^T)^-1 m r at ev for the residual r scaled
    by the deflation factor m, whose gradient is a (None for plain Newton,
    whose step is -J^-1 r).

    J = [[-P, L], [L, -Q]] (P and Q the Galerkin blocks of the Evaluation,
    L the diagonal of the eigenvalues, all positive) is never assembled:
    w = J^-1 r comes from one n x n solve with the Schur complement
    S = L - P L^-1 Q, as S y = r_u + P L^-1 r_v and x = L^-1 (r_v + Q y), and
    J is invertible exactly when S is.  Below n = _KRYLOV_N the blocks are
    built and S is solved densely.  From it on, y comes from GMRES on
    L^-1 S = I - L^-1 P L^-1 Q, a compact perturbation of the identity, to
    relative residual 1e-10, applying P and Q through
    Evaluation.apply_blocks, so no n x n matrix is built.  Deflation's
    rank-one term enters by Sherman-Morrison, as the step -m w / (m + a.w).
    Raises LinAlgError when S is singular (or GMRES does not converge in n
    iterations), or m + a.w is 0 or not finite."""
    lam, n = ev.spec.basis.eigenvalues, ev.spec.n
    if n >= _KRYLOV_N:
        def P(x):
            return ev.apply_blocks(x_u=x)[0]

        def Q(x):
            return ev.apply_blocks(x_v=x)[1]

        y = _gmres(lambda x: x - P(Q(x) / lam) / lam, (r[:n] + P(r[n:] / lam)) / lam)
        w = np.concatenate([(r[n:] + Q(y)) / lam, y])
    else:
        P, Q = ev.galerkin_blocks()
        P /= lam  # P L^-1
        S = P @ Q
        np.negative(S, out=S)
        S.flat[:: n + 1] += lam
        y = np.linalg.solve(S, r[:n] + P @ r[n:])
        w = np.concatenate([(r[n:] + Q @ y) / lam, y])
    if a is None:
        return -w
    denominator = m + float(np.dot(a, w))
    if denominator == 0.0 or not math.isfinite(denominator):
        raise np.linalg.LinAlgError("singular deflated Jacobian")
    return (-m / denominator) * w


def _gmres(op, b: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """x with |op(x) - b| <= rtol |b|, by GMRES from x = 0 (Saad & Schultz):
    Arnoldi by classical Gram-Schmidt, applied twice, with the least squares
    problem on the Hessenberg matrix kept triangular by Givens rotations, so
    that the last entry of the rotated right-hand side is the residual norm.
    At most b.size iterations; raises LinAlgError if they do not reach the
    tolerance, or if the operator gives a non-finite vector."""
    size, beta = b.size, float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b)
    V = np.empty((size + 1, size))  # the Krylov basis, one vector per row
    R = np.zeros((size, size))  # the rotated Hessenberg matrix, transposed
    cs, sn = np.empty(size), np.empty(size)
    g = np.zeros(size + 1)
    V[0], g[0] = b / beta, beta
    for k in range(size):
        w = op(V[k])
        h = V[: k + 1] @ w
        w -= h @ V[: k + 1]
        again = V[: k + 1] @ w
        w -= again @ V[: k + 1]
        h += again
        hn = float(np.linalg.norm(w))
        for i in range(k):  # the earlier rotations, in order
            h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], cs[i] * h[i + 1] - sn[i] * h[i]
        rho = math.hypot(h[k], hn)
        if rho == 0.0 or not math.isfinite(rho):  # a singular or non-finite operator
            break
        cs[k], sn[k] = h[k] / rho, hn / rho
        h[k] = rho
        R[k, : k + 1] = h
        g[k], g[k + 1] = cs[k] * g[k], -sn[k] * g[k]
        if abs(g[k + 1]) <= rtol * beta:
            return np.linalg.solve(R[: k + 1, : k + 1].T, g[: k + 1]) @ V[: k + 1]
        V[k + 1] = w / hn
    raise np.linalg.LinAlgError("GMRES did not reach its tolerance")


def _backtrack(vec, delta, fn, spec, known, weights):
    """The first step of the ladder _STEPS (1, 1/2, ..., 2^-39) whose point
    vec + step * delta has a deflated residual norm below fn, as (the
    point's evaluation, residual, squared distances to the known points,
    deflation factor, residual norm), or None if no step does.

    The ladder is evaluated in row stacks of doubling size: the full step
    alone, then the next 2, 4, 8, ... steps, up to the stack size of
    energy._stack_rows, counting the known-point differences.  Rows after
    the accepted one are discarded, and a non-finite point raises as it is
    reached, so the outcome is that of trying the steps one at a time."""
    cap = _stack_rows(spec, known.size)
    start, size = 0, 1
    while start < len(_STEPS):
        steps = _STEPS[start : start + size]
        start, size = start + size, min(2 * size, cap)
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


def _deflation_gradient(z_vec, known, weights, d2: list[float], m: float):
    """Coefficient-space gradient of the deflation factor m (finite) at z_vec,
    d2 its _distances: m times the sum over known points, in order, of
    d/dz log(d_i^-2 + 1)."""
    diff = z_vec - known
    d2 = np.array(d2)
    # d/dz of (d^-2 + 1) over (d^-2 + 1), with d^2 the metric distance squared
    terms = (-1.0 / (d2 * d2) / (1.0 / d2 + 1.0))[:, None] * (2.0 * weights * diff)
    # summed in known order from +0.0, as a running sum is, so that the sign
    # of a zero entry does not depend on the first term
    return m * np.sum(terms, axis=0, initial=0.0)


# the fraction of each mode's one-mode Galerkin amplitude that the default
# schedule seeds at, raised to _seed_floor where that is larger.  Over 23
# test hunts in 1-D, 2-D and 3-D, each of 0.65, 0.7 and 0.8 kept every
# record of the fixed amplitudes t in {1, 2, 4}; 1.0 lost mixed-mode
# solutions in 2-D and 3-D, and (1.0, 0.7, 1.4) took 9 times as long as 0.7.
_SEED_SCALE = 0.7


def _log_power_integral(spec: ProblemSpec, e: float) -> float:
    """log int |phi_j|^e, the same for every eigenfunction of the box: the
    sum over the axes of the log of (2/L)^(e/2) L Gamma((e+1)/2) /
    (sqrt(pi) Gamma(e/2 + 1))."""
    return sum(
        0.5 * e * math.log(2.0 / L) + math.log(L) - 0.5 * math.log(math.pi)
        + math.lgamma(0.5 * (e + 1.0)) - math.lgamma(0.5 * e + 1.0)
        for L in spec.domain.lengths
    )


def _galerkin_amplitudes(spec: ProblemSpec, k_max: int) -> list[tuple[float, float]]:
    """(t_j, s_j) for j = 1..k_max: the positive amplitudes at which the
    mode-j entries of the gradient vanish on the ray (t phi_j, s phi_j),

        lambda_j s = t^q M_(q+1),  lambda_j t = s^p M_(p+1),  M_e = int |phi_j|^e,

    so t^(pq-1) = lambda_j^(p+1) / (M_(q+1)^p M_(p+1)), solved in logs.  An
    amplitude that is not a finite positive float raises ValueError, and so
    does a power t^q or s^p of the equations that overflows: the residual
    takes those powers of the grid values (at p = 1e300, s_1 = 1.2533 on
    (0, pi), and s^p overflows while M_(p+1) underflows)."""
    p, q = spec.p, spec.q
    amplitudes = []
    try:
        log_mq = _log_power_integral(spec, q + 1.0)
        log_mp = _log_power_integral(spec, p + 1.0)
        for lam in spec.basis.eigenvalues[:k_max].tolist():
            log_t = ((p + 1.0) * math.log(lam) - p * log_mq - log_mp) / (p * q - 1.0)
            log_s = q * log_t + log_mq - math.log(lam)
            math.exp(q * log_t), math.exp(p * log_s)  # raise if the powers overflow
            amplitudes.append((math.exp(log_t), math.exp(log_s)))
    except OverflowError:
        raise ValueError("coefficients must be finite") from None
    for amplitude in amplitudes:
        if not all(0.0 < a < math.inf for a in amplitude):  # also false for NaN
            raise ValueError("coefficients must be finite")
    return amplitudes


def _seed_floor(p: float, q: float) -> float:
    """c*^0.65, with c* = (pq)^(-1/(p+q-2)): from c (t_j, s_j) with c < c*,
    the first Newton step of the one-mode equations, in the coordinates
    (t / t_j, s / s_j), heads for the zero solution.  The floor is 0.70 at
    p = q = 3 and 0.81 at p = 1.5, q = 8, where seeds at 0.7 fall to zero."""
    return (p * q) ** (-0.65 / (p + q - 2.0))


def default_seeds(spec: ProblemSpec, k_max: int | None = None) -> list[FieldPair]:
    """Seed schedule c (t_j phi_j, s_j phi_j), both signs, for the first
    k_max modes (default min(n, 6)) in turn, where (t_j, s_j) is mode j's
    one-mode Galerkin amplitude (see _galerkin_amplitudes) and c is
    _SEED_SCALE, raised to _seed_floor(p, q) where that is larger.  A
    forced problem's schedule starts with the zero pair, from which Newton
    reaches the perturbed trivial solution.  No point is evaluated."""
    k_max = k_max or min(spec.n, 6)
    seeds = [] if spec.is_symmetric() else [spec.zero_pair()]
    c = max(_SEED_SCALE, _seed_floor(spec.p, spec.q))
    for j, (t, s) in enumerate(_galerkin_amplitudes(spec, k_max), start=1):
        mode = SpectralField.unit(spec.basis, j)
        for sign in (+1.0, -1.0):
            seeds.append(FieldPair(mode * (sign * c * t), mode * (sign * c * s), spec.r))
    return seeds


def deflated_solve(
    spec: ProblemSpec, config: NewtonConfig, known: list[FieldPair], seeds: list[FieldPair]
) -> SolveResult:
    """Find one solution distinct from every known one, or report exhaustion."""
    failures = []
    for seed in seeds:
        result = newton_solve(seed, spec, config, known)
        if result.converged:
            return result
        failures.append(result)
    return _exhausted(failures, spec)


def _exhausted(failures: list[SolveResult], spec: ProblemSpec) -> SolveResult:
    """The failed run of least residual norm (the first on ties), noted as exhausting."""
    best = min(failures, key=lambda res: res.residual_norm, default=None)
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


def _record(z: FieldPair, e: float, rn: float, symmetric: bool) -> SolutionRecord:
    """The record of a solution; of a symmetric problem's mirror pair z, -z
    (equal in energy and residual, bit for bit) it stores the member whose
    u-coefficient of largest magnitude is positive."""
    if not symmetric:
        return SolutionRecord(z=z, energy=e, residual=rn)
    if z.u.coeffs[np.argmax(np.abs(z.u.coeffs))] < 0.0:
        z = -z
    return SolutionRecord(z=z, energy=e, residual=rn, mirror=-z)


def _coefficient_order(a: SolutionRecord, b: SolutionRecord) -> int:
    """-1, 0 or 1 as a comes before, with or after b: the record with the
    larger coefficient comes first at the first entry where the two differ
    by more than 1e-9 of the largest entry of either, so entries equal up to
    roundoff never decide; the raw floats decide, the same way, only where
    no entry is that far apart."""
    x, y = a.z.vec, b.z.vec
    tol = 1e-9 * max(np.abs(x).max(), np.abs(y).max())
    apart = np.flatnonzero(np.abs(x - y) > tol)
    if apart.size:
        return -1 if x[apart[0]] > y[apart[0]] else 1
    x, y = x.tolist(), y.tolist()
    return (x < y) - (x > y)


_coefficient_key = functools.cmp_to_key(_coefficient_order)


def _energy_order(records: list[SolutionRecord]) -> list[SolutionRecord]:
    """The records by energy, energies within 1e-12 relative of their
    neighbour counting as equal and ordered by _coefficient_order."""
    records = sorted(records, key=lambda rec: rec.energy)
    ordered: list[SolutionRecord] = []
    tie: list[SolutionRecord] = []
    for rec in records:
        if tie and rec.energy - tie[-1].energy > 1e-12 * max(abs(rec.energy), abs(tie[-1].energy)):
            ordered += sorted(tie, key=_coefficient_key)
            tie = []
        tie.append(rec)
    return ordered + sorted(tie, key=_coefficient_key)


def _solutions(
    candidates: list[SolutionRecord], spec: ProblemSpec, separation: float
) -> list[SolutionRecord]:
    """One record per solution among the candidate records, in energy order.

    Candidates within `separation` of each other are one solution, and so,
    for a symmetric problem, are a candidate and the mirror of another;
    chains of such candidates join.  Each solution keeps its candidate of
    smallest residual, the coefficients breaking ties.  A symmetric
    problem's candidates within `separation` of the zero pair, its trivial
    solution, are dropped.  The result does not depend on the order of the
    candidates."""
    m = len(candidates)
    if not m:
        return []
    vecs = np.array([rec.z.vec for rec in candidates])
    symmetric = spec.is_symmetric()
    # each candidate, then each mirror and the zero pair for a symmetric problem
    others = np.concatenate([vecs, -vecs, np.zeros((1, 2 * spec.n))]) if symmetric else vecs
    near = np.sqrt(_distances(vecs, others, _weights(spec.basis, spec.r))) <= separation
    kept = range(m)
    if symmetric:
        kept = np.flatnonzero(~near[:, -1]).tolist()
        near = near[:, :m] | near[:, m : 2 * m]
    groups: list[list[int]] = []  # the connected components of `near`
    for i in kept:
        joined = [g for g in groups if near[i, g].any()]
        groups = [g for g in groups if g not in joined] + [[i, *sum(joined, [])]]
    return _energy_order([
        min((candidates[i] for i in g), key=lambda rec: (rec.residual, _coefficient_key(rec)))
        for g in groups
    ])


def find_branch(
    spec: ProblemSpec,
    seeds: list[FieldPair] | None = None,
    count: int = 3,
    config: NewtonConfig | None = None,
) -> Branch:
    """Collect `count` distinct critical points (one record per mirror pair).

    A plain Newton sweep over the seed schedule runs first, by default over
    min(n, max(6, count)) modes; its converged results are grouped into
    solutions and the lowest `count` kept (see _solutions), so the records
    do not depend on the seed order or on roundoff in the energies.
    Deflation fills in afterwards, and every deflated solution it converges
    to is new (a forced sweep that converges nowhere leaves nothing to
    deflate against, and ends the hunt).  For a symmetric problem each
    record's mirror -z solves as well, since the forcing-free residual is
    exactly odd, and both are deflated against, as is the zero pair; -z lies
    beyond `separation` of z because z does of the zero pair.  Records are
    in energy order (see _energy_order), a mirror pair stored as in _record.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    config = config or NewtonConfig()
    seeds = seeds if seeds is not None else default_seeds(spec, min(spec.n, max(6, count)))
    symmetric = spec.is_symmetric()

    results = [newton_solve(seed, spec, config) for seed in seeds]
    candidates = [
        _record(res.z, res.energy, res.residual_norm, symmetric)
        for res in results if res.converged
    ]
    records = _solutions(candidates, spec, config.separation)[:count]

    exhausted, note = False, ""
    while len(records) < count:
        # the trivial solution is known a priori; keep Newton away from it
        known = [spec.zero_pair()] if symmetric else []
        known += [m for rec in records for m in (rec.z, rec.mirror) if m is not None]
        # converged means beyond `separation` of everything deflated against;
        # deflating against nothing would rerun the sweep
        result = deflated_solve(spec, config, known, seeds) if known else _exhausted(results, spec)
        if not result.converged:
            exhausted = True
            note = result.message
            break
        records.append(_record(result.z, result.energy, result.residual_norm, symmetric))

    return Branch(records=_energy_order(records), exhausted=exhausted, note=note)


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
    order on ties, and the point that reached it.  A row whose weighted norm
    is 0 or overflows has no point on the sphere, and raises ValueError.
    """

    def normalize(C: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            norms = [math.sqrt(x) for x in _row_dots(weights * C, C).tolist()]
        if any(x == 0.0 or x == math.inf for x in norms):  # a NaN row fails later
            raise ValueError("projected ascent: a step's weighted norm is 0 or overflows")
        return C / np.array(norms)[:, None]

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
    warm_start: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Minimize int |w|^(exponent+1) over the unit order-norm sphere of the
    first `active` modes, by projected ascent on its negative from 10 starts
    (the warm start, then random ones) of at most 300 steps each."""
    rng = np.random.default_rng(seed)

    def value_grad(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        coeffs = np.zeros((len(C), spec.n))
        coeffs[:, :active] = C
        val, pair = _power_moment(spec, coeffs, exponent)
        return -val, -pair[:, :active]

    starts = [] if warm_start is None else [np.array(warm_start, dtype=float)]
    while len(starts) < 10:
        starts.append(rng.standard_normal(active))
    weights = spec.basis.eigenvalues[:active] ** order
    best_val, best_c = _projected_ascent(value_grad, starts, weights, 300)
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
    try:
        d_q = s_q ** (spec.q + 1.0) * c_lam ** (-spec.r * theta * (spec.q + 1.0) / 2.0) / (
            spec.q + 1.0
        )
        d_p = s_p ** (spec.p + 1.0) * c_lam ** (
            -(2.0 - spec.r) * zeta * (spec.p + 1.0) / 2.0
        ) / (spec.p + 1.0)
    except OverflowError:
        raise ValueError(
            f"lower growth curve coefficients overflow at eigenvalue growth constant {c_lam}"
        ) from None
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
    k_max: int | None = None,
    samples: int = 200,
    cutoff: CutoffConfig | None = None,
    seed: int = 0,
) -> list[LevelBracket]:
    """Bracket the first k_max minimax levels (by default min(5, n)).

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
    k_max = min(5, spec.n) if k_max is None else k_max
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
        upper, best_point, excess = -math.inf, prev_best_point, -math.inf
        for points in _level_points(spec, k, radius, prev_best_point, samples, rng):
            jvals = Evaluation(points, spec).modified_energy(cutoff)
            zn = np.sqrt(_metric_dots(points, points, weights))
            # in point order, as the running max of one point at a time
            excess = max(excess, *(jvals - (0.5 * zn * zn + c0 * zn)).tolist())
            for point, jval in zip(points, jvals.tolist()):
                if jval > upper:
                    upper, best_point = jval, point
        ceiling = (0.5 + (c0 / radius if radius > 0 else 0.0)) * radius * radius
        lower = region._power(k, 2.0 * alpha, gamma)
        bracket = LevelBracket(
            k=k, lower=lower, upper=upper, radius=radius, ceiling=ceiling,
            max_pointwise_excess=excess,
        )
        for name, value in vars(bracket).items():
            if not math.isfinite(value):
                raise ValueError(f"level bracket at k={k}: {name} is not finite ({value})")
        brackets.append(bracket)
        prev_best_point = best_point
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
    return None if vec is None else np.pad(vec, (0, size - vec.size))


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
    _, e, _, theta, s = ev.cutoff_terms(cutoff)
    j = ev.modified_energy(cutoff)
    psi = bump(theta)
    min_a = ev.terms[0] / s
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
