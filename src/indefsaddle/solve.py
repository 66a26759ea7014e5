"""Critical-point computation: Newton, deflation, continuation, level brackets.

The residual is the coefficient-space gradient of the energy (its zeros are
the Galerkin solutions of the system): `residual` is energy.energy_gradient
under the solver's name.  Newton reads the residual and the grid weights of
its Jacobian from one energy.Evaluation per iterate, so u and v are
synthesized once per point.  No 2n x 2n Jacobian is assembled: each step
solves one n x n Schur complement, whose operator one helper, _schur,
realizes below n = _KRYLOV_N, a measured crossover, as matrices built on
the grid tables of the basis (basis.GridTables) with a dense solve, and
from it on as products on the grid with GMRES, so that no n x n matrix or
gather index is built.  The dense-matrix residual and Jacobian, the
Jacobian assembled from the blocks, the dense solves that check the step
and scipy's GMRES, which checks this one, live in the tests.
There is one Newton loop, which runs a stack of iterates, one row per seed,
in lockstep; newton_solve is its one-row case.  A plain run whose seed and
forcing lie in one parity class of the basis (the modes of one parity per
axis, which the box's reflections keep; see the basis module docstring)
runs on the class's problem, a half of the modes and of the grid points
per axis, and its result is put back in the full basis with +0.0 off the
class: the one-mode seeds of a branch hunt, and the CLI's default seed
2 phi_1, run so.  At p = q with h and k bitwise equal, the swap
(u, v) -> (v, u) is a symmetry too, and a plain run from a seed with u
and v bitwise equal is diagonal: it solves the scalar equation
-Lap u = |u|^(p-1) u + h on its packed [u | u] rows, its evaluations
compute u's half once (see energy.Evaluation), and each step solves
(L - P) d = r_u alone and steps by [d | d] (see _schur), so its iterates
and its result keep u = v bit for bit.  Runs are grouped by parity class
and by this kind, so each stack is all diagonal or all on the system.
Deflation is an option of the Newton loop, which multiplies the residual
by prod_i (dist_i^-2 + 1) over known solutions so Newton runs land on new
ones (the rank-one term this adds to the Jacobian enters the step by
Sherman-Morrison), and with nothing to deflate against it is plain Newton.
Below _KRYLOV_N the plain rows build their Schur blocks (a diagonal
stack its one block L - P) and dense solves as stacked arrays; from it on
each row runs its own GMRES.  The backtracking line search tries every
row's full step in one stack, and a row that needs a shorter step goes on
down the fixed step ladder 1, 1/2, ..., 2^-39 in row stacks of doubling
size on the grid tables; every accepted step is still the first decrease
in step order, so each row's iterates are those of its seed's run alone,
taking one step at a time.  The squared distances of a stack to the known
points, in the product-space metric of space.py, are computed once, and the
deflation factors and gradient and the separation test (a point within
`separation` of a known one is not a new solution) read them.  A branch
hunt seeds each eigenmode at a fraction of the amplitude where the mode's
own entries of the residual vanish, in closed form (the one-mode Galerkin
equations), runs its plain sweep over the seeds as one stack (newton_sweep)
and groups the converged runs into solutions, so its records depend neither
on the seed order nor on roundoff in the energies or the coefficients.  For
a symmetric problem the residual is exactly odd, and each mirror pair of
seeds +-z runs once: the second seed's result is the first's mirrored.
Level brackets combine an upper bound sampled in row stacks over nested
saddle-geometry balls with a closed-form lower growth curve whose constant
is assembled from computed embedding data; a bracket value that leaves the
float range is an error.  A sample is evaluated only where closed-form
bounds on its energy, from its eigenvector coordinates, cannot rule out
that it raises a running maximum (in the measured p = q configs, none
is).  Both extremal problems behind the brackets run through one
Riemannian Newton routine, _ascend, which maximizes a 0-homogeneous
log-ratio over the unit sphere, in two stages: one for the two
Gagliardo-Nirenberg constants of the lower curve, and one for the q and p
sphere minima of every level, which fix the level radii.  A stage
advances all its starts at once as the rows of one stack, each row with
its own exponent and weights and on the path it takes alone, and keeps
only the rows still running; its Hessians are Galerkin matrices on the
grid tables below _KRYLOV_N (for the sphere minima, the block of the
first k_max modes), and products on the grid from it on, as in _schur.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import region
from .basis import (
    SpectralField,
    _row_dots,
    eigenvalue_growth_constant,
    grid_shape,
    sobolev_norm,
)
from .energy import (
    CutoffConfig,
    DualGradient,
    Evaluation,
    ProblemSpec,
    _check_point,
    _STACK_VALUES,
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
    with a diagnostic (a bad seed, not an error); a seed whose residual
    norm is not finite, or a seed or known point off the problem's basis or
    r, raises ValueError.  This is the one-row case of _newton.
    """
    return _newton([z0], spec, config or NewtonConfig(), known or [])[0]


def newton_sweep(
    seeds: list[FieldPair], spec: ProblemSpec, config: NewtonConfig | None = None
) -> list[SolveResult]:
    """Plain Newton from each seed, newton_solve(seed, spec, config) bit for
    bit, with the runs advancing together as the rows of one stack (see
    _newton).  For a symmetric problem, whose residual is exactly odd, a
    seed that is bitwise the negation of the seed before it is not run: its
    result is that seed's mirrored (see _mirrored), and the residual,
    energy, iterations and message are copied.  That is its own run's
    result but for the sign of a zero coefficient that an exact
    cancellation gave (+0.0 in both runs); the runs seen to have one fall
    to the trivial solution.  A seed whose residual norm is not finite, or
    that lies off the problem's basis or r, raises ValueError."""
    config = config or NewtonConfig()
    symmetric = spec.is_symmetric()
    mirrors = [
        symmetric and i > 0 and _negates(seed, seeds[i - 1]) for i, seed in enumerate(seeds)
    ]
    runs = iter(_newton([s for s, mirror in zip(seeds, mirrors) if not mirror], spec, config, []))
    codes = _parity_codes(_packed(seeds, spec), spec) if any(mirrors) else []
    results: list[SolveResult] = []
    for i, mirror in enumerate(mirrors):
        if mirror:
            results.append(replace(results[-1], z=_mirrored(results[-1].z, codes[i])))
        else:
            results.append(next(runs))
    return results


def _negates(z: FieldPair, w: FieldPair) -> bool:
    """Whether z is -w bitwise, on the same basis and r."""
    return z.basis == w.basis and z.r == w.r and z.vec.tobytes() == (-w.vec).tobytes()


def _mirrored(z: FieldPair, code: int | None) -> FieldPair:
    """-z, as the run from the mirrored seed of a run that ended at z gives
    it: for a run in parity class `code`, with +0.0 off the class (None for
    a run on the full problem)."""
    u, v = -z.u.coeffs, -z.v.coeffs
    if code is not None:
        off = z.basis.parity_codes != code
        u[off] = v[off] = 0.0
    return FieldPair(SpectralField(z.basis, u), SpectralField(z.basis, v), z.r)


def _packed(points: list[FieldPair], spec: ProblemSpec) -> np.ndarray:
    """The packed coefficients [u | v] of each point, one row each."""
    return np.array([z.vec for z in points]).reshape(len(points), 2 * spec.n)


def _point(vec: np.ndarray, spec: ProblemSpec) -> FieldPair:
    """The packed coefficients [u | v] as a point of the problem."""
    u, v = vec[: spec.n], vec[spec.n :]
    return FieldPair(SpectralField(spec.basis, u), SpectralField(spec.basis, v), spec.r)


@np.errstate(over="ignore", invalid="ignore")
def _newton(
    seeds: list[FieldPair], spec: ProblemSpec, config: NewtonConfig, known: list[FieldPair]
) -> list[SolveResult]:
    """The Newton loop of newton_solve, run from every seed at once.

    A plain run (no known points) whose seed, together with the forcing h
    and k, has its nonzero coefficients in one parity class of the basis
    (see _parity_codes) runs on that class's problem, whose residual and
    Newton map keep the class (see the basis module docstring).  A plain
    run is diagonal where p = q, h and k are bitwise equal and so are the
    seed's u and v (see _diagonal_rows); its steps are [d | d] (see
    _schur), so every iterate keeps u = v bit for bit.  The runs of one
    class and one of the two kinds run together (see _newton_rows), so each
    stack is all diagonal or all not, and each result of a class run is put
    in the full basis with +0.0 off the class; its energy and residual norm
    are then those of that point on the full problem, evaluated once.  A
    class run converges on the class problem's residual, which leaves out
    only the roundoff that the full grid's sums leak off the class.  Runs
    with seeds of mixed classes, forcing outside the seed's class or known
    points, and runs on a grid with an axis of odd length, run on the full
    problem.  Powers that overflow on the way show only in the outcome (a
    seed's non-finite residual norm raises, a later one stalls the line
    search), not as floating-point warnings."""
    for z in seeds:
        for zi in known:
            z._check_compatible(zi)
    for z in seeds:
        _check_point(z, spec)
    vecs = _packed(seeds, spec)
    plain = not known
    codes = _parity_codes(vecs, spec) if plain else [None] * len(seeds)
    diagonal = _diagonal_rows(vecs, spec) if plain else [False] * len(seeds)
    groups: dict[tuple[int | None, bool], list[int]] = {}
    for i, key in enumerate(zip(codes, diagonal)):
        groups.setdefault(key, []).append(i)
    results: list[SolveResult] = [None] * len(seeds)  # type: ignore[list-item]
    embedded, outcomes = [], []  # the class runs' last iterates in the full basis
    for (code, on_diagonal), members in groups.items():
        if code is None:
            runs = _newton_rows(vecs[members], spec, config, known, on_diagonal)
            for i, (ev, rn, it, converged, message) in zip(members, runs):
                results[i] = SolveResult(ev.z, rn, it, converged, _energy(ev), message)
            continue
        part, packed = _class_problem(spec, code)
        runs = _newton_rows(vecs[members][:, packed], part, config, [], on_diagonal)
        for i, (ev, _, *outcome) in zip(members, runs):
            row = np.zeros(2 * spec.n)
            row[packed] = ev.vecs
            embedded.append(row)
            outcomes.append((i, *outcome))
    cap = _stack_rows(spec)
    for start in range(0, len(embedded), cap):
        rows = Evaluation(np.array(embedded[start : start + cap]), spec)
        norms, energies = rows.gradient().norm().tolist(), _energy(rows).tolist()
        for vec, rn, e, (i, it, converged, message) in zip(
            rows.vecs, norms, energies, outcomes[start : start + cap]
        ):
            results[i] = SolveResult(_point(vec, spec), rn, it, converged, e, message)
    return results


def _class_problem(spec: ProblemSpec, code: int) -> tuple[ProblemSpec, np.ndarray]:
    """The problem on one parity class of the basis (see
    basis.SineBasis.parity_class), with the class's entries of h and k, and
    the positions of the class's coefficients in packed [u | v]."""
    basis, positions = spec.basis.parity_class(code)
    part = replace(
        spec, basis=basis,
        h=SpectralField(basis, spec.h.coeffs[positions]),
        k=SpectralField(basis, spec.k.coeffs[positions]),
    )
    return part, np.concatenate([positions, spec.n + positions])


def _energy(ev: Evaluation):
    """The unmodified energy at ev, of each row for a stack."""
    _, symmetric, forcing = ev.terms
    return symmetric - forcing


def _parity_codes(vecs: np.ndarray, spec: ProblemSpec) -> list[int | None]:
    """For each packed row [u | v] of vecs, the parity class (see
    basis.SineBasis.parity_codes) that holds every nonzero coefficient of
    the row, h and k, or None where they have none or lie in several, and
    for every row where the grid has an axis of odd length (a reflection
    maps the grid onto itself only along an axis of even length)."""
    if any(G % 2 for G in grid_shape(spec.basis, spec.oversample)):
        return [None] * len(vecs)
    n, codes = spec.n, spec.basis.parity_codes
    forcing = (spec.h.coeffs != 0.0) | (spec.k.coeffs != 0.0)
    support = (vecs[:, :n] != 0.0) | (vecs[:, n:] != 0.0) | forcing
    # whether the row has a nonzero coefficient in each class
    hits = support @ (codes[:, None] == np.arange(1 << spec.domain.dim))
    single = hits.sum(axis=1) == 1
    return [int(c) if one else None for c, one in zip(hits.argmax(1).tolist(), single.tolist())]


def _diagonal_rows(vecs: np.ndarray, spec: ProblemSpec) -> list[bool]:
    """For each packed row [u | v] of vecs, whether a plain run from it is
    diagonal: p = q, h and k bitwise equal, and u and v bitwise equal.  The
    swap (u, v) -> (v, u) is then a symmetry of the problem that keeps the
    seed, and the run solves the scalar equation -Lap u = |u|^(p-1) u + h."""
    if spec.p != spec.q or spec.h.coeffs.tobytes() != spec.k.coeffs.tobytes():
        return [False] * len(vecs)
    bits = vecs.view(np.int64)
    return (bits[:, : spec.n] == bits[:, spec.n :]).all(axis=1).tolist()


def _newton_rows(
    vecs: np.ndarray,
    spec: ProblemSpec,
    config: NewtonConfig,
    known: list[FieldPair],
    diagonal: bool = False,
) -> list[tuple[Evaluation, float, int, bool, str]]:
    """The Newton loop on the problem itself, run from each packed row of
    vecs at once, with its outcome per run: the evaluation of its last
    iterate, the residual norm there, the iterations, whether it converged
    and the message.  With `diagonal`, every row is a diagonal run (see
    _diagonal_rows) and steps as one (see _newton_step).

    The runs advance in lockstep, one iteration each per round, and a run
    leaves the stack when it converges or fails.  Each round evaluates the
    rows together: their steps (see _newton_steps) and their line searches
    (see _backtrack).  Every row takes the path it would take alone, bit
    for bit, so each result is that of the seed's own run."""
    weights = _weights(spec.basis, spec.r)
    known_stack = np.array([zi.vec for zi in known]).reshape(len(known), 2 * spec.n)
    cap = _stack_rows(spec, known_stack.size)
    # per run: its iterate's evaluation, residual, squared distances to the
    # known points, deflation factor and residual norm
    state = []
    for start in range(0, len(vecs), cap):
        rows = Evaluation(vecs[start : start + cap], spec)
        res = rows.gradient()
        for i, (d2, rn) in enumerate(zip(_distances(rows.vecs, known_stack, weights), res.norm().tolist())):
            if not math.isfinite(rn):  # the seed's powers, or their squares, overflow
                raise ValueError("coefficients must be finite")
            state.append((rows.row(i), DualGradient(res.du[i], res.dv[i]), d2, _deflation_factor(d2), rn))
    results: list = [None] * len(vecs)

    def finish(i: int, iterations: int, converged: bool, message: str = "") -> None:
        ev, _, _, _, rn = state[i]
        results[i] = ev, rn, iterations, converged, message
    def converged(i: int) -> bool:  # beyond `separation` of every known point
        _, _, d2, _, rn = state[i]
        return rn <= config.tol and math.sqrt(min(d2, default=math.inf)) > config.separation

    def running() -> list[int]:
        return [i for i, result in enumerate(results) if result is None]

    for i in range(len(vecs)):
        if converged(i):
            finish(i, 0, True)
    for it in range(1, config.max_iter + 1):
        for i in running():
            if not math.isfinite(state[i][3]):
                finish(i, it - 1, False, "seed coincides with a known solution")
        rows = running()
        steps = _newton_steps([state[i] for i in rows], known_stack, weights, diagonal)
        for i, step in zip(rows, steps):
            if step is None:
                finish(i, it - 1, False, "singular deflated Jacobian" if known else "singular Jacobian")
        rows = running()
        if not rows:
            break
        found = _backtrack(
            np.array([state[i][0].vecs for i in rows]),
            np.array([step for step in steps if step is not None]),
            [state[i][3] * state[i][4] for i in rows],  # the deflated residual norms
            spec, known_stack, weights,
        )
        for i, row in zip(rows, found):
            if row is None:
                finish(i, it, False, "deflated line search stalled" if known else "line search stalled")
            else:
                state[i] = row
                if converged(i):
                    finish(i, it, True)
    for i in running():
        finish(i, config.max_iter, False, "max_iter reached")
    return results


def _newton_steps(rows, known: np.ndarray, weights: np.ndarray, diagonal: bool = False) -> list:
    """Each run's Newton step at its state (evaluation, residual, d2, m,
    residual norm), see _newton_step (`diagonal` for diagonal runs), or None
    where the step raises LinAlgError (a singular Jacobian).  Plain runs
    below _KRYLOV_N step as one stack; a lone or deflated run, runs from
    _KRYLOV_N on (one GMRES each) and the runs of a stack with a singular
    row step one at a time."""
    residuals = [np.concatenate([res.du, res.dv]) for _, res, _, _, _ in rows]
    if len(rows) > 1 and not len(known) and rows[0][0].spec.n < _KRYLOV_N:
        try:
            stack = Evaluation.stack([ev for ev, *_ in rows])
            return list(_newton_step(stack, np.array(residuals), diagonal=diagonal))
        except np.linalg.LinAlgError:
            pass
    steps = []
    for (ev, _, d2, m, _), r in zip(rows, residuals):
        a = _deflation_gradient(ev.vecs, known, weights, d2, m) if len(known) else None
        try:
            steps.append(_newton_step(ev, r, m, a, diagonal))
        except np.linalg.LinAlgError:
            steps.append(None)
    return steps


def _newton_step(
    ev: Evaluation,
    r: np.ndarray,
    m: float = 1.0,
    a: np.ndarray | None = None,
    diagonal: bool = False,
):
    """The Newton step -(m J + r a^T)^-1 m r at ev for the residual r scaled
    by the deflation factor m, whose gradient is a (None for plain Newton,
    whose step is -J^-1 r); for a stack below _KRYLOV_N, with a None, the
    plain step of each row.

    J = [[-P, L], [L, -Q]] is never assembled: w = J^-1 r comes from one
    n x n solve with the Schur complement S = L - P L^-1 Q (see _schur), as
    S y = r_u + P L^-1 r_v and x = L^-1 (r_v + Q y), and J is invertible
    exactly when S is.  With `diagonal`, ev lies on the diagonal (u = v
    at p = q, so P = Q) and r's halves are equal; then w = [d | d] with
    (L - P) d = r_u, one solve of half the work, and both halves of the
    step are the same bits.  As S = (L - P) L^-1 (L + P) and L + P is
    positive definite, J is singular there exactly when L - P is.
    Deflation's rank-one term enters by Sherman-Morrison, as the step
    -m w / (m + a.w).  Raises LinAlgError when S (or L - P) is singular (or
    GMRES does not converge in n iterations), or m + a.w is 0 or not finite."""
    lam, n = ev.spec.basis.eigenvalues, ev.spec.n
    PL, Q, solve = _schur(ev, diagonal)
    if diagonal:
        d = solve(r[..., :n])
        w = np.concatenate([d, d], axis=-1)
    else:
        y = solve(r[..., :n] + PL(r[..., n:]))
        w = np.concatenate([(r[..., n:] + Q(y)) / lam, y], axis=-1)
    if a is None:
        return -w
    denominator = m + float(np.dot(a, w))
    if denominator == 0.0 or not math.isfinite(denominator):
        raise np.linalg.LinAlgError("singular deflated Jacobian")
    return (-m / denominator) * w


def _schur(ev: Evaluation, diagonal: bool = False):
    """The Newton operator at ev, as the functions x -> P L^-1 x, x -> Q x
    and b -> S^-1 b, with P and Q the (exactly symmetric) Galerkin matrices
    of q|u|^(q-1) and p|v|^(p-1), L the diagonal of the eigenvalues (all
    positive) and S = L - P L^-1 Q the Schur complement of the Jacobian
    [[-P, L], [L, -Q]].  Below n = _KRYLOV_N, P L^-1 and Q are built from
    their cosine moments on the grid tables and S is solved densely, for a
    stack one C-contiguous matrix per row, each row's products and solve
    those of the row alone.  From it on, P and Q are applied on the grid
    (P x is the pairing of q|u|^(q-1) times the grid values of x against
    every mode, Q x the same with p|v|^(p-1)), so no n x n matrix or gather
    index is built, and S y = b is solved by GMRES on L^-1 S = I - L^-1 P
    L^-1 Q, a compact perturbation of the identity, to relative residual
    1e-10; that side takes one point.  With `diagonal` (ev on the diagonal,
    u = v at p = q, where P = Q), the solve is b -> (L - P)^-1 b instead,
    of the scalar equation's Jacobian: below _KRYLOV_N from the one block
    Q, with no P L^-1 block and no product of blocks, and from it on by
    GMRES on I - L^-1 P; P L^-1 x is then Q (L^-1 x).  The solve raises
    LinAlgError when its matrix is singular or GMRES does not converge in
    n iterations."""
    spec, (wu, wv) = ev.spec, ev.weights
    lam, n, tables = spec.basis.eigenvalues, spec.n, spec.tables
    if n >= _KRYLOV_N:
        def PL(x):
            return spec.q * tables.pairings(wu * tables.evaluate(x / lam))

        def Q(x):
            return spec.p * tables.pairings(wv * tables.evaluate(x))

        if diagonal:
            return PL, Q, lambda b: _gmres(lambda x: x - Q(x) / lam, b / lam)
        return PL, Q, lambda b: _gmres(lambda x: x - PL(Q(x)) / lam, b / lam)

    def product(M):
        return lambda x: np.matmul(M, x[..., None])[..., 0]

    Q = tables.galerkin(spec.p * wv)
    if diagonal:
        S = np.negative(Q)

        def PL(x):
            return product(Q)(x / lam)
    else:
        P = tables.galerkin(spec.q * wu)
        P /= lam  # P L^-1
        S = P @ Q
        np.negative(S, out=S)
        PL = product(P)
    S.reshape(*S.shape[:-2], n * n)[..., :: n + 1] += lam
    return PL, product(Q), lambda b: np.linalg.solve(S, b[..., None])[..., 0]


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


def _backtrack(vecs, deltas, fns, spec, known, weights) -> list:
    """For each row of the stacks vecs and deltas, the first step of the
    ladder _STEPS (1, 1/2, ..., 2^-39) whose point vec + step * delta has a
    deflated residual norm below the row's fn, as (the point's evaluation,
    residual, squared distances to the known points, deflation factor,
    residual norm), or None if no step does.

    The full steps of all rows are tried first, as stacks of up to
    energy._stack_rows rows, counting the known-point differences.  A row
    whose full step fails goes on down its ladder alone, in stacks of
    doubling size: the next 2, 4, 8, ... steps, up to the same cap.  Rows
    after the accepted one are discarded, and a non-finite point raises as
    it is reached, so each outcome is that of trying the row's steps one at
    a time."""
    cap = _stack_rows(spec, known.size)
    found = []
    for start in range(0, len(vecs), cap):
        rows = slice(start, start + cap)
        found += _tries(vecs[rows] + _STEPS[0] * deltas[rows], fns[rows], spec, known, weights)
    for i, (vec, delta, fn) in enumerate(zip(vecs, deltas, fns)):
        start, size = 1, min(2, cap)
        while found[i] is None and start < len(_STEPS):
            steps = _STEPS[start : start + size]
            start, size = start + size, min(2 * size, cap)
            cands = vec + np.multiply.outer(steps, delta)
            found[i] = next(filter(None, _tries(cands, [fn] * len(steps), spec, known, weights)), None)
    return found


def _tries(cands, fns, spec, known, weights):
    """For each row of the stack cands in turn, its (evaluation, residual,
    squared distances, deflation factor, residual norm) where its deflated
    residual norm is below the row's fn, and None where it is not; a row
    with a non-finite coefficient, whose residual norm is not finite either,
    raises ValueError as it is reached."""
    rows = Evaluation(cands, spec)
    res = rows.gradient()
    norms = res.norm().tolist()
    for i, (d2, rn, fn) in enumerate(zip(_distances(cands, known, weights), norms, fns)):
        factor = _deflation_factor(d2)
        if factor * rn < fn:
            yield rows.row(i), DualGradient(res.du[i], res.dv[i]), d2, factor, rn
        elif not math.isfinite(rn) and not np.isfinite(cands[i]).all():
            raise ValueError("coefficients must be finite")
        else:
            yield None


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

    so t^(pq-1) = lambda_j^(p+1) / (M_(q+1)^p M_(p+1)), solved in logs; at
    p = q, where s_j = t_j, s_j is t_j bitwise, so that the seeds lie on
    the diagonal u = v (see _diagonal_rows).  An amplitude that is not a
    finite positive float raises ValueError, and so does a power t^q or s^p
    of the equations that overflows: the residual takes those powers of the
    grid values (at p = 1e300, s_1 = 1.2533 on (0, pi), and s^p overflows
    while M_(p+1) underflows)."""
    p, q = spec.p, spec.q
    amplitudes = []
    try:
        log_mq = _log_power_integral(spec, q + 1.0)
        log_mp = _log_power_integral(spec, p + 1.0)
        for lam in spec.basis.eigenvalues[:k_max].tolist():
            log_t = ((p + 1.0) * math.log(lam) - p * log_mq - log_mp) / (p * q - 1.0)
            log_s = log_t if p == q else q * log_t + log_mq - math.log(lam)
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


def default_seeds(spec: ProblemSpec, k_max: int) -> list[FieldPair]:
    """Seed schedule c (t_j phi_j, s_j phi_j), both signs, for the first
    k_max >= 1 modes in turn, where (t_j, s_j) is mode j's one-mode
    Galerkin amplitude (see _galerkin_amplitudes) and c is _SEED_SCALE,
    raised to _seed_floor(p, q) where that is larger.  A forced problem's
    schedule starts with the zero pair, from which Newton reaches the
    perturbed trivial solution.  No point is evaluated."""
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
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


def _record(result: SolveResult, spec: ProblemSpec, code: int | None) -> SolutionRecord:
    """The record of a converged run; of a symmetric problem's mirror pair
    z, -z (equal in energy and residual, bit for bit) it stores the member
    whose u-coefficient of largest magnitude is positive, each member as
    _mirrored gives it for the parity class `code` that holds z, or None."""
    z, e, rn = result.z, result.energy, result.residual_norm
    if not spec.is_symmetric():
        return SolutionRecord(z=z, energy=e, residual=rn)
    if z.u.coeffs[np.argmax(np.abs(z.u.coeffs))] < 0.0:  # mirrored twice, z is z
        return SolutionRecord(z=_mirrored(z, code), energy=e, residual=rn, mirror=z)
    return SolutionRecord(z=z, energy=e, residual=rn, mirror=_mirrored(z, code))


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
    min(n, max(6, count)) modes, as one stack of runs per parity class of
    the seeds (see newton_sweep and _newton), in which each mirror pair of
    seeds of a symmetric problem runs once; its converged results are
    grouped into solutions and the lowest `count` kept (see _solutions), so
    the records do not depend on the seed order or on roundoff in the
    energies.
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

    results = newton_sweep(seeds, spec, config)
    converged = [res for res in results if res.converged]
    codes = _parity_codes(_packed([res.z for res in converged], spec), spec)
    candidates = [_record(res, spec, code) for res, code in zip(converged, codes)]
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
        records.append(_record(result, spec, None))  # a run on the full problem

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


# the level ascents' cap on Newton steps per start
_ASCENT_STEPS = 100

_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


class _Modes:
    """The first m modes of a problem on its grid tables: the grid values of
    coefficient rows, the pairings of grid values with each mode and, below
    _KRYLOV_N, the Galerkin matrices of a stack of grid multipliers.  All n
    modes read the tables (basis.GridTables.galerkin); fewer, below
    _KRYLOV_N, read the modes' own grid values, an m x points matrix, so
    that a Galerkin matrix is built as its m x m block only; from _KRYLOV_N
    on, rows are zero-padded to the basis, pairings are cut to m modes, and
    no matrix is built."""

    def __init__(self, spec: ProblemSpec, m: int):
        self.tables, self.m, self.n = spec.tables, m, spec.n
        self.dense = m < _KRYLOV_N
        # m x m matrices per chunk of a stack: 16 at m = 32, 4 at m = 64
        self.block_rows = max(1, 2 * _STACK_VALUES // m**2)
        self.grid = grid_shape(spec.basis, spec.oversample)
        self.phi = None
        if self.dense and m < spec.n:
            self.phi = self.tables.evaluate(np.eye(m, spec.n)).reshape(m, -1)
            # the products phi_k phi_l on the grid, in blocks of modes k of
            # at most 16 _STACK_VALUES values (1 MB), kept where one block
            # holds them all: rebuilt per call, the same bits took 1.02x
            # (1-D n = 32) and 1.09x (2-D n = 64) the sphere stage's time
            self.block = max(1, 16 * _STACK_VALUES // (m * self.phi.shape[1]))
            self.pairs = self._pairs(0) if self.block >= m else None

    def evaluate(self, C: np.ndarray) -> np.ndarray:
        if self.phi is not None:
            return np.matmul(C, self.phi).reshape(len(C), *self.grid)
        if self.m < self.n:
            C = np.concatenate([C, np.zeros((len(C), self.n - self.m))], axis=1)
        return self.tables.evaluate(C)

    def pairings(self, V: np.ndarray) -> np.ndarray:
        if self.phi is not None:
            return self.tables.weight * np.matmul(V.reshape(len(V), -1), self.phi.T)
        return self.tables.pairings(V)[:, : self.m]

    def _pairs(self, k: int) -> np.ndarray:
        """The products phi_k phi_l of the block of modes from k, a column each."""
        phi = self.phi
        return (phi[k : k + self.block, None, :] * phi[None, :, :]).reshape(-1, phi.shape[1]).T

    def galerkin(self, V: np.ndarray) -> np.ndarray:
        if self.phi is None:
            return self.tables.galerkin(V)
        V = V.reshape(len(V), -1)
        blocks = [
            np.matmul(V, self._pairs(k) if self.pairs is None else self.pairs)
            for k in range(0, self.m, self.block)
        ]
        return (self.tables.weight * np.concatenate(blocks, axis=1)).reshape(len(V), self.m, self.m)


class _Rows:
    """The rows of a stage of _ascend, each with its log-ratio f(c) = a log
    M(c) - sum_i b_i log Q_i(c), where M(c) = int |w|^(e+1) of the field w
    of coefficients c and Q_i(c) = sum_k w_ik c_k^2: the row parameters,
    shaped to broadcast, with `value` and `curvature` at unit rows, and
    `full` where every row has every mode active, which skips the masks.
    Both synthesize the grid values of a stack in chunks of rows: 10 rows
    (the starts of one problem) or as many as hold two _STACK_VALUES values
    (128 KB), whichever is more.  value keeps them for curvature only where
    one chunk holds the stack."""

    def __init__(self, modes: _Modes, e, a, B, W, mask):
        self.modes, self.a, self.B, self.W, self.mask = modes, a, B, W, mask
        grid = (-1,) + (1,) * len(modes.grid)
        self.low_power, self.high = (e - 1.0).reshape(grid), (e + 1.0).reshape(grid)
        self.hess_weight = (e * (e + 1.0)).reshape(grid)
        ones = np.ones((len(a), 1))
        # the signs of A0's rank-one terms (see curvature)
        self.s = np.concatenate([a[:, None], -4.0 * B, ones, -ones], axis=1)
        self.full = bool(mask.all())  # every mode active: nothing to mask

    def take(self, keep) -> "_Rows":
        """The rows `keep`, by index or mask."""
        keep = np.flatnonzero(keep) if keep.dtype == bool else keep
        new = object.__new__(_Rows)
        new.__dict__.update((k, v.take(keep, 0) if isinstance(v, np.ndarray) else v) for k, v in vars(self).items())
        new.full = self.full or bool(new.mask.all())
        return new

    def largest(self, D: np.ndarray) -> np.ndarray:
        """The largest |D| over each row's active modes."""
        return np.abs(D if self.full else np.where(self.mask, D, 0.0)).max(axis=1)

    def powers(self, C: np.ndarray):
        """For each chunk of the unit rows C: its rows, the grid values w
        and |w|^(e-1)."""
        size = max(10, 2 * _STACK_VALUES // self.modes.tables.points)
        for i in range(0, len(C), size):
            at = slice(i, i + size)
            vals = self.modes.evaluate(C[at])
            yield at, vals, np.abs(vals) ** self.low_power[at]

    def value(self, C: np.ndarray):
        """f at the unit rows C, a few ulps of its terms (the size of its
        roundoff), and what curvature reads: the M and Q behind them and,
        for a stack of one chunk, its grid values and |w|^(e-1)."""
        M, kept = np.empty(len(C)), None
        for at, vals, low in self.powers(C):
            size = vals * vals
            size *= low  # |w|^(e+1)
            M[at] = self.modes.tables.integrate(size)
            kept = (vals, low) if len(vals) == len(C) else None
        if not ((M > 0.0) & (M < math.inf)).all():  # a power past the float range
            raise ValueError("coefficients must be finite")
        Q = np.matmul(self.W, (C * C)[:, :, None])[:, :, 0]
        log_m, log_q = self.a * np.log(M), self.B * np.log(Q)
        f = log_m - log_q.sum(axis=1)
        tol = 8.0 * _EPS * (np.abs(log_m) + np.abs(log_q).sum(axis=1))
        return f, tol, (M, Q, kept)

    def curvature(self, C: np.ndarray, at: tuple, top: bool = False) -> dict:
        """The tangent gradient g of f at the unit rows C and its Hessian
        H = (a/M) H_M + sum_j s_j u_j u_j^T - diag(D): H_M is the Galerkin
        matrix of hw = e (e+1) |w|^(e-1), the u_j are grad M / M and the
        w_i c / Q_i with s = (-a, 4 b_i), and D = 2 sum_i b_i w_i / Q_i.
        Below _KRYLOV_N as A0 = c c^T - P H P = (c - g)(c - g)^T - g g^T
        - H, P = I - c c^T (f is 0-homogeneous, so H c = -g); from it on,
        as its terms, for `hess`.  With `top`, for rows that enter the
        stack, also a bound on H's eigenvalues.  `at` is what value gave
        with C."""
        M, Q, kept = at
        aM = self.a / M
        gM, top_hw, parts = np.empty_like(C), np.empty(len(C)), []
        for rows, vals, low in [(slice(None), *kept)] if kept else self.powers(C):
            vals *= low
            vals *= self.high[rows]  # (e+1) |w|^(e-1) w
            gM[rows] = self.modes.pairings(vals) / M[rows, None]
            low *= self.hess_weight[rows]  # e (e+1) |w|^(e-1)
            if top:
                top_hw[rows] = low.reshape(len(low), -1).max(axis=1)
            # H_M below _KRYLOV_N, to become A0 in place; hw from it on
            parts.append(self.modes.galerkin(low) if self.modes.dense else low)
        parts = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if not np.isfinite(gM).all():
            raise ValueError("coefficients must be finite")
        V = self.W * (C[:, None, :] / Q[:, :, None])  # the w_i c / Q_i
        g = self.a[:, None] * gM - 2.0 * np.matmul(self.B[:, None, :], V)[:, 0, :]
        g -= _row_dots(g, C)[:, None] * C
        if not self.full:
            g *= self.mask
        D = 2.0 * np.matmul((self.B / Q)[:, None, :], self.W)[:, 0, :]
        cv = dict(g=g, D=D)
        if top:
            # H_M lies below max(hw) I, the modes being orthonormal in the
            # quadrature, and each other term is semidefinite or diagonal
            least = D if self.full else np.where(self.mask, D, math.inf)
            cv["top"] = (
                np.maximum(aM, 0.0) * top_hw
                + np.maximum(-self.a, 0.0) * _row_dots(gM, gM)
                + 4.0 * (np.maximum(self.B, 0.0) * (V * V).sum(axis=2)).sum(axis=1)
                - least.min(axis=1)
            )
        if not self.modes.dense:
            U = np.concatenate([gM[:, None, :], V], axis=1)
            return dict(cv, hw=parts, aM=aM, U=U)
        U = np.concatenate([gM[:, None, :], V, (C - g)[:, None, :], g[:, None, :]], axis=1)
        A0 = parts
        A0 *= -aM[:, None, None]
        Us, size = U.swapaxes(1, 2) * self.s[:, None, :], self.modes.block_rows
        for i in range(0, len(C), size):
            A0[i : i + size] += np.matmul(Us[i : i + size], U[i : i + size])
        diag = A0.reshape(len(A0), -1)[:, :: C.shape[1] + 1]  # a view: A0 is C-contiguous
        diag += D
        if not self.full:  # the identity off the active modes
            A0 *= self.mask[:, :, None] & self.mask[:, None, :]
            diag += ~self.mask
        cv["A0"] = A0
        return cv

    def hess(self, cv: dict, X: np.ndarray, at) -> np.ndarray:
        """H x for the rows x of X, at the rows `at` of the curvature cv."""
        U, s = cv["U"][at], -self.s[at, :-2]  # s_j = (-a, 4 b_i)
        HX = cv["aM"][at, None] * self.modes.pairings(cv["hw"][at] * self.modes.evaluate(X))
        HX += np.matmul((s * np.matmul(U, X[:, :, None])[:, :, 0])[:, None, :], U)[:, 0, :]
        HX -= cv["D"][at] * X
        return HX * self.mask[at]  # where every mode is active too: its layout sets later bits


def _unit_rows(C: np.ndarray) -> np.ndarray:
    """The rows of C over their Euclidean norms; a row whose norm is 0 or
    not finite has no point on the sphere, and raises ValueError (a norm
    past the float range reads inf under the ascent's errstate)."""
    norms = np.sqrt(_row_dots(C, C))
    if not ((norms > 0.0) & (norms < math.inf)).all():
        raise ValueError("level ascent: a start's norm is 0 or not finite")
    return C / norms[:, None]


def _shifted_steps(rows: _Rows, C, cv: dict, mu: np.ndarray, floor: np.ndarray):
    """Each row's step d of (P (mu I - H) P + c c^T) d = g with its shift
    mu raised, to at least `floor` and then by 4 at a time, until the
    matrix is positive definite: below _KRYLOV_N by Cholesky, on chunks of
    rows.modes.block_rows rows, and from it on by conjugate gradients that
    meet no direction of nonpositive curvature.
    Returns the steps and the shifts."""
    mu, todo, d = mu.copy(), np.arange(len(C)), np.empty_like(C)
    size = rows.modes.block_rows
    while True:
        if rows.modes.dense:
            ok, every = np.empty(len(todo), dtype=bool), len(todo) == len(C)
            for i in range(0, len(todo), size):
                at = slice(i, i + size) if every else todo[i : i + size]
                c = C[at]
                A = (mu[at, None] * -c)[:, :, None] * c[:, None, :]  # mu (I - c c^T)
                diag = A.reshape(len(A), -1)[:, :: C.shape[1] + 1]  # a view, as in curvature
                diag += mu[at, None]
                A += cv["A0"][at]
                ok[i : i + size] = good = _definite(A)
                if good.all():
                    d[at] = np.linalg.solve(A, cv["g"][at, :, None])[:, :, 0]
                elif good.any():
                    some = todo[i : i + size][good]
                    d[some] = np.linalg.solve(A[good], cv["g"][some, :, None])[:, :, 0]
        else:
            step, ok = _cg_steps(rows, C, cv, todo, mu[todo])
            d[todo[ok]] = step[ok]
        if ok.all():
            return d, mu
        todo = todo[~ok]
        mu[todo] = np.maximum(4.0 * mu[todo], floor[todo])


def _definite(A: np.ndarray) -> np.ndarray:
    """Which matrices of the stack A Cholesky accepts."""
    ok = np.ones(len(A), dtype=bool)
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        for i, row in enumerate(A):
            try:
                np.linalg.cholesky(row)
            except np.linalg.LinAlgError:
                ok[i] = False
    return ok


def _cg_steps(rows: _Rows, C, cv: dict, at, mu):
    """The steps of the rows `at` by conjugate gradients with Hessian
    products on the grid, preconditioned by the diagonal mu + |D| + |a/M|
    mean(hw) + 1, which bounds that of the matrix."""

    def op(X, some):
        c = C[at[some]]
        cx = _row_dots(X, c)[:, None]
        HX = rows.hess(cv, X - cx * c, at[some])
        HX -= _row_dots(HX, c)[:, None] * c
        return mu[some, None] * (X - cx * c) - HX + cx * c

    hw = cv["hw"][at]
    mean = hw.reshape(len(hw), -1).mean(axis=1)
    diag = mu[:, None] + np.abs(cv["D"][at]) + np.abs(cv["aM"][at] * mean)[:, None] + 1.0
    return _stacked_cg(op, cv["g"][at], diag)


def _stacked_cg(op, B: np.ndarray, diag: np.ndarray):
    """x with |op(x) - b| <= min(1e-3, |b|) |b| for each row b of B (a
    forcing term that keeps Newton's convergence superlinear, Eisenstat &
    Walker 1996), by conjugate gradients preconditioned by `diag`, the rows
    in one stack; op(X, rows) applies the operator of those rows.  A row
    fails on a direction of nonpositive curvature; after B.shape[1]
    iterations it keeps its iterate.  Returns X and which rows did not
    fail."""
    X, R = np.zeros_like(B), B.copy()
    size = np.sqrt(_row_dots(B, B))
    limit = np.minimum(1e-3, size) * size
    ok = size <= limit
    going = np.flatnonzero(~ok)
    Z = R[going] / diag[going]
    P, rz = Z, _row_dots(R[going], Z)
    for _ in range(B.shape[1]):
        if not len(going):
            break
        AP = op(P, going)
        pap = _row_dots(P, AP)
        curved = pap > 0.0
        alpha = np.where(curved, rz / np.where(curved, pap, 1.0), 0.0)
        X[going] += alpha[:, None] * P
        R[going] -= alpha[:, None] * AP
        done = np.sqrt(_row_dots(R[going], R[going])) <= limit[going]
        ok[going[done & curved]] = True
        keep = curved & ~done
        going, P, rz = going[keep], P[keep], rz[keep]
        Z = R[going] / diag[going]
        rz_new = _row_dots(R[going], Z)
        P = Z + (rz_new / rz)[:, None] * P
        rz = rz_new
    ok[going] = True  # out of iterations, on a definite Krylov space
    return X, ok


class _Group(NamedTuple):
    """One problem of an ascent stage: the log-ratio's e, a and terms
    [(b_i, w_i)] (each w_i of the stage's length m), its starts, on the
    first `active` modes, and `warm`: the index of an earlier group whose
    best point is this group's first start, which runs once that group's
    rows have all stopped, or None."""

    e: float
    a: float
    terms: list
    starts: list
    active: int
    warm: int | None = None


@np.errstate(over="ignore", invalid="ignore")
def _ascend(spec: ProblemSpec, m: int, groups: list[_Group]):
    """Maximize f(c) = a log M(c) - sum_i b_i log(sum_k w_ik c_k^2) over the
    unit sphere of the first `active` coordinates of R^m, M(c) = int
    |w|^(e+1) of the field w of coefficients c on the first m modes, from
    each group's starts (see _Group).  The starts of all groups advance as
    the rows of one stack, each on its own path (see _Rows), and a warm
    start joins the stack when the group it comes from is done.  f is
    0-homogeneous, so its Euclidean gradient is tangent to the sphere, and
    the sphere can be Euclidean whatever the weights.

    Each iteration is a Riemannian Newton step (Absil, Mahony & Sepulchre,
    Optimization Algorithms on Matrix Manifolds, 2008): the shifted
    tangent system (P (mu I - H) P + c c^T) d = g, P = I - c c^T, whose
    shift mu is raised until the matrix is positive definite (see
    _shifted_steps) and the retracted step (c + d)/|c + d| raises f, each
    refusal raising it by 4 (to at least 1e-6 max |D|, see _Rows).  A row
    starts at a quarter of a bound on H's eigenvalues, built only where it
    enters the stack, and the gain of a step over its model's, (g.d + mu
    |d|^2)/2, sets the next shift: below 0.01 it is raised, above 0.25
    halved.  A row stops when its Newton decrement g.d falls to a few ulps
    of the terms of f, or after _ASCENT_STEPS steps.  A row's bits depend
    on the rows it runs with, so the stack order, the chunks and the takes
    and joins between steps are part of the result.

    Returns per group the best f, the first in start order on ties, the
    point that reached it, and whether that point stopped at the step cap
    rather than on its decrement (then f is below the local maximum).
    A start whose norm is 0 or not finite raises ValueError, and so does a
    moment or gradient that is not finite."""
    counts = [len(g.starts) + (g.warm is not None) for g in groups]
    first = np.cumsum([0] + counts[:-1])
    spans = [slice(start, start + count) for start, count in zip(first, counts)]  # each group's rows

    def stack(values):
        return np.repeat(np.asarray(values, dtype=float), counts, axis=0)

    every = _Rows(  # every row's parameters; a warm start holds its group's first row
        _Modes(spec, m), stack([g.e for g in groups]), stack([g.a for g in groups]),
        stack([[b for b, _ in g.terms] for g in groups]),
        stack([[w for _, w in g.terms] for g in groups]),
        np.arange(m) < np.repeat([g.active for g in groups], counts)[:, None],
    )
    points = np.zeros((sum(counts), m))
    for g, count, start in zip(groups, counts, first):
        at = start + (g.warm is not None)
        for i, c in enumerate(g.starts):
            points[at + i, : len(c)] = c
    values = np.full(len(points), -math.inf)  # every row's, written back when it stops
    capped, done = np.zeros(len(points), dtype=bool), np.zeros(len(points), dtype=bool)
    waiting = {start: g.warm for g, start in zip(groups, first) if g.warm is not None}
    index = np.array([i for i in range(len(points)) if i not in waiting], dtype=int)
    rows = every.take(index)
    C = _unit_rows(points[index])
    f, tol, at = rows.value(C)
    cv = rows.curvature(C, at, top=True)
    mu = 0.25 * np.maximum(cv.pop("top"), 0.0)
    steps, iteration = np.zeros(len(index), dtype=int), 0
    while len(index):
        iteration += 1
        floor = 1e-6 * rows.largest(cv["D"]) + _TINY
        d, mu = _shifted_steps(rows, C, cv, mu, floor)
        gd = _row_dots(cv["g"], d)
        stop = gd <= tol
        rho = np.zeros(len(C))  # each taken step's gain over its model's
        every_row = not stop.any()
        trial = slice(None) if every_row else np.flatnonzero(~stop)
        if every_row or len(trial):
            some = rows if every_row else rows.take(trial)
            new = _unit_rows(C[trial] + d[trial])
            new_f, new_tol, new_at = some.value(new)
            up = new_f > f[trial]
            if every_row and up.all():  # every row steps
                rho = (new_f - f) / (0.5 * (gd + mu * _row_dots(d, d)))
                cv = None  # freed before the new one is built
                cv = rows.curvature(new, new_at)
                C, f, tol = new, new_f, new_tol
                steps += 1
            elif up.any():
                taken = np.flatnonzero(~stop)[up]
                # the model's gain, g.d + d.(P H P) d / 2 where A d = g
                model = 0.5 * (gd[taken] + mu[taken] * _row_dots(d[taken], d[taken]))
                rho[taken] = (new_f[up] - f[taken]) / model
                M, Q, kept = new_at
                new_at = M[up], Q[up], kept and (kept[0][up], kept[1][up])
                took = some.take(up).curvature(new[up], new_at)
                for key, value in took.items():
                    cv[key][taken] = value
                C[taken], f[taken], tol[taken] = new[up], new_f[up], new_tol[up]
                steps[taken] += 1
        np.multiply(mu, 0.5, out=mu, where=rho > 0.25)
        np.maximum(4.0 * mu, floor, out=mu, where=rho < 0.01)
        if iteration >= _ASCENT_STEPS:  # no row takes a step more than once an iteration
            stop |= steps >= _ASCENT_STEPS
        elif every_row:
            continue
        if not stop.any():
            continue
        out = index[stop]
        points[out], values[out], capped[out] = C[stop], f[stop], ~(gd[stop] <= tol[stop])
        done[out] = True
        keep = np.flatnonzero(~stop)
        index, mu, steps, C, f, tol = (x.take(keep, 0) for x in (index, mu, steps, C, f, tol))
        cv = {key: value.take(keep, 0) for key, value in cv.items()}
        # the warm starts whose groups of origin are now done
        ready = [i for i, g in waiting.items() if done[spans[g]].all()]
        if ready:
            for i in ready:
                span = spans[waiting.pop(i)]
                points[i] = points[span.start + int(np.argmax(values[span]))]
            joined = np.array(ready, dtype=int)
            some = every.take(joined)
            new = _unit_rows(points[joined])
            new_f, new_tol, new_at = some.value(new)
            took = some.curvature(new, new_at, top=True)
            index = np.concatenate([index, joined])
            C, f, tol = np.concatenate([C, new]), np.concatenate([f, new_f]), np.concatenate([tol, new_tol])
            cv = {key: np.concatenate([value, took[key]]) for key, value in cv.items()}
            mu = np.concatenate([mu, 0.25 * np.maximum(took["top"], 0.0)])
            steps = np.concatenate([steps, np.zeros(len(joined), dtype=int)])
        rows = every.take(index)
    best = []
    for span in spans:
        i = span.start + int(np.argmax(values[span]))  # the first of ties
        best.append((float(values[i]), points[i], bool(capped[i])))
    return best


def _sphere_extremals(spec: ProblemSpec, k_max: int, seed: int) -> list[list[tuple[float, np.ndarray]]]:
    """For k = 1..k_max, the logs of the minima of int |u|^(q+1) over the
    unit r-norm sphere and of int |v|^(p+1) over the unit (2-r)-norm sphere
    of the first k modes, each with a minimizer (of unit Euclidean norm:
    the ratio below is scale-free), by _ascend of -log M + ((e+1)/2) log
    sum_k lambda_k^o c_k^2 on the k_max x k_max block, one group per k and
    problem, from 10 starts each: at k > 1 the warm start, level k-1's
    minimizer, then random ones of the seeds seed + 17 k and seed + 17 k +
    1.  All levels run as one stack, each warm start from when its level
    k-1 is done.  At p = q with r = 1 the two problems are one: its starts
    are the q problem's, and its minimum is returned for both."""
    problems = [(spec.q, spec.r), (spec.p, 2.0 - spec.r)]
    if spec.p == spec.q and spec.r == 1.0:
        del problems[1]
    groups = []
    for k in range(1, k_max + 1):
        for i, (exponent, order) in enumerate(problems):
            rng = np.random.default_rng(seed + 17 * k + i)
            warm = None if k == 1 else len(groups) - len(problems)
            starts = [rng.standard_normal(k) for _ in range(10 - (warm is not None))]
            weights = spec.basis.eigenvalues[:k_max] ** order
            groups.append(_Group(exponent, -1.0, [(-(exponent + 1.0) / 2.0, weights)], starts, k, warm))
    best = _ascend(spec, k_max, groups)
    per_level = [best[i : i + len(problems)] for i in range(0, len(best), len(problems))]
    return [[(-f, c) for f, c, _ in (level[0], level[-1])] for level in per_level]


def _gn_constants(spec: ProblemSpec, theta: float, zeta: float, seed: int) -> list[float]:
    """The logs of the best constants S of |w|_{e+1} <= S |w|_2^t
    |w|_o^(1-t) over the truncated span, for the q problem (e = q, o = r,
    t = theta) and the p problem (e = p, o = 2 - r, t = zeta): one stage of
    _ascend of log S(c) = log M / (e+1) - (t/2) log |c|^2 - ((1-t)/2) log
    sum_k lambda_k^o c_k^2 from 10 random starts each (seeds `seed` and
    seed + 1).  Where the two problems coincide (p = q, r = 1, where theta
    = zeta) they are one: its 10 starts are the q problem's, and its
    constant is returned for both.  A constant whose best start stopped at
    the step cap is below the local maximum: in 1-D from _KRYLOV_N on
    every start does (see lower_growth_constant)."""
    problems = [(spec.q, spec.r, theta), (spec.p, 2.0 - spec.r, zeta)]
    if problems[0] == problems[1]:
        del problems[1]
    ones = np.ones(spec.n)
    groups = []
    for i, (exponent, order, t) in enumerate(problems):
        rng = np.random.default_rng(seed + i)
        starts = [rng.standard_normal(spec.n) for _ in range(10)]
        terms = [(t / 2.0, ones), ((1.0 - t) / 2.0, spec.basis.eigenvalues**order)]
        groups.append(_Group(exponent, 1.0 / (exponent + 1.0), terms, starts, spec.n))
    best = _ascend(spec, spec.n, groups)
    return [best[0][0], best[-1][0]]


def _forcing_size(spec: ProblemSpec) -> float:
    """Forcing size C0 = |k|_2 lambda_1^(-r/2) + |h|_2 lambda_1^(r/2-1), which
    bounds the forcing term: |int k u + int h v| <= C0 |(u, v)|."""
    lam1 = float(spec.basis.eigenvalues[0])
    return (
        sobolev_norm(spec.k, 0.0) * lam1 ** (-spec.r / 2.0)
        + sobolev_norm(spec.h, 0.0) * lam1 ** (-(2.0 - spec.r) / 2.0)
    )


@np.errstate(over="ignore", invalid="ignore")  # quiet: its grid's overflowing powers read inf
def lower_growth_constant(spec: ProblemSpec, seed: int = 0) -> float:
    """Constant gamma of the lower level curve gamma k^(2 alpha).

    Assembled from computed truncation data: interpolation constants on the
    truncated span, the eigenvalue growth constant of the box, and the
    forcing size.  gamma is the maximum of g(x) = x - d_q x^((q+1)/2) -
    d_p x^((p+1)/2) - C0 sqrt(x), where d_e grows with the Gagliardo-
    Nirenberg constant of its half.  Those constants are suprema; a stage
    gives the best local maximum its starts reach, converged where its best
    start stops on its Newton decrement (see _ascend), and gamma is too
    large where that lies below the supremum: at 1-D n = 32, p = q = 3 by
    5.8e-7 relative, starts on mode 1's parity class reaching a higher one.
    In 1-D from _KRYLOV_N on the truncated maximizer lies on a ridge, every
    start stops at the step cap with S still rising by about 1e-12 a step.
    The exponent is exact.  The coefficients are formed in logs and g is
    scanned in y = x / x_s, where x_s is the first x at which a power term
    reaches x, so that a dilation of the box, which scales x, leaves the
    scanned curve unchanged.
    """
    pt = region.PQPoint(p=spec.p, q=spec.q, N=spec.domain.dim)
    theta, zeta = region.interpolation_exponents(pt, spec.r)
    c_lam = eigenvalue_growth_constant(spec.basis)
    log_lam = math.log(c_lam)
    log_sq, log_sp = _gn_constants(spec, theta, zeta, seed)
    q, p, r = spec.q, spec.p, spec.r
    log_dq = (q + 1.0) * log_sq - r * theta * (q + 1.0) / 2.0 * log_lam - math.log(q + 1.0)
    log_dp = (p + 1.0) * log_sp - (2.0 - r) * zeta * (p + 1.0) / 2.0 * log_lam - math.log(p + 1.0)
    log_xs = min(-2.0 * log_dq / (q - 1.0), -2.0 * log_dp / (p - 1.0))
    if not math.isfinite(log_xs):  # no power term
        log_xs = 0.0
    d_q = math.exp(log_dq + (q - 1.0) / 2.0 * log_xs)  # at most 1
    d_p = math.exp(log_dp + (p - 1.0) / 2.0 * log_xs)
    c0 = _forcing_size(spec)
    overflow = ValueError(
        f"lower growth constant leaves the float range at eigenvalue growth constant {c_lam}"
    )
    try:
        c1 = math.exp(math.log(c0) - log_xs / 2.0) if c0 > 0.0 else 0.0
    except OverflowError:
        raise overflow from None

    def g(x, sqrt=math.sqrt):  # at a float, or with np.sqrt at an array
        return x - d_q * x ** ((q + 1.0) / 2.0) - d_p * x ** ((p + 1.0) / 2.0) - c1 * sqrt(x)

    # the grid's argmax by one numpy pass, where powers past the float range
    # read inf and NaN never wins; the value there and the refine take g at
    # floats
    grid = np.logspace(-12.0, 6.0, 2000)
    values = g(grid, np.sqrt)
    x0 = float(grid[np.argmax(np.where(np.isnan(values), -math.inf, values))])
    best = g(x0)
    if best <= 0.0:
        return 0.0
    lo, hi = x0 / 10.0, x0 * 10.0
    for _ in range(200):  # golden-section refine, to its fixed point
        m1 = lo + 0.381966 * (hi - lo)
        m2 = hi - 0.381966 * (hi - lo)
        if g(m1) < g(m2):
            if m1 == lo:  # lo only rises and hi only falls: a repeat
                break
            lo = m1
        else:
            if m2 == hi:
                break
            hi = m2
    try:
        return math.exp(log_xs + math.log(max(best, g(0.5 * (lo + hi)))))
    except OverflowError:
        raise overflow from None


# the margin of the sample bounds, relative to |z|^2 + C0 |z| + 1; the
# roundoff of J, |z| and the bounds is about n eps of that
_BOUND_MARGIN = 1e-8


class LevelBracket(NamedTuple):
    """Bracket for the k-th minimax level; the fields are the CSV columns."""

    k: int
    lower: float
    upper: float
    radius: float
    ceiling: float
    max_pointwise_excess: float


@np.errstate(over="ignore", invalid="ignore")  # quiet: past the float range it raises ValueError
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
    reported sequence is monotone.  max_pointwise_excess is the largest
    J - (|z|^2/2 + C0 |z|) over the points, against the closed-form ceiling
    |z|^2/2 + C0 |z| <= ceiling = (1/2 + C0/R_k) R_k^2 of the ball.  Every
    sample is drawn, but one is evaluated only if the bounds
    J <= form + C0 |z| and J - (|z|^2/2 + C0 |z|) <= -|a-|^2 on its
    eigenvector coordinates (a+, a-), plus a margin, do not both lie below
    the running maxima (see _may_move), so the brackets are those of
    evaluating every sample.
    R_k solves R^2/2 = c_k R^m (m = min(p,q)+1) with a safety factor 2,
    where c_k is the computed minimum of the normalized nonlinear integrals
    over the unit sphere of the first k modes (see _sphere_extremals),
    formed in logs.
    lower: gamma k^(2 alpha) with computed gamma and exact exponent (see
    lower_growth_constant).
    At p = q with r = 1 the u and v halves pose one problem, so each ascent
    stage (the constants of gamma, the minima of c_k) climbs it once and
    uses its result for both.
    A forcing whose size C0 is not finite raises ValueError naming h and k,
    and a bracket value that is not finite raises ValueError naming k and
    field.
    """
    k_max = min(5, spec.n) if k_max is None else k_max
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    cutoff = cutoff or CutoffConfig.default_for(spec)
    if k_max > spec.n:
        raise ValueError(f"k_max={k_max} exceeds the truncation {spec.n}")
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    c0 = _forcing_size(spec)
    if not math.isfinite(c0):
        raise ValueError(
            f"the forcing norms |h|_2 = {sobolev_norm(spec.h, 0.0)}, |k|_2 = "
            f"{sobolev_norm(spec.k, 0.0)} give no finite forcing size "
            "C0 = |k|_2 lambda_1^(-r/2) + |h|_2 lambda_1^(r/2-1)"
        )
    pt = region.PQPoint(p=spec.p, q=spec.q, N=spec.domain.dim)
    _, _, alpha = region.growth_exponents(pt, spec.r)
    gamma = lower_growth_constant(spec, seed=seed)
    m_exp = min(spec.p, spec.q) + 1.0
    weights = _weights(spec.basis, spec.r)
    brackets: list[LevelBracket] = []
    minima = _sphere_extremals(spec, k_max, seed)
    prev_best_point: np.ndarray | None = None
    for k in range(1, k_max + 1):
        (log_cq, _), (log_cp, _) = minima[k - 1]
        log_ck = min(log_cq - math.log(spec.q + 1.0), log_cp - math.log(spec.p + 1.0))
        try:  # 2 (1/(2 c_k))^(1/(m-2))
            radius = 2.0 * math.exp(-(math.log(2.0) + log_ck) / (m_exp - 2.0))
        except OverflowError:
            raise ValueError(
                f"level radius (1/(2 c_k))^(1/(m-2)) overflows at k={k}, m - 2 = {m_exp - 2.0}"
            ) from None
        rng = np.random.default_rng(seed + 1000 + k)
        upper, best_point, excess = -math.inf, prev_best_point, -math.inf

        def may_move(a_plus, a_minus):  # against the running maxima of each stack
            return _may_move(a_plus, a_minus, c0, upper, excess)

        for points in _level_points(spec, k, radius, prev_best_point, samples, rng, may_move):
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
        for name, value in bracket._asdict().items():
            if not math.isfinite(value):
                raise ValueError(f"level bracket at k={k}: {name} is not finite ({value})")
        brackets.append(bracket)
        prev_best_point = best_point
    return brackets


def _level_points(spec, k, radius, prev_best, samples, rng, may_move):
    """Level k's points in stacks of energy._stack_rows rows: level k-1's best,
    the scaled plus eigenvectors, then the samples, each drawn in turn.  Of
    each stack of samples only the rows where may_move(a_plus, a_minus) holds
    are built, from their scaled +- eigenvector coordinates."""
    size = _stack_rows(spec)
    fixed = [] if prev_best is None else [prev_best]
    for j in range(1, k + 1):
        e_plus = coupling_eigenvector(spec.basis, j, +1, spec.r).vec
        fixed += [e_plus * (frac * radius) for frac in (0.25, 0.5, 0.75, 1.0)]
    for start in range(0, len(fixed), size):
        yield np.array(fixed[start : start + size])
    power = 1.0 / (spec.n + k)
    for start in range(0, samples, size):
        draws, rads = np.empty((min(size, samples - start), k + spec.n)), []
        for row in draws:  # each sample's normals, then its radius: one stream
            rng.standard_normal(out=row)
            rads.append(radius * rng.random() ** power)  # rng.uniform()'s draw
        rads = np.array(rads)
        a_plus = np.zeros((len(draws), spec.n))
        a_plus[:, :k] = draws[:, :k]
        a_minus = np.ascontiguousarray(draws[:, k:])
        scale = (rads / np.sqrt(_row_dots(a_plus, a_plus) + _row_dots(a_minus, a_minus)))[:, None]
        a_plus, a_minus = a_plus * scale, a_minus * scale
        keep = may_move(a_plus, a_minus)
        if keep.any():
            yield _vecs_from_coordinates(spec.basis, spec.r, a_plus[keep], a_minus[keep])


def _may_move(a_plus, a_minus, c0: float, upper: float, excess: float) -> np.ndarray:
    """Which sample rows, given by their +- eigenvector coordinates, a
    closed-form bound cannot rule out of raising the running maximum `upper`
    of the modified energy J or `excess` of J - (|z|^2/2 + C0 |z|).

    J = form - tq - tp - psi g with form = (|a+|^2 - |a-|^2)/2, tq, tp >= 0,
    psi in [0, 1] and |g| <= C0 |z| (_forcing_size), so J <= form + C0 |z|
    and the excess is at most -|a-|^2.  A row is ruled out only when both
    bounds plus the margin _BOUND_MARGIN (|z|^2 + C0 |z| + 1), far above
    their roundoff, lie strictly below the running values.  A non-finite
    running value rules out nothing, and neither does a non-finite bound: it
    is NaN or +inf, never -inf, as the margin overflows wherever |a-|^2
    does, and it compares False.  A ruled-out row lies strictly below both
    maxima, so skipping it changes neither them nor their ties.
    """
    if not (math.isfinite(upper) and math.isfinite(excess)):
        return np.ones(len(a_plus), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        plus2, minus2 = _row_dots(a_plus, a_plus), _row_dots(a_minus, a_minus)
        size = np.sqrt(plus2 + minus2)
        margin = _BOUND_MARGIN * (size * size + c0 * size + 1.0)
        top = 0.5 * (plus2 - minus2) + c0 * size + margin
        top_excess = margin - minus2
    return ~((top < upper) & (top_excess < excess))


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
