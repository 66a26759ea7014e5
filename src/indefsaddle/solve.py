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
projected-ascent routine, in stages: one stage for the two
Gagliardo-Nirenberg constants of the lower curve, then one per k for the
q and p sphere minima that fix the level radius.  A stage advances the
restarts of both problems at once as the rows of one stack on the grid
tables, kept as compact arrays of the rows still running, each row on the
path it takes alone.  Where the two
problems climb the same function (the sphere minima at p = q, and the
constants too at r = 1), their rows share one power-moment call per step
while they fit energy._stack_rows; past it, each problem calls alone, as
larger shared calls measured slower (see energy._STACK_VALUES).
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


def _projected_ascent(groups, iters: int, cap: int):
    """Maximize each group's value over its unit weighted sphere
    sum_k weights_k c_k^2 = 1, all groups as one stage.

    A group is (value_grad, starts, weights); value_grad(C) returns the
    values and ascent directions at the rows of C, and all starts have one
    length.  The starts of every group advance together as the rows of one
    stack, each with its group's weights: a step along the gradient,
    retracted onto the sphere, is accepted when it raises the row's value;
    the row's step (first 0.5) then grows by 1.3 up to 10, and is halved
    otherwise.  A row stops when its step falls below 1e-12 or after `iters`
    steps, and only rows still running are evaluated.  Groups with the same
    value_grad object share one call while their running rows number at
    most `cap`; past it each group makes its own call, which only decides
    whether groups merge and never splits a group.  (In the level searches
    only the sphere stages at p = q with r != 1 have such groups: at r = 1
    their two problems are one, run as one group.)  value_grad gives
    every row the values it gives the row alone, so each row takes the path
    it would take alone.  Returns, per group, the best value, the first in
    start order on ties, and the point that reached it.  A row whose
    weighted norm is 0 or overflows has no point on the sphere, and raises
    ValueError.
    """
    counts = [len(starts) for _, starts, _ in groups]
    owner = np.repeat(np.arange(len(groups)), counts)
    sharing: dict[int, list[int]] = {}  # the groups of each value function
    for g, (fn, _, _) in enumerate(groups):
        sharing.setdefault(id(fn), []).append(g)
    shares = np.empty(len(groups), dtype=int)  # each group's entry of sharing
    for i, gs in enumerate(sharing.values()):
        shares[gs] = i
    W = np.repeat(np.array([weights for _, _, weights in groups], dtype=float), counts, axis=0)

    def normalize(C: np.ndarray, W: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            norms = np.sqrt(_row_dots(W * C, C))
        if ((norms == 0.0) | (norms == math.inf)).any():  # a NaN row fails later
            raise ValueError("projected ascent: a step's weighted norm is 0 or overflows")
        return C / norms[:, None]

    def plan(owner: np.ndarray) -> list:
        """The calls of one step of the rows of these owners: (value
        function, row indices)."""
        calls, share = [], shares[owner]
        for i, gs in enumerate(sharing.values()):
            at = np.flatnonzero(share == i)
            parts = [at] if len(at) <= cap else [np.flatnonzero(owner == g) for g in gs]
            calls += [(groups[gs[0]][0], part) for part in parts if len(part)]
        return calls

    def evaluate(calls: list, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The values and ascent directions at the points C."""
        if len(calls) == 1 and len(calls[0][1]) == len(C):  # one call of every row
            return calls[0][0](C)
        vals, grads = np.empty(len(C)), np.empty_like(C)
        for fn, part in calls:
            vals[part], grads[part] = fn(C[part])
        return vals, grads

    # every row's point and value, written back when the row stops
    C = normalize(np.array([c for _, starts, _ in groups for c in starts], dtype=float), W)
    calls = plan(owner)
    vals, grads = evaluate(calls, C)
    # the running rows: their indices and owners, points, values, directions,
    # steps and weights; all start together, so one count of steps serves
    rows, own, Cr, Vr, Gr, Wr = np.arange(len(C)), owner, C, vals, grads, W
    steps, taken = np.full(len(C), 0.5), 0
    while len(rows):
        cand = normalize(Cr + steps[:, None] * Gr, Wr)
        cand_vals, cand_grads = evaluate(calls, cand)
        up = cand_vals > Vr + 1e-16
        Cr = np.where(up[:, None], cand, Cr)
        Vr = np.where(up, cand_vals, Vr)
        Gr = np.where(up[:, None], cand_grads, Gr)
        steps = np.where(up, np.minimum(steps * 1.3, 10.0), steps * 0.5)
        taken += 1
        going = (steps >= 1e-12) & (taken < iters)
        if not going.all():
            done = ~going
            C[rows[done]], vals[rows[done]] = Cr[done], Vr[done]
            rows, own, Cr, Vr, Gr, Wr, steps = (
                x[going] for x in (rows, own, Cr, Vr, Gr, Wr, steps)
            )
            calls = plan(own)
    best = []
    for g in range(len(groups)):
        best_val, best_c = -math.inf, None
        for val, c in zip(vals[owner == g].tolist(), C[owner == g]):
            if val > best_val:
                best_val, best_c = val, c
        best.append((best_val, best_c))
    return best


def _power_moment(spec: ProblemSpec, coeffs: np.ndarray, exponent: float):
    """int |w|^(exponent+1) and its gradient in the coefficients of w, for
    each row w of the (rows, n) stack."""
    tables = spec.tables
    vals = tables.evaluate(coeffs)
    size = np.abs(vals)
    val = tables.integrate(size ** (exponent + 1.0))
    pair = tables.pairings((exponent + 1.0) * size ** (exponent - 1.0) * vals)
    if not np.isfinite(pair).all():
        raise ValueError("coefficients must be finite")
    return val, pair


def _sphere_extremals(
    spec: ProblemSpec, active: int, seed: int, warm_q: np.ndarray | None, warm_p: np.ndarray | None
) -> list[tuple[float, np.ndarray]]:
    """The minima of int |u|^(q+1) over the unit r-norm sphere and of
    int |v|^(p+1) over the unit (2-r)-norm sphere of the first `active`
    modes, each with its minimizer, by one stage of projected ascent on the
    negatives from 10 starts each (the warm start, zero-padded, then random
    ones of the seeds `seed` and seed + 1) of at most 300 steps.  At p = q
    with r = 1 the two problems are one: its 10 starts are the q problem's,
    and its minimum is returned for both.  At p = q with r != 1 the two
    problems share one value function."""

    def moment(exponent: float):
        def value_grad(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            coeffs = np.zeros((len(C), spec.n))
            coeffs[:, :active] = C
            val, pair = _power_moment(spec, coeffs, exponent)
            return -val, -pair[:, :active]

        return value_grad

    problems = [(spec.q, spec.r, warm_q), (spec.p, 2.0 - spec.r, warm_p)]
    if spec.p == spec.q and spec.r == 1.0:
        del problems[1]
    moments = {exponent: moment(exponent) for exponent, _, _ in problems}
    groups = []
    for i, (exponent, order, warm_start) in enumerate(problems):
        rng = np.random.default_rng(seed + i)
        starts = [] if warm_start is None else [np.pad(warm_start, (0, active - len(warm_start)))]
        while len(starts) < 10:
            starts.append(rng.standard_normal(active))
        groups.append((moments[exponent], starts, spec.basis.eigenvalues[:active] ** order))
    best = _projected_ascent(groups, 300, _stack_rows(spec))
    return [(-val, np.asarray(c)) for val, c in (best[0], best[-1])]


def _gn_constants(spec: ProblemSpec, theta: float, zeta: float, seed: int) -> list[float]:
    """Best constants S of |w|_{e+1} <= S |w|_2^t |w|_o^(1-t) over the
    truncated span, for the q problem (e = q, o = r, t = theta) and the p
    problem (e = p, o = 2 - r, t = zeta): one stage of gradient ascent of
    the scale-invariant ratios from 10 random starts each (seeds `seed` and
    seed + 1) of 200 steps.  Where the two problems coincide (p = q, r = 1,
    where theta = zeta) they are one: its 10 starts are the q problem's, and
    its constant is returned for both."""

    def log_ratio(exponent: float, order: float, theta: float):
        weights = spec.basis.eigenvalues**order

        def value_grad(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            num_int, pair = _power_moment(spec, C, exponent)
            l2sq = _row_dots(C, C)
            sobsq = _row_dots(weights * C, C)
            ratio = np.array([
                num ** (1.0 / (exponent + 1.0))
                / (math.sqrt(l2) ** theta * math.sqrt(sob) ** (1.0 - theta))
                for num, l2, sob in zip(num_int.tolist(), l2sq.tolist(), sobsq.tolist())
            ])
            # ascend along the gradient of log ratio
            return ratio, (
                pair / ((exponent + 1.0) * num_int)[:, None]
                - theta * C / l2sq[:, None]
                - (1.0 - theta) * weights * C / sobsq[:, None]
            )

        return value_grad

    problems = [(spec.q, spec.r, theta), (spec.p, 2.0 - spec.r, zeta)]
    if problems[0] == problems[1]:
        del problems[1]
    groups = []
    for i, problem in enumerate(problems):
        rng = np.random.default_rng(seed + i)
        starts = [rng.standard_normal(spec.n) for _ in range(10)]
        groups.append((log_ratio(*problem), starts, spec.basis.eigenvalues ** problem[1]))
    best = _projected_ascent(groups, 200, _stack_rows(spec))
    return [max(0.0, best[0][0]), max(0.0, best[-1][0])]


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
    s_q, s_p = _gn_constants(spec, theta, zeta, seed)
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

    def g(x, sqrt=math.sqrt):  # at a float, or with np.sqrt at an array
        return (
            x
            - d_q * x ** ((spec.q + 1.0) / 2.0)
            - d_p * x ** ((spec.p + 1.0) / 2.0)
            - c1 * sqrt(x)
        )

    # the grid's argmax by one numpy pass, where powers past the float range
    # read inf (with numpy's warning) and NaN never wins; the value there
    # and the refine take g at floats
    grid = np.logspace(-12.0, 6.0, 2000)
    values = g(grid, np.sqrt)
    x0 = float(grid[np.argmax(np.where(np.isnan(values), -math.inf, values))])
    best = g(x0)
    if best <= 0.0:
        return 0.0
    lo, hi = x0 / 10.0, x0 * 10.0
    for _ in range(200):  # golden-section refine
        m1 = lo + 0.381966 * (hi - lo)
        m2 = hi - 0.381966 * (hi - lo)
        if g(m1) < g(m2):
            lo = m1
        else:
            hi = m2
    return max(best, g(0.5 * (lo + hi)))


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
    over the unit sphere of the first k modes.
    lower: gamma k^(2 alpha) with computed gamma and exact exponent.
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
    warm_q = warm_p = None
    prev_best_point: np.ndarray | None = None
    for k in range(1, k_max + 1):
        (cq, warm_q), (cp, warm_p) = _sphere_extremals(spec, k, seed + 17 * k, warm_q, warm_p)
        c_k = min(cq / (spec.q + 1.0), cp / (spec.p + 1.0))
        try:
            radius = 2.0 * (1.0 / (2.0 * c_k)) ** (1.0 / (m_exp - 2.0))
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
        normals, rads = [], []
        for _ in range(min(size, samples - start)):
            normals.append(rng.standard_normal(k + spec.n))
            rads.append(radius * rng.random() ** power)  # rng.uniform()'s draw
        draws, rads = np.array(normals), np.array(rads)
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
