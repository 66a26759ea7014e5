import functools
import importlib
import math

import numpy as np
import pytest

from indefsaddle import (
    CutoffConfig,
    FieldPair,
    NewtonConfig,
    ProblemSpec,
    SpectralField,
    continuation,
    default_seeds,
    deflated_solve,
    energy,
    energy_gradient,
    estimate_levels,
    find_branch,
    jacobian,
    newton_solve,
    pair_inner,
    pair_norm,
    residual,
    verify_critical,
)
from indefsaddle.basis import BoxDomain, from_grid, grid_points, to_grid

from oracles import (
    deflation,
    dense_jacobian,
    dense_residual,
    grid_data,
    power_moment,
    projected_ascent,
    sampled_levels,
    sequential_newton,
    shooting_solution,
)

# golden energy of the single-arch solution, cross-checked against the ODE
# oracle on first verified run; higher arches scale exactly as k^4
GROUND_ENERGY = 1.0163142239


def solution_values(z, xs):
    """Evaluate the u component at points of (0, pi) by direct synthesis."""
    n = z.basis.size
    scale = math.sqrt(2.0 / math.pi)
    ks = np.arange(1, n + 1)
    return scale * (z.u.coeffs @ np.sin(np.outer(ks, xs)))


class TestResidual:
    def test_zero_point_symmetric(self, cubic_spec):
        assert residual(cubic_spec.zero_pair(), cubic_spec).norm() == 0.0

    def test_pure_forcing_residual(self, cubic_spec):
        spec = cubic_spec.with_forcing(h=[1.0], k=None)
        assert residual(spec.zero_pair(), spec).norm() == pytest.approx(1.0, abs=1e-15)

    def test_jacobian_is_symmetric_and_matches_fd(self, cubic_spec):
        rng = np.random.default_rng(1)
        lam = cubic_spec.basis.eigenvalues
        z = FieldPair(
            SpectralField(cubic_spec.basis, lam**-1.0 * rng.standard_normal(32)),
            SpectralField(cubic_spec.basis, lam**-1.0 * rng.standard_normal(32)),
            1.0,
        )
        J = jacobian(z, cubic_spec)
        assert np.abs(J - J.T).max() < 1e-12
        eps = 1e-6
        direction = rng.standard_normal(64)
        dz = FieldPair(
            SpectralField(cubic_spec.basis, eps * direction[:32]),
            SpectralField(cubic_spec.basis, eps * direction[32:]),
            1.0,
        )
        r_plus = residual(z + dz, cubic_spec)
        r_minus = residual(z - dz, cubic_spec)
        fd = np.concatenate(
            [r_plus.du - r_minus.du, r_plus.dv - r_minus.dv]
        ) / (2 * eps)
        assert np.abs(fd - J @ direction).max() < 1e-6


def _relative_gap(new, dense):
    return np.abs(new - dense).max() / np.abs(dense).max()


@pytest.mark.parametrize("oversample", [1, 2, 4])
@pytest.mark.parametrize("lengths", [(2.0,), (1.0, 2.5), (1.0, 1.3, 2.0)])
def test_tables_match_dense_oracle(lengths, oversample):
    """Separable tables against the dense evaluation matrix of the oracle:
    the residual, the Jacobian, grid synthesis and grid pairings."""
    rng = np.random.default_rng(len(lengths) * 10 + oversample)
    spec = ProblemSpec.create(
        BoxDomain(lengths), n=24, r=1.0, p=3.0, q=2.5,
        h=rng.standard_normal(3), k=rng.standard_normal(2), oversample=oversample,
    )
    lam = spec.basis.eigenvalues
    for _ in range(3):
        z = FieldPair(
            SpectralField(spec.basis, lam**-0.5 * rng.standard_normal(spec.n)),
            SpectralField(spec.basis, lam**-0.5 * rng.standard_normal(spec.n)),
            spec.r,
        )
        res, dense = residual(z, spec), dense_residual(z, spec)
        assert _relative_gap(res.du, dense.du) <= 1e-13
        assert _relative_gap(res.dv, dense.dv) <= 1e-13
        J, J_dense = jacobian(z, spec), dense_jacobian(z, spec)
        n = spec.n
        for block in (np.s_[:n, :n], np.s_[n:, n:]):
            assert _relative_gap(J[block], J_dense[block]) <= 1e-13
        assert np.array_equal(J[:n, n:], J_dense[:n, n:])
        assert np.array_equal(J[n:, :n], J_dense[n:, :n])
        assert np.array_equal(J, J.T)
        S, weight = grid_data(spec)
        values = to_grid(z.u, oversample)
        assert _relative_gap(values.ravel(), S @ z.u.coeffs) <= 1e-13
        g = rng.standard_normal(values.shape)
        pairings = from_grid(g, spec.basis).coeffs
        assert _relative_gap(pairings, weight * (S.T @ g.ravel())) <= 1e-13


def test_gathers_are_built_by_the_first_jacobian():
    """Work that needs no Jacobian never holds the 2^d gather-index arrays."""
    spec = ProblemSpec.create(BoxDomain((1.0, 2.5)), n=12, r=1.0, p=3.0, q=3.0, h=[0.05])
    mode = SpectralField.unit(spec.basis, 1)
    z = FieldPair(mode, 2.0 * mode, spec.r)
    verify_critical(z, spec)
    energy(z, spec)
    estimate_levels(spec, k_max=2, samples=5)
    assert "gathers" not in vars(spec.tables)
    jacobian(z, spec)
    assert len(spec.tables.gathers) == 4


class TestNewton:
    def test_zero_seed_converges_immediately(self, cubic_spec, newton_config):
        result = newton_solve(cubic_spec.zero_pair(), cubic_spec, newton_config)
        assert result.converged and result.iterations == 0

    def test_ground_state_matches_shooting_oracle(self, cubic_spec, newton_config):
        mode = SpectralField.unit(cubic_spec.basis, 1)
        result = newton_solve(FieldPair(2 * mode, 2 * mode, 1.0), cubic_spec, newton_config)
        assert result.converged and result.residual_norm < 1e-10
        assert np.abs(result.z.u.coeffs - result.z.v.coeffs).max() < 1e-12
        oracle = shooting_solution(math.pi, arches=1)
        xs = np.linspace(0.0, math.pi, 1001)
        gap = np.abs(solution_values(result.z, xs) - oracle(xs)).max()
        assert gap < 1e-6
        assert energy(result.z, cubic_spec) == pytest.approx(
            oracle.energy(), rel=1e-8
        )
        assert energy(result.z, cubic_spec) == pytest.approx(GROUND_ENERGY, rel=1e-6)

    def test_divergent_seed_reports_not_raises(self, cubic_spec):
        config = NewtonConfig(max_iter=3)
        mode = SpectralField.unit(cubic_spec.basis, 1)
        result = newton_solve(
            FieldPair(1e6 * mode, 1e6 * mode, 1.0), cubic_spec, config
        )
        assert not result.converged
        assert result.message

    @pytest.mark.parametrize(
        "make",
        [
            lambda: NewtonConfig(min_step=0.0),
            lambda: NewtonConfig(max_iter=0),
            lambda: NewtonConfig(tol=math.inf),
            lambda: NewtonConfig(separation=-1.0),
            lambda: CutoffConfig(math.nan),
            lambda: CutoffConfig(math.inf),
        ],
    )
    def test_config_ranges_rejected(self, make):
        # a zero min_step would let the line search halve forever
        with pytest.raises(ValueError):
            make()


class TestDeflation:
    def test_same_seed_avoids_known_solution(self, cubic_spec, newton_config):
        mode = SpectralField.unit(cubic_spec.basis, 1)
        seed = FieldPair(2 * mode, 2 * mode, 1.0)
        z1 = newton_solve(seed, cubic_spec, newton_config).z
        result = deflated_solve(
            cubic_spec, newton_config, known=[z1, -z1, cubic_spec.zero_pair()],
            seeds=[seed],
        )
        if result.converged:
            assert pair_norm(result.z - z1) > newton_config.separation
            assert pair_norm(result.z + z1) > newton_config.separation
        else:
            assert "exhausted" in result.message

    def test_branch_finds_three_scaled_pairs(self, cubic_spec, newton_config):
        branch = find_branch(cubic_spec, count=3, config=newton_config)
        assert len(branch.records) == 3
        energies = [rec.energy for rec in branch.records]
        assert energies == sorted(energies)
        assert all(b > a * 1.001 for a, b in zip(energies, energies[1:]))
        # golden values: the k-arch family scales as k^4
        for rec, k in zip(branch.records, (1, 2, 3)):
            assert rec.residual < 1e-10
            assert rec.energy == pytest.approx(GROUND_ENERGY * k**4, rel=1e-6)
            assert rec.mirror is not None
            assert residual(rec.mirror, cubic_spec).norm() <= newton_config.tol
        # pairwise separation, mirrors included
        points = []
        for rec in branch.records:
            points.extend([rec.z, rec.mirror])
        for i, a in enumerate(points):
            for b in points[i + 1 :]:
                assert pair_norm(a - b) > newton_config.separation

    def test_branch_records_pass_verification(self, cubic_spec, newton_config):
        branch = find_branch(cubic_spec, count=3, config=newton_config)
        rng = np.random.default_rng(13)
        eps = 1e-5
        for rec in branch.records:
            report = verify_critical(rec.z, cubic_spec)
            assert report.residual_norm <= newton_config.tol
            assert report.cutoff_weight == 1.0
            assert report.bound_ok
            assert abs(report.energy_gap) < 1e-12
            # the energy gradient vanishes at the solution, and a finite
            # difference at its location confirms the gradient code there
            grad = energy_gradient(rec.z, cubic_spec)
            assert grad.norm() < 1e-9
            w = FieldPair(
                SpectralField(cubic_spec.basis, rng.standard_normal(32)),
                SpectralField(cubic_spec.basis, rng.standard_normal(32)),
                1.0,
            )
            fd = (
                energy(rec.z + eps * w, cubic_spec)
                - energy(rec.z - eps * w, cubic_spec)
            ) / (2 * eps)
            assert abs(fd - grad.pairing(w)) <= 1e-6 * (1.0 + abs(grad.pairing(w)))

    def test_modified_gradient_small_at_critical_points(self, cubic_spec, newton_config):
        # where the plain gradient vanishes and the cutoff argument sits at
        # or below one half, the modified gradient vanishes as well
        from indefsaddle import CutoffConfig, cutoff_argument, modified_energy_gradient

        cutoff = CutoffConfig(1.0)
        branch = find_branch(cubic_spec, count=3, config=newton_config)
        for rec in branch.records:
            theta = cutoff_argument(rec.z, cubic_spec, cutoff)
            assert theta <= 0.5 + 1e-12
            mg = modified_energy_gradient(rec.z, cubic_spec, cutoff)
            assert mg.grad.norm() < 1e-8

    def test_forced_hunt_evaluates_only_inside_newton(self, perturbed_spec, monkeypatch):
        """Each candidate's energy comes from the Newton run's own evaluation,
        so a hunt synthesizes no point outside newton_solve."""
        from indefsaddle import basis, solve

        depth = 0
        outside = 0
        real_newton = solve.newton_solve
        real_evaluate = basis.GridTables.evaluate

        def newton(*args, **kwargs):
            nonlocal depth
            depth += 1
            try:
                return real_newton(*args, **kwargs)
            finally:
                depth -= 1

        def evaluate(tables, coeffs):
            nonlocal outside
            outside += depth == 0
            return real_evaluate(tables, coeffs)

        monkeypatch.setattr(solve, "newton_solve", newton)
        monkeypatch.setattr(basis.GridTables, "evaluate", evaluate)
        branch = find_branch(perturbed_spec, count=3)
        assert len(branch.records) == 3
        assert outside == 0
        for rec in branch.records:
            assert rec.energy == energy(rec.z, perturbed_spec)

    @pytest.mark.parametrize("n, count, forcing", [(8, 7, None), (8, 13, [0.05])])
    def test_every_converged_deflated_solve_is_one_record(self, monkeypatch, n, count, forcing):
        """A converged deflated run lies beyond `separation` of everything it
        was deflated against, so find_branch keeps each one, once."""
        from indefsaddle import solve

        spec = ProblemSpec.create(BoxDomain((math.pi,)), n, 1.0, 3.0, 3.0, h=forcing, k=forcing)
        converged = []
        real_deflated = solve.deflated_solve

        def deflated(*args, **kwargs):
            result = real_deflated(*args, **kwargs)
            if result.converged:
                converged.append(result.z)
            return result

        monkeypatch.setattr(solve, "deflated_solve", deflated)
        branch = find_branch(spec, count=count)
        assert len(converged) == 2
        for z in converged:
            assert sum(rec.z is z for rec in branch.records) == 1
        assert branch.exhausted and branch.note.startswith("seed schedule exhausted")

    @pytest.mark.parametrize("lengths", [(math.pi,), (1.0, 2.5), (1.0, 1.3, 2.0)])
    def test_solver_distances_are_the_pair_metric(self, lengths):
        """The squared distances behind deflation and separation are
        pair_inner of the differences, and their roots pair_norm, bit for bit."""
        from indefsaddle.solve import _distances
        from indefsaddle.space import _weights

        spec = ProblemSpec.create(BoxDomain(lengths), 12, 1.0, 3.0, 3.0)
        rng = np.random.default_rng(len(lengths))
        n = spec.n

        def pair(vec):
            return FieldPair(SpectralField(spec.basis, vec[:n]), SpectralField(spec.basis, vec[n:]), 1.0)

        points = rng.standard_normal((5, 2 * n))
        known = rng.standard_normal((3, 2 * n))
        d2 = _distances(points, known, _weights(spec.basis, spec.r))
        for point, row in zip(points, d2):
            for other, want in zip(known, row):
                diff = pair(point) - pair(other)
                assert pair_inner(diff, diff) == want
                assert pair_norm(diff) == math.sqrt(want)


@functools.lru_cache(maxsize=None)
def _newton_cases() -> dict:
    """Name -> (seed, spec, config, known) of Newton runs that backtrack."""
    cubic = ProblemSpec.create(BoxDomain((math.pi,)), n=32, r=1.0, p=3.0, q=3.0)
    seeds = default_seeds(cubic)
    mode = SpectralField.unit(cubic.basis, 1)
    ground = newton_solve(FieldPair(2.0 * mode, 2.0 * mode, 1.0), cubic).z
    zero = cubic.zero_pair()
    forced = cubic.with_forcing(h=[0.05], k=[0.05])
    forced_ground = newton_solve(FieldPair(2.0 * mode, 2.0 * mode, 1.0), forced).z
    box2 = ProblemSpec.create(BoxDomain((1.0, 2.5)), n=16, r=1.0, p=3.0, q=2.5)
    box3 = ProblemSpec.create(BoxDomain((1.0, 1.3, 2.0)), n=12, r=1.0, p=3.0, q=3.0)
    return {
        "plain": (seeds[0], cubic, None, None),
        "deflated-zero": (seeds[12], cubic, None, [zero]),
        "deflated-mirrors": (seeds[8], cubic, None, [zero, ground, -ground]),
        "stalled-mirrors": (seeds[0], cubic, None, [zero, ground, -ground]),
        "forced": (seeds[2], forced, None, [forced_ground]),
        "damping": (seeds[12], cubic, NewtonConfig(damping=0.3), [zero]),
        "min-step": (seeds[12], cubic, NewtonConfig(min_step=0.1), [zero]),
        "2-D": (default_seeds(box2)[8], box2, None, [box2.zero_pair()]),
        "3-D": (default_seeds(box3)[8], box3, None, [box3.zero_pair()]),
    }


class TestBacktracking:
    """The line search runs its step ladder as row stacks of doubling size;
    every result must be the sequential ladder's, bit for bit."""

    @pytest.mark.parametrize("name", list(_newton_cases()))
    def test_matches_sequential_oracle(self, name):
        z0, spec, config, known = _newton_cases()[name]
        got = newton_solve(z0, spec, config, known)
        want = sequential_newton(z0, spec, config, known)
        assert np.array_equal(got.z.u.coeffs, want.z.u.coeffs)
        assert np.array_equal(got.z.v.coeffs, want.z.v.coeffs)
        assert got.residual_norm == want.residual_norm
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert got.energy == want.energy
        assert got.message == want.message

    def test_cases_cover_stalls_and_convergence(self):
        outcomes = {
            name: sequential_newton(*case) for name, case in _newton_cases().items()
        }
        assert outcomes["plain"].converged and outcomes["deflated-mirrors"].converged
        for name in ("deflated-zero", "stalled-mirrors", "damping", "min-step", "2-D", "3-D"):
            assert outcomes[name].message == "deflated line search stalled"

    @pytest.mark.parametrize("scale, fill", [(2.0, math.inf), (2.0, math.nan), (1.5e308, 1e308)])
    def test_non_finite_step_raises(self, cubic_spec, monkeypatch, scale, fill):
        """A candidate with a non-finite coefficient raises where the
        sequential ladder reaches it; with scale 1.5e308 the full and the
        half step overflow and the quarter step does not."""
        mode = SpectralField.unit(cubic_spec.basis, 1)
        seed = FieldPair(scale * mode, mode, 1.0)
        monkeypatch.setattr(np.linalg, "solve", lambda J, b: np.full(b.shape, fill))
        with np.errstate(over="ignore", invalid="ignore"):
            for newton in (sequential_newton, newton_solve):
                with pytest.raises(ValueError, match="coefficients must be finite"):
                    newton(seed, cubic_spec)

    def test_deflation_matches_oracle(self, cubic_spec):
        from indefsaddle.solve import _deflation_factor, _deflation_gradient, _distances

        lam = cubic_spec.basis.eigenvalues
        metric = np.concatenate([lam, lam])
        rng = np.random.default_rng(4)
        sparse = np.zeros(64)
        sparse[[0, 33]] = [1.5, -0.5]  # zero differences give signed-zero terms
        for m in (0, 1, 3, 13):
            known = rng.standard_normal((m, 64)) / metric
            if m:
                known[0] = 0.0
            points = [rng.standard_normal(64), sparse] + list(known[1:2])
            factors = [_deflation_factor(d2) for d2 in _distances(np.array(points), known, metric)]
            for z, factor in zip(points, factors):
                want_factor, want_grad = deflation(z, list(known), metric)
                assert factor == want_factor
                if math.isfinite(factor):
                    grad = _deflation_gradient(z, known, metric, factor)
                    assert grad.tobytes() == want_grad.tobytes()
            if m > 1:
                assert factors[-1] == math.inf  # a point on a known one

    def test_stalled_ladder_evaluates_doubling_stacks(self, monkeypatch):
        """A stalled 40-step ladder is 6 stacks of 1, 2, 4, 8, 16 and 9 rows,
        and no line search evaluates more than twice the rows the sequential
        ladder tries."""
        from indefsaddle import basis, solve

        z0, spec, config, known = _newton_cases()["stalled-mirrors"]
        config = config or NewtonConfig()
        rows: list[int] = []
        searches = []
        real_evaluate = basis.GridTables.evaluate
        real_backtrack = solve._backtrack

        def evaluate(tables, coeffs):
            rows.append(len(coeffs) if coeffs.ndim == 2 else 0)
            return real_evaluate(tables, coeffs)

        def backtrack(vec, delta, *args):
            rows.clear()
            found = real_backtrack(vec, delta, *args)
            step, tried = 1.0, 1
            while found is not None and not np.array_equal(vec + step * delta, found[0].vecs):
                step *= config.damping
                tried += 1
            searches.append((found is not None, tried, list(rows)))
            return found

        monkeypatch.setattr(basis.GridTables, "evaluate", evaluate)
        monkeypatch.setattr(solve, "_backtrack", backtrack)
        result = newton_solve(z0, spec, config, known)
        assert result.message == "deflated line search stalled"
        stalled = searches[-1]
        assert not stalled[0]
        assert stalled[2] == [1, 1, 2, 2, 4, 4, 8, 8, 16, 16, 9, 9]  # u and v per stack
        assert any(tried > 1 for accepted, tried, _ in searches if accepted)
        for accepted, tried, stacks in searches:
            evaluated = sum(stacks) // 2
            assert evaluated <= 2 * (tried if accepted else 40)


    def test_stacks_capped_by_size(self, monkeypatch):
        """Stacks stop doubling at the cap on their values, which bounds the
        memory of a long ladder; the result stays the sequential one."""
        from indefsaddle import basis

        z0, spec, config, known = _newton_cases()["stalled-mirrors"]
        stack = len(known) * 2 * spec.n + spec.tables.points
        energy_module = importlib.import_module("indefsaddle.energy")
        monkeypatch.setattr(energy_module, "_STACK_VALUES", 3 * stack + 1)
        rows: list[int] = []
        real_evaluate = basis.GridTables.evaluate

        def evaluate(tables, coeffs):
            rows.append(len(coeffs) if coeffs.ndim == 2 else 0)
            return real_evaluate(tables, coeffs)

        monkeypatch.setattr(basis.GridTables, "evaluate", evaluate)
        got = newton_solve(z0, spec, config, known)
        assert max(rows) == 3
        assert got.residual_norm == sequential_newton(z0, spec, config, known).residual_norm


class TestMeshRobustness:
    def test_energies_stable_under_doubling(self, cubic_spec, newton_config):
        branch32 = find_branch(cubic_spec, count=3, config=newton_config)
        spec64 = ProblemSpec.create(cubic_spec.domain, 64, 1.0, 3.0, 3.0)
        for rec in branch32.records:
            padded = np.zeros(64)
            padded[:32] = rec.z.u.coeffs
            seed = FieldPair(
                SpectralField(spec64.basis, padded),
                SpectralField(spec64.basis, padded),
                1.0,
            )
            refined = newton_solve(seed, spec64, newton_config)
            assert refined.converged
            e32, e64 = rec.energy, energy(refined.z, spec64)
            assert abs(e64 - e32) / abs(e32) < 1e-6


class TestTwoDimensions:
    def test_square_ground_state(self, newton_config):
        spec = ProblemSpec.create(BoxDomain((math.pi, math.pi)), n=8, r=1.0, p=3.0, q=3.0)
        mode = SpectralField.unit(spec.basis, 1)
        result = newton_solve(FieldPair(2 * mode, 2 * mode, 1.0), spec, newton_config)
        assert result.converged and result.residual_norm < 1e-10
        assert np.abs(result.z.u.coeffs - result.z.v.coeffs).max() < 1e-12
        assert energy(result.z, spec) > 0.0
        report = verify_critical(result.z, spec)
        assert report.cutoff_weight == 1.0 and report.bound_ok


class TestContinuation:
    def test_zero_forcing_returns_input(self, cubic_spec, newton_config):
        mode = SpectralField.unit(cubic_spec.basis, 1)
        z1 = newton_solve(FieldPair(2 * mode, 2 * mode, 1.0), cubic_spec, newton_config).z
        result = continuation(z1, cubic_spec, steps=3, config=newton_config)
        assert result.converged
        assert np.array_equal(result.z.u.coeffs, z1.u.coeffs)
        assert np.array_equal(result.z.v.coeffs, z1.v.coeffs)

    def test_perturbed_forcing_converges(self, cubic_spec, perturbed_spec, newton_config):
        mode = SpectralField.unit(cubic_spec.basis, 1)
        z1 = newton_solve(FieldPair(2 * mode, 2 * mode, 1.0), cubic_spec, newton_config).z
        result = continuation(z1, perturbed_spec, steps=5, config=newton_config)
        assert result.converged and result.reached == 1.0
        assert residual(result.z, perturbed_spec).norm() < 1e-10

    def test_linear_response_slope(self, cubic_spec, newton_config):
        mode = SpectralField.unit(cubic_spec.basis, 1)
        z1 = newton_solve(FieldPair(2 * mode, 2 * mode, 1.0), cubic_spec, newton_config).z
        e0 = energy(z1, cubic_spec)
        shifts = {}
        for eps in (0.01, 0.02):
            target = cubic_spec.with_forcing(h=[eps], k=[eps])
            moved = continuation(z1, target, steps=2, config=newton_config)
            shifts[eps] = energy(moved.z, target) - e0
        ratio = shifts[0.02] / shifts[0.01]
        assert 1.5 <= ratio <= 2.5


class TestLevels:
    def test_brackets_shape_and_monotonicity(self, cubic_spec):
        brackets = estimate_levels(cubic_spec, k_max=5, samples=100, seed=0)
        uppers = [b.upper for b in brackets]
        assert uppers == sorted(uppers)
        for b in brackets:
            assert b.upper <= b.ceiling
            assert b.max_pointwise_excess <= 1e-12
            assert b.radius > 0.0

    def test_lower_curve_exponent_exact(self, cubic_spec):
        brackets = estimate_levels(cubic_spec, k_max=5, samples=20, seed=0)
        lowers = np.array([b.lower for b in brackets])
        assert np.all(lowers > 0.0)
        ks = np.arange(1, 6, dtype=float)
        slope = np.polyfit(np.log(ks), np.log(lowers), 1)[0]
        # alpha = min(q1, p1) = 1.5 at r = 1, N = 1, p = q = 3
        assert slope == pytest.approx(3.0, abs=1e-10)

    def test_computed_energies_below_top_bracket(self, cubic_spec, newton_config):
        branch = find_branch(cubic_spec, count=3, config=newton_config)
        brackets = estimate_levels(cubic_spec, k_max=5, samples=100, seed=0)
        top = brackets[-1].upper
        for rec in branch.records:
            assert rec.energy < top

    def test_lower_below_upper_where_meaningful(self, cubic_spec):
        brackets = estimate_levels(cubic_spec, k_max=5, samples=100, seed=0)
        for b in brackets:
            assert b.lower <= b.upper

    def test_per_index_bracket_report(self, cubic_spec, newton_config, capsys):
        # index assignment of computed solutions is heuristic (sorted order),
        # so per-index violations are flagged in the output, not asserted
        branch = find_branch(cubic_spec, count=3, config=newton_config)
        brackets = estimate_levels(cubic_spec, k_max=3, samples=100, seed=0)
        flagged = [
            (rec.energy, b.k, b.upper)
            for rec, b in zip(branch.records, brackets)
            if rec.energy > b.upper
        ]
        print(f"per-index bracket comparison: {len(flagged)} flagged of 3")
        for e, k, upper in flagged:
            print(f"  energy {e:.4f} above sampled upper {upper:.4f} at index {k}")


class TestSampledLevels:
    """estimate_levels evaluates each level's points as stacks; its brackets
    are those of building and evaluating the points one at a time."""

    @staticmethod
    def spec(lengths, n, forced):
        spec = ProblemSpec.create(BoxDomain(lengths), n=n, r=0.9, p=3.0, q=2.5)
        return spec.with_forcing(h=[0.05], k=[0.03, 0.02]) if forced else spec

    @pytest.mark.parametrize("samples", [0, 1, 25])
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("lengths, n", [((math.pi,), 16), ((math.pi, 2.0), 20)])
    def test_matches_point_by_point_oracle(self, lengths, n, forced, samples):
        spec = self.spec(lengths, n, forced)
        got = estimate_levels(spec, k_max=3, samples=samples, seed=2)
        assert list(map(repr, got)) == list(map(repr, sampled_levels(spec, 3, samples, seed=2)))

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("lengths, n", [((math.pi,), 16), ((math.pi, 2.0), 20)])
    def test_samples_match_oracle_where_they_set_the_brackets(
        self, lengths, n, forced, monkeypatch
    ):
        """In place, the fixed points set every bracket.  Moved far into the
        minus space, their energies fall below every sample's, and the
        random samples set the brackets."""
        import oracles
        from indefsaddle import solve, space

        def moved(basis, rank, sign, r):
            return 1e3 * space.coupling_eigenvector(basis, rank, -sign, r)

        monkeypatch.setattr(solve, "coupling_eigenvector", moved)
        monkeypatch.setattr(oracles, "coupling_eigenvector", moved)
        spec = self.spec(lengths, n, forced)
        got = estimate_levels(spec, k_max=3, samples=25, seed=2)
        assert list(map(repr, got)) == list(map(repr, sampled_levels(spec, 3, 25, seed=2)))
        fixed_only = estimate_levels(spec, k_max=3, samples=0, seed=2)
        assert all(a.upper > b.upper for a, b in zip(got, fixed_only))

    def test_stacks_capped_by_size(self, perturbed_spec, monkeypatch):
        from indefsaddle import solve

        energy_module = importlib.import_module("indefsaddle.energy")
        monkeypatch.setattr(energy_module, "_STACK_VALUES", 7 * perturbed_spec.tables.points)
        rows = []
        real = solve.Evaluation

        def evaluation(vecs, spec):
            rows.append(len(vecs))
            return real(vecs, spec)

        monkeypatch.setattr(solve, "Evaluation", evaluation)
        got = estimate_levels(perturbed_spec, k_max=2, samples=10, seed=1)
        # 4 fixed points and 10 samples at k = 1, then 1 + 8 and 10 at k = 2
        assert rows == [4, 7, 3, 7, 2, 7, 3]
        assert list(map(repr, got)) == list(map(repr, sampled_levels(perturbed_spec, 2, 10, seed=1)))


class TestBatchedAscent:
    """The level searches advance all their restarts at once; every row takes
    the path the per-start oracle takes alone, bit for bit, and a row that
    has stopped is not evaluated again."""

    @pytest.fixture
    def moment_rows(self, monkeypatch):
        from indefsaddle import solve

        rows = []
        real = solve._power_moment

        def counting(spec, coeffs, exponent):
            rows.append(len(coeffs))
            return real(spec, coeffs, exponent)

        monkeypatch.setattr(solve, "_power_moment", counting)
        return rows

    @pytest.mark.parametrize("lengths, n", [((math.pi,), 32), ((math.pi, 2.0), 24)])
    def test_sphere_extremal_matches_oracle(self, lengths, n, moment_rows):
        from indefsaddle.solve import _sphere_extremal

        spec = ProblemSpec.create(BoxDomain(lengths), n=n, r=0.8, p=3.0, q=2.5)
        active, warm, seed = 4, np.array([1.0, -0.5, 0.0, 0.25]), 7
        calls = []

        def value_grad(c):
            calls.append(1)
            coeffs = np.zeros(spec.n)
            coeffs[:active] = c
            val, pair = power_moment(spec, coeffs, spec.q)
            return -val, -pair[:active]

        rng = np.random.default_rng(seed)
        starts = [warm] + [rng.standard_normal(active) for _ in range(9)]
        weights = spec.basis.eigenvalues[:active] ** spec.r
        val, point = projected_ascent(value_grad, starts, weights, 300)
        got_val, got_point = _sphere_extremal(
            spec, active, spec.q, spec.r, seed=seed, warm_start=warm
        )
        assert got_val == -val
        assert np.array_equal(got_point, point)
        assert sum(moment_rows) == len(calls)

    @pytest.mark.parametrize("lengths, n", [((math.pi,), 32), ((math.pi, 2.0), 24)])
    def test_gn_constant_matches_oracle(self, lengths, n, moment_rows):
        from indefsaddle.solve import _gn_constant

        spec = ProblemSpec.create(BoxDomain(lengths), n=n, r=0.8, p=3.0, q=2.5)
        exponent, theta, seed = spec.p, 0.4, 5
        weights = spec.basis.eigenvalues ** (2.0 - spec.r)
        calls = []

        def value_grad(c):
            calls.append(1)
            num_int, pair = power_moment(spec, c, exponent)
            l2sq = float(np.dot(c, c))
            sobsq = float(np.dot(weights * c, c))
            ratio = num_int ** (1.0 / (exponent + 1.0)) / (
                math.sqrt(l2sq) ** theta * math.sqrt(sobsq) ** (1.0 - theta)
            )
            return ratio, (
                pair / ((exponent + 1.0) * num_int)
                - theta * c / l2sq
                - (1.0 - theta) * weights * c / sobsq
            )

        rng = np.random.default_rng(seed)
        starts = [rng.standard_normal(spec.n) for _ in range(10)]
        val, _ = projected_ascent(value_grad, starts, weights, 200)
        assert _gn_constant(spec, exponent, 2.0 - spec.r, theta, seed) == max(0.0, val)
        assert sum(moment_rows) == len(calls)

    def test_rows_capped_by_iters_match_oracle(self, cubic_spec):
        """Rows that stop on the step count, not the step size, stop alike;
        of the exactly tied mirror rows c and -c the first one wins."""
        from indefsaddle.solve import _power_moment, _projected_ascent

        def rows_value_grad(C):
            return _power_moment(cubic_spec, C, 3.0)

        def point_value_grad(c):
            return power_moment(cubic_spec, c, 3.0)

        rng = np.random.default_rng(2)
        starts = []
        for _ in range(3):
            c = rng.standard_normal(cubic_spec.n)
            starts += [c, -c]
        weights = cubic_spec.basis.eigenvalues
        for iters in (1, 3, 8):
            val, point = projected_ascent(point_value_grad, starts, weights, iters)
            got_val, got_point = _projected_ascent(rows_value_grad, starts, weights, iters)
            assert got_val == val
            assert np.array_equal(got_point, point)

    def test_one_overflowing_row_raises(self, cubic_spec):
        from indefsaddle.solve import _power_moment

        coeffs = np.zeros((3, cubic_spec.n))
        coeffs[:, 0] = [1.0, 1e200, 2.0]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                _power_moment(cubic_spec, coeffs, 3.0)


class TestVerifyCritical:
    def test_zero_point_symmetric_problem(self, cubic_spec):
        report = verify_critical(cubic_spec.zero_pair(), cubic_spec)
        assert report.residual_norm == 0.0
        assert report.energy == 0.0
        assert report.bound_ok

    def test_noncritical_point_reports_quietly(self, cubic_spec):
        rng = np.random.default_rng(3)
        z = FieldPair(
            SpectralField(cubic_spec.basis, rng.standard_normal(32)),
            SpectralField(cubic_spec.basis, rng.standard_normal(32)),
            1.0,
        )
        report = verify_critical(z, cubic_spec)
        assert report.residual_norm > 0.0

    def test_oracle_energy_independent_path(self):
        # the oracle's own energy functional agrees with the spectral one on
        # an interpolated field, tying the two discretizations together
        oracle = shooting_solution(math.pi, arches=2)
        spec = ProblemSpec.create(BoxDomain((math.pi,)), 48, 1.0, 3.0, 3.0)
        xs = grid_points(spec.domain, (4 * 48,))[0]
        u = from_grid(oracle(xs), spec.basis)
        z = FieldPair(u, u, 1.0)
        assert energy(z, spec) == pytest.approx(oracle.energy(), rel=1e-7)
        assert oracle.energy() == pytest.approx(GROUND_ENERGY * 16.0, rel=1e-7)


def test_default_seed_schedule_structure(cubic_spec):
    seeds = default_seeds(cubic_spec, k_max=3)
    assert len(seeds) == 3 * 3 * 2  # modes x scales x signs
    assert all(
        np.array_equal(s.u.coeffs, s.v.coeffs) for s in seeds
    )
