import functools
import importlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

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
    newton_solve,
    newton_sweep,
    pair_inner,
    pair_norm,
    residual,
    verify_critical,
)
from indefsaddle.basis import BoxDomain, grid_shape
from indefsaddle.energy import Evaluation

from oracles import (
    assembled_jacobian,
    deflation,
    dense_jacobian,
    dense_residual,
    grid_data,
    grid_points,
    power_moment,
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
        J = assembled_jacobian(z, cubic_spec)
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
    the residual, the Galerkin blocks of the Jacobian, grid synthesis and
    grid pairings."""
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
        J, J_dense = assembled_jacobian(z, spec), dense_jacobian(z, spec)
        n = spec.n
        for block in (np.s_[:n, :n], np.s_[n:, n:]):
            assert _relative_gap(J[block], J_dense[block]) <= 1e-13
            assert np.array_equal(J[block], J[block].T)
        S, weight = grid_data(spec)
        tables = spec.basis.grid_tables(grid_shape(spec.basis, oversample))
        values = tables.evaluate(z.u.coeffs)
        assert _relative_gap(values.ravel(), S @ z.u.coeffs) <= 1e-13
        g = rng.standard_normal(values.shape)
        pairings = tables.pairings(g)
        assert _relative_gap(pairings, weight * (S.T @ g.ravel())) <= 1e-13


def test_gathers_are_built_by_the_first_jacobian():
    """Work that needs no Galerkin matrix never holds the 2^d gather-index
    arrays: the Newton operator needs them, and so do the level searches'
    Newton steps on the full basis."""
    from indefsaddle import solve

    spec = ProblemSpec.create(BoxDomain((1.0, 2.5)), n=12, r=1.0, p=3.0, q=3.0, h=[0.05])
    mode = SpectralField.unit(spec.basis, 1)
    z = FieldPair(mode, 2.0 * mode, spec.r)
    verify_critical(z, spec)
    energy(z, spec)
    assert "gathers" not in vars(spec.tables)
    solve._schur(Evaluation.at(z, spec))  # the Newton operator, as matrices at this n
    assert len(spec.tables.gathers) == 4
    levels = ProblemSpec.create(BoxDomain((1.0, 2.5)), n=12, r=1.0, p=3.0, q=3.0)
    estimate_levels(levels, k_max=2)
    assert len(levels.tables.gathers) == 4


@pytest.mark.parametrize("lengths, n", [((math.pi,), 64), ((math.pi,), 127), ((1.0, 2.5), 40), ((1.0, 1.3, 2.0), 30)])
def test_stacked_blocks_are_each_rows_own(lengths, n):
    """galerkin of a stack gives each row's block bit for bit, C-contiguous,
    so that the stacked products take the BLAS path a point's take; the 1-D
    blocks, read through strided views of the moments, are the signed sum
    of the gathers bit for bit."""
    spec = ProblemSpec.create(BoxDomain(lengths), n, 1.0, 3.0, 3.0)
    tables = spec.tables
    shape = grid_shape(spec.basis, spec.oversample)
    values = np.random.default_rng(n).standard_normal((5, *shape))
    stacked = tables.galerkin(values)
    assert stacked.flags.c_contiguous and stacked.shape == (5, n, n)
    for row, block in zip(values, stacked):
        alone = tables.galerkin(row)
        assert alone.flags.c_contiguous
        assert block.tobytes() == alone.tobytes()
        if len(lengths) == 1:
            moments = tables.cosines[0] @ row
            (_, first), (_, second) = tables.gathers
            want = moments[first] - moments[second]
            want *= tables.block_scale
            assert alone.tobytes() == want.tobytes()


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

    def test_seed_on_a_known_solution_is_reported(self, cubic_spec, newton_config):
        mode = SpectralField.unit(cubic_spec.basis, 1)
        ground = newton_solve(FieldPair(2 * mode, 2 * mode, 1.0), cubic_spec, newton_config).z
        result = newton_solve(ground, cubic_spec, newton_config, known=[ground])
        assert not result.converged and result.iterations == 0
        assert result.message == "seed coincides with a known solution"

    def test_empty_seed_schedule_is_exhausted(self, cubic_spec, newton_config):
        result = deflated_solve(cubic_spec, newton_config, known=[], seeds=[])
        assert not result.converged and result.residual_norm == math.inf
        assert result.message == "seed schedule exhausted (empty seed schedule)"

    @pytest.mark.parametrize("n, r, message", [
        (33, 1.0, "pairs live on different bases"),
        (32, 1.2, "pairs have different split parameters 1.0 != 1.2"),
    ])
    def test_known_point_off_the_problem_is_rejected(self, cubic_spec, interval, n, r, message):
        """A known point on another basis used to fail in a numpy reshape,
        and one of another r was deflated against in the wrong metric."""
        mode = SpectralField.unit(cubic_spec.basis, 1)
        known = ProblemSpec.create(interval, n=n, r=r, p=3.0, q=3.0).zero_pair()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            newton_solve(FieldPair(2 * mode, 2 * mode, 1.0), cubic_spec, known=[known])

    def test_divergent_seed_reports_not_raises(self, cubic_spec):
        config = NewtonConfig(max_iter=3)
        mode = SpectralField.unit(cubic_spec.basis, 1)
        result = newton_solve(
            FieldPair(1e6 * mode, 1e6 * mode, 1.0), cubic_spec, config
        )
        assert not result.converged
        assert result.message

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale_v", [1.0, 2.0])
    def test_overflow_on_the_way_reports_only_through_the_outcome(self, scale_v):
        """From 1e20 (phi_1, scale_v phi_1) at 1-D n = 260 the powers on the
        grid overflow during the run; the run ends unconverged with its
        message, and no floating-point warning reaches the caller.  The
        first seed's run is diagonal, the second's on the system."""
        spec = ProblemSpec.create(BoxDomain((math.pi,)), 260, 1.0, 3.0, 3.0)
        mode = SpectralField.unit(spec.basis, 1)
        result = newton_solve(FieldPair(1e20 * mode, (scale_v * 1e20) * mode, 1.0), spec)
        assert not result.converged
        assert result.message in {"line search stalled", "max_iter reached"}

    @pytest.mark.parametrize(
        "make",
        [
            lambda: NewtonConfig(tol=0.0),
            lambda: NewtonConfig(max_iter=0),
            lambda: NewtonConfig(tol=math.inf),
            lambda: NewtonConfig(separation=-1.0),
            lambda: CutoffConfig(math.nan),
            lambda: CutoffConfig(math.inf),
        ],
    )
    def test_config_ranges_rejected(self, make):
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

    def test_forced_sweep_that_converges_nowhere_is_not_rerun(self, monkeypatch):
        """With no record and, for a forced problem, no zero pair, there is
        nothing to deflate against: the hunt ends after the plain sweep, with
        the sweep's best failure as its note."""
        from indefsaddle import solve

        spec = ProblemSpec.create(
            BoxDomain((1.0, 1.3)), n=12, r=1.0, p=9.0, q=9.0
        ).with_forcing(h=[200.0], k=[200.0])
        real, real_sweep, runs = solve.newton_solve, solve.newton_sweep, []

        def counting(z0, spec, config=None, known=None):
            runs.append(known)
            return real(z0, spec, config, known)

        def sweep(seeds, spec, config=None):
            runs.extend([None] * len(seeds))  # one plain run per seed
            return real_sweep(seeds, spec, config)

        monkeypatch.setattr(solve, "newton_solve", counting)
        monkeypatch.setattr(solve, "newton_sweep", sweep)
        branch = find_branch(spec, count=3)
        seeds = default_seeds(spec, 6)
        assert branch.records == [] and branch.exhausted
        assert runs == [None] * len(seeds)
        best = min((real(seed, spec) for seed in seeds), key=lambda res: res.residual_norm)
        assert not best.converged
        assert branch.note == f"seed schedule exhausted ({best.message})"
        assert "deflated" not in branch.note

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
        so a hunt synthesizes no point outside newton_sweep and newton_solve."""
        from indefsaddle import basis, solve

        depth = 0
        outside = 0
        real_evaluate = basis.GridTables.evaluate

        def inside(real):
            def newton(*args, **kwargs):
                nonlocal depth
                depth += 1
                try:
                    return real(*args, **kwargs)
                finally:
                    depth -= 1

            return newton

        def evaluate(tables, coeffs):
            nonlocal outside
            outside += depth == 0
            return real_evaluate(tables, coeffs)

        for name in ("newton_sweep", "newton_solve"):
            monkeypatch.setattr(solve, name, inside(getattr(solve, name)))
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
        # the default seeds fill these hunts without deflation; fixed amplitudes do not
        branch = find_branch(spec, seeds=_scaled_mode_seeds(spec), count=count)
        assert len(converged) == 2
        for z in converged:  # stored as itself or, for a symmetric problem, as its mirror
            members = [m for rec in branch.records for m in (rec.z, rec.mirror) if m is not None]
            assert sum(np.array_equal(m.vec, z.vec) for m in members) == 1
        assert branch.exhausted and branch.note.startswith("seed schedule exhausted")

    @pytest.mark.parametrize("forcing", [None, [0.05]])
    def test_records_ignore_candidate_order_and_energy_roundoff(self, monkeypatch, forcing):
        """The t in {1, 2, 4} seeds reach most solutions several times over,
        at roundoff apart.  Reversing them and moving each candidate energy
        by one ulp, up and down in turn, keeps every record bit for bit: each
        solution keeps its candidate of smallest residual, and a symmetric
        record is the member of its pair whose largest u-coefficient is
        positive.  Moving every coefficient by one ulp too, up and down in
        turn, keeps the records in their order, each within one ulp; the
        forced hunt's last two records are tied in energy, and their first
        coefficients agree to roundoff."""
        import dataclasses

        from indefsaddle import solve

        spec = ProblemSpec.create(BoxDomain((math.pi,)), 16, 1.0, 3.0, 3.0, h=forcing, k=forcing)
        seeds = _scaled_mode_seeds(spec)
        plain = find_branch(spec, seeds=seeds, count=5)
        real_newton, real_sweep = solve.newton_solve, solve.newton_sweep
        for shift_coefficients in (False, True):
            candidates = []
            calls = itertools.count()

            def moved_run(result):
                candidates.append(result.converged)
                direction = math.inf if next(calls) % 2 else -math.inf
                z = result.z
                if shift_coefficients:
                    u, v = (SpectralField(spec.basis, np.nextafter(f.coeffs, direction)) for f in (z.u, z.v))
                    z = FieldPair(u, v, z.r)
                return dataclasses.replace(
                    result, z=z, energy=math.nextafter(result.energy, direction)
                )

            def newton(*args, **kwargs):
                return moved_run(real_newton(*args, **kwargs))

            def sweep(*args, **kwargs):
                return [moved_run(result) for result in real_sweep(*args, **kwargs)]

            monkeypatch.setattr(solve, "newton_solve", newton)
            monkeypatch.setattr(solve, "newton_sweep", sweep)
            moved = find_branch(spec, seeds=seeds[::-1], count=5)
            assert sum(candidates) > 2 * len(plain.records)  # most solutions reached repeatedly
            assert len(moved.records) == len(plain.records) == 5
            for a, b in zip(plain.records, moved.records):
                if shift_coefficients:
                    assert np.all(np.abs(a.z.vec - b.z.vec) <= np.spacing(np.abs(a.z.vec)))
                else:
                    assert a.z.vec.tobytes() == b.z.vec.tobytes()
                assert a.residual == b.residual
                if forcing is None:
                    assert a.z.u.coeffs[np.argmax(np.abs(a.z.u.coeffs))] > 0.0
                    assert np.array_equal(a.mirror.vec, -a.z.vec)
        if forcing is not None:
            x, y = plain.records[3].z.vec, plain.records[4].z.vec
            assert plain.records[4].energy - plain.records[3].energy < 1e-12 * plain.records[4].energy
            assert abs(x[0] - y[0]) < 1e-15 and abs(x[1] - y[1]) > 1.0

    def test_tied_records_ignore_roundoff_in_leading_coefficients(self, cubic_spec):
        """Records tied in energy are ordered at their first coefficient
        apart by more than 1e-9 of their largest: the larger comes first,
        whichever way the last bits of the entries before it fall."""
        from indefsaddle.solve import SolutionRecord, _energy_order

        n = cubic_spec.n

        def record(vec, energy=16.25):
            pair = FieldPair(SpectralField(cubic_spec.basis, vec[:n]), SpectralField(cubic_spec.basis, vec[n:]), 1.0)
            return SolutionRecord(z=pair, energy=energy, residual=1e-12)

        base = np.zeros(2 * n)
        base[0], base[1], base[n + 1] = -0.0018, 2.8, 2.8
        for ulps in (-3, -1, 1, 3):
            low = base.copy()
            low[0] = base[0] + ulps * np.spacing(abs(base[0]))
            low[1], low[n + 1] = -2.8, -2.8
            for energies in ((16.25, 16.25), (16.25, math.nextafter(16.25, 0.0))):
                high, below = record(base, energies[0]), record(low, energies[1])
                for records in ([high, below], [below, high]):
                    assert _energy_order(records) == [high, below]
        far = base.copy()
        far[0] += 1e-6  # apart by more than 1e-9 of 2.8: this entry decides
        far[1] = -2.8
        assert _energy_order([record(base), record(far)])[0].z.vec[0] == far[0]

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


def _scaled_mode_seeds(spec):
    """t (phi_j, phi_j) for t in (1, 2, 4) and each sign, modes 1..6 in turn:
    fixed amplitudes, far from the one-mode amplitudes of the higher modes, so
    that Newton runs from them backtrack, stall and need deflation."""
    seeds = []
    for j in range(1, min(spec.n, 6) + 1):
        mode = SpectralField.unit(spec.basis, j)
        for t in (1.0, 2.0, 4.0):
            for sign in (1.0, -1.0):
                seeds.append(FieldPair(mode * (sign * t), mode * (sign * t), spec.r))
    return seeds


@functools.lru_cache(maxsize=None)
def _newton_cases() -> dict:
    """Name -> (seed, spec, config, known) of Newton runs that backtrack.
    The plain run's seed has about 1% of mode 2 beside mode 1, so that it
    spans two parity classes, and 0.010 of it in u against 0.011 in v, so
    that it lies off the diagonal u = v: it runs on the full system, as the
    oracle does."""
    cubic = ProblemSpec.create(BoxDomain((math.pi,)), n=32, r=1.0, p=3.0, q=3.0)
    seeds = _scaled_mode_seeds(cubic)
    mode = SpectralField.unit(cubic.basis, 1)
    second = SpectralField.unit(cubic.basis, 2)
    mixed = seeds[0] + FieldPair(0.010 * second, 0.011 * second, 1.0)
    ground = newton_solve(FieldPair(2.0 * mode, 2.0 * mode, 1.0), cubic).z
    zero = cubic.zero_pair()
    forced = cubic.with_forcing(h=[0.05], k=[0.05])
    forced_ground = newton_solve(FieldPair(2.0 * mode, 2.0 * mode, 1.0), forced).z
    box2 = ProblemSpec.create(BoxDomain((1.0, 2.5)), n=16, r=1.0, p=3.0, q=2.5)
    box3 = ProblemSpec.create(BoxDomain((1.0, 1.3, 2.0)), n=12, r=1.0, p=3.0, q=3.0)
    return {
        "plain": (mixed, cubic, None, None),
        "deflated-zero": (seeds[12], cubic, None, [zero]),
        "deflated-mirrors": (seeds[8], cubic, None, [zero, ground, -ground]),
        "stalled-mirrors": (seeds[0], cubic, None, [zero, ground, -ground]),
        "forced": (seeds[2], forced, None, [forced_ground]),
        "2-D": (_scaled_mode_seeds(box2)[8], box2, None, [box2.zero_pair()]),
        "3-D": (_scaled_mode_seeds(box3)[8], box3, None, [box3.zero_pair()]),
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
        for name in ("deflated-zero", "stalled-mirrors", "2-D", "3-D"):
            assert outcomes[name].message == "deflated line search stalled"

    @pytest.mark.parametrize("scale, fill", [(2.0, math.inf), (2.0, math.nan), (1.5e308, 1e308)])
    def test_non_finite_step_raises(self, cubic_spec, monkeypatch, scale, fill):
        """A candidate with a non-finite coefficient raises where the
        sequential ladder reaches it; with scale 1.5e308 the full and the
        half step overflow and the quarter step does not (there the seed's
        own residual norm overflows, so newton_solve raises before its first
        step)."""
        from indefsaddle import solve

        mode = SpectralField.unit(cubic_spec.basis, 1)
        seed = FieldPair(scale * mode, mode, 1.0)
        monkeypatch.setattr(solve, "_newton_step", lambda ev, r, *args: np.full(r.shape, fill))
        with np.errstate(over="ignore", invalid="ignore"):
            for newton in (sequential_newton, newton_solve):
                with pytest.raises(ValueError, match="coefficients must be finite"):
                    newton(seed, cubic_spec)

    @pytest.mark.parametrize("deflated", [False, True])
    @pytest.mark.parametrize("amplitude", [1e80, 1e200])
    @pytest.mark.parametrize("n", [8, 128])
    def test_overflowing_seed_raises_on_both_sides_of_the_crossover(self, n, amplitude, deflated):
        """A seed whose residual norm is not finite raises before the first
        step, whether the step would solve densely (n = 8) or by GMRES
        (n = 128)."""
        spec = ProblemSpec.create(BoxDomain((math.pi,)), n, 1.0, 3.0, 3.0)
        mode = SpectralField.unit(spec.basis, 1)
        seed = FieldPair(amplitude * mode, amplitude * mode, 1.0)
        known = [spec.zero_pair()] if deflated else None
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                newton_solve(seed, spec, known=known)

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
            distances = _distances(np.array(points), known, metric)
            for z, d2 in zip(points, distances):
                factor = _deflation_factor(d2)
                want_factor, want_grad = deflation(z, list(known), metric)
                assert factor == want_factor
                if math.isfinite(factor):
                    grad = _deflation_gradient(z, known, metric, d2, factor)
                    assert grad.tobytes() == want_grad.tobytes()
            if m > 1:
                assert factor == math.inf  # a point on a known one

    def test_ladder_halves_the_full_step_down_to_the_last_above_1e_12(self):
        from indefsaddle.solve import _STEPS

        want, step = [], 1.0
        while step >= 1e-12:
            want.append(step)
            step *= 0.5
        assert list(_STEPS) == want and len(want) == 40

    def test_stalled_ladder_evaluates_doubling_stacks(self, monkeypatch):
        """A stalled 40-step ladder is 6 stacks of 1, 2, 4, 8, 16 and 9 rows,
        and no line search evaluates more than twice the rows the sequential
        ladder tries."""
        from indefsaddle import basis, solve

        z0, spec, config, known = _newton_cases()["stalled-mirrors"]
        rows: list[int] = []
        searches = []
        real_evaluate = basis.GridTables.evaluate
        real_backtrack = solve._backtrack

        def evaluate(tables, coeffs):
            rows.append(len(coeffs) if coeffs.ndim == 2 else 0)
            return real_evaluate(tables, coeffs)

        def backtrack(vecs, deltas, *args):  # the one row of a lone run
            rows.clear()
            found = real_backtrack(vecs, deltas, *args)
            (vec,), (delta,), (row,) = vecs, deltas, found
            step, tried = 1.0, 1
            while row is not None and not np.array_equal(vec + step * delta, row[0].vecs):
                step *= 0.5
                tried += 1
            searches.append((row is not None, tried, list(rows)))
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


def _step_kinds(monkeypatch) -> list:
    """(n, diagonal) of each call of solve._schur from now on: the size of
    the problem it steps, and whether the step is diagonal."""
    from indefsaddle import solve

    kinds = []
    real = solve._schur

    def schur(ev, diagonal=False):
        kinds.append((ev.spec.n, diagonal))
        return real(ev, diagonal)

    monkeypatch.setattr(solve, "_schur", schur)
    return kinds


def _sweep_seeds(spec):
    """The default schedule (a forced problem's starts with the zero pair),
    then (a phi_1, b phi_1) for (a, b) in ((2, 2.5), (2.5, 2)) and each
    sign, which lie off the diagonal u = v, then t (phi_j, phi_j) for t in
    (1, 4), modes 1..3 and each sign: these fall to the trivial solution,
    converge or run out of iterations.  At p = q with h = k the sweep thus
    mixes diagonal runs (the default schedule and the last twelve) with
    runs on the system, two of them in mode 1's parity class even when the
    mirror seeds are folded."""
    seeds = default_seeds(spec, min(spec.n, 6))
    mode = SpectralField.unit(spec.basis, 1)
    for a, b in ((2.0, 2.5), (2.5, 2.0)):
        for sign in (1.0, -1.0):
            seeds.append(FieldPair(mode * (a * sign), mode * (b * sign), spec.r))
    for j in range(1, 4):
        mode = SpectralField.unit(spec.basis, j)
        for t in (1.0, 4.0):
            for sign in (1.0, -1.0):
                seeds.append(FieldPair(mode * (sign * t), mode * (sign * t), spec.r))
    return seeds


class TestSweep:
    """newton_sweep runs its seeds as the rows of one stack, and a symmetric
    problem's seed that negates the seed before it is not run; every result
    must be that of newton_solve from the seed alone, bit for bit."""

    # name -> (lengths, n, p, q, r, max_iter); the near-linear runs stall
    # in the line search, the others run out of iterations
    CASES = {
        "1-D": ((math.pi,), 16, 3.0, 3.0, 1.0, 6),
        "1-D near-linear": ((math.pi,), 16, 1.2, 1.2, 1.0, 50),
        "1-D krylov": ((math.pi,), 130, 2.0, 5.0, 1.0, 6),
        "2-D near-linear": ((1.0, 2.5), 24, 1.2, 1.2, 1.0, 50),
        "2-D krylov": ((1.0, 1.3), 130, 2.0, 5.0, 1.0, 6),
        "3-D": ((1.0, 1.3, 2.0), 30, 3.0, 3.0, 1.0, 6),
        "3-D krylov": ((1.0, 1.2, 1.5), 130, 2.0, 5.0, 1.25, 6),
    }

    @staticmethod
    def outcome(result):
        return (
            result.z.vec.tobytes(), repr(result.residual_norm), repr(result.energy),
            result.iterations, result.converged, result.message,
        )

    @classmethod
    def assert_runs_alone(cls, seeds, spec, config, got, forced) -> set:
        """Each result of a sweep against newton_solve's from its seed alone;
        returns the messages.  A mirrored result may differ from the seed's
        own run only in the sign of a zero coefficient, where an exact
        cancellation gives +0.0 on both sides; that happens only on runs
        that fall to the trivial solution, which a hunt drops."""
        from indefsaddle.solve import _negates

        messages = set()
        for i, (seed, result) in enumerate(zip(seeds, got)):
            want = cls.outcome(newton_solve(seed, spec, config))
            messages.add(want[-1])
            have = cls.outcome(result)
            mirrored = not forced and i > 0 and _negates(seed, seeds[i - 1])
            if mirrored and have[0] != want[0]:
                alone = np.frombuffer(want[0])
                assert np.array_equal(result.z.vec, alone)
                assert pair_norm(result.z) < config.separation
                have, want = have[1:], want[1:]
            assert have == want, (i, have[1:], want[1:])
        return messages

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_one_run_per_seed(self, name, forced, monkeypatch):
        """Each result against newton_solve's from its seed alone (see
        assert_runs_alone).  One seed hits a singular Jacobian: its Schur
        solve raises, in the stack as alone, so the stack steps one row at a
        time for that iteration; at p = q that seed's run is diagonal.  There
        the sweep steps diagonal stacks and stacks on the system."""
        from indefsaddle import solve

        lengths, n, p, q, r, max_iter = self.CASES[name]
        forcing = [0.05, -0.02] if forced else None
        spec = ProblemSpec.create(BoxDomain(lengths), n, r, p, q, h=forcing, k=forcing)
        assert (n >= solve._KRYLOV_N) == name.endswith("krylov")
        seeds = _sweep_seeds(spec)
        config = NewtonConfig(max_iter=max_iter)
        # mode 3 at t = 1, of either sign: the Jacobian is even in z
        singular = (seeds[-4].vec, seeds[-3].vec)
        real_schur = solve._schur

        def full(vecs, basis):  # a class problem's rows in the full basis
            if basis == spec.basis:
                return vecs
            _, positions = spec.basis.parity_class(int(basis.parity_codes[0]))
            packed = np.zeros((len(vecs), 2 * spec.n))
            packed[:, np.concatenate([positions, spec.n + positions])] = vecs
            return packed

        hits = []  # whether each singular step was diagonal

        def schur(ev, diagonal=False):
            PL, Q, solve_schur = real_schur(ev, diagonal)
            rows = full(np.atleast_2d(ev.vecs), ev.spec.basis)
            if any(np.array_equal(row, s) for row in rows for s in singular):
                hits.append(diagonal)

                def solve_schur(b):
                    raise np.linalg.LinAlgError("singular")
            return PL, Q, solve_schur

        monkeypatch.setattr(solve, "_schur", schur)
        kinds = set()  # (a stack of several rows, diagonal) of each round's steps
        real_steps = solve._newton_steps

        def newton_steps(rows, known, weights, diagonal=False):
            kinds.add((len(rows) > 1, diagonal))
            return real_steps(rows, known, weights, diagonal)

        monkeypatch.setattr(solve, "_newton_steps", newton_steps)
        got = newton_sweep(seeds, spec, config)
        messages = self.assert_runs_alone(seeds, spec, config, got, forced)
        ending = "line search stalled" if name.endswith("near-linear") else "max_iter reached"
        assert {"", ending, "singular Jacobian"} <= messages
        # both kinds of stack at p = q, and the singular seed's steps diagonal
        assert {(True, False), (True, p == q)} <= kinds
        assert hits and set(hits) == {p == q}

    @pytest.mark.parametrize("p, q", [(3.0, 3.0), (2.0, 5.0)])
    def test_mirror_folding_on_gmres_steps(self, p, q, monkeypatch):
        """A symmetric 1-D hunt's sweep at n = 260, whose two parity classes
        hold 130 modes each, so that every step solves by GMRES: diagonal
        steps at p = q, steps on the system at (2, 5).  Each result, mirrored
        ones included, is that of its seed's own run."""
        from indefsaddle import solve

        spec = ProblemSpec.create(BoxDomain((math.pi,)), 260, 1.0, p, q)
        seeds = default_seeds(spec, 4)
        config = NewtonConfig(max_iter=8)
        kinds = _step_kinds(monkeypatch)
        gmres = []
        real_gmres = solve._gmres

        def counted(op, b, *args):
            gmres.append(b.size)
            return real_gmres(op, b, *args)

        monkeypatch.setattr(solve, "_gmres", counted)
        got = newton_sweep(seeds, spec, config)
        assert set(kinds) == {(130, p == q)} and set(gmres) == {130}
        assert len(gmres) >= len(kinds) // 2
        assert all(solve._negates(b, a) for a, b in zip(seeds[::2], seeds[1::2]))
        assert sum(result.converged for result in got) >= 4
        self.assert_runs_alone(seeds, spec, config, got, False)

    @pytest.mark.parametrize("n", [16, 130])
    def test_overflowing_seed_raises_as_alone(self, n):
        """A seed whose residual norm is not finite raises the ValueError of
        its own run, wherever it stands in the sweep."""
        spec = ProblemSpec.create(BoxDomain((math.pi,)), n, 1.0, 3.0, 3.0)
        mode = SpectralField.unit(spec.basis, 2)
        seeds = _sweep_seeds(spec)
        bad = FieldPair(mode * 1e200, mode * 1e200, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as alone:
                newton_solve(bad, spec)
            for at in (0, 5, len(seeds)):
                with pytest.raises(ValueError) as swept:
                    newton_sweep(seeds[:at] + [bad] + seeds[at:], spec)
                assert str(swept.value) == str(alone.value) == "coefficients must be finite"


class TestParityClasses:
    """Plain runs whose seed and forcing lie in one parity class run on the
    class's problem: the same runs as on the full problem, to roundoff, with
    +0.0 off the class."""

    # name -> (lengths, n, p, q, r, rank of the seed's mode, forcing); the
    # class runs at 1-D n = 260 (class n = 130) and 2-D n = 600 (156) solve
    # their Schur complements by GMRES, and so does the oracle's full run
    # there and at 3-D n = 200 (class n = 35, dense)
    CASES = {
        "1-D odd": ((math.pi,), 32, 3.0, 3.0, 1.0, 1, None),
        "1-D even forced": ((math.pi,), 32, 3.0, 3.0, 1.0, 2, [0.0, 0.05]),
        "1-D krylov": ((math.pi,), 260, 3.0, 3.0, 1.0, 1, None),
        "1-D krylov forced": ((math.pi,), 260, 3.0, 3.0, 1.0, 1, [0.05]),
        "2-D forced": ((1.0, 2.5), 40, 3.0, 2.5, 1.0, 1, [0.05]),
        "2-D odd-even": ((math.pi, math.pi), 30, 3.0, 3.0, 1.0, 2, None),
        "2-D krylov": ((math.pi, math.pi), 600, 3.0, 3.0, 1.0, 1, None),
        "3-D": ((1.0, 1.3, 2.0), 60, 3.0, 3.0, 1.0, 1, None),
        "3-D forced": ((math.pi,) * 3, 200, 3.0, 3.0, 1.0, 1, [0.05]),
        "3-D odd-odd-even": ((1.0, 1.2, 1.5), 40, 2.0, 2.5, 1.25, 2, None),
    }

    @staticmethod
    def spec_and_seed(name):
        lengths, n, p, q, r, rank, forcing = TestParityClasses.CASES[name]
        spec = ProblemSpec.create(BoxDomain(lengths), n, r, p, q, h=forcing, k=forcing)
        return spec, default_seeds(spec, rank)[-2]  # mode `rank`, positive sign

    @staticmethod
    def class_runs(monkeypatch):
        """The size n of each problem that _newton_rows runs on."""
        from indefsaddle import solve

        sizes = []
        real = solve._newton_rows

        def newton_rows(vecs, spec, *args):
            sizes.append(spec.n)
            return real(vecs, spec, *args)

        monkeypatch.setattr(solve, "_newton_rows", newton_rows)
        return sizes

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_the_sequential_oracle_on_the_full_problem(self, name, monkeypatch):
        """Against the sequential Newton of the oracles on the full problem:
        the same outcome and iterations, energies within 1e-14 relative, the
        class's coefficients to roundoff and exact +0.0 off the class; the
        energy and residual norm are the full problem's at the point, bit
        for bit."""
        from indefsaddle import solve

        spec, seed = self.spec_and_seed(name)
        (code,) = solve._parity_codes(seed.vec[None], spec)
        part, positions = spec.basis.parity_class(code)
        sizes = self.class_runs(monkeypatch)
        got = newton_solve(seed, spec)
        want = sequential_newton(seed, spec)
        assert sizes == [part.size] and part.size < spec.n
        assert (got.converged, got.iterations, got.message) == (want.converged, want.iterations, want.message)
        assert got.converged
        assert abs(got.energy - want.energy) <= 1e-14 * abs(want.energy)
        assert got.energy == energy(got.z, spec)
        assert got.residual_norm == residual(got.z, spec).norm() <= 1e-10
        off = np.tile(spec.basis.parity_codes != code, 2)
        assert not got.z.vec[off].any() and not np.signbit(got.z.vec[off]).any()
        assert np.abs(got.z.vec - want.z.vec).max() <= 1e-12 * np.abs(want.z.vec).max()

    @pytest.mark.parametrize("name", ["1-D odd", "2-D odd-even", "3-D odd-odd-even"])
    def test_mirrored_result_is_the_mirrored_seeds_own_run(self, name):
        """A symmetric sweep runs -seed as seed's mirror; the result is -seed's
        own run bit for bit, +0.0 off the class included."""
        spec, seed = self.spec_and_seed(name)
        first, mirrored = newton_sweep([seed, -seed], spec)
        alone = newton_solve(-seed, spec)
        assert first.converged and mirrored.z.vec.tobytes() == alone.z.vec.tobytes()
        assert (mirrored.residual_norm, mirrored.energy, mirrored.iterations, mirrored.message) == (
            alone.residual_norm, alone.energy, alone.iterations, alone.message
        )

    def test_runs_outside_one_class_use_the_full_problem(self, monkeypatch):
        """Seeds of two classes, forcing outside the seed's class, known
        points, and a grid axis of odd length (oversample 3 at an odd
        largest index) keep a run on the full problem."""
        spec = ProblemSpec.create(BoxDomain((math.pi,)), 33, 1.0, 3.0, 3.0)
        odd, even = (SpectralField.unit(spec.basis, j) for j in (1, 2))
        seed = FieldPair(2.0 * odd, 2.0 * odd, 1.0)
        sizes = self.class_runs(monkeypatch)
        newton_solve(seed, spec)
        newton_solve(FieldPair(2.0 * odd + 0.1 * even, 2.0 * odd, 1.0), spec)
        newton_solve(seed, spec.with_forcing(h=None, k=[0.0, 0.05]))
        newton_solve(seed, spec, known=[spec.zero_pair()])
        coarse = ProblemSpec.create(spec.domain, 33, 1.0, 3.0, 3.0, oversample=3)
        assert grid_shape(coarse.basis, 3) == (99,)
        mode = 2.0 * SpectralField.unit(coarse.basis, 1)
        newton_solve(FieldPair(mode, mode, 1.0), coarse)
        assert sizes == [17, 33, 33, 33, 33]
        # a sweep splits into the classes of its seeds, and the zero seed of
        # a symmetric problem, in none, runs on the full problem
        sizes.clear()
        newton_sweep([seed, FieldPair(2.0 * even, 2.0 * even, 1.0), spec.zero_pair()], spec)
        assert sorted(sizes) == [16, 17, 33]


class TestDiagonal:
    """At p = q with h = k, a plain run from a seed with u = v bitwise is
    diagonal: its evaluations compute u's half once, and its steps solve
    the scalar equation's Jacobian L - P (see solve._schur).  The swap
    (u, v) -> (v, u) is then a symmetry, and every discrete solution has
    u = v, so runs off the diagonal converge onto it too."""

    @pytest.mark.parametrize("lengths", [(math.pi,), (1.0, 2.5), (1.0, 1.3, 2.0)])
    @pytest.mark.parametrize("n, rows", [(7, None), (33, None), (33, 3), (130, 2)])
    def test_evaluation_reuses_u_bit_for_bit(self, lengths, n, rows):
        """The reused half against both halves computed apart, by the
        formulas of Evaluation, bit for bit."""
        forcing = [0.05, -0.02]
        spec = ProblemSpec.create(BoxDomain(lengths), n, 1.0, 2.5, 2.5, h=forcing, k=forcing)
        rng = np.random.default_rng(n)
        u = rng.standard_normal(n if rows is None else (rows, n)) * spec.basis.eigenvalues**-0.5
        ev = Evaluation(np.concatenate([u, u], axis=-1), spec)
        assert ev.diagonal and ev.v_vals is ev.u_vals
        tables, e = spec.tables, spec.p
        vals = [tables.evaluate(half) for half in (ev.u, ev.v)]
        weights = [np.abs(x) ** (e - 1.0) for x in vals]
        pairings = [tables.pairings(w * x) for w, x in zip(weights, vals)]
        powers = [tables.integrate(np.abs(x) ** (e + 1.0)) / (e + 1.0) for x in vals]
        lam = spec.basis.eigenvalues
        grad = (lam * ev.v - pairings[0] - spec.k.coeffs, lam * ev.u - pairings[1] - spec.h.coeffs)
        nonlinear = np.asarray(ev.terms[0])
        assert nonlinear.tobytes() == np.asarray(powers[0] + powers[1]).tobytes()
        for got, want in zip((*ev.weights, *ev.pairings), (*weights, *pairings)):
            assert got.tobytes() == want.tobytes()
        g = ev.gradient()
        assert g.du.tobytes() == grad[0].tobytes() and g.dv.tobytes() == grad[1].tobytes()
        # a point off the diagonal, or p != q, computes both halves
        assert not Evaluation(np.concatenate([u, 2.0 * u], axis=-1), spec).diagonal
        pq = ProblemSpec.create(BoxDomain(lengths), n, 1.0, 2.5, 3.0)
        assert not Evaluation(np.concatenate([u, u], axis=-1), pq).diagonal

    @pytest.mark.parametrize(
        "lengths, n, p",
        [
            ((math.pi,), 32, 3.0), ((math.pi,), 40, 3.0), ((math.pi,), 48, 3.0),
            ((math.pi,), 64, 3.0), ((1.0, 1.3), 130, 3.0), ((math.pi,), 64, 1.5),
            ((2.0, 1.0, 1.5), 40, 2.2),
        ],
    )
    def test_seeds_at_p_equal_q_lie_on_the_diagonal(self, lengths, n, p):
        """At p = q the one-mode amplitudes are equal bitwise, s_j = t_j, so
        the default schedule's seeds have u = v bitwise."""
        from indefsaddle.solve import _galerkin_amplitudes

        spec = ProblemSpec.create(BoxDomain(lengths), n, 1.0, p, p)
        for t, s in _galerkin_amplitudes(spec, 6):
            assert t == s
        for seed in default_seeds(spec, 6):
            assert seed.u.coeffs.tobytes() == seed.v.coeffs.tobytes()

    @pytest.mark.parametrize("lengths, n", [((math.pi,), 32), ((1.0, 2.5), 40), ((math.pi,), 130)])
    def test_step_matches_dense_solves(self, lengths, n, monkeypatch):
        """The diagonal step [d | d], (L - P) d = r_u, against a dense solve
        of the assembled 2n x 2n Jacobian: to roundoff densely, and by GMRES
        (from n = 130, and below it with the crossover moved to 0) to its
        tolerance times the condition number of I - L^-1 P.  Both halves of
        the step are the same bits."""
        from indefsaddle import solve

        forcing = [0.05, -0.02]
        spec = ProblemSpec.create(BoxDomain(lengths), n, 1.0, 3.0, 3.0, h=forcing, k=forcing)
        lam = spec.basis.eigenvalues
        rng = np.random.default_rng(n)
        crossovers = [solve._KRYLOV_N] + ([0] if n < solve._KRYLOV_N else [])
        for amplitude in (0.3, 3.0):
            u = amplitude * lam**-0.5 * rng.standard_normal(n)
            ev = Evaluation(np.concatenate([u, u]), spec)
            g = ev.gradient()
            r = np.concatenate([g.du, g.dv])
            assert ev.diagonal and g.du.tobytes() == g.dv.tobytes()
            J = assembled_jacobian(ev.z, spec)
            want = np.linalg.solve(J, -r)
            scaled = np.eye(n) + J[:n, :n] / lam  # I - L^-1 P, as J's corner is -P
            for crossover in crossovers:
                monkeypatch.setattr(solve, "_KRYLOV_N", crossover)
                tol = 1e-10 * np.linalg.cond(scaled) if n >= crossover else 1e-12
                step = solve._newton_step(ev, r, diagonal=True)
                assert step[:n].tobytes() == step[n:].tobytes()
                assert np.linalg.norm(step - want) <= tol * np.linalg.norm(want)

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_runs_off_the_diagonal_converge_onto_it(self, dims, monkeypatch):
        """Random p = q, h = k problems, from the default seeds with v scaled
        off u: the runs stay on the system, and every converged one ends
        with u = v to roundoff."""
        rng = np.random.default_rng(31 + dims)
        kinds = _step_kinds(monkeypatch)
        converged = 0
        for _ in range(3):
            lengths = tuple(rng.uniform(1.0, 3.0, dims).tolist())
            p = float(rng.uniform(1.5, 3.5))
            n = int(rng.integers(12, 60))
            forcing = rng.uniform(-0.05, 0.05, 3) if rng.random() < 0.5 else None
            spec = ProblemSpec.create(BoxDomain(lengths), n, 1.0, p, p, h=forcing, k=forcing)
            seeds = [
                FieldPair(z.u, z.v * float(rng.uniform(0.7, 1.4)), spec.r)
                for z in default_seeds(spec, 3) if z.vec.any()
            ]
            for result in newton_sweep(seeds, spec):
                if result.converged:
                    converged += 1
                    u, v = result.z.u.coeffs, result.z.v.coeffs
                    assert np.abs(u - v).max() <= 1e-12 * np.abs(u).max()
        assert converged >= 6
        assert kinds and not any(diagonal for _, diagonal in kinds)

    # name -> (lengths, n, p, forcing, seed's modes and amplitudes, or None
    # for mode 1's default seed); seeds of two parity classes, or forcing of
    # two, run on the full problem, and the one-mode seeds on their class:
    # densely below _KRYLOV_N (n or class size) and by GMRES from it on
    CASES = {
        "1-D dense": ((math.pi,), 32, 3.0, None, ((1, 2.0), (2, 0.2))),
        "1-D forced": ((math.pi,), 40, 2.5, [0.05, -0.02], ((1, 2.0),)),
        "1-D krylov": ((math.pi,), 260, 3.0, None, ((1, 2.0), (2, 0.2))),
        "1-D class krylov": ((math.pi,), 260, 3.0, [0.05], ((1, 2.0),)),
        "2-D forced": ((1.0, 2.5), 40, 3.0, [0.05, -0.02], ((1, 3.0),)),
        "2-D krylov": ((math.pi, math.pi), 200, 3.0, None, ((1, 3.0), (2, 0.1))),
        "3-D class": ((1.0, 1.3, 2.0), 60, 3.0, None, None),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_the_sequential_oracle_on_the_full_system(self, name, monkeypatch):
        """Against the sequential Newton of the oracles on the full system:
        the same outcome and iterations, energies within 1e-14 relative and
        coefficients to roundoff; the result has u = v bitwise, and its
        energy and residual norm are the full problem's at the point."""
        from indefsaddle import solve

        lengths, n, p, forcing, modes = self.CASES[name]
        spec = ProblemSpec.create(BoxDomain(lengths), n, 1.0, p, p, h=forcing, k=forcing)
        seed = default_seeds(spec, 1)[-2]
        if modes is not None:
            field = sum(
                (a * SpectralField.unit(spec.basis, j) for j, a in modes[1:]),
                modes[0][1] * SpectralField.unit(spec.basis, modes[0][0]),
            )
            seed = FieldPair(field, field, 1.0)
        kinds = _step_kinds(monkeypatch)
        got = newton_solve(seed, spec)
        monkeypatch.undo()
        want = sequential_newton(seed, spec)
        one_class = (modes is None or len(modes) == 1) and (forcing is None or len(forcing) == 1)
        size = kinds[0][0] if one_class else spec.n
        assert (size < spec.n) == one_class
        assert kinds and set(kinds) == {(size, True)}
        assert (size >= solve._KRYLOV_N) == ("krylov" in name)
        assert (got.converged, got.iterations, got.message) == (want.converged, want.iterations, want.message)
        assert got.converged
        assert got.z.u.coeffs.tobytes() == got.z.v.coeffs.tobytes()
        assert abs(got.energy - want.energy) <= 1e-14 * abs(want.energy)
        assert got.energy == energy(got.z, spec)
        assert got.residual_norm == residual(got.z, spec).norm() <= 1e-10
        assert np.abs(got.z.vec - want.z.vec).max() <= 1e-12 * np.abs(want.z.vec).max()


class TestNewtonStep:
    """Newton's step by block elimination, with deflation's rank-one term by
    Sherman-Morrison, against dense solves of the assembled Jacobian; from
    n = _KRYLOV_N on, the Schur complement is solved by GMRES."""

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize(
        "lengths, n",
        [
            ((math.pi,), 32), ((1.0, 2.5), 40), ((1.0, 1.3, 2.0), 30),
            ((math.pi,), 130), ((1.0, 2.5), 140), ((1.0, 1.3, 2.0), 150),
        ],
    )
    def test_matches_dense_solves(self, lengths, n, forced, monkeypatch):
        """The dense path to roundoff; GMRES, above the crossover and below
        it with the crossover moved to 0, to its relative residual 1e-10
        times the condition number of L^-1 S = I - L^-1 P L^-1 Q, which
        bounds the relative error of the Schur solve."""
        from indefsaddle import solve
        from indefsaddle.space import _weights

        forcing = [0.05, -0.02] if forced else None
        spec = ProblemSpec.create(BoxDomain(lengths), n, 1.0, 3.0, 2.5, h=forcing, k=forcing)
        weights = _weights(spec.basis, spec.r)
        lam = spec.basis.eigenvalues
        smooth = np.tile(lam ** -0.5, 2)
        rng = np.random.default_rng(n + forced)
        assert (n < solve._KRYLOV_N) == (n <= 40)  # the cases straddle the crossover
        crossovers = [solve._KRYLOV_N] + ([0] if n < solve._KRYLOV_N else [])
        for amplitude in (0.3, 3.0):
            vec = amplitude * smooth * rng.standard_normal(2 * n)
            ev = Evaluation(vec, spec)
            g = ev.gradient()
            r, J = np.concatenate([g.du, g.dv]), assembled_jacobian(ev.z, spec)
            # near enough that the factor m is 10-25 and a.w is of its size
            known = vec + 0.1 * smooth * rng.standard_normal((3, 2 * n))
            d2 = solve._distances(vec[None], known, weights)[0]
            m = solve._deflation_factor(d2)
            a = solve._deflation_gradient(vec, known, weights, d2, m)
            plain = np.linalg.solve(J, -r)
            deflated = np.linalg.solve(m * J + np.outer(r, a), -m * r)
            # J's diagonal blocks are -P and -Q
            scaled_schur = np.eye(n) - (J[:n, :n] / lam) @ (J[n:, n:] / lam)
            for crossover in crossovers:
                monkeypatch.setattr(solve, "_KRYLOV_N", crossover)
                tol = 1e-10 * np.linalg.cond(scaled_schur) if n >= crossover else 1e-12
                step = solve._newton_step(ev, r)
                assert np.linalg.norm(step - plain) <= tol * np.linalg.norm(plain)
                step = solve._newton_step(ev, r, m, a)
                assert np.linalg.norm(step - deflated) <= tol * np.linalg.norm(deflated)

    @pytest.mark.parametrize("lengths", [(math.pi,), (1.0, 2.5), (1.0, 1.3, 2.0)])
    def test_grid_products_match_the_dense_products(self, lengths, monkeypatch):
        """The Newton operator's products P L^-1 x and Q x on the grid (the
        crossover moved to 0) against those of its Galerkin matrices."""
        from indefsaddle import solve

        spec = ProblemSpec.create(BoxDomain(lengths), 24, 1.0, 3.0, 2.5, h=[0.05])
        rng = np.random.default_rng(len(lengths))
        ev = Evaluation(np.tile(spec.basis.eigenvalues ** -0.5, 2) * rng.standard_normal(48), spec)
        x_u, x_v = rng.standard_normal((2, 24))
        PL, Q, _ = solve._schur(ev)
        want = PL(x_u), Q(x_v)
        monkeypatch.setattr(solve, "_KRYLOV_N", 0)
        PL, Q, _ = solve._schur(ev)
        for got, dense in zip((PL(x_u), Q(x_v)), want):
            assert np.linalg.norm(got - dense) <= 1e-13 * np.linalg.norm(dense)

    @pytest.mark.parametrize("p, q", [(3.0, 3.0), (2.0, 5.0)])
    @pytest.mark.parametrize(
        "lengths, n",
        [
            ((math.pi,), 32), ((math.pi,), 130), ((math.pi, 1.3), 40),
            ((math.pi, 1.3), 140), ((1.0, 1.2, 1.5), 150),
        ],
    )
    def test_compact_part_has_the_exact_eigenvalue_pq(self, lengths, n, p, q, monkeypatch):
        """At an unforced solution (u, v), Q v = p L u and P u = q L v hold in
        the quadrature, so X = L^-1 P L^-1 Q, the compact part of L^-1 S, has
        X v = pq v: for each record of a hunt, on both sides of the
        crossover."""
        from indefsaddle import solve

        r = 1.25 if len(lengths) == 3 and p != q else 1.0  # inside the 3-D window
        spec = ProblemSpec.create(BoxDomain(lengths), n, r, p, q)
        lam = spec.basis.eigenvalues
        records = find_branch(spec).records
        assert records
        for rec in records:
            v = rec.z.v.coeffs
            for crossover in (0, 10**6):  # on the grid, then as matrices
                monkeypatch.setattr(solve, "_KRYLOV_N", crossover)
                PL, Q, _ = solve._schur(Evaluation.at(rec.z, spec))
                Xv = PL(Q(v)) / lam
                assert np.linalg.norm(Xv - p * q * v) <= 1e-9 * np.linalg.norm(p * q * v)

    def test_krylov_newton_matches_the_dense_run(self, monkeypatch):
        """Above the crossover Newton takes the dense run's iterations and
        reaches its solution, and builds no Galerkin block or gather index.
        The seed's 0.1 phi_2 puts it in two parity classes, so it runs on the
        full problem of n = 200."""
        from indefsaddle import solve
        from indefsaddle.basis import GridTables

        spec = ProblemSpec.create(BoxDomain((math.pi, math.pi)), 200, 1.0, 3.0, 3.0)
        assert spec.n >= solve._KRYLOV_N
        mode = 3.0 * SpectralField.unit(spec.basis, 1) + 0.1 * SpectralField.unit(spec.basis, 2)
        seed = FieldPair(mode, mode, 1.0)
        with monkeypatch.context() as patch:
            patch.setattr(solve, "_KRYLOV_N", spec.n + 1)
            dense = newton_solve(seed, spec)

        def no_blocks(self, values):
            raise AssertionError("a Galerkin block was built")

        fresh = ProblemSpec.create(spec.domain, spec.n, 1.0, 3.0, 3.0)
        monkeypatch.setattr(GridTables, "galerkin", no_blocks)
        krylov = newton_solve(seed, fresh)
        assert "gathers" not in vars(fresh.tables)
        assert dense.converged and krylov.converged
        assert krylov.iterations == dense.iterations
        gap = np.linalg.norm(krylov.z.vec - dense.z.vec)
        assert gap <= 1e-9 * np.linalg.norm(dense.z.vec)

    @pytest.mark.parametrize("deflated", [False, True])
    def test_unconverged_gmres_is_a_singular_jacobian(self, monkeypatch, deflated):
        from indefsaddle import solve

        def unconverged(op, b, rtol=1e-10):
            raise np.linalg.LinAlgError("GMRES did not reach its tolerance")

        monkeypatch.setattr(solve, "_gmres", unconverged)
        spec = ProblemSpec.create(BoxDomain((math.pi,)), solve._KRYLOV_N, 1.0, 3.0, 3.0)
        # modes 1 and 2, of two parity classes: the run is on the full problem
        mode = 2.0 * SpectralField.unit(spec.basis, 1) + 0.1 * SpectralField.unit(spec.basis, 2)
        known = [spec.zero_pair()] if deflated else None
        result = newton_solve(FieldPair(mode, mode, 1.0), spec, known=known)
        assert not result.converged and result.iterations == 0
        assert result.message == ("singular deflated Jacobian" if deflated else "singular Jacobian")

    @pytest.mark.parametrize("deflated", [False, True])
    def test_singular_schur_complement_is_reported(self, cubic_spec, monkeypatch, deflated):
        """A LinAlgError from the one linear solve, of an n x n matrix, ends
        the run before its first step.  The seed spans two parity classes, so
        the run is on the full problem."""
        shapes = []

        def singular(A, b):
            shapes.append(A.shape)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        basis = cubic_spec.basis
        mode = 2.0 * SpectralField.unit(basis, 1) + 0.1 * SpectralField.unit(basis, 2)
        known = [cubic_spec.zero_pair()] if deflated else None
        result = newton_solve(FieldPair(mode, mode, 1.0), cubic_spec, known=known)
        assert shapes == [(cubic_spec.n, cubic_spec.n)]
        assert not result.converged and result.iterations == 0
        assert result.message == ("singular deflated Jacobian" if deflated else "singular Jacobian")

    def test_vanishing_sherman_morrison_denominator_is_reported(self, cubic_spec, monkeypatch):
        """m + a.w = 0, with w = J^-1 r, makes the deflated Jacobian singular."""
        from indefsaddle import solve

        mode = SpectralField.unit(cubic_spec.basis, 1)
        seed = FieldPair(2.0 * mode, 2.0 * mode, 1.0)
        ev = Evaluation.at(seed, cubic_spec)
        g = ev.gradient()
        r = np.concatenate([g.du, g.dv])
        w = -solve._newton_step(ev, r)
        j = int(np.argmin(w))
        assert w[j] < 0.0
        a = np.zeros_like(w)
        a[j] = 1.0
        with pytest.raises(np.linalg.LinAlgError):
            solve._newton_step(ev, r, -w[j], a)  # m + a.w = -w_j + w_j = 0
        a[j] = math.inf  # m + a.w = -inf
        with pytest.raises(np.linalg.LinAlgError):
            solve._newton_step(ev, r, 1.0, a)

        def cancelling(z_vec, known, weights, d2, m):  # a = c e_j with m + c w_j = 0 exactly
            for i in np.flatnonzero(w):
                a = np.zeros_like(w)
                a[i] = -m / w[i]
                if m + float(np.dot(a, w)) == 0.0:
                    return a
            raise AssertionError("no entry of w cancels m exactly")

        monkeypatch.setattr(solve, "_deflation_gradient", cancelling)
        result = newton_solve(seed, cubic_spec, known=[cubic_spec.zero_pair()])
        assert not result.converged and result.iterations == 0
        assert result.message == "singular deflated Jacobian"


class TestGmres:
    """The GMRES of the Newton step against scipy's, and its failure path."""

    @staticmethod
    def compact_perturbation(size, seed):
        """I - K, with K nonsymmetric and its singular values decaying."""
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.standard_normal((size, size)))
        V, _ = np.linalg.qr(rng.standard_normal((size, size)))
        return np.eye(size) - (U * (0.5 ** np.arange(size))) @ V.T, rng.standard_normal(size)

    @pytest.mark.parametrize("size, seed", [(20, 0), (60, 1), (150, 2)])
    def test_matches_scipy(self, size, seed):
        from scipy.sparse.linalg import gmres

        from indefsaddle.solve import _gmres

        A, b = self.compact_perturbation(size, seed)
        ours, theirs = [], []
        x = _gmres(lambda v: ours.append(1) or A @ v, b)
        expected, info = gmres(
            A, b, rtol=1e-10, atol=0.0, restart=size, maxiter=1,
            callback=theirs.append, callback_type="pr_norm",
        )
        assert info == 0
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
        assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)
        assert len(ours) == len(theirs) < size  # the same Krylov spaces

    def test_zero_right_hand_side_needs_no_iteration(self):
        from indefsaddle.solve import _gmres

        def never(v):
            raise AssertionError("the operator was applied")

        assert not _gmres(never, np.zeros(5)).any()

    def test_unconverged_raises_after_size_iterations(self):
        from indefsaddle.solve import _gmres

        A, b = self.compact_perturbation(30, 3)
        calls = []
        with pytest.raises(np.linalg.LinAlgError):
            _gmres(lambda v: calls.append(1) or A @ v, b, rtol=0.0)
        assert len(calls) == 30

    def test_singular_operator_raises(self):
        """b has a component outside the range of the operator."""
        from indefsaddle.solve import _gmres

        scale = np.ones(10)
        scale[-1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _gmres(lambda v: scale * v, np.ones(10))

    def test_non_finite_operator_raises(self):
        from indefsaddle.solve import _gmres

        with pytest.raises(np.linalg.LinAlgError):
            _gmres(lambda v: np.full_like(v, np.nan), np.ones(10))


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

    def test_stalled_stage_reports_the_last_reached(self, interval, newton_config):
        spec = ProblemSpec.create(interval, n=16, r=1.0, p=3.0, q=3.0)
        mode = SpectralField.unit(spec.basis, 1)
        z1 = newton_solve(FieldPair(2 * mode, 2 * mode, 1.0), spec, newton_config).z
        target = spec.with_forcing(h=[500.0], k=[500.0])
        result = continuation(z1, target, steps=2, config=newton_config)
        assert not result.converged and result.reached == 0.5
        assert result.message == "Newton failed at t=1.0: line search stalled"

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
        brackets = estimate_levels(cubic_spec, k_max=5)
        uppers = [b.upper for b in brackets]
        assert uppers == sorted(uppers)
        for b in brackets:
            assert b.upper <= b.ceiling
            assert b.max_pointwise_excess <= 1e-12
            assert b.radius > 0.0

    @pytest.mark.parametrize("n, levels", [(4, 4), (8, 5)])
    def test_default_k_max_is_five_or_n(self, n, levels):
        spec = ProblemSpec.create(BoxDomain((math.pi,)), n, 1.0, 3.0, 3.0)
        assert [b.k for b in estimate_levels(spec)] == list(range(1, levels + 1))

    @pytest.mark.parametrize("p, q, message", [
        # the lower curve's powers overflow at its refine
        (1e300, 1e300, "lower growth curve: its powers leave the float range"),
        (3.0, 200.0, "level bracket at k=1: upper is not finite (-inf)"),  # the ray points' energies do
    ])
    def test_float_range_errors_come_without_warnings(self, p, q, message):
        """Past the float range the library's level path raises its
        ValueError, and no numpy RuntimeWarning comes before it; at (3, 200)
        the lower curve alone is finite."""
        from indefsaddle.solve import lower_growth_constant

        spec = ProblemSpec.create(BoxDomain((math.pi,)), 8, 1.0, p, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                estimate_levels(spec)
            assert str(raised.value) == message
            if p < 1e300:
                assert math.isfinite(lower_growth_constant(spec))
            else:
                with pytest.raises(ValueError, match=f"^{message}$"):
                    lower_growth_constant(spec)

    # `upper` of the brackets when each level also drew 200 random samples
    # (seed 0), where the fixed points reach J >= 0; no sample raised it
    # there, and on the rest of the sweep `upper` was below 0
    DRAWN_UPPER = {
        (1, 3.0, 3.0, 0.8): [1.0216312047318368, 13.610101054907693, 55.5431989636466],
        (1, 3.0, 3.0, 1.0): [1.0216312047318368, 16.34609927570939, 82.75212758327876],
        (1, 3.0, 3.0, 1.2): [1.0216312047318368, 13.610101054907695, 55.543198963646574],
        (1, 2.5, 3.5, 0.8): [0.9916801687585364] * 3,
        (1, 2.5, 3.5, 1.0): [0.9916801687585364] * 3,
        (1, 2.5, 3.5, 1.2): [0.9916801687585364] * 3,
        (2, 3.0, 3.0, 0.8): [14.879256234668638, 32.33943465231956, 32.33943465231956],
        (2, 3.0, 3.0, 1.0): [15.602652955920668, 54.28125446048844, 153.3266898712657],
        (2, 3.0, 3.0, 1.2): [14.879256234668643, 32.33943465231957, 32.33943465231957],
    }

    @pytest.mark.parametrize("r", [0.8, 1.0, 1.2])
    @pytest.mark.parametrize("p, q", [(3.0, 3.0), (2.0, 5.0), (2.5, 3.5)])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_upper_at_least_zero(self, dim, p, q, r):
        """z = 0 lies in every level ball and J(0) = 0, so `upper` is at
        least 0.  Where the fixed points reach J >= 0 it keeps the value of
        the brackets that also drew random samples, bit for bit; elsewhere
        it is 0.  The boxes are 1-D (0, pi), n = 16 and 2-D pi x 2, n = 20."""
        lengths, n = {1: ((math.pi,), 16), 2: ((math.pi, 2.0), 20)}[dim]
        spec = ProblemSpec.create(BoxDomain(lengths), n=n, r=r, p=p, q=q)
        uppers = [b.upper for b in estimate_levels(spec, k_max=3)]
        assert all(upper >= 0.0 for upper in uppers)
        assert uppers == self.DRAWN_UPPER.get((dim, p, q, r), [0.0] * 3)

    def test_sample_energies_beyond_the_overflow_of_the_squared_energy(self):
        # at 2-D p = 1.5, q = 8 the level radii reach 1e24, and the energies
        # of the ray points pass 1.34e154, where the square in the cutoff
        # scale overflows
        from indefsaddle.region import PQPoint, optimal_r

        r = optimal_r(PQPoint(1.5, 8.0, 2)).r_star
        spec = ProblemSpec.create(BoxDomain((1.0, 1.3)), n=40, r=r, p=1.5, q=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            brackets = estimate_levels(spec, k_max=5)
        assert [b.k for b in brackets] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("p, q", [(120.0, 3.0), (3.0, 200.0)])
    def test_lower_curve_powers_past_the_float_range(self, p, q):
        """A power of the lower curve's log grid that leaves the float range
        reads numpy's inf, quietly (the level path runs under np.errstate),
        and not Python's OverflowError; the constant is the scalar curve's,
        bit for bit."""
        from oracles import lower_growth_constant_scalar

        from indefsaddle.solve import lower_growth_constant

        spec = ProblemSpec.create(BoxDomain((math.pi,)), 16, 1.0, p, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma = lower_growth_constant(spec)
        assert 0.0 < gamma < math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert gamma == lower_growth_constant_scalar(spec)

    @pytest.mark.parametrize(
        "lengths, n, r, p, q, forcing",
        [
            ((math.pi,), 32, 1.0, 3.0, 3.0, None),
            ((math.pi,), 32, 1.0, 3.0, 3.0, 0.05),
            ((math.pi,), 32, 0.8, 3.0, 3.0, None),
            ((math.pi,), 32, 1.0, 2.0, 5.0, None),
            ((1.0,), 8, 4.0 / 3.0, 2.0, 5.0, None),
            ((math.pi, 2.0), 24, 0.8, 3.0, 2.5, 0.03),
            ((math.pi, math.pi), 64, 1.0, 3.0, 3.0, 0.045),
            ((1.0, 1.2, 1.5), 20, 1.2, 1.5, 2.0, None),
        ],
    )
    def test_lower_curve_matches_scalar_scan(self, lengths, n, r, p, q, forcing):
        """The grid scan in numpy finds the maximum that g finds one grid
        point at a time in Python floats, so the constant keeps its bits,
        though numpy's powers differ from Python's in the last bit at some
        points."""
        from oracles import lower_growth_constant_scalar

        from indefsaddle.solve import lower_growth_constant

        spec = ProblemSpec.create(BoxDomain(lengths), n, r, p, q)
        if forcing is not None:
            spec = spec.with_forcing(h=[forcing], k=[forcing])
        gamma = lower_growth_constant(spec)
        assert 0.0 < gamma and gamma == lower_growth_constant_scalar(spec)

    def test_lower_curve_argmax_skips_nan(self, monkeypatch):
        """A q constant of 0 (log -inf) at q = 200 makes 0 * inf = NaN past
        the float range of y^((q+1)/2), from y = x / x_s of about 1.2e3 on;
        those grid points never take the maximum, which lies at y of about
        0.5, so the refine stays where the powers are finite."""
        from oracles import lower_growth_constant_scalar

        from indefsaddle import solve

        spec = ProblemSpec.create(BoxDomain((math.pi,)), 16, 1.0, 3.0, 200.0)
        real = solve._gn_log_constant
        monkeypatch.setattr(
            solve, "_gn_log_constant", lambda dim, e, order: -math.inf if e == 200.0 else real(dim, e, order)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            gamma = solve.lower_growth_constant(spec)
            assert 0.0 < gamma < math.inf
            assert gamma == lower_growth_constant_scalar(spec)

    @pytest.mark.parametrize(
        "r, p, q, forcing, want",
        [
            (0.8, 3.0, 3.0, 0.05, [
                (1, 0.40800974417502167, 0.8886971659139233, 5.0132565492620005,
                 13.06769626928537, -0.36121626191384715),
                (2, 1.874720487826434, 13.610101054907693, 26.460126701940933,
                 352.71516521157787, -1.0664458223276598),
                (3, 4.574433257850931, 55.5431989636466, 70.01819988186983,
                 2458.2759773369253, -8.930724146477312),
            ]),
            (1.0, 2.0, 5.0, None, [
                (1, 0.8293226523491622, 0.0, 59.21762640653614,
                 1753.3636386120431, -55816.781282156044),
                (2, 3.317290609396649, 0.0, 3789.9280900183117,
                 7181777.463754924, -55816.781282156044),
                (3, 7.463903871142461, 0.0, 43169.649650364816,
                 931809325.4676216, -55816.781282156044),
            ]),
        ],
    )
    def test_brackets_with_two_problems_per_stage_are_pinned(self, r, p, q, forcing, want):
        """Only at p = q with r = 1 do the two halves share their constants.
        At p = q with r = 0.8 (the q half of order 0.8 takes Lieb's constant,
        the p half of order 1.2 the soliton's) and at (2, 5) they differ;
        the 1-D n = 32 brackets (k_max 3) are pinned."""
        spec = ProblemSpec.create(BoxDomain((math.pi,)), n=32, r=r, p=p, q=q)
        if forcing is not None:
            spec = spec.with_forcing(h=[forcing], k=[forcing])
        got = estimate_levels(spec, k_max=3)
        assert [tuple(map(repr, b)) for b in got] == [tuple(map(repr, b)) for b in want]

    @pytest.mark.parametrize("scale", [1e-80, 1e-40, 1e40, 1e100, 1e150])
    def test_rescaled_boxes_are_dilations(self, scale):
        """On the box of side pi s, solutions are dilations of those on
        (0, pi): levels, energies and the lower curve scale by s^(N-2-a-b)
        and radii by its square root, a = 2(p+1)/(pq-1), b = 2(q+1)/(pq-1)
        (s^-3 and s^-1.5 at N = 1, p = q = 3).  The Gagliardo-Nirenberg
        constants do not depend on the box, the Hölder bounds c_k are closed
        forms in logs, and the lower curve is formed in logs, so gamma
        follows to 1e-10 wherever s^-3 gamma is a normal float, c_k by s^3 to
        roundoff, and the brackets run to the end with radii that follow
        too, the ray point energies of s = 1e-80 (about 1e240) integrated past
        the overflow of their grid powers; at s = 1e150 the levels (about
        1e-450) underflow to 0."""
        from indefsaddle import solve

        def spec(length):
            return ProblemSpec.create(BoxDomain((length,)), 8, 1.0, 3.0, 3.0)

        base, scaled = spec(math.pi), spec(math.pi * scale)
        gamma = solve.lower_growth_constant(base)
        want = gamma * scale**-3.0
        got = solve.lower_growth_constant(scaled)
        if want > 1e-300:
            assert got == pytest.approx(want, rel=1e-10)
        else:
            assert 0.0 <= got < 1e-300
        for log_c, log_base in zip(solve._sphere_log_bounds(scaled, 5), solve._sphere_log_bounds(base, 5)):
            # |Omega|^-1 lambda_k^-2 / 4 scales by s^3, and R_k = 2 (2 c_k)^-1/2 by s^-1.5
            assert log_c == pytest.approx(log_base + 3.0 * math.log(scale), abs=1e-15 * abs(log_c))
        brackets = estimate_levels(scaled)
        for b, a in zip(brackets, estimate_levels(base)):
            assert all(math.isfinite(x) for x in b)
            assert b.radius == pytest.approx(a.radius * scale**-1.5, rel=1e-10)
            if want > 1e-300:
                assert b.lower == pytest.approx(a.lower * scale**-3.0, rel=1e-10)

    def test_lower_curve_exponent_exact(self, cubic_spec):
        brackets = estimate_levels(cubic_spec, k_max=5)
        lowers = np.array([b.lower for b in brackets])
        assert np.all(lowers > 0.0)
        ks = np.arange(1, 6, dtype=float)
        slope = np.polyfit(np.log(ks), np.log(lowers), 1)[0]
        # alpha = min(q1, p1) = 1.5 at r = 1, N = 1, p = q = 3
        assert slope == pytest.approx(3.0, abs=1e-10)

    def test_computed_energies_below_top_bracket(self, cubic_spec, newton_config):
        branch = find_branch(cubic_spec, count=3, config=newton_config)
        brackets = estimate_levels(cubic_spec, k_max=5)
        top = brackets[-1].upper
        for rec in branch.records:
            assert rec.energy < top

    def test_lower_below_upper_where_meaningful(self, cubic_spec):
        brackets = estimate_levels(cubic_spec, k_max=5)
        for b in brackets:
            assert b.lower <= b.upper

    def test_per_index_bracket_report(self, cubic_spec, newton_config, capsys):
        # index assignment of computed solutions is heuristic (sorted order),
        # so per-index violations are flagged in the output, not asserted
        branch = find_branch(cubic_spec, count=3, config=newton_config)
        brackets = estimate_levels(cubic_spec, k_max=3)
        flagged = [
            (rec.energy, b.k, b.upper)
            for rec, b in zip(branch.records, brackets)
            if rec.energy > b.upper
        ]
        print(f"per-index bracket comparison: {len(flagged)} flagged of 3")
        for e, k, upper in flagged:
            print(f"  energy {e:.4f} above upper {upper:.4f} at index {k}")


class TestSampledLevels:
    """estimate_levels evaluates each level's points as stacks; its brackets
    are those of building and evaluating the points one at a time."""

    @staticmethod
    def spec(lengths, n, forced):
        spec = ProblemSpec.create(BoxDomain(lengths), n=n, r=0.9, p=3.0, q=2.5)
        return spec.with_forcing(h=[0.05], k=[0.03, 0.02]) if forced else spec

    @pytest.mark.parametrize("rows", [0, 1, 25])
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("lengths, n", [((math.pi,), 16), ((math.pi, 2.0), 20)])
    def test_matches_point_by_point_oracle(self, lengths, n, forced, rows, monkeypatch):
        """Whatever the stack size: a stack of `rows` grids of values, where
        0 values round up to one row per stack."""
        spec = self.spec(lengths, n, forced)
        energy_module = importlib.import_module("indefsaddle.energy")
        monkeypatch.setattr(energy_module, "_STACK_VALUES", rows * spec.tables.points)
        got = estimate_levels(spec, k_max=3)
        assert list(map(repr, got)) == list(map(repr, sampled_levels(spec, 3)))

    def test_stacks_capped_by_size(self, monkeypatch):
        """The fixed points go in stacks within the stack size."""
        from indefsaddle import solve

        spec = ProblemSpec.create(BoxDomain((math.pi,)), n=16, r=1.0, p=2.0, q=5.0)
        spec = spec.with_forcing(h=[0.05], k=[0.05])
        energy_module = importlib.import_module("indefsaddle.energy")
        monkeypatch.setattr(energy_module, "_STACK_VALUES", 7 * spec.tables.points)
        rows = []
        real = solve.Evaluation

        def evaluation(vecs, spec):
            rows.append(len(vecs))
            return real(vecs, spec)

        monkeypatch.setattr(solve, "Evaluation", evaluation)
        got = estimate_levels(spec, k_max=3)
        # 5 fixed points at k = 1, then 1 + 10 and 1 + 15 in stacks of 7
        assert rows == [5, 7, 4, 7, 7, 2]
        assert list(map(repr, got)) == list(map(repr, sampled_levels(spec, 3)))


class TestCertifiedConstants:
    """The constants behind the level brackets hold for every truncation.
    The Gagliardo-Nirenberg constants of `lower` are sharp whole-space
    constants, which bound the truncated ones from above; the first-order
    ascent (oracles.gn_constant) climbs those from below.  The radii's c_k
    are Hölder bounds, below the sphere minima that the first-order descent
    (oracles.sphere_minimum) reaches from above."""

    PI = math.pi
    BOXES = {1: (PI,), 2: (PI, 2.0), 3: (1.0, 1.2, 1.5)}
    # odd exponents, where the grid quadrature is exact, and others
    EXPONENTS = [(3.0, 3.0), (2.0, 5.0), (2.5, 1.5), (4.0, 2.0), (9.0, 1.5)]

    @pytest.mark.parametrize("e", [1.5, 2.0, 3.0, 5.0, 9.0])
    def test_soliton_closed_form_matches_quadrature(self, e):
        """In 1-D the order-1 constant is the ratio |Q|_{e+1} / (|Q|_2^t
        |Q'|_2^(1-t)) at the soliton Q = c sech^b(x/b), b = 2/(e-1), c^(e-1)
        = (e+1)/2: its three integrals by quadrature, with no Pohozaev
        identity, give the closed form in lgamma to 1e-12."""
        from indefsaddle import solve

        b = 2.0 / (e - 1.0)
        c = ((e + 1.0) / 2.0) ** (1.0 / (e - 1.0))

        def integral(f):  # over the line, where the tail past 80 is below 1e-30
            return 2.0 * quad(f, 0.0, 80.0, epsabs=0.0, epsrel=1e-13, limit=400)[0]

        o = 0.5 - 1.0 / (e + 1.0)
        power = integral(lambda x: (c / math.cosh(x / b) ** b) ** (e + 1.0))
        mass = integral(lambda x: (c / math.cosh(x / b) ** b) ** 2)
        slope = integral(lambda x: (c * math.tanh(x / b) / math.cosh(x / b) ** b) ** 2)
        want = math.log(power) / (e + 1.0) - (1.0 - o) / 2.0 * math.log(mass) - o / 2.0 * math.log(slope)
        got = solve._gn_log_constant(1, e, 1.0)
        assert got == pytest.approx(want, abs=1e-12)
        if e == 3.0:
            assert got == pytest.approx(-0.13732653608351, abs=1e-14)

    @pytest.mark.parametrize("dim, e", [(2, 1.5), (2, 3.0), (3, 3.0), (3, 4.0)])
    def test_radial_ground_state_matches_shooting(self, dim, e):
        """The collocation solve's int Q^2 in 2-D and 3-D is the shooting
        oracle's to 1e-10 relative; at e = 3 the constants are those of a
        Petviashvili iteration independent of the library (ROADMAP item 15)."""
        from oracles import radial_ground_state_mass

        from indefsaddle import solve

        got = solve._radial_log_mass(dim, e)
        assert got == pytest.approx(math.log(radial_ground_state_mass(dim, e)), abs=1e-10)
        if e == 3.0:
            want = {2: -0.4416295711, 3: -0.8001601374}[dim]
            assert solve._gn_log_constant(dim, e, 1.0) == pytest.approx(want, abs=1e-10)

    def test_lieb_constant_at_order_one_is_talentis(self):
        """At 3-D e = 5 the embedding is critical at order 1, and Lieb's
        constant is Talenti's: |w|_6 <= K |grad w|_2, K^2 = (3 pi)^-1
        (4 / sqrt(pi))^(2/3); an order above 1 takes it too."""
        from indefsaddle import solve

        log_k = 0.5 * (-math.log(3.0 * math.pi) + 2.0 / 3.0 * math.log(4.0 / math.sqrt(math.pi)))
        for order in (1.0, 1.2):
            assert solve._gn_log_constant(3, 5.0, order) == pytest.approx(log_k, abs=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [24, 130])  # on both sides of solve._KRYLOV_N
    def test_constants_lie_on_the_certified_side(self, dim, n):
        """Over exponents and r in {0.6, 0.8, 1, 1.2} (those in the r window),
        each half's constant lies at or above the truncated ratio that 60
        first-order steps reach on the grid quadrature, and c_k at or below
        the minima over the sphere of k = 1 and 3 modes that 60 first-order
        steps descend to.  The half with no constant is the 3-D one at
        p = 9, r = 0.6, whose order 1.4 lies above o_min = 1.2 > 1.  In 3-D
        at n = 130 the sweep runs p = q = 3 only."""
        from oracles import gn_constant, sphere_minimum

        from indefsaddle import solve
        from indefsaddle.region import PQPoint, _window, interpolation_exponents

        exponents = self.EXPONENTS[:1] if dim == 3 and n > solve._KRYLOV_N else self.EXPONENTS
        for (p, q), r in itertools.product(exponents, (0.6, 0.8, 1.0, 1.2)):
            lo, hi = map(float, _window(p, q, dim))
            if not lo < r < hi:
                continue
            spec = ProblemSpec.create(BoxDomain(self.BOXES[dim]), n, r, p, q)
            theta, zeta = interpolation_exponents(PQPoint(p, q, dim), r)
            for e, order, t in ((q, r, theta), (p, 2.0 - r, zeta)):
                log_s = solve._gn_log_constant(dim, e, order)
                if log_s is None:
                    assert (dim, e, order) == (3, 9.0, 1.4)
                    continue
                assert gn_constant(spec, e, order, t, 0, 60)[0] <= math.exp(log_s)
            bounds = solve._sphere_log_bounds(spec, 3)
            for k in (1, 3):
                least = min(
                    sphere_minimum(spec, k, e, order, 17 * k, iters=60)[0] / (e + 1.0)
                    for e, order in ((q, r), (p, 2.0 - r))
                )
                assert math.exp(bounds[k - 1]) <= least

    def test_one_mode_bound_is_two_thirds_of_the_mode(self, cubic_spec):
        """At k = 1 the sphere is the two points +-phi_1, whose int
        phi_1^4 / 4 = 3 / (8 pi) on (0, pi) is 1.5 times the bound
        |Omega|^-1 lambda_1^-2 / 4 at p = q = 3."""
        from indefsaddle import solve

        [log_c] = solve._sphere_log_bounds(cubic_spec, 1)
        moment = power_moment(cubic_spec, np.eye(1, cubic_spec.n), 3.0)[0][0]
        assert moment == pytest.approx(1.5 / math.pi, rel=1e-14)
        assert math.exp(log_c) == pytest.approx(moment / 4.0 / 1.5, rel=1e-14)

    def test_3d_half_above_the_critical_exponent_has_no_lower_curve(self, tmp_path):
        """At 3-D (1, 1.2, 1.5), (p, q) = (8, 2), r = 0.6 the p half's order
        1.4 lies above o_min = 7/6 > 1, where no certified constant is
        known: `levels` exits 0 with `lower` 0 at every k, and warns of
        nothing."""
        import csv
        import json

        from indefsaddle.cli import main

        config = tmp_path / "levels.json"
        config.write_text(json.dumps({
            "command": "levels",
            "problem": {"lengths": [1.0, 1.2, 1.5], "n": 20, "p": 8.0, "q": 2.0, "r": 0.6},
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["levels", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        rows = list(csv.DictReader((tmp_path / "out.csv").open()))
        assert [row["k"] for row in rows] == ["1", "2", "3", "4", "5"]
        assert all(float(row["lower"]) == 0.0 for row in rows)


class TestVerifyCritical:
    def test_zero_point_symmetric_problem(self, cubic_spec):
        report = verify_critical(cubic_spec.zero_pair(), cubic_spec)
        assert report.residual_norm == 0.0
        assert report.energy == 0.0
        assert report.bound_ok

    def test_bound_constant_beyond_the_overflow_of_the_squared_energy(self, cubic_spec):
        # at 1e40 phi_1, E^2 overflows: the smallest bound constant is still
        # the nonlinear part over |E|, not nan from a cutoff argument of 0
        mode = SpectralField.unit(cubic_spec.basis, 1)
        z = FieldPair(1e40 * mode, 1e40 * mode, 1.0)
        report = verify_critical(z, cubic_spec)
        nonlinear = Evaluation.at(z, cubic_spec).terms[0]
        assert abs(report.energy) > 1e154
        assert report.min_bound_constant == pytest.approx(nonlinear / abs(report.energy), rel=1e-12)
        assert report.bound_ok and report.cutoff_argument == pytest.approx(0.5)

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
        u = SpectralField(spec.basis, spec.tables.pairings(oracle(xs)))
        z = FieldPair(u, u, 1.0)
        assert energy(z, spec) == pytest.approx(oracle.energy(), rel=1e-7)
        assert oracle.energy() == pytest.approx(GROUND_ENERGY * 16.0, rel=1e-7)


def _power_integral(spec, e, index):
    """int |phi|^e of the eigenfunction with this multi-index, by quadrature,
    one arch of one axis at a time."""
    total = 1.0
    for L, m in zip(spec.domain.lengths, index):
        def f(x):
            return abs(math.sqrt(2.0 / L) * math.sin(m * math.pi * x / L)) ** e
        total *= sum(
            quad(f, k * L / m, (k + 1) * L / m, epsabs=0.0, epsrel=1e-13)[0] for k in range(m)
        )
    return total


def test_default_seed_schedule_structure():
    """A forced schedule starts at the zero pair; then each mode j in turn
    at c (t_j phi_j, s_j phi_j), both signs, where (t_j, s_j) solves the
    one-mode equations lambda_j s = t^q M_(q+1), lambda_j t = s^p M_(p+1)."""
    from indefsaddle.solve import _seed_floor

    for lengths, p, q, forced in [
        ((math.pi,), 3.0, 3.0, False),
        ((1.0, 1.3), 2.0, 5.0, True),
        ((1.0, 1.2, 1.5), 2.0, 2.5, False),
    ]:
        spec = ProblemSpec.create(BoxDomain(lengths), 12, 1.0, p, q, h=[0.05] if forced else None)
        assert len(default_seeds(spec, 6)) == 2 * 6 + forced
        seeds = default_seeds(spec, k_max=3)
        assert len(seeds) == 2 * 3 + forced
        if forced:
            assert not seeds.pop(0).vec.any()
        c = max(0.7, _seed_floor(p, q))  # 0.74 at p = 2, q = 5, else 0.7
        for j in range(1, 4):
            plus, minus = seeds[2 * j - 2], seeds[2 * j - 1]
            assert np.array_equal(minus.vec, -plus.vec)
            assert np.flatnonzero(plus.vec).tolist() == [j - 1, spec.n + j - 1]
            t, s = plus.u.coeffs[j - 1] / c, plus.v.coeffs[j - 1] / c
            lam = spec.basis.eigenvalues[j - 1]
            index = spec.basis.indices[j - 1]
            assert lam * s == pytest.approx(t**q * _power_integral(spec, q + 1.0, index), rel=1e-9)
            assert lam * t == pytest.approx(s**p * _power_integral(spec, p + 1.0, index), rel=1e-9)


@pytest.mark.parametrize("p", [1e300, 1e308])
def test_unrepresentable_amplitude_raises_quietly(p):
    """At p = 1e300 the power s^p of the one-mode equations overflows; at
    1e308 so does Gamma's log.  Either raises the non-finite error, with no
    warning and no OverflowError."""
    spec = ProblemSpec.create(BoxDomain((math.pi,)), 8, 1.0, p, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="coefficients must be finite"):
            default_seeds(spec, 6)


@pytest.mark.parametrize("k_max", [0, -1])
def test_seed_count_below_one_is_rejected(k_max):
    """k_max = 0 used to seed 6 modes, and k_max = -1 seeded n - 1."""
    spec = ProblemSpec.create(BoxDomain((math.pi,)), 8, 1.0, 3.0, 3.0)
    with pytest.raises(ValueError, match=f"^k_max must be at least 1, got {k_max}$"):
        default_seeds(spec, k_max)


@pytest.mark.parametrize("p, q", [(1.5, 8.0), (2.0, 9.0), (2.0, 5.0), (3.0, 3.0)])
def test_seeds_above_the_zero_basin(p, q):
    """Below c* = (pq)^(-1/(p+q-2)) of the amplitude, the first Newton step
    of the one-mode equations points to zero; the seed fraction stays at
    least 10 % above it, and Newton from each mode-1 to mode-3 seed reaches
    a nonzero solution."""
    from indefsaddle.solve import _seed_floor

    assert max(0.7, _seed_floor(p, q)) > 1.1 * (p * q) ** (-1.0 / (p + q - 2.0))
    spec = ProblemSpec.create(BoxDomain((math.pi,)), 16, 1.0, p, q)
    for seed in default_seeds(spec, k_max=3)[::2]:
        result = newton_solve(seed, spec)
        assert result.converged and result.energy > 0.5


# Hunts of 1-D, 2-D and 3-D problems, forced and not, with the record
# energies that the t in {1, 2, 4} schedule stores: name -> (lengths, n, r,
# p, q, forcing of mode 1 in h and k, count, energies)
_FIXED_AMPLITUDE_HUNTS = {
    "1-D n=32 count 6": ((math.pi,), 32, 1.0, 3.0, 3.0, None, 6,
                         (1.016314224, 16.26102758, 82.32145214, 260.1764419, 635.1968064)),
    "1-D n=40 count 6": ((math.pi,), 40, 1.0, 3.0, 3.0, None, 6,
                         (1.016314224, 16.26102758, 82.32145214, 260.1764413, 635.1963913)),
    "1-D forced": ((math.pi,), 32, 1.0, 3.0, 3.0, 0.05, 3,
                   (-0.002501495697, 0.8762318471, 1.158743576)),
    "1-D n=64 forced count 6": ((math.pi,), 64, 1.0, 3.0, 3.0, 0.045, 6,
                                (-0.002025980874, 0.8901306303, 1.144398637, 16.26110156,
                                 16.26110156, 82.32151439)),
    "1-D p=2 q=5": ((math.pi,), 32, 1.0, 2.0, 5.0, None, 6,
                    (0.996279591, 15.94047346, 80.69863625, 255.0475496, 622.6788552,
                     1291.186698)),
    "1-D r=0.6": ((math.pi,), 32, 0.6, 3.0, 3.0, None, 5,
                  (1.016314224, 16.26102758, 82.32145214, 260.1764419, 635.1968064)),
    "1-D r=1.5 forced": ((math.pi,), 32, 1.5, 3.0, 3.0, 0.05, 5,
                         (-0.002501495697, 0.8762318471, 1.158743576, 16.26111891, 16.26111891)),
    "1-D forced 0.5 count 10": ((math.pi,), 32, 1.0, 3.0, 3.0, 0.5, 10,
                                (-0.2711071419, -0.2415691332, 2.529843246, 16.27021585,
                                 16.27021585, 82.32908986, 82.32919677, 260.1811802,
                                 260.1811802, 635.1999385)),
    "1-D p=1.5 q=8": ((math.pi,), 16, 1.0, 1.5, 8.0, None, 6,
                      (0.937076518, 15.96838181, 83.87823404, 272.1183568, 677.9427942,
                       1462.724877)),
    "1-D p=2 q=9 forced": ((math.pi,), 16, 1.0, 2.0, 9.0, 0.05, 6,
                           (-0.002528219396, 0.9380028267, 1.20972933, 12.3897282, 12.3897282,
                            51.83055161)),
    "2-D": ((1.0, 1.3), 40, 1.0, 3.0, 3.0, None, 6,
            (61.4651476, 269.5726592, 425.8633922, 892.794181, 1000.332328, 2272.961591)),
    "2-D forced": ((1.0, 1.3), 40, 1.0, 3.0, 3.0, 0.05, 6,
                   (-0.0001591383791, 61.20138226, 61.72900063, 269.5726195, 269.5726195,
                    425.8633513)),
    "2-D p=2 q=5": ((1.0, 1.3), 40, 1.0, 2.0, 5.0, None, 6,
                    (59.09360572, 259.19731, 962.1764124, 2181.505503)),
    "2-D p=1.5 q=8": ((1.0, 1.3), 16, 1.0, 1.5, 8.0, None, 6,
                      (61.11265426, 291.1183515, 966.1316659, 1180.967582, 2576.346831)),
    "2-D square": ((math.pi, math.pi), 24, 1.0, 3.0, 3.0, None, 4,
                   (7.653678594, 44.35212032, 44.35212032, 140.367707)),
    "3-D": ((1.0, 1.2, 1.5), 60, 1.0, 3.0, 3.0, None, 6,
            (79.90816582, 219.940509, 284.5982192, 355.6334359, 537.3144718, 617.6809001)),
    "3-D forced": ((1.0, 1.2, 1.5), 60, 1.0, 3.0, 3.0, 0.05, 3,
                   (-0.000118427387, 79.67939301, 80.13690766)),
    "3-D p=2 q=2.5 forced": ((1.0, 1.2, 1.5), 40, 1.0, 2.0, 2.5, 0.05, 4, (-0.0001184333528,)),
}


@pytest.mark.parametrize("name", list(_FIXED_AMPLITUDE_HUNTS))
def test_hunt_keeps_the_records_of_fixed_amplitude_seeds(name):
    """Every record energy of the t in {1, 2, 4} schedule is among the new
    records, each matched to its own record; where that schedule stored
    fewer than `count`, the new one fills the count."""
    lengths, n, r, p, q, forcing, count, energies = _FIXED_AMPLITUDE_HUNTS[name]
    forcing = None if forcing is None else [forcing]
    spec = ProblemSpec.create(BoxDomain(lengths), n, r, p, q, h=forcing, k=forcing)
    branch = find_branch(spec, count=count)
    assert len(branch.records) == count and not branch.exhausted
    found = [rec.energy for rec in branch.records]
    for e in energies:
        match = next(x for x in found if x == pytest.approx(e, rel=1e-6))
        found.remove(match)


@pytest.mark.xfail(
    strict=True,
    reason="near-linear exponents: the seeds of modes 4-6 stall near solutions of size "
    "2e6-1e8, at residuals 3e-9 to 5e-7 (roundoff of that size), above the absolute "
    "tol 1e-10 (ROADMAP item 3), so the hunt stores 3 records and exhausts",
)
def test_near_linear_symmetric_hunt_fills_its_count():
    spec = ProblemSpec.create(BoxDomain((math.pi,)), n=16, r=1.0, p=1.2, q=1.2)
    branch = find_branch(spec, count=6)
    assert len(branch.records) == 6
