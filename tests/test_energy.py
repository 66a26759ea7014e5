import dataclasses
import math

import numpy as np
import pytest

from indefsaddle import (
    BoxDomain,
    CutoffConfig,
    FieldPair,
    ProblemSpec,
    SpectralField,
    bump,
    bump_derivative,
    cutoff_argument,
    deviation_check,
    energy,
    energy_gradient,
    modified_energy,
    modified_energy_gradient,
    verify_critical,
)
from indefsaddle.energy import Evaluation


@pytest.fixture(scope="module")
def sym_spec():
    return ProblemSpec.create(BoxDomain((math.pi,)), n=12, r=1.0, p=3.0, q=3.0)


@pytest.fixture(scope="module")
def forced_spec(sym_spec):
    return sym_spec.with_forcing(h=[0.05], k=[0.03, 0.02])


def random_pair(spec, rng, scale=1.0):
    lam = spec.basis.eigenvalues
    smooth = lam**-0.5
    return FieldPair(
        SpectralField(spec.basis, scale * smooth * rng.standard_normal(spec.n)),
        SpectralField(spec.basis, scale * smooth * rng.standard_normal(spec.n)),
        spec.r,
    )


class TestEnergy:
    def test_zero_point(self, sym_spec):
        assert energy(sym_spec.zero_pair(), sym_spec) == 0.0

    def test_first_mode_value(self, sym_spec):
        phi1 = SpectralField.unit(sym_spec.basis, 1)
        z = FieldPair(phi1, phi1, 1.0)
        expected = 1.0 - 3.0 / (4.0 * math.pi)  # 1 - 2 * (1/4) int phi1^4
        assert energy(z, sym_spec) == pytest.approx(expected, abs=1e-13)

    def test_even_without_forcing(self, sym_spec):
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = random_pair(sym_spec, rng, scale=10.0 ** rng.uniform(-1, 1))
            assert energy(z, sym_spec) == energy(-z, sym_spec)  # bit-exact

    def test_forcing_oddness_identity(self, forced_spec):
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = random_pair(forced_spec, rng)
            gap = energy(z, forced_spec) - energy(-z, forced_spec)
            expected = -2.0 * (
                float(np.dot(forced_spec.k.coeffs, z.u.coeffs))
                + float(np.dot(forced_spec.h.coeffs, z.v.coeffs))
            )
            assert gap == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_oversample_convergence_fractional_power(self):
        # fractional exponent: the integrand is not a trig polynomial, so the
        # quadrature converges rather than being exact; doubling the grid
        # moves the nonlinear part of a small smooth pair by well under 1e-9
        rng = np.random.default_rng(0)
        spec = ProblemSpec.create(BoxDomain((math.pi,)), n=8, r=1.0, p=2.5, q=2.5)
        decay = np.exp(-np.arange(1, 9, dtype=float))
        f = SpectralField(spec.basis, 0.05 * decay * rng.standard_normal(8))
        z = FieldPair(f, f, spec.r)
        coarse = Evaluation.at(z, spec).terms[0]
        fine = Evaluation.at(z, dataclasses.replace(spec, oversample=8)).terms[0]
        assert abs(fine - coarse) < 1e-9

    def test_incompatible_point_rejected(self, sym_spec):
        other = ProblemSpec.create(BoxDomain((math.pi,)), n=10, r=1.0, p=3.0, q=3.0)
        with pytest.raises(ValueError):
            energy(other.zero_pair(), sym_spec)
        z = FieldPair.zero(sym_spec.basis, 0.5)
        with pytest.raises(ValueError):
            energy(z, sym_spec)


class TestGradients:
    def test_zero_gradient_at_origin(self, sym_spec):
        g = energy_gradient(sym_spec.zero_pair(), sym_spec)
        assert g.norm() == 0.0

    @pytest.mark.parametrize("which", ["plain", "modified"])
    def test_finite_difference(self, forced_spec, which):
        rng = np.random.default_rng(3)
        cutoff = CutoffConfig.default_for(forced_spec)
        eps = 1e-5
        for _ in range(12):
            z = random_pair(forced_spec, rng, scale=10.0 ** rng.uniform(-0.5, 0.5))
            w = random_pair(forced_spec, rng)
            if which == "plain":
                fd = (
                    energy(z + eps * w, forced_spec)
                    - energy(z - eps * w, forced_spec)
                ) / (2 * eps)
                g = energy_gradient(z, forced_spec).pairing(w)
            else:
                fd = (
                    modified_energy(z + eps * w, forced_spec, cutoff)
                    - modified_energy(z - eps * w, forced_spec, cutoff)
                ) / (2 * eps)
                g = modified_energy_gradient(z, forced_spec, cutoff).grad.pairing(w)
            assert abs(fd - g) <= 1e-6 * (1.0 + abs(g))


class TestCutoff:
    def test_bump_profile(self):
        assert bump(0.0) == 1.0 and bump(1.0) == 1.0
        assert bump(2.0) == 0.0 and bump(3.0) == 0.0
        assert bump(1.5) == pytest.approx(0.5, abs=1e-15)
        ts = np.linspace(1.0 + 1e-9, 2.0 - 1e-9, 1001)
        derivs = np.array([bump_derivative(t) for t in ts])
        assert np.all(derivs < 0.0)
        assert derivs.min() > -2.0  # required slope window
        assert bump_derivative(1.5) == pytest.approx(-15.0 / 8.0, abs=1e-12)

    def test_bump_derivative_is_elementwise(self):
        ts = np.concatenate([np.linspace(-1.0, 3.0, 401), [1.0, 2.0, 1.0 + 1e-12]])
        derivs = bump_derivative(ts)
        assert [_bits(d) for d in derivs] == [_bits(bump_derivative(float(t))) for t in ts]
        assert ((derivs < 0.0) == ((ts > 1.0) & (ts < 2.0))).all()
        assert type(bump_derivative(1.5)) is float and bump_derivative(2.5) == 0.0

    def test_zero_point_weight_one(self, forced_spec):
        cutoff = CutoffConfig(1.0)
        z = forced_spec.zero_pair()
        assert cutoff_argument(z, forced_spec, cutoff) == 0.0
        assert bump(cutoff_argument(z, forced_spec, cutoff)) == 1.0
        assert Evaluation.at(z, forced_spec).cutoff_terms(cutoff)[2] >= 2.0

    def test_worked_first_mode_example(self, sym_spec):
        cutoff = CutoffConfig(1.0)
        phi1 = SpectralField.unit(sym_spec.basis, 1)
        z = FieldPair(phi1, phi1, 1.0)
        e = 1.0 - 3.0 / (4.0 * math.pi)
        nonlinear = 3.0 / (4.0 * math.pi)  # 2 * (1/4) int phi1^4
        expected_theta = nonlinear / (2.0 * math.sqrt(e * e + 1.0))
        theta = cutoff_argument(z, sym_spec, cutoff)
        assert theta == pytest.approx(expected_theta, rel=1e-12)
        assert theta == pytest.approx(0.09497683307, abs=1e-9)
        assert bump(cutoff_argument(z, sym_spec, cutoff)) == 1.0

    def test_weight_vanishes_where_argument_exceeds_two(self, sym_spec):
        # the argument peaks near the energy-zero shell; with a half-size
        # bound constant the peak clears 2 comfortably and the weight dies
        cutoff = CutoffConfig(0.5)
        phi1 = SpectralField.unit(sym_spec.basis, 1)
        base = FieldPair(phi1, phi1, 1.0)
        thetas = {t: cutoff_argument(t * base, sym_spec, cutoff) for t in (2.0, 2.05)}
        assert max(thetas.values()) > 2.0
        t_star = max(thetas, key=lambda t: thetas[t])
        assert bump(cutoff_argument(t_star * base, sym_spec, cutoff)) == 0.0

    def test_large_scale_plateau(self, sym_spec):
        # far out on a ray the argument settles near 1/(2A): weight is one
        # again for A = 1, and the modified energy equals the symmetric one
        cutoff = CutoffConfig(1.0)
        phi1 = SpectralField.unit(sym_spec.basis, 1)
        z = 10.0 * FieldPair(phi1, phi1, 1.0)
        theta = cutoff_argument(z, sym_spec, cutoff)
        assert theta == pytest.approx(0.5, abs=0.05)
        assert bump(cutoff_argument(z, sym_spec, cutoff)) == 1.0

    def test_plateau_beyond_the_overflow_of_the_squared_energy(self, sym_spec):
        # at 1e40 phi_1 the energy is about -2e159 and E^2 overflows; the
        # scale is then 2A|E|, and the argument stays on the plateau near 1/(2A)
        cutoff = CutoffConfig(1.0)
        phi1 = SpectralField.unit(sym_spec.basis, 1)
        z = 1e40 * FieldPair(phi1, phi1, 1.0)
        assert abs(energy(z, sym_spec)) > 1e154
        scale = Evaluation.at(z, sym_spec).cutoff_terms(cutoff)[2]
        assert scale == 2.0 * abs(energy(z, sym_spec))
        assert cutoff_argument(z, sym_spec, cutoff) == pytest.approx(0.5, abs=0.05)

    def test_scale_is_the_square_root_formula_bit_for_bit(self):
        """|E| from 2^27 on gives sqrt(E^2 + 1) exactly wherever E^2 is finite."""
        from indefsaddle.energy import _hypot1

        rng = np.random.default_rng(0)
        size = 200_000
        e = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3.0, 154.0, size)
        edge = 2.0**27 * (1.0 + rng.uniform(-1e-3, 1e-3, 10_000))
        e = np.concatenate([e, edge, -edge, np.nextafter(2.0**27, [0.0, math.inf])])
        assert _bits(_hypot1(e)) == _bits(np.sqrt(e * e + 1.0))
        assert _hypot1(-1e300) == 1e300 and _hypot1(math.inf) == math.inf


class TestModifiedEnergy:
    def test_equals_plain_without_forcing(self, sym_spec):
        cutoff = CutoffConfig(1.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = random_pair(sym_spec, rng, scale=10.0 ** rng.uniform(-1, 1))
            assert modified_energy(z, sym_spec, cutoff) == energy(z, sym_spec)

    def test_zero_point(self, forced_spec):
        cutoff = CutoffConfig.default_for(forced_spec)
        assert modified_energy(forced_spec.zero_pair(), forced_spec, cutoff) == 0.0

    def test_dead_zone_removes_forcing(self, forced_spec):
        # where the weight vanishes the modified energy is the symmetric part
        cutoff = CutoffConfig(0.5)
        phi1 = SpectralField.unit(forced_spec.basis, 1)
        base = FieldPair(phi1, phi1, forced_spec.r)
        z = 2.05 * base
        assert bump(cutoff_argument(z, forced_spec, cutoff)) == 0.0
        gap = modified_energy(z, forced_spec, cutoff) - energy(z, forced_spec)
        forcing = float(
            np.dot(forced_spec.k.coeffs, z.u.coeffs)
            + np.dot(forced_spec.h.coeffs, z.v.coeffs)
        )
        assert gap == pytest.approx(forcing, rel=1e-12)

    def test_gradients_identical_without_forcing_at_any_scale(self, sym_spec):
        # with zero forcing both corrections vanish identically, so the two
        # gradients agree even where the bump weight has dropped below one
        cutoff = CutoffConfig(0.5)
        rng = np.random.default_rng(9)
        for scale in (0.5, 2.05, 10.0):
            z = random_pair(sym_spec, rng, scale=scale)
            mg = modified_energy_gradient(z, sym_spec, cutoff)
            g = energy_gradient(z, sym_spec)
            assert mg.quad_correction == 0.0 and mg.nonlin_correction == 0.0
            assert np.abs(mg.grad.du - g.du).max() == 0.0
            assert np.abs(mg.grad.dv - g.dv).max() == 0.0

    def test_corrections_vanish_on_plateau(self, forced_spec):
        cutoff = CutoffConfig.default_for(forced_spec)
        rng = np.random.default_rng(6)
        z = random_pair(forced_spec, rng, scale=0.3)
        assert cutoff_argument(z, forced_spec, cutoff) < 1.0
        mg = modified_energy_gradient(z, forced_spec, cutoff)
        assert mg.quad_correction == 0.0 and mg.nonlin_correction == 0.0
        g = energy_gradient(z, forced_spec)
        assert np.abs(mg.grad.du - g.du).max() == 0.0
        assert np.abs(mg.grad.dv - g.dv).max() == 0.0

    def test_corrections_active_in_transition_band(self, forced_spec):
        cutoff = CutoffConfig.default_for(forced_spec)
        lam = forced_spec.basis.eigenvalues
        base = FieldPair(
            SpectralField(forced_spec.basis, lam**-0.5 * np.ones(forced_spec.n)),
            SpectralField(forced_spec.basis, lam**-0.5 * np.ones(forced_spec.n)),
            forced_spec.r,
        )
        hits = 0
        for t in np.linspace(0.5, 6.0, 500):
            z = t * base
            if 1.05 < cutoff_argument(z, forced_spec, cutoff) < 1.95:
                mg = modified_energy_gradient(z, forced_spec, cutoff)
                assert mg.quad_correction != 0.0
                assert mg.nonlin_correction != 0.0
                hits += 1
        assert hits >= 3

    @pytest.mark.parametrize("t", [1e3, 1e40])
    def test_corrections_beyond_the_overflow_of_the_squared_scale(self, t):
        # with A = 0.3 the far plateau theta ~ 1/(2A) = 5/3 lies inside the
        # bump band; E^2 + 1 rounds to E^2 there (E ~ -2e159 at 1e40, where
        # the square of the scale overflows), so the quad correction is
        # psi'(theta) theta g / E
        spec = ProblemSpec.create(
            BoxDomain((math.pi,)), n=12, r=1.0, p=3.0, q=3.0, h=[0.05], k=[0.05]
        )
        cutoff = CutoffConfig(0.3)
        phi1 = SpectralField.unit(spec.basis, 1)
        z = t * FieldPair(phi1, phi1, spec.r)
        mg = modified_energy_gradient(z, spec, cutoff)
        g, e, _, theta, _ = Evaluation.at(z, spec).cutoff_terms(cutoff)
        assert 1.0 < theta < 2.0
        for correction in (mg.quad_correction, mg.nonlin_correction):
            assert math.isfinite(correction) and correction != 0.0
        expected = bump_derivative(theta) * theta * g / e
        assert mg.quad_correction == pytest.approx(expected, rel=1e-12)
        assert np.isfinite(mg.grad.du).all() and np.isfinite(mg.grad.dv).all()

    def test_dead_zone_gradient_drops_forcing_only(self, forced_spec):
        # theta > 2: weight and corrections vanish, so the modified gradient
        # is the plain gradient with the forcing coefficients added back
        cutoff = CutoffConfig(0.5)
        phi1 = SpectralField.unit(forced_spec.basis, 1)
        z = 2.05 * FieldPair(phi1, phi1, forced_spec.r)
        assert cutoff_argument(z, forced_spec, cutoff) > 2.0
        mg = modified_energy_gradient(z, forced_spec, cutoff)
        assert mg.weight == 0.0
        assert mg.quad_correction == 0.0 and mg.nonlin_correction == 0.0
        sym = forced_spec.with_forcing(None, None)
        g_sym = energy_gradient(z, sym)
        assert np.abs(mg.grad.du - g_sym.du).max() == 0.0
        assert np.abs(mg.grad.dv - g_sym.dv).max() == 0.0

    def test_symmetric_problem_without_forcing_no_deviation(self, sym_spec):
        cutoff = CutoffConfig(1.0)
        rng = np.random.default_rng(7)
        z = random_pair(sym_spec, rng)
        result = deviation_check(z, sym_spec, cutoff, beta=1.0)
        assert result.holds and result.asymmetry == 0.0

    def test_deviation_dead_zone(self, forced_spec):
        # outside both weight supports the asymmetry is exactly zero
        cutoff = CutoffConfig(0.5)
        phi1 = SpectralField.unit(forced_spec.basis, 1)
        z = 2.05 * FieldPair(phi1, phi1, forced_spec.r)
        assert bump(cutoff_argument(z, forced_spec, cutoff)) == 0.0
        assert bump(cutoff_argument(-z, forced_spec, cutoff)) == 0.0
        result = deviation_check(z, forced_spec, cutoff, beta=1.0)
        assert result.asymmetry == 0.0


class TestEvaluation:
    def test_one_synthesis_per_point(self, forced_spec, monkeypatch):
        from indefsaddle import basis, newton_solve, verify_critical

        calls = {"evaluate": 0, "pairings": 0, "galerkin": 0}
        for name in calls:
            real = getattr(basis.GridTables, name)

            def counting(tables, values, name=name, real=real):
                calls[name] += 1
                return real(tables, values)

            monkeypatch.setattr(basis.GridTables, name, counting)
        cutoff = CutoffConfig.default_for(forced_spec)
        z = random_pair(forced_spec, np.random.default_rng(3), scale=2.0)
        verify_critical(z, forced_spec, cutoff)
        assert calls["evaluate"] == 2  # u and v, once each
        calls["evaluate"] = 0
        deviation_check(z, forced_spec, cutoff, beta=1.0)
        assert calls["evaluate"] == 2
        calls.update(evaluate=0, pairings=0)
        mode = SpectralField.unit(forced_spec.basis, 1)
        result = newton_solve(FieldPair(2.0 * mode, 2.0 * mode, 1.0), forced_spec)
        assert result.converged and result.iterations >= 3
        # two pairings per residual, two syntheses per residual and none for
        # the Jacobian, whose two Galerkin blocks read the accepted iterate's
        assert calls["evaluate"] == calls["pairings"] > 2 * result.iterations
        assert calls["galerkin"] == 2 * result.iterations

    @pytest.mark.parametrize("lengths", [(math.pi,), (1.0, 2.5), (1.0, 1.3, 2.0)])
    def test_forcing_free_gradient_is_exactly_odd(self, lengths):
        # find_branch stores -z as a solution on the strength of this identity
        spec = ProblemSpec.create(BoxDomain(lengths), n=20, r=1.0, p=3.0, q=2.5)
        rng = np.random.default_rng(len(lengths))
        for _ in range(5):
            z = random_pair(spec, rng, scale=10.0 ** rng.uniform(-1, 1))
            g, g_minus = energy_gradient(z, spec), energy_gradient(-z, spec)
            assert np.array_equal(g_minus.du, -g.du)
            assert np.array_equal(g_minus.dv, -g.dv)

    def test_power_integrals_past_the_overflow_of_their_grid_powers(self):
        """On the box (0, pi s), s = 1e-80, the modes are s^-1/2 = 1e40 on
        the grid: coefficients of size 1e40 give grid values near 1e80,
        whose 4th powers overflow, while their integrals, with the
        quadrature weight near 1e-81, are near 1e240.  The nonlinear term is
        the unit box's times 1e160 s^-1 to 1e-12, and a row that does not
        overflow keeps the bits of its own evaluation."""
        spec = ProblemSpec.create(BoxDomain((math.pi * 1e-80,)), n=12, r=1.0, p=3.0, q=3.0)
        unit = ProblemSpec.create(BoxDomain((math.pi,)), n=12, r=1.0, p=3.0, q=3.0)
        vec = random_pair(unit, np.random.default_rng(5)).vec
        stack = Evaluation(np.array([vec, 1e40 * vec]), spec)
        nonlinear = stack.terms[0]
        assert _bits(nonlinear[0]) == _bits(Evaluation(vec, spec).terms[0])
        assert nonlinear[1] == pytest.approx(Evaluation(vec, unit).terms[0] * 1e240, rel=1e-12)

    def test_mirrored_energy_is_the_energy_at_minus_z(self, forced_spec):
        # the deviation check reads J(-z) from the evaluation of z
        cutoff = CutoffConfig(0.5)
        rng = np.random.default_rng(11)
        weights = set()
        for _ in range(300):
            z = random_pair(forced_spec, rng, scale=10.0 ** rng.uniform(-1, 1.5))
            j_plus = modified_energy(z, forced_spec, cutoff)
            j_minus = modified_energy(-z, forced_spec, cutoff)
            result = deviation_check(z, forced_spec, cutoff, beta=1.0)
            assert result.asymmetry == abs(j_plus - j_minus)
            weights.add(0.0 < bump(cutoff_argument(-z, forced_spec, cutoff)) < 1.0)
        assert weights == {True, False}  # draws inside the cutoff transition too


def _packed(pairs):
    return np.array([np.concatenate([z.u.coeffs, z.v.coeffs]) for z in pairs])


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


class TestEvaluationStacks:
    """One formula per quantity serves a point and a stack: each row of a
    stack gets the point's own value bit for bit, and one point's values are
    Python floats and bools."""

    @staticmethod
    def quantities(ev, cutoff):
        g = ev.gradient()
        mg = ev.modified_gradient(cutoff)
        return [
            *ev.terms,
            *ev.cutoff_terms(cutoff),
            *ev.cutoff_terms(cutoff, mirrored=True),
            ev.modified_energy(cutoff),
            ev.modified_energy(cutoff, mirrored=True),
            mg.quad_correction,
            mg.nonlin_correction,
            mg.weight,
            mg.grad.du,
            mg.grad.dv,
            g.du,
            g.dv,
            g.norm(),
        ]

    @pytest.mark.parametrize("lengths", [(math.pi,), (1.0, 2.5), (1.0, 1.3, 2.0)])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_rows_match_points(self, lengths, rows):
        spec = ProblemSpec.create(
            BoxDomain(lengths), n=14, r=1.0, p=3.0, q=2.5, h=[0.05, 0.1], k=[0.03]
        )
        cutoff = CutoffConfig(0.5)
        rng = np.random.default_rng(10 * rows + len(lengths))
        pairs = [random_pair(spec, rng, scale=10.0 ** rng.uniform(-1, 1.5)) for _ in range(rows)]
        stacked = self.quantities(Evaluation(_packed(pairs), spec), cutoff)
        for i, z in enumerate(pairs):
            alone = self.quantities(Evaluation.at(z, spec), cutoff)
            assert [_bits(q) for q in alone] == [_bits(q[i]) for q in stacked]

    @pytest.mark.parametrize("lengths", [(math.pi,), (1.0, 2.5), (1.0, 1.3, 2.0)])
    def test_rows_carry_the_weights_of_their_blocks(self, lengths, monkeypatch):
        """A stack's row hands on its grid weights, bit for bit the point's
        own, and the Newton operator built from them (solve._schur, with its
        blocks as matrices and on the grid) gives the point's own products
        and Schur solve bit for bit; the matrices are those of the formulas
        q|u|^(q-1) and p|v|^(p-1) on the point's grid values."""
        from indefsaddle import solve

        spec = ProblemSpec.create(BoxDomain(lengths), n=14, r=1.0, p=3.0, q=2.5)
        rng = np.random.default_rng(20 + len(lengths))
        pairs = [random_pair(spec, rng, scale=10.0 ** rng.uniform(-1, 1.5)) for _ in range(4)]
        stack = Evaluation(_packed(pairs), spec)
        stack.gradient()  # its pairings, and with them its weights
        tables, lam = spec.tables, spec.basis.eigenvalues
        x = rng.standard_normal(spec.n)
        for i, z in enumerate(pairs):
            row, alone = stack.row(i), Evaluation.at(z, spec)
            assert "weights" in vars(row)
            assert list(map(_bits, row.weights)) == list(map(_bits, alone.weights))
            P = tables.galerkin(spec.q * np.abs(alone.u_vals) ** (spec.q - 1.0))
            Q = tables.galerkin(spec.p * np.abs(alone.v_vals) ** (spec.p - 1.0))
            want = [_bits((P / lam) @ x), _bits(Q @ x)]
            for crossover in (solve._KRYLOV_N, 0):  # dense, then on the grid
                monkeypatch.setattr(solve, "_KRYLOV_N", crossover)
                got = [[_bits(f(x)) for f in solve._schur(ev)] for ev in (row, alone)]
                assert got[0] == got[1]
                if crossover:
                    assert got[0][:2] == want

    def test_rows_cover_the_cutoff_transition(self, forced_spec):
        cutoff = CutoffConfig(0.5)
        rng = np.random.default_rng(12)
        pairs = [random_pair(forced_spec, rng, scale=10.0 ** rng.uniform(-1, 2.5)) for _ in range(60)]
        theta = Evaluation(_packed(pairs), forced_spec).cutoff_terms(cutoff)[3]
        weights = bump(theta)
        assert ((weights > 0.0) & (weights < 1.0)).any()
        assert (weights == 1.0).any() and (weights == 0.0).any()
        assert [_bits(w) for w in weights] == [_bits(bump(float(t))) for t in theta]

    def test_modified_gradient_rows_match_points_in_the_band(self, forced_spec):
        cutoff = CutoffConfig(0.5)
        rng = np.random.default_rng(13)
        pairs = [random_pair(forced_spec, rng, scale=10.0 ** rng.uniform(-1, 2.5)) for _ in range(200)]
        stacked = Evaluation(_packed(pairs), forced_spec).modified_gradient(cutoff)
        in_band = 0
        for i, z in enumerate(pairs):
            alone = modified_energy_gradient(z, forced_spec, cutoff)
            in_band += 0.0 < alone.weight < 1.0
            for field in ("quad_correction", "nonlin_correction", "weight"):
                assert _bits(getattr(alone, field)) == _bits(getattr(stacked, field)[i])
            assert _bits(alone.grad.du) == _bits(stacked.grad.du[i])
            assert _bits(alone.grad.dv) == _bits(stacked.grad.dv[i])
        assert in_band >= 20

    def test_one_point_values_are_python_scalars(self, forced_spec):
        cutoff = CutoffConfig(0.5)
        for scale in (0.1, 2.0, 30.0):
            z = random_pair(forced_spec, np.random.default_rng(4), scale=scale)
            ev = Evaluation.at(z, forced_spec)
            values = self.quantities(ev, cutoff)[:-5]
            values += [
                *ev.deviation(cutoff, beta=1.3),
                bump(0.5), bump(1.5), bump(2.5), energy(z, forced_spec),
                energy_gradient(z, forced_spec).norm(),
                modified_energy(z, forced_spec, cutoff),
                cutoff_argument(z, forced_spec, cutoff),
                bump(cutoff_argument(z, forced_spec, cutoff)),
            ]
            assert [type(v) for v in values] == [float] * len(values)
            for result in (
                verify_critical(z, forced_spec, cutoff),
                deviation_check(z, forced_spec, cutoff, beta=1.0),
            ):
                for field in dataclasses.fields(result):
                    assert type(getattr(result, field.name)).__name__ == field.type


class TestProblemSpecValidation:
    def test_exponent_bounds_named(self):
        with pytest.raises(ValueError, match="p must exceed 1"):
            ProblemSpec.create(BoxDomain((math.pi,)), n=8, r=1.0, p=0.5, q=3.0)
        with pytest.raises(ValueError, match="q must exceed 1"):
            ProblemSpec.create(BoxDomain((math.pi,)), n=8, r=1.0, p=3.0, q=1.0)

    def test_r_window_quoted_in_three_dimensions(self):
        # p = q = 3 in dimension 3: admissible window is (0.75, 1.25)
        with pytest.raises(ValueError, match=r"\(0.75, 1.25\)"):
            ProblemSpec.create(
                BoxDomain((math.pi, math.pi, math.pi)), n=8, r=0.5, p=3.0, q=3.0
            )
        spec = ProblemSpec.create(
            BoxDomain((math.pi, math.pi, math.pi)), n=8, r=1.0, p=3.0, q=3.0
        )
        assert spec.n == 8

    def test_low_dimension_only_needs_r_in_0_2(self):
        spec = ProblemSpec.create(BoxDomain((math.pi,)), n=8, r=1.9, p=5.0, q=5.0)
        assert spec.r == 1.9
        with pytest.raises(ValueError):
            ProblemSpec.create(BoxDomain((math.pi,)), n=8, r=2.0, p=5.0, q=5.0)
