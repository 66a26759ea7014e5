"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (pytest -s shows them); the
stated wall-clock budgets are asserted.  Criterion 5 cross-checks the
spectral solver against the independent shooting oracle.
"""

import json
import math
import time

import numpy as np
import pytest

from indefsaddle import (
    BoxDomain,
    CutoffConfig,
    FieldPair,
    NewtonConfig,
    PQPoint,
    ProblemSpec,
    SpectralField,
    apply_coupling,
    continuation,
    coupling_eigenvector,
    coupling_form,
    cutoff_argument,
    energy,
    energy_gradient,
    enumerate_basis,
    estimate_levels,
    find_branch,
    growth_exponents,
    hyperbola_boundary_p,
    in_multiplicity_region,
    modified_energy,
    modified_energy_gradient,
    multiplicity_boundary_p,
    multiplicity_margin,
    newton_solve,
    optimal_r,
    pair_inner,
    pair_norm,
    r_thresholds,
    residual,
    split_pair,
    verify_critical,
)
from indefsaddle.cli import main
from indefsaddle.suite import _random_subcritical

from oracles import shooting_solution


def report(name: str, elapsed: float, budget: float, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s / {budget:.0f}s budget) {detail}")


def test_criterion_1_operator_algebra():
    started = time.perf_counter()
    budget = 5.0
    rng = np.random.default_rng(2024)
    domain = BoxDomain((math.pi,))
    tol = 1e-12
    worst = 0.0
    draws = 0
    for n in (16, 48, 64):
        basis = enumerate_basis(domain, n)
        for r in (0.5, 1.0, 1.5):
            for _ in range(12):
                draws += 1
                z = FieldPair(
                    SpectralField(basis, rng.standard_normal(n)),
                    SpectralField(basis, rng.standard_normal(n)),
                    r,
                )
                w = FieldPair(
                    SpectralField(basis, rng.standard_normal(n)),
                    SpectralField(basis, rng.standard_normal(n)),
                    r,
                )
                scale = max(1.0, pair_norm(z) ** 2, pair_norm(w) ** 2)
                lz = apply_coupling(z)
                llz = apply_coupling(lz)
                worst = max(
                    worst,
                    np.abs(llz.u.coeffs - z.u.coeffs).max() / scale,
                    np.abs(llz.v.coeffs - z.v.coeffs).max() / scale,
                    abs(pair_inner(lz, w) - pair_inner(z, apply_coupling(w))) / scale,
                )
                parts = split_pair(z)
                back = parts.plus + parts.minus
                worst = max(
                    worst,
                    np.abs(back.u.coeffs - z.u.coeffs).max() / scale,
                    abs(pair_inner(parts.plus, parts.minus)) / scale,
                    abs(
                        coupling_form(parts.plus)
                        - coupling_form(parts.minus)
                        - 0.5 * pair_norm(z) ** 2
                    )
                    / scale,
                )
                twice = split_pair(parts.plus)
                worst = max(worst, pair_norm(twice.minus) / scale)
            vectors = [
                coupling_eigenvector(basis, k, s, r)
                for k in range(1, 9)
                for s in (+1, -1)
            ]
            gram = np.array([[pair_inner(a, b) for b in vectors] for a in vectors])
            worst = max(worst, np.abs(gram - np.eye(16)).max())
            # completeness: reconstruct a random point from eigen-coordinates
            from indefsaddle import eigenvector_coordinates, from_eigenvector_coordinates

            z = FieldPair(
                SpectralField(basis, rng.standard_normal(n)),
                SpectralField(basis, rng.standard_normal(n)),
                r,
            )
            ap, am = eigenvector_coordinates(z)
            rebuilt = from_eigenvector_coordinates(basis, r, ap, am)
            worst = max(
                worst,
                np.abs(rebuilt.u.coeffs - z.u.coeffs).max(),
                np.abs(rebuilt.v.coeffs - z.v.coeffs).max(),
            )
    elapsed = time.perf_counter() - started
    assert draws >= 100
    assert worst < tol, f"operator algebra worst error {worst}"
    assert elapsed < budget
    report("1 operator algebra", elapsed, budget, f"worst {worst:.2e}, {draws} draws")


def test_criterion_2_gradient_fidelity():
    started = time.perf_counter()
    budget = 10.0
    rng = np.random.default_rng(77)
    spec = ProblemSpec.create(
        BoxDomain((math.pi,)), n=12, r=1.1, p=2.5, q=3.2, h=[0.05], k=[0.03, 0.02]
    )
    cutoff = CutoffConfig.default_for(spec)
    lam = spec.basis.eigenvalues
    eps = 1e-5
    tol = 1e-6
    worst = 0.0
    checked = 0

    def fd_both(z, w):
        nonlocal worst, checked
        fd_e = (energy(z + eps * w, spec) - energy(z - eps * w, spec)) / (2 * eps)
        ge = energy_gradient(z, spec).pairing(w)
        fd_j = (
            modified_energy(z + eps * w, spec, cutoff)
            - modified_energy(z - eps * w, spec, cutoff)
        ) / (2 * eps)
        gj = modified_energy_gradient(z, spec, cutoff).grad.pairing(w)
        worst = max(
            worst,
            abs(fd_e - ge) / (1.0 + abs(ge)),
            abs(fd_j - gj) / (1.0 + abs(gj)),
        )
        checked += 1

    for _ in range(50):
        scale = 10.0 ** rng.uniform(-0.5, 0.5)
        z = FieldPair(
            SpectralField(spec.basis, scale * lam**-0.5 * rng.standard_normal(spec.n)),
            SpectralField(spec.basis, scale * lam**-0.5 * rng.standard_normal(spec.n)),
            spec.r,
        )
        w = FieldPair(
            SpectralField(spec.basis, rng.standard_normal(spec.n)),
            SpectralField(spec.basis, rng.standard_normal(spec.n)),
            spec.r,
        )
        fd_both(z, w)
    # transition-band points where the cutoff corrections are active
    base = FieldPair(
        SpectralField(spec.basis, lam**-0.5 * np.ones(spec.n)),
        SpectralField(spec.basis, lam**-0.5 * np.ones(spec.n)),
        spec.r,
    )
    band = 0
    for t in np.linspace(0.2, 6.0, 600):
        z = t * base
        theta = cutoff_argument(z, spec, cutoff)
        if 1.05 < theta < 1.95:
            mg = modified_energy_gradient(z, spec, cutoff)
            assert mg.quad_correction != 0.0 and mg.nonlin_correction != 0.0
            w = FieldPair(
                SpectralField(spec.basis, rng.standard_normal(spec.n)),
                SpectralField(spec.basis, rng.standard_normal(spec.n)),
                spec.r,
            )
            fd_both(z, w)
            band += 1
            if band >= 8:
                break
    elapsed = time.perf_counter() - started
    assert checked >= 50 and band >= 5
    assert worst <= tol, f"gradient fidelity worst {worst}"
    assert elapsed < budget
    report(
        "2 gradient fidelity", elapsed, budget,
        f"worst {worst:.2e} over {checked} points ({band} in the cutoff band)",
    )


def test_criterion_3_region_closed_forms():
    started = time.perf_counter()
    budget = 5.0
    tol = 1e-12
    for N in range(5, 13):
        assert abs(hyperbola_boundary_p(1.0, N) - (N + 4.0) / (N - 4.0)) < tol
        assert abs(multiplicity_boundary_p(1.0, N) - (3.0 * N + 4.0) / (3.0 * N - 4.0)) < tol
    rng = np.random.default_rng(5150)
    worst_balance = 0.0
    for i in range(10_000):
        N = int(rng.integers(3, 11))
        pt = _random_subcritical(rng, N)
        th = r_thresholds(pt)
        lo = N * (0.5 - 1.0 / (pt.q + 1.0))
        hi = 2.0 - N * (0.5 - 1.0 / (pt.p + 1.0))
        assert lo < th.balanced < hi, f"threshold ordering failed at {pt}"
        q1, p1, _ = growth_exponents(pt, th.balanced)
        worst_balance = max(worst_balance, abs(q1 - p1))
        if i % 100 == 0:
            p_same = float(rng.uniform(1.01, 9.0))
            pt_same = PQPoint(p_same, p_same, N)
            assert abs(r_thresholds(pt_same).balanced - 1.0) < tol
    elapsed = time.perf_counter() - started
    assert worst_balance < tol
    assert elapsed < budget
    report(
        "3 region closed forms", elapsed, budget,
        f"balance identity worst {worst_balance:.2e} on 10000 points",
    )


def test_criterion_4_region_equivalence():
    started = time.perf_counter()
    budget = 5.0
    rng = np.random.default_rng(6021)
    disagreements = 0
    tested = 0
    while tested < 10_000:
        N = int(rng.integers(3, 11))
        pt = _random_subcritical(rng, N)
        if abs(multiplicity_margin(pt)) < 1e-9:
            continue
        tested += 1
        if in_multiplicity_region(pt) != optimal_r(pt).feasible:
            disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < budget
    report("4 region equivalence", elapsed, budget, f"0/{tested} disagreements")


@pytest.fixture(scope="module")
def accepted_branch():
    spec = ProblemSpec.create(BoxDomain((math.pi,)), n=32, r=1.0, p=3.0, q=3.0)
    config = NewtonConfig()
    started = time.perf_counter()
    branch = find_branch(spec, count=3, config=config)
    return spec, config, branch, started


def test_criterion_5_solver_correctness(accepted_branch):
    spec, config, branch, started = accepted_branch
    budget = 60.0
    assert len(branch.records) >= 3
    energies = [rec.energy for rec in branch.records]
    assert all(b > a for a, b in zip(energies, energies[1:]))
    xs = np.linspace(0.0, math.pi, 2001)
    scale = math.sqrt(2.0 / math.pi)
    ks = np.arange(1, spec.n + 1)
    sines = np.sin(np.outer(ks, xs))
    sup_errors = []
    for rec, arches in zip(branch.records, (1, 2, 3)):
        assert rec.residual < 1e-10
        assert rec.mirror is not None
        assert residual(rec.mirror, spec).norm() < 1e-10
        # oracle applies on the u = v family
        assert np.abs(rec.z.u.coeffs - rec.z.v.coeffs).max() < 1e-10
        oracle_values = shooting_solution(math.pi, arches=arches)(xs)
        values = scale * (rec.z.u.coeffs @ sines)
        gap = min(
            np.abs(values - oracle_values).max(),
            np.abs(values + oracle_values).max(),  # record may be the mirror
        )
        sup_errors.append(gap)
        assert gap < 1e-6, f"{arches}-arch oracle gap {gap}"
    # the deflation operator itself: from a seed pointing at the ground
    # state, with every found solution deflated, Newton must land elsewhere
    from indefsaddle import SpectralField as SF, deflated_solve, pair_norm

    known = [spec.zero_pair()]
    for rec in branch.records:
        known.extend([rec.z, rec.mirror])
    mode = SF.unit(spec.basis, 1)
    deflected = deflated_solve(
        spec, config, known=known,
        seeds=[FieldPair(2.0 * mode, 2.0 * mode, 1.0)],
    )
    if deflected.converged:
        assert deflected.residual_norm < 1e-10
        assert min(pair_norm(deflected.z - zi) for zi in known) > config.separation
    # truncation robustness: doubling n moves each level by < 1e-6 relative
    spec64 = ProblemSpec.create(spec.domain, 64, 1.0, 3.0, 3.0)
    for rec in branch.records:
        padded = np.zeros(64)
        padded[:32] = rec.z.u.coeffs
        seed = FieldPair(
            SpectralField(spec64.basis, padded), SpectralField(spec64.basis, padded), 1.0
        )
        refined = newton_solve(seed, spec64, config)
        assert refined.converged
        assert abs(energy(refined.z, spec64) - rec.energy) / abs(rec.energy) < 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    report(
        "5 solver correctness", elapsed, budget,
        f"3 pairs, sup-norm gaps {[f'{g:.1e}' for g in sup_errors]}",
    )


def test_criterion_6_perturbation_persistence(accepted_branch):
    spec, config, branch, _ = accepted_branch
    budget = 30.0
    started = time.perf_counter()
    target = spec.with_forcing(h=[0.05], k=[0.05])
    cutoff = CutoffConfig.default_for(target)
    moved = 0
    for rec in branch.records:
        for z in (rec.z, rec.mirror):
            result = continuation(z, target, steps=5, config=config)
            assert result.converged and result.reached == 1.0
            report_z = verify_critical(result.z, target, cutoff)
            assert report_z.residual_norm < 1e-10
            assert report_z.cutoff_weight == 1.0
            assert abs(report_z.energy_gap) < 1e-12
            assert report_z.bound_ok, (
                f"a-priori bound failed: needs {report_z.min_bound_constant}"
            )
            moved += 1
    elapsed = time.perf_counter() - started
    assert moved == 6
    assert elapsed < budget
    report("6 perturbation persistence", elapsed, budget, f"{moved} continued solutions")


def test_criterion_7_level_brackets(accepted_branch):
    spec, config, branch, _ = accepted_branch
    budget = 30.0
    started = time.perf_counter()
    brackets = estimate_levels(spec, k_max=5)
    for b in brackets:
        assert b.max_pointwise_excess <= 1e-12  # samplewise ceiling inequality
        assert b.upper <= b.ceiling
    lowers = np.array([b.lower for b in brackets])
    ks = np.arange(1, 6, dtype=float)
    slope = np.polyfit(np.log(ks), np.log(lowers), 1)[0]
    _, _, alpha = growth_exponents(PQPoint(3.0, 3.0, 1), 1.0)
    assert abs(slope - 2.0 * alpha) < 1e-10
    top = brackets[-1].upper
    for rec in branch.records:
        assert rec.energy < top
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    report(
        "7 level brackets", elapsed, budget,
        f"exponent {slope:.12f}, top bracket {top:.1f}",
    )


def test_criterion_8_determinism(tmp_path):
    budget = 60.0
    started = time.perf_counter()
    check_cfg = tmp_path / "check.json"
    check_cfg.write_text(json.dumps({"command": "check", "seed": 7}))
    region_cfg = tmp_path / "region.json"
    region_cfg.write_text(
        json.dumps(
            {
                "command": "region",
                "seed": 7,
                "N": 6,
                "p_grid": {"start": 1.05, "stop": 6.0, "step": 0.15},
                "q_grid": {"start": 1.05, "stop": 6.0, "step": 0.45},
            }
        )
    )
    outputs = []
    for tag in ("one", "two"):
        assert main(["check", "--config", str(check_cfg), "--out", str(tmp_path / f"c_{tag}")]) == 0
        assert main(["region", "--config", str(region_cfg), "--out", str(tmp_path / f"r_{tag}")]) == 0
        outputs.append(
            (
                (tmp_path / f"c_{tag}.csv").read_bytes(),
                (tmp_path / f"r_{tag}.csv").read_bytes(),
            )
        )
    assert outputs[0][0] == outputs[1][0], "check output not byte-identical"
    assert outputs[0][1] == outputs[1][1], "region output not byte-identical"
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    report("8 determinism", elapsed, budget, "byte-identical check and region runs")
