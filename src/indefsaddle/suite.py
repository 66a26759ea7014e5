"""Invariant check suite: one callable per module-level property bundle.

Each check is deterministic given its seed, returns a CheckResult with the
worst observed error, and pins its own tolerance.  The CLI `check` command
runs all of them and reports counts.  The test suite runs them only through
that command; its own property tests borrow `_random_subcritical` from here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import region
from .basis import (
    BoxDomain,
    SpectralField,
    eigenvalue_growth_constant,
    enumerate_basis,
    frac_laplacian,
    grid_shape,
    l2_inner,
    sobolev_norm,
)
from .energy import (
    CutoffConfig,
    ProblemSpec,
    cutoff_argument,
    deviation_check,
    energy,
    energy_gradient,
    modified_energy,
    modified_energy_gradient,
)
from .solve import NewtonConfig, newton_solve, residual, verify_critical
from .space import (
    FieldPair,
    apply_coupling,
    coupling_eigenvector,
    coupling_form,
    eigenvector_coordinates,
    from_eigenvector_coordinates,
    pair_inner,
    pair_norm,
    split_pair,
)


class CheckResult(NamedTuple):
    """One check's outcome; the fields are the CSV columns."""

    name: str
    passed: bool
    detail: str


def _random_pair(basis, r, rng, scale=1.0) -> FieldPair:
    n = basis.size
    u = SpectralField(basis, scale * rng.standard_normal(n))
    v = SpectralField(basis, scale * rng.standard_normal(n))
    return FieldPair(u, v, r)


def check_operator_algebra(seed: int = 0) -> CheckResult:
    """Involution, self-adjointness, eigenbasis orthonormality and completeness,
    split identities; tolerance 1e-12 relative to scale."""
    rng = np.random.default_rng(seed)
    domain = BoxDomain((math.pi,))
    basis = enumerate_basis(domain, 48)
    tol = 1e-12
    worst = 0.0
    for _ in range(100):
        r = float(rng.choice([0.5, 1.0, 1.5]))
        z = _random_pair(basis, r, rng)
        w = _random_pair(basis, r, rng)
        scale = max(1.0, pair_norm(z) ** 2, pair_norm(w) ** 2)
        lz = apply_coupling(z)
        llz = apply_coupling(lz)
        worst = max(
            worst,
            max(
                np.abs(llz.u.coeffs - z.u.coeffs).max(),
                np.abs(llz.v.coeffs - z.v.coeffs).max(),
            )
            / scale,
        )
        worst = max(
            worst,
            abs(pair_inner(lz, w) - pair_inner(z, apply_coupling(w))) / scale,
        )
        parts = split_pair(z)
        rebuilt = parts.plus + parts.minus
        worst = max(worst, np.abs(rebuilt.u.coeffs - z.u.coeffs).max() / scale)
        worst = max(worst, abs(pair_inner(parts.plus, parts.minus)) / scale)
        worst = max(
            worst,
            abs(
                coupling_form(parts.plus)
                - coupling_form(parts.minus)
                - 0.5 * pair_norm(z) ** 2
            )
            / scale,
        )
        worst = max(
            worst,
            abs(
                coupling_form(parts.plus)
                + coupling_form(parts.minus)
                - coupling_form(z)
            )
            / scale,
        )
        again = split_pair(parts.plus)
        worst = max(worst, pair_norm(again.minus) / scale)  # projector idempotence
        ap, am = eigenvector_coordinates(z)
        back = from_eigenvector_coordinates(basis, r, ap, am)
        worst = max(worst, np.abs(back.u.coeffs - z.u.coeffs).max() / scale)
        worst = max(worst, np.abs(back.v.coeffs - z.v.coeffs).max() / scale)
    for r in (0.5, 1.0, 1.5):
        vecs = [
            coupling_eigenvector(basis, k, s, r)
            for k in range(1, 13)
            for s in (+1, -1)
        ]
        for i, a in enumerate(vecs):
            for j, b in enumerate(vecs):
                expected = 1.0 if i == j else 0.0
                worst = max(worst, abs(pair_inner(a, b) - expected))
    passed = bool(worst < tol)
    return CheckResult(
        "operator_algebra", passed, f"worst error {float(worst)!r} (tol {tol!r})"
    )


def check_transforms(seed: int = 0) -> CheckResult:
    """Transform roundtrip, Parseval against grid quadrature, fractional
    semigroup, spectral tail bound, eigenvalue growth."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    tol = 1e-12
    for lengths in [(math.pi,), (math.pi, 1.7), (1.0, 2.0, 0.8)]:
        basis = enumerate_basis(BoxDomain(lengths), 18 if len(lengths) < 3 else 12)
        n = basis.size
        f = SpectralField(basis, rng.standard_normal(n))
        g = SpectralField(basis, rng.standard_normal(n))
        fine = basis.grid_tables(grid_shape(basis, 4))
        back = fine.pairings(fine.evaluate(f.coeffs))
        worst = max(worst, np.abs(back - f.coeffs).max())
        coarse = basis.grid_tables(grid_shape(basis, 2))
        quad = float(coarse.integrate(coarse.evaluate(f.coeffs) * coarse.evaluate(g.coeffs)))
        worst = max(worst, abs(quad - l2_inner(f, g)) / max(1.0, abs(quad)))
        comp = frac_laplacian(frac_laplacian(f, 0.7), -0.3)
        direct = frac_laplacian(f, 0.4)
        scale = max(1.0, np.abs(direct.coeffs).max())
        worst = max(worst, np.abs(comp.coeffs - direct.coeffs).max() / scale)
        for r in (0.5, 1.0, 1.5):
            k0 = n // 2
            tail_coeffs = np.zeros(n)
            tail_coeffs[k0 - 1 :] = rng.standard_normal(n - k0 + 1)
            tail = SpectralField(basis, tail_coeffs)
            lam_k = basis.eigenvalues[k0 - 1]
            bound = lam_k ** (-r / 2.0) * sobolev_norm(tail, r)
            l2 = sobolev_norm(tail, 0.0)
            worst = max(worst, max(0.0, l2 - bound) / max(1.0, l2))
            single = SpectralField.unit(basis, k0)
            worst = max(
                worst,
                abs(
                    sobolev_norm(single, 0.0)
                    - lam_k ** (-r / 2.0) * sobolev_norm(single, r)
                ),
            )
        if eigenvalue_growth_constant(basis) <= 0.0:
            worst = math.inf
    passed = bool(worst < tol)
    return CheckResult("transforms", passed, f"worst error {float(worst)!r} (tol {tol!r})")


def _fd_check(spec: ProblemSpec, cutoff: CutoffConfig, z, w, eps: float) -> tuple[float, float]:
    e_plus = energy(z + eps * w, spec)
    e_minus = energy(z - eps * w, spec)
    g = energy_gradient(z, spec).pairing(w)
    err_e = abs((e_plus - e_minus) / (2.0 * eps) - g) / (1.0 + abs(g))
    j_plus = modified_energy(z + eps * w, spec, cutoff)
    j_minus = modified_energy(z - eps * w, spec, cutoff)
    gj = modified_energy_gradient(z, spec, cutoff).grad.pairing(w)
    err_j = abs((j_plus - j_minus) / (2.0 * eps) - gj) / (1.0 + abs(gj))
    return err_e, err_j


def check_gradient_fidelity(seed: int = 0) -> CheckResult:
    """Central differences against both gradients, eps 1e-5, tolerance 1e-6;
    includes points inside the bump transition where the corrections bite."""
    rng = np.random.default_rng(seed)
    domain = BoxDomain((math.pi,))
    spec = ProblemSpec.create(
        domain, n=12, r=1.1, p=2.5, q=3.2, h=[0.05], k=[0.03, 0.02]
    )
    cutoff = CutoffConfig.default_for(spec)
    lam = spec.basis.eigenvalues
    eps = 1e-5
    tol = 1e-6
    worst = 0.0
    for _ in range(50):
        scale = 10.0 ** rng.uniform(-0.5, 0.5)
        z = FieldPair(
            SpectralField(spec.basis, scale * lam**-0.5 * rng.standard_normal(spec.n)),
            SpectralField(spec.basis, scale * lam**-0.5 * rng.standard_normal(spec.n)),
            spec.r,
        )
        w = _random_pair(spec.basis, spec.r, rng)
        worst = max(worst, *_fd_check(spec, cutoff, z, w, eps))
    # transition band: rescale a reference direction until theta lands in (1, 2)
    base = FieldPair(
        SpectralField(spec.basis, lam**-0.5 * np.ones(spec.n)),
        SpectralField(spec.basis, lam**-0.5 * np.ones(spec.n)),
        spec.r,
    )
    found = 0
    for t in np.linspace(0.2, 6.0, 600):
        z = t * base
        theta = cutoff_argument(z, spec, cutoff)
        if 1.05 < theta < 1.95:
            mg = modified_energy_gradient(z, spec, cutoff)
            if mg.quad_correction == 0.0 or mg.nonlin_correction == 0.0:
                return CheckResult(
                    "gradient_fidelity", False,
                    "cutoff corrections vanished inside the transition band",
                )
            w = _random_pair(spec.basis, spec.r, rng)
            worst = max(worst, *_fd_check(spec, cutoff, z, w, eps))
            found += 1
            if found >= 5:
                break
    passed = bool(worst < tol) and found >= 5
    return CheckResult(
        "gradient_fidelity",
        passed,
        f"worst relative error {float(worst)!r} over 50+{found} points (tol {tol!r})",
    )


def check_functional_structure(seed: int = 0) -> CheckResult:
    """Evenness without forcing, cutoff plateaus, deviation inequality basics."""
    rng = np.random.default_rng(seed)
    domain = BoxDomain((math.pi,))
    sym = ProblemSpec.create(domain, n=10, r=1.0, p=3.0, q=3.0)
    pert = sym.with_forcing(h=[0.1], k=[0.2])
    cutoff = CutoffConfig.default_for(pert)
    worst = 0.0
    for _ in range(40):
        z = _random_pair(sym.basis, sym.r, rng, scale=10.0 ** rng.uniform(-1, 1))
        if energy(z, sym) != energy(-z, sym):  # bit-exact evenness
            worst = max(worst, abs(energy(z, sym) - energy(-z, sym)))
        if modified_energy(z, sym, cutoff) != energy(z, sym):
            worst = max(
                worst, abs(modified_energy(z, sym, cutoff) - energy(z, sym))
            )
        # oddness of the forcing term, at unit scale (the identity cancels the
        # large even part, so huge points only measure its roundoff)
        z1 = _random_pair(sym.basis, sym.r, rng)
        gap = energy(z1, pert) - energy(-z1, pert)
        expected = -2.0 * (
            float(np.dot(pert.k.coeffs, z1.u.coeffs))
            + float(np.dot(pert.h.coeffs, z1.v.coeffs))
        )
        worst = max(worst, abs(gap - expected) / max(1.0, abs(expected)))
        theta = cutoff_argument(z, pert, cutoff)
        mg = modified_energy_gradient(z, pert, cutoff)
        if theta <= 1.0:
            g = energy_gradient(z, pert)
            worst = max(
                worst,
                max(
                    np.abs(mg.grad.du - g.du).max(),
                    np.abs(mg.grad.dv - g.dv).max(),
                )
                / max(1.0, g.norm()),
            )
            worst = max(
                worst,
                abs(modified_energy(z, pert, cutoff) - energy(z, pert))
                / max(1.0, abs(energy(z, pert))),
            )
        dev = deviation_check(z, sym, cutoff, beta=1.0)
        worst = max(worst, dev.asymmetry)  # symmetric problem: exactly zero
    passed = bool(worst < 1e-12)
    return CheckResult(
        "functional_structure", passed, f"worst error {float(worst)!r} (tol 1e-12)"
    )


def check_region_closed_forms(seed: int = 0) -> CheckResult:
    """Intercepts at q=1, balance identity, threshold ordering, swap symmetry."""
    rng = np.random.default_rng(seed)
    tol = 1e-12
    worst = 0.0
    for N in range(5, 13):
        worst = max(
            worst, abs(region.hyperbola_boundary_p(1.0, N) - (N + 4.0) / (N - 4.0))
        )
        worst = max(
            worst,
            abs(
                region.multiplicity_boundary_p(1.0, N)
                - (3.0 * N + 4.0) / (3.0 * N - 4.0)
            ),
        )
    for _ in range(2000):
        N = int(rng.integers(3, 11))
        pt = _random_subcritical(rng, N)
        th = region.r_thresholds(pt)
        q1, p1, _ = region.growth_exponents(pt, th.balanced)
        worst = max(worst, abs(q1 - p1))
        window = region.admissible_r_interval(pt)
        if not (window[0] < th.balanced < window[1]):
            worst = math.inf
        swapped = region.PQPoint(p=pt.q, q=pt.p, N=N)
        if region.in_multiplicity_region(pt) != region.in_multiplicity_region(swapped):
            worst = math.inf
        same = region.PQPoint(p=pt.p, q=pt.p, N=N)
        worst = max(worst, abs(region.r_thresholds(same).balanced - 1.0))
    passed = bool(worst < tol)
    return CheckResult(
        "region_closed_forms", passed, f"worst error {float(worst)!r} (tol {tol!r})"
    )


def check_region_equivalence(seed: int = 0) -> CheckResult:
    """Strict region membership against growth-rate feasibility at the best r."""
    rng = np.random.default_rng(seed)
    disagreements = 0
    tested = 0
    for _ in range(2000):
        N = int(rng.integers(3, 11))
        pt = _random_subcritical(rng, N)
        if abs(region.multiplicity_margin(pt)) < 1e-9:
            continue
        tested += 1
        best = region.optimal_r(pt)
        if region.in_multiplicity_region(pt) != best.feasible:
            disagreements += 1
    passed = disagreements == 0
    return CheckResult(
        "region_equivalence",
        passed,
        f"{disagreements} disagreements on {tested} points",
    )


def _random_subcritical(rng: np.random.Generator, N: int) -> region.PQPoint:
    """Sample (p, q) strictly below the dividing hyperbola with a margin.

    Exponents stay at least 1e-3 above 1: closer in, the growth-exponent
    formulas are exact but carry a (q+1)/(q-1) condition number that would
    only measure roundoff, not correctness.
    """
    crit = (N - 2.0) / N
    edge = 0.5 - 2.5e-4  # keeps 1/(a or b) - 1 above roughly 1 + 1e-3
    lo_a = max(1e-6, crit - edge + 1e-6)
    a = rng.uniform(lo_a, edge)
    b_lo = max(1e-6, crit - a + 1e-6)
    b = rng.uniform(b_lo, edge)
    return region.PQPoint(p=1.0 / a - 1.0, q=1.0 / b - 1.0, N=N)


def check_solver_basics(seed: int = 0) -> CheckResult:
    """Ground-state solve, critical diagnostics, and the exact oddness of the
    forcing-free gradient, by which find_branch stores -z as a solution."""
    domain = BoxDomain((math.pi,))
    spec = ProblemSpec.create(domain, n=16, r=1.0, p=3.0, q=3.0)
    config = NewtonConfig()
    rng = np.random.default_rng(seed)
    z = _random_pair(spec.basis, spec.r, rng)
    grad, mirrored_grad = energy_gradient(z, spec), energy_gradient(-z, spec)
    if not (
        np.array_equal(mirrored_grad.du, -grad.du)
        and np.array_equal(mirrored_grad.dv, -grad.dv)
    ):
        return CheckResult("solver_basics", False, "gradient at -z is not exactly -gradient")
    mode = SpectralField.unit(spec.basis, 1)
    result = newton_solve(FieldPair(2.0 * mode, 2.0 * mode, spec.r), spec, config)
    if not result.converged or result.residual_norm > config.tol:
        return CheckResult("solver_basics", False, "ground-state Newton failed")
    mirrored = residual(-result.z, spec).norm()
    report = verify_critical(result.z, spec)
    passed = (
        mirrored <= config.tol
        and report.cutoff_weight == 1.0
        and abs(report.energy_gap) < 1e-12
        and report.bound_ok
    )
    detail = (
        f"residual {result.residual_norm!r}, mirror residual {mirrored!r}, "
        f"energy {report.energy!r}"
    )
    return CheckResult("solver_basics", passed, detail)


ALL_CHECKS = (
    check_operator_algebra,
    check_transforms,
    check_gradient_fidelity,
    check_functional_structure,
    check_region_closed_forms,
    check_region_equivalence,
    check_solver_basics,
)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [check(seed=seed) for check in ALL_CHECKS]
