"""Energy functionals for the coupled system, with the symmetry-repair cutoff.

The unmodified energy of a pair z = (u, v) is

    E(z) = form(z) - 1/(q+1) int |u|^(q+1) - 1/(p+1) int |v|^(p+1)
           - int k u - int h v,

where form is the gradient-coupling quadratic form and h, k are the forcing
fields (h enters the u-equation of the system and therefore pairs with v in
the energy; k pairs with u).  Critical points of E solve the system.

Since the forcing breaks evenness, a modified energy switches the forcing
term off, via a smooth bump applied to a scale-normalized size of the
nonlinear part, wherever an a-priori bound (valid at critical points) fails.
Large critical values of the modified energy are then critical values of E.
All integrals are uniform-grid quadratures on the oversampled collocation
grid, and the gradients returned are the exact derivatives of those discrete
values, so finite differences close to machine precision.

Every quantity is read from one Evaluation, of a point or of a stack of
points, which synthesizes u and v once (u alone on the diagonal, at p = q
with u and v bitwise equal, where v's values are u's) and computes the
rest on first use:
the energies and cutoff terms, the weights |u|^(q-1) and |v|^(p-1), both
gradients and the modified energy at -z, each by one formula for both
shapes, and a point's deviation pair.  The Newton residual energy_gradient
is the gradient of Evaluation.at(z, spec); the Newton step builds its
Jacobian's blocks from the weights (see solve._schur).  The level brackets
evaluate stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import region
from .basis import (
    BoxDomain,
    GridTables,
    SineBasis,
    SpectralField,
    _row_dots,
    enumerate_basis,
    grid_shape,
    sobolev_norm,
)
from .space import FieldPair


@dataclass(frozen=True)
class ProblemSpec:
    """Data of one boundary-value problem: domain, truncation, exponents, forcing."""

    domain: BoxDomain
    basis: SineBasis
    r: float
    p: float
    q: float
    h: SpectralField
    k: SpectralField
    oversample: int = 4

    def __post_init__(self) -> None:
        for name in ("p", "q", "r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite (got {getattr(self, name)})")
        if self.p <= 1.0:
            raise ValueError(f"p must exceed 1 (got {self.p})")
        if self.q <= 1.0:
            raise ValueError(f"q must exceed 1 (got {self.q})")
        if not 0.0 < self.r < 2.0:
            raise ValueError(f"r must lie in (0, 2), got {self.r}")
        if self.oversample < 1:
            raise ValueError(f"oversample must be at least 1, got {self.oversample}")
        dim = self.domain.dim
        if dim >= 3:
            pt = region.PQPoint(p=self.p, q=self.q, N=dim)
            window = region.admissible_r_interval(pt)
            if window is None:
                raise ValueError(
                    f"no admissible r exists for p={self.p}, q={self.q}, N={dim} "
                    "(point on or above the dividing hyperbola)"
                )
            if not window[0] < self.r < window[1]:
                raise ValueError(
                    f"r={self.r} outside the admissible interval "
                    f"({window[0]}, {window[1]}) for p={self.p}, q={self.q}, N={dim}"
                )
        if self.h.basis != self.basis or self.k.basis != self.basis:
            raise ValueError("forcing fields must live on the problem basis")

    @property
    def n(self) -> int:
        return self.basis.size

    @cached_property
    def tables(self) -> GridTables:
        """The basis's grid tables on the problem's collocation grid."""
        return self.basis.grid_tables(grid_shape(self.basis, self.oversample))

    @staticmethod
    def create(
        domain: BoxDomain,
        n: int,
        r: float,
        p: float,
        q: float,
        h=None,
        k=None,
        oversample: int = 4,
    ) -> "ProblemSpec":
        """Build a spec; h and k may be coefficient sequences (zero-padded) or None."""
        basis = enumerate_basis(domain, n)
        return ProblemSpec(
            domain=domain,
            basis=basis,
            r=float(r),
            p=float(p),
            q=float(q),
            h=_as_field(h, basis),
            k=_as_field(k, basis),
            oversample=oversample,
        )

    def with_forcing(self, h, k) -> "ProblemSpec":
        return replace(self, h=_as_field(h, self.basis), k=_as_field(k, self.basis))

    def scaled_forcing(self, t: float) -> "ProblemSpec":
        return replace(self, h=self.h * t, k=self.k * t)

    def is_symmetric(self) -> bool:
        return not (np.any(self.h.coeffs) or np.any(self.k.coeffs))

    def zero_pair(self) -> FieldPair:
        return FieldPair.zero(self.basis, self.r)


def _as_field(data, basis: SineBasis) -> SpectralField:
    if data is None:
        return SpectralField.zero(basis)
    if isinstance(data, SpectralField):
        if data.basis != basis:
            raise ValueError("forcing field lives on a different basis")
        return data
    coeffs = np.zeros(basis.size)
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or data.size > basis.size:
        raise ValueError(
            f"forcing coefficients must be a vector of length <= {basis.size}"
        )
    coeffs[: data.size] = data
    return SpectralField(basis, coeffs)


@dataclass(frozen=True)
class CutoffConfig:
    """Scale constant for the a-priori bound behind the symmetry-repair cutoff.

    The bump argument is normalized by 2 * bound_constant * sqrt(E^2 + 1); at
    critical points the nonlinear part is at most bound_constant * sqrt(E^2+1),
    which parks the argument in [0, 1/2] where the bump equals one.
    """

    bound_constant: float

    def __post_init__(self) -> None:
        if not 0.0 < self.bound_constant < math.inf:
            raise ValueError(
                f"bound constant must be positive and finite, got {self.bound_constant}"
            )

    @staticmethod
    def default_for(spec: ProblemSpec) -> "CutoffConfig":
        """Default constant max(1, 4(|h|_2 + |k|_2)), which raises ValueError
        where it overflows; override as needed."""
        h, k = sobolev_norm(spec.h, 0.0), sobolev_norm(spec.k, 0.0)
        if 4.0 * (h + k) == math.inf:
            raise ValueError(
                f"the forcing norms |h|_2 = {h}, |k|_2 = {k} give no finite default "
                "cutoff bound constant 4 (|h|_2 + |k|_2); set cutoff.bound_constant"
            )
        return CutoffConfig(bound_constant=max(1.0, 4.0 * (h + k)))


def bump(t):
    """C^2 plateau bump, elementwise: 1 on t <= 1, 0 on t >= 2, quintic
    smoothstep between."""
    x = np.clip(np.asarray(t) - 1.0, 0.0, 1.0)
    return _value(1.0 - x * x * x * (10.0 - 15.0 * x + 6.0 * x * x))


def bump_derivative(t):
    """Derivative of the bump, elementwise: in (-15/8, 0) on (1, 2), 0 outside."""
    x = np.clip(np.asarray(t) - 1.0, 0.0, 1.0)
    return _value(-30.0 * x * x * (1.0 - x) * (1.0 - x))


@dataclass
class DualGradient:
    """Partial derivatives of a functional in coefficient coordinates.

    du holds the partials against the u-coefficients, dv against the
    v-coefficients; this is the dual-pairing convention, not the Riesz
    representative of the product space.
    """

    du: np.ndarray
    dv: np.ndarray

    def norm(self):
        """The Euclidean norm, or along a leading rows axis each row's."""
        return _value(np.sqrt(_row_dots(self.du, self.du) + _row_dots(self.dv, self.dv)))

    def pairing(self, w: FieldPair) -> float:
        """Directional derivative against a test pair."""
        return float(np.dot(self.du, w.u.coeffs) + np.dot(self.dv, w.v.coeffs))


def _value(x):
    """A Python float or bool for one point, the array for a stack."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def _hypot1(e):
    """sqrt(E^2 + 1) elementwise, as |E| from |E| = 2^27 on: there
    fl(E E + 1) = fl(E E), whose root is |E| bit for bit, and E E may overflow."""
    size = np.abs(e)
    clipped = np.minimum(size, 2.0**27)
    return np.where(size >= 2.0**27, size, np.sqrt(clipped * clipped + 1.0))


# 64 KB per float array of one evaluated stack: larger stacks are no faster,
# and raise the peak RSS of a level search (by 9 MB for 221 rows of 2-D n = 64).
# The level ascents share a power-moment call between the two problems of a
# stage only while their rows fit this size.  On a 2-core x86-64 VM, shared
# 20-row calls in 2-D at n = 64 (arrays of 203 KiB) made that levels command
# 1.2 times slower: median 0.205 against 0.171 s, slower in 12 of 12
# alternating pairs of runs.  Whether glibc's 128 KiB mmap threshold is the
# cause is open: raising it by environment variable removed the slowdown in
# one series of runs and not in a later one.
_STACK_VALUES = 1 << 13


def _stack_rows(spec: ProblemSpec, extra: int = 0) -> int:
    """Rows per stack of about _STACK_VALUES grid values, plus `extra` per row."""
    return max(1, _STACK_VALUES // (spec.tables.points + extra))


class Evaluation:
    """Grid values of packed coefficients [u | v] (kept as vecs), of one point
    (2n,) or of a stack (rows, 2n), synthesized once; the energies, cutoff
    terms, weights, pairings and gradient are read from them on first use,
    by one formula for both shapes: each row of a stack bit for bit the
    point's own, a point's values Python floats.  The deviation pair is a
    point's only.  Only the forcing pairing is odd in z, so z's evaluation
    also gives the values at -z (see Evaluation.at).

    On the diagonal, at p = q with u and v bitwise equal in every row
    (`diagonal`), v's grid values, weight, pairings and power integral are
    u's, computed once: the same arithmetic on the same bits, so the values
    are those of computing both halves, bit for bit."""

    def __init__(self, vecs: np.ndarray, spec: ProblemSpec):
        self.spec, self.vecs = spec, vecs
        self.u, self.v = vecs[..., : spec.n], vecs[..., spec.n :]
        self.diagonal = spec.p == spec.q and np.array_equal(
            self.u.view(np.int64), self.v.view(np.int64)
        )
        self.u_vals = spec.tables.evaluate(self.u)
        self.v_vals = self.u_vals if self.diagonal else spec.tables.evaluate(self.v)

    @classmethod
    def at(cls, z: FieldPair, spec: ProblemSpec) -> "Evaluation":
        """The evaluation of one point z, which must live on the problem's basis."""
        _check_point(z, spec)
        ev = cls(z.vec, spec)
        ev.z = z
        return ev

    def row(self, i: int) -> "Evaluation":
        """Row i of a stack as a one-point evaluation, sharing the grid values,
        weights and pairings already computed."""
        ev = Evaluation.__new__(Evaluation)
        ev.spec, ev.vecs, ev.u, ev.v = self.spec, self.vecs[i], self.u[i], self.v[i]
        ev.u_vals, ev.v_vals, ev.diagonal = self.u_vals[i], self.v_vals[i], self.diagonal
        for name in ("weights", "pairings"):
            if name in vars(self):
                setattr(ev, name, tuple(x[i] for x in getattr(self, name)))
        return ev

    @classmethod
    def stack(cls, points: list["Evaluation"]) -> "Evaluation":
        """One-point evaluations as the rows of one stack, the inverse of row:
        their grid values, and their weights where every point has them."""
        ev = cls.__new__(cls)
        ev.spec = spec = points[0].spec
        ev.vecs = np.array([point.vecs for point in points])
        ev.u, ev.v = ev.vecs[:, : spec.n], ev.vecs[:, spec.n :]
        ev.diagonal = all(point.diagonal for point in points)
        ev.u_vals = np.array([point.u_vals for point in points])
        ev.v_vals = ev.u_vals if ev.diagonal else np.array([point.v_vals for point in points])
        if all("weights" in vars(point) for point in points):
            ev.weights = tuple(map(np.array, zip(*(point.weights for point in points))))
        return ev

    @cached_property
    def z(self) -> FieldPair:
        """The point; built on first use for a row of a stack."""
        spec = self.spec
        return FieldPair(SpectralField(spec.basis, self.u), SpectralField(spec.basis, self.v), spec.r)

    @cached_property
    def terms(self):
        """The nonlinear part, the forcing-free energy and the forcing pairing."""
        spec, tables = self.spec, self.spec.tables
        tq = tables.integrate(np.abs(self.u_vals) ** (spec.q + 1.0)) / (spec.q + 1.0)
        tp = tq
        if not self.diagonal:
            tp = tables.integrate(np.abs(self.v_vals) ** (spec.p + 1.0)) / (spec.p + 1.0)
        form = _row_dots(spec.basis.eigenvalues * self.u, self.v)
        forcing = _row_dots(spec.k.coeffs, self.u) + _row_dots(spec.h.coeffs, self.v)
        return _value(tq + tp), _value(form - tq - tp), _value(forcing)

    @cached_property
    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid weights |u|^(q-1) and |v|^(p-1) of the power terms."""
        spec = self.spec
        wu = np.abs(self.u_vals) ** (spec.q - 1.0)
        return wu, wu if self.diagonal else np.abs(self.v_vals) ** (spec.p - 1.0)

    @cached_property
    def pairings(self) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature pairings of |u|^(q-1)u and |v|^(p-1)v against every mode."""
        tables, (wu, wv) = self.spec.tables, self.weights
        pu = tables.pairings(wu * self.u_vals)
        return pu, pu if self.diagonal else tables.pairings(wv * self.v_vals)

    def gradient(self) -> DualGradient:
        """The energy gradient at this point, or at each row (see energy_gradient)."""
        lam = self.spec.basis.eigenvalues
        pu, pv = self.pairings
        du = lam * self.v - pu - self.spec.k.coeffs
        dv = lam * self.u - pv - self.spec.h.coeffs
        return DualGradient(du=du, dv=dv)

    def cutoff_terms(self, cutoff: CutoffConfig, mirrored: bool = False):
        """Forcing pairing g, energy E, cutoff scale 2A s, cutoff argument and
        s = sqrt(E^2 + 1), at z or at -z."""
        nonlinear, symmetric, forcing = self.terms
        g = -forcing if mirrored else forcing
        e = symmetric - g
        s = _hypot1(e)
        scale = 2.0 * cutoff.bound_constant * s
        return g, e, _value(scale), _value(nonlinear / scale), _value(s)

    def modified_energy(self, cutoff: CutoffConfig, mirrored: bool = False):
        g, _, _, theta, _ = self.cutoff_terms(cutoff, mirrored)
        return self.terms[1] - bump(theta) * g

    def modified_gradient(self, cutoff: CutoffConfig) -> ModifiedGradient:
        """The modified energy's gradient; finite wherever E is (s is never squared)."""
        g, e, scale, theta, s = self.cutoff_terms(cutoff)
        psi, dchi = bump(theta), bump_derivative(theta)
        quad = dchi * theta * (e / s) * (g / s)
        nonlin = quad + dchi * g / scale
        # a column of factors for a stack, one-element arrays for a point
        a, b, c = (np.asarray(x)[..., None] for x in (1.0 + quad, 1.0 + nonlin, psi + quad))
        lam, spec = self.spec.basis.eigenvalues, self.spec
        pu, pv = self.pairings
        du = a * lam * self.v - b * pu - c * spec.k.coeffs
        dv = a * lam * self.u - b * pv - c * spec.h.coeffs
        return ModifiedGradient(DualGradient(du=du, dv=dv), quad, nonlin, psi)

    def deviation(self, cutoff: CutoffConfig, beta: float = 1.0) -> tuple[float, float]:
        """|J(z) - J(-z)| and beta (|J(z)|^(1/(q+1)) + |J(z)|^(1/(p+1)) + 1)
        at this point."""
        a, b = 1.0 / (self.spec.q + 1.0), 1.0 / (self.spec.p + 1.0)
        j_plus = self.modified_energy(cutoff)
        size = abs(j_plus)
        bound = beta * (size**a + size**b + 1.0)
        return abs(j_plus - self.modified_energy(cutoff, mirrored=True)), bound


def _check_point(z: FieldPair, spec: ProblemSpec) -> None:
    """Raise ValueError unless z lives on the problem's basis and r."""
    if z.basis != spec.basis:
        raise ValueError("point lives on a different basis than the problem")
    if z.r != spec.r:
        raise ValueError(f"point split parameter {z.r} differs from problem r {spec.r}")


def energy(z: FieldPair, spec: ProblemSpec) -> float:
    """The unmodified energy; even in z whenever the forcing vanishes."""
    _, symmetric, forcing = Evaluation.at(z, spec).terms
    return symmetric - forcing


def energy_gradient(z: FieldPair, spec: ProblemSpec) -> DualGradient:
    """Exact coefficient-space gradient of the discrete energy.

    du_k = lambda_k eta_k - <|u|^(q-1)u + k, phi_k>,
    dv_k = lambda_k xi_k  - <|v|^(p-1)v + h, phi_k>,

    the system residual that Newton drives to zero (solve.residual).
    """
    return Evaluation.at(z, spec).gradient()


def cutoff_argument(z: FieldPair, spec: ProblemSpec, cutoff: CutoffConfig) -> float:
    """Scale-normalized size of the nonlinear part (the bump argument)."""
    return Evaluation.at(z, spec).cutoff_terms(cutoff)[3]


def modified_energy(z: FieldPair, spec: ProblemSpec, cutoff: CutoffConfig) -> float:
    """Energy with the forcing term weighted by the cutoff.

    Coincides with the unmodified energy wherever the weight is 1, and with
    the symmetric (forcing-free) energy wherever the weight is 0.
    """
    return Evaluation.at(z, spec).modified_energy(cutoff)


@dataclass
class ModifiedGradient:
    """Gradient of the modified energy in the regrouped form.

    The derivative along w reads
        (1 + quad_correction) (Lz, w) - (1 + nonlin_correction) <powers, w>
        - (weight + quad_correction) <forcing, w>,
    with quad_correction = psi'(theta) theta (E/s) (g/s) and nonlin_correction
    = quad_correction + psi'(theta) g / (2A s), g the forcing pairing and
    s = sqrt(E^2 + 1); both vanish wherever the bump is flat, in particular
    for vanishing forcing and on the weight-1 plateau.  Arrays for a stack.
    """

    grad: DualGradient
    quad_correction: float
    nonlin_correction: float
    weight: float


def modified_energy_gradient(
    z: FieldPair, spec: ProblemSpec, cutoff: CutoffConfig
) -> ModifiedGradient:
    """Exact gradient of the discrete modified energy."""
    return Evaluation.at(z, spec).modified_gradient(cutoff)


@dataclass
class DeviationResult:
    """Both sides of the symmetry-deviation inequality at one point."""

    holds: bool
    asymmetry: float  # |J(z) - J(-z)|
    bound: float      # beta (|J(z)|^(1/(q+1)) + |J(z)|^(1/(p+1)) + 1)


def deviation_check(
    z: FieldPair, spec: ProblemSpec, cutoff: CutoffConfig, beta: float
) -> DeviationResult:
    """Evaluate |J(z) - J(-z)| against beta (|J|^(1/(q+1)) + |J|^(1/(p+1)) + 1)."""
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    asymmetry, bound = Evaluation.at(z, spec).deviation(cutoff, beta)
    return DeviationResult(holds=asymmetry <= bound, asymmetry=asymmetry, bound=bound)
