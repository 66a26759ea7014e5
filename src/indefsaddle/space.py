"""The mixed-order product space, its coupling operator, and spectral splitting.

A pair (u, v) with split parameter r, 0 < r < 2, carries the norm

    |(u,v)|^2 = |u|_r^2 + |v|_{2-r}^2,

where |.|_s is the fractional Sobolev norm of order s.  The gradient-coupling
form integral(grad u . grad v) = sum_k lambda_k xi_k eta_k extends to a
bounded self-adjoint operator on this space,

    (u, v) -> ((-Lap)^(1-r) v, (-Lap)^(r-1) u),

an involution with eigenvalues +-1.  Its unit eigenvectors

    e_k(+-) = (lambda_k^(-r/2) phi_k, +- lambda_k^(r/2-1) phi_k) / sqrt(2)

form an orthonormal basis, and the +-1 eigenprojections are (id +- L)/2.

The packed coefficients [u | v] of a pair (FieldPair.vec) and the one
formula of the norm on them, a dot weighted by [lambda^r | lambda^(2-r)],
live here; the solver's distances and level-ball norms use them as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import SineBasis, SpectralField, _row_dots


@dataclass(frozen=True, eq=False)
class FieldPair:
    """A point (u, v) of the product space with split parameter r."""

    u: SpectralField
    v: SpectralField
    r: float

    def __post_init__(self) -> None:
        if self.u.basis != self.v.basis:
            raise ValueError("pair components live on different bases")
        if not 0.0 < self.r < 2.0:
            raise ValueError(f"split parameter must satisfy 0 < r < 2, got {self.r}")

    @property
    def basis(self) -> SineBasis:
        return self.u.basis

    @cached_property
    def vec(self) -> np.ndarray:
        """The packed coefficients [u | v], read-only."""
        vec = np.concatenate([self.u.coeffs, self.v.coeffs])
        vec.setflags(write=False)
        return vec

    @staticmethod
    def zero(basis: SineBasis, r: float) -> "FieldPair":
        z = SpectralField.zero(basis)
        return FieldPair(z, z, r)

    def _check_compatible(self, other: "FieldPair") -> None:
        if self.basis != other.basis:
            raise ValueError("pairs live on different bases")
        if self.r != other.r:
            raise ValueError(f"pairs have different split parameters {self.r} != {other.r}")

    def __add__(self, other: "FieldPair") -> "FieldPair":
        self._check_compatible(other)
        return FieldPair(self.u + other.u, self.v + other.v, self.r)

    def __sub__(self, other: "FieldPair") -> "FieldPair":
        self._check_compatible(other)
        return FieldPair(self.u - other.u, self.v - other.v, self.r)

    def __mul__(self, scalar: float) -> "FieldPair":
        return FieldPair(self.u * scalar, self.v * scalar, self.r)

    __rmul__ = __mul__

    def __neg__(self) -> "FieldPair":
        return FieldPair(-self.u, -self.v, self.r)


@dataclass(frozen=True)
class SplitPair:
    """Decomposition z = plus + minus into the +-1 eigenspaces of the coupling."""

    plus: FieldPair
    minus: FieldPair


def _weights(basis: SineBasis, r: float) -> np.ndarray:
    """The metric weights [lambda^r | lambda^(2-r)] of packed coefficients."""
    return np.concatenate([basis.eigenvalues**r, basis.eigenvalues ** (2.0 - r)])


def _metric_dots(x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Product-space inner products of packed x and y, row by row over any
    leading axes; x = y gives the squared norms."""
    return _row_dots(weights * x, y)


def pair_norm(z: FieldPair) -> float:
    """Product-space norm sqrt(|u|_r^2 + |v|_{2-r}^2)."""
    return math.sqrt(pair_inner(z, z))


def pair_inner(z: FieldPair, w: FieldPair) -> float:
    """Product-space inner product sum lam^r xi xi' + lam^(2-r) eta eta'."""
    z._check_compatible(w)
    return float(_metric_dots(z.vec, w.vec, _weights(z.basis, z.r)))


def apply_coupling(z: FieldPair) -> FieldPair:
    """Apply the self-adjoint involution ((-Lap)^(1-r) v, (-Lap)^(r-1) u)."""
    lam = z.basis.eigenvalues
    u_new = SpectralField(z.basis, lam ** (1.0 - z.r) * z.v.coeffs)
    v_new = SpectralField(z.basis, lam ** (z.r - 1.0) * z.u.coeffs)
    return FieldPair(u_new, v_new, z.r)


def coupling_form(z: FieldPair) -> float:
    """The quadratic form integral(grad u . grad v) = sum_k lambda_k xi_k eta_k.

    Equals half the inner product of the coupled point with the point itself.
    """
    lam = z.basis.eigenvalues
    return float(np.dot(lam * z.u.coeffs, z.v.coeffs))


def coupling_eigenvector(basis: SineBasis, rank: int, sign: int, r: float) -> FieldPair:
    """Unit eigenvector of the coupling operator at the given rank and sign."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if not 1 <= rank <= basis.size:
        raise ValueError(f"rank {rank} outside 1..{basis.size}")
    lam = float(basis.eigenvalues[rank - 1])
    u = np.zeros(basis.size)
    v = np.zeros(basis.size)
    u[rank - 1] = lam ** (-r / 2.0) / np.sqrt(2.0)
    v[rank - 1] = sign * lam ** (r / 2.0 - 1.0) / np.sqrt(2.0)
    return FieldPair(SpectralField(basis, u), SpectralField(basis, v), r)


def split_pair(z: FieldPair) -> SplitPair:
    """Project onto the +-1 eigenspaces: plus = (z + Lz)/2, minus = (z - Lz)/2.

    The parts are orthogonal, reconstruct z exactly, and the coupling form
    splits as form(z) = form(plus) + form(minus) with
    form(plus) - form(minus) = |z|^2 / 2.
    """
    lz = apply_coupling(z)
    plus = FieldPair(
        (z.u + lz.u) * 0.5,
        (z.v + lz.v) * 0.5,
        z.r,
    )
    minus = FieldPair(
        (z.u - lz.u) * 0.5,
        (z.v - lz.v) * 0.5,
        z.r,
    )
    return SplitPair(plus=plus, minus=minus)


def eigenvector_coordinates(z: FieldPair) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of z against the +-1 eigenvector basis.

    Returns (a_plus, a_minus) with
    a_k(+-) = (lam_k^(r/2) xi_k +- lam_k^(1-r/2) eta_k) / sqrt(2).
    """
    lam = z.basis.eigenvalues
    su = lam ** (z.r / 2.0) * z.u.coeffs
    sv = lam ** (1.0 - z.r / 2.0) * z.v.coeffs
    return (su + sv) / np.sqrt(2.0), (su - sv) / np.sqrt(2.0)


def from_eigenvector_coordinates(
    basis: SineBasis, r: float, a_plus: np.ndarray, a_minus: np.ndarray
) -> FieldPair:
    """Rebuild a pair from its +-1 eigenvector coordinates, n of each;
    coordinates of another shape raise ValueError."""
    n = basis.size
    for name, coords in (("a_plus", a_plus), ("a_minus", a_minus)):
        if np.shape(coords) != (n,):
            raise ValueError(f"{name} must have {n} entries, got shape {np.shape(coords)}")
    vec = _vecs_from_coordinates(basis, r, a_plus, a_minus)
    return FieldPair(SpectralField(basis, vec[:n]), SpectralField(basis, vec[n:]), r)


def _vecs_from_coordinates(
    basis: SineBasis, r: float, a_plus: np.ndarray, a_minus: np.ndarray
) -> np.ndarray:
    """The packed coefficients [u | v] with these +-1 eigenvector
    coordinates, one packed row per row of a stack."""
    lam = basis.eigenvalues
    su = (np.asarray(a_plus, dtype=float) + np.asarray(a_minus, dtype=float)) / np.sqrt(2.0)
    sv = (np.asarray(a_plus, dtype=float) - np.asarray(a_minus, dtype=float)) / np.sqrt(2.0)
    return np.concatenate([lam ** (-r / 2.0) * su, lam ** (r / 2.0 - 1.0) * sv], axis=-1)
