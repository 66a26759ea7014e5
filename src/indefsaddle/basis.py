"""Dirichlet eigenbasis on boxes and its one grid kernel.

Eigenfunctions of the Dirichlet Laplacian on (0,L_1) x ... x (0,L_d) are
products of normalized sines,

    phi_m(x) = prod_i sqrt(2/L_i) * sin(m_i pi x_i / L_i),

with eigenvalues lambda_m = sum_i (m_i pi / L_i)^2.  A field is stored as a
coefficient vector against the first n of this family in (eigenvalue,
multi-index) order, enumerated from the hyperbolic cross prod(m) <= n, which
holds them all.  Fields are sampled on the interior tensor grid
x_j = j L/(G+1), where the uniform-weight quadrature

    integral f  ~=  prod_i (L_i/(G_i+1)) * sum_j f(x_j)

is exact for products of two resolved modes (such a product extends to an
even trigonometric polynomial sampled over a full period, and all of the
integrands used in this package vanish on the boundary); GridTables.evaluate
and GridTables.pairings are therefore exact mutual inverses on resolved
modes.

Every grid sum goes through GridTables, the basis's per-axis sine and
cosine tables on one grid shape, contracted one axis at a time: the values,
the mode pairings and the Galerkin matrix of a multiplication operator, with
no dense evaluation matrix.

The reflections x_i -> L_i - x_i split the basis into parity classes, the
modes whose index m_i has a fixed parity on each axis.  On a grid axis of
even length G the reflection maps the grid onto itself, x_j to x_(G+1-j),
and

    phi_m(x_(G+1-j)) = sqrt(2/L) sin(m pi - m pi j/(G+1)) = (-1)^(m+1) phi_m(x_j),

so the grid values of a field of one class are even or odd under each
reflection, the same as its class's modes.  An odd power |u|^(q-1) u keeps
that parity and the weight |u|^(q-1) is even, so every pairing of such
values with a mode of another class is a sum of terms that cancel in
reflected pairs: the Galerkin gradient, and the Galerkin matrix of a weight
of one class's field, keep each class exactly, up to the roundoff of
summing the cancelling pairs.  A class is a SineBasis of its own (see
SineBasis.parity_class) on its parent's grid, whose tables are the
parent's read on the first half of each grid axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box (0,L_1) x ... x (0,L_d) with homogeneous Dirichlet data."""

    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        lengths = tuple(float(L) for L in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not 1 <= len(lengths) <= 3:
            raise ValueError(f"dim must be 1, 2 or 3, got {len(lengths)}")
        if any((not math.isfinite(L)) or L <= 0.0 for L in lengths):
            raise ValueError(f"side lengths must be positive and finite, got {lengths}")

    @property
    def dim(self) -> int:
        return len(self.lengths)


class SineBasis:
    """The first n Dirichlet eigenpairs of a box, sorted by eigenvalue, or
    one parity class of them.

    Ties are broken lexicographically in the multi-index, so enumeration is
    deterministic.  Equality and hashing go through the (lengths, grid
    resolution, multi-index) content.  The grid tables of each grid shape
    are built on first use and kept on the instance, so they live exactly
    as long as the basis, and so are the parity classes.  A class keeps its
    parent (parent), whose grid resolution (max_index) it shares, and its
    parity, m_i % 2 on each axis; a basis that is no class has neither.
    """

    def __init__(
        self,
        domain: BoxDomain,
        indices: np.ndarray | list[tuple[int, ...]],
        eigenvalues: np.ndarray | list[float],
        parent: "SineBasis | None" = None,
    ):
        self.domain = domain
        self.eigenvalues = np.array(eigenvalues, dtype=float)
        self.eigenvalues.setflags(write=False)
        self.indices = np.array(indices, dtype=int)
        self.indices.setflags(write=False)
        self.parent, self.parity = parent, None
        # largest mode index used along each axis; sets the minimal grid
        self.max_index = tuple(int(m) for m in self.indices.max(axis=0))
        if parent is not None:
            self.parity = tuple((self.indices[0] % 2).tolist())
            self.max_index = parent.max_index
        # the lengths fix the row width d, so the bytes fix the rows
        self._key = (domain.lengths, self.max_index, self.indices.tobytes())
        self._tables: dict[tuple[int, ...], GridTables] = {}
        self._classes: dict[int, tuple[SineBasis, np.ndarray]] = {}

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def parity_codes(self) -> np.ndarray:
        """Each mode's parity class as one integer, bit i set where m_i is odd."""
        return (self.indices % 2) @ (1 << np.arange(self.domain.dim))

    def parity_class(self, code: int) -> tuple["SineBasis", np.ndarray]:
        """The modes of one parity class (see parity_codes) as a basis on
        this basis's grid, and their positions in this basis.  ValueError if
        no mode has that parity."""
        if code not in self._classes:
            positions = np.flatnonzero(self.parity_codes == code)
            if not positions.size:
                raise ValueError(f"no mode of {self} has parity code {code}")
            basis = SineBasis(
                self.domain, self.indices[positions], self.eigenvalues[positions], parent=self
            )
            self._classes[code] = basis, positions
        return self._classes[code]

    def grid_tables(self, shape: tuple[int, ...]) -> "GridTables":
        """Separable evaluation tables on the grid of this shape."""
        if shape not in self._tables:
            self._tables[shape] = GridTables(self, shape)
        return self._tables[shape]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SineBasis) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"SineBasis(dim={self.domain.dim}, n={self.size})"


def enumerate_basis(domain: BoxDomain, n: int) -> SineBasis:
    """Enumerate the n smallest Dirichlet eigenpairs of the box.

    The eigenvalue never decreases when one index grows, in floats too (each
    rounding is monotone), so each of the first n indices in (eigenvalue,
    multi-index) order follows the prod(m) - 1 indices below it
    componentwise, and prod(m) <= n: the first n lie in the hyperbolic cross
    {m : prod(m) <= n}.  The cross is built in lexicographic order, its
    eigenvalues summed axis by axis from each axis's squares (m w)^2, and
    the n smallest, with every tie of the n-th, are sorted stably by
    eigenvalue, so ties are broken lexicographically, even where a long
    side's modes round to one value.  This is the order, bit for bit, of a
    walk over a heap seeded with (1, ..., 1) that pushes each popped index's
    successors one step along each axis.  A ValueError reports eigenvalues
    that leave the float range: a (pi/L)^2 that underflows to 0, or a square
    that overflows at an index that walk reaches, one of the first n or a
    successor of the first n - 1, or a pi/L that overflows itself (float
    division gives inf, whose square raises nothing).
    """
    if n < 1:
        raise ValueError(f"basis size must be at least 1, got {n}")
    lengths = domain.lengths
    waves = [math.pi / L for L in lengths]
    if not all(map(math.isfinite, waves)):
        raise ValueError(f"side lengths {lengths} give eigenvalues above the float range")
    tables = [_squares(w, n) for w in waves]
    if min(squares[0] for squares, _ in tables) == 0.0:
        raise ValueError(f"side lengths {lengths} give eigenvalues below the float range")
    # the cross in lexicographic order, one axis at a time: each partial
    # index (m_1, ..., m_i) is followed by m_(i+1) = 1 .. n // prod, and each
    # new entry keeps the position of its parent
    m = np.arange(1, n + 1)
    prod, values, steps = m, tables[0][0], [(None, m)]
    for squares, _ in tables[1:]:
        counts = n // prod
        parent = np.repeat(np.arange(len(prod)), counts)
        m = np.arange(1, len(parent) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
        steps.append((parent, m))
        with np.errstate(over="ignore"):  # a sum past the float range is inf, as in Python
            prod, values = prod[parent] * m, values[parent] + squares[m - 1]
    keep = np.flatnonzero(values <= np.partition(values, n - 1)[n - 1])
    order = keep[np.argsort(values[keep], kind="stable")[:n]]
    values = values[order]
    # the chosen indices, read from the last axis back to the first
    columns = []
    for parent, m in reversed(steps):
        columns.append(m[order])
        if parent is not None:
            order = parent[order]
    index = np.column_stack(columns[::-1])
    for column, (_, over) in zip(index.T, tables):
        # the walk computes the first n and the successors of the first n - 1
        if over[column - 1].any() or over[column[:-1]].any():
            raise ValueError(f"side lengths {lengths} give eigenvalues above the float range")
    return SineBasis(domain, index, values)


def _squares(w: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(m * w) ** 2 for m = 1..count by Python's float pow (numpy's x ** 2 is
    x * x, which differs from pow in the last bit), and the mask of those
    that overflow, which read inf."""
    squares, over = [], np.zeros(count, dtype=bool)
    for m in range(1, count + 1):
        try:
            squares.append((m * w) ** 2)
        except OverflowError:
            squares.append(math.inf)
            over[m - 1] = True
    return np.array(squares), over


def eigenvalue_growth_constant(basis: SineBasis) -> float:
    """Largest C with lambda_k >= C * k^(2/dim) over the enumerated range.

    The growth rate k^(2/dim) is exact for boxes; the constant depends on the
    side lengths and is reported rather than assumed (C = 1 on (0,pi)).
    """
    ranks = np.arange(1, basis.size + 1, dtype=float)
    return float(np.min(basis.eigenvalues / ranks ** (2.0 / basis.domain.dim)))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A function on the box, stored as coefficients against a SineBasis."""

    basis: SineBasis
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.shape != (self.basis.size,):
            raise ValueError(
                f"coefficient vector has shape {coeffs.shape}, "
                f"expected ({self.basis.size},)"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def zero(basis: SineBasis) -> "SpectralField":
        return SpectralField(basis, np.zeros(basis.size))

    @staticmethod
    def unit(basis: SineBasis, rank: int) -> "SpectralField":
        """The rank-th eigenfunction (1-based) as a field."""
        if not 1 <= rank <= basis.size:
            raise ValueError(f"rank {rank} outside 1..{basis.size}")
        coeffs = np.zeros(basis.size)
        coeffs[rank - 1] = 1.0
        return SpectralField(basis, coeffs)

    def _check_same_basis(self, other: "SpectralField") -> None:
        if self.basis != other.basis:
            raise ValueError("fields live on different bases")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_basis(other)
        return SpectralField(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_basis(other)
        return SpectralField(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.basis, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.basis, -self.coeffs)


def frac_laplacian(f: SpectralField, order: float) -> SpectralField:
    """Apply the spectral fractional Laplacian of the given order.

    Coefficientwise this is xi_k -> lambda_k^(order/2) * xi_k, i.e. the
    operator (-Laplacian)^(order/2).  Total on finite coefficient vectors for
    any real order, and additive in the order (a semigroup).
    """
    scale = f.basis.eigenvalues ** (order / 2.0)
    return SpectralField(f.basis, scale * f.coeffs)


def sobolev_norm(f: SpectralField, order: float) -> float:
    """Fractional Sobolev norm sqrt(sum_k lambda_k^order * xi_k^2).

    Equals the plain L2 norm of frac_laplacian(f, order); order 0 gives the
    Parseval L2 norm.
    """
    w = f.basis.eigenvalues ** order
    return float(np.sqrt(np.dot(w * f.coeffs, f.coeffs)))


def l2_inner(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product via Parseval: sum_k xi_k eta_k."""
    f._check_same_basis(g)
    return float(np.dot(f.coeffs, g.coeffs))


def grid_shape(basis: SineBasis, oversample: int) -> tuple[int, ...]:
    """Tensor collocation grid sizes: oversample times the max mode per axis."""
    if oversample < 1:
        raise ValueError(f"oversample must be at least 1, got {oversample}")
    return tuple(oversample * m for m in basis.max_index)


class GridTables:
    """Separable per-axis tables of one basis on one collocation grid.

    Along axis i with grid size G and largest mode M, the sine table holds
    sqrt(2/L) sin(pi j m/(G+1)) for j = 1..G, m = 1..M (G x M), and the
    cosine table cos(pi m j/(G+1)) for m = 0..2M (2M+1 x G).  Coefficients
    are packed into a tensor of the per-axis mode counts and contracted with
    the sine tables one axis at a time, which never forms the G^d x n
    evaluation matrix.  Since (2/L) sin(a t) sin(b t) = (1/L)[cos((a-b) t) -
    cos((a+b) t)] on each axis, the quadrature Galerkin matrix of a
    multiplication operator is a signed sum of 2^d gathers, at |a-b| and a+b
    per axis, from the cosine moments of the multiplier.  In 1-D it is
    Toeplitz minus Hankel, read from the moments through two strided views,
    with no index.  The gather indices of 2-D and 3-D are built once per
    basis and grid, on the first galerkin call, so that work with no
    Jacobian never holds them.

    The tables of a parity class are sliced from its parent's, with no new
    trigonometry, and read fields of the class only.  They cover the first
    half of each grid axis (the class's values on the second half are their
    mirror images, see the module docstring), so each axis's weight doubles;
    the sine tables keep the class's columns.  A multiplier of a class
    problem is even under every reflection, so its cosine moments at odd m
    vanish and those at even m are twice the half grid's: the cosine tables
    keep the even rows 0, 2, ..., 2M, the block scale doubles per axis, and
    the gathers read |a-b|/2 and (a+b)/2 (the "fold" 2), which are whole
    since a and b have one parity.  Each grid axis must have even length.

    evaluate and pairings take a stack of points along a leading rows axis;
    a coefficient vector, or one grid of values, is the one-point case.  Each
    row gets its own BLAS product, the one a single point gets (a stacked
    matmul), so a row's values never depend on the rows beside it: folding
    the rows into one matrix product, or einsum, sums in another order and
    moves the values at roundoff.
    """

    def __init__(self, basis: SineBasis, shape: tuple[int, ...]):
        lengths = basis.domain.lengths
        modes = basis.max_index
        if len(shape) != len(modes):
            raise ValueError(f"grid rank {len(shape)} does not match dim {len(modes)}")
        if any(G < M for G, M in zip(shape, modes)):
            raise ValueError(f"grid size {shape} is below the basis resolution {modes}")
        if basis.parent is None:
            self.fold = 1
            self.sines, self.cosines = [], []
            for L, G, M in zip(lengths, shape, modes):
                j = np.arange(1, G + 1)[:, None]
                m = np.arange(1, M + 1)[None, :]
                self.sines.append(math.sqrt(2.0 / L) * np.sin(math.pi * j * m / (G + 1)))
                k = np.arange(2 * M + 1)[:, None]
                self.cosines.append(np.cos(math.pi * k * j.T / (G + 1)))
        else:
            if any(G % 2 for G in shape):
                raise ValueError(f"a parity class needs grid axes of even length, got {shape}")
            parent = basis.parent.grid_tables(shape)
            self.fold = 2
            # mode m sits in column m - 1: odd modes from column 0, even from 1
            self.sines = [
                np.ascontiguousarray(table[: G // 2, 1 - odd :: 2])
                for table, G, odd in zip(parent.sines, shape, basis.parity)
            ]
            self.cosines = [
                np.ascontiguousarray(table[::2, : G // 2])
                for table, G in zip(parent.cosines, shape)
            ]
        scale = self.fold ** len(shape)
        # the sine tables' columns: the modes of the packed tensor per axis
        self.modes = tuple(table.shape[1] for table in self.sines)
        self.points = math.prod(len(table) for table in self.sines)
        self.weight = scale * math.prod(L / (G + 1) for L, G in zip(lengths, shape))
        # weight times the 1/L_i of each axis's product-to-sum identity
        self.block_scale = scale / math.prod(G + 1 for G in shape)
        self.indices = basis.indices
        # position of each basis mode in the packed tensor; in 1-D the basis
        # is its sine table's modes in order and the packed tensor is the
        # vector itself.  The 1-D path (slots None) gives the same bytes as
        # the general one but skips its scatter, reshapes and tensordot:
        # without it a branch-small pass (seed 3, pass 0) took 1.50-1.59 s
        # against 1.21-1.41 s (2-core x86-64 VM, 3 alternating rounds, min of 2)
        self.slots = (
            None if basis.domain.dim == 1
            else np.ravel_multi_index(tuple((self.indices.T - 1) // self.fold), self.modes)
        )

    @cached_property
    def gathers(self) -> list[tuple[bool, np.ndarray]]:
        """Sign and moment index of each gather, built on the first galerkin call."""
        rows = [len(table) for table in self.cosines]
        # C-order strides of the moment tensor, one axis per cosine table
        strides = [math.prod(rows[i + 1:]) for i in range(len(rows))]
        fold = self.fold
        per_axis = [
            (stride * (np.abs(a[:, None] - a[None, :]) // fold),
             stride * ((a[:, None] + a[None, :]) // fold))
            for a, stride in zip(self.indices.T, strides)
        ]
        # one gather per choice of |a-b| or a+b on each axis; each a+b
        # choice flips the sign, and the all-|a-b| gather comes first
        return [
            (sum(choice) % 2 == 0, sum(pair[c] for pair, c in zip(per_axis, choice)))
            for choice in product((0, 1), repeat=len(rows))
        ]

    def evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values of the field with these coefficients, one grid per row."""
        if self.slots is None:
            return np.matmul(self.sines[0], coeffs[..., None])[..., 0]
        lead = coeffs.shape[:-1]
        values = np.zeros((*lead, math.prod(self.modes)))
        values[..., self.slots] = coeffs
        return _contract(values, lead, self.modes, [table.T for table in self.sines])

    def pairings(self, values: np.ndarray) -> np.ndarray:
        """Quadrature pairings weight * sum_j values_j phi_k(x_j), every mode k,
        one vector per row."""
        if self.slots is None:
            return self.weight * np.matmul(self.sines[0].T, values[..., None])[..., 0]
        lead = values.shape[: values.ndim - len(self.modes)]
        values = _contract(values, lead, values.shape[len(lead):], self.sines)
        return self.weight * values.reshape(*lead, -1)[..., self.slots]

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Quadrature weight * sum_j values_j of the grid values, one per row."""
        lead = values.shape[: values.ndim - len(self.modes)]
        return self.weight * values.reshape(*lead, -1).sum(axis=-1)

    def galerkin(self, values: np.ndarray) -> np.ndarray:
        """Quadrature Galerkin matrix weight * sum_j values_j phi_a(x_j) phi_b(x_j),
        one C-contiguous matrix per row.

        Exactly symmetric: the gathers read the same moment at (a, b) and
        (b, a) and add them in the same order.  In 1-D the rows are one
        stack; in 2-D and 3-D each row is built alone and the matrices are
        stacked.
        """
        if self.slots is None:
            return self._toeplitz_minus_hankel(np.matmul(self.cosines[0], values[..., None])[..., 0])
        if values.ndim > len(self.modes):
            return np.stack([self.galerkin(row) for row in values])
        moments = values
        for table in self.cosines:
            moments = np.tensordot(moments, table, axes=(0, 1))
        moments = moments.ravel()
        (_, first), *rest = self.gathers
        block = moments[first]
        for positive, index in rest:
            if positive:
                block += moments[index]
            else:
                block -= moments[index]
        block *= self.block_scale
        return block

    def _toeplitz_minus_hankel(self, moments: np.ndarray) -> np.ndarray:
        """The 1-D blocks (m_|a-b| - m_(a+b)) * block_scale, for the modes
        a, b of the basis and each row of cosine moments m_0, m_1, ..., bit
        for bit the gathers' sum; in a class's moments, at the folded
        indices |a-b|/2 and (a+b)/2.  The i-th mode is i + 1 (modes 1..n) or
        2i + 1 and 2i + 2 (the two classes), so with h = (a_0 + a_0) / fold,
        2, 1 or 2, the Toeplitz part T[i, j] = e[n-1+j-i] and the Hankel
        part m[h+i+j] = e[n-1+h+i+j] of e = (m_(n-1), ..., m_1, m_0, m_1,
        ...) are strided views of e, so only the difference is written.
        The views are built by the ndarray constructor: as_strided takes
        about 7 us a view, four times as long."""
        n = self.modes[0]
        h = 2 * int(self.indices[0, 0]) // self.fold
        e = np.concatenate([moments[..., n - 1 : 0 : -1], moments], axis=-1)
        lead, step = e.shape[:-1], e.strides[-1]

        def view(start: int, stride: int) -> np.ndarray:  # e[start + stride i + j]
            return np.ndarray((*lead, n, n), e.dtype, e, start * step, (*e.strides[:-1], stride * step, step))

        block = view(n - 1, -1) - view(n - 1 + h, 1)
        block *= self.block_scale
        return block


def _contract(values: np.ndarray, lead: tuple, shape: tuple, tables) -> np.ndarray:
    """Contract the first point axis with each table in turn, appending the
    table's other axis: a stacked matmul per axis, whose per-row products are
    the calls np.tensordot makes for one point."""
    for table in tables:
        values = np.matmul(values.reshape(*lead, shape[0], -1).swapaxes(-1, -2), table)
        shape = (*shape[1:], table.shape[1])
    return values.reshape(*lead, *shape)


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.dot of each row of A with the same row of B, over any leading axes,
    bit for bit: a stacked matmul (einsum and (A * B).sum(-1) sum in another
    order)."""
    return np.matmul(A[..., None, :], B[..., :, None])[..., 0, 0]
