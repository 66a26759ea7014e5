"""Spectral-Galerkin critical points of strongly indefinite elliptic systems.

Computes solutions of the coupled Dirichlet problem

    -Lap u = |v|^(p-1) v + h,   -Lap v = |u|^(q-1) u + k

on box domains as critical points of the associated strongly indefinite
energy, with the quantities its outputs are built from: fractional-order
norms, the coupling involution and its spectral splitting, the
symmetry-repair cutoff energy, computable brackets for the minimax levels,
and the exponent-plane region test with its boundary curves.
"""

from .basis import (
    BoxDomain,
    SineBasis,
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
    DeviationResult,
    DualGradient,
    ModifiedGradient,
    ProblemSpec,
    bump,
    bump_derivative,
    cutoff_argument,
    deviation_check,
    energy,
    energy_gradient,
    modified_energy,
    modified_energy_gradient,
)
from .region import (
    OptimalR,
    PQPoint,
    RegionRow,
    RThresholds,
    admissible_r_interval,
    defect_rates,
    growth_exponents,
    hyperbola_boundary_p,
    hyperbola_gap,
    in_multiplicity_region,
    interpolation_exponents,
    multiplicity_boundary_p,
    multiplicity_margin,
    optimal_r,
    r_thresholds,
)
from .solve import (
    Branch,
    ContinuationResult,
    CriticalReport,
    LevelBracket,
    NewtonConfig,
    SolutionRecord,
    SolveResult,
    continuation,
    default_seeds,
    deflated_solve,
    estimate_levels,
    find_branch,
    lower_growth_constant,
    newton_solve,
    newton_sweep,
    residual,
    verify_critical,
)
from .space import (
    FieldPair,
    SplitPair,
    apply_coupling,
    coupling_eigenvector,
    coupling_form,
    eigenvector_coordinates,
    from_eigenvector_coordinates,
    pair_inner,
    pair_norm,
    split_pair,
)

__version__ = "0.1.0"
