"""Spectral-Galerkin critical points of strongly indefinite elliptic systems.

Computes solutions of the coupled Dirichlet problem

    -Lap u = |v|^(p-1) v + h,   -Lap v = |u|^(q-1) u + k

on box domains as critical points of the associated strongly indefinite
energy, together with every closed-form quantity of the surrounding
variational analysis: fractional-order norms, the coupling involution and
its spectral splitting, the symmetry-repair cutoff energy, computable
brackets for the minimax levels, and the exponent-plane region curves.
"""

from .basis import (
    BoxDomain,
    EigenPair,
    SineBasis,
    SpectralField,
    eigenvalue_growth_constant,
    enumerate_basis,
    frac_laplacian,
    from_grid,
    grid_points,
    grid_quadrature,
    grid_shape,
    l2_inner,
    sobolev_norm,
    to_grid,
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
    cutoff_scale,
    cutoff_weight,
    deviation_check,
    energy,
    energy_gradient,
    estimate_deviation_constant,
    modified_energy,
    modified_energy_gradient,
    nonlinear_integral,
    riesz_representative,
)
from .region import (
    BoundCurves,
    OptimalR,
    PQPoint,
    RegionReport,
    RegionRow,
    RThresholds,
    admissible_r_interval,
    bound_curves,
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
    region_report,
    region_scan,
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
    jacobian,
    lower_growth_constant,
    newton_solve,
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
