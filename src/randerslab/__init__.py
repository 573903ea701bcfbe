"""Desk-scale lab for isometry-invariant Sobolev embeddings on Riemannian
and Randers-Finsler model spaces.

Modules:

- numerics: quadrature, adaptive integration with divergence detection,
  Gamma/Beta special functions
- modelspace: constant-curvature model geometries (Euclidean, Poincare ball)
- randers: Randers metrics, polar transform, Funk model
- orbits: geodesic ball packing and orbit measures on isometry orbits
- rearrange: Euclidean rearrangement and the gradient-norm comparison
- sobolev: Sobolev/Lebesgue norms, admissible pairs, embedding estimates
- pde: variational solver for the quasilinear radial problem
- cli: batch front-end emitting deterministic CSV/JSON tables
"""

from .numerics import (
    DIVERGENT,
    IntegralResult,
    QuadratureRule,
    adaptive_integrate,
    beta_fn,
    gamma_fn,
    gauss_legendre,
    is_divergent,
)
from .modelspace import (
    SpaceForm,
    bishop_gromov_ratio,
    comparison_volume,
    croke_constant,
    exp_log_maps,
    geodesic_distance,
    s_c,
    unit_ball_volume,
)
from .randers import (
    BetaProfile,
    FunkModel,
    RandersStructure,
    eikonal_residual,
    finsler_gradient,
    finsler_norm,
    funk_distance,
    polar_transform,
    reversibility,
    uniformity,
    volume_density,
)
from .orbits import (
    GroupAction,
    MatrixPoint,
    PackingReport,
    coercivity_probe,
    expansion_profile,
    orbit_diameter,
    orbit_hausdorff_matrix,
    orbit_hausdorff_product_spheres,
    packing_count,
    spherical_cap_count,
    tangent_packing_lower_bound,
)
from .rearrange import (
    RadialProfile,
    euclidean_rearrangement,
    level_volumes,
    norm_preservation_check,
    polya_szego_check,
)
from .sobolev import (
    AdmissiblePair,
    classify_pair,
    embedding_constant,
    funk_counterexample,
    sobolev_norms,
)
from .pde import (
    AlphaProfile,
    PDEProblem,
    bonanno_parameters,
    coercivity_constant,
    energy,
    energy_gradient,
    example_problem,
    find_transition_lambda,
    mckean_bound,
    multi_start_solve,
    reference_nonlinearity,
)

__version__ = "0.1.0"
