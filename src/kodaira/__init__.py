"""Exact computation of section-growth invariants on computable models.

Lattice-point counting on toric varieties and Riemann-Roch on abstract
curves give exact section counts; graded semigroups of exponents give
Newton-Okounkov bodies; multiplier-ideal coefficients of SNC singular
metrics shift the counting polytopes.  On top of those, the fibration
harness verifies subadditivity inequalities and addition formulas as exact
integer statements.
"""

from .lattice import (
    NEG_INF,
    GeometryError,
    Polytope,
)
from .multiplier import (
    SingularMetricData,
    default_mu_grid,
    multiplier_coeff,
    subadditivity_scan,
)
from .semigroup import (
    DegreeBoundError,
    EmptySemigroupError,
    GradedSemigroup,
    Regularization,
    growth_law_check,
    hilbert,
    hilbert_reg,
    regularize,
)
from .toric import (
    CrossCheckError,
    DEFAULT_DEGREE_BOUND,
    SectionSystem,
    ToricDivisorData,
    ToricVariety,
    is_ample,
    kappa1,
    kappa2,
    kappa3,
    kappa_report,
    kappa_sigma,
    kappa_sigma_hor,
    limit_polytope,
)
from .curve import (
    AmbiguousDivisorError,
    CurveDivisorClass,
    CurveModel,
    h0,
)
from .fibration import (
    CurveProductInstance,
    InequalityVerdict,
    ToricFibration,
    ToricFibrationInstance,
    hirzebruch_fibration,
    iitaka_analysis,
    product_fibration,
    run_check,
    verify_addti,
    verify_chain,
    verify_dio_equality,
    verify_iitaka,
    verify_stride,
    verify_subadditivity,
    verify_upper_bound,
)

__version__ = "0.1.0"
