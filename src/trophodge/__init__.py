"""Hodge theory on one-dimensional tropical curves.

Building blocks: metric-graph curves with canonical edge charts
(curve), the superform calculus with its differentials and regularity
conditions (superform), Kahler weights with tropical integration and
the Hodge star (metric), exact rational harmonic bases and the Cech
dimension oracle (harmonic), a quantum-graph finite-element
discretization of the Laplace-Beltrami operator (discrete), executable
verification suites (checks), the tropical-to-complex integral
correspondence (theta), and a command-line front end (cli).
"""

from .curve import (
    CurveError,
    Edge,
    IncidenceMatrix,
    TropicalCurve,
    ValidationReport,
    genus,
    incidence_matrix,
    parse_curve,
    parse_document,
    reverse_edge,
    serialize,
    validate,
)
from .superform import (
    Bidegree,
    DegreeOverflowError,
    EdgeFunction,
    RegularityReport,
    Superform,
    d_first,
    d_second,
    evaluate,
    is_regular,
    reoriented,
    wedge,
)
from .quadrature import DivergenceError
from .metric import (
    KahlerError,
    KahlerForm,
    codifferential,
    hodge_star,
    inner_product,
    integrate,
    laplacian,
    validate_kahler,
)
from .harmonic import HarmonicBasis, betti, cech_cohomology, harmonic_basis
from .discrete import (
    AmbiguousKernelError,
    BudgetError,
    DiscreteSystem,
    Mesh,
    SpectralResult,
    StarNeighborhood,
    TailNeighborhood,
    assemble,
    build_mesh,
    kernel,
    solve_dbar_local,
    spectrum,
    vector_to_superform,
)
from .theta import AnnulusDomain, annulus_integral, compare_tropical_complex, fubini_study_form
from .checks import (
    CheckReport,
    CheckResult,
    check_hodge_theorem,
    check_integration_by_parts,
    check_star_identities,
    check_stokes,
    check_theta_correspondence,
    regular_test_forms,
    run_verification,
)
from .expressions import ExpressionError, parse_expression

__version__ = "0.1.0"
