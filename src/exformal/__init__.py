"""exformal: symbolic exterior calculus with a verification front-end.

Charts, exact expression trees, skew-symmetric forms, Hodge duality,
torsion-bearing connections, degenerate transformations, and named
verifiers for the degree-1/2/3 field-equation checks.
"""

__version__ = "0.1.0"

from .symbolic import (  # noqa: F401
    Chart,
    Expr,
    ZeroVerdict,
    diff,
    eval_at,
    is_zero,
    parse_expr,
    simplify,
    to_text,
)
from .exterior import (  # noqa: F401
    ClosureReport,
    ClosureStatus,
    Form,
    SubmanifoldMap,
    VectorField,
    classify_closure,
    ext_d,
    interior_product,
    linear_combine,
    pullback,
    wedge,
)
from .geometry import (  # noqa: F401
    Metric,
    build_em_form,
    codifferential,
    hodge,
    maxwell_residual,
)
from .connection import (  # noqa: F401
    Connection,
    Tensor,
    bianchi_residual,
    christoffel,
    covariant_derivative_1form,
    einstein_tensor,
    evolutionary_commutator,
    ricci_and_scalar,
    riemann,
    torsion,
)
from .transform import (  # noqa: F401
    DegeneracyReport,
    HamiltonianSystem,
    QuadraticLagrangian,
    hamilton_flow_check,
    integrating_factor,
    inverse_legendre,
    jacobian_degeneracy,
    legendre,
    poincare_cartan,
    poisson_bracket,
)
from .catalog import (  # noqa: F401
    CorrespondenceEntry,
    VerificationReport,
    correspondence_table,
    verify_einstein,
    verify_hamiltonian,
    verify_maxwell,
)
