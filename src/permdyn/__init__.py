"""Dynamics of permutation polynomials on irreducible polynomials over finite fields."""

from ._kernels import get_backend
from .context import (
    DEFAULT_GUARD,
    FieldCtx,
    FrobeniusOrbits,
    conjugates,
    element_degree,
    embed_poly,
    enumerate_Ck,
    frobenius,
    frobenius_orbits,
    make_field_ctx,
    minimal_poly,
    restrict_poly,
    roots_in_ext,
)
from .dynamics import (
    CycleSpectrum,
    FunctionalGraph,
    diamond,
    fixed_count_formula,
    fixed_count_linearized,
    fixed_count_monomial,
    fixed_count_prime_linearized,
    fixed_count_prime_monomial,
    fixed_points_direct,
    graph_Ck,
    graph_Ik,
    invariant_report,
    linearized_cycle_structure,
    moebius_cycle_structure,
    moebius_star,
    monomial_cycle_structure,
    period_Ck,
    period_Ik,
    spectrum_Ck,
    spectrum_Ik,
    star,
)
from .errors import (
    GuardExceeded,
    InternalCheckError,
    MalformedInput,
    PermdynError,
    PreconditionError,
)
from .fields import GF
from .genirr import (
    GenReport,
    bound_linearized,
    bound_monomial,
    choose_LH,
    iterate_generation,
    tau,
)
from .orders import fq_order, mult_order, norm_of, phi_q, poly_order, trace_of
from .permgroup import (
    Matrix2,
    PermPoly,
    certify_perm,
    check_degree_preserving,
    frobenius_stable,
    gk_compose,
    gk_inverse,
    is_degree_preserving_form,
    lagrange_interpolate_all,
    moebius_eval,
    moebius_poly_rep,
    perm_table,
    pgl2_order,
    realize_permutation,
)
from .polys import (
    Poly,
    compose,
    count_irreducibles,
    enumerate_irreducibles,
    factor,
    first_irreducible,
    fold_mod,
    is_irreducible,
    poly_divmod,
    poly_gcd,
    powmod,
    psi_d,
    q_associate,
)
from .textio import format_poly, format_poly_csv, parse_poly

__version__ = "0.1.0"
