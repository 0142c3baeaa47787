"""Exact symbolic toolkit for double Danielewski type algebras.

Construction and validation of presentations R[X,Y,Z,T]/(X^d*Y - P, X^e*T - Q),
arithmetic in the quotient through its Laurent model, canonical locally
nilpotent derivations and exponential maps, isomorphism transport and
invariant-based non-isomorphism certificates, and the full stable-isomorphism
certificate pipeline, all over exact rational arithmetic.
"""

from .poly import Context, ContextMismatch, ParseError, Polynomial, parse_poly
from .laurent import LaurentForm, eval_poly_at_laurent
from .groebner import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    GroebnerBasis,
    MonomialOrder,
    buchberger,
    elimination_ideal,
    is_unit_ideal,
)
from .presentations import (
    BaseRingSpec,
    DDPresentation,
    DanielewskiPresentation,
    InvalidPresentation,
    InvariantTuple,
    cond_class,
    invariant_tuple,
    load_presentation,
    omega3_check,
    reduce_to_danielewski,
    validate_presentation,
)
from .elements import (
    AlgebraContext,
    AlgebraError,
    BElement,
    MembershipResult,
    NotInAlgebra,
    divide_by_x_power,
    membership_with_witness,
)
from .derivations import (
    DEFAULT_CAP,
    Derivation,
    ExponentialMap,
    MLReport,
    canonical_lnd,
    check_derivation_well_defined,
    check_exp_axioms,
    exp_map,
    ml_report,
    nilpotency_index,
)
from .isomorphisms import (
    IsoData,
    NonIsoCertificate,
    RHomomorphism,
    TransportError,
    distinguish_by_invariants,
    transport_presentation,
    verify_hom,
    verify_iso_pair,
)
from .cancellation import (
    CancellationCertificate,
    PIPELINE_BUDGET,
    build_complement_variable,
    build_phi_extension,
    cancellation_certificate,
    compute_g_h,
    compute_slice_f,
    express_old_generators,
    verify_E_iso,
)

__version__ = "0.1.0"
