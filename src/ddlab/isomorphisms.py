"""R-algebra homomorphisms between presentations, canonical transports,
and invariant-based non-isomorphism certificates.

A homomorphism is stored by generator images, each a target element with its
generator expression, and verified by checking that the source relations map
to zero Laurent forms in the target.  Applying a homomorphism evaluates at the
Laurent forms of the images, so its value is a Laurent form of the target.
`transport_presentation` realizes the canonical isomorphism shape: given the
unit/translation data it constructs the target presentation and the explicit
mutually inverse pair.  `distinguish_by_invariants` certifies non-isomorphism
from a difference of (d, e, r, s), guarded by the hypotheses r > 1 and
monicity on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .elements import AlgebraContext, BElement
from .laurent import LaurentForm, eval_poly_at_laurent
from .poly import ContextMismatch, Polynomial
from .presentations import (
    CheckItem,
    DDPresentation,
    InvariantTuple,
    Record,
    Report,
    invariant_tuple,
    validate_presentation,
)


class HomomorphismError(ValueError):
    pass


def image_table(source: AlgebraContext, target: AlgebraContext, images, error) -> dict[str, BElement]:
    """The images in the order of `source`'s generators, once every generator
    has one, no other name has one, and each is a `BElement` of `target`;
    else `error` is raised, naming the first rule broken."""
    names = source.generator_names()
    missing = [n for n in names if n not in images]
    if missing:
        raise error(f"missing images for generators {missing}")
    extra = [n for n in images if n not in names]
    if extra:
        raise error(f"images for names that are not generators: {extra}")
    for name in names:
        el = images[name]
        if not isinstance(el, BElement) or el.actx != target:
            raise error(f"image of {name} is not a target element")
    return {n: images[n] for n in names}


class RHomomorphism:
    """Generator images of an R-algebra map between two algebra contexts."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: AlgebraContext, target: AlgebraContext, images):
        if source.presentation.base != target.presentation.base:
            raise HomomorphismError("source and target have different base rings")
        self.source = source
        self.target = target
        self.images = image_table(source, target, images, HomomorphismError)

    def apply_expr(self, expr: Polynomial) -> LaurentForm:
        """Laurent form of the image of a source generator expression (base
        variables are fixed)."""
        if expr.ctx != self.source.gen_ctx:
            expr = expr.transfer(self.source.gen_ctx)
        laurent_images = {n: el.laurent for n, el in self.images.items()}
        return eval_poly_at_laurent(expr, laurent_images, self.target.coeff_ctx)

    def apply(self, a: BElement) -> LaurentForm:
        if a.actx != self.source:
            raise ContextMismatch("element does not belong to the source algebra")
        return self.apply_expr(a.gen)

    def to_json(self):
        return {n: str(el) for n, el in self.images.items()}


def verify_hom(h: RHomomorphism) -> bool:
    """True iff both source relations have zero Laurent form in the target."""
    rel1, rel2 = h.source.relations()
    return h.apply_expr(rel1).is_zero() and h.apply_expr(rel2).is_zero()


def round_trip_fixes(first: RHomomorphism, second: RHomomorphism, name: str) -> bool:
    """True iff second(first(g)) = g for the generator g of first's source named `name`."""
    return second.apply(first.images[name]) == first.source.gen(name).laurent


def verify_iso_pair(h: RHomomorphism, hinv: RHomomorphism) -> Report:
    """Three checks: each map sends its source relations to zero (one
    verification per map) and, only when both do, both composites fix every
    generator ("mutually inverse pair")."""
    if h.source != hinv.target or h.target != hinv.source:
        raise HomomorphismError("maps are not mutually opposite")
    ok_f, ok_b = verify_hom(h), verify_hom(hinv)
    inverse = ok_f and ok_b and all(
        round_trip_fixes(first, second, name)
        for first, second in ((h, hinv), (hinv, h))
        for name in first.source.generator_names()
    )
    return Report((
        CheckItem("forward homomorphism", ok_f),
        CheckItem("backward homomorphism", ok_b),
        CheckItem("mutually inverse pair", inverse),
    ))


@dataclass(frozen=True)
class IsoData(Record):
    """Unit and translation data for the canonical isomorphism shape.

    lambda1, mu1, beta1_tilde, g2_prime are units of R (nonzero rationals for
    R = Q[u..]); delta1 is a polynomial in X, alpha1_tilde in X and Z,
    g1_prime in X, Y and Z (all with base-ring coefficients).
    """

    lambda1: Fraction
    mu1: Fraction
    beta1_tilde: Fraction
    g2_prime: Fraction
    delta1: Polynomial
    alpha1_tilde: Polynomial
    g1_prime: Polynomial

    def __post_init__(self):
        for name in ("lambda1", "mu1", "beta1_tilde", "g2_prime"):
            value = getattr(self, name)
            if not isinstance(value, Fraction) or value == 0:
                raise ValueError(f"{name} must be a nonzero rational, got {value!r}")


@dataclass(frozen=True)
class TransportResult(Record):
    source: DDPresentation
    target: DDPresentation
    data: IsoData
    forward: RHomomorphism  # source -> target
    backward: RHomomorphism  # target -> source


class TransportError(ValueError):
    pass


def transport_presentation(src: DDPresentation, data: IsoData) -> TransportResult:
    """Construct the transported presentation and its verified iso pair.

    The target is defined by
      P2(l*X, m*Z + delta1(X)) = l^d*b*P1 + X^d*l^d*alpha1
      Q2(l*X, b*Y + alpha1, m*Z + delta1) = X^e*g1 + g2*Q1
    with the relation-multiple normalized to zero; the maps follow the
    canonical shape and are verified as a mutually inverse pair.
    """
    src.require_valid()
    if src.r <= 1:
        raise TransportError(f"transport requires deg_Z P(0,Z) > 1, got r = {src.r}")
    lam, mu, beta, g2 = data.lambda1, data.mu1, data.beta1_tilde, data.g2_prime
    ctx = src.P.ctx

    def fit(poly: Polynomial, allowed: set[str], label: str) -> Polynomial:
        poly = poly.transfer(ctx) if poly.ctx != ctx else poly
        extra = poly.support_vars() - allowed - set(src.base.variables)
        if extra:
            raise TransportError(f"{label} uses variables {sorted(extra)}")
        return poly

    delta1 = fit(data.delta1, {"X"}, "delta1")
    alpha1 = fit(data.alpha1_tilde, {"X", "Z"}, "alpha1_tilde")
    g1 = fit(data.g1_prime, {"X", "Y", "Z"}, "g1_prime")

    x = ctx.var("X")
    y = ctx.var("Y")
    z = ctx.var("Z")
    t = ctx.var("T")

    x_inv = x.scale(1 / lam)  # X -> X/lambda1
    delta_at = delta1.substitute({"X": x_inv})
    z_inv = (z - delta_at).scale(1 / mu)  # Z -> (Z - delta1(X/l))/mu

    rhs_p = src.P.scale(lam ** src.d * beta) + x ** src.d * alpha1.scale(lam ** src.d)
    p2 = rhs_p.substitute({"X": x_inv, "Z": z_inv})

    alpha_inv = alpha1.substitute({"X": x_inv, "Z": z_inv})
    y_inv = (y - alpha_inv).scale(1 / beta)
    rhs_q = x ** src.e * g1 + src.Q.scale(g2)
    q2 = rhs_q.substitute({"X": x_inv, "Y": y_inv, "Z": z_inv})

    target = DDPresentation(src.base, src.d, src.e, p2, q2)
    report = validate_presentation(target)
    if not report.passed:
        failures = "; ".join(c.name for c in report.failed_items())
        raise TransportError(f"transported presentation is invalid ({failures})")

    src_ctx = AlgebraContext(src)
    tgt_ctx = AlgebraContext(target)

    # forward rho: source -> target; on X, Z and Y it is the inverse substitution
    rho_t = t.scale(lam ** src.e / g2) - g1.substitute(
        {"X": x_inv, "Y": y_inv, "Z": z_inv}
    ).scale(1 / g2)
    forward = RHomomorphism(
        src_ctx,
        tgt_ctx,
        {
            "X": tgt_ctx.element(x_inv),
            "Y": tgt_ctx.element(y_inv),
            "Z": tgt_ctx.element(z_inv),
            "T": tgt_ctx.element(rho_t),
        },
    )

    # backward sigma: target -> source
    sig_x = x.scale(lam)
    sig_z = z.scale(mu) + delta1
    sig_y = y.scale(beta) + alpha1
    sig_t = (t.scale(g2) + g1).scale(Fraction(1) / lam ** src.e)
    backward = RHomomorphism(
        tgt_ctx,
        src_ctx,
        {
            "X": src_ctx.element(sig_x),
            "Y": src_ctx.element(sig_y),
            "Z": src_ctx.element(sig_z),
            "T": src_ctx.element(sig_t),
        },
    )

    if not verify_iso_pair(forward, backward).passed:
        raise TransportError("constructed transport pair failed verification")
    return TransportResult(src, target, data, forward, backward)


@dataclass(frozen=True)
class NonIsoCertificate(Record):
    """Verdict on R-isomorphism obtained from the invariant tuples."""

    p1: DDPresentation
    p2: DDPresentation
    tuple1: InvariantTuple | None
    tuple2: InvariantTuple | None
    checks: Report
    verdict: str

    @property
    def not_isomorphic(self) -> bool:
        return self.verdict.startswith("not R-isomorphic")


def distinguish_by_invariants(p1: DDPresentation, p2: DDPresentation) -> NonIsoCertificate:
    """Certify non-isomorphism from differing (d, e, r, s), hypotheses permitting.

    The verdict is "not R-isomorphic" only when both presentations are valid,
    both have r > 1 under the monicity convention, and the tuples differ.
    Anything else is "inconclusive".
    """
    v1 = validate_presentation(p1)
    v2 = validate_presentation(p2)
    items = [v1.as_check("first presentation valid"), v2.as_check("second presentation valid")]
    t1 = t2 = None
    if v1.passed and v2.passed:
        t1 = invariant_tuple(p1)
        t2 = invariant_tuple(p2)
        items.append(CheckItem("r > 1 on both sides", t1.r > 1 and t2.r > 1,
                               f"r1 = {t1.r}, r2 = {t2.r}"))
        items.append(CheckItem("invariant tuples differ", t1 != t2, f"{t1} vs {t2}"))
    checks = Report(tuple(items))
    if checks.passed:
        verdict = (
            f"not R-isomorphic: invariant tuples {t1} and {t2} differ, and a tuple "
            "equality is necessary for any R-isomorphism under these hypotheses"
        )
    else:
        verdict = "inconclusive"
    return NonIsoCertificate(p1, p2, t1, t2, checks, verdict)
