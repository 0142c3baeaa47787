"""End-to-end certificates for the stable-isomorphism pipeline.

For a presentation with e > 1 satisfying the unit-ideal conditions, the
pipeline builds A = B[w], the exponential map sending z to z + x^(d+e)*U and
w to w - x*U, the invariant elements

    f = x^(d+e-1)*w + z,   g = P(x,f)/x^d,   h = Q(x,g,f)/x^(e-1),

verifies that (x, f, g, h) satisfies the relations of the smaller algebra
B_{d,e-1}, and produces an explicit mutually inverse homomorphism pair
between B_{d,e}[w] and B_{d,e-1}[w'].

The complement variable sent to w' is not w itself: w' maps to an element
sigma with phi(sigma) = sigma + U, constructed from the unit-ideal cofactors
(this is where those hypotheses enter).  Such a sigma makes A a polynomial
ring over the invariant subring, and every old generator acquires an explicit
polynomial expression in (x, f, g, h, sigma), each verified by Laurent
equality.  The pairing with the invariant-based non-isomorphism certificate
yields the final verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .derivations import (
    DEFAULT_CAP,
    DerivationError,
    ExponentialMap,
    canonical_lnd,
    check_derivation_well_defined,
    check_exp_axioms,
    exp_map,
)
from .elements import (
    AlgebraContext,
    BElement,
    NotInAlgebra,
    UnsupportedBaseRing,
    divide_by_x_power,
    membership_with_witness,
)
from .groebner import BudgetExceeded, DEFAULT_BUDGET, buchberger
from .laurent import LaurentForm, eval_poly_at_laurent
from .poly import Polynomial
from .presentations import CheckItem, DDPresentation, Report, omega3_check, unit_ideal_generators
from .isomorphisms import (
    NonIsoCertificate,
    RHomomorphism,
    distinguish_by_invariants,
    verify_hom,
)

ADJOINED_NAME = "W1"

# Certificates reduce some large polynomials; the interactive Groebner default
# is far too small for legitimate runs, so the pipeline uses its own budget.
PIPELINE_BUDGET = 5_000_000


class PipelineError(RuntimeError):
    """A pipeline check failed; `cancellation_certificate` names the stage
    it was raised in, so the message says only what went wrong."""


def _divide_x_monomials(poly: Polynomial, k: int) -> Polynomial:
    """Exact division of every monomial by X^k; asserts the exponent bound per term."""
    if k == 0:
        return poly
    i = poly.ctx.index("X")
    out = {}
    for exps, coeff in poly.terms.items():
        if exps[i] < k:
            raise AssertionError(
                f"monomial with X-exponent {exps[i]} < {k}; expected the exponent bound to hold"
            )
        e = list(exps)
        e[i] -= k
        out[tuple(e)] = coeff
    return Polynomial(poly.ctx, out)


def build_phi_extension(
    p: DDPresentation, cap: int = DEFAULT_CAP, budget: int = DEFAULT_BUDGET
) -> tuple[AlgebraContext, ExponentialMap, Report]:
    """A = B[w] and the exponential map of the canonical derivation.

    The map is cross-checked against the substitution route: its image of y
    must equal P(x, z + x^(d+e)*U)/x^d as a Laurent form, and its image of t
    the corresponding Q quotient, with both division steps carrying
    membership witnesses.
    """
    actx = AlgebraContext(p, (ADJOINED_NAME,))
    d_can = canonical_lnd(actx)
    items = [CheckItem("canonical derivation well defined",
                       check_derivation_well_defined(d_can), "")]
    phi = exp_map(d_can, cap)
    axioms = check_exp_axioms(phi)
    items.append(CheckItem("exponential-map axioms", axioms.passed,
                           "; ".join(c.name for c in axioms.items if not c.passed)))

    n = p.d + p.e
    ctx = actx.gen_ctx
    x = ctx.var("X")
    items.append(CheckItem("map fixes x", phi.coeffs["X"] == [actx.gen("X")], ""))
    z_expected = [actx.gen("Z"), actx.element(x ** n)]
    items.append(CheckItem("image of z is z + x^(d+e)*U", phi.coeffs["Z"] == z_expected, ""))
    w_expected = [actx.gen(ADJOINED_NAME), actx.element(-x)]
    items.append(CheckItem("image of w is w - x*U", phi.coeffs[ADJOINED_NAME] == w_expected, ""))

    # substitution route with membership witnesses, in B[w][U]
    ext = phi.target
    ext_ctx = ext.gen_ctx
    shifted_z = ext_ctx.var("Z") + ext_ctx.var("X") ** n * ext_ctx.var("U")
    p_shift = p.P.transfer(ext_ctx).substitute({"Z": shifted_z})
    y_elem = divide_by_x_power(ext.to_laurent(p_shift), ext, p.d, budget)
    items.append(
        CheckItem(
            "image of y equals the shifted-P quotient",
            y_elem == phi.images["Y"],
            f"witness {y_elem.gen}",
        )
    )
    q_shift = p.Q.transfer(ext_ctx).substitute({"Y": y_elem.gen, "Z": shifted_z})
    t_elem = divide_by_x_power(ext.to_laurent(q_shift), ext, p.e, budget)
    items.append(
        CheckItem(
            "image of t equals the shifted-Q quotient",
            t_elem == phi.images["T"],
            f"witness {t_elem.gen}",
        )
    )
    return actx, phi, Report(tuple(items))


def compute_slice_f(phi: ExponentialMap) -> BElement:
    """The invariant element f = x^(d+e-1)*w + z; its invariance is verified."""
    actx = phi.source
    p = actx.presentation
    ctx = actx.gen_ctx
    expr = ctx.var("X") ** (p.d + p.e - 1) * ctx.var(ADJOINED_NAME) + ctx.var("Z")
    f = actx.element(expr)
    if not phi.fixes(f):
        raise PipelineError("f is not invariant under the map")
    return f


def compute_g_h(
    f: BElement, phi: ExponentialMap, budget: int = DEFAULT_BUDGET
) -> tuple[BElement, BElement, Report]:
    """g with x^d*g = P(x,f) and h with x^(e-1)*h = Q(x,g,f).

    Witnesses are built by expanding around (y, z) and dividing monomial-wise;
    the independent membership-division route must agree (checked), and both
    elements must be invariant under the map (checked).
    """
    actx = f.actx
    p = actx.presentation
    if p.e <= 1:
        raise PipelineError(f"requires e > 1, got e = {p.e}")
    ctx = actx.gen_ctx
    p_poly = p.P.transfer(ctx)
    q_poly = p.Q.transfer(ctx)

    p_at_f = actx.element(p_poly.substitute({"Z": f.gen}))
    g_expr = ctx.var("Y") + _divide_x_monomials(p_at_f.gen - p_poly, p.d)
    g = actx.element(g_expr)
    items = []
    x = ctx.var("X")
    items.append(
        CheckItem(
            "x^d * g = P(x, f)",
            actx.element(x ** p.d * g_expr) == p_at_f,
            f"g = {g_expr}",
        )
    )
    g_div = divide_by_x_power(p_at_f.laurent, actx, p.d, budget)
    items.append(CheckItem("membership route agrees on g", g_div == g, ""))

    q_at_gf = actx.element(q_poly.substitute({"Y": g_expr, "Z": f.gen}))
    h_expr = x * ctx.var("T") + _divide_x_monomials(q_at_gf.gen - q_poly, p.e - 1)
    h = actx.element(h_expr)
    items.append(
        CheckItem(
            "x^(e-1) * h = Q(x, g, f)",
            actx.element(x ** (p.e - 1) * h_expr) == q_at_gf,
            f"h = {h_expr}",
        )
    )
    h_div = divide_by_x_power(q_at_gf.laurent, actx, p.e - 1, budget)
    items.append(CheckItem("membership route agrees on h", h_div == h, ""))

    items.append(CheckItem("map fixes g", phi.fixes(g), ""))
    items.append(CheckItem("map fixes h", phi.fixes(h), ""))
    return g, h, Report(tuple(items))


@dataclass(frozen=True)
class SmallAlgebraIso:
    """The verified map from B_{d,e-1} onto R[x, f, g, h] inside A."""

    presentation: DDPresentation  # the smaller presentation
    inclusion: RHomomorphism  # B_{d,e-1} -> A sending x,z,y,t to x,f,g,h
    checks: Report
    injectivity_note: str

    def to_json(self):
        return {
            "presentation": self.presentation.to_json(),
            "images": self.inclusion.to_json(),
            "checks": self.checks.to_json(),
            "injectivity_note": self.injectivity_note,
        }


def verify_E_iso(f: BElement, g: BElement, h: BElement) -> SmallAlgebraIso:
    """Check that (x, f, g, h) satisfies the relations of B_{d,e-1}.

    Injectivity of the induced map is recorded as a structural argument: the
    substitution z -> z + x^(d+e-1)*w is invertible over R[x, 1/x][z, w], so
    the map extends to an automorphism of the Laurent model.
    """
    actx = f.actx
    p = actx.presentation
    small = DDPresentation(p.base, p.d, p.e - 1, p.P, p.Q)
    small_ctx = AlgebraContext(small)
    iota = RHomomorphism(
        small_ctx,
        actx,
        {"X": actx.gen("X"), "Z": f, "Y": g, "T": h},
    )
    ok = verify_hom(iota)
    items = [CheckItem("relations of the smaller algebra hold at (x, f, g, h)", ok, "")]
    note = (
        "injective structurally: z -> z + x^(d+e-1)*w is a triangular substitution, "
        "invertible over R[x, 1/x][z, w], so the induced map of Laurent models is injective"
    )
    return SmallAlgebraIso(small, iota, Report(tuple(items)), note)


@dataclass(frozen=True)
class ComplementVariable:
    """An element sigma with D(sigma) = 1, built from the unit-ideal cofactors."""

    element: BElement
    seed: Polynomial  # b(Z)*m(Y,Z)*T, the starting lift
    chain_length: int
    checks: Report

    def to_json(self):
        return {
            "element": str(self.element.gen),
            "seed": str(self.seed),
            "chain_length": self.chain_length,
            "checks": self.checks.to_json(),
        }


def build_complement_variable(
    phi: ExponentialMap, cap: int = DEFAULT_CAP, budget: int = DEFAULT_BUDGET
) -> ComplementVariable:
    """Construct sigma with D(sigma) = 1 for the canonical derivation D, so
    the map sends sigma to sigma + U.

    Starting from sigma0 = b(z)*m(y,z)*t, where b and m are the cofactors of
    dP/dZ and dQ/dY in the unit-ideal certificates, D(sigma0) - 1 is divisible
    by x; the defect is absorbed into powers of w via the chain
    c_(j+1) = D(c_j)/x, which terminates by local nilpotency.
    """
    actx = phi.source
    gens1, gens2 = unit_ideal_generators(actx.presentation)
    gb1 = buchberger(gens1, budget=budget)
    if not gb1.is_unit():
        raise PipelineError("(P(0,Z), P'(0,Z)) is not the unit ideal")
    _, b_poly = gb1.reduce_to_gens(gb1.ctx.one(), 1, budget)

    gb2 = buchberger(gens2, budget=budget)
    if not gb2.is_unit():
        raise PipelineError("(P(0,Z), Q(0,Y,Z), Q'(0,Y,Z)) is not the unit ideal")
    _, m_poly = gb2.reduce_to_gens(gb2.ctx.one(), 2, budget)

    derivation = canonical_lnd(actx)
    ctx = actx.gen_ctx
    seed = b_poly.transfer(ctx) * m_poly.transfer(ctx) * ctx.var("T")
    sigma_expr = seed
    one = actx.const(1)
    defect = derivation.apply_expr(seed) - one
    try:
        c = divide_by_x_power(defect.laurent, actx, 1, budget)
    except NotInAlgebra as exc:
        raise PipelineError(f"initial defect not divisible by x: {exc}") from exc
    w = ctx.var(ADJOINED_NAME)
    j = 1
    while not c.is_zero():
        if j > cap:
            raise PipelineError(f"correction chain did not terminate within {cap} steps")
        sigma_expr = sigma_expr + w ** j * c.gen.scale(Fraction(1, math.factorial(j)))
        try:
            c = divide_by_x_power(derivation.apply(c).laurent, actx, 1, budget)
        except NotInAlgebra as exc:
            raise PipelineError(
                f"correction chain defect at step {j} not divisible by x: {exc}"
            ) from exc
        j += 1

    sigma = actx.element(sigma_expr)
    items = [
        CheckItem("D(sigma) = 1", derivation.apply(sigma) == one, ""),
    ]
    u = phi.target.gen("U").laurent
    image_ok = phi.apply(sigma) == sigma.laurent.transfer(u.ctx) + u
    items.append(CheckItem("map sends sigma to sigma + U", image_ok, ""))
    report = Report(tuple(items))
    if not report.passed:
        raise PipelineError("constructed element failed verification")
    return ComplementVariable(sigma, seed, j - 1, report)


@dataclass(frozen=True)
class OldGeneratorWitnesses:
    """The images of x, z, y, t, w as elements of B_{d,e-1}[w'].

    Each image is the element its stage built, so its Laurent form is the one
    that stage verified and later evaluations reuse its cached powers.
    """

    images: dict  # source generator name -> BElement of B_{d,e-1}[w']
    direct_identities: Report  # the two closed-form identities in E[w]
    checks: Report

    def to_json(self):
        return {
            "images": {k: str(v) for k, v in self.images.items()},
            "direct_identities": self.direct_identities.to_json(),
            "checks": self.checks.to_json(),
        }


def express_old_generators(
    small_iso: SmallAlgebraIso,
    complement: ComplementVariable,
    budget: int = DEFAULT_BUDGET,
) -> tuple[OldGeneratorWitnesses, AlgebraContext]:
    """The old generators as elements of B_{d,e-1}[w'], and that ring.

    A, f and g are read off the inclusion x, z, y, t -> x, f, g, h.  z and y
    also receive the closed-form identities z = f - x^(d+e-1)*w and
    y = g + (P(x, f - x^(d+e-1)*w) - P(x, f))/x^d (each checked by Laurent
    equality).  The images of w and z over the smaller ring come from the
    invariant combinations w + x*sigma and z - x^(d+e)*sigma, built by
    element arithmetic on sigma and divided in B_{d,e-1}[w'], whose
    coefficient ring is that of A.  The images of y and t are the quotients
    of the Laurent forms of P(x, psi_z) and Q(x, psi_y, psi_z) by x^d and
    x^e; those forms are evaluated at the Laurent forms of psi_z and psi_y,
    which equals expanding P and Q over the generators first because the
    Laurent embedding is a ring map.
    """
    inclusion = small_iso.inclusion
    actx = inclusion.target
    f, g = inclusion.images["Z"], inclusion.images["Y"]
    p = actx.presentation
    n1 = p.d + p.e - 1
    ctx = actx.gen_ctx
    x = ctx.var("X")
    w = ctx.var(ADJOINED_NAME)

    # closed-form identities inside A
    direct = []
    z_direct = f - actx.element(x ** n1 * w)
    direct.append(CheckItem("z = f - x^(d+e-1)*w", z_direct == actx.gen("Z"),
                            f"f - x^{n1}*w"))
    p_poly = p.P.transfer(ctx)
    p_at_back = p_poly.substitute({"Z": f.gen - x ** n1 * w})
    p_at_f = p_poly.substitute({"Z": f.gen})
    y_direct = g + actx.element(_divide_x_monomials(p_at_back - p_at_f, p.d))
    direct.append(
        CheckItem(
            "y = g + (P(x, f - x^(d+e-1)*w) - P(x, f))/x^d",
            y_direct == actx.gen("Y"),
            "term-wise exponent bound asserted during division",
        )
    )

    small_w = AlgebraContext(small_iso.presentation, (ADJOINED_NAME,))
    ctx_w = small_w.gen_ctx
    cctx = actx.coeff_ctx

    # z -> z - x^(d+e-1)*w; one object, so its powers are cached across calls
    z_img = LaurentForm.from_poly(cctx.var("Z")) - LaurentForm.from_poly(
        cctx.var(ADJOINED_NAME)
    ).shift(n1)

    def coord(elem: BElement, label: str) -> BElement:
        """Express an invariant element in the generators of the smaller algebra."""
        shifted = elem.laurent.substitute({"Z": z_img}, cctx)
        for poly in shifted.coeffs.values():
            if poly.deg_in(ADJOINED_NAME) > 0:
                raise PipelineError(
                    f"{label} is not invariant: residual w after the coordinate change"
                )
        result = membership_with_witness(shifted, small_w, budget)
        if not result.member:
            raise PipelineError(f"{label} does not lie in the smaller algebra")
        if inclusion.apply_expr(result.witness) != elem.laurent:
            raise PipelineError(f"round trip failed for {label}")
        return BElement(small_w, result.witness, shifted)

    sigma = complement.element
    x_new = small_w.gen("X")
    w_new = small_w.gen(ADJOINED_NAME)
    checks = []
    pw = coord(actx.gen(ADJOINED_NAME) + actx.gen("X") * sigma, "w + x*sigma")
    psi_w = pw - x_new * w_new
    checks.append(CheckItem("w + x*sigma lies in the invariant subring", True, f"{pw}"))

    x_n = x ** (p.d + p.e)
    pz = coord(actx.gen("Z") - actx.element(x_n) * sigma, "z - x^(d+e)*sigma")
    psi_z = pz + small_w.element(x_n) * w_new
    checks.append(CheckItem("z - x^(d+e)*sigma lies in the invariant subring", True, f"{pz}"))

    at_psi = {"X": x_new.laurent, "Z": psi_z.laurent}
    p_small = eval_poly_at_laurent(p.P.transfer(ctx_w), at_psi, cctx)
    psi_y = divide_by_x_power(p_small, small_w, p.d, budget)
    checks.append(CheckItem("image of y divides out x^d", True, f"{psi_y}"))

    at_psi["Y"] = psi_y.laurent
    q_small = eval_poly_at_laurent(p.Q.transfer(ctx_w), at_psi, cctx)
    psi_t = divide_by_x_power(q_small, small_w, p.e, budget)
    checks.append(CheckItem("image of t divides out x^e", True, f"{psi_t}"))

    images = {"X": x_new, "Y": psi_y, "Z": psi_z, "T": psi_t, ADJOINED_NAME: psi_w}
    witnesses = OldGeneratorWitnesses(images, Report(tuple(direct)), Report(tuple(checks)))
    if not witnesses.direct_identities.passed:
        raise PipelineError("closed-form identity failed")
    return witnesses, small_w


def verify_pair_structured(forward: RHomomorphism, backward: RHomomorphism) -> Report:
    """Verify the homomorphism pair is mutually inverse on every generator.

    Both rings, f = image of z' and g = image of y' are read off `forward`,
    the map from B_{d,e-1}[w'] to A.  Cheap legs are computed symbolically;
    expensive legs are entailed from already-verified identities.  Each
    entailed item names its premises: the entailments use only that both
    maps send the defining relations to zero, that the division identities
    were verified as Laurent equalities, and that the Laurent model is a
    domain with x invertible (so an identity may be checked after clearing a
    power of x).
    """
    small_w, actx = forward.source, forward.target
    f, g = forward.images["Z"], forward.images["Y"]
    items = []

    ok_fwd = verify_hom(forward)
    items.append(CheckItem("map from the smaller ring sends its relations to zero", ok_fwd, ""))
    ok_bwd = verify_hom(backward)
    items.append(CheckItem("map to the smaller ring sends the relations to zero", ok_bwd, ""))
    if not (ok_fwd and ok_bwd):
        return Report(tuple(items))

    # composite on the smaller ring's generators
    def back_to(elem: BElement, name: str) -> bool:
        return backward.apply(elem) == small_w.gen(name).laurent

    def forward_fixes(name: str) -> bool:
        return forward.apply(backward.images[name]) == actx.gen(name).laurent

    items.append(CheckItem("round trip fixes x'", back_to(forward.images["X"], "X"), ""))
    items.append(CheckItem("round trip sends f back to z'", back_to(f, "Z"), ""))
    items.append(CheckItem("round trip sends g back to y'", back_to(g, "Y"), ""))
    items.append(
        CheckItem(
            "round trip sends h back to t'",
            True,
            "entailed: x^(e-1)*h = Q(x,g,f) was verified, the backward map kills the "
            "relations, and f, g return to z', y'; divide the transported identity by x^(e-1)",
        )
    )
    items.append(
        CheckItem(
            "round trip sends sigma back to w'",
            True,
            "entailed: w + x*sigma returns to its expression over the smaller ring "
            "(verified round trip), and the image of w is that expression minus x*w'; "
            "cancel x",
        )
    )

    # composite on the generators of B[w]
    items.append(CheckItem("round trip fixes x", forward_fixes("X"), ""))
    z_ok = forward_fixes("Z")
    items.append(CheckItem("round trip fixes z", z_ok, ""))
    items.append(CheckItem("round trip fixes w", forward_fixes(ADJOINED_NAME), ""))
    items.append(
        CheckItem(
            "round trip fixes y",
            z_ok,
            "entailed: x^d * image-of-y = P(x, image-of-z) was verified on the smaller "
            "side, the forward map kills the relations, and z is fixed; divide by x^d",
        )
    )
    items.append(
        CheckItem(
            "round trip fixes t",
            z_ok,
            "entailed: x^e * image-of-t = Q(x, image-of-y, image-of-z) was verified on "
            "the smaller side, the forward map kills the relations, and y, z are fixed; "
            "divide by x^e",
        )
    )
    return Report(tuple(items))


@dataclass
class CancellationCertificate:
    """Structured verdict for one presentation, listing every check performed."""

    presentation: DDPresentation
    small_presentation: DDPresentation | None = None
    omega3: Report | None = None
    phi: ExponentialMap | None = None
    phi_checks: Report | None = None
    f: BElement | None = None
    g: BElement | None = None
    h: BElement | None = None
    gh_checks: Report | None = None
    small_iso: SmallAlgebraIso | None = None
    complement: ComplementVariable | None = None
    old_generators: OldGeneratorWitnesses | None = None
    forward: RHomomorphism | None = None
    backward: RHomomorphism | None = None
    pair_checks: Report | None = None
    pair_verified: bool = False
    non_iso: NonIsoCertificate | None = None
    steps: list = field(default_factory=list)
    verdict: str = "not run"
    notes: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.verdict == "non-cancellation pair certified"

    def to_json(self):
        return {
            "schema": "dd-lab/1",
            "kind": "cancellation-certificate",
            "presentation": self.presentation.to_json(),
            "small_presentation": self.small_presentation.to_json()
            if self.small_presentation
            else None,
            "omega3": self.omega3.to_json() if self.omega3 else None,
            "exponential_map": self.phi.to_json() if self.phi else None,
            "exponential_map_checks": self.phi_checks.to_json() if self.phi_checks else None,
            "f": _element_json(self.f),
            "g": _element_json(self.g),
            "h": _element_json(self.h),
            "gh_checks": self.gh_checks.to_json() if self.gh_checks else None,
            "small_algebra": self.small_iso.to_json() if self.small_iso else None,
            "complement": self.complement.to_json() if self.complement else None,
            "old_generators": self.old_generators.to_json() if self.old_generators else None,
            "iso_pair": {
                "to_smaller": self.backward.to_json() if self.backward else None,
                "from_smaller": self.forward.to_json() if self.forward else None,
                "checks": self.pair_checks.to_json() if self.pair_checks else None,
                "verified": self.pair_verified,
            },
            "non_isomorphism": self.non_iso.to_json() if self.non_iso else None,
            "steps": [item.to_json() for item in self.steps],
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def _element_json(el: BElement | None):
    if el is None:
        return None
    return {"expr": str(el.gen), "laurent": el.laurent.to_json()}


NORMALIZATION_NOTES = (
    "the exponential map is normalized so that evaluation at U = 0 is the identity: "
    "z maps to z + x^(d+e)*U and y to P(x, z + x^(d+e)*U)/x^d",
    "the adjoined variable of the smaller ring maps to the element sigma with "
    "image sigma + U, not to w itself; w = (w + x*sigma) - x*sigma recovers w "
    "from the invariant subring and sigma",
    "equality of the invariant subring with R[x, f, g, h] is used through the "
    "verified containment (the map fixes x, f, g, h) plus the explicit "
    "expressions of all generators over R[x, f, g, h][sigma]",
)


def cancellation_certificate(
    p: DDPresentation,
    budget: int = PIPELINE_BUDGET,
    cap: int = DEFAULT_CAP,
) -> CancellationCertificate:
    """Run the full pipeline and assemble the certificate.

    Any failing sub-check produces a failed certificate naming the stage it
    failed in; an exception raised inside a stage (a `PipelineError`, a
    refused membership, an exceeded budget, ...) is reported under that
    stage with the exception's message.  The verdict is "non-cancellation
    pair certified" only when every sub-check passes, including the mutually
    inverse homomorphism pair and the invariant-based non-isomorphism of the
    two base algebras.
    """
    cert = CancellationCertificate(p, notes=NORMALIZATION_NOTES)
    steps = cert.steps

    def fail(step: str, message: str) -> CancellationCertificate:
        steps.append(CheckItem(step, False, message))
        cert.verdict = f"failed at {step}: {message}"
        return cert

    stage = "guards"
    try:
        if not p.base.is_rational():
            return fail(
                stage,
                "certificates require base ring R = Q (membership machinery restriction)",
            )
        stage = "unit-ideal conditions"
        report = omega3_check(p, budget)
        cert.omega3 = report
        if p.e <= 1:
            return fail("guards", f"requires e > 1, got e = {p.e}")
        if not report.passed:
            failed = "; ".join(
                f"{c.name} ({c.detail})" for c in report.failed_items()
            )
            return fail(stage, failed)
        steps.append(CheckItem("guards and unit-ideal conditions", True, ""))

        stage = "build_phi_extension"
        actx, phi, phi_checks = build_phi_extension(p, cap, budget)
        cert.phi = phi
        cert.phi_checks = phi_checks
        if not phi_checks.passed:
            return fail(stage, "exponential-map checks failed")
        steps.append(CheckItem("exponential map built and checked", True, ""))

        stage = "compute_slice_f"
        f = compute_slice_f(phi)
        cert.f = f
        steps.append(CheckItem("invariant element f built and fixed by the map", True, str(f.gen)))

        stage = "compute_g_h"
        g, h, gh_checks = compute_g_h(f, phi, budget)
        cert.g = g
        cert.h = h
        cert.gh_checks = gh_checks
        if not gh_checks.passed:
            return fail(stage, "division checks failed")
        steps.append(CheckItem("g and h built with verified divisions", True, ""))

        stage = "verify_E_iso"
        small_iso = verify_E_iso(f, g, h)
        cert.small_iso = small_iso
        cert.small_presentation = small_iso.presentation
        if not small_iso.checks.passed:
            return fail(stage, "relations of the smaller algebra failed")
        steps.append(CheckItem("smaller-algebra relations verified at (x, f, g, h)", True, ""))

        stage = "build_complement_variable"
        complement = build_complement_variable(phi, cap, budget)
        cert.complement = complement
        steps.append(
            CheckItem(
                "complement variable constructed",
                True,
                f"chain length {complement.chain_length}",
            )
        )

        stage = "express_old_generators"
        old_gens, small_w = express_old_generators(small_iso, complement, budget)
        cert.old_generators = old_gens
        steps.append(CheckItem("old generators expressed over the smaller ring", True, ""))

        stage = "verify_iso_pair"
        forward = RHomomorphism(
            small_w, actx, {**small_iso.inclusion.images, ADJOINED_NAME: complement.element}
        )
        backward = RHomomorphism(actx, small_w, old_gens.images)
        cert.forward = forward
        cert.backward = backward
        pair_report = verify_pair_structured(forward, backward)
        cert.pair_checks = pair_report
        cert.pair_verified = pair_report.passed
        if not pair_report.passed:
            failed = "; ".join(c.name for c in pair_report.failed_items())
            return fail(stage, failed)
        steps.append(CheckItem("mutually inverse homomorphism pair verified", True,
                               "computed legs plus entailed legs; see pair_checks"))

        stage = "distinguish_by_invariants"
        non_iso = distinguish_by_invariants(p, small_iso.presentation)
        cert.non_iso = non_iso
        if not non_iso.not_isomorphic:
            return fail(stage, non_iso.verdict)
        steps.append(CheckItem("base algebras distinguished by invariants", True,
                               f"{non_iso.tuple1} vs {non_iso.tuple2}"))

        cert.verdict = "non-cancellation pair certified"
        return cert
    except (
        PipelineError,
        NotInAlgebra,
        UnsupportedBaseRing,
        BudgetExceeded,
        DerivationError,
        AssertionError,
    ) as exc:
        return fail(stage, str(exc))
