"""End-to-end certificates for the stable-isomorphism pipeline.

For a presentation with e > 1 satisfying the unit-ideal conditions, the
pipeline builds A = B[w], the exponential map sending z to z + x^(d+e)*U and
w to w - x*U, the invariant elements

    f = x^(d+e-1)*w + z,   g = P(x,f)/x^d,   h = Q(x,g,f)/x^(e-1),

verifies that (x, f, g, h) satisfies the relations of the smaller algebra
B_{d,e-1}, and produces an explicit mutually inverse homomorphism pair
between B_{d,e}[w] and B_{d,e-1}[w'].

The complement variable sent to w' is not w itself: w' maps to an element
sigma with phi(sigma) = sigma + U, built from the Bezout cofactors of the
unit ideals that omega3 solved (this is where those hypotheses enter).  Such a sigma makes A a polynomial
ring over the invariant subring, and every old generator acquires an explicit
polynomial expression in (x, f, g, h, sigma), each verified by Laurent
equality.  The pairing with the invariant-based non-isomorphism certificate
yields the final verdict.

`to_json` prints each element once, under the stage that builds it: f, g, h,
sigma (complement.element) and psi_x .. psi_w, the images of x .. w over the
smaller ring (old_generators.images); maps and checks name them instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .derivations import (
    DEFAULT_CAP,
    Derivation,
    DerivationError,
    ExponentialMap,
    canonical_lnd,
    check_derivation_well_defined,
    check_exp_axioms,
    exp_map,
)
from .elements import (
    AlgebraContext,
    AlgebraError,
    BElement,
    NotInAlgebra,
    divide_by_x_power,
    membership_with_witness,
)
from .groebner import BudgetExceeded, DEFAULT_BUDGET
from .laurent import LaurentForm, eval_poly_at_laurent
from .poly import Polynomial
from .presentations import CheckItem, DDPresentation, Report, omega3_check
from .isomorphisms import (
    NonIsoCertificate,
    RHomomorphism,
    distinguish_by_invariants,
    round_trip_fixes,
    verify_hom,
)

ADJOINED_NAME = "W1"
SCHEMA = "dd-lab/2"  # of every JSON report, the command line's included

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


def _quotients(
    p: DDPresentation, actx: AlgebraContext, at: dict, budget: int
) -> tuple[BElement, BElement]:
    """The elements q_y, q_t of actx with x^d*q_y = P(at) and x^e*q_t = Q(at, y = q_y).

    P and Q are evaluated at the Laurent forms of x and z in `at`, which
    equals expanding them over the generators first because the Laurent
    embedding is a ring map; each division carries a membership witness.
    """
    ctx, cctx = actx.gen_ctx, actx.coeff_ctx
    q_y = divide_by_x_power(eval_poly_at_laurent(p.P.transfer(ctx), at, cctx), actx, p.d, budget)
    q_t = divide_by_x_power(eval_poly_at_laurent(p.Q.transfer(ctx), {**at, "Y": q_y.laurent}, cctx),
                            actx, p.e, budget)
    return q_y, q_t


def build_phi_extension(
    p: DDPresentation, cap: int = DEFAULT_CAP, budget: int = DEFAULT_BUDGET
) -> tuple[ExponentialMap, Report]:
    """The exponential map of the canonical derivation on A = B[w], its source.

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
    shifted_z = ext.to_laurent(ext_ctx.var("Z") + ext_ctx.var("X") ** n * ext_ctx.var("U"))
    y_elem, t_elem = _quotients(p, ext, {"X": ext.gen("X").laurent, "Z": shifted_z}, budget)
    items.append(CheckItem("image of y equals the shifted-P quotient", y_elem == phi.images["Y"],
                           "the quotient by x^d is the image of y, exponential_map.Y"))
    items.append(CheckItem("image of t equals the shifted-Q quotient", t_elem == phi.images["T"],
                           "the quotient by x^e is the image of t, exponential_map.T"))
    return phi, Report(tuple(items))


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
    the independent membership-division route must agree (checked): its
    quotient has the same Laurent form, and its witness is the normal form of
    this one modulo the relations.  Both elements must be invariant under the
    map (checked).
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
    items = [CheckItem("x^d * g = P(x, f)", g.laurent.shift(p.d) == p_at_f.laurent, "g in g.expr")]
    g_div = divide_by_x_power(p_at_f.laurent, actx, p.d, budget)
    items.append(CheckItem("membership route agrees on g",
                           g_div == g and g_div.gen == actx.reduce_witness(g_expr, budget), ""))

    q_at_gf = actx.element(q_poly.substitute({"Y": g_expr, "Z": f.gen}))
    h_expr = ctx.var("X") * ctx.var("T") + _divide_x_monomials(q_at_gf.gen - q_poly, p.e - 1)
    h = actx.element(h_expr)
    items.append(CheckItem("x^(e-1) * h = Q(x, g, f)", h.laurent.shift(p.e - 1) == q_at_gf.laurent, "h in h.expr"))
    h_div = divide_by_x_power(q_at_gf.laurent, actx, p.e - 1, budget)
    items.append(CheckItem("membership route agrees on h",
                           h_div == h and h_div.gen == actx.reduce_witness(h_expr, budget), ""))

    items.append(CheckItem("map fixes g", phi.fixes(g), ""))
    items.append(CheckItem("map fixes h", phi.fixes(h), ""))
    return g, h, Report(tuple(items))


@dataclass(frozen=True)
class SmallAlgebraIso:
    """The verified map from B_{d,e-1} onto R[x, f, g, h] inside A."""

    inclusion: RHomomorphism  # B_{d,e-1} -> A sending x,z,y,t to x,f,g,h
    checks: Report
    injectivity_note: str

    @property
    def presentation(self) -> DDPresentation:
        """The smaller presentation."""
        return self.inclusion.source.presentation

    def to_json(self):
        return {
            "images": "x, f, g, h",
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
    small = AlgebraContext(DDPresentation(p.base, p.d, p.e - 1, p.P, p.Q))
    iota = RHomomorphism(small, actx, {"X": actx.gen("X"), "Z": f, "Y": g, "T": h})
    items = [CheckItem("relations of the smaller algebra hold at (x, f, g, h)", verify_hom(iota), "")]
    note = (
        "injective structurally: z -> z + x^(d+e-1)*w is a triangular substitution, "
        "invertible over R[x, 1/x][z, w], so the induced map of Laurent models is injective"
    )
    return SmallAlgebraIso(iota, Report(tuple(items)), note)


@dataclass(frozen=True)
class ComplementVariable:
    """An element sigma with D(sigma) = 1, built from the unit-ideal cofactors."""

    element: BElement
    seed: Polynomial  # b(Z)*m(Y,Z)*T, the starting lift
    chain_length: int
    checks: Report

    def to_json(self):
        return {
            "element": str(self.element),
            "seed": str(self.seed),
            "chain_length": self.chain_length,
            "checks": self.checks.to_json(),
        }


def build_complement_variable(
    phi: ExponentialMap, bases: tuple, cap: int = DEFAULT_CAP, budget: int = DEFAULT_BUDGET
) -> ComplementVariable:
    """Construct sigma with D(sigma) = 1 for the canonical derivation D, so
    the map sends sigma to sigma + U.

    `bases` are the bases {1} of the two unit ideals that `omega3_check`
    solved (its Report's `bases`).  Starting from sigma0 = b(z)*m(y,z)*t,
    where b and m are the cofactors of dP/dZ and dQ/dY in their rows,
    D(sigma0) - 1 is divisible by x; the defect is absorbed into powers of w
    via the chain c_(j+1) = D(c_j)/x, which terminates by local nilpotency.
    D is read off the map: the U^1 coefficient of each generator is D(gen).
    """
    actx = phi.source
    gb1, gb2 = bases
    _, b_poly = gb1.reduce_to_gens(gb1.ctx.one(), 1, budget)
    _, m_poly = gb2.reduce_to_gens(gb2.ctx.one(), 2, budget)
    derivation = Derivation(actx, {g: c[1] if len(c) > 1 else actx.zero() for g, c in phi.coeffs.items()})
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
    return ComplementVariable(sigma, seed, j - 1, Report(tuple(items)))


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
    of P(x, psi_z) and Q(x, psi_y, psi_z) by x^d and x^e (`_quotients`).
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
    cctx = actx.coeff_ctx

    # z -> z - x^(d+e-1)*w; one object, so its powers are cached across calls
    z_img = LaurentForm.from_poly(cctx.var("Z")) - LaurentForm.from_poly(
        cctx.var(ADJOINED_NAME)
    ).shift(n1)

    def coord(elem: BElement, label: str) -> BElement:
        """Express an invariant element in the generators of the smaller algebra."""
        shifted = elem.laurent.substitute({"Z": z_img}, cctx)
        if shifted.deg_in(ADJOINED_NAME) > 0:
            raise PipelineError(f"{label} is not invariant: residual w after the coordinate change")
        result = membership_with_witness(shifted, small_w, budget)
        if not result.member:
            raise PipelineError(f"{label} does not lie in the smaller algebra")
        if inclusion.apply_expr(result.witness) != elem.laurent:
            raise PipelineError(f"round trip failed for {label}")
        return BElement(small_w, result.witness, shifted)

    sigma = complement.element
    x_new = small_w.gen("X")
    w_new = small_w.gen(ADJOINED_NAME)
    psi_w = coord(actx.gen(ADJOINED_NAME) + actx.gen("X") * sigma, "w + x*sigma") - x_new * w_new
    x_n = x ** (p.d + p.e)
    psi_z = coord(actx.gen("Z") - actx.element(x_n) * sigma, "z - x^(d+e)*sigma") + small_w.element(x_n) * w_new

    psi_y, psi_t = _quotients(p, small_w, {"X": x_new.laurent, "Z": psi_z.laurent}, budget)

    # each holds once the stage gets here, as coord and the divisions raise
    checks = Report(tuple(CheckItem(name, True, identity) for name, identity in (
        ("w + x*sigma lies in the invariant subring", "w + x*sigma = psi_w + x*w'"),
        ("z - x^(d+e)*sigma lies in the invariant subring", "z - x^(d+e)*sigma = psi_z - x^(d+e)*w'"),
        ("image of y divides out x^d", "x^d*psi_y = P(x', psi_z)"),
        ("image of t divides out x^e", "x^e*psi_t = Q(x', psi_y, psi_z)"),
    )))
    images = {"X": x_new, "Y": psi_y, "Z": psi_z, "T": psi_t, ADJOINED_NAME: psi_w}
    return OldGeneratorWitnesses(images, Report(tuple(direct)), checks), small_w


def verify_pair_structured(forward: RHomomorphism, backward: RHomomorphism) -> Report:
    """Verify the homomorphism pair is mutually inverse on every generator.

    `forward` is the map from B_{d,e-1}[w'] to A.  Cheap legs are computed
    symbolically; expensive legs are entailed from already-verified
    identities.  Each entailed item names its premises: the entailments use
    only that both maps send the defining relations to zero, that the
    division identities were verified as Laurent equalities, and that the
    Laurent model is a domain with x invertible (so an identity may be
    checked after clearing a power of x).
    """
    ok_fwd = verify_hom(forward)
    ok_bwd = verify_hom(backward)
    items = [
        CheckItem("map from the smaller ring sends its relations to zero", ok_fwd, ""),
        CheckItem("map to the smaller ring sends the relations to zero", ok_bwd, ""),
    ]
    if not (ok_fwd and ok_bwd):
        return Report(tuple(items))

    # composite on the smaller ring's generators
    for name, gen in (("round trip fixes x'", "X"), ("round trip sends f back to z'", "Z"),
                      ("round trip sends g back to y'", "Y")):
        items.append(CheckItem(name, round_trip_fixes(forward, backward, gen), ""))
    items.append(CheckItem(
        "round trip sends h back to t'", True,
        "entailed: x^(e-1)*h = Q(x,g,f) was verified, the backward map kills the "
        "relations, and f, g return to z', y'; divide the transported identity by x^(e-1)"))
    items.append(CheckItem(
        "round trip sends sigma back to w'", True,
        "entailed: w + x*sigma returns to its expression over the smaller ring "
        "(verified round trip), and the image of w is that expression minus x*w'; cancel x"))

    # composite on the generators of B[w]
    items.append(CheckItem("round trip fixes x", round_trip_fixes(backward, forward, "X"), ""))
    z_ok = round_trip_fixes(backward, forward, "Z")
    items.append(CheckItem("round trip fixes z", z_ok, ""))
    items.append(CheckItem("round trip fixes w", round_trip_fixes(backward, forward, ADJOINED_NAME), ""))
    items.append(CheckItem(
        "round trip fixes y", z_ok,
        "entailed: x^d * image-of-y = P(x, image-of-z) was verified on the smaller "
        "side, the forward map kills the relations, and z is fixed; divide by x^d"))
    items.append(CheckItem(
        "round trip fixes t", z_ok,
        "entailed: x^e * image-of-t = Q(x, image-of-y, image-of-z) was verified on "
        "the smaller side, the forward map kills the relations, and y, z are fixed; divide by x^e"))
    return Report(tuple(items))


@dataclass
class CancellationCertificate:
    """Structured verdict for one presentation, listing every check performed."""

    presentation: DDPresentation
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
    non_iso: NonIsoCertificate | None = None
    steps: list = field(default_factory=list)
    verdict: str = "not run"

    @property
    def certified(self) -> bool:
        return self.verdict == "non-cancellation pair certified"

    @property
    def small_presentation(self) -> DDPresentation | None:
        return self.small_iso.presentation if self.small_iso else None

    def to_json(self):
        return {
            "schema": SCHEMA,
            "kind": "cancellation-certificate",
            "presentation": self.presentation.to_json(),
            "small_presentation": self.small_presentation.to_json()
            if self.small_presentation
            else None,
            "omega3": self.omega3.to_json() if self.omega3 is not None else None,
            "exponential_map": self.phi.to_json() if self.phi else None,
            "exponential_map_checks": self.phi_checks.to_json() if self.phi_checks is not None else None,
            "f": _element_json(self.f),
            "g": _element_json(self.g),
            "h": _element_json(self.h),
            "gh_checks": self.gh_checks.to_json() if self.gh_checks is not None else None,
            "small_algebra": self.small_iso.to_json() if self.small_iso else None,
            "complement": self.complement.to_json() if self.complement else None,
            "old_generators": self.old_generators.to_json() if self.old_generators else None,
            "iso_pair": {
                "to_smaller": "old_generators.images" if self.backward else None,
                "from_smaller": "x, f, g, h, complement.element" if self.forward else None,
                "checks": self.pair_checks.to_json() if self.pair_checks is not None else None,
                "verified": self.pair_checks is not None and self.pair_checks.passed,
            },
            "non_isomorphism": self.non_iso.to_json() if self.non_iso else None,
            "steps": [item.to_json() for item in self.steps],
            "verdict": self.verdict,
            "notes": list(NORMALIZATION_NOTES),
        }


def _element_json(el: BElement | None):
    if el is None:
        return None
    return {"expr": str(el), "laurent": el.laurent.to_json()}


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

    Each stage hands back its product, Report included, and the product is
    stored before it is judged, so a failed certificate also shows the Report
    of the stage that failed.  A failed Report, or an exception raised inside
    a stage (a `PipelineError`, an `AlgebraError` such as a membership with
    no answer, an exceeded budget, ...), fails the certificate under that
    stage with its message.  The verdict is "non-cancellation pair certified"
    only when every sub-check passes, including the mutually inverse
    homomorphism pair and the invariant-based non-isomorphism of the two base
    algebras.
    """
    cert = CancellationCertificate(p)

    def require(report: Report, message: str) -> None:
        if not report.passed:
            raise PipelineError(message)

    def step(name: str, detail: str = "") -> None:
        cert.steps.append(CheckItem(name, True, detail))

    stage = "guards"
    try:
        if not p.base.is_rational():
            raise PipelineError(
                "certificates require base ring R = Q (membership machinery restriction)")
        stage = "unit-ideal conditions"
        cert.omega3 = omega3_check(p, budget)
        if p.e <= 1:
            stage = "guards"
            raise PipelineError(f"requires e > 1, got e = {p.e}")
        require(cert.omega3, "; ".join(f"{c.name} ({c.detail})" for c in cert.omega3.failed_items()))
        step("guards and unit-ideal conditions")

        stage = "build_phi_extension"
        cert.phi, cert.phi_checks = build_phi_extension(p, cap, budget)
        require(cert.phi_checks, "exponential-map checks failed")
        step("exponential map built and checked")

        stage = "compute_slice_f"
        cert.f = compute_slice_f(cert.phi)
        step("invariant element f built and fixed by the map", "f in f.expr")

        stage = "compute_g_h"
        cert.g, cert.h, cert.gh_checks = compute_g_h(cert.f, cert.phi, budget)
        require(cert.gh_checks, "division checks failed")
        step("g and h built with verified divisions")

        stage = "verify_E_iso"
        cert.small_iso = verify_E_iso(cert.f, cert.g, cert.h)
        require(cert.small_iso.checks, "relations of the smaller algebra failed")
        step("smaller-algebra relations verified at (x, f, g, h)")

        stage = "build_complement_variable"
        cert.complement = build_complement_variable(cert.phi, cert.omega3.bases, cap, budget)
        require(cert.complement.checks, "constructed element failed verification")
        step("complement variable constructed", f"chain length {cert.complement.chain_length}")

        stage = "express_old_generators"
        cert.old_generators, small_w = express_old_generators(cert.small_iso, cert.complement, budget)
        require(cert.old_generators.direct_identities, "closed-form identity failed")
        step("old generators expressed over the smaller ring")

        stage = "verify_iso_pair"
        actx = cert.phi.source
        cert.forward = RHomomorphism(
            small_w, actx, {**cert.small_iso.inclusion.images, ADJOINED_NAME: cert.complement.element}
        )
        cert.backward = RHomomorphism(actx, small_w, cert.old_generators.images)
        cert.pair_checks = verify_pair_structured(cert.forward, cert.backward)
        require(cert.pair_checks, "; ".join(c.name for c in cert.pair_checks.failed_items()))
        step("mutually inverse homomorphism pair verified",
             "computed legs plus entailed legs; see pair_checks")

        stage = "distinguish_by_invariants"
        cert.non_iso = distinguish_by_invariants(p, cert.small_iso.presentation)
        require(cert.non_iso.checklist, cert.non_iso.verdict)
        step("base algebras distinguished by invariants",
             f"{cert.non_iso.tuple1} vs {cert.non_iso.tuple2}")

        cert.verdict = "non-cancellation pair certified"
    except (PipelineError, AlgebraError, BudgetExceeded, DerivationError, AssertionError) as exc:
        cert.steps.append(CheckItem(stage, False, str(exc)))
        cert.verdict = f"failed at {stage}: {exc}"
    return cert
