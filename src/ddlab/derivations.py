"""Derivations and exponential maps on B[w..].

The canonical locally nilpotent derivation sends x to 0, z to x^(d+e),
y to dP/dZ(x,z)*x^e, t to dQ/dY*dP/dZ + dQ/dZ*x^d, and every adjoined
variable to -x.  Derivations act on elements through the Leibniz rule on
their generator-expression witnesses.  A derivation computes each D(expr)
once and keeps it for its lifetime, so the chains a, D(a), D^2(a), ... that
`nilpotency_index` builds are the ones `exp_map` reads.  The exponential
map exp(D) is an R-algebra homomorphism B[w..] -> B[w..][U], built from the
U-coefficient lists c_i = D^i(gen)/i! and evaluated like any other
homomorphism.  Its axioms are checked symbolically.  In the cocycle check
delta_V(delta_U(g)) = delta_(U+V)(g), the images of delta_V and the right
side are sums sum_i L(c_i)*v^i, v = V or U + V, built from the Laurent forms
L(c_i) of the coefficients, as the images of exp(D) are with v = U; the
left side evaluates each generator's U-expression, sum_i c_i*U^i, at the
delta_V images, so it is computed apart from the right side (Freudenburg,
"Algebraic Theory of Locally Nilpotent Derivations", 2nd ed., 2017).
Base-ring variables are always mapped to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .elements import AlgebraContext, BElement
from .isomorphisms import RHomomorphism, verify_hom
from .laurent import LaurentForm, eval_in_powers, eval_poly_at_laurent
from .poly import Polynomial
from .presentations import CheckItem, DDPresentation, Report, validate_presentation

DEFAULT_CAP = 64


class DerivationError(ValueError):
    pass


class Derivation:
    """An R-derivation given by its images on the algebra generators.

    `_applied` maps each expression in `actx.gen_ctx` that the derivation has
    been applied to, keyed by value, to its image: each D(expr) is computed
    once and kept for the derivation's lifetime.  It holds results, not
    verdicts; every check still computes from them.
    """

    __slots__ = ("actx", "images", "_applied")

    def __init__(self, actx: AlgebraContext, images: Mapping[str, BElement]):
        names = actx.generator_names()
        missing = [n for n in names if n not in images]
        if missing:
            raise DerivationError(f"missing derivation images for {missing}")
        for name, el in images.items():
            if el.actx != actx:
                raise DerivationError(f"image of {name} lives in a different algebra")
        object.__setattr__(self, "actx", actx)
        object.__setattr__(self, "images", {n: images[n] for n in names})
        object.__setattr__(self, "_applied", {})

    def __setattr__(self, *args):
        raise AttributeError("Derivation is immutable")

    def apply_expr(self, expr: Polynomial) -> BElement:
        """Leibniz expansion: sum over generators of d(expr)/dv * D(v),
        formed on the first call with an expression of this value only."""
        ctx = self.actx.gen_ctx
        if expr.ctx != ctx:
            expr = expr.transfer(ctx)
        el = self._applied.get(expr)
        if el is None:
            out = ctx.zero()
            for name, image in self.images.items():
                part = expr.partial(name)
                if not part.is_zero() and not image.gen.is_zero():
                    out = out + part * image.gen
            el = self._applied[expr] = self.actx.element(out)
        return el

    def apply(self, a: BElement) -> BElement:
        if a.actx != self.actx:
            raise DerivationError("element belongs to a different algebra")
        return self.apply_expr(a.gen)

    def to_json(self):
        return {name: str(el) for name, el in self.images.items()}


def canonical_lnd(actx: AlgebraContext) -> Derivation:
    """The canonical locally nilpotent derivation of the presentation."""
    p = actx.presentation
    ctx = actx.gen_ctx
    x = ctx.var("X")
    p_poly = p.P.transfer(ctx)
    q_poly = p.Q.transfer(ctx)
    pz = p_poly.partial("Z")
    images = {
        "X": actx.zero(),
        "Z": actx.element(x ** (p.d + p.e)),
        "Y": actx.element(pz * x ** p.e),
        "T": actx.element(q_poly.partial("Y") * pz + q_poly.partial("Z") * x ** p.d),
    }
    for w in actx.adjoined:
        images[w] = actx.element(-x)
    return Derivation(actx, images)


def check_derivation_well_defined(d: Derivation) -> bool:
    """True iff both defining relations are sent to 0 in the algebra."""
    rel1, rel2 = d.actx.relations()
    return d.apply_expr(rel1).is_zero() and d.apply_expr(rel2).is_zero()


def _iterates(d: Derivation, a: BElement, cap: int) -> list[BElement] | None:
    """[a, D(a), ..., D^n(a)] with D^(n+1)(a) = 0; None if D^(cap+1)(a) != 0."""
    chain = [a]
    while len(chain) <= cap + 1:
        nxt = d.apply(chain[-1])
        if nxt.is_zero():
            return chain
        chain.append(nxt)
    return None


def nilpotency_index(d: Derivation, a: BElement, cap: int = DEFAULT_CAP) -> int | None:
    """Smallest n with D^n(a) != 0 and D^(n+1)(a) = 0; None if none is found
    for n up to the cap.

    The zero element has index 0 by convention.
    """
    chain = _iterates(d, a, cap)
    return None if chain is None else len(chain) - 1


class ExponentialMap(RHomomorphism):
    """exp(D) as the R-algebra homomorphism B[w..] -> B[w..][U].

    The target adjoins U after the source's adjoined variables.  `coeffs`
    holds each generator's U-coefficients c_0, c_1, ..., elements of the
    source; its image is the target element sum_i c_i*U^i, whose Laurent
    form is sum_i L(c_i)*U^i, built from the coefficients' forms.
    """

    __slots__ = ("coeffs",)

    # the inherited evaluation, bound here so that it is also an attribute of
    # this class: the benchmark tracer times it as its own span
    apply_expr = RHomomorphism.apply_expr

    def __init__(self, actx: AlgebraContext, coeffs: Mapping[str, list[BElement]]):
        names = actx.generator_names()
        missing = [n for n in names if n not in coeffs]
        if missing:
            raise DerivationError(f"missing exponential-map coefficients for {missing}")
        target = actx.extend("U")
        cctx = target.coeff_ctx
        u = LaurentForm.from_poly(cctx.var("U"))
        k = len(names)  # U's slot in the target's gen_ctx
        store, images = {}, {}
        for name in names:
            lst = list(coeffs[name])
            if not lst:
                raise DerivationError(f"empty coefficient list for {name}")
            for el in lst:
                if el.actx != actx:
                    raise DerivationError("coefficient in a different algebra")
            while len(lst) > 1 and lst[-1].is_zero():
                lst.pop()
            store[name] = lst
            expr = Polynomial(target.gen_ctx, {
                e[:k] + (i,) + e[k:]: q for i, c in enumerate(lst) for e, q in c.gen.terms.items()
            })
            images[name] = BElement(target, expr, eval_in_powers([c.laurent for c in lst], u, cctx))
        super().__init__(actx, target, images)
        self.coeffs = store

    def fixes(self, a: BElement) -> bool:
        """True iff the element is invariant (image equals the element itself)."""
        return self.apply(a) == a.laurent.transfer(self.target.coeff_ctx)

    def to_json(self):
        return {name: [str(c) for c in lst] for name, lst in self.coeffs.items()}


def exp_map(d: Derivation, cap: int = DEFAULT_CAP) -> ExponentialMap:
    """exp(D): coefficient i of each generator is D^i(gen)/i!."""
    actx = d.actx
    coeffs = {}
    for name in actx.generator_names():
        chain = _iterates(d, actx.gen(name), cap)
        if chain is None:
            raise DerivationError(
                f"no nilpotency for generator {name} within cap {cap}; not locally nilpotent?"
            )
        coeffs[name] = [el.scale(Fraction(1, math.factorial(i))) for i, el in enumerate(chain)]
    return ExponentialMap(actx, coeffs)


def check_exp_axioms(delta: ExponentialMap) -> Report:
    """Verify the exponential-map axioms symbolically on every generator.

    Checks, in order: the U = 0 evaluation returns each generator, both
    defining relations map to zero (the map is well defined on the quotient),
    and delta_V(delta_U(g)) = delta_(U+V)(g) over B[w..][U,V].
    """
    actx = delta.source
    items = []

    eps_ok = all(delta.coeffs[n][0] == actx.gen(n) for n in actx.generator_names())
    items.append(CheckItem("evaluation at U=0 is the identity", eps_ok,
                           "constant coefficient equals the generator"))
    items.append(CheckItem("defining relations map to zero", verify_hom(delta), ""))

    # delta_V(g) = sum_i L(c_i)*V^i and the rhs delta_(U+V)(g) = sum_i
    # L(c_i)*(U+V)^i are built from the coefficients' Laurent forms; the lhs
    # evaluates each U-expression at the delta_V images, U fixed
    uv_ctx = delta.target.coeff_ctx.extend("V")
    v = LaurentForm.from_poly(uv_ctx.var("V"))
    shifted = LaurentForm.from_poly(uv_ctx.var("U") + uv_ctx.var("V"))
    forms = {name: [c.laurent.transfer(uv_ctx) for c in lst] for name, lst in delta.coeffs.items()}
    at_v = {name: eval_in_powers(lst, v, uv_ctx) for name, lst in forms.items()}
    cocycle_ok = True
    detail = ""
    for name, el in delta.images.items():
        if eval_poly_at_laurent(el.gen, at_v, uv_ctx) != eval_in_powers(forms[name], shifted, uv_ctx):
            cocycle_ok = False
            detail = f"composition mismatch on generator {name}"
            break
    items.append(CheckItem("delta_V after delta_U equals delta_(U+V)", cocycle_ok, detail))
    return Report(tuple(items))


@dataclass(frozen=True)
class MLReport:
    """Hypothesis-checked report on the invariant subring over R."""

    presentation: DDPresentation
    checklist: Report
    direct_facts: tuple[str, ...]
    conclusion: str | None

    def to_json(self):
        return {
            "presentation": self.presentation.to_json(),
            "checks": self.checklist.to_json(),
            "direct_facts": list(self.direct_facts),
            "conclusion": self.conclusion,
        }


def ml_report(p: DDPresentation) -> MLReport:
    """Report on ML_R(B) = R[x].

    The hypotheses actually used are checked (valid presentation, r >= 1,
    monicity convention); the canonical derivation is verified to annihilate
    R[x] directly.  The equality itself is emitted as a theorem-backed
    conclusion, never as an independent computation.
    """
    validation = validate_presentation(p)
    items = [validation.as_check("presentation valid")]
    facts: list[str] = []
    if validation.passed:
        items.append(CheckItem("deg_Z P(0,Z) >= 1", p.r >= 1, f"r = {p.r}"))
        actx = AlgebraContext(p)
        d = canonical_lnd(actx)
        items.append(CheckItem("canonical derivation well defined",
                               check_derivation_well_defined(d), ""))
        x_killed = d.images["X"].is_zero()
        items.append(CheckItem("derivation annihilates x", x_killed, "D(x) = 0"))
        facts.append("D(x) = 0 verified; base variables map to 0 by construction")
        facts.append("hence R[x] lies in the kernel of D, so R[x] is contained in an invariant subring")
        facts.append(f"r > 1: {p.r > 1}")
    checklist = Report(tuple(items), dict(validation.facts))
    conclusion = None
    if checklist.passed:
        conclusion = "ML_R(B) = R[x] (theorem-backed conclusion after hypothesis checks)"
    return MLReport(p, checklist, tuple(facts), conclusion)
