"""Elements of B = R[X,Y,Z,T]/(X^d*Y - P, X^e*T - Q), possibly with adjoined variables.

Equality in B is decided through the embedding B -> R[x, x^-1][z, w..]:
y maps to P(x,z)*x^-d and t to Q(x,y,z)*x^-e.  A BElement carries its
generator expression, which witnesses that it lies in B[w..], and its Laurent
form, the source of truth for equality.  A value computed only in the Laurent
model, such as an image under a homomorphism, is a bare LaurentForm; it
becomes an element when membership finds its witness (`divide_by_x_power`).

Membership of a Laurent form in B[w..] is first tried by division along the
x-adic filtration: y has lowest term P(0,z)*x^-d and t has lowest term
a*P(0,z)^s*x^-(d*s+e), so each negative level of the form is cleared by one
exact division in z by the lowest coefficient of some y^j*t^l.  When a
coefficient does not divide, the division refuses; a refusal is not a "no".
The input then goes to ideal membership g in (X^N) + (relations) over Q, with
the witness read off the X^N cofactor, and only that route answers "no",
with its Groebner basis as the certificate.  Both routes are restricted to
base ring R = Q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .groebner import (
    DEFAULT_BUDGET,
    GroebnerBasis,
    MonomialOrder,
    _Budget,
    _Divisors,
    _normal_form,
    buchberger,
)
from .laurent import LaurentForm, eval_poly_at_laurent
from .poly import Context, ContextMismatch, Polynomial, coeff_div, parse_poly
from .presentations import DDPresentation, GENERATOR_NAMES


class AlgebraError(ValueError):
    """Problem manipulating elements of the quotient algebra."""


class UnsupportedBaseRing(AlgebraError):
    """The operation is only implemented over R = Q (no base variables)."""


class NotInAlgebra(AlgebraError):
    """A Laurent form is not an element of the algebra; carries the failing basis."""

    def __init__(self, message: str, certificate: list[str] | None = None):
        super().__init__(message)
        self.certificate = certificate or []


class AlgebraContext:
    """A presentation together with zero or more adjoined polynomial variables."""

    __slots__ = ("presentation", "adjoined", "gen_ctx", "coeff_ctx", "_images", "_nf_cache")

    def __init__(self, presentation: DDPresentation, adjoined: Iterable[str] = ()):
        presentation.require_valid()
        adjoined = tuple(adjoined)
        base = presentation.base.variables
        taken = set(GENERATOR_NAMES) | set(base)
        for name in adjoined:
            if name in taken:
                raise AlgebraError(f"adjoined variable {name!r} is not fresh")
            taken.add(name)
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "adjoined", adjoined)
        object.__setattr__(self, "gen_ctx", Context(GENERATOR_NAMES + adjoined + base))
        object.__setattr__(self, "coeff_ctx", Context(("Z",) + adjoined + base))
        object.__setattr__(self, "_images", None)
        object.__setattr__(self, "_nf_cache", {})

    def __setattr__(self, *args):
        raise AttributeError("AlgebraContext is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraContext)
            and self.presentation == other.presentation
            and self.adjoined == other.adjoined
        )

    def __hash__(self):
        return hash((self.presentation, self.adjoined))

    def __repr__(self):
        extra = "".join(f"[{w}]" for w in self.adjoined)
        return f"<algebra {self.presentation}{extra}>"

    # -- Laurent embedding ---------------------------------------------------

    def generator_images(self) -> Mapping[str, LaurentForm]:
        if self._images is None:
            p = self.presentation
            cctx = self.coeff_ctx
            images = {"X": LaurentForm.x_power(cctx, 1)}
            p_poly = p.P.transfer(self.gen_ctx)
            q_poly = p.Q.transfer(self.gen_ctx)
            images["Y"] = eval_poly_at_laurent(p_poly, images, cctx).shift(-p.d)
            images["T"] = eval_poly_at_laurent(q_poly, images, cctx).shift(-p.e)
            object.__setattr__(self, "_images", images)
        return self._images

    def to_laurent(self, expr: Polynomial) -> LaurentForm:
        if expr.ctx != self.gen_ctx:
            expr = expr.transfer(self.gen_ctx)
        return eval_poly_at_laurent(expr, self.generator_images(), self.coeff_ctx)

    # -- element builders -------------------------------------------------------

    def element(self, expr) -> "BElement":
        if isinstance(expr, str):
            expr = parse_poly(expr, self.gen_ctx)
        elif isinstance(expr, Polynomial) and expr.ctx != self.gen_ctx:
            expr = expr.transfer(self.gen_ctx)
        return BElement(self, expr, self.to_laurent(expr))

    def gen(self, name: str) -> "BElement":
        return self.element(self.gen_ctx.var(name))

    def zero(self) -> "BElement":
        return self.element(self.gen_ctx.zero())

    def const(self, value) -> "BElement":
        return self.element(self.gen_ctx.const(value))

    def generator_names(self) -> tuple[str, ...]:
        return GENERATOR_NAMES + self.adjoined

    def relations(self) -> tuple[Polynomial, Polynomial]:
        p = self.presentation
        ctx = self.gen_ctx
        x = ctx.var("X")
        rel1 = x ** p.d * ctx.var("Y") - p.P.transfer(ctx)
        rel2 = x ** p.e * ctx.var("T") - p.Q.transfer(ctx)
        return rel1, rel2

    # -- membership ---------------------------------------------------------------

    def _membership_basis(self, n: int, budget: int) -> GroebnerBasis:
        # X gets lowest priority: the three generators then have pairwise
        # coprime leading monomials and the basis stays tiny for every n
        key = n
        if key not in self._nf_cache:
            ctx = self.gen_ctx
            rel1, rel2 = self.relations()
            gens = [ctx.var("X") ** n, rel1, rel2]
            order = MonomialOrder.elim(ctx, [v for v in ctx.names if v != "X"])
            self._nf_cache[key] = buchberger(gens, order, budget)
        return self._nf_cache[key]

    def _relation_basis(self, budget: int) -> GroebnerBasis:
        """Basis of the defining ideal alone; used to canonicalize witnesses.

        T dominates, then Y: normal forms then carry the minimal possible
        T-degree and Y-degree, which keeps the Laurent depth of witnesses and
        the cost of substituting into them small.
        """
        if "rel" not in self._nf_cache:
            order = MonomialOrder.block_sequence(self.gen_ctx, [["T"], ["Y"]])
            self._nf_cache["rel"] = buchberger(list(self.relations()), order, budget)
        return self._nf_cache["rel"]

    def _x_adic_divisor(self, j: int, l: int) -> tuple[LaurentForm, _Divisors, object]:
        """The Laurent form of Y^j*T^l, its lowest coefficient made monic as a
        divisor, and the factor that turns a quotient by the monic divisor
        into one by the lowest coefficient."""
        key = ("x-adic", j, l)
        if key not in self._nf_cache:
            form = self.to_laurent(self.gen_ctx.monomial({"Y": j, "T": l}))
            divisor = _Divisors(MonomialOrder.grevlex())
            lc = divisor.push(form.coeffs[form.min_exp()])
            self._nf_cache[key] = (form, divisor, coeff_div(1, lc))
        return self._nf_cache[key]

    def reduce_witness(self, expr: Polynomial, budget: int = DEFAULT_BUDGET) -> Polynomial:
        """Canonical small representative of expr modulo the defining relations."""
        rem, _ = self._relation_basis(budget).normal_form(expr, budget)
        return rem


class BElement:
    """An element of B[w..]: generator expression plus its Laurent form."""

    __slots__ = ("actx", "gen", "laurent")

    def __init__(self, actx: AlgebraContext, gen: Polynomial, laurent: LaurentForm):
        object.__setattr__(self, "actx", actx)
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "laurent", laurent)

    def __setattr__(self, *args):
        raise AttributeError("BElement is immutable")

    def _check(self, other: "BElement"):
        if self.actx != other.actx:
            raise ContextMismatch("elements of different algebras")

    def is_zero(self) -> bool:
        return self.laurent.is_zero()

    def __eq__(self, other):
        if not isinstance(other, BElement):
            return NotImplemented
        self._check(other)
        return self.laurent == other.laurent

    def __hash__(self):
        return hash((self.actx, self.laurent))

    def __add__(self, other: "BElement") -> "BElement":
        self._check(other)
        return BElement(self.actx, self.gen + other.gen, self.laurent + other.laurent)

    def __neg__(self) -> "BElement":
        return BElement(self.actx, -self.gen, -self.laurent)

    def __sub__(self, other: "BElement") -> "BElement":
        return self + (-other)

    def __mul__(self, other: "BElement") -> "BElement":
        self._check(other)
        return BElement(self.actx, self.gen * other.gen, self.laurent * other.laurent)

    def scale(self, q) -> "BElement":
        q = Fraction(q)
        return BElement(self.actx, self.gen.scale(q), self.laurent.scale(q))

    def __str__(self):
        return str(self.gen)

    def __repr__(self):
        return f"<element {self} of {self.actx!r}>"


class MembershipResult:
    """Outcome of a membership test, with witness or retained basis certificate."""

    __slots__ = ("member", "witness", "certificate")

    def __init__(self, member: bool, witness: Polynomial | None, certificate: list[str]):
        self.member = member
        self.witness = witness
        self.certificate = certificate


def membership_with_witness(
    f: LaurentForm, actx: AlgebraContext, budget: int = DEFAULT_BUDGET
) -> MembershipResult:
    """Decide whether a Laurent form lies in B[w..]; return a generator witness.

    Restricted to base ring R = Q.  Division along the x-adic filtration runs
    first; when it refuses, the Groebner route decides.  A refusal is never
    reported as non-membership: a negative answer comes only from the
    Groebner route and carries the reduced basis of (X^N) + relations as its
    certificate.  When the answer is positive the witness h is reduced modulo
    the relations and satisfies to_laurent(h) = f (asserted).
    """
    if not actx.presentation.base.is_rational():
        raise UnsupportedBaseRing(
            "membership over R = Q[u..] with base variables is not supported"
        )
    if f.ctx != actx.coeff_ctx:
        f = f.transfer(actx.coeff_ctx)
    if f.is_zero():
        return MembershipResult(True, actx.gen_ctx.zero(), [])

    if f.min_exp() >= 0:
        witness = f.as_poly(actx.gen_ctx, "X")
    else:
        witness = _x_adic_witness(f, actx, _Budget(budget))
        if witness is None:
            result = _groebner_membership(f, actx, budget)
            if not result.member:
                return result
            witness = result.witness
        witness = actx.reduce_witness(witness, budget)
    if actx.to_laurent(witness) != f:
        raise AssertionError("membership witness does not reproduce the input form")
    return MembershipResult(True, witness, [])


def _x_adic_witness(f: LaurentForm, actx: AlgebraContext, budget: _Budget) -> Polynomial | None:
    """A generator expression for f found level by level, lowest first, or
    None when a coefficient does not divide.

    Let J = j + s*l.  The lowest term of y^j*t^l sits at level -(d*J + e*l),
    so level -m of f is cleared by q*x^i*y^j*t^l with the least J that
    reaches it, i = d*J + e*l - m, and q the exact quotient of the level's
    coefficient by the lowest coefficient of y^j*t^l.  What is left at levels
    >= 0 is a polynomial in x, z and w..; anything left below is dropped,
    which the caller's to_laurent check would catch.

    The search for J starts at floor(m*s/(d*s + e)), below which
    d*J + e*floor(J/s) <= (d*s + e)*J/s < m.  That lowest coefficient is
    a*P(0,z)^J, of z-degree r*J, so a coefficient of lower z-degree is
    refused before the Laurent form of y^j*t^l is built: at a large shift
    that form is the dear part.
    """
    p = actx.presentation
    d, e, r, s = p.d, p.e, p.r, p.s
    ctx = actx.gen_ctx
    witness = ctx.zero()
    for m in range(-f.min_exp(), 0, -1):
        c = f.coeffs.get(-m)
        if c is None:
            continue
        big_j = max(1, m * s // (d * s + e))
        while d * big_j + e * (big_j // s) < m:
            big_j += 1
        if c.deg_in("Z") < r * big_j:
            return None
        j, l = big_j % s, big_j // s
        form, divisor, inverse_lc = actx._x_adic_divisor(j, l)
        i = -form.min_exp() - m
        rem, (q,) = _normal_form(c, divisor, budget)
        if not rem.is_zero():
            return None
        q = q.scale(inverse_lc)
        f = f - LaurentForm.from_poly(q, i) * form
        witness = witness + q.transfer(ctx) * ctx.monomial({"X": i, "Y": j, "T": l})
    rest = LaurentForm._raw(f.ctx, {k: coeff for k, coeff in f.coeffs.items() if k >= 0})
    return witness + rest.as_poly(ctx, "X")


def _groebner_membership(f: LaurentForm, actx: AlgebraContext, budget: int) -> MembershipResult:
    """Ideal membership of x^n*f in (X^n) + relations, n = -min_exp(f) > 0.

    The witness is the unreduced cofactor of X^n; a negative answer carries
    the reduced basis as its certificate.
    """
    n = -f.min_exp()
    gb = actx._membership_basis(n, budget)
    rem, cof = gb.reduce_to_gens(f.shift(n).as_poly(actx.gen_ctx, "X"), 0, budget)
    if not rem.is_zero():
        return MembershipResult(False, None, [str(p) for p in gb.polys])
    return MembershipResult(True, cof, [])


def divide_by_x_power(
    form: LaurentForm, actx: AlgebraContext, n: int, budget: int = DEFAULT_BUDGET
) -> BElement:
    """The element q of B[w..] with x^n * q = form, when it exists."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    shifted = form.shift(-n)
    result = membership_with_witness(shifted, actx, budget)
    if not result.member:
        raise NotInAlgebra(
            f"element is not divisible by X^{n} in the algebra",
            result.certificate,
        )
    return BElement(actx, result.witness, shifted)
