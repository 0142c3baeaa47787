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
from math import lcm
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
from .poly import (
    Context,
    ContextMismatch,
    Polynomial,
    _form_mul_into,
    _scaled_int_form,
    _unscale_terms,
    coeff_div,
    parse_poly,
)
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

    def _x_adic_divisor(self, j: int, l: int, budget: _Budget) -> tuple[_Divisors, object]:
        """The lowest coefficient b^l*P(0,z)^(j+s*l) of Y^j*T^l (b the Y^s
        coefficient of Q, a rational) made monic as a divisor, and the factor
        that turns a quotient by it into one by the lowest coefficient.

        Building it charges the budget r*(j+s*l) + 1, the number of terms it
        can have; a cached divisor is free.
        """
        key = ("x-adic", j, l)
        if key not in self._nf_cache:
            p = self.presentation
            big_j = j + p.s * l
            budget.tick(p.r * big_j + 1)
            b = p.Q.coefficient_of("Y", p.s).constant_value()
            lowest = (p.p_at_x0().transfer(self.coeff_ctx) ** big_j).scale(b ** l)
            divisor = _Divisors(MonomialOrder.grevlex())
            lc = divisor.push(lowest)
            self._nf_cache[key] = (divisor, coeff_div(1, lc))
        return self._nf_cache[key]

    def _x_adic_power(self, j: int, l: int, budget: _Budget) -> tuple[dict, int]:
        """The Laurent form of Y^j*T^l as a form over one common denominator:
        its integer-scaled form and that denominator.  Callers must not
        mutate it.

        It is built along y, y^2, .., y^j, y^j*t, .., y^j*t^l, one product
        by the image of Y or T per step, and every power on the way is
        cached.  Each built power charges the budget one step per term, so a
        large shift runs out of budget after a few steps instead of building
        the whole power first.
        """
        cache = self._nf_cache
        power = cache.get(("x-adic power", j, l))
        if power is not None:
            return power
        y, t = (_scaled_int_form(self.generator_images()[g]._form()) for g in "YT")
        power = ({0: {(0,) * len(self.coeff_ctx.names): 1}}, 1)
        path = [(i, 0, y) for i in range(1, j + 1)] + [(j, k, t) for k in range(1, l + 1)]
        for i, k, (factor, df) in path:
            key = ("x-adic power", i, k)
            if key not in cache:
                out: dict = {}
                _form_mul_into(out, power[0], factor)
                out = {n: terms for n, terms in out.items() if terms}
                budget.tick(sum(map(len, out.values())))
                cache[key] = (out, power[1] * df)
            power = cache[key]
        return power

    def reduce_witness(self, expr: Polynomial, budget: int = DEFAULT_BUDGET) -> Polynomial:
        """Canonical small representative of expr modulo the defining relations."""
        rem, _ = self._relation_basis(budget).normal_form(expr, budget)
        return rem


class BElement:
    """An element of B[w..]: generator expression plus its Laurent form.

    `_text`, the printed generator expression, is made on the first `str`
    and kept, since certificates print the same element several times.
    """

    __slots__ = ("actx", "gen", "laurent", "_text")

    def __init__(self, actx: AlgebraContext, gen: Polynomial, laurent: LaurentForm):
        object.__setattr__(self, "actx", actx)
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "laurent", laurent)
        object.__setattr__(self, "_text", None)

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
        if self._text is None:
            object.__setattr__(self, "_text", str(self.gen))
        return self._text

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
    d*J + e*floor(J/s) <= (d*s + e)*J/s < m.  The division is by that lowest
    coefficient's closed form b^l*P(0,z)^J, of z-degree r*J (b the Y^s
    coefficient of Q), and the Laurent form of y^j*t^l, dear at a large
    shift, is built only once the division is exact.

    The division runs on one integer-scaled copy of f over a running
    denominator: each level subtracts q*x^i*y^j*t^l from it in place, against
    the cached integer-scaled form of y^j*t^l, and rescales the copy only
    when the denominator of that product does not divide its own.  Neither f
    nor the cached forms are mutated.  The witness is one term dict: the
    parts q*X^i*Y^j*T^l of different levels differ in (i, j, l), and the rest
    has no Y or T.
    """
    p = actx.presentation
    d, e, r, s = p.d, p.e, p.r, p.s
    cctx = actx.coeff_ctx
    scaled, den = _scaled_int_form(f._form())
    work = {n: dict(t) for n, t in scaled.items()}
    witness: dict = {}
    for m in range(-f.min_exp(), 0, -1):
        terms = work.get(-m)
        if not terms:
            continue
        c = Polynomial._raw(cctx, terms)
        big_j = max(1, m * s // (d * s + e))
        while d * big_j + e * (big_j // s) < m:
            big_j += 1
        if c.deg_in("Z") < r * big_j:
            return None
        j, l = big_j % s, big_j // s
        divisor, inverse_lc = actx._x_adic_divisor(j, l, budget)
        rem, (q,) = _normal_form(c, divisor, budget)
        if not rem.is_zero():
            return None
        q = q.scale(Fraction(inverse_lc) / den)
        i = d * big_j + e * l - m
        # coeff_ctx is gen_ctx without X, Y and T
        for ez, cz in q.terms.items():
            witness[(i, j, ez[0], l) + ez[1:]] = cz
        power, dp = actx._x_adic_power(j, l, budget)
        scaled_q, dq = _scaled_int_form({i: q.terms})
        new_den = lcm(den, dq * dp)
        if new_den != den:
            up = new_den // den
            for t in work.values():
                for ez in t:
                    t[ez] *= up
            den = new_den
        k = -(den // (dq * dp))
        _form_mul_into(work, {i: {ez: k * cz for ez, cz in scaled_q[i].items()}}, power)
    for n, t in work.items():
        if n >= 0:
            for ez, cz in _unscale_terms(t, den).items():
                witness[(n, 0, ez[0], 0) + ez[1:]] = cz
    return Polynomial._raw(actx.gen_ctx, witness)


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
