"""Elements of B = R[X,Y,Z,T]/(X^d*Y - P, X^e*T - Q), possibly with adjoined variables.

Equality in B is decided through the embedding B -> R[x, x^-1][z, w..]:
y maps to P(x,z)*x^-d and t to Q(x,y,z)*x^-e.  A BElement carries its
generator expression, which witnesses that it lies in B[w..], and its Laurent
form, the source of truth for equality.  A value computed only in the Laurent
model, such as an image under a homomorphism, is a bare LaurentForm; it
becomes an element when membership finds its witness (`divide_by_x_power`).

Membership of a Laurent form in B[w..] is decided over R = Q by division
along the x-adic filtration.  The lowest terms of x, z, w.., y and t are
x, z, w.., P(0,z)*x^-d and b*P(0,z)^s*x^-(d*s+e), b the Y^s coefficient of Q;
at level -m the algebra S they generate holds exactly the multiples of
P(0,z)^J(m), J(m) the least J with d*J + e*floor(J/s) >= m, as y^j*t^l,
J = j + s*l, has its lowest term at level -(d*J + e*l).  The division clears
the lowest level of a form by an exact division in z by such a coefficient,
a level at a time, until what is left is a polynomial.  Of the quotient, the
multiple of P(0,z)^(j - J), j = ceil(m/d), goes to x^(d*j - m)*y^j, whose
lowest coefficient is P(0,z)^j: that monomial is standard for the relation
basis that reduces witnesses, so they leave the division almost in normal
form, and only the rest of the quotient needs t.  The division runs on the
packed integral state of the Laurent layer: long divisions in z by integral
powers of P(0,z), which are kept per context, with b^l a rational factor of
the quotient, so b and the Z-leading coefficient of P(0,Z) must be nonzero
rationals.

A coefficient that does not divide proves non-membership, since S is the
initial algebra of B[w..] by the subalgebra-basis criterion (Robbiano and
Sweedler, "Subalgebra bases", 1990) for the x-adic valuation:
- the relations among the lowest terms are I0 = (X^d*Y - P(0,Z),
  X^e*T - b*Y^s), the kernel once X is inverted, if I0 : X = I0;
- they lift to elements of larger order: x^d*y - P(0,z) = P(x,z) - P(0,z)
  has order >= 1 > 0, and x^e*t - b*y^s = sum_{k<s} q_k(x,z)*y^k has terms
  of weight >= -d*(s-1) > -d*s;
- the lifts have standard representations (no monomial of order below the
  lift's): the first is a polynomial in x and z, the second divides to 0.
So the least-weight part of a representation of a member below its order
is a relation, which the lifts trade for terms of larger weight: the lowest
coefficient of every member lies in S.  So two members subtracted from a
form leave level -m coefficients that differ by a multiple of
P(0,z)^J(m): the refused level and the remainder do not depend on the
pieces chosen at the levels below.  The completeness report computes the
two premises, I0 : X = I0 and the division of x^e*t - b*y^s.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple

from .groebner import (
    DEFAULT_BUDGET,
    GroebnerBasis,
    MonomialOrder,
    _Budget,
    buchberger,
    elimination_ideal,
)
from .laurent import LaurentForm, _power, eval_poly_at_laurent, image_entry
from .poly import (
    PACKED_BITS,
    Context,
    ContextMismatch,
    Polynomial,
    _check_packed_exponent,
    _levels,
    _lowest_terms,
    _packed_product,
    _top,
    _unpack_terms,
    parse_poly,
)
from .presentations import CheckItem, DDPresentation, GENERATOR_NAMES, Report


class AlgebraError(ValueError):
    """Problem manipulating elements of the quotient algebra."""


class NotInAlgebra(AlgebraError):
    """A Laurent form is not an element of the algebra; carries the non-member certificate."""

    def __init__(self, message: str, certificate: dict | None = None):
        super().__init__(message)
        self.certificate = certificate


class AlgebraContext:
    """A presentation together with zero or more adjoined polynomial variables.

    `_relations` holds the basis of the defining relations over X, Y, Z, T
    and the base variables once it is made; a context made by `extend`
    shares it with its parent, and each keeps it transferred into its own
    `gen_ctx` in `_nf_cache`.
    """

    __slots__ = ("presentation", "adjoined", "gen_ctx", "coeff_ctx", "_images", "_nf_cache", "_relations")

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
        object.__setattr__(self, "_relations", {})

    def extend(self, *names: str) -> "AlgebraContext":
        """This algebra with names adjoined after its own adjoined variables.

        No relation holds an adjoined variable, so the basis of the relations
        stays a Groebner basis, with the same leads and order, when the
        variables are added: the two contexts share it (see
        `reduce_witness`)."""
        child = AlgebraContext(self.presentation, self.adjoined + names)
        object.__setattr__(child, "_relations", self._relations)
        return child

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
            images["Y"] = eval_poly_at_laurent(p.P, images, cctx).shift(-p.d)
            images["T"] = eval_poly_at_laurent(p.Q, images, cctx).shift(-p.e)
            object.__setattr__(self, "_images", images)
        return self._images

    def to_laurent(self, expr: Polynomial) -> LaurentForm:
        return eval_poly_at_laurent(expr, self.generator_images(), self.coeff_ctx)

    # -- element builders -------------------------------------------------------

    def element(self, expr) -> "BElement":
        if isinstance(expr, str):
            expr = parse_poly(expr, self.gen_ctx)
        elif isinstance(expr, Polynomial) and expr.ctx != self.gen_ctx:
            expr = expr.transfer(self.gen_ctx)
        return BElement(self, expr, self.to_laurent(expr))

    def gen(self, name: str) -> "BElement":
        """A generator or base variable, with the Laurent form that
        `generator_images` holds for it, or the variable itself (z, w.., u..)."""
        expr = self.gen_ctx.var(name)
        image = self.generator_images().get(name)
        if image is None:
            image = LaurentForm.from_poly(self.coeff_ctx.var(name))
        return BElement(self, expr, image)

    def zero(self) -> "BElement":
        return BElement(self, self.gen_ctx.zero(), LaurentForm.zero(self.coeff_ctx))

    def const(self, value) -> "BElement":
        expr = self.gen_ctx.const(value)
        return BElement(self, expr, LaurentForm.from_poly(expr.transfer(self.coeff_ctx)))

    def generator_names(self) -> tuple[str, ...]:
        return GENERATOR_NAMES + self.adjoined

    def relations(self) -> tuple[Polynomial, Polynomial]:
        return tuple(r.transfer(self.gen_ctx) for r in self.presentation.relations())

    # -- membership ---------------------------------------------------------------

    def _x_adic_b(self) -> Fraction:
        """b, the Y^s coefficient of Q, as a rational, after checking that it
        and the Z-leading coefficient of P(0,Z) are nonzero rationals; the
        x-adic division divides by both.  The check is made once, with the
        powers of P(0,z) that `_p0_power` adds to, {0: 1, 1: P(0,z)} at first.

        Raises AlgebraError naming the coefficient that is not rational.
        """
        if "x-adic" not in self._nf_cache:
            p = self.presentation
            p0 = p.p_at_x0()
            lead = p0.coefficient_of("Z", p.r)
            if not lead.is_constant():
                raise AlgebraError(f"the Z-leading coefficient {lead} of P(0,Z) is not a nonzero rational")
            if not p.b.is_constant():
                raise AlgebraError(f"b = {p.b}, the Y^s coefficient of Q, is not a nonzero rational")
            p0 = LaurentForm.from_poly(p0.transfer(self.coeff_ctx))
            self._nf_cache["x-adic"] = (Fraction(p.b.constant_value()), {0: {0: 1}, 1: p0.num}, p0.den)
        return self._nf_cache["x-adic"][0]

    def _p0_power(self, big_j: int, budget: _Budget) -> tuple[dict, int]:
        """P(0,z)^J as an integral term dict under packed keys (not to be
        mutated) and its denominator; b^l times it is the lowest coefficient
        of Y^j*T^l, J = j + s*l, and it is that of Y^J.  Call `_x_adic_b`
        first.

        A power is the product of the powers of half its exponent, and every
        power made is kept: a deep level keeps about log J powers, where a
        list of every power below J would hold about r*J^2/2 terms.  Each
        product charges the budget its term pairs, len(a)*len(b), before it
        is formed, so the budget bounds the work, which grows as about J^2;
        a power already kept is free.
        """
        _, powers, den = self._nf_cache["x-adic"]
        width = len(self.coeff_ctx.names)

        def power(k: int) -> dict:
            if k not in powers:
                a, b = power(k // 2), power(k - k // 2)
                budget.tick(len(a) * len(b))
                powers[k] = _packed_product(a, b, width)
            return powers[k]

        return power(big_j), den ** big_j

    def _power(self, name: str, k: int, budget: _Budget) -> tuple[dict, int]:
        """The k-th power of a generator image as an integral form under
        packed keys (not to be mutated) and its denominator, from the power
        list `to_laurent` grows too.  Each power added charges the budget one
        step per term."""
        _, powers, den, _ = image_entry(self.generator_images()[name])
        width = len(self.coeff_ctx.names)
        while len(powers) <= k:
            added = _power(powers, len(powers), width)
            budget.tick(len(added))
        return powers[k], den ** k

    def completeness_report(self, budget: int = DEFAULT_BUDGET) -> Report:
        """The computed premises of the completeness of the x-adic division (see
        the module docstring), made once under the first caller's budget and kept."""
        if "completeness" not in self._nf_cache:
            rels = _initial_relations(self.presentation, self.gen_ctx)
            lift = self.to_laurent(rels[1])
            witness, refusal = _x_adic_witness(lift, self, _Budget(budget))
            saturated = _x_is_nonzerodivisor(rels, budget)
            self._nf_cache["completeness"] = Report((
                CheckItem("I0 : X = I0", saturated, f"I0 = ({rels[0]}, {rels[1]})"),
                CheckItem("x^e*t - b*y^s divides to 0", refusal is None and self.to_laurent(witness) == lift,
                          f"witness {witness}" if refusal is None else f"refused at level {-refusal[0]}"),
            ))
        return self._nf_cache["completeness"]

    def reduce_witness(self, expr: Polynomial, budget: int = DEFAULT_BUDGET) -> Polynomial:
        """Canonical small representative of expr modulo the defining relations.

        It is the normal form modulo a basis of the defining ideal alone,
        made once and kept.  T dominates, then Y: normal forms then carry the
        minimal possible T-degree and Y-degree, which keeps the Laurent depth
        of witnesses and the cost of substituting into them small.  The
        cofactors are not read, so the division is `GroebnerBasis.remainder`,
        in basis order; the witnesses that the x-adic division leaves are
        almost reduced, so few steps are charged in any order.
        """
        if "rel" not in self._nf_cache:
            def order(ctx):
                return MonomialOrder.block_sequence(ctx, [["T"], ["Y"]])

            shared, ctx = self._relations, self.gen_ctx
            if "basis" not in shared:
                rels = self.presentation.relations()
                shared["basis"] = buchberger(list(rels), order(rels[0].ctx), budget)
            gb = shared["basis"]
            self._nf_cache["rel"] = gb if gb.ctx == ctx else GroebnerBasis(
                ctx, order(ctx), tuple(p.transfer(ctx) for p in gb.polys), tuple(g.transfer(ctx) for g in gb.gens),
                tuple(tuple(c.transfer(ctx) for c in row) for row in gb.cofactors),
            )
        return self._nf_cache["rel"].remainder(expr, budget)


class BElement:
    """An element of B[w..]: generator expression plus its Laurent form.

    It prints as its expression, only in `to_json`, and a certificate prints
    it once (see `ddlab.cancellation`), so the text is not kept.
    """

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


class MembershipResult(NamedTuple):
    """A member's witness, or a non-member's certificate: a JSON-ready dict of
    the refused level, the divisor b^l*P(0,Z)^J as unexpanded text, the
    nonzero remainder modulo it, and the completeness report."""

    member: bool
    witness: Polynomial | None
    certificate: dict | None


def membership_with_witness(
    f: LaurentForm, actx: AlgebraContext, budget: int = DEFAULT_BUDGET
) -> MembershipResult:
    """Decide whether a Laurent form lies in B[w..]; return a generator witness.

    Restricted to base ring R = Q.  The x-adic division decides; a witness
    h is reduced modulo the relations when f has a negative x-exponent, and
    to_laurent(h) = f is asserted.  Otherwise h has no Y or T, and such a
    polynomial is already reduced: every lead of a basis of the relations
    holds Y or T, since the relations meet R[X, Z, W..] only in 0.
    A refusal at level -m is a "no": the initial forms of the generators
    generate the initial algebra of B[w..] (see the module docstring), so the
    lowest coefficient of f minus the member built so far, not a multiple of
    b^l*P(0,z)^J(m), is no member's.  That level and coefficient are checked
    against the partial witness, and the completeness report must pass, or
    AlgebraError is raised.
    """
    if not actx.presentation.base.is_rational():
        raise AlgebraError("membership over R = Q[u..] with base variables is not supported")
    if f.ctx != actx.coeff_ctx:
        f = f.transfer(actx.coeff_ctx)
    witness, refusal = _x_adic_witness(f, actx, _Budget(budget))
    if refusal is not None:
        m, coeff, certificate = refusal
        residue = f - actx.to_laurent(witness)
        if residue.min_exp() != -m or residue.coeffs[-m] != coeff:
            raise AssertionError("refused coefficient is not the lowest one of the residue")
        report = actx.completeness_report(budget)
        if not report.passed:
            failed = "; ".join(c.name for c in report.failed_items())
            raise AlgebraError(f"x-adic division not known to be complete ({failed}); no answer")
        return MembershipResult(False, None, {**certificate, "completeness": report.to_json()})
    if f.min_exp() < 0:
        witness = actx.reduce_witness(witness, budget)
    if actx.to_laurent(witness) != f:
        raise AssertionError("membership witness does not reproduce the input form")
    return MembershipResult(True, witness, None)


def _x_adic_witness(f: LaurentForm, actx: AlgebraContext, budget: _Budget) -> tuple[Polynomial, tuple | None]:
    """A generator expression for f, lowest level first, and None; or, at
    the first level -m whose coefficient does not divide, the expression for
    the levels cleared so far and (m, c, certificate without the report), c
    the coefficient at level -m that the expression leaves.

    Level -m, of coefficient c, needs J = J(m), searched up from
    floor(m*s/(d*s + e)), below which d*J + e*floor(J/s) <= (d*s + e)*J/s
    < m.  A c of z-degree below r*J is refused before P(0,z)^J is built;
    otherwise c is divided in z by the integral P(0,z)^J (`_divide_in_z`),
    and a remainder is refused.  The quotient q = c/P(0,z)^J is then cleared
    by at most two pieces, each read from the image powers only once exact.
    With jy = ceil(m/d) >= J, the multiple of P(0,z)^(jy - J) in q, found by
    a second division when q reaches its z-degree, gives q_hi*x^iy*y^jy,
    iy = d*jy - m < d: that monomial is standard for the relation basis of
    `reduce_witness`, whose only lead without T is X^d*Y.  What is left of q
    gives (q/b^l)*x^i*y^j*t^l, j + s*l = J, i = d*J + e*l - m, whose lowest
    coefficient is b^l*P(0,z)^J; when jy = J, all of q goes to x^iy*y^jy
    instead.  The pieces are those of dividing c by P(0,z)^jy first, as the
    remainders in z are unique, but a refusal never builds P(0,z)^jy.

    The work is f's numerators (see `LaurentForm`), split once into a map
    {level: terms} (`poly._levels`), as the levels are cleared in order,
    over a running denominator, changed in place.  A piece's product with
    the powers of y and t is added to the work a term at a time, each term
    into its level, which joins a heap of levels if new: no product reaches
    below the level it clears, so the loop visits no empty level.  q stays
    packed for its products and is unpacked once, into the expression, the
    rest of the work at the end, and c and its remainder only on a refusal.
    Neither f nor the cached powers are mutated.  A piece whose product
    could have an exponent over MAX_PACKED_EXPONENT raises ExponentLimit
    before its powers are read.  The pieces differ in (i, j, l), and the
    rest has no Y or T.  Raises AlgebraError when b or the Z-leading
    coefficient of P(0,Z) is not a nonzero rational.
    """
    p = actx.presentation
    d, e, r, s = p.d, p.e, p.r, p.s
    b = actx._x_adic_b()
    cctx = actx.coeff_ctx
    width = len(cctx.names)
    sh = PACKED_BITS * width  # x's exponent is the field above it
    shift, mask = sh - PACKED_BITS, (1 << sh) - 1  # Z is the top field of a level's terms
    images = actx.generator_images()
    y_top, t_top = image_entry(images["Y"])[3], image_entry(images["T"])[3]
    work, den = _levels(f.num, width), f.den
    heap = list(work)  # the levels made so far, lowest first
    heapify(heap)
    witness: dict = {}

    def subtract(q: dict, ratio: Fraction, i: int, j: int, l: int):
        """Put ratio*q*x^i*Y^j*T^l into the witness and take its image from
        the work."""
        nonlocal den
        q, dq = _lowest_terms({ez: cz * ratio.numerator for ez, cz in q.items()}, ratio.denominator)
        q_top = 0
        # coeff_ctx is gen_ctx without X, Y and T
        for ez, cz in _unpack_terms(q, width, dq).items():
            witness[(i, j, ez[0], l) + ez[1:]] = cz
            q_top = max(q_top, *ez)
        _check_packed_exponent(q_top + j * y_top + l * t_top)
        y_power, dy = actx._power("Y", j, budget)
        t_power, dt = actx._power("T", l, budget)
        dp = dq * dy * dt
        new_den = lcm(den, dp)
        if new_den != den:
            up = new_den // den
            for t in work.values():
                for ez in t:
                    t[ez] *= up
            den = new_den
        k, i = -(den // dp), i << sh
        factor = _packed_product({i + ez: k * cz for ez, cz in q.items()}, y_power, width)
        for key, c in (_packed_product(factor, t_power, width) if l else factor).items():
            level = work.get(key >> sh)
            if level is None:
                level = work[key >> sh] = {}
                heappush(heap, key >> sh)
            ez = key & mask
            c += level.get(ez, 0)
            if c:
                level[ez] = c
            else:
                del level[ez]

    while heap and heap[0] < 0:
        m = -heappop(heap)
        terms = work[-m]
        if not terms:
            continue
        big_j = max(1, m * s // (d * s + e))
        while d * big_j + e * (big_j // s) < m:
            big_j += 1
        j, l = big_j % s, big_j // s
        q, rem, scale = {}, terms, 1
        if max(terms) >> shift >= r * big_j:
            divisor, d_den = actx._p0_power(big_j, budget)
            q, rem, scale = _divide_in_z(terms, divisor, width, budget)
        if rem:
            divisor = f"({p.p_at_x0()})^{big_j}"
            if l and p.b != p.b.ctx.one():
                divisor = f"({p.b})^{l}*{divisor}"
            c = Polynomial._raw(cctx, _unpack_terms(terms, width, den))
            rem = Polynomial._raw(cctx, _unpack_terms(rem, width, scale * den))
            certificate = {"level": -m, "divisor": divisor, "remainder": str(rem)}
            return Polynomial._raw(actx.gen_ctx, witness), (m, c, certificate)
        # scale*c*den = q*P(0,z)^J*d_den, so c/P(0,z)^J is q times ratio
        ratio = Fraction(d_den, scale * den)
        jy = -(-m // d)
        if jy == big_j:
            subtract(q, ratio, d * jy - m, jy, 0)
            continue
        if max(q) >> shift >= r * (jy - big_j):
            # hi_scale*q = q_hi*P(0,z)^(jy-J)*hi_den + the new q
            divisor, hi_den = actx._p0_power(jy - big_j, budget)
            q_hi, q, hi_scale = _divide_in_z(q, divisor, width, budget)
            ratio /= hi_scale
            subtract(q_hi, ratio * hi_den, d * jy - m, jy, 0)
        if q:
            subtract(q, ratio / b ** l, d * big_j + e * l - m, j, l)
    for n, t in work.items():
        if n >= 0:
            for ez, cz in _unpack_terms(t, width, den).items():
                witness[(n, 0, ez[0], 0) + ez[1:]] = cz
    return Polynomial._raw(actx.gen_ctx, witness), None


def _divide_in_z(terms: dict, divisor: dict, width: int, budget: _Budget) -> tuple[dict, dict, int]:
    """Long division in z, the top field of packed keys of `width` fields,
    of an integral term dict by an integral divisor whose z-leading
    coefficient is an int: the quotient, the remainder and the scale, all
    int, with scale*terms = quotient*divisor + remainder and no term of the
    remainder of z-degree that of the divisor or more.  Both are unique, so
    they are those of any division by the divisor.

    The rows of equal z-degree are reduced from the top down, one quotient
    row each, their degrees taken from a heap: exponents are sparse and may
    be near MAX_PACKED_EXPONENT.  It is fraction-free: when the lead does
    not divide a row, everything left and the quotient so far are multiplied
    by lead/gcd, and so is the scale.  Each quotient term charges the budget
    one step.  A divisor with other variables than z adds their exponents
    at each row, so a division whose keys could exceed MAX_PACKED_EXPONENT
    raises ExponentLimit first.  Neither input is mutated.
    """
    shift = PACKED_BITS * (width - 1)
    top = max(divisor)
    lead, n = divisor[top], top >> shift
    tail = [(k >> shift, k, c) for k, c in divisor.items() if k != top]
    rows: dict = {}
    for ez, cz in terms.items():
        rows.setdefault(ez >> shift, {})[ez] = cz
    if any(k & ((1 << shift) - 1) for k in divisor):
        _check_packed_exponent(_top(terms, width) + (max(rows) - n + 1) * _top(divisor, width))
    heap = [-z for z in rows if z >= n]
    heapify(heap)
    quotient: dict = {}
    scale = 1
    while heap:
        z = -heappop(heap)
        row = {ez: cz for ez, cz in rows.pop(z).items() if cz}
        if not row:
            continue
        budget.tick(len(row))
        up = abs(lead) // gcd(lead, *row.values())
        if up != 1:
            scale *= up
            for part in (row, quotient, *rows.values()):
                for ez in part:
                    part[ez] *= up
        q_row = [(ez - top, cz // lead) for ez, cz in row.items()]
        quotient.update(q_row)
        for zt, kt, ct in tail:
            target = z - n + zt
            acc = rows.get(target)
            if acc is None:
                acc = rows[target] = {}
                if target >= n:
                    heappush(heap, -target)
            for ez, cz in q_row:
                ez += kt
                acc[ez] = acc.get(ez, 0) - cz * ct
    return quotient, {ez: cz for row in rows.values() for ez, cz in row.items() if cz}, scale


def _initial_relations(p: DDPresentation, ctx: Context) -> list[Polynomial]:
    """I0, the relations among the initial forms of x, y, z and t, in ctx."""
    x, y = ctx.var("X"), ctx.var("Y")
    return [x ** p.d * y - p.p_at_x0().transfer(ctx), x ** p.e * ctx.var("T") - p.b.transfer(ctx) * y ** p.s]


def _x_is_nonzerodivisor(rels: list[Polynomial], budget: int) -> bool:
    """Whether I : X = I for I = (rels), that is I : X^infinity = I: the
    generators of the latter, V eliminated from I + (V*X - 1), must reduce
    to 0 modulo I (Cox, Little and O'Shea, Ideals, Varieties, and
    Algorithms, 4.4).  V is a variable not in the context of rels, put
    first."""
    names = rels[0].ctx.names
    v = "V"
    while v in names:
        v += "_"
    ctx = Context((v,) + names)
    rels = [g.transfer(ctx) for g in rels]
    inverse = ctx.var(v) * ctx.var("X") - ctx.one()
    saturation = elimination_ideal(rels + [inverse], names, budget)
    basis = buchberger(rels, budget=budget)
    return all(basis.remainder(g, budget).is_zero() for g in saturation)


def divide_by_x_power(
    form: LaurentForm, actx: AlgebraContext, n: int, budget: int = DEFAULT_BUDGET
) -> BElement:
    """The element q of B[w..] with x^n * q = form, when it exists."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    shifted = form.shift(-n)
    result = membership_with_witness(shifted, actx, budget)
    if not result.member:
        raise NotInAlgebra(f"element is not divisible by X^{n} in the algebra", result.certificate)
    return BElement(actx, result.witness, shifted)
