"""LaurentForm's packed state against a tuple-key reference written here.

A reference form is a dict x-exponent -> {exponent tuple: nonzero Fraction}
with no empty level.  Every operation of LaurentForm must agree with it, and
forms equal as values must be equal in state, so compare and hash equal,
whether they were built from Polynomials, by evaluation or by arithmetic.
"""

from fractions import Fraction
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import laurent
from ddlab.laurent import LaurentForm, eval_poly_at_laurent
from ddlab.poly import MAX_PACKED_EXPONENT, Context, ContextMismatch, ExponentLimit, Polynomial, parse_poly

CTXS = [Context(("Z", "W1", "a")[:k]) for k in range(1, 4)]


# -- the reference -------------------------------------------------------------


def _clean(form: dict) -> dict:
    out = {}
    for n, t in form.items():
        t = {e: c for e, c in t.items() if c}
        if t:
            out[n] = t
    return out


def r_add(a: dict, b: dict) -> dict:
    out = {n: dict(t) for n, t in a.items()}
    for n, t in b.items():
        acc = out.setdefault(n, {})
        for e, c in t.items():
            acc[e] = acc.get(e, 0) + c
    return _clean(out)


def r_neg(a: dict) -> dict:
    return {n: {e: -c for e, c in t.items()} for n, t in a.items()}


def r_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for n1, t1 in a.items():
        for n2, t2 in b.items():
            acc = out.setdefault(n1 + n2, {})
            for e1, c1 in t1.items():
                for e2, c2 in t2.items():
                    e = tuple(map(add, e1, e2))
                    acc[e] = acc.get(e, 0) + c1 * c2
    return _clean(out)


def r_shift(a: dict, k: int) -> dict:
    return {n + k: dict(t) for n, t in a.items()}


def r_scale(a: dict, q: Fraction) -> dict:
    return _clean({n: {e: c * q for e, c in t.items()} for n, t in a.items()})


def r_transfer(a: dict, old: Context, new: Context) -> dict:
    pos = [new.index(name) for name in old.names]
    out = {}
    for n, t in a.items():
        level = {}
        for e, c in t.items():
            moved = [0] * len(new.names)
            for i, k in zip(pos, e):
                moved[i] = k
            level[tuple(moved)] = c
        out[n] = level
    return out


def ref(form: LaurentForm) -> dict:
    """The reference form of a LaurentForm, read from its coefficient view."""
    return {n: {e: Fraction(c) for e, c in p.terms.items()} for n, p in form.coeffs.items()}


# -- three ways to build a form ------------------------------------------------------


def from_polys(ctx: Context, a: dict) -> LaurentForm:
    return LaurentForm(ctx, {n: Polynomial(ctx, t) for n, t in a.items()})


def by_evaluation(ctx: Context, a: dict) -> LaurentForm:
    """x^n as X^n or Xinv^-n in a polynomial, evaluated at X -> x, Xinv -> x^-1."""
    pctx = Context(("X", "Xinv") + ctx.names)
    terms = {(max(n, 0), max(-n, 0)) + e: c for n, t in a.items() for e, c in t.items()}
    images = {"X": LaurentForm.x_power(ctx, 1), "Xinv": LaurentForm.x_power(ctx, -1)}
    return eval_poly_at_laurent(Polynomial(pctx, terms), images, ctx)


def by_arithmetic(ctx: Context, a: dict) -> LaurentForm:
    """A sum of scaled, shifted one-term forms, with a term added and taken
    away on the way."""
    out = LaurentForm.zero(ctx)
    for n, t in a.items():
        for e, c in t.items():
            term = LaurentForm.from_poly(Polynomial(ctx, {e: 1})).shift(n).scale(c)
            out = out + term + term - term
    return out


BUILDERS = [from_polys, by_evaluation, by_arithmetic]


@st.composite
def _ref_forms(draw, ctx: Context):
    """Up to four levels of up to three terms, exponents up to 2 and
    coefficients +-1..3 over 1, 2, 3 or 6, so that sums and products cancel."""
    form = {}
    exps = st.tuples(*[st.integers(0, 2)] * len(ctx.names))
    for n in draw(st.lists(st.integers(-2, 2), max_size=4, unique=True)):
        form[n] = {
            e: Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), draw(st.sampled_from([1, 2, 3, 6])))
            for e in draw(st.lists(exps, min_size=1, max_size=3, unique=True))
        }
    return form


@st.composite
def _cases(draw):
    ctx = draw(st.sampled_from(CTXS))
    a, b = draw(_ref_forms(ctx)), draw(_ref_forms(ctx))
    if draw(st.booleans()):  # share terms with a, so that a + b and a - b cancel
        b = r_add(b, r_scale(a, Fraction(draw(st.sampled_from([-1, 1, 2])))))
    build = draw(st.sampled_from(BUILDERS)), draw(st.sampled_from(BUILDERS))
    return ctx, a, b, build


def assert_canonical(form: LaurentForm) -> None:
    """The stored state: positive least denominator, no zero value."""
    assert form.den > 0 and all(form.num.values())
    assert gcd(form.den, *form.num.values()) == 1
    if form.is_zero():
        assert form.den == 1


def assert_same(form: LaurentForm, expected: dict) -> None:
    assert_canonical(form)
    assert ref(form) == expected
    for build in BUILDERS:
        other = build(form.ctx, expected)
        assert form == other and hash(form) == hash(other)
        assert (form.num, form.den) == (other.num, other.den)


class TestAgainstTheReference:
    @settings(max_examples=150, deadline=None)
    @given(_cases())
    def test_every_operation(self, case):
        ctx, a, b, (build_a, build_b) = case
        fa, fb = build_a(ctx, a), build_b(ctx, b)
        assert_same(fa, a)
        assert_same(fb, b)
        assert_same(fa + fb, r_add(a, b))
        assert_same(fa - fb, r_add(a, r_neg(b)))
        assert_same(-fa, r_neg(a))
        assert_same(fa * fb, r_mul(a, b))
        assert_same(fa.shift(3), r_shift(a, 3))
        for q in (Fraction(0), Fraction(-2), Fraction(3, 4), Fraction(6)):
            assert_same(fa.scale(q), r_scale(a, q))
        assert (fa == fb) == (a == b)
        assert fa.is_zero() == (not a)
        assert fa.min_exp() == min(a, default=0)
        for name in ctx.names:
            i = ctx.index(name)
            assert fa.deg_in(name) == max((e[i] for t in a.values() for e in t), default=-1)
        # appended names shift the keys; any other context repacks
        for new in (ctx.extend("U", "V"), Context(("V",) + tuple(reversed(ctx.names)))):
            moved = fa.transfer(new)
            assert_same(moved, r_transfer(a, ctx, new))
            assert moved.transfer(ctx) == fa

    @settings(max_examples=50, deadline=None)
    @given(_cases())
    def test_cancellation_to_zero(self, case):
        ctx, a, _, (build_a, build_b) = case
        zero = build_a(ctx, a) - build_b(ctx, a)
        assert zero.is_zero() and zero.den == 1
        assert zero == LaurentForm.zero(ctx) and hash(zero) == hash(LaurentForm.zero(ctx))
        assert zero.min_exp() == 0 and not zero.coeffs

    def test_a_form_holds_only_its_packed_state(self):
        # the coefficient view is built on each read and not kept
        assert LaurentForm.__slots__ == ("ctx", "num", "den", "_powers")
        ctx = Context(("Z", "W1"))
        form = from_polys(ctx, {-1: {(1, 0): Fraction(1, 2)}, 2: {(0, 3): Fraction(3)}})
        first, second = form.coeffs, form.coeffs
        assert first is not second and first == second
        assert {n: str(p) for n, p in first.items()} == {-1: "1/2*Z", 2: "3*W1^3"}

    def test_a_transfer_missing_a_used_variable_is_refused(self):
        ctx = Context(("Z", "W1"))
        form = from_polys(ctx, {0: {(0, 1): Fraction(1)}})
        with pytest.raises(ValueError):
            form.transfer(Context(("Z",)))

    def test_evaluation_missing_an_unmapped_variable_is_refused(self):
        # Y maps to itself, and the target has no Y
        zctx = Context(("Z",))
        images = {"Z": LaurentForm.from_poly(zctx.var("Z") + zctx.one())}
        with pytest.raises(ContextMismatch, match="variable Y missing from target context"):
            eval_poly_at_laurent(parse_poly("Y*Z", Context(("Y", "Z"))), images, zctx)
        # a variable the polynomial does not use need not exist there
        assert eval_poly_at_laurent(parse_poly("Z^2", Context(("Y", "Z"))), images, zctx) == LaurentForm.from_poly(
            parse_poly("Z^2 + 2*Z + 1", zctx))


class TestExponentLimit:
    def test_at_construction(self):
        ctx = Context(("Z", "W1"))
        LaurentForm(ctx, {0: ctx.monomial({"W1": MAX_PACKED_EXPONENT})})
        with pytest.raises(ExponentLimit, match=f"exponent {MAX_PACKED_EXPONENT + 1} exceeds"):
            LaurentForm(ctx, {-3: ctx.monomial({"W1": MAX_PACKED_EXPONENT + 1})})
        with pytest.raises(ExponentLimit):
            LaurentForm.from_poly(ctx.monomial({"Z": MAX_PACKED_EXPONENT + 1}))

    def test_before_a_sum_of_powers(self, monkeypatch):
        # image^i times forms[i]: a monomial image shifts the keys, any other
        # multiplies; either way the bound is checked before any term is formed
        ctx = Context(("Z", "W1"))
        near = LaurentForm.from_poly(ctx.monomial({"W1": MAX_PACKED_EXPONENT - 2}))
        w1, w1_plus_z = LaurentForm.from_poly(ctx.var("W1")), LaurentForm.from_poly(ctx.var("W1") + ctx.var("Z"))
        assert laurent.eval_in_powers([near, near, near], w1, ctx).coeffs[0] == (
            ctx.monomial({"W1": MAX_PACKED_EXPONENT - 2}) + ctx.monomial({"W1": MAX_PACKED_EXPONENT - 1})
            + ctx.monomial({"W1": MAX_PACKED_EXPONENT}))

        def no_product(*args):
            raise RuntimeError("formed a product")

        monkeypatch.setattr(laurent, "_packed_mul_into", no_product)
        monkeypatch.setattr(laurent, "_merge", no_product)
        for image in (w1, w1_plus_z):
            with pytest.raises(ExponentLimit, match=f"exponent {MAX_PACKED_EXPONENT + 1} exceeds"):
                laurent.eval_in_powers([near, near, near, near], image, ctx)

    def test_before_a_product(self, monkeypatch):
        ctx = Context(("Z", "W1"))
        big = LaurentForm.from_poly(ctx.monomial({"Z": MAX_PACKED_EXPONENT - 1}) + ctx.one())
        one_z = LaurentForm.from_poly(ctx.var("Z"))
        top = big * one_z
        assert top.coeffs[0] == ctx.monomial({"Z": MAX_PACKED_EXPONENT}) + ctx.var("Z")

        def no_product(a, b, width):
            raise RuntimeError("formed the product")

        monkeypatch.setattr(laurent, "_packed_product", no_product)
        with pytest.raises(ExponentLimit, match=f"exponent {MAX_PACKED_EXPONENT + 1} exceeds"):
            big * LaurentForm.from_poly(ctx.var("Z") ** 2)
        with pytest.raises(ExponentLimit):
            top * one_z
