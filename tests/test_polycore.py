import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from ddlab import laurent, poly
from ddlab.laurent import LaurentForm, eval_poly_at_laurent
from ddlab.poly import (
    KRONECKER_PAIRS,
    MAX_DEGREE,
    MAX_PACKED_EXPONENT,
    MAX_TERM_PRODUCTS,
    PACKED_BITS,
    Context,
    ContextMismatch,
    ExponentLimit,
    ParseError,
    Polynomial,
    _form_product,
    _kronecker_mul_into,
    _pack,
    _packed_mul_into,
    _packed_product,
    _scaled_int_form,
    _unpack,
    coeff_div,
    parse_poly,
)

from conftest import random_polynomial, unpacked

CTX = Context(("X", "Y", "Z", "T", "W", "U"))


def P(text):
    return parse_poly(text, CTX)


class TestParsing:
    def test_literal_examples(self):
        p = P("Z^2 - 1")
        assert p.terms == {(0, 0, 2, 0, 0, 0): 1, (0, 0, 0, 0, 0, 0): -1}
        q = P("Y^2 + Z")
        assert q.terms == {(0, 2, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0, 0): 1}
        r = P("3/2*X*Z - X")
        assert r.terms == {
            (1, 0, 1, 0, 0, 0): Fraction(3, 2),
            (1, 0, 0, 0, 0, 0): -1,
        }

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            P("Z^2 +* 3")
        assert err.value.position == 5

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            P("Z + Q")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError, match="negative"):
            P("X^-1")

    def test_rational_exponent_rejected(self):
        with pytest.raises(ParseError, match="exponent"):
            P("X^(1/2)")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="denominator"):
            P("1/0")

    @pytest.mark.parametrize("text", ["Z^\u0663", "\u0663*Z", "1/\u0662", "Z^\uff13"])
    def test_only_ascii_digits_are_numbers(self, text):
        # Arabic-Indic and fullwidth digits are not read as numbers
        with pytest.raises(ParseError, match="unexpected character"):
            P(text)

    def test_unary_minus_and_parens(self):
        assert P("-(Z - 1)") == P("1 - Z")
        assert P("-Z^2") == -P("Z^2")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            P("Z Z")

    @pytest.mark.parametrize(
        "text", ["(" * 3000 + "Z" + ")" * 3000, "Z*" + "-" * 3000 + "Z"], ids=["parentheses", "signs"]
    )
    def test_deep_nesting_rejected(self, text):
        with pytest.raises(ParseError, match="nested more than"):
            P(text)

    def test_nesting_up_to_the_limit_parses(self):
        assert P("(" * 100 + "Z" + ")" * 100) == P("Z")
        assert P("Z*" + "-" * 100 + "Z") == P("Z^2")

    @pytest.mark.parametrize(
        "text, degree",
        [("(Z+1)^200000", 200000), ("(X*Z)^501", 1002), ("Z^600*Z^401", 1001)],
        ids=["power", "power-of-product", "product"],
    )
    def test_degree_over_the_limit_rejected(self, text, degree):
        with pytest.raises(ParseError, match=f"degree {degree} exceeds the limit of {MAX_DEGREE}"):
            P(text)

    def test_degree_up_to_the_limit_parses(self):
        assert P("(X*Z)^500") == CTX.monomial({"X": 500, "Z": 500})
        assert P("Z^600*Z^400") == P("Z^1000")
        assert P("2^40*Z") == CTX.monomial({"Z": 1}, 2 ** 40)

    @pytest.mark.parametrize(
        "text", ["(X+Y+Z+T+1)^40", "(X+Y+Z+T+W+U+1)^16", "(X+Y+Z+T+1)^10*(X+Y+Z+T+2)^10"],
        ids=["power", "power-of-seven-terms", "product"],
    )
    def test_term_products_over_the_limit_rejected(self, text):
        with pytest.raises(ParseError, match=f"exceed the limit of {MAX_TERM_PRODUCTS}"):
            P(text)

    def test_term_products_up_to_the_limit_parse(self):
        # (Z+1)^1000 makes at most 489*513 term products, (X+Y+Z+T+1)^20 at most 70*4845
        assert len(P("(Z+1)^1000").terms) == 1001
        assert len(P("(X+Y+Z+T+1)^20").terms) == math.comb(24, 4)
        assert P("(X+Y+Z+T+1)^5*(X+Y+Z+T+1)^5") == P("(X+Y+Z+T+1)^10")


_rationals = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.sampled_from([1, 2, 3, 4, 6]))
_exponents = st.tuples(*[st.integers(0, 3)] * len(CTX.names))
_rational_polys = st.dictionaries(_exponents, _rationals, max_size=5).map(lambda terms: Polynomial(CTX, terms))
_monomials = st.builds(lambda e, c: Polynomial(CTX, {e: c}), _exponents, _rationals)


class TestRingOps:
    def test_difference_of_squares(self):
        assert P("(Z-1)*(Z+1)") == P("Z^2 - 1")

    def test_scale_keeps_integral_coefficients_int(self):
        halved = P("4*X*Z - 2*Y + 6").scale(Fraction(1, 2))
        assert halved == P("2*X*Z - Y + 3")
        assert all(type(c) is int for c in halved.terms.values())

    def test_additive_identity(self):
        p = P("3*X*Y - Z")
        assert p + CTX.zero() == p

    def test_hand_expansion(self):
        # (X^2*W + Z)^2 expanded by hand
        assert P("(X^2*W + Z)^2") == P("X^4*W^2 + 2*X^2*W*Z + Z^2")

    def test_context_mismatch(self):
        other = Context(("A", "B"))
        with pytest.raises(ContextMismatch):
            P("Z") + other.var("A")

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            P("Z") ** -1

    def test_integral_fractions_leave_the_kernel_as_int(self):
        # a trusted constructor can leave Fraction(n, 1) values in a
        # polynomial; products and evaluations must still return ints or
        # non-integral Fractions
        a = Polynomial._raw(CTX, {(1, 0, 0, 0, 0, 0): Fraction(4, 1), (0, 0, 1, 0, 0, 0): 3})
        b = P("X*Z + 1/2")
        cctx = Context(("Z", "W"))
        y_img = LaurentForm(cctx, {-1: Polynomial._raw(cctx, {(1, 0): Fraction(4, 1)})})
        images = {"X": LaurentForm.x_power(cctx, 1), "Y": y_img}
        values = list((a * b).terms.values()) + list((a * a).terms.values())
        for poly in (a, a * b, a + P("Y^2")):
            form = eval_poly_at_laurent(poly, images, cctx)
            values += [c for q in form.coeffs.values() for c in q.terms.values()]
        assert values
        assert all(type(c) is int or c.denominator != 1 for c in values)

    @settings(max_examples=300, deadline=None)
    @given(_rational_polys, _rational_polys, _monomials, _rationals, st.sampled_from(CTX.names))
    def test_no_operation_returns_an_integral_fraction(self, a, b, m, q, name):
        # 1/2 + 1/2, 3/2*Z^2 differentiated and (2/3*Z)*(3/2*Y) are integral
        results = [a + b, a - b, a * b, a * m, m * a, a.partial(name), a.scale(q), a.substitute({name: b})]
        for p in results:
            assert all(type(c) is int or c.denominator != 1 for c in p.terms.values())

    def test_monomial_factor_is_a_shift_and_a_scale(self):
        # int, rational, and rational coefficients whose products are integral
        cases = [
            (P("3*X^2*Z - 2*Y + 5"), P("4*X*T")),
            (P("1/2*X*Z + 2/3*Y - 1"), P("3/5*Z^2")),
            (P("3/2*X + 4/3*Y^2 + 1/6"), P("6*W")),
            (P("3/2*X - 5/2*U"), P("2/3")),
        ]
        for f, m in cases:
            want = _form_product(f.terms, m.terms)
            for got in (f * m, m * f):
                assert list(got.terms.items()) == list(want.items())
                assert [type(c) for c in got.terms.values()] == [type(c) for c in want.values()]
        assert all(type(c) is int for c in (cases[2][0] * cases[2][1]).terms.values())


class TestCalculus:
    def test_partial_examples(self):
        assert P("Z^2 - 1").partial("Z") == P("2*Z")
        assert P("Y^2 + Z").partial("Y") == P("2*Y")
        assert P("X").partial("Z").is_zero()

    def test_partial_linear_and_leibniz(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_polynomial(rng, CTX)
            b = random_polynomial(rng, CTX)
            v = rng.choice(CTX.names)
            assert (a + b).partial(v) == a.partial(v) + b.partial(v)
            assert (a * b).partial(v) == a.partial(v) * b + a * b.partial(v)

    def test_taylor_shift_example(self):
        p = P("Z^2 - 1")
        shifted = p.substitute({"Z": P("Z + X^3*U")})
        assert shifted == P("Z^2 + 2*X^3*U*Z + X^6*U^2 - 1")

    def test_taylor_shift_zero(self):
        p = P("Z^3 - 2*Z")
        assert p.substitute({"Z": P("Z") + CTX.zero()}) == p

    def test_taylor_shift_free_variable(self):
        assert P("Y").substitute({"Z": P("Z + X + W")}) == P("Y")

    def test_unmapped_variable_missing_from_the_target(self):
        # Y maps to itself, and the images' context has no Y
        zctx = Context(("Z",))
        yz = Context(("Y", "Z"))
        with pytest.raises(ContextMismatch, match="variable Y missing from target context"):
            parse_poly("Y*Z", yz).substitute({"Z": zctx.var("Z") + zctx.one()})
        # a variable the polynomial does not use need not exist there
        assert parse_poly("Z^2", yz).substitute({"Z": zctx.var("Z") + zctx.one()}) == parse_poly("Z^2 + 2*Z + 1", zctx)

    def test_taylor_shift_matches_derivative_sum(self):
        # oracle: sum over i of d^i(p)/dZ^i * c^i / i!
        rng = random.Random(21)
        for _ in range(40):
            p = random_polynomial(rng, CTX, max_terms=4, max_exp=6)
            c = random_polynomial(rng, CTX, max_terms=2, max_exp=2)
            total = CTX.zero()
            deriv = p
            i = 0
            while not deriv.is_zero():
                total = total + deriv.scale(Fraction(1, math.factorial(i))) * c ** i
                deriv = deriv.partial("Z")
                i += 1
                assert i < 40
            assert p.substitute({"Z": P("Z") + c}) == total


class TestCanonicalForm:
    def test_parse_print_roundtrip_500(self):
        rng = random.Random(99)
        for _ in range(500):
            p = random_polynomial(rng, CTX, max_terms=6, max_exp=5)
            assert parse_poly(str(p), CTX) == p

    def test_print_formats(self):
        assert str(CTX.zero()) == "0"
        assert str(P("Z^2 - 1")) == "Z^2 - 1"
        assert str(P("3/2*X*Z - X")) == "3/2*X*Z - X"
        assert str(P("-Z + 1")) == "-Z + 1"

    def test_printer_reads_numerator_and_denominator(self):
        # the printer against the sign and magnitude that Fraction arithmetic
        # gives, on int, rational and Fraction(n, 1) coefficients
        def reference(p):
            pieces = []
            for k, (exps, coeff) in enumerate(p.sorted_terms()):
                mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(p.ctx.names, exps) if e)
                mag = abs(coeff)
                body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
                sign = ("" if k == 0 else "+ ") if coeff > 0 else ("-" if k == 0 else "- ")
                pieces.append(sign + body)
            return " ".join(pieces) or "0"

        rng = random.Random(839)
        for _ in range(300):
            p = random_polynomial(rng, CTX, max_terms=6, max_exp=3, max_coeff=12)
            assert str(p) == reference(p)
            whole = Polynomial._raw(CTX, {e: Fraction(c.numerator, 1) if c.denominator == 1 else c
                                          for e, c in p.terms.items()})
            assert str(whole) == str(p)
        ones = Polynomial._raw(CTX, {(0,) * 6: Fraction(1, 1), (1, 0, 0, 0, 0, 0): Fraction(-1, 1)})
        assert str(ones) == "-X + 1"

    def test_coeff_div_keeps_value_and_type(self):
        # int when the quotient is integral, else Fraction, as Fraction(a) / b
        values = [-12, -7, -1, 1, 2, 3, 6, 12, Fraction(3, 2), Fraction(-4, 3), Fraction(6, 1)]
        for a in values + [0]:
            for b in values:
                q = Fraction(a) / b
                got = coeff_div(a, b)
                assert got == q
                assert type(got) is (int if q.denominator == 1 else Fraction), (a, b, got)
        with pytest.raises(ZeroDivisionError):
            coeff_div(3, 0)

    def test_rational_invariants_after_ops(self):
        # every stored coefficient is nonzero and in reduced form with a
        # positive denominator
        rng = random.Random(5)
        for _ in range(200):
            a = random_polynomial(rng, CTX)
            b = random_polynomial(rng, CTX)
            for p in (a + b, a * b, a - b, a.scale(Fraction(-7, 3))):
                for c in p.terms.values():
                    assert c != 0
                    assert isinstance(c, (int, Fraction))
                    assert c.denominator >= 1
                    assert math.gcd(c.numerator, c.denominator) == 1


class TestRingAxioms:
    def test_polynomial_axioms_1000(self):
        rng = random.Random(4242)
        for _ in range(1000):
            a = random_polynomial(rng, CTX, max_terms=3, max_exp=3)
            b = random_polynomial(rng, CTX, max_terms=3, max_exp=3)
            c = random_polynomial(rng, CTX, max_terms=3, max_exp=3)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_laurent_axioms(self):
        rng = random.Random(77)
        cctx = Context(("Z", "W"))
        for _ in range(300):
            def rand_form():
                return LaurentForm(
                    cctx,
                    {
                        rng.randint(-3, 3): random_polynomial(rng, cctx, max_terms=2, max_exp=2)
                        for _ in range(rng.randint(0, 3))
                    },
                )

            a, b, c = rand_form(), rand_form(), rand_form()
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)


class TestLaurentForms:
    def test_normalize_drops_zero_entries(self):
        cctx = Context(("Z",))
        raw = {-1: parse_poly("Z^2 - 1", cctx), 0: cctx.zero()}
        form = LaurentForm(cctx, raw)
        assert set(form.coeffs) == {-1}

    def test_already_canonical(self):
        cctx = Context(("Z",))
        form = LaurentForm(cctx, {0: parse_poly("Z", cctx)})
        assert form == LaurentForm(cctx, {0: parse_poly("Z", cctx)})

    def test_product_adds_exponents(self):
        cctx = Context(("Z",))
        a = LaurentForm(cctx, {-1: parse_poly("Z", cctx)})
        assert (a * a).coeffs == {-2: parse_poly("Z^2", cctx)}

    def test_equality_is_map_identity(self):
        cctx = Context(("Z",))
        a = LaurentForm(cctx, {2: parse_poly("Z", cctx)})
        b = LaurentForm(cctx, {2: parse_poly("Z", cctx), 3: cctx.zero()})
        assert a == b
        assert hash(a) == hash(b)

    def test_shift_and_scale(self):
        cctx = Context(("Z",))
        a = LaurentForm(cctx, {1: parse_poly("2*Z", cctx)})
        assert a.shift(-3).min_exp() == -2
        assert a.scale(Fraction(1, 2)).coeffs[1] == parse_poly("Z", cctx)
        assert a.scale(0).is_zero()


def _tuple_form(form: LaurentForm) -> dict:
    """A LaurentForm's coefficients as a form under tuple keys."""
    return {n: p.terms for n, p in form.coeffs.items()}


def _packed(form: LaurentForm) -> tuple[dict, int]:
    """A LaurentForm as an integral term dict under packed keys and its
    denominator."""
    return _scaled_int_form(_pack(_tuple_form(form), len(form.ctx.names))[0])


def _tuple_add_product(out: dict, a: dict, b: dict) -> dict:
    """out += a*b on forms under tuple keys, {x-exponent: terms}, in place,
    by the tuple kernel (`_form_product`) a pair of levels at a time; out is
    returned, with no empty level and no zero value."""
    for n1, t1 in a.items():
        for n2, t2 in b.items():
            acc = out.setdefault(n1 + n2, {})
            for e, c in _form_product(t1, t2).items():
                acc[e] = acc.get(e, 0) + c
    for n in list(out):
        out[n] = {e: c for e, c in out[n].items() if c}
        if not out[n]:
            del out[n]
    return out


# x-exponents beyond +-2^32, wider than a field of exponents
_FAR_LEVELS = st.sampled_from([-2 ** 40, -2 ** 32 - 1, -2 ** 32, -2 ** 31, -1, 0, 1,
                               2 ** 32 - 1, 2 ** 32, 2 ** 32 + 3, 2 ** 40])


@st.composite
def _forms(draw, ctx: Context, levels=st.integers(-2, 2)):
    """A form of up to four levels and three terms a level, exponents up to
    3, and coefficients +-1..3 over 1, 2 or 3, so that sums cancel."""
    coeffs = {}
    for n in draw(st.lists(levels, max_size=4, unique=True)):
        exps = st.tuples(*[st.integers(0, 3)] * len(ctx.names))
        coeffs[n] = Polynomial(ctx, {
            e: Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), draw(st.sampled_from([1, 2, 3])))
            for e in draw(st.lists(exps, min_size=1, max_size=3, unique=True))
        })
    return LaurentForm(ctx, coeffs)


WIDE_CTXS = [Context(("Z", "W1", "a", "b")[:k]) for k in range(1, 5)]


@st.composite
def _form_pairs(draw):
    ctx = draw(st.sampled_from(WIDE_CTXS))
    return ctx, draw(_forms(ctx)), draw(_forms(ctx))


@st.composite
def _evaluations(draw):
    """(p, images, target): p over A, B and the target's variables, A and B
    sent to forms over the target and the target's variables to themselves."""
    target = draw(st.sampled_from(WIDE_CTXS))
    images = {"A": draw(_forms(target)), "B": draw(_forms(target))}
    pctx = Context(("A", "B") + target.names)
    exps = st.tuples(*[st.integers(0, 3)] * len(pctx.names))
    p = Polynomial(pctx, {
        e: Fraction(draw(st.sampled_from([-2, -1, 1, 3])), draw(st.sampled_from([1, 2])))
        for e in draw(st.lists(exps, max_size=4, unique=True))
    })
    return p, images, target


@st.composite
def _substitutions(draw):
    """(p, images, target): p over one to three mapped variables and the
    target's variables, the mapped ones sent to rational polynomials over
    the target."""
    target = draw(st.sampled_from(WIDE_CTXS))
    mapped = draw(st.lists(st.sampled_from(("A", "B", "C")), min_size=1, max_size=3, unique=True))

    def polys(ctx, top):
        exps = st.tuples(*[st.integers(0, top)] * len(ctx.names))
        return Polynomial(ctx, {
            e: Fraction(draw(st.sampled_from([-2, -1, 1, 3])), draw(st.sampled_from([1, 2, 3])))
            for e in draw(st.lists(exps, max_size=4, unique=True))
        })

    p = polys(Context(tuple(mapped) + target.names), 3)
    return p, {name: polys(target, 2) for name in mapped}, target


class TestPackedKeys:
    """The Laurent layer's packed kernel against the tuple kernel."""

    def test_pack_round_trip_and_field_layout(self):
        for exps in [(), (0,), (MAX_PACKED_EXPONENT,), (1, 0, 2), (3, MAX_PACKED_EXPONENT, 0, 5)]:
            # x's exponent is the top field, signed, above the exponents' fields
            packed, top = _pack({-1: {exps: 7}, 2: {}}, len(exps))
            fields = sum(k << (PACKED_BITS * i) for i, k in enumerate(reversed(exps)))
            assert packed == {(-1 << PACKED_BITS * len(exps)) + fields: 7}
            assert top == max(exps, default=0)
            assert _unpack(packed, len(exps)) == {-1: {exps: 7}}
        # fields that sum to the limit carry into neither the next field nor x's exponent
        half = MAX_PACKED_EXPONENT // 2
        packed, _ = _pack({0: {(half, 1): 1}, 1: {(half + 1, 2): 1}}, 2)
        a, b = packed
        assert _unpack({a + b: 6}, 2, 4) == {1: {(MAX_PACKED_EXPONENT, 3): Fraction(3, 2)}}
        with pytest.raises(ExponentLimit, match=f"exponent {MAX_PACKED_EXPONENT + 1} exceeds"):
            _pack({0: {(1, 2): 1}, 1: {(0, MAX_PACKED_EXPONENT + 1): 1}}, 2)

    @settings(max_examples=150, deadline=None)
    @given(_form_pairs())
    def test_packed_product_equals_the_tuple_product(self, case):
        ctx, a, b = case
        (pa, da), (pb, db) = _packed(a), _packed(b)
        tuple_product = _tuple_add_product({}, _tuple_form(a), _tuple_form(b))
        assert unpacked(ctx, _packed_product(pa, pb, len(ctx.names)), da * db) == LaurentForm(
            ctx, {n: Polynomial._raw(ctx, t) for n, t in tuple_product.items()}) == a * b
        # (a + b)*(a - b) = a*a - b*b: the cross terms cancel exactly in the kernel
        (pp, dp), (pm, dm) = _packed(a + b), _packed(a - b)
        assert unpacked(ctx, _packed_product(pp, pm, len(ctx.names)), dp * dm) == a * a - b * b

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_far_x_exponents_equal_the_tuple_reference(self, data):
        # products, sums, shifts and sums of powers of forms whose
        # x-exponents reach past +-2^32, against `_form_product` on their
        # coefficients, a pair of levels at a time
        ctx = data.draw(st.sampled_from(WIDE_CTXS))
        a, b, image = (data.draw(_forms(ctx, _FAR_LEVELS)) for _ in range(3))
        k = data.draw(_FAR_LEVELS)
        mono = LaurentForm(ctx, {k: ctx.monomial({ctx.names[-1]: 2}, Fraction(-2, 3))})

        def plus(f: dict, g: dict) -> dict:
            out = {n: dict(t) for n, t in f.items()}
            for n, t in g.items():
                acc = out.setdefault(n, {})
                for e, c in t.items():
                    acc[e] = acc.get(e, 0) + c
            return out

        def assert_is(form: LaurentForm, want: dict):
            polys = {n: Polynomial(ctx, t) for n, t in want.items()}
            assert dict(form.coeffs) == {n: p for n, p in polys.items() if not p.is_zero()}

        ta, tb = _tuple_form(a), _tuple_form(b)
        assert_is(a * b, _tuple_add_product({}, ta, tb))
        assert_is(a + b, plus(ta, tb))
        assert_is(a.shift(k), {n + k: t for n, t in ta.items()})
        assert a.shift(k).min_exp() == (min(ta) + k if ta else 0)
        for img in (image, mono):
            ti = _tuple_form(img)
            # a + b*img + (a*img)*img
            want = _tuple_add_product({n: dict(t) for n, t in ta.items()}, tb, ti)
            want = _tuple_add_product(want, _tuple_add_product({}, ta, ti), ti)
            assert_is(laurent.eval_in_powers([a, b, a], img, ctx), want)

    @settings(max_examples=100, deadline=None)
    @given(_evaluations())
    def test_evaluation_equals_products_of_laurent_forms(self, case):
        p, images, target = case
        expected = LaurentForm.zero(target)
        for exps, c in p.terms.items():
            term = LaurentForm.from_poly(target.const(c))
            for name, k in zip(p.ctx.names, exps):
                image = images[name] if name in images else LaurentForm.from_poly(target.var(name))
                for _ in range(k):
                    term = term * image
            expected = expected + term
        assert eval_poly_at_laurent(p, images, target) == expected
        # again at the same images, whose power lists are now grown
        assert eval_poly_at_laurent(p, images, target) == expected

    @settings(max_examples=100, deadline=None)
    @given(_substitutions())
    def test_substitution_equals_evaluation_at_laurent_images(self, case):
        # Polynomial products in Q[..] against the packed Laurent evaluator
        p, images, target = case
        laurent_images = {name: LaurentForm.from_poly(image) for name, image in images.items()}
        assert LaurentForm.from_poly(p.substitute(images)) == eval_poly_at_laurent(p, laurent_images, target)

    def test_evaluation_refuses_exponents_over_the_limit_before_any_product(self):
        # the largest exponent in y's image is 2, so Y^k can reach exponent 2*k
        cctx = Context(("Z", "W1"))
        y = LaurentForm(cctx, {-1: parse_poly("Z^2 - 1", cctx), 0: parse_poly("W1", cctx)})
        images = {"X": LaurentForm.x_power(cctx, 1), "Y": y}
        pctx = Context(("X", "Y", "Z"))
        at_limit = eval_poly_at_laurent(pctx.monomial({"X": 3, "Y": 2, "Z": MAX_PACKED_EXPONENT - 4}), images, cctx)
        assert at_limit.coeffs[1].terms[(MAX_PACKED_EXPONENT, 0)] == 1
        assert at_limit.coeffs[3].terms[(MAX_PACKED_EXPONENT - 4, 2)] == 1
        grown = len(y._powers[1])
        for too_large in ({"Y": 2 ** 31}, {"Y": 2, "Z": MAX_PACKED_EXPONENT - 3}):
            with pytest.raises(ExponentLimit, match=f"exceeds the packed-exponent limit of {MAX_PACKED_EXPONENT}"):
                eval_poly_at_laurent(pctx.monomial(too_large), images, cctx)
        assert len(y._powers[1]) == grown

    def test_image_entry_refuses_an_exponent_over_the_limit(self):
        # a Laurent image is refused as it is built; a polynomial image has
        # no limit, since substitution multiplies Polynomials
        cctx = Context(("Z", "W1"))
        with pytest.raises(ExponentLimit):
            LaurentForm(cctx, {-1: cctx.monomial({"W1": MAX_PACKED_EXPONENT + 1}) + cctx.one()})
        zctx = Context(("Z",))
        assert parse_poly("Y", Context(("Y", "Z"))).substitute(
            {"Y": zctx.monomial({"Z": MAX_PACKED_EXPONENT + 1})}) == zctx.monomial({"Z": 2 ** 32})


def _dict_loop(out: dict, a: dict, b: dict, width: int) -> None:
    """out += a*b on term dicts under packed keys, by the product on tuple
    keys (`_tuple_add_product`) that the packed product must agree with."""
    tuple_out = _tuple_add_product(_unpack(out, width), _unpack(a, width), _unpack(b, width))
    out.clear()
    out.update(_pack(tuple_out, width)[0])


def _level(n: int, width: int) -> int:
    """The part of a packed key of `width` fields that holds x^n."""
    return n << PACKED_BITS * width


def _random_packed(rng: random.Random, width: int, stride: int, levels: list, rests: list,
                   fill: float, span: int, bits: int) -> dict:
    """A form under packed keys of `width` fields: at each level and each
    value of the fields below z, the z-exponents z0 + stride*i, i < span,
    each present with probability `fill`, with random signs and magnitudes
    up to 2^bits."""
    shift = PACKED_BITS * (width - 1)
    form: dict = {}
    for n in levels:
        for rest in rests:
            z0 = rng.randrange(stride)
            for i in range(span):
                if rng.random() < fill:
                    key = _level(n, width) + rest + ((z0 + stride * i) << shift)
                    form[key] = rng.choice([-1, 1]) * rng.randint(1, 2 ** bits)
    return form


@st.composite
def _kronecker_cases(draw):
    """(width, a, b, out): two forms of one to three fields, at z stride 1
    or r, on negative and positive x-levels, dense or sparse, with
    coefficients up to 2^130, and a form to accumulate into: none, a random
    one, or minus a*b so that everything cancels; or, in "difference"
    mode, the factors a + b and a - b, whose cross terms cancel."""
    rng = draw(st.randoms(use_true_random=False))
    width = draw(st.integers(1, 3))
    stride = draw(st.sampled_from([1, 2, 4]))
    bits = draw(st.sampled_from([2, 40, 70, 130]))
    mode = draw(st.sampled_from(["dense", "dense", "sparse", "difference"]))
    fill, span = (0.08, 60) if mode == "sparse" else (draw(st.sampled_from([0.6, 1.0])), draw(st.integers(6, 24)))
    rests = sorted({sum(rng.randint(0, 2) << (PACKED_BITS * f) for f in range(width - 1))
                    for _ in range(draw(st.integers(1, 3)))}) if width > 1 else [0]

    def form():
        levels = draw(st.lists(st.integers(-4, 3), min_size=1, max_size=3, unique=True))
        return _random_packed(rng, width, stride, levels, rests, fill, span, bits)

    a, b = form(), form()
    if mode == "difference":
        plus, minus = dict(a), dict(a)
        poly._merge(plus, dict(b))
        poly._merge(minus, {e: -c for e, c in b.items()})
        a, b = plus, minus
    out_kind = draw(st.sampled_from(["empty", "random", "cancel"]))
    if out_kind == "random":
        out = form()
    elif out_kind == "cancel":
        out = {}
        _dict_loop(out, a, b, width)
        out = {e: -c for e, c in out.items()}
    else:
        out = {}
    return width, a, b, out


class TestKroneckerProduct:
    """The Kronecker path of the packed product against the dict loop."""

    @settings(max_examples=150, deadline=None)
    @given(_kronecker_cases())
    def test_kronecker_path_equals_the_dict_loop(self, case):
        width, a, b, out = case
        na, nb = len(a), len(b)
        assume(na > 1 and nb > 1)
        expected = dict(out)
        _dict_loop(expected, a, b, width)
        got = dict(out)
        took = _kronecker_mul_into(got, a, b, width, na, nb)
        event("kronecker" if took else "dict loop")
        if took:
            assert got == expected
            assert all(got.values())
        else:
            assert got == out  # untouched
        # whatever path it takes, the packed product is the dict loop's, with no zero value
        got = dict(out)
        _packed_mul_into(got, a, b, width)
        assert got == expected and all(got.values())
        product = _packed_product(a, b, width)
        plain: dict = {}
        _dict_loop(plain, a, b, width)
        assert product == plain
        assert all(product.values())

    def test_dense_forms_take_the_kronecker_path(self):
        # 100 consecutive z-steps times 50 alternating ones at twice the
        # step and a level of 40 more, at stride 1, and at stride 5 with
        # coefficients over 2^100 and a second field
        for width, stride, big in ((1, 1, 1), (2, 5, 2 ** 100)):
            shift = PACKED_BITS * (width - 1)
            a = {_level(-1, width) + ((stride * i) << shift): big + i for i in range(100)}
            b = {(stride * 2 * i) << shift: (-1) ** i * big for i in range(50)}
            b.update({_level(2, width) + ((stride * i) << shift) + (1 if width > 1 else 0): 3 for i in range(40)})
            expected: dict = {}
            _dict_loop(expected, a, b, width)
            got: dict = {}
            assert _kronecker_mul_into(got, a, b, width, len(a), len(b))
            assert got == expected

    def test_sparse_forms_keep_the_dict_loop(self, monkeypatch):
        # z-exponents far apart at stride 1, and many one-term groups: both
        # refused, and the product is still the dict loop's
        taken = []
        kronecker = poly._kronecker_mul_into
        monkeypatch.setattr(poly, "_kronecker_mul_into", lambda *args: taken.append(kronecker(*args)) or taken[-1])
        spread = {1: 7, **{k * 10 ** 6: k + 1 for k in range(40)}}
        singletons = {_level(n, 1) + n: 1 for n in range(40)}
        for a, b in ((spread, spread), (singletons, singletons)):
            assert len(a) * len(b) >= KRONECKER_PAIRS
            expected: dict = {}
            _dict_loop(expected, a, b, 1)
            assert _packed_product(a, b, 1) == expected
        assert taken == [False, False]

    def test_each_product_takes_its_path(self, monkeypatch):
        # a one-term factor times 600 terms: the shift and scale; 9 x 56 = 504
        # term pairs, below KRONECKER_PAIRS: the dict loop, even with a
        # one-term factor or dense in z; 40 x 40 dense terms: Kronecker
        paths = []  # what the product called: a Kronecker attempt and its answer, _merge
        kronecker, merge = poly._kronecker_mul_into, poly._merge

        def attempt(*args):
            took = kronecker(*args)
            paths.append("kronecker" if took else "refused")
            return took

        monkeypatch.setattr(poly, "_kronecker_mul_into", attempt)
        monkeypatch.setattr(poly, "_merge", lambda *args: paths.append("merge") or merge(*args))
        big = {k << 32: k + 1 for k in range(600)}
        small = {k << 32: 1 for k in range(9)}
        mid = {**{_level(-1, 2) + (k << 32): 2 for k in range(50)}, **{_level(2, 2) + (k << 32) + 1: -1 for k in range(6)}}
        dense = {k << 32: k - 20 for k in range(40)}
        one = {_level(3, 2) + (5 << 32) + 2: 7}
        cases = [((one, big), "shift and scale"), ((big, one), "shift and scale"), ((small, mid), "dict loop"),
                 ((one, {k: 1 for k in range(511)}), "dict loop"), ((dense, dense), "kronecker")]
        for (a, b), path in cases:
            paths.clear()
            got: dict = {}
            _packed_mul_into(got, a, b, 2)
            taken = "kronecker" if "kronecker" in paths else "shift and scale" if "merge" in paths else "dict loop"
            assert taken == path, (len(a), len(b), paths)
            expected: dict = {}
            _dict_loop(expected, a, b, 2)
            assert got == expected

    def test_one_term_factor_is_a_shift_and_a_scale(self):
        # on either side, into an empty form and into one whose term cancels;
        # 602 term pairs or more, so that the path is taken
        a = {_level(-2, 2) + 5: -2, **{_level(-2, 2) + k: k + 1 for k in range(6, 606)}, _level(1, 2) + 3: 4}
        assert len(a) >= KRONECKER_PAIRS
        one = {0: 1}
        shifted = {_level(1, 2) + (7 << 32): -3}
        for left, right in ((a, shifted), (shifted, a), (a, one)):
            expected: dict = {}
            _dict_loop(expected, left, right, 2)
            got = {_level(-1, 2) + (7 << 32) + 5: -6} if right is shifted else {}
            _dict_loop(want := dict(got), left, right, 2)
            _packed_mul_into(got, left, right, 2)
            assert got == want
            assert _packed_product(left, right, 2) == expected
