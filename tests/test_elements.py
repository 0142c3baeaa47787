import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import elements
from ddlab.elements import (
    AlgebraContext,
    NotInAlgebra,
    UnsupportedBaseRing,
    _groebner_membership,
    _x_adic_witness,
    divide_by_x_power,
    membership_with_witness,
)
from ddlab.groebner import DEFAULT_BUDGET, BudgetExceeded, _Budget, _normal_form
from ddlab.laurent import LaurentForm, eval_poly_at_laurent
from ddlab.poly import Context, ContextMismatch, parse_poly
from ddlab.presentations import DDPresentation

from conftest import random_polynomial, random_valid_presentation


class TestLaurentEmbedding:
    def test_y_image(self, dd1_ctx):
        y = dd1_ctx.gen("Y")
        assert y.laurent.to_json() == {"-1": "Z^2 - 1"}

    def test_t_image(self, dd1_ctx):
        t = dd1_ctx.gen("T")
        assert t.laurent.to_json() == {"-4": "Z^4 - 2*Z^2 + 1", "-2": "Z"}

    def test_defining_relations_vanish(self, dd1_ctx, dd3_ctx):
        for actx in (dd1_ctx, dd3_ctx):
            rel1, rel2 = actx.relations()
            assert actx.to_laurent(rel1).is_zero()
            assert actx.to_laurent(rel2).is_zero()

    def test_defining_relations_vanish_fuzz(self):
        from conftest import random_valid_presentation

        rng = random.Random(42)
        for _ in range(25):
            pres = random_valid_presentation(rng, rng.randint(1, 3), rng.randint(1, 3))
            actx = AlgebraContext(pres)
            rel1, rel2 = actx.relations()
            assert actx.to_laurent(rel1).is_zero()
            assert actx.to_laurent(rel2).is_zero()

    def test_homomorphism_property_500(self, dd1_ctx):
        rng = random.Random(500)
        ctx = dd1_ctx.gen_ctx
        for _ in range(500):
            a = random_polynomial(rng, ctx, max_terms=3, max_exp=2)
            b = random_polynomial(rng, ctx, max_terms=3, max_exp=2)
            assert dd1_ctx.to_laurent(a * b) == dd1_ctx.to_laurent(a) * dd1_ctx.to_laurent(b)
            assert dd1_ctx.to_laurent(a + b) == dd1_ctx.to_laurent(a) + dd1_ctx.to_laurent(b)


class TestImageCache:
    """Laurent images keep their integral powers from one evaluation to the next."""

    def test_cached_powers_are_reused_and_never_mutated(self, dd3):
        actx = AlgebraContext(dd3)
        images = actx.generator_images()
        first = actx.to_laurent(parse_poly("Y^3*T^2 + Y*Z - X", actx.gen_ctx))
        mono, powers, den = images["Y"]._powers
        assert mono is None and len(powers) == 4
        assert images["X"]._powers[1] is None  # a monomial image keeps no powers
        kept, snapshot = list(powers), copy.deepcopy(powers)
        again = actx.to_laurent(parse_poly("Y^5 + Y^3*T^2 + Y*Z - X", actx.gen_ctx))
        assert images["Y"]._powers[1] is powers and len(powers) == 6
        assert all(a is b for a, b in zip(powers, kept)) and powers[:4] == snapshot
        fresh = {k: LaurentForm(v.ctx, v.coeffs) for k, v in images.items()}
        assert fresh["Y"]._powers is None
        target = actx.coeff_ctx
        assert first == eval_poly_at_laurent(
            parse_poly("Y^3*T^2 + Y*Z - X", actx.gen_ctx), fresh, target)
        assert again - first == eval_poly_at_laurent(parse_poly("Y^5", actx.gen_ctx), fresh, target)

    def test_cached_image_still_checks_the_target_context(self, dd1):
        actx = AlgebraContext(dd1)
        expr = parse_poly("Y^2*T + Z", actx.gen_ctx)
        actx.to_laurent(expr)
        assert actx.generator_images()["Y"]._powers is not None
        with pytest.raises(ContextMismatch):
            eval_poly_at_laurent(expr, actx.generator_images(), Context(("Z", "W1")))


class TestEquality:
    def test_relation_examples(self, dd1_ctx):
        assert dd1_ctx.element("X*Y") == dd1_ctx.element("Z^2 - 1")
        assert dd1_ctx.element("Y") != dd1_ctx.element("Y + 1")
        assert dd1_ctx.element("X^2*T") == dd1_ctx.element("Y^2 + Z")

    def test_context_mismatch(self, dd1_ctx, dd3_ctx):
        with pytest.raises(ContextMismatch):
            dd1_ctx.gen("Y") == dd3_ctx.gen("Y")

    def test_arithmetic_tracks_witness(self, dd1_ctx):
        a = dd1_ctx.element("X*Y + T")
        b = dd1_ctx.element("Z")
        out = a * b - b
        assert out.gen is not None
        assert dd1_ctx.to_laurent(out.gen) == out.laurent


class TestMembership:
    def test_member_with_witness_y(self, dd1_ctx):
        form = LaurentForm(dd1_ctx.coeff_ctx, {-1: parse_poly("Z^2 - 1", dd1_ctx.coeff_ctx)})
        result = membership_with_witness(form, dd1_ctx)
        assert result.member
        assert str(result.witness) == "Y"

    def test_non_member(self, dd1_ctx):
        form = LaurentForm(dd1_ctx.coeff_ctx, {-1: parse_poly("Z - 1", dd1_ctx.coeff_ctx)})
        result = membership_with_witness(form, dd1_ctx)
        assert not result.member
        assert result.witness is None
        assert result.certificate  # the reduced basis is retained

    def test_polynomial_part_trivial(self, dd1_ctx):
        form = LaurentForm(dd1_ctx.coeff_ctx, {0: parse_poly("Z", dd1_ctx.coeff_ctx)})
        result = membership_with_witness(form, dd1_ctx)
        assert result.member
        assert str(result.witness) == "Z"

    def test_soundness_roundtrip_fuzz(self, dd1_ctx, dd3_ctx):
        rng = random.Random(808)
        for actx in (dd1_ctx, dd3_ctx):
            for _ in range(60):
                g = random_polynomial(rng, actx.gen_ctx, max_terms=3, max_exp=2)
                form = actx.to_laurent(g)
                result = membership_with_witness(form, actx)
                assert result.member
                assert actx.to_laurent(result.witness) == form

    def test_unsupported_base_ring(self):
        p = DDPresentation.make(["u1"], 1, 2, "Z^2 - u1", "Y^2 + Z")
        actx = AlgebraContext(p)
        form = LaurentForm(actx.coeff_ctx, {0: actx.coeff_ctx.var("Z")})
        with pytest.raises(UnsupportedBaseRing):
            membership_with_witness(form, actx)


def _drawn_case(seed):
    """A seeded algebra (X-terms allowed in P and Q, sometimes W1 adjoined)
    and a form: a member of shift 1 to 3, x^-k*h(Z) with deg h < r, or
    their sum."""
    rng = random.Random(seed)
    pres = random_valid_presentation(rng, rng.randint(1, 2), rng.randint(1, 2), max_r=3, max_s=2,
                                     constant_lead_p=False)
    actx = AlgebraContext(pres, ("W1",) if rng.random() < 0.3 else ())
    form = actx.to_laurent(random_polynomial(rng, actx.gen_ctx, max_terms=3, max_exp=2))
    while not 1 <= -form.min_exp() <= 3:
        form = actx.to_laurent(random_polynomial(rng, actx.gen_ctx, max_terms=3, max_exp=2))
    kind = rng.randrange(3)
    if kind:
        z = actx.coeff_ctx.var("Z")
        h = sum(((z ** i).scale(rng.randint(-3, 3)) for i in range(pres.r)), actx.coeff_ctx.zero())
        h = h if not h.is_zero() else actx.coeff_ctx.one()
        extra = LaurentForm(actx.coeff_ctx, {-rng.randint(1, 2): h})
        form = extra if kind == 1 else form + extra
    return actx, form


class TestDivisionAgainstGroebner:
    """The x-adic division against the Groebner route as the reference."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_same_answer_and_normal_form(self, seed):
        actx, form = _drawn_case(seed)
        reference = _groebner_membership(form, actx, DEFAULT_BUDGET)
        result = membership_with_witness(form, actx)
        assert result.member == reference.member
        if reference.member:
            assert result.witness == actx.reduce_witness(reference.witness)
        else:
            assert result.witness is None and result.certificate == reference.certificate
        divided = _x_adic_witness(form, actx, _Budget(DEFAULT_BUDGET))
        if divided is None:
            return  # refused: the answer above is the Groebner route's
        assert reference.member
        assert actx.reduce_witness(divided) == result.witness

    def test_refusal_is_not_a_no(self, dd1_ctx):
        # y + x^-1*(z - 1): z^2 + z - 2 at level -1 is not a multiple of
        # P(0,z) = z^2 - 1, so the division refuses; the form is not in B
        # either, and only the Groebner route says so
        cctx = dd1_ctx.coeff_ctx
        form = dd1_ctx.gen("Y").laurent + LaurentForm(cctx, {-1: parse_poly("Z - 1", cctx)})
        assert _x_adic_witness(form, dd1_ctx, _Budget(DEFAULT_BUDGET)) is None
        result = membership_with_witness(form, dd1_ctx)
        assert not result.member and result.certificate
        assert result.certificate == _groebner_membership(form, dd1_ctx, DEFAULT_BUDGET).certificate

    def test_large_shift_refused_before_any_divisor_is_built(self, dd1_ctx, monkeypatch):
        # Z at level -1000 has z-degree 1, below the z-degree r*J = 1000 of the
        # lowest coefficient of T^250, the power that reaches that level: the
        # division refuses without building T^250, and the Groebner route says no
        def no_divisor(self, j, l):
            raise RuntimeError(f"built the divisor of Y^{j}*T^{l}")

        monkeypatch.setattr(AlgebraContext, "_x_adic_divisor", no_divisor)
        cctx = dd1_ctx.coeff_ctx
        form = LaurentForm(cctx, {-1000: cctx.var("Z")})
        result = membership_with_witness(form, dd1_ctx)
        assert not result.member and result.witness is None
        assert result.certificate == _groebner_membership(form, dd1_ctx, DEFAULT_BUDGET).certificate
        assert "X^1000" in result.certificate

    def test_large_shift_member_route_builds_no_power(self, dd1_ctx, monkeypatch):
        # Z^1000 at level -1000 reaches the z-degree r*J = 1000 of the lowest
        # coefficient of T^250, so the division runs; it is not exact, and the
        # refusal comes before the Laurent form of T^250 is built: the budget
        # then stops the Groebner route
        def no_power(self, j, l):
            raise RuntimeError(f"built the Laurent form of Y^{j}*T^{l}")

        monkeypatch.setattr(AlgebraContext, "_x_adic_power", no_power)
        cctx = dd1_ctx.coeff_ctx
        form = LaurentForm(cctx, {-1000: cctx.var("Z") ** 1000})
        with pytest.raises(BudgetExceeded):
            membership_with_witness(form, dd1_ctx, 2000)

    def test_closed_form_divisor_is_the_lowest_coefficient(self):
        # b^l*P(0,z)^(j+s*l) against the lowest coefficient of the built
        # Laurent form of Y^j*T^l, with P and Q not monic and W1 adjoined
        pres = DDPresentation.make([], 2, 3, "2*Z^2 + X*Z^2 - 1/2", "-2*Y^2 + X*Y*Z + Z + 1/3")
        actx = AlgebraContext(pres, ("W1",))
        for j in range(pres.s):
            for l in range(3):
                form = actx._x_adic_power(j, l)
                big_j = j + pres.s * l
                assert form.min_exp() == -(pres.d * big_j + pres.e * l)
                divisor, inverse_lc = actx._x_adic_divisor(j, l)
                rem, (q,) = _normal_form(form.coeffs[form.min_exp()], divisor, _Budget(DEFAULT_BUDGET))
                assert rem.is_zero() and q.scale(inverse_lc) == actx.coeff_ctx.one()

    def test_division_charges_the_budget(self, dd1_ctx):
        form = dd1_ctx.element("Y*Z^3 + T*Z").laurent
        budget = _Budget(DEFAULT_BUDGET)
        assert _x_adic_witness(form, dd1_ctx, budget) is not None
        assert budget.used > 0


def _corrupt_quotients(monkeypatch):
    """Make every division step return its quotient with the constant coefficient plus 1."""
    calls = []

    def corrupted(f, divisors, budget):
        rem, (q,) = _normal_form(f, divisors, budget)
        calls.append(q)
        return rem, [q + q.ctx.one()]

    monkeypatch.setattr(elements, "_normal_form", corrupted)
    return calls


class TestDivisionFaults:
    # forms with one negative level: its one division step is corrupted, and
    # no later step is left to refuse and hand the form to the Groebner route
    @pytest.mark.parametrize("text", ["Y", "Z*Y - 2*Y", "X*Y^2 + Y", "X^3*T + Z"])
    def test_corrupted_quotient_is_caught(self, dd1_ctx, monkeypatch, text):
        form = dd1_ctx.element(text).laurent
        calls = _corrupt_quotients(monkeypatch)
        with pytest.raises(AssertionError, match="does not reproduce the input form"):
            membership_with_witness(form, dd1_ctx)
        assert calls

    def test_corrupted_quotient_never_gives_a_wrong_answer(self, monkeypatch):
        cases = [_drawn_case(seed) for seed in range(40)]
        expected = [_groebner_membership(form, actx, DEFAULT_BUDGET).member for actx, form in cases]
        calls = _corrupt_quotients(monkeypatch)
        caught = 0
        for (actx, form), member in zip(cases, expected):
            try:
                result = membership_with_witness(form, actx)
            except AssertionError:
                caught += 1
                continue
            assert result.member == member
            if member:
                assert actx.to_laurent(result.witness) == form
        assert calls and caught


class TestDivision:
    def test_defining_relation_quotients(self, dd1_ctx):
        p_el = dd1_ctx.element("Z^2 - 1")
        q = divide_by_x_power(p_el.laurent, dd1_ctx, 1)
        assert q == dd1_ctx.gen("Y")
        q_el = dd1_ctx.element("Y^2 + Z")
        t = divide_by_x_power(q_el.laurent, dd1_ctx, 2)
        assert t == dd1_ctx.gen("T")

    def test_adjoined_variable_quotient(self, dd1):
        actx = AlgebraContext(dd1, ("W1",))
        p_at_f = actx.element("(X^2*W1 + Z)^2 - 1")
        g = divide_by_x_power(p_at_f.laurent, actx, 1)
        assert g == actx.element("X^3*W1^2 + 2*X*Z*W1 + Y")
        assert g.gen is not None
        assert actx.to_laurent(g.gen) == g.laurent

    def test_division_failure_reports_certificate(self, dd1_ctx):
        with pytest.raises(NotInAlgebra) as err:
            divide_by_x_power(dd1_ctx.element("Z").laurent, dd1_ctx, 1)
        assert err.value.certificate

    def test_zero_power_is_identity(self, dd1_ctx):
        a = dd1_ctx.element("Y + Z")
        assert divide_by_x_power(a.laurent, dd1_ctx, 0) == a


class TestAdjoinedVariables:
    def test_fresh_names_enforced(self, dd1):
        with pytest.raises(Exception, match="fresh"):
            AlgebraContext(dd1, ("X",))
        with pytest.raises(Exception):
            AlgebraContext(dd1, ("W1", "W1"))

    def test_adjoined_are_inert(self, dd1):
        actx = AlgebraContext(dd1, ("W1", "W2"))
        el = actx.element("W1*W2*Y")
        assert el.laurent.to_json() == {"-1": "Z^2*W1*W2 - W1*W2"}
