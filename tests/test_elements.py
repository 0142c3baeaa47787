import contextlib
import copy
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ddlab import elements
from ddlab.cancellation import cancellation_certificate
from ddlab.elements import (
    AlgebraContext,
    AlgebraError,
    NotInAlgebra,
    _divide_in_z,
    _x_adic_witness,
    _x_is_nonzerodivisor,
    divide_by_x_power,
    membership_with_witness,
)
from ddlab.groebner import DEFAULT_BUDGET, BudgetExceeded, MonomialOrder, _Budget, _Divisors, _normal_form, buchberger
from ddlab.laurent import LaurentForm, eval_poly_at_laurent
from ddlab.poly import (
    MAX_PACKED_EXPONENT,
    Context,
    ContextMismatch,
    ExponentLimit,
    Polynomial,
    _pack,
    _packed_product,
    _scaled_int_form,
    _unpack,
    parse_poly,
)
from ddlab.presentations import DDPresentation

from conftest import random_polynomial, random_valid_presentation, unpacked
from membership_oracle import groebner_membership


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

    def test_builders_give_the_form_of_their_expression(self, dd1, dd3, monkeypatch):
        # gen, zero and const build their forms without evaluating; each equals
        # the evaluation of the element's generator expression
        with_base = DDPresentation.make(["a", "b"], 2, 1, "Z^2 + a*X*Z - b", "Y^2 + a*Y + b*Z + X")
        contexts = [AlgebraContext(dd1, ("W1",)), AlgebraContext(dd3), AlgebraContext(with_base, ("W1",))]
        evaluate = elements.eval_poly_at_laurent
        evaluated = []
        monkeypatch.setattr(elements, "eval_poly_at_laurent",
                            lambda *args: evaluated.append(args[0]) or evaluate(*args))
        built = []
        for actx in contexts:
            actx.generator_images()
            evaluated.clear()
            names = actx.generator_names() + actx.presentation.base.variables
            built = [actx.gen(n) for n in names] + [actx.zero()]
            built += [actx.const(v) for v in (0, 3, Fraction(-2, 3), "5/7")]
            assert evaluated == []
            assert [str(el) for el in built[:len(names)]] == list(names)
            for el in built:
                assert el.laurent == actx.to_laurent(el.gen), (actx, str(el))
        assert [str(el) for el in built[-5:]] == ["0", "0", "3", "-2/3", "5/7"]

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
        mono, powers, den, top = images["Y"]._powers
        assert mono is None and len(powers) == 4
        # the powers are integral forms under packed keys, y^k times den^k
        cctx = actx.coeff_ctx
        expected = LaurentForm.from_poly(cctx.one())
        for k, power in enumerate(powers):
            assert all(type(e) is int for e in power)
            assert unpacked(cctx, power, den ** k) == expected
            expected = expected * images["Y"]
        assert top == max(images["Y"].coeffs[n].deg_in("Z") for n in images["Y"].coeffs) == 3
        # a monomial image is applied by exponent arithmetic: its powers are not grown
        assert images["X"]._powers[0] is not None and len(images["X"]._powers[1]) == 2
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

    def test_prints_as_its_generator_expression(self, dd1):
        el = AlgebraContext(dd1, ("W1",)).element("W1*Y - 1/2*T")
        assert str(el) == str(el.gen) == "Y*W1 - 1/2*T"


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
        cert = result.certificate
        assert (cert["level"], cert["divisor"], cert["remainder"]) == (-1, "(Z^2 - 1)^1", "Z - 1")
        assert cert["completeness"]["passed"]

    def test_polynomial_part_trivial(self, dd1_ctx):
        form = LaurentForm(dd1_ctx.coeff_ctx, {0: parse_poly("Z", dd1_ctx.coeff_ctx)})
        result = membership_with_witness(form, dd1_ctx)
        assert result.member
        assert str(result.witness) == "Z"

    def test_zero_and_polynomial_forms_build_no_relation_basis(self, dd1, dd3):
        # a form with no negative x-exponent is a polynomial in x, z and w..;
        # it is its own witness, already reduced, so no basis of the
        # relations is made
        rng = random.Random(17)
        for p in (dd1, dd3):
            actx = AlgebraContext(p, ("W1",))
            zero = membership_with_witness(LaurentForm.zero(actx.coeff_ctx), actx)
            assert zero == (True, actx.gen_ctx.zero(), None)
            for _ in range(20):
                g = random_polynomial(rng, Context(("X", "Z", "W1")), max_terms=4).transfer(actx.gen_ctx)
                assert membership_with_witness(actx.to_laurent(g), actx) == (True, g, None)
            assert "rel" not in actx._nf_cache

    def test_extended_context_shares_the_relation_basis(self, dd3, monkeypatch):
        # the exp-map target B[W1][U] reduces witnesses by the basis its
        # source made: one Buchberger run, and the basis a run in the larger
        # context would give
        runs = []
        monkeypatch.setattr(elements, "buchberger", lambda *a: runs.append(a) or buchberger(*a))
        actx = AlgebraContext(dd3, ("W1",))
        child = actx.extend("U")
        assert child == AlgebraContext(dd3, ("W1", "U"))
        rng = random.Random(29)
        exprs = [random_polynomial(rng, child.gen_ctx, max_terms=4, max_exp=3) for _ in range(10)]
        reduced = [child.reduce_witness(g) for g in exprs]
        actx.reduce_witness(actx.gen_ctx.var("T") * actx.gen_ctx.var("X") ** 2)
        assert len(runs) == 1 and runs[0][0][0].ctx.names == ("X", "Y", "Z", "T")
        monkeypatch.undo()
        order = MonomialOrder.block_sequence(child.gen_ctx, [["T"], ["Y"]])
        fresh = buchberger(list(child.relations()), order)
        gb = child._nf_cache["rel"]
        assert (gb.ctx, gb.order, gb.polys, gb.gens, gb.cofactors) == (
            fresh.ctx, fresh.order, fresh.polys, fresh.gens, fresh.cofactors)
        assert reduced == [fresh.remainder(g) for g in exprs]

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
        with pytest.raises(AlgebraError, match="base variables is not supported"):
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


def _agreement_case(seed):
    """A seeded algebra (X-terms allowed in P and Q, the Y^s coefficient b
    of Q not always 1, sometimes W1 adjoined) and a form: a member of shift
    1 to 6, x^-k*h with h a random polynomial in z (and w1) and k up to 8,
    or a member of shift n >= 2 plus x^-k*h with k < n, perturbed above its
    lowest level."""
    rng = random.Random(seed)
    pres = random_valid_presentation(rng, rng.randint(1, 3), rng.randint(1, 3), max_r=3, max_s=3,
                                     constant_lead_p=False)
    actx = AlgebraContext(pres, ("W1",) if rng.random() < 0.3 else ())
    cctx = actx.coeff_ctx
    h = random_polynomial(rng, cctx, max_terms=3, max_exp=4)
    h = h if not h.is_zero() else cctx.one()
    kind = rng.randrange(3)
    if kind == 1:
        return actx, LaurentForm(cctx, {-rng.randint(1, 8): h})
    lowest = 2 if kind else 1
    form = actx.to_laurent(random_polynomial(rng, actx.gen_ctx, max_terms=3, max_exp=2))
    while not lowest <= -form.min_exp() <= 6:
        form = actx.to_laurent(random_polynomial(rng, actx.gen_ctx, max_terms=3, max_exp=2))
    if kind:
        form = form + LaurentForm(cctx, {-rng.randint(1, -form.min_exp() - 1): h})
    return actx, form


class _OracleTooSlow(Exception):
    pass


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise _OracleTooSlow in the block once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise _OracleTooSlow

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestDivisionAgainstGroebner:
    """The x-adic division against the Groebner route, the reference oracle."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_same_answer_and_normal_form(self, seed):
        # draws whose oracle runs past 40,000 steps or 2 s are skipped and
        # counted as an event (--hypothesis-show-statistics); the budget
        # also pays for the oracle's cofactor rows
        actx, form = _agreement_case(seed)
        try:
            with _time_limit(2.0):
                member, reference = groebner_membership(form, actx, 40_000)
        except (BudgetExceeded, _OracleTooSlow):
            event("oracle over budget, skipped")
            return
        event("member" if member else "non-member")
        result = membership_with_witness(form, actx)
        assert result.member == member
        divided, refusal = _x_adic_witness(form, actx, _Budget(DEFAULT_BUDGET))
        assert (refusal is None) == member
        if member:
            assert result.witness == actx.reduce_witness(reference)
            assert actx.reduce_witness(divided) == result.witness
        else:
            assert result.witness is None and result.certificate["level"] == -refusal[0]
            assert result.certificate["completeness"]["passed"]
            if -refusal[0] > form.min_exp():
                event("refused above the lowest level")

    def test_refusal_is_a_no(self, dd1_ctx):
        # y + x^-1*(z - 1): z^2 + z - 2 at level -1 is not a multiple of
        # P(0,z) = z^2 - 1, so the division refuses, and the refusal is the
        # answer: the form is not in B
        cctx = dd1_ctx.coeff_ctx
        form = dd1_ctx.gen("Y").laurent + LaurentForm(cctx, {-1: parse_poly("Z - 1", cctx)})
        partial, refusal = _x_adic_witness(form, dd1_ctx, _Budget(DEFAULT_BUDGET))
        assert partial.is_zero() and refusal[0] == 1
        result = membership_with_witness(form, dd1_ctx)
        assert not result.member and result.witness is None
        cert = result.certificate
        assert (cert["level"], cert["divisor"], cert["remainder"]) == (-1, "(Z^2 - 1)^1", "Z - 1")
        assert groebner_membership(form, dd1_ctx) == (False, None)

    def test_refusal_remainder_is_divided_by_the_running_scale(self):
        # P(0,Z) = 2*Z^2 - 1 is not monic: dividing z^2 scales the work by 2,
        # and z^2 = (1/2)*(2*z^2 - 1) + 1/2 leaves the remainder 1/2
        actx = AlgebraContext(DDPresentation.make([], 1, 2, "2*Z^2 - 1", "Y^2 + Z"))
        cctx = actx.coeff_ctx
        form = LaurentForm(cctx, {-1: parse_poly("Z^2", cctx)})
        cert = membership_with_witness(form, actx).certificate
        assert (cert["level"], cert["divisor"], cert["remainder"]) == (-1, "(2*Z^2 - 1)^1", "1/2")
        assert groebner_membership(form, actx) == (False, None)

    def test_large_shift_refused_before_any_divisor_is_built(self, dd1, monkeypatch):
        # Z at level -1000 has z-degree 1, below the z-degree r*J = 1000 of the
        # lowest coefficient of T^250, the power that reaches that level: the
        # division refuses without building T^250 or P(0,z)^500, which the
        # certificate names unexpanded
        def no_divisor(self, big_j, budget):
            raise RuntimeError(f"built P(0,z)^{big_j}")

        monkeypatch.setattr(AlgebraContext, "_p0_power", no_divisor)
        actx = AlgebraContext(dd1)
        cctx = actx.coeff_ctx
        form = LaurentForm(cctx, {-1000: cctx.var("Z")})
        result = membership_with_witness(form, actx)
        assert not result.member and result.witness is None
        cert = result.certificate
        assert (cert["level"], cert["divisor"], cert["remainder"]) == (-1000, "(Z^2 - 1)^500", "Z")
        # the powers of P(0,z) are still 1 and P(0,z)
        _, powers, _ = actx._nf_cache["x-adic"]
        assert sorted(powers) == [0, 1]
        assert groebner_membership(form, actx) == (False, None)

    def test_large_shift_member_route_builds_no_power(self, dd1, monkeypatch):
        # Z^1000 at level -1000 reaches the z-degree r*J = 1000 of the lowest
        # coefficient of T^250, so the division runs; it is not exact, and the
        # refusal, the answer "no", comes before any power of y or t past
        # the first is built
        def no_power(self, name, k, budget):
            if k > 1:
                raise RuntimeError(f"built the power {name}^{k}")
            return original(self, name, k, budget)

        original = AlgebraContext._power
        monkeypatch.setattr(AlgebraContext, "_power", no_power)
        actx = AlgebraContext(dd1)
        cctx = actx.coeff_ctx
        form = LaurentForm(cctx, {-1000: cctx.var("Z") ** 1000})
        result = membership_with_witness(form, actx)
        assert not result.member
        assert (result.certificate["level"], result.certificate["divisor"]) == (-1000, "(Z^2 - 1)^500")
        # P(0,z)^500 came from halving: the powers kept are 500, 250, 125,
        # 63, 62, 32, 31, 16, 15, 8, 7, 4, 3, 2, 1 and 0, not all 501
        assert len(actx._nf_cache["x-adic"][1]) == 16

    def test_closed_form_divisor_is_the_lowest_coefficient(self):
        # b^l*P(0,z)^(j+s*l), with the power from `_p0_power`, against the
        # lowest coefficient of the Laurent form of Y^j*T^l built from the
        # image powers, with P and Q not monic and W1 adjoined
        pres = DDPresentation.make([], 2, 3, "2*Z^2 + X*Z^2 - 1/2", "-2*Y^2 + X*Y*Z + Z + 1/3")
        actx = AlgebraContext(pres, ("W1",))
        cctx = actx.coeff_ctx
        b = actx._x_adic_b()
        assert b == -2
        for j in range(pres.s):
            for l in range(3):
                budget = _Budget(DEFAULT_BUDGET)
                y_power, dy = actx._power("Y", j, budget)
                t_power, dt = actx._power("T", l, budget)
                form = unpacked(cctx, _packed_product(y_power, t_power, len(cctx.names)), dy * dt)
                assert form == actx.element(f"Y^{j}*T^{l}").laurent
                big_j = j + pres.s * l
                assert form.min_exp() == -(pres.d * big_j + pres.e * l)
                power, p0_den = actx._p0_power(big_j, budget)
                lowest = unpacked(cctx, power, p0_den).scale(b ** l)
                assert lowest.coeffs[0] == form.coeffs[form.min_exp()]

    def test_divisor_is_charged_once_per_power(self, dd1):
        # each power made charges its term pairs, free after: P(0,z)^k has
        # k + 1 terms, so P^2 = P*P charges 2*2, P^3 = P*P^2 2*3 and
        # P^6 = P^3*P^3 4*4
        actx = AlgebraContext(dd1)
        actx._x_adic_b()
        for big_j, charge in ((3, 10), (1, 0), (3, 0), (2, 0), (6, 16)):
            budget = _Budget(DEFAULT_BUDGET)
            actx._p0_power(big_j, budget)
            assert budget.used == charge
        assert sorted(actx._nf_cache["x-adic"][1]) == [0, 1, 2, 3, 6]

    def test_divisor_charge_bounds_the_work_of_a_deep_power(self, dd1):
        # Z^4000 at level -3998 divides by P(0,z)^2000, whose halving ends in
        # P^1000*P^1000, 1001^2 term pairs: the budget runs out before that
        # product, or even P^500*P^500, is formed.  A charge of r*J + 1 =
        # 4001 steps per power would let the whole power be built, in time
        # that grows as J^2
        actx = AlgebraContext(dd1)
        cctx = actx.coeff_ctx
        form = LaurentForm(cctx, {-3998: cctx.var("Z") ** 4000})
        budget = _Budget(DEFAULT_BUDGET)
        with pytest.raises(BudgetExceeded):
            _x_adic_witness(form, actx, budget)
        # P^500 took 85,767 pairs, then P^500*P^500 charged 501^2
        assert budget.used == 85_767 + 501 ** 2
        assert sorted(actx._nf_cache["x-adic"][1]) == [0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 62, 63, 125, 250, 500]

    def test_budget_charged_by_each_division_of_the_reference_certificate(self, monkeypatch):
        # the steps of every x-adic division in the (2,2,4,3) certificate,
        # P = Z^4 - 1, Q = Y^3 + Z, in call order: the charge rule is pinned
        used = []
        original = elements._x_adic_witness

        def recording(f, actx, budget):
            try:
                return original(f, actx, budget)
            finally:
                used.append(budget.used)

        monkeypatch.setattr(elements, "_x_adic_witness", recording)
        cert = cancellation_certificate(DDPresentation.make([], 2, 2, "Z^4 - 1", "Y^3 + Z"))
        assert cert.certified
        assert used == [1, 12, 1, 14, 10, 3, 4] + [0] * 18 + [27, 8, 289, 5776]

    @pytest.mark.parametrize("p_text, q_text, named", [
        ("Z^2 - 1", "a*Y^2 + Z", r"b = a, the Y\^s coefficient of Q,"),
        ("a*Z^2 - 1", "Y^2 + Z", r"Z-leading coefficient a of P\(0,Z\)"),
    ])
    def test_division_needs_rational_leading_coefficients(self, p_text, q_text, named):
        # over Q[a] the division divides by b and by the Z-lead of P(0,Z);
        # when one is not a rational, it says which instead of dividing
        actx = AlgebraContext(DDPresentation.make(["a"], 1, 2, p_text, q_text))
        with pytest.raises(AlgebraError, match=f"{named} is not a nonzero rational"):
            _x_adic_witness(actx.gen("T").laurent, actx, _Budget(DEFAULT_BUDGET))

    def test_division_charges_the_budget(self, dd1_ctx):
        form = dd1_ctx.element("Y*Z^3 + T*Z").laurent
        budget = _Budget(DEFAULT_BUDGET)
        assert _x_adic_witness(form, dd1_ctx, budget)[1] is None
        assert budget.used > 0

    def test_exact_large_shift_stops_inside_the_budget(self, dd1):
        # (z^2 - 1)^500 at level -1000 is the lowest coefficient of T^250, so
        # the division is exact; P(0,z)^500 charges 85,767 term pairs, and
        # building T^250 charges the budget a power at a time and runs out
        # after a few powers of t, not after T^250
        actx = AlgebraContext(dd1)
        cctx = actx.coeff_ctx
        form = LaurentForm(cctx, {-1000: parse_poly("Z^2 - 1", cctx) ** 500})
        with pytest.raises(BudgetExceeded, match="budget of 88000 steps"):
            membership_with_witness(form, actx, 88_000)
        assert 500 in actx._nf_cache["x-adic"][1]
        built = len(actx.generator_images()["T"]._powers[1])
        assert 2 < built < 30

    def test_division_refuses_a_product_over_the_packed_limit_before_any_power(self, monkeypatch):
        # P(0,z) = z^3, and the images of y and t hold z^9 and z^18.  Level
        # -5 has J = 2 (t^1) and jy = 3: z^N there is cleared by the y-first
        # piece z^(N-9)*x*y^3, which can reach z^(N+18); z^6*w1^N, whose
        # quotient w1^N by z^6 is below the z-degree of P(0,z), by the piece
        # w1^N*t alone, which can reach N + 18 too.  Each piece checks its
        # bound before it reads a power of y or t
        def no_power(self, name, k, budget):
            raise RuntimeError(f"read the power {name}^{k}")

        monkeypatch.setattr(AlgebraContext, "_power", no_power)
        actx = AlgebraContext(DDPresentation.make([], 2, 1, "Z^3 + X*Z^9", "Y^2 + X*Z^9"), ("W1",))
        cctx = actx.coeff_ctx
        assert actx.generator_images()["Y"].coeffs[-1] == cctx.monomial({"Z": 9})
        assert actx.generator_images()["T"].coeffs[-3] == cctx.monomial({"Z": 18})

        def y_first(n):
            return LaurentForm(cctx, {-5: cctx.monomial({"Z": n})})

        def with_t(n):
            return LaurentForm(cctx, {-5: cctx.monomial({"Z": 6, "W1": n})})

        for level, power in ((y_first, r"Y\^3"), (with_t, r"Y\^0")):
            with pytest.raises(ExponentLimit, match=f"exponent {MAX_PACKED_EXPONENT + 1} exceeds"):
                _x_adic_witness(level(MAX_PACKED_EXPONENT - 17), actx, _Budget(DEFAULT_BUDGET))
            with pytest.raises(RuntimeError, match=f"read the power {power}"):
                _x_adic_witness(level(MAX_PACKED_EXPONENT - 18), actx, _Budget(DEFAULT_BUDGET))
        # an exponent of the form itself is checked as it is packed
        with pytest.raises(ExponentLimit):
            _x_adic_witness(LaurentForm(cctx, {0: cctx.monomial({"Z": MAX_PACKED_EXPONENT + 1})}),
                            actx, _Budget(DEFAULT_BUDGET))

    @pytest.mark.parametrize("p_text", ["Z^2 - 1", "Z^2 + 1/2"])
    def test_division_mutates_neither_input_nor_cached_powers(self, p_text):
        actx = AlgebraContext(DDPresentation.make([], 1, 2, p_text, "Y^2 + Z"))

        def snapshot():
            return {g: (copy.deepcopy(v._powers), v.to_json()) for g, v in actx.generator_images().items()}

        form = actx.element("Y*T^2*Z + 3*T^2 - 2*X*Y^2 + Z").laurent
        # the stored numerators, not only the printed view, stay as they were
        def state():
            return form.to_json(), copy.deepcopy(form.num), form.den

        before = state()
        witness, refusal = _x_adic_witness(form, actx, _Budget(DEFAULT_BUDGET))
        assert refusal is None
        assert state() == before
        assert actx.to_laurent(witness) == form
        cached = snapshot()
        assert len(cached["T"][0][1]) > 2
        # the second run reads every power from the cache
        assert _x_adic_witness(form, actx, _Budget(DEFAULT_BUDGET)) == (witness, None)
        assert state() == before
        assert snapshot() == cached


def _split_case(seed):
    """A seeded algebra with X-terms in P or Q (a random one, or
    P = X^2 - 2*X + Z + 4, Q = 2*X*Y*Z + 3*Y^2, whose T-leads include
    X*Y*Z^2*T when (d,e) = (2,2)), sometimes W1 adjoined, and a form: the
    image of a random polynomial plus Y^k*h with k > s, whose lowest levels
    the y-first piece clears, and, half the time, x^-k*g with g random in z
    (and w1) added at a level of the member."""
    rng = random.Random(seed)
    d, e = rng.randint(1, 2), rng.randint(1, 2)
    if rng.random() < 0.3:
        pres = DDPresentation.make([], d, e, "X^2 - 2*X + Z + 4", "2*X*Y*Z + 3*Y^2")
    else:
        pres = random_valid_presentation(rng, d, e, max_r=2, max_s=2, constant_lead_p=False)
        while "X" not in pres.P.support_vars() | pres.Q.support_vars():
            pres = random_valid_presentation(rng, d, e, max_r=2, max_s=2, constant_lead_p=False)
    actx = AlgebraContext(pres, ("W1",) if rng.random() < 0.3 else ())
    gctx, cctx = actx.gen_ctx, actx.coeff_ctx
    high = gctx.var("Y") ** rng.randint(pres.s + 1, pres.s + 3) * random_polynomial(
        rng, Context(("X", "Z")), max_terms=2, max_exp=2).transfer(gctx)
    form = actx.to_laurent(random_polynomial(rng, gctx, max_terms=3, max_exp=2) + high)
    if rng.random() < 0.5 and form.min_exp() < 0:
        g = random_polynomial(rng, cctx, max_terms=3, max_exp=2 * pres.r + 1)
        form = form + LaurentForm(cctx, {-rng.randint(1, -form.min_exp()): g})
    return actx, form


def _division_by_b_l_p0_j(form, actx):
    """The x-adic division that clears each level -m with x^i*y^j*t^l alone,
    j + s*l = J(m), dividing by b^l*P(0,Z)^J with the heap division: the
    witness and None, or the partial witness and (m, remainder)."""
    p = actx.presentation
    gctx, cctx = actx.gen_ctx, actx.coeff_ctx
    b = actx._x_adic_b()
    order = MonomialOrder.block_sequence(cctx, [["Z"]])
    witness, rest = gctx.zero(), form
    while rest.min_exp() < 0:
        m = -rest.min_exp()
        big_j = 1
        while p.d * big_j + p.e * (big_j // p.s) < m:
            big_j += 1
        j, l = big_j % p.s, big_j // p.s
        divisors = _Divisors(order)
        lc = divisors.push((p.p_at_x0().transfer(cctx) ** big_j).scale(b ** l))
        rem, (q,) = _normal_form(rest.coeffs[-m], divisors, _Budget(DEFAULT_BUDGET))
        if not rem.is_zero():
            return witness, (m, rem)
        i = p.d * big_j + p.e * l - m
        piece = q.scale(Fraction(1) / lc).transfer(gctx) * gctx.monomial({"X": i, "Y": j, "T": l})
        witness, rest = witness + piece, rest - actx.to_laurent(piece)
    x = gctx.var("X")
    return witness + sum((c.transfer(gctx) * x ** n for n, c in rest.coeffs.items()), gctx.zero()), None


# (P, Q) with P(0,Z) not integral or not monic, X-terms, and b not 1
_RATIONAL_CELLS = [
    ("2*Z^2 + X*Z^2 - 1/2", "-2*Y^2 + X*Y*Z + Z + 1/3"),
    ("Z^2 + 1/2", "Y^3 + Z"),
    ("3*Z^3 - 1/2*Z + X", "1/2*Y^2 + X*Z"),
]


class TestYFirstSplit:
    """The division that puts the multiple of P(0,z)^j, j = ceil(m/d), of
    each level -m into x^(d*j - m)*y^j, on presentations with X-terms in P
    and Q, against the division by b^l*P(0,Z)^J alone and the Groebner
    route."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_same_answers_as_the_division_by_b_l_p0_j(self, seed):
        actx, form = _split_case(seed)
        witness, refusal = _x_adic_witness(form, actx, _Budget(DEFAULT_BUDGET))
        reference, ref_refusal = _division_by_b_l_p0_j(form, actx)
        assert (refusal is None) == (ref_refusal is None)
        s = actx.presentation.s
        y_first = any(e[1] > s for e in witness.terms)
        event(f"{'non-member' if refusal else 'member'}, {'a' if y_first else 'no'} piece in y^j, j > s")
        member = oracle = None
        try:
            if form.min_exp() < 0:
                with _time_limit(2.0):
                    member, oracle = groebner_membership(form, actx, 40_000)
        except (BudgetExceeded, _OracleTooSlow):
            event("oracle over budget, skipped")
        if refusal is None:
            assert actx.to_laurent(witness) == form
            reduced = actx.reduce_witness(witness)
            assert reduced == actx.reduce_witness(reference)
            if member is not None:
                assert member and reduced == actx.reduce_witness(oracle)
        else:
            m, c, certificate = refusal
            residue = form - actx.to_laurent(witness)
            assert residue.min_exp() == -m and residue.coeffs[-m] == c
            ref_m, ref_rem = ref_refusal
            assert (certificate["level"], certificate["remainder"]) == (-ref_m, str(ref_rem))
            assert member in (False, None)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_t_free_normal_form_comes_back_as_it_is(self, seed):
        # no T and no term divisible by X^d*Y: each level -m of the image
        # has one such monomial x^i*y^j, i < d, so its lowest coefficient is
        # q*P(0,z)^j and the y-first piece is that monomial's part of h
        rng = random.Random(seed)
        d, e = rng.randint(1, 3), rng.randint(1, 2)
        if rng.random() < 0.4:  # P(0,Z) not integral, or not monic
            pres = DDPresentation.make([], d, e, *rng.choice(_RATIONAL_CELLS))
        else:
            pres = random_valid_presentation(rng, d, e, max_r=3, max_s=3, constant_lead_p=False)
        actx = AlgebraContext(pres, ("W1",) if rng.random() < 0.3 else ())
        gctx = actx.gen_ctx
        x, y, t = (gctx.index(v) for v in "XYT")
        h = random_polynomial(rng, gctx, max_terms=4, max_exp=3) + gctx.var("Y") ** rng.randint(
            pres.s + 1, pres.s + 3) * random_polynomial(rng, gctx, max_terms=2, max_exp=2)
        h = Polynomial._raw(gctx, {ex: c for ex, c in h.terms.items()
                                   if not ex[t] and not (ex[y] and ex[x] >= pres.d)})
        integral = all(Fraction(c).denominator == 1 for c in pres.p_at_x0().terms.values())
        event("P(0,Z) integral" if integral else "P(0,Z) with a denominator")
        assert _x_adic_witness(actx.to_laurent(h), actx, _Budget(DEFAULT_BUDGET)) == (h, None)

    def test_refusal_builds_no_y_first_power(self, dd1):
        # z^2000 at level -1000 reaches the z-degree 2000 of P(0,z)^1000, the
        # lowest coefficient of y^1000, but it is no multiple of P(0,z)^500,
        # that of T^250: the division by the latter refuses it, before
        # P(0,z)^1000, whose 501^2 more term pairs the default budget does
        # not hold, is built
        actx = AlgebraContext(dd1)
        cctx = actx.coeff_ctx
        form = LaurentForm(cctx, {-1000: cctx.var("Z") ** 2000})
        result = membership_with_witness(form, actx)
        assert not result.member
        assert (result.certificate["level"], result.certificate["divisor"]) == (-1000, "(Z^2 - 1)^500")
        assert max(actx._nf_cache["x-adic"][1]) == 500


# (base variables, adjoined variables, P, Q): P(0,Z) has a rational Z-lead;
# the last has a monomial P(0,Z), so that a z-degree near the packed limit
# divides in a few steps
_DIVISION_CASES = [
    ((), ("W1",), "Z^2 - 1", "Y^2 + Z"),
    ((), ("W1", "U"), "2*Z^2 + X*Z^2 - 1/2", "-2*Y^2 + X*Y*Z + Z + 1/3"),
    (("a",), ("W1",), "Z^3 - a*Z + 1/3", "1/2*Y^2 + a*Z + X*Z"),
    (("a", "u1"), ("U",), "-3*Z^2 + a*u1*Z - a + X*a", "Y^3 + Z + a*X"),
    ((), ("W1",), "3*Z^3 + X", "Y^2 + X*Z^9"),
]


class TestDivisionInZ:
    """The packed long division in z against `_normal_form` by b^l*P(0,Z)^J
    made monic: the same quotient, remainder and steps."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_same_as_the_heap_division(self, seed):
        rng = random.Random(seed)
        base, adjoined, p_text, q_text = rng.choice(_DIVISION_CASES)
        pres = DDPresentation.make(base, rng.randint(1, 2), rng.randint(1, 2), p_text, q_text)
        actx = AlgebraContext(pres, adjoined)
        cctx = actx.coeff_ctx
        width = len(cctx.names)
        big_j = rng.randint(1, 3)
        l = big_j // pres.s
        b = actx._x_adic_b()
        lowest = (pres.p_at_x0().transfer(cctx) ** big_j).scale(b ** l)
        c = random_polynomial(rng, cctx, max_terms=4, max_exp=pres.r * big_j + 2)
        if rng.random() < 0.4:  # an exact multiple, or one plus terms of low z-degree
            c = random_polynomial(rng, cctx, max_terms=3, max_exp=2) * lowest
            if rng.random() < 0.5:
                c = c + random_polynomial(rng, cctx, max_terms=2, max_exp=pres.r * big_j - 1)
        if p_text.startswith("3*Z^3") and rng.random() < 0.5:  # sparse, near the packed limit
            c = c + cctx.monomial({"Z": MAX_PACKED_EXPONENT - rng.randint(0, 3), "W1": rng.randint(0, 2)})
            event("near the packed limit")
        if c.is_zero():
            c = cctx.one()
        # Z first: with base variables, grevlex could lead with another term
        divisors = _Divisors(MonomialOrder.block_sequence(cctx, [["Z"]]))
        lc = divisors.push(lowest)
        ref_budget = _Budget(DEFAULT_BUDGET)
        ref_rem, (ref_q,) = _normal_form(c, divisors, ref_budget)

        divisor, d_den = actx._p0_power(big_j, _Budget(DEFAULT_BUDGET))
        terms, den = _scaled_int_form(_pack({0: c.terms}, width)[0])
        kept = (dict(terms), dict(divisor))
        budget = _Budget(DEFAULT_BUDGET)
        q, rem, scale = _divide_in_z(terms, divisor, width, budget)
        assert (terms, divisor) == kept

        def poly(t, k):
            return Polynomial._raw(cctx, _unpack(t, width, k).get(0, {}))

        assert budget.used == ref_budget.used
        assert poly(rem, scale * den) == ref_rem
        assert poly(q, scale * den).scale(Fraction(d_den) / b ** l) == ref_q.scale(Fraction(1) / lc)
        event("exact" if ref_rem.is_zero() else "refused")

    def test_keys_past_the_packed_limit_in_a_base_variable_are_refused(self):
        # P(0,Z) = Z^2 - a: a^N*Z^2 leaves the remainder a^(N+1), whose key
        # would carry out of the field of a past N = MAX_PACKED_EXPONENT - 1
        actx = AlgebraContext(DDPresentation.make(["a"], 1, 2, "Z^2 - a", "Y^2 + Z"))
        cctx = actx.coeff_ctx

        def level(k):
            return LaurentForm(cctx, {-1: cctx.monomial({"Z": 2, "a": k})})

        with pytest.raises(ExponentLimit):
            _x_adic_witness(level(MAX_PACKED_EXPONENT), actx, _Budget(DEFAULT_BUDGET))
        _, (_, _, certificate) = _x_adic_witness(level(MAX_PACKED_EXPONENT - 2), actx, _Budget(DEFAULT_BUDGET))
        assert certificate["remainder"] == f"a^{MAX_PACKED_EXPONENT - 1}"


class TestReduceWitness:
    def test_image_of_t_on_the_reference_cell_within_4000_steps(self):
        # the largest witness a certificate reduces: the image of t over the
        # smaller ring of (2,2,4,3).  The division puts most of each level
        # into a standard x^i*y^j, so its 1,407 terms hold T only 3 times,
        # and the normal form takes 3 steps in either divisor order; built
        # from powers of t (1,220 terms, 782 with T) it took 3,907 and 9,609
        cert = cancellation_certificate(DDPresentation.make([], 2, 2, "Z^4 + 1", "Y^3 + Z"))
        psi_t = cert.old_generators.images["T"]
        small = psi_t.actx
        witness, refusal = _x_adic_witness(psi_t.laurent, small, _Budget(DEFAULT_BUDGET))
        t = small.gen_ctx.index("T")
        assert refusal is None and len(witness.terms) == 1407
        assert sum(1 for e in witness.terms if e[t]) == 3
        basis = small._nf_cache["rel"]
        reduced = basis.remainder(witness, 3)
        assert reduced == basis.normal_form(witness, 3)[0] == psi_t.gen
        with pytest.raises(BudgetExceeded):
            basis.remainder(witness, 2)


class TestCompleteness:
    """The computed premises behind "a refusal proves non-membership"."""

    def test_report_passes_on_valid_presentations(self, dd1, dd3):
        rng = random.Random(12)
        presentations = [dd1, dd3] + [
            random_valid_presentation(rng, rng.randint(1, 3), rng.randint(1, 3), max_r=3, max_s=3,
                                      constant_lead_p=False)
            for _ in range(10)
        ]
        for pres in presentations:
            report = AlgebraContext(pres).completeness_report()
            assert report.passed, report.to_json()

    def test_report_is_made_once_and_only_on_a_refusal(self, dd3):
        actx = AlgebraContext(dd3)
        assert membership_with_witness(actx.element("Y*T + Z").laurent, actx).member
        assert "completeness" not in actx._nf_cache
        form = LaurentForm(actx.coeff_ctx, {-1: actx.coeff_ctx.var("Z")})
        assert not membership_with_witness(form, actx).member
        report = actx._nf_cache["completeness"]
        assert not membership_with_witness(form.shift(-1), actx).member
        assert actx.completeness_report() is report

    def test_nonzerodivisor_check_fails_on_a_zerodivisor(self):
        # modulo (x*y - z, x*t - y*z), x*(t - y^2) vanishes and t - y^2 does not
        ctx = Context(("V", "X", "Y", "Z", "T"))
        rels = [parse_poly("X*Y - Z", ctx), parse_poly("X*T - Y*Z", ctx)]
        assert not _x_is_nonzerodivisor(rels, DEFAULT_BUDGET)
        assert _x_is_nonzerodivisor([parse_poly("X*Y - Z", ctx), parse_poly("X*T - Y^2", ctx)],
                                    DEFAULT_BUDGET)

    def test_nonzerodivisor_check_on_relations_with_x_first(self):
        # the full relations of a valid cell live in gen_ctx, where X is the
        # first variable and no V exists: the helper adjoins its own
        actx = AlgebraContext(DDPresentation.make([], 2, 2, "Z^4 - 1", "Y^3 + Z"))
        assert actx.gen_ctx.names[0] == "X"
        assert _x_is_nonzerodivisor(list(actx.relations()), DEFAULT_BUDGET)
        # and with an adjoined V already in the context
        actx = AlgebraContext(DDPresentation.make([], 1, 2, "Z^2 - 1", "Y^2 + Z"), ("V",))
        assert _x_is_nonzerodivisor(list(actx.relations()), DEFAULT_BUDGET)

    def test_broken_initial_relations_raise_instead_of_answering(self, dd1, monkeypatch):
        # with P(0,Z) replaced by 0 in I0, x*y is a relation that x divides
        # and y is not: X is a zerodivisor, the report fails, and a refusal
        # is no longer an answer
        original = elements._initial_relations

        def without_p0(p, ctx):
            rel1, rel2 = original(p, ctx)
            return [rel1 + p.p_at_x0().transfer(ctx), rel2]

        monkeypatch.setattr(elements, "_initial_relations", without_p0)
        actx = AlgebraContext(dd1)
        form = LaurentForm(actx.coeff_ctx, {-1: parse_poly("Z - 1", actx.coeff_ctx)})
        with pytest.raises(AlgebraError, match="not known to be complete"):
            membership_with_witness(form, actx)
        report = actx.completeness_report()
        assert [c.name for c in report.failed_items()] == ["I0 : X = I0"]
        assert membership_with_witness(actx.gen("Y").laurent, actx).member

    @pytest.mark.parametrize("fault", ["level", "coefficient", "witness"])
    def test_refusal_is_checked_against_the_residue(self, dd1, monkeypatch, fault):
        # y*t + x^-1*(z - 1) is refused at level -1, after levels -5 to -2
        # are cleared; a refusal record that does not match f minus the
        # partial witness is caught
        original = elements._x_adic_witness

        def tampered(f, actx, budget):
            witness, (m, coeff, certificate) = original(f, actx, budget)
            if fault == "level":
                m += 1
            elif fault == "coefficient":
                coeff = coeff + coeff.ctx.one()
            else:
                witness = witness + actx.gen_ctx.var("Y")
            return witness, (m, coeff, certificate)

        actx = AlgebraContext(dd1)
        cctx = actx.coeff_ctx
        form = actx.element("Y*T").laurent + LaurentForm(cctx, {-1: parse_poly("Z - 1", cctx)})
        assert membership_with_witness(form, actx).certificate["level"] == -1
        monkeypatch.setattr(elements, "_x_adic_witness", tampered)
        with pytest.raises(AssertionError, match="refused coefficient"):
            membership_with_witness(form, actx)


def _corrupt_quotients(monkeypatch):
    """Make every division in z return its quotient with 1 added to the
    constant coefficient (the scale, over the running scale)."""
    calls = []
    original = elements._divide_in_z

    def corrupted(terms, divisor, width, budget):
        q, rem, scale = original(terms, divisor, width, budget)
        calls.append(q)
        q = dict(q)
        q[0] = q.get(0, 0) + scale
        if not q[0]:
            del q[0]
        return q, rem, scale

    monkeypatch.setattr(elements, "_divide_in_z", corrupted)
    return calls


class TestDivisionFaults:
    # forms with one negative level: its one division step is corrupted, and
    # no later step is left to refuse
    @pytest.mark.parametrize("text", ["Y", "Z*Y - 2*Y", "X*Y^2 + Y", "X^3*T + Z"])
    def test_corrupted_quotient_is_caught(self, dd1_ctx, monkeypatch, text):
        form = dd1_ctx.element(text).laurent
        calls = _corrupt_quotients(monkeypatch)
        with pytest.raises(AssertionError, match="does not reproduce the input form"):
            membership_with_witness(form, dd1_ctx)
        assert calls

    def test_corrupted_quotient_never_gives_a_wrong_answer(self, monkeypatch):
        cases = [_drawn_case(seed) for seed in range(40)]
        expected = [groebner_membership(form, actx)[0] for actx, form in cases]
        calls = _corrupt_quotients(monkeypatch)
        caught = 0
        for (actx, form), member in zip(cases, expected):
            try:
                result = membership_with_witness(form, actx)
            except (AssertionError, AlgebraError):  # a witness, a refusal or the report caught it
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
        assert err.value.certificate["level"] == -1

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
