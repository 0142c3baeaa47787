import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st

from ddlab.groebner import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    GroebnerBasis,
    MonomialOrder,
    _assert_basis_sound,
    _Budget,
    _Divisors,
    _normal_form,
    _remainder,
    buchberger,
    elimination_ideal,
    is_unit_ideal,
)
from ddlab.poly import Context, Polynomial, parse_poly

from conftest import random_polynomial

ZCTX = Context(("Z",))
YZCTX = Context(("Y", "Z"))
XYCTX = Context(("X", "Y"))


def zp(text):
    return parse_poly(text, ZCTX)


def normal_form(gb, f):
    """The remainder of f by the basis and its cofactors on the basis elements."""
    return _normal_form(f, gb._divisors, _Budget(DEFAULT_BUDGET))


def lex(ctx):
    """Lex: one block per variable."""
    return MonomialOrder.block_sequence(ctx, [[v] for v in ctx.names])


class TestBuchberger:
    def test_unit_ideal_example(self):
        gb = buchberger([zp("Z^2 - 1"), zp("2*Z")], lex(ZCTX))
        assert [str(p) for p in gb.polys] == ["1"]
        assert gb.is_unit()

    def test_principal_gcd_example(self):
        gb = buchberger([zp("Z^2"), zp("2*Z")], lex(ZCTX))
        assert [str(p) for p in gb.polys] == ["Z"]

    def test_single_generator_normalizes(self):
        gb = buchberger([ZCTX.zero(), zp("3*Z^2 - 6")])
        assert [str(p) for p in gb.polys] == ["Z^2 - 2"]

    def test_zero_ideal(self):
        gb = buchberger([ZCTX.zero()])
        assert not gb.polys

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            buchberger([])

    def test_deterministic(self):
        gens = [
            parse_poly("Y^2 - Z", YZCTX),
            parse_poly("Y*Z - 1", YZCTX),
            parse_poly("Z^3 - Y", YZCTX),
        ]
        g1 = buchberger(gens)
        g2 = buchberger(gens)
        assert g1.polys == g2.polys
        assert g1.cofactors == g2.cofactors

    def test_budget_exceeded_is_clean_error(self):
        ctx = Context(("X", "Y", "Z"))
        gens = [
            parse_poly("X^3*Y^2 - Z^2", ctx),
            parse_poly("Y^3*Z - X", ctx),
            parse_poly("Z^3*X - Y", ctx),
        ]
        with pytest.raises(BudgetExceeded):
            buchberger(gens, budget=5)

    def test_cofactor_rows_are_charged(self):
        # d = 3, e = 2, P = -Z^3, Q = -3*X^2*Z + 3*X*Z^2 + 3*Z^3 + Y under the
        # X-last elimination order: the basis of (X^5, X^3*Y - P, X^2*T - Q)
        # takes fewer than 800 reduction steps, but its cofactor rows grow
        # past a thousand terms and take tens of seconds to build; the rows
        # are charged to the budget, which stops the run early
        ctx = Context(("X", "Y", "Z", "T"))
        gens = [parse_poly(text, ctx) for text in
                ("X^5", "X^3*Y + Z^3", "X^2*T + 3*X^2*Z - 3*X*Z^2 - 3*Z^3 - Y")]
        with pytest.raises(BudgetExceeded):
            buchberger(gens, MonomialOrder.elim(ctx, ["Y", "Z", "T"]), 20_000)


class TestNormalForm:
    def test_generator_itself(self):
        gb = buchberger([zp("Z^2 - 1")])
        rem, cofs = normal_form(gb, zp("Z^2 - 1"))
        assert rem.is_zero()
        assert cofs == [ZCTX.one()]

    def test_cubic_example(self):
        gb = buchberger([zp("Z^2 - 1")])
        rem, cofs = normal_form(gb, zp("Z^3"))
        assert rem == zp("Z")
        assert cofs == [zp("Z")]

    def test_unit_ideal_absorbs_everything(self):
        gb = buchberger([zp("Z^2 - 1"), zp("2*Z")])
        rem, cofs = normal_form(gb, ZCTX.one())
        assert rem.is_zero()
        assert cofs == [ZCTX.one()]

    def test_cofactor_identity_fuzz(self):
        rng = random.Random(2024)
        ctx = Context(("X", "Y", "Z"))
        for _ in range(60):
            gens = [random_polynomial(rng, ctx, max_terms=3, max_exp=2) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(gens)
            if not gb.polys:
                continue
            f = random_polynomial(rng, ctx, max_terms=4, max_exp=3)
            rem, cofs = normal_form(gb, f)
            acc = rem
            for c, g in zip(cofs, gb.polys):
                acc = acc + c * g
            assert acc == f
            # remainder is fully reduced: no term divisible by a basis lead
            for exps in rem.terms:
                for g in gb.polys:
                    lead = max(g.terms, key=gb.order.key)
                    assert not all(a <= b for a, b in zip(lead, exps))

    def test_reduce_to_gens_expresses_in_inputs(self):
        gens = [zp("Z^2 - 1"), zp("2*Z")]
        gb = buchberger(gens)
        cofs = []
        for j in range(len(gens)):
            rem, cof = gb.reduce_to_gens(ZCTX.one(), j)
            assert rem.is_zero()
            cofs.append(cof)
        acc = ZCTX.zero()
        for c, g in zip(cofs, gens):
            acc = acc + c * g
        assert acc == ZCTX.one()

    def test_reduce_to_gens_reads_each_column(self):
        ctx = Context(("X", "Y", "Z"))
        gens = [parse_poly(t, ctx) for t in ("X^2 - Y*Z", "Y^2 - X*Z", "X*Y - Z^2")]
        gb = buchberger(gens)
        assert not gb.is_unit()
        rng = random.Random(7)
        for trial in range(20):
            f = random_polynomial(rng, ctx, max_terms=3, max_exp=2) if trial % 2 else ctx.zero()
            for g in gens:
                f = f + random_polynomial(rng, ctx, max_terms=3, max_exp=2) * g
            acc = ctx.zero()
            for j, g in enumerate(gens):
                rem, cof = gb.reduce_to_gens(f, j)
                acc = acc + cof * g
            assert acc + rem == f
            if trial % 2 == 0:
                assert rem.is_zero()


XYZ = Context(("X", "Y", "Z"))
ORDERS = [
    MonomialOrder(),
    lex(XYZ),
    MonomialOrder.elim(XYZ, ["Y", "Z"]),
    MonomialOrder.block_sequence(XYZ, [["Z"], ["X"]]),
]

_exps = st.tuples(*[st.integers(0, 2)] * 3)
_ints = st.integers(-4, 4).filter(bool)
_rationals = st.builds(Fraction, _ints, st.sampled_from([1, 2, 3]))


@st.composite
def _division_case(draw):
    """A polynomial f and a basis that is integral monic, rational monic,
    mixed (monic, one element over halves and one over thirds) or non-monic."""
    order = draw(st.sampled_from(ORDERS))
    kind = draw(st.sampled_from(["integral", "rational", "mixed", "non-monic"]))
    basis = []
    for k in range(draw(st.integers(2, 3) if kind == "mixed" else st.integers(1, 3))):
        if kind == "integral":
            coeffs = _ints
        elif kind == "mixed":
            coeffs = st.builds(Fraction, _ints, st.just((2, 3, 1)[k]))
        else:
            coeffs = _rationals
        terms = draw(st.dictionaries(_exps, coeffs, min_size=1, max_size=3))
        lm = max(terms, key=order.key)
        terms[lm] = draw(_rationals) if kind == "non-monic" else 1
        basis.append(Polynomial(XYZ, terms))
    f = Polynomial(XYZ, draw(st.dictionaries(_exps, _rationals, max_size=5)))
    return order, basis, f


def _reference_division(f, basis, order):
    """Textbook division: reduce the largest term by the first divisor whose lead divides it."""
    leads = [max(g.terms, key=order.key) for g in basis]
    work = {e: Fraction(c) for e, c in f.terms.items()}
    rem, quots, steps = {}, [{} for _ in basis], 0
    while work:
        e = max(work, key=order.key)
        c = work[e]
        for i, lm in enumerate(leads):
            if all(a <= b for a, b in zip(lm, e)):
                steps += 1
                q = c / basis[i].terms[lm]
                qe = tuple(a - b for a, b in zip(e, lm))
                for eg, cg in basis[i].terms.items():
                    ee = tuple(a + b for a, b in zip(qe, eg))
                    work[ee] = work.get(ee, 0) - q * cg
                    if work[ee] == 0:
                        del work[ee]
                quots[i][qe] = quots[i].get(qe, 0) + q
                if quots[i][qe] == 0:
                    del quots[i][qe]
                break
        else:
            rem[e] = c
            del work[e]
    return Polynomial(XYZ, rem), [Polynomial(XYZ, q) for q in quots], steps


class TestNormalFormKernel:
    @settings(max_examples=200, deadline=None)
    @given(_division_case())
    def test_matches_reference_division(self, case):
        order, basis, f = case
        lms = [max(g.terms, key=order.key) for g in basis]
        lcs = [g.terms[lm] for g, lm in zip(basis, lms)]
        divisors = _Divisors(order, basis)
        assert divisors.lms == lms
        # the divisors are stored monic
        assert list(divisors) == [g.scale(Fraction(1) / lc) for g, lc in zip(basis, lcs)]
        budget = _Budget(10_000)
        rem, cofs = _normal_form(f, divisors, budget)
        acc = rem
        for q, g in zip(cofs, divisors):
            acc = acc + q * g
        assert acc == f
        for exps in rem.terms:
            assert not any(all(a <= b for a, b in zip(lm, exps)) for lm in lms)
        ref_rem, ref_cofs, steps = _reference_division(f, basis, order)
        assert budget.used == steps
        # cofactors on the monic divisors are the reference quotients times each lead coefficient
        assert (rem, cofs) == (ref_rem, [q.scale(lc) for q, lc in zip(ref_cofs, lcs)])
        # a shared _Divisors is left as it was: a second division agrees
        assert _normal_form(f, divisors, _Budget(10_000)) == (rem, cofs)
        if steps:
            with pytest.raises(BudgetExceeded):
                _normal_form(f, divisors, _Budget(steps - 1))

    @settings(max_examples=150, deadline=None)
    @given(_division_case())
    def test_remainder_without_cofactors(self, case):
        # bases from buchberger on the drawn generators; the "mixed" kind
        # leaves denominators in the basis, so the rescale branch runs with
        # no cofactor dicts to rescale.  About 1% of the draws, mostly under
        # lex, need more than 5,000 steps and are rejected.
        order, gens, f = case
        try:
            gb = buchberger(gens, order, budget=5_000)
        except BudgetExceeded:
            reject()
        rem = gb.remainder(f)
        assert rem == normal_form(gb, f)[0]
        divisors = gb._divisors
        if any(d != 1 for d in divisors.dens):
            event("denominators in the basis")
        ref_rem, _, steps = _reference_division(f, list(divisors), order)
        budget = _Budget(10_000)
        assert _normal_form(f, divisors, budget, cofactors=False) == (ref_rem, None)
        assert budget.used == steps
        assert ref_rem == rem
        if steps:
            with pytest.raises(BudgetExceeded):
                _normal_form(f, divisors, _Budget(steps - 1), cofactors=False)
            with pytest.raises(BudgetExceeded):
                gb.remainder(f, steps - 1)

    @settings(max_examples=200, deadline=None)
    @given(_division_case(), st.dictionaries(_exps, _rationals, min_size=1, max_size=6))
    def test_standard_terms_skip_the_division(self, case, more):
        # the terms no lead divides are kept out of the heap: on any basis,
        # Groebner or not, the remainder and the steps are those of the
        # division of the whole polynomial
        order, basis, f = case
        f = f + Polynomial(XYZ, more)
        divisors = _Divisors(order, basis)
        standard = [e for e in f.terms if not any(all(map(int.__le__, lm, e)) for lm in divisors.lms)]
        event(f"standard terms: {'none' if not standard else 'all' if len(standard) == len(f.terms) else 'some'}")
        results = []
        for divide in (_remainder, lambda *a: _normal_form(*a, cofactors=False)[0]):
            budget = _Budget(10_000)
            results.append((divide(f, divisors, budget), budget.used))
        assert results[0] == results[1]
        steps = results[0][1]
        if steps:
            with pytest.raises(BudgetExceeded):
                _remainder(f, divisors, _Budget(steps - 1))

    @settings(max_examples=150, deadline=None)
    @given(_division_case(), st.data())
    def test_subset_divides_as_fresh_divisors(self, case, data):
        # tail reduction divides by the run's divisors less one element
        order, basis, f = case
        divisors = _Divisors(order, basis)
        idx = data.draw(st.permutations(range(len(basis))).flatmap(
            lambda perm: st.integers(0, len(perm)).map(lambda k: perm[:k])))
        view, fresh = divisors.subset(idx), _Divisors(order, [divisors[i] for i in idx])
        assert (list(view), view.lms, view.lead_keys, view.dens, view.tails) == (
            list(fresh), fresh.lms, fresh.lead_keys, fresh.dens, fresh.tails)
        for cofactors in (True, False):
            budgets = _Budget(10_000), _Budget(10_000)
            assert (_normal_form(f, view, budgets[0], cofactors)
                    == _normal_form(f, fresh, budgets[1], cofactors))
            assert budgets[0].used == budgets[1].used

    def test_rescale_when_the_denominator_does_not_divide(self):
        # 1/3*Z^3 + 1 runs as Z^3 + 3 over 3; the tail -1/2 of Z^2 - 1/2 is
        # stored negated and times its denominator 2, as 1, and 2 does not
        # divide the lead 1, so the loop rescales to 2*Z^3 + 6 over 6 before
        # it reduces Z^3
        divisors = _Divisors(MonomialOrder(), [parse_poly("Z^2 - 1/2", ZCTX)])
        assert divisors.dens == [2] and divisors.tails == [[((0,), (0, 0), 1)]]
        budget = _Budget(10)
        rem, cofs = _normal_form(parse_poly("1/3*Z^3 + 1", ZCTX), divisors, budget)
        assert rem == parse_poly("1/6*Z + 1", ZCTX)
        assert cofs == [parse_poly("1/3*Z", ZCTX)]
        assert budget.used == 1
        budget = _Budget(10)
        assert _normal_form(parse_poly("1/3*Z^3 + 1", ZCTX), divisors, budget, cofactors=False) == (rem, None)
        assert budget.used == 1


class TestOrders:
    def test_elim_is_two_blocks(self):
        ctx = Context(("X", "Y", "T", "Z"))
        order = MonomialOrder.elim(ctx, ["Z", "X", "X"])
        assert order == MonomialOrder(((0, 3), (1, 2)))

    def test_elim_dominates(self):
        ctx = Context(("X", "Y", "Z"))
        order = MonomialOrder.elim(ctx, ["Y"])
        assert order.key((0, 1, 0)) > order.key((5, 0, 5))


class TestUnitIdeal:
    def test_spec_examples(self):
        assert is_unit_ideal([zp("Z^2 - 1"), zp("2*Z")]) is True
        assert is_unit_ideal([zp("Z^2"), zp("2*Z")]) is False
        gens = [
            parse_poly("Z^2 - 1", YZCTX),
            parse_poly("Y^2 + Z", YZCTX),
            parse_poly("2*Y", YZCTX),
        ]
        assert is_unit_ideal(gens) is True

    def test_zero_gens(self):
        assert is_unit_ideal([ZCTX.zero()]) is False

    def test_agrees_with_univariate_gcd(self):
        # oracle: in Q[Z] the ideal is a unit iff the gcd of the generators
        # is a nonzero constant; computed by an independent Euclid loop
        def poly_mod(a, b):
            while not a.is_zero() and a.deg_in("Z") >= b.deg_in("Z"):
                shift = a.deg_in("Z") - b.deg_in("Z")
                lc_a = a.coefficient_of("Z", a.deg_in("Z")).constant_value()
                lc_b = b.coefficient_of("Z", b.deg_in("Z")).constant_value()
                a = a - ZCTX.monomial({"Z": shift}, lc_a / lc_b) * b
            return a

        def euclid_gcd(polys):
            g = ZCTX.zero()
            for p in polys:
                while not p.is_zero():
                    g, p = p, (poly_mod(g, p) if not g.is_zero() else ZCTX.zero())
            return g

        rng = random.Random(31)
        for _ in range(60):
            polys = [random_polynomial(rng, ZCTX, max_terms=3, max_exp=4) for _ in range(2)]
            polys = [p for p in polys if not p.is_zero()]
            if not polys:
                continue
            g = euclid_gcd(polys)
            expected = (not g.is_zero()) and g.deg_in("Z") == 0
            assert is_unit_ideal(polys) == expected


class TestElimination:
    def test_fiber_example(self):
        ctx = Context(("X", "Y", "T", "Z"))
        gens = [
            parse_poly("X", ctx),
            parse_poly("X*Y - (Z^2 - 1)", ctx),
            parse_poly("X^2*T - (Y^2 + Z)", ctx),
        ]
        out = elimination_ideal(gens, {"Z"})
        assert [str(p) for p in out] == ["Z^2 - 1"]

    def test_no_keep_variables_involved(self):
        ctx = Context(("X", "Z"))
        assert elimination_ideal([ctx.var("X")], {"Z"}) == []

    def test_already_in_subring(self):
        ctx = Context(("X", "Z"))
        out = elimination_ideal([parse_poly("Z - 1", ctx)], {"Z"})
        assert [str(p) for p in out] == ["Z - 1"]

    def test_output_only_keep_vars(self):
        rng = random.Random(11)
        ctx = Context(("X", "Y", "Z"))
        for _ in range(25):
            gens = [random_polynomial(rng, ctx, max_terms=3, max_exp=2) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            out = elimination_ideal(gens, {"Z"})
            for p in out:
                assert p.support_vars() <= {"Z"}


class TestPostCheck:
    def test_s_polynomials_reduce_to_zero_200_random(self):
        # buchberger asserts this internally after every run; re-verify here
        # explicitly against the returned basis
        rng = random.Random(314)
        ctx = Context(("X", "Y", "Z"))
        ran = 0
        while ran < 200:
            k = rng.randint(1, 3)
            gens = [random_polynomial(rng, ctx, max_terms=3, max_exp=4) for _ in range(k)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            try:
                gb = buchberger(gens, budget=200_000)
            except BudgetExceeded:
                continue
            if not gb.polys:
                continue
            order = gb.order
            for i in range(len(gb.polys)):
                for j in range(i + 1, len(gb.polys)):
                    gi, gj = gb.polys[i], gb.polys[j]
                    li = max(gi.terms, key=order.key)
                    lj = max(gj.terms, key=order.key)
                    lcm = tuple(max(a, b) for a, b in zip(li, lj))
                    qi = Polynomial(ctx, {tuple(a - b for a, b in zip(lcm, li)): Fraction(1) / gi.terms[li]})
                    qj = Polynomial(ctx, {tuple(a - b for a, b in zip(lcm, lj)): Fraction(1) / gj.terms[lj]})
                    s = qi * gi - qj * gj
                    assert gb.remainder(s).is_zero()
            ran += 1

    # the post-check on a basis that is not sound: each check fires on its own
    def _gens(self):
        return [parse_poly("X^2 - Y", XYCTX), parse_poly("X*Y - 1", XYCTX)]

    def _assert_unsound(self, gb, message):
        with pytest.raises(AssertionError) as info:
            _assert_basis_sound(gb, _Budget(DEFAULT_BUDGET))
        assert str(info.value) == message

    def test_real_basis_is_sound(self):
        _assert_basis_sound(buchberger(self._gens()), _Budget(DEFAULT_BUDGET))

    def test_s_polynomial_not_reducing_to_zero(self):
        # the generators themselves, which are not a Groebner basis: the
        # S-polynomial of their leads X^2 and X*Y is X - Y^2
        gens = tuple(self._gens())
        one, zero = XYCTX.one(), XYCTX.zero()
        gb = GroebnerBasis(XYCTX, MonomialOrder(), gens, gens, ((one, zero), (zero, one)))
        self._assert_unsound(gb, "S-polynomial of returned basis does not reduce to zero")

    def test_cofactor_row_plus_one(self):
        gb = buchberger(self._gens())
        rows = list(gb.cofactors)
        rows[0] = (rows[0][0] + XYCTX.one(), *rows[0][1:])
        self._assert_unsound(dataclasses.replace(gb, cofactors=tuple(rows)),
                             "cofactor row does not reproduce basis element")
