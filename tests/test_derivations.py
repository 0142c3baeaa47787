import math
import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddlab import laurent
from ddlab.derivations import (
    Derivation,
    ExponentialMap,
    canonical_lnd,
    check_derivation_well_defined,
    check_exp_axioms,
    exp_map,
    ml_report,
    nilpotency_index,
)
from ddlab.elements import AlgebraContext
from ddlab.laurent import LaurentForm, eval_in_powers, eval_poly_at_laurent
from ddlab.poly import Context, Polynomial, parse_poly
from ddlab.presentations import DDPresentation, validate_presentation

from conftest import random_valid_presentation


class TestCanonicalDerivation:
    def test_dd1_images(self, dd1_ctx):
        d = canonical_lnd(dd1_ctx)
        assert d.to_json() == {"X": "0", "Y": "2*X^2*Z", "Z": "X^3", "T": "4*Y*Z + X"}

    def test_dd3_images(self, dd3_ctx):
        d = canonical_lnd(dd3_ctx)
        # d+e = 3; dP/dZ = 3*Z^2; dQ/dY*dP/dZ + dQ/dZ*x^d = 6*Y*Z^2 + X^3
        assert d.to_json() == {"X": "0", "Y": "3*X*Z^2", "Z": "X^3", "T": "X^3 + 6*Y*Z^2"}

    def test_x_always_killed(self, dd1_ctx, dd3_ctx):
        for actx in (dd1_ctx, dd3_ctx):
            assert canonical_lnd(actx).images["X"].is_zero()

    def test_adjoined_variables_map_to_minus_x(self, dd1):
        actx = AlgebraContext(dd1, ("W1",))
        d = canonical_lnd(actx)
        assert str(d.images["W1"]) == "-X"


class TestWellDefined:
    def test_canonical_is_well_defined(self, dd1_ctx):
        assert check_derivation_well_defined(canonical_lnd(dd1_ctx))

    def test_broken_t_image(self, dd1_ctx):
        d = canonical_lnd(dd1_ctx)
        images = dict(d.images)
        images["T"] = dd1_ctx.zero()
        assert not check_derivation_well_defined(Derivation(dd1_ctx, images))

    def test_zero_derivation(self, dd1_ctx):
        images = {n: dd1_ctx.zero() for n in dd1_ctx.generator_names()}
        assert check_derivation_well_defined(Derivation(dd1_ctx, images))

    def test_grid_always_well_defined(self):
        rng = random.Random(60)
        for d_exp in (1, 2, 3):
            for e_exp in (1, 2, 3):
                for _ in range(4):
                    pres = random_valid_presentation(rng, d_exp, e_exp, constant_lead_p=False)
                    actx = AlgebraContext(pres)
                    assert check_derivation_well_defined(canonical_lnd(actx))


class TestNilpotency:
    def test_dd1_indices(self, dd1_ctx):
        d = canonical_lnd(dd1_ctx)
        assert nilpotency_index(d, dd1_ctx.gen("Z")) == 1
        assert nilpotency_index(d, dd1_ctx.gen("Y")) == 2
        assert nilpotency_index(d, dd1_ctx.gen("T")) == 4
        assert nilpotency_index(d, dd1_ctx.gen("X")) == 0

    def test_zero_element(self, dd1_ctx):
        d = canonical_lnd(dd1_ctx)
        assert nilpotency_index(d, dd1_ctx.zero()) == 0

    def test_cap_exceeded_value(self, dd1_ctx):
        images = {n: dd1_ctx.zero() for n in dd1_ctx.generator_names()}
        images["Z"] = dd1_ctx.gen("Z")  # not locally nilpotent on z
        d = Derivation(dd1_ctx, images)
        assert nilpotency_index(d, dd1_ctx.gen("Z"), cap=8) is None

    def test_z_index_always_one(self):
        rng = random.Random(61)
        for d_exp in (1, 2, 3):
            for e_exp in (1, 2, 3):
                pres = random_valid_presentation(rng, d_exp, e_exp)
                actx = AlgebraContext(pres)
                der = canonical_lnd(actx)
                assert nilpotency_index(der, actx.gen("Z")) == 1

    def test_y_index_is_z_degree_of_p(self):
        rng = random.Random(62)
        for _ in range(12):
            pres = random_valid_presentation(rng, rng.randint(1, 3), rng.randint(1, 3))
            actx = AlgebraContext(pres)
            der = canonical_lnd(actx)
            assert nilpotency_index(der, actx.gen("Y")) == pres.P.deg_in("Z")


class TestExponentialMap:
    def test_dd1_coefficients(self, dd1_ctx):
        phi = exp_map(canonical_lnd(dd1_ctx))
        assert [str(c) for c in phi.coeffs["Z"]] == ["Z", "X^3"]
        assert [str(c) for c in phi.coeffs["Y"]] == ["Y", "2*X^2*Z", "X^5"]
        assert [str(c) for c in phi.coeffs["X"]] == ["X"]

    def test_images_are_elements_of_the_u_ring(self, dd1, dd3):
        # every image is an element of B[w..][U]: its generator expression
        # reproduces its Laurent form there, and that form is sum_i c_i*U^i;
        # with base variables U sits between the adjoined and the base
        # variables, so a U exponent in the wrong slot fails the sum
        with_base = DDPresentation.make(["a", "b"], 2, 1, "Z^2 + a*X*Z - b", "Y^2 + a*Y + b*Z + X")
        for pres, adjoined in ((dd1, ()), (dd3, ()), (dd1, ("W1",)), (with_base, ("W1",))):
            phi = exp_map(canonical_lnd(AlgebraContext(pres, adjoined)))
            assert phi.target == AlgebraContext(pres, adjoined + ("U",))
            cctx = phi.target.coeff_ctx
            u = LaurentForm.from_poly(cctx.var("U"))
            for name, el in phi.images.items():
                assert phi.target.to_laurent(el.gen) == el.laurent, (pres, name)
                expected = LaurentForm.zero(cctx)
                for c in reversed(phi.coeffs[name]):
                    expected = expected * u + c.laurent.transfer(cctx)
                assert el.laurent == expected, (pres, name)

    def test_axioms_on_canonical(self, dd1_ctx, dd3_ctx):
        for actx in (dd1_ctx, dd3_ctx):
            report = check_exp_axioms(exp_map(canonical_lnd(actx)))
            assert report.passed

    def test_trivial_map_passes(self, dd1_ctx):
        co = {n: [dd1_ctx.gen(n)] for n in dd1_ctx.generator_names()}
        assert check_exp_axioms(ExponentialMap(dd1_ctx, co)).passed

    def test_hand_built_fails_composition(self, dd1_ctx):
        co = {n: [dd1_ctx.gen(n)] for n in dd1_ctx.generator_names()}
        co["Z"] = [dd1_ctx.gen("Z"), dd1_ctx.const(1), dd1_ctx.const(1)]
        report = check_exp_axioms(ExponentialMap(dd1_ctx, co))
        assert not report.passed
        names = [c.name for c in report.failed_items()]
        assert any("delta_(U+V)" in n for n in names)

    def test_every_single_coefficient_corruption_fails(self, dd1_ctx, dd3_ctx):
        for actx in (dd1_ctx, dd3_ctx):
            coeffs = exp_map(canonical_lnd(actx)).coeffs
            corrupted = []
            for name, lst in coeffs.items():
                for i, c in enumerate(lst):
                    for bad in (c + actx.const(1), c.scale(2)):
                        corrupted.append((name, lst[:i] + [bad] + lst[i + 1:]))
                if len(lst) > 1:
                    corrupted.append((name, lst[:-1]))
            assert len(corrupted) > 20
            for name, lst in corrupted:
                phi = ExponentialMap(actx, {**coeffs, name: lst})
                assert not check_exp_axioms(phi).passed, (actx, name, [str(c) for c in lst])

    def test_map_at_u_squared_fails_only_the_cocycle(self, dd1_ctx, dd3_ctx):
        # exp(D) evaluated at U^2 is a ring map that is the identity at U = 0,
        # but delta_V(delta_U(g)) has V^2 + U^2 where (U + V)^2 is needed
        for actx in (dd1_ctx, dd3_ctx):
            zero = actx.zero()
            coeffs = {name: [c for a in lst for c in (a, zero)]
                      for name, lst in exp_map(canonical_lnd(actx)).coeffs.items()}
            report = check_exp_axioms(ExponentialMap(actx, coeffs))
            assert [c.passed for c in report.items] == [True, True, False]
            assert report.items[2].detail == "composition mismatch on generator Y"

    def test_shift_identity_behind_the_stable_iso(self):
        # exp of the canonical derivation applied to y equals the shifted P
        # divided by x^d, as Laurent forms
        rng = random.Random(63)
        for d_exp in (1, 2, 3):
            for e_exp in (1, 2, 3):
                pres = random_valid_presentation(rng, d_exp, e_exp)
                actx = AlgebraContext(pres)
                phi = exp_map(canonical_lnd(actx))
                ext = phi.target.coeff_ctx
                image_y = phi.apply(actx.gen("Y"))
                n = pres.d + pres.e
                shifted_z = LaurentForm.from_poly(ext.var("Z")) + LaurentForm.from_poly(
                    ext.var("U")
                ).shift(n)
                route = eval_poly_at_laurent(
                    pres.P.transfer(actx.gen_ctx),
                    {"X": LaurentForm.x_power(ext, 1), "Z": shifted_z},
                    ext,
                ).shift(-pres.d)
                assert image_y == route


def _presentations_with_extras(rng: random.Random, count: int):
    """Algebra contexts on random valid presentations: every other one over
    Q[a, b], with a and b in P and Q, and every other pair with W1 adjoined."""
    for k in range(count):
        pres = random_valid_presentation(rng, 1 + k % 3, 1 + k // 3 % 3)
        if k % 2:
            pres = DDPresentation.make(["a", "b"], pres.d, pres.e, f"{pres.P} + a*X*Z", f"{pres.Q} + b*X + a*Z")
        yield AlgebraContext(pres, ("W1",) if k % 4 >= 2 else ())


class TestBuiltFromCoefficients:
    """exp(D), delta_V and delta_(U+V) are built from the coefficients' Laurent
    forms; the evaluation of the U-expressions is the oracle."""

    def test_sum_of_powers_equals_the_evaluation(self):
        rng = random.Random(24)
        for actx in _presentations_with_extras(rng, 30):
            phi = exp_map(canonical_lnd(actx))
            uv_ctx = phi.target.coeff_ctx.extend("V")
            u, v = uv_ctx.var("U"), uv_ctx.var("V")
            gens = {n: f.transfer(uv_ctx) for n, f in actx.generator_images().items()}
            # U, V, U + V, and two images with a denominator, one a monomial
            images = [LaurentForm.from_poly(u), LaurentForm.from_poly(v), LaurentForm.from_poly(u + v),
                      LaurentForm.from_poly(v.scale(Fraction(3, 2)), 1),
                      LaurentForm.from_poly(u * v.scale(Fraction(2, 3)) - v, -1)]
            for image in images:
                for name, el in phi.images.items():
                    forms = [c.laurent for c in phi.coeffs[name]]
                    expected = eval_poly_at_laurent(el.gen, {**gens, "U": image}, uv_ctx)
                    assert eval_in_powers(forms, image, uv_ctx) == expected, (actx, name, str(image))

    def test_evaluation_count(self, monkeypatch):
        # building the map evaluates nothing; the axiom check evaluates each
        # U-expression once, at the delta_V images, and the two relations
        calls = []
        evaluate = laurent._evaluate
        monkeypatch.setattr(laurent, "_evaluate", lambda *args: calls.append(args) or evaluate(*args))
        rng = random.Random(7)
        for actx in _presentations_with_extras(rng, 8):
            coeffs = exp_map(canonical_lnd(actx)).coeffs
            calls.clear()
            phi = ExponentialMap(actx, coeffs)
            assert calls == []
            assert check_exp_axioms(phi).passed
            assert len(calls) == len(actx.generator_names()) + 2


def _leibniz_counter(monkeypatch) -> list:
    """Counts the partial derivatives taken, one per generator in each
    Leibniz expansion, and the elements built from an expression."""
    calls = []
    partial = Polynomial.partial
    element = AlgebraContext.element
    monkeypatch.setattr(Polynomial, "partial", lambda self, name: calls.append(name) or partial(self, name))
    monkeypatch.setattr(AlgebraContext, "element", lambda self, expr: calls.append(expr) or element(self, expr))
    return calls


def _iterates_apart(d: Derivation, a):
    """a, D(a), ... up to the last nonzero iterate, each step on a new
    derivation with d's images, so that no step reads a kept result."""
    chain = [a]
    while True:
        nxt = Derivation(d.actx, d.images).apply(chain[-1])
        if nxt.is_zero():
            return chain
        chain.append(nxt)


def _assert_shared_equals_fresh(actx: AlgebraContext) -> None:
    """Indices and exp(D) coefficients from one derivation, applied again and
    again, equal those from a new canonical derivation per call, and the
    coefficients are the iterates D^i(g) divided by i!."""
    names = actx.generator_names()
    shared = canonical_lnd(actx)
    indices = {g: nilpotency_index(shared, actx.gen(g)) for g in names}
    maps = [exp_map(shared), exp_map(shared)]
    assert indices == {g: nilpotency_index(canonical_lnd(actx), actx.gen(g)) for g in names}
    fresh = exp_map(canonical_lnd(actx))
    for phi in maps:
        assert phi.to_json() == fresh.to_json()
        for g in names:
            assert [c.laurent for c in phi.coeffs[g]] == [c.laurent for c in fresh.coeffs[g]], (actx, g)
    for g in names:
        chain = _iterates_apart(shared, actx.gen(g))
        assert len(chain) - 1 == indices[g]
        assert [c.scale(math.factorial(i)) for i, c in enumerate(maps[1].coeffs[g])] == chain, (actx, g)


@st.composite
def _valid_presentations(draw):
    """Valid presentations with (d, e) in {1,2,3}^2, deg_Z P up to 4, deg_Y Q
    up to 3 and up to two lower terms in each, X^a*Z^b in P and X^a*Y^b*Z^c
    in Q."""
    d, e, r, s = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    coeff = st.sampled_from(["1", "-1", "2", "-3", "1/2"])
    p = [f"Z^{r}"] + [f"{draw(coeff)}*X^{draw(st.integers(0, 2))}*Z^{draw(st.integers(0, r - 1))}"
                      for _ in range(draw(st.integers(0, 2)))]
    q = [f"{draw(st.sampled_from(['1', '2', '-1']))}*Y^{s}"] + [
        f"{draw(coeff)}*X^{draw(st.integers(0, 2))}*Y^{draw(st.integers(0, s - 1))}*Z^{draw(st.integers(0, 2))}"
        for _ in range(draw(st.integers(0, 2)))]
    pres = DDPresentation.make([], d, e, " + ".join(p), " + ".join(q))
    assume(validate_presentation(pres).passed)
    return AlgebraContext(pres, ("W1",) if draw(st.booleans()) else ())


class TestAppliedMap:
    """A derivation computes each D(expr) once: the chains that
    nilpotency_index builds are the ones exp_map reads."""

    def test_exp_map_after_the_indices_forms_no_leibniz_expansion(self, monkeypatch, dd1, dd3):
        calls = _leibniz_counter(monkeypatch)
        rng = random.Random(27)
        contexts = [AlgebraContext(dd1), AlgebraContext(dd1, ("W1",)), AlgebraContext(dd3),
                    *_presentations_with_extras(rng, 8)]
        for actx in contexts:
            d = canonical_lnd(actx)
            calls.clear()
            # each chain starts from an expression parsed apart from
            # actx.gen's, so only a map keyed by value finds it again
            indices = {g: nilpotency_index(d, actx.element(g)) for g in actx.generator_names()}
            assert calls, actx  # the counter sees the expansions
            calls.clear()
            phi = exp_map(d)
            assert calls == [], actx
            assert {g: len(lst) - 1 for g, lst in phi.coeffs.items()} == indices
            assert check_exp_axioms(phi).passed, actx  # the kept chains, divided by i!

    def test_shared_derivation_equals_fresh_ones(self, dd1, dd3):
        for actx in (AlgebraContext(dd1), AlgebraContext(dd1, ("W1",)), AlgebraContext(dd3, ("W1",))):
            _assert_shared_equals_fresh(actx)

    @settings(max_examples=25, deadline=None)
    @given(_valid_presentations())
    def test_shared_derivation_equals_fresh_ones_on_drawn_presentations(self, actx):
        _assert_shared_equals_fresh(actx)

    def test_keyed_by_value(self, monkeypatch, dd1_ctx):
        d = canonical_lnd(dd1_ctx)
        ctx = dd1_ctx.gen_ctx
        x, y, z = ctx.var("X"), ctx.var("Y"), ctx.var("Z")
        first = d.apply_expr(parse_poly("Z^2 + X*Y*T - 3*Y", ctx))
        calls = _leibniz_counter(monkeypatch)
        again = [d.apply_expr(z * z - y.scale(3) + x * y * ctx.var("T")),
                 d.apply_expr(parse_poly("X*Y*T + Z^2 - 3*Y", Context(("T", "Z", "Y", "X"))))]
        assert calls == []
        assert all(el is first for el in again)
        # dd1: D(Z) = X^3, D(Y) = 2*X^2*Z, D(T) = 4*Y*Z + X
        assert str(first) == "2*X^3*Z*T + 2*X^3*Z + 4*X*Y^2*Z + X^2*Y - 6*X^2*Z"
        # an expression of another value is expanded, and the first is kept
        other = d.apply_expr(z * z)
        assert calls and other != first
        assert d.apply_expr(parse_poly("Z^2 + X*Y*T - 3*Y", ctx)) is first


class TestMLReport:
    def test_dd1_conclusion(self, dd1):
        report = ml_report(dd1)
        assert report.conclusion is not None
        assert "R[x]" in report.conclusion
        assert any("D(x) = 0" in f for f in report.direct_facts)

    def test_invalid_presentation_no_conclusion(self):
        bad = DDPresentation.make([], 1, 1, "X", "Y^2 + Z")
        report = ml_report(bad)
        assert report.conclusion is None
        assert not report.checklist.passed

    def test_dd3_conclusion(self, dd3):
        assert ml_report(dd3).conclusion is not None
