import random

from ddlab.derivations import (
    CAP_EXCEEDED,
    Derivation,
    ExponentialMap,
    NEG_INFINITY,
    canonical_lnd,
    check_derivation_well_defined,
    check_exp_axioms,
    deg_delta,
    exp_map,
    ml_report,
    nilpotency_index,
)
from ddlab.elements import AlgebraContext
from ddlab.laurent import LaurentForm, eval_poly_at_laurent
from ddlab.presentations import DDPresentation

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
        assert nilpotency_index(d, dd1_ctx.gen("Z"), cap=8) is CAP_EXCEEDED

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


class TestDegreeFunction:
    def test_examples(self, dd1_ctx):
        phi = exp_map(canonical_lnd(dd1_ctx))
        assert deg_delta(phi, dd1_ctx.gen("Z")) == 1
        assert deg_delta(phi, dd1_ctx.gen("X")) == 0
        assert deg_delta(phi, dd1_ctx.zero()) == NEG_INFINITY
        assert deg_delta(phi, dd1_ctx.gen("Y")) == 2
        assert deg_delta(phi, dd1_ctx.gen("T")) == 4


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
