import random
from fractions import Fraction

import pytest

from ddlab.derivations import Derivation, DerivationError, ExponentialMap
from ddlab.elements import AlgebraContext
from ddlab.isomorphisms import (
    HomomorphismError,
    IsoData,
    RHomomorphism,
    TransportError,
    distinguish_by_invariants,
    transport_presentation,
    verify_hom,
    verify_iso_pair,
)
from ddlab.presentations import DDPresentation, invariant_tuple


def iso_data(ctx, lam=1, mu=1, beta=1, g2=1, delta1="0", alpha1="0", g1="0"):
    from ddlab.poly import parse_poly

    return IsoData(
        Fraction(lam),
        Fraction(mu),
        Fraction(beta),
        Fraction(g2),
        parse_poly(delta1, ctx),
        parse_poly(alpha1, ctx),
        parse_poly(g1, ctx),
    )


@pytest.fixture(scope="module")
def dd1p():
    return DDPresentation.make([], 1, 2, "Z^2 - 1 + X", "(Y - 1)^2 + Z")


class TestVerifyHom:
    def test_identity(self, dd1, dd1_ctx):
        images = {n: dd1_ctx.gen(n) for n in dd1_ctx.generator_names()}
        h = RHomomorphism(dd1_ctx, dd1_ctx, images)
        assert verify_hom(h)

    def test_explicit_shift_pair(self, dd1, dd1_ctx, dd1p):
        actx_p = AlgebraContext(dd1p)
        h = RHomomorphism(
            actx_p,
            dd1_ctx,
            {
                "X": dd1_ctx.gen("X"),
                "Z": dd1_ctx.gen("Z"),
                "Y": dd1_ctx.element("Y + 1"),
                "T": dd1_ctx.gen("T"),
            },
        )
        assert verify_hom(h)

    def test_x_to_zero_fails(self, dd1_ctx, dd1p):
        actx_p = AlgebraContext(dd1p)
        h = RHomomorphism(
            actx_p,
            dd1_ctx,
            {
                "X": dd1_ctx.zero(),
                "Z": dd1_ctx.gen("Z"),
                "Y": dd1_ctx.gen("Y"),
                "T": dd1_ctx.gen("T"),
            },
        )
        assert not verify_hom(h)


def _sigma(actx):
    """X -> -X, Y -> -Y, Z -> Z, T -> T: an automorphism of dd1 other than the identity."""
    return RHomomorphism(actx, actx, {"X": actx.element("-X"), "Y": actx.element("-Y"),
                                      "Z": actx.gen("Z"), "T": actx.gen("T")})


# each class of generator-image table: how it is built from a table of
# elements, its error, and its message for a missing name, an extra name, and
# an image that is not an element of the algebra (the last two cases)
_TABLES = {
    "RHomomorphism": (
        lambda actx, table: RHomomorphism(actx, actx, table), HomomorphismError,
        ("missing images for generators ['T']", "images for names that are not generators: ['W1']",
         "image of Y is not a target element")),
    "Derivation": (
        Derivation, DerivationError,
        ("missing images for generators ['T']", "images for names that are not generators: ['W1']",
         "image of Y is not a target element")),
    "ExponentialMap": (
        lambda actx, table: ExponentialMap(actx, {n: [el] for n, el in table.items()}), DerivationError,
        ("missing exponential-map coefficients for ['T']",
         "exponential-map coefficients for names that are not generators: ['W1']",
         "coefficient of Y is not an element of the algebra")),
}


class TestImageTables:
    @pytest.mark.parametrize("kind", list(_TABLES))
    @pytest.mark.parametrize("case", ["missing", "extra", "non-element", "other-algebra"])
    def test_construction_errors(self, dd1_ctx, kind, case):
        build, error, (missing, extra, not_element) = _TABLES[kind]
        table = {n: dd1_ctx.gen(n) for n in dd1_ctx.generator_names()}
        build(dd1_ctx, table)  # the whole table is accepted
        if case == "missing":
            del table["T"]
            message = missing
        elif case == "extra":
            table["W1"] = dd1_ctx.gen("X")
            message = extra
        else:
            y = dd1_ctx.gen("Y")
            table["Y"] = y.gen if case == "non-element" else dd1_ctx.extend("U").gen("Y")
            message = not_element
        with pytest.raises(error) as excinfo:
            build(dd1_ctx, table)
        assert str(excinfo.value) == message


class TestIsoPair:
    def test_images_of_non_generators_rejected(self, dd1_ctx):
        images = {n: dd1_ctx.gen(n) for n in dd1_ctx.generator_names()}
        with pytest.raises(HomomorphismError, match=r"not generators: \['W1'\]"):
            RHomomorphism(dd1_ctx, dd1_ctx, {**images, "W1": dd1_ctx.gen("X")})

    def test_composite_mismatch_fails_only_the_pair(self, dd1_ctx):
        identity = RHomomorphism(dd1_ctx, dd1_ctx, {n: dd1_ctx.gen(n) for n in dd1_ctx.generator_names()})
        report = verify_iso_pair(_sigma(dd1_ctx), identity)
        assert [c.name for c in report.failed_items()] == ["mutually inverse pair"]
        assert [c.name for c in report.items] == [
            "forward homomorphism", "backward homomorphism", "mutually inverse pair"]

    def test_involution_is_its_own_inverse(self, dd1_ctx):
        assert verify_iso_pair(_sigma(dd1_ctx), _sigma(dd1_ctx)).passed

    def test_identity_pair(self, dd1_ctx):
        images = {n: dd1_ctx.gen(n) for n in dd1_ctx.generator_names()}
        h = RHomomorphism(dd1_ctx, dd1_ctx, images)
        hinv = RHomomorphism(dd1_ctx, dd1_ctx, dict(images))
        assert verify_iso_pair(h, hinv).passed

    def test_shift_pair(self, dd1_ctx, dd1p):
        actx_p = AlgebraContext(dd1p)
        h = RHomomorphism(
            actx_p, dd1_ctx,
            {"X": dd1_ctx.gen("X"), "Z": dd1_ctx.gen("Z"),
             "Y": dd1_ctx.element("Y + 1"), "T": dd1_ctx.gen("T")},
        )
        hinv = RHomomorphism(
            dd1_ctx, actx_p,
            {"X": actx_p.gen("X"), "Z": actx_p.gen("Z"),
             "Y": actx_p.element("Y - 1"), "T": actx_p.gen("T")},
        )
        assert verify_iso_pair(h, hinv).passed

    def test_mismatched_pair(self, dd1_ctx, dd1p):
        actx_p = AlgebraContext(dd1p)
        h = RHomomorphism(
            actx_p, dd1_ctx,
            {"X": dd1_ctx.gen("X"), "Z": dd1_ctx.gen("Z"),
             "Y": dd1_ctx.element("Y + 1"), "T": dd1_ctx.gen("T")},
        )
        bad = RHomomorphism(
            dd1_ctx, actx_p,
            {"X": actx_p.gen("X"), "Z": actx_p.gen("Z"),
             "Y": actx_p.element("Y"), "T": actx_p.gen("T")},
        )
        assert not verify_iso_pair(h, bad).passed


class TestTransport:
    def test_alpha_shift_example(self, dd1):
        res = transport_presentation(dd1, iso_data(dd1.P.ctx, alpha1="1"))
        assert str(res.target.P) == "Z^2 + X - 1"
        assert str(res.target.Q) == "Y^2 - 2*Y + Z + 1"
        assert res.forward.to_json() == {"X": "X", "Y": "Y - 1", "Z": "Z", "T": "T"}

    def test_identity_data(self, dd1):
        res = transport_presentation(dd1, iso_data(dd1.P.ctx))
        assert res.target == dd1
        assert res.forward.to_json() == {"X": "X", "Y": "Y", "Z": "Z", "T": "T"}

    def test_lambda_two(self, dd1):
        res = transport_presentation(dd1, iso_data(dd1.P.ctx, lam=2))
        assert str(res.target.P) == "2*Z^2 - 2"

    def test_r_one_rejected(self):
        p = DDPresentation.make([], 1, 2, "Z", "Y^2 + Z")
        with pytest.raises(TransportError, match="r"):
            transport_presentation(p, iso_data(p.P.ctx))

    def test_transport_fuzz_50(self, dd1, dd3):
        rng = random.Random(1234)
        for src in (dd1, dd3):
            ctx = src.P.ctx
            for _ in range(25):
                s = src.s
                # g1' must keep the Y-degree of the target below s
                g1_deg = rng.randint(0, s - 1)
                data = IsoData(
                    Fraction(rng.choice([1, 2, -1, 3, -2])),
                    Fraction(rng.choice([1, -1, 2])),
                    Fraction(rng.choice([1, -1, 3])),
                    Fraction(rng.choice([1, 2, -3])),
                    ctx.monomial({"X": rng.randint(0, 2)}, rng.randint(-2, 2)),
                    ctx.monomial({"X": rng.randint(0, 1), "Z": rng.randint(0, 2)},
                                 rng.randint(-2, 2)),
                    ctx.monomial({"X": rng.randint(0, 1), "Y": g1_deg,
                                  "Z": rng.randint(0, 1)}, rng.randint(-2, 2)),
                )
                res = transport_presentation(src, data)
                assert verify_iso_pair(res.forward, res.backward).passed
                assert invariant_tuple(res.target) == invariant_tuple(src)


class TestDistinguish:
    def test_different_e(self, dd1):
        dd2 = DDPresentation.make([], 1, 1, "Z^2 - 1", "Y^2 + Z")
        cert = distinguish_by_invariants(dd1, dd2)
        assert cert.not_isomorphic
        assert cert.tuple1.as_tuple() == (1, 2, 2, 2)
        assert cert.tuple2.as_tuple() == (1, 1, 2, 2)

    def test_equal_tuples_inconclusive(self, dd1, dd1p):
        cert = distinguish_by_invariants(dd1, dd1p)
        assert cert.verdict == "inconclusive"
        assert not cert.not_isomorphic

    def test_r_one_guard(self):
        p1 = DDPresentation.make([], 1, 1, "Z", "Y^2 + Z")
        p2 = DDPresentation.make([], 1, 1, "Z^2 - 1", "Y^2 + Z")
        cert = distinguish_by_invariants(p1, p2)
        assert cert.verdict == "inconclusive"

    def test_never_contradicts_known_iso(self, dd1, dd1p):
        # an explicit verified pair exists between dd1 and dd1p, so the
        # invariant route must not claim non-isomorphism
        actx1, actxp = AlgebraContext(dd1), AlgebraContext(dd1p)
        h = RHomomorphism(
            actxp, actx1,
            {"X": actx1.gen("X"), "Z": actx1.gen("Z"),
             "Y": actx1.element("Y + 1"), "T": actx1.gen("T")},
        )
        hinv = RHomomorphism(
            actx1, actxp,
            {"X": actxp.gen("X"), "Z": actxp.gen("Z"),
             "Y": actxp.element("Y - 1"), "T": actxp.gen("T")},
        )
        assert verify_iso_pair(h, hinv).passed
        assert not distinguish_by_invariants(dd1, dd1p).not_isomorphic
