import json
from fractions import Fraction

import pytest

from ddlab.cancellation import cancellation_certificate
from ddlab.poly import Context, Polynomial, parse_poly
from ddlab.presentations import (
    COND_NONE,
    COND_R1_S2_E2,
    COND_R2_S1,
    COND_R2_S2,
    DDPresentation,
    InvalidPresentation,
    cond_class,
    invariant_tuple,
    load_presentation,
    omega3_check,
    reduce_to_danielewski,
    validate_presentation,
)


def make(base, d, e, p, q):
    return DDPresentation.make(base, d, e, p, q)


class TestValidation:
    def test_valid_example(self, dd1):
        report = validate_presentation(dd1)
        assert report.passed
        assert report.facts["r"] == 2
        assert report.facts["s"] == 2

    def test_constant_p_at_zero_fails(self):
        report = validate_presentation(make([], 1, 1, "X", "Y^2 + Z"))
        assert not report.passed
        assert any("deg_Z P(0,Z)" in c.name for c in report.failed_items())

    def test_monicity_violation_fails(self):
        report = validate_presentation(make([], 1, 1, "Z", "Z*Y + 1"))
        assert not report.passed
        assert any("monic" in c.name for c in report.failed_items())

    def test_bad_exponents(self):
        assert not validate_presentation(make([], 0, 1, "Z", "Y")).passed

    @pytest.mark.parametrize("d, e, name", [(2.0, 2, "d >= 1"), (2, 2.5, "e >= 1"), (True, 2, "d >= 1")])
    def test_exponents_must_be_integers(self, d, e, name):
        p = make([], d, e, "Z^2 - 1", "Y^2 + Z")
        assert [c.name for c in validate_presentation(p).failed_items()] == [name]
        cert = cancellation_certificate(p)
        assert cert.verdict == f"failed at unit-ideal conditions: presentation valid ({name})"

    def test_p_must_avoid_y_and_t(self):
        report = validate_presentation(make([], 1, 1, "Z + Y", "Y"))
        assert any(c.name == "P in R[X,Z]" for c in report.failed_items())

    def test_base_variable_renaming_stable(self):
        a = make(["u1", "u2"], 1, 2, "Z^2 - u1", "Y^2 + u2*Z + Z")
        b = make(["a", "b"], 1, 2, "Z^2 - a", "Y^2 + b*Z + Z")
        ra, rb = validate_presentation(a), validate_presentation(b)
        assert ra.passed == rb.passed
        assert [c.passed for c in ra.items] == [c.passed for c in rb.items]

    def test_base_collides_with_reserved(self):
        with pytest.raises(InvalidPresentation):
            make(["X"], 1, 1, "Z", "Y")

    def test_monic_coefficient_may_be_base_element(self):
        # leading Y-coefficient in R \ {0} is allowed (monic over Frac(R))
        p = make(["u1"], 1, 1, "Z", "u1*Y + Z")
        assert validate_presentation(p).passed

    def test_require_valid_raises_with_reasons(self):
        with pytest.raises(InvalidPresentation, match="deg_Z"):
            make([], 1, 1, "X", "Y").require_valid()

    def test_q_without_y_fails(self):
        report = validate_presentation(make([], 1, 2, "Z^2 - 1", "Z"))
        failed = {c.name: c.detail for c in report.failed_items()}
        assert failed == {"deg_Y Q >= 1": "s = 0", "Q monic in Y over Frac(R)": "no Y term"}

    def test_report_is_not_a_bool(self):
        # a bare report would always be true, so a forgotten .passed must fail loudly
        report = validate_presentation(make([], 1, 1, "X", "Y"))
        with pytest.raises(TypeError, match=r"read its \.passed"):
            bool(report)
        with pytest.raises(TypeError):
            assert report


def test_relations_live_in_the_context_of_p_and_q():
    p = make(["a"], 1, 2, "Z^2 - a", "Y^2 + Z")
    rels = p.relations()
    assert [str(r) for r in rels] == ["X*Y - Z^2 + a", "X^2*T - Y^2 - Z"]
    assert all(r.ctx == p.P.ctx for r in rels)


class TestInvariants:
    def test_examples(self, dd1, dd3):
        assert invariant_tuple(dd1).as_tuple() == (1, 2, 2, 2)
        assert invariant_tuple(dd3).as_tuple() == (2, 1, 3, 2)
        assert invariant_tuple(make([], 1, 1, "Z", "Y + Z")).as_tuple() == (1, 1, 1, 1)

    def test_invalid_rejected(self):
        with pytest.raises(InvalidPresentation):
            invariant_tuple(make([], 1, 1, "X", "Y"))


class TestConditionClass:
    def test_branches(self, dd1):
        assert cond_class(dd1) == COND_R2_S2
        assert cond_class(make([], 1, 1, "Z^2", "Y + 1")) == COND_R2_S1
        assert cond_class(make([], 1, 1, "Z", "Y^2 + Z")) == COND_NONE
        assert cond_class(make([], 1, 2, "Z", "Y^2 + Z")) == COND_R1_S2_E2


class TestOmega3:
    def test_dd1_passes(self, dd1):
        assert omega3_check(dd1).passed

    def test_z_squared_fails_unit_ideal(self):
        report = omega3_check(make([], 1, 2, "Z^2", "Y^2 + Z"))
        assert not report.passed
        failed = [c.name for c in report.failed_items()]
        assert any("P'(0,Z)" in name for name in failed)

    @pytest.mark.parametrize("base, d, e, p, q", [
        ([], 1, 2, "Z^2 - 1", "Y^2 + Z"),
        ([], 2, 3, "Z^3 - 1", "Y^3 + X*Z + 1/2"),
        (["u"], 2, 2, "Z^2 - 1 + u*X", "Y^2 + Z + u*X*Y"),
    ])
    def test_unit_ideal_details_are_bezout_identities(self, base, d, e, p, q):
        # each detail reads "1 = (c_1)*(g_1) + ...", and the right side,
        # parsed back, is 1
        report = omega3_check(make(base, d, e, p, q))
        assert report.passed
        ctx = Context(("Y", "Z") + tuple(base))
        for item in report.items[-2:]:
            lhs, rhs = item.detail.split(" = ", 1)
            assert lhs == "1" and parse_poly(rhs, ctx) == ctx.one()

    def test_s_equal_one_fails(self):
        report = omega3_check(make([], 1, 2, "Z^2 - 1", "Y + Z"))
        assert not report.passed
        assert any("deg_Y Q > 1" == c.name for c in report.failed_items())

    def test_pass_implies_condition_class(self, dd1):
        # any presentation passing the family check lies in the r>=2, s>=2 branch
        assert omega3_check(dd1).passed
        assert cond_class(dd1) == COND_R2_S2

    def test_pass_implies_condition_class_fuzz(self):
        import random

        from conftest import random_valid_presentation

        rng = random.Random(2718)
        for _ in range(30):
            pres = random_valid_presentation(rng, rng.randint(1, 2), rng.randint(1, 3))
            if omega3_check(pres).passed:
                assert cond_class(pres) == COND_R2_S2


class TestDanielewskiReduction:
    def test_basic_example(self):
        red = reduce_to_danielewski(make([], 1, 1, "Z^2", "Y"))
        assert red.target.n == 2
        assert str(red.target.F) == "Z^2"
        assert str(red.forward_images["Y"]) == "X*T"
        assert str(red.forward_images["T"]) == "T"

    def test_higher_d(self):
        red = reduce_to_danielewski(make([], 2, 1, "Z^3", "Y"))
        assert red.target.n == 3
        assert str(red.target.F) == "Z^3"

    def test_unit_rescaling(self):
        red = reduce_to_danielewski(make([], 1, 1, "Z^2", "2*Y"))
        assert red.target.n == 2
        assert str(red.target.F) == "Z^2"
        # in target coordinates t = 2*t', so y = x*t/2 = x*t'
        assert str(red.forward_images["Y"]) == "X*T"
        assert str(red.forward_images["T"]) == "2*T"
        assert str(red.backward_images["T"]) == "1/2*T"

    def test_with_c_term(self):
        red = reduce_to_danielewski(make([], 1, 2, "Z^2 - 1", "Y + X*Z"))
        # F = X*(X*Z) + (Z^2 - 1)
        assert str(red.target.F) == "X^2*Z + Z^2 - 1"
        assert red.target.n == 3

    def test_s_not_one_rejected(self, dd1):
        with pytest.raises(InvalidPresentation, match="deg_Y"):
            reduce_to_danielewski(dd1)

    def test_nonunit_leading_coefficient_rejected(self):
        p = make(["u1"], 1, 1, "Z^2", "u1*Y")
        with pytest.raises(InvalidPresentation, match="unit"):
            reduce_to_danielewski(p)


class TestDanielewskiReductionChecks:
    """Each identity that `reduce_to_danielewski` checks fails on its own
    under one injected fault.  Q = 2*Y + X*Z has b = 2 and c = X*Z, so a
    wrong 1/b or c shows."""

    @pytest.fixture()
    def pres(self):
        p = make([], 1, 2, "Z^2 - 1", "2*Y + X*Z")
        p.require_valid()  # validation is cached before any fault is injected
        assert str(reduce_to_danielewski(p).target.F) == "1/2*X^2*Z + Z^2 - 1"
        return p

    @staticmethod
    def _assert_fails(p, message):
        with pytest.raises(AssertionError) as info:
            reduce_to_danielewski(p)
        assert str(info.value) == message

    def test_backward_identity(self, pres, monkeypatch):
        original = DDPresentation.relations

        def perturbed(self):
            rel1, rel2 = original(self)
            return rel1 + rel1.ctx.one(), rel2

        monkeypatch.setattr(DDPresentation, "relations", perturbed)
        self._assert_fails(pres, "backward relation identity failed")

    def test_second_relation(self, pres, monkeypatch):
        original = Polynomial.substitute
        monkeypatch.setattr(Polynomial, "substitute", lambda self, images: original(self, images) + self.ctx.one())
        self._assert_fails(pres, "second relation does not vanish under the generator map")

    @pytest.mark.parametrize("use", [0, 1], ids=["in-F", "in-y-image"])
    def test_first_relation(self, pres, monkeypatch, use):
        # c/b is formed twice, for F and for the image of y; one of them
        # uses 2/b in place of 1/b
        c = pres.Q.coefficient_of("Y", 0)
        original = Polynomial.scale
        uses = []

        def scale(self, q):
            if self == c:
                uses.append(q)
                if len(uses) - 1 == use:
                    q = 2 * q
            return original(self, q)

        monkeypatch.setattr(Polynomial, "scale", scale)
        self._assert_fails(pres, "first relation does not map onto the target relation")
        assert uses[use] == Fraction(1, 2)


class TestSerialization:
    def test_file_format_roundtrip(self, dd1):
        record = dd1.to_json()
        assert record == {"base_vars": [], "d": 1, "e": 2, "P": "Z^2 - 1", "Q": "Y^2 + Z"}
        again = load_presentation(json.dumps(record))
        assert again == dd1

    def test_malformed_record(self):
        with pytest.raises(InvalidPresentation):
            load_presentation({"d": 1})
