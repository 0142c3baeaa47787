import dataclasses
import json
import random
from fractions import Fraction

import pytest

from ddlab import cancellation, presentations
from ddlab.cancellation import (
    build_complement_variable,
    build_phi_extension,
    cancellation_certificate,
    compute_g_h,
    compute_slice_f,
    verify_E_iso,
    verify_pair_structured,
)
from ddlab.cli import main
from ddlab.derivations import Derivation, ExponentialMap, canonical_lnd
from ddlab.elements import AlgebraContext, BElement, MembershipResult, NotInAlgebra
from ddlab.groebner import BudgetExceeded
from ddlab.isomorphisms import RHomomorphism, verify_iso_pair
from ddlab.poly import parse_poly
from ddlab.presentations import CheckItem, DDPresentation, Report, omega3_check

# (d, e, P, Q) of dd1 and of the reference cell (2,2,4,3)
DD1_CELL = (1, 2, "Z^2 - 1", "Y^2 + Z")
REFERENCE_CELL = (2, 2, "Z^4 - 1", "Y^3 + Z")


@pytest.fixture(scope="module")
def dd1_cert(dd1):
    return cancellation_certificate(dd1)


class TestPhiExtension:
    def test_images_and_checks(self, dd1):
        phi, report = build_phi_extension(dd1)
        assert report.passed
        assert [str(c) for c in phi.coeffs["Z"]] == ["Z", "X^3"]
        assert [str(c) for c in phi.coeffs["Y"]] == ["Y", "2*X^2*Z", "X^5"]
        assert [str(c) for c in phi.coeffs["W1"]] == ["W1", "-X"]
        assert [str(c) for c in phi.coeffs["X"]] == ["X"]

    def test_dd3_style_z_image(self):
        p = DDPresentation.make([], 2, 1, "Z^3 + X", "Y^2 + X*Z")
        phi, report = build_phi_extension(p)
        assert report.passed
        assert [str(c) for c in phi.coeffs["Z"]] == ["Z", "X^3"]


class TestInvariantElements:
    def test_f_formula(self, dd1):
        phi, _ = build_phi_extension(dd1)
        f = compute_slice_f(phi)
        assert str(f.gen) == "X^2*W1 + Z"

    def test_f_exponent_one(self):
        # d = e = 1 gives exponent 1 (the e > 1 guard lives later, in g/h)
        p = DDPresentation.make([], 1, 1, "Z^2 - 1", "Y^2 + Z")
        phi, _ = build_phi_extension(p)
        f = compute_slice_f(phi)
        assert str(f.gen) == "X*W1 + Z"

    def test_g_h_dd1(self, dd1):
        phi, _ = build_phi_extension(dd1)
        f = compute_slice_f(phi)
        g, h, report = compute_g_h(f, phi)
        assert report.passed
        actx = phi.source
        assert g.gen == parse_poly("X^3*W1^2 + 2*X*Z*W1 + Y", actx.gen_ctx)
        expected_h = parse_poly(
            "X*T + 4*Y*Z*W1 + X*W1 + 2*X^2*Y*W1^2 + 4*X*Z^2*W1^2 + 4*X^3*Z*W1^3 + X^5*W1^4",
            actx.gen_ctx,
        )
        assert h.gen == expected_h

    def test_e_one_rejected(self):
        p = DDPresentation.make([], 1, 1, "Z^2 - 1", "Y^2 + Z")
        phi, _ = build_phi_extension(p)
        f = compute_slice_f(phi)
        with pytest.raises(Exception, match="e > 1"):
            compute_g_h(f, phi)

    def test_small_algebra_relations(self, dd1):
        phi, _ = build_phi_extension(dd1)
        f = compute_slice_f(phi)
        g, h, _ = compute_g_h(f, phi)
        small = verify_E_iso(f, g, h)
        assert small.checks.passed
        assert small.presentation.e == 1
        assert "injective" in small.injectivity_note

    def test_injectivity_note_is_one_constant(self, dd1_cert):
        # the note is the same text in every certificate, so no certificate stores it
        assert [f.name for f in dataclasses.fields(cancellation.SmallAlgebraIso)] == ["inclusion", "checks"]
        assert dd1_cert.to_json()["small_algebra"]["injectivity_note"] == (
            "injective structurally: z -> z + x^(d+e-1)*w is a triangular substitution, "
            "invertible over R[x, 1/x][z, w], so the induced map of Laurent models is injective")

    def test_complement_variable(self, dd1):
        phi, _ = build_phi_extension(dd1)
        actx = phi.source
        d = canonical_lnd(actx)
        comp = build_complement_variable(phi, omega3_check(dd1).bases)
        assert comp.checks.passed
        assert d.apply(comp.element) == actx.const(1)

    @pytest.mark.parametrize("cell", [DD1_CELL, (2, 2, "Z^2 + X*Z - 1", "Y^3 + Z + X*Y")],
                             ids=["dd1", "x-term"])
    def test_complement_reads_the_canonical_derivation_off_the_map(self, monkeypatch, cell):
        built = []

        def capture(actx, images):
            built.append(Derivation(actx, images))
            return built[-1]

        monkeypatch.setattr(cancellation, "Derivation", capture)
        p = DDPresentation.make([], *cell)
        phi, _ = build_phi_extension(p)
        assert build_complement_variable(phi, omega3_check(p).bases).checks.passed
        [read_off] = built
        canonical = canonical_lnd(phi.source)
        assert list(read_off.images) == list(canonical.images)
        for name, image in canonical.images.items():
            assert read_off.images[name].gen == image.gen, name
            assert read_off.images[name].laurent == image.laurent, name


class TestCertificateDD1:
    def test_certified(self, dd1_cert):
        assert dd1_cert.verdict == "non-cancellation pair certified"
        assert dd1_cert.certified
        assert all(item.passed for item in dd1_cert.steps)

    def test_exact_symbolic_elements(self, dd1_cert):
        ctx = dd1_cert.f.actx.gen_ctx
        assert dd1_cert.f.gen == parse_poly("X^2*W1 + Z", ctx)
        assert dd1_cert.g.gen == parse_poly("X^3*W1^2 + 2*X*Z*W1 + Y", ctx)
        assert dd1_cert.h.gen == parse_poly(
            "X*T + 4*Y*Z*W1 + X*W1 + 2*X^2*Y*W1^2 + 4*X*Z^2*W1^2 + 4*X^3*Z*W1^3 + X^5*W1^4",
            ctx,
        )

    def test_direct_identities(self, dd1_cert):
        report = dd1_cert.old_generators.direct_identities
        assert report.passed
        names = [c.name for c in report.items]
        assert "z = f - x^(d+e-1)*w" in names
        assert any(name.startswith("y = g +") for name in names)

    def test_old_generator_images_recover_t(self, dd1_cert):
        # the image of t over the smaller ring maps back to t's Laurent form
        backward = dd1_cert.backward
        forward = dd1_cert.forward
        actx = dd1_cert.f.actx
        t_image = backward.images["T"]
        assert forward.apply(t_image) == actx.gen("T").laurent
        assert actx.gen("T").laurent.to_json() == {"-4": "Z^4 - 2*Z^2 + 1", "-2": "Z"}

    def test_non_isomorphism_part(self, dd1_cert):
        cert = dd1_cert.non_iso
        assert cert.not_isomorphic
        assert cert.tuple1.as_tuple() == (1, 2, 2, 2)
        assert cert.tuple2.as_tuple() == (1, 1, 2, 2)

    def test_brute_force_pair_agrees(self, dd1_cert):
        # full symbolic composite verification agrees with the structured one
        assert verify_iso_pair(dd1_cert.forward, dd1_cert.backward).passed

    def test_json_serializes(self, dd1_cert):
        payload = dd1_cert.to_json()
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["schema"] == "dd-lab/2"
        assert back["verdict"] == "non-cancellation pair certified"
        assert back["f"]["expr"] == "X^2*W1 + Z"
        assert back["iso_pair"]["verified"] is True


class TestFaultInjection:
    """The checks that compare Laurent forms fail on a perturbed image or witness."""

    @staticmethod
    def _pair_report(cert, forward_images=(), backward_images=()):
        small_w, actx = cert.forward.source, cert.forward.target
        forward = RHomomorphism(small_w, actx, {**cert.forward.images, **dict(forward_images)})
        backward = RHomomorphism(actx, small_w, {**cert.backward.images, **dict(backward_images)})
        report = verify_pair_structured(forward, backward)
        return [c.name for c in report.failed_items()]

    def test_unperturbed_pair_passes(self, dd1_cert):
        assert self._pair_report(dd1_cert) == []

    def test_forward_w_image_plus_one(self, dd1_cert):
        actx = dd1_cert.forward.target
        sigma = dd1_cert.forward.images["W1"]
        failed = self._pair_report(dd1_cert, forward_images={"W1": sigma + actx.const(1)})
        assert "round trip fixes w" in failed

    def test_backward_y_image_plus_one(self, dd1_cert):
        small_w = dd1_cert.forward.source
        psi_y = dd1_cert.backward.images["Y"]
        failed = self._pair_report(dd1_cert, backward_images={"Y": psi_y + small_w.const(1)})
        assert failed == ["map to the smaller ring sends the relations to zero"]

    def test_membership_witness_plus_one(self, dd1, monkeypatch):
        original = cancellation.membership_with_witness

        def off_by_one(f, actx, budget):
            result = original(f, actx, budget)
            witness = result.witness + actx.gen_ctx.one()
            return MembershipResult(result.member, witness, result.certificate)

        monkeypatch.setattr(cancellation, "membership_with_witness", off_by_one)
        cert = cancellation_certificate(dd1)
        assert not cert.certified
        assert cert.steps[-1].name == "express_old_generators"
        assert cert.verdict == "failed at express_old_generators: round trip failed for w + x*sigma"


class TestStageNames:
    """An exception raised inside a stage fails the certificate under that stage."""

    def test_budget_exceeded_names_its_stage(self, dd1):
        cert = cancellation_certificate(dd1, budget=1)
        assert not cert.certified
        assert cert.steps[-1].name == "build_phi_extension"
        assert cert.verdict.startswith("failed at build_phi_extension: ")
        assert "budget of 1" in cert.verdict

    def test_budget_exceeded_in_membership_names_express_old_generators(self, dd1, monkeypatch):
        def exceeded(f, actx, budget):
            raise BudgetExceeded("injected")

        monkeypatch.setattr(cancellation, "membership_with_witness", exceeded)
        cert = cancellation_certificate(dd1)
        assert not cert.certified
        assert cert.steps[-1].name == "express_old_generators"
        assert cert.verdict == "failed at express_old_generators: injected"


class TestIncompleteDivision:
    """A refused division whose completeness report fails raises AlgebraError
    ("no answer"); the pipeline reports it under its stage."""

    @pytest.fixture()
    def incomplete(self, monkeypatch):
        def failed_report(actx, budget):
            return Report((CheckItem("I0 : X = I0", False, "injected"),))

        def one_too_many(form, actx, n, budget):
            return original(form, actx, n + 1, budget)

        original = cancellation.divide_by_x_power
        monkeypatch.setattr(AlgebraContext, "completeness_report", failed_report)
        monkeypatch.setattr(cancellation, "divide_by_x_power", one_too_many)

    def test_certificate_names_the_stage(self, dd1, incomplete):
        cert = cancellation_certificate(dd1)
        assert not cert.certified
        assert cert.steps[-1].name == "build_phi_extension"
        assert cert.verdict == ("failed at build_phi_extension: x-adic division not known "
                                "to be complete (I0 : X = I0); no answer")

    def test_cli_prints_the_failed_stage(self, dd1, incomplete, tmp_path, capsys):
        path = tmp_path / "dd1.json"
        path.write_text(json.dumps(dd1.to_json()))
        assert main(["cancel-cert", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL: build_phi_extension (x-adic division not known to be complete" in out
        assert "Traceback" not in out


class TestEveryStageCanFail:
    """A fault injected into each stage fails the certificate under that stage."""

    @staticmethod
    def _assert_fails_at(p, stage, message):
        cert = cancellation_certificate(p)
        assert not cert.certified
        assert cert.steps[-1].name == stage
        assert cert.verdict == f"failed at {stage}: {message}"
        return cert

    def test_exp_axioms(self, dd1, monkeypatch):
        failed = Report((CheckItem("injected", False),))
        monkeypatch.setattr(cancellation, "check_exp_axioms", lambda phi: failed)
        self._assert_fails_at(dd1, "build_phi_extension", "exponential-map checks failed")

    def test_f_not_fixed(self, dd1, monkeypatch):
        monkeypatch.setattr(ExponentialMap, "fixes", lambda self, a: False)
        self._assert_fails_at(dd1, "compute_slice_f", "f is not invariant under the map")

    def test_division_quotient_plus_one_in_a(self, dd1, monkeypatch):
        original = cancellation.divide_by_x_power

        def plus_one(form, actx, n, budget):
            q = original(form, actx, n, budget)
            return q + actx.const(1) if actx.adjoined == ("W1",) and actx.presentation == dd1 else q

        monkeypatch.setattr(cancellation, "divide_by_x_power", plus_one)
        cert = self._assert_fails_at(dd1, "compute_g_h", "division checks failed")
        assert [c.name for c in cert.gh_checks.failed_items()] == [
            "membership route agrees on g", "membership route agrees on h"]

    def test_division_witness_not_reduced(self, dd1, monkeypatch):
        # the quotient plus a relation has the same Laurent form, so only the
        # witness comparison can see it
        original = cancellation.divide_by_x_power

        def plus_relation(form, actx, n, budget):
            q = original(form, actx, n, budget)
            return BElement(actx, q.gen + actx.relations()[0], q.laurent)

        monkeypatch.setattr(cancellation, "divide_by_x_power", plus_relation)
        cert = self._assert_fails_at(dd1, "compute_g_h", "division checks failed")
        assert [c.name for c in cert.gh_checks.failed_items()] == [
            "membership route agrees on g", "membership route agrees on h"]

    def test_smaller_relations(self, dd1, monkeypatch):
        monkeypatch.setattr(cancellation, "verify_hom", lambda h: False)
        self._assert_fails_at(dd1, "verify_E_iso", "relations of the smaller algebra failed")

    def test_bezout_cofactor(self, dd1, monkeypatch):
        # Buchberger still finds the basis {1} of (P(0,Z), P'(0,Z)), but one
        # cofactor of its row is off by one, so the identity fails to hold
        original = presentations.buchberger

        def corrupted(gens, budget):
            gb = original(gens, budget=budget)
            if len(gens) != 2:
                return gb
            row = gb.cofactors[0]
            return dataclasses.replace(gb, cofactors=((row[0] + gb.ctx.one(),) + row[1:],))

        monkeypatch.setattr(presentations, "buchberger", corrupted)
        name = "(P(0,Z), P'(0,Z)) = R[Z]"
        cert = self._assert_fails_at(dd1, "unit-ideal conditions", f"{name} (1 = (0)*(Z^2 - 1) + (1/2*Z)*(2*Z))")
        assert [c.name for c in cert.omega3.failed_items()] == [name]

    def test_pair_report(self, dd1, monkeypatch):
        failed = Report((CheckItem("injected round trip", False),))
        monkeypatch.setattr(cancellation, "verify_pair_structured", lambda fwd, bwd: failed)
        cert = self._assert_fails_at(dd1, "verify_iso_pair", "injected round trip")
        assert cert.to_json()["iso_pair"]["verified"] is False

    def test_invariants_inconclusive(self, dd1, monkeypatch):
        original = cancellation.distinguish_by_invariants
        monkeypatch.setattr(cancellation, "distinguish_by_invariants", lambda p1, p2: original(p1, p1))
        self._assert_fails_at(dd1, "distinguish_by_invariants", "inconclusive")


class TestEveryCheckCanFail:
    """Each check inside a stage that no stage-level injection reaches fails
    the certificate under its stage with its own message."""

    @staticmethod
    def _assert_fails_at(p, stage, message, **kwargs):
        cert = cancellation_certificate(p, **kwargs)
        assert not cert.certified
        assert cert.steps[-1].name == stage
        assert cert.verdict == f"failed at {stage}: {message}"
        return cert

    def test_chain_over_cap(self, dd1):
        self._assert_fails_at(dd1, "build_complement_variable",
                              "correction chain did not terminate within 4 steps", cap=4)

    def test_doubled_corrections(self, dd1, monkeypatch):
        monkeypatch.setattr(cancellation, "Fraction", lambda n, d: Fraction(2 * n, d))
        cert = self._assert_fails_at(dd1, "build_complement_variable",
                                     "constructed element failed verification")
        # the failed Report reaches the JSON, under the stage that built it
        checks = cert.to_json()["complement"]["checks"]
        assert checks["passed"] is False
        assert [c["name"] for c in checks["checks"] if not c["passed"]] == [
            "D(sigma) = 1", "map sends sigma to sigma + U"]

    @pytest.mark.parametrize("call, message", [
        (1, "initial defect not divisible by x: injected"),
        (2, "correction chain defect at step 1 not divisible by x: injected"),
    ])
    def test_defect_not_divisible(self, dd1, monkeypatch, call, message):
        original_build = cancellation.build_complement_variable
        original_divide = cancellation.divide_by_x_power
        state = {"inside": False, "calls": 0}  # divisions inside build_complement_variable

        def build(*args):
            state["inside"] = True
            try:
                return original_build(*args)
            finally:
                state["inside"] = False

        def divide(form, actx, n, budget):
            if state["inside"]:
                state["calls"] += 1
                if state["calls"] == call:
                    raise NotInAlgebra("injected")
            return original_divide(form, actx, n, budget)

        monkeypatch.setattr(cancellation, "build_complement_variable", build)
        monkeypatch.setattr(cancellation, "divide_by_x_power", divide)
        self._assert_fails_at(dd1, "build_complement_variable", message)

    @pytest.mark.parametrize("cell", [DD1_CELL, REFERENCE_CELL], ids=["dd1", "2-2-4-3"])
    @pytest.mark.parametrize("basis, column", [(0, 1), (1, 2)], ids=["b", "m"])
    def test_cofactor_plus_one(self, monkeypatch, cell, basis, column):
        # omega3 passes on its own bases; the complement stage is handed them
        # with b (column 1 of the first row) or m (column 2 of the second)
        # one larger, so D(sigma0) - 1 is no longer divisible by x
        original = cancellation.build_complement_variable

        def corrupted(phi, bases, cap, budget):
            gb = bases[basis]
            row = list(gb.cofactors[0])
            row[column] = row[column] + gb.ctx.one()
            bases = list(bases)
            bases[basis] = dataclasses.replace(gb, cofactors=(tuple(row),))
            return original(phi, tuple(bases), cap, budget)

        monkeypatch.setattr(cancellation, "build_complement_variable", corrupted)
        self._assert_fails_at(DDPresentation.make([], *cell), "build_complement_variable",
                              "initial defect not divisible by x: element is not divisible by X^1 in the algebra")

    def test_complement_plus_w(self, dd1, monkeypatch):
        original = cancellation.build_complement_variable

        def plus_w(phi, bases, cap, budget):
            c = original(phi, bases, cap, budget)
            return dataclasses.replace(c, element=c.element + c.element.actx.gen("W1"))

        monkeypatch.setattr(cancellation, "build_complement_variable", plus_w)
        self._assert_fails_at(dd1, "express_old_generators",
                              "w + x*sigma is not invariant: residual w after the coordinate change")

    def test_membership_says_no(self, dd1, monkeypatch):
        monkeypatch.setattr(cancellation, "membership_with_witness",
                            lambda f, actx, budget: MembershipResult(False, None, None))
        self._assert_fails_at(dd1, "express_old_generators",
                              "w + x*sigma does not lie in the smaller algebra")

    def test_closed_form_identity(self, dd1, monkeypatch):
        # calls 1 and 2 build g and h; call 3 is the closed form of y
        original = cancellation._divide_x_monomials
        calls = []

        def third_plus_one(poly, k):
            calls.append(k)
            q = original(poly, k)
            return q + q.ctx.one() if len(calls) == 3 else q

        monkeypatch.setattr(cancellation, "_divide_x_monomials", third_plus_one)
        cert = self._assert_fails_at(dd1, "express_old_generators", "closed-form identity failed")
        identities = cert.to_json()["old_generators"]["direct_identities"]
        assert identities["passed"] is False
        assert [c["name"] for c in identities["checks"] if not c["passed"]] == [
            "y = g + (P(x, f - x^(d+e-1)*w) - P(x, f))/x^d"]

    def test_exponent_bound(self, dd1):
        poly = parse_poly("X + Z", AlgebraContext(dd1).gen_ctx)
        with pytest.raises(AssertionError, match="X-exponent 0 < 1"):
            cancellation._divide_x_monomials(poly, 1)


class TestWitnessesReproduceTheirForms:
    """Pipeline elements are handed on with the Laurent form their stage
    built; each must still be the Laurent form of its printed witness."""

    def test_pair_images_and_complement(self, dd1_cert):
        elements = [
            *dd1_cert.forward.images.values(),
            *dd1_cert.backward.images.values(),
            dd1_cert.complement.element,
        ]
        for el in elements:
            assert el.actx.to_laurent(el.gen) == el.laurent, str(el)


class TestGuards:
    def test_e_one_rejected(self):
        p = DDPresentation.make([], 1, 1, "Z^2 - 1", "Y^2 + Z")
        cert = cancellation_certificate(p)
        assert not cert.certified
        assert "e > 1" in cert.verdict

    def test_omega3_failure_names_reason(self):
        p = DDPresentation.make([], 1, 2, "Z^2", "Y^2 + Z")
        cert = cancellation_certificate(p)
        assert not cert.certified
        assert "unit-ideal" in cert.verdict
        assert "P'(0,Z)" in cert.verdict

    def test_base_ring_guard(self):
        p = DDPresentation.make(["u1"], 1, 2, "Z^2 - u1 - 1", "Y^2 + Z")
        cert = cancellation_certificate(p)
        assert not cert.certified
        assert "R = Q" in cert.verdict


class TestRandomFamily:
    def test_family_certifies(self):
        # P = Z^r + c with c a nonzero rational, Q = Y^s + Z: the unit-ideal
        # conditions hold automatically and every draw must certify
        rng = random.Random(9090)
        for _ in range(5):
            r = rng.choice([2, 3, 4])
            s = rng.choice([2, 3])
            d = rng.choice([1, 2])
            e = rng.choice([2, 3])
            c = Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice([1, -1])
            p = DDPresentation.make([], d, e, f"Z^{r} + {c}" if c > 0 else f"Z^{r} - {-c}",
                                    f"Y^{s} + Z")
            cert = cancellation_certificate(p)
            assert cert.certified, (r, s, d, e, c, cert.verdict)
            assert cert.non_iso.tuple1.as_tuple() == (d, e, r, s)
            assert cert.non_iso.tuple2.as_tuple() == (d, e - 1, r, s)
