"""Golden certificates: the JSON of a small fixed grid must not change.

The digest pins every byte of `json.dumps(cert.to_json())` over the grid, so a
change to the Groebner, Laurent or polynomial kernels that alters any
certificate, even only in how a coefficient is printed, fails here.  A
companion digest pins the two certificates of the reference cell
(d,e,r,s) = (2,2,4,3), whose images over the smaller ring are the largest.  A second
digest pins the omega3 reports, verdicts and detail strings, over passing and
failing cells.  A third pins the reduced Groebner bases
and their cofactor rows over four monomial orders, since certificates read
complement variables off cofactor columns.  A fourth pins the exponential
map of the canonical derivation: its generator images over B[U] and its axiom
report.  A fifth pins membership answers: every witness and every
non-membership certificate over seeded members and non-members.  A sixth pins
the Laurent evaluator on seeded polynomials at generator images with
integer, half-integer and third constants.
"""

import hashlib
import json
import random
from fractions import Fraction

from ddlab.cancellation import cancellation_certificate
from ddlab.derivations import canonical_lnd, check_exp_axioms, exp_map
from ddlab.elements import AlgebraContext, membership_with_witness
from ddlab.groebner import MonomialOrder, buchberger
from ddlab.laurent import LaurentForm, eval_poly_at_laurent
from ddlab.poly import Context, Polynomial, parse_poly
from ddlab.presentations import BaseRingSpec, DDPresentation, omega3_check

from conftest import random_polynomial, random_valid_presentation

# (d, e, P, Q): r, s <= 3, and one cell with a rational constant
GRID = [
    (1, 2, "Z^2 - 1", "Y^2 + Z"),
    (2, 2, "Z^2 + 1", "Y^2 + Z"),
    (1, 3, "Z^3 - 1", "Y^2 + Z"),
    (1, 2, "Z^2 - 1", "Y^3 + Z"),
    (2, 3, "Z^2 + 1/2", "Y^2 + Z"),
]
DIGEST = "78c52ebcd89e9a117fd91628bac1030c4a1b86c6c824b2e435e52be8a6e2543e"


def test_golden_grid_certificates_are_byte_identical():
    h = hashlib.sha256()
    for d, e, p, q in GRID:
        cert = cancellation_certificate(DDPresentation.make([], d, e, p, q))
        assert cert.certified
        h.update(json.dumps(cert.to_json()).encode())
    assert h.hexdigest() == DIGEST


# the reference cell (d,e,r,s) = (2,2,4,3), with an integer and a
# half-integer constant: the largest images of y and t over the smaller ring
REFERENCE_CELLS = [
    (2, 2, "Z^4 - 1", "Y^3 + Z"),
    (2, 2, "Z^4 + 1/2", "Y^3 + Z"),
]
REFERENCE_DIGEST = "115cfb2f09c98bc3ca24eb004ea711b6724b9b28f58ccc31dfdb27587d8e5078"


def test_golden_reference_cell_certificates_are_byte_identical():
    h = hashlib.sha256()
    for d, e, p, q in REFERENCE_CELLS:
        cert = cancellation_certificate(DDPresentation.make([], d, e, p, q))
        assert cert.certified
        h.update(json.dumps(cert.to_json()).encode())
    assert h.hexdigest() == REFERENCE_DIGEST


# (base_vars, d, e, P, Q): three passing cells, one failing cell per check
# after validity, and two cells over R = Q[u]
OMEGA3_GRID = [
    ([], 1, 2, "Z^2 - 1", "Y^2 + Z"),
    ([], 2, 3, "Z^3 - 1", "Y^3 + X*Z + 1/2"),
    ([], 1, 2, "Z^2 + 1/2", "Y^2 + Z*Y + Z"),
    ([], 1, 2, "Z^2", "Y^2 + Z"),
    ([], 1, 2, "Z^2 - 1", "Y^2"),
    ([], 1, 2, "Z^2 - 1", "Y^2 + Z^2 - 1"),
    ([], 1, 2, "Z - 1", "Y^2 + Z"),
    ([], 1, 2, "Z^2 - 1", "Y + Z"),
    (["u"], 1, 2, "Z^2 - 1", "Y^2 + u*Z"),
    (["u"], 2, 2, "Z^2 - 1 + u*X", "Y^2 + Z + u*X*Y"),
]
OMEGA3_DIGEST = "38e4c9466c38945f6fcc9f0ac183cb172f685a13e22474834f8ca009a18742b4"


def test_golden_omega3_reports_are_byte_identical():
    h = hashlib.sha256()
    verdicts = []
    for base, d, e, p, q in OMEGA3_GRID:
        report = omega3_check(DDPresentation.make(base, d, e, p, q))
        verdicts.append(report.passed)
        h.update(json.dumps(report.to_json()).encode())
    assert verdicts == [True] * 3 + [False] * 6 + [True]
    assert h.hexdigest() == OMEGA3_DIGEST


# 32 seeded generator lists over Q[X, Y, Z]: the kind (integer coefficients,
# rational ones, or rational ones with the lex-largest term's coefficient set
# to a non-unit) cycles with period 3 and the order with period 4, so every
# pairing occurs; the bases have 1 to 6 elements
GB_CTX = Context(("X", "Y", "Z"))
GB_ORDERS = [
    MonomialOrder.grevlex(),
    MonomialOrder.lex(),
    MonomialOrder.elim(GB_CTX, ["X"]),
    MonomialOrder.block_sequence(GB_CTX, [["Z"], ["Y"]]),
]
# (order index, generators) whose basis tail-reduces a term that two leading
# monomials divide, so the cofactor rows depend on the order of the divisors
GB_TAIL_CASES = [
    (0, ["X - 1", "Y - 2", "Z^3 - X*Y"]),
    (1, ["2*Y - 1", "3*Z + 1/2", "X - 5*Y*Z"]),
    (2, ["X*Z - 1", "Y - 2/3", "X^2 + X*Y*Z"]),
    (3, ["Y - 1/2", "X - 3", "Z^2 + X*Y*Z"]),
]
GB_DIGEST = "3976677bc9fcfd940a1cbf923d02cd93f9346d20f5beb5b49f7ab97e2d0d5571"


def _gb_generators(rng, kind):
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            num = rng.choice([-3, -2, -1, 1, 2, 3])
            terms[exps] = Fraction(num, 1 if kind == "integral" else rng.choice([1, 2, 3]))
        if kind == "non-monic":
            terms[max(terms)] = Fraction(rng.choice([2, 3, -5]), rng.choice([1, 7]))
        gens.append(Polynomial(GB_CTX, terms))
    return gens


def test_golden_groebner_bases_are_byte_identical():
    rng = random.Random(2718)
    h = hashlib.sha256()
    cases = [(GB_ORDERS[i % 4], _gb_generators(rng, ("integral", "rational", "non-monic")[i % 3]))
             for i in range(32)]
    cases += [(GB_ORDERS[k], [parse_poly(t, GB_CTX) for t in texts]) for k, texts in GB_TAIL_CASES]
    for order, gens in cases:
        gb = buchberger(gens, order)
        h.update(str([str(p) for p in gb.polys]).encode())
        for row in gb.cofactors:
            h.update(str([str(c) for c in row]).encode())
    assert h.hexdigest() == GB_DIGEST


EXP_DIGEST = "3f3d565b1a61315cf721705d547885ad7673038cd85a9e6f64e66694a43c4c71"


def test_golden_exp_maps_are_byte_identical():
    # one seeded presentation per (d, e) in {1,2,3}^2, the last one with W1 adjoined
    rng = random.Random(4142)
    h = hashlib.sha256()
    cells = [(d, e) for d in (1, 2, 3) for e in (1, 2, 3)]
    for k, (d, e) in enumerate(cells):
        pres = random_valid_presentation(rng, d, e, max_r=3, max_s=3, constant_lead_p=False)
        actx = AlgebraContext(pres, ("W1",) if k == len(cells) - 1 else ())
        phi = exp_map(canonical_lnd(actx))
        report = check_exp_axioms(phi)
        assert report.passed
        h.update(str({n: el.laurent for n, el in phi.images.items()}).encode())
        h.update(json.dumps(report.to_json()).encode())
    assert h.hexdigest() == EXP_DIGEST


MEMBER_DIGEST = "fb98e46c1b5745cfc9f1694f04a58499d0f3a8e30ec7e5d5aaf38dc59f554e1d"


def membership_cases():
    """Seeded (algebra, Laurent form) pairs: three members with shift 1 to 3
    per presentation, then x^-1*h(Z) with deg h < r, and a member plus it.

    Each presentation has X-terms in P and in Q; every third one has W1
    adjoined.
    """
    rng = random.Random(1618)
    for k in range(8):
        d, e = 1 + k % 2, 1 + (k // 2) % 2
        pres = random_valid_presentation(rng, d, e, max_r=3, max_s=2, constant_lead_p=False)
        while pres.P.deg_in("X") < 1 or pres.Q.deg_in("X") < 1:
            pres = random_valid_presentation(rng, d, e, max_r=3, max_s=2, constant_lead_p=False)
        actx = AlgebraContext(pres, ("W1",) if k % 3 == 2 else ())
        cctx = actx.coeff_ctx
        members = 0
        while members < 3:
            form = actx.to_laurent(random_polynomial(rng, actx.gen_ctx, max_terms=3, max_exp=2))
            if 1 <= -form.min_exp() <= 3:
                members += 1
                yield actx, form
        z = cctx.var("Z")
        h = sum(((z ** i).scale(rng.randint(-3, 3)) for i in range(pres.r)), cctx.zero())
        if h.is_zero():
            h = cctx.one()
        yield actx, LaurentForm(cctx, {-1: h})
        yield actx, form + LaurentForm(cctx, {-1: h})


def test_golden_membership_answers_are_byte_identical():
    h = hashlib.sha256()
    answers = []
    for actx, form in membership_cases():
        result = membership_with_witness(form, actx)
        answers.append(result.member)
        h.update(str([result.member, str(result.witness), result.certificate]).encode())
    assert answers == [True, True, True, False, False] * 8
    assert h.hexdigest() == MEMBER_DIGEST


EVAL_DIGEST = "c228ae464fb458097af9d81141405af84bc73ac352da197b2bdcd3585a29f444"


def evaluation_cases():
    """Seeded (polynomial, images, target) triples for the Laurent evaluator.

    Nine presentations with P = a*Z^r + b*X*Z + c and Q = Y^s + X*Y^(s-1) + Z + c',
    where the constants c cycle through integers, halves and thirds; every
    third one has W1 adjoined, and there Z is also sent to z - x^2*W1.
    Each image set evaluates four seeded nonzero polynomials.
    """
    rng = random.Random(3141)
    ctx = Context(("X", "Y", "Z", "T"))
    for k in range(9):
        den = (1, 2, 3)[k % 3]
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), den)
        p = (ctx.monomial({"Z": r}, rng.choice([1, 2, -1]))
             + ctx.monomial({"X": 1, "Z": 1}, rng.randint(-2, 2)) + ctx.const(c))
        q = (ctx.monomial({"Y": s}) + ctx.monomial({"X": 1, "Y": s - 1}, rng.randint(-2, 2))
             + ctx.var("Z") + ctx.const(Fraction(rng.randint(-3, 3), den)))
        pres = DDPresentation(BaseRingSpec(()), 1 + k % 3, 1 + (k // 3) % 3, p, q)
        actx = AlgebraContext(pres, ("W1",) if k % 3 == 2 else ())
        cctx = actx.coeff_ctx
        image_sets = [dict(actx.generator_images())]
        if actx.adjoined:
            moved = dict(image_sets[0])
            moved["Z"] = LaurentForm.from_poly(cctx.var("Z")) - LaurentForm.from_poly(
                cctx.var("W1"), 2)
            image_sets.append(moved)
        for images in image_sets:
            for _ in range(4):
                poly = actx.gen_ctx.zero()
                while poly.is_zero():
                    poly = random_polynomial(rng, actx.gen_ctx, max_terms=4, max_exp=3)
                yield poly, images, cctx


def test_golden_laurent_evaluations_are_byte_identical():
    # each case runs twice at the same image objects, so the second run reads
    # the powers cached on them, and once at fresh copies
    h = hashlib.sha256()
    for poly, images, target in evaluation_cases():
        first = eval_poly_at_laurent(poly, images, target)
        again = eval_poly_at_laurent(poly, images, target)
        fresh = {k: LaurentForm(v.ctx, v.coeffs) for k, v in images.items()}
        assert again == first == eval_poly_at_laurent(poly, fresh, target)
        h.update(str(first).encode())
    assert h.hexdigest() == EVAL_DIGEST
