"""Golden certificates: the JSON of a small fixed grid must not change.

The digest pins every byte of `json.dumps(cert.to_json())` over the grid, so a
change to the Groebner, Laurent or polynomial kernels that alters any
certificate, even only in how a coefficient is printed, fails here.  A
companion digest pins the two certificates of the reference cell
(d,e,r,s) = (2,2,4,3), whose images over the smaller ring are the largest,
another pins two cells with different denominators in P and Q, and another
three general cells, with more lower terms or X-terms in P and Q, whose
large products take the Kronecker path of the Laurent layer.  A second
digest pins the omega3 reports, verdicts and detail strings, over passing and
failing cells.  A third pins the reduced Groebner bases
and their cofactor rows over four monomial orders, since certificates read
complement variables off cofactor columns, and a table beside it the steps
each of those runs charges to its budget.  A fourth pins the exponential
map of the canonical derivation: its generator images over B[U] and its axiom
report.  A fifth pins membership answers: every witness and every
non-membership certificate over seeded members and non-members.  A sixth pins
the Laurent evaluator on seeded polynomials at generator images with
integer, half-integer and third constants.  A seventh pins the command
line: the exit code, stdout and stderr of a fixed battery of commands and
the --out files they write.  An eighth pins Laurent evaluations and x-adic
divisions over coefficient contexts of three and four variables, base
variables among them, since the Laurent layer packs each exponent vector
into one int with a field per variable.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from ddlab import groebner, poly
from ddlab.cancellation import cancellation_certificate
from ddlab.cli import main
from ddlab.derivations import canonical_lnd, check_exp_axioms, exp_map
from ddlab.elements import AlgebraContext, _x_adic_witness, membership_with_witness
from ddlab.groebner import DEFAULT_BUDGET, BudgetExceeded, MonomialOrder, _Budget, buchberger
from ddlab.laurent import LaurentForm, eval_poly_at_laurent
from ddlab.poly import Context, Polynomial, parse_poly
from ddlab.presentations import BaseRingSpec, DDPresentation, omega3_check, unit_ideal_generators

from conftest import random_polynomial, random_valid_presentation

# (d, e, P, Q): r, s <= 3, and one cell with a rational constant
GRID = [
    (1, 2, "Z^2 - 1", "Y^2 + Z"),
    (2, 2, "Z^2 + 1", "Y^2 + Z"),
    (1, 3, "Z^3 - 1", "Y^2 + Z"),
    (1, 2, "Z^2 - 1", "Y^3 + Z"),
    (2, 3, "Z^2 + 1/2", "Y^2 + Z"),
]
DIGEST = "cd4996407d1847189b2a322d71047f5678ebd172ecbdd9501d910d375af772f8"


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
REFERENCE_DIGEST = "1d035df92c46baafcac618dffe8cba648c70b1b93b9283f92caf70f49c874dab"


def test_golden_reference_cell_certificates_are_byte_identical():
    h = hashlib.sha256()
    for d, e, p, q in REFERENCE_CELLS:
        cert = cancellation_certificate(DDPresentation.make([], d, e, p, q))
        assert cert.certified
        h.update(json.dumps(cert.to_json()).encode())
    assert h.hexdigest() == REFERENCE_DIGEST


# cells whose P(0,z) and Y^s coefficient of Q carry different denominators,
# so the x-adic division meets thirds in its divisors and halves (or
# thirds) in the powers of y and t
DENOMINATOR_CELLS = [
    (1, 2, "Z^3 + 2/3", "1/2*Y^2 + Z"),
    (2, 2, "Z^2 - 3/2", "2/3*Y^3 + Z"),
]
DENOMINATOR_DIGEST = "c0cc6bccec1829e7fce13d44ec19f6b7dcf27dc6ab0d74184b39fe731bb4ea10"


def test_golden_denominator_cell_certificates_are_byte_identical():
    h = hashlib.sha256()
    for d, e, p, q in DENOMINATOR_CELLS:
        cert = cancellation_certificate(DDPresentation.make([], d, e, p, q))
        assert cert.certified
        h.update(json.dumps(cert.to_json()).encode())
    assert h.hexdigest() == DENOMINATOR_DIGEST


# general cells: more lower terms in P(0,Z) and Q, or X-terms in both, so the
# images of y and t are dense in z at stride 1 and their large products take
# the Kronecker path of the packed product
GENERAL_CELLS = [
    (1, 2, "Z^3 + 2*Z - 1/2", "Y^2 + Y*Z + Z"),
    (2, 2, "Z^2 + X*Z - 1", "Y^3 + Z + X*Y"),
    (2, 2, "Z^3 + X*Z^2 - 1", "Y^2 + Z + X*Y"),
]
GENERAL_DIGEST = "d120590bf311069619fb85eb2235ae4bb344b613717b6204e89afda6f4ed5aaf"


def test_golden_general_cell_certificates_are_byte_identical(monkeypatch):
    taken = []
    kronecker = poly._kronecker_mul_into

    def counted(*args):
        taken.append(kronecker(*args))
        return taken[-1]

    monkeypatch.setattr(poly, "_kronecker_mul_into", counted)
    h = hashlib.sha256()
    for d, e, p, q in GENERAL_CELLS:
        cert = cancellation_certificate(DDPresentation.make([], d, e, p, q))
        assert cert.certified
        h.update(json.dumps(cert.to_json()).encode())
    assert h.hexdigest() == GENERAL_DIGEST
    assert any(taken)


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
OMEGA3_DIGEST = "c9c12c5a526fec5f2fbdf5631e42fc490192c2ae09c51c950e1b69ca98d4a004"


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
    MonomialOrder(),
    MonomialOrder.block_sequence(GB_CTX, [[v] for v in GB_CTX.names]),  # lex
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


# The steps each Buchberger run charges, which is the smallest budget under
# which it succeeds: over the cases of GB_DIGEST, in the same order, and over
# the two unit-ideal conditions of three presentations.  How the cofactor
# rows are kept may change; what a run charges may not.
GB_STEPS = [0, 1, 11, 59, 5, 2, 35, 56, 35, 49, 0, 6, 369, 20, 0, 3068, 223, 4,
            6, 62, 15, 0, 0, 17, 4, 13, 21, 10, 11, 6, 4, 43097, 7, 7, 13, 7]
UNIT_IDEAL_STEPS = [
    (([], 1, 2, "Z^3 + 2*Z - 1/2", "Y^2 + Y*Z + Z"), [6, 24]),
    (([], 2, 2, "Z^4 + 3*Z - 1/2", "Y^3 + Y*Z + Z"), [9, 107]),
    ((["U1"], 2, 2, "Z^3 + U1*Z - 1", "Y^2 + Z"), [3, 6]),
]


def _charged_steps(monkeypatch, runs) -> list[int]:
    """The steps charged by each call in runs, read off the budget that
    buchberger makes for it."""
    budgets = []

    class Recorded(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(groebner, "_Budget", Recorded)
    for run in runs:
        run()
    monkeypatch.undo()
    assert len(budgets) == len(runs)
    return [b.used for b in budgets]


def test_groebner_step_counts_are_unchanged(monkeypatch):
    rng = random.Random(2718)
    cases = [(GB_ORDERS[i % 4], _gb_generators(rng, ("integral", "rational", "non-monic")[i % 3]))
             for i in range(32)]
    cases += [(GB_ORDERS[k], [parse_poly(t, GB_CTX) for t in texts]) for k, texts in GB_TAIL_CASES]
    assert _charged_steps(monkeypatch, [lambda o=o, g=g: buchberger(g, o) for o, g in cases]) == GB_STEPS
    for cell, steps in UNIT_IDEAL_STEPS:
        gens = unit_ideal_generators(DDPresentation.make(*cell))
        assert _charged_steps(monkeypatch, [lambda g=g: buchberger(g) for g in gens]) == steps
    # the charge is the smallest budget that succeeds
    for k in (1, 12, 15):
        order, gens = cases[k]
        buchberger(gens, order, GB_STEPS[k])
        with pytest.raises(BudgetExceeded):
            buchberger(gens, order, GB_STEPS[k] - 1)


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


MEMBER_DIGEST = "95b0791feb4a53ef062ff0137b9afd5ac0cf5eaca4b92534337d65e2ef09f93b"


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


# (base_vars, adjoined, d, e, P, Q): coefficient contexts of three and four
# variables, with base variables in P, in Q and in P(0,Z)
WIDE_CELLS = [
    (["a", "b"], ("W1",), 1, 2, "Z^2 - 1 + a*X", "Y^2 + b*X*Y + Z"),
    (["a"], ("U",), 2, 1, "2*Z^3 + a*X*Z - 1/2", "Y^2 + a*X + Z + 1/3"),
    (["a", "b"], ("U",), 1, 2, "Z^2 - a + b*X", "Y^3 + a*X*Y + Z - 1/2*b"),
    (["a"], ("W1", "U"), 2, 2, "Z^2 + 1/2 + a*X*Z", "-2*Y^2 + X*Y*Z + a*Z"),
]
WIDE_DIGEST = "64cfc3c656844c720338678e91822b68204a78ddb6c525a7ae5874f6578ac3d8"


def wide_cases():
    """Seeded (algebra, images, polynomial, at generator images) over
    WIDE_CELLS: three polynomials at the generator images, and three at
    images that also send Z to z - x*a and every adjoined w to w + x*z*w, so
    that more than one image is not a monomial."""
    rng = random.Random(2236)
    for base, adjoined, d, e, p, q in WIDE_CELLS:
        actx = AlgebraContext(DDPresentation.make(base, d, e, p, q), adjoined)
        cctx = actx.coeff_ctx
        images = dict(actx.generator_images())
        moved = dict(images, Z=LaurentForm(cctx, {0: cctx.var("Z"), 1: -cctx.var("a")}))
        for w in adjoined:
            moved[w] = LaurentForm(cctx, {0: cctx.var(w), 1: cctx.var("Z") * cctx.var(w)})
        for image_set in (images, moved):
            for _ in range(3):
                poly = actx.gen_ctx.zero()
                while poly.is_zero():
                    poly = random_polynomial(rng, actx.gen_ctx, max_terms=4, max_exp=2)
                yield actx, image_set, poly, image_set is images


def test_golden_wide_context_evaluations_and_divisions_are_byte_identical():
    # the image of each polynomial, and the x-adic division of the images at
    # the generator images with and without x^-1*Z added, which is refused:
    # the witness reduced modulo the relations, or the refused level and
    # certificate.  The raw witness must reproduce its form, and the refused
    # coefficient must be the lowest one of the residue; neither is pinned,
    # since they depend on the pieces the division chooses
    h = hashlib.sha256()
    refused = []
    for actx, images, poly, at_generators in wide_cases():
        form = eval_poly_at_laurent(poly, images, actx.coeff_ctx)
        fresh = {k: LaurentForm(v.ctx, v.coeffs) for k, v in images.items()}
        assert eval_poly_at_laurent(poly, fresh, actx.coeff_ctx) == form
        h.update(str(form).encode())
        if at_generators:
            z = LaurentForm(actx.coeff_ctx, {-1: actx.coeff_ctx.var("Z")})
            for f in (form, form + z):
                witness, refusal = _x_adic_witness(f, actx, _Budget(DEFAULT_BUDGET))
                if refusal is None:
                    assert actx.to_laurent(witness) == f
                    h.update(str(actx.reduce_witness(witness)).encode())
                else:
                    m, c, certificate = refusal
                    residue = f - actx.to_laurent(witness)
                    assert residue.min_exp() == -m and residue.coeffs[-m] == c
                    h.update(str([m, certificate]).encode())
                refused.append(refusal is not None)
    assert refused == [False, True] * 12
    assert h.hexdigest() == WIDE_DIGEST


# the command line: every subcommand in text and --json form on passing and
# failing inputs, iso-verify with and without --backward, one failed stage
# of cancel-cert, one --jobs 2 batch, and the --out files written on the way
CLI_FILES = {
    "dd1.json": {"base_vars": [], "d": 1, "e": 2, "P": "Z^2 - 1", "Q": "Y^2 + Z"},
    "dd2.json": {"base_vars": [], "d": 1, "e": 1, "P": "Z^2 - 1", "Q": "Y^2 + Z"},
    "s1.json": {"base_vars": [], "d": 1, "e": 1, "P": "Z^2", "Q": "2*Y"},
    "bad.json": {"base_vars": [], "d": 1, "e": 1, "P": "X", "Q": "Y"},
    "broken.json": {"base_vars": [], "d": 1, "e": 1, "P": "Z +* 1", "Q": "Y"},
    "pz.json": {"base_vars": [], "d": 1, "e": 2, "P": "Z", "Q": "Y^2 + Z"},
    "data.json": {"lambda1": "1", "mu1": "1", "beta1_tilde": "1", "g2_prime": "1",
                  "delta1": "0", "alpha1_tilde": "1", "g1_prime": "0"},
    "id.json": {"images": {"X": "X", "Y": "Y", "Z": "Z", "T": "T"}},
    "sigma.json": {"images": {"X": "-X", "Y": "-Y", "Z": "Z", "T": "T"}},
    "zero.json": {"images": {"X": "0", "Y": "Y", "Z": "Z", "T": "T"}},
}
CLI_BATTERY = [
    ["validate", "dd1.json"],
    ["validate", "dd1.json", "--json"],
    ["validate", "bad.json"],
    ["validate", "bad.json", "--json"],
    ["validate", "broken.json"],
    ["validate", "missing.json", "--json"],
    ["validate", "dd1.json", "bad.json", "broken.json"],
    ["invariants", "dd1.json"],
    ["invariants", "dd1.json", "--json"],
    ["invariants", "bad.json"],
    ["invariants", "dd1.json", "dd2.json", "--out", "multi.json"],
    ["omega3", "dd1.json"],
    ["omega3", "s1.json", "--json"],
    ["omega3", "dd1.json", "--budget", "0"],
    ["lnd", "dd1.json"],
    ["lnd", "dd1.json", "--json"],
    ["lnd", "dd1.json", "--cap", "0"],
    ["exp", "dd1.json"],
    ["exp", "dd1.json", "--json"],
    ["exp", "dd1.json", "--cap", "2"],
    ["fiber", "dd1.json"],
    ["fiber", "dd1.json", "--json"],
    ["member", "dd1.json", "--element", '{"-1": "Z^2 - 1"}'],
    ["member", "dd1.json", "--element", '{"-1": "Z - 1"}', "--json"],
    ["member", "dd1.json"],
    ["iso-transport", "dd1.json", "--data", "data.json", "--out", "transport.json"],
    ["iso-transport", "dd1.json", "--data", "data.json", "--json"],
    ["iso-transport", "pz.json", "--data", "data.json"],
    ["iso-transport", "pz.json", "--data", "data.json", "--json"],
    ["iso-verify", "dd1.json", "--target", "target.json", "--forward", "fwd.json"],
    ["iso-verify", "dd1.json", "--target", "target.json", "--forward", "fwd.json",
     "--backward", "bwd.json", "--json"],
    ["iso-verify", "dd1.json", "--target", "dd1.json", "--forward", "zero.json"],
    ["iso-verify", "dd1.json", "--target", "dd1.json", "--forward", "zero.json",
     "--backward", "id.json", "--json"],
    ["iso-verify", "dd1.json", "--target", "dd1.json", "--forward", "sigma.json",
     "--backward", "id.json"],
    ["iso-verify", "dd1.json", "--target", "dd1.json", "--forward", "sigma.json",
     "--backward", "sigma.json", "--json"],
    ["distinguish", "dd1.json", "--other", "dd2.json"],
    ["distinguish", "dd1.json", "--other", "dd2.json", "--json"],
    ["distinguish", "dd1.json", "--other", "dd1.json"],
    ["cancel-cert", "dd1.json"],
    ["cancel-cert", "dd1.json", "--json"],
    ["cancel-cert", "dd2.json"],
    ["cancel-cert", "dd1.json", "--cap", "4"],
    ["danielewski-reduce", "s1.json"],
    ["danielewski-reduce", "s1.json", "--json"],
    ["danielewski-reduce", "dd1.json"],
    ["cancel-cert", "dd1.json", "dd2.json", "--jobs", "2", "--out", "batch.json"],
]
CLI_DIGEST = "4887673c6484e39b12d24f1d7b817fe7a13bc09b77d539be485427de741a334e"


def test_cli_output_is_byte_identical(tmp_path, monkeypatch, capsys):
    # the input path is printed, so the battery runs on relative names
    monkeypatch.chdir(tmp_path)
    for name, record in CLI_FILES.items():
        (tmp_path / name).write_text(json.dumps(record))
    h = hashlib.sha256()
    for argv in CLI_BATTERY:
        code = main(argv)
        captured = capsys.readouterr()
        h.update(json.dumps([argv, code, captured.out, captured.err]).encode())
        if argv[0] == "iso-transport" and "--out" in argv:
            transport = json.loads((tmp_path / "transport.json").read_text())
            for name, record in (("target.json", transport["target"]),
                                 ("fwd.json", {"images": transport["forward"]}),
                                 ("bwd.json", {"images": transport["backward"]})):
                (tmp_path / name).write_text(json.dumps(record))
    for name in ("multi.json", "transport.json", "batch.json"):
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == CLI_DIGEST
