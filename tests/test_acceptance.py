"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Every tolerance is exact (symbolic equality); the two runtime bounds are the
ones stated with the criteria: the worked-instance certificate must finish in
under 10 seconds and the derivation grid in under 60 seconds.
"""

import random
import time
from fractions import Fraction

import pytest

from ddlab.cancellation import cancellation_certificate
from ddlab.derivations import (
    canonical_lnd,
    check_derivation_well_defined,
    check_exp_axioms,
    exp_map,
    nilpotency_index,
)
from ddlab.elements import AlgebraContext, membership_with_witness
from ddlab.groebner import BudgetExceeded, buchberger, elimination_ideal, is_unit_ideal
from ddlab.isomorphisms import (
    IsoData,
    RHomomorphism,
    transport_presentation,
    verify_hom,
    verify_iso_pair,
)
from ddlab.laurent import LaurentForm, eval_poly_at_laurent
from ddlab.poly import Context, Polynomial, parse_poly
from ddlab.presentations import DDPresentation, invariant_tuple

from conftest import random_polynomial, random_valid_presentation


def report(number: int, description: str, passed: bool):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def dd1():
    return DDPresentation.make([], 1, 2, "Z^2 - 1", "Y^2 + Z")


@pytest.fixture(scope="module")
def dd3():
    return DDPresentation.make([], 2, 1, "Z^3 + X", "Y^2 + X*Z")


@pytest.fixture(scope="module")
def derivation_grid():
    """(d,e) in {1,2,3}^2 with 20 random valid presentations per cell.

    P has deg_Z <= 4 with a constant leading Z-coefficient; Q has deg_Y <= 3
    under the monicity convention.  Returns the presentations plus the wall
    time spent building and checking the canonical derivation data.
    """
    rng = random.Random(160920)
    cells = []
    t0 = time.time()
    for d in (1, 2, 3):
        for e in (1, 2, 3):
            for _ in range(20):
                pres = random_valid_presentation(rng, d, e, max_r=4, max_s=3,
                                                 constant_lead_p=True)
                actx = AlgebraContext(pres)
                der = canonical_lnd(actx)
                well = check_derivation_well_defined(der)
                indices = {g: nilpotency_index(der, actx.gen(g), cap=32)
                           for g in ("X", "Y", "Z", "T")}
                phi = exp_map(der)
                axioms = check_exp_axioms(phi).passed
                cells.append((pres, actx, der, phi, well, indices, axioms))
    elapsed = time.time() - t0
    return cells, elapsed


def test_criterion_1_worked_instance_certificate(dd1):
    t0 = time.time()
    cert = cancellation_certificate(dd1)
    elapsed = time.time() - t0

    ctx = cert.f.actx.gen_ctx
    ok = cert.certified
    ok = ok and all(item.passed for item in cert.steps)
    ok = ok and cert.f.gen == parse_poly("X^2*W1 + Z", ctx)
    ok = ok and cert.g.gen == parse_poly("X^3*W1^2 + 2*X*Z*W1 + Y", ctx)
    ok = ok and cert.h.gen == parse_poly(
        "X*T + 4*Y*Z*W1 + X*W1 + 2*X^2*Y*W1^2 + 4*X*Z^2*W1^2 + 4*X^3*Z*W1^3 + X^5*W1^4",
        ctx,
    )
    ok = ok and cert.non_iso.not_isomorphic
    ok = ok and cert.non_iso.tuple1.as_tuple() == (1, 2, 2, 2)
    ok = ok and cert.non_iso.tuple2.as_tuple() == (1, 1, 2, 2)
    ok = ok and elapsed < 10.0
    report(1, f"worked-instance certificate (f, g, h exact; {elapsed:.2f}s < 10s)", ok)


def test_criterion_2_canonical_derivation_grid(derivation_grid):
    cells, elapsed = derivation_grid
    failures = []
    for pres, actx, der, phi, well, indices, axioms in cells:
        if not well:
            failures.append((pres, "well-definedness"))
        for g, idx in indices.items():
            if idx is None or idx > 32:
                failures.append((pres, f"nilpotency of {g}"))
        if not axioms:
            failures.append((pres, "exponential-map axioms"))
    ok = not failures and len(cells) == 180 and elapsed < 60.0
    report(2, f"derivation grid, 180 cells, zero failures ({elapsed:.1f}s < 60s)", ok)


def test_criterion_3_nilpotency_index_laws(derivation_grid):
    cells, _ = derivation_grid
    failures = []
    for pres, actx, der, phi, well, indices, axioms in cells:
        if indices["Z"] != 1:
            failures.append((pres, "z-index"))
        lead = pres.P.coefficient_of("Z", pres.P.deg_in("Z"))
        if lead.is_constant() and indices["Y"] != pres.P.deg_in("Z"):
            failures.append((pres, "y-index"))
    report(3, "nilpotency index laws (z-index 1; y-index = deg_Z P)", not failures)


def test_criterion_4_groebner_sanity():
    zctx = Context(("Z",))
    yzctx = Context(("Y", "Z"))
    ok = is_unit_ideal([parse_poly("Z^2 - 1", zctx), parse_poly("2*Z", zctx)]) is True
    ok = ok and is_unit_ideal([parse_poly("Z^2", zctx), parse_poly("2*Z", zctx)]) is False
    ok = ok and is_unit_ideal(
        [parse_poly("Z^2 - 1", yzctx), parse_poly("Y^2 + Z", yzctx), parse_poly("2*Y", yzctx)]
    ) is True

    rng = random.Random(400)
    ctx = Context(("X", "Y", "Z"))
    checked = 0
    while checked < 200:
        gens = [random_polynomial(rng, ctx, max_terms=3, max_exp=4)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        try:
            gb = buchberger(gens, budget=200_000)
        except BudgetExceeded:
            continue
        if not gb.polys:
            continue
        # independent S-polynomial zero-reduction check on the returned basis
        order = gb.order
        for i in range(len(gb.polys)):
            for j in range(i + 1, len(gb.polys)):
                gi, gj = gb.polys[i], gb.polys[j]
                li = max(gi.terms, key=order.key)
                lj = max(gj.terms, key=order.key)
                lcm = tuple(max(a, b) for a, b in zip(li, lj))
                qi = Polynomial(ctx, {tuple(a - b for a, b in zip(lcm, li)): Fraction(1) / gi.terms[li]})
                qj = Polynomial(ctx, {tuple(a - b for a, b in zip(lcm, lj)): Fraction(1) / gj.terms[lj]})
                if not gb.remainder(qi * gi - qj * gj).is_zero():
                    ok = False
        checked += 1
    report(4, "unit-ideal examples and 200 random S-polynomial post-checks", ok)


def test_criterion_5_membership_soundness(dd1, dd3):
    rng = random.Random(500)
    ok = True
    for pres in (dd1, dd3):
        actx = AlgebraContext(pres)
        for _ in range(100):
            g = random_polynomial(rng, actx.gen_ctx, max_terms=3, max_exp=2)
            form = actx.to_laurent(g)
            result = membership_with_witness(form, actx)
            if not result.member or actx.to_laurent(result.witness) != form:
                ok = False
    actx1 = AlgebraContext(dd1)
    reject = membership_with_witness(
        LaurentForm(actx1.coeff_ctx, {-1: parse_poly("Z - 1", actx1.coeff_ctx)}), actx1
    )
    ok = ok and not reject.member
    report(5, "membership round trip on 200 random elements; non-member rejected", ok)


def _fiber(pres):
    base = pres.base.variables
    ctx = Context(("X", "Y", "T", "Z") + base)
    x = ctx.var("X")
    rel1 = x ** pres.d * ctx.var("Y") - pres.P.transfer(ctx)
    rel2 = x ** pres.e * ctx.var("T") - pres.Q.transfer(ctx)
    return elimination_ideal([x, rel1, rel2], {"Z"} | set(base))


def test_criterion_6_fiber_ideal(dd1, dd3):
    out1 = _fiber(dd1)
    ok = [str(p) for p in out1] == ["Z^2 - 1"]
    out3 = _fiber(dd3)
    ok = ok and [str(p) for p in out3] == ["Z^3"]

    rng = random.Random(600)
    for _ in range(20):
        pres = random_valid_presentation(rng, rng.randint(1, 3), rng.randint(1, 3))
        out = _fiber(pres)
        if len(out) != 1:
            ok = False
            continue
        gen = out[0]
        # oracle: the generator must be P(0,Z) up to a nonzero rational factor
        p0 = pres.p_at_x0().transfer(gen.ctx)
        lead = p0.coefficient_of("Z", p0.deg_in("Z")).constant_value()
        if gen != p0.scale(Fraction(1) / lead):
            ok = False
    report(6, "fiber ideal equals (P(0,Z)) exactly on DD1, DD3 and 20 random instances", ok)


def test_criterion_7_isomorphism_round_trips(dd1, dd3):
    rng = random.Random(700)
    ok = True
    for src in (dd1, dd3):
        ctx = src.P.ctx
        for _ in range(25):
            data = IsoData(
                Fraction(rng.choice([1, 2, -1, 3, -2])),
                Fraction(rng.choice([1, -1, 2])),
                Fraction(rng.choice([1, -1, 3])),
                Fraction(rng.choice([1, 2, -3])),
                ctx.monomial({"X": rng.randint(0, 2)}, rng.randint(-2, 2)),
                ctx.monomial({"X": rng.randint(0, 1), "Z": rng.randint(0, 2)}, rng.randint(-2, 2)),
                ctx.monomial({"X": rng.randint(0, 1), "Y": rng.randint(0, src.s - 1),
                              "Z": rng.randint(0, 1)}, rng.randint(-2, 2)),
            )
            result = transport_presentation(src, data)
            if not verify_iso_pair(result.forward, result.backward).passed:
                ok = False
            if invariant_tuple(result.target) != invariant_tuple(src):
                ok = False

    dd1p = DDPresentation.make([], 1, 2, "Z^2 - 1 + X", "(Y - 1)^2 + Z")
    a1, ap = AlgebraContext(dd1), AlgebraContext(dd1p)
    h = RHomomorphism(ap, a1, {"X": a1.gen("X"), "Z": a1.gen("Z"),
                               "Y": a1.element("Y + 1"), "T": a1.gen("T")})
    hinv = RHomomorphism(a1, ap, {"X": ap.gen("X"), "Z": ap.gen("Z"),
                                  "Y": ap.element("Y - 1"), "T": ap.gen("T")})
    ok = ok and verify_hom(h) and verify_hom(hinv) and verify_iso_pair(h, hinv).passed
    report(7, "50 random transports verify and preserve invariants; explicit pair verifies", ok)


def test_criterion_8_exponential_shift_identity(derivation_grid):
    cells, _ = derivation_grid
    failures = 0
    for pres, actx, der, phi, well, indices, axioms in cells:
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
        if image_y != route:
            failures += 1
    report(8, "exp(D)(y) equals the shifted-P quotient in every grid cell", failures == 0)
