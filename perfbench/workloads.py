"""Seeded workloads of the ddlab benchmark: inputs, timed operations, output checks.

Every workload turns a seed into a list of passes; a pass is a list of inputs
with the same mix of input sizes, so runs on different seeds do the same kind
of work.  The runner repeats the inputs of a run `ROUNDS` times and keeps the
median scaled latency of each, and it times `op(x)` only; `check(x, result)` runs
outside the timed region and raises `CheckFailed` on a wrong or unverified
result.
Algebra contexts are built inside `op`, as in a cold command-line run.

The benchmark calls ddlab through module attributes (`cancellation.
cancellation_certificate`, not a copied name), so the tracer's rebinding and
the fault-injection tests see those calls too.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from ddlab import cancellation, derivations, elements, groebner, laurent, poly, presentations

GEN_CTX = poly.Context(("X", "Y", "Z", "T"))
XYZ_CTX = poly.Context(("X", "Y", "Z"))
NILPOTENCY_CAP = 32
BUCHBERGER_BUDGET = 200_000
MAX_SHIFT = 2


class CheckFailed(Exception):
    """An operation returned a wrong or unverified result."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))


# integer, half-integer and third constants: denominators change the cost of a cell
C_KINDS = ((1, 2, 3), (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)),
           (Fraction(1, 3), Fraction(2, 3), Fraction(4, 3)))


def _balanced_cells(rng: random.Random, sizes) -> list[dict]:
    """Certifiable cells P = Z^r + c (c != 0) and Q = Y^s + Z, whose unit-ideal
    conditions hold by construction.

    Slot j of the pass gets d, e and the kind of c by cycling through
    d in {1,2,3}, e in {2,3,4} and the three kinds of c, so that slots three
    apart, often of equal size, differ too.  The seed draws only the sign and
    size of c within its kind, so runs on different seeds do equally hard work.
    """
    cells = []
    for j, (r, s) in enumerate(sizes):
        i = j + j // 3
        c = rng.choice([-1, 1]) * rng.choice(C_KINDS[i % 3])
        cells.append({"base_vars": [], "d": 1 + i % 3, "e": 2 + (i + j) % 3,
                      "P": f"Z^{r} {'+' if c > 0 else '-'} {abs(c)}", "Q": f"Y^{s} + Z"})
    return cells


def _reference_cell(rng: random.Random) -> dict:
    """The cell (d,e,r,s) = (2,2,4,3), with P = Z^4 ± 1: the slowest cell of a pass,
    fixed so that it costs the same on every seed."""
    return {"base_vars": [], "d": 2, "e": 2, "P": f"Z^4 {rng.choice('+-')} 1", "Q": "Y^3 + Z"}


def _random_texts(rng: random.Random, d: int, e: int, r: int, s: int, extra=None) -> dict:
    """A random presentation with deg_Z P = r and deg_Y Q = s, valid by
    construction: the Z^r term of P and the Y^s term of Q have constant
    coefficients, and the other terms have lower degree in Z (for P) and in Y
    (for Q).  P and Q each get `extra` more terms with distinct exponents and
    nonzero coefficients, or 0 to 3 drawn by rng."""
    p = GEN_CTX.monomial({"Z": r}, rng.choice([1, 1, 2, -1, 3]))
    lower = [(x, z) for x in range(3) for z in range(r)]
    for x, z in rng.sample(lower, rng.randint(0, 3) if extra is None else extra):
        p = p + GEN_CTX.monomial({"X": x, "Z": z},
                                 Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 1, 2])))
    q = GEN_CTX.monomial({"Y": s}, rng.choice([1, 1, 2, -2, 3]))
    lower = [(x, y, z) for x in range(3) for y in range(s) for z in range(4)]
    for x, y, z in rng.sample(lower, rng.randint(0, 3) if extra is None else extra):
        q = q + GEN_CTX.monomial({"X": x, "Y": y, "Z": z}, rng.choice([-3, -2, -1, 1, 2, 3]))
    return {"base_vars": [], "d": d, "e": e, "P": str(p), "Q": str(q)}


def _shifted_element(rng: random.Random, pres, ctx: poly.Context):
    """A random element of B whose Laurent form has shift n = MAX_SHIFT exactly.

    X, Y and T map to x, P/x^d and Q/x^e, whose lowest powers of x are x^1,
    x^-d and x^-(d*s + e) with nonzero coefficients in Q[Z].  So the monomial
    X^c Y^a T^b Z^k has shift d*a + (d*s + e)*b - c, and a sum of one monomial
    of shift n and one of smaller shift has shift n.  The monomials have
    degree at most 2 in X, Y and T, which keeps membership cheap and its cost
    even across presentations.
    """
    def shift(c, a, b):
        return pres.d * a + (pres.d * pres.s + pres.e) * b - c

    exps = [(c, a, b) for c in range(3) for a in range(3) for b in range(3) if a + b + c <= 2]
    lead = rng.choice([m for m in exps if shift(*m) == MAX_SHIFT])
    lower = [m for m in exps if shift(*m) < MAX_SHIFT]
    total = ctx.zero()
    for c, a, b in [lead] + rng.sample(lower, 1):
        coeff = Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.choice([1, 1, 1, 2, 3]))
        total = total + ctx.monomial({"X": c, "Y": a, "T": b, "Z": rng.randint(0, 2)}, coeff)
    return total


def _random_poly(rng: random.Random, ctx: poly.Context, max_terms: int, max_exp: int):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) if rng.random() < 0.6 else 0 for _ in ctx.names)
        coeff = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 1, 2, 3]))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return poly.Polynomial(ctx, terms)


def _load(texts: dict):
    pres = presentations.load_presentation(texts)
    pres.require_valid()
    return pres


# -- cert-family ------------------------------------------------------------------


class CertFamily:
    """cancellation_certificate on cells (d, e, r, s) with P = Z^r + c, Q = Y^s + Z.

    Cost grows with r*s, from 0.1 s to 5 s per cell.  The pass holds two cells
    each of (r,s) = (2,2), (3,2), (2,3), one each of (4,2) and (3,3) with d, e
    and c drawn as in `_balanced_cells`, and the reference cell (2,2,4,3), in
    seeded order.  Mostly small cells put the median latency inside a group
    of similar cells.  A 25 s run executes one pass in each of its three
    rounds, so only one is built; a faster program repeats it.
    """

    name = "cert-family"
    ROUNDS = 3
    PASSES = 1
    SIZES = [(2, 2), (3, 2), (2, 3)] * 2 + [(4, 2), (3, 3)]

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.passes = []
        for _ in range(self.PASSES):
            cells = _balanced_cells(rng, self.SIZES) + [_reference_cell(rng)]
            rng.shuffle(cells)
            self.passes.append([(texts, _load(texts)) for texts in cells])
        self.params = {"passes": self.PASSES, "rounds": self.ROUNDS,
                       "(r,s) per pass": self.SIZES + [(4, 3)], "d": [1, 2, 3], "e": [2, 3, 4],
                       "P": "Z^r + c", "Q": "Y^s + Z",
                       "c": "±{1,2,3}, ±{1/2,3/2,5/2}, ±{1/3,2/3,4/3}; ±1 for (2,2,4,3)"}

    def op(self, x):
        cert = cancellation.cancellation_certificate(x[1])
        return cert, json.dumps(cert.to_json())

    def check(self, x, result):
        texts, pres = x
        cert, _ = result
        d, e = texts["d"], texts["e"]
        r, s = pres.r, pres.s
        _require(cert.certified, f"not certified: {cert.verdict}")
        _require(all(step.passed for step in cert.steps), "a certificate step failed")
        _require(presentations.invariant_tuple(pres).as_tuple() == (d, e, r, s), "input tuple")
        _require(presentations.invariant_tuple(cert.small_presentation).as_tuple()
                 == (d, e - 1, r, s), "smaller tuple is not (d, e-1, r, s)")
        expected_f = poly.parse_poly(f"X^{d + e - 1}*W1 + Z", cert.f.gen.ctx)
        _require(cert.f.gen == expected_f, f"f = {cert.f.gen}, expected {expected_f}")

    def fingerprint(self, result) -> str:
        return _digest(result[1])


# -- derivation-grid ---------------------------------------------------------------


class DerivationGrid:
    """Canonical derivation, exponential map and their checks on random valid
    presentations: Laurent evaluation and polynomial multiplication with no
    Groebner work.  A pass holds one presentation per (d, e) in {1,2,3}^2;
    a 25 s run executes about 13 passes in each of its eight rounds.

    The cost of a presentation depends mostly on r = deg_Z P, s = deg_Y Q and
    the number of terms, so these follow a fixed design: over any 12
    consecutive passes each (d, e) gets every (r, s) in {1..4} x {1..3} once
    (4 and 3 are coprime), and P and Q have two lower terms each.  The seed
    draws the coefficients, the lower terms and the order, so runs on
    different seeds do equally hard work.
    """

    name = "derivation-grid"
    ROUNDS = 8
    PASSES = 24

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.passes = []
        for k in range(self.PASSES):
            cells = [_random_texts(rng, d, e, r=1 + (k + d + e) % 4, s=1 + (k + d) % 3, extra=2)
                     for d in (1, 2, 3) for e in (1, 2, 3)]
            rng.shuffle(cells)
            self.passes.append([_load(texts) for texts in cells])
        self.params = {"passes": self.PASSES, "rounds": self.ROUNDS, "ops_per_pass": 9, "(d,e)": "{1,2,3}^2",
                       "deg_Z P": "1 + (k + d + e) % 4 in pass k",
                       "deg_Y Q": "1 + (k + d) % 3 in pass k",
                       "lower terms of P and of Q": 2, "nilpotency cap": NILPOTENCY_CAP}

    def op(self, pres):
        actx = elements.AlgebraContext(pres)
        der = derivations.canonical_lnd(actx)
        well = derivations.check_derivation_well_defined(der)
        indices = {g: derivations.nilpotency_index(der, actx.gen(g), NILPOTENCY_CAP)
                   for g in ("X", "Y", "Z", "T")}
        phi = derivations.exp_map(der)
        axioms = derivations.check_exp_axioms(phi)
        return well, indices, phi, axioms

    def check(self, pres, result):
        well, indices, _, axioms = result
        _require(well is True, "derivation not well defined")
        _require(axioms.passed, "exponential-map axioms failed")
        _require(indices["Z"] == 1, f"z-index {indices['Z']} != 1")
        _require(indices["Y"] == pres.P.deg_in("Z"),
                 f"y-index {indices['Y']} != deg_Z P = {pres.P.deg_in('Z')}")

    def fingerprint(self, result) -> str:
        well, indices, phi, axioms = result
        return _digest(json.dumps([well, {k: str(v) for k, v in indices.items()},
                                   phi.to_json(), axioms.to_json()], sort_keys=True))


# -- ideal-ops -----------------------------------------------------------------------


class IdealOps:
    """Four kinds of small Groebner task: a membership round trip with shift
    n = 2, omega3_check, the fiber elimination ideal, and buchberger on a
    random ideal of Q[X,Y,Z]; a pass holds 2 omega3, 2 fiber and 4 buchberger
    tasks, and every fourth pass, the first included, a membership.  Many fresh
    bases and small divisions, where the certificate divides a few large
    polynomials by cached bases.  Tasks stay small: buchberger gets 1 to 3
    generators of 1 or 2 terms, and membership, the dearest task, comes once
    in four passes.  A few tasks of 10 to 300 ms, as 3 generators of 3 terms
    gave, would take a third of the time, and their runs spread more than
    those of short tasks.
    Membership is the only task that evaluates Laurent forms, and the mix
    keeps that under 5% of the time.  The membership input of the first pass
    is a known non-member.  A 25 s run executes about 550 passes, cycling
    through the 330 built; building more would double the set-up time.

    Membership costs most per task, so its presentations follow a fixed
    design: pass 4k uses MEMBER_CELLS[k % 24] for (d, e, deg_Z P, deg_Y Q),
    and each element has one term besides the one that sets its shift.
    """

    name = "ideal-ops"
    ROUNDS = 5
    PASSES = 330
    MEMBER_CELLS = [(d, e, r, s) for r in (2, 3, 1) for s in (1, 2) for d in (1, 2) for e in (1, 2)]

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.passes = []
        for k in range(self.PASSES):
            tasks = []
            if k % 4 == 0:
                cell = self.MEMBER_CELLS[k // 4 % len(self.MEMBER_CELLS)]
                tasks.append(self._member(rng, cell, k == 0))
            for _ in range(2):
                tasks += [self._omega3(rng), self._fiber(rng)]
            tasks += [self._buchberger(rng) for _ in range(4)]
            rng.shuffle(tasks)
            self.passes.append(tasks)
        self.params = {"passes": self.PASSES, "rounds": self.ROUNDS,
                       "per pass": "2 omega3, 2 fiber, 4 buchberger; 1 member in passes 4k",
                       "tasks": ["omega3", "fiber", "member", "buchberger"],
                       "non-members per run": 1, "membership shift": MAX_SHIFT,
                       "membership (d,e,r,s)": "MEMBER_CELLS[k % 24] in pass 4k",
                       "buchberger generators": "1-3, each of 1-2 terms",
                       "buchberger budget": BUCHBERGER_BUDGET}

    @staticmethod
    def _omega3(rng):
        """Unit-ideal conditions hold iff P(0,Z) is squarefree here: the
        positive draws use Z^r + c, the negative ones (Z + c)^r."""
        r, s = rng.choice([2, 3, 4]), rng.choice([2, 3])
        c = _small_rational(rng)
        holds = rng.random() < 0.5
        p0 = GEN_CTX.monomial({"Z": r}) + GEN_CTX.const(c) if holds else \
            (GEN_CTX.var("Z") + GEN_CTX.const(c)) ** r
        p = p0 + GEN_CTX.monomial({"X": rng.randint(1, 2), "Z": rng.randint(0, r - 1)},
                                  rng.randint(-3, 3))
        q = GEN_CTX.monomial({"Y": s}) + GEN_CTX.var("Z") + \
            GEN_CTX.monomial({"X": 1, "Y": rng.randint(0, s - 1)}, rng.randint(-2, 2))
        texts = {"base_vars": [], "d": rng.randint(1, 3), "e": rng.randint(1, 3),
                 "P": str(p), "Q": str(q)}
        return ("omega3", _load(texts), holds)

    @staticmethod
    def _fiber(rng):
        texts = _random_texts(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3))
        return ("fiber", _load(texts), None)

    @staticmethod
    def _member(rng, cell, non_member: bool):
        pres = _load(_random_texts(rng, *cell))  # the non-member needs r >= 2: cell 0 has r = 2
        actx = elements.AlgebraContext(pres)
        if non_member:
            # x^-1 * h(Z) lies in B iff P(0,Z) divides h, and deg h = 1 < r
            h = poly.parse_poly(f"Z + {rng.randint(1, 5)}", actx.coeff_ctx)
            return ("member", (pres, laurent.LaurentForm(actx.coeff_ctx, {-1: h})), True)
        form = actx.to_laurent(_shifted_element(rng, pres, actx.gen_ctx))
        if -form.min_exp() != MAX_SHIFT:
            raise RuntimeError(f"drew an element of shift {-form.min_exp()}, not {MAX_SHIFT}")
        return ("member", (pres, form), False)

    @staticmethod
    def _buchberger(rng):
        while True:
            gens = [_random_poly(rng, XYZ_CTX, max_terms=2, max_exp=2)
                    for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if gens:
                return ("buchberger", gens, None)

    def op(self, x):
        kind, data, _ = x
        if kind == "omega3":
            return presentations.omega3_check(data)
        if kind == "fiber":
            ctx = poly.Context(("X", "Y", "T", "Z"))
            xv = ctx.var("X")
            rel1 = xv ** data.d * ctx.var("Y") - data.P.transfer(ctx)
            rel2 = xv ** data.e * ctx.var("T") - data.Q.transfer(ctx)
            return groebner.elimination_ideal([xv, rel1, rel2], {"Z"})
        if kind == "member":
            pres, form = data
            return elements.membership_with_witness(form, elements.AlgebraContext(pres))
        return groebner.buchberger(data, budget=BUCHBERGER_BUDGET)

    def check(self, x, result):
        kind, data, expect = x
        if kind == "omega3":
            _require(result.passed == expect, f"omega3 verdict {result.passed}, expected {expect}")
        elif kind == "fiber":
            _require(len(result) == 1, f"fiber ideal has {len(result)} generators")
            p0 = data.p_at_x0().transfer(result[0].ctx)
            lead = p0.coefficient_of("Z", p0.deg_in("Z")).constant_value()
            _require(result[0] == p0.scale(Fraction(1) / lead), "fiber generator is not monic P(0,Z)")
        elif kind == "member":
            pres, form = data
            if expect:
                _require(not result.member, "known non-member accepted")
            else:
                _require(result.member, "member rejected")
                actx = elements.AlgebraContext(pres)
                _require(actx.to_laurent(result.witness) == form, "witness does not reproduce input")
        else:
            _check_groebner_basis(data, result)

    def fingerprint(self, result) -> str:
        if isinstance(result, presentations.Report):
            text = json.dumps(result.to_json(), sort_keys=True)
        elif isinstance(result, list):
            text = json.dumps([str(g) for g in result])
        elif isinstance(result, elements.MembershipResult):
            text = json.dumps([result.member, str(result.witness), result.certificate])
        else:
            text = json.dumps([str(g) for g in result.polys])
        return _digest(text)


def _check_groebner_basis(gens, gb):
    """Every generator reduces to zero and every S-polynomial of the basis
    reduces to zero, by division written here rather than in ddlab."""
    _require(gb.polys, "empty basis for a nonzero ideal")
    order = gb.order
    leads = [max(g.terms, key=order.key) for g in gb.polys]
    ctx = gb.ctx
    for g in gens:
        _require(_remainder(g, gb.polys, leads, order).is_zero(), "generator not in the ideal of the basis")
    for i in range(len(gb.polys)):
        for j in range(i + 1, len(gb.polys)):
            li, lj = leads[i], leads[j]
            lcm = tuple(max(a, b) for a, b in zip(li, lj))
            gi, gj = gb.polys[i], gb.polys[j]
            qi = poly.Polynomial(ctx, {tuple(a - b for a, b in zip(lcm, li)): 1 / Fraction(gi.terms[li])})
            qj = poly.Polynomial(ctx, {tuple(a - b for a, b in zip(lcm, lj)): 1 / Fraction(gj.terms[lj])})
            rem = _remainder(qi * gi - qj * gj, gb.polys, leads, order)
            _require(rem.is_zero(), f"S-polynomial of basis elements {i}, {j} does not reduce to zero")


def _remainder(f, basis, leads, order):
    """Plain multivariate division remainder (first divisor wins)."""
    ctx = f.ctx
    work = dict(f.terms)
    rem = {}
    while work:
        e = max(work, key=order.key)
        c = work[e]
        for g, lm in zip(basis, leads):
            if all(a >= b for a, b in zip(e, lm)):
                q = poly.Polynomial(ctx, {tuple(a - b for a, b in zip(e, lm)): Fraction(c) / g.terms[lm]})
                for ee, cc in (q * g).terms.items():
                    s = work.get(ee, 0) - cc
                    if s:
                        work[ee] = s
                    else:
                        work.pop(ee, None)
                break
        else:
            rem[e] = work.pop(e)
    return poly.Polynomial(ctx, rem)


# -- cli-batch -----------------------------------------------------------------------


class CliBatch:
    """`python -m ddlab.cli cancel-cert <files> --jobs N --json --out F`, one
    batch per operation: interpreter start, import, process-pool fan-out and
    JSON rendering.  A batch lists first the reference cell (2,2,4,3), which
    sets the batch time, then two cells each of (r,s) = (2,2), (3,2), (2,3)
    drawn as in `_balanced_cells`.  A 25 s run executes one batch in each of
    its four rounds, so one is built."""

    name = "cli-batch"
    ROUNDS = 4
    PASSES = 1
    SMALL = [(2, 2), (3, 2), (2, 3)] * 2

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.passes = []
        for k in range(self.PASSES):
            cells = _balanced_cells(rng, self.SMALL)
            files = []
            for i, texts in enumerate([_reference_cell(rng)] + cells):
                path = workdir / f"batch{k}-cell{i}.json"
                path.write_text(json.dumps(texts), encoding="utf-8")
                files.append(path)
            self.passes.append([files])
        self.params = {"passes": self.PASSES, "rounds": self.ROUNDS,
                       "files per batch": 1 + len(self.SMALL),
                       "large cell": "(2,2,4,3), P = Z^4 ± 1, first",
                       "small cells": "two each of (r,s) = (2,2), (3,2), (2,3)",
                       "jobs": "min(2, nproc)"}

    @staticmethod
    def check_report(returncode: int, report_text: str, nfiles: int):
        _require(returncode == 0, f"exit code {returncode}")
        report = json.loads(report_text)
        _require(isinstance(report, list) and len(report) == nfiles, "wrong number of verdicts")
        for item in report:
            _require(item.get("verdict") == "non-cancellation pair certified",
                     f"{item.get('input')}: {item.get('verdict')}")


WORKLOADS = {w.name: w for w in (CertFamily, DerivationGrid, IdealOps, CliBatch)}


def make(name: str, seed: int, workdir: Path):
    cls = WORKLOADS[name]
    return cls(seed, workdir) if cls is CliBatch else cls(seed)
