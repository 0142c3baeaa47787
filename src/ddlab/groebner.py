"""Buchberger's algorithm over Q with cofactor tracking.

Provides reduced Groebner bases, ideal membership with explicit cofactors,
unit-ideal tests, and elimination ideals via block orders.  Pair selection is
plain Buchberger with the product and chain criteria and a deterministic
queue (lcm degree, then index), so bases are reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add as _add_op, itemgetter, le as _le_op, sub as _sub_op
from typing import Iterable, Sequence

from .poly import (
    Context,
    ContextMismatch,
    Exponents,
    Polynomial,
    _scaled_int_form,
    coeff_div,
    grevlex_key,
    norm_coeff,
)

DEFAULT_BUDGET = 100_000


class BudgetExceeded(RuntimeError):
    """The configured reduction-step budget was exhausted."""


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on a fixed context.

    kind is one of "grevlex", "lex", "blocks".  For "blocks", `blocks` is an
    ordered partition of all context positions, compared blockwise by
    grevlex; an elimination order is two blocks.
    """

    kind: str
    blocks: tuple[tuple[int, ...], ...] = ()

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder("grevlex")

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def elim(ctx: Context, eliminate: Iterable[str]) -> "MonomialOrder":
        """The eliminated variables dominate: blocks (eliminated, rest)."""
        idx = tuple(sorted({ctx.index(n) for n in eliminate}))
        rest = tuple(i for i in range(len(ctx.names)) if i not in idx)
        return MonomialOrder("blocks", blocks=(idx, rest))

    @staticmethod
    def block_sequence(ctx: Context, groups: Iterable[Iterable[str]]) -> "MonomialOrder":
        """Ordered blocks of variables; unlisted variables form the last block."""
        blocks = [tuple(ctx.index(n) for n in group) for group in groups]
        used = {i for blk in blocks for i in blk}
        rest = tuple(i for i in range(len(ctx.names)) if i not in used)
        if rest:
            blocks.append(rest)
        return MonomialOrder("blocks", blocks=tuple(blocks))

    def key(self, exps: Exponents) -> tuple:
        if self.kind == "grevlex":
            return grevlex_key(exps)
        if self.kind == "lex":
            return exps
        if self.kind == "blocks":
            return tuple(
                grevlex_key(tuple(exps[i] for i in blk)) for blk in self.blocks
            )
        raise ValueError(f"unknown order kind {self.kind!r}")

    def to_json(self):
        return {"kind": self.kind, "blocks": [list(b) for b in self.blocks]}


@lru_cache(maxsize=128)
def _neg_key(order: MonomialOrder, nvars: int):
    """Flat negated order key on exponent vectors of length nvars.

    The smallest neg_key is the order's largest monomial, so a min-heap of
    (neg_key, exps) tuples pops in decreasing order.  Grevlex is one block;
    a block contributes minus its degree, then its exponents reversed.
    """
    if order.kind == "lex":
        return lambda exps: tuple([-e for e in exps])
    if order.kind == "grevlex":
        blocks = (tuple(range(nvars)),)
    elif order.kind == "blocks":
        blocks = order.blocks
    else:
        raise ValueError(f"unknown order kind {order.kind!r}")
    perm = [i for blk in blocks for i in reversed(blk)]
    take = itemgetter(*perm) if len(perm) > 1 else tuple
    bounds, start = [], 0
    for blk in blocks:
        bounds.append((start, start + len(blk)))
        start += len(blk)

    def neg_key(exps: Exponents) -> tuple:
        flat = take(exps)
        out = ()
        for a, b in bounds:
            part = flat[a:b]
            out += (-sum(part),) + part
        return out

    return neg_key


def _leading(p: Polynomial, order: MonomialOrder) -> tuple[Exponents, Fraction]:
    lm = min(p.terms, key=_neg_key(order, len(p.ctx.names)))
    return lm, p.terms[lm]


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_exp(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x - y for x, y in zip(a, b))


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def tick(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded(
                f"Groebner step budget of {self.limit} reductions exceeded"
            )


class _Divisors(list):
    """Basis polynomials with what division by them needs, kept in step.

    For each nonzero element: its leading (monomial, coefficient) under
    `order`, the `_neg_key` of that monomial, and its tail, the other terms in
    `p.terms` order as (exponents, neg_key, negated coefficient) triples.
    `integral` is true while every element is monic with integer coefficients.
    """

    __slots__ = ("order", "leads", "lead_keys", "tails", "integral")

    def __init__(self, order: MonomialOrder, polys: Iterable[Polynomial] = ()):
        super().__init__()
        self.order = order
        self.leads: list[tuple[Exponents, Fraction]] = []
        self.lead_keys: list[tuple] = []
        self.tails: list[list[tuple[Exponents, tuple, object]]] = []
        self.integral = True
        for p in polys:
            self.push(p)

    def push(self, p: Polynomial):
        neg_key = _neg_key(self.order, len(p.ctx.names))
        keyed = [(e, neg_key(e), c) for e, c in p.terms.items()]
        lm, lead_key, lc = min(keyed, key=itemgetter(1))
        self.append(p)
        self.leads.append((lm, lc))
        self.lead_keys.append(lead_key)
        self.tails.append([(e, k, -c) for e, k, c in keyed if e != lm])
        self.integral = self.integral and lc == 1 and all(type(c) is int for c in p.terms.values())


def _normal_form(
    f: Polynomial, basis: _Divisors, budget: _Budget
) -> tuple[Polynomial, list[Polynomial]]:
    """Multivariate division, deterministic (first divisor in basis order).

    Works on an in-place term dict with a lazy min-heap of (neg_key, exps)
    tuples; every reduction step consumes budget.  The key is linear in the
    exponents, so a new term's key is the quotient's key plus the tail
    term's.  When the basis is monic with integer coefficients, f is scaled
    to integers once, the loop runs on native ints, and remainder and
    cofactors are divided by the scale at the end.
    """
    ctx = f.ctx
    lms = [lm for lm, _ in basis.leads]
    lcs = [norm_coeff(lc) for _, lc in basis.leads]
    lead_keys, tails = basis.lead_keys, basis.tails
    if basis.integral:
        scaled, den = _scaled_int_form({0: f.terms})
        work = dict(scaled[0])
    else:
        work, den = dict(f.terms), 1
    neg_key = _neg_key(basis.order, len(ctx.names))
    heap = [(neg_key(e), e) for e in work]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    get = work.get
    cofs: list[dict] = [{} for _ in lms]
    rem: dict = {}
    while heap:
        k, e = heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue  # stale entry
        for i, lm in enumerate(lms):
            if all(map(_le_op, lm, e)):
                budget.tick()
                q_exp = tuple(map(_sub_op, e, lm))
                q_key = tuple(map(_sub_op, k, lead_keys[i]))
                lc = lcs[i]
                q = c if lc == 1 else coeff_div(c, lc)
                for eg, kg, ncg in tails[i]:
                    ee = tuple(map(_add_op, q_exp, eg))
                    cur = get(ee)
                    if cur is None:
                        work[ee] = q * ncg
                        heappush(heap, (tuple(map(_add_op, q_key, kg)), ee))
                    else:
                        s = cur + q * ncg
                        if s:
                            work[ee] = s
                        else:
                            del work[ee]
                cof = cofs[i]
                s = cof.get(q_exp, 0) + q
                if s:
                    cof[q_exp] = s
                else:
                    del cof[q_exp]
                break
        else:
            rem[e] = c
    if den != 1:
        rem = {e: norm_coeff(Fraction(c, den)) for e, c in rem.items()}
        cofs = [{e: norm_coeff(Fraction(c, den)) for e, c in cof.items()} for cof in cofs]
    return (
        Polynomial._raw(ctx, rem),
        [Polynomial._raw(ctx, c) for c in cofs],
    )


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis, with each element expressed in the input generators."""

    ctx: Context
    order: MonomialOrder
    polys: tuple[Polynomial, ...]
    gens: tuple[Polynomial, ...]
    cofactors: tuple[tuple[Polynomial, ...], ...]  # polys[i] = sum_j cofactors[i][j]*gens[j]
    _divisors: _Divisors = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_divisors", _Divisors(self.order, self.polys))

    def is_unit(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_constant() and not self.polys[0].is_zero()

    def is_zero_ideal(self) -> bool:
        return not self.polys

    def normal_form(self, f: Polynomial, budget: int = DEFAULT_BUDGET) -> tuple[Polynomial, list[Polynomial]]:
        """Remainder of f modulo the basis plus cofactors on the basis elements."""
        if f.ctx != self.ctx:
            raise ContextMismatch("polynomial context differs from basis context")
        return _normal_form(f, self._divisors, _Budget(budget))

    def reduce_to_gens(self, f: Polynomial, j: int, budget: int = DEFAULT_BUDGET) -> tuple[Polynomial, Polynomial]:
        """Remainder of f plus its cofactor on the input generator gens[j]."""
        rem, cofs = self.normal_form(f, budget)
        out = self.ctx.zero()
        for c, row in zip(cofs, self.cofactors):
            if not c.is_zero() and not row[j].is_zero():
                out = out + c * row[j]
        return rem, out


def buchberger(
    gens: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    budget: int = DEFAULT_BUDGET,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Deterministic given the order.  Raises BudgetExceeded when the reduction
    budget runs out.  After every run the S-polynomial zero-reduction
    post-check is asserted.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("buchberger requires at least one generator")
    ctx = gens[0].ctx
    for g in gens:
        if g.ctx != ctx:
            raise ContextMismatch("generators in mixed contexts")
    if order is None:
        order = MonomialOrder.grevlex()
    budget_box = _Budget(budget)

    basis = _Divisors(order)
    leads = basis.leads
    rows: list[list[Polynomial]] = []  # basis[i] = sum_j rows[i][j]*gens[j]

    def push(p: Polynomial, row: list[Polynomial]):
        _, lc = _leading(p, order)
        basis.push(Polynomial._raw(ctx, {e: coeff_div(c, lc) for e, c in p.terms.items()}))
        rows.append([c.scale(Fraction(1) / lc) for c in row])

    pending: set[tuple[int, int]] = set()
    pair_heap: list[tuple[tuple, int, int]] = []

    def add_pair(i: int, j: int):
        pending.add((i, j))
        key = (sum(_lcm(leads[i][0], leads[j][0])), i, j)
        heapq.heappush(pair_heap, (key, i, j))

    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        row = [ctx.one() if k == j else ctx.zero() for k in range(len(gens))]
        new_index = len(basis)
        push(g, row)
        for i in range(new_index):
            add_pair(i, new_index)

    if not basis:
        return GroebnerBasis(ctx, order, (), tuple(gens), ())

    while pending:
        while True:
            _, i, j = heapq.heappop(pair_heap)
            if (i, j) in pending:
                break
        pending.discard((i, j))
        lm_i, lm_j = leads[i][0], leads[j][0]
        lcm_ij = _lcm(lm_i, lm_j)
        # product criterion: coprime leading monomials never yield new elements
        if lcm_ij == tuple(a + b for a, b in zip(lm_i, lm_j)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if (
                _divides(leads[k][0], lcm_ij)
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
            ):
                skip = True
                break
        if skip:
            continue
        qi = Polynomial(ctx, {_sub_exp(lcm_ij, lm_i): Fraction(1)})
        qj = Polynomial(ctx, {_sub_exp(lcm_ij, lm_j): Fraction(1)})
        s = qi * basis[i] - qj * basis[j]
        srow = [qi * a - qj * b for a, b in zip(rows[i], rows[j])]
        if s.is_zero():
            continue
        rem, cofs = _normal_form(s, basis, budget_box)
        if rem.is_zero():
            continue
        row = srow
        for t, c in enumerate(cofs):
            if not c.is_zero():
                row = [a - c * b for a, b in zip(row, rows[t])]
        new_index = len(basis)
        push(rem, row)
        for t in range(new_index):
            add_pair(t, new_index)

    # minimalize: drop elements whose leading monomial is divisible by another's
    keep = []
    for i in range(len(basis)):
        lm_i = leads[i][0]
        dominated = False
        for k in range(len(basis)):
            if k == i:
                continue
            lm_k = leads[k][0]
            if _divides(lm_k, lm_i) and (lm_k != lm_i or k < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    minimal = [(basis[i], rows[i]) for i in keep]

    # tail-reduce each survivor against the others
    reduced: list[tuple[Polynomial, list[Polynomial]]] = []
    for i, (p, row) in enumerate(minimal):
        others = [q for k, (q, _) in enumerate(minimal) if k != i]
        other_rows = [r for k, (_, r) in enumerate(minimal) if k != i]
        rem, cofs = _normal_form(p, _Divisors(order, others), budget_box)
        new_row = row
        for t, c in enumerate(cofs):
            if not c.is_zero():
                new_row = [a - c * b for a, b in zip(new_row, other_rows[t])]
        _, lc = _leading(rem, order)
        rem = Polynomial._raw(ctx, {e: coeff_div(c, lc) for e, c in rem.terms.items()})
        new_row = [c.scale(Fraction(1) / lc) for c in new_row]
        reduced.append((rem, new_row))

    neg_key = _neg_key(order, len(ctx.names))
    reduced.sort(key=lambda pr: neg_key(_leading(pr[0], order)[0]))
    polys = tuple(p for p, _ in reduced)
    cof_matrix = tuple(tuple(r) for _, r in reduced)
    gb = GroebnerBasis(ctx, order, polys, tuple(gens), cof_matrix)

    _assert_basis_sound(gb, budget_box)
    return gb


def _assert_basis_sound(gb: GroebnerBasis, budget_box: _Budget):
    """Post-run checks: every S-polynomial reduces to zero; cofactor rows are exact."""
    div = gb._divisors
    leads = div.leads
    ctx = gb.ctx
    for i in range(len(gb.polys)):
        for j in range(i + 1, len(gb.polys)):
            lcm_ij = _lcm(leads[i][0], leads[j][0])
            if lcm_ij == tuple(a + b for a, b in zip(leads[i][0], leads[j][0])):
                continue  # coprime leads: the S-polynomial reduces to zero by theory
            qi = Polynomial(ctx, {_sub_exp(lcm_ij, leads[i][0]): Fraction(1)})
            qj = Polynomial(ctx, {_sub_exp(lcm_ij, leads[j][0]): Fraction(1)})
            s = qi.scale(coeff_div(1, leads[i][1])) * gb.polys[i] - qj.scale(coeff_div(1, leads[j][1])) * gb.polys[j]
            if s.is_zero():
                continue
            rem, _ = _normal_form(s, div, budget_box)
            if not rem.is_zero():
                raise AssertionError("S-polynomial of returned basis does not reduce to zero")
    for p, row in zip(gb.polys, gb.cofactors):
        acc = ctx.zero()
        for c, g in zip(row, gb.gens):
            acc = acc + c * g
        if acc != p:
            raise AssertionError("cofactor row does not reproduce basis element")


def is_unit_ideal(
    gens: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff the ideal generated by gens is the whole ring (reduced basis {1})."""
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return False
    return buchberger(nonzero, order, budget).is_unit()


def elimination_ideal(
    gens: Sequence[Polynomial],
    keep: Iterable[str],
    budget: int = DEFAULT_BUDGET,
) -> list[Polynomial]:
    """Groebner basis of (gens) intersected with the subring on `keep` variables."""
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return []
    ctx = nonzero[0].ctx
    keep = set(keep)
    for name in keep:
        ctx.index(name)  # validates
    eliminate = [n for n in ctx.names if n not in keep]
    order = MonomialOrder.elim(ctx, eliminate)
    gb = buchberger(nonzero, order, budget)
    return [p for p in gb.polys if p.support_vars() <= keep]
