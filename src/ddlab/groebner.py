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
        """The reference order of the tests and benchmarks; division uses `_neg_key`."""
        if self.kind == "grevlex":
            return grevlex_key(exps)
        if self.kind == "lex":
            return exps
        if self.kind == "blocks":
            return tuple(
                grevlex_key(tuple(exps[i] for i in blk)) for blk in self.blocks
            )
        raise ValueError(f"unknown order kind {self.kind!r}")


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


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _s_pair(ctx: Context, lm_i: Exponents, lm_j: Exponents):
    """The S-pair of two leading monomials: None when they are coprime (the
    product criterion: such a pair never yields a new element), otherwise
    their lcm and the monomials that lift lm_i and lm_j to it."""
    lcm = _lcm(lm_i, lm_j)
    if lcm == tuple(map(_add_op, lm_i, lm_j)):
        return None
    return (
        lcm,
        Polynomial._raw(ctx, {tuple(map(_sub_op, lcm, lm_i)): 1}),
        Polynomial._raw(ctx, {tuple(map(_sub_op, lcm, lm_j)): 1}),
    )


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
    """Monic basis polynomials with what division by them needs, kept in step.

    `push` divides each nonzero element by its leading coefficient under
    `order` and records its leading monomial (`lms`), the `_neg_key` of that
    monomial, and its tail, the other terms in `p.terms` order as
    (exponents, neg_key, negated coefficient) triples.  `integral` is true
    while every element has integer coefficients.
    """

    __slots__ = ("order", "lms", "lead_keys", "tails", "integral")

    def __init__(self, order: MonomialOrder, polys: Iterable[Polynomial] = ()):
        super().__init__()
        self.order = order
        self.lms: list[Exponents] = []
        self.lead_keys: list[tuple] = []
        self.tails: list[list[tuple[Exponents, tuple, object]]] = []
        self.integral = True
        for p in polys:
            self.push(p)

    def push(self, p: Polynomial):
        """Append p made monic; return the leading coefficient it was divided by."""
        neg_key = _neg_key(self.order, len(p.ctx.names))
        keyed = [(e, neg_key(e), c) for e, c in p.terms.items()]
        lm, lead_key, lc = min(keyed, key=itemgetter(1))
        if lc != 1:
            keyed = [(e, k, coeff_div(c, lc)) for e, k, c in keyed]
            p = Polynomial._raw(p.ctx, {e: c for e, _, c in keyed})
        self.append(p)
        self.lms.append(lm)
        self.lead_keys.append(lead_key)
        self.tails.append([(e, k, -c) for e, k, c in keyed if e != lm])
        self.integral = self.integral and all(type(c) is int for _, _, c in keyed)
        return lc


def _normal_form(
    f: Polynomial, basis: _Divisors, budget: _Budget
) -> tuple[Polynomial, list[Polynomial]]:
    """Multivariate division by a monic basis, deterministic (first divisor in
    basis order).

    Works on an in-place term dict with a lazy min-heap of (neg_key, exps)
    tuples; every reduction step consumes budget.  The key is linear in the
    exponents, so a new term's key is the quotient's key plus the tail
    term's.  When the basis has integer coefficients, f is scaled
    to integers once, the loop runs on native ints, and remainder and
    cofactors are divided by the scale at the end.
    """
    ctx = f.ctx
    lms, lead_keys, tails = basis.lms, basis.lead_keys, basis.tails
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
                for eg, kg, ncg in tails[i]:
                    ee = tuple(map(_add_op, q_exp, eg))
                    cur = get(ee)
                    if cur is None:
                        work[ee] = c * ncg
                        heappush(heap, (tuple(map(_add_op, q_key, kg)), ee))
                    else:
                        s = cur + c * ncg
                        if s:
                            work[ee] = s
                        else:
                            del work[ee]
                cof = cofs[i]
                s = cof.get(q_exp, 0) + c
                if s:
                    cof[q_exp] = s
                else:
                    del cof[q_exp]
                break
        else:
            rem[e] = norm_coeff(c)  # Fraction arithmetic leaves integers as Fraction(n, 1)
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
    if any(g.ctx != ctx for g in gens):
        raise ContextMismatch("generators in mixed contexts")
    if order is None:
        order = MonomialOrder.grevlex()
    budget_box = _Budget(budget)

    basis = _Divisors(order)
    lms = basis.lms
    rows: list[list[Polynomial]] = []  # basis[i] = sum_j rows[i][j]*gens[j]

    # each pair is pushed once and popped once, so the heap holds exactly
    # the pending pairs; the chain criterion reads the set
    pending: set[tuple[int, int]] = set()
    pair_heap: list[tuple[int, int, int]] = []

    def push(p: Polynomial, row: list[Polynomial]):
        lc = basis.push(p)
        rows.append([c.scale(Fraction(1) / lc) for c in row])
        j = len(basis) - 1
        for i in range(j):
            pending.add((i, j))
            heapq.heappush(pair_heap, (sum(_lcm(lms[i], lms[j])), i, j))

    for j, g in enumerate(gens):
        if not g.is_zero():
            push(g, [ctx.one() if k == j else ctx.zero() for k in range(len(gens))])

    if not basis:
        return GroebnerBasis(ctx, order, (), tuple(gens), ())

    while pair_heap:
        _, i, j = heapq.heappop(pair_heap)
        pending.discard((i, j))
        pair = _s_pair(ctx, lms[i], lms[j])
        if pair is None:
            continue
        lcm_ij, qi, qj = pair
        # chain criterion
        if any(
            k not in (i, j)
            and _divides(lms[k], lcm_ij)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(basis))
        ):
            continue
        s = qi * basis[i] - qj * basis[j]
        if s.is_zero():
            continue
        rem, cofs = _normal_form(s, basis, budget_box)
        if rem.is_zero():
            continue
        row = [qi * a - qj * b for a, b in zip(rows[i], rows[j])]
        for t, c in enumerate(cofs):
            if not c.is_zero():
                row = [a - c * b for a, b in zip(row, rows[t])]
        push(rem, row)

    # minimalize: drop elements whose leading monomial is divisible by another's
    keep = [
        i for i in range(len(basis))
        if not any(
            k != i and _divides(lms[k], lms[i]) and (lms[k] != lms[i] or k < i)
            for k in range(len(basis))
        )
    ]

    # tail-reduce each survivor against the others, in basis order; the lead
    # of a survivor is divisible by no other lead, so it stays, still monic
    reduced: list[tuple[tuple, Polynomial, list[Polynomial]]] = []
    for i in keep:
        others = [k for k in keep if k != i]
        rem, cofs = _normal_form(basis[i], _Divisors(order, [basis[k] for k in others]), budget_box)
        row = rows[i]
        for k, c in zip(others, cofs):
            if not c.is_zero():
                row = [a - c * b for a, b in zip(row, rows[k])]
        reduced.append((basis.lead_keys[i], rem, row))

    reduced.sort(key=itemgetter(0))
    gb = GroebnerBasis(
        ctx, order, tuple(p for _, p, _ in reduced), tuple(gens), tuple(tuple(r) for _, _, r in reduced)
    )

    _assert_basis_sound(gb, budget_box)
    return gb


def _assert_basis_sound(gb: GroebnerBasis, budget_box: _Budget):
    """Post-run checks: every S-polynomial reduces to zero; cofactor rows are exact."""
    div = gb._divisors
    ctx = gb.ctx
    for i in range(len(div)):
        for j in range(i + 1, len(div)):
            pair = _s_pair(ctx, div.lms[i], div.lms[j])
            if pair is None:
                continue  # coprime leads: the S-polynomial reduces to zero by theory
            _, qi, qj = pair
            s = qi * div[i] - qj * div[j]
            if s.is_zero():
                continue
            rem, _ = _normal_form(s, div, budget_box)
            if not rem.is_zero():
                raise AssertionError("S-polynomial of returned basis does not reduce to zero")
    for p, row in zip(gb.polys, gb.cofactors):
        if sum((c * g for c, g in zip(row, gb.gens)), ctx.zero()) != p:
            raise AssertionError("cofactor row does not reproduce basis element")


def is_unit_ideal(gens: Sequence[Polynomial], budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the ideal generated by gens is the whole ring (reduced basis {1})."""
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return False
    return buchberger(nonzero, budget=budget).is_unit()


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
