"""Buchberger's algorithm over Q with cofactor tracking.

Provides reduced Groebner bases, ideal membership with explicit cofactors,
unit-ideal tests, and elimination ideals via block orders.  Pair selection is
plain Buchberger with the product and chain criteria and a deterministic
queue (lcm degree, then index), so bases are reproducible.

Each basis element carries its cofactor row, which writes it in the input
generators (extended Buchberger; Cox, Little and O'Shea, Ideals, Varieties,
and Algorithms, 2.6).  During a run a row is one term map
{(generator index, exponents): coefficient}, exact rationals stored as int
where integral: an S-pair row is its parents' maps shifted by the S-pair
monomials and subtracted, and a division subtracts each cofactor times its
divisor's row term by term.  A row still costs one budget step per term
after each cofactor it takes.  Only the rows of the reduced basis become
polynomials, one per generator (`GroebnerBasis.cofactors`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm
from operator import add as _add_op, itemgetter, le as _le_op, sub as _sub_op
from typing import Iterable, Sequence

from .poly import (
    Context,
    ContextMismatch,
    Exponents,
    Polynomial,
    _scaled_int_form,
    _unscale_terms,
    coeff_div,
    grevlex_key,
)

DEFAULT_BUDGET = 100_000


class BudgetExceeded(RuntimeError):
    """The configured step budget was exhausted."""


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on a fixed context.

    `blocks` is an ordered partition of all context positions, compared
    blockwise by grevlex; no blocks is grevlex itself, an elimination order
    is two blocks, and lex is one block per variable (Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, 2.2 and 3.1).
    """

    blocks: tuple[tuple[int, ...], ...] = ()

    @staticmethod
    def elim(ctx: Context, eliminate: Iterable[str]) -> "MonomialOrder":
        """The eliminated variables dominate: blocks (eliminated, rest)."""
        idx = tuple(sorted({ctx.index(n) for n in eliminate}))
        rest = tuple(i for i in range(len(ctx.names)) if i not in idx)
        return MonomialOrder((idx, rest))

    @staticmethod
    def block_sequence(ctx: Context, groups: Iterable[Iterable[str]]) -> "MonomialOrder":
        """Ordered blocks of variables; unlisted variables form the last block."""
        blocks = [tuple(ctx.index(n) for n in group) for group in groups]
        used = {i for blk in blocks for i in blk}
        rest = tuple(i for i in range(len(ctx.names)) if i not in used)
        if rest:
            blocks.append(rest)
        return MonomialOrder(tuple(blocks))

    def key(self, exps: Exponents) -> tuple:
        """The reference order of the tests and benchmarks; division uses `_neg_key`."""
        blocks = self.blocks or (range(len(exps)),)
        return tuple(grevlex_key(tuple(exps[i] for i in blk)) for blk in blocks)


@lru_cache(maxsize=128)
def _neg_key(order: MonomialOrder, nvars: int):
    """Flat negated order key on exponent vectors of length nvars.

    The smallest neg_key is the order's largest monomial, so a min-heap of
    (neg_key, exps) tuples pops in decreasing order.  A block contributes
    minus its degree, then its exponents reversed.
    """
    blocks = order.blocks or (tuple(range(nvars)),)
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

    def tick(self, steps: int = 1):
        self.used += steps
        if self.used > self.limit:
            raise BudgetExceeded(
                f"Groebner step budget of {self.limit} steps exceeded"
            )


class _Divisors(list):
    """Monic basis polynomials with what division by them needs, kept in step.

    `push` divides each nonzero element by its leading coefficient under
    `order` and records its leading monomial (`lms`), the `_neg_key` of that
    monomial, its denominator D_i, the least common denominator of its
    coefficients (`dens`), and its tail, the other terms in `p.terms` order
    as (exponents, neg_key, negated coefficient times D_i) triples, all int.
    The key function is looked up on the first `push`.
    """

    __slots__ = ("order", "lms", "lead_keys", "dens", "tails", "neg_key")

    def __init__(self, order: MonomialOrder, polys: Iterable[Polynomial] = ()):
        super().__init__()
        self.order = order
        self.lms: list[Exponents] = []
        self.lead_keys: list[tuple] = []
        self.dens: list[int] = []
        self.tails: list[list[tuple[Exponents, tuple, int]]] = []
        self.neg_key = None
        for p in polys:
            self.push(p)

    def push(self, p: Polynomial):
        """Append p made monic; return the leading coefficient it was divided by."""
        neg_key = self.neg_key
        if neg_key is None:
            neg_key = self.neg_key = _neg_key(self.order, len(p.ctx.names))
        keyed = [(e, neg_key(e), c) for e, c in p.terms.items()]
        lm, lead_key, lc = min(keyed, key=itemgetter(1))
        if lc != 1:
            keyed = [(e, k, coeff_div(c, lc)) for e, k, c in keyed]
            p = Polynomial._raw(p.ctx, {e: c for e, _, c in keyed})
        den = 1
        for _, _, c in keyed:
            if type(c) is not int:
                den = lcm(den, c.denominator)
        self.append(p)
        self.lms.append(lm)
        self.lead_keys.append(lead_key)
        self.dens.append(den)
        self.tails.append([
            (e, k, -c * den if type(c) is int else -c.numerator * (den // c.denominator))
            for e, k, c in keyed if e != lm
        ])
        return lc

    def subset(self, idx: Iterable[int]) -> "_Divisors":
        """The elements at idx, in that order, sharing what was recorded for
        them: it divides as `_Divisors(order, [self[i] for i in idx])` does,
        without making each element monic and keying its terms again."""
        out = _Divisors(self.order)
        out.neg_key = self.neg_key
        for i in idx:
            out.append(self[i])
            out.lms.append(self.lms[i])
            out.lead_keys.append(self.lead_keys[i])
            out.dens.append(self.dens[i])
            out.tails.append(self.tails[i])
        return out


def _normal_form(
    f: Polynomial, basis: _Divisors, budget: _Budget, cofactors: bool = True
) -> tuple[Polynomial, list[Polynomial] | None]:
    """Multivariate division by a monic basis: each term is reduced by the
    first divisor in `basis` order whose lead divides it.

    Returns the remainder and the cofactors on the divisors, or None in
    their place when `cofactors` is false; then no cofactor is filled,
    rescaled or unscaled.  The cofactors depend on the divisor order, and
    so do the steps; the remainder does too, unless the divisors are a
    Groebner basis (see `GroebnerBasis.remainder`).

    Works on an in-place term dict with a lazy min-heap of (neg_key, exps)
    tuples; every reduction step consumes budget.  The key is linear in the
    exponents, so a new term's key is the quotient's key plus the tail
    term's.  The loop is fraction-free: the work, the remainder and the
    cofactors are native ints over one running denominator, which starts as
    the common denominator of f.  A term of coefficient c is reduced by
    divisor i, whose tail is stored times D_i, with the quotient c / D_i; when
    D_i does not divide c, all three are first multiplied by
    D_i / gcd(c, D_i).  Remainder and cofactors are divided by the
    denominator at the end.  Over an integral basis every D_i is 1 and no
    rescale happens.
    """
    ctx = f.ctx
    lms, lead_keys, dens, tails = basis.lms, basis.lead_keys, basis.dens, basis.tails
    scaled, den = _scaled_int_form(f.terms)
    work = dict(scaled)
    neg_key = _neg_key(basis.order, len(ctx.names))
    heap = [(neg_key(e), e) for e in work]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    get = work.get
    cofs: list[dict] = [{} for _ in lms] if cofactors else []
    rem: dict = {}
    while heap:
        k, e = heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue  # stale entry
        for i, lm in enumerate(lms):
            if all(map(_le_op, lm, e)):
                budget.tick()
                q = c
                d_i = dens[i]
                if d_i != 1:
                    m = d_i // gcd(c, d_i)
                    if m != 1:
                        den *= m
                        c *= m
                        for part in (work, rem, *cofs):
                            for ee in part:
                                part[ee] *= m
                    q = c // d_i
                q_exp = tuple(map(_sub_op, e, lm))
                q_key = tuple(map(_sub_op, k, lead_keys[i]))
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
                if cofactors:
                    # popped monomials strictly decrease, so each q_exp comes once
                    cofs[i][q_exp] = c
                break
        else:
            rem[e] = c
    if den != 1:
        rem = _unscale_terms(rem, den)
        cofs = [_unscale_terms(cof, den) for cof in cofs]
    return Polynomial._raw(ctx, rem), [Polynomial._raw(ctx, cof) for cof in cofs] if cofactors else None


def _remainder(f: Polynomial, basis: _Divisors, budget: _Budget) -> Polynomial:
    """`_normal_form` without cofactors, with the terms of f that no lead
    divides kept out of the heap.  Each monomial is reduced by the first
    divisor whose lead divides it or kept, whatever its coefficient, so the
    division is linear, and such a term is a term of its own remainder: the
    remainder of f is those terms plus that of the rest, in the same steps.
    """
    lms = basis.lms
    kept, rest = {}, {}
    for e, c in f.terms.items():
        if any(all(map(_le_op, lm, e)) for lm in lms):
            rest[e] = c
        else:
            kept[e] = c
    if not rest:
        return f
    rem, _ = _normal_form(Polynomial._raw(f.ctx, rest), basis, budget, cofactors=False)
    return Polynomial._raw(f.ctx, kept) + rem


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis, with each element expressed in the input generators.

    The elements are sorted largest lead first, and every division tries them
    in that order, so the cofactors that `reduce_to_gens` reads are fixed by
    it.  `remainder` reads no cofactors; the remainder of a division
    by a Groebner basis is the same whichever divisor is tried first (Cox,
    Little and O'Shea, Ideals, Varieties, and Algorithms, 2.6).
    """

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

    def remainder(self, f: Polynomial, budget: int = DEFAULT_BUDGET) -> Polynomial:
        """Remainder of f modulo the basis, without cofactors."""
        if f.ctx != self.ctx:
            raise ContextMismatch("polynomial context differs from basis context")
        return _remainder(f, self._divisors, _Budget(budget))

    def reduce_to_gens(self, f: Polynomial, j: int, budget: int = DEFAULT_BUDGET) -> tuple[Polynomial, Polynomial]:
        """Remainder of f plus its cofactor on the input generator gens[j]."""
        if f.ctx != self.ctx:
            raise ContextMismatch("polynomial context differs from basis context")
        rem, cofs = _normal_form(f, self._divisors, _Budget(budget))
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

    Deterministic given the order.  Every reduction step costs one step of
    the budget, and so does every term of a cofactor row that a division
    updates; BudgetExceeded is raised when the budget runs out.  After every
    run the S-polynomial zero-reduction post-check is asserted.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("buchberger requires at least one generator")
    ctx = gens[0].ctx
    if any(g.ctx != ctx for g in gens):
        raise ContextMismatch("generators in mixed contexts")
    if order is None:
        order = MonomialOrder()
    budget_box = _Budget(budget)

    basis = _Divisors(order)
    lms = basis.lms
    rows: list[dict] = []  # basis[i] = the sum of c*x^e*gens[j] over rows[i], {(j, e): c}

    # each pair is pushed once and popped once, so the heap holds exactly
    # the pending pairs; the chain criterion reads the set
    pending: set[tuple[int, int]] = set()
    pair_heap: list[tuple[int, int, int]] = []

    def push(p: Polynomial, row: dict):
        lc = basis.push(p)
        if lc != 1:
            row = {k: coeff_div(c, lc) for k, c in row.items()}
        rows.append(row)
        j = len(basis) - 1
        for i in range(j):
            pending.add((i, j))
            heapq.heappush(pair_heap, (sum(_lcm(lms[i], lms[j])), i, j))

    one = (0,) * len(ctx.names)
    for j, g in enumerate(gens):
        if not g.is_zero():
            push(g, {(j, one): 1})

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
        (mi,), (mj,) = qi.terms, qj.terms
        row = {(col, tuple(map(_add_op, e, mi))): c for (col, e), c in rows[i].items()}
        _sub_shifted(row, rows[j], mj, 1)
        push(rem, _minus_cofactors(row, cofs, rows, budget_box))

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
    reduced: list[tuple[tuple, Polynomial, dict]] = []
    for i in keep:
        others = [k for k in keep if k != i]
        rem, cofs = _normal_form(basis[i], basis.subset(others), budget_box)
        row = _minus_cofactors(dict(rows[i]), cofs, [rows[k] for k in others], budget_box)
        reduced.append((basis.lead_keys[i], rem, row))

    reduced.sort(key=itemgetter(0))
    gb = GroebnerBasis(
        ctx, order, tuple(p for _, p, _ in reduced), tuple(gens),
        tuple(_row_polys(ctx, row, len(gens)) for _, _, row in reduced),
    )

    _assert_basis_sound(gb, budget_box)
    return gb


def _sub_shifted(row: dict, other: dict, m: Exponents, c) -> None:
    """row -= c*x^m*other on cofactor rows, in place; the terms that vanish
    are dropped and the values that are integral stored as int."""
    get = row.get
    for (col, e), b in other.items():
        key = (col, tuple(map(_add_op, e, m)))
        v = get(key, 0) - c * b
        if v:
            row[key] = v if type(v) is int or v.denominator != 1 else v.numerator
        else:
            del row[key]


def _minus_cofactors(row: dict, cofs: list[Polynomial], rows: list[dict], budget_box: _Budget) -> dict:
    """row - sum_t cofs[t]*rows[t], formed in row; after each cofactor the row
    costs one step per term."""
    for c, other in zip(cofs, rows):
        if c.terms:
            for m, q in c.terms.items():
                _sub_shifted(row, other, m, q)
            budget_box.tick(len(row))
    return row


def _row_polys(ctx: Context, row: dict, n: int) -> tuple[Polynomial, ...]:
    """A cofactor row as its n columns, one polynomial per generator."""
    cols: list[dict] = [{} for _ in range(n)]
    for (col, e), c in row.items():
        cols[col][e] = c
    return tuple(Polynomial._raw(ctx, t) for t in cols)


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
            rem, _ = _normal_form(s, div, budget_box, cofactors=False)
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
