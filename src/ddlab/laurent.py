"""Laurent polynomials in one inverted variable with polynomial coefficients.

A LaurentForm models an element of Q[u..][z, w..][x, x^-1].  It is stored in
one canonical state, one integral term dict under packed keys, x's exponent
the top field of each key, over one denominator (see `poly._pack`), so
equality of forms is equality in that ring, which is what makes
quotient-algebra equality decidable downstream.
Evaluation, arithmetic and the x-adic division of `elements` work on that
state directly; printing uses the coefficient Polynomials, a view built
on each read.

This module owns evaluation at Laurent images (`_evaluate`) and the image
entries with their power lists (`image_entry`, `_power`); it imports only
`poly`.  Packed keys bound every exponent but x's by 2^32 - 1
(ExponentLimit).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import lcm
from operator import or_
from types import MappingProxyType
from typing import Mapping

from .poly import (
    MAX_PACKED_EXPONENT,
    PACKED_BITS,
    Context,
    ContextMismatch,
    Polynomial,
    _check_packed_exponent,
    _lowest_terms,
    _merge,
    _pack,
    _packed_mul_into,
    _packed_product,
    _scaled_int_form,
    _top,
    _unpack,
)


def _times(form: dict, m: int) -> dict:
    """A copy of an integral term dict with every value multiplied by m."""
    return dict(form) if m == 1 else {e: c * m for e, c in form.items()}


class LaurentForm:
    """A finitely supported map x-exponent -> coefficient polynomial, stored
    as `num` over `den`.

    `num` is one term dict {packed key: int} of the integral numerators,
    x's exponent n in the top field of each key (see `poly._pack`): with sh
    = PACKED_BITS * len(ctx.names), n is key >> sh, and x^k multiplies by
    adding k << sh to every key.  It has no zero value; `den` is the least
    positive denominator, so gcd(den, every numerator value) = 1, and the
    zero form has den 1.  That state is unique for a value, so equality and
    hashing read it as it is.  `num` is never mutated once the form is
    built: a result may hold an operand's `num`, and the power list of an
    image entry holds it.

    `coeffs`, the coefficients as Polynomials, is a view built on each
    read.  Printing and JSON read it, and so does a `transfer` that
    repacks; evaluation, substitution, arithmetic and equality do not.

    `_powers` is None until the form is first used as a variable image.  It
    then holds the form's `image_entry`, whose power list later evaluations
    and x-adic divisions at the same image object reuse; the entry dies with
    the image object.
    """

    __slots__ = ("ctx", "num", "den", "_powers")

    def __init__(self, ctx: Context, coeffs: Mapping[int, Polynomial]):
        """Raises ExponentLimit for an exponent over MAX_PACKED_EXPONENT."""
        for p in coeffs.values():
            if p.ctx != ctx:
                raise ContextMismatch("coefficient context differs from Laurent context")
        # the common denominator of reduced fractions is the least one
        num, den = _scaled_int_form(_pack({int(n): p.terms for n, p in coeffs.items()}, len(ctx.names))[0])
        self._init(ctx, num, den)

    def _init(self, ctx: Context, num: dict, den: int):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_powers", None)

    @classmethod
    def _raw(cls, ctx: Context, num: dict, den: int) -> "LaurentForm":
        """Trusted constructor: (num, den) must be canonical."""
        self = object.__new__(cls)
        self._init(ctx, num, den)
        return self

    def __setattr__(self, *args):
        raise AttributeError("LaurentForm is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: Context) -> "LaurentForm":
        return cls._raw(ctx, {}, 1)

    @classmethod
    def from_poly(cls, p: Polynomial, exponent: int = 0) -> "LaurentForm":
        return cls(p.ctx, {exponent: p})

    @classmethod
    def x_power(cls, ctx: Context, exponent: int) -> "LaurentForm":
        return cls._raw(ctx, {exponent << PACKED_BITS * len(ctx.names): 1}, 1)

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[int, Polynomial]:
        """x-exponent -> nonzero coefficient Polynomial, read-only, built on each read."""
        ctx = self.ctx
        view = {n: Polynomial._raw(ctx, t) for n, t in _unpack(self.num, len(ctx.names), self.den).items()}
        return MappingProxyType(view)

    def is_zero(self) -> bool:
        return not self.num

    def min_exp(self) -> int:
        """Smallest x-exponent with nonzero coefficient; 0 for the zero form."""
        return min(self.num) >> PACKED_BITS * len(self.ctx.names) if self.num else 0

    def deg_in(self, name: str) -> int:
        """Degree in one coefficient variable; -1 for the zero form."""
        ctx = self.ctx
        shift = PACKED_BITS * (len(ctx.names) - 1 - ctx.index(name))
        return max(((e >> shift) & MAX_PACKED_EXPONENT for e in self.num), default=-1)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentForm)
            and self.ctx == other.ctx
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.ctx, self.den, frozenset(self.num.items())))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "LaurentForm"):
        if self.ctx != other.ctx:
            raise ContextMismatch("Laurent forms over different contexts")

    def __add__(self, other: "LaurentForm") -> "LaurentForm":
        self._check(other)
        da, db = self.den, other.den
        den = lcm(da, db)
        out = _times(self.num, den // da)
        _merge(out, other.num if den == db else _times(other.num, den // db))
        return LaurentForm._raw(self.ctx, *_lowest_terms(out, den))

    def __neg__(self) -> "LaurentForm":
        return LaurentForm._raw(self.ctx, _times(self.num, -1), self.den)

    def __sub__(self, other: "LaurentForm") -> "LaurentForm":
        return self + (-other)

    def __mul__(self, other: "LaurentForm") -> "LaurentForm":
        """Raises ExponentLimit, before the product is formed, when it could
        hold an exponent over MAX_PACKED_EXPONENT."""
        self._check(other)
        width = len(self.ctx.names)
        _check_packed_exponent(_top(self.num, width) + _top(other.num, width))
        product = _packed_product(self.num, other.num, width)
        return LaurentForm._raw(self.ctx, *_lowest_terms(product, self.den * other.den))

    def scale(self, q) -> "LaurentForm":
        q = Fraction(q)
        if q == 0:
            return LaurentForm.zero(self.ctx)
        num = self.num if q.numerator == 1 else _times(self.num, q.numerator)
        return LaurentForm._raw(self.ctx, *_lowest_terms(num, self.den * q.denominator))

    def shift(self, k: int) -> "LaurentForm":
        """Multiply by x^k."""
        k <<= PACKED_BITS * len(self.ctx.names)
        return LaurentForm._raw(self.ctx, {e + k: c for e, c in self.num.items()}, self.den)

    # -- conversions --------------------------------------------------------

    def transfer(self, new_ctx: Context) -> "LaurentForm":
        """The form over new_ctx, which must hold every variable it uses.
        Names appended to the context add low fields to every key, which
        moves it, x's exponent included, up by PACKED_BITS per name; other
        contexts repack."""
        if new_ctx == self.ctx:
            return self
        old = self.ctx.names
        if new_ctx.names[:len(old)] == old:
            bits = PACKED_BITS * (len(new_ctx.names) - len(old))
            num = {e << bits: c for e, c in self.num.items()}
            return LaurentForm._raw(new_ctx, num, self.den)
        return LaurentForm(new_ctx, {n: p.transfer(new_ctx) for n, p in self.coeffs.items()})

    def substitute(self, images: Mapping[str, "LaurentForm"], target: Context) -> "LaurentForm":
        """Evaluate coefficient variables at Laurent images (x stays x), all
        levels at once: the numerators are evaluated and the result divided
        by den."""
        form = _unpack(self.num, len(self.ctx.names))
        return _evaluate(form, self.ctx.names, images, target).scale(Fraction(1, self.den))

    def __str__(self) -> str:
        if not self.num:
            return "0"
        coeffs = self.coeffs
        return "{" + ", ".join(f"{n}: {coeffs[n]}" for n in sorted(coeffs)) + "}"

    def __repr__(self):
        return f"<laurent {self}>"

    def to_json(self) -> dict:
        return {str(n): str(p) for n, p in sorted(self.coeffs.items())}


def _evaluate(form: dict, names: tuple, images: Mapping[str, LaurentForm], target: Context) -> LaurentForm:
    """Evaluate a form over the variables `names` at Laurent images over
    target: a term at x-exponent n goes to x^n times its variables' images.

    Only the images of the variables used are read, each through its
    `image_entry` after its context is checked.  Unmapped variables map to
    themselves at x-exponent 0 and must exist in target, or ContextMismatch
    is raised.  Monomial images are applied by exponent arithmetic.  The
    terms are grouped by their exponents in the other, general, variables;
    each group's cofactor is multiplied once by the product of the general
    images' powers.  All products run on native ints under packed keys (see
    `poly._pack`), over one common denominator.  Exponents of the result
    that could exceed MAX_PACKED_EXPONENT raise ExponentLimit before any
    product is formed.
    """
    width = len(target.names)
    sh = PACKED_BITS * width
    monos = []  # (position, packed key, coefficient)
    general = []  # (integral powers of the image, its denominator)
    gpos = []  # the positions of the general images
    bound = 0  # on every exponent of every product formed below
    # the exponents as a list: unpacking an iterator into zip's arguments left
    # larger tuples in the interpreter's free lists and raised peak memory
    for i, column in enumerate(zip(*[e for t in form.values() for e in t])):
        k = max(column)
        if not k:
            continue
        image = images.get(names[i])
        if image is None:
            if names[i] not in target:
                raise ContextMismatch(f"variable {names[i]} missing from target context")
            monos.append((i, 1 << PACKED_BITS * (width - 1 - target.index(names[i])), 1))
            bound += k
            continue
        if image.ctx != target:
            raise ContextMismatch("image context differs from target")
        mono, powers, den, top = image_entry(image)
        bound += k * top
        if mono is not None:
            monos.append((i, *mono))
        else:
            general.append((powers, den))
            gpos.append(i)
    _check_packed_exponent(bound)

    groups: dict = {}
    for level, terms in form.items():
        for exps, c in terms.items():
            e = level << sh
            for i, ei, ci in monos:
                k = exps[i]
                if k:
                    e += ei * k
                    if ci != 1:
                        c = c * ci ** k
            key = tuple([exps[i] for i in gpos])
            cof = groups.get(key)
            if cof is None:
                groups[key] = {e: c}
                continue
            cur = cof.get(e)
            if cur is None:
                cof[e] = c
            else:
                s = cur + c
                if s:
                    cof[e] = s
                else:
                    del cof[e]

    scaled = []
    den = 1
    for key, cof in groups.items():
        cof, dc = _scaled_int_form(cof)
        factor, dg = None, 1
        for (powers, d), k in zip(general, key):
            if k:
                power = _power(powers, k, width)
                factor = power if factor is None else _packed_product(factor, power, width)
                dg *= d ** k
        scaled.append((cof, factor, dc * dg))
        den = lcm(den, dc * dg)
    if len(scaled) == 1 and scaled[0][1] is None:  # no general image: the cofactor is the result
        out = scaled[0][0]
    else:
        out = {}
        for cof, factor, d in scaled:
            m = den // d
            if m != 1:
                cof = {e: c * m for e, c in cof.items()}
            if factor is None:
                _merge(out, cof)
            else:
                _packed_mul_into(out, cof, factor, width)
    return LaurentForm._raw(target, *_lowest_terms(out, den))


def eval_poly_at_laurent(
    p: Polynomial, images: Mapping[str, LaurentForm], target: Context
) -> LaurentForm:
    """Evaluate a polynomial at Laurent images over target; variables of p
    not in `images` map to themselves (see `_evaluate`)."""
    return _evaluate({0: p.terms}, p.ctx.names, images, target)


def eval_in_powers(forms: list[LaurentForm], image: LaurentForm, target: Context) -> LaurentForm:
    """sum_i forms[i]*image^i over target: the value at the image of a
    polynomial in one variable whose coefficients have the given forms.

    The forms are transferred to target, which holds the image.  A monomial
    image shifts and scales each form; another image multiplies it by its
    integral power, from the image's entry (`image_entry`), so a later call
    at the same image object reuses the powers.  Raises ExponentLimit,
    before any term is formed, when a product could hold an exponent over
    MAX_PACKED_EXPONENT: every field of the bitwise or of all keys bounds
    that field of every key.
    """
    if image.ctx != target:
        raise ContextMismatch("image context differs from target")
    mono, powers, dv, top = image_entry(image)
    width = len(target.names)
    forms = [f.transfer(target) for f in forms]
    if len(forms) > 1:  # `_top` masks x's exponent off the or of the keys
        keys = reduce(or_, chain.from_iterable(f.num for f in forms), 0)
        _check_packed_exponent(_top({keys: 0}, width) + (len(forms) - 1) * top)
    den = 1
    for i, f in enumerate(forms):
        den = lcm(den, f.den * dv ** i)
    if mono is not None:  # the integral power i is one term, {i*en: cn^i}
        ((en, cn),) = powers[1].items()
    out: dict = {}
    for i, f in enumerate(forms):
        if f.is_zero():
            continue
        m = den // (f.den * dv ** i)
        if i and mono is None:
            _packed_mul_into(out, f.num if m == 1 else _times(f.num, m), _power(powers, i, width), width)
            continue
        # a shift and a scale
        de, k = (i * en, m * cn ** i) if i else (0, m)
        _merge(out, {e + de: c * k for e, c in f.num.items()})
    return LaurentForm._raw(target, *_lowest_terms(out, den))


def image_entry(image: LaurentForm) -> tuple:
    """The image entry of a form (see `LaurentForm`), made on the first call
    and kept: (packed key, coefficient) of a one-term form, else None; the
    power list, [1, num] at first, which `_power` grows; den; and the
    largest exponent in the form, x's aside."""
    if image._powers is None:
        num, den = image.num, image.den
        mono = None
        if len(num) == 1:
            ((e, c),) = num.items()
            mono = (e, c if den == 1 else Fraction(c, den))
        entry = (mono, [{0: 1}, num], den, _top(num, len(image.ctx.names)))
        object.__setattr__(image, "_powers", entry)
    return image._powers


def _power(powers: list, k: int, width: int) -> dict:
    """The k-th power from the power list of an image entry over `width`
    fields, after the missing powers below it are appended."""
    while len(powers) <= k:
        powers.append(_packed_product(powers[-1], powers[1], width))
    return powers[k]
