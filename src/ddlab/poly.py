"""Exact sparse multivariate polynomials over Q.

Values are immutable after construction.  A Polynomial always belongs to a
Context (an ordered tuple of variable names); the context order fixes the
graded-reverse-lexicographic order used for canonical printing.  Coefficients
are exact rationals: plain ints where possible, `fractions.Fraction`
otherwise; nothing here is approximate.  Polynomial arithmetic, substitution
included, runs on tuple keys and has no exponent limit.

The module also holds the product kernel on packed keys (`_pack`) that the
Laurent layer stores its forms under; it imports no other ddlab module.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, gcd, lcm
from operator import add as _add_op
from struct import Struct
from typing import Iterable, Mapping

Exponents = tuple[int, ...]

VARIABLE_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class ContextMismatch(ValueError):
    """Two values from different variable contexts were combined."""


class ParseError(ValueError):
    """Syntax or name error in a polynomial expression string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def grevlex_key(exps: Exponents) -> tuple:
    """Sort key so that max(key) is the grevlex-largest monomial."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def norm_coeff(value):
    """Exact rational normal form: int when integral, Fraction otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    return norm_coeff(Fraction(value))


def coeff_div(a, b):
    """Exact division of coefficients (never float): int when the quotient
    is integral, Fraction otherwise."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = Fraction(a) / b
    return int(q) if q.denominator == 1 else q


# A term dict maps exponent tuples to coefficients, as Polynomial.terms does.


def _scaled_int_form(terms: dict) -> tuple[dict, int]:
    """Rewrite a term dict over one common denominator, all values int.

    A dict whose values are all int is returned as it is; any other value,
    Fraction(n, 1) included, makes a rescaled copy.
    """
    den = 0  # 0 while every value seen is int
    for c in terms.values():
        if type(c) is not int:
            den = lcm(den, c.denominator) if den else c.denominator
    if not den:
        return terms, 1
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _unscale_terms(terms: dict, den: int) -> dict:
    """Divide every int value of a term dict by den."""
    if den == 1:
        return terms
    return {
        e: c // den if (g := gcd(c, den)) == den else Fraction(c // g, den // g)
        for e, c in terms.items()
    }


def _form_product(a: dict, b: dict) -> dict:
    """The product of two term dicts; denominators are cleared first, so the
    inner loop runs on native ints, and b's terms drive the outer loop."""
    a, da = _scaled_int_form(a)
    b, db = _scaled_int_form(b)
    a = list(a.items())
    out: dict = {}
    get = out.get
    for e2, c2 in b.items():
        for e1, c1 in a:
            e = tuple(map(_add_op, e1, e2))
            prod = c1 * c2
            cur = get(e)
            if cur is None:
                out[e] = prod
            else:
                s = cur + prod
                if s:
                    out[e] = s
                else:
                    del out[e]
    return _unscale_terms(out, da * db)


# The Laurent layer stores a form, a Laurent polynomial in x with polynomial
# coefficients, as one term dict under packed keys: one int per monomial, x's
# exponent included, so that multiplying two monomials is one int addition
# (Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
# packed exponent vectors", CASC 2007).  Polynomials keep their tuple keys.
#
# A product of packed forms takes one of two paths (`_packed_mul_into`).
# Below KRONECKER_PAIRS term pairs, and on forms sparse in z, the top field
# below x, a dict loop forms one monomial product per term pair.  From there
# on, on forms dense in z, Kronecker substitution (Kronecker 1882; Harvey,
# "Faster polynomial multiplication via multipoint Kronecker substitution",
# JSC 2009) packs each group of terms that agree in every field but z into
# one int, a slot per z step, and forms each product of two groups as one
# int product.  Fateman ("Comparing the speed of programs for sparse
# polynomial multiplication", SIGSAM Bull. 2003) compares the two regimes.
# From KRONECKER_PAIRS on, a product with a one-term factor is a shift and a
# scale, with no pair loop.

PACKED_BITS = 32
MAX_PACKED_EXPONENT = 2 ** PACKED_BITS - 1
# the term pairs from which a product may take the Kronecker path: over the
# products of certificates, 256 and 512 took the least time, 4096 about 15%
# more
KRONECKER_PAIRS = 512


class ExponentLimit(ValueError):
    """An exponent too large for the packed keys of the Laurent layer."""


def _check_packed_exponent(k: int) -> None:
    if k > MAX_PACKED_EXPONENT:
        raise ExponentLimit(f"exponent {k} exceeds the packed-exponent limit of {MAX_PACKED_EXPONENT}")


@lru_cache(maxsize=None)
def _fields(width: int) -> Struct:
    """The codec of `width` 32-bit big-endian fields (see `_pack`)."""
    return Struct(f">{width}I")


def _pack(form: dict, width: int) -> tuple[dict, int]:
    """A form {x-exponent: {exponent tuple: value}} over `width` variables
    as one term dict under packed keys, and the largest exponent in it.

    The key of x^n times the exponent vector e is (n << 32*width) + E, E the
    big-endian encoding of e with PACKED_BITS = 32 bits per exponent read as
    one int, so exponent i fills field i from the top of E.  The x-exponent
    n is the top field of the key, signed and unbounded: >> floors, so n is
    key >> 32*width and E is key & (2^(32*width) - 1) for a negative n too,
    and the minimum key has the lowest x-exponent.  The sum of two keys is
    the key of the product of their monomials as long as no field of E
    exceeds MAX_PACKED_EXPONENT = 2^32 - 1.

    No field does.  Only the Laurent layer and the x-adic division of
    `elements` pack; Polynomials keep tuple keys.  Keys are only ever added,
    and an exponent over the limit raises ExponentLimit where it would enter
    packed form: here, for every exponent packed, and before each product,
    from bounds on its factors, which mask the x-exponent off first.  Every
    key that Laurent evaluation (`laurent._evaluate`) forms is the exponent
    of a product of at most k_v terms of the image of each variable v, k_v
    the largest exponent of v in the form evaluated, so its fields are at
    most the sum of k_v times the largest exponent in v's image.  Every key
    that the x-adic division forms is the exponent of a product of a
    quotient term, j terms of y's image and l of t's, and its fields are at
    most the largest exponent of the quotient plus j and l times those of
    the two images.  The fields of a product of two Laurent forms are at
    most the sum of their largest exponents.  These bounds are checked
    before the products are formed.  The x-adic division's long division in
    z forms keys within its input's fields unless the divisor holds other
    variables than z, and then it checks its own bound first
    (`elements._divide_in_z`).

    The Kronecker path of `_packed_mul_into` relies on the same bound: it
    splits a key into its z field, the top field of E, and the rest, the
    x-exponent included, and forms a product's key as the sum of the z
    fields shifted back plus the sum of the rests.  That equals the sum of
    the two keys because no field of the product exceeds
    MAX_PACKED_EXPONENT, so the rests add without a carry into z.
    """
    top = max(chain.from_iterable(chain.from_iterable(form.values())), default=0)
    _check_packed_exponent(top)
    pack, from_bytes, sh = _fields(width).pack, int.from_bytes, PACKED_BITS * width
    return {(n << sh) + from_bytes(pack(*e), "big"): c for n, t in form.items() for e, c in t.items()}, top


def _levels(form: dict, width: int) -> dict:
    """A term dict under packed keys of `width` fields split by x-exponent:
    {x-exponent: {key with the x-exponent masked off: value}}."""
    sh = PACKED_BITS * width
    mask = (1 << sh) - 1
    levels: dict = {}
    for k, c in form.items():
        terms = levels.get(k >> sh)
        if terms is None:
            terms = levels[k >> sh] = {}
        terms[k & mask] = c
    return levels


def _unpack_terms(terms: dict, width: int, den: int = 1) -> dict:
    """A term dict under packed keys of `width` fields and no x-exponent as
    one under tuple keys, every value divided by den."""
    fields = _fields(width)
    unpack, size = fields.unpack, fields.size
    return _unscale_terms({unpack(e.to_bytes(size, "big")): c for e, c in terms.items()}, den)


def _unpack(form: dict, width: int, den: int = 1) -> dict:
    """A term dict under packed keys of `width` fields as a form under tuple
    keys, {x-exponent: {exponent tuple: value}}, every value divided by
    den."""
    return {n: _unpack_terms(t, width, den) for n, t in _levels(form, width).items()}


def _top(form: dict, width: int) -> int:
    """The largest exponent in a term dict under packed keys of `width`
    fields, the x-exponent aside."""
    fields = _fields(width)
    unpack, size = fields.unpack, fields.size
    mask = (1 << PACKED_BITS * width) - 1
    return max(chain.from_iterable(unpack((e & mask).to_bytes(size, "big")) for e in form), default=0)


def _lowest_terms(form: dict, den: int) -> tuple[dict, int]:
    """An integral term dict over den, with no zero value, divided through
    by the gcd of den and all its values, so that den is the least
    denominator; the zero form gets den 1.  The dict is returned as it is
    when that gcd is 1."""
    if den != 1:
        g = gcd(den, *form.values())
        if g != 1:
            return {e: c // g for e, c in form.items()}, den // g
    return form, den


def _merge(out: dict, terms: dict) -> None:
    """out += terms on term dicts, in place, dropping the sums that vanish."""
    if not out:
        out.update(terms)
        return
    get = out.get
    for e, c in terms.items():
        cur = get(e)
        if cur is None:
            out[e] = c
        else:
            c += cur
            if c:
                out[e] = c
            else:
                del out[e]


def _packed_mul_into(out: dict, a: dict, b: dict, width: int) -> None:
    """out += a*b on term dicts under packed keys of `width` fields, in
    place, dropping the sums that vanish.

    Below KRONECKER_PAIRS term pairs, the product is a dict loop, one int
    addition and one dict update per term pair, b's terms driving the outer
    loop.  From there on, a one-term factor shifts and scales the other, and
    other products are formed by Kronecker substitution when the forms are
    dense in z (`_kronecker_mul_into`), else by the dict loop.
    """
    na, nb = len(a), len(b)
    if na * nb >= KRONECKER_PAIRS:
        if na == 1 or nb == 1:
            if nb != 1:
                a, b = b, a
            ((e2, c2),) = b.items()
            _merge(out, {e1 + e2: c1 * c2 for e1, c1 in a.items()})
            return
        if _kronecker_mul_into(out, a, b, width, na, nb):
            return
    a = list(a.items())
    get = out.get
    for e2, c2 in b.items():
        for e1, c1 in a:
            e = e1 + e2
            prod = c1 * c2
            cur = get(e)
            if cur is None:
                out[e] = prod
            else:
                s = cur + prod
                if s:
                    out[e] = s
                else:
                    del out[e]


def _z_groups(form: dict, shift: int) -> dict:
    """The terms of a form under packed keys, z the field at `shift`, grouped
    by the rest of the key, the x-exponent included: {rest: {z: value}}."""
    rest_mask = ~(MAX_PACKED_EXPONENT << shift)
    groups: dict = {}
    for e, c in form.items():
        rest = e & rest_mask
        group = groups.get(rest)
        if group is None:
            group = groups[rest] = {}
        group[(e - rest) >> shift] = c
    return groups


def _kronecker_mul_into(out: dict, a: dict, b: dict, width: int, na: int, nb: int) -> bool:
    """out += a*b by Kronecker substitution in z, the top field below x of
    packed keys of `width` fields, and True; or False, with out untouched,
    when the forms, of na and nb terms, are too sparse in z for it.

    The z-exponents of every group of terms (`_z_groups`) step by a common
    stride g.  A group becomes one int with a slot of B bits per step, B a
    whole number of bytes and at least bits(||a||_1) + bits(max|b|) + 2, so
    that every coefficient of a, of b and of a*b, which is at most
    ||a||_1*max|b|, lies below 2^(B-2) in size.  Each pair of groups is one
    int product.  The products that land on one value of the other fields
    and one residue of z mod g are added, each shifted by its lowest z, and
    the sum is unpacked once: a bias of 2^(B-1) in every slot makes each
    slot its coefficient plus the bias, with no carries.  Groups are packed
    with the same bias.

    Too sparse means fewer than 16 term pairs per pair of groups, or more
    than a third as many output slots as term pairs: unpacking a slot costs
    about what the dict loop spends on three term pairs.
    """
    pairs = na * nb
    shift = PACKED_BITS * (width - 1)
    ga, gb = _z_groups(a, shift), _z_groups(b, shift)
    if len(ga) * len(gb) * 16 > pairs:
        return False
    stride = 0  # positive after the loop: a group has two terms, or the test above failed
    for group in chain(ga.values(), gb.values()):
        lo = min(group)
        stride = gcd(stride, *[z - lo for z in group])
    # (lowest z, slot count) of each group
    spans_a, spans_b = [{rest: (min(group), (max(group) - min(group)) // stride + 1) for rest, group in groups.items()}
                        for groups in (ga, gb)]
    spans: dict = {}  # (rest, residue) -> the output's lowest and highest slot
    for r1, (lo1, k1) in spans_a.items():
        for r2, (lo2, k2) in spans_b.items():
            s0, res = divmod(lo1 + lo2, stride)
            key = (r1 + r2, res)
            span = spans.get(key)
            spans[key] = (s0, s0 + k1 + k2 - 2) if span is None else (
                min(span[0], s0), max(span[1], s0 + k1 + k2 - 2))
    if 3 * sum(s1 - s0 + 1 for s0, s1 in spans.values()) > pairs:
        return False

    norm = sum(map(abs, a.values()))
    top = max(map(abs, b.values()))
    size = (norm.bit_length() + top.bit_length() + 9) // 8  # bytes a slot
    bits, half, bias = 8 * size, 1 << (8 * size - 1), bytes(size - 1) + b"\x80"
    from_bytes = int.from_bytes

    def pack(groups: dict, spans: dict) -> list:
        packed = []
        for rest, group in groups.items():
            lo, k = spans[rest]
            get = group.get
            raw = b"".join([(get(z, 0) + half).to_bytes(size, "little") for z in range(lo, lo + k * stride, stride)])
            packed.append((rest, lo, from_bytes(raw, "little") - from_bytes(bias * k, "little")))
        return packed

    sums = dict.fromkeys(spans, 0)
    packed_b = pack(gb, spans_b)
    for r1, lo1, v1 in pack(ga, spans_a):
        for r2, lo2, v2 in packed_b:
            s0, res = divmod(lo1 + lo2, stride)
            key = (r1 + r2, res)
            sums[key] += (v1 * v2) << (bits * (s0 - spans[key][0]))
    terms: dict = {}  # the keys differ in rest or residue, so no two of them share a term
    step = stride << shift
    for (rest, res), v in sums.items():
        s0, s1 = spans[rest, res]
        k = s1 - s0 + 1
        raw = (v + from_bytes(bias * k, "little")).to_bytes(size * k, "little")
        e = rest + ((res + s0 * stride) << shift)
        for i in range(0, size * k, size):
            c = from_bytes(raw[i:i + size], "little") - half
            if c:
                terms[e] = c
            e += step
    _merge(out, terms)
    return True


def _packed_product(a: dict, b: dict, width: int) -> dict:
    """The product of two integral term dicts under packed keys of `width`
    fields, with no zero value."""
    out: dict = {}
    _packed_mul_into(out, a, b, width)
    return out


class Context:
    """An ordered set of variable names shared by a family of polynomials."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in context: {names}")
        for n in names:
            if not VARIABLE_NAME.fullmatch(n):
                raise ValueError(f"invalid variable name: {n!r}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, *args):
        raise AttributeError("Context is immutable")

    def __eq__(self, other):
        return isinstance(other, Context) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Context{self.names!r}"

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"variable {name!r} not in context {self.names}") from None

    def extend(self, *names: str) -> "Context":
        """New context with extra variables appended (existing ones kept)."""
        extra = tuple(n for n in names if n not in self._index)
        return Context(self.names + extra)

    # -- element builders -------------------------------------------------

    def var(self, name: str) -> "Polynomial":
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return Polynomial._raw(self, {tuple(exps): 1})

    def const(self, value) -> "Polynomial":
        q = norm_coeff(value)
        if q == 0:
            return self.zero()
        return Polynomial._raw(self, {(0,) * len(self.names): q})

    def zero(self) -> "Polynomial":
        return Polynomial._raw(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def monomial(self, exps: Mapping[str, int], coeff=1) -> "Polynomial":
        e = [0] * len(self.names)
        for name, k in exps.items():
            if k < 0:
                raise ValueError(f"negative exponent for {name}")
            e[self.index(name)] = k
        q = norm_coeff(coeff)
        if q == 0:
            return self.zero()
        return Polynomial._raw(self, {tuple(e): q})


class Polynomial:
    """Sparse polynomial: map from exponent vectors to nonzero rationals."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Mapping[Exponents, object]):
        clean = {}
        n = len(ctx.names)
        for exps, coeff in terms.items():
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} does not fit context {ctx.names}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = norm_coeff(coeff)
            if coeff != 0:
                clean[exps] = coeff
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, ctx: Context, terms: dict) -> "Polynomial":
        """Trusted constructor: terms must be clean (no zeros, right width)."""
        self = object.__new__(cls)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        for c in self.terms.values():
            return Fraction(c)
        return Fraction(0)

    def support_vars(self) -> set[str]:
        used = set()
        names = self.ctx.names
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(names[i])
        return used

    def deg_in(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = self.ctx.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def coefficient_of(self, name: str, power: int) -> "Polynomial":
        """Coefficient of name**power, with that variable's exponent zeroed;
        the power 0 substitutes 0 for the variable.  The kept terms share
        that exponent, so zeroing it keeps them distinct."""
        i = self.ctx.index(name)
        return Polynomial(self.ctx, {
            e[:i] + (0,) + e[i + 1:]: c for e, c in self.terms.items() if e[i] == power
        })

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ctx != other.ctx:
            raise ContextMismatch(f"contexts differ: {self.ctx.names} vs {other.ctx.names}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        get = out.get
        for exps, coeff in other.terms.items():
            cur = get(exps)
            if cur is None:
                out[exps] = coeff
            else:
                s = cur + coeff
                if s:
                    out[exps] = s if type(s) is int or s.denominator != 1 else s.numerator
                else:
                    del out[exps]
        return Polynomial._raw(self.ctx, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        get = out.get
        for exps, coeff in other.terms.items():
            cur = get(exps)
            if cur is None:
                out[exps] = -coeff
            else:
                s = cur - coeff
                if s:
                    out[exps] = s if type(s) is int or s.denominator != 1 else s.numerator
                else:
                    del out[exps]
        return Polynomial._raw(self.ctx, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a  # the smaller factor drives the outer loop
        if len(b) == 1:
            # a monomial times a: a shift and a scale, no term of which merges
            ((m, q),) = b.items()
            out = {}
            for e, c in a.items():
                v = c * q
                out[tuple(map(_add_op, e, m))] = v if type(v) is int or v.denominator != 1 else v.numerator
            return Polynomial._raw(self.ctx, out)
        return Polynomial._raw(self.ctx, _form_product(a, b))

    def scale(self, q) -> "Polynomial":
        q = norm_coeff(q)
        if q == 0:
            return self.ctx.zero()
        if q == 1:
            return self
        return Polynomial._raw(self.ctx, {e: norm_coeff(c * q) for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"polynomial power must be a nonnegative integer, got {n}")
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- calculus and substitution -------------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative.  Lowering one positive exponent maps
        distinct terms to distinct terms, so no two of them merge."""
        i = self.ctx.index(name)
        return Polynomial._raw(self.ctx, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] if type(c) is int else norm_coeff(c * e[i])
            for e, c in self.terms.items() if e[i]
        })

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Evaluate at polynomial images; unmapped variables map to themselves.

        All image values must share one target context, and every unmapped
        variable that self uses must exist there under the same name, or
        ContextMismatch is raised (see `transfer`).  The terms are grouped by
        their exponents in the mapped variables; each group is multiplied
        once by the product of the images' powers, each formed once a call.
        """
        if not images:
            return self
        target = next(iter(images.values())).ctx
        for img in images.values():
            if img.ctx != target:
                raise ContextMismatch("substitution images in mixed contexts")
        names = self.ctx.names
        mapped = [i for i, column in enumerate(zip(*self.terms)) if names[i] in images and any(column)]
        groups: dict = {}
        for exps, c in self.terms.items():
            rest = list(exps)
            for i in mapped:
                rest[i] = 0
            groups.setdefault(tuple([exps[i] for i in mapped]), {})[tuple(rest)] = c
        powers = [[target.one(), images[names[i]]] for i in mapped]
        out = target.zero()
        for key, group in groups.items():
            term = Polynomial._raw(self.ctx, group).transfer(target)
            for power, k in zip(powers, key):
                if k:
                    while len(power) <= k:
                        power.append(power[-1] * power[1])
                    term = term * power[k]
            out = out + term
        return out

    def transfer(self, new_ctx: Context) -> "Polynomial":
        """Reinterpret in a different context containing all used variables."""
        if new_ctx == self.ctx:
            return self
        used = self.support_vars()
        for name in used:
            if name not in new_ctx:
                raise ContextMismatch(f"variable {name} missing from target context")
        pos = [new_ctx.index(n) if n in new_ctx else None for n in self.ctx.names]
        out = {}
        width = len(new_ctx.names)
        for exps, coeff in self.terms.items():
            e = [0] * width
            for i, k in enumerate(exps):
                if k:
                    e[pos[i]] = k
            out[tuple(e)] = coeff
        return Polynomial._raw(new_ctx, out)

    # -- printing --------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, object]]:
        """Terms in decreasing grevlex order (the canonical print order)."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for k, (exps, coeff) in enumerate(self.sorted_terms()):
            factors = [
                self.ctx.names[i] if e == 1 else f"{self.ctx.names[i]}^{e}"
                for i, e in enumerate(exps)
                if e
            ]
            mono = "*".join(factors)
            # sign and magnitude from numerator and denominator, with no
            # Fraction arithmetic; str(Fraction(n, d)) is "n/d" for d != 1
            num, den = coeff.numerator, coeff.denominator
            positive = num > 0
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if not mono:
                body = mag
            elif mag == "1":
                body = mono
            else:
                body = f"{mag}*{mono}"
            if k == 0:
                pieces.append(body if positive else f"-{body}")
            else:
                pieces.append(f"+ {body}" if positive else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"<poly {self} over {self.ctx.names}>"


# -- parsing ---------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# Parentheses and signs nest at most this deep: a level of parentheses costs
# four stack frames, which keeps parsing well below the recursion limit.
MAX_NESTING = 100
# A power or product has total degree at most this, checked before it is
# formed: (Z+1)^1000 has 1001 terms.
MAX_DEGREE = 1000
# No product that the parser forms, the squarings and multiplications of a
# power included, multiplies more term pairs than this, checked before it is
# formed: (Z+1)^1000 needs at most 489*513, (X+Y+Z+T+1)^40 would need
# 58905*495.
MAX_TERM_PRODUCTS = 10 ** 6


def _check_degree(degree: int, pos: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the limit of {MAX_DEGREE}", pos)


def _check_term_products(count: int, pos: int) -> None:
    if count > MAX_TERM_PRODUCTS:
        raise ParseError(f"{count} term products exceed the limit of {MAX_TERM_PRODUCTS}", pos)


def _total_degree(p: Polynomial) -> int:
    return max(map(sum, p.terms), default=0)


def _power_term_products(p: Polynomial, n: int) -> int:
    """An upper bound on the term pairs of the largest product that p ** n
    forms, following the squarings of Polynomial.__pow__.

    p^m has at most C(t+m-1, m) terms (multisets of m of p's t terms) and
    at most C(m*D+v, v) (monomials of degree <= m*D in p's v variables).
    """
    t = len(p.terms)
    if t < 2:
        return t
    degree, v = _total_degree(p), len(p.support_vars())

    def terms(m: int) -> int:
        return 1 if m == 0 else min(comb(t + m - 1, m), comb(m * degree + v, v))

    worst, done, step = 0, 0, 1
    while n:
        if n & 1:
            worst = max(worst, terms(done) * terms(step))
            done += step
        if n > 1:
            worst = max(worst, terms(step) ** 2)
            step *= 2
        n >>= 1
    return worst


class _Parser:
    def __init__(self, text: str, ctx: Context):
        self.tokens = _tokenize(text)
        self.ctx = ctx
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Polynomial:
        kind, val, pos = self.peek()
        sign = 1
        while kind == "op" and val in "+-":
            self.take()
            if val == "-":
                sign = -sign
            kind, val, pos = self.peek()
        result = self.term()
        if sign < 0:
            result = -result
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                result = result + rhs if val == "+" else result - rhs
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                rhs = self.factor()
                _check_degree(_total_degree(result) + _total_degree(rhs), pos)
                _check_term_products(len(result.terms) * len(rhs.terms), pos)
                result = result * rhs
            else:
                return result

    def factor(self) -> Polynomial:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                raise ParseError("negative exponents are not allowed here", pos)
            if kind != "num" or "/" in val:
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.take()
            _check_degree(_total_degree(base) * int(val), pos)
            _check_term_products(_power_term_products(base, int(val)), pos)
            return base ** int(val)
        return base

    def atom(self) -> Polynomial:
        kind, val, pos = self.take()
        if kind == "num":
            if "/" in val:
                num, den = val.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", pos)
                return self.ctx.const(Fraction(int(num), int(den)))
            return self.ctx.const(int(val))
        if kind == "name":
            if val not in self.ctx:
                raise ParseError(f"unknown variable {val!r}", pos)
            return self.ctx.var(val)
        if kind == "op" and val in ("(", "-"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses and signs nested more than {MAX_NESTING} deep", pos)
            if val == "(":
                inner = self.expr()
                kind, val, pos = self.take()
                if not (kind == "op" and val == ")"):
                    raise ParseError("expected ')'", pos)
            else:
                inner = -self.atom()
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse_poly(text: str, ctx: Context) -> Polynomial:
    """Parse an expression with +, -, *, ^, integer/rational literals and context variables."""
    parser = _Parser(text, ctx)
    result = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return result
