"""Presentations of the double Danielewski type algebras.

A DDPresentation is the data (base ring Q[u1..uk], d, e, P, Q) defining

    R[X,Y,Z,T] / (X^d*Y - P(X,Z), X^e*T - Q(X,Y,Z)).

This module validates the standing hypotheses, extracts the invariant tuple
(d, e, r, s), classifies the degree conditions, runs the unit-ideal checks
defining the certified subfamily, and reduces s = 1 presentations to the
single-relation family R[X,Z,T]/(X^n*T - F(X,Z)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from fractions import Fraction

from .groebner import DEFAULT_BUDGET, buchberger
from .poly import VARIABLE_NAME, Context, Polynomial, parse_poly

GENERATOR_NAMES = ("X", "Y", "Z", "T")
RESERVED_NAMES = {"X", "Y", "Z", "T", "U", "V"}


class InvalidPresentation(ValueError):
    """A presentation failed a structural invariant."""


def json_value(value):
    """How a result prints a value: None, bools, ints and strings as they are,
    anything with a `to_json` by it, a tuple or list as a list, a dict value
    by value, and anything else (a polynomial, an element, a rational) as
    its text."""
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: json_value(v) for k, v in value.items()}
    return str(value)


class Record:
    """A dataclass result that prints its fields in order, each by `json_value`."""

    def to_json(self):
        return {f.name: json_value(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class CheckItem(Record):
    """One named check with outcome and human-readable detail."""

    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    """An ordered list of checks, plus free-form facts."""

    items: tuple[CheckItem, ...]
    facts: dict = field(default_factory=dict)
    bases: tuple = field(default=(), compare=False)  # Groebner bases the checks solved, not printed

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def __bool__(self):
        # every Report object would be true, whatever its checks say
        raise TypeError("a Report is not a verdict; read its .passed")

    def failed_items(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def as_check(self, name: str) -> CheckItem:
        """This report as one check, its failed checks named in the detail."""
        return CheckItem(name, self.passed, "; ".join(c.name for c in self.failed_items()) or "ok")

    def to_json(self):
        return {
            "passed": self.passed,
            "checks": json_value(self.items),
            "facts": {k: str(v) for k, v in self.facts.items()},
        }


@dataclass(frozen=True)
class BaseRingSpec:
    """The base ring Q[u1..uk]; an empty variable list means R = Q."""

    variables: tuple[str, ...] = ()

    def __post_init__(self):
        seen = set()
        for name in self.variables:
            if not VARIABLE_NAME.fullmatch(name):
                raise InvalidPresentation(f"base variable {name!r} is not a variable name")
            if name in RESERVED_NAMES or _looks_adjoined(name):
                raise InvalidPresentation(f"base variable {name!r} collides with a reserved name")
            if name in seen:
                raise InvalidPresentation(f"duplicate base variable {name!r}")
            seen.add(name)

    def is_rational(self) -> bool:
        return not self.variables

    def __str__(self):
        return "Q[" + ",".join(self.variables) + "]" if self.variables else "Q"


def _looks_adjoined(name: str) -> bool:
    return len(name) >= 1 and name[0] == "W" and (len(name) == 1 or name[1:].isdigit())


@dataclass(frozen=True)
class InvariantTuple:
    """(d, e, r, s): exponents plus deg_Z P(0,Z) and deg_Y Q."""

    d: int
    e: int
    r: int
    s: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.d, self.e, self.r, self.s)

    def __str__(self):
        return f"({self.d}, {self.e}, {self.r}, {self.s})"


@dataclass(frozen=True)
class DDPresentation:
    """(base, d, e, P, Q); P and Q live in the context (X, Y, Z, T, u1..uk)."""

    base: BaseRingSpec
    d: int
    e: int
    P: Polynomial
    Q: Polynomial

    @staticmethod
    def make(base_vars, d: int, e: int, p_text: str, q_text: str) -> "DDPresentation":
        base = BaseRingSpec(tuple(base_vars))
        ctx = Context(GENERATOR_NAMES + base.variables)
        return DDPresentation(base, d, e, parse_poly(p_text, ctx), parse_poly(q_text, ctx))

    @property
    def r(self) -> int:
        """deg_Z P(0, Z); -1 when P(0,Z) = 0."""
        return self.p_at_x0().deg_in("Z")

    @property
    def s(self) -> int:
        """deg_Y Q; -1 when Q = 0."""
        return self.Q.deg_in("Y")

    @property
    def b(self) -> Polynomial:
        """The coefficient of Y^s in Q, in the context of P and Q."""
        return self.Q.coefficient_of("Y", self.s)

    def p_at_x0(self) -> Polynomial:
        return self.P.coefficient_of("X", 0)

    def relations(self) -> tuple[Polynomial, Polynomial]:
        """X^d*Y - P and X^e*T - Q, in the context of P and Q."""
        ctx = self.P.ctx
        x = ctx.var("X")
        return x ** self.d * ctx.var("Y") - self.P, x ** self.e * ctx.var("T") - self.Q

    @cached_property
    def _invalid_reasons(self) -> str:
        """The failed checks of `validate_presentation`, "" when valid."""
        report = validate_presentation(self)
        return "; ".join(f"{c.name}: {c.detail}" for c in report.failed_items())

    def require_valid(self):
        if self._invalid_reasons:
            raise InvalidPresentation(self._invalid_reasons)

    def to_json(self):
        return {
            "base_vars": list(self.base.variables),
            "d": self.d,
            "e": self.e,
            "P": str(self.P),
            "Q": str(self.Q),
        }

    def __str__(self):
        return f"{self.base}[X,Y,Z,T]/(X^{self.d}*Y - ({self.P}), X^{self.e}*T - ({self.Q}))"


def load_presentation(data) -> DDPresentation:
    """Build a presentation from the flat record {base_vars, d, e, P, Q}."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise InvalidPresentation(f"malformed presentation record: expected an object, got {type(data).__name__}")
    try:
        base_vars = data.get("base_vars", [])
        d, e, p_text, q_text = data["d"], data["e"], data["P"], data["Q"]
    except KeyError as exc:
        raise InvalidPresentation(f"malformed presentation record: {exc}") from exc
    names_ok = isinstance(base_vars, list) and all(isinstance(v, str) for v in base_vars)
    for name, value, ok, want in (
        ("base_vars", base_vars, names_ok, "a list of strings"),
        ("d", d, type(d) is int, "an integer"),
        ("e", e, type(e) is int, "an integer"),
        ("P", p_text, isinstance(p_text, str), "a string"),
        ("Q", q_text, isinstance(q_text, str), "a string"),
    ):
        if not ok:
            raise InvalidPresentation(f"malformed presentation record: {name} must be {want}, got {value!r}")
    return DDPresentation.make(base_vars, d, e, p_text, q_text)


def validate_presentation(p: DDPresentation) -> Report:
    """Check every structural invariant; failures become report entries."""
    items = []
    items.append(CheckItem("d >= 1", type(p.d) is int and p.d >= 1, f"d = {p.d}"))
    items.append(CheckItem("e >= 1", type(p.e) is int and p.e >= 1, f"e = {p.e}"))

    base = set(p.base.variables)
    p_extra = p.P.support_vars() - {"X", "Z"} - base
    items.append(
        CheckItem(
            "P in R[X,Z]",
            not p_extra,
            "ok" if not p_extra else f"P uses {sorted(p_extra)}",
        )
    )
    q_extra = p.Q.support_vars() - {"X", "Y", "Z"} - base
    items.append(
        CheckItem(
            "Q in R[X,Y,Z]",
            not q_extra,
            "ok" if not q_extra else f"Q uses {sorted(q_extra)}",
        )
    )

    r = p.r
    items.append(CheckItem("deg_Z P(0,Z) >= 1", r >= 1, f"P(0,Z) = {p.p_at_x0()}, r = {r}"))
    s = p.s
    items.append(CheckItem("deg_Y Q >= 1", s >= 1, f"s = {s}"))

    if s >= 1:
        ok = not p.b.is_zero() and p.b.support_vars() <= base
        detail = f"coefficient of Y^{s} is {p.b}"
        items.append(CheckItem("Q monic in Y over Frac(R)", ok, detail))
    else:
        items.append(CheckItem("Q monic in Y over Frac(R)", False, "no Y term"))

    facts = {
        "r": r,
        "s": s,
        "r > 1": r > 1,
        "condition_class": _cond_class_of(r, s, p.e),
    }
    return Report(tuple(items), facts)


def invariant_tuple(p: DDPresentation) -> InvariantTuple:
    p.require_valid()
    return InvariantTuple(p.d, p.e, p.r, p.s)


COND_R2_S2 = "r>=2 and s>=2"
COND_R2_S1 = "r>=2 and s=1"
COND_R1_S2_E2 = "r=1 and s>=2 and e>=2"
COND_NONE = "none"


def _cond_class_of(r: int, s: int, e: int) -> str:
    if r >= 2 and s >= 2:
        return COND_R2_S2
    if r >= 2 and s == 1:
        return COND_R2_S1
    if r == 1 and s >= 2 and e >= 2:
        return COND_R1_S2_E2
    return COND_NONE


def cond_class(p: DDPresentation) -> str:
    """Which branch of the degree conditions holds, or "none"."""
    p.require_valid()
    return _cond_class_of(p.r, p.s, p.e)


def omega3_check(p: DDPresentation, budget: int = DEFAULT_BUDGET) -> Report:
    """Membership test for the certified subfamily.

    Requires deg_Z P(0,Z) > 1, deg_Y Q > 1 under the monicity convention, and
    the two unit-ideal conditions (P(0,Z), dP/dZ(0,Z)) = R[Z] and
    (P(0,Z), Q(0,Y,Z), dQ/dY(0,Y,Z)) = R[Y,Z].  Each of these two holds
    when the cofactor row of the reduced basis {1} gives 1 = sum c_i*g_i by
    multiplication, and prints that identity: it does not rest on Buchberger.
    The Report keeps the two bases, whose rows seed a certificate's sigma.
    """
    validation = validate_presentation(p)
    items = [validation.as_check("presentation valid")]
    if not validation.passed:
        return Report(tuple(items), dict(validation.facts))

    r, s = p.r, p.s
    items.append(CheckItem("deg_Z P(0,Z) > 1", r > 1, f"r = {r}"))
    items.append(CheckItem("deg_Y Q > 1", s > 1, f"s = {s}"))

    names = ("(P(0,Z), P'(0,Z)) = R[Z]", "(P(0,Z), Q(0,Y,Z), Q'(0,Y,Z)) = R[Y,Z]")
    bases = tuple(buchberger(gens, budget=budget) for gens in unit_ideal_generators(p))
    for name, basis in zip(names, bases):
        gens = basis.gens
        row = basis.cofactors[0] if basis.is_unit() else ()
        holds = sum((c * g for c, g in zip(row, gens)), gens[0].ctx.zero()) == gens[0].ctx.one()
        detail = " + ".join(f"({c})*({g})" for c, g in zip(row, gens))
        items.append(CheckItem(name, holds, f"1 = {detail}" if row else f"generators ({', '.join(map(str, gens))})"))
    return Report(tuple(items), {"r": r, "s": s}, bases)


def unit_ideal_generators(p: DDPresentation) -> tuple[list[Polynomial], list[Polynomial]]:
    """Generators of the two unit-ideal conditions of the certified subfamily.

    [P(0,Z), P'(0,Z)] in R[Z] and [P(0,Z), Q(0,Y,Z), Q'(0,Y,Z)] in R[Y,Z],
    where ' is d/dZ for P and d/dY for Q.
    """
    base = p.base.variables
    zctx = Context(("Z",) + base)
    yzctx = Context(("Y", "Z") + base)
    p0 = p.p_at_x0()
    return (
        [p0.transfer(zctx), p.P.partial("Z").coefficient_of("X", 0).transfer(zctx)],
        [
            p0.transfer(yzctx),
            p.Q.coefficient_of("X", 0).transfer(yzctx),
            p.Q.partial("Y").coefficient_of("X", 0).transfer(yzctx),
        ],
    )


@dataclass(frozen=True)
class DanielewskiPresentation:
    """R[X,Z,T]/(X^n*T - F(X,Z)), the single-relation family."""

    base: BaseRingSpec
    n: int
    F: Polynomial

    def __post_init__(self):
        if self.n < 1:
            raise InvalidPresentation(f"n must be positive, got {self.n}")
        if self.F.coefficient_of("X", 0).deg_in("Z") < 1:
            raise InvalidPresentation("deg_Z F(0,Z) must be at least 1")

    def to_json(self):
        return {"base_vars": list(self.base.variables), "n": self.n, "F": str(self.F)}

    def __str__(self):
        return f"{self.base}[X,Z,T]/(X^{self.n}*T - ({self.F}))"


@dataclass(frozen=True)
class DanielewskiReduction(Record):
    """Result of eliminating Y from an s = 1 presentation, with generator maps."""

    source: DDPresentation
    target: DanielewskiPresentation
    forward_images: dict  # images of x, y, z, t in the target
    backward_images: dict  # images of the target's x, z, t in the source


def reduce_to_danielewski(p: DDPresentation) -> DanielewskiReduction:
    """Eliminate Y from Q = b*Y + c(X,Z) with b a unit of R.

    Produces n = d + e and F = X^d*c/b + P, with explicit mutually inverse
    generator maps; the defining relations are checked as exact polynomial
    identities.
    """
    p.require_valid()
    if p.s != 1:
        raise InvalidPresentation(f"reduction requires deg_Y Q = 1, got {p.s}")
    if not p.b.is_constant():
        raise InvalidPresentation(
            f"leading Y-coefficient {p.b} is not a unit of R = Q[{','.join(p.base.variables)}]"
        )
    b = p.b.constant_value()
    ctx = p.P.ctx
    c_poly = p.Q.coefficient_of("Y", 0)
    x = ctx.var("X")
    f_poly = x ** p.d * c_poly.scale(Fraction(1) / b) + p.P
    n = p.d + p.e
    target = DanielewskiPresentation(p.base, n, f_poly)

    # forward: x -> X, z -> Z, y -> X^e*T - c/b, t -> b*T
    t_var = ctx.var("T")
    forward = {
        "X": x,
        "Z": ctx.var("Z"),
        "Y": x ** p.e * t_var - c_poly.scale(Fraction(1) / b),
        "T": t_var.scale(b),
    }
    backward = {"X": x, "Z": ctx.var("Z"), "T": t_var.scale(Fraction(1) / b)}

    # relation checks, all exact polynomial identities
    rel1_image = x ** p.d * forward["Y"] - p.P
    rel_dan = x ** n * t_var - f_poly
    if rel1_image != rel_dan:
        raise AssertionError("first relation does not map onto the target relation")
    rel2_image = x ** p.e * forward["T"] - p.Q.substitute({"Y": forward["Y"]})
    if not rel2_image.is_zero():
        raise AssertionError("second relation does not vanish under the generator map")
    # X^n*(T/b) - F = (X^d/b)*(X^e*T - Q) + (X^d*Y - P), an exact identity
    lhs = x ** n * backward["T"] - f_poly
    rel1, rel2 = p.relations()
    if lhs != (x ** p.d).scale(Fraction(1) / b) * rel2 + rel1:
        raise AssertionError("backward relation identity failed")

    return DanielewskiReduction(p, target, forward, backward)
