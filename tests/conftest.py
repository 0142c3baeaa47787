import random
from fractions import Fraction

import pytest

from ddlab import AlgebraContext, DDPresentation
from ddlab.laurent import LaurentForm
from ddlab.poly import Context, Polynomial, _unpack


@pytest.fixture(scope="session")
def dd1():
    return DDPresentation.make([], 1, 2, "Z^2 - 1", "Y^2 + Z")


@pytest.fixture(scope="session")
def dd3():
    return DDPresentation.make([], 2, 1, "Z^3 + X", "Y^2 + X*Z")


@pytest.fixture(scope="session")
def dd1_ctx(dd1):
    return AlgebraContext(dd1)


@pytest.fixture(scope="session")
def dd3_ctx(dd3):
    return AlgebraContext(dd3)


def random_polynomial(rng: random.Random, ctx: Context, max_terms=4, max_exp=3, max_coeff=5):
    """Small random polynomial with exact rational coefficients."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) if rng.random() < 0.6 else 0 for _ in ctx.names)
        num = rng.randint(-max_coeff, max_coeff)
        den = rng.choice([1, 1, 1, 2, 3])
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(num, den)
    from ddlab.poly import Polynomial

    return Polynomial(ctx, terms)


def random_valid_presentation(rng: random.Random, d: int, e: int, max_r=4, max_s=3,
                              constant_lead_p=True):
    """Random presentation satisfying the structural invariants."""
    ctx = Context(("X", "Y", "Z", "T"))
    r = rng.randint(1, max_r)
    s = rng.randint(1, max_s)
    lead = Fraction(rng.choice([1, 1, 2, -1, 3]))
    p = ctx.monomial({"Z": r}, lead)
    for _ in range(rng.randint(0, 3)):
        p = p + ctx.monomial(
            {"X": rng.randint(0, 2), "Z": rng.randint(0, max(0, r - 1))},
            Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2])),
        )
    if not constant_lead_p and rng.random() < 0.5:
        p = p + ctx.monomial({"X": 1, "Z": r}, rng.randint(1, 2))
    q = ctx.monomial({"Y": s}, rng.choice([1, 1, 2, -2, 3]))
    for _ in range(rng.randint(0, 3)):
        q = q + ctx.monomial(
            {"X": rng.randint(0, 2), "Y": rng.randint(0, s - 1), "Z": rng.randint(0, 3)},
            rng.randint(-3, 3),
        )
    from ddlab.presentations import BaseRingSpec

    pres = DDPresentation(BaseRingSpec(()), d, e, p, q)
    from ddlab import validate_presentation

    if not validate_presentation(pres).passed:
        return random_valid_presentation(rng, d, e, max_r, max_s, constant_lead_p)
    return pres


def unpacked(ctx: Context, form: dict, den: int) -> LaurentForm:
    """A form of the Laurent layer under packed keys, divided by den, as a
    LaurentForm over ctx."""
    return LaurentForm(ctx, {n: Polynomial._raw(ctx, t) for n, t in _unpack(form, len(ctx.names), den).items()})
