"""Differential tests of the Groebner engine against sympy's `groebner`.

sympy returns reduced bases, with the denominators cleared when it can;
made monic, under the same order and variable order, its basis and
`buchberger`'s are equal as sets.  Elimination ideals are compared with
sympy's lex basis as ideals, by containment both ways.
"""

from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ddlab.elements import AlgebraContext, _x_is_nonzerodivisor
from ddlab.groebner import BudgetExceeded, buchberger, elimination_ideal, is_unit_ideal
from ddlab.poly import Context, Polynomial
from ddlab.presentations import DDPresentation

sympy = pytest.importorskip("sympy")

XYZ = Context(("X", "Y", "Z"))

# the cells of the golden certificate grid
GOLDEN_CELLS = [
    (1, 2, "Z^2 - 1", "Y^2 + Z"),
    (2, 2, "Z^2 + 1", "Y^2 + Z"),
    (1, 3, "Z^3 - 1", "Y^2 + Z"),
    (1, 2, "Z^2 - 1", "Y^3 + Z"),
    (2, 3, "Z^2 + 1/2", "Y^2 + Z"),
]


def to_sympy(p: Polynomial, gens):
    return sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
                                *gens, domain="QQ")


def from_sympy(poly, ctx: Context) -> Polynomial:
    return Polynomial(ctx, {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()})


def sympy_basis(gens: list[Polynomial], order: str, names=None) -> set[Polynomial]:
    """sympy's reduced basis made monic, over the variables in the order of
    `names` (default: the context's), the first the largest."""
    ctx = gens[0].ctx if names is None else Context(names)
    variables = sympy.symbols(ctx.names)
    basis = sympy.groebner([to_sympy(g.transfer(ctx), variables) for g in gens], *variables, order=order)
    monic = []
    for p in basis.polys:
        lc = p.LC(order=order)
        monic.append(from_sympy(p, ctx).scale(Fraction(int(lc.q), int(lc.p))))
    return set(monic)


def contains(basis: list[Polynomial], members: list[Polynomial], keep: tuple[str, ...]) -> bool:
    """True iff every member lies in the ideal of basis, over the keep variables."""
    variables = sympy.symbols(keep)
    ctx = Context(keep)
    gb = sympy.groebner([to_sympy(p.transfer(ctx), variables) for p in basis], *variables, order="grevlex",
                        domain="QQ")
    return all(gb.contains(to_sympy(m.transfer(ctx), variables)) for m in members)


@st.composite
def small_ideals(draw):
    """One to three polynomials of one to three terms in Q[X,Y,Z], exponents
    up to 2, small coefficients."""
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    coeffs = st.sampled_from([Fraction(c) for c in (-3, -2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-2, 3)])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        p = Polynomial(XYZ, {e: draw(coeffs) for e in draw(st.lists(exps, min_size=1, max_size=3, unique=True))})
        gens.append(p)
    return gens


def _buchberger_or_reject(gens, order=None):
    try:
        return buchberger(gens, order, budget=20_000)
    except BudgetExceeded:
        reject()


class TestAgainstSympy:
    @settings(max_examples=100, deadline=None)
    @given(small_ideals())
    def test_grevlex_basis_and_unit_test(self, gens):
        gb = _buchberger_or_reject(gens)
        expected = sympy_basis(gens, "grevlex")
        assert set(gb.polys) == expected
        assert is_unit_ideal(gens) == (expected == {XYZ.const(1)})

    def test_relation_ideals_of_the_golden_cells(self):
        for d, e, p, q in GOLDEN_CELLS:
            actx = AlgebraContext(DDPresentation.make([], d, e, p, q))
            rels = list(actx.relations())
            assert set(buchberger(rels).polys) == sympy_basis(rels, "grevlex"), (d, e, p, q)

    @settings(max_examples=60, deadline=None)
    @given(small_ideals(), st.sampled_from([("Y", "Z"), ("Z",)]))
    def test_elimination_ideal_equals_the_lex_one(self, gens, keep):
        try:
            ours = elimination_ideal(gens, keep, budget=20_000)
        except BudgetExceeded:
            reject()
        # lex with the eliminated variables first: its elements in the kept
        # variables are a basis of the elimination ideal
        lex = [g for g in sympy_basis(gens, "lex") if g.support_vars() <= set(keep)]
        assert bool(ours) == bool(lex)
        if ours:
            assert contains(ours, lex, keep) and contains(lex, ours, keep)

    def test_fiber_ideals_of_the_golden_cells(self):
        # x*B meets Q[Z] in (P(0, Z)): the elimination ideal of (X, relations)
        for d, e, p, q in GOLDEN_CELLS:
            actx = AlgebraContext(DDPresentation.make([], d, e, p, q))
            gens = [actx.gen_ctx.var("X"), *actx.relations()]
            ours = elimination_ideal(gens, {"Z"})
            lex = [g for g in sympy_basis(gens, "lex", ("X", "Y", "T", "Z")) if g.support_vars() <= {"Z"}]
            assert contains(ours, lex, ("Z",)) and contains(lex, ours, ("Z",)), (d, e, p, q)

    @settings(max_examples=40, deadline=None)
    @given(small_ideals())
    def test_x_is_a_nonzerodivisor_as_sympy_finds(self, gens):
        try:
            ours = _x_is_nonzerodivisor(gens, 20_000)
        except BudgetExceeded:
            reject()
        # I : X^infinity is (I, V*X - 1) meet Q[X,Y,Z], from sympy's lex basis
        ctx = Context(("V", "X", "Y", "Z"))
        inverse = ctx.var("V") * ctx.var("X") - ctx.one()
        lifted = [g.transfer(ctx) for g in gens] + [inverse]
        saturation = [g for g in sympy_basis(lifted, "lex") if "V" not in g.support_vars()]
        assert ours == contains(gens, saturation, XYZ.names)
