"""The Groebner membership route, kept as the reference the x-adic division
is tested against.

x^n*f for n = -min_exp(f) is a polynomial in X, Z and W..; f lies in B[w..]
exactly when x^n*f lies in (X^n) + relations, provided the relation ideal is
x-saturated.  One Groebner basis of (X^n) + relations per shift decides it,
and the cofactor of X^n is a witness.
"""

from ddlab.groebner import DEFAULT_BUDGET, MonomialOrder, buchberger


def groebner_membership(f, actx, budget=DEFAULT_BUDGET):
    """(member, witness) for a Laurent form f with min_exp(f) < 0; the
    witness is the unreduced cofactor of X^n, None for a non-member."""
    n = -f.min_exp()
    ctx = actx.gen_ctx
    # X gets lowest priority: the three generators then have pairwise
    # coprime leading monomials and the basis stays tiny for every n
    order = MonomialOrder.elim(ctx, [v for v in ctx.names if v != "X"])
    x = ctx.var("X")
    gb = buchberger([x ** n, *actx.relations()], order, budget)
    lifted = sum((p.transfer(ctx) * x ** (k + n) for k, p in f.coeffs.items()), ctx.zero())
    rem, cof = gb.reduce_to_gens(lifted, 0, budget)
    return (True, cof) if rem.is_zero() else (False, None)
