"""Laurent polynomials in one inverted variable with polynomial coefficients.

A LaurentForm is a finitely supported map from integer x-exponents to nonzero
Polynomials in the remaining variables.  It models elements of
Q[u..][z, w..][x, x^-1]; equality of forms is equality in that ring, which is
what makes quotient-algebra equality decidable downstream.
"""

from __future__ import annotations

from typing import Mapping

from .poly import Context, ContextMismatch, Polynomial, eval_at_forms, norm_coeff
from .poly import _form_product, _image_entry


class LaurentForm:
    """Finitely supported map x-exponent -> coefficient polynomial.

    `_powers` is None until the form is first used as a variable image
    (`image_entry`).  It then holds the form's image entry: its monomial
    data if it is a monomial, its denominator, its largest exponent, and the
    growing list of its integral powers under packed keys (see `poly._pack`),
    which later evaluations and x-adic divisions at the same image object
    reuse.  The forms in it are never mutated, and the entry dies with the
    image object.
    """

    __slots__ = ("ctx", "coeffs", "_powers")

    def __init__(self, ctx: Context, coeffs: Mapping[int, Polynomial]):
        clean = {}
        for n, p in coeffs.items():
            if p.ctx != ctx:
                raise ContextMismatch("coefficient context differs from Laurent context")
            if not p.is_zero():
                clean[int(n)] = p
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_powers", None)

    @classmethod
    def _raw(cls, ctx: Context, coeffs: dict) -> "LaurentForm":
        self = object.__new__(cls)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_powers", None)
        return self

    @classmethod
    def _from_form(cls, ctx: Context, form: dict) -> "LaurentForm":
        return cls._raw(ctx, {n: Polynomial._raw(ctx, t) for n, t in form.items()})

    def _form(self) -> dict:
        return {n: p.terms for n, p in self.coeffs.items()}

    def __setattr__(self, *args):
        raise AttributeError("LaurentForm is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: Context) -> "LaurentForm":
        return cls._raw(ctx, {})

    @classmethod
    def from_poly(cls, p: Polynomial, exponent: int = 0) -> "LaurentForm":
        if p.is_zero():
            return cls._raw(p.ctx, {})
        return cls._raw(p.ctx, {exponent: p})

    @classmethod
    def x_power(cls, ctx: Context, exponent: int) -> "LaurentForm":
        return cls._raw(ctx, {exponent: ctx.one()})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_exp(self) -> int:
        """Smallest x-exponent with nonzero coefficient; 0 for the zero form."""
        return min(self.coeffs, default=0)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentForm)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.coeffs.items())))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "LaurentForm"):
        if self.ctx != other.ctx:
            raise ContextMismatch("Laurent forms over different contexts")

    def __add__(self, other: "LaurentForm") -> "LaurentForm":
        self._check(other)
        out = dict(self.coeffs)
        for n, p in other.coeffs.items():
            cur = out.get(n)
            if cur is None:
                out[n] = p
            else:
                s = cur + p
                if s.is_zero():
                    del out[n]
                else:
                    out[n] = s
        return LaurentForm._raw(self.ctx, out)

    def __neg__(self) -> "LaurentForm":
        return LaurentForm._raw(self.ctx, {n: -p for n, p in self.coeffs.items()})

    def __sub__(self, other: "LaurentForm") -> "LaurentForm":
        return self + (-other)

    def __mul__(self, other: "LaurentForm") -> "LaurentForm":
        self._check(other)
        return LaurentForm._from_form(self.ctx, _form_product(self._form(), other._form()))

    def scale(self, q) -> "LaurentForm":
        q = norm_coeff(q)
        if q == 0:
            return LaurentForm._raw(self.ctx, {})
        return LaurentForm._raw(self.ctx, {n: p.scale(q) for n, p in self.coeffs.items()})

    def shift(self, k: int) -> "LaurentForm":
        """Multiply by x^k."""
        return LaurentForm._raw(self.ctx, {n + k: p for n, p in self.coeffs.items()})

    # -- conversions --------------------------------------------------------

    def transfer(self, new_ctx: Context) -> "LaurentForm":
        if new_ctx == self.ctx:
            return self
        return LaurentForm._raw(new_ctx, {n: p.transfer(new_ctx) for n, p in self.coeffs.items()})

    def substitute(self, images: Mapping[str, "LaurentForm"], target: Context) -> "LaurentForm":
        """Evaluate coefficient variables at Laurent images (x stays x)."""
        out = LaurentForm.zero(target)
        for n, p in self.coeffs.items():
            out = out + eval_poly_at_laurent(p, images, target).shift(n)
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for n in sorted(self.coeffs):
            parts.append(f"{n}: {self.coeffs[n]}")
        return "{" + ", ".join(parts) + "}"

    def __repr__(self):
        return f"<laurent {self}>"

    def to_json(self) -> dict:
        return {str(n): str(p) for n, p in sorted(self.coeffs.items())}


def eval_poly_at_laurent(
    p: Polynomial, images: Mapping[str, LaurentForm], target: Context
) -> LaurentForm:
    """Evaluate a polynomial at Laurent images.

    Variables of p not in `images` must exist in the target coefficient
    context and map to themselves (at x-exponent 0).  Each image's entry is
    read with `image_entry`, after its context is checked against the target.
    """

    def entry_of(image: LaurentForm) -> tuple:
        if image.ctx != target:
            raise ContextMismatch("image context differs from target")
        return image_entry(image)

    return LaurentForm._from_form(target, eval_at_forms(p, images, target, entry_of))


def image_entry(image: LaurentForm) -> tuple:
    """The image entry of a form (see `_image_entry`), kept on the form."""
    if image._powers is None:
        object.__setattr__(image, "_powers", _image_entry(image._form(), len(image.ctx.names)))
    return image._powers
