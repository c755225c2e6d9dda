"""Exact scalar coefficients for the operator algebra.

A coefficient is a Gaussian rational re + i im. In alpha-normalized
oscillators every weight of the light-cone generators is one, so the
ring closes without radicals and anomaly cancellation is decided by exact
zero tests, never by floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

_NIL = Fraction(0)
# entries of each arithmetic memo below; one anomaly run needs a few hundred
_CACHE_SIZE = 1 << 17


def exact_fraction(value) -> Fraction:
    """``value`` as an exact rational; a float reads as the decimal it prints (0.1 -> 1/10)."""
    return Fraction(str(value)) if isinstance(value, float) else Fraction(value)


# Coeff's memoized arithmetic, bound as its methods below: equal calls share one result
@lru_cache(maxsize=_CACHE_SIZE)
def _sum(a: Coeff, b: Coeff) -> Coeff:
    return Coeff(a.re + b.re, a.im + b.im)


@lru_cache(maxsize=_CACHE_SIZE)
def _difference(a: Coeff, b: Coeff) -> Coeff:
    return Coeff(a.re - b.re, a.im - b.im)


@lru_cache(maxsize=_CACHE_SIZE)
def _product(a: Coeff, b: Coeff) -> Coeff:
    return Coeff(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


class Coeff:
    """Exact coefficient re + i im, with Fraction parts.

    Immutable: nothing writes ``re`` or ``im`` after construction. Sums,
    differences and products are memoized, so equal calls share one result
    object, and the hash is computed once on first use.
    """

    __slots__ = ("re", "im", "_hash")

    def __init__(self, re: Fraction = _NIL, im: Fraction = _NIL):
        self.re = re
        self.im = im
        self._hash = None

    @staticmethod
    def rational(value) -> "Coeff":
        return Coeff(Fraction(value))

    @staticmethod
    def imaginary(value=1) -> "Coeff":
        return Coeff(_NIL, Fraction(value))

    __add__ = _sum
    __sub__ = _difference
    __mul__ = _product

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def __eq__(self, other) -> bool:
        return isinstance(other, Coeff) and self.re == other.re and self.im == other.im

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.re, self.im))
        return self._hash

    def as_rational(self) -> Fraction:
        """The real rational value; requires no imaginary part."""
        if self.im:
            raise ValueError(f"coefficient is not a real rational: {self}")
        return self.re

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


ZERO = Coeff()
ONE = Coeff.rational(1)


class PolyDA:
    """Exact rational polynomial in the spacetime dimension D and intercept a."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], Fraction] | None = None):
        self.coeffs = {k: Fraction(v) for k, v in (coeffs or {}).items() if v}

    def evaluate(self, dims, intercept) -> Fraction:
        dims, intercept = exact_fraction(dims), exact_fraction(intercept)
        return sum(
            (c * dims**pd * intercept**pa for (pd, pa), c in self.coeffs.items()),
            Fraction(0),
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_affine(self) -> bool:
        return all(pd + pa <= 1 for pd, pa in self.coeffs)

    def coefficient(self, d_power: int, a_power: int) -> Fraction:
        return self.coeffs.get((d_power, a_power), Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyDA) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (pd, pa), c in sorted(self.coeffs.items()):
            term = str(c)
            if pd:
                term += "*D" + (f"^{pd}" if pd > 1 else "")
            if pa:
                term += "*a" + (f"^{pa}" if pa > 1 else "")
            parts.append(term)
        return " + ".join(parts)


def solve_affine_system(polys: Iterable[PolyDA]):
    """Common zeros of affine polynomials in (D, a).

    Returns ("point", D, a) for a unique solution, ("none",) when the system
    is inconsistent, and ("underdetermined",) otherwise.
    """
    rows = []
    for poly in polys:
        if not poly.is_affine():
            raise ValueError("system solver expects affine polynomials")
        rows.append(
            (
                poly.coefficient(1, 0),
                poly.coefficient(0, 1),
                -poly.coefficient(0, 0),
            )
        )
    # exact Gaussian elimination on a 2-unknown system
    pivot_d = next((r for r in rows if r[0]), None)
    reduced = []
    for r in rows:
        if pivot_d is not None and r[0]:
            fac = r[0] / pivot_d[0]
            r = (Fraction(0), r[1] - fac * pivot_d[1], r[2] - fac * pivot_d[2])
        reduced.append(r)
    pivot_a = next((r for r in reduced if r[0] == 0 and r[1]), None)
    if pivot_d is None or pivot_a is None:
        consistent = all(r[2] == 0 for r in reduced if r[0] == 0 and r[1] == 0)
        return ("underdetermined",) if consistent else ("none",)
    a_val = pivot_a[2] / pivot_a[1]
    d_val = (pivot_d[2] - pivot_d[1] * a_val) / pivot_d[0]
    for rd, ra, rhs in rows:
        if rd * d_val + ra * a_val != rhs:
            return ("none",)
    return ("point", d_val, a_val)
