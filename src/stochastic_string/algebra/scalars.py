"""Exact scalar coefficients for the operator algebra.

A coefficient is a finite sum  sum_j (re_j + i im_j) * sqrt(r_j)
with Gaussian-rational weights and squarefree integer radicands r_j. This
closes under the arithmetic the light-cone generators need (the sqrt(n)
mode normalizations and sqrt(2 alpha') factors) while staying exact:
anomaly cancellation is decided by exact zero tests, never by floating
point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

_ZERO = (Fraction(0), Fraction(0))
# entries of each arithmetic memo below; one anomaly run needs a few hundred
_CACHE_SIZE = 1 << 17


def exact_fraction(value) -> Fraction:
    """``value`` as an exact rational; a float reads as the decimal it prints (0.1 -> 1/10)."""
    return Fraction(str(value)) if isinstance(value, float) else Fraction(value)


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s^2 * f and f squarefree."""
    if n <= 0:
        raise ValueError(f"radicand must be positive, got {n}")
    s, f, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            f *= d
        d += 1
    return s, f * n


# Coeff's memoized arithmetic, bound as its methods below: equal calls share one result
@lru_cache(maxsize=_CACHE_SIZE)
def _sqrt(value) -> Coeff:
    """Exact square root of a positive rational."""
    fr = Fraction(value)
    s, f = squarefree_split(fr.numerator * fr.denominator)
    return Coeff({f: (Fraction(s, fr.denominator), Fraction(0))})


@lru_cache(maxsize=_CACHE_SIZE)
def _sum(a: Coeff, b: Coeff) -> Coeff:
    out = dict(a.terms)
    for key, (re, im) in b.terms.items():
        cre, cim = out.get(key, _ZERO)
        out[key] = (cre + re, cim + im)
    return Coeff(out)


@lru_cache(maxsize=_CACHE_SIZE)
def _product(a: Coeff, b: Coeff) -> Coeff:
    out: dict[int, tuple[Fraction, Fraction]] = {}
    for r1, (re1, im1) in a.terms.items():
        for r2, (re2, im2) in b.terms.items():
            # squarefree r1, r2: r1 r2 = s^2 f with s = gcd and f squarefree
            s = math.gcd(r1, r2)
            f = (r1 // s) * (r2 // s)
            re = s * (re1 * re2 - im1 * im2)
            im = s * (re1 * im2 + im1 * re2)
            cre, cim = out.get(f, _ZERO)
            out[f] = (cre + re, cim + im)
    return Coeff(out)


@lru_cache(maxsize=_CACHE_SIZE)
def _scaled(a: Coeff, value) -> Coeff:
    fr = Fraction(value)
    return Coeff({k: (re * fr, im * fr) for k, (re, im) in a.terms.items()})


class Coeff:
    """Exact coefficient; see module docstring for the form.

    Immutable: nothing writes ``terms`` after construction. Sums, products,
    ``scale`` and ``sqrt`` are memoized, so equal calls share one result
    object, and the hash is computed once on first use.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[int, tuple[Fraction, Fraction]] | None = None):
        cleaned = {}
        if terms:
            for key, (re, im) in terms.items():
                if re or im:
                    cleaned[key] = (re, im)
        self.terms = cleaned
        self._hash = None

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "Coeff":
        return Coeff()

    @staticmethod
    def rational(value) -> "Coeff":
        fr = Fraction(value)
        return Coeff({1: (fr, Fraction(0))})

    @staticmethod
    def imaginary(value=1) -> "Coeff":
        fr = Fraction(value)
        return Coeff({1: (Fraction(0), fr)})

    sqrt = staticmethod(_sqrt)

    # -- arithmetic --------------------------------------------------------
    __add__ = _sum

    def __neg__(self) -> "Coeff":
        return Coeff({k: (-re, -im) for k, (re, im) in self.terms.items()})

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    __mul__ = _product
    scale = _scaled

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Coeff) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def as_gaussian(self) -> tuple[Fraction, Fraction]:
        """Collapse to (re, im) Fractions; requires no radicals."""
        if set(self.terms) - {1}:
            raise ValueError(f"coefficient is not a plain Gaussian rational: {self}")
        return self.terms.get(1, _ZERO)

    def as_rational(self) -> Fraction:
        """Collapse to a real rational; requires no radicals and no imaginary part."""
        re, im = self.as_gaussian()
        if im:
            raise ValueError(f"coefficient is not a real rational: {self}")
        return re

    def to_complex(self) -> complex:
        return sum((complex(re, im) * r**0.5 for r, (re, im) in self.terms.items()), 0j)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for r, (re, im) in sorted(self.terms.items()):
            val = f"({re}{'+' if im >= 0 else '-'}{abs(im)}i)"
            if r != 1:
                val += f"*sqrt({r})"
            parts.append(val)
        return " + ".join(parts)


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
