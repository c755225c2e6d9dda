"""Exact rational scalars for the operator algebra.

The operators' coefficients are plain Python ints and Fractions: in
alpha-normalized oscillators with the Euclidean zero-mode position, every
weight of the light-cone generators is rational, so anomaly cancellation
is decided by exact zero tests, never by floating point. This module holds
the anomaly polynomial in (D, a) and its exact solver.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def exact_fraction(value) -> Fraction:
    """``value`` as an exact rational; a float reads as the decimal it prints (0.1 -> 1/10)."""
    return Fraction(str(value)) if isinstance(value, float) else Fraction(value)


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
