"""The light-cone Lorentz generators M^{i-} and the critical-dimension anomaly.

In alpha-normalized oscillators, with the zero-mode pair y = x / (2 alpha')^(1/2)
and alpha_0 = (2 alpha')^(1/2) p (so [y, alpha_0] = i), the rescaled generator
    E^i = (2 alpha')^(1/2) p^+ M^{i-}
        = (y^i L_0 + L_0 y^i)/2 - a y^i
          - i sum_{n>=1} (1/n) (alpha^i_{-n} L_n - L_{-n} alpha^i_n),
with the transverse Virasoro generators L_n = 1/2 sum_m :alpha_{n-m} . alpha_m:,
has Gaussian-rational coefficients only, and neither alpha' nor p^+
appears: the light-cone form of Goddard, Goldstone, Rebbi & Thorn,
Nucl. Phys. B56, 109 (1973), in the gauge x^+ = p^+ tau. The x0^- p^i
zero-mode term is omitted: it cannot be expressed with the transverse
alphabet and contributes no pure-oscillator bilinear to [E^1, E^2], so
the anomaly extraction below is unaffected.

[E^1, E^2] = -sum_m Delta_m (alpha^1_{-m} alpha^2_m - alpha^2_{-m} alpha^1_m),
so Delta_m is independent of alpha' and p^+ by construction. The
intercept a enters only as E^i = E0^i - a y^i, with E0 built at a = 0.
As [y^1, y^2] = 0, Delta_m is read from [E0^1, E0^2] + a ([-y^1, E0^2] +
[E0^1, -y^2]): affine in a by construction, and an exact rational
polynomial in a and the spacetime dimension D. Internally the transverse
trace is evaluated at several concrete direction counts and the
(provably affine) dependence on D - 2 is reconstructed by exact
interpolation, then cross-checked against a direct evaluation at the
physical direction count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..core import StringParams, ValidationError
from .operators import OperatorExpr, commutator, position
from .scalars import Coeff, PolyDA, exact_fraction, solve_affine_system

AlphaTerm = tuple[Coeff, tuple]

_HALF = Coeff.rational(Fraction(1, 2))

# largest mode m: the time grows as about m^2, 1.3 s at m = 20 on a 2-vCPU VM
MAX_ANOMALY_MODE = 20


class AlgebraConsistencyError(RuntimeError):
    """An exact identity of the light-cone algebra failed to hold."""


def _alpha(n: int, j: int) -> tuple:
    """The operators' token for alpha_n^j."""
    return ("c", -n, j) if n < 0 else ("a", n, j) if n else ("p", j)


def virasoro_alpha_terms(n: int, transverse: int, n_max: int) -> list[AlphaTerm]:
    """Transverse Virasoro generator L_n = 1/2 sum_m :alpha_{n-m} . alpha_m: as raw terms.

    Each pair is written lower index first, which is its normal order (only
    the pairs of L_0 need one). Oscillator sums are truncated at ``n_max``.
    """
    return [
        (_HALF, tuple(_alpha(k, j) for k in sorted((n - m, m))))
        for m in range(max(-n_max, n - n_max), min(n_max, n + n_max) + 1)
        for j in range(1, transverse + 1)
    ]


def m_minus_alpha_terms(
    i: int, transverse: int, n_max: int, intercept: Fraction
) -> list[AlphaTerm]:
    """E^i = (2 alpha')^(1/2) p^+ M^{i-} at a numeric ``intercept`` as raw terms."""
    y = ("x", i)
    terms = [
        (_HALF * c, word)
        for c, w in virasoro_alpha_terms(0, transverse, n_max)
        for word in ((y,) + w, w + (y,))
    ]
    terms.append((Coeff.rational(-intercept), (y,)))
    for n in range(1, n_max + 1):
        front, back = Coeff.imaginary(Fraction(-1, n)), Coeff.imaginary(Fraction(1, n))
        terms += [(front * c, (_alpha(-n, i),) + w)
                  for c, w in virasoro_alpha_terms(n, transverse, n_max)]
        terms += [(back * c, w + (_alpha(n, i),))
                  for c, w in virasoro_alpha_terms(-n, transverse, n_max)]
    return terms


@lru_cache(maxsize=64)
def m_minus_expr(i: int, transverse: int, n_max: int, intercept: Fraction) -> OperatorExpr:
    return OperatorExpr.from_raw_terms(m_minus_alpha_terms(i, transverse, n_max, intercept))


def _anomalous_coeff(m: int, *pairs: tuple[OperatorExpr, OperatorExpr]) -> Fraction:
    """Minus the coefficient of alpha^1_{-m} alpha^2_m in the sum of the pairs' commutators."""
    word, partner = (("c", m, 1), ("a", m, 2)), (("c", m, 2), ("a", m, 1))
    comm = OperatorExpr()
    for left, right in pairs:
        comm = comm + commutator(left, right, words=(word, partner))
    coeff = comm.coefficient(word)
    if not (coeff + comm.coefficient(partner)).is_zero():
        raise AlgebraConsistencyError("anomalous bilinear is not antisymmetric in (i, j)")
    return -coeff.as_rational()


def _anomalous_affine_parts(m: int, transverse: int, n_max: int) -> tuple[Fraction, Fraction]:
    """a^0 and a^1 parts of Delta_m from [E^1, E^2] at ``transverse`` directions."""
    e1, e2 = (m_minus_expr(i, transverse, n_max, 0) for i in (1, 2))
    y1, y2 = (position(i).scale(-1) for i in (1, 2))
    return _anomalous_coeff(m, (e1, e2)), _anomalous_coeff(m, (y1, e2), (e1, y2))


def anomaly_coefficient(m: int, params: StringParams) -> PolyDA:
    """Exact anomaly polynomial Delta_m(D, a) of the (i-),(j-) commutator.

    Delta_m = 0 simultaneously for all m has the unique solution D = 26,
    a = 1. Requires mode_cutoff >= 2m so the mode-m contractions close;
    invariance under raising the internal cutoff by one is verified, as is
    affineness of the transverse-trace dependence.
    """
    if m < 1:
        raise ValidationError(f"anomaly mode must be >= 1, got {m}")
    if m > MAX_ANOMALY_MODE:
        raise ValidationError(f"anomaly mode must be <= {MAX_ANOMALY_MODE}, got m = {m}")
    if params.mode_cutoff < 2 * m:
        raise ValidationError(
            f"mode_cutoff {params.mode_cutoff} too small: anomaly mode {m} needs >= {2 * m}"
        )
    n_max = 2 * m

    parts = {t: _anomalous_affine_parts(m, t, n_max) for t in (2, 3, 4)}
    if _anomalous_affine_parts(m, 2, n_max + 1) != parts[2]:
        raise AlgebraConsistencyError(
            f"Delta_{m} changed when raising the internal cutoff {n_max} -> {n_max + 1}"
        )

    coeffs: dict[tuple[int, int], Fraction] = {}
    for a_pow in (0, 1):
        c2, c3, c4 = (parts[t][a_pow] for t in (2, 3, 4))
        slope = c3 - c2
        if c4 - c3 != slope:
            raise AlgebraConsistencyError(
                f"transverse-trace dependence of Delta_{m} is not affine"
            )
        # c(T) = c2 + (T - 2) slope with T = D - 2
        coeffs[(0, a_pow)] = c2 - 4 * slope
        coeffs[(1, a_pow)] = slope
    return PolyDA(coeffs)


def anomaly_value_direct(m: int, params: StringParams, intercept) -> Fraction:
    """Delta_m evaluated by a direct computation at the physical direction count.

    Independent of the interpolation path: the transverse trace is summed
    explicitly over all D - 2 directions with the intercept substituted
    numerically before commuting.
    """
    if params.mode_cutoff < 2 * m:
        raise ValidationError(
            f"mode_cutoff {params.mode_cutoff} too small for anomaly mode {m}"
        )
    a = exact_fraction(intercept)
    e1, e2 = (m_minus_expr(i, params.transverse_count, 2 * m, a) for i in (1, 2))
    return _anomalous_coeff(m, (e1, e2))


def anomaly_report(params: StringParams) -> str:
    """Structured text report of Delta_1 and Delta_2: polynomials, evaluation
    at (26, 1) and their joint solution set."""
    return format_anomaly_report([(m, anomaly_coefficient(m, params)) for m in (1, 2)])


def format_anomaly_report(polys: list[tuple[int, PolyDA]]) -> str:
    """``anomaly_report`` text for already computed (m, Delta_m) pairs."""
    lines = []
    for m, poly in polys:
        lines.append(f"Delta_{m}(D, a) = {poly!r}")
        lines.append(f"Delta_{m}(26, 1) = {poly.evaluate(26, 1)}")
    solution = solve_affine_system(poly for _, poly in polys)
    if solution[0] == "point":
        lines.append(f"joint solution: D = {solution[1]}, a = {solution[2]}")
    elif solution[0] == "none":
        lines.append("joint solution: none")
    else:
        lines.append("joint solution: underdetermined")
    return "\n".join(lines) + "\n"
