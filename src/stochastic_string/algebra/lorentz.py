"""The light-cone Lorentz generators M^{i-} and the critical-dimension anomaly.

M^{i-} uses the standard light-cone mode expansion consistent with the
gauge x^+ = p^+ tau: it carries the constraint-solved minus oscillators,
i.e. transverse Virasoro combinations divided by p^+. The
x0^- p^i zero-mode term is omitted: it cannot be expressed with the
transverse alphabet and contributes no pure-oscillator bilinear to the
[M^{i-}, M^{j-}] commutator, so the anomaly extraction below is unaffected.

The intercept a enters only as M^{i-} = M0^{i-} + a X^i, with M0 built at
a = 0 and X^i = -x^i / (2 alpha' p^+) from ``intercept_term``. As
[X^1, X^2] = 0, the coefficient Delta_m of the anomalous bilinear
(ad_{m,i} a_{m,j} - ad_{m,j} a_{m,i}) in [M^{1-}, M^{2-}] is that of
[M0^1, M0^2] + a ([X^1, M0^2] + [M0^1, X^2]): affine in a by construction,
and an exact rational polynomial in a and the spacetime dimension D.
Internally the transverse trace is evaluated at several concrete direction
counts and the (provably affine) dependence on D - 2 is reconstructed by
exact interpolation, then cross-checked against a direct evaluation at the
physical direction count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..core import StringParams, ValidationError
from .operators import OperatorExpr, commutator
from .scalars import Coeff, ONE, PolyDA, exact_fraction, solve_affine_system

AlphaTerm = tuple[Coeff, tuple]


class AlgebraConsistencyError(RuntimeError):
    """An exact identity of the light-cone algebra failed to hold."""


# Coeff.sqrt(2 alpha') trial-divides numerator * denominator of 2 alpha';
# up to this bound that takes well under a second
_MAX_RADICAND = 10**12


def _exact_params(params: StringParams) -> tuple[Fraction, Fraction]:
    """Exact (alpha', p^+), with 2 alpha' short enough to factor quickly."""
    ap, pp = exact_fraction(params.alpha_prime), exact_fraction(params.p_plus)
    if (2 * ap).numerator * (2 * ap).denominator > _MAX_RADICAND:
        raise ValidationError(
            f"alpha_prime = {params.alpha_prime} has too many digits for the exact "
            f"sqrt(2 alpha'): numerator times denominator of 2 alpha' must be <= 10**12"
        )
    return ap, pp


def virasoro_alpha_terms(
    n: int, transverse: int, n_max: int, alpha_prime: Fraction
) -> list[AlphaTerm]:
    """Transverse Virasoro generator L_n as raw alpha-normalized terms.

    Tokens ("A", n, i) denote alpha_n^i with [alpha_m, alpha_n] =
    m delta_{m+n} delta_ij; the zero mode alpha_0 = sqrt(2 alpha') p is
    substituted explicitly. Oscillator sums are truncated at ``n_max``.
    """
    terms: list[AlphaTerm] = []
    if n == 0:
        ap = Coeff.rational(alpha_prime)
        for j in range(1, transverse + 1):
            terms.append((ap, (("p", j), ("p", j))))
        for k in range(1, n_max + 1):
            for j in range(1, transverse + 1):
                terms.append((ONE, (("A", -k, j), ("A", k, j))))
        return terms
    half = Coeff.rational(Fraction(1, 2))
    for m in range(-n_max, n_max + 1):
        if m == 0 or m == n or abs(n - m) > n_max:
            continue
        for j in range(1, transverse + 1):
            terms.append((half, (("A", n - m, j), ("A", m, j))))
    if abs(n) <= n_max:
        s = Coeff.sqrt(2 * alpha_prime)
        for j in range(1, transverse + 1):
            terms.append((s, (("p", j), ("A", n, j))))
    return terms


def intercept_term(i: int, alpha_prime: Fraction, p_plus: Fraction) -> AlphaTerm:
    """X^i = -x^i / (2 alpha' p^+), the whole intercept dependence of M^{i-} / a."""
    return Coeff.rational(Fraction(-1, 2) / (alpha_prime * p_plus)), (("x", i),)


def m_minus_alpha_terms(
    i: int,
    transverse: int,
    n_max: int,
    alpha_prime: Fraction,
    p_plus: Fraction,
    intercept: Fraction,
) -> list[AlphaTerm]:
    """M^{i-} at a numeric ``intercept`` as raw alpha-normalized terms."""
    half_inv_2ap = Fraction(1, 4) / (alpha_prime * p_plus)
    terms: list[AlphaTerm] = []
    for c, w in virasoro_alpha_terms(0, transverse, n_max, alpha_prime):
        terms.append((c.scale(half_inv_2ap), (("x", i),) + w))
        terms.append((c.scale(half_inv_2ap), w + (("x", i),)))
    x_coeff, x_word = intercept_term(i, alpha_prime, p_plus)
    terms.append((x_coeff.scale(intercept), x_word))

    inv_s = Coeff.sqrt(2 * alpha_prime).scale(Fraction(1) / (2 * alpha_prime))
    for n in range(1, n_max + 1):
        front = Coeff.imaginary(-1) * inv_s.scale(Fraction(1) / (p_plus * n))
        back = Coeff.imaginary(1) * inv_s.scale(Fraction(1) / (p_plus * n))
        for c, w in virasoro_alpha_terms(n, transverse, n_max, alpha_prime):
            terms.append((front * c, (("A", -n, i),) + w))
        for c, w in virasoro_alpha_terms(-n, transverse, n_max, alpha_prime):
            terms.append((back * c, w + (("A", n, i),)))
    return terms


def alpha_terms_to_expr(terms: list[AlphaTerm]) -> OperatorExpr:
    """Convert alpha-normalized raw terms to a canonical unit-ladder expression."""
    raw = []
    for coeff, word in terms:
        unit = []
        radicand = 1  # alpha_n is sqrt(|n|) times the unit ladder operator
        for tok in word:
            if tok[0] == "A":
                n, j = tok[1], tok[2]
                unit.append(("c", -n, j) if n < 0 else ("a", n, j))
                radicand *= abs(n)
            else:
                unit.append(tok)
        raw.append((coeff if radicand == 1 else coeff * Coeff.sqrt(radicand), tuple(unit)))
    return OperatorExpr.from_raw_terms(raw)


@lru_cache(maxsize=64)
def m_minus_expr(
    i: int,
    transverse: int,
    n_max: int,
    alpha_prime: Fraction,
    p_plus: Fraction,
    intercept: Fraction,
) -> OperatorExpr:
    return alpha_terms_to_expr(
        m_minus_alpha_terms(i, transverse, n_max, alpha_prime, p_plus, intercept)
    )


def _anomalous_coeff(m: int, *pairs: tuple[OperatorExpr, OperatorExpr]) -> Fraction:
    """Coefficient of ad_{m,1} a_{m,2} in the sum of the pairs' commutators, unnormalized."""
    word, partner = (("c", m, 1), ("a", m, 2)), (("c", m, 2), ("a", m, 1))
    comm = OperatorExpr()
    for left, right in pairs:
        comm = comm + commutator(left, right, words=(word, partner))
    coeff = comm.coefficient(word)
    if not (coeff + comm.coefficient(partner)).is_zero():
        raise AlgebraConsistencyError("anomalous bilinear is not antisymmetric in (i, j)")
    return coeff.as_rational()


def _anomalous_affine_parts(
    m: int, transverse: int, n_max: int, alpha_prime: Fraction, p_plus: Fraction
) -> tuple[Fraction, Fraction]:
    """a^0 and a^1 parts of ``_anomalous_coeff`` for [M^{1-}, M^{2-}]."""
    m1, m2 = (m_minus_expr(i, transverse, n_max, alpha_prime, p_plus, 0) for i in (1, 2))
    x1, x2 = (alpha_terms_to_expr([intercept_term(i, alpha_prime, p_plus)]) for i in (1, 2))
    return _anomalous_coeff(m, (m1, m2)), _anomalous_coeff(m, (x1, m2), (m1, x2))


def _normalization(m: int, alpha_prime: Fraction, p_plus: Fraction) -> Fraction:
    # [M^{i-}, M^{j-}] = -(1/(2 alpha' p+^2)) sum_m Delta_m (alpha^i_{-m} alpha^j_m - (i<->j))
    # in the x^+ = p^+ tau gauge, and alpha_{-m} alpha_m = m ad_m a_m in
    # unit normalization.
    return -2 * alpha_prime * p_plus**2 / m


def anomaly_coefficient(m: int, params: StringParams) -> PolyDA:
    """Exact anomaly polynomial Delta_m(D, a) of the (i-),(j-) commutator.

    Delta_m = 0 simultaneously for all m has the unique solution D = 26,
    a = 1. Requires mode_cutoff >= 2m so the mode-m contractions close;
    invariance under raising the internal cutoff by one is verified, as is
    affineness of the transverse-trace dependence.
    """
    if m < 1:
        raise ValidationError(f"anomaly mode must be >= 1, got {m}")
    if params.mode_cutoff < 2 * m:
        raise ValidationError(
            f"mode_cutoff {params.mode_cutoff} too small: anomaly mode {m} needs >= {2 * m}"
        )
    ap, pp = _exact_params(params)
    n_max = 2 * m

    parts = {t: _anomalous_affine_parts(m, t, n_max, ap, pp) for t in (2, 3, 4)}
    if _anomalous_affine_parts(m, 2, n_max + 1, ap, pp) != parts[2]:
        raise AlgebraConsistencyError(
            f"Delta_{m} changed when raising the internal cutoff {n_max} -> {n_max + 1}"
        )

    coeffs: dict[tuple[int, int], Fraction] = {}
    norm = _normalization(m, ap, pp)
    for a_pow in (0, 1):
        c2, c3, c4 = (parts[t][a_pow] for t in (2, 3, 4))
        slope = c3 - c2
        if c4 - c3 != slope:
            raise AlgebraConsistencyError(
                f"transverse-trace dependence of Delta_{m} is not affine"
            )
        # c(T) = c2 + (T - 2) slope with T = D - 2
        coeffs[(0, a_pow)] = (c2 - 4 * slope) * norm
        coeffs[(1, a_pow)] = slope * norm
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
    ap, pp = _exact_params(params)
    a = exact_fraction(intercept)
    m1, m2 = (m_minus_expr(i, params.transverse_count, 2 * m, ap, pp, a) for i in (1, 2))
    return _anomalous_coeff(m, (m1, m2)) * _normalization(m, ap, pp)


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
