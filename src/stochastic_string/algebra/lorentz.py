"""Light-cone Lorentz generators and the critical-dimension anomaly.

The generators use the standard light-cone mode expansion consistent with
the gauge x^+ = p^+ tau: transverse rotations M^{ij} are quadratic in the
ladder operators, while M^{i-} carries the constraint-solved minus
oscillators, i.e. transverse Virasoro combinations divided by p^+. The
x0^- p^i zero-mode term is omitted: it cannot be expressed with the
transverse alphabet and contributes no pure-oscillator bilinear to the
[M^{i-}, M^{j-}] commutator, so the anomaly extraction below is unaffected.

The anomalous part of [M^{i-}, M^{j-}] is the bilinear
(ad_{m,i} a_{m,j} - ad_{m,j} a_{m,i}) family; its coefficient Delta_m is an
exact rational polynomial in the spacetime dimension D and the intercept
symbol a. Internally the transverse trace is evaluated at several concrete
direction counts and the (provably affine) dependence on D - 2 is
reconstructed by exact interpolation, then cross-checked against a direct
evaluation at the physical direction count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..core import StringParams
from .operators import OperatorExpr, commutator
from .scalars import Coeff, ONE, PolyDA, solve_affine_system

AlphaTerm = tuple[Coeff, tuple]


class TruncationError(ValueError):
    """Mode cutoff too small for the requested anomaly coefficient."""


class UnsupportedComponentError(ValueError):
    """Lorentz component outside the implemented light-cone alphabet."""


class AlgebraConsistencyError(RuntimeError):
    """An exact identity of the light-cone algebra failed to hold."""


def exact_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


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


def m_minus_alpha_terms(
    i: int,
    transverse: int,
    n_max: int,
    alpha_prime: Fraction,
    p_plus: Fraction,
    intercept=None,
) -> list[AlphaTerm]:
    """M^{i-} as raw alpha-normalized terms; ``intercept=None`` keeps a symbolic."""
    a_coeff = Coeff.symbol_a() if intercept is None else Coeff.rational(intercept)
    inv_2ap = Fraction(1, 2) / (alpha_prime * p_plus)

    p_minus: list[AlphaTerm] = [
        (c.scale(inv_2ap), w)
        for c, w in virasoro_alpha_terms(0, transverse, n_max, alpha_prime)
    ]
    p_minus.append(((-a_coeff).scale(inv_2ap), ()))

    terms: list[AlphaTerm] = []
    for c, w in p_minus:
        terms.append((c.scale(Fraction(1, 2)), (("x", i),) + w))
        terms.append((c.scale(Fraction(1, 2)), w + (("x", i),)))

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
    intercept=None,
) -> OperatorExpr:
    return alpha_terms_to_expr(
        m_minus_alpha_terms(i, transverse, n_max, alpha_prime, p_plus, intercept)
    )


def transverse_rotation_expr(i: int, j: int, n_max: int) -> OperatorExpr:
    """M^{ij} = x^i p^j - x^j p^i - i sum_n (ad_{n,i} a_{n,j} - ad_{n,j} a_{n,i})."""
    minus_i = Coeff.imaginary(-1)
    raw = [
        (ONE, (("x", i), ("p", j))),
        (Coeff.rational(-1), (("x", j), ("p", i))),
    ]
    for n in range(1, n_max + 1):
        raw.append((minus_i, (("c", n, i), ("a", n, j))))
        raw.append((Coeff.imaginary(1), (("c", n, j), ("a", n, i))))
    return OperatorExpr.from_raw_terms(raw)


def lorentz_generator(component: tuple, params: StringParams) -> OperatorExpr:
    """Mode expansion of M^{component} with oscillator sums cut at mode_cutoff.

    ``component`` is a pair drawn from transverse indices (integers) and the
    light-cone labels "+"/"-". The (+,-) component needs the x0^- zero mode,
    which is outside the transverse operator alphabet, and is rejected.
    """
    if len(component) != 2:
        raise UnsupportedComponentError(f"component must be a pair, got {component!r}")
    mu, nu = component
    if mu == nu:
        if isinstance(mu, int):
            return OperatorExpr()
        raise UnsupportedComponentError(f"invalid component {component!r}")
    ap = exact_fraction(params.alpha_prime)
    pp = exact_fraction(params.p_plus)
    t = params.transverse_count
    n_max = params.mode_cutoff

    def check_dir(idx):
        if not (isinstance(idx, int) and 1 <= idx <= t):
            raise UnsupportedComponentError(
                f"transverse index {idx!r} outside 1..{t}"
            )

    if isinstance(mu, int) and isinstance(nu, int):
        check_dir(mu)
        check_dir(nu)
        return transverse_rotation_expr(mu, nu, n_max)
    if {mu, nu} == {"+", "-"}:
        raise UnsupportedComponentError(
            "M^{+-} requires the x0^- zero mode, which the transverse alphabet omits"
        )
    label = mu if isinstance(mu, str) else nu
    idx = nu if isinstance(mu, str) else mu
    check_dir(idx)
    sign = 1 if isinstance(mu, int) else -1
    if label == "+":
        # gauge x^+ = p^+ tau at tau = 0: M^{i+} = p^+ x^i
        return OperatorExpr({(("x", idx),): Coeff.rational(sign * pp)})
    if label == "-":
        expr = m_minus_expr(idx, t, n_max, ap, pp)
        return expr if sign == 1 else expr.scale(-1)
    raise UnsupportedComponentError(f"invalid component {component!r}")


def _anomalous_word(m: int) -> tuple:
    return (("c", m, 1), ("a", m, 2))


def _raw_anomalous_coeff(
    m: int,
    transverse: int,
    n_max: int,
    alpha_prime: Fraction,
    p_plus: Fraction,
    intercept=None,
) -> Coeff:
    """Coefficient of ad_{m,1} a_{m,2} in [M^{1-}, M^{2-}], unnormalized."""
    m1 = m_minus_expr(1, transverse, n_max, alpha_prime, p_plus, intercept)
    m2 = m_minus_expr(2, transverse, n_max, alpha_prime, p_plus, intercept)
    word = _anomalous_word(m)
    partner = (("c", m, 2), ("a", m, 1))
    comm = commutator(m1, m2, words=(word, partner))
    coeff = comm.coefficient(word)
    if not (coeff + comm.coefficient(partner)).is_zero():
        raise AlgebraConsistencyError("anomalous bilinear is not antisymmetric in (i, j)")
    return coeff


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
        raise TruncationError(f"anomaly mode must be >= 1, got {m}")
    if params.mode_cutoff < 2 * m:
        raise TruncationError(
            f"mode_cutoff {params.mode_cutoff} too small: anomaly mode {m} needs >= {2 * m}"
        )
    ap = exact_fraction(params.alpha_prime)
    pp = exact_fraction(params.p_plus)
    n_max = 2 * m

    polys: dict[int, dict[int, Fraction]] = {}
    for t in (2, 3, 4):
        polys[t] = _raw_anomalous_coeff(m, t, n_max, ap, pp).a_polynomial()

    stability = _raw_anomalous_coeff(m, 2, n_max + 1, ap, pp).a_polynomial()
    if stability != polys[2]:
        raise TruncationError(
            f"Delta_{m} changed when raising the internal cutoff {n_max} -> {n_max + 1}"
        )

    powers = set(polys[2]) | set(polys[3]) | set(polys[4])
    zero = Fraction(0)
    coeffs: dict[tuple[int, int], Fraction] = {}
    norm = _normalization(m, ap, pp)
    for a_pow in powers:
        c2 = polys[2].get(a_pow, zero)
        c3 = polys[3].get(a_pow, zero)
        c4 = polys[4].get(a_pow, zero)
        slope = c3 - c2
        if c4 - c3 != slope:
            raise AlgebraConsistencyError(
                f"transverse-trace dependence of Delta_{m} is not affine"
            )
        # c(T) = c2 + (T - 2) slope with T = D - 2
        const = c2 - 4 * slope
        if const:
            coeffs[(0, a_pow)] = coeffs.get((0, a_pow), zero) + const * norm
        if slope:
            coeffs[(1, a_pow)] = coeffs.get((1, a_pow), zero) + slope * norm
    return PolyDA(coeffs)


def anomaly_value_direct(m: int, params: StringParams, intercept) -> Fraction:
    """Delta_m evaluated by a direct computation at the physical direction count.

    Independent of the interpolation path: the transverse trace is summed
    explicitly over all D - 2 directions with the intercept substituted
    numerically before commuting.
    """
    if params.mode_cutoff < 2 * m:
        raise TruncationError(
            f"mode_cutoff {params.mode_cutoff} too small for anomaly mode {m}"
        )
    ap = exact_fraction(params.alpha_prime)
    pp = exact_fraction(params.p_plus)
    raw = _raw_anomalous_coeff(
        m, params.transverse_count, 2 * m, ap, pp, intercept=exact_fraction(intercept)
    )
    poly = raw.a_polynomial()
    if set(poly) - {0}:
        raise AlgebraConsistencyError("intercept substitution left symbolic terms")
    return poly.get(0, Fraction(0)) * _normalization(m, ap, pp)


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
