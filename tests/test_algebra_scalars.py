from fractions import Fraction

from hypothesis import given, settings, strategies as st

from stochastic_string.algebra import scalars
from stochastic_string.algebra.lorentz import anomaly_coefficient, m_minus_expr
from stochastic_string.algebra.scalars import Coeff, ONE
from stochastic_string.core import StringParams

MEMOS = (scalars._sum, scalars._difference, scalars._product)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# Gaussian rationals, the ring's whole range
coeffs = st.builds(Coeff, fractions, fractions)


@given(coeffs, coeffs)
@settings(max_examples=200, deadline=None)
def test_memoized_arithmetic_matches_uncached(a, b):
    assert a + b == scalars._sum.__wrapped__(a, b)
    assert a - b == scalars._difference.__wrapped__(a, b)
    assert a * b == scalars._product.__wrapped__(a, b)
    # a cached result is the same object on every repeat
    assert a * b is a * b


@given(coeffs, coeffs)
@settings(max_examples=200, deadline=None)
def test_equal_coefficients_built_differently_hash_equal(a, b):
    rebuilt = [
        Coeff(a.re, a.im),
        (a + b) - b,
        a * ONE,
        scalars._product.__wrapped__(a, ONE),
    ]
    for other in rebuilt:
        assert other == a
        assert hash(other) == hash(a)
    assert hash(a * Coeff.rational(2)) == hash(a + a)


def test_coefficient_caches_are_bounded():
    a = Coeff(Fraction(3, 7), Fraction(-1, 5))
    b = Coeff.imaginary(2) + Coeff.rational(Fraction(10, 3))
    for memo in MEMOS:
        assert memo.cache_info().maxsize == 1 << 17
    hits = [memo.cache_info().hits for memo in MEMOS]
    assert a + b == a + b
    assert a - b == a - b
    assert a * b == a * b
    assert all(memo.cache_info().hits > before for memo, before in zip(MEMOS, hits))


def test_anomaly_reuses_products():
    for memo in (*MEMOS, m_minus_expr):
        memo.cache_clear()
    params = StringParams(alpha_prime=0.5, dims=26, mode_cutoff=6)
    assert anomaly_coefficient(3, params).coefficient(1, 0) == Fraction(-2, 9)
    info = scalars._product.cache_info()
    assert info.hits >= 10 * info.misses
