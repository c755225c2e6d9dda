from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest

from stochastic_string.core import StringParams, ValidationError
from fock import (
    AuxOscillator,
    apply_expr,
    basis_state,
    commutator_application,
    dagger,
    lift_gaussian_state,
    states_equal,
    substitute_alpha_terms,
)
from stochastic_string import algebra
from stochastic_string.algebra.lorentz import (
    AlgebraConsistencyError,
    anomaly_coefficient,
    anomaly_report,
    anomaly_value_direct,
    m_minus_alpha_terms,
    m_minus_expr,
    virasoro_alpha_terms,
)
from stochastic_string.algebra.operators import (
    OperatorExpr,
    annihilation,
    commutator,
    creation,
    identity,
    momentum,
    position,
)
from stochastic_string.algebra.scalars import Coeff, PolyDA, solve_affine_system

AUX = AuxOscillator(Fraction(2))


def virasoro(n, transverse=3, n_max=6):
    return OperatorExpr.from_raw_terms(virasoro_alpha_terms(n, transverse, n_max))


def states(occupations_list):
    return [lift_gaussian_state(basis_state(occ)) for occ in occupations_list]


def exprs_equal_on(lhs, rhs, state_list):
    return all(
        states_equal(apply_expr(lhs, psi, AUX), apply_expr(rhs, psi, AUX))
        for psi in state_list
    )


LOW_STATES = [{}, {(1, 1): 1}, {(2, 2): 1}, {(1, 1): 1, (1, 2): 1}, {(2, 1): 2}]


def test_virasoro_ladder_action():
    # [L_m, alpha_n] = -n alpha_{m+n}, exactly
    assert commutator(virasoro(1), annihilation(2, 1)) == annihilation(3, 1).scale(-2)


def test_virasoro_algebra_with_central_term():
    # [L_m, L_-m] = 2m L_0 + (T/12) m (m^2 - 1)
    for m, transverse in ((1, 3), (2, 3), (2, 4)):
        lhs = commutator(virasoro(m, transverse), virasoro(-m, transverse))
        central = Fraction(transverse, 12) * m * (m**2 - 1)
        rhs = virasoro(0, transverse).scale(2 * m) + identity(Coeff.rational(central))
        assert exprs_equal_on(lhs, rhs, states(LOW_STATES))


def test_virasoro_commutator_mixed_modes():
    # [L_1, L_-2] = 3 L_-1 on low-lying states
    lhs = commutator(virasoro(1), virasoro(-2))
    rhs = virasoro(-1).scale(3)
    assert exprs_equal_on(lhs, rhs, states(LOW_STATES))


def test_m_minus_vacuum_expectation(params):
    # normal-ordered M^{i-} has vanishing vacuum expectation at a = 0;
    # oracle: state application in the aux representation
    expr = m_minus_expr(1, 3, 2, intercept=Fraction(0))
    vacuum = lift_gaussian_state(basis_state())
    out = apply_expr(expr, vacuum, AUX)
    assert out.get(((), ()), Coeff()).is_zero()


def test_m_minus_hermitian():
    expr = m_minus_expr(1, 3, 2, intercept=Fraction(1))
    assert dagger(expr) == expr


def test_m_minus_component_at_critical_intercept():
    # one transverse direction: the words of E^1 = sqrt(2 alpha') p+ M^{1-}
    # diagonal in the occupation numbers (as many raising as lowering
    # oscillators of each mode) are exactly {y, alpha_0^2/2 + N - a}/2 at the
    # critical intercept a = 1, with N = alpha_-1 alpha_1 + alpha_-2 alpha_2;
    # the other words change an occupation, so they vanish in number states
    m_minus = m_minus_expr(1, 1, 2, 1)
    diagonal = OperatorExpr({
        word: coeff for word, coeff in m_minus.terms.items()
        if Counter(t[1:] for t in word if t[0] == "c")
        == Counter(t[1:] for t in word if t[0] == "a")
    })
    x, p = position(1), momentum(1)
    number = creation(1, 1) * annihilation(1, 1) + creation(2, 1) * annihilation(2, 1)
    inner = (p * p).scale(Fraction(1, 2)) + number - identity()
    assert diagonal == (x * inner + inner * x).scale(Fraction(1, 2))


def test_anomaly_polynomials(params):
    d1 = anomaly_coefficient(1, params)
    d2 = anomaly_coefficient(2, params)
    # standard closed form: m (26 - D)/12 + ((D - 26)/12 + 2(1 - a)) / m
    def closed_form(m, D, a):
        return (
            Fraction(m * (26 - D), 12)
            + (Fraction(D - 26, 12) + 2 * (1 - Fraction(a))) / m
        )
    for D in (3, 10, 25, 26, 27):
        for a in (0, 1, 2, Fraction(1, 2)):
            assert d1.evaluate(D, a) == closed_form(1, D, a)
            assert d2.evaluate(D, a) == closed_form(2, D, a)


def test_anomaly_vanishes_only_at_critical_point(params):
    d1 = anomaly_coefficient(1, params)
    d2 = anomaly_coefficient(2, params)
    assert d1.evaluate(26, 1) == 0
    assert d2.evaluate(26, 1) == 0
    assert (d1.evaluate(25, 1), d2.evaluate(25, 1)) != (0, 0)
    assert (d1.evaluate(26, 0), d2.evaluate(26, 0)) != (0, 0)
    assert solve_affine_system([d1, d2]) == ("point", Fraction(26), Fraction(1))


def test_anomaly_mode_three():
    # the truncation policy extends beyond the acceptance modes
    params = StringParams(alpha_prime=0.5, dims=26, mode_cutoff=6)
    d3 = anomaly_coefficient(3, params)
    assert d3.evaluate(26, 1) == 0
    assert d3.coefficient(1, 0) == Fraction(-2, 9)
    assert d3.coefficient(0, 1) == Fraction(-2, 3)
    assert d3.coefficient(0, 0) == Fraction(58, 9)


def test_anomaly_independent_of_alpha_prime_and_p_plus():
    base = anomaly_coefficient(1, StringParams(alpha_prime=0.5, mode_cutoff=2))
    other = anomaly_coefficient(1, StringParams(alpha_prime=2.0, mode_cutoff=2))
    assert base == other
    # E^i = sqrt(2 alpha') p+ M^{i-}: p+ is no parameter the anomaly could read
    assert "p_plus" not in {f.name for f in fields(StringParams)}


def test_anomaly_truncation_guard():
    with pytest.raises(ValidationError, match="mode_cutoff 4 too small: anomaly mode 3"):
        anomaly_coefficient(3, StringParams(alpha_prime=0.5, mode_cutoff=4))
    with pytest.raises(ValidationError, match="mode_cutoff 4 too small for anomaly mode 3"):
        anomaly_value_direct(3, StringParams(alpha_prime=0.5, mode_cutoff=4), 1)
    with pytest.raises(ValidationError, match="anomaly mode must be >= 1, got 0"):
        anomaly_coefficient(0, StringParams(alpha_prime=0.5, mode_cutoff=4))


def test_cutoff_dependence_is_a_consistency_fault(monkeypatch):
    # Delta_m must not change when the internal cutoff is raised; if it does,
    # the algebra is at fault, not the input
    from stochastic_string.algebra import lorentz

    parts = lorentz._anomalous_affine_parts
    monkeypatch.setattr(
        lorentz, "_anomalous_affine_parts",
        lambda m, t, n_max: parts(m, t, n_max) if n_max == 2 * m else (Fraction(1), Fraction(0)),
    )
    with pytest.raises(AlgebraConsistencyError, match="raising the internal cutoff 2 -> 3"):
        anomaly_coefficient(1, StringParams(alpha_prime=0.5, mode_cutoff=2))


def test_anomaly_direct_matches_polynomial(params):
    # direct evaluation at the physical transverse count (no interpolation)
    d2 = anomaly_coefficient(2, params)
    params25 = StringParams(alpha_prime=0.5, dims=25, mode_cutoff=4)
    for a in (1, Fraction(3, 4), -2):
        assert anomaly_value_direct(2, params, a) == d2.evaluate(26, a)
        assert anomaly_value_direct(2, params25, a) == d2.evaluate(25, a)


def test_m_minus_commutator_matches_raw_application():
    # oracle: sequential application of the raw generator terms, no Wick engine
    a_val = Fraction(1)
    transverse, n_max = 3, 2
    terms1 = m_minus_alpha_terms(1, transverse, n_max, intercept=a_val)
    terms2 = m_minus_alpha_terms(2, transverse, n_max, intercept=a_val)
    C = commutator(
        m_minus_expr(1, transverse, n_max, intercept=a_val),
        m_minus_expr(2, transverse, n_max, intercept=a_val),
    )
    raw1 = substitute_alpha_terms(terms1)
    raw2 = substitute_alpha_terms(terms2)
    for occ, aux_occ in [({}, {}), ({(1, 2): 1}, {}), ({(2, 2): 1}, {1: 1})]:
        gf_state = basis_state(occ, aux_occ)
        sym = apply_expr(C, lift_gaussian_state(gf_state), AUX)
        raw = lift_gaussian_state(commutator_application(raw1, raw2, gf_state, AUX))
        assert states_equal(sym, raw)


def test_anomaly_report_format(params):
    report = anomaly_report(params)
    assert "Delta_1(D, a)" in report
    assert "Delta_1(26, 1) = 0" in report
    assert "Delta_2(26, 1) = 0" in report
    assert "joint solution: D = 26, a = 1" in report


def test_poly_da_helpers():
    poly = PolyDA({(1, 0): Fraction(2), (0, 0): Fraction(-52)})
    assert poly.evaluate(26, 7) == 0
    assert poly.is_affine()
    assert not poly.is_zero()
    assert solve_affine_system(
        [poly, PolyDA({(0, 1): Fraction(1), (0, 0): Fraction(-1)})]
    ) == ("point", Fraction(26), Fraction(1))


@pytest.mark.parametrize("transverse, n_max", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("intercept", [pytest.param("X", id="x_pair"), Fraction(3, 4)])
def test_pruned_m_minus_commutator_matches_full(transverse, n_max, intercept):
    if intercept == "X":  # [-y^1, E0^2], the a^1 pair of anomaly_coefficient
        m1 = position(1).scale(-1)
        m2 = m_minus_expr(2, transverse, n_max, 0)
    else:
        m1 = m_minus_expr(1, transverse, n_max, intercept)
        m2 = m_minus_expr(2, transverse, n_max, intercept)
    full = commutator(m1, m2)
    wanted = {
        (("c", m, i), ("a", m, j)) for m in range(1, n_max + 1) for i, j in ((1, 2), (2, 1))
    }
    # mode n_max + 1 is in neither generator, so no word pair reaches it
    unreachable = (("c", n_max + 1, 1), ("a", n_max + 1, 2))
    wanted |= {unreachable, (("x", 1), ("p", 2)), ()}
    pruned = commutator(m1, m2, words=wanted)
    assert pruned == OperatorExpr({w: c for w, c in full.terms.items() if w in wanted})
    assert pruned.coefficient(unreachable).is_zero()
    assert not pruned.coefficient((("c", 1, 1), ("a", 1, 2))).is_zero()


def test_m_minus_cache_is_bounded():
    first = m_minus_expr(1, 2, 1, 1)
    for k in range(1, 80):
        m_minus_expr(1, 2, 1, Fraction(k, 7))
    info = m_minus_expr.cache_info()
    assert info.maxsize == 64 and info.currsize <= 64
    again = m_minus_expr(1, 2, 1, 1)
    assert again == first
    assert again == OperatorExpr.from_raw_terms(m_minus_alpha_terms(1, 2, 1, 1))


def test_consistency_error_is_a_numerical_failure():
    assert issubclass(AlgebraConsistencyError, RuntimeError)
    assert algebra.AlgebraConsistencyError is AlgebraConsistencyError
