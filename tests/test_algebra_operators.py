from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fock import (
    AuxOscillator,
    apply_expr,
    basis_state,
    dagger,
    lift_gaussian_state,
    states_equal,
)
from stochastic_string.algebra.operators import (
    OperatorExpr,
    annihilation,
    commutator,
    creation,
    identity,
    momentum,
    normal_order_word,
    position,
)
from stochastic_string.algebra.scalars import Coeff


TOKENS = [
    ("c", 1, 1), ("c", 1, 2), ("c", 2, 1),
    ("a", 1, 1), ("a", 1, 2), ("a", 2, 1),
    ("x", 1), ("x", 2), ("p", 1), ("p", 2),
]

words = st.lists(st.sampled_from(TOKENS), min_size=0, max_size=6).map(tuple)

coefficients = st.sampled_from([
    Coeff.rational(1),
    Coeff.rational(Fraction(-3, 2)),
    Coeff.imaginary(2),
    Coeff(Fraction(2, 5), Fraction(-7, 4)),
    Coeff.rational(1) + Coeff.imaginary(Fraction(1, 3)),
])

exprs = st.lists(
    st.tuples(coefficients, st.lists(st.sampled_from(TOKENS), max_size=4).map(tuple)),
    min_size=1,
    max_size=3,
).map(OperatorExpr.from_raw_terms)

AUX = AuxOscillator(Fraction(2))


def expr_from_word(word):
    return OperatorExpr.from_raw_terms([(Coeff.rational(1), word)])


def test_canonical_commutation():
    assert commutator(annihilation(1, 1), creation(1, 1)) == identity(1)
    assert commutator(annihilation(2, 1), creation(2, 1)) == identity(2)
    assert commutator(annihilation(2, 1), creation(1, 1)).is_zero()
    assert commutator(annihilation(1, 1), creation(1, 2)).is_zero()
    assert commutator(position(1), momentum(1)) == identity(Coeff.imaginary(1))
    assert commutator(position(1), momentum(2)).is_zero()
    assert commutator(position(1), position(2)).is_zero()


def test_number_operator_raises():
    number = creation(1, 1) * annihilation(1, 1)
    assert commutator(number, creation(1, 1)) == creation(1, 1)


def test_wick_reordering_example():
    # [alpha_2 alpha_1, alpha_-1 alpha_-2] = 2 + 2 alpha_-1 alpha_1 + alpha_-2 alpha_2
    # (all direction 1)
    A = annihilation(2, 1) * annihilation(1, 1)
    B = creation(1, 1) * creation(2, 1)
    expected = (
        identity(2)
        + (creation(1, 1) * annihilation(1, 1)).scale(2)
        + creation(2, 1) * annihilation(2, 1)
    )
    assert commutator(A, B) == expected


def test_wick_reordering_matches_state_application():
    # oracle: dense application on the truncated Fock space, occupancy <= 4
    A = annihilation(2, 1) * annihilation(1, 1)
    B = creation(1, 1) * creation(2, 1)
    C = commutator(A, B)
    for occ in [{}, {(1, 1): 1}, {(2, 1): 2}, {(1, 1): 2, (2, 1): 2}]:
        psi = lift_gaussian_state(basis_state(occ))
        direct = apply_expr(C, psi, AUX)
        two_sided = _sub(
            apply_expr(A, apply_expr(B, psi, AUX), AUX),
            apply_expr(B, apply_expr(A, psi, AUX), AUX),
        )
        assert states_equal(direct, two_sided)


def _sub(a, b):
    out = dict(a)
    for key, coeff in b.items():
        total = out.get(key, Coeff()) - coeff
        if total.is_zero():
            out.pop(key, None)
        else:
            out[key] = total
    return out


@given(words)
@settings(max_examples=150, deadline=None)
def test_canonicalization_idempotent(word):
    expr = expr_from_word(word)
    again = OperatorExpr.from_raw_terms(
        [(coeff, w) for w, coeff in expr.terms.items()]
    )
    assert again == expr


@given(words)
@settings(max_examples=100, deadline=None)
def test_normal_order_preserves_action(word):
    # reordering must not change what the operator does to states
    expr = expr_from_word(word)
    psi = lift_gaussian_state(basis_state({(1, 1): 1, (2, 1): 1}, {1: 1}))
    canonical_action = apply_expr(expr, psi, AUX)
    raw_action = psi
    for token in reversed(word):
        raw_action = apply_expr(OperatorExpr({(token,): Coeff.rational(1)}), raw_action, AUX)
    assert states_equal(canonical_action, raw_action)


@given(words, words)
@settings(max_examples=60, deadline=None)
def test_commutator_matches_two_sided_application(w1, w2):
    A, B = expr_from_word(w1), expr_from_word(w2)
    C = commutator(A, B)
    psi = lift_gaussian_state(basis_state({(1, 1): 2, (1, 2): 1}, {2: 1}))
    direct = apply_expr(C, psi, AUX)
    two_sided = _sub(
        apply_expr(A, apply_expr(B, psi, AUX), AUX),
        apply_expr(B, apply_expr(A, psi, AUX), AUX),
    )
    assert states_equal(direct, two_sided)


@given(exprs, exprs, exprs)
@settings(max_examples=40, deadline=None)
def test_jacobi_identity(A, B, C):
    total = (
        commutator(commutator(A, B), C)
        + commutator(commutator(B, C), A)
        + commutator(commutator(C, A), B)
    )
    assert total.is_zero()


@given(exprs, exprs)
@settings(max_examples=40, deadline=None)
def test_commutator_antisymmetry(A, B):
    assert (commutator(A, B) + commutator(B, A)).is_zero()


@given(exprs, exprs)
@settings(max_examples=40, deadline=None)
def test_commutator_matches_product_difference(A, B):
    # the commutator's interacting-pair skip and per-word differences agree with plain products
    assert commutator(A, B) == A * B - B * A


@given(exprs)
@settings(max_examples=60, deadline=None)
def test_expr_canonicalization_idempotent(expr):
    again = OperatorExpr.from_raw_terms([(c, w) for w, c in expr.terms.items()])
    assert again == expr


@given(words)
@settings(max_examples=80, deadline=None)
def test_dagger_involution(word):
    expr = expr_from_word(word)
    assert dagger(dagger(expr)) == expr


def test_dagger_examples():
    assert dagger(creation(3, 1)) == annihilation(3, 1)
    assert dagger(position(1)) == position(1)
    xp = position(1) * momentum(1)
    assert dagger(xp) == momentum(1) * position(1)


def test_scale_and_arithmetic():
    e = creation(1, 1).scale(Fraction(3, 2)) - creation(1, 1).scale(Fraction(3, 2))
    assert e.is_zero()
    assert (identity(2) + identity(-2)).is_zero()


def test_normal_order_word_cache_consistency():
    word = (("a", 1, 1), ("c", 1, 1), ("p", 1), ("x", 1))
    first = normal_order_word(word)
    second = normal_order_word(word)
    assert first == second
    # the (a c) and (p x) contractions combine into a -i (c a) term
    assert first[(("c", 1, 1), ("a", 1, 1))] == Coeff.imaginary(-1)
    assert first[()] == Coeff.imaginary(-1)


def test_normal_order_word_cache_is_bounded():
    assert normal_order_word.cache_info().maxsize == 1 << 17
    word = (("a", 2, 1), ("c", 2, 1), ("p", 2), ("c", 1, 1), ("x", 2))
    hits = normal_order_word.cache_info().hits
    assert normal_order_word(word) == normal_order_word(word)
    assert normal_order_word.cache_info().hits > hits
    # the cached expansion equals a fresh, uncached one
    assert normal_order_word(word) == normal_order_word.__wrapped__(word)


def test_coefficient_lookup():
    expr = creation(1, 1) * annihilation(1, 2)
    word = (("c", 1, 1), ("a", 1, 2))
    assert expr.coefficient(word) == Coeff.rational(1)
    assert expr.coefficient((("c", 9, 9),)).is_zero()


def restrict(expr, wanted):
    return OperatorExpr({w: c for w, c in expr.terms.items() if w in wanted})


# the length-preserving term of a word's normal ordering is its canonical permutation
canonical_words = words.map(lambda w: max(normal_order_word(w), key=len, default=()))


@given(exprs, exprs, st.data())
@settings(max_examples=80, deadline=None)
def test_pruned_commutator_matches_restricted_full(A, B, data):
    full = commutator(A, B)
    wanted = set(data.draw(st.lists(canonical_words, max_size=3)))
    if full.terms:
        wanted |= set(data.draw(st.lists(st.sampled_from(sorted(full.terms)), max_size=3)))
    assert commutator(A, B, words=wanted) == restrict(full, wanted)


def test_pruned_commutator_repeated_tokens():
    c11, a11 = ("c", 1, 1), ("a", 1, 1)
    a_sq = annihilation(1, 1) * annihilation(1, 1)
    c_sq = creation(1, 1) * creation(1, 1)
    full = commutator(a_sq, c_sq)  # [alpha_1^2, alpha_-1^2] = 4 alpha_-1 alpha_1 + 2
    assert full == (creation(1, 1) * annihilation(1, 1)).scale(4) + identity(2)
    for wanted in ({(c11, a11)}, {()}, {(c11, c11, a11, a11)}, {(c11, a11), (), (c11, c11)}):
        assert commutator(a_sq, c_sq, words=wanted) == restrict(full, wanted)
    x_sq = position(1) * position(1)
    p_sq = momentum(1) * momentum(1)
    full = commutator(x_sq, p_sq)
    wanted = {(("x", 1), ("p", 1)), ()}
    assert commutator(x_sq, p_sq, words=wanted) == restrict(full, wanted) == full


def test_pruned_commutator_skips_unreachable_pairs(monkeypatch):
    from stochastic_string.algebra import operators

    A = creation(1, 1) * annihilation(1, 2) + creation(2, 1) * position(1)
    B = creation(1, 2) * annihilation(1, 1) + momentum(1)
    calls = []
    original = operators.normal_order_word
    monkeypatch.setattr(
        operators, "normal_order_word", lambda word: calls.append(word) or original(word)
    )
    # mode 3 appears in neither operand; ad_{1,2} sits only in pairs of odd
    # total length, which cannot reach a one-token word
    for wanted in ({(("c", 3, 1), ("a", 3, 2))}, {(("c", 1, 2),)}):
        assert commutator(A, B, words=wanted).is_zero()
    assert calls == []
    wanted = {(("c", 1, 1), ("a", 1, 1))}
    assert commutator(A, B, words=wanted) == restrict(commutator(A, B), wanted)
    assert calls
