"""Truncated-Fock state application: the matrix-free oracle for the algebra.

States are finite dictionaries from unnormalized basis kets
|K> = prod (alpha_{-n,i})^{k_{n,i}} prod t_j^{l_j} |0> to rational
amplitudes. The transverse zero-mode pair acts on polynomials in the t_j:
the Euclidean position -i y_j multiplies by t_j and alpha_0,j = -d/dt_j, so
that [-i y_j, alpha_0,j] = 1. In this basis every generator acts with
integer matrix elements (alpha_{-n}|k> = |k+1>, alpha_n|k> = n k |k-1>,
-i y|l> = |l+1>, alpha_0|l> = -l |l-1>), so sequential application of raw
generator terms, token by token, is exact and involves no reordering
machinery at all. Comparing it with the application of a canonicalized
OperatorExpr (the same token action over its canonical words) checks the
Wick engine on concrete matrix elements."""

from __future__ import annotations

from fractions import Fraction

from stochastic_string.algebra.operators import OperatorExpr

StateKey = tuple[tuple, tuple]
State = dict[StateKey, Fraction]


def basis_state(occupations: dict[tuple[int, int], int] | None = None,
                zero: dict[int, int] | None = None) -> State:
    """|K> with oscillator ``occupations`` {(n, i): k} and zero-mode degrees {j: l}."""
    key = (
        tuple(sorted((occupations or {}).items())),
        tuple(sorted((zero or {}).items())),
    )
    return {key: Fraction(1)}


def _bump(pairs: tuple, index, delta: int) -> tuple:
    d = dict(pairs)
    d[index] = d.get(index, 0) + delta
    if d[index] == 0:
        del d[index]
    return tuple(sorted(d.items()))


def _token_branch(token, key: StateKey):
    """The (key, integer weight) of one generator acting on a basis ket, or None."""
    osc, zero = key
    kind = token[0]
    if kind == "c":
        return (_bump(osc, token[1:], 1), zero), 1
    if kind == "x":
        return (osc, _bump(zero, token[1], 1)), 1
    if kind == "a":
        k = dict(osc).get(token[1:], 0)
        return ((_bump(osc, token[1:], -1), zero), token[1] * k) if k else None
    if kind == "p":
        l = dict(zero).get(token[1], 0)
        return ((osc, _bump(zero, token[1], -1)), -l) if l else None
    raise ValueError(f"unknown token {token!r}")


def _add_into(store: State, key: StateKey, amp: Fraction) -> None:
    total = store.get(key, 0) + amp
    if total:
        store[key] = total
    else:
        store.pop(key, None)


def apply_alpha_word(word, state: State) -> State:
    for token in reversed(word):
        nxt: State = {}
        for key, amp in state.items():
            branch = _token_branch(token, key)
            if branch is not None:
                _add_into(nxt, branch[0], amp * branch[1])
        state = nxt
    return state


def apply_alpha_terms(terms, state: State) -> State:
    """Apply a sum of (rational coefficient, word) terms to a state, token by token."""
    out: State = {}
    for coeff, word in terms:
        for key, amp in apply_alpha_word(word, state).items():
            _add_into(out, key, coeff * amp)
    return out


def apply_expr(expr: OperatorExpr, state: State) -> State:
    """Apply a canonical OperatorExpr to a state."""
    return apply_alpha_terms(((coeff, word) for word, coeff in expr.terms.items()), state)


def commutator_application(terms_a, terms_b, state: State) -> State:
    """[A, B] |state> by raw sequential application (no reordering engine)."""
    out = apply_alpha_terms(terms_a, apply_alpha_terms(terms_b, state))
    for key, amp in apply_alpha_terms(terms_b, apply_alpha_terms(terms_a, state)).items():
        _add_into(out, key, -amp)
    return out


def dagger(expr: OperatorExpr) -> OperatorExpr:
    """Hermitian adjoint: each word reversed with a and c swapped, and a sign
    for each Euclidean position, as (-i y)^dagger = -(-i y); the rational
    coefficients are their own conjugates."""
    raw = []
    for word, coeff in expr.terms.items():
        flipped = tuple(
            ("a", t[1], t[2]) if t[0] == "c"
            else ("c", t[1], t[2]) if t[0] == "a"
            else t
            for t in reversed(word)
        )
        raw.append((coeff * (-1) ** sum(t[0] == "x" for t in word), flipped))
    return OperatorExpr.from_raw_terms(raw)
