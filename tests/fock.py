"""Truncated-Fock state application: the matrix-free oracle for the algebra.

States are finite dictionaries over unnormalized basis kets
|K> = prod (alpha_{-n,i})^{k_{n,i}} prod (b_j^dag)^{l_j} |0>, where the b_j
are auxiliary unit oscillators of frequency ``lam`` representing the
transverse zero-mode pair y = (b + b^dag)/sqrt(2 lam),
alpha_0 = i sqrt(lam/2) (b^dag - b). In this basis every generator acts
with rational matrix elements (alpha_{-n}|k> = |k+1>, alpha_n|k> =
n k |k-1>), so sequential application of raw generator terms, token by
token, is exact and involves no reordering machinery at all. Comparing it
with the application of a canonicalized OperatorExpr (the same token
action over its canonical words) checks the Wick engine on concrete
matrix elements."""

from __future__ import annotations

from fractions import Fraction

from stochastic_string.algebra.operators import OperatorExpr
from stochastic_string.algebra.scalars import Coeff

GF = tuple[Fraction, Fraction]
ZERO_F, ONE_F = Fraction(0), Fraction(1)
StateKey = tuple[tuple, tuple]

VACUUM: StateKey = ((), ())


def fraction_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None."""
    if value < 0:
        return None
    num = _isqrt_exact(value.numerator)
    den = _isqrt_exact(value.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _isqrt_exact(n: int) -> int | None:
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


class AuxOscillator:
    """Zero-mode representation frequency; must make x and p rational."""

    def __init__(self, lam: Fraction = Fraction(2)):
        lam = Fraction(lam)
        inv = fraction_sqrt(1 / (2 * lam))
        d = fraction_sqrt(lam / 2)
        if inv is None or d is None:
            raise ValueError(
                f"lam={lam} does not give rational zero-mode matrix elements"
            )
        self.lam = lam
        self.x_scale = inv
        self.p_scale = d


def basis_state(occupations: dict[tuple[int, int], int] | None = None,
                aux: dict[int, int] | None = None) -> dict[StateKey, GF]:
    key = (
        tuple(sorted((occupations or {}).items())),
        tuple(sorted((aux or {}).items())),
    )
    return {key: (Fraction(1), Fraction(0))}


def _bump(pairs: tuple, index, delta: int) -> tuple:
    d = dict(pairs)
    d[index] = d.get(index, 0) + delta
    if d[index] == 0:
        del d[index]
    return tuple(sorted(d.items()))


def _token_branches(token, key: StateKey, aux: AuxOscillator):
    """Yield (key, Gaussian weight) branches of one generator acting on a basis ket."""
    osc, zero = key
    kind = token[0]
    if kind == "c":
        yield (_bump(osc, token[1:], 1), zero), (ONE_F, ZERO_F)
    elif kind == "a":
        k = dict(osc).get(token[1:], 0)
        if k:
            yield (_bump(osc, token[1:], -1), zero), (Fraction(token[1] * k), ZERO_F)
    elif kind == "x":
        i = token[1]
        yield (osc, _bump(zero, i, 1)), (aux.x_scale, ZERO_F)
        l = dict(zero).get(i, 0)
        if l:
            yield (osc, _bump(zero, i, -1)), (aux.x_scale * l, ZERO_F)
    elif kind == "p":
        i = token[1]
        yield (osc, _bump(zero, i, 1)), (ZERO_F, aux.p_scale)
        l = dict(zero).get(i, 0)
        if l:
            yield (osc, _bump(zero, i, -1)), (ZERO_F, -aux.p_scale * l)
    else:
        raise ValueError(f"unknown token {token!r}")


def _times(a: GF, b: GF) -> GF:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _add_into(store: dict[StateKey, GF], key: StateKey, amp: GF) -> None:
    re, im = store.get(key, (ZERO_F, ZERO_F))
    store[key] = (re + amp[0], im + amp[1])


def _nonzero(state: dict[StateKey, GF]) -> dict[StateKey, GF]:
    return {k: v for k, v in state.items() if v[0] or v[1]}


def apply_alpha_word(word, state: dict[StateKey, GF], aux: AuxOscillator) -> dict[StateKey, GF]:
    for token in reversed(word):
        nxt: dict[StateKey, GF] = {}
        for key, amp in state.items():
            for new_key, weight in _token_branches(token, key, aux):
                _add_into(nxt, new_key, _times(amp, weight))
        state = _nonzero(nxt)
    return state


def apply_alpha_terms(
    terms, state: dict[StateKey, GF], aux: AuxOscillator
) -> dict[StateKey, GF]:
    """Apply sum of (Gaussian coefficient, word) terms to a state, token by token."""
    out: dict[StateKey, GF] = {}
    for coeff, word in terms:
        for key, amp in apply_alpha_word(word, state, aux).items():
            _add_into(out, key, _times(coeff, amp))
    return _nonzero(out)


def substitute_alpha_terms(terms) -> list[tuple[GF, tuple]]:
    """Reduce (Coeff, word) terms to (Gaussian rational, word) terms."""
    return [((coeff.re, coeff.im), word) for coeff, word in terms if not coeff.is_zero()]


def apply_expr(
    expr: OperatorExpr, state: dict[StateKey, Coeff], aux: AuxOscillator
) -> dict[StateKey, Coeff]:
    """Apply a canonical OperatorExpr to a state with Coeff amplitudes."""
    terms = substitute_alpha_terms((coeff, word) for word, coeff in expr.terms.items())
    plain = {key: (amp.re, amp.im) for key, amp in state.items()}
    return lift_gaussian_state(apply_alpha_terms(terms, plain, aux))


def lift_gaussian_state(state: dict[StateKey, GF]) -> dict[StateKey, Coeff]:
    return {key: Coeff(*amp) for key, amp in state.items()}


def states_equal(a: dict[StateKey, Coeff], b: dict[StateKey, Coeff]) -> bool:
    if set(a) != set(b):
        return False
    return all(a[key] == b[key] for key in a)


def commutator_application(
    terms_a, terms_b, state: dict[StateKey, GF], aux: AuxOscillator
) -> dict[StateKey, GF]:
    """[A, B] |state> by raw sequential application (no reordering engine)."""
    ab = apply_alpha_terms(terms_a, apply_alpha_terms(terms_b, state, aux), aux)
    ba = apply_alpha_terms(terms_b, apply_alpha_terms(terms_a, state, aux), aux)
    out = dict(ab)
    for key, (re, im) in ba.items():
        _add_into(out, key, (-re, -im))
    return _nonzero(out)


def dagger(expr: OperatorExpr) -> OperatorExpr:
    """Hermitian adjoint: each word reversed with a and c swapped, its
    coefficient conjugated."""
    raw = []
    for word, coeff in expr.terms.items():
        flipped = tuple(
            ("a", t[1], t[2]) if t[0] == "c"
            else ("c", t[1], t[2]) if t[0] == "a"
            else t
            for t in reversed(word)
        )
        raw.append((Coeff(coeff.re, -coeff.im), flipped))
    return OperatorExpr.from_raw_terms(raw)
