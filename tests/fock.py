"""Truncated-Fock state application: the matrix-free oracle for the algebra.

States are finite dictionaries over unnormalized basis kets
|K> = prod (alpha_{-n,i})^{k_{n,i}} prod (b_j^dag)^{l_j} |0>, where the b_j
are auxiliary unit oscillators of frequency ``lam`` representing the
transverse zero modes x = (b + b^dag)/sqrt(2 lam), p = i sqrt(lam/2)
(b^dag - b). In this basis every generator acts with rational matrix
elements (alpha_{-n}|k> = |k+1>, alpha_n|k> = n k |k-1>), so sequential
application of raw generator terms is exact and involves no reordering
machinery at all. Comparing it with the application of a canonicalized
OperatorExpr checks the Wick engine on concrete matrix elements.
"""

from __future__ import annotations

from fractions import Fraction

from stochastic_string.algebra.operators import OperatorExpr
from stochastic_string.algebra.scalars import Coeff, ONE

GF = tuple[Fraction, Fraction]
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


def _apply_token(token, key: StateKey, amp: GF, aux: AuxOscillator):
    """Yield (key, amplitude) branches of one alpha-language generator."""
    osc, zero = key
    re, im = amp
    kind = token[0]
    if kind == "A":
        n, i = token[1], token[2]
        if n < 0:
            yield (_bump(osc, (-n, i), 1), zero), amp
        else:
            k = dict(osc).get((n, i), 0)
            if k:
                w = Fraction(n * k)
                yield (_bump(osc, (n, i), -1), zero), (re * w, im * w)
    elif kind == "x":
        i = token[1]
        c = aux.x_scale
        yield (osc, _bump(zero, i, 1)), (re * c, im * c)
        l = dict(zero).get(i, 0)
        if l:
            w = c * l
            yield (osc, _bump(zero, i, -1)), (re * w, im * w)
    elif kind == "p":
        i = token[1]
        d = aux.p_scale
        yield (osc, _bump(zero, i, 1)), (-im * d, re * d)
        l = dict(zero).get(i, 0)
        if l:
            w = d * l
            yield (osc, _bump(zero, i, -1)), (im * w, -re * w)
    else:
        raise ValueError(f"unknown alpha token {token!r}")


def _apply_unit_token_branches(token, key: StateKey, aux: AuxOscillator):
    """Branches of a unit-normalized OperatorExpr token, with Coeff weights."""
    osc, zero = key
    kind = token[0]
    if kind == "c":
        n, i = token[1], token[2]
        yield (_bump(osc, (n, i), 1), zero), Coeff.sqrt(Fraction(1, n))
    elif kind == "a":
        n, i = token[1], token[2]
        k = dict(osc).get((n, i), 0)
        if k:
            yield (_bump(osc, (n, i), -1), zero), Coeff.sqrt(n).scale(k)
    elif kind == "x":
        i = token[1]
        yield (osc, _bump(zero, i, 1)), Coeff.rational(aux.x_scale)
        l = dict(zero).get(i, 0)
        if l:
            yield (osc, _bump(zero, i, -1)), Coeff.rational(aux.x_scale * l)
    elif kind == "p":
        i = token[1]
        yield (osc, _bump(zero, i, 1)), Coeff.imaginary(aux.p_scale)
        l = dict(zero).get(i, 0)
        if l:
            yield (osc, _bump(zero, i, -1)), Coeff.imaginary(-aux.p_scale * l)
    else:
        raise ValueError(f"unknown token {token!r}")


def apply_alpha_word(word, state: dict[StateKey, GF], aux: AuxOscillator) -> dict[StateKey, GF]:
    for token in reversed(word):
        nxt: dict[StateKey, GF] = {}
        for key, amp in state.items():
            for new_key, new_amp in _apply_token(token, key, amp, aux):
                cre, cim = nxt.get(new_key, (Fraction(0), Fraction(0)))
                nxt[new_key] = (cre + new_amp[0], cim + new_amp[1])
        state = {k: v for k, v in nxt.items() if v[0] or v[1]}
    return state


def apply_alpha_terms(
    terms, state: dict[StateKey, GF], aux: AuxOscillator
) -> dict[StateKey, GF]:
    """Apply sum of (Gaussian coefficient, alpha word) terms to a state."""
    out: dict[StateKey, GF] = {}
    for (cre, cim), word in terms:
        for key, (re, im) in apply_alpha_word(word, state, aux).items():
            ore, oim = out.get(key, (Fraction(0), Fraction(0)))
            out[key] = (ore + cre * re - cim * im, oim + cre * im + cim * re)
    return {k: v for k, v in out.items() if v[0] or v[1]}


def substitute_alpha_terms(terms) -> list[tuple[GF, tuple]]:
    """Reduce radical-free coefficients to Gaussian rationals."""
    numeric = []
    for coeff, word in terms:
        value = coeff.as_gaussian()
        if value[0] or value[1]:
            numeric.append((value, word))
    return numeric


def apply_expr(
    expr: OperatorExpr, state: dict[StateKey, Coeff], aux: AuxOscillator
) -> dict[StateKey, Coeff]:
    """Apply a canonical OperatorExpr to a state with Coeff amplitudes."""
    out: dict[StateKey, Coeff] = {}
    for word, coeff in expr.terms.items():
        partial = {key: ONE.scale(1) * amp for key, amp in state.items()}
        for token in reversed(word):
            nxt: dict[StateKey, Coeff] = {}
            for key, amp in partial.items():
                for new_key, weight in _apply_unit_token_branches(token, key, aux):
                    acc = nxt.get(new_key)
                    term = amp * weight
                    nxt[new_key] = term if acc is None else acc + term
            partial = {k: v for k, v in nxt.items() if not v.is_zero()}
        for key, amp in partial.items():
            total = amp * coeff
            acc = out.get(key)
            total = total if acc is None else acc + total
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
    return out


def lift_gaussian_state(state: dict[StateKey, GF]) -> dict[StateKey, Coeff]:
    return {key: Coeff({1: amp}) for key, amp in state.items()}


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
        ore, oim = out.get(key, (Fraction(0), Fraction(0)))
        out[key] = (ore - re, oim - im)
    return {k: v for k, v in out.items() if v[0] or v[1]}


def dagger(expr: OperatorExpr) -> OperatorExpr:
    """Hermitian adjoint: each word reversed with a and c swapped, its
    coefficient conjugated (sqrt radicals are real)."""
    raw = []
    for word, coeff in expr.terms.items():
        flipped = tuple(
            ("a", t[1], t[2]) if t[0] == "c"
            else ("c", t[1], t[2]) if t[0] == "a"
            else t
            for t in reversed(word)
        )
        conjugate = Coeff({r: (re, -im) for r, (re, im) in coeff.terms.items()})
        raw.append((conjugate, flipped))
    return OperatorExpr.from_raw_terms(raw)
