"""Normal-ordered polynomials in alpha-normalized oscillators and zero modes.

Words are products of the generators
    ("c", n, i)  alpha_{-n}^i, the raising oscillator of mode n >= 1, direction i
    ("a", n, i)  alpha_n^i, its lowering partner
    ("x", i)     the Euclidean zero-mode position -i y^i, y^i = x^i / (2 alpha')^(1/2)
    ("p", i)     the zero-mode momentum alpha_0^i = (2 alpha')^(1/2) p^i
with the canonical commutators [alpha_m^i, alpha_{-n}^j] = m delta_mn delta_ij
and [-i y^i, alpha_0^j] = delta_ij; everything else commutes. Every weight
that normal ordering produces is therefore an integer, and coefficients
are Python ints and Fractions: the ring is the rationals. The
canonical word order is raising oscillators, then positions, then
momenta, then lowering oscillators, each block sorted by (mode,
direction). Expressions store only canonical words, so canonicalization
is idempotent by construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Token = tuple
Word = tuple
Rational = int | Fraction

_CLASS = {"c": 0, "x": 1, "p": 2, "a": 3}


def creation(n: int, i: int) -> "OperatorExpr":
    """alpha_{-n}^i, which raises mode n >= 1 of direction i."""
    return OperatorExpr({(("c", n, i),): 1})


def annihilation(n: int, i: int) -> "OperatorExpr":
    """alpha_n^i, which lowers mode n >= 1 of direction i: [alpha_n, alpha_{-n}] = n."""
    return OperatorExpr({(("a", n, i),): 1})


def position(i: int) -> "OperatorExpr":
    """-i y^i, the Euclidean zero-mode position, with y^i = x^i / (2 alpha')^(1/2)."""
    return OperatorExpr({(("x", i),): 1})


def momentum(i: int) -> "OperatorExpr":
    """alpha_0^i = (2 alpha')^(1/2) p^i, the zero-mode momentum: [-i y^i, alpha_0^i] = 1."""
    return OperatorExpr({(("p", i),): 1})


def identity(coeff: Rational = 1) -> "OperatorExpr":
    return OperatorExpr({(): coeff})


def _sort_key(token: Token):
    kind = token[0]
    if kind in ("c", "a"):
        return (_CLASS[kind], token[1], token[2])
    return (_CLASS[kind], token[1])


def _swap_term(left: Token, right: Token) -> int | None:
    """Scalar commutator produced when moving ``left`` past ``right``."""
    if left[0] == "a" and right[0] == "c" and left[1:] == right[1:]:
        return left[1]
    if left[0] == "p" and right[0] == "x" and left[1] == right[1]:
        return -1
    return None


@lru_cache(maxsize=1 << 17)
def normal_order_word(word: Word) -> dict[Word, int]:
    """Rewrite a product of generators as canonical words with integer weights."""
    out: dict[Word, int] = {}
    stack: list[tuple[Word, int]] = [(word, 1)]
    while stack:
        w, weight = stack.pop()
        for idx in range(len(w) - 1):
            left, right = w[idx], w[idx + 1]
            if _sort_key(left) <= _sort_key(right):
                continue
            extra = _swap_term(left, right)
            if extra is not None:
                stack.append((w[:idx] + w[idx + 2 :], weight * extra))
            stack.append((w[:idx] + (right, left) + w[idx + 2 :], weight))
            break
        else:
            _accumulate(out, w, weight)
    return out


def _word_profile(word: Word):
    """(annihilated keys, created keys, x dirs, p dirs) for commutation tests."""
    ann, cre, xs, ps = set(), set(), set(), set()
    for tok in word:
        kind = tok[0]
        if kind == "a":
            ann.add((tok[1], tok[2]))
        elif kind == "c":
            cre.add((tok[1], tok[2]))
        elif kind == "x":
            xs.add(tok[1])
        else:
            ps.add(tok[1])
    return ann, cre, xs, ps


def _interacting(p1, p2) -> bool:
    a1, c1, x1, pp1 = p1
    a2, c2, x2, pp2 = p2
    return bool((a1 & c2) or (c1 & a2) or (x1 & pp2) or (pp1 & x2))


class OperatorExpr:
    """Finite sum of canonical words with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, Rational] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @staticmethod
    def from_raw_terms(raw: list[tuple[Rational, Word]]) -> "OperatorExpr":
        """Build an expression from possibly non-canonical words."""
        out: dict[Word, Rational] = {}
        for coeff, word in raw:
            if not coeff:
                continue
            for canon, weight in normal_order_word(word).items():
                _accumulate(out, canon, coeff * weight)
        return OperatorExpr(out)

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        out = dict(self.terms)
        for w, c in other.terms.items():
            _accumulate(out, w, c)
        return OperatorExpr(out)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + other.scale(-1)

    def scale(self, value: Rational) -> "OperatorExpr":
        return OperatorExpr({w: c * value for w, c in self.terms.items()})

    def __mul__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr.from_raw_terms(
            [(c1 * c2, w1 + w2) for w1, c1 in self.terms.items() for w2, c2 in other.terms.items()]
        )

    # -- queries -----------------------------------------------------------
    def coefficient(self, word: Word) -> Rational:
        return self.terms.get(tuple(word), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, OperatorExpr) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word, coeff in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            name = "*".join(_token_name(t) for t in word) or "1"
            parts.append(f"({coeff})*{name}")
        return " + ".join(parts)


def _token_name(token: Token) -> str:
    kind = token[0]
    if kind == "c":
        return f"alpha[-{token[1]},{token[2]}]"
    if kind == "a":
        return f"alpha[{token[1]},{token[2]}]"
    return f"{'yhat' if kind == 'x' else 'alpha0'}[{token[1]}]"


def _accumulate(store: dict[Word, Rational], word: Word, coeff: Rational) -> None:
    total = store.get(word, 0) + coeff
    if not total:
        store.pop(word, None)
    else:
        store[word] = total


def commutator(A: OperatorExpr, B: OperatorExpr, words=None) -> OperatorExpr:
    """AB - BA, re-canonicalized with exact coefficients.

    Word pairs whose generators all commute are skipped outright; their
    two orderings produce identical canonical terms. ``words`` (canonical
    words) restricts the result to those words and prunes exactly: normal
    ordering only permutes tokens or deletes contracted a/c and p/x pairs,
    so a pair (w1, w2) can reach a wanted word W only if W's token multiset
    is contained in that of w1 + w2 and len(w1) + len(w2) - len(W) is even.
    No other pair is normal-ordered, and a pair's coefficient product is
    formed only when it contributes.
    """
    wanted = None if words is None else {tuple(w) for w in words}
    tokens = sorted({t for w in wanted or () for t in w})

    def signature(word):  # all that decides which wanted words a pair can reach
        return tuple(word.count(t) for t in tokens), len(word) % 2

    targets = [(w, *signature(w)) for w in wanted or ()]

    @lru_cache(maxsize=None)
    def reach(sig1, sig2):  # the wanted words a pair with these signatures can reach
        (n1, parity1), (n2, parity2) = sig1, sig2
        return [
            w for w, need, parity in targets
            if (parity1 + parity2) % 2 == parity
            and all(x + y >= k for x, y, k in zip(n1, n2, need))
        ]

    groups: dict[tuple | None, list] = {}  # B's words, by signature when pruning
    for w, c in B.terms.items():
        key = None if wanted is None else signature(w)
        groups.setdefault(key, []).append((w, c, _word_profile(w)))
    out: dict[Word, Rational] = {}
    for w1, c1 in A.terms.items():
        prof1, sig1 = _word_profile(w1), signature(w1)
        for key, items in groups.items():
            reachable = None if key is None else reach(sig1, key)
            if reachable == []:
                continue
            for w2, c2, prof2 in items:
                if not _interacting(prof1, prof2):
                    continue
                forward = normal_order_word(w1 + w2)
                backward = normal_order_word(w2 + w1)
                c12 = None
                for w in reachable or [*forward, *(b for b in backward if b not in forward)]:
                    diff = forward.get(w, 0) - backward.get(w, 0)
                    if diff:
                        if c12 is None:
                            c12 = c1 * c2
                        _accumulate(out, w, c12 * diff)
    return OperatorExpr(out)
