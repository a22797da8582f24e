"""Left-right words and {1,2} continued-fraction expansions of exceptional slopes.

Every slope strictly between 0 and 1/2 in the tree has two continued-fraction
expansions built from ones and twos: its own regular continued fraction,
computed here by Euclid's algorithm on the bundle's integers ``(c1, r)``, and
the parity-converted partner, which differs in the last one or two digits.
Both are flipped on the list of quotients and written as text once.  A
rational handed in for its expansion is found in the tree by exact
comparison with each mediant down the walk from its integer bracket
(``exceptional.from_slope_value``), with no interval descent.  The
even-length expansion is a palindrome and obeys the concatenation rule
``child_even = right_odd + "2" + left_even`` over the parent pair; that rule
is checked (by ``period_structure`` and the acceptance tests), not used to
compute.  A finite word over {L, R} (the choices of the bracketing descent)
is another spelling of a slope's dyadic address: ``word_to_dyadic`` reads it
in binary and the slope takes one tree walk, which mutates the bundle's
character once per letter where the letters alternate and jumps each run of
equal letters in one closed-form step; the same walk gives the slope's
parents.  Cantor enclosures and period blocks read the walk's integers
``(r, c1, chi)`` and build no slope: an enclosure's ends are
``Fraction(c1, r)`` and each expansion is Euclid on ``(c1, r)``.  A word
is checked once, by one ``str.strip``.  Eventually-constant
infinite words name exactly the interval endpoints.  ``cf_eval`` is the
brute-force evaluator that serves as the independent oracle for all of this.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import exceptional
from .errors import ConsistencyError, DomainError
from .exceptional import DyadicRational, ExceptionalSlope
from .qarith import RationalLike

Word = str  # finite words over {L, R}


def _check_word(word: Word) -> None:
    if word.strip("LR"):  # any other character stops the strip short of it
        raise DomainError(f"not an LR word: {word!r}")


def _digits(word) -> list[int]:
    digits = [int(a) for a in word]  # the characters of a string, or the items
    if any(a <= 0 for a in digits):
        raise DomainError("continued-fraction digits must be positive")
    return digits


def cf_eval(word) -> Fraction:
    """Value of ``[0; a1, ..., ak]``; the empty word evaluates to 0.

    This is the independent brute-force oracle for every expansion
    operation: it never consults the tree recursion.
    """
    value = Fraction(0)
    for a in reversed(_digits(word)):
        value = Fraction(1, 1) / (a + value)
    return value


# writes a list of quotients 0-9 as their digits in one pass over its bytes
_DIGIT_TEXT = bytes.maketrans(bytes(range(10)), b"0123456789")


def _flip(digits: list[int]) -> None:
    """Turn a list of quotients into the other expansion of its rational, in place."""
    if not digits:
        raise DomainError("cannot convert the empty expansion")
    if digits[-1] == 1:
        if len(digits) == 1:
            raise DomainError("[0;1] has no positive-digit partner expansion")
        digits.pop()
        digits[-1] += 1
    else:
        digits[-1] -= 1
        digits.append(1)


def parity_convert(word: str) -> str:
    """The other expansion of the same rational; length parity flips."""
    digits = _digits(word)
    _flip(digits)
    return "".join(map(str, digits))


def _expansion(c1: int, r: int, odd: bool) -> str:
    """The odd- or even-length expansion of the slope ``c1/r`` in [0, 1/2], from its bundle.

    Euclid's algorithm on the integers gives the regular continued
    fraction's quotients, whose list is flipped when its length has the
    other parity; no ``Fraction`` is built.  Each quotient of an exceptional
    slope is 1 or 2, so a step takes one or two subtractions; a bundle
    whose slope has a larger quotient is no exceptional bundle.
    """
    n, m = c1, r
    if n < 0 or 2 * n > m:
        raise DomainError(f"slope {Fraction(c1, r)} outside [0, 1/2]; normalize first")
    digits = []
    append = digits.append
    while n:
        m -= n
        if m < n:
            append(1)
        else:
            m -= n
            if m >= n:
                raise ConsistencyError(f"(r, c1) = ({r}, {c1}) has a continued-"
                                       "fraction quotient above 2: no exceptional slope")
            append(2)
        m, n = n, m
    if len(digits) % 2 != odd:
        _flip(digits)
    return bytes(digits).translate(_DIGIT_TEXT).decode()


def even_expansion(slope) -> str:
    """Even-length expansion of an exceptional slope in [0, 1/2].

    Callers normalize arbitrary slopes into this window by integer
    translation and negation first.  The expansion is the slope's regular
    continued fraction, found by Euclid's algorithm on its bundle's
    integers and parity-converted when its length is odd.  A rational is
    first found in the tree by exact lookup (``from_slope_value``), which
    refuses one that is not an exceptional slope.
    """
    if not isinstance(slope, ExceptionalSlope):
        slope = exceptional.from_slope_value(slope)
    return _expansion(slope.c1, slope.r, False)


def odd_expansion(slope) -> str:
    """Odd-length expansion; undefined for slope 0 (the empty expansion)."""
    if not isinstance(slope, ExceptionalSlope):
        slope = exceptional.from_slope_value(slope)
    return _expansion(slope.c1, slope.r, True)


def normalize_slope(mu: RationalLike) -> tuple[Fraction, int, bool]:
    """Map a slope into [0, 1/2] by integer translation and optional negation.

    Returns ``(normalized, shift, negated)`` with
    ``mu = shift + (-normalized if negated else normalized)``.
    """
    mu = Fraction(mu)
    n = mu.__floor__()
    f = mu - n
    if f <= Fraction(1, 2):
        return f, n, False
    return 1 - f, n + 1, True


# -- left-right words -------------------------------------------------------


def word_to_dyadic(word: Word) -> DyadicRational:
    """Dyadic address of ``0 . word``; the inverse of ``dyadic_to_word``."""
    _check_word(word)
    return _address(word)


def _address(word: Word) -> DyadicRational:
    """:func:`word_to_dyadic` of a word already checked: ``2 B - 2**q + 1`` is odd."""
    bits = int(word.replace("L", "0").replace("R", "1") or "0", 2)
    return exceptional._dyadic(2 * bits - (1 << len(word)) + 1, len(word))


def dyadic_to_word(d: DyadicRational) -> tuple[int, Word]:
    """Integer translation ``n`` and the word addressing ``d - n`` in [0, 1).

    A word of length ``q`` read in binary (R = 1, L = 0) as ``B`` addresses
    ``p / 2**q`` with ``p = 2 B - (2**q - 1)``; so the word spells ``B``.
    """
    n = d.p >> d.q
    if d.q == 0:
        return n, ""
    bits = (d.p - (n << d.q) + (1 << d.q) - 1) >> 1
    return n, format(bits, f"0{d.q}b").replace("0", "L").replace("1", "R")


def lr_to_slope(word: Word) -> ExceptionalSlope:
    """Slope ``0 . word``: the word's dyadic address, walked once through the tree."""
    return exceptional.from_dyadic(word_to_dyadic(word))


def slope_to_lr(g: ExceptionalSlope) -> tuple[int, Word]:
    """Inverse of ``lr_to_slope`` up to integer translation."""
    return dyadic_to_word(g.dyadic)


def lr_parents(word: Word) -> tuple[Optional[Word], Optional[Word]]:
    """Parent words; both are initial segments of ``word``.

    The empty word addresses slope 0; ``None`` marks a parent outside the
    (-1, 1) window of the word tree (only reached from constant words).
    """
    _check_word(word)
    if not word:
        raise DomainError("the empty word has no parents")
    last = word[-1]
    run = len(word) - len(word.rstrip(last))
    head = word[:-run]
    if last == "L":
        if not head:
            return None, "L" * (run - 1)
        return head[:-1], head + "L" * (run - 1)
    if not head:
        return "R" * (run - 1), None
    return head + "R" * (run - 1), head[:-1]


class PeriodStructure(NamedTuple):
    block: str
    exponent: int
    tail: str
    beta_is_half: bool


def smallest_period(word: str) -> int:
    """Least p > 0 with word[i] == word[i+p] for all valid i."""
    k = len(word)
    for p in range(1, k + 1):
        if word[p:] == word[:k - p]:
            return p
    return k


def period_structure(word: Word) -> PeriodStructure:
    """Repeating-block decomposition of the even expansion of ``0 . word``.

    For a word ending in R, write it as ``head + L + R^n``: the block is the
    odd expansion of the right parent followed by a 2, repeated n+1 times,
    with the even expansion of that parent's own left parent as the tail.
    When the right parent is 1/2 the whole expansion is a run of twos and is
    reported as block "2" (its true smallest period); the only word ending
    in L with that shape, RL, is handled the same way.  The decomposition is
    validated against the expansion before it is returned.  It reads the
    bundles of two walks, to the word's slope and to its parents, and
    builds no slope.
    """
    _check_word(word)
    _, (r, c1, _), _ = exceptional._walk(_address(word))
    expansion = _expansion(c1, r, False)
    if word.endswith("L"):
        if set(expansion) != {"2"}:
            raise DomainError("period decomposition needs a word ending in R")
        result = PeriodStructure("2", len(expansion), "", True)
        return _validated(result, expansion)
    n = len(word) - len(word.rstrip("R"))
    head = word[:-n]
    if not head or not head.endswith("L"):
        raise DomainError("period decomposition needs a word of shape head+L+R^n")
    alpha, beta, _ = exceptional._walk(_address(head[:-1]))
    if beta[:2] == (2, 1):  # beta is 1/2
        result = PeriodStructure("2", len(expansion), "", True)
        return _validated(result, expansion)
    block = _expansion(beta[1], beta[0], True) + "2"
    tail = _expansion(alpha[1], alpha[0], False)
    result = PeriodStructure(block, n + 1, tail, False)
    result = _validated(result, expansion)
    if smallest_period(expansion) != len(block):
        raise ConsistencyError(
            f"block length {len(block)} is not the smallest period of {expansion}"
        )
    return result


def _validated(result: PeriodStructure, expansion: str) -> PeriodStructure:
    rebuilt = result.block * result.exponent + result.tail
    if rebuilt != expansion:
        raise ConsistencyError(
            f"period decomposition {result} rebuilds {rebuilt!r}, expected {expansion!r}"
        )
    return result


# -- Cantor-set machinery ----------------------------------------------------


def cantor_approx(prefix: Word, depth: int) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of every Cantor point extending ``prefix``.

    Truncates the prefix at ``depth`` and returns the parent slopes of the
    reached tree node: the open bracket between them contains the component
    holding all points whose words extend the truncated prefix, and the
    enclosures shrink as the depth grows.  The ends are read off the
    bundles of one walk; no slope is built.
    """
    _check_word(prefix)
    if depth < 0:
        raise DomainError("negative depth")
    (r, c1, _), _, (s, c2, _) = exceptional._walk(_address(prefix[:depth]))
    return Fraction(c1, r), Fraction(c2, s)


def is_endpoint_word(prefix: Word, tail: Word) -> Optional[tuple[ExceptionalSlope, str]]:
    """Resolve an eventually-constant word to an interval endpoint.

    ``prefix + tail*inf`` with constant tail L names the right endpoint of
    the slope addressed by the prefix up to its final R (and mirrored for
    tail R).  Non-constant tails name no endpoint and return ``None``.
    """
    _check_word(prefix)
    _check_word(tail)
    if tail not in ("L", "R"):
        return None
    if tail == "L":
        stem = prefix.rstrip("L")
        if not stem:
            return exceptional.from_integer(-1), "right"
        return lr_to_slope(stem[:-1]), "right"
    stem = prefix.rstrip("R")
    if not stem:
        return exceptional.from_integer(1), "left"
    return lr_to_slope(stem[:-1]), "left"
