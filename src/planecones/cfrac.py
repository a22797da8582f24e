"""Left-right words and {1,2} continued-fraction expansions of exceptional slopes.

Every slope strictly between 0 and 1/2 in the tree has two continued-fraction
expansions built from ones and twos, of even and of odd length, which differ
in the last one or two digits.  Both come from the concatenation rule over
the parent pair, ``child_even = right_odd + "2" + left_even``, in one pass
along the slope's dyadic address that joins strings, with no big integer
(``_descend``); Euclid on ``(c1, r)`` is the tests' reference.  A rational
handed in for its expansion is found in the tree by exact comparison with
each mediant down the walk from its integer bracket
(``exceptional.from_slope_value``).  A finite word over {L, R} (the
choices of the bracketing descent) spells a slope's dyadic address:
``word_to_dyadic`` reads it in binary and the slope takes one tree walk,
which mutates the bundle's ``(r, c1)`` once per letter where the letters
alternate and jumps each run of equal letters in one closed-form step; the
same walk gives the slope's parents.  Cantor enclosures read the walk's
integers ``(r, c1)`` and build no slope; period blocks take the rule's
pass and no walk.  A word is checked once, by one ``str.strip``.
Eventually-constant infinite words name exactly the interval endpoints.
``cf_eval`` is the brute-force evaluator that serves as the independent
oracle for all of this.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import exceptional
from .errors import ConsistencyError, DomainError
from .exceptional import DyadicRational, ExceptionalSlope
from .qarith import RationalLike, _shown, exact_int, exact_rational, exact_type

Word = str  # finite words over {L, R}


def _check_word(word: Word) -> None:
    if type(word) is not str or word.strip("LR"):  # any other character stops the strip
        raise DomainError(f"not an LR word: {_shown(word)}")


def _digits(word) -> list[int]:
    """The quotients of a string of decimal digits, or of a list or tuple of ints."""
    if type(word) is str and not word.strip("0123456789"):
        digits = [int(a) for a in word]
    elif type(word) in (list, tuple) and all(type(a) is int for a in word):
        digits = list(word)
    else:
        raise DomainError(f"not a digit string or a list of int digits: {_shown(word)}")
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


# the rule's state at 1/2, the word "R": the left end 0, no right end, "11" and "2"
_HALF = ("2", "11", None, "11", "2")


def _descend(letters: Word, state: tuple) -> tuple:
    """The rule's state after ``letters``: two string joins after an L, four after an R.

    A state ``(left_even, left_odd, right, even, odd)`` holds a node's two
    expansions, its right parent's odd one and its left parent's two with "2"
    in front; the left end 0 has "2" and "11", as a child of 0 has
    ``right + "2"`` and ``right + "11"``.  An L makes the node the right end, an R the left.
    """
    left_even, left_odd, right, even, odd = state
    for letter in letters:
        if letter == "L":
            right = odd
        else:
            left_even, left_odd = "2" + even, "2" + odd
        even, odd = right + left_even, right + left_odd
    return left_even, left_odd, right, even, odd


def _outside(c1: int, r: int) -> DomainError:
    return DomainError(f"slope {_shown(Fraction(c1, r), str)} outside [0, 1/2]; normalize first")


def _expansions(slope) -> tuple[str, str]:
    """``(even, odd)`` by the rule; a record handed in is checked by a walk."""
    trusted = not isinstance(slope, ExceptionalSlope)
    if trusted:
        slope = exceptional.from_slope_value(exact_rational(slope, "slope"))
    r, c1, d = slope.r, slope.c1, slope.dyadic
    if c1 < 0 or 2 * c1 > r:
        raise _outside(c1, r)
    walked = None if trusted else exceptional._walk(d)[1]
    if walked and walked != (r, c1):
        raise ConsistencyError(f"(r, c1) = ({r}, {c1}) has a dyadic address {d} whose "
                               f"bundle has (r, c1) = {walked}: no exceptional slope")
    if not c1:
        return "", ""
    return _descend(dyadic_to_word(d)[1][1:], _HALF)[3:]


def even_expansion(slope) -> str:
    """Even-length expansion of an exceptional slope in [0, 1/2].

    Callers normalize arbitrary slopes into this window by integer translation
    and negation first.  A rational is looked up, which refuses a non-slope.
    """
    return _expansions(slope)[0]


def odd_expansion(slope) -> str:
    """Odd-length expansion; undefined for slope 0 (the empty expansion)."""
    odd = _expansions(slope)[1]
    if not odd:
        raise DomainError("cannot convert the empty expansion")
    return odd


def normalize_slope(mu: RationalLike) -> tuple[Fraction, int, bool]:
    """Map a slope into [0, 1/2] by integer translation and optional negation.

    Returns ``(normalized, shift, negated)`` with
    ``mu = shift + (-normalized if negated else normalized)``.
    """
    mu = Fraction(exact_rational(mu, "mu"))
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
    return dyadic_to_word(exact_type(g, ExceptionalSlope, "g").dyadic)


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
    """Least p > 0 with word[i] == word[i+p] for all valid i.

    A period up to k - k//2 starts a copy of the first k//2 letters; find skips to those.
    """
    k = len(word)
    head = word[:k // 2]
    p = word.find(head, 1)
    while p > 0 and not word.startswith(word[p:]):
        p = word.find(head, p + 1)
    rest = range(k - len(head) + 1, k)
    return p if p > 0 else next((p for p in rest if word.startswith(word[p:])), k)


def period_structure(word: Word) -> PeriodStructure:
    """Repeating-block decomposition of the even expansion of ``0 . word``.

    For a word ending in R, write it as ``head + L + R^n``: the block is the
    odd expansion of the right parent followed by a 2, repeated n+1 times,
    with the even expansion of that parent's own left parent as the tail.
    When the right parent is 1/2 the whole expansion is a run of twos and is
    reported as block "2" (its true smallest period); the only word ending
    in L with that shape, RL, is handled the same way.  The decomposition is
    validated against the expansion before it is returned.  One pass of the
    rule gives all three; only a word outside [0, 1/2] walks.
    """
    _check_word(word)
    if word.startswith(("L", "RR")):
        _, (r, c1), _ = exceptional._walk(_address(word))
        raise _outside(c1, r)
    head = word.rstrip("R")
    if not head:
        raise DomainError("period decomposition needs a word of shape head+L+R^n")
    n = len(word) - len(head)
    if not n and word != "RL":
        raise DomainError("period decomposition needs a word ending in R")
    state = _descend(head[1:-1], _HALF)  # at the right parent
    expansion = _descend("L" + "R" * n, state)[3]
    if head == "RL":  # the right parent is 1/2
        return _validated(word, PeriodStructure("2", len(expansion), "", True), expansion)
    block = state[4] + "2"  # its odd expansion and a 2; state[0] is "2" + the tail
    result = _validated(word, PeriodStructure(block, n + 1, state[0][1:], False), expansion)
    if smallest_period(expansion) != len(block):
        raise ConsistencyError(f"block length {len(block)} is not the smallest period of "
                               f"{expansion}, the expansion of {word!r}")
    return result


def _validated(word: Word, result: PeriodStructure, expansion: str) -> PeriodStructure:
    rebuilt = result.block * result.exponent + result.tail
    if rebuilt != expansion:
        raise ConsistencyError(f"period decomposition {result} of {word!r} rebuilds "
                               f"{rebuilt!r}, expected {expansion!r}")
    return result


# -- Cantor-set machinery ----------------------------------------------------


def cantor_approx(prefix: Word, depth: int) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of every Cantor point extending ``prefix``.

    Truncates the prefix at ``depth`` and returns the parent slopes of the
    reached tree node: the open bracket between them contains the component
    holding all points whose words extend the truncated prefix, and the
    enclosures shrink as the depth grows.  The ends are read off the
    bundles of one walk, which refuses a rank past its digit cap
    (``exceptional._walk``); no slope is built.
    """
    _check_word(prefix)
    if exact_int(depth, "depth") < 0:
        raise DomainError("negative depth")
    (r, c1), _, (s, c2) = exceptional._walk(_address(prefix[:depth]))
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
