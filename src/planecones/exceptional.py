"""The tree of exceptional slopes, their intervals, and the fractal boundary curve.

Exceptional slopes are addressed by dyadic rationals through an
order-preserving correspondence: integers map to themselves and the slope at
the dyadic midpoint of two neighbours is their mediant under the ``dot``
operation.  Each slope ``a`` owns an open interval of halfwidth
``x_a = (3 - sqrt(5 + 8 delta_a)) / 2``; the boundary curve of stable
characters is a pair of parabolic arcs over every interval, and locating the
interval containing a given number is a bracketing descent through the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chern import ChernCharacter, _lattice, hilbert_poly
from .errors import ConsistencyError, DescentError, DomainError
from .qarith import (
    QuadraticNumber, RationalLike, _sign_int_radical, floor_of_form, integer_form, sqrt_exact,
)

DEFAULT_MAX_ORDER = 64


@dataclass(frozen=True)
class DyadicRational:
    """``p / 2**q`` in lowest terms: ``p`` odd unless ``q == 0``."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 0:
            raise DomainError("negative dyadic exponent")
        if self.q > 0 and self.p % 2 == 0:
            raise DomainError(f"unreduced dyadic {self.p}/2^{self.q}")

    @staticmethod
    def make(p: int, q: int) -> "DyadicRational":
        if q > 0:  # strip the factors of two in one shift; zero reduces to 0/2^0
            k = min(q, (p & -p).bit_length() - 1) if p else q
            p, q = p >> k, q - k
        return DyadicRational(p, q)

    @staticmethod
    def from_fraction(x: RationalLike) -> "DyadicRational":
        x = Fraction(x)
        q = x.denominator.bit_length() - 1
        if 1 << q != x.denominator:
            raise DomainError(f"{x} is not a dyadic rational")
        return DyadicRational(x.numerator, q)

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, 1 << self.q)

    @property
    def order(self) -> int:
        return self.q

    def __neg__(self) -> "DyadicRational":
        return DyadicRational(-self.p, self.q)

    def __str__(self) -> str:
        return str(self.p) if self.q == 0 else f"{self.p}/2^{self.q}"


def rank_of_slope(mu: Fraction) -> int:
    """Smallest positive integer r with r*mu integral."""
    return mu.denominator


def discriminant_of_slope(mu: Fraction) -> Fraction:
    """Discriminant of the exceptional bundle of slope mu: (1 - 1/r^2)/2."""
    r = rank_of_slope(mu)
    return (1 - Fraction(1, r * r)) / 2


def slope_dot(alpha: RationalLike, beta: RationalLike) -> Fraction:
    """Mediant slope ``(a+b)/2 + (delta_b - delta_a)/(3 + a - b)``."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    denom = 3 + alpha - beta
    if denom == 0:
        raise DomainError("mediant undefined: slopes differ by exactly 3")
    da = discriminant_of_slope(alpha)
    db = discriminant_of_slope(beta)
    return (alpha + beta) / 2 + (db - da) / denom


_EPSILON_MEMO: dict[tuple[int, int], Fraction] = {}


def epsilon(d: DyadicRational) -> Fraction:
    """Slope addressed by the dyadic ``d``: a memo lookup, else a ``d.q``-step walk.

    The memo is only ever extended with recomputable pure values, so
    concurrent readers and writers cannot observe an inconsistent state.
    """
    if d.q == 0:
        return Fraction(d.p)
    cached = _EPSILON_MEMO.get((d.p, d.q))
    if cached is not None:
        return cached
    return _walk(d)[1]


def _mediant(p: int, q: int, left: Fraction, right: Fraction) -> Fraction:
    """Memoized slope at the odd address ``p / 2**q``, between bracket ends ``left``, ``right``."""
    mid = _EPSILON_MEMO.get((p, q))
    if mid is None:
        mid = _EPSILON_MEMO.setdefault((p, q), slope_dot(left, right))
    return mid


def _walk(d: DyadicRational) -> tuple["ExceptionalSlope", Fraction, "ExceptionalSlope"]:
    """``(left parent, slope, right parent)`` of ``d = p / 2**q`` with ``q >= 1``.

    Descends from the integer bracket: the bracket at level ``k`` is
    ``[b, b + 1] / 2**k`` with ``b = p >> (q - k)``, and the slope at its
    midpoint is the mediant of its end slopes, read from or written to the memo.
    """
    p, q = d.p, d.q
    b = p >> q
    left, right = Fraction(b), Fraction(b + 1)
    for k in range(1, q + 1):
        mid = _mediant(2 * b + 1, k, left, right)
        if k < q:
            b = p >> (q - k)
            left, right = (mid, right) if b & 1 else (left, mid)
    make = DyadicRational.make
    return ExceptionalSlope(left, make(b, q - 1)), mid, ExceptionalSlope(right, make(b + 1, q - 1))


@dataclass(frozen=True)
class ExceptionalSlope:
    """An exceptional slope together with its dyadic address."""

    slope: Fraction
    dyadic: DyadicRational

    @property
    def order(self) -> int:
        return self.dyadic.q

    @property
    def rank(self) -> int:
        return rank_of_slope(self.slope)

    @property
    def discriminant(self) -> Fraction:
        return discriminant_of_slope(self.slope)

    def character(self) -> ChernCharacter:
        """The bundle's character ``(r, c, (c^2 + 3cr + r^2 + 1) / 2r)`` for slope ``c/r``."""
        c, r = self.slope.numerator, self.slope.denominator
        chi, rest = divmod(c * (c + 3 * r) + r * r + 1, 2 * r)
        if rest:
            raise ConsistencyError(f"exceptional slope {self.slope} has non-integral chi")
        return _lattice(r, c, chi)

    def interval_halfwidth(self) -> QuadraticNumber:
        return _interval_halfwidth(self.rank)

    def interval(self) -> tuple[QuadraticNumber, QuadraticNumber]:
        """Exact endpoints ``(slope - x, slope + x)`` of the owned interval."""
        w = self.interval_halfwidth()
        return QuadraticNumber(self.slope) - w, QuadraticNumber(self.slope) + w

    def __str__(self) -> str:
        return str(self.slope)


# Distinct ranks whose halfwidth is kept: every rank of order <= 10 fits.
_INTERVAL_HALFWIDTH_CACHE_SIZE = 1024


@lru_cache(maxsize=_INTERVAL_HALFWIDTH_CACHE_SIZE)
def _interval_halfwidth(rank: int) -> QuadraticNumber:
    # x = (3 - sqrt(5 + 8*delta))/2 with 5 + 8*delta = (9 r^2 - 4)/r^2
    delta = (1 - Fraction(1, rank * rank)) / 2
    return (QuadraticNumber(3) - sqrt_exact(5 + 8 * delta)) / 2


def from_dyadic(d: DyadicRational) -> ExceptionalSlope:
    return ExceptionalSlope(epsilon(d), d)


def from_integer(n: int) -> ExceptionalSlope:
    return ExceptionalSlope(Fraction(n), DyadicRational(n, 0))


def affine_image(g: ExceptionalSlope, negate: bool, shift: int) -> ExceptionalSlope:
    """The exceptional slope ``shift + (-g if negate else g)``, read off g's address.

    The tree is symmetric under both maps: negating a dyadic address negates
    its slope, and adding ``n * 2**q`` to the numerator of ``p / 2**q``
    translates the slope by ``n``.  No descent and no tree walk is made.
    """
    d = g.dyadic
    p, slope = (-d.p, -g.slope) if negate else (d.p, g.slope)
    return ExceptionalSlope(slope + shift, DyadicRational(p + (shift << d.q), d.q))


def from_slope_value(mu: RationalLike, max_order: int = DEFAULT_MAX_ORDER) -> ExceptionalSlope:
    """Resolve a rational known to be an exceptional slope; raise if it is not."""
    mu = Fraction(mu)
    found = find_interval(mu, max_order)
    if found.slope != mu:
        raise DomainError(f"{mu} is not an exceptional slope of order <= {max_order}")
    return found


def dot(alpha: ExceptionalSlope, beta: ExceptionalSlope) -> ExceptionalSlope:
    """Mediant of two tree neighbours ``alpha < beta``.

    Neighbours are consecutive addresses at the finer of their two levels,
    or integers two apart (the convention ``n = (n-1).(n+1)``); the mediant
    sits at the dyadic midpoint of their addresses.  Any other pair raises
    ``DomainError``.
    """
    da, db = alpha.dyadic, beta.dyadic
    level = max(da.q, db.q)
    pa = da.p << (level - da.q)
    pb = db.p << (level - db.q)
    if pb - pa == 1:
        child = DyadicRational(2 * pa + 1, level + 1)
    elif level == 0 and pb - pa == 2:
        child = DyadicRational(pa + 1, 0)
    else:
        raise DomainError(f"{alpha} and {beta} are not neighbours in the slope tree")
    result = from_dyadic(child)
    value = slope_dot(alpha.slope, beta.slope)
    if result.slope != value:
        raise ConsistencyError(
            f"mediant mismatch at {child}: tree gives {result.slope}, formula {value}"
        )
    return result


def parents(g: ExceptionalSlope) -> tuple[ExceptionalSlope, ExceptionalSlope]:
    """Neighbouring slopes one dyadic level up; integers use ``(n-1, n+1)``."""
    d = g.dyadic
    if d.q == 0:
        return from_integer(d.p - 1), from_integer(d.p + 1)
    left, _, right = _walk(d)
    return left, right


def interval_contains(a: ExceptionalSlope, x, closed: bool) -> bool:
    """Exact membership of ``x`` in the interval of ``a`` (or its closure).

    No endpoint is built, for rational and quadratic ``x`` alike: with
    ``u = 3 - 2|x - a|`` and ``r`` the rank of ``a``, ``|x - a| < x_a``
    holds exactly when ``u > 0`` and ``u^2 > 9 - 4/r^2`` (and ``<=`` when
    both hold non-strictly), because ``2 x_a = 3 - sqrt(9 - 4/r^2)``.  The
    signs of ``x - a``, ``u`` and ``u^2 - 9 + 4/r^2`` lie in the field of
    ``x``; over the integer form ``x = (A + B*sqrt(d))/D``, each is the sign
    of an integer ``A' + B'*sqrt(d)``.
    """
    A, B, d, D = integer_form(x)
    # Over N = D*r: |x - a| = (t + w sqrt(d))/N, u = (ua + ub sqrt(d))/N
    # and, as N/r = D, N^2 (u^2 - 9 + 4/r^2) = va + vb sqrt(d).
    r = a.rank
    N = D * r
    t = A * r - a.slope.numerator * D
    w = B * r
    if _sign_int_radical(t, w, d) < 0:
        t, w = -t, -w
    ua, ub = 3 * N - 2 * t, -2 * w
    if _sign_int_radical(ua, ub, d) <= 0:  # u <= 0 fails even the closed test
        return False
    sv = _sign_int_radical(ua * ua + ub * ub * d - 9 * N * N + 4 * D * D, 2 * ua * ub, d)
    return sv >= 0 if closed else sv > 0


def find_interval(x, max_order: int = DEFAULT_MAX_ORDER) -> ExceptionalSlope:
    """Locate the unique slope whose closed interval contains ``x``.

    Bracketing descent: start from the consecutive integers around ``x`` and
    repeatedly probe the mediant of the current dyadic bracket, narrowing to
    the left or right gap.  An input equal to an interval endpoint resolves
    to that interval's slope (closures are tested at every probe).
    ``x`` is cleared once to its integer form, which gives its floor and, at
    a missed probe, the integer sign of ``x - mediant``; each mediant comes
    from the slope memo, so a probe builds no :class:`QuadraticNumber`.
    Termination within ``max_order`` holds for every rational and for the
    quadratic irrationals arising from characters; genuine Cantor-set points
    would descend forever and trip the budget instead.
    """
    A, B, d, D = integer_form(x)
    n = floor_of_form(A, B, d, D)
    for m in (n, n + 1):
        candidate = from_integer(m)
        if interval_contains(candidate, x, closed=True):
            return candidate
    p, q = n, 0
    left, right = Fraction(n), Fraction(n + 1)
    while q < max_order:
        p, q = 2 * p + 1, q + 1
        mid = _mediant(p, q, left, right)
        child = ExceptionalSlope(mid, DyadicRational(p, q))
        if interval_contains(child, x, closed=True):
            return child
        # narrow to [p - 1, p] or [p, p + 1] over 2**q; p keeps the left end
        if _sign_int_radical(A * mid.denominator - mid.numerator * D, B * mid.denominator, d) < 0:
            p, right = p - 1, mid
        else:
            left = mid
    raise DescentError(
        f"no enclosing interval of order <= {max_order}: "
        f"input is a Cantor-set point or the budget is too small"
    )


# Distinct slopes whose enclosing slope and boundary value are kept; a long
# batch evicts the oldest.
_DELTA_CURVE_CACHE_SIZE = 4096


def arc_value(a: ExceptionalSlope, mu: Fraction) -> Fraction:
    """The boundary curve's arc over ``a``'s interval, evaluated at ``mu``.

    Equals ``delta_curve(mu)`` whenever ``mu`` lies in the closed interval of ``a``.
    """
    return hilbert_poly(-abs(mu - a.slope)) - a.discriminant


@lru_cache(maxsize=_DELTA_CURVE_CACHE_SIZE)
def boundary_at(mu: Fraction,
                max_order: int = DEFAULT_MAX_ORDER) -> tuple[ExceptionalSlope, Fraction]:
    """The slope whose closed interval holds the rational ``mu``, and the boundary there.

    One descent per slope: the enclosing slope is kept beside the boundary
    value, so a caller that needs both (classification) never descends again.
    """
    mu = Fraction(mu)
    a = find_interval(mu, max_order)
    return a, arc_value(a, mu)


def delta_curve(mu: Fraction, max_order: int = DEFAULT_MAX_ORDER) -> Fraction:
    """Exact value of the classification boundary at a rational slope."""
    return boundary_at(mu, max_order)[1]


# delta_curve reads boundary_at's cache, so it reports and clears that cache
delta_curve.cache_info = boundary_at.cache_info
delta_curve.cache_clear = boundary_at.cache_clear


def enumerate_slopes(lo: RationalLike, hi: RationalLike,
                     max_order: int) -> list[ExceptionalSlope]:
    """All exceptional slopes of order <= max_order inside [lo, hi], sorted."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise DomainError("empty slope range")
    found = []
    d_lo, d_hi = math.floor(lo), math.ceil(hi)
    for n in range(d_lo, d_hi + 1):
        if lo <= n <= hi:
            found.append(from_integer(n))
    for q in range(1, max_order + 1):
        step = 1 << q
        for p in range(d_lo * step + 1, d_hi * step, 2):
            s = from_dyadic(DyadicRational(p, q))
            if lo <= s.slope <= hi:
                found.append(s)
    found.sort(key=lambda s: s.slope)
    return found
