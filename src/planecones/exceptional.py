"""The tree of exceptional slopes, their bundles and intervals, and the fractal boundary curve.

Exceptional slopes are addressed by dyadic rationals through an
order-preserving correspondence: integers map to themselves and the slope at
the dyadic midpoint of two neighbours is their mediant.  Each slope carries
its exceptional bundle's rank and first Chern class ``(r, c1)``, the one
source of its slope ``c1/r``, rank, discriminant ``(r^2 - 1)/(2 r^2)`` and,
by Riemann-Roch, Euler characteristic (``ExceptionalSlope.chi``, the one
place it is worked out).  A walk down the tree mutates these two integers
(from ``_start``), one level at a time where its address bits alternate; a
run of equal bits, along which one end of the bracket stays fixed, is one
closed-form jump (``_jump``).  Nothing is kept between walks, and every
walk stops at a rank past the digit limit (``_walk``).  Negation and integer
translation map the tree to itself, and ``affine_image`` reads them off an
address in one closed integer formula.
Each slope ``a`` owns an open interval of halfwidth
``x_a = (3 - sqrt(5 + 8 delta_a)) / 2``, whose endpoints are integer forms
read off the halfwidth's; the boundary curve of stable characters is a pair
of parabolic arcs over every interval, and locating the interval containing
a given number is a bracketing descent on integers (``_bracket``), which
hands back the hit's and its two parents' ``(r, c1)`` and the hit's
address.  A descent makes one integer probe, on the integer nearer the
number (an integer's interval is narrower than 1/2 either side), then one
per mediant.  A probe tests membership on the candidate's ``(r, c1)``
integers (``_locate``), so a descent builds no object; a walk
(``_walk``) likewise hands back the bundles of the slope and its two
parents and builds nothing.  A public function builds only the slopes it returns:
``from_dyadic``, ``epsilon`` and ``find_interval`` the hit alone,
``slope_and_parents`` (of which ``parents`` is a view) all three
(``_slopes``).  A rational is looked up, not located: ``from_slope_value``
runs the descent's bracket loop (``_narrow``) but compares the rational with
each mediant by one cross-multiplication, and no probe tests membership.
An arc's value at a rational is one integer numerator (``_arc_form``) over
one denominator.  Slopes built by a walk, a descent or an affine image come
from the records' trusted constructors ``_slope`` and ``_dyadic``, past
their checks.  A public function checks its order budget once, by
``qarith``'s gate.  The boundary curve's cache (``_boundary``) is keyed on
a rational's numerator and denominator in lowest terms and the order
budget, so a caller that holds a slope as integers looks it up through
``_enclosing``, which reduces them, without building or hashing a
``Fraction``; ``boundary_at`` and ``delta_curve`` are views of it.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .chern import ChernCharacter, _lattice, euler_chi_pair
from .errors import ConsistencyError, DescentError, DomainError
from .qarith import (
    QuadraticNumber, RationalLike, _shown, _sign_int_radical, exact_int, exact_rational,
    _digit_bound, exact_type, floor_of_form, integer_form, more_digits, sqrt_ratio,
)
from .record import Record

DEFAULT_MAX_ORDER = 64


class DyadicRational(Record):
    """``p / 2**q`` in lowest terms: ``p`` odd unless ``q == 0``."""

    __slots__ = ("p", "q")
    p: int
    q: int

    def __init__(self, p: int, q: int):
        if _exponent(p, q) > 0 and p % 2 == 0:
            raise DomainError(f"unreduced dyadic {_shown(p)}/2^{_shown(q)}")
        Record.__init__(self, p, q)

    @staticmethod
    def make(p: int, q: int) -> "DyadicRational":
        return _reduced(p, _exponent(p, q))

    @staticmethod
    def from_fraction(x: RationalLike) -> "DyadicRational":
        x = Fraction(exact_rational(x, "x"))
        q = x.denominator.bit_length() - 1
        if 1 << q != x.denominator:
            raise DomainError(f"{_shown(x, str)} is not a dyadic rational")
        return DyadicRational(x.numerator, q)

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, 1 << self.q)

    @property
    def order(self) -> int:
        return self.q

    def __str__(self) -> str:
        return str(self.p) if self.q == 0 else f"{self.p}/2^{self.q}"


class ExceptionalSlope(Record):
    """An exceptional bundle, by its rank and first Chern class ``(r, c1)``, and its address."""

    __slots__ = ("r", "c1", "dyadic")
    r: int
    c1: int
    dyadic: DyadicRational

    def __init__(self, r: int, c1: int, dyadic: DyadicRational):
        Record.__init__(self, exact_int(r, "r", 1), exact_int(c1, "c1"),
                        exact_type(dyadic, DyadicRational, "dyadic"))
        # where ``chi`` would floor: no bundle of this (r, c1) has chi(E, E) = 1
        if (c1 * (c1 + 3 * r) + r * r + 1) % (2 * r):
            raise DomainError(f"(r, c1) = ({_shown(r)}, {_shown(c1)}) is no exceptional "
                              f"bundle: its chi, by Riemann-Roch, is not an integer")

    @property
    def chi(self) -> int:
        """The Euler characteristic, by Riemann-Roch: ``((c1 + r)(c1 + 2r) - r^2 + 1)/(2r)``.

        ``chi(E, E) = 1`` fixes an exceptional bundle's discriminant at
        ``(r^2 - 1)/(2 r^2)``, so its rank and slope give the rest.
        """
        r, c = self.r, self.c1
        return ((c + r) * (c + 2 * r) - r * r + 1) // (2 * r)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.c1, self.r)

    @property
    def order(self) -> int:
        return self.dyadic.q

    @property
    def rank(self) -> int:
        return self.r

    @property
    def discriminant(self) -> Fraction:
        r = self.r
        return Fraction(r * r - 1, 2 * r * r)

    def character(self) -> ChernCharacter:
        return _lattice(self.r, self.c1, self.chi)

    def interval_halfwidth(self) -> QuadraticNumber:
        return _interval_halfwidth(self.r)

    def interval(self) -> tuple[QuadraticNumber, QuadraticNumber]:
        """Exact endpoints ``(slope - x, slope + x)`` of the owned interval.

        With the halfwidth's form ``x = (A + B sqrt(d))/D`` and the slope
        ``c/r``, they are ``(c D -+ r A -+ r B sqrt(d))/(r D)``.
        """
        A, B, d, D = integer_form(self.interval_halfwidth())
        r, cD = self.r, self.c1 * D
        make = QuadraticNumber._from_form
        return make(cD - r * A, -r * B, d, r * D), make(cD + r * A, r * B, d, r * D)

    def __str__(self) -> str:
        return str(self.c1) if self.r == 1 else f"{self.c1}/{self.r}"


def _exponent(p: int, q: int) -> int:
    """``q``, once ``p`` and ``q`` are ints and ``q >= 0``: the check of a dyadic's fields."""
    exact_int(p, "p")
    if exact_int(q, "q") < 0:
        raise DomainError("negative dyadic exponent")
    return q


# a walk's addresses are in lowest terms and its bundles exceptional: neither is checked again
_dyadic = DyadicRational._trusted
_slope = ExceptionalSlope._trusted


def _reduced(p: int, q: int) -> DyadicRational:
    """``p / 2**q`` for ``q >= 0``, brought to lowest terms."""
    if q > 0:  # strip the factors of two in one shift; zero reduces to 0/2^0
        k = min(q, (p & -p).bit_length() - 1) if p else q
        p, q = p >> k, q - k
    return _dyadic(p, q)


def _start(n: int) -> tuple[tuple, tuple, tuple, tuple, int]:
    """``(left, right, fin, g, s)`` of the bracket ``[n, n + 1]`` before a walk's first step.

    Each step takes the midpoint ``s v(fin) - v(g)``, ``s = 3 r(coarse)``,
    the Markov move ``3xy - z`` on ranks: ``fin`` is the end the last step
    put in, ``coarse`` the other and ``g`` the end it replaced.  The first
    midpoint is ``3 O(n) - O(n - 1)``, as ``n = (n - 1).(n + 1)``; the
    bundle ``(r, c1)`` of ``O(n)`` is ``(1, n)``.
    """
    left = 1, n
    return left, (1, n + 1), left, (1, n - 1), 3


def epsilon(d: DyadicRational) -> Fraction:
    """Slope addressed by the dyadic ``d``."""
    return from_dyadic(d).slope


def _walk(d: DyadicRational) -> tuple[tuple, tuple, tuple]:
    """The bundles ``(r, c1)`` of the left parent, the slope and the right parent at ``d``.

    The walk builds no object but these pairs: a caller makes slopes of
    the ones it returns.  An integer ``d = p`` takes no step and has the
    parents ``p - 1`` and ``p + 1``.  For ``d = p / 2**q``, ``q >= 1``, the
    walk descends from the integer bracket of :func:`_start`: the bracket at
    level ``k`` is ``[b, b + 1] / 2**k`` with ``b = p >> (q - k)``, and its
    midpoint is the mutation ``s v(fin) - v(g)``.  Bit ``q - k`` of ``p``
    puts the midpoint in as the left (1) or the right (0) end.  Along a run
    of equal bits the coarse end stays, so the run's midpoints obey
    ``v' = 3 r(coarse) v - v_prev``: the walk jumps the rest of a run in one
    step (``_jump``), its length read off the bits of ``p``.  An alternating
    address takes one step per level.  A negative ``p`` is walked as ``-p``,
    whose walk is the mirror image, and the bundles are negated back.

    Each mutation's rank exceeds both ends of its bracket, so ranks grow
    along the walk; it stops with ``DomainError`` at the first rank of more
    digits than the cap, the digit limit or 4,300 where there is none
    (``qarith._digit_bound``), measured by its bit length and, only near the
    cap, by ``more_digits``.  A jump is checked on its last rank; past the
    cap, the walk steps through that run level by level to the first rank
    past it.  A run that a lower bound on its growth already carries past
    the cap is stepped without the jump, so the work stays bounded by the
    cap, not by the run's length.
    """
    p, q = d.p, d.q
    if q == 0:
        return (1, p - 1), (1, p), (1, p + 1)
    # CPython copies a negative int whole on each right shift, so a negative
    # address is walked as its mirror image ``-d``, read off ``-p`` once
    mirror = p < 0
    if mirror:
        p = -p
    left, right, fin, g, s = _start(p >> q)
    cap = _digit_bound()
    bits = 3 * cap  # a rank past the cap has more bits, as 2**(3 cap) < 10**cap
    jumps = True
    k, bit = 1, (p >> (q - 1)) & 1
    while True:
        mid = s * fin[0] - g[0], s * fin[1] - g[1]
        if mid[0].bit_length() > bits and more_digits(mid[0], cap):
            raise DomainError(f"slope has a {mid[0].bit_length():,}-bit integer in its walk "
                              f"at order {k} of {_shown(q, str)}, past the limit of {cap:,} "
                              f"digits for printing one")
        if k == q:
            break
        if bit:
            left, g, s = mid, left, 3 * right[0]
        else:
            right, g, s = mid, right, 3 * left[0]
        fin, k = mid, k + 1
        after = (p >> (q - k)) & 1
        if after == bit and k < q and jumps:
            # the run of ``bit`` from level k on spans n levels, and level
            # k + n is the run's last, stepped inline.  With the bits of
            # ``p >> 1`` flipped where ``bit`` is 1, the run is the leading
            # zeros of the low ``width`` bits, whose top one is 0: a ``rest``
            # shorter than ``width`` bits is those bits as it stands, and a
            # longer or negative one takes a mask no wider than ``p``
            width = q - k
            rest = (p >> 1) ^ -bit
            if rest.bit_length() >= width:
                rest &= (1 << width) - 1
            n = width - rest.bit_length()
            # each level of a run multiplies the rank by more than s - 1, so
            # a run that this lower bound already carries past 2**(4 cap) >
            # 10**cap is not jumped, and a jump builds no integer of many more
            # bits than the cap
            past = fin[0].bit_length() - 1 + n * ((s - 1).bit_length() - 1) >= 4 * cap
            ahead = None if past else _jump(fin, g, s, n)
            if past or ahead[0][0].bit_length() > bits and more_digits(ahead[0][0], cap):
                jumps = False  # step this run to its first rank past the cap
            else:
                fin, g = ahead
                if bit:
                    left = fin
                else:
                    right = fin
                k, after = k + n, bit ^ 1
        bit = after
    if mirror:  # negation maps the tree to itself, a bundle (r, c1) to (r, -c1)
        return (right[0], -right[1]), (mid[0], -mid[1]), (left[0], -left[1])
    return left, mid, right


def _jump(fin: tuple, g: tuple, s: int, n: int) -> tuple[tuple, tuple]:
    """``(v_{n+1}, v_n)`` of ``v_{j+1} = s v_j - v_{j-1}`` from ``(v_1, v_0) = (fin, g)``, n >= 1.

    That is ``[[s, -1], [1, 0]]**n`` applied to the pair, on each of the
    two components.  The power is ``[[U_n, -U_{n-1}], [U_{n-1}, -U_{n-2}]]``
    with ``U_{m+1} = s U_m - U_{m-1}``, ``U_0 = 1``, ``U_{-1} = 0``, and
    ``(U_m, U_{m-1})`` doubles by ``U_{2m} = U_m^2 - U_{m-1}^2``,
    ``U_{2m-1} = U_{m-1} (2 U_m - s U_{m-1})`` and
    ``U_{2m+1} = U_m (s U_m - 2 U_{m-1})``: one step per bit of ``n`` after
    the first.
    """
    x, y = s, 1
    for digit in bin(n)[3:]:
        if digit == "1":
            x, y = x * (s * x - 2 * y), (x - y) * (x + y)
        else:
            x, y = (x - y) * (x + y), y * (2 * x - s * y)
    z = s * y - x
    return ((x * fin[0] - y * g[0], x * fin[1] - y * g[1]),
            (y * fin[0] - z * g[0], y * fin[1] - z * g[1]))


# Distinct ranks whose halfwidth is kept: every rank of order <= 10 fits.
_INTERVAL_HALFWIDTH_CACHE_SIZE = 1024


@lru_cache(maxsize=_INTERVAL_HALFWIDTH_CACHE_SIZE)
def _interval_halfwidth(rank: int) -> QuadraticNumber:
    # x = (3 - sqrt(5 + 8*delta))/2 with 5 + 8*delta = (9 r^2 - 4)/r^2, whose
    # root is s sqrt(d)/q: x = (3q - s sqrt(d))/(2q)
    _, s, d, q = integer_form(sqrt_ratio(9 * rank * rank - 4, rank * rank))
    return QuadraticNumber._from_form(3 * q, -s, d, 2 * q)


def from_dyadic(d: DyadicRational) -> ExceptionalSlope:
    """The exceptional slope at the address ``d``: a walk of ``d.q`` levels.

    A rank past the walk's digit cap (:func:`_walk`) is refused, with
    ``DomainError``, before the walk ends.
    """
    return _slope(*_walk(exact_type(d, DyadicRational, "d"))[1], d)


def from_integer(n: int) -> ExceptionalSlope:
    return _slope(1, exact_int(n, "n"), _dyadic(n, 0))


def affine_image(g: ExceptionalSlope, negate: bool, shift: int) -> ExceptionalSlope:
    """The exceptional slope ``shift + (-g if negate else g)``, read off g's address.

    The tree is symmetric under both maps: negating a dyadic address negates
    its slope, and adding ``n * 2**q`` to the numerator of ``p / 2**q``
    translates the slope by ``n``.  The bundle follows by the dual
    ``(r, -c)`` and the twist by ``O(n)``, ``(r, c + r n)``.  An odd
    numerator stays odd, so the address needs no reduction.  No descent and
    no tree walk is made.
    """
    r, c, d = g.r, g.c1, g.dyadic
    p, q = d.p, d.q
    if negate:
        p, c = -p, -c
    return _slope(r, c + r * shift, _dyadic(p + (shift << q), q))


def from_slope_value(mu: RationalLike, max_order: int = DEFAULT_MAX_ORDER) -> ExceptionalSlope:
    """Resolve a rational known to be an exceptional slope; raise if it is not.

    Exact lookup, with no interval descent: from the integer bracket around
    ``mu = a/b``, the loop of :func:`_narrow` compares ``mu`` with each
    mediant ``c1/r`` by one cross-multiplication, ``a r - c1 b``, whose sign
    also picks the half bracket to go on in.  An exceptional slope's rank is
    its reduced denominator (``c1^2 = -1 mod r``) and ranks grow along a
    walk, so the walk refuses, with ``DomainError``, at the first mediant of
    rank ``>= b`` that is not ``mu``, or past ``max_order`` levels; a ``b``
    past the digit cap of :func:`_walk` is refused before the walk.  No
    probe tests interval membership.
    """
    exact_int(max_order, "max_order", 0)
    mu = Fraction(exact_rational(mu, "mu"))
    a, b = mu.numerator, mu.denominator
    if b == 1:
        return from_integer(a)
    cap = _digit_bound()
    if more_digits(b, cap):  # a rank that every walk refuses
        raise DomainError(f"{_shown(mu, str)} has a denominator, an exceptional slope's rank, "
                          f"past the limit of {cap:,} digits for printing one")
    hit = _narrow(a // b, a, 0, 0, b, max_order, True)
    if hit is None:
        raise DomainError(f"{_shown(mu, str)} is not an exceptional slope of order "
                          f"<= {_shown(max_order, str)}")
    return _slope(*hit[1], _dyadic(hit[3], hit[4]))


def dot(alpha: ExceptionalSlope, beta: ExceptionalSlope) -> ExceptionalSlope:
    """Mediant of two tree neighbours ``alpha < beta``.

    Neighbours are consecutive addresses at the finer of their two levels,
    or integers two apart (the convention ``n = (n-1).(n+1)``); the mediant
    sits at the dyadic midpoint of their addresses.  Any other pair raises
    ``DomainError``.  The walked mediant ``v`` must be exceptional and form
    exceptional pairs with both: ``chi(v, v) = 1`` and
    ``chi(beta, v) = chi(v, alpha) = 0``.
    """
    da = exact_type(alpha, ExceptionalSlope, "alpha").dyadic
    db = exact_type(beta, ExceptionalSlope, "beta").dyadic
    level = max(da.q, db.q)
    pa = da.p << (level - da.q)
    pb = db.p << (level - db.q)
    if pb - pa == 1:
        child = DyadicRational(2 * pa + 1, level + 1)
    elif level == 0 and pb - pa == 2:
        child = DyadicRational(pa + 1, 0)
    else:
        raise DomainError(f"{_shown(alpha, str)} and {_shown(beta, str)} are not neighbours "
                          f"in the slope tree")
    result = from_dyadic(child)
    v, a, b = result.character(), alpha.character(), beta.character()
    pairs = (euler_chi_pair(v, v), euler_chi_pair(b, v), euler_chi_pair(v, a))
    if pairs != (1, 0, 0):
        raise ConsistencyError(f"mediant {v!r} at {child} between {a!r} and {b!r} has "
                               f"(chi(v, v), chi(right, v), chi(v, left)) = {pairs}")
    return result


def slope_and_parents(d: DyadicRational) -> tuple[ExceptionalSlope, ExceptionalSlope,
                                                   ExceptionalSlope]:
    """``(left parent, slope, right parent)`` at the address ``d``, from one walk.

    The parents are the neighbouring slopes one dyadic level up, the ends of
    the bracket the walk's last mutation splits; an integer ``n`` has
    ``(n - 1, n + 1)`` and takes no walk.
    """
    return _slopes(*_walk(exact_type(d, DyadicRational, "d")), d)


def parents(g: ExceptionalSlope) -> tuple[ExceptionalSlope, ExceptionalSlope]:
    """Neighbouring slopes one dyadic level up; integers use ``(n-1, n+1)``."""
    left, _, right = slope_and_parents(exact_type(g, ExceptionalSlope, "g").dyadic)
    return left, right


def interval_contains(a: ExceptionalSlope, x, closed: bool) -> bool:
    """Exact membership of ``x`` in the interval of ``a`` (or its closure).

    No endpoint is built, for rational and quadratic ``x`` alike: with
    ``u = 3 - 2|x - a|`` and ``r`` the rank of ``a``, ``|x - a| < x_a``
    holds exactly when ``u > 0`` and ``u^2 > 9 - 4/r^2`` (and ``<=`` when
    both hold non-strictly), because ``2 x_a = 3 - sqrt(9 - 4/r^2)``.  The
    signs of ``x - a``, ``u`` and ``u^2 - 9 + 4/r^2`` lie in the field of
    ``x``; over the integer form ``x = (A + B*sqrt(d))/D``, each is the sign
    of an integer ``A' + B'*sqrt(d)`` (:func:`_locate`).
    """
    inside = _locate(exact_type(a, ExceptionalSlope, "a").r, a.c1, *integer_form(x))[1]
    return inside >= 0 if closed else inside > 0


def _locate(r: int, c1: int, A: int, B: int, d: int, D: int,
            near: bool = False) -> tuple[int, int]:
    """``(side, inside)`` for ``x = (A + B*sqrt(d))/D``, ``D > 0``, against an interval.

    The interval is that of the exceptional slope ``a = c1/r`` of rank
    ``r``, read from the bundle's integers, so a probe needs no slope
    object.  ``side`` is the sign of ``x - a``; ``inside`` is 1 in the open
    interval, 0 at an endpoint and -1 outside.  The form need not be
    reduced: every sign taken is that of a homogeneous expression in it.
    A caller that knows ``|x - a| <= 1``, as a descent inside a unit
    bracket does, passes ``near``: then ``u >= 1`` and its sign is not taken.
    """
    # Over N = D*r: |x - a| = (t + w sqrt(d))/N, u = (ua + ub sqrt(d))/N
    # and, as N/r = D, N^2 (u^2 - 9 + 4/r^2) = va + vb sqrt(d).
    N = D * r
    t = A * r - c1 * D
    w = B * r
    side = _sign_int_radical(t, w, d)
    if side < 0:
        t, w = -t, -w
    ua, ub = 3 * N - 2 * t, -2 * w
    if not near and _sign_int_radical(ua, ub, d) <= 0:  # u <= 0 fails even the closed test
        return side, -1
    return side, _sign_int_radical(ua * ua + ub * ub * d - 9 * N * N + 4 * D * D, 2 * ua * ub, d)


def find_interval(x, max_order: int = DEFAULT_MAX_ORDER) -> ExceptionalSlope:
    """Locate the unique slope whose closed interval contains ``x``.

    Bracketing descent: start from the consecutive integers around ``x`` and
    repeatedly probe the mediant of the current dyadic bracket, narrowing to
    the left or right gap.  An input equal to an interval endpoint resolves
    to that interval's slope (closures are tested at every probe).
    ``x`` is cleared once to its integer form, which gives its floor; each
    probe is one :func:`_locate` on the mediant's character, one mutation of
    the bracket's ends, and the sign of ``x - c1/r`` it decides on the way
    picks the side of a missed probe.  So a probe builds no
    :class:`QuadraticNumber` and no ``Fraction``.
    Termination within ``max_order`` holds for every rational and for the
    quadratic irrationals arising from characters; genuine Cantor-set points
    would descend forever and trip the budget instead.  Only the hit is
    built, from the integers :func:`_bracket` hands back.
    """
    exact_int(max_order, "max_order", 0)
    _, mid, _, p, q = _bracket(*integer_form(x), max_order)
    return _slope(*mid, _dyadic(p, q))


def _bracket(A: int, B: int, d: int, D: int,
             max_order: int) -> tuple[tuple, tuple, tuple, int, int]:
    """The descent to ``(A + B*sqrt(d))/D``, ``D > 0``, on integers alone.

    Returns ``(left, mid, right, p, q)``: the hit's bundle ``mid`` at the
    address ``p/2**q`` and its parents' bundles, each as its ``(r, c1)``.
    The parents are ``(p >> 1)/2**(q - 1)`` and one step right of it for a
    mediant, and ``p - 1``, ``p + 1`` for an integer ``p`` (``q == 0``).
    One integer is probed, the nearer of the two around ``x``, then one
    mediant per level in :func:`_narrow`, so a hit of order ``q`` takes
    ``1 + q`` probes.  A probe reads the candidate's ``(r, c1)``; the form
    need not be reduced.
    No object but the tuples is built, so a caller may key a cache on them.
    """
    n = floor_of_form(A, B, d, D)
    # an integer's interval has halfwidth (3 - sqrt(5))/2 < 1/2, so of n and
    # n + 1 only the one nearer x can hold it: n + 1 when x - (n + 1/2) >= 0
    m = n + 1 if _sign_int_radical(2 * A - (2 * n + 1) * D, 2 * B, d) >= 0 else n
    # x lies in [n, n + 1], within 1 of m and of every mediant below
    if _locate(1, m, A, B, d, D, True)[1] >= 0:
        return (1, m - 1), (1, m), (1, m + 1), m, 0
    hit = _narrow(n, A, B, d, D, max_order, False)
    if hit is None:
        raise DescentError(
            f"no enclosing interval of order <= {max_order}: "
            f"input is a Cantor-set point or the budget is too small"
        )
    return hit


def _narrow(n: int, A: int, B: int, d: int, D: int, max_order: int,
            lookup: bool) -> Optional[tuple[tuple, tuple, tuple, int, int]]:
    """The bracket loop from ``[n, n + 1]`` towards ``x = (A + B*sqrt(d))/D``, ``D > 0``.

    Each level takes its mediant's ``(r, c1)`` by one mutation and tests it.
    A descent hits where ``x`` lies in the mediant's closed interval
    (:func:`_locate`); a lookup (``lookup``, ``x = A/D`` in lowest terms)
    hits where ``x = c1/r``, by the sign of ``A r - c1 D``, and gives up at
    the first mediant of rank ``>= D`` that misses.  A miss narrows the
    bracket to the side of ``x`` that the test's sign picks.  Returns
    ``(left, mid, right, p, q)`` as :func:`_bracket` does, or ``None`` when
    the lookup gives up or ``max_order`` levels pass with no hit.
    """
    left, right, fin, g, s = _start(n)
    p, q = n, 0
    while q < max_order:
        p, q = 2 * p + 1, q + 1
        r, c1 = mid = s * fin[0] - g[0], s * fin[1] - g[1]
        if lookup:
            side = A * r - c1 * D
            if side == 0:
                return left, mid, right, p, q
            if r >= D:
                return None
        else:
            side, inside = _locate(r, c1, A, B, d, D, True)
            if inside >= 0:
                return left, mid, right, p, q
        # narrow to [p - 1, p] or [p, p + 1] over 2**q; p keeps the left end
        if side < 0:
            p, right, g, s = p - 1, mid, right, 3 * left[0]
        else:
            left, g, s = mid, left, 3 * right[0]
        fin = mid
    return None


def _slopes(left: tuple, mid: tuple, right: tuple,
            d: DyadicRational) -> tuple[ExceptionalSlope, ExceptionalSlope, ExceptionalSlope]:
    """The slopes of a :func:`_bracket` or :func:`_walk`: the hit at ``d`` and its parents."""
    p, q = d.p, d.q
    if q == 0:  # an integer's parents are p - 1 and p + 1
        at_left, at_right = _dyadic(p - 1, 0), _dyadic(p + 1, 0)
    else:  # a mediant's are (p >> 1)/2**(q - 1) and one step right of it
        at_left, at_right = _reduced(p >> 1, q - 1), _reduced((p >> 1) + 1, q - 1)
    return _slope(*left, at_left), _slope(*mid, d), _slope(*right, at_right)


# Distinct slopes whose enclosing slope and boundary value are kept; a long
# batch evicts the oldest.
_DELTA_CURVE_CACHE_SIZE = 4096


def _arc_form(a: ExceptionalSlope, r: int, c: int) -> int:
    """The boundary arc over ``a``'s interval at ``c/r``, ``r > 0``, times ``2 (r r_a)^2``.

    The arc is ``P(-|mu - a|) - delta_a`` with ``P(m) = (m^2 + 3m + 2)/2``
    and ``delta_a = (r_a^2 - 1)/(2 r_a^2)``.  With ``u = |c r_a - c_a r|``,
    so that ``|mu - a| = u/(r r_a)``, it is
    ``(u^2 - 3u r r_a + 2 (r r_a)^2 - r^2 (r_a^2 - 1)) / (2 (r r_a)^2)``:
    this returns the numerator, one integer expression in ``a``'s bundle.
    """
    ra = a.r
    u = abs(c * ra - a.c1 * r)
    rra = r * ra
    return u * u - 3 * u * rra + 2 * rra * rra - r * r * (ra * ra - 1)


def arc_value(a: ExceptionalSlope, mu: Fraction) -> Fraction:
    """The boundary curve's arc over ``a``'s interval, evaluated at ``mu``.

    Equals ``delta_curve(mu)`` whenever ``mu`` lies in the closed interval of
    ``a``.  It is :func:`_arc_form` over ``2 (r r_a)^2`` for ``mu = c/r``:
    one ``Fraction``, built at the end.
    """
    r, c = mu.denominator, mu.numerator
    rra = r * a.r
    return Fraction(_arc_form(a, r, c), 2 * rra * rra)


@lru_cache(maxsize=_DELTA_CURVE_CACHE_SIZE)
def _boundary(num: int, den: int, max_order: int) -> tuple[ExceptionalSlope, Fraction]:
    """:func:`boundary_at` at ``num/den`` in lowest terms, ``den > 0``, keyed on the integers.

    A caller holding a slope as integers (classification, the boundary
    check of a ray) looks it up by them through :func:`_enclosing`, and
    builds and hashes no ``Fraction``; a miss descends through
    :func:`find_interval`.
    """
    mu = Fraction(num, den)
    a = find_interval(mu, max_order)
    return a, arc_value(a, mu)


def _enclosing(c: int, r: int, max_order: int) -> ExceptionalSlope:
    """The slope whose closed interval holds ``c/r``, ``r > 0``, from :func:`_boundary`'s cache.

    The one place that brings ``c/r`` to lowest terms, the cache's key.
    """
    g = math.gcd(c, r)
    return _boundary(c // g, r // g, max_order)[0]


def boundary_at(mu: RationalLike,
                max_order: int = DEFAULT_MAX_ORDER) -> tuple[ExceptionalSlope, Fraction]:
    """The slope whose closed interval holds the rational ``mu``, and the boundary there.

    One descent per slope: the enclosing slope is kept beside the boundary
    value, so a caller that needs both (classification) never descends again.
    """
    exact_int(max_order, "max_order", 0)
    mu = exact_rational(mu, "mu")
    return _boundary(mu.numerator, mu.denominator, max_order)


def delta_curve(mu: RationalLike, max_order: int = DEFAULT_MAX_ORDER) -> Fraction:
    """Exact value of the classification boundary at a rational slope."""
    return boundary_at(mu, max_order)[1]


# boundary_at and delta_curve read _boundary's cache, so they report and clear it
boundary_at.cache_info = delta_curve.cache_info = _boundary.cache_info
boundary_at.cache_clear = delta_curve.cache_clear = _boundary.cache_clear


def enumerate_slopes(lo: RationalLike, hi: RationalLike,
                     max_order: int) -> list[ExceptionalSlope]:
    """All exceptional slopes of order <= max_order inside [lo, hi], in address order.

    Address order is slope order, since the correspondence is order-preserving.
    The list holds fewer than ``sys.maxsize`` slopes, as a list must.
    """
    lo, hi = Fraction(exact_rational(lo, "lo")), Fraction(exact_rational(hi, "hi"))
    if lo >= hi:
        raise DomainError("empty slope range")
    if exact_int(max_order, "max_order") < 0:  # no address has a negative order
        return []
    # 2**max_order addresses per unit of [floor(lo), ceil(hi)], and one more
    units = math.ceil(hi) - math.floor(lo)
    if max_order >= sys.maxsize.bit_length() or units << max_order >= sys.maxsize:
        raise DomainError("the slope range holds more addresses than a list can")
    walk = range(math.floor(lo) << max_order, (math.ceil(hi) << max_order) + 1)
    slopes = (from_dyadic(DyadicRational.make(m, max_order)) for m in walk)
    return [s for s in slopes if lo <= s.slope <= hi]
