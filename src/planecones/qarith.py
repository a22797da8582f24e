"""Exact arithmetic: arbitrary-precision rationals and real quadratic irrationals.

Rationals are plain :class:`fractions.Fraction` values (always reduced,
positive denominator).  :class:`QuadraticNumber` represents
``a + b*sqrt(d)`` exactly and stores it as integers ``(A + B*sqrt(d))/D``;
it has no arithmetic operators.  Every sign and comparison is decided
exactly, never by floating point: interval-membership tests downstream
branch on these comparisons, and a wrong branch silently corrupts entire
reports.  Every sign, comparison and floor reads that integer form,
:func:`integer_form`, which a rational gives as ``(p, 0, 0, q)``.  The sign
of ``A + B*sqrt(d)`` takes at most one exact integer squaring
``A*A - B*B*d``; a comparison across two radicands is the sign of
``A + B*sqrt(m) + C*sqrt(n)``, which takes at most two, with no ``Fraction``
products.  Radicands lose their small square factors by a gcd chain that
starts from the product of the primes up to ``TRIAL_DIVISION_BOUND``, one
step per multiplicity; a perfect square exits at once, and numbers below
``2**16`` are split by a one-byte least-prime-factor table.
:func:`sqrt_ratio` takes the root of ``p/q`` from two ints with one gcd and
no ``Fraction``.  Output is written from integers: :func:`ratio_str` writes
``n/d`` as ``str(Fraction(n, d))`` does, with one gcd and no ``Fraction``.
Every value the library takes passes one gate here: :func:`exact_int` (an
``int``, not a ``bool``), :func:`exact_rational` (an ``int`` or a
``Fraction``) or :func:`exact_type` (a record of its exact class); anything
else is a :class:`DomainError` that names the argument.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import total_ordering
from typing import Optional, Union

from .errors import DomainError
from .record import Record

RationalLike = Union[Fraction, int]

TRIAL_DIVISION_BOUND = 10_000


def _shown(value, write=repr) -> str:
    """``write(value)`` for a message; the type alone where it holds an int past the digit limit."""
    try:
        return write(value)
    except ValueError:
        return f"<{type(value).__name__} past Python's digit limit>"


def exact_int(value, name: str, least: Optional[int] = None) -> int:
    """``value`` if it is an ``int``, not a ``bool``, and at least ``least`` when that is given."""
    if type(value) is not int or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{name} must be an int{bound}, got {_shown(value)}")
    return value


def exact_rational(value, name: str) -> RationalLike:
    """``value`` if it is an ``int``, not a ``bool``, or a ``Fraction``."""
    if type(value) is not int and type(value) is not Fraction:
        raise DomainError(f"{name} must be an int or a Fraction, got {_shown(value)}")
    return value


def exact_type(value, cls: type, name: str):
    """``value`` if its type is ``cls`` itself: a record, or a ``str``."""
    if type(value) is not cls:
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{name} must be {article} {cls.__name__}, got {_shown(value)}")
    return value


def _primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def _least_prime_factors(limit: int) -> bytearray:
    """Least prime factor of every composite below ``limit``; 0 for 0, 1 and the primes.

    A composite below ``limit <= 2**16`` has a prime factor at most
    ``sqrt(limit) <= 256``, so one byte holds it.  The primes are written
    largest first, one slice each from its square, so the least is kept.
    """
    table = bytearray(limit)
    for p in reversed(_primes_up_to(math.isqrt(limit - 1))):
        table[p * p::p] = bytes((p,)) * len(range(p * p, limit, p))
    return table


_SMALL_PRIMES = _primes_up_to(TRIAL_DIVISION_BOUND)
_PRIMORIAL = math.prod(_SMALL_PRIMES)
_SPF_LIMIT = 1 << 16
_SPF = _least_prime_factors(_SPF_LIMIT)


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = s*s * d`` with ``d`` squarefree up to ``TRIAL_DIVISION_BOUND``.

    A perfect square gives ``(isqrt(n), 1)`` at once.  Below ``2**16`` the
    least-prime-factor table splits ``n`` completely: each prime either
    joins ``d`` or, met again, leaves it for ``s``.  Above it a gcd chain
    finds the primes up to the bound, with no trial division:
    ``g = gcd(n, _PRIMORIAL)``, then ``n //= g; g = gcd(n, g)`` until
    ``g == 1``, so the k-th ``g`` is the product of the small primes of
    multiplicity at least k.  The even-indexed ``g`` multiply into ``s``;
    the odd-indexed ones, divided by the even-indexed ones, leave each prime
    of odd multiplicity once, for ``d``.  The leftover cofactor is tested
    for being a perfect square so radicands built from large squares still
    collapse.  A composite leftover with a hidden square factor stays
    unreduced.  That only affects how canonical the representation is;
    comparisons stay exact either way because they never assume the
    radicand is squarefree.
    """
    if n < 0:
        raise DomainError("negative radicand")
    if n in (0, 1):
        return 1, n
    s = math.isqrt(n)
    if s * s == n:
        return s, 1
    s = d = 1
    if n < _SPF_LIMIT:
        while n > 1:
            p = _SPF[n] or n  # 0 marks a prime
            n //= p
            if d % p:
                d *= p
            else:
                d //= p
                s *= p
        return s, d
    g = math.gcd(n, _PRIMORIAL)
    while g > 1:
        n //= g
        d *= g
        g = math.gcd(n, g)
        n //= g
        s *= g
        g = math.gcd(n, g)
    d //= s
    if n > 1:
        r = math.isqrt(n)
        if r * r == n:
            s *= r
        else:
            d *= n
    return s, d


def _sign_int_radical(A: int, B: int, d: int) -> int:
    """Exact sign of ``A + B*sqrt(d)`` for integers ``A``, ``B`` and ``d >= 0``.

    When the signs of ``A`` and ``B`` agree, that is the sign; otherwise
    ``|A|`` is compared with ``|B|*sqrt(d)`` through ``A*A - B*B*d``.
    """
    if B == 0 or d == 0:
        return (A > 0) - (A < 0)
    sb = 1 if B > 0 else -1
    if A == 0:
        return sb
    sa = 1 if A > 0 else -1
    if sa == sb:
        return sa
    t = A * A - B * B * d
    if t == 0:
        return 0
    return sa if t > 0 else sb


def _sign_int_two_radicals(A: int, B: int, m: int, C: int, n: int) -> int:
    """Exact sign of ``A + B*sqrt(m) + C*sqrt(n)`` for integers, ``m, n >= 0``.

    At most two sign-tracked squarings, both by :func:`_sign_int_radical`:
    ``B*sqrt(m) + C*sqrt(n)`` has the sign of ``B*m + C*sqrt(m*n)``, and
    when ``A`` has the other sign, ``A*A`` is compared with the square
    ``B*B*m + C*C*n + 2*B*C*sqrt(m*n)``.  Neither squarefreeness nor
    independence of the two radicals is assumed.
    """
    s = _sign_int_radical(B * m, C, m * n) if m else _sign_int_radical(0, C, n)
    sa = (A > 0) - (A < 0)
    if sa == 0 or s == 0 or s == sa:
        return sa or s
    su = _sign_int_radical(A * A - B * B * m - C * C * n, -2 * B * C, m * n)
    return sa if su > 0 else s if su < 0 else 0


def integer_form(x) -> tuple[int, int, int, int]:
    """Integers ``(A, B, d, D)`` with ``x = (A + B*sqrt(d))/D`` and ``D > 0``.

    A :class:`QuadraticNumber` stores exactly this form, so it is read, not
    computed; ``d`` is 0 for a rational, whose form ``(p, 0, 0, q)`` is read
    without building a :class:`QuadraticNumber`.  Every exact sign and floor
    starts here.
    """
    if type(x) is QuadraticNumber:
        return x.A, x.B, x.d, x.D
    x = exact_rational(x, "x")
    return x.numerator, 0, 0, x.denominator


def floor_of_form(A: int, B: int, d: int, D: int) -> int:
    """Largest integer ``n <= (A + B*sqrt(d))/D`` for an :func:`integer_form`.

    A stored radicand ``d > 1`` is never a perfect square, so neither is
    ``B*B*d``, and ``t = isqrt(B*B*d)`` gives ``t < |B|*sqrt(d) < t + 1``.
    """
    if B == 0:
        return A // D
    t = math.isqrt(B * B * d)
    return (A + t) // D if B > 0 else (A - t - 1) // D


def _normal_form(A: int, B: int, d: int, D: int) -> tuple[int, int, int, int]:
    """``(A, B, d, D)``, ``D > 0``, with the gcd divided out and ``B`` folded when ``d <= 1``."""
    if d == 1:
        A += B
    if B == 0 or d <= 1:
        B, d = 0, 0
    g = math.gcd(A, B, D)
    if g > 1:
        A, B, D = A // g, B // g, D // g
    return A, B, d, D


_PARSE_RE = re.compile(
    r"^\(\s*(-?\d+(?:/\d+)?)\s*\+\s*(-?\d+(?:/\d+)?)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)$"
)


@total_ordering
class QuadraticNumber(Record):
    """Exact value ``a + b*sqrt(d)``, stored as its integer form ``(A + B*sqrt(d))/D``.

    ``D > 0`` and ``gcd(A, B, D) == 1``; a rational has ``B == d == 0``.  The
    constructor takes rational ``a``, ``b`` and an integer ``d >= 0``, folds
    the square factors of ``d`` into ``b`` and ``d in {0, 1}`` into the
    rational part; ``a`` and ``b`` read back as :class:`Fraction` values.
    Every stored ``d`` is a fixed point of :func:`squarefree_decompose`, so
    a closed form built from stored forms (by :meth:`_from_form`) reuses it.
    It is a :class:`Record` of the fields ``A``, ``B``, ``d`` and ``D``: both
    constructors bring the form to :func:`_normal_form`, ``__init__`` through
    ``Record.__init__`` and ``_from_form`` through the trusted ``_trusted``.
    Instances are immutable (a cache may share one), pickle as their stored
    form, are totally ordered, exactly across radicands, and hash as equal
    values do, not as the tuple of their fields.
    """

    __slots__ = ("A", "B", "d", "D")

    def __init__(self, a: RationalLike, b: RationalLike = 0, d: int = 0):
        a, b = Fraction(exact_rational(a, "a")), Fraction(exact_rational(b, "b"))
        if exact_int(d, "d", 0) > 1 and b:
            s, d = squarefree_decompose(d)
            b *= s
        Record.__init__(self, *_normal_form(a.numerator * b.denominator,
                                            b.numerator * a.denominator, d,
                                            a.denominator * b.denominator))

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_form(cls, A: int, B: int, d: int, D: int) -> "QuadraticNumber":
        """``(A + B*sqrt(d))/D`` for integers, ``D > 0``, without factoring ``d``.

        ``d`` must be 0, 1 or a fixed point of :func:`squarefree_decompose`,
        such as the stored radicand of an instance.
        """
        return QuadraticNumber._trusted(*_normal_form(A, B, d, D))

    def __reduce__(self):
        return QuadraticNumber._trusted, (self.A, self.B, self.d, self.D)

    @classmethod
    def parse(cls, text: str) -> "QuadraticNumber":
        """Inverse of ``str``; accepts exactly the ``(a + b*sqrt(d))`` form."""
        m = _PARSE_RE.match(exact_type(text, str, "text").strip())
        if not m:
            raise DomainError(f"not a quadratic number literal: {text!r}")
        return cls(Fraction(m.group(1)), Fraction(m.group(2)), int(m.group(3)))

    # -- basic queries ------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.D)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.D)

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    def rational_value(self) -> Fraction:
        if self.d != 0:
            raise DomainError("not a rational value")
        return self.a

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}; needs at most one squaring."""
        return _sign_int_radical(self.A, self.B, self.d)

    def compare(self, other) -> int:
        """Exact three-way comparison, cross-radicand included.

        With ``self = (A + B*sqrt(m))/D`` and ``other = (C + E*sqrt(n))/F``,
        this is the sign of ``(A*F - C*D) + B*F*sqrt(m) - E*D*sqrt(n)``.
        """
        A, B, m, D = self.A, self.B, self.d, self.D
        C, E, n, F = integer_form(other)
        if m == n:
            return _sign_int_radical(A * F - C * D, B * F - E * D, m)
        return _sign_int_two_radicals(A * F - C * D, B * F, m, -E * D, n)

    def floor(self) -> int:
        """Largest integer ``n`` with ``n <= self``, decided exactly by one ``isqrt``."""
        return floor_of_form(self.A, self.B, self.d, self.D)

    def bounds(self, digits: int) -> tuple[Fraction, Fraction]:
        """Rational enclosure ``lo <= self <= hi`` of width < ``2*|b| * 10**-digits``."""
        return self._bounds(_digit_count(digits))

    def _bounds(self, digits: int) -> tuple[Fraction, Fraction]:
        A, B, d, D = self.A, self.B, self.d, self.D
        if B == 0:
            return Fraction(A, D), Fraction(A, D)
        scale = 10 ** digits
        s = math.isqrt(d * scale * scale)
        lo = Fraction(A * scale + B * s, D * scale)
        hi = Fraction(A * scale + B * (s + 1), D * scale)
        return (lo, hi) if B > 0 else (hi, lo)

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) not in (QuadraticNumber, Fraction, int):  # a bool is no number
            return NotImplemented
        return self.compare(other) == 0

    def __lt__(self, other) -> bool:
        if type(other) not in (QuadraticNumber, Fraction, int):  # a bool is no number
            return NotImplemented
        return self.compare(other) < 0

    def __hash__(self) -> int:
        """Agrees with ``==`` across every stored form of one value.

        A rational hashes as the equal ``Fraction`` (and so as an equal
        ``int``).  An irrational hashes on ``(a, b^2 d, sign of b)``, which
        does not change when a square hidden in ``d`` (a prime past the
        trial-division bound) moves into ``b``.
        """
        A, B, D = self.A, self.B, self.D
        if not B:
            return hash(Fraction(A, D))
        return hash((Fraction(A, D), Fraction(B * B * self.d, D * D), B > 0))

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        return f"({ratio_str(self.A, self.D)} + {ratio_str(self.B, self.D)}*sqrt({self.d}))"

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.a!r}, {self.b!r}, {self.d})"

    def decimal(self, digits: int = 12) -> str:
        """Non-authoritative decimal rendering for display, its digits written as one int."""
        lo, hi = self._bounds(_digit_count(digits) + 2)
        mid = (lo + hi) / 2
        # format from a scaled integer to avoid float rounding
        scaled = round(mid * 10 ** digits)
        sign = "-" if scaled < 0 else ""
        scaled = abs(scaled)
        whole, frac = divmod(scaled, 10 ** digits)
        return f"{sign}{whole}.{str(frac).zfill(digits)}"


def sqrt_exact(x: RationalLike) -> QuadraticNumber:
    """Exact square root of a nonnegative rational.

    Perfect squares come back rational (radicand 0); otherwise the result is
    ``(s/q) * sqrt(d)`` with ``d`` the reduced radicand of ``p*q`` for
    ``x = p/q`` in lowest terms.
    """
    x = Fraction(exact_rational(x, "x"))
    return sqrt_ratio(x.numerator, x.denominator)


def sqrt_ratio(p: int, q: int) -> QuadraticNumber:
    """``sqrt_exact(Fraction(p, q))`` for ints ``p`` and ``q != 0``, with no ``Fraction``.

    One gcd brings ``p/q`` to lowest terms with ``q > 0``, and ``p*q`` is
    factored, so the radicand is the one ``sqrt_exact`` takes.
    """
    g = math.gcd(p, q)
    if q < 0:
        g = -g
    elif q == 0:
        raise ZeroDivisionError(f"sqrt_ratio({p}, 0)")
    if g != 1:
        p, q = p // g, q // g
    if p < 0:
        raise DomainError("square root of a negative rational")
    s, d = squarefree_decompose(p * q)
    return QuadraticNumber._from_form(0, s, d, q)


def ratio_str(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ints ``n`` and ``d != 0``: one ``gcd``, no ``Fraction``."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    elif d == 0:
        raise ZeroDivisionError(f"ratio_str({n}, 0)")
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


# Python's limit on the digits of an int read or written as text; 0 is none,
# and there is none before Python 3.10.7
int_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _digit_bound() -> int:
    """The digit limit, or Python's default of 4,300 digits where there is none.

    It bounds the work a guard lets through (a decimal's digits, a literal's
    exponent, a walk's ranks), so no guard switches off with the limit;
    what may be printed still follows the limit itself.
    """
    return int_digit_limit() or 4300


def _digit_count(digits: int) -> int:
    """``digits`` if it is an ``int`` from 0 to :func:`_digit_bound`."""
    limit = _digit_bound()
    exact_int(digits, "digits", 0)
    if limit < digits:
        raise DomainError(f"digits must be at most Python's limit of {limit:,}, "
                          f"got {_shown(digits)}")
    return digits


def more_digits(n: int, digits: int) -> bool:
    """Whether ``n >= 0`` has more than ``digits > 0`` digits: ``n >= 10**digits``.

    As ``2**(3 digits) < 10**digits < 2**(4 digits)``, the bit length
    decides unless it lies between the two, and only then is the power
    built, about as long as ``n``: so a bound of any size costs nothing.
    """
    bits = n.bit_length()
    return bits > 4 * digits or bits > 3 * digits and n >= 10 ** digits


def parse_rational(text: str) -> Fraction:
    exact_type(text, str, "text")
    quoted = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text):,} characters)"
    limit, longest = int_digit_limit(), max(map(len, re.findall(r"[0-9]+", text)), default=0)
    if 0 < limit < longest:
        raise DomainError(f"not a rational literal: {quoted} has {longest:,} digits in a row, "
                          f"past Python's limit of {limit:,} for reading an integer")
    # an exponent e adds |e| digits to the integer Fraction builds; read it off first
    power, bound = re.fullmatch(r"([^eE]*)[eE]([-+]?\d+(?:_\d+)*)\s*", text), _digit_bound()
    if power and (len(power[2]) > bound  # too long to read, so past the bound
                  or sum(map(str.isdigit, power[1])) + abs(int(power[2])) > bound):
        raise DomainError(f"not a rational literal: {quoted} has more digits with its exponent "
                          f"than Python's limit of {bound:,} for reading an integer")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational literal: {quoted}") from exc
