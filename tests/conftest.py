import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from planecones import CaseSign, Kind, classify, exceptional, qarith
from planecones.cfrac import PeriodStructure, lr_to_slope, word_to_dyadic
from planecones.cone import Classification
from planecones.chern import (
    ChernCharacter, SlopeDisc, character_from_json, euler_pairing, hilbert_poly,
)
from planecones.errors import ConsistencyError, DescentError, DomainError
from planecones.exceptional import (
    DEFAULT_MAX_ORDER,
    DyadicRational,
    ExceptionalSlope,
    boundary_at,
    delta_curve,
    enumerate_slopes,
    find_interval,
    from_dyadic,
    from_integer,
    interval_contains,
    slope_and_parents,
)
from planecones.qarith import (
    TRIAL_DIVISION_BOUND, QuadraticNumber, int_digit_limit, integer_form, sqrt_exact,
)
from planecones.record import Record

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the long hostile-input run: pytest tests/test_fuzz.py --hypothesis-profile=fuzz
settings.register_profile("fuzz", settings.get_profile("ci"), max_examples=2000)
settings.load_profile("ci")


def record_fields(record) -> tuple[str, ...]:
    """The field names of a planecones record, in construction order; none for other values."""
    return record.__slots__ if isinstance(record, Record) else ()


def replace(record, **changes):
    """A new record with the named fields changed, as ``dataclasses.replace`` gives.

    For records built positionally from their fields: all but ``ChernCharacter``.
    """
    assert changes.keys() <= set(record_fields(record)), changes.keys()
    return type(record)(*(changes.get(name, getattr(record, name)) for name in record.__slots__))


def triad_key(left, gamma, right) -> tuple:
    """``cone._triad``'s integer key for ``gamma`` between its parents, as a descent gives it."""
    bundles = tuple((s.r, s.c1) for s in (left, gamma, right))
    return (*bundles, gamma.dyadic.p, gamma.dyadic.q)


@contextlib.contextmanager
def capped(digits: int):
    """Every walk down the slope tree stops past ``digits`` digits, not the digit limit's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exceptional, "_digit_bound", lambda: digits)
        yield


@pytest.fixture(scope="session")
def grid() -> list[ChernCharacter]:
    """Deterministic grid of valid Picard-rank-2 characters, r in 1..6, |c1| <= 8."""
    grid = []
    for r in range(1, 7):
        for c1 in range(-8, 9):
            for chi in range(-6, 7):
                x = ChernCharacter(
                    Fraction(r), Fraction(c1), Fraction(chi) - r - Fraction(3, 2) * c1
                )
                if classify(x).kind is Kind.PICARD_RANK_2:
                    grid.append(x)
    return grid


def _near_boundary(q, k, s, nudge):
    """A character with discriminant about ``(s^2 - 5)/8`` whose ``mu0+`` is the slope at ``k``.

    ``k`` picks an odd address ``p / 2**q`` in (0, 1) and ``mu0+`` is set to
    its slope ``t``: the slope is ``(s - 3)/2 - t`` and ``sqrt(5 + 8 delta) = s``.
    The rank clears every denominator, times 1000, and ``nudge`` moves chi, so
    ``mu0+`` moves far less than ``t``'s halfwidth and stays in its interval.
    """
    t = exceptional.epsilon(DyadicRational(2 * (k % (1 << (q - 1))) + 1, q))
    mu = (s - 3) / 2 - t
    per_rank = hilbert_poly(mu) - (s * s - 5) / 8
    r = 1000 * math.lcm(mu.denominator, per_rank.denominator)
    return character_from_json({"r": r, "c1": int(r * mu), "chi": int(r * per_rank) + nudge})


# Delta in (1/2, 2) (s in [3.05, 4.5]) with gamma of order 7-9, past the
# order-6 reach of the report pools; most draws clear the boundary curve.
near_boundary = st.builds(
    _near_boundary,
    st.integers(7, 9),
    st.integers(0, 255),
    st.fractions(Fraction(61, 20), Fraction(9, 2), max_denominator=40),
    st.integers(-1, 1),
)


def trial_division_decompose(n: int) -> tuple[int, int]:
    """``n = s*s * d`` by trial division up to ``TRIAL_DIVISION_BOUND``.

    The oracle for the gcd-chain ``squarefree_decompose``: odd trial
    divisors up to the bound (or up to the square root of what is left),
    then a perfect-square test on the cofactor.
    """
    if n in (0, 1):
        return 1, n
    s, d = 1, 1
    p = 2
    while p <= TRIAL_DIVISION_BOUND and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if n > 1:
        r = math.isqrt(n)
        if r * r == n:
            s *= r
        else:
            d *= n
    return s, d


def fraction_sqrt(x) -> tuple[int, int, int, int]:
    """The integer form ``(A, B, d, D)`` of the ``Fraction`` square root.

    The oracle for ``sqrt_ratio``: ``x`` is reduced by ``Fraction`` and
    ``p*q`` of its lowest terms is factored by trial division.  A square
    ``p*q`` is the rational ``s/q``; otherwise the root is ``(s/q)*sqrt(d)``
    with ``s/q`` in lowest terms.
    """
    x = Fraction(x)
    if x < 0:
        raise DomainError("square root of a negative rational")
    s, d = trial_division_decompose(x.numerator * x.denominator)
    root = Fraction(s, x.denominator)
    if d <= 1:
        root *= d
        return root.numerator, 0, 0, root.denominator
    return 0, root.numerator, d, root.denominator


def least_prime_factor(n: int) -> int:
    """The least prime factor of a composite ``n`` by trial division; 0 for 0, 1 and primes."""
    return next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), 0) if n > 3 else 0


class PrimorialGcds:
    """``math`` as ``qarith`` sees it, with each ``gcd`` against ``qarith._PRIMORIAL`` kept.

    Patched in as ``qarith.math``, it sees the first step of the gcd chain,
    taken once for each radicand ``squarefree_decompose`` factors above its
    least-prime-factor table; with ``refuse`` that step fails the test.
    """

    def __init__(self, refuse: bool = False):
        self.calls: list[tuple] = []
        self.refuse = refuse

    def __getattr__(self, name):
        return getattr(math, name)

    def gcd(self, *args):
        if any(a is qarith._PRIMORIAL for a in args):
            if self.refuse:
                pytest.fail(f"gcd with the primorial: {args[0]}")
            self.calls.append(args)
        return math.gcd(*args)


def enclosure_radical_sign(A: int, B: int, d: int) -> int:
    """Sign of ``A + B*sqrt(d)`` from integer enclosures of ``sqrt(d)``, never squaring.

    The oracle for ``_sign_int_radical``: a square ``d`` is the rational
    case; otherwise the value is not zero, and ``s = isqrt(d << 2k)``, which
    certifies ``s <= sqrt(d)*2**k < s + 1``, separates it from zero once
    ``k`` is large enough.
    """
    root = math.isqrt(d)
    if root * root == d:
        v = A + B * root
        return (v > 0) - (v < 0)
    k = 64
    while True:
        s = math.isqrt(d << 2 * k)
        lo, hi = (A << k) + B * s, (A << k) + B * (s + 1)
        if min(lo, hi) > 0:
            return 1
        if max(lo, hi) < 0:
            return -1
        k *= 2


def _fraction_sign(x) -> int:
    return (x > 0) - (x < 0)


def _fraction_one_radical_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of ``a + b*sqrt(d)`` by squaring ``Fraction``s."""
    sa, sb = _fraction_sign(a), _fraction_sign(b)
    if sb == 0 or d == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    t = a * a - b * b * d
    return 0 if t == 0 else (sa if t > 0 else sb)


def fraction_two_radical_sign(a: Fraction, b: Fraction, m: int, c: Fraction, n: int) -> int:
    """Sign of ``a + b*sqrt(m) + c*sqrt(n)`` by squaring ``Fraction``s.

    The oracle for the integer two-radical sign: the ``Fraction`` routine that
    cross-radicand comparison used before signs were cleared to integers.
    """
    if b == 0 or m == 0:
        s = _fraction_sign(c) if n else 0
    elif c == 0 or n == 0:
        s = _fraction_sign(b)
    elif _fraction_sign(b) == _fraction_sign(c):
        s = _fraction_sign(b)
    else:
        t = b * b * m - c * c * n
        s = 0 if t == 0 else (_fraction_sign(b) if t > 0 else _fraction_sign(c))
    if a == 0:
        return s
    sa = _fraction_sign(a)
    if s == 0 or s == sa:
        return sa
    su = _fraction_one_radical_sign(a * a - b * b * m - c * c * n, -2 * b * c, m * n)
    return sa if su > 0 else (s if su < 0 else 0)


class FractionQuadratic:
    """``a + b*sqrt(d)`` with ``Fraction`` coefficients, as ``QuadraticNumber`` once stored it.

    The oracle for the integer form: the same reduced radicand (factored by
    trial division), the operators written over ``Fraction``s with a case per
    rational operand and division through the conjugate, and the same
    ``repr``, ``bounds`` and ``decimal``.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=0):
        """Trusts ``d`` to be 0 or reduced, as arithmetic on reduced operands does."""
        a, b = Fraction(a), Fraction(b)
        if b == 0 or d == 0:
            b, d = Fraction(0), 0
        self.a, self.b, self.d = a, b, d

    @classmethod
    def build(cls, a, b=0, d=0):
        """The public constructor: square factors of ``d`` fold into ``b``."""
        b = Fraction(b)
        if b != 0 and d > 1:
            s, d = trial_division_decompose(d)
            b *= s
        return cls(Fraction(a) + b, 0, 0) if d == 1 else cls(a, b, d)

    @staticmethod
    def of(x):
        """``x`` as a ``FractionQuadratic``; a ``QuadraticNumber`` by its coefficients."""
        if isinstance(x, FractionQuadratic):
            return x
        if isinstance(x, QuadraticNumber):
            return FractionQuadratic(x.a, x.b, x.d)
        return FractionQuadratic(x)

    def number(self) -> QuadraticNumber:
        """The same value by the public ``QuadraticNumber`` constructor."""
        return QuadraticNumber(self.a, self.b, self.d)

    def sign(self) -> int:
        return _fraction_one_radical_sign(self.a, self.b, self.d)

    def __add__(self, other):
        other = FractionQuadratic.of(other)
        if self.d and other.d and self.d != other.d:
            raise DomainError("cannot add quadratic numbers from different fields")
        if self.d == other.d:
            return FractionQuadratic(self.a + other.a, self.b + other.b, self.d)
        if self.d == 0:
            return FractionQuadratic(self.a + other.a, other.b, other.d)
        return FractionQuadratic(self.a + other.a, self.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return FractionQuadratic(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-FractionQuadratic.of(other))

    def __rsub__(self, other):
        return FractionQuadratic.of(other) + (-self)

    def __mul__(self, other):
        other = FractionQuadratic.of(other)
        if self.d and other.d and self.d != other.d:
            raise DomainError("cannot multiply quadratic numbers from different fields")
        if self.d == other.d:
            return FractionQuadratic(self.a * other.a + self.b * other.b * self.d,
                                     self.a * other.b + self.b * other.a, self.d)
        if self.d == 0:
            return FractionQuadratic(self.a * other.a, self.a * other.b, other.d)
        return FractionQuadratic(self.a * other.a, self.b * other.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = FractionQuadratic.of(other)
        if other.sign() == 0:
            raise DomainError("division by zero")
        if other.d == 0:
            return FractionQuadratic(self.a / other.a, self.b / other.a, self.d)
        norm = other.a * other.a - other.b * other.b * other.d
        return (self * FractionQuadratic(other.a, -other.b, other.d)) / norm

    def __rtruediv__(self, other):
        return FractionQuadratic.of(other) / self

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.a!r}, {self.b!r}, {self.d})"

    def bounds(self, digits: int):
        if self.d == 0:
            return self.a, self.a
        scale = 10 ** digits
        s = math.isqrt(self.d * scale * scale)
        root_lo, root_hi = Fraction(s, scale), Fraction(s + 1, scale)
        if self.b >= 0:
            return self.a + self.b * root_lo, self.a + self.b * root_hi
        return self.a + self.b * root_hi, self.a + self.b * root_lo

    def decimal(self, digits: int) -> str:
        lo, hi = self.bounds(digits + 2)
        scaled = round((lo + hi) / 2 * 10 ** digits)
        whole, frac = divmod(abs(scaled), 10 ** digits)
        return f"{'-' if scaled < 0 else ''}{whole}.{str(frac).zfill(digits)}"


@dataclass(frozen=True)
class FractionCharacter:
    """``(ch0, ch1, ch2)`` as ``Fraction``s, as ``ChernCharacter`` once stored it.

    The oracle for the lattice kernel: the Euler pairing is the Euler
    characteristic ``ch0 + (3/2) ch1 + ch2`` of the tensor product, a twist is
    the tensor with ``O(n) = (1, n, n^2/2)`` and the Serre dual the dual
    twisted by ``O(-3)``, all over ``Fraction``s.
    """

    ch0: Fraction
    ch1: Fraction
    ch2: Fraction

    @staticmethod
    def of(x: ChernCharacter) -> "FractionCharacter":
        return FractionCharacter(x.ch0, x.ch1, x.ch2)

    def tensor(self, other: "FractionCharacter") -> "FractionCharacter":
        return FractionCharacter(
            self.ch0 * other.ch0,
            self.ch0 * other.ch1 + other.ch0 * self.ch1,
            self.ch0 * other.ch2 + self.ch1 * other.ch1 + other.ch0 * self.ch2,
        )

    def euler_chi(self) -> Fraction:
        return self.ch0 + Fraction(3, 2) * self.ch1 + self.ch2

    def pairing(self, other: "FractionCharacter") -> Fraction:
        return self.tensor(other).euler_chi()

    def dual(self) -> "FractionCharacter":
        return FractionCharacter(self.ch0, -self.ch1, self.ch2)

    def twist(self, n: int) -> "FractionCharacter":
        n = Fraction(n)
        return self.tensor(FractionCharacter(Fraction(1), n, n * n / 2))

    def serre_dual(self) -> "FractionCharacter":
        return self.dual().twist(-3)

    def slope(self) -> Fraction:
        return self.ch1 / self.ch0

    def discriminant(self) -> Fraction:
        mu = self.slope()
        return mu * mu / 2 - self.ch2 / self.ch0


def slope_dot(alpha, beta) -> Fraction:
    """Mediant slope ``(a+b)/2 + (delta_b - delta_a)/(3 + a - b)`` over ``Fraction``s.

    With ``fraction_walk``, the oracle for the integer mutation walk: the
    formula the slope tree used before each slope carried its bundle.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    denom = 3 + alpha - beta
    if denom == 0:
        raise DomainError("mediant undefined: slopes differ by exactly 3")
    da = (1 - Fraction(1, alpha.denominator ** 2)) / 2
    db = (1 - Fraction(1, beta.denominator ** 2)) / 2
    return (alpha + beta) / 2 + (db - da) / denom


def fraction_walk(p: int, q: int, memo: dict) -> tuple[Fraction, Fraction, Fraction]:
    """``(left parent, slope, right parent)`` of ``p / 2**q`` (``q >= 1``) by ``slope_dot``.

    Descends from the integer bracket ``[b, b + 1]``, taking the mediant of
    the bracket's end slopes at each level; each mediant is read from or
    written to ``memo`` under its address ``(2b + 1, k)``.
    """
    b = p >> q
    left, right = Fraction(b), Fraction(b + 1)
    for k in range(1, q + 1):
        mid = memo.get((2 * b + 1, k))
        if mid is None:
            mid = memo[2 * b + 1, k] = slope_dot(left, right)
        if k < q:
            b = p >> (q - k)
            left, right = (mid, right) if b & 1 else (left, mid)
    return left, mid, right


def stepwise_walk(d: DyadicRational, max_rank_digits: int = 0):
    """``(left parent, slope, right parent)`` of ``d = p / 2**q`` (``q >= 1``), one mutation a level.

    The oracle for the walk that jumps a run of equal address bits in one
    step: the bracket at level ``k`` is ``[b, b + 1] / 2**k`` with
    ``b = p >> (q - k)``, its midpoint is ``3 r(coarse) v(fin) - v(g)``
    (``fin`` the end of the larger rank, the left one of ``[b, b + 1]``;
    ``g`` the end dropped the step before, ``O(b - 1)`` at first), and a
    positive ``max_rank_digits`` stops it at the first rank of more digits.
    The mutation acts on the whole character ``(r, c1, chi)``, so it also
    returns the three ``chi`` it carries, against which the slopes' ``chi``,
    read off ``(r, c1)`` by Riemann-Roch, is checked: ``(slopes, chis)``.
    """
    def line(n):
        return 1, n, (n + 1) * (n + 2) // 2

    p, q = d.p, d.q
    b = p >> q
    left, right, g = line(b), line(b + 1), line(b - 1)
    cap = 10 ** max_rank_digits if max_rank_digits > 0 else 0
    for k in range(1, q + 1):
        fin, coarse = (left, right) if left[0] >= right[0] else (right, left)
        s = 3 * coarse[0]
        mid = s * fin[0] - g[0], s * fin[1] - g[1], s * fin[2] - g[2]
        if cap and mid[0] >= cap:
            raise DomainError(f"slope has a {mid[0].bit_length():,}-bit integer in its walk "
                              f"at order {k} of {q}, past the limit of {max_rank_digits:,} "
                              f"digits for printing one")
        if k < q:
            if (p >> (q - k)) & 1:
                left, g = mid, left
            else:
                right, g = mid, right
    half = p >> 1
    slopes = (ExceptionalSlope(*left[:2], DyadicRational.make(half, q - 1)),
              ExceptionalSlope(*mid[:2], d),
              ExceptionalSlope(*right[:2], DyadicRational.make(half + 1, q - 1)))
    return slopes, (left[2], mid[2], right[2])


def descent_slopes(x, max_order: int = DEFAULT_MAX_ORDER):
    """``(left parent, slope, right parent)`` of ``find_interval(x)``, from one descent."""
    left, mid, right, p, q = exceptional._bracket(*integer_form(x), max_order)
    return exceptional._slopes(left, mid, right, exceptional._dyadic(p, q))


def fraction_character(mu: Fraction) -> ChernCharacter:
    """The exceptional character ``(r, c, (c^2 + 3cr + r^2 + 1)/2r)`` of the slope ``c/r``."""
    c, r = mu.numerator, mu.denominator
    chi, rest = divmod(c * (c + 3 * r) + r * r + 1, 2 * r)
    assert rest == 0, f"{mu} is not an exceptional slope"
    return character_from_json({"r": r, "c1": c, "chi": chi})


def reference_find_interval(x, max_order: int = DEFAULT_MAX_ORDER):
    """The bracketing descent as one ``from_dyadic`` and one comparison per probe.

    The reference for ``find_interval``, which takes each mediant by one
    mutation of its bracket and the left/right sign from ``x``'s integer form.
    """
    if isinstance(x, (int, Fraction)):
        x = QuadraticNumber(Fraction(x))
    n = x.floor()
    for m in (n, n + 1):
        if interval_contains(from_integer(m), x, closed=True):
            return from_integer(m)
    p, q = n, 0
    while q < max_order:
        child = from_dyadic(DyadicRational(2 * p + 1, q + 1))
        if interval_contains(child, x, closed=True):
            return child
        if x.compare(child.slope) < 0:
            p, q = 2 * p, q + 1
        else:
            p, q = 2 * p + 1, q + 1
    raise DescentError(f"no enclosing interval of order <= {max_order}")


def reference_enumerate_slopes(lo, hi, max_order: int) -> list[ExceptionalSlope]:
    """Every address of each order up to ``max_order`` walked, filtered, then sorted by slope.

    The reference for ``enumerate_slopes``, which walks the addresses of
    order ``max_order`` up and relies on address order being slope order.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    found = []
    for q in range(max_order + 1):
        for p in range(math.floor(lo) << q, (math.ceil(hi) << q) + 1):
            if q == 0 or p & 1:
                s = from_dyadic(DyadicRational(p, q))
                if lo <= s.slope <= hi:
                    found.append(s)
    found.sort(key=lambda s: s.slope)
    return found


def boundary_classify(x: ChernCharacter, max_order: int = DEFAULT_MAX_ORDER) -> Classification:
    """``classify`` by the boundary value at every slope, with no shortcut above delta = 1.

    The reference for ``classify``, which decides ``delta > 1`` from the
    discriminant form's integers before any descent.
    """
    for field, what in ((x.r, "rank"), (x.c1, "first Chern class"),
                        (x.chi, "Euler characteristic")):
        if Fraction(field).denominator != 1:
            return Classification(Kind.INVALID, (f"{what} is not an integer",))
    if x.r < 0:
        return Classification(Kind.INVALID, ("negative rank",))
    if x.r == 0:
        if x.c1 < 3:
            return Classification(
                Kind.INVALID, (f"rank zero needs first Chern class d >= 3, got {x.c1}",))
        return Classification(Kind.RANK_ZERO_PICARD_RANK_2,
                              (f"pure one-dimensional sheaves of degree {x.c1}",))
    mu, delta = x.slope(), x.discriminant()
    enclosing, boundary = boundary_at(mu, max_order)
    if delta > boundary:
        return Classification(Kind.PICARD_RANK_2, ("discriminant exceeds the boundary curve",))
    if delta == boundary:
        return Classification(Kind.HEIGHT_ZERO,
                              ("discriminant sits exactly on the boundary curve",))
    if mu == enclosing.slope and delta == enclosing.discriminant and x.r % enclosing.r == 0:
        return Classification(Kind.EXCEPTIONAL,
                              (f"positive multiple of the exceptional character of slope {mu}",))
    return Classification(
        Kind.INVALID, ("discriminant below the boundary curve and not an exceptional multiple",))


def moved(q: QuadraticNumber, k) -> QuadraticNumber:
    """``q + k`` for a rational ``k``, by the public constructor."""
    return QuadraticNumber(q.a + k, q.b, q.d)


def negated(q: QuadraticNumber) -> QuadraticNumber:
    """``-q``, by the public constructor."""
    return QuadraticNumber(-q.a, -q.b, q.d)


def delta_curve_at(x: QuadraticNumber) -> QuadraticNumber:
    """Boundary value ``P(-|x - a|) - delta_a`` at a quadratic point, over ``Fraction``s."""
    a = find_interval(x)
    u = FractionQuadratic.of(x) - a.slope
    if u.sign() > 0:
        u = -u
    return ((u * u + 3 * u + 2) / 2 - a.discriminant).number()


def fraction_qn_str(q: QuadraticNumber) -> str:
    """``str`` of a ``QuadraticNumber`` through its ``Fraction`` coefficients ``a`` and ``b``.

    The oracle for writing the stored integer form with ``ratio_str``.
    """
    return f"({q.a} + {q.b}*sqrt({q.d}))"


def quadratic_interval(s) -> tuple[QuadraticNumber, QuadraticNumber]:
    """``QuadraticNumber(slope) -+ halfwidth``, with the halfwidth ``(3 - sqrt(5 + 8 delta))/2``.

    The oracle for the integer forms of ``interval()`` and of the cached halfwidth.
    """
    w = (3 - FractionQuadratic.of(sqrt_exact(5 + 8 * s.discriminant))) / 2
    return (s.slope - w).number(), (s.slope + w).number()


def fraction_arc_value(a: ExceptionalSlope, mu) -> Fraction:
    """The arc ``P(-|mu - a|) - delta_a`` over ``a``'s interval, by ``hilbert_poly`` on ``Fraction``s.

    The oracle for ``arc_value``, which writes the arc as one integer
    numerator over ``2 (r r_a)^2``.
    """
    return hilbert_poly(-abs(Fraction(mu) - a.slope)) - a.discriminant


def arc_below(ray: ChernCharacter, gamma) -> bool:
    """Whether the ray's ``(mu, delta)`` lies below gamma's arc, over ``Fraction``s.

    The oracle for the integer boundary check of ``orthogonal_character``.
    """
    point = ray.slope_disc()
    return point.delta < fraction_arc_value(gamma, point.mu)


def descent_from_slope_value(mu, max_order: int = DEFAULT_MAX_ORDER) -> ExceptionalSlope:
    """``from_slope_value`` by an interval descent to ``mu``, then a comparison of the hit.

    The oracle for the exact lookup, which compares ``mu`` with each
    mediant and refuses once the ranks pass ``mu``'s denominator.  The
    descent raises ``DescentError`` where the budget does not reach the
    enclosing interval; the lookup refuses those with ``DomainError``.
    """
    mu = Fraction(mu)
    found = find_interval(mu, max_order)
    if (found.c1, found.r) != (mu.numerator, mu.denominator):
        raise DomainError(f"{mu} is not an exceptional slope of order <= {max_order}")
    return found


def euclid_expansion(c1: int, r: int, odd: bool) -> str:
    """The odd- or even-length expansion of the slope ``c1/r`` in [0, 1/2], by Euclid.

    The reference for the parent rule that ``cfrac`` computes with: Euclid's
    algorithm on the bundle's integers gives the regular continued
    fraction's quotients, whose list is flipped when its length has the
    other parity.  Each quotient of an exceptional slope is 1 or 2, so a
    step takes one or two subtractions; a bundle whose slope has a larger
    quotient is no exceptional bundle.
    """
    n, m = c1, r
    if n < 0 or 2 * n > m:
        raise DomainError(f"slope {Fraction(c1, r)} outside [0, 1/2]; normalize first")
    digits = []
    while n:
        m -= n
        if m < n:
            digits.append(1)
        else:
            m -= n
            if m >= n:
                raise ConsistencyError(f"(r, c1) = ({r}, {c1}) has a continued-"
                                       "fraction quotient above 2: no exceptional slope")
            digits.append(2)
        m, n = n, m
    word = "".join(map(str, digits))
    return charwise_parity_convert(word) if len(digits) % 2 != odd else word


def charwise_parity_convert(word: str) -> str:
    """The other expansion of the same rational, on a list of ints read off the characters."""
    digits = [int(a) for a in word]
    if any(a <= 0 for a in digits):
        raise DomainError("continued-fraction digits must be positive")
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
    return "".join(str(a) for a in digits)


def charwise_even_expansion(slope) -> str:
    """The even expansion by a descent, a ``Fraction`` and Euclid one character at a time.

    The oracle for ``even_expansion``, which looks a rational up exactly and
    joins the parents' expansions along its address.
    """
    if not isinstance(slope, ExceptionalSlope):
        slope = descent_from_slope_value(Fraction(slope))
    mu = slope.slope
    if not 0 <= mu <= Fraction(1, 2):
        raise DomainError(f"slope {mu} outside [0, 1/2]; normalize first")
    word, n, m = "", mu.numerator, mu.denominator
    while n:
        word += str(m // n)
        m, n = n, m % n
    return charwise_parity_convert(word) if len(word) % 2 else word


def period_by_definition(word: str) -> int:
    """The least p > 0 with word[i] == word[i + p] wherever both exist."""
    k = len(word)
    return next((p for p in range(1, k + 1)
                 if all(word[i] == word[i + p] for i in range(k - p))), k)


def _rebuilt(word: str, result: PeriodStructure, expansion: str) -> PeriodStructure:
    """``result``, once its block, exponent and tail spell ``expansion`` again."""
    rebuilt = result.block * result.exponent + result.tail
    if rebuilt != expansion:
        raise ConsistencyError(f"period decomposition {result} of {word!r} rebuilds "
                               f"{rebuilt!r}, expected {expansion!r}")
    return result


def charwise_period_structure(word: str) -> PeriodStructure:
    """``period_structure`` over the character-wise expansions and a ``Fraction`` test of beta.

    The oracle for the period decomposition written from the digit lists.
    """
    if any(ch not in "LR" for ch in word):
        raise DomainError(f"not an LR word: {word!r}")
    expansion = charwise_even_expansion(lr_to_slope(word))
    if word.endswith("L"):
        if set(expansion) != {"2"}:
            raise DomainError("period decomposition needs a word ending in R")
        return _rebuilt(word, PeriodStructure("2", len(expansion), "", True), expansion)
    n = len(word) - len(word.rstrip("R"))
    head = word[:-n]
    if not head or not head.endswith("L"):
        raise DomainError("period decomposition needs a word of shape head+L+R^n")
    alpha, beta, _ = slope_and_parents(word_to_dyadic(head[:-1]))
    if beta.slope == Fraction(1, 2):
        return _rebuilt(word, PeriodStructure("2", len(expansion), "", True), expansion)
    block = charwise_parity_convert(charwise_even_expansion(beta)) + "2"
    tail = charwise_even_expansion(alpha)
    result = _rebuilt(word, PeriodStructure(block, n + 1, tail, False), expansion)
    if period_by_definition(expansion) != len(block):
        raise ConsistencyError(f"block length {len(block)} is not the smallest period of "
                               f"{expansion}, the expansion of {word!r}")
    return result


def charwise_cantor_approx(prefix: str, depth: int, memo: dict) -> tuple[Fraction, Fraction]:
    """The parent slopes of the truncated prefix's address by the ``Fraction`` walk.

    The oracle for ``cantor_approx``, which reads the parents' bundles off
    one integer walk: the address is read letter by letter and the parents
    come from ``fraction_walk`` (``slope_dot`` on ``Fraction``s, ``memo``
    passed in); the empty word addresses 0, between -1 and 1.
    """
    if any(ch not in "LR" for ch in prefix):
        raise DomainError(f"not an LR word: {prefix!r}")
    if depth < 0:
        raise DomainError("negative depth")
    word = prefix[:depth]
    q = len(word)
    if q == 0:
        return Fraction(-1), Fraction(1)
    bits = sum(1 << (q - 1 - i) for i, ch in enumerate(word) if ch == "R")
    left, _, right = fraction_walk(2 * bits - (1 << q) + 1, q, memo)
    return left, right


def minimal_orthogonal_rank(point: SlopeDisc) -> int:
    """Least positive rank making both c1 and chi integral at this point."""
    chi_per_rank = hilbert_poly(point.mu) - point.delta
    return math.lcm(point.mu.denominator, chi_per_rank.denominator)


def ray_at(point: SlopeDisc, multiplier: int = 1) -> ChernCharacter:
    """The character at ``point`` of the minimal rank times ``multiplier``."""
    rank = minimal_orthogonal_rank(point) * multiplier
    return ChernCharacter.from_rmd(rank, point.mu, point.delta)


def fraction_primary(x: ChernCharacter, gamma, multiplier: int = 1):
    """``(case_sign, point, on_delta_curve, ray)`` of the primary edge over ``Fraction``s.

    The oracle for the cross-product rays: the invariant point where the
    orthogonal parabola of ``x`` meets the arc of ``E_{-gamma}`` (positive
    pairing) or ``E_{-gamma-3}`` (negative), two parabolas that are
    translates of one quadratic, so the solve is linear; the rank-zero
    orthogonal locus is the vertical line ``mu = -chi/d``.  The ray is
    ``from_rmd`` at the least rank making the point integral.
    """
    pairing = euler_pairing(x, gamma.character())
    if pairing == 0:
        point = SlopeDisc(gamma.slope, gamma.discriminant)
        return CaseSign.ZERO, point, True, ray_at(point, multiplier)
    case = CaseSign.POSITIVE if pairing > 0 else CaseSign.NEGATIVE
    ref_slope = -gamma.slope if case is CaseSign.POSITIVE else -gamma.slope - 3
    ref_delta = gamma.discriminant
    if x.r != 0:
        a, b = x.slope(), ref_slope
        mu = (2 * (x.discriminant() - ref_delta) / (a - b) - a - b - 3) / 2
        point = SlopeDisc(mu, hilbert_poly(a + mu) - x.discriminant())
    else:
        mu = Fraction(-x.chi, x.c1)
        point = SlopeDisc(mu, hilbert_poly(ref_slope + mu) - ref_delta)
    on_curve = case is CaseSign.NEGATIVE or point.mu <= gamma.slope
    return case, point, on_curve, ray_at(point, multiplier)


def fraction_secondary(x: ChernCharacter, dual_gamma, multiplier: int = 1):
    """``(point, ray)`` of the secondary edge over ``Fraction``s, ``(None, None)`` below rank 2.

    Rank >= 3 negates the Serre dual's primary point to ``(-mu, delta)``
    and takes the ray there at the minimal rank times ``multiplier``;
    ``dual_gamma`` is the dual's corresponding slope.  Rank 2 takes the
    orthogonal point of tensor slope ``-3/2`` at its minimal rank.
    """
    if x.r >= 3:
        _, dual, _, _ = fraction_primary(x.serre_dual(), dual_gamma)
        point = SlopeDisc(-dual.mu, dual.delta)
    elif x.r == 2:
        mu = -Fraction(3, 2) - x.slope()
        point = SlopeDisc(mu, hilbert_poly(x.slope() + mu) - x.discriminant())
        multiplier = 1
    else:
        return None, None
    return point, -ray_at(point, multiplier)


def stable_orthogonal_slopes_below(x: ChernCharacter, mu_plus: Fraction,
                                   qmax: int = 60) -> list[Fraction]:
    """Brute-force search for stable orthogonal slopes strictly below mu_plus.

    Enumerates rational points of the orthogonality parabola with bounded
    denominator in the window where the tensor slope stays nonnegative; a
    point is stable when its discriminant clears the boundary curve, or when
    it is exactly an exceptional point (the only stable points below the
    half-height line, where the parabola is increasing).
    """
    mu_xi, d_xi = x.slope(), x.discriminant()
    lo = -mu_xi
    found = set()
    for s in enumerate_slopes(lo, mu_plus, 6):
        if s.rank <= qmax and lo <= s.slope < mu_plus:
            if hilbert_poly(mu_xi + s.slope) - d_xi == s.discriminant:
                found.add(s.slope)
    for q in range(1, qmax + 1):
        for p in range(math.ceil(lo * q), math.ceil(mu_plus * q)):
            if math.gcd(p, q) != 1:
                continue
            mu = Fraction(p, q)
            if mu >= mu_plus:
                continue
            delta = hilbert_poly(mu_xi + mu) - d_xi
            if delta < Fraction(1, 2):
                continue
            if delta >= delta_curve(mu):
                found.add(mu)
    return sorted(found)


CASE_1_PRIME_FAMILY = [
    ChernCharacter.from_rmd(2, 0, Fraction(11, 2)),
    ChernCharacter.from_rmd(2, 1, Fraction(11, 2)),
    ChernCharacter.from_rmd(2, -1, Fraction(11, 2)),
]

# mu0+ lies inside the interval of the order-4 slope 47/34 (address 17/2^4).
ORDER_FOUR = character_from_json({"r": 2677938, "c1": 7598734, "chi": -17278349})


# -- the field-by-field printability check, kept as an oracle ---------------------
#
# The renderer once had a second walk over a report that mirrored it field by
# field and measured every integer it would print.  The renderer now measures
# as it writes; this walk lists every field past Python's int-to-string digit
# limit, as ``(path, bits)`` in its own order, where the walk stopped at the first.


def _oracle_ratio(found: list, field: str, n: int, d: int = 1) -> None:
    limit = int_digit_limit()
    if not limit or max(abs(n), abs(d)).bit_length() <= 3 * limit:
        return
    g = math.gcd(n, d)
    for m in (abs(n) // g, abs(d) // g):
        if m.bit_length() > 3 * limit and m >= 10 ** limit:
            found.append((field, m.bit_length()))


def _oracle_numbers(found: list, field: str, *numbers) -> None:
    """Ints, ``Fraction``s and ``QuadraticNumber``s by the integers ``str`` writes."""
    for x in numbers:
        if isinstance(x, QuadraticNumber):
            _oracle_ratio(found, field, x.A, x.D)
            _oracle_ratio(found, field, x.B, x.D)
            _oracle_ratio(found, field, x.d)
        else:
            _oracle_ratio(found, field, x.numerator, x.denominator)


def _oracle_character(found: list, x: ChernCharacter, prefix: str = "") -> None:
    fields = [("r", x.r), ("c1", x.c1), ("chi", x.chi), ("ch2", x.ch2)]
    if x.r != 0:
        fields += [("mu", x.slope()), ("delta", x.discriminant())]
    for field, value in fields:
        _oracle_numbers(found, prefix + field, value)


def _oracle_slope(found: list, s: ExceptionalSlope, prefix: str = "") -> None:
    r = s.r
    _oracle_ratio(found, prefix + "slope", s.c1, r)
    _oracle_ratio(found, prefix + "rank", r)
    _oracle_ratio(found, prefix + "discriminant", r * r - 1, 2 * r * r)
    _oracle_ratio(found, prefix + "dyadic", s.dyadic.p)
    _oracle_numbers(found, prefix + "interval", *s.interval())


def _oracle_edge(found: list, edge, prefix: str) -> None:
    """The invariants and the triad's slopes are read off the characters measured here."""
    _oracle_slope(found, edge.invariants.corresponding_slope,
                  prefix + "invariants.corresponding_slope.")
    _oracle_character(found, edge.extremal_character, prefix + "extremal_character.")
    if edge.basis_coords is not None:
        _oracle_numbers(found, prefix + "extremal_ray_coordinates", *edge.basis_coords)
    res = edge.resolution
    if res is not None:
        for z in res.triad:
            _oracle_character(found, z, prefix + "resolution.triad_characters.")
        _oracle_numbers(found, prefix + "resolution.multiplicities",
                        *(m for m in (res.m1, res.m2, res.m3) if m is not None))
    kron = edge.kronecker
    if kron is not None:
        _oracle_numbers(found, prefix + "kronecker", kron.hom_count, *kron.dim_vector,
                        kron.expected_dimension)
    wall = edge.wall
    _oracle_numbers(found, prefix + "wall", wall.center_s, wall.radius, wall.radius_squared)


def printability_oracle(report) -> list[tuple[str, int]]:
    """Each ``(path, bits)`` of an integer ``report_to_dict`` would print past the digit limit."""
    found: list = []
    _oracle_character(found, report.input)
    for field, value in (("mu0+", report.mu0_plus), ("mu0-", report.mu0_minus),
                         ("dimension", report.dimension)):
        if value is not None:
            _oracle_numbers(found, field, value)
    if report.natural is not None:
        for name, z in zip(("zeta0", "zeta1"), report.natural):
            _oracle_character(found, z, f"natural_classes.{name}.")
    if report.primary is not None:
        _oracle_edge(found, report.primary, "primary.")
    sec = report.secondary
    if sec is not None:
        if sec.corresponding_slope is not None:
            _oracle_slope(found, sec.corresponding_slope, "secondary.corresponding_slope.")
        if sec.extremal_character is not None:
            _oracle_character(found, sec.extremal_character, "secondary.extremal_character.")
            _oracle_numbers(found, "secondary.extremal_ray_coordinates", *sec.basis_coords)
        if sec.dual_primary is not None:
            _oracle_edge(found, sec.dual_primary, "secondary.serre_dual_pipeline.")
    return found
