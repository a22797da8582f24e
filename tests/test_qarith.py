import math
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planecones import qarith
from planecones.errors import DomainError
from planecones.exceptional import enumerate_slopes
from planecones.qarith import (
    TRIAL_DIVISION_BOUND,
    QuadraticNumber,
    _sign_int_two_radicals,
    integer_form,
    parse_rational,
    ratio_str,
    sqrt_exact,
    sqrt_ratio,
    squarefree_decompose,
)

from conftest import (
    FractionQuadratic,
    PrimorialGcds,
    fraction_qn_str,
    fraction_sqrt,
    fraction_two_radical_sign,
    least_prime_factor,
    trial_division_decompose,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
small_nonneg = st.fractions(min_value=0, max_value=50, max_denominator=40)

# 10007 and 10009 are primes above TRIAL_DIVISION_BOUND, so the square factor
# of HIDDEN_SQUARE is invisible to trial division and stays in the radicand.
HIDDEN_SQUARE = 10007 ** 2 * 10009
radicands = st.sampled_from([2, 3, 5, 8, 12, 181, 221, 4 * 10007, HIDDEN_SQUARE])
# squares, square multiples and the unreduced HIDDEN_SQUARE next to its root
raw_radicands = st.sampled_from([0, 1, 2, 4, 8, 9, 18, 50, 181, 10009, HIDDEN_SQUARE])
hundred_digits = st.integers(min_value=-10 ** 100, max_value=10 ** 100)
wide_rationals = st.one_of(
    rationals,
    st.builds(Fraction, hundred_digits, st.integers(min_value=1, max_value=10 ** 100)),
)


def qn(a, b=0, d=0):
    return QuadraticNumber(Fraction(a), Fraction(b), d)


class TestSqrtExact:
    def test_perfect_square_is_rational(self):
        root = sqrt_exact(49)
        assert root.is_rational and root.rational_value() == 7

    def test_irreducible_radicand(self):
        root = sqrt_exact(5)
        assert (root.a, root.b, root.d) == (0, 1, 5)

    def test_square_denominator_folds_out(self):
        root = sqrt_exact(Fraction(181, 9))
        assert (root.a, root.b, root.d) == (0, Fraction(1, 3), 181)

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            sqrt_exact(-1)


def sqrt_outcome(root, *args):
    """``root(*args)`` as its integer form ``(A, B, d, D)``, or the type of the error it raises."""
    try:
        q = root(*args)
    except (DomainError, ZeroDivisionError) as exc:
        return type(exc)
    return q if type(q) is tuple else integer_form(q)


# numerators and denominators with square factors, shared factors and the
# hidden square factor 10007**2 of HIDDEN_SQUARE, which no trial divisor sees,
# or any integer of up to 40 digits
ratio_parts = st.one_of(
    st.builds(
        lambda k, m, c: k * m * c * c,
        st.integers(min_value=-10 ** 12, max_value=10 ** 12),
        st.sampled_from([1, 2, 3, 12, 10007, 10009, HIDDEN_SQUARE, 10007 * 10009]),
        st.sampled_from([1, 2, 6, 97, 9973, 10007]),
    ),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
)


class TestSqrtRatio:
    """``sqrt_ratio(p, q)`` against the ``Fraction`` square root it replaces."""

    @given(ratio_parts, ratio_parts)
    def test_matches_fraction_root(self, p, q):
        if q == 0:
            with pytest.raises(ZeroDivisionError):
                sqrt_ratio(p, q)
            return
        root = sqrt_outcome(sqrt_ratio, p, q)
        assert root == sqrt_outcome(fraction_sqrt, Fraction(p, q))
        assert root == sqrt_outcome(sqrt_exact, Fraction(p, q))

    @pytest.mark.parametrize("p, q, form", [
        (HIDDEN_SQUARE, 1, (0, 1, HIDDEN_SQUARE, 1)),
        (4 * HIDDEN_SQUARE, 9 * 10009, (2 * 10007, 0, 0, 3)),  # the gcd exposes the square
        (-4, -9, (2, 0, 0, 3)),
        (0, -5, (0, 0, 0, 1)),
        (181, 36, (0, 1, 181, 6)),
    ])
    def test_fixed_cases(self, p, q, form):
        assert sqrt_outcome(sqrt_ratio, p, q) == form == sqrt_outcome(fraction_sqrt, Fraction(p, q))

    def test_zero_denominator_and_negative_ratio_rejected(self):
        with pytest.raises(ZeroDivisionError):
            sqrt_ratio(1, 0)
        with pytest.raises(DomainError):
            sqrt_ratio(-1, 4)
        with pytest.raises(DomainError):
            sqrt_ratio(1, -4)


@pytest.mark.fuzz
class TestSquarefree:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_decomposition_identity(self, n):
        s, d = squarefree_decompose(n)
        assert s * s * d == n

    def test_large_prime_square_collapses(self):
        p = 1_000_003  # prime beyond the trial-division bound
        s, d = squarefree_decompose(p * p)
        assert (s, d) == (p, 1)


class RefusingTable:
    """Stands in for ``qarith._SPF``: a lookup fails the test."""

    def __getitem__(self, n):
        pytest.fail(f"table lookup for {n}")


@pytest.mark.fuzz
class TestBatchGcdFactoring:
    """The gcd-chain ``squarefree_decompose`` against the trial-division oracle."""

    PRIMES_NEAR_BOUND = [9941, 9949, 9967, 9973, 10007, 10009, 10037, 10039]
    # both sides of TRIAL_DIVISION_BOUND, and of the table's 2**8 and 2**16
    PRIMES_ACROSS = [2, 3, 251, 257, 9967, 9973, 10007, 10009, 65521, 65537]

    def test_small_primes_are_the_primes_up_to_the_bound(self):
        primes = qarith._SMALL_PRIMES
        assert len(primes) == 1229 and primes[-1] == 9973
        assert qarith._PRIMORIAL == math.prod(primes)

    @given(st.integers(min_value=0, max_value=10 ** 60))
    def test_matches_trial_division(self, n):
        assert squarefree_decompose(n) == trial_division_decompose(n)

    @given(
        st.lists(st.sampled_from([2, 3, 5, 7, 97, 9967, 9973, 10007, 10009]), max_size=10),
        st.integers(min_value=1, max_value=10 ** 30),
        st.integers(min_value=1, max_value=10 ** 8),
    )
    def test_matches_trial_division_on_smooth_numbers(self, factors, cofactor, root):
        n = math.prod(factors) * cofactor * root * root
        assert squarefree_decompose(n) == trial_division_decompose(n)

    @pytest.mark.parametrize("p", PRIMES_ACROSS)
    def test_prime_powers(self, p):
        # the chain takes one step per multiplicity level, so p**e takes e of them
        for e in range(1, 65):
            for n in (p ** e, 6 * p ** e, 10007 * p ** e):
                assert squarefree_decompose(n) == trial_division_decompose(n), (p, e)

    @given(st.lists(st.tuples(st.sampled_from(PRIMES_ACROSS), st.integers(1, 12)),
                    min_size=1, max_size=6))
    def test_products_of_prime_powers(self, powers):
        n = math.prod(p ** e for p, e in powers)
        assert squarefree_decompose(n) == trial_division_decompose(n)

    @given(st.integers(min_value=1, max_value=1 << 16), st.integers(min_value=1, max_value=1 << 8))
    def test_both_sides_of_the_table_limit(self, base, root):
        # base * root**2 runs from the table's range to 2**32, square factors included
        for n in (base, base * root, base * root * root):
            assert squarefree_decompose(n) == trial_division_decompose(n), n

    def test_interval_radicands(self):
        # the halfwidth of a slope of rank r takes sqrt_ratio(9 r^2 - 4, r^2),
        # which factors (9 r^2 - 4) * r^2; r = 294685 = 5 * 58937 keeps 58937^2
        # in its radicand, since 58937 is past the trial-division bound
        ranks = {s.r for s in enumerate_slopes(0, 1, 10)} | {294685}
        for r in sorted(ranks):
            p, q = 9 * r * r - 4, r * r
            assert sqrt_outcome(sqrt_ratio, p, q) == sqrt_outcome(fraction_sqrt, Fraction(p, q)), r

    @pytest.mark.parametrize("n, expected", [
        (HIDDEN_SQUARE, (1, HIDDEN_SQUARE)),
        (9973 ** 3, (9973, 9973)),
        (2 * 9973, (1, 2 * 9973)),
        (9973 ** 2 * 10007 ** 2, (9973 * 10007, 1)),
        (2 ** 61 * 3 ** 7, (2 ** 30 * 3 ** 3, 6)),
    ])
    def test_fixed_cases(self, n, expected):
        assert squarefree_decompose(n) == expected == trial_division_decompose(n)

    def test_primes_either_side_of_the_bound(self):
        for p in self.PRIMES_NEAR_BOUND:
            for n in (p, p * p, p ** 3, 4 * p, p * 10007, p * 9973):
                assert squarefree_decompose(n) == trial_division_decompose(n), n

    def test_every_integer_across_the_table_edge(self):
        # below 2**16 the least-prime-factor table factors n itself; above it
        # the gcd chain runs from the product of the small primes
        assert qarith._SPF_LIMIT == 1 << 16
        for n in range(1 << 17):
            assert squarefree_decompose(n) == trial_division_decompose(n), n

    def test_least_prime_factor_table(self):
        table = qarith._SPF
        assert len(table) == qarith._SPF_LIMIT
        assert all(table[n] == least_prime_factor(n) for n in range(len(table)))
        assert max(table) == 251  # the largest prime below 2**8

    def test_perfect_squares_exit_at_once(self, monkeypatch):
        # neither the table nor the gcd with the primorial is reached
        monkeypatch.setattr(qarith, "_SPF", RefusingTable())
        monkeypatch.setattr(qarith, "math", PrimorialGcds(refuse=True))
        for root in (2, 97, 9973 * 10007, 3 ** 40, 10 ** 30 + 57):
            assert squarefree_decompose(root * root) == (root, 1)


class TestSign:
    def test_zero(self):
        assert qn(0).sign() == 0

    def test_sqrt5_below_three(self):
        assert qn(-3, 1, 5).sign() == -1

    def test_sqrt181_above_thirteen_is_positive(self):
        assert qn(-13, 1, 181).sign() == 1

    def test_exact_cancellation(self):
        assert qn(-7, 1, 49).sign() == 0


class TestCompare:
    def test_same_shape_different_radicand(self):
        x = qn(Fraction(3, 2), Fraction(-1, 2), 5)
        y = qn(Fraction(3, 2), Fraction(-1, 2), 8)
        assert x.compare(y) > 0

    def test_cross_field(self):
        x = qn(Fraction(-13, 6), Fraction(1, 6), 181)
        y = qn(Fraction(3, 2), Fraction(-1, 2), 5)
        assert x.compare(y) < 0

    def test_equal_rationals(self):
        assert qn(2).compare(qn(2)) == 0

    def test_ordering_dunders(self):
        values = [qn(0, 1, 2), qn(1), qn(0, 1, 3), Fraction(7, 5)]
        ordered = sorted(values[:3] + [QuadraticNumber(values[3])])
        # disjoint enclosures in increasing order certify the order exactly
        enclosures = [v.bounds(20) for v in ordered]
        for (_, hi), (lo, _) in zip(enclosures, enclosures[1:]):
            assert hi < lo


class TestHash:
    """Equal values hash equal, whichever stored form each takes."""

    def test_hidden_square_twins(self):
        hidden, folded = qn(0, 1, HIDDEN_SQUARE), qn(0, 10007, 10009)
        assert (hidden.B, hidden.d) != (folded.B, folded.d)
        assert hidden == folded and hash(hidden) == hash(folded)
        assert len({hidden, folded}) == 1

    @given(rationals, rationals, raw_radicands, st.sampled_from([1, 2, 3, 10007]))
    def test_equal_values_hash_equal(self, a, b, d, s):
        # the square s^2 folded into b by hand, or left in the radicand (where
        # 10007^2 stays hidden from trial division)
        x, y = qn(a, b * s, d), qn(a, b, d * s * s)
        assert x == y and hash(x) == hash(y)
        if x.is_rational:
            value = x.rational_value()
            assert x == value and hash(x) == hash(value)
            if value.denominator == 1:
                assert x == int(value) and hash(x) == hash(int(value))


class TestCrossRadicandSign:
    """Integer signs of ``A + B*sqrt(m) + C*sqrt(n)`` against ``Fraction`` squaring."""

    @given(wide_rationals, wide_rationals, raw_radicands, wide_rationals, raw_radicands)
    def test_integer_sign_matches_fraction_oracle(self, a, b, m, c, n):
        D = a.denominator * b.denominator * c.denominator
        A, B, C = (int(v * D) for v in (a, b, c))
        assert _sign_int_two_radicals(A, B, m, C, n) == fraction_two_radical_sign(a, b, m, c, n)

    @given(wide_rationals, wide_rationals, radicands, wide_rationals, wide_rationals, radicands)
    def test_compare_matches_fraction_oracle(self, a1, b1, d1, a2, b2, d2):
        x, y = qn(a1, b1, d1), qn(a2, b2, d2)
        expected = fraction_two_radical_sign(x.a - y.a, x.b, x.d, -y.b, y.d)
        assert x.compare(y) == expected
        assert y.compare(x) == -expected
        assert x.compare(y.a) == fraction_two_radical_sign(x.a - y.a, x.b, x.d, 0, 0)

    @given(hundred_digits, st.integers(min_value=1, max_value=10 ** 6), raw_radicands,
           st.integers(min_value=-1, max_value=1))
    def test_exact_zeros_between_unreduced_radicands(self, B, k, m, A):
        # B*sqrt(k*k*m) - B*k*sqrt(m) is zero, so only A decides the sign
        assert _sign_int_two_radicals(A, B, k * k * m, -B * k, m) == (A > 0) - (A < 0)
        assert _sign_int_two_radicals(A, -B * k, m, B, k * k * m) == (A > 0) - (A < 0)

    def test_sqrt8_minus_twice_sqrt2(self):
        assert _sign_int_two_radicals(0, 1, 8, -2, 2) == 0
        assert _sign_int_two_radicals(-5, 2, 4, 1, 1) == 0  # square radicands
        assert _sign_int_two_radicals(1, 1, 8, -2, 2) == 1

    def test_compare_across_a_hidden_square(self):
        hidden = QuadraticNumber(0, 1, HIDDEN_SQUARE)
        root = QuadraticNumber(0, 10007, 10009)
        assert (hidden.d, root.d) == (HIDDEN_SQUARE, 10009)
        assert hidden.compare(root) == 0 and hidden == root
        tiny = Fraction(1, 10 ** 100)
        assert hidden.compare(QuadraticNumber(tiny, 10007, 10009)) == -1
        assert QuadraticNumber(tiny, 1, HIDDEN_SQUARE).compare(root) == 1


class TestAgainstFractionOracle:
    """The integer form against ``Fraction`` coefficients of ``a + b*sqrt(d)``.

    The public constructor must store a normalized form, and every query on
    it must give the ``repr``, sign, order, ``bounds`` and ``decimal`` of the
    ``Fraction`` representation it replaced.
    """

    @given(wide_rationals, wide_rationals, wide_rationals, wide_rationals, raw_radicands,
           st.integers(min_value=0, max_value=40))
    def test_operations_match(self, a1, b1, a2, b2, d, k):
        x, y = qn(a1, b1, d), qn(a2, b2, d)
        ox, oy = FractionQuadratic.build(a1, b1, d), FractionQuadratic.build(a2, b2, d)
        assert x.D > 0 and math.gcd(x.A, x.B, x.D) == 1
        assert x.B != 0 or x.d == 0
        assert repr(x) == repr(ox)
        assert x.sign() == ox.sign()
        assert x.compare(y) == (ox - oy).sign()
        assert x.bounds(k) == ox.bounds(k)
        assert x.decimal(k) == ox.decimal(k)


class TestArithmetic:
    def test_negative_radicand_rejected(self):
        with pytest.raises(DomainError):
            QuadraticNumber(0, 1, -5)

    def test_floor(self):
        assert sqrt_exact(2).floor() == 1
        assert qn(0, -1, 2).floor() == -2
        assert qn(3).floor() == 3
        assert qn(Fraction(-13, 6), Fraction(1, 6), 181).floor() == 0
    def test_floor_of_large_coefficient_is_immediate(self):
        b = 10 ** 24 + 1
        start = time.perf_counter()
        n = QuadraticNumber(0, b, 5).floor()
        assert time.perf_counter() - start < 0.05
        assert n == math.isqrt(5 * b * b)
        assert QuadraticNumber(0, -b, 5).floor() == -n - 1

    @given(st.fractions(), st.fractions(), st.one_of(radicands, st.integers(2, 10 ** 12)))
    def test_floor_agrees_with_compare(self, a, b, d):
        x = qn(a, b, d)
        n = x.floor()
        assert x.compare(n) >= 0 and x.compare(n + 1) < 0, x


class TestSerialization:
    @given(rationals, rationals, st.integers(min_value=0, max_value=300))
    def test_round_trip_bit_exact(self, a, b, d):
        x = qn(a, b, d)
        y = QuadraticNumber.parse(str(x))
        assert (x.a, x.b, x.d) == (y.a, y.b, y.d)

    def test_rational_strings(self):
        assert ratio_str(-13, 6) == "-13/6"
        assert ratio_str(7, 1) == "7"
        assert ratio_str(-12, 1) == "-12"
        assert parse_rational("-13/6") == Fraction(-13, 6)
        assert parse_rational("7") == 7

    def test_bad_literals_rejected(self):
        with pytest.raises(DomainError):
            parse_rational("1.5x")
        with pytest.raises(DomainError):
            QuadraticNumber.parse("sqrt(5)")

    @pytest.mark.skipif(not qarith.int_digit_limit(), reason="no int-to-string digit limit")
    def test_exponent_counts_toward_the_digit_limit(self):
        limit = qarith.int_digit_limit()
        # the mantissa's digits plus |exponent| may reach the limit, not pass it
        assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
        assert parse_rational(f"-25E-{limit - 2}") == Fraction(-25, 10 ** (limit - 2))
        assert parse_rational("2.5e-3") == Fraction(1, 400)
        past = [f"1.5e{limit - 1}", f"1e-{limit}", "1e1_000_000", "0e100000000",
                "1e" + "1_" * limit + "1"]
        for text in past:
            start = time.perf_counter()
            with pytest.raises(DomainError, match=f"limit of {limit:,} for reading"):
                parse_rational(text)
            assert time.perf_counter() - start < 0.1, text

    def test_canonical_form_examples(self):
        assert str(sqrt_exact(Fraction(181, 9))) == "(0 + 1/3*sqrt(181))"
        assert str(qn(Fraction(5, 2))) == "(5/2 + 0*sqrt(0))"

    @given(wide_rationals, wide_rationals, raw_radicands)
    def test_str_matches_fraction_coefficients(self, a, b, d):
        x = qn(a, b, d)
        assert str(x) == fraction_qn_str(x)


def test_domain_errors():
    with pytest.raises(DomainError, match="not a rational value"):
        qn(0, 1, 2).rational_value()
    with pytest.raises(DomainError, match="negative radicand"):
        squarefree_decompose(-1)


class TestImmutable:
    def test_assignment_and_deletion_raise(self):
        x = qn(Fraction(1, 3), 2, 5)
        fields = (x.A, x.B, x.d, x.D)
        for name in ("A", "B", "d", "D"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(x, name, 0)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = 0
        assert (x.A, x.B, x.d, x.D) == fields and x == qn(Fraction(1, 3), 2, 5)

    def test_a_cached_halfwidth_cannot_be_changed(self):
        # the halfwidth cache hands one instance per rank to every slope of that rank
        from planecones.exceptional import DyadicRational, from_dyadic

        h = from_dyadic(DyadicRational(1, 2)).interval_halfwidth()
        before = from_dyadic(DyadicRational(-1, 2)).interval()
        digest = hash(h)
        with pytest.raises(AttributeError):
            h.B = 0
        with pytest.raises(AttributeError):
            del h.A
        assert from_dyadic(DyadicRational(-1, 2)).interval_halfwidth() is h
        assert from_dyadic(DyadicRational(-1, 2)).interval() == before
        assert not before[0].is_rational and hash(h) == digest

    @given(rationals, rationals, raw_radicands)
    def test_pickle_round_trip(self, a, b, d):
        x = qn(a, b, d)
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is QuadraticNumber and y is not x
        assert (y.A, y.B, y.d, y.D) == (x.A, x.B, x.d, x.D) and hash(y) == hash(x)


some_integers = st.one_of(st.integers(min_value=-60, max_value=60), hundred_digits)


class TestRatioStr:
    @given(some_integers, some_integers.filter(bool))
    def test_matches_fraction_str(self, n, d):
        assert ratio_str(n, d) == str(Fraction(n, d))

    @pytest.mark.parametrize("n, d", [(0, 7), (0, -7), (6, -4), (-6, -4), (5, -1), (-9, 3),
                                      (10 ** 40, -(10 ** 39))])
    def test_zero_and_negative_denominators(self, n, d):
        assert ratio_str(n, d) == str(Fraction(n, d))

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            ratio_str(1, 0)


class TestReducedRadicand:
    """Every stored radicand is a fixed point of ``squarefree_decompose``.

    Interval ends and other results built by ``_from_form`` reuse a stored
    radicand instead of factoring it again, which is sound only under this
    invariant; these checks pin it and that each value is the same as a
    full public construction.
    """

    @staticmethod
    def assert_canonical(q):
        assert q.d == 0 or squarefree_decompose(q.d) == (1, q.d)
        assert repr(q) == repr(QuadraticNumber(q.a, q.b, q.d))

    def test_hidden_square_is_a_fixed_point(self):
        assert 10007 > TRIAL_DIVISION_BOUND
        assert squarefree_decompose(HIDDEN_SQUARE) == (1, HIDDEN_SQUARE)
        root = sqrt_exact(Fraction(HIDDEN_SQUARE, 9))
        assert (root.b, root.d) == (Fraction(1, 3), HIDDEN_SQUARE)
        self.assert_canonical(root)

    @given(small_nonneg)
    def test_sqrt_exact_results(self, x):
        self.assert_canonical(sqrt_exact(x))

    def test_interval_ends(self):
        # each end reuses the radicand of its rank's cached halfwidth
        for s in enumerate_slopes(0, 1, 8):
            for end in s.interval():
                self.assert_canonical(end)


class TestDigitCount:
    def test_negative_digits_rejected(self):
        for x in (sqrt_exact(2), qn(Fraction(1, 3))):
            with pytest.raises(DomainError):
                x.bounds(-1)
            with pytest.raises(DomainError):
                x.decimal(-3)

    def test_wrong_digits_rejected_with_no_digit_limit(self, monkeypatch):
        # Python before 3.10.7, or after sys.set_int_max_str_digits(0), has no limit
        monkeypatch.setattr(qarith, "int_digit_limit", lambda: 0)
        for x in (sqrt_exact(2), qn(Fraction(1, 3))):
            for digits in (-1, 1.5, True):
                for call in (x.bounds, x.decimal):
                    with pytest.raises(DomainError, match="^digits must be an int >= 0"):
                        call(digits)
            # the bound stays Python's default, so no count builds 10**(10**30)
            for call in (x.bounds, x.decimal):
                assert call(4300) is not None
                for digits in (4301, 10 ** 30):
                    with pytest.raises(DomainError, match="^digits must be at most .* 4,300"):
                        call(digits)

    def test_zero_digits_allowed(self):
        lo, hi = sqrt_exact(2).bounds(0)
        assert lo <= 1 < 2 <= hi
        assert sqrt_exact(2).decimal(0) == "1.0"


def test_decimal_rendering():
    assert sqrt_exact(2).decimal(5) == "1.41421"
    assert qn(0, -1, 2).decimal(4) == "-1.4142"
    assert qn(Fraction(1, 4)).decimal(3) == "0.250"


def test_transitivity_spot_check():
    values = [
        qn(Fraction(3, 2), Fraction(-1, 2), 5),
        qn(Fraction(-13, 6), Fraction(1, 6), 181),
        sqrt_exact(Fraction(1, 7)),
        qn(Fraction(2, 5)),
        qn(Fraction(3, 2), Fraction(-1, 2), 8),
    ]
    ordered = sorted(values)
    for i in range(len(ordered) - 1):
        assert ordered[i].compare(ordered[i + 1]) <= 0
    for i in range(len(ordered) - 2):
        if ordered[i].compare(ordered[i + 1]) < 0 and ordered[i + 1].compare(ordered[i + 2]) < 0:
            assert ordered[i].compare(ordered[i + 2]) < 0
