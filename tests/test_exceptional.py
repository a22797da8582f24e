import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planecones import cfrac, exceptional
from planecones.chern import ChernCharacter
from planecones.errors import ConsistencyError, DescentError, DomainError
from planecones.exceptional import (
    DyadicRational,
    affine_image,
    arc_value,
    delta_curve,
    dot,
    enumerate_slopes,
    epsilon,
    find_interval,
    from_dyadic,
    from_integer,
    from_slope_value,
    interval_contains,
    parents,
    slope_and_parents,
)
from planecones.qarith import (
    QuadraticNumber, _sign_int_radical, integer_form, sqrt_exact,
)

from conftest import (
    ORDER_FOUR,
    capped,
    descent_from_slope_value,
    descent_slopes,
    enclosure_radical_sign,
    fraction_arc_value,
    fraction_character,
    fraction_walk,
    moved,
    negated,
    quadratic_interval,
    reference_enumerate_slopes,
    reference_find_interval,
    slope_dot,
    stepwise_walk,
)

F = Fraction


def dy(p, q):
    return DyadicRational.make(p, q)


class TestDyadic:
    def test_reduction(self):
        d = dy(6, 3)
        assert (d.p, d.q) == (3, 2)
        assert d.value == F(3, 4)
        assert d.order == 2

    def test_make_refuses_a_negative_exponent(self):
        with pytest.raises(DomainError, match="negative dyadic exponent"):
            DyadicRational.make(1, -1)

    def test_make_matches_halving_loop(self):
        def halving(p, q):
            while q > 0 and p % 2 == 0:
                p //= 2
                q -= 1
            return p, q

        for p in range(-64, 65):
            for q in range(0, 13):
                d = dy(p, q)
                assert (d.p, d.q) == halving(p, q)

    def test_unreduced_rejected(self):
        with pytest.raises(DomainError):
            DyadicRational(4, 1)

    def test_non_dyadic_rejected(self):
        with pytest.raises(DomainError):
            DyadicRational.from_fraction(F(1, 3))

    def test_str(self):
        assert str(dy(-3, 0)) == "-3"
        assert str(dy(7, 6)) == "7/2^6"


class TestDot:
    def test_integers_midpoint(self):
        assert slope_dot(0, 1) == F(1, 2)

    def test_mediant_toward_lower_rank(self):
        assert slope_dot(0, F(1, 2)) == F(2, 5)

    def test_symmetric_integers(self):
        assert slope_dot(-1, 1) == 0

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            slope_dot(0, 3)

    def test_slope_objects(self):
        half = from_dyadic(dy(1, 1))
        result = dot(from_integer(0), half)
        assert result.slope == F(2, 5)
        assert result.dyadic == dy(1, 2)

    def test_neighbours_of_different_order(self):
        # 0 (address 0) and 2/5 (address 1/2^2) are neighbours one level apart
        value = slope_dot(0, F(2, 5))
        resolved = dot(from_integer(0), from_slope_value(F(2, 5)))
        assert resolved.slope == value == F(5, 13)
        assert resolved.dyadic == dy(1, 3)

    def test_non_neighbours_rejected(self):
        # 0 and the slope at 3/2^3 are not neighbours, nor is a reversed pair
        with pytest.raises(DomainError):
            dot(from_integer(0), from_dyadic(dy(3, 3)))
        with pytest.raises(DomainError):
            dot(from_dyadic(dy(1, 1)), from_integer(0))


class TestEpsilon:
    TABLE = {
        (0, 0): F(0),
        (1, 4): F(13, 34),
        (1, 3): F(5, 13),
        (3, 4): F(75, 194),
        (1, 2): F(2, 5),
        (5, 4): F(179, 433),
        (3, 3): F(12, 29),
        (7, 4): F(70, 169),
        (1, 1): F(1, 2),
    }

    def test_published_table(self):
        for (p, q), expected in self.TABLE.items():
            assert epsilon(dy(p, q)) == expected

    def test_cold_walk_order_two_thousand(self):
        g = from_dyadic(DyadicRational(1, 2000))
        left, right = parents(g)
        assert (left.dyadic, right.dyadic) == (dy(0, 0), dy(1, 1999))
        assert left.slope == 0 and right.slope == epsilon(dy(1, 1999))
        assert slope_dot(left.slope, right.slope) == g.slope


class TestRankBound:
    """A walk refuses exactly the ranks of more digits than its cap, the digit limit's."""

    @pytest.mark.parametrize("p, q", [(1, 6), (5, 8), (171, 10), (-3, 9)])
    def test_bound_is_the_rank_digit_count(self, p, q):
        d = dy(p, q)
        g = from_dyadic(d)
        digits = len(str(g.r))
        with capped(digits):
            assert from_dyadic(d) == g
        with capped(digits - 1), pytest.raises(DomainError,
                                               match=f"limit of {digits - 1:,} digits"):
            from_dyadic(d)

    def test_walk_stops_at_the_first_rank_past_the_bound(self):
        # along the alternating word to 341/2^10 the ranks have 21, 35 and 56
        # digits at orders 8, 9 and 10
        d = dy(341, 10)
        for bound, order in ((20, 8), (34, 9), (35, 10)):
            with capped(bound), pytest.raises(DomainError, match=f"at order {order} of 10"):
                from_dyadic(d)
        # with none patched in, the cap is Python's digit limit, or 4,300
        # digits where there is none: next to 0 the ranks pass 4,300 digits
        # at order 10289 and 5,000 at order 11963, so a limit of 5,000 lets
        # the walk to 1/2^11000 end
        if not hasattr(sys, "set_int_max_str_digits"):
            return
        default = sys.get_int_max_str_digits()
        for limit, q, order in ((0, 11000, 10289), (5000, 11000, None), (5000, 13000, 11963)):
            sys.set_int_max_str_digits(limit)
            try:
                if order is None:
                    assert len(str(from_dyadic(dy(1, q)).r)) > 4300
                else:
                    with pytest.raises(DomainError, match=f"at order {order} of {q}, past the "
                                                          f"limit of {limit or 4300:,} digits"):
                        from_dyadic(dy(1, q))
            finally:
                sys.set_int_max_str_digits(default)

    def test_integers_never_refuse(self):
        with capped(1):
            assert from_dyadic(dy(7, 0)).r == 1

    @pytest.mark.parametrize("sign", [-1, 1], ids=["negative", "positive"])
    def test_a_long_run_refuses_in_bounded_time(self, sign):
        """``(1 - 2^q)/2^q`` and its mirror ``(2^q - 1)/2^q``, ``q = 10^8``: a run next to an
        integer, whose negative numerator is negated once, not copied at every level."""
        q = 10 ** 8
        d = dy(sign * ((1 << q) - 1), q)
        start = time.perf_counter()
        with capped(4300), pytest.raises(DomainError, match=f"at order 10289 of {q:d}, past"):
            from_dyadic(d)
        assert time.perf_counter() - start < 1


class TestMutationWalk:
    """Each child of the walk is a mutation of its parents; a corrupted child is refused."""

    def test_children_are_mutations_order_ten(self):
        # the child of (left, g) is 3 r(left) g - right; of (g, right), 3 r(right) g - left
        slopes = enumerate_slopes(-2, 2, 10)
        assert len(slopes) == 4097
        for g in slopes:
            left, right = parents(g)
            v = g.character()
            assert dot(left, g).character() == v.scale(3 * left.r) - right.character()
            assert dot(g, right).character() == v.scale(3 * right.r) - left.character()

    def test_corrupted_child_is_inconsistent(self, monkeypatch):
        walked = from_dyadic
        for dr, dc in ((1, 0), (0, 1)):
            # built past the constructor, which refuses the non-integral chi
            def corrupted(d, dr=dr, dc=dc):
                child = walked(d)
                return exceptional.ExceptionalSlope._trusted(child.r + dr, child.c1 + dc,
                                                             child.dyadic)

            monkeypatch.setattr(exceptional, "from_dyadic", corrupted)
            with pytest.raises(ConsistencyError):
                dot(from_integer(0), from_dyadic(dy(1, 1)))
        monkeypatch.undo()
        assert dot(from_integer(0), from_dyadic(dy(1, 1))).slope == F(2, 5)


def walked(d):
    """The bundles ``(r, c1)`` of the walk's left parent, slope and right parent."""
    return list(exceptional._walk(d))


def stepped(d):
    return [(s.r, s.c1) for s in stepwise_walk(d)[0]]


def jumped_orders(d):
    """The levels a walk to ``d`` jumps: ``k`` is one when bits ``q - k + 1`` and ``q - k`` agree."""
    p, q = d.p, d.q
    return {k for k in range(2, q) if (p >> (q - k + 1)) & 1 == (p >> (q - k)) & 1}


def first_refusal(walk, d):
    """The ``DomainError`` text of ``walk(d)``; ``None`` if it ends."""
    try:
        walk(d)
    except DomainError as error:
        return str(error)
    return None


class TestRunJumps:
    """The walk that jumps each run of equal address bits against its oracles."""

    def test_every_address_of_order_twelve(self):
        """Every address in [-3, 3] of order <= 12, one walk against both oracles.

        The jumping walk against the stepwise one, with the parents'
        addresses, and each slope's ``chi`` (Riemann-Roch on ``(r, c1)``)
        against the one the stepwise mutation carries; the slopes and
        characters against the ``Fraction`` walk by ``slope_dot``; and each
        slope looked up by value, within order 12 and refused one order short.
        """
        for n in range(-3, 4):
            assert from_integer(n).character() == fraction_character(F(n))
            assert from_slope_value(n, 12) == from_integer(n)
        memo, count = {}, 0
        for q in range(1, 13):
            for p in range(1 - (3 << q), 3 << q, 2):
                d = dy(p, q)
                assert walked(d) == stepped(d), (p, q)
                slopes = slope_and_parents(d)
                oracle, chis = stepwise_walk(d)
                assert slopes == oracle, (p, q)
                assert from_dyadic(d).chi == chis[1], (p, q)
                assert (slopes[0].chi, slopes[2].chi) == (chis[0], chis[2]), (p, q)
                expected = fraction_walk(p, q, memo)
                assert tuple(s.slope for s in slopes) == expected, (p, q)
                assert [s.character() for s in slopes] == list(map(fraction_character, expected))
                g = slopes[1]
                found = from_slope_value(g.slope, 12)
                assert found == g and type(found.chi) is int, (p, q)
                with pytest.raises(DomainError, match="not an exceptional slope of order <= "):
                    from_slope_value(g.slope, q - 1)
                count += 1
        assert count == 24_570

    @pytest.mark.parametrize("q", [1, 2, 3, 7, 64, 513, 4096])
    def test_next_to_an_integer(self, q):
        # n + 2^-q and n - 2^-q: one run of q - 1 equal bits; a cap of 10^30
        # digits, which no rank reaches, changes nothing and builds no 10^(10^30)
        for n in (-3, 0, 2):
            for d in (dy((n << q) + 1, q), dy((n << q) - 1, q)):
                expected = walked(d)
                with capped(10 ** 30):
                    assert expected == stepped(d) == walked(d)

    @pytest.mark.parametrize("a, q", [
        (1, 3), (1, 4096), (2, 700), (5, 6), (5, 2000), (64, 66), (64, 200),
    ])
    def test_two_runs(self, a, q):
        # n + 2^-a + 2^-q: runs of a - 1 and q - a - 1 equal bits; some walk
        # to ranks past the digit limit, so the cap is one no rank reaches
        for n in (-1, 1):
            d = dy((n << q) + (1 << (q - a)) + 1, q)
            with capped(10 ** 30):
                assert walked(d) == stepped(d)

    @pytest.mark.parametrize("a, b, c", [
        (1, 1, 1), (3, 2, 5), (0, 9, 4), (6, 1, 0), (1, 4094, 1), (4000, 3, 2), (40, 60, 2),
    ])
    def test_words_of_three_runs(self, a, b, c):
        d = cfrac.word_to_dyadic("L" * a + "R" * b + "L" * c)
        with capped(10 ** 30):  # L^4000 R^3 L^2 walks past the digit limit
            assert walked(d) == stepped(d)

    @pytest.mark.parametrize("d", [dy(1, 2000), dy(-1, 2000), dy((1 << 30) + 1, 70)], ids=str)
    def test_refusal_inside_a_jumped_run(self, d):
        # each bound whose first rank past it lies in a jumped run: the walk
        # steps that run level by level and refuses at the oracle's order
        jumped, checked = jumped_orders(d), 0
        for bound in range(1, len(str(stepwise_walk(d)[0][1].r))):
            expected = first_refusal(lambda d: stepwise_walk(d, bound), d)
            if int(expected.split("at order ")[1].split()[0]) in jumped:
                with capped(bound):
                    assert first_refusal(exceptional._walk, d) == expected
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("k", [8, 9])
    @pytest.mark.parametrize("letter", "LR")
    def test_long_run_after_a_large_rank_refuses_at_once(self, k, letter):
        # (LR)^8 and (LR)^9 leave ends of hundreds to thousands of digits,
        # so each level of the run after them adds as many: a jump of the
        # whole run would build a rank of about 10^8 digits
        d = cfrac.word_to_dyadic("LR" * k + letter * 100_000)
        start = time.perf_counter()
        with capped(4300):
            refusal = first_refusal(exceptional._walk, d)
        elapsed = time.perf_counter() - start
        assert refusal == first_refusal(lambda d: stepwise_walk(d, 4300), d) is not None
        assert elapsed < 0.5


class TestParents:
    def test_mediant_example(self):
        left, right = parents(from_slope_value(F(2, 5)))
        assert (left.slope, right.slope) == (0, F(1, 2))

    def test_integer_convention(self):
        left, right = parents(from_integer(0))
        assert (left.slope, right.slope) == (-1, 1)
        assert dot(left, right).slope == 0

    def test_translated_example(self):
        g = from_slope_value(F(22, 5))
        left, right = parents(g)
        assert (left.slope, right.slope) == (4, F(9, 2))
        assert dot(left, right).slope == F(22, 5)

    def test_dot_parents_identity_order_eight(self):
        for q in range(1, 9):
            for p in range(1, 1 << q, 2):
                g = from_dyadic(dy(p, q))
                assert dot(*parents(g)).slope == g.slope


class TestIntervals:
    def test_halfwidth_integers(self):
        x0 = from_integer(0).interval_halfwidth()
        assert x0.compare(QuadraticNumber(F(3, 2), F(-1, 2), 5)) == 0

    def test_halfwidth_half(self):
        xh = from_dyadic(dy(1, 1)).interval_halfwidth()
        assert xh.compare(QuadraticNumber(F(3, 2), F(-1, 2), 8)) == 0

    def test_halfwidth_two_fifths(self):
        x = from_slope_value(F(2, 5)).interval_halfwidth()
        assert x.compare(QuadraticNumber(F(3, 2), F(-1, 10), 221)) == 0
        assert 5 + 8 * from_slope_value(F(2, 5)).discriminant == F(221, 25)

    @pytest.mark.xfail(strict=True, reason="sqrt_ratio factors p*q, so the square of a prime "
                       "above the trial-division bound in the rank stays in the radicand")
    def test_halfwidth_radicand_is_reduced(self):
        # at 9/2^6 the rank is r = 294685 = 5 * 58937, and the halfwidth's
        # root sqrt(9 r^2 - 4)/r has the squarefree radicand 9 r^2 - 4; today
        # the form keeps 58937^2 * 781553243021
        s = from_dyadic(dy(9, 6))
        assert s.r == 294685 and 9 * s.r * s.r - 4 == 781553243021
        assert integer_form(s.interval_halfwidth())[2] == 781553243021

    def test_contains_center(self):
        two = from_integer(2)
        assert interval_contains(two, QuadraticNumber(2), closed=False)
        assert interval_contains(two, QuadraticNumber(2), closed=True)

    def test_contains_golden_intersection(self):
        mu0 = QuadraticNumber(F(-13, 6), F(1, 6), 181)
        assert interval_contains(from_integer(0), mu0, closed=False)

    def test_endpoint_only_in_closure(self):
        zero = from_integer(0)
        endpoint = QuadraticNumber(F(3, 2), F(-1, 2), 5)
        assert not interval_contains(zero, endpoint, closed=False)
        assert interval_contains(zero, endpoint, closed=True)

    def test_endpoints_match_quadratic_arithmetic_order_ten(self):
        for s in enumerate_slopes(-2, 2, 10):
            ends = s.interval()
            assert [str(e) for e in ends] == [str(e) for e in quadratic_interval(s)], s
            assert [e.floor() for e in ends] == [e.floor() for e in quadratic_interval(s)], s

    def test_disjoint_up_to_order_six(self):
        slopes = enumerate_slopes(0, 1, 6)
        for a, b in zip(slopes, slopes[1:]):
            a_left, a_right = a.interval()
            b_left, b_right = b.interval()
            assert a_right.compare(b_left) <= 0


def mu0_pair(x) -> list[QuadraticNumber]:
    """``mu0+`` and ``mu0-`` of ``x``, the roots ``(-3 - 2 mu -+ sqrt(5 + 8 delta)) / 2``."""
    base, root = -3 - 2 * x.slope(), sqrt_exact(5 + 8 * x.discriminant())
    return [QuadraticNumber((base + sign * root.a) / 2, sign * root.b / 2, root.d)
            for sign in (1, -1)]


def endpoint_contains(a, x, closed):
    """Membership by comparison with both exact endpoints (the reference)."""
    left, right = a.interval()
    cl, cr = -left.compare(x), -right.compare(x)
    if closed:
        return cl >= 0 and cr <= 0
    return cl > 0 and cr < 0


class TestRationalMembership:
    """Membership without endpoints agrees with the endpoint comparison."""

    @pytest.fixture(scope="class")
    def slopes(self):
        return enumerate_slopes(-2, 2, 8)

    @staticmethod
    def probes(a, rng):
        big = 10 ** 30
        points = [a.slope]
        points += [
            a.slope + F(rng.randrange(-2000, 2001), rng.randrange(1, 500))
            / rng.choice((1, 10, 1000))
            for _ in range(3)
        ]
        for end in a.interval():
            lo, hi = end.bounds(25)
            points += [lo - F(1, big), hi + F(1, big), *end.bounds(2), *end.bounds(12)]
        return points

    def test_agrees_with_endpoints_order_eight(self, slopes):
        assert len(slopes) == 4 * 2 ** 8 + 1
        rng = random.Random(20140106)
        outcomes = set()
        for a in slopes:
            for x in self.probes(a, rng):
                for closed in (True, False):
                    expected = endpoint_contains(a, QuadraticNumber(x), closed)
                    assert interval_contains(a, x, closed) is expected, (a.slope, x, closed)
                    assert interval_contains(a, QuadraticNumber(x), closed) is expected
                    outcomes.add(expected)
        assert outcomes == {True, False}

    def test_quadratic_agrees_with_endpoints(self, grid):
        # mu0+- of the grid, every exact endpoint, and same-field points
        # 10^-25 to either side of it, against every slope within distance 1
        slopes = enumerate_slopes(-4, 2, 3)
        points = []
        for x in grid[::8]:
            points += mu0_pair(x)
        eps = F(1, 10 ** 25)
        for a in slopes:
            for end in a.interval():
                points += [end, moved(end, -eps), moved(end, eps)]
        outcomes = []
        for x in points:
            for a in slopes:
                if x.compare(a.slope - 1) < 0 or x.compare(a.slope + 1) > 0:
                    continue
                for closed in (True, False):
                    expected = endpoint_contains(a, x, closed)
                    assert interval_contains(a, x, closed) is expected, (a.slope, x, closed)
                    outcomes.append(expected)
        assert (len(outcomes), outcomes.count(True)) == (12_882, 576)

    def test_integer_input(self):
        for n in range(-3, 4):
            for closed in (True, False):
                assert interval_contains(from_integer(n), n, closed)
                assert not interval_contains(from_integer(n), n + 1, closed)

    def test_non_number_rejected(self):
        with pytest.raises(DomainError, match="^x must be an int or a Fraction, got 0.25$"):
            interval_contains(from_integer(0), 0.25, closed=True)


class TestRadicalSign:
    """The integer sign of ``A + B sqrt(d)`` agrees with an enclosure oracle."""

    @staticmethod
    def cleared(x, end):
        """Integers ``A, B, d`` with ``x - end`` a positive multiple of ``A + B sqrt(d)``."""
        a, b = x - end.a, -end.b
        return a.numerator * b.denominator, b.numerator * a.denominator, end.d

    def test_probes_around_endpoints_order_six(self):
        # the probes 10^-30 outside an endpoint's enclosure take the oracle
        # to 128 bits of sqrt(d), and most points 10^-50 outside one to 256
        rng = random.Random(20140106)
        cases = []
        for a in enumerate_slopes(-1, 1, 6):
            for x in TestRationalMembership.probes(a, rng):
                for end in a.interval():
                    cases.append(self.cleared(x, end))
            for end in a.interval():
                lo, hi = end.bounds(45)
                for x in (lo - F(1, 10 ** 50), hi + F(1, 10 ** 50)):
                    cases.append(self.cleared(x, end))
        assert len(cases) == 129 * (2 * 16 + 2 * 2)
        expected = [enclosure_radical_sign(*case) for case in cases]
        assert [_sign_int_radical(*case) for case in cases] == expected
        assert 0 < expected.count(1) < len(cases)

    def test_exact_zeros(self):
        # A + B sqrt(k^2) = 0 needs the exact test; so do its neighbours A +- 1
        rng = random.Random(1997)
        for _ in range(500):
            k, B = rng.randrange(1, 10 ** 20), rng.randrange(1, 10 ** 20)
            for sign in (1, -1):
                A = -sign * B * k
                assert _sign_int_radical(A, sign * B, k * k) == 0
                for off in (-1, 1):
                    assert _sign_int_radical(A + off, sign * B, k * k) == enclosure_radical_sign(
                        A + off, sign * B, k * k
                    )

    def test_sign_of_quadratic_numbers(self):
        for end in from_dyadic(dy(17, 4)).interval():
            for shift in (0, F(1, 10 ** 40), -F(1, 10 ** 40)):
                x = moved(end, shift)
                assert x.sign() == enclosure_radical_sign(*self.cleared(F(0), negated(x)))


class TestAffineImage:
    """Negation and integer translation read off the address, against descent."""

    def test_matches_descent(self):
        descended = {}  # the images overlap: descend once per distinct value
        checked = 0
        for g in enumerate_slopes(-4, 4, 8):
            for negate in (False, True):
                for shift in range(-3, 4):
                    value = shift + (-g.slope if negate else g.slope)
                    if value not in descended:
                        descended[value] = from_slope_value(value)
                    assert affine_image(g, negate, shift) == descended[value]
                    checked += 1
        assert checked == 2049 * 14 and len(descended) == 14 * 256 + 1

    def test_closed_form_matches_dual_and_twist(self):
        checked = 0
        for g in enumerate_slopes(-3, 3, 8):
            d = g.dyadic
            for negate in (False, True):
                x = g.character().dual() if negate else g.character()
                p = -d.p if negate else d.p
                for shift in range(-4, 5):
                    image = affine_image(g, negate, shift)
                    assert image.character() == x.twist(shift)
                    assert image.dyadic == DyadicRational(p + shift * 2 ** d.q, d.q)
                    assert image.slope == shift + (-g.slope if negate else g.slope)
                    checked += 1
        assert checked == (6 * 256 + 1) * 18


class TestDescentParents:
    """The parents a descent hands back (``_bracket``) against a walk to gamma's address."""

    def test_matches_parents_order_ten(self):
        checked = 0
        for g in enumerate_slopes(-2, 2, 10):
            expected = parents(g)
            for x in (g.slope, *g.interval()):
                left, gamma, right = descent_slopes(x)
                assert gamma == g and (left, right) == expected, (g, x)
                checked += 1
        assert checked == (4 * 1024 + 1) * 3


class TestFindInterval:
    def test_rational_center(self):
        assert find_interval(F(2)).slope == 2

    def test_golden_intersection(self):
        mu0 = QuadraticNumber(F(-13, 6), F(1, 6), 181)
        assert find_interval(mu0).slope == 0

    def test_dual_intersection(self):
        mu0 = QuadraticNumber(F(13, 6), F(1, 6), 181)
        assert find_interval(mu0).slope == F(22, 5)

    def test_negative_branch_descends_to_mirror(self):
        mu0_minus = QuadraticNumber(F(-13, 6), F(-1, 6), 181)
        assert find_interval(mu0_minus).slope == F(-22, 5)

    def test_fixed_points_order_eight(self):
        for q in range(0, 9):
            for p in range(0, (1 << q) + 1):
                g = from_dyadic(dy(p, q)) if q else from_integer(p)
                assert find_interval(g.slope).slope == g.slope

    def test_endpoint_ties_resolve_to_owner(self):
        for slope in (F(0), F(1, 2), F(2, 5)):
            g = from_slope_value(slope)
            left, right = g.interval()
            assert find_interval(left).slope == slope
            assert find_interval(right).slope == slope

    def test_budget_exceeded_raises(self):
        deep = epsilon(dy(1, 9))
        with pytest.raises(DescentError):
            find_interval(deep, max_order=5)


def descent_outcome(descend, x, max_order=exceptional.DEFAULT_MAX_ORDER):
    try:
        return descend(x, max_order)
    except DescentError:
        return DescentError


class TestDescentAgainstReference:
    """The descent on the integer form of ``x`` against the per-probe reference.

    The reference builds each probe by ``from_dyadic`` and chooses a side by
    comparing ``QuadraticNumber``s; both must reach the same slope or both
    exhaust the budget.
    """

    @staticmethod
    def assert_same(points, max_order=exceptional.DEFAULT_MAX_ORDER):
        for x in points:
            expected = descent_outcome(reference_find_interval, x, max_order)
            assert descent_outcome(find_interval, x, max_order) == expected, x

    def test_mu0_of_the_grid(self, grid):
        points = []
        for x in grid:
            points += mu0_pair(x)
        assert len(points) == 2 * len(grid)
        self.assert_same(points)

    def test_mu0_of_order_four(self):
        mu0_plus, mu0_minus = mu0_pair(ORDER_FOUR)
        assert find_interval(mu0_plus).order == 4
        self.assert_same([mu0_plus, mu0_minus])
        self.assert_same([mu0_plus], max_order=3)

    def test_rationals_of_order_eight(self):
        slopes = [s.slope for s in enumerate_slopes(-1, 1, 8)]
        gaps = [(a + b) / 2 for a, b in zip(slopes, slopes[1:])]
        farey = {F(p, q) for q in range(1, 25) for p in range(-q, q + 1)}
        self.assert_same(slopes + gaps + sorted(farey), max_order=8)


class TestDeltaCurve:
    def test_at_zero(self):
        assert delta_curve(F(0)) == 1

    def test_at_half(self):
        assert delta_curve(F(1, 2)) == F(5, 8)

    def test_translation_invariance(self):
        for mu in (F(1, 8), F(2, 5), F(3, 7)):
            assert delta_curve(mu + 1) == delta_curve(mu)
            assert delta_curve(-mu) == delta_curve(mu)

    def test_arc_of_enclosing_slope(self):
        rng = random.Random(2014)
        checked = 0
        for a in enumerate_slopes(0, 1, 6):
            for x in TestRationalMembership.probes(a, rng):
                if interval_contains(a, x, closed=True):
                    assert arc_value(a, x) == delta_curve(x)
                    assert find_interval(x) == a
                    checked += 1
        assert checked > 65 * 4

    def test_halfwidth_cache_is_bounded(self):
        halfwidth = exceptional._interval_halfwidth
        info = halfwidth.cache_info()
        assert info.maxsize is not None
        halfwidth.cache_clear()
        for rank in range(1, info.maxsize + 100):
            halfwidth(rank)
        assert halfwidth.cache_info().currsize <= info.maxsize
        assert from_dyadic(dy(1, 1)).interval_halfwidth() == QuadraticNumber(F(3, 2), F(-1, 2), 8)

    def test_cache_is_bounded(self):
        info = delta_curve.cache_info()
        assert info.maxsize is not None
        delta_curve.cache_clear()
        for n in range(info.maxsize + 100):
            delta_curve(F(n, 2))
        assert delta_curve.cache_info().currsize <= info.maxsize
        assert delta_curve(F(1, 2)) == F(5, 8)


class TestEnumerate:
    def test_integers_only(self):
        assert [s.slope for s in enumerate_slopes(0, 1, 0)] == [0, 1]

    def test_order_two(self):
        assert [s.slope for s in enumerate_slopes(0, F(1, 2), 2)] == [
            0,
            F(2, 5),
            F(1, 2),
        ]

    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            enumerate_slopes(1, 0, 3)

    @pytest.mark.parametrize("lo, hi, max_order", [
        (0, 1, 63), (0, 1, 10 ** 30), (-10 ** 30, 10 ** 30, 0), (0, 2, 62),
    ], ids=str)
    def test_more_addresses_than_a_list_holds_are_refused(self, lo, hi, max_order):
        with pytest.raises(DomainError, match="^the slope range holds more addresses than a list"):
            enumerate_slopes(lo, hi, max_order)

    @pytest.mark.parametrize("lo, hi, max_order", [
        (-3, 3, 8), (F(1, 3), F(5, 7), 10), (0, F(1, 2), 8), (0, 1, 0), (F(-5, 2), F(-7, 3), 6),
        (0, 1, -1),
    ], ids=str)
    def test_address_order_is_slope_order(self, lo, hi, max_order):
        """The ordered walk equals every order's addresses walked, filtered and sorted."""
        assert enumerate_slopes(lo, hi, max_order) == reference_enumerate_slopes(lo, hi, max_order)


class TestCharacter:
    def test_structure_sheaf(self):
        assert from_integer(0).character() == ChernCharacter(1, 0, 0)

    def test_half_is_twisted_tangent(self):
        g = from_dyadic(dy(1, 1))
        assert g.character() == ChernCharacter(2, 1, Fraction(-1, 2))
        assert g.discriminant == F(3, 8)
        assert g.character().discriminant() == F(3, 8)

    def test_two_fifths(self):
        g = from_slope_value(F(2, 5))
        assert g.character() == ChernCharacter(5, 2, -2)
        assert g.discriminant == F(12, 25)

    def test_rank_and_c1_coprime_order_six(self):
        import math

        for s in enumerate_slopes(-1, 1, 6):
            c1 = s.slope * s.rank
            assert c1.denominator == 1
            assert math.gcd(int(c1), s.rank) == 1


def test_from_slope_value_rejects_non_exceptional():
    with pytest.raises(DomainError):
        from_slope_value(F(1, 3))


# every rational a/b with b < 120 and |a/b| <= 3
SMALL_RATIONALS = sorted({F(a, b) for b in range(1, 120) for a in range(-3 * b, 3 * b + 1)})
# The rationals among them whose descent at budget 3 reached no enclosing
# interval and raised DescentError: the lookup refuses them with the text of
# every other refusal.  The slopes over 34 and 89 have order 4 and 5.
PAST_BUDGET_THREE = {sign * F(x) for sign in (1, -1) for x in (
    "13/34", "21/34", "47/34", "55/34", "81/34", "89/34",
    "34/89", "55/89", "123/89", "144/89", "212/89", "233/89",
    "44/115", "71/115", "159/115", "186/115", "274/115", "301/115",
)}


def lookup_outcome(lookup, mu, max_order):
    try:
        s = lookup(mu, max_order)
    except (DomainError, DescentError) as exc:
        return type(exc), str(exc)
    return s.r, s.c1, s.chi, s.dyadic


class TestExactLookup:
    """``from_slope_value`` by comparison with mediants, against the descent it replaced."""

    @pytest.mark.parametrize("max_order", [3, 8, 64])
    def test_small_rationals_against_the_descent(self, max_order):
        changed = set()
        for mu in SMALL_RATIONALS:
            got = lookup_outcome(from_slope_value, mu, max_order)
            expected = lookup_outcome(descent_from_slope_value, mu, max_order)
            if got != expected:
                assert expected[0] is DescentError, mu
                assert got == (DomainError,
                               f"{mu} is not an exceptional slope of order <= {max_order}")
                changed.add(mu)
        assert changed == (PAST_BUDGET_THREE if max_order == 3 else set())

    def test_refusal_keeps_its_text(self):
        for mu, max_order in ((F(1, 3), 64), (F(13, 34), 3), (F(7, 2), 0)):
            with pytest.raises(DomainError) as info:
                from_slope_value(mu, max_order)
            assert str(info.value) == f"{mu} is not an exceptional slope of order <= {max_order}"
        assert from_slope_value(3, 0) == from_integer(3)

    def test_a_denominator_past_the_cap_is_refused_before_the_walk(self):
        """An exceptional slope's rank is its denominator, which no walk takes past the cap."""
        refused = "^5/13 has a denominator, an exceptional slope's rank, past the limit of 1 "
        with capped(2):
            assert from_slope_value(F(5, 13)).r == 13
        with capped(1), pytest.raises(DomainError, match=refused):
            from_slope_value(F(5, 13))


HUGE = 10 ** 5000 + 1  # past Python's default digit limit


@pytest.mark.parametrize("call", [
    lambda: DyadicRational.from_fraction(F(1, HUGE)),
    lambda: from_dyadic(DyadicRational(1, HUGE)),
    lambda: epsilon(DyadicRational(1, HUGE)),
    lambda: from_slope_value(F(1, HUGE), 10 ** 30),
    lambda: from_slope_value(F(1, 3), HUGE),
    lambda: cfrac.even_expansion(F(1, HUGE)),
    lambda: cfrac.odd_expansion(F(1, HUGE)),
    lambda: dot(from_integer(HUGE), from_integer(0)),
], ids=["from_fraction", "from_dyadic", "epsilon", "from_slope_value", "max_order",
        "even_expansion", "odd_expansion", "dot"])
def test_a_refusal_writes_no_number_past_the_limit(call):
    """Each refusal is a ``DomainError``, not the ``ValueError`` of writing a huge int, and
    comes at once: a denominator past the cap is refused before any lookup."""
    start = time.perf_counter()
    with pytest.raises(DomainError):
        call()
    assert time.perf_counter() - start < 1


# Each public function that takes an order budget, on an input that needs no
# descent past its first probe or no walk at all.
BUDGETED = {
    "find_interval": lambda m: find_interval(F(1, 3), m),
    "boundary_at": lambda m: exceptional.boundary_at(F(1, 3), m),
    "delta_curve": lambda m: delta_curve(F(1, 3), m),
    "from_slope_value": lambda m: from_slope_value(F(2, 5), m),
    "from_slope_value_integer": lambda m: from_slope_value(3, m),
    "enumerate_slopes": lambda m: enumerate_slopes(0, 1, m),
}


@pytest.mark.parametrize("budget", [1.5, "3", None, True, F(3), -1], ids=repr)
@pytest.mark.parametrize("name", BUDGETED)
def test_max_order_must_be_a_non_negative_int(name, budget):
    """Refused with ``classify``'s error before any lookup; an ``int`` of at least 0 passes.

    No address has a negative order, so ``enumerate_slopes`` finds no slope
    for a negative ``int``, and its refusal asks for an ``int`` alone.
    """
    call = BUDGETED[name]
    bound = "" if name == "enumerate_slopes" else " >= 0"
    if name == "enumerate_slopes" and budget == -1:
        assert call(budget) == []
    else:
        with pytest.raises(DomainError, match=f"^max_order must be an int{bound}, got "):
            call(budget)
    call(3)


ARC_SLOPES = enumerate_slopes(-3, 3, 8)


class TestArcValue:
    @given(st.sampled_from(ARC_SLOPES),
           st.one_of(st.fractions(min_value=-6, max_value=6, max_denominator=10 ** 6),
                     st.sampled_from(ARC_SLOPES).map(lambda s: s.slope)))
    def test_integer_arc_is_the_hilbert_arc(self, a, mu):
        assert arc_value(a, mu) == fraction_arc_value(a, mu)

    def test_peak_and_symmetry(self):
        for a in ARC_SLOPES[::37]:
            assert arc_value(a, a.slope) == 1 - a.discriminant
            mu = a.slope + F(1, 3)
            assert arc_value(a, mu) == arc_value(a, a.slope - F(1, 3)) == fraction_arc_value(a, mu)


def test_cold_walks_keep_nothing():
    """2,000 distinct walks of order 32-39 grow no module-level container.

    No walk is kept, so memory stays bounded over a long batch; the two
    ``lru_cache``s are the module's only stores, each under its cap.
    """
    def containers():
        return {name: len(value) for name, value in vars(exceptional).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))}

    caches = (exceptional._interval_halfwidth, exceptional.boundary_at)
    before, cached = containers(), [c.cache_info().currsize for c in caches]
    addresses = {dy(2 * i + 1, 32 + i % 8) for i in range(2000)}
    assert len(addresses) == 2000 and min(d.q for d in addresses) >= 32
    for d in addresses:
        left, right = parents(from_dyadic(d))
        assert left.slope < right.slope
    assert containers() == before
    assert [c.cache_info().currsize for c in caches] == cached
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize <= info.maxsize
