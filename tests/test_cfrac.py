import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planecones import cfrac
from planecones.cfrac import (
    PeriodStructure,
    cantor_approx,
    cf_eval,
    dyadic_to_word,
    even_expansion,
    is_endpoint_word,
    lr_parents,
    lr_to_slope,
    normalize_slope,
    odd_expansion,
    parity_convert,
    period_structure,
    slope_to_lr,
    smallest_period,
    word_to_dyadic,
)
from planecones.errors import ConsistencyError, DomainError
from planecones.exceptional import (
    DyadicRational,
    ExceptionalSlope,
    enumerate_slopes,
    from_dyadic,
    from_integer,
    from_slope_value,
    interval_contains,
    slope_and_parents,
)

from conftest import (
    charwise_cantor_approx,
    charwise_even_expansion,
    charwise_parity_convert,
    charwise_period_structure,
    euclid_expansion,
    period_by_definition,
    slope_dot,
)

F = Fraction

class TestCfEval:
    def test_examples(self):
        assert cf_eval("22") == F(2, 5)
        assert cf_eval("2112") == F(5, 13)

    def test_empty_is_zero(self):
        assert cf_eval("") == 0

    def test_digit_sequences_accepted(self):
        assert cf_eval([2, 2]) == F(2, 5)

    def test_nonpositive_digits_rejected(self):
        with pytest.raises(DomainError):
            cf_eval([2, 0, 1])


class TestParityConvert:
    def test_single_digit(self):
        assert parity_convert("11") == "2"
        assert parity_convert("2") == "11"

    def test_examples(self):
        assert parity_convert("22") == "211"
        assert parity_convert("211") == "22"

    def test_value_preserved_random(self):
        rng = random.Random(2)
        for _ in range(1000):
            word = "".join(rng.choice("12") for _ in range(rng.randint(1, 12)))
            if word == "1":
                continue
            other = parity_convert(word)
            assert cf_eval(other) == cf_eval(word)
            assert len(other) % 2 != len(word) % 2

    def test_unconvertible(self):
        with pytest.raises(DomainError):
            parity_convert("1")
        with pytest.raises(DomainError):
            parity_convert("")


class TestExpansion:
    def test_out_of_window_rejected(self):
        with pytest.raises(DomainError):
            even_expansion(F(3, 5))

    def test_non_exceptional_rejected(self):
        with pytest.raises(DomainError):
            even_expansion(F(1, 3))

    def test_quotients_past_nine_are_written_whole(self):
        # no exceptional slope in [0, 1/2] has one; the text is str of each quotient
        assert parity_convert([3, 12]) == charwise_parity_convert([3, 12]) == "3111"
        assert parity_convert([2, 10, 1]) == charwise_parity_convert([2, 10, 1]) == "211"
        assert parity_convert("11119") == charwise_parity_convert("11119") == "111181"

    @pytest.mark.parametrize("r, c1", [(7, 3), (41, 3), (103, 10), (1000, 7)])
    def test_records_with_quotients_past_two(self, r, c1):
        """A record whose slope has a quotient above 2 is no exceptional slope: refused.

        3/7 = [0; 2, 3] is one, by its last quotient.  These records once
        took a text fork that wrote each quotient as its decimal digits, so
        3/41 = [0; 13, 1, 2] came out as "1312", which is 11/14.
        """
        record = ExceptionalSlope(r, c1, DyadicRational(1, 1))
        for expand in (even_expansion, odd_expansion):
            with pytest.raises(ConsistencyError, match=rf"^\(r, c1\) = \({r}, {c1}\) has a "):
                expand(record)

    @pytest.mark.parametrize("r, c1, address", [(13, 5, (1, 1)), (5, 2, (3, 3)), (29, 12, (3, 2))])
    def test_records_off_their_address(self, r, c1, address):
        """A record of an exceptional bundle at another slope's address is refused by its walk.

        Each slope's quotients are ones and twos, so only the walk tells.
        """
        record = ExceptionalSlope(r, c1, DyadicRational(*address))
        for expand in (even_expansion, odd_expansion):
            with pytest.raises(ConsistencyError, match=rf"^\(r, c1\) = \({r}, {c1}\) has a "):
                expand(record)

    def test_records_outside_the_window_keep_the_window_error(self):
        record = ExceptionalSlope(5, 3, DyadicRational(1, 1))
        with pytest.raises(DomainError, match=r"^slope 3/5 outside \[0, 1/2\]; normalize first$"):
            even_expansion(record)

    def test_every_word_to_length_fourteen_against_euclid(self):
        """The parent rule against Euclid, on all 8,192 words R and RL... of length <= 14.

        Both expansions match the reference and have quotients 1 and 2 only,
        the even one a palindrome; ``cf_eval`` gives the slope back up to
        order 10.  Up to length 12, which with the slope 0 is every slope of
        order <= 12 in [0, 1/2], the expansions of the slope's ``Fraction``
        are the same and match the character-wise oracle.
        """
        assert even_expansion(from_integer(0)) == charwise_even_expansion(F(0)) == ""
        with pytest.raises(DomainError):  # 0 has no odd expansion
            odd_expansion(from_integer(0))
        words = ["R"] + ["RL" + "".join(w) for n in range(13)
                         for w in itertools.product("LR", repeat=n)]
        assert len(words) == 8192
        for word in words:
            s = lr_to_slope(word)
            even, odd = even_expansion(s), odd_expansion(s)
            assert even == euclid_expansion(s.c1, s.r, False), word
            assert odd == euclid_expansion(s.c1, s.r, True), word
            assert set(even + odd) <= {"1", "2"} and even == even[::-1], word
            if len(word) <= 10:
                assert cf_eval(even) == cf_eval(odd) == s.slope, word
            if len(word) <= 12:
                assert even == even_expansion(s.slope) == charwise_even_expansion(s.slope), word
                assert odd == odd_expansion(s.slope) == charwise_parity_convert(even), word

    @pytest.mark.fuzz
    @given(st.integers(min_value=13, max_value=16).flatmap(
        lambda n: st.text(alphabet="LR", min_size=n, max_size=n)))
    def test_long_words_against_euclid(self, rest):
        """Words RL... of length 15-18; the CI fuzz step runs 2,000 of them."""
        s = lr_to_slope("RL" + rest)
        assert even_expansion(s) == euclid_expansion(s.c1, s.r, False)
        assert odd_expansion(s) == euclid_expansion(s.c1, s.r, True)
        assert even_expansion(s.slope) == even_expansion(s)


class TestNormalize:
    def test_window_kept(self):
        assert normalize_slope(F(2, 5)) == (F(2, 5), 0, False)

    def test_translation(self):
        assert normalize_slope(F(22, 5)) == (F(2, 5), 4, False)

    def test_negation(self):
        normalized, shift, negated = normalize_slope(F(3, 5))
        assert (normalized, shift, negated) == (F(2, 5), 1, True)

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(200):
            mu = F(rng.randint(-40, 40), rng.randint(1, 9))
            normalized, shift, negated = normalize_slope(mu)
            assert 0 <= normalized <= F(1, 2)
            assert mu == shift + (-normalized if negated else normalized)


class TestWords:
    def test_word_to_dyadic_examples(self):
        assert word_to_dyadic("RL").value == F(1, 4)

    def test_dyadic_round_trip_order_twelve(self):
        for q in range(0, 13):
            for p in range(-3 << q, 3 << q):
                if q and p % 2 == 0:
                    continue
                shift, word = dyadic_to_word(from_dyadic_pq(p, q))
                assert len(word) == q and not word.startswith("L")
                assert shift + word_to_dyadic(word).value == F(p, 1 << q)

    def test_lr_to_slope_examples(self):
        assert lr_to_slope("RL").slope == F(2, 5)
        assert lr_to_slope("RLL").slope == F(5, 13)

    def test_action_matches_dyadic_walk(self):
        # Oracle: the tree action, letter by letter, on (left, slope, right)
        # with ``slope_dot`` alone, and the address ``p / 2**q`` with p -> 2p -+ 1.
        level = {"": (F(-1), F(0), F(1), 0)}
        for q in range(13):
            children = {}
            for word, (left, mid, right, p) in level.items():
                g = lr_to_slope(word)
                assert (g.slope, g.dyadic.p, g.dyadic.q) == (mid, p, q)
                children[word + "L"] = (left, slope_dot(left, mid), mid, 2 * p - 1)
                children[word + "R"] = (mid, slope_dot(mid, right), right, 2 * p + 1)
            level = children

    def test_slope_to_lr_translations(self):
        shift, word = slope_to_lr(from_slope_value(F(22, 5)))
        assert (shift, word) == (4, "RL")
        shift, word = slope_to_lr(from_integer(-2))
        assert (shift, word) == (-2, "")

    def test_negative_slope_words(self):
        shift, word = slope_to_lr(from_slope_value(F(-2, 5)))
        assert (shift, word) == (-1, "RR")
        assert lr_to_slope("RR").slope == F(3, 5)
        assert -1 + F(3, 5) == F(-2, 5)

    def test_invalid_letters_rejected(self):
        with pytest.raises(DomainError):
            lr_to_slope("RLX")


def from_dyadic_pq(p, q):
    from planecones.exceptional import DyadicRational

    return DyadicRational.make(p, q)


class TestLrParents:
    def test_initial_segments(self):
        rng = random.Random(3)
        for _ in range(100):
            word = "RL" + "".join(rng.choice("LR") for _ in range(rng.randint(0, 8)))
            left, right = lr_parents(word)
            for parent in (left, right):
                assert parent is not None
                assert word.startswith(parent)

    def test_parent_slopes_match_tree(self):
        from planecones.exceptional import parents

        rng = random.Random(4)
        for _ in range(60):
            word = "RL" + "".join(rng.choice("LR") for _ in range(rng.randint(0, 7)))
            left, right = lr_parents(word)
            tree_left, tree_right = parents(lr_to_slope(word))
            assert lr_to_slope(left).slope == tree_left.slope
            assert lr_to_slope(right).slope == tree_right.slope

    def test_mirror_words(self):
        assert lr_parents("L") == (None, "")
        assert lr_parents("LL") == (None, "L")
        assert lr_parents("R") == ("", None)
        assert lr_parents("RR") == ("R", None)

    def test_empty_word_and_negative_depth_raise(self):
        with pytest.raises(DomainError, match="the empty word has no parents"):
            lr_parents("")
        with pytest.raises(DomainError, match="negative depth"):
            cantor_approx("L", -1)


class TestPeriodStructure:
    def test_worked_example(self):
        ps = period_structure("RLLLRR")
        assert (ps.block, ps.exponent, ps.tail) == ("211112", 3, "")
        assert not ps.beta_is_half
        beta = lr_to_slope("RLL")
        assert ps.block == odd_expansion(beta) + "2"

    def test_all_two_words(self):
        ps = period_structure("RL")
        assert (ps.block, ps.exponent, ps.tail, ps.beta_is_half) == ("2", 2, "", True)
        ps = period_structure("RLR")
        assert (ps.block, ps.exponent, ps.tail, ps.beta_is_half) == ("2", 4, "", True)
        assert even_expansion(lr_to_slope("RLR")) == "2222"

    def test_tail_case(self):
        # RLLR ends in a single R after an L-run: beta = 0.RLL, alpha = 0
        ps = period_structure("RLLR")
        expansion = even_expansion(lr_to_slope("RLLR"))
        assert ps.block * ps.exponent + ps.tail == expansion
        assert smallest_period(expansion) == len(ps.block)

    def test_every_short_word_against_the_charwise_oracle(self):
        """Every word of length <= 12, and a few that are not words: same result or same error."""
        def outcome(decompose, word):
            try:
                return decompose(word)
            except (DomainError, ConsistencyError) as exc:
                return type(exc), str(exc)

        words = ["".join(w) for n in range(13) for w in itertools.product("LR", repeat=n)]
        found = 0
        for word in words + ["RLX", "rl", "R L"]:
            result = outcome(period_structure, word)
            assert result == outcome(charwise_period_structure, word), word
            found += not isinstance(result[0], type)
        assert len(words) == 2 ** 13 - 1 and found == 2 ** 10

    def test_a_rebuild_that_misses_names_the_word(self, monkeypatch):
        made = PeriodStructure

        def off_by_one(block, exponent, tail, beta_is_half):
            return made(block, exponent + 1, tail, beta_is_half)

        monkeypatch.setattr(cfrac, "PeriodStructure", off_by_one)
        for word in ("RLLLRR", "RLR", "RL"):
            with pytest.raises(ConsistencyError,
                               match=rf"^period decomposition .* of '{word}' rebuilds "):
                period_structure(word)

    def test_a_block_past_the_smallest_period_names_the_word(self, monkeypatch):
        monkeypatch.setattr(cfrac, "smallest_period", lambda expansion: 0)
        with pytest.raises(ConsistencyError, match=r"^block length 6 is not the smallest period "
                                                   r"of 211112211112211112, the expansion of "
                                                   r"'RLLLRR'$"):
            period_structure("RLLLRR")

    def test_l_ending_words_rejected(self):
        with pytest.raises(DomainError):
            period_structure("RLL")

    def test_words_outside_window_rejected(self):
        for word in ("RR", "RRL", "LR"):
            with pytest.raises(DomainError):
                period_structure(word)


class TestSmallPeriods:
    def test_second_periods_are_multiples_of_smallest(self):
        # any second period p' with p + p' within the length is a multiple of
        # the smallest period p
        for s in enumerate_slopes(0, F(1, 2), 6):
            word = even_expansion(s)
            k = len(word)
            p = smallest_period(word)
            for q in range(p + 1, k + 1):
                if all(word[i] == word[i + q] for i in range(k - q)) and p + q <= k:
                    assert q % p == 0

    def test_matches_the_definition_up_to_length_twelve(self):
        # against the definition on all 8,191 words over {1, 2}
        words = [""]
        for length in range(1, 13):
            words += [format(n, f"0{length}b").translate({48: "1", 49: "2"})
                      for n in range(1 << length)]
        assert len(words) == 8191
        for word in words:
            assert smallest_period(word) == period_by_definition(word), word

    def test_matches_the_definition_on_long_words(self):
        # 3,000 words of up to 160 letters: a block repeated, cut short, one letter changed
        rng = random.Random(17)
        for _ in range(3000):
            block = "".join(rng.choice("12") for _ in range(rng.randint(1, 40)))
            word = (block * rng.randint(1, 6))[:rng.randint(0, 160)]
            if word and rng.random() < 0.3:
                i = rng.randrange(len(word))
                word = word[:i] + rng.choice("12") + word[i + 1:]
            assert smallest_period(word) == period_by_definition(word), word


class TestCantor:
    def test_right_run_brackets_left_endpoint_of_one(self):
        # constant-R words converge to the left endpoint of the interval at 1
        target, _ = from_integer(1).interval()
        for k in range(1, 9):
            lo, hi = cantor_approx("R" * k, k)
            assert target.compare(lo) > 0
            assert target.compare(hi) <= 0

    def test_prefix_rl_brackets_gap_near_two_fifths(self):
        lo, hi = cantor_approx("RL", 2)
        assert (lo, hi) == (0, F(1, 2))
        gap = from_slope_value(F(2, 5))
        left, right = gap.interval()
        # the bracketed complement component straddles the whole interval at 2/5
        assert left.compare(lo) > 0
        assert right.compare(hi) < 0

    def test_nested_enclosures_random(self):
        rng = random.Random(9)
        for _ in range(100):
            word = "R" + "".join(rng.choice("LR") for _ in range(9))
            for depth in range(1, len(word)):
                lo1, hi1 = cantor_approx(word, depth)
                lo2, hi2 = cantor_approx(word, depth + 1)
                assert lo1 <= lo2 < hi2 <= hi1


def _outcome(call, *args):
    """What ``call`` returns, or the class and text of the error it raises."""
    try:
        return call(*args)
    except (ConsistencyError, DomainError) as exc:
        return type(exc), str(exc)


class TestWordsAgainstOracles:
    """Every word of length <= 10: the walk by word and the Cantor brackets against their oracles.

    ``period_structure`` meets its oracle on every word to length 12 in
    ``TestPeriodStructure``; here only its refusal text.
    """

    def test_every_word_to_length_ten(self):
        words = ["".join(w) for n in range(11) for w in itertools.product("LR", repeat=n)]
        assert len(words) == 2047
        memo = {}
        assert [s.slope for s in slope_and_parents(word_to_dyadic(""))] == [-1, 0, 1]
        for word in words:
            d = word_to_dyadic(word)
            assert from_dyadic(d) == slope_and_parents(d)[1] == lr_to_slope(word), word
            for depth in range(len(word) + 2):  # past the word's end too
                assert cantor_approx(word, depth) == charwise_cantor_approx(word, depth, memo), \
                    (word, depth)
        for word in ("LRX", "RLR ", "r"):
            assert _outcome(period_structure, word) == \
                _outcome(charwise_period_structure, word) == \
                (DomainError, f"not an LR word: {word!r}")
            assert _outcome(cantor_approx, word, 1) == _outcome(charwise_cantor_approx, word, 1, {})


class TestEndpointWords:
    def test_right_endpoint(self):
        result = is_endpoint_word("RLR", "L")
        assert result is not None
        slope, side = result
        assert (slope.slope, side) == (F(2, 5), "right")

    def test_left_endpoint(self):
        result = is_endpoint_word("RLL", "R")
        assert result is not None
        slope, side = result
        assert (slope.slope, side) == (F(2, 5), "left")

    def test_non_constant_tail(self):
        assert is_endpoint_word("RL", "LR") is None
        assert is_endpoint_word("RL", "") is None

    def test_window_edges(self):
        slope, side = is_endpoint_word("", "L")
        assert (slope.slope, side) == (-1, "right")
        slope, side = is_endpoint_word("RRR", "R")
        assert (slope.slope, side) == (1, "left")

    def test_endpoint_value_is_in_closure(self):
        slope, side = is_endpoint_word("RLR", "L")
        left, right = slope.interval()
        endpoint = right if side == "right" else left
        assert interval_contains(slope, endpoint, closed=True)
        assert not interval_contains(slope, endpoint, closed=False)


class TestPrefixProperty:
    def test_expansions_extend_along_r(self):
        rng = random.Random(13)
        for _ in range(80):
            base = "RL" + "".join(rng.choice("LR") for _ in range(rng.randint(0, 4)))
            ext = "R" + "".join(rng.choice("LR") for _ in range(rng.randint(0, 4)))
            parent = even_expansion(lr_to_slope(base))
            child = even_expansion(lr_to_slope(base + ext))
            assert child.startswith(parent)

    def test_odd_expansions_extend_along_l(self):
        rng = random.Random(14)
        for _ in range(80):
            base = "RL" + "".join(rng.choice("LR") for _ in range(rng.randint(0, 4)))
            ext = "L" + "".join(rng.choice("LR") for _ in range(rng.randint(0, 4)))
            parent = odd_expansion(lr_to_slope(base))
            child = even_expansion(lr_to_slope(base + ext))
            assert child.startswith(parent)
