import random
from fractions import Fraction

import pytest

from planecones.chern import (
    ChernCharacter,
    character_from_json,
    character_to_json,
    euler_chi_pair,
    euler_pairing,
    hilbert_poly,
    line_bundle,
    moduli_dimension,
    natural_classes,
)
from planecones.errors import DomainError, RankZeroError

GOLDEN = ChernCharacter(3, 2, -5)


class TestHilbertPoly:
    def test_structure_sheaf(self):
        assert hilbert_poly(0) == 1

    def test_minimum(self):
        assert hilbert_poly(Fraction(-3, 2)) == Fraction(-1, 8)

    def test_first_twist(self):
        assert hilbert_poly(1) == 3


class TestSlopeDisc:
    def test_structure_sheaf(self):
        sd = ChernCharacter(1, 0, 0).slope_disc()
        assert (sd.mu, sd.delta) == (0, 0)

    def test_golden(self):
        sd = GOLDEN.slope_disc()
        assert (sd.mu, sd.delta) == (Fraction(2, 3), Fraction(17, 9))

    def test_rank_two(self):
        sd = ChernCharacter(2, 0, -11).slope_disc()
        assert (sd.mu, sd.delta) == (0, Fraction(11, 2))

    def test_rank_zero_raises(self):
        with pytest.raises(RankZeroError):
            ChernCharacter(0, 3, 1).slope()
        with pytest.raises(RankZeroError, match="discriminant of a rank-zero character"):
            ChernCharacter(0, 3, 1).discriminant()
        with pytest.raises(DomainError, match="natural classes need positive rank"):
            natural_classes(ChernCharacter(0, 3, 1))

    def test_from_rmd_examples(self):
        assert ChernCharacter.from_rmd(1, 0, 4) == ChernCharacter(1, 0, -4)
        assert ChernCharacter.from_rmd(3, Fraction(2, 3), Fraction(17, 9)) == GOLDEN
        assert ChernCharacter.from_rmd(2, 0, Fraction(11, 2)) == ChernCharacter(2, 0, -11)
        with pytest.raises(DomainError):
            ChernCharacter.from_rmd(0, 1, 1)


class TestEulerChi:
    def test_examples(self):
        assert ChernCharacter(1, 0, 0).chi == 1
        assert GOLDEN.chi == 1
        assert ChernCharacter(2, 0, -11).chi == -9


class TestTensorDual:
    def test_identity_element(self):
        assert line_bundle(0).tensor(GOLDEN) == GOLDEN

    def test_inverse_twists(self):
        assert line_bundle(-1).tensor(line_bundle(1)) == line_bundle(0)

    def test_slope_discriminant_additive(self):
        prod = GOLDEN.tensor(line_bundle(-1))
        assert prod == ChernCharacter(3, -1, Fraction(-11, 2))
        assert prod.slope() == Fraction(-1, 3)
        assert prod.discriminant() == Fraction(17, 9)

    def test_dual_examples(self):
        assert ChernCharacter(1, 0, 0).dual() == ChernCharacter(1, 0, 0)
        assert GOLDEN.dual() == ChernCharacter(3, -2, -5)

    def test_serre_dual_examples(self):
        assert ChernCharacter(1, 0, 0).serre_dual() == ChernCharacter(
            1, -3, Fraction(9, 2)
        )
        sd = GOLDEN.serre_dual()
        assert sd == ChernCharacter(3, -11, Fraction(29, 2))
        assert sd.slope() == Fraction(-11, 3)
        assert sd.discriminant() == Fraction(17, 9)


# (4, 1, -7) in the Chern-character view has chi = -3/2: every operation below
# lands on an integral character, given by its lattice fields.
HALF = ChernCharacter(4, 1, -7)
INTEGRAL_RESULTS = [
    (lambda: HALF.scale(2), (8, 2, -3)),
    (lambda: HALF + HALF, (8, 2, -3)),
    (lambda: HALF.scale(3) - HALF, (8, 2, -3)),
    (lambda: (HALF + HALF).twist(1), (8, 10, 15)),
    (lambda: (HALF + HALF).dual(), (8, -2, -9)),
    (lambda: (HALF + HALF).serre_dual(), (8, -26, -3)),
    (lambda: -(HALF + HALF), (-8, -2, 3)),
    (lambda: HALF.tensor(HALF), (16, 8, -27)),
    (lambda: character_from_json({"r": 8, "c1": 2, "chi": -3}).scale(Fraction(1, 2)),
     (4, 1, Fraction(-3, 2))),
]


class TestOperationsKeepIntFields:
    """An operation stores each integral field as an ``int``, whatever its operands hold."""

    @pytest.mark.parametrize("operation, fields", INTEGRAL_RESULTS,
                             ids=["scale", "add", "sub", "twist", "dual", "serre_dual", "neg",
                                  "tensor", "scale_by_half"])
    def test_result_is_the_int_built_character(self, operation, fields):
        import json

        from planecones.cli import report_to_dict
        from planecones.cone import cone_report

        result = operation()
        expected = character_from_json(dict(zip(("r", "c1", "chi"), fields)))
        assert result == expected
        for got, want in zip((result.r, result.c1, result.chi), fields):
            assert type(got) is type(want)
        assert (json.dumps(report_to_dict(cone_report(result)))
                == json.dumps(report_to_dict(cone_report(expected))))

    @pytest.mark.parametrize("k", [1.5, float("nan"), "a", 1.0, True, None], ids=repr)
    def test_scale_takes_an_int_or_a_fraction(self, k):
        """Refused as ``twist`` refuses a non-integer; an ``int`` or a ``Fraction`` scales."""
        with pytest.raises(DomainError, match="^k must be an int or a Fraction, got "):
            HALF.scale(k)
        assert HALF.scale(2) == ChernCharacter(8, 2, -14)
        assert HALF.scale(Fraction(3, 2)) == ChernCharacter(6, Fraction(3, 2), Fraction(-21, 2))
        assert HALF.scale(1) == HALF == HALF.scale(Fraction(1))


class TestEulerPairing:
    def test_examples(self):
        o = ChernCharacter(1, 0, 0)
        assert euler_pairing(o, o) == 1
        assert euler_pairing(ChernCharacter(2, 0, -11), ChernCharacter(1, 2, 2)) == 1
        assert euler_pairing(GOLDEN, o) == 1

    def test_hom_count_between_line_bundles(self):
        # maps O(-2) -> O(-1) are linear forms
        assert euler_chi_pair(line_bundle(-2), line_bundle(-1)) == 3


class TestModuliDimension:
    def test_examples(self):
        assert moduli_dimension(GOLDEN) == 26
        assert moduli_dimension(ChernCharacter(2, 0, -11)) == 41
        for n in range(1, 8):
            assert moduli_dimension(ChernCharacter(1, 0, -n)) == 2 * n

    def test_nonpositive_rank_rejected(self):
        with pytest.raises(DomainError):
            moduli_dimension(ChernCharacter(0, 3, 0))

    def test_non_integer_dimension_is_inconsistent(self):
        """The caller's non-integral character is bad input, not a library fault."""
        message = r"^non-integer moduli dimension -2/3 for \(1, 0, 1/3\)$"
        with pytest.raises(DomainError, match=message):
            moduli_dimension(ChernCharacter(1, 0, Fraction(1, 3)))
        # a field past the digit limit is written by its type, where there is a limit
        with pytest.raises(DomainError, match="^non-integer moduli dimension "):
            moduli_dimension(ChernCharacter(1, Fraction(1, 10 ** 5000 + 1), 0))


class TestNaturalClasses:
    def test_golden(self):
        z0, z1 = natural_classes(GOLDEN)
        assert z0 == ChernCharacter(3, 0, -1)
        assert z1 == ChernCharacter(0, 3, Fraction(-13, 2))

    def test_ideal_sheaves(self):
        for n in range(0, 5):
            x = ChernCharacter(1, 0, -n)
            z0, z1 = natural_classes(x)
            assert z0 == ChernCharacter(1, 0, n - 1)
            assert z1 == ChernCharacter(0, 1, Fraction(-3, 2))

    def test_orthogonality_random(self):
        rng = random.Random(7)
        for _ in range(100):
            x = ChernCharacter(
                rng.randint(1, 6), rng.randint(-9, 9), Fraction(rng.randint(-40, 10), 2)
            )
            z0, z1 = natural_classes(x)
            assert euler_pairing(x, z0) == 0
            assert euler_pairing(x, z1) == 0


class TestHalfPlane:
    """The rank-zero line splits the orthogonal plane; positive rank is the primary half."""

    def test_examples(self):
        z0, z1 = natural_classes(GOLDEN)
        for z, side in ((z1, 0), (z0, 1), (-z0, -1)):
            assert euler_pairing(GOLDEN, z) == 0
            assert (z.r > 0) - (z.r < 0) == side


class TestJson:
    def test_three_input_shapes_agree(self):
        by_chern = character_from_json({"ch0": "3", "ch1": "2", "ch2": "-5"})
        by_rmd = character_from_json({"r": "3", "mu": "2/3", "delta": "17/9"})
        by_rci = character_from_json({"r": "3", "c1": "2", "chi": "1"})
        assert by_chern == by_rmd == by_rci == GOLDEN

    def test_output_carries_both_views(self):
        data = character_to_json(GOLDEN)
        assert data["ch0"] == "3" and data["mu"] == "2/3" and data["delta"] == "17/9"
        assert data["chi"] == "1"
        assert character_from_json(data) == GOLDEN

    def test_rank_zero_view(self):
        for x in (ChernCharacter(0, 4, Fraction(-5)), ChernCharacter(0, Fraction(1, 2), 1)):
            data = character_to_json(x)
            assert data["mu"] is None and data["delta"] is None
            assert character_from_json(data) == x

    def test_bad_objects_rejected(self):
        with pytest.raises(DomainError):
            character_from_json({"ch0": "1"})
        with pytest.raises(DomainError):
            character_from_json([1, 2, 3])
