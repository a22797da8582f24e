"""The lattice kernel of ``ChernCharacter`` against its ``Fraction`` oracle.

A character is stored as ``(r, c1, chi)`` and every operation is one closed
integer form.  Each is checked against ``FractionCharacter``, the
tensor-based ``Fraction`` formulas it replaced, on integral characters with
fields up to 10^30 and in a small box, on characters with half-integral
``ch2`` and on non-integral input; an operation stores each integral field
as an ``int``.  The twist and Serre-duality laws of whole reports are in
``test_laws``.  The extremal rays, integer cross products, are checked
against the ``Fraction`` solve they replaced.  And no report over the golden
box holds a ``float`` anywhere.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planecones import cone
from planecones.chern import (
    ChernCharacter,
    character_from_json,
    character_to_json,
    euler_chi_pair,
    euler_pairing,
    moduli_dimension,
    natural_classes,
)
from planecones.cone import Kind
from planecones.errors import ConsistencyError, DomainError
from planecones.exceptional import enumerate_slopes
from planecones.qarith import QuadraticNumber

from conftest import (
    FractionCharacter, fraction_primary, fraction_secondary, near_boundary, record_fields,
)

F = Fraction
BIG = 10 ** 30
big = st.integers(-BIG, BIG)


def lattice(r, c1, chi) -> ChernCharacter:
    return character_from_json({"r": r, "c1": c1, "chi": chi})


integral = st.builds(lattice, big, big, big)
half_integral_ch2 = st.builds(
    ChernCharacter, big, big, st.builds(Fraction, big, st.just(2))
)
non_integral = st.builds(
    ChernCharacter,
    *[st.fractions(min_value=-BIG, max_value=BIG, max_denominator=10 ** 6)] * 3,
)
# small characters: an integral box with ranks 0 and -1, and rationals of small height
box = st.builds(lattice, st.integers(-3, 8), st.integers(-10, 10), st.integers(-8, 8))
small_rational = st.builds(
    ChernCharacter, *[st.fractions(min_value=-20, max_value=20, max_denominator=12)] * 3
)
characters = st.one_of(integral, half_integral_ch2, non_integral, box, small_rational)
multipliers = st.one_of(big, st.fractions(max_denominator=10 ** 6))


def oracle(x: ChernCharacter) -> FractionCharacter:
    return FractionCharacter.of(x)


class TestKernelAgainstOracle:
    @given(characters, characters)
    def test_pairing(self, x, z):
        assert euler_pairing(x, z) == oracle(x).pairing(oracle(z)) == euler_pairing(z, x)
        assert euler_chi_pair(x, z) == oracle(x).dual().pairing(oracle(z))

    @given(characters, characters, big, multipliers)
    def test_operations(self, x, z, n, k):
        ox, oz = oracle(x), oracle(z)
        pairs = [
            (x.tensor(z), ox.tensor(oz)),
            (x.dual(), ox.dual()),
            (x.twist(n), ox.twist(n)),
            (x.serre_dual(), ox.serre_dual()),
            (x + z, FractionCharacter(ox.ch0 + oz.ch0, ox.ch1 + oz.ch1, ox.ch2 + oz.ch2)),
            (x - z, FractionCharacter(ox.ch0 - oz.ch0, ox.ch1 - oz.ch1, ox.ch2 - oz.ch2)),
            (-x, FractionCharacter(-ox.ch0, -ox.ch1, -ox.ch2)),
            (x.scale(k), FractionCharacter(k * ox.ch0, k * ox.ch1, k * ox.ch2)),
        ]
        for y, want in pairs:
            assert oracle(y) == want
            for value in (y.r, y.c1, y.chi):  # an integral field is stored as an int
                assert type(value) is int or value.denominator != 1, y

    @given(characters)
    def test_invariants(self, x):
        ox = oracle(x)
        assert x.chi == ox.euler_chi()
        if x.r == 0:
            return
        assert (x.slope(), x.discriminant()) == (ox.slope(), ox.discriminant())
        if x.r < 0:
            return
        zeta0, zeta1 = natural_classes(x)
        assert oracle(zeta0) == FractionCharacter(ox.ch0, Fraction(0), -ox.euler_chi())
        assert oracle(zeta1) == FractionCharacter(
            Fraction(0), ox.ch0, -Fraction(3, 2) * ox.ch0 - ox.ch1
        )
        dimension = ox.ch0 ** 2 * (2 * ox.discriminant() - 1) + 1
        if dimension.denominator == 1:
            assert moduli_dimension(x) == dimension
        else:
            with pytest.raises(ConsistencyError):
                moduli_dimension(x)

    @given(characters)
    def test_json(self, x):
        ox, data = oracle(x), character_to_json(x)
        expected = {"ch0": ox.ch0, "ch1": ox.ch1, "ch2": ox.ch2, "r": ox.ch0,
                    "c1": ox.ch1, "chi": ox.euler_chi()}
        if x.r != 0:
            expected.update(mu=ox.slope(), delta=ox.discriminant())
        assert data == {"mu": None, "delta": None,
                        **{key: str(v) for key, v in expected.items()}}
        assert list(data) == ["ch0", "ch1", "ch2", "r", "mu", "delta", "c1", "chi"]
        assert character_from_json({key: data[key] for key in ("ch0", "ch1", "ch2")}) == x
        assert character_from_json({key: data[key] for key in ("r", "c1", "chi")}) == x
        if x.r != 0:
            assert character_from_json({key: data[key] for key in ("r", "mu", "delta")}) == x

    @given(big, big, big)
    def test_integral_fields_are_ints(self, r, c1, chi):
        x = lattice(r, c1, chi)
        by_chern = ChernCharacter(x.ch0, x.ch1, x.ch2)
        assert by_chern == x and hash(by_chern) == hash(x)
        built = [x, by_chern, lattice(str(r), str(c1), str(chi))]
        if r:
            built.append(ChernCharacter.from_rmd(r, x.slope(), x.discriminant()))
        for y in built:
            assert (y.r, y.c1, y.chi) == (r, c1, chi)
            assert {type(y.r), type(y.c1), type(y.chi)} == {int}

    def test_non_integral_twist_rejected(self):
        with pytest.raises(DomainError):
            lattice(3, 2, 1).twist(Fraction(1, 2))

    def test_exceptional_bundles(self):
        slopes = enumerate_slopes(-2, 2, 8)
        assert len(slopes) == 4 * 2 ** 8 + 1
        for s in slopes:
            r, mu = Fraction(s.rank), s.slope
            expected = FractionCharacter(r, r * mu, r * (mu * mu / 2 - s.discriminant))
            assert oracle(s.character()) == expected


def _assume_near_boundary(x):
    assume(cone.classify(x).kind is Kind.PICARD_RANK_2)
    assert F(1, 2) < x.discriminant() < 2
    assert cone.cone_report(x).primary.invariants.corresponding_slope.order > 6


# -- rays against the Fraction solve --------------------------------------------


def _assert_rays_match_the_fraction_solve(x, seen):
    for multiplier in (1, 3):
        report = cone.cone_report(x, multiplier)
        if report.primary is None:
            return
        inv, sec = report.primary.invariants, report.secondary
        case, point, on_curve, ray = fraction_primary(x, inv.corresponding_slope, multiplier)
        assert (inv.case_sign, inv.point, inv.on_delta_curve) == (case, point, on_curve), x
        assert report.primary.extremal_character == ray, x
        dual_gamma = sec.dual_primary and sec.dual_primary.invariants.corresponding_slope
        expected = fraction_secondary(x, dual_gamma, multiplier)
        assert (sec.invariants, sec.extremal_character) == expected, x
        seen.add((min(x.r, 3), case))


def test_rays_match_the_fraction_solve_on_the_box():
    """Every character with 0 <= r <= 8, |c1| <= 10 and |chi| <= 8."""
    seen = set()
    for r in range(9):
        for c1 in range(-10, 11):
            for chi in range(-8, 9):
                _assert_rays_match_the_fraction_solve(lattice(r, c1, chi), seen)
    # every rank branch of the secondary edge meets every pairing case
    assert seen == {(r, case) for r in range(4) for case in cone.CaseSign}


@settings(max_examples=40)
@given(near_boundary)
def test_rays_match_the_fraction_solve_near_the_boundary(x):
    _assume_near_boundary(x)
    _assert_rays_match_the_fraction_solve(x, set())


# -- no float anywhere in a report ----------------------------------------------


def _walk(value, path, characters):
    assert not isinstance(value, float), path
    if isinstance(value, ChernCharacter):
        characters.append(value)
        for name in ("r", "c1", "chi"):
            field = getattr(value, name)
            assert type(field) in (int, Fraction), (path, name)
    elif isinstance(value, QuadraticNumber):
        assert {type(v) for v in (value.A, value.B, value.d, value.D)} == {int}, path
        assert type(value.a) is type(value.b) is Fraction, path
    elif isinstance(value, Fraction):
        assert type(value.numerator) is type(value.denominator) is int, path
    elif record_fields(value):
        for name in record_fields(value):
            _walk(getattr(value, name), f"{path}.{name}", characters)
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            _walk(item, f"{path}[{i}]", characters)


def test_no_float_in_any_report():
    """Every report over the golden box (rank 0..6, |c1| <= 8, |chi| <= 6)."""
    count, characters = 0, []
    for r in range(7):
        for c1 in range(-8, 9):
            for chi in range(-6, 7):
                report = cone.cone_report(lattice(r, c1, chi))
                _walk(report, f"cone_report({r}, {c1}, {chi})", characters)
                count += 1
    assert count == 1547
    for x in characters:
        assert {type(x.ch0), type(x.ch1), type(x.ch2)} == {Fraction}, x
        if x.r != 0:
            assert type(x.slope()) is type(x.discriminant()) is Fraction, x
    assert len(characters) > count
