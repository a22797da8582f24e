"""The lattice kernel of ``ChernCharacter`` against its ``Fraction`` oracle.

A character is stored as ``(r, c1, chi)`` and every operation is one closed
integer form.  Each is checked against ``FractionCharacter``, the
tensor-based ``Fraction`` formulas it replaced, on integral characters with
fields up to 10^30, on characters with half-integral ``ch2`` and on
non-integral input.  Reports of characters that large are checked under the
theory's symmetries: twisting by ``O(n)`` and Serre duality.  The extremal
rays, integer cross products, are checked against the ``Fraction`` solve they
replaced.  And no report over the golden box holds a ``float`` anywhere.
"""

import math
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
    hilbert_poly,
    moduli_dimension,
    natural_classes,
)
from planecones.cone import Kind
from planecones.errors import ConsistencyError, DomainError
from planecones.exceptional import DyadicRational, enumerate_slopes, epsilon
from planecones.qarith import QuadraticNumber

from conftest import FractionCharacter, fraction_primary, fraction_secondary, moved, record_fields

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
characters = st.one_of(integral, half_integral_ch2, non_integral)
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
        assert oracle(x.tensor(z)) == ox.tensor(oz)
        assert oracle(x.dual()) == ox.dual()
        assert oracle(x.twist(n)) == ox.twist(n)
        assert oracle(x.serre_dual()) == ox.serre_dual()
        assert oracle(x + z) == FractionCharacter(ox.ch0 + oz.ch0, ox.ch1 + oz.ch1,
                                                  ox.ch2 + oz.ch2)
        assert oracle(x - z) == FractionCharacter(ox.ch0 - oz.ch0, ox.ch1 - oz.ch1,
                                                  ox.ch2 - oz.ch2)
        assert oracle(-x) == FractionCharacter(-ox.ch0, -ox.ch1, -ox.ch2)
        assert oracle(x.scale(k)) == FractionCharacter(k * ox.ch0, k * ox.ch1, k * ox.ch2)

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


# -- reports under the symmetries ---------------------------------------------


def _picard(r, c1, t):
    """A character of rank ``r`` with discriminant at least 2, above the boundary curve."""
    return lattice(r, c1, (c1 * c1 + 3 * r * c1 + 2 * r * r) // (2 * r) - 2 * r - t)


picard = st.builds(_picard, st.integers(1, BIG), big, st.integers(0, BIG))
picard_rank_three = st.builds(_picard, st.integers(3, BIG), big, st.integers(0, BIG))


def _near_boundary(q, k, s, nudge):
    """A character with discriminant about ``(s^2 - 5)/8`` whose ``mu0+`` is the slope at ``k``.

    ``k`` picks an odd address ``p / 2**q`` in (0, 1) and ``mu0+`` is set to
    its slope ``t``: the slope is ``(s - 3)/2 - t`` and ``sqrt(5 + 8 delta) = s``.
    The rank clears every denominator, times 1000, and ``nudge`` moves chi, so
    ``mu0+`` moves far less than ``t``'s halfwidth and stays in its interval.
    """
    t = epsilon(DyadicRational(2 * (k % (1 << (q - 1))) + 1, q))
    mu = (s - 3) / 2 - t
    per_rank = hilbert_poly(mu) - (s * s - 5) / 8
    r = 1000 * math.lcm(mu.denominator, per_rank.denominator)
    return lattice(r, int(r * mu), int(r * per_rank) + nudge)


# Delta in (1/2, 2) (s in [3.05, 4.5]) with gamma of order 7-9, past the
# order-6 reach of the report pools; most draws clear the boundary curve.
near_boundary = st.builds(
    _near_boundary,
    st.integers(7, 9),
    st.integers(0, 255),
    st.fractions(F(61, 20), F(9, 2), max_denominator=40),
    st.integers(-1, 1),
)


def _assume_near_boundary(x):
    assume(cone.classify(x).kind is Kind.PICARD_RANK_2)
    assert F(1, 2) < x.discriminant() < 2
    assert cone.cone_report(x).primary.invariants.corresponding_slope.order > 6


def _assert_twist_shifts(x, n):
    report, twisted = cone.cone_report(x), cone.cone_report(x.twist(n))
    assert report.classification.kind is twisted.classification.kind is Kind.PICARD_RANK_2
    assert twisted.dimension == report.dimension
    assert twisted.mu0_plus == moved(report.mu0_plus, -n)
    assert twisted.mu0_minus == moved(report.mu0_minus, -n)
    edge, shifted = report.primary, twisted.primary
    assert shifted.invariants.case_sign is edge.invariants.case_sign
    assert shifted.invariants.point.mu == edge.invariants.point.mu - n
    assert shifted.invariants.point.delta == edge.invariants.point.delta
    assert shifted.invariants.corresponding_slope.slope == \
        edge.invariants.corresponding_slope.slope - n
    assert shifted.extremal_character == edge.extremal_character.twist(-n)
    res, res_twisted = edge.resolution, shifted.resolution
    assert (res_twisted.case_sign, res_twisted.m1, res_twisted.m2, res_twisted.m3) == \
        (res.case_sign, res.m1, res.m2, res.m3)
    assert res_twisted.triad == tuple(c.twist(n) for c in res.triad)
    assert shifted.kronecker == edge.kronecker
    if report.secondary.extremal_character is not None:
        assert twisted.secondary.extremal_character == \
            report.secondary.extremal_character.twist(-n)


def _assert_rays_swap(x):
    xd = x.serre_dual()
    report, dual = cone.cone_report(x), cone.cone_report(xd)
    assert dual.classification == report.classification
    assert report.secondary.dual_primary == dual.primary
    assert dual.secondary.dual_primary == report.primary
    # the secondary ray is the negated dual of the Serre dual's primary ray
    assert report.secondary.extremal_character == -dual.primary.extremal_character.dual()
    assert dual.secondary.extremal_character == -report.primary.extremal_character.dual()


class TestTwist:
    @settings(max_examples=60)
    @given(picard, big)
    def test_report_shifts(self, x, n):
        _assert_twist_shifts(x, n)

    @settings(max_examples=40)
    @given(near_boundary, big)
    def test_report_shifts_near_the_boundary(self, x, n):
        _assume_near_boundary(x)
        _assert_twist_shifts(x, n)

    @settings(max_examples=60)
    @given(big, big, big, big)
    def test_classification_kind(self, r, c1, chi, n):
        x = lattice(r, c1, chi)
        assert cone.classify(x.twist(n)).kind is cone.classify(x).kind


class TestSerreDuality:
    @settings(max_examples=40)
    @given(picard_rank_three)
    def test_rays_swap(self, x):
        _assert_rays_swap(x)

    @settings(max_examples=40)
    @given(near_boundary)
    def test_rays_swap_near_the_boundary(self, x):
        _assume_near_boundary(x)
        _assert_rays_swap(x)


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
