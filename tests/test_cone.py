import math
from fractions import Fraction

import pytest

from planecones.chern import (
    ChernCharacter,
    SlopeDisc,
    character_from_json,
    euler_pairing,
    hilbert_poly,
    moduli_dimension,
    natural_classes,
)
from planecones.cone import (
    CaseSign,
    Fibration,
    Kind,
    SecondaryMode,
    _arc_side,
    bridgeland_wall,
    classify,
    cone_report,
    kronecker_data,
    orthogonal_character,
    orthogonal_invariants,
    resolution_multiplicities,
    secondary_edge,
)
from planecones.errors import ConsistencyError, DescentError, DomainError
from planecones.exceptional import (
    arc_value, delta_curve, enumerate_slopes, from_slope_value, interval_contains,
)
from planecones.qarith import int_digit_limit, sqrt_exact

from conftest import arc_below, ray_at, replace, triad_key

F = Fraction

GOLDEN = ChernCharacter.from_rmd(3, F(2, 3), F(17, 9))
GOLDEN_DUAL = GOLDEN.serre_dual()
NEGATIVE_CASE = ChernCharacter.from_rmd(3, F(2, 3), F(23, 9))
REMARK = ChernCharacter.from_rmd(2, 0, F(11, 2))


class TestClassify:
    def test_golden_is_picard_rank_two(self):
        assert classify(GOLDEN).kind is Kind.PICARD_RANK_2

    def test_exceptional_multiples(self):
        base = from_slope_value(F(2, 5)).character()
        assert classify(base).kind is Kind.EXCEPTIONAL
        assert classify(base.scale(3)).kind is Kind.EXCEPTIONAL

    def test_height_zero(self):
        x = ChernCharacter.from_rmd(1, 0, 1)
        cls = classify(x)
        assert cls.kind is Kind.HEIGHT_ZERO
        assert x.chi == 0

    def test_rank_zero(self):
        ok = ChernCharacter(0, 4, F(-5))
        assert classify(ok).kind is Kind.RANK_ZERO_PICARD_RANK_2
        low = ChernCharacter(0, 2, F(-2))
        cls = classify(low)
        assert cls.kind is Kind.INVALID
        assert any("d >= 3" in reason for reason in cls.reasons)
        # a degree past Python's digit limit, where there is one, is named by its type
        huge = classify(ChernCharacter(0, -10 ** 5000, 0)).reasons
        if int_digit_limit():
            assert huge == ("rank zero needs first Chern class d >= 3, "
                            "got <int past Python's digit limit>",)

    def test_integrality_failures(self):
        assert classify(ChernCharacter(F(1, 2), 0, -5)).kind is Kind.INVALID
        assert classify(ChernCharacter(1, F(1, 2), -5)).kind is Kind.INVALID
        assert classify(ChernCharacter(1, 0, F(1, 3))).kind is Kind.INVALID

    def test_negative_rank_invalid(self):
        assert classify(ChernCharacter(-2, 3, 0)).kind is Kind.INVALID

    def test_below_curve_not_exceptional_invalid(self):
        # slope 1/2 but the wrong discriminant for the rank-2 bundle there
        cls = classify(ChernCharacter(4, 2, 0))
        assert cls.kind is Kind.INVALID
        # the actual rank-2 bundle at slope 1/2 is exceptional
        assert classify(ChernCharacter(2, 1, F(-1, 2))).kind is Kind.EXCEPTIONAL


def corresponding_slope(x):
    return cone_report(x).primary.invariants.corresponding_slope


class TestIntersectionSlope:
    def test_remark_is_rational(self):
        mu0 = cone_report(REMARK).mu0_plus
        assert mu0.is_rational and mu0.rational_value() == 2

    def test_rank_zero_vertical_line(self):
        x = ChernCharacter(0, 4, -5)
        assert x.chi == 1
        report = cone_report(x)
        assert report.mu0_plus.rational_value() == F(-1, 4) and report.mu0_minus is None
        assert corresponding_slope(x).slope == 0

    def test_gated_by_classification(self):
        report = cone_report(ChernCharacter(1, 0, 0))
        assert report.mu0_plus is report.mu0_minus is report.primary is None


class TestCorrespondingSlope:
    def test_examples(self):
        assert corresponding_slope(REMARK).slope == 2
        assert corresponding_slope(GOLDEN_DUAL).slope == F(22, 5)


class TestOrthogonalInvariants:
    def test_golden_positive_case(self):
        inv = orthogonal_invariants(GOLDEN)
        assert inv.case_sign is CaseSign.POSITIVE
        assert euler_pairing(GOLDEN, inv.corresponding_slope.character()) == 1

    def test_dual_zero_case(self):
        inv = orthogonal_invariants(GOLDEN_DUAL)
        assert inv.case_sign is CaseSign.ZERO
        assert (inv.point.mu, inv.point.delta) == (F(22, 5), F(12, 25))
        assert inv.on_delta_curve

    def test_negative_case(self):
        assert euler_pairing(NEGATIVE_CASE, ChernCharacter(1, 0, 0)) == -1
        inv = orthogonal_invariants(NEGATIVE_CASE)
        assert inv.case_sign is CaseSign.NEGATIVE
        assert (inv.point.mu, inv.point.delta) == (F(4, 11), F(63, 121))
        assert inv.on_delta_curve
        point = ChernCharacter.from_rmd(1, inv.point.mu, inv.point.delta)
        assert euler_pairing(NEGATIVE_CASE, point) == 0
        arc = ChernCharacter.from_rmd(1, -3, 0)
        assert euler_pairing(arc, point) == 0

    def test_rank_zero_invariants(self):
        x = ChernCharacter(0, 4, -5)
        inv = orthogonal_invariants(x)
        assert inv.case_sign is CaseSign.POSITIVE
        assert inv.point.mu == F(-1, 4)
        assert inv.point.delta == hilbert_poly(F(-1, 4))
        ray = ChernCharacter.from_rmd(1, inv.point.mu, inv.point.delta)
        assert euler_pairing(x, ray) == 0

    def test_rank_zero_zero_case(self):
        x = ChernCharacter(0, 3, F(-15, 2))
        inv = orthogonal_invariants(x)
        assert inv.case_sign is CaseSign.ZERO
        assert (inv.point.mu, inv.point.delta) == (1, 0)
        ray = orthogonal_character(inv)
        assert ray == ChernCharacter(1, 1, F(1, 2))
        assert euler_pairing(x, ray) == 0

    def test_rank_zero_negative_case(self):
        x = ChernCharacter(0, 3, F(-17, 2))
        assert x.chi == -4
        inv = orthogonal_invariants(x)
        assert inv.case_sign is CaseSign.NEGATIVE
        assert inv.corresponding_slope.slope == 1
        assert (inv.point.mu, inv.point.delta) == (F(4, 3), F(5, 9))
        ray = orthogonal_character(inv)
        assert ray == ChernCharacter(3, 4, 1)
        assert euler_pairing(x, ray) == 0


class TestRemarkDiscrepancy:
    """The published aside quotes 21/10 for this space; the construction rule
    (intersect with the arc of the corresponding slope, here slope 2) gives
    9/4.  Both points are checked as exact pairing statements; the brute
    force in the acceptance suite confirms 21/10 is the smaller stable slope.
    """

    def test_quoted_value_is_the_other_arc(self):
        quoted = ChernCharacter.from_rmd(1, F(21, 10), F(171, 200))
        assert euler_pairing(REMARK, quoted) == 0
        assert euler_pairing(ChernCharacter.from_rmd(1, -5, 0), quoted) == 0


class TestOrthogonalCharacter:
    def test_golden_minimal_rank_one(self):
        inv = orthogonal_invariants(GOLDEN)
        ray = orthogonal_character(inv)
        assert ray == ChernCharacter(1, 1, F(-5, 2))
        assert euler_pairing(GOLDEN, ray) == 0

    def test_zero_case_returns_exceptional_character(self):
        inv = orthogonal_invariants(GOLDEN_DUAL)
        ray = orthogonal_character(inv)
        assert ray == from_slope_value(F(22, 5)).character()
        assert ray.ch0 == 5

    def test_negative_case_minimal_rank(self):
        inv = orthogonal_invariants(NEGATIVE_CASE)
        ray = orthogonal_character(inv)
        # scan oracle: smallest rank with integral c1 and chi
        expected_rank = next(
            r
            for r in range(1, 200)
            if (r * inv.point.mu).denominator == 1
            and (r * (hilbert_poly(inv.point.mu) - inv.point.delta)).denominator == 1
        )
        assert ray.ch0 == expected_rank == 11

    def test_multiplier_scales_rank(self):
        """No multiplier scales the ray: it stays primitive, and a second positional
        argument is a ``TypeError``."""
        inv = orthogonal_invariants(GOLDEN)
        for m in (7, 0):
            with pytest.raises(TypeError):
                orthogonal_character(inv, m)
        assert orthogonal_character(inv, max_order=7).ch0 == 1

    def test_integer_arc_check_matches_arc_value(self):
        # every ray of rank <= 12 with its slope in the closed interval of a
        # slope of order <= 3 in [-1, 1], a few Euler characteristics either
        # side of the arc; the on-arc rays are not below it
        seen = set()
        for gamma in enumerate_slopes(-1, 1, 3):
            for r in range(1, 13):
                for c in range(r * (gamma.c1 // gamma.r - 2), r * (gamma.c1 // gamma.r + 3)):
                    mu = F(c, r)
                    if not interval_contains(gamma, mu, closed=True):
                        continue
                    on_arc = r * (hilbert_poly(mu) - arc_value(gamma, mu))
                    for chi in range(math.floor(on_arc) - 2, math.ceil(on_arc) + 3):
                        ray = character_from_json({"r": r, "c1": c, "chi": chi})
                        below = _arc_side(ray, gamma) < 0
                        assert below == arc_below(ray, gamma), (ray, gamma)
                        seen.add((below, chi == on_arc))
        assert seen == {(True, False), (False, False), (False, True)}

    def test_arc_side_agrees_with_arc_value(self):
        # for each slope of order <= 4 in [-2, 2], at points in and out of its
        # interval: the ray on the arc at its least rank, and one unit of chi
        # either side of it (more chi is a smaller discriminant)
        for gamma in enumerate_slopes(-2, 2, 4):
            for step in (F(0), F(1, 7), F(-2, 9), F(5, 3)):
                mu = gamma.slope + step
                chi_per_rank = hilbert_poly(mu) - arc_value(gamma, mu)
                r = math.lcm(mu.denominator, chi_per_rank.denominator)
                on = int(r * chi_per_rank)
                for chi, side in ((on, 0), (on - 1, 1), (on + 1, -1)):
                    ray = character_from_json({"r": r, "c1": int(r * mu), "chi": chi})
                    gap = ray.discriminant() - arc_value(gamma, ray.slope())
                    assert (gap > 0) - (gap < 0) == side
                    assert _arc_side(ray, gamma) == side, (ray, gamma)

    @pytest.mark.parametrize("mu, in_gamma", [(F(1, 4), True), (F(1), False)])
    def test_point_below_the_boundary_rejected(self, mu, in_gamma):
        # gamma = 0: its closed interval holds 1/4, whose boundary is gamma's
        # arc, but not 1, whose boundary comes from a descent
        inv = orthogonal_invariants(GOLDEN)
        gamma = inv.corresponding_slope
        assert gamma.slope == 0
        assert interval_contains(gamma, mu, closed=True) is in_gamma
        boundary = delta_curve(mu)
        if in_gamma:
            assert arc_value(gamma, mu) == boundary
        # the off-curve point is injected as its ray, at the point's minimal rank
        on = ray_at(SlopeDisc(mu, boundary))
        assert orthogonal_character(replace(inv, ray=on)) == on
        below = replace(inv, ray=ray_at(SlopeDisc(mu, boundary - F(1, 10 ** 6))))
        with pytest.raises(ConsistencyError, match="below the boundary curve"):
            orthogonal_character(below)


class TestResolution:
    def test_golden_triad_and_multiplicities(self):
        res = resolution_multiplicities(GOLDEN)
        assert res.case_sign is CaseSign.POSITIVE
        assert "O(-2)^4" in res.shape and "O(-1)^6" in res.shape

    def test_dual_zero_case_pair(self):
        res = resolution_multiplicities(GOLDEN_DUAL)
        assert res.case_sign is CaseSign.ZERO
        assert "T(-6)^2" in res.shape

    def test_negative_case(self):
        res = resolution_multiplicities(NEGATIVE_CASE)
        assert res.case_sign is CaseSign.NEGATIVE
        assert [s.slope for s in res.triad_slopes] == [-3, -2, -1]
        assert (res.m1, res.m2, res.m3) == (3, 7, 1)

    def test_negative_case_reconstruction(self):
        res = resolution_multiplicities(NEGATIVE_CASE)
        e2 = ChernCharacter.from_rmd(1, -2, 0)
        e1 = ChernCharacter.from_rmd(1, -1, 0)
        e3 = ChernCharacter.from_rmd(1, -3, 0)
        rebuilt = e2.scale(-3) + e1.scale(7) + e3.scale(-1)
        assert rebuilt == NEGATIVE_CASE == ChernCharacter(3, 2, -7)

    def test_gating(self):
        with pytest.raises(DomainError):
            resolution_multiplicities(ChernCharacter(0, 4, -5))
        with pytest.raises(DomainError):
            resolution_multiplicities(ChernCharacter(1, 0, 0))


class TestKronecker:
    def test_negative_case(self):
        k = kronecker_data(NEGATIVE_CASE)
        assert (k.hom_count, k.dim_vector, k.expected_dimension) == (3, (3, 7), 6)
        assert moduli_dimension(NEGATIVE_CASE) == 38 > 6


class TestWall:
    def test_golden(self):
        wall = bridgeland_wall(orthogonal_invariants(GOLDEN))
        assert wall.center_s == F(-5, 2)
        assert wall.radius_squared == F(25, 4)
        assert wall.radius.rational_value() == F(5, 2)
        assert wall.exceeds_collapse_bound

    def test_exceptional_point_is_flagged_small(self):
        wall = bridgeland_wall(orthogonal_invariants(GOLDEN_DUAL))
        assert not wall.exceeds_collapse_bound
        assert wall.radius_squared == 2 * F(12, 25) + F(1, 4)

    def test_bound_tracks_discriminant(self, grid):
        # the wall is read off the ray's integers; the point's Fractions are the oracle
        for x in grid:
            inv = orthogonal_invariants(x)
            wall = bridgeland_wall(inv)
            radius_sq = 2 * inv.point.delta + F(1, 4)
            assert wall.center_s == -inv.point.mu - F(3, 2)
            assert wall.radius_squared == radius_sq
            assert str(wall.radius) == str(sqrt_exact(radius_sq))
            assert wall.exceeds_collapse_bound == (radius_sq > F(5, 4))
            if inv.point.delta > F(1, 2):
                assert wall.exceeds_collapse_bound


class TestSecondary:
    def test_golden_serre_dual(self):
        sec = secondary_edge(GOLDEN)
        assert sec.extremal_character == ChernCharacter(-5, 22, -46)
        assert euler_pairing(GOLDEN, sec.extremal_character) == 0
        assert sec.extremal_character.r < 0  # the secondary half-plane

    def test_rank_two_singular_locus(self):
        sec = secondary_edge(REMARK)
        assert sec.mode is SecondaryMode.RANK2_SINGULAR_LOCUS
        assert sec.extremal_character == ChernCharacter(-2, 3, F(-27, 2))
        assert (sec.invariants.mu, sec.invariants.delta) == (F(-3, 2), F(-45, 8))
        assert euler_pairing(REMARK, sec.extremal_character) == 0
        assert sec.extremal_character.r < 0
        combined = REMARK.tensor(sec.extremal_character)
        assert combined.ch1 / combined.ch0 == F(-3, 2)

    def test_rank_one_descriptor_only(self):
        sec = secondary_edge(ChernCharacter(1, 0, -4))
        assert sec.mode is SecondaryMode.RANK1_HILBERT_CHOW
        assert sec.extremal_character is None
        assert "Hilbert-Chow" in sec.descriptor

    def test_rank_zero_descriptor_only(self):
        sec = secondary_edge(ChernCharacter(0, 4, -5))
        assert sec.mode is SecondaryMode.RANK0_SUPPORT_MAP
        assert sec.extremal_character is None
        assert "support" in sec.descriptor

    @pytest.mark.parametrize("x", [
        ChernCharacter(-2, 1, 3),
        ChernCharacter(F(5, 2), 0, 0),
        ChernCharacter(1, F(1, 2), 0),
        ChernCharacter(1, 0, 0),
        ChernCharacter(3, 0, 0),
        ChernCharacter(0, 2, 1),
    ], ids=str)
    def test_no_edge_where_the_report_has_none(self, x):
        assert cone_report(x).secondary is None
        with pytest.raises(DomainError):
            secondary_edge(x)


class TestConeReport:
    def test_golden_report(self):
        rep = cone_report(GOLDEN)
        assert rep.primary.basis_coords == (F(1, 3), F(1, 3))
        assert rep.primary.movable_edge_coincides

    def test_zero_case_movable_edge_differs(self):
        rep = cone_report(GOLDEN_DUAL)
        assert rep.primary.invariants.case_sign is CaseSign.ZERO
        assert not rep.primary.movable_edge_coincides

    def test_height_zero_classification_only(self):
        rep = cone_report(ChernCharacter.from_rmd(1, 0, 1))
        assert rep.classification.kind is Kind.HEIGHT_ZERO
        assert rep.primary is None and rep.secondary is None
        assert rep.dimension == 2
        assert "Picard rank one" in rep.note

    def test_exceptional_classification_only(self):
        rep = cone_report(from_slope_value(F(1, 2)).character())
        assert rep.classification.kind is Kind.EXCEPTIONAL
        assert rep.dimension == 0
        assert rep.primary is None
        assert "point" in rep.note

    def test_invalid_report(self):
        rep = cone_report(ChernCharacter(1, 0, F(1, 3)))
        assert rep.classification.kind is Kind.INVALID
        assert rep.primary is None

    def test_negative_case_full_report(self):
        rep = cone_report(NEGATIVE_CASE)
        assert rep.primary.invariants.case_sign is CaseSign.NEGATIVE
        assert rep.primary.resolution.m3 == 1
        assert rep.primary.kronecker.expected_dimension == 6
        assert rep.secondary.mode is SecondaryMode.SERRE_DUAL

    def test_rank_zero_report(self):
        rep = cone_report(ChernCharacter(0, 4, -5))
        assert rep.classification.kind is Kind.RANK_ZERO_PICARD_RANK_2
        assert rep.dimension is None
        assert rep.primary.resolution is None and rep.primary.kronecker is None
        assert rep.secondary.mode is SecondaryMode.RANK0_SUPPORT_MAP
        assert euler_pairing(rep.input, rep.primary.extremal_character) == 0

    def test_off_curve_note_present(self):
        rep = cone_report(REMARK)
        assert rep.note is not None and "non-effective" in rep.note

    def test_multiplier_threading(self):
        """No multiplier reaches a ray: ``max_order`` is keyword-only, so an old positional
        multiplier is a ``TypeError``, never an order budget."""
        for call in (lambda: cone_report(GOLDEN, multiplier=3), lambda: cone_report(GOLDEN, 3),
                     lambda: secondary_edge(GOLDEN, 3), lambda: secondary_edge(GOLDEN, 1, 64)):
            with pytest.raises(TypeError):
                call()
        assert cone_report(GOLDEN, max_order=3).primary.extremal_character.ch0 == 1


# One character of each kind, with each secondary mode among them.
EVERY_KIND = [GOLDEN, REMARK, ChernCharacter(1, 0, -4), ChernCharacter(0, 4, -5),
              ChernCharacter(2, 1, F(-1, 2)), ChernCharacter.from_rmd(1, 0, 1),
              ChernCharacter(-2, 1, 3)]
NO_EDGE = "^no intersection slope for {} characters$"
NO_RESOLUTION = "^resolutions are computed for positive-rank Picard-rank-2 characters$"


def test_every_kind_and_mode_is_covered():
    reports = [cone_report(x) for x in EVERY_KIND]
    assert {r.classification.kind for r in reports} == set(Kind)
    assert {r.secondary.mode for r in reports if r.secondary} == set(SecondaryMode)


@pytest.mark.parametrize("x", EVERY_KIND, ids=str)
def test_stage_views_read_the_report(x):
    """Each traced stage view is one field of the report, or ``DomainError`` where it has none."""
    report = cone_report(x)
    primary, no_edge = report.primary, NO_EDGE.format(report.classification.kind.value)
    views = [(orthogonal_invariants, primary and primary.invariants, no_edge),
             (resolution_multiplicities, primary and primary.resolution, NO_RESOLUTION),
             (kronecker_data, primary and primary.kronecker, NO_RESOLUTION),
             (secondary_edge, report.secondary, no_edge)]
    for view, field, message in views:
        if field is None:
            with pytest.raises(DomainError, match=message):
                view(x)
        else:
            assert view(x) == field


@pytest.mark.parametrize("m", [0, -1, 1.5, F(3, 2), 2.0, F(2), True, "2", None], ids=repr)
@pytest.mark.parametrize("x", EVERY_KIND, ids=str)
def test_multiplier_must_be_a_positive_int(x, m):
    """No multiplier is taken, whatever the kind: a second positional argument, a value the
    old gate let through or refused, is a ``TypeError`` before any work."""
    with pytest.raises(TypeError):
        cone_report(x, m)
    with pytest.raises(TypeError):
        cone_report(x, multiplier=m)
    assert cone_report(x).input is x


@pytest.mark.parametrize("m", [-1, 1.5, F(3), 2.0, True, "3", None], ids=repr)
@pytest.mark.parametrize("x", EVERY_KIND, ids=str)
def test_max_order_must_be_a_non_negative_int(x, m):
    """Refused by ``cone_report`` and ``classify`` before any work, whatever the kind."""
    refused = "^max_order must be an int >= 0, got "
    with pytest.raises(DomainError, match=refused):
        cone_report(x, max_order=m)
    with pytest.raises(DomainError, match=refused):
        classify(x, m)
    for budget in (0, 12):
        try:
            assert cone_report(x, max_order=budget).input is x
        except DescentError:  # a budget of 0 can be too small, but it is not refused
            assert budget == 0


@pytest.mark.parametrize("m", [0, 2.5, F(2), 2.0, True], ids=repr)
def test_orthogonal_character_refuses_a_non_int_multiplier(m):
    """No multiplier is taken: a second positional argument is a ``TypeError``."""
    inv = cone_report(NEGATIVE_CASE).primary.invariants
    with pytest.raises(TypeError):
        orthogonal_character(inv, m)


@pytest.mark.parametrize("m", [1.5, "3", None, True, F(3), -1], ids=repr)
@pytest.mark.parametrize("x", [NEGATIVE_CASE, GOLDEN_DUAL], ids=["negative", "zero"])
def test_orthogonal_character_refuses_a_bad_max_order(x, m):
    """Refused as ``classify`` refuses it, whether or not the case checks the boundary."""
    inv = cone_report(x).primary.invariants
    with pytest.raises(DomainError, match="^max_order must be an int >= 0, got "):
        orthogonal_character(inv, max_order=m)
    assert orthogonal_character(inv, max_order=3) == inv.ray


class TestNonPrimitiveAndDualCases:
    def test_doubled_character_scales_consistently(self):
        doubled = GOLDEN.scale(2)
        rep = cone_report(doubled)
        assert rep.classification.kind is Kind.PICARD_RANK_2
        assert rep.dimension == 36 * (2 * F(17, 9) - 1) + 1 == 101
        assert rep.primary.invariants.point == orthogonal_invariants(GOLDEN).point
        res = rep.primary.resolution
        assert (res.m1, res.m2, res.m3) == (8, 12, 2)

    def test_secondary_with_dual_positive_case(self):
        x = ChernCharacter(3, -8, 5)
        sec = secondary_edge(x)
        assert sec.mode is SecondaryMode.SERRE_DUAL
        assert sec.dual_primary.invariants.case_sign is CaseSign.POSITIVE
        assert euler_pairing(x, sec.extremal_character) == 0
        assert sec.extremal_character.r < 0
        assert sec.invariants.mu == -sec.dual_primary.invariants.point.mu
        assert sec.invariants.delta == sec.dual_primary.invariants.point.delta

    def test_zero_case_point_sits_on_orthogonal_parabola(self, grid):
        seen = 0
        for x in grid:
            inv = orthogonal_invariants(x)
            if inv.case_sign is not CaseSign.ZERO:
                continue
            gamma = inv.corresponding_slope
            assert hilbert_poly(x.slope() + gamma.slope) - x.discriminant() == gamma.discriminant
            seen += 1
        assert seen >= 50


def _planecones_caches() -> list:
    """Every ``lru_cache`` bound at the top level of a ``planecones`` module."""
    import sys

    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("planecones"):
            for value in vars(module).values():
                if hasattr(value, "cache_parameters"):  # not an alias such as delta_curve
                    found[id(value)] = value
    return list(found.values())


def test_ten_thousand_reports_keep_every_store_bounded():
    """10**4 reports on distinct slopes evict from ``boundary_at`` and grow nothing else.

    The ranks are the prime 10007, so the slopes ``c1/10007`` for
    ``0 <= c1 < 10**4`` are pairwise distinct, and ``chi`` puts the
    discriminant near 5, well above the boundary curve: each is a full
    Picard-rank-2 report, rendered too, and classifies without a descent,
    so the boundary at each slope is evaluated beside it and misses the cache.
    """
    import sys

    from planecones import cli, cone, exceptional

    def containers():
        return {(name, attr): len(value)
                for name, module in sys.modules.items() if name.startswith("planecones")
                for attr, value in vars(module).items()
                if not attr.startswith("__") and isinstance(value, (dict, list, set, bytearray))}

    boundary = exceptional.boundary_at
    caches = _planecones_caches()
    for cache in (exceptional._interval_halfwidth, cone._triad, cli._slope_fields,
                  cli._triad_character_fields):
        assert cache in caches
    boundary.cache_clear()
    before = containers()
    r = 10007
    for c1 in range(10 ** 4):
        chi = (c1 * c1 + 3 * r * c1) // (2 * r) - 4 * r
        report = cone_report(character_from_json({"r": r, "c1": c1, "chi": chi}))
        assert report.primary
        cli.report_to_dict(report)
        exceptional.delta_curve(Fraction(c1, r))
    info = boundary.cache_info()
    assert info.misses >= 10 ** 4 and info.currsize == info.maxsize == 4096
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize <= info.maxsize
    assert containers() == before


def test_triad_and_render_caches_evict():
    """Filled past their bound with distinct addresses, the per-slope caches evict the oldest."""
    from planecones import cli, cone, exceptional
    from planecones.exceptional import DyadicRational

    caches = (cone._triad, cli._slope_fields, cli._triad_character_fields)
    for cache in caches:
        cache.cache_clear()
        assert cache.cache_info().maxsize == 1024
    # 1,124 distinct addresses of order 11 in (0, 1.1)
    triples = [exceptional.slope_and_parents(DyadicRational(p, 11)) for p in range(1, 2249, 2)]

    def fill(left, gamma, right):
        triad = cone._triad(*triad_key(left, gamma, right))
        cli._slope_dict(gamma)
        cli._triad_dicts(triad.image_chars[2:], "", int_digit_limit())

    for triple in triples:
        fill(*triple)
    for cache in caches:
        info = cache.cache_info()
        assert info.misses == len(triples) and info.currsize == info.maxsize
    fill(*triples[-1])  # the newest entries are kept
    fill(*triples[0])  # the oldest are gone
    for cache in caches:
        info = cache.cache_info()
        assert info.hits == 1 and info.misses == len(triples) + 1


def test_classify_matches_the_boundary_at_every_slope():
    """The shortcut above delta = 1 gives the descent's answer, exceptions included."""
    import random

    from conftest import boundary_classify

    def outcome(classifier, x):
        try:
            return classifier(x)
        except Exception as exc:  # both paths must fail alike
            return type(exc)

    # the grid box, rank zero too
    box = [character_from_json({"r": r, "c1": c1, "chi": chi})
           for r in range(7) for c1 in range(-8, 9) for chi in range(-6, 7)]
    rng = random.Random(15)
    above = []
    while len(above) < 2000:
        r = rng.randint(1, 10 ** rng.randint(1, 30))
        c1 = rng.randint(-3 * r, 3 * r)
        # delta > 1 exactly when chi < c1 (c1 + 3r) / (2r)
        top = -(-c1 * (c1 + 3 * r) // (2 * r)) - 1
        chi = top - rng.choice((0, 1, rng.randint(0, r), rng.randint(0, 10 * r)))
        above.append(character_from_json({"r": r, "c1": c1, "chi": chi}))
        # at or just below delta = 1 both paths descend
        if len(above) % 10 == 0:
            box.append(character_from_json({"r": r, "c1": c1, "chi": top + rng.randint(1, 3)}))
    for x in above:
        assert x.discriminant() > 1
        assert classify(x) == boundary_classify(x) and classify(x).kind is Kind.PICARD_RANK_2
    for x in box:
        assert outcome(classify, x) == outcome(boundary_classify, x)


def test_triad_record_matches_the_affine_images():
    """``_triad`` against ``affine_image(...).character()`` and ``euler_chi_pair``."""
    from planecones import cone, exceptional
    from planecones.chern import euler_chi_pair

    image = exceptional.affine_image
    slopes = enumerate_slopes(-3, 3, 8)
    assert len(slopes) == 6 * 2 ** 8 + 1
    for g in slopes:
        left, gamma, right = exceptional.slope_and_parents(g.dyadic)
        assert gamma == g
        triad = cone._triad(*triad_key(left, gamma, right))
        assert triad.slope == gamma and triad.slope.dyadic == g.dyadic
        images = (image(left, True, -3), image(right, True, 0),
                  image(gamma, True, 0), image(gamma, True, -3))
        assert triad.images == images
        assert triad.image_chars == tuple(s.character() for s in images)
        assert (triad.alpha, triad.gamma, triad.beta) == tuple(
            s.character() for s in (left, gamma, right))
        assert triad.hom_count == euler_chi_pair(images[0].character(), images[1].character()) > 0


def test_reports_from_cold_caches_match_warm_ones():
    """Every ``grid`` report, with each cache cleared first, renders as with warm caches."""
    import json

    from planecones import cli

    box = [character_from_json({"r": r, "c1": c1, "chi": chi})
           for r in range(1, 7) for c1 in range(-8, 9) for chi in range(-6, 7)]
    caches = _planecones_caches()

    def rendered(x):
        return json.dumps(cli.report_to_dict(cone_report(x)))

    for x in box:
        rendered(x)
    warm = [rendered(x) for x in box]
    cold = []
    for x in box:
        for cache in caches:
            cache.cache_clear()
        cold.append(rendered(x))
    assert cold == warm


def test_a_report_dict_shares_nothing_with_the_caches():
    import json

    from planecones import cli

    for x in (GOLDEN, NEGATIVE_CASE):
        first = cli.report_to_dict(cone_report(x))
        expected = json.dumps(first)
        for edge in (first["primary"], first["secondary"]["serre_dual_pipeline"]):
            edge["invariants"]["corresponding_slope"]["interval"]["left"] = "0"
            edge["invariants"]["corresponding_slope"]["rank"] = 0
            edge["resolution"]["triad_characters"][0]["chi"] = "0"
        first["secondary"]["corresponding_slope"]["interval"]["right"] = "0"
        assert json.dumps(cli.report_to_dict(cone_report(x))) == expected


class TestChecksFireOnCorruptedInput:
    """Each cross-check a report runs raises ``ConsistencyError`` on a corrupted stage.

    The stages are handed a record with one field changed, as a bug upstream
    would hand it over; each uncorrupted call passes.  The public
    ``bridgeland_wall`` refuses a ray with no real radius as bad input, with
    ``DomainError``.  A message on a ray names the input and the values that
    failed.
    """

    @staticmethod
    def stages(x):
        """The invariants, gamma's triad, resolution and Kronecker data of ``x``'s primary side."""
        from planecones import cone
        from planecones.exceptional import parents

        inv = cone_report(x).primary.invariants
        gamma = inv.corresponding_slope
        left, right = parents(gamma)
        triad = cone._triad(*triad_key(left, gamma, right))
        res = cone._resolution(x, triad, inv.case_sign, euler_pairing(x, triad.gamma))
        return inv, triad, res, cone._kronecker(res, triad.hom_count, moduli_dimension(x))

    @pytest.mark.parametrize("field", ["r", "c1", "chi"])
    @pytest.mark.parametrize("x", [GOLDEN, NEGATIVE_CASE, GOLDEN_DUAL],
                             ids=["positive", "negative", "zero"])
    def test_rebuild(self, x, field):
        from planecones import cone

        _, triad, res, _ = self.stages(x)
        assert res == cone_report(x).primary.resolution
        pairing = euler_pairing(x, triad.gamma)
        # one field of E_{-beta}, which every case resolves by m2 > 0 copies, moved by 1
        chars = list(triad.image_chars)
        fields = {name: getattr(chars[1], name) for name in ("r", "c1", "chi")}
        fields[field] += 1
        chars[1] = ChernCharacter._trusted(*fields.values())
        assert res.m2 > 0
        with pytest.raises(ConsistencyError, match=r"^resolution of .* rebuilds "):
            cone._resolution(x, replace(triad, image_chars=tuple(chars)), res.case_sign, pairing)

    def test_multiplicities(self):
        from planecones import cone

        triad = self.stages(GOLDEN)[1]
        with pytest.raises(ConsistencyError, match=r"^multiplicity -1 is negative"):
            cone._resolution(GOLDEN, triad, CaseSign.POSITIVE, -1)
        # a multiplicity of 0 is not negative: the rebuild catches the wrong pairing
        with pytest.raises(ConsistencyError, match=r"^resolution of .* rebuilds "):
            cone._resolution(GOLDEN, triad, CaseSign.POSITIVE, 0)

    @pytest.mark.parametrize("x, message", [
        (GOLDEN_DUAL, "^birational fibration but dim"),
        (GOLDEN, "^fibration with positive-dimensional fibers needs dim"),
    ], ids=["birational", "fibers"])
    def test_kronecker_dimension(self, x, message):
        """The dimension is worked out once and handed in; a wrong one is caught."""
        from planecones import cone

        _, triad, res, kron = self.stages(x)
        report = cone_report(x)
        assert report.dimension == moduli_dimension(x) == moduli_dimension(x.serre_dual())
        assert kron == report.primary.kronecker
        # the expected dimension itself is wrong only where the fibers have positive dimension
        wrong = kron.expected_dimension - (kron.fibration is Fibration.BIRATIONAL)
        with pytest.raises(ConsistencyError, match=message):
            cone._kronecker(res, triad.hom_count, wrong)

    @staticmethod
    def _primary(x, inv, triad, res, kron):
        from planecones import cone
        from planecones.exceptional import DEFAULT_MAX_ORDER

        return cone._primary_edge(x, inv, triad, res, kron, DEFAULT_MAX_ORDER)

    def test_orthogonality(self):
        from planecones import cone

        stages = self.stages(GOLDEN)
        assert self._primary(GOLDEN, *stages) == cone_report(GOLDEN).primary
        with pytest.raises(ConsistencyError, match="^primary ray is not orthogonal") as error:
            self._primary(NEGATIVE_CASE, *stages)  # another character's ray
        ray = cone_report(GOLDEN).primary.extremal_character
        assert f"input {NEGATIVE_CASE}: pairing ({NEGATIVE_CASE}, {ray}) = " in str(error.value)
        # two classes of one slope leave only rank zero orthogonal to both
        with pytest.raises(ConsistencyError, match="^the classes orthogonal to .* have rank zero"):
            cone._ray(GOLDEN, GOLDEN.scale(2))

    def test_half_plane(self):
        inv, *rest = self.stages(GOLDEN_DUAL)
        assert inv.case_sign is CaseSign.ZERO
        # a ray of negative rank, and the orthogonal class of rank zero
        for ray in (-inv.ray, natural_classes(GOLDEN_DUAL)[1]):
            with pytest.raises(ConsistencyError,
                               match="^primary ray fell outside the primary") as error:
                self._primary(GOLDEN_DUAL, replace(inv, ray=ray), *rest)
            assert f": {ray} for {GOLDEN_DUAL}" in str(error.value)

    def test_double_orthogonality(self):
        inv, triad, res, kron = self.stages(GOLDEN)
        assert inv.case_sign is CaseSign.POSITIVE
        chars = triad.image_chars
        wrong = replace(triad, image_chars=(chars[0], chars[1], chars[3], chars[3]))
        with pytest.raises(ConsistencyError,
                           match="^positive-case double orthogonality") as error:
            self._primary(GOLDEN, inv, wrong, res, kron)
        ray = cone_report(GOLDEN).primary.extremal_character
        assert f"failed for {GOLDEN}: pairing ({ray}, {chars[3]}) = " in str(error.value)

    def test_boundary(self):
        from planecones import cone

        inv, *rest = self.stages(GOLDEN)
        mu = F(1, 4)  # in gamma's interval, where gamma's arc is the boundary
        below = ray_at(SlopeDisc(mu, delta_curve(mu) - F(1, 10 ** 6)))
        with pytest.raises(ConsistencyError, match="below the boundary curve"):
            self._primary(GOLDEN, replace(inv, ray=below), *rest)
        # (1, 0, 10) has delta = -9 < -5/8: no real mu0 and no real wall radius
        far_below = ChernCharacter._trusted(1, 0, 10)
        with pytest.raises(ConsistencyError, match="^negative discriminant radicand") as error:
            cone._mu0(far_below)
        assert str(error.value).endswith(f": -67 for {far_below}")  # 5 r^2 + 8 r^2 delta
        with pytest.raises(DomainError, match="^negative squared radius$"):
            bridgeland_wall(replace(inv, ray=far_below))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda ray: ray + ChernCharacter(1, 0, 0), "^secondary ray is not orthogonal"),
        (lambda ray: -ray, "^secondary ray fell outside the secondary half-plane"),
    ], ids=["orthogonality", "half_plane"])
    def test_secondary_ray(self, monkeypatch, corrupt, message):
        from planecones import cone

        edge = cone._secondary_edge

        def corrupted(*args):
            sec = edge(*args)
            return replace(sec, extremal_character=corrupt(sec.extremal_character))

        monkeypatch.setattr(cone, "_secondary_edge", corrupted)
        with pytest.raises(ConsistencyError, match=message) as error:
            cone_report(GOLDEN)
        assert str(GOLDEN) in str(error.value)
