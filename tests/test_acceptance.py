"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is exact; comparisons are integer or rational equality,
or exact sign decisions for quadratic irrationals.  Run with ``pytest -s``
to see the per-criterion lines.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from conftest import (
    CASE_1_PRIME_FAMILY, FractionQuadratic, delta_curve_at, stable_orthogonal_slopes_below,
)

from planecones.cfrac import (
    cf_eval,
    even_expansion,
    lr_parents,
    lr_to_slope,
    odd_expansion,
    parity_convert,
    period_structure,
    slope_to_lr,
    smallest_period,
    word_to_dyadic,
)
from planecones.chern import ChernCharacter, euler_pairing, hilbert_poly, moduli_dimension
from planecones.cone import (
    CaseSign,
    Fibration,
    Kind,
    SecondaryMode,
    classify,
    cone_report,
    orthogonal_invariants,
)
from planecones.exceptional import (
    DEFAULT_MAX_ORDER,
    delta_curve,
    enumerate_slopes,
    epsilon,
    parents,
)
from planecones.qarith import QuadraticNumber, integer_form, sqrt_exact

F = Fraction


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    else:
        print(f"[acceptance] {label}: PASS")


def test_criterion_1_golden_example():
    with criterion("criterion 1 (worked rank-3 example, exact)"):
        x = ChernCharacter.from_rmd(3, F(2, 3), F(17, 9))
        report = cone_report(x)

        assert report.dimension == 26
        assert report.mu0_plus.compare(QuadraticNumber(F(-13, 6), F(1, 6), 181)) == 0
        assert report.mu0_minus.compare(QuadraticNumber(F(-13, 6), F(-1, 6), 181)) == 0

        primary = report.primary
        assert primary.invariants.corresponding_slope.slope == 0
        assert (primary.invariants.point.mu, primary.invariants.point.delta) == (1, 3)

        res = primary.resolution
        assert (res.m1, res.m2, res.m3) == (4, 6, 1)
        assert [s.slope for s in res.triad_slopes] == [-2, -1, 0]

        kron = primary.kronecker
        assert kron.hom_count == 3
        assert kron.dim_vector == (4, 6)
        assert kron.expected_dimension == 21

        secondary = report.secondary
        assert secondary.mode is SecondaryMode.SERRE_DUAL
        assert secondary.corresponding_slope.slope == F(-22, 5)
        assert (secondary.invariants.mu, secondary.invariants.delta) == (F(-22, 5), F(12, 25))

        dual = secondary.dual_primary
        assert (dual.resolution.m1, dual.resolution.m2, dual.resolution.m3) == (1, 2, None)
        assert [s.slope for s in dual.resolution.triad_slopes] == [-7, F(-9, 2)]
        assert dual.kronecker.hom_count == 15
        assert dual.kronecker.dim_vector == (1, 2)
        assert dual.kronecker.fibration is Fibration.BIRATIONAL
        assert dual.kronecker.expected_dimension == 26


def test_criterion_2_slope_table():
    with criterion("criterion 2 (slope/order table on [0, 1/2], exact)"):
        table = enumerate_slopes(0, F(1, 2), 4)
        got = {s.slope: s.order for s in table}
        assert got == {
            F(0): 0,
            F(13, 34): 4,
            F(5, 13): 3,
            F(75, 194): 4,
            F(2, 5): 2,
            F(179, 433): 4,
            F(12, 29): 3,
            F(70, 169): 4,
            F(1, 2): 1,
        }


def test_criterion_3_continued_fraction_golden_data():
    with criterion("criterion 3 (left-right word table and 19760/51641, exact)"):
        table = [
            ("", None, None, "", None),
            ("R", "", None, "11", "2"),
            ("RL", "", "R", "22", "211"),
            ("RLL", "", "RL", "2112", "21111"),
            ("RLLL", "", "RLL", "211112", "2111111"),
            ("RLLLR", "RLLL", "RLL", "211112211112", "2111122111111"),
            ("RLLLRR", "RLLLR", "RLL", "211112211112211112", "2111122111122111111"),
        ]
        for word, pare_left, pare_right, even, odd in table:
            slope = lr_to_slope(word)
            assert even_expansion(slope) == even
            if odd is not None:
                assert odd_expansion(slope) == odd
            if word:
                assert lr_parents(word) == (pare_left, pare_right)

        gamma = lr_to_slope("RLLLRR")
        digits = "211112211112211112"
        assert gamma.slope == F(19760, 51641)
        assert word_to_dyadic("RLLLRR").value == F(7, 64)
        assert epsilon(word_to_dyadic("RLLLRR")) == F(19760, 51641)
        assert cf_eval(digits) == F(19760, 51641)
        assert even_expansion(gamma) == digits
        assert [int(c) for c in digits] == [2, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 2]


def test_criterion_4_continued_fraction_properties():
    with criterion("criterion 4 (expansion properties, order <= 8 exhaustive)"):
        slopes = [
            s for s in enumerate_slopes(0, F(1, 2), 8) if 0 < s.slope < F(1, 2)
        ]
        assert len(slopes) == 127
        for s in slopes:
            word = even_expansion(s)
            assert set(word) <= {"1", "2"}
            assert word == word[::-1]
            assert cf_eval(word) == s.slope
            left, right = parents(s)
            assert word == parity_convert(even_expansion(right)) + "2" + even_expansion(left)
            _, lr = slope_to_lr(s)
            if lr.endswith("R"):
                ps = period_structure(lr)
                assert ps.block * ps.exponent + ps.tail == word
                if ps.beta_is_half:
                    assert set(word) == {"2"}
                else:
                    assert smallest_period(word) == len(ps.block)


def test_criterion_5_cone_pipeline_properties(grid):
    with criterion("criterion 5 (cone pipeline over the character grid, exact)"):
        assert len(grid) >= 500
        for x in grid:
            report = cone_report(x)
            inv = report.primary.invariants
            gamma = inv.corresponding_slope
            assert gamma.order <= DEFAULT_MAX_ORDER
            ray = report.primary.extremal_character

            assert euler_pairing(x, ray) == 0
            if inv.case_sign is CaseSign.POSITIVE:
                opposite = ChernCharacter.from_rmd(
                    gamma.rank, -gamma.slope, gamma.discriminant
                )
                assert euler_pairing(ray, opposite) == 0
                left_end, _ = gamma.interval()
                assert left_end.compare(inv.point.mu) < 0

            res = report.primary.resolution
            ms = [m for m in (res.m1, res.m2, res.m3) if m is not None]
            assert all(isinstance(m, int) and m >= 0 for m in ms)
            if res.case_sign is CaseSign.POSITIVE:
                rebuilt = (
                    res.triad[0].scale(-res.m1)
                    + res.triad[1].scale(res.m2)
                    + res.triad[2].scale(res.m3)
                )
            elif res.case_sign is CaseSign.NEGATIVE:
                rebuilt = (
                    res.triad[1].scale(-res.m1)
                    + res.triad[2].scale(res.m2)
                    + res.triad[0].scale(-res.m3)
                )
            else:
                rebuilt = res.triad[0].scale(-res.m1) + res.triad[1].scale(res.m2)
            assert rebuilt == x

            kron = report.primary.kronecker
            dim = moduli_dimension(x)
            assert dim >= 2
            if inv.case_sign is CaseSign.ZERO:
                assert kron.fibration is Fibration.BIRATIONAL
                assert dim == kron.expected_dimension
            else:
                assert kron.fibration is Fibration.POSITIVE_DIM_FIBERS
                assert dim > kron.expected_dimension


def test_criterion_6_delta_curve_checks():
    with criterion("criterion 6 (boundary-curve identities, exact)"):
        half = QuadraticNumber(F(1, 2))
        for s in enumerate_slopes(-1, 2, 6):
            left, right = s.interval()
            width = FractionQuadratic.of(s.interval_halfwidth())
            # both branch values at the edges, symbolically
            branch = (width * width - 3 * width + 2) / 2 - s.discriminant
            assert branch.number().compare(half) == 0
            assert delta_curve_at(left).compare(half) == 0
            assert delta_curve_at(right).compare(half) == 0

        rng = random.Random(65537)
        for _ in range(200):
            q = rng.randint(1, 120)
            mu = F(rng.randint(0, q), q)
            assert delta_curve(mu) >= F(1, 2)

        for _ in range(1000):
            alpha = F(rng.randint(-60, 60), rng.randint(1, 20))
            mu = F(rng.randint(-60, 60), rng.randint(1, 20))
            assert hilbert_poly(alpha - mu) == hilbert_poly(mu - alpha - 3)


def test_criterion_7_minimal_slope_oracle(grid):
    with criterion("criterion 7 (brute-force minimal-slope oracle, exact)"):
        checked = 0
        for x in grid:
            inv = orthogonal_invariants(x)
            if not inv.on_delta_curve:
                continue
            below = stable_orthogonal_slopes_below(x, inv.point.mu)
            assert below == [], (str(x), below[:3])
            checked += 1
            if checked == 60:
                break
        assert checked >= 50

        # characters where the invariants leave the boundary curve: a strictly
        # smaller stable orthogonal slope exists and the report says so
        assert len(CASE_1_PRIME_FAMILY) >= 3
        for x in CASE_1_PRIME_FAMILY:
            report = cone_report(x)
            inv = report.primary.invariants
            assert inv.case_sign is CaseSign.POSITIVE
            assert not inv.on_delta_curve
            assert inv.point.mu > inv.corresponding_slope.slope
            below = stable_orthogonal_slopes_below(x, inv.point.mu)
            assert below, str(x)
            assert report.note is not None

        # documented discrepancy: the published aside quotes 21/10 for
        # M(2, 0, 11/2); the construction rule yields 9/4, and the brute
        # force confirms 21/10 as the smallest stable orthogonal slope
        remark = CASE_1_PRIME_FAMILY[0]
        inv = orthogonal_invariants(remark)
        assert (inv.point.mu, inv.point.delta) == (F(9, 4), F(45, 32))
        witness = ChernCharacter.from_rmd(1, F(9, 4), F(45, 32))
        assert euler_pairing(remark, witness) == 0
        assert euler_pairing(ChernCharacter.from_rmd(1, -2, 0), witness) == 0
        below = stable_orthogonal_slopes_below(remark, inv.point.mu)
        assert min(below) == F(21, 10)


def test_criterion_8_arithmetic_substrate():
    with criterion("criterion 8 (exact arithmetic vs 100-digit decimals)"):
        rng = random.Random(181)

        def random_qn():
            a = F(rng.randint(-400, 400), rng.randint(1, 60))
            b = F(rng.randint(-400, 400), rng.randint(1, 60))
            d = rng.randint(0, 600)
            return QuadraticNumber(a, b, d)

        for i in range(10_000):
            x = random_qn()
            if i % 4 == 0:
                m = rng.randint(1, 30)
                y = QuadraticNumber(x.a, x.b / m, x.d * m * m)  # a square left in the radicand
            elif i % 4 == 1:
                y = QuadraticNumber(x.a, x.b, x.d)
            else:
                y = random_qn()
            cmp = x.compare(y)
            xlo, xhi = x.bounds(100)
            ylo, yhi = y.bounds(100)
            if xhi < ylo:
                assert cmp < 0
            elif yhi < xlo:
                assert cmp > 0
            else:
                # enclosures of width < 10^-97 overlap only for equal values here
                assert cmp == 0
                assert integer_form(x) == integer_form(y)

        for _ in range(1000):
            value = F(rng.randint(0, 3000), rng.randint(1, 300))
            root = sqrt_exact(value)
            A, B, d, D = integer_form(root)
            assert A * B == 0 and F(A * A + B * B * d, D * D) == value
            reparsed = QuadraticNumber.parse(str(root))
            assert (reparsed.a, reparsed.b, reparsed.d) == (root.a, root.b, root.d)

        p = rng.randint(2, 40)
        for _ in range(200):
            q = F(rng.randint(0, 500), rng.randint(1, 50))
            root = sqrt_exact(q)
            scaled = QuadraticNumber(p * root.a, p * root.b, root.d)
            assert sqrt_exact(p * p * q).compare(scaled) == 0


def test_descent_termination_for_pipeline_inputs(grid):
    with criterion("descent termination (all pipeline intersections resolve)"):
        for x in grid[::7]:
            gamma = orthogonal_invariants(x).corresponding_slope
            assert gamma.order <= DEFAULT_MAX_ORDER
        for x in CASE_1_PRIME_FAMILY:
            assert classify(x).kind is Kind.PICARD_RANK_2
            assert orthogonal_invariants(x).corresponding_slope.order <= DEFAULT_MAX_ORDER
