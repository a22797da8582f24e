"""Deterministic work counters for a full cone report (no timing).

Each square root taken by ``sqrt_ratio`` (which ``sqrt_exact`` calls)
factors its radicand once; every other ``QuadraticNumber`` operation reuses
the radicand of its operands.  A report that factors more often than it
takes square roots is re-factoring reduced radicands on its hot path.

A report makes one classification, takes one root ``sqrt(5 + 8 delta)``
and works out the moduli dimension once: the Serre dual shares all three,
since it has the same classification and discriminant and its ``mu0+`` is
the character's ``-mu0-``.  Classification descends only when
``delta <= 1``, since the boundary curve never rises above 1.  Each side of
the cone makes one descent to its corresponding slope, which hands back
gamma's parents too, and no slope whose dyadic address is already known goes
back through a descent or a walk.  A descent runs on integers
(``exceptional._bracket``); the slope objects of its hit and the hit's
parents are built only when gamma's triad is not cached yet.

A warm report, rendered as the benchmark renders it, has exact budgets of
objects and cache lookups.  Its records come from trusted constructors, not
the checked ``Record.__init__``; every cache it looks up is keyed on
integers alone (the boundary curve's on a slope's numerator and
denominator), so no record is hashed or compared; walls, natural-basis
coordinates, the boundary lookups and rendering build no ``Fraction``; and
the Serre dual descends on ``-mu0-``'s integer form without building it.
No enum member is read off its class: the members a report compares
against are module constants, bound at import.

A descent probes one integer, the one nearer its point, then one mediant
per level.

Each radicand at or above ``2**16`` that is not a perfect square costs one
gcd with the product of the primes up to the trial-division bound, the
first step of ``squarefree_decompose``'s gcd chain; smaller and square
radicands cost none.

A rational handed in as a slope is looked up by exact comparison with the
mediants down its walk, so it makes no descent and no membership probe.

An LR word is a spelling of a dyadic address, so the slope it names takes
one walk, on every call, since no walk is kept.  The walk steps once per
level of an alternating word, and jumps each run of equal letters in one
step, whose matrix power takes one product per bit of the run's length.
An expansion or a period block is joined from the parents' expansions
along the address, with no walk; a record handed in for its expansion
takes one walk, which checks its bundle.
"""

import json
import math
from enum import EnumMeta
from fractions import Fraction

import pytest

import planecones
from planecones import cfrac, chern, cone, exceptional, qarith, record
from planecones.chern import ChernCharacter, character_from_json
from planecones.cli import main, report_to_dict
from planecones.cone import Kind
from planecones.errors import DomainError

from conftest import ORDER_FOUR, PrimorialGcds, capped, descent_slopes

GOLDEN = ChernCharacter.from_rmd(3, Fraction(2, 3), Fraction(17, 9))


@pytest.fixture
def counts(monkeypatch):
    tally = {name: 0 for name in (
        "squarefree_decompose", "sqrt_ratio", "classify", "_bracket", "from_slope_value",
    )}
    radicands = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            if name == "sqrt_ratio":
                radicands.append(Fraction(*args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        qarith, "squarefree_decompose",
        counted("squarefree_decompose", qarith.squarefree_decompose),
    )
    for name, home in (("sqrt_ratio", qarith), ("classify", cone),
                       ("_bracket", exceptional), ("from_slope_value", exceptional)):
        wrapper = counted(name, getattr(home, name))
        for module in (qarith, exceptional, cone, planecones):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    tally["radicands"] = radicands
    return tally


# Descents per report: mu0+ on each side, since both characters have delta > 1
# and classify without one.  The boundary at an invariant point is gamma's arc
# when gamma's interval holds the point; the worked example's primary point
# lies off the curve and descends.
CASES = pytest.mark.parametrize(
    "x, order, descents", [(GOLDEN, 0, 3), (ORDER_FOUR, 4, 2)], ids=["golden", "order4"]
)


@CASES
def test_one_factoring_per_square_root(counts, x, order, descents):
    report = cone.cone_report(x)
    assert report.primary.invariants.corresponding_slope.order == order
    assert counts["sqrt_ratio"] >= 1
    assert counts["squarefree_decompose"] <= counts["sqrt_ratio"]


@CASES
def test_one_analysis_per_side(counts, x, order, descents):
    exceptional.delta_curve.cache_clear()
    report = cone.cone_report(x)
    assert report.primary.invariants.corresponding_slope.order == order
    assert counts["classify"] == 1
    assert counts["from_slope_value"] == 0
    assert counts["_bracket"] == descents
    radicand = 5 + 8 * x.discriminant()
    assert counts["radicands"].count(radicand) == 1


@CASES
def test_one_dimension_per_report(monkeypatch, x, order, descents):
    """The moduli dimension is worked out once, and shared with the Serre dual."""
    calls = []
    dimension = chern.moduli_dimension
    monkeypatch.setattr(cone, "moduli_dimension", lambda y: calls.append(y) or dimension(y))
    report = cone.cone_report(x)
    assert report.primary.invariants.corresponding_slope.order == order
    assert report.secondary.dual_primary is not None
    assert calls == [x] and report.dimension == dimension(x.serre_dual())


@CASES
def test_rays_are_lattice_vectors(monkeypatch, x, order, descents):
    """No ray is rebuilt from a slope and a discriminant."""
    calls = []
    from_rmd = ChernCharacter.from_rmd
    monkeypatch.setattr(ChernCharacter, "from_rmd",
                        staticmethod(lambda *args: calls.append(args) or from_rmd(*args)))
    report = cone.cone_report(x)
    assert report.primary.invariants.corresponding_slope.order == order
    assert calls == []


@CASES
def test_rendering_is_written_from_integers(monkeypatch, x, order, descents):
    """``report_to_dict`` constructs no ``QuadraticNumber`` and evaluates no Hilbert polynomial."""
    report = cone.cone_report(x)
    assert report.primary.invariants.corresponding_slope.order == order
    built, evaluated = [], []
    init, hilbert = qarith.QuadraticNumber.__init__, chern.hilbert_poly

    def counted_init(qn, *args, **kwargs):
        built.append(args)
        init(qn, *args, **kwargs)

    monkeypatch.setattr(qarith.QuadraticNumber, "__init__", counted_init)
    for module in (chern, exceptional, cone, planecones):
        if getattr(module, "hilbert_poly", None) is hilbert:
            monkeypatch.setattr(module, "hilbert_poly", lambda m: evaluated.append(m) or hilbert(m))
    report_to_dict(report)
    assert built == [] and evaluated == []


# Radicands a rendered report factors, cold and warm, and the gcds with the
# primorial among them: the root sqrt(5 + 8 delta) and the two wall radii, and
# cold, gamma's two halfwidths.  The worked example's radicands are all below
# 2**16; the order-4 and deep characters each have one square among theirs.
DEEP = character_from_json({"r": 68599058066, "c1": 118099389305, "chi": -777521919538})


@pytest.mark.parametrize("x, cold, warm", [
    (GOLDEN, (5, 0), (3, 0)), (ORDER_FOUR, (5, 3), (3, 2)), (DEEP, (5, 3), (3, 2)),
], ids=["golden", "order4", "deep"])
def test_one_primorial_gcd_per_large_radicand(monkeypatch, x, cold, warm):
    from planecones import cli

    caches = (cone._triad, cli._slope_fields, cli._triad_character_fields,
              exceptional._interval_halfwidth, exceptional.delta_curve)
    decompose = qarith.squarefree_decompose

    def factored():
        radicands, gcds = [], PrimorialGcds()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qarith, "squarefree_decompose",
                          lambda n: radicands.append(n) or decompose(n))
            patch.setattr(qarith, "math", gcds)
            json.dumps(report_to_dict(cone.cone_report(x)))
        large = [n for n in radicands if n >= 1 << 16 and math.isqrt(n) ** 2 != n]
        assert [args[0] for args in gcds.calls] == large
        return len(radicands), len(gcds.calls)

    for cache in caches:
        cache.cache_clear()
    assert factored() == cold
    assert factored() == warm


# What one warm report builds and looks up, rendered as the benchmark renders
# it.  The rank-3 worked example's primary point lies off gamma's interval, so
# its boundary check looks the point's slope up, by its integers; the order-4
# character's lies inside.  The five ``QuadraticNumber``s are the root
# ``sqrt(5 + 8 delta)``, ``mu0+``, ``mu0-`` and the two wall radii; the Serre
# dual's ``mu0+ = -mu0-`` is descended on as integers.  Each cache is looked
# up once per slope, resolution or gamma a report renders or resolves: a
# resolution's triad characters are rendered by one lookup, not one each.
BUDGETS = pytest.mark.parametrize("x, order, budget", [
    (GOLDEN, 0, {"Fraction": 0, "QuadraticNumber": 5, "_triad": 2,
                 "_triad_character_fields": 2, "_slope_fields": 3, "_boundary": 1}),
    (ORDER_FOUR, 4, {"Fraction": 0, "QuadraticNumber": 5, "_triad": 2,
                     "_triad_character_fields": 2, "_slope_fields": 3, "_boundary": 0}),
], ids=["golden", "order4"])


@BUDGETS
def test_report_budget(monkeypatch, x, order, budget):
    from planecones import cli
    from planecones.record import Record

    caches = {"_triad": cone._triad, "_triad_character_fields": cli._triad_character_fields,
              "_slope_fields": cli._slope_fields, "_boundary": exceptional._boundary,
              "_interval_halfwidth": exceptional._interval_halfwidth}

    def lookups():
        return {name: cache.cache_info().hits + cache.cache_info().misses
                for name, cache in caches.items()}

    def render():
        report = cone.cone_report(x)
        json.dumps(report_to_dict(report))
        return report

    assert render().primary.invariants.corresponding_slope.order == order  # warm the caches
    tally = dict.fromkeys(("Record.__init__", "Record.__hash__", "Record.__eq__", "Fraction",
                           "QuadraticNumber"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for method in ("__init__", "__hash__", "__eq__"):
        monkeypatch.setattr(Record, method, counted(f"Record.{method}", getattr(Record, method)))
    monkeypatch.setattr(Fraction, "__new__", counted("Fraction", Fraction.__new__))
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 builds results past __new__
        original = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counted("Fraction", lambda cls, *args: original(*args))))
    QN = qarith.QuadraticNumber
    monkeypatch.setattr(QN, "__init__", counted("QuadraticNumber", QN.__init__))
    make = QN._from_form
    monkeypatch.setattr(QN, "_from_form",
                        classmethod(counted("QuadraticNumber", lambda cls, *args: make(*args))))
    before = lookups()
    render()
    looked_up = {name: n - before[name] for name, n in lookups().items()}
    assert tally == {"Record.__init__": 0, "Record.__hash__": 0, "Record.__eq__": 0,
                     "Fraction": budget["Fraction"], "QuadraticNumber": budget["QuadraticNumber"]}
    assert looked_up == {name: budget.get(name, 0) for name in caches}


# The records one warm report builds, by class.  A Picard-rank-two character
# of rank >= 3 builds one primary edge for itself and one for its Serre dual,
# each with its invariants, resolution, Kronecker data and wall; a
# discriminant above 1 takes the shared classification, built at import.
EDGE = {"OrthogonalInvariants": 1, "ResolutionData": 1, "KroneckerData": 1, "Wall": 1,
        "PrimaryEdge": 1}


@pytest.mark.parametrize("x, built", [
    (GOLDEN, {**{name: 2 for name in EDGE}, "SecondaryEdge": 1, "ConeReport": 1}),
    (ORDER_FOUR, {**{name: 2 for name in EDGE}, "SecondaryEdge": 1, "ConeReport": 1}),
    (ChernCharacter(2, 0, -13), {**EDGE, "SecondaryEdge": 1, "ConeReport": 1}),
    (ChernCharacter(0, 4, -5), {"Classification": 1, "OrthogonalInvariants": 1, "Wall": 1,
                                "PrimaryEdge": 1, "SecondaryEdge": 1, "ConeReport": 1}),
    (ChernCharacter(2, 1, Fraction(-1, 2)), {"Classification": 1, "ConeReport": 1}),
], ids=["golden", "order4", "rank2", "rank0", "exceptional"])
def test_report_records(monkeypatch, x, built):
    cone.cone_report(x)  # warm the caches
    made = {}
    new = record._new

    def counted(cls):
        if cls.__module__ == cone.__name__:  # the report's own records, not its characters
            made[cls.__name__] = made.get(cls.__name__, 0) + 1
        return new(cls)

    monkeypatch.setattr(record, "_new", counted)
    cone.cone_report(x)
    assert made == built


# Every character of rank <= 4 in a small box, twisted so that each kind and
# each case sign occurs.
BOX = [character_from_json({"r": r, "c1": c1, "chi": chi})
       for r in range(5) for c1 in range(-2, 4) for chi in range(-6, 7)]


def test_no_enum_member_is_read_off_its_class(monkeypatch):
    """A warm report compares against enum members bound at import, never ``Kind.X``.

    Each ``Kind.X``, ``CaseSign.X`` and the like is one call of the enum
    metaclass's ``__getattribute__``, counted here; on Python 3.11 it also
    goes through ``EnumType.__getattr__``.  The last lookup is a control,
    made in the test, that the counter sees one.
    """
    def render(x):
        json.dumps(report_to_dict(cone.cone_report(x)))

    for x in BOX:  # warm the caches
        render(x)
    reports = [cone.cone_report(x) for x in BOX]
    assert {r.classification.kind for r in reports} == set(Kind)
    assert {r.primary.invariants.case_sign for r in reports if r.primary} == set(cone.CaseSign)
    assert {r.secondary.mode for r in reports if r.secondary} == set(cone.SecondaryMode)
    looked_up = []
    lookup = EnumMeta.__getattribute__

    def counted(cls, name):
        looked_up.append(name)
        return lookup(cls, name)

    monkeypatch.setattr(EnumMeta, "__getattribute__", counted)
    for x in BOX:
        render(x)
    assert cone.Kind.INVALID
    monkeypatch.undo()
    assert looked_up == ["INVALID"]


# The boundary value and the enclosing slope come from one cached descent, so
# an exceptional character is recognised without descending a second time.
@pytest.mark.parametrize(
    "r, c1, chi, kind, descents",
    [(1, 0, 2, Kind.INVALID, 1), (2, 2, 6, Kind.EXCEPTIONAL, 1)],
    ids=["invalid", "exceptional"],
)
def test_classify_descends_once(counts, r, c1, chi, kind, descents):
    exceptional.delta_curve.cache_clear()
    assert cone.classify(character_from_json({"r": r, "c1": c1, "chi": chi})).kind is kind
    assert counts["_bracket"] == descents


@CASES
def test_no_walk_in_a_report(monkeypatch, x, order, descents):
    """Gamma's parents come back from its descent; no report walks the tree."""
    walks, looked_up = [], []
    walk, parents = exceptional._walk, exceptional.parents
    monkeypatch.setattr(exceptional, "_walk", lambda *args: walks.append(args) or walk(*args))
    monkeypatch.setattr(exceptional, "parents", lambda g: looked_up.append(g) or parents(g))
    exceptional.delta_curve.cache_clear()
    report = cone.cone_report(x)
    assert report.primary.invariants.corresponding_slope.order == order
    assert walks == [] and looked_up == []


def walk_work(call) -> tuple[int, int, int]:
    """``(steps, products, tests)`` the tree walks of ``call`` take.

    A step is one inline mutation in ``_walk`` or one call of ``_jump``; a
    jump of ``n`` levels takes ``n.bit_length() - 1`` doubling products and,
    unless its last rank is past the cap, stands for ``n`` inline steps.  A
    walk steps through the levels of its address to the last, or to the
    first whose rank is past the cap, where it refuses: so its inline steps
    are the levels it reaches less those its jumps take.  A rank is
    measured by its bit length, and ``tests`` counts the ones near enough
    to the cap to be measured by ``more_digits``.
    """
    steps, runs, tests = [], [], []
    walk, jump, more = exceptional._walk, exceptional._jump, exceptional.more_digits

    def counted_walk(d):
        first, reached = len(runs), d.q
        try:
            return walk(d)
        except DomainError as refusal:
            reached = int(str(refusal).split(" at order ")[1].split()[0])
            raise
        finally:
            cap = exceptional._digit_bound()
            jumped = runs[first:]
            taken = sum(n for n, rank in jumped if not more(rank, cap))
            steps.append(reached - taken + len(jumped))

    def counted_jump(fin, g, s, n):
        ahead = jump(fin, g, s, n)
        runs.append((n, ahead[0][0]))
        return ahead

    def counted_test(n, digits):
        tests.append(n)
        return more(n, digits)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exceptional, "_walk", counted_walk)
        patch.setattr(exceptional, "_jump", counted_jump)
        patch.setattr(exceptional, "more_digits", counted_test)
        call()
    return sum(steps), sum(n.bit_length() - 1 for n, _ in runs), len(tests)


@pytest.mark.parametrize("word", ["RLLLRR", "LRLRLRLRLR"])
def test_one_walk_per_word(word):
    """A step per letter where the letters alternate, fewer where they run, on every call."""
    slopes = []
    first = walk_work(lambda: slopes.append(cfrac.lr_to_slope(word)))
    assert walk_work(lambda: slopes.append(cfrac.lr_to_slope(word))) == first
    assert slopes[0] == slopes[1]
    if all(a != b for a, b in zip(word, word[1:])):
        assert first == (len(word), 0, 0)
    else:
        assert first[0] < len(word)


def test_one_run_of_order_512_is_a_few_products():
    steps, products, tests = walk_work(
        lambda: exceptional.from_dyadic(exceptional.DyadicRational(1, 512)))
    assert steps + products <= 20 and tests == 0


@pytest.mark.parametrize("p, q, cap, work, refused", [
    (1, 2000, 100, (240, 0, 24), "at order 240 of 2000"),
    (1, 401, 100, (240, 0, 24), "at order 240 of 401"),
    (5 * 2 ** 400 + 1, 400, 100, (241, 8, 25), "at order 240 of 400"),
    (1, 2000, 4300, (3, 10, 0), None),
    (1, 11000, 4300, (10290, 13, 999), "at order 10289 of 11000"),
    (1, 10 ** 10, 4300, (10289, 0, 998), "at order 10289 of 10000000000"),
    (1, 10 ** 20, 4300, (10289, 0, 998), f"at order 10289 of {10 ** 20}"),
    (1, 239, 100, (3, 7, 2), None),
], ids=["bound_refuses_the_jump", "bound_just_refuses", "bound_just_jumps",
        "jump_under_the_cap", "jump_past_the_cap_is_stepped", "run_of_ten_billion",
        "run_of_ten_to_the_twenty", "jump_lands_near_the_cap"])
def test_a_capped_walk_costs_what_it_reaches(p, q, cap, work, refused):
    """A run of ``p/2^q`` is jumped unless a lower bound on its growth reaches ``4 * cap`` bits.

    A refused jump, or one that lands past the cap, is stepped to the first
    rank past it: the work is bounded by the cap, not by the run's length.
    With a 100-digit cap the bound on the one run of ``1/2^401`` is 400
    bits, and on that of ``5 + 1/2^400`` 399, so each side of ``>=`` is
    pinned; in ``[5, 6]`` a bundle's ``c1`` is longer than its rank, and
    only the rank is read.  Only a rank of more than ``3 * cap`` bits is
    tested by ``more_digits``: at ``1/2^239`` the jump lands at 330 bits and
    the last rank has 332 bits and 100 digits, which the walk keeps.
    """
    def call():
        if refused is None:
            return exceptional.from_dyadic(exceptional.DyadicRational(p, q))
        with pytest.raises(DomainError, match=refused):
            exceptional.from_dyadic(exceptional.DyadicRational(p, q))

    with capped(cap):
        assert walk_work(call) == work


@pytest.mark.parametrize("call, walks", [
    (lambda: cfrac.cantor_approx("LRLRLR", 6), 1),
    (lambda: cfrac.period_structure("RLLRR"), 0),
], ids=["cantor_approx", "period_structure"])
def test_parents_come_from_the_walk_to_the_slope(monkeypatch, call, walks):
    """A slope and its parents take one walk: ``parents`` is a view of it.

    A period block takes none: the parent rule reads the word's letters.
    """
    calls = []
    walk = exceptional._walk
    monkeypatch.setattr(exceptional, "_walk", lambda *args: calls.append(args) or walk(*args))
    call()
    assert len(calls) == walks


@pytest.mark.parametrize("record", [False, True], ids=["rational", "record"])
def test_an_expansion_walks_a_record_once_and_a_rational_never(monkeypatch, record):
    """A rational's lookup is trusted; a record handed in is checked by one walk of its address."""
    slope = exceptional.from_slope_value(Fraction(75, 194)) if record else Fraction(75, 194)
    calls = []
    walk = exceptional._walk
    monkeypatch.setattr(exceptional, "_walk", lambda *args: calls.append(args) or walk(*args))
    assert cfrac.even_expansion(slope) == "21122112"
    assert cfrac.odd_expansion(slope) == "211221111"
    assert len(calls) == 2 * record


MU0_PLUS_ORDER_FOUR = cone.cone_report(ORDER_FOUR).mu0_plus


@pytest.fixture
def built_slopes(monkeypatch):
    """Every ``ExceptionalSlope`` the trusted constructor makes."""
    made = []
    slope = exceptional._slope
    monkeypatch.setattr(exceptional, "_slope", lambda *args: made.append(slope(*args)) or made[-1])
    return made


@pytest.mark.parametrize(
    "x", [MU0_PLUS_ORDER_FOUR, Fraction(33, 86)], ids=["order4_mu0_plus", "rational"]
)
def test_one_membership_call_per_probe(monkeypatch, built_slopes, x):
    """A descent probe is one ``_locate`` call on integers and builds nothing else.

    Each mediant is one mutation of the bracket's characters, not a
    ``from_dyadic`` walk, and ``_locate`` reads its rank and ``c1``; the side
    of a missed probe is the sign of ``x - c1/r`` that ``_locate`` returns
    beside the membership, so no ``QuadraticNumber`` is made.  Slope objects
    are built for the hit and its two parents only.
    """
    probes, built, looked_up = [], [], []
    locate, init = exceptional._locate, qarith.QuadraticNumber.__init__
    from_dyadic = exceptional.from_dyadic

    def counted_locate(r, c1, *form):
        probes.append((r, c1))
        return locate(r, c1, *form)

    def counted_init(qn, *args, **kwargs):
        built.append(args)
        init(qn, *args, **kwargs)

    monkeypatch.setattr(exceptional, "_locate", counted_locate)
    monkeypatch.setattr(exceptional, "from_dyadic", lambda d: looked_up.append(d) or from_dyadic(d))
    monkeypatch.setattr(qarith.QuadraticNumber, "__init__", counted_init)
    left, found, right = descent_slopes(x)
    assert found.order >= 3
    assert built == [] and looked_up == []
    assert sorted(built_slopes, key=lambda s: s.slope) == [left, found, right]
    # the integer nearer x, then one mediant per level down to found, each of
    # larger rank than the last
    assert len(probes) == 1 + found.order
    assert probes[0][0] == 1
    ranks = [r for r, _ in probes[1:]]
    assert ranks == sorted(set(ranks))
    assert probes[-1] == (found.r, found.c1)
    assert (left, right) == exceptional.parents(found)


def test_integer_hit_builds_the_hit_and_its_parents(monkeypatch, built_slopes):
    probes = []
    locate = exceptional._locate
    monkeypatch.setattr(exceptional, "_locate", lambda *args: probes.append(args) or locate(*args))
    triple = descent_slopes(Fraction(6, 5))
    assert [s.slope for s in triple] == [0, 1, 2]
    assert len(probes) == 1 and built_slopes == list(triple)


def test_a_rational_is_looked_up_without_a_descent(monkeypatch, capsys):
    """``from_slope_value`` compares with mediants: no ``_locate`` probe and no ``_bracket``."""
    probes, descents = [], []
    locate, descend = exceptional._locate, exceptional._bracket
    monkeypatch.setattr(exceptional, "_locate", lambda *args: probes.append(args) or locate(*args))
    monkeypatch.setattr(exceptional, "_bracket",
                        lambda *args: descents.append(args) or descend(*args))
    assert cfrac.even_expansion(Fraction(75, 194)) == "21122112"
    assert exceptional.from_slope_value(Fraction(13, 34)).order == 4
    assert main(["cfrac", "--rational", "75/194", "--period"]) == 0
    assert json.loads(capsys.readouterr().out)["period_block"] == "2112"
    assert probes == [] and descents == []


# What one toolkit call builds: a public function that returns a slope builds
# that slope and its address, and nothing else; one that returns numbers or
# words reads the walk's integers, or the word, and builds no slope.  The
# addresses counted are the ones the call makes, not the one handed in.
D = exceptional.DyadicRational(1117, 11)
TOOLKIT = pytest.mark.parametrize("call, slopes, addresses", [
    (lambda: exceptional.from_dyadic(D), 1, 0),
    (lambda: exceptional.epsilon(D), 1, 0),
    (lambda: exceptional.from_dyadic(D).interval(), 1, 0),
    (lambda: cfrac.lr_to_slope("RLLRLRRL"), 1, 1),
    (lambda: exceptional.delta_curve.cache_clear() or exceptional.delta_curve(Fraction(7, 19)),
     1, 1),
    (lambda: exceptional.find_interval(MU0_PLUS_ORDER_FOUR), 1, 1),
    (lambda: cfrac.cantor_approx("LRLRLR", 6), 0, 1),
    (lambda: cfrac.period_structure("RLLLRR"), 0, 0),
    (lambda: cfrac.even_expansion(Fraction(75, 194)), 1, 1),
    (lambda: exceptional.slope_and_parents(D), 3, 2),
], ids=["from_dyadic", "epsilon", "interval", "lr_to_slope", "cold_delta_curve",
        "find_interval", "cantor_approx", "period_structure", "even_expansion",
        "slope_and_parents"])


@TOOLKIT
def test_toolkit_budget(monkeypatch, call, slopes, addresses):
    made = {exceptional.ExceptionalSlope: 0, exceptional.DyadicRational: 0}
    new = record._new

    def counted_new(cls):
        if cls in made:
            made[cls] += 1
        return new(cls)

    monkeypatch.setattr(record, "_new", counted_new)
    for cls in made:  # the checked constructors too
        def counted_init(obj, *args, cls=cls, init=cls.__init__):
            made[cls] += 1
            init(obj, *args)
        monkeypatch.setattr(cls, "__init__", counted_init)
    call()
    assert made == {exceptional.ExceptionalSlope: slopes, exceptional.DyadicRational: addresses}
