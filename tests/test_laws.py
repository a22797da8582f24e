"""The twist, Serre-duality and scaling laws over the whole report.

The twist law: ``M(xi)`` and ``M(xi tensor O(n))`` agree.

Twisting by ``O(n)`` is the paper's first reduction.  A character ``x`` and
its twist ``x(n)`` have the same classification and dimension; ``mu0+-``
move by ``-n`` and so does the corresponding slope gamma, read off its
address; a class is orthogonal to ``x(n)`` exactly when its twist by
``O(n)`` is orthogonal to ``x``, so both extremal rays are the untwisted
rays twisted by ``O(-n)``; and the resolution keeps its case and
multiplicities.  The rendered reports agree on the same fields.

The rendered twist law: ``report_to_dict`` of ``x(n)`` is one closed map of
``report_to_dict`` of ``x``, field by field.  An edge moves with its ray:
gamma, the ray, its ``mu`` and its coordinates move by ``-n`` on the primary
side and on the secondary ray, and by ``+n`` in the Serre-dual pipeline,
whose character ``x^v(-3)`` moves by ``-n``.  The triad bundles ``E_{-gamma}``
and the wall's ``center_s`` belong to the edge's character and move the
other way.  A move by ``k`` twists a character by ``O(k)``; adds ``k`` to a
slope, ``mu``, ``lr_translation``, a bundle's name in the shape and the
rational part of ``mu0+-`` and of an interval end; adds ``k 2^q`` to a
dyadic numerator; and adds ``k R / r`` to the coordinate ``zeta1`` of a ray
of rank ``R``.  Every other field (kinds, dimension, discriminants, ranks,
orders, words, multiplicities, Kronecker data, radii) stays, but the slope
an exceptional multiple names moves by ``+n`` and the natural classes are
those of ``x(n)``.

The Serre-duality law: ``E -> E^v(-3)`` maps the locally free sheaves of
``M(x)`` onto those of ``M(x^v(-3))``, where ``x^v(-3) = (r, -c1 - 3r, chi)``
keeps the rank, the discriminant and chi.  Both characters have the same
classification and dimension, and ``mu0+-`` go to ``-mu0-+``.  From rank 3
on, the sheaves that are not locally free lie in codimension two, so the
two cones are one: the two rays swap, each the other's ``-y^v`` (the map
on classes orthogonal to ``x``), each corresponding slope is the other's
negative, and each side's Serre-dual pipeline is the other's primary edge,
rendered alike.  A sheaf of rank zero has the dual ``-x^v(-3) = (0, c1,
-chi)``, which keeps its Brill-Noether edge: the primary ray goes to its
dual.

The rendered Serre-duality law: from rank 3 on, ``report_to_dict`` of
``x^v(-3)`` is one closed map of ``report_to_dict`` of ``x``.  The input is
``(r, -c1 - 3r, chi)``, and an exceptional multiple names the slope
``-mu - 3``; ``mu0+`` and ``mu0-`` swap and change sign; the primary edge
and the Serre-dual pipeline swap; the secondary ray is the other report's
primary ray ``(R, C, X)`` sent to ``(-R, C, 3C - X)``, with ``mu``,
``delta`` and the coordinate ``zeta0`` following it; and the secondary
corresponding slope is the other primary's gamma negated, whose interval
ends change sign and swap and whose word and translation are read off the
negated address.  The note on invariants off the boundary curve follows
the primary edge.  Every other field stays.

The scaling law: ``k x`` for an integer ``k >= 2`` has the slope and
discriminant of ``x``, so the same kind, ``mu0+-``, corresponding slope
gamma, primitive primary ray, case sign and wall; from rank 3 on, the
secondary and Serre-dual rays are the same too.  The resolution's
multiplicities, Euler characteristics of ``x`` twisted by exceptional
bundles, scale by ``k``.  Two exceptions follow from the rank and degree
scaling with ``x``: a character of rank 1 or 2 has a multiple of higher
rank, whose secondary edge is of that rank's mode, and a rank-zero class of
degree ``d < 3`` is invalid while ``k d >= 3`` may not be.

The rendered scaling law: ``report_to_dict`` of ``k x`` is one closed map of
``report_to_dict`` of ``x``.  The rendered input and natural classes, the
multiplicities and the exponents of the shape, and the Kronecker
``dim_vector`` scale by ``k``; ray coordinates, over a rank ``k`` times as
large, divide by ``k``; a dimension ``d`` goes to ``k^2 (d - 1) + 1``, but an
exceptional character's stays 0; a rank-zero reason names the degree, which
scales.  Every other field stays.  The record law's exceptions carry over.

Characters are drawn per ``Kind``, so every kind occurs, with ranks and
first Chern classes up to 10^30; the Picard-rank-2 draws include characters
just above the boundary curve whose gamma has order 7-9, and twists go up
to 10^30.  The tier-1 run draws 25 cases a kind for each law; the ``fuzz``
profile (``pytest -m fuzz --hypothesis-profile=fuzz``) draws its own 2,000.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecones import cfrac, cli, exceptional
from planecones.chern import character_from_json, character_to_json, natural_classes
from planecones.cone import Kind, SecondaryMode, classify, cone_report
from planecones.errors import DescentError
from planecones.exceptional import DyadicRational
from planecones.qarith import QuadraticNumber

from conftest import ORDER_FOUR, moved, negated, near_boundary

pytestmark = pytest.mark.fuzz

BIG = 10 ** 30
rank = st.integers(1, BIG)
wide = st.integers(-BIG, BIG)
positive = st.integers(1, BIG)
shift = st.one_of(st.integers(-5, 5), st.integers(-10 ** 6, 10 ** 6), wide)


def lattice(r, c1, chi):
    return character_from_json({"r": r, "c1": c1, "chi": chi})


def _above_one(r, c, k):
    """Discriminant above 1, over every arc of the boundary curve: ``F > 2 r^2``."""
    return lattice(r, c, c * (c + 3 * r) // (2 * r) - k)


def _below_zero(r, c, k):
    """Discriminant below 0, so below the curve and no exceptional multiple: ``F < 0``."""
    return lattice(r, c, (c * (c + 3 * r) + 2 * r * r) // (2 * r) + k)


def _height_zero(r, n):
    """Slope ``n`` and discriminant 1, the top of the arc over ``O(n)``."""
    return lattice(r, r * n, r * ((n + 1) * (n + 2) // 2 - 1))


def _exceptional(p, q, k):
    p = p if q == 0 else 2 * p + 1
    return exceptional.from_dyadic(DyadicRational(p, q)).character().scale(k)


small = st.builds(lattice, st.integers(0, 8), st.integers(-20, 20), st.integers(-40, 40))

CHARACTERS = {
    Kind.PICARD_RANK_2: st.one_of(
        st.builds(_above_one, rank, wide, positive),
        st.one_of(small, near_boundary).filter(lambda x: classify(x).kind is Kind.PICARD_RANK_2),
    ),
    Kind.HEIGHT_ZERO: st.builds(_height_zero, rank, st.integers(-10 ** 6, 10 ** 6)),
    Kind.EXCEPTIONAL: st.builds(_exceptional, st.integers(-20, 20), st.integers(0, 8),
                                st.integers(1, BIG)),
    Kind.RANK_ZERO_PICARD_RANK_2: st.builds(lattice, st.just(0), st.integers(3, BIG), wide),
    Kind.INVALID: st.one_of(
        st.builds(lattice, st.integers(-BIG, -1), wide, wide),
        st.builds(lattice, st.just(0), st.integers(-BIG, 2), wide),
        st.builds(_below_zero, rank, wide, positive),
    ),
}

cases = settings() if settings.get_current_profile_name() == "fuzz" else settings(max_examples=25)


def _outcome(x):
    """The report of ``x``, or the class of what it raised."""
    try:
        return cone_report(x)
    except DescentError as exc:  # a Cantor-set neighbour past the order budget
        return type(exc)


def _assert_twist_law(x, n):
    report, twisted = _outcome(x), _outcome(x.twist(n))
    if not hasattr(report, "classification"):
        assert twisted is report
        return
    assert twisted.classification.kind is report.classification.kind
    assert twisted.dimension == report.dimension
    rendered, rendered_twist = (cli.report_to_dict(r) for r in (report, twisted))
    assert rendered_twist["classification"]["kind"] == rendered["classification"]["kind"]
    assert rendered_twist["dimension"] == rendered["dimension"]
    edge, shifted = report.primary, twisted.primary
    if edge is None:
        assert shifted is None and twisted.mu0_plus is None
        return
    assert twisted.mu0_plus == moved(report.mu0_plus, -n)
    if report.mu0_minus is not None:
        assert twisted.mu0_minus == moved(report.mu0_minus, -n)
    gamma, gamma_twisted = (e.invariants.corresponding_slope for e in (edge, shifted))
    image = exceptional.affine_image(gamma, False, -n)
    assert gamma_twisted == image and gamma_twisted.dyadic == image.dyadic
    assert shifted.invariants.case_sign is edge.invariants.case_sign
    assert shifted.extremal_character == edge.extremal_character.twist(-n)
    res, res_twisted = edge.resolution, shifted.resolution
    if res is None:
        assert res_twisted is None
    else:
        assert (res_twisted.case_sign, res_twisted.m1, res_twisted.m2, res_twisted.m3) == \
            (res.case_sign, res.m1, res.m2, res.m3)
        assert rendered_twist["primary"]["resolution"]["multiplicities"] == \
            rendered["primary"]["resolution"]["multiplicities"]
    sec, sec_twisted = report.secondary, twisted.secondary
    assert sec_twisted.mode is sec.mode
    if sec.extremal_character is None:
        assert sec_twisted.extremal_character is None
    else:
        assert sec_twisted.extremal_character == sec.extremal_character.twist(-n)


@pytest.mark.parametrize("kind", list(Kind), ids=[kind.name.lower() for kind in Kind])
@cases
@given(data=st.data(), n=shift)
def test_twist_law(kind, data, n):
    x = data.draw(CHARACTERS[kind], label="x")
    assert classify(x).kind is kind
    _assert_twist_law(x, n)


def _moved(text, k):
    return str(Fraction(text) + k)


def _moved_quadratic(text, k):
    """A printed ``(a + b*sqrt(d))`` whose rational part moves by ``k``."""
    return str(moved(QuadraticNumber.parse(text), k))


def _twisted(character, k):
    return character_to_json(character_from_json(character).twist(k))


# a bundle's name in a resolution's shape: O, O(c), T(m) or E(c/r)
_BUNDLE = re.compile(r"\b([OTE])(?:\((-?\d+)(?:/(\d+))?\))?")


def _moved_bundle(match, k):
    letter, c, r = match[1], int(match[2] or 0), int(match[3] or 1)
    if letter == "E":
        return f"E({c + k * r}/{r})"
    if letter == "T":
        return f"T({c + k})"
    return f"O({c + k})" if c + k else "O"


def _moved_slope(slope, k):
    p, _, q = slope["dyadic"].partition("/2^")
    q = int(q or 0)
    p = int(p) + (k << q)
    return {**slope, "slope": _moved(slope["slope"], k),
            "dyadic": f"{p}/2^{q}" if q else str(p),
            "lr_translation": slope["lr_translation"] + k,
            "interval": {end: _moved_quadratic(v, k) for end, v in slope["interval"].items()}}


def _moved_ray(side, k, r):
    """The ray of ``side`` twisted by ``O(k)``, with its coordinates over rank ``r``."""
    out = dict(side)
    if "extremal_character" in side:
        ray = out["extremal_character"] = _twisted(side["extremal_character"], k)
    if "extremal_ray_coordinates" in side:  # none over rank zero
        coords = side["extremal_ray_coordinates"]
        zeta1 = _moved(coords["zeta1"], Fraction(k * int(ray["r"]), r))
        out["extremal_ray_coordinates"] = {"zeta0": coords["zeta0"], "zeta1": zeta1}
    return out


def _moved_edge(edge, k, r):
    """An edge whose ray moves by ``k``: its triad and wall belong to the character, so ``-k``."""
    out = _moved_ray(edge, k, r)
    inv = edge["invariants"]
    out["invariants"] = {**inv, "mu": _moved(inv["mu"], k),
                         "corresponding_slope": _moved_slope(inv["corresponding_slope"], k)}
    if "resolution" in edge:
        res = edge["resolution"]
        out["resolution"] = {
            **res,
            "triad": [_moved(mu, -k) for mu in res["triad"]],
            "triad_characters": [_twisted(z, -k) for z in res["triad_characters"]],
            "shape": _BUNDLE.sub(lambda match: _moved_bundle(match, -k), res["shape"]),
        }
    out["wall"] = {**edge["wall"], "center_s": _moved(edge["wall"]["center_s"], -k)}
    return out


def twisted_rendering(rendered, n):
    """``report_to_dict(cone_report(x.twist(n)))`` from ``rendered``, that of ``x``."""
    out = dict(rendered)
    out["input"] = _twisted(rendered["input"], n)
    cls = rendered["classification"]  # an exceptional multiple names its slope
    out["classification"] = {**cls, "reasons": [
        re.sub(r"(?<=of slope )\S+$", lambda match: _moved(match[0], n), reason)
        for reason in cls["reasons"]]}
    x = character_from_json(out["input"])
    if "natural_classes" in rendered:
        out["natural_classes"] = dict(zip(("zeta0", "zeta1"),
                                          map(character_to_json, natural_classes(x))))
    if "mu0" in rendered:
        out["mu0"] = {key: value and _moved_quadratic(value, -n)
                      for key, value in rendered["mu0"].items()}
    if "primary" in rendered:
        out["primary"] = _moved_edge(rendered["primary"], -n, x.r)
    if "secondary" in rendered:
        sec = rendered["secondary"]
        out["secondary"] = moved = _moved_ray(sec, -n, x.r)
        if "mu" in sec:
            moved["mu"] = _moved(sec["mu"], -n)
        if "corresponding_slope" in sec:
            moved["corresponding_slope"] = _moved_slope(sec["corresponding_slope"], -n)
        if "serre_dual_pipeline" in sec:
            moved["serre_dual_pipeline"] = _moved_edge(sec["serre_dual_pipeline"], n, x.r)
    return out


@pytest.mark.parametrize("kind", list(Kind), ids=[kind.name.lower() for kind in Kind])
@cases
@given(data=st.data(), n=shift)
def test_rendered_twist_law(kind, data, n):
    x = data.draw(CHARACTERS[kind], label="x")
    report, twisted = _outcome(x), _outcome(x.twist(n))
    if not hasattr(report, "classification"):
        assert twisted is report
        return
    assert cli.report_to_dict(twisted) == twisted_rendering(cli.report_to_dict(report), n)


def serre_dual(x):
    """``x^v(-3)``, and ``-x^v(-3) = (0, c1, -chi)`` in rank zero."""
    return x.serre_dual() if x.r != 0 else lattice(0, x.c1, -x.chi)


def _assert_serre_duality_law(x):
    xd = serre_dual(x)
    report, dual = _outcome(x), _outcome(xd)
    if not hasattr(report, "classification") or not hasattr(dual, "classification"):
        # each side descends on mu0+ and, from rank 3 on, on the other's -mu0-
        assert x.r < 3 or dual is report
        return
    assert dual.classification.kind is report.classification.kind
    assert dual.dimension == report.dimension
    rendered, rendered_dual = cli.report_to_dict(report), cli.report_to_dict(dual)
    assert rendered_dual["classification"]["kind"] == rendered["classification"]["kind"]
    assert rendered_dual["dimension"] == rendered["dimension"]
    if x.r >= 3:
        assert rendered_dual == serre_rendering(rendered)
    if report.primary is None:
        assert dual.primary is None and dual.mu0_plus is None
        return
    if x.r == 0:
        assert dual.mu0_plus == negated(report.mu0_plus)
        assert dual.primary.extremal_character == report.primary.extremal_character.dual()
        return
    assert (dual.mu0_plus, dual.mu0_minus) == (negated(report.mu0_minus), negated(report.mu0_plus))
    sec, sec_dual = report.secondary, dual.secondary
    assert sec_dual.mode is sec.mode
    if x.r < 3:
        return
    assert dual.primary.extremal_character == -sec.extremal_character.dual()
    assert sec_dual.extremal_character == -report.primary.extremal_character.dual()
    for edge, other in ((report, dual), (dual, report)):
        gamma = edge.primary.invariants.corresponding_slope
        image = exceptional.affine_image(gamma, True, 0)
        assert other.secondary.corresponding_slope == image
        assert other.secondary.corresponding_slope.dyadic == image.dyadic
        assert other.secondary.dual_primary == edge.primary


OFF_CURVE_NOTE = ("invariants lie off the boundary curve: stable orthogonal slopes below mu+ "
                  "exist but span non-effective rays")


def _negated_quadratic(text):
    return text and str(negated(QuadraticNumber.parse(text)))


def _negated_slope(slope):
    """The rendered exceptional slope ``-gamma``: its address negated, its interval reflected."""
    p, _, q = slope["dyadic"].partition("/2^")
    p, q = -int(p), int(q or 0)
    shift, word = cfrac.dyadic_to_word(DyadicRational(p, q))
    interval = slope["interval"]
    return {**slope, "slope": str(-Fraction(slope["slope"])),
            "dyadic": f"{p}/2^{q}" if q else str(p), "lr_word": word, "lr_translation": shift,
            "interval": {"left": _negated_quadratic(interval["right"]),
                         "right": _negated_quadratic(interval["left"])}}


def serre_rendering(rendered):
    """``report_to_dict(cone_report(x.serre_dual()))`` from ``rendered``, that of ``x``.

    For ``x`` of rank 3 or more.
    """
    out = dict(rendered)
    x = character_from_json(rendered["input"]).serre_dual()
    out["input"] = character_to_json(x)
    cls = rendered["classification"]  # an exceptional multiple names its slope
    out["classification"] = {**cls, "reasons": [
        re.sub(r"(?<=of slope )\S+$", lambda match: str(-Fraction(match[0]) - 3), reason)
        for reason in cls["reasons"]]}
    if "natural_classes" in rendered:
        out["natural_classes"] = dict(zip(("zeta0", "zeta1"),
                                          map(character_to_json, natural_classes(x))))
    if "mu0" in rendered:
        mu0 = rendered["mu0"]
        out["mu0"] = {"plus": _negated_quadratic(mu0["minus"]),
                      "minus": _negated_quadratic(mu0["plus"])}
    if "primary" in rendered:
        primary, sec = rendered["primary"], rendered["secondary"]
        out["primary"] = sec["serre_dual_pipeline"]
        ray = character_to_json(-character_from_json(primary["extremal_character"]).dual())
        coords = primary["extremal_ray_coordinates"]
        out["secondary"] = {
            **sec, "mu": ray["mu"], "delta": ray["delta"],
            "corresponding_slope": _negated_slope(primary["invariants"]["corresponding_slope"]),
            "extremal_character": ray,
            "extremal_ray_coordinates": {**coords, "zeta0": str(-Fraction(coords["zeta0"]))},
            "serre_dual_pipeline": primary,
        }
        out.pop("note", None)
        inv = out["primary"]["invariants"]  # the note reads the primary edge
        if inv["case_sign"] == "POSITIVE" and not inv["on_delta_curve"]:
            out["note"] = OFF_CURVE_NOTE
    return out


@pytest.mark.parametrize("kind", list(Kind), ids=[kind.name.lower() for kind in Kind])
@cases
@given(data=st.data())
def test_serre_duality_law(kind, data):
    x = data.draw(CHARACTERS[kind], label="x")
    assert classify(x).kind is kind
    _assert_serre_duality_law(x)


def test_rendered_serre_duality_on_the_grid(grid):
    """The rendered law on every Picard-rank-2 character of the grid from rank 3 on."""
    for x in grid + [ORDER_FOUR]:
        if x.r >= 3:
            rendered = cli.report_to_dict(cone_report(x))
            assert cli.report_to_dict(cone_report(x.serre_dual())) == serre_rendering(rendered), x


def _assert_scaling_law(x, k):
    report, scaled = _outcome(x), _outcome(x.scale(k))
    if not hasattr(report, "classification"):
        assert scaled is report
        return
    if not hasattr(scaled, "classification"):
        # of the two, only k x of rank >= 3 descends on -mu0- as well
        assert 0 < x.r < 3
        return
    kind = report.classification.kind
    if kind is Kind.INVALID and x.r == 0 and k * x.c1 >= 3:
        # exception: degree d < 3 admits no sheaf, but k d >= 3 does
        assert scaled.classification.kind is Kind.RANK_ZERO_PICARD_RANK_2
        return
    assert scaled.classification.kind is kind
    assert (scaled.mu0_plus, scaled.mu0_minus) == (report.mu0_plus, report.mu0_minus)
    edge, other = report.primary, scaled.primary
    if edge is None:
        assert other is None
        return
    gamma, gamma_scaled = (e.invariants.corresponding_slope for e in (edge, other))
    assert gamma_scaled == gamma and gamma_scaled.dyadic == gamma.dyadic
    assert other.invariants.case_sign is edge.invariants.case_sign
    assert other.extremal_character == edge.extremal_character
    assert other.wall == edge.wall
    res, res_scaled = edge.resolution, other.resolution
    if res is None:
        assert res_scaled is None
    else:
        assert (res_scaled.m1, res_scaled.m2, res_scaled.m3) == \
            (k * res.m1, k * res.m2, None if res.m3 is None else k * res.m3)
    sec, sec_scaled = report.secondary, scaled.secondary
    if 0 < x.r < 3:
        # exception: k x has rank k r >= 2, and its secondary edge that rank's mode
        mode = SecondaryMode.SERRE_DUAL if k * x.r >= 3 else SecondaryMode.RANK2_SINGULAR_LOCUS
        assert sec_scaled.mode is mode
        return
    assert sec_scaled.mode is sec.mode
    assert sec_scaled.extremal_character == sec.extremal_character
    if x.r >= 3:
        assert sec_scaled.corresponding_slope == sec.corresponding_slope
        assert sec_scaled.dual_primary.extremal_character == \
            sec.dual_primary.extremal_character


@pytest.mark.parametrize("kind", list(Kind), ids=[kind.name.lower() for kind in Kind])
@cases
@given(data=st.data(), k=st.integers(2, 5))
def test_scaling_law(kind, data, k):
    x = data.draw(CHARACTERS[kind], label="x")
    assert classify(x).kind is kind
    _assert_scaling_law(x, k)


def _scaled_character(character, k):
    """A rendered character times ``k``: its slope and discriminant stay."""
    return {key: value if key in ("mu", "delta") else str(k * Fraction(value))
            for key, value in character.items()}


def _scaled_dimension(d, k):
    """``r^2 (2 delta - 1) + 1`` with the rank times ``k``."""
    return k * k * (d - 1) + 1


def _scaled_edge(edge, k):
    """An edge of ``k x``: the ray stays, over ``k`` times the rank, and the resolution scales."""
    out = dict(edge)
    if "extremal_ray_coordinates" in edge:
        coords = edge["extremal_ray_coordinates"]
        out["extremal_ray_coordinates"] = {key: str(Fraction(v) / k) for key, v in coords.items()}
    if "resolution" in edge:
        res = edge["resolution"]
        out["resolution"] = {
            **res, "multiplicities": [k * m for m in res["multiplicities"]],
            "shape": re.sub(r"(?<=\^)\d+", lambda match: str(k * int(match[0])), res["shape"])}
    if "kronecker" in edge:
        kron = edge["kronecker"]
        out["kronecker"] = {
            **kron, "dim_vector": [k * n for n in kron["dim_vector"]],
            "expected_dimension": _scaled_dimension(kron["expected_dimension"], k)}
    return out


def scaled_rendering(rendered, k):
    """``report_to_dict(cone_report(x.scale(k)))`` from ``rendered``, that of ``x``.

    Where the rank is 1 or 2 the secondary edge changes mode, and is left out.
    """
    out = dict(rendered)
    out["input"] = _scaled_character(rendered["input"], k)
    cls = rendered["classification"]  # a rank-zero reason names the degree
    out["classification"] = {**cls, "reasons": [
        re.sub(r"(?:(?<=degree )|(?<=, got ))-?\d+$", lambda match: str(k * int(match[0])), reason)
        for reason in cls["reasons"]]}
    if rendered["dimension"] and cls["kind"] != "EXCEPTIONAL":
        out["dimension"] = _scaled_dimension(rendered["dimension"], k)
    if "natural_classes" in rendered:
        out["natural_classes"] = {key: _scaled_character(value, k)
                                  for key, value in rendered["natural_classes"].items()}
    if "primary" in rendered:
        out["primary"] = _scaled_edge(rendered["primary"], k)
    if "secondary" in rendered:
        if rendered["input"]["r"] in ("1", "2"):
            del out["secondary"]
        else:
            sec = out["secondary"] = _scaled_edge(rendered["secondary"], k)
            if "serre_dual_pipeline" in sec:
                sec["serre_dual_pipeline"] = _scaled_edge(sec["serre_dual_pipeline"], k)
    return out


@pytest.mark.parametrize("kind", list(Kind), ids=[kind.name.lower() for kind in Kind])
@cases
@given(data=st.data(), k=st.integers(2, 5))
def test_rendered_scaling_law(kind, data, k):
    x = data.draw(CHARACTERS[kind], label="x")
    report, scaled = _outcome(x), _outcome(x.scale(k))
    if not hasattr(report, "classification"):
        assert scaled is report
        return
    if not hasattr(scaled, "classification"):
        assert 0 < x.r < 3  # of the two, only k x of rank >= 3 descends on -mu0- as well
        return
    if kind is Kind.INVALID and x.r == 0 and k * x.c1 >= 3:
        assert scaled.classification.kind is Kind.RANK_ZERO_PICARD_RANK_2
        return
    rendered = cli.report_to_dict(scaled)
    if 0 < x.r < 3 and "secondary" in rendered:
        mode = "SERRE_DUAL" if k * x.r >= 3 else "RANK2_SINGULAR_LOCUS"
        assert rendered.pop("secondary")["mode"] == mode
    assert rendered == scaled_rendering(cli.report_to_dict(report), k)
