"""End-to-end pipeline: classification, orthogonal invariants, resolutions,
Kronecker data and the extremal rays of the effective cone.

``cone_report`` is the one pipeline.  It classifies the character and takes
``mu0+-`` from one root ``sqrt(5 + 8 delta)``.  One descent on ``mu0+`` to
the exceptional slope gamma whose interval encloses it gives the primary
edge: the primitive ray orthogonal to the character, its invariants, the
resolution by gamma's triad (cached per gamma), the Kronecker data and the
wall.  For rank >= 3 the same steps on the Serre dual, descending on
``-mu0-``, give the secondary ray.  Each step checks its result and raises
``ConsistencyError`` when a check fails.  Rays are lattice vectors, and no
float decides a branch.  Gamma comes as its ``(r, c1)`` and address, and
its characters by Riemann-Roch (``ExceptionalSlope.chi``); a slope enclosing
a rational is read from the boundary cache through
``exceptional._enclosing``, which owns the cache's key.
``orthogonal_character`` and ``bridgeland_wall`` gate each field of the
invariants they read, so hand-built invariants fail with ``DomainError``.
Records come from each class's trusted constructor ``_trusted``, which
``Record`` makes, given every field; ``Record.__init__`` stays the checked
public path.  The stage functions ``orthogonal_invariants``,
``resolution_multiplicities``, ``kronecker_data`` and ``secondary_edge``
read one field of the report.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import exceptional
from .chern import (
    ChernCharacter,
    SlopeDisc,
    _lattice,
    discriminant_form,
    euler_chi_pair,
    euler_pairing,
    moduli_dimension,
    natural_classes,
)
from .errors import ConsistencyError, DomainError
from .exceptional import DEFAULT_MAX_ORDER, ExceptionalSlope
from .qarith import (
    QuadraticNumber, _shown, exact_int, exact_type, integer_form, ratio_str, sqrt_ratio,
)
from .record import Record


class Kind(Enum):
    EXCEPTIONAL = "EXCEPTIONAL"
    HEIGHT_ZERO = "HEIGHT_ZERO"
    PICARD_RANK_2 = "PICARD_RANK_2"
    RANK_ZERO_PICARD_RANK_2 = "RANK_ZERO_PICARD_RANK_2"
    INVALID = "INVALID"


class CaseSign(Enum):
    POSITIVE = "POSITIVE"
    ZERO = "ZERO"
    NEGATIVE = "NEGATIVE"


class Fibration(Enum):
    BIRATIONAL = "BIRATIONAL"
    POSITIVE_DIM_FIBERS = "POSITIVE_DIM_FIBERS"


class SecondaryMode(Enum):
    SERRE_DUAL = "SERRE_DUAL"
    RANK2_SINGULAR_LOCUS = "RANK2_SINGULAR_LOCUS"
    RANK1_HILBERT_CHOW = "RANK1_HILBERT_CHOW"
    RANK0_SUPPORT_MAP = "RANK0_SUPPORT_MAP"


# The members a report compares against, bound once.  On Python 3.11 a member
# read off its class, ``CaseSign.POSITIVE``, goes through the metaclass hook
# ``EnumType.__getattr__``: about 200 ns, against 18 ns for a module global.
_EXCEPTIONAL, _HEIGHT_ZERO, _PICARD_RANK_2 = Kind.EXCEPTIONAL, Kind.HEIGHT_ZERO, Kind.PICARD_RANK_2
_RANK_ZERO, _INVALID = Kind.RANK_ZERO_PICARD_RANK_2, Kind.INVALID
_POSITIVE, _ZERO, _NEGATIVE = CaseSign.POSITIVE, CaseSign.ZERO, CaseSign.NEGATIVE
_BIRATIONAL, _POSITIVE_DIM_FIBERS = Fibration.BIRATIONAL, Fibration.POSITIVE_DIM_FIBERS
_SERRE_DUAL, _RANK2_SINGULAR_LOCUS = SecondaryMode.SERRE_DUAL, SecondaryMode.RANK2_SINGULAR_LOCUS
_RANK1_HILBERT_CHOW, _RANK0_SUPPORT_MAP = (SecondaryMode.RANK1_HILBERT_CHOW,
                                          SecondaryMode.RANK0_SUPPORT_MAP)


class Classification(Record):
    __slots__ = ("kind", "reasons")
    kind: Kind
    reasons: tuple[str, ...]


class OrthogonalInvariants(Record):
    __slots__ = ("ray", "case_sign", "on_delta_curve", "corresponding_slope")
    ray: ChernCharacter  # the primitive primary ray, of positive rank
    case_sign: CaseSign
    on_delta_curve: bool
    corresponding_slope: ExceptionalSlope

    @property
    def point(self) -> SlopeDisc:
        """The invariants ``(mu+, delta+)``: the ray's slope and discriminant."""
        return self.ray.slope_disc()


class ResolutionData(Record):
    __slots__ = ("case_sign", "triad_slopes", "triad", "m1", "m2", "m3")
    case_sign: CaseSign
    triad_slopes: tuple[ExceptionalSlope, ...]
    triad: tuple[ChernCharacter, ...]
    m1: int
    m2: int
    m3: Optional[int]

    @property
    def shape(self) -> str:
        """The resolution written out; only rendering writes its integers."""
        names = [_bundle_name(s) for s in self.triad_slopes]
        m1, m2, m3 = self.m1, self.m2, self.m3
        if self.case_sign is _POSITIVE:
            a, b, c = names
            return f"0 -> {a}^{m1} -> {b}^{m2} (+) {c}^{m3} -> U -> 0"
        if self.case_sign is _NEGATIVE:
            a, b, c = names
            return f"triangle W -> U -> {a}^{m3}[1], with 0 -> {b}^{m1} -> {c}^{m2} -> W -> 0"
        a, b = names
        return f"0 -> {a}^{m1} -> {b}^{m2} -> U -> 0"


class KroneckerData(Record):
    __slots__ = ("hom_count", "dim_vector", "expected_dimension", "fibration")
    hom_count: int
    dim_vector: tuple[int, int]
    expected_dimension: int
    fibration: Fibration


class Wall(Record):
    """A numerical wall: center ``-mu - 3/2`` and squared radius ``2 delta + 1/4``.

    Both rationals are kept as the integer numerator and denominator they are
    written from; ``center_s`` and ``radius_squared`` read them as ``Fraction``s.
    """

    __slots__ = ("center_num", "center_den", "radius", "radius_squared_num",
                 "radius_squared_den", "exceeds_collapse_bound")
    center_num: int
    center_den: int
    radius: QuadraticNumber
    radius_squared_num: int
    radius_squared_den: int
    exceeds_collapse_bound: bool  # radius > sqrt(5)/2, automatic when delta+ > 1/2

    @property
    def center_s(self) -> Fraction:
        return Fraction(self.center_num, self.center_den)

    @property
    def radius_squared(self) -> Fraction:
        return Fraction(self.radius_squared_num, self.radius_squared_den)


def _coords(ray: Optional[ChernCharacter],
            r: Optional[int]) -> Optional[tuple[Fraction, Fraction]]:
    """The ray ``(R, C, X)``'s natural-basis coordinates ``(R/r, C/r)``, over the input's rank."""
    return None if r is None else (Fraction(ray.r, r), Fraction(ray.c1, r))


class PrimaryEdge(Record):
    __slots__ = ("invariants", "extremal_character", "coords_denominator", "resolution",
                 "kronecker", "wall", "movable_edge_coincides")
    invariants: OrthogonalInvariants
    extremal_character: ChernCharacter
    coords_denominator: Optional[int]  # the input's rank; None for rank zero
    resolution: Optional[ResolutionData]
    kronecker: Optional[KroneckerData]
    wall: Wall
    movable_edge_coincides: bool

    @property
    def basis_coords(self) -> Optional[tuple[Fraction, Fraction]]:
        return _coords(self.extremal_character, self.coords_denominator)


class SecondaryEdge(Record):
    __slots__ = ("mode", "corresponding_slope", "extremal_character", "coords_denominator",
                 "descriptor", "dual_primary")
    mode: SecondaryMode
    corresponding_slope: Optional[ExceptionalSlope]
    extremal_character: Optional[ChernCharacter]
    coords_denominator: Optional[int]  # the input's rank, where there is a ray
    descriptor: str
    dual_primary: Optional[PrimaryEdge]  # full pipeline on the Serre dual

    @property
    def basis_coords(self) -> Optional[tuple[Fraction, Fraction]]:
        return _coords(self.extremal_character, self.coords_denominator)

    @property
    def invariants(self) -> Optional[SlopeDisc]:
        """The ray's slope and discriminant, where there is a ray."""
        ray = self.extremal_character
        return None if ray is None else ray.slope_disc()


class ConeReport(Record):
    __slots__ = ("input", "classification", "dimension", "natural", "mu0_plus", "mu0_minus",
                 "primary", "secondary", "note")
    input: ChernCharacter
    classification: Classification
    dimension: Optional[int]
    natural: Optional[tuple[ChernCharacter, ChernCharacter]]
    mu0_plus: Optional[QuadraticNumber]
    mu0_minus: Optional[QuadraticNumber]
    primary: Optional[PrimaryEdge]
    secondary: Optional[SecondaryEdge]
    note: Optional[str]


# -- classification ----------------------------------------------------------


_ABOVE_BOUNDARY = Classification(_PICARD_RANK_2, ("discriminant exceeds the boundary curve",))


def classify(x: ChernCharacter, max_order: int = DEFAULT_MAX_ORDER) -> Classification:
    """Decide which kind of moduli space the character admits.

    Integrality gates first (integer rank and first Chern class, integer
    Euler characteristic), then position relative to the boundary curve.
    ``max_order`` must be an ``int`` of at least 0.
    """
    exact_int(max_order, "max_order", 0)
    r, c = exact_type(x, ChernCharacter, "x").r, x.c1
    if r.denominator != 1:
        return Classification._trusted(_INVALID, ("rank is not an integer",))
    if c.denominator != 1:
        return Classification._trusted(_INVALID, ("first Chern class is not an integer",))
    if x.chi.denominator != 1:
        return Classification._trusted(_INVALID, ("Euler characteristic is not an integer",))
    if r < 0:
        return Classification._trusted(_INVALID, ("negative rank",))

    if r == 0:
        if c < 3:
            return Classification._trusted(
                _INVALID,
                (f"rank zero needs first Chern class d >= 3, got {_shown(c, str)}",),
            )
        return Classification._trusted(
            _RANK_ZERO,
            (f"pure one-dimensional sheaves of degree {c}",),
        )

    # delta = F/(2r^2), and the boundary curve never rises above 1: each arc
    # P(-|mu - a|) - delta_a is at most P(0) = 1, so delta > 1 needs no descent
    if discriminant_form(r, c, x.chi)[0] > 2 * r * r:
        return _ABOVE_BOUNDARY
    enclosing = exceptional._enclosing(c, r, max_order)
    side = _arc_side(x, enclosing)
    if side > 0:
        return _ABOVE_BOUNDARY
    if side == 0:
        return Classification._trusted(
            _HEIGHT_ZERO, ("discriminant sits exactly on the boundary curve",)
        )
    # an exceptional multiple is k times its enclosing exceptional slope's bundle
    k, rest = divmod(r, enclosing.r)
    if rest == 0 and c == k * enclosing.c1 and x.chi == k * enclosing.chi:
        return Classification._trusted(
            _EXCEPTIONAL,
            (f"positive multiple of the exceptional character of slope {ratio_str(c, r)}",),
        )
    return Classification._trusted(
        _INVALID, ("discriminant below the boundary curve and not an exceptional multiple",)
    )


# -- gamma's triad ---------------------------------------------------------------


class _Triad(Record):
    """What the resolution owes to gamma alone, whatever the character.

    ``slope`` is gamma; ``alpha``, ``gamma`` and ``beta`` are the characters
    of gamma and its parents ``alpha < gamma < beta``; ``images`` are
    ``E_{-alpha-3}``, ``E_{-beta}``, ``E_{-gamma}`` and ``E_{-gamma-3}``, and
    ``image_chars`` their characters.  ``hom_count`` is the Kronecker arrow
    count ``N = chi(E_{-alpha-3}, E_{-beta})``, the same pair in every case.
    """

    __slots__ = ("slope", "alpha", "gamma", "beta", "images", "image_chars", "hom_count")
    slope: ExceptionalSlope
    alpha: ChernCharacter
    gamma: ChernCharacter
    beta: ChernCharacter
    images: tuple[ExceptionalSlope, ...]
    image_chars: tuple[ChernCharacter, ...]
    hom_count: int


# Distinct gammas whose triad is kept, as many as the halfwidth cache's ranks.
_TRIAD_CACHE_SIZE = 1024


@lru_cache(maxsize=_TRIAD_CACHE_SIZE)
def _triad(left: tuple, mid: tuple, right: tuple, p: int, q: int) -> _Triad:
    """The triad of gamma at ``p/2**q`` between its parents, worked out once per gamma.

    The key is what ``exceptional._bracket`` hands back: the bundles'
    ``(r, c1)`` and gamma's address, all integers, so a lookup hashes no
    record and a hit builds no slope.
    """
    left, gamma, right = exceptional._slopes(left, mid, right, exceptional._dyadic(p, q))
    image = exceptional.affine_image
    images = (image(left, True, -3), image(right, True, 0),
              image(gamma, True, 0), image(gamma, True, -3))
    chars = tuple(s.character() for s in images)
    n = euler_chi_pair(chars[0], chars[1])
    if n <= 0:
        raise ConsistencyError(f"hom count {n} is not positive")
    return _Triad._trusted(gamma, left.character(), gamma.character(), right.character(),
                           images, chars, n)


def _mu0(x: ChernCharacter) -> tuple[QuadraticNumber, Optional[QuadraticNumber]]:
    """``(mu0+, mu0-)``, where the orthogonal locus meets the half-height line.

    For positive rank ``mu0+- = (-3 - 2 mu +- sqrt(5 + 8 delta)) / 2``, from
    one root; the rank-zero locus is the vertical line ``mu = -chi/d``, and
    ``mu0-`` is ``None``.
    """
    if x.r == 0:
        return QuadraticNumber._from_form(-x.chi, 0, 0, x.c1), None
    # 5 + 8 delta = (5 r^2 + 4 F)/r^2 for delta = F/(2 r^2); with its root
    # (A + B sqrt(d))/D, mu0+- = (-(3r + 2c) D +- r A +- r B sqrt(d))/(2 r D)
    r, c = x.r, x.c1
    radicand = 5 * r * r + 4 * discriminant_form(r, c, x.chi)[0]
    if radicand < 0:
        raise ConsistencyError(f"negative discriminant radicand under valid classification: "
                               f"{_shown(radicand, str)} for {_shown(x, str)}")
    A, B, d, D = integer_form(sqrt_ratio(radicand, r * r))
    base, rA, rB, N = -(3 * r + 2 * c) * D, r * A, r * B, 2 * r * D
    make = QuadraticNumber._from_form
    return make(base + rA, rB, d, N), make(base - rA, -rB, d, N)


def _side(x: ChernCharacter, form: tuple[int, int, int, int], max_order: int,
          dim: Optional[int]) -> tuple[PrimaryEdge, _Triad]:
    """The primary edge of ``x`` and gamma's triad, from ``mu0+``'s integer form.

    One descent to gamma, then the invariants (the primitive primary ray, by
    the sign of the pairing with ``E_gamma``), the resolution and the
    Kronecker data; ``dim`` is the moduli dimension of ``x``, worked out once
    by the caller (``None`` for rank zero, which has no resolution).
    """
    triad = _triad(*exceptional._bracket(*form, max_order))
    gamma = triad.gamma
    pairing = euler_pairing(x, gamma)
    case = _POSITIVE if pairing > 0 else _NEGATIVE if pairing < 0 else _ZERO
    if case is _ZERO:
        ray = gamma
    else:  # orthogonal also to E_{-gamma} or E_{-gamma-3}
        ray = _ray(x, triad.image_chars[2 if case is _POSITIVE else 3])
    # mu+ <= gamma's slope, cross-multiplied by the two positive ranks
    on_curve = case is not _POSITIVE or ray.c1 * gamma.r <= gamma.c1 * ray.r
    inv = OrthogonalInvariants._trusted(ray, case, on_curve, triad.slope)
    res = kron = None
    if x.r > 0:
        res = _resolution(x, triad, case, pairing)
        kron = _kronecker(res, triad.hom_count, dim)
    return _primary_edge(x, inv, triad, res, kron, max_order), triad


# -- orthogonal invariants -----------------------------------------------------


def _ray(x: ChernCharacter, z: ChernCharacter) -> ChernCharacter:
    """The primitive class of positive rank orthogonal to both ``x`` and ``z``.

    It spans the line of ``f_x x f_z``, with ``f = (chi - r, c1, r)`` the
    pairing covector on ``(r, c1, chi)``; its rank ``c1(x) r(z) - r(x) c1(z)``
    is zero exactly when the two slopes agree.
    """
    a0, a1, a2 = x.chi - x.r, x.c1, x.r
    b0, b1, b2 = z.chi - z.r, z.c1, z.r
    r = a1 * b2 - a2 * b1
    if r == 0:
        raise ConsistencyError(f"the classes orthogonal to {x} and {z} have rank zero")
    c, chi = a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    g = math.gcd(r, c, chi) if r > 0 else -math.gcd(r, c, chi)
    return _lattice(r // g, c // g, chi // g)


def orthogonal_character(inv: OrthogonalInvariants, *,
                         max_order: int = DEFAULT_MAX_ORDER) -> ChernCharacter:
    """The primitive integral character on the primary ray, once it passes the boundary check."""
    exact_int(max_order, "max_order", 0)
    ray = _checked_ray(inv)
    if exact_type(inv.case_sign, CaseSign, "inv.case_sign") is not _ZERO:
        # endpoints are irrational, so a rational mu in gamma's closed
        # interval lies in no other and gamma's arc is the boundary there
        gamma = exact_type(inv.corresponding_slope, ExceptionalSlope, "inv.corresponding_slope")
        r, c = ray.r, ray.c1
        if exceptional._locate(gamma.r, gamma.c1, c, 0, 0, r)[1] < 0:
            gamma = exceptional._enclosing(c, r, max_order)
        if _arc_side(ray, gamma) < 0:
            raise ConsistencyError(f"orthogonal invariants {inv.point} below the boundary curve")
    return ray


def _checked_ray(inv: OrthogonalInvariants) -> ChernCharacter:
    """``inv.ray``, once it is a character of integral fields and positive rank, as a ray is."""
    ray = exact_type(exact_type(inv, OrthogonalInvariants, "inv").ray, ChernCharacter, "inv.ray")
    exact_int(ray.r, "inv.ray.r", 1)
    exact_int(ray.c1, "inv.ray.c1")
    exact_int(ray.chi, "inv.ray.chi")
    return ray


def _arc_side(x: ChernCharacter, a: ExceptionalSlope) -> int:
    """The sign of ``delta(x)`` minus ``a``'s arc at ``mu(x)``, for ``r(x) > 0``.

    Both over ``2 r^2 r_a^2``, for ``x = (r, c, chi)`` and ``a``'s rank
    ``r_a``: the discriminant gives ``r_a^2 (c^2 + 3rc + 2r^2 - 2r chi)``
    and the arc :func:`exceptional._arc_form`, the integer numerator that
    ``arc_value`` divides once.  No ``Fraction`` is built.
    """
    r, c, ra = x.r, x.c1, a.r
    t = ra * ra * discriminant_form(r, c, x.chi)[0] - exceptional._arc_form(a, r, c)
    return (t > 0) - (t < 0)


# -- resolutions ----------------------------------------------------------------


def _bundle_name(s: ExceptionalSlope) -> str:
    if s.r == 1:
        return "O" if s.c1 == 0 else f"O({s.c1})"
    if s.r == 2:
        return f"T({(s.c1 - 3) // 2})"
    return f"E({s})"


def _resolution(x: ChernCharacter, triad: _Triad, case: CaseSign,
                pairing: int) -> ResolutionData:
    """Multiplicities of the canonical resolution of the general sheaf of ``x``.

    Each is an Euler characteristic of a twist by an exceptional bundle; each
    must be nonnegative, and the signed combination of the triad must rebuild ``x``.
    """
    # The triad bundles have slopes -s or -s - 3 for s among gamma and its
    # parents alpha < beta, kept in gamma's triad.  Gamma's children are the
    # mutations 3 r(alpha) gamma - beta of (alpha, gamma) and
    # 3 r(beta) gamma - alpha of (gamma, beta): their pairings are linear.
    alpha, beta = triad.alpha, triad.beta
    if case is _POSITIVE:
        m1 = -euler_pairing(x, alpha)
        m2 = euler_pairing(x, beta) - 3 * alpha.r * pairing
        m3 = pairing
        slopes, chars = triad.images[:3], triad.image_chars[:3]
        coefficients = (-m1, m2, m3)
    elif case is _NEGATIVE:
        m1 = 3 * beta.r * pairing - euler_pairing(x, alpha)
        m2 = euler_pairing(x, beta)
        m3 = -pairing
        images, image_chars = triad.images, triad.image_chars
        slopes = (images[3], images[0], images[1])
        chars = (image_chars[3], image_chars[0], image_chars[1])
        coefficients = (-m3, -m1, m2)
    else:
        m1 = -euler_pairing(x, alpha)
        m2 = euler_pairing(x, beta)
        m3 = None
        slopes, chars = triad.images[:2], triad.image_chars[:2]
        coefficients = (-m1, m2)

    for m in (m1, m2, m3):
        if m is not None and m < 0:
            raise ConsistencyError(f"multiplicity {m} is negative for {x}")
    # the signed combination of the triad, one integer dot product per field
    r = c1 = chi = 0
    for char, k in zip(chars, coefficients):
        r, c1, chi = r + k * char.r, c1 + k * char.c1, chi + k * char.chi
    if r != x.r or c1 != x.c1 or chi != x.chi:
        raise ConsistencyError(f"resolution of {x} rebuilds {_lattice(r, c1, chi)}")
    return ResolutionData._trusted(case, slopes, chars, m1, m2, m3)


def _kronecker(res: ResolutionData, n: int, dim: int) -> KroneckerData:
    """Kronecker data of the resolution's two-term complex, with gamma's arrow count ``n``.

    ``dim`` is the moduli dimension of the resolved character; it must exceed
    the expected dimension when the case is nonzero, and equal it when the
    fibration is birational.
    """
    b, a = res.m1, res.m2
    edim = a * b * n - a * a - b * b + 1
    fibration = _BIRATIONAL if res.case_sign is _ZERO else _POSITIVE_DIM_FIBERS
    if fibration is _BIRATIONAL:
        if dim != edim:
            raise ConsistencyError(f"birational fibration but dim {dim} != expected {edim}")
    elif dim <= edim:
        raise ConsistencyError(
            f"fibration with positive-dimensional fibers needs dim {dim} > expected {edim}"
        )
    return KroneckerData._trusted(n, (b, a), edim, fibration)


def bridgeland_wall(inv: OrthogonalInvariants) -> Wall:
    """Numerical wall in the stability half-plane picked out by the invariants.

    The center ``-mu - 3/2`` and the squared radius ``2 delta + 1/4`` are
    read off the primitive ray ``(r, c, chi)`` as ``(-2c - 3r)/(2r)`` and
    ``((2c + 3r)^2 - 8 r chi)/(4 r^2)``, and kept as those integers.
    """
    ray = _checked_ray(inv)
    r, c = ray.r, ray.c1
    s = 2 * c + 3 * r
    n = s * s - 8 * r * ray.chi
    if n < 0:
        raise DomainError("negative squared radius")
    den = 4 * r * r
    return Wall._trusted(-s, 2 * r, sqrt_ratio(n, den), n, den, n > 5 * r * r)


# -- cone assembly ---------------------------------------------------------------


def _orthogonal(x: ChernCharacter, a: ChernCharacter, b: ChernCharacter, failed: str) -> None:
    """``ConsistencyError``, ``failed`` for the input ``x``, unless ``a`` and ``b`` pair to 0."""
    pairing = euler_pairing(a, b)
    if pairing != 0:
        raise ConsistencyError(f"{failed} {_shown(x, str)}: pairing ({_shown(a, str)}, "
                               f"{_shown(b, str)}) = {_shown(pairing, str)}")


def _primary_edge(x: ChernCharacter, inv: OrthogonalInvariants, triad: _Triad,
                  res: Optional[ResolutionData], kron: Optional[KroneckerData],
                  max_order: int) -> PrimaryEdge:
    """The primary edge on ``inv``'s ray, once its checks pass.

    The half-plane, orthogonality and double orthogonality are checked here,
    the boundary in :func:`orthogonal_character`.
    """
    # the rank-zero line splits the orthogonal plane; positive rank is the primary half
    if inv.ray.r <= 0:
        raise ConsistencyError(f"primary ray fell outside the primary half-plane: "
                               f"{_shown(inv.ray, str)} for {_shown(x, str)}")
    ray = orthogonal_character(inv, max_order=max_order)
    _orthogonal(x, x, ray, "primary ray is not orthogonal to the input")
    if inv.case_sign is _POSITIVE:  # orthogonal also to E_{-gamma}
        _orthogonal(x, ray, triad.image_chars[2], "positive-case double orthogonality failed for")
    return PrimaryEdge._trusted(inv, ray, x.r or None, res, kron, bridgeland_wall(inv),
                                inv.case_sign is not _ZERO)


def _secondary_edge(x: ChernCharacter, mu0_minus: Optional[QuadraticNumber], max_order: int,
                    dim: Optional[int]) -> SecondaryEdge:
    """Second extremal ray: dual pipeline for rank >= 3, known classes below.

    Rank 2 uses the divisor of singular sheaves (a negative-rank orthogonal
    class of tensor slope -3/2); ranks 1 and 0 carry named divisor classes
    with no canonical character, so only descriptors are emitted.
    """
    r = x.r
    if r >= 3:
        # Serre duality keeps the classification, the dimension and maps mu0+
        # to -mu0-: the dual descends on mu0-'s integer form negated, and
        # builds no number
        xd, minus = x.serre_dual(), mu0_minus
        dual, triad = _side(xd, (-minus.A, -minus.B, minus.d, minus.D), max_order, dim)
        ray = -dual.extremal_character.dual()
        slope = triad.images[2]  # -gamma of the dual
        mode = _SERRE_DUAL
        descriptor = "h2-cohomology jumping divisor, from the dual pipeline"
    elif r == 2:
        # tensor slope -3/2 with x: orthogonal to the rank-zero class (0, 2r, 3r + 2c)
        ray = -_ray(x, _lattice(0, 2 * r, 3 * r + 2 * x.c1))
        slope = dual = None
        mode = _RANK2_SINGULAR_LOCUS
        descriptor = "divisor of singular (non-locally-free) sheaves"
    elif r == 1:
        mode = _RANK1_HILBERT_CHOW
        descriptor = "exceptional divisor of the Hilbert-Chow morphism"
    else:
        mode = _RANK0_SUPPORT_MAP
        descriptor = "pullback of O(1) under the support morphism"
    if r < 2:
        return SecondaryEdge._trusted(mode, None, None, None, descriptor, None)
    return SecondaryEdge._trusted(mode, slope, ray, r, descriptor, dual)


def cone_report(x: ChernCharacter, *, max_order: int = DEFAULT_MAX_ORDER) -> ConeReport:
    """Full report for a character; classification-only when no rays exist.

    Every extremal character is primitive; ``max_order`` is checked by
    :func:`classify`, before any work.
    """
    cls = classify(x, max_order)
    kind = cls.kind
    if kind is _INVALID:
        return ConeReport._trusted(x, cls, None, None, None, None, None, None, None)
    natural = dim = None
    if kind is not _RANK_ZERO:  # every kind left but the rank-zero one has positive rank
        natural = natural_classes(x)
        if kind is _EXCEPTIONAL:
            return ConeReport._trusted(x, cls, 0, natural, None, None, None, None,
                                       "moduli space is a single point")
        dim = moduli_dimension(x)
        if kind is _HEIGHT_ZERO:
            return ConeReport._trusted(x, cls, dim, natural, None, None, None, None,
                                       "moduli space has Picard rank one")

    mu0_plus, mu0_minus = _mu0(x)
    primary = _side(x, (mu0_plus.A, mu0_plus.B, mu0_plus.d, mu0_plus.D), max_order, dim)[0]
    secondary = _secondary_edge(x, mu0_minus, max_order, dim)
    ray = secondary.extremal_character
    if ray is not None:
        _orthogonal(x, x, ray, "secondary ray is not orthogonal to the input")
        # the rank-zero line splits the orthogonal plane; negative rank is the secondary half
        if ray.r >= 0:
            raise ConsistencyError(f"secondary ray fell outside the secondary half-plane: "
                                   f"{_shown(ray, str)} for {_shown(x, str)}")
    note = None
    if primary.invariants.case_sign is _POSITIVE and not primary.invariants.on_delta_curve:
        note = (
            "invariants lie off the boundary curve: stable orthogonal slopes "
            "below mu+ exist but span non-effective rays"
        )
    return ConeReport._trusted(x, cls, dim, natural, mu0_plus, mu0_minus, primary, secondary, note)


# -- stage views -----------------------------------------------------------------
#
# Each reads one field of ``cone_report``; the traced benchmark wraps them by name.


def orthogonal_invariants(x: ChernCharacter,
                          max_order: int = DEFAULT_MAX_ORDER) -> OrthogonalInvariants:
    """The report's primary invariants; ``DomainError`` where it has no primary edge."""
    report = cone_report(x, max_order=max_order)
    if report.primary is None:
        kind = report.classification.kind.value
        raise DomainError(f"no intersection slope for {kind} characters")
    return report.primary.invariants


def resolution_multiplicities(x: ChernCharacter,
                              max_order: int = DEFAULT_MAX_ORDER) -> ResolutionData:
    """The report's resolution of the general sheaf; ``DomainError`` where it has none."""
    primary = cone_report(x, max_order=max_order).primary
    if primary is None or primary.resolution is None:
        raise DomainError("resolutions are computed for positive-rank Picard-rank-2 characters")
    return primary.resolution


def kronecker_data(x: ChernCharacter,
                   max_order: int = DEFAULT_MAX_ORDER) -> KroneckerData:
    """The report's Kronecker data of the resolution; ``DomainError`` where it has none."""
    primary = cone_report(x, max_order=max_order).primary
    if primary is None or primary.kronecker is None:
        raise DomainError("resolutions are computed for positive-rank Picard-rank-2 characters")
    return primary.kronecker


def secondary_edge(x: ChernCharacter, *, max_order: int = DEFAULT_MAX_ORDER) -> SecondaryEdge:
    """The report's second extremal ray; ``DomainError`` where it has none."""
    report = cone_report(x, max_order=max_order)
    if report.secondary is None:
        kind = report.classification.kind.value
        raise DomainError(f"no intersection slope for {kind} characters")
    return report.secondary
