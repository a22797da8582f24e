"""Chern characters on the projective plane and their numerical invariants.

A character is stored in the lattice basis ``(r, c1, chi)``: rank, first
Chern class and Euler characteristic ``chi = ch0 + (3/2) ch1 + ch2``.  Every
sheaf has integral ``(r, c1, chi)``; the constructors and every operation,
which build through ``_lattice`` (``ChernCharacter._trusted``), store an
integral field as a plain ``int``.  A :class:`~fractions.Fraction` field
survives only for non-integral input, which classification rejects.
Every operation is one closed form in the lattice basis, so an integral
character never builds a ``Fraction``:

* Euler pairing ``(x, z) = chi(x tensor z) = r_x chi_z + r_z chi_x - r_x r_z + c_x c_z``;
* ``tensor = (r_x r_z, r_x c_z + r_z c_x, (x, z))``;
* ``dual = (r, -c, chi - 3c)`` and ``serre_dual = (r, -c - 3r, chi)``;
* ``twist(n) = (r, c + r n, chi + c n + r n(n + 3)/2)``, the tensor with O(n);
* ``+``, ``-``, negation and ``scale`` componentwise;
* ``discriminant = (c^2 + 3rc + 2r^2 - 2r chi) / (2r^2)``;
* ``moduli_dimension = c^2 + 3rc + r^2 - 2r chi + 1``;
* natural classes ``(r, 0, r - chi)`` and ``(0, r, -c)``.

The Chern-character view ``(ch0, ch1, ch2)`` and, for positive rank, the
``(r, mu, delta)`` view with slope ``mu = c1/r`` are read off as ``Fraction``
values; ``ChernCharacter(ch0, ch1, ch2)`` and ``from_rmd`` take them.
A quotient of lattice fields is always taken as ``Fraction(a, b)``, never
``a / b``, which is a float for two ints.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConsistencyError, DomainError, RankZeroError
from .qarith import RationalLike, exact_int, exact_rational, exact_type, parse_rational, ratio_str
from .record import Record


def hilbert_poly(m: RationalLike) -> Fraction:
    """Euler characteristic of O(m): ``(m^2 + 3m + 2) / 2``."""
    m = Fraction(exact_rational(m, "m"))
    return (m * m + 3 * m + 2) / 2


class SlopeDisc(Record):
    """A point (mu, delta) of the slope-discriminant plane."""

    __slots__ = ("mu", "delta")
    mu: Fraction
    delta: Fraction


def discriminant_form(r, c1, chi) -> tuple:
    """Numerator and denominator ``(c1^2 + 3 r c1 + 2 r^2 - 2 r chi, 2 r^2)`` of the discriminant.

    Unreduced, and homogeneous of degree two, so any multiple of a class gives
    the same quotient.
    """
    return c1 * (c1 + 3 * r) + 2 * r * (r - chi), 2 * r * r


def _integral(v: Fraction):
    """A rational lattice field: an ``int`` when integral, else the ``Fraction``."""
    return v.numerator if v.denominator == 1 else v


class ChernCharacter(Record):
    """An immutable character ``(r, c1, chi)`` in the lattice basis.

    ``ChernCharacter(ch0, ch1, ch2)`` takes the Chern-character view; the
    lattice fields are read as ``r``, ``c1`` and ``chi``.
    """

    __slots__ = ("r", "c1", "chi")

    def __init__(self, ch0: RationalLike, ch1: RationalLike, ch2: RationalLike):
        ch0, ch1 = Fraction(exact_rational(ch0, "ch0")), Fraction(exact_rational(ch1, "ch1"))
        ch2 = Fraction(exact_rational(ch2, "ch2"))
        Record.__init__(self, _integral(ch0), _integral(ch1),
                        _integral(ch0 + Fraction(3, 2) * ch1 + ch2))

    @staticmethod
    def from_rmd(r: RationalLike, mu: RationalLike, delta: RationalLike) -> "ChernCharacter":
        """Character with the given rank, slope and discriminant (rank nonzero)."""
        r, mu = Fraction(exact_rational(r, "r")), Fraction(exact_rational(mu, "mu"))
        delta = Fraction(exact_rational(delta, "delta"))
        if r == 0:
            raise DomainError("rank zero admits no (slope, discriminant) description")
        # chi = r (P(mu) - delta), Riemann-Roch
        return _lattice(_integral(r), _integral(r * mu), _integral(r * (hilbert_poly(mu) - delta)))

    def __reduce__(self):
        return _lattice, (self.r, self.c1, self.chi)

    # -- the Chern-character view -----------------------------------------

    @property
    def ch0(self) -> Fraction:
        return Fraction(self.r)

    @property
    def ch1(self) -> Fraction:
        return Fraction(self.c1)

    @property
    def ch2(self) -> Fraction:
        return Fraction(2 * (self.chi - self.r) - 3 * self.c1, 2)

    # -- invariants -----------------------------------------------------

    def slope(self) -> Fraction:
        if self.r == 0:
            raise RankZeroError("slope of a rank-zero character")
        return Fraction(self.c1, self.r)

    def discriminant(self) -> Fraction:
        if self.r == 0:
            raise RankZeroError("discriminant of a rank-zero character")
        return Fraction(*discriminant_form(self.r, self.c1, self.chi))

    def slope_disc(self) -> SlopeDisc:
        return SlopeDisc(self.slope(), self.discriminant())

    # -- K-theory operations ---------------------------------------------

    def tensor(self, other: "ChernCharacter") -> "ChernCharacter":
        """Multiplicative product; slope and discriminant are additive."""
        exact_type(other, ChernCharacter, "other")
        return _closed(
            self.r * other.r, self.r * other.c1 + other.r * self.c1, euler_pairing(self, other)
        )

    def dual(self) -> "ChernCharacter":
        return _closed(self.r, -self.c1, self.chi - 3 * self.c1)

    def twist(self, n: int) -> "ChernCharacter":
        """Tensor with O(n)."""
        exact_int(n, "n")
        r, c = self.r, self.c1
        return _closed(r, c + r * n, self.chi + c * n + r * (n * (n + 3) // 2))

    def serre_dual(self) -> "ChernCharacter":
        """Dual twisted by O(-3); fixes delta and sends mu to -mu - 3."""
        return _closed(self.r, -self.c1 - 3 * self.r, self.chi)

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        exact_type(other, ChernCharacter, "other")
        return _closed(self.r + other.r, self.c1 + other.c1, self.chi + other.chi)

    def __sub__(self, other: "ChernCharacter") -> "ChernCharacter":
        exact_type(other, ChernCharacter, "other")
        return _closed(self.r - other.r, self.c1 - other.c1, self.chi - other.chi)

    def __neg__(self) -> "ChernCharacter":
        return _closed(-self.r, -self.c1, -self.chi)

    def scale(self, k: RationalLike) -> "ChernCharacter":
        # a record is immutable, so the class itself is its own multiple
        if exact_rational(k, "k") == 1:
            return self
        return _closed(k * self.r, k * self.c1, k * self.chi)

    def __str__(self) -> str:
        return f"({self.r}, {self.c1}, {self.ch2})"


_lattice = ChernCharacter._trusted  # each field trusted to be an int or a Fraction


def _closed(r, c1, chi) -> ChernCharacter:
    """An operation's result ``(r, c1, chi)``, with each integral field an ``int``.

    A ``Fraction`` operand can give an integral ``Fraction``, as twice a
    half-integral ``chi`` does; all-int fields go to :func:`_lattice` as they are.
    """
    if type(r) is int and type(c1) is int and type(chi) is int:
        return _lattice(r, c1, chi)
    return _lattice(_integral(Fraction(r)), _integral(Fraction(c1)), _integral(Fraction(chi)))


def line_bundle(n: RationalLike) -> ChernCharacter:
    """Character of O(n)."""
    n = Fraction(exact_rational(n, "n"))
    return _lattice(1, _integral(n), _integral(hilbert_poly(n)))


def euler_pairing(x: ChernCharacter, z: ChernCharacter):
    """Symmetric Euler pairing ``(x, z) = chi(x tensor z)``, an int for integral characters.

    For nonzero ranks this equals
    ``r(x) r(z) (P(mu(x) + mu(z)) - delta(x) - delta(z))``.
    """
    exact_type(x, ChernCharacter, "x")
    exact_type(z, ChernCharacter, "z")
    return x.r * z.chi + z.r * x.chi - x.r * z.r + x.c1 * z.c1


def euler_chi_pair(x: ChernCharacter, z: ChernCharacter):
    """Sheaf-pair Euler characteristic chi(X, Z) = chi(X^v tensor Z)."""
    return euler_pairing(exact_type(x, ChernCharacter, "x").dual(), z)


def moduli_dimension(x: ChernCharacter) -> int:
    """Dimension ``r^2 (2 delta - 1) + 1`` of a positive-dimensional moduli space."""
    r, c = exact_type(x, ChernCharacter, "x").r, x.c1
    if r <= 0:
        raise DomainError("dimension formula needs positive rank")
    value = c * (c + 3 * r) + r * (r - 2 * x.chi) + 1
    if value.denominator != 1:
        raise ConsistencyError(f"non-integer moduli dimension {value} for {x}")
    return int(value)


def natural_classes(x: ChernCharacter) -> tuple[ChernCharacter, ChernCharacter]:
    """The two canonical orthogonal classes spanning the orthogonal plane.

    The first has rank ``r(x)``; the second is the rank-zero class giving
    the morphism to the Donaldson-Uhlenbeck-Yau compactification.
    """
    r = exact_type(x, ChernCharacter, "x").r
    if r <= 0:
        raise DomainError("natural classes need positive rank")
    return _lattice(r, 0, r - x.chi), _lattice(0, r, -x.c1)


# -- serialization ---------------------------------------------------------


def slope_disc_text(x: ChernCharacter) -> tuple[str, str]:
    """``(mu, delta)`` of an integral character of nonzero rank, written from its integers."""
    r, c = x.r, x.c1
    return ratio_str(c, r), ratio_str(*discriminant_form(r, c, x.chi))


def character_to_json(x: ChernCharacter) -> dict:
    """Canonical JSON object carrying both the chern and (r, mu, delta) views.

    An integral character is written straight from ``(r, c1, chi)``:
    ``ch2 = (2 (chi - r) - 3 c1)/2``, ``mu = c1/r`` and the discriminant's
    integer form, each by :func:`ratio_str`.
    """
    r, c, chi = x.r, x.c1, x.chi
    if type(r) is int and type(c) is int and type(chi) is int:
        rs, cs = str(r), str(c)
        out = {"ch0": rs, "ch1": cs, "ch2": ratio_str(2 * (chi - r) - 3 * c, 2), "r": rs}
        if r:
            out["mu"], out["delta"] = slope_disc_text(x)
        else:
            out["mu"] = None
            out["delta"] = None
        out["c1"] = cs
        out["chi"] = str(chi)
        return out
    r = str(x.r)
    out = {"ch0": r, "ch1": str(x.c1), "ch2": str(x.ch2), "r": r}
    if x.r != 0:
        out["mu"] = str(x.slope())
        out["delta"] = str(x.discriminant())
    else:
        out["mu"] = None
        out["delta"] = None
    out["c1"] = out["ch1"]
    out["chi"] = str(x.chi)
    return out


def _field(value):
    """A lattice field from JSON: a JSON integer as is, anything else parsed as a rational."""
    return value if type(value) is int else _integral(parse_rational(str(value)))


def character_from_json(data: dict) -> ChernCharacter:
    """Accepts {ch0, ch1, ch2}, {r, mu, delta} or {r, c1, chi} objects."""
    if not isinstance(data, dict):
        raise DomainError("character must be a JSON object")
    if {"ch0", "ch1", "ch2"} <= data.keys():
        return ChernCharacter(
            parse_rational(str(data["ch0"])),
            parse_rational(str(data["ch1"])),
            parse_rational(str(data["ch2"])),
        )
    if {"r", "mu", "delta"} <= data.keys() and data.get("mu") is not None:
        return ChernCharacter.from_rmd(
            parse_rational(str(data["r"])),
            parse_rational(str(data["mu"])),
            parse_rational(str(data["delta"])),
        )
    if {"r", "c1", "chi"} <= data.keys():
        return _lattice(_field(data["r"]), _field(data["c1"]), _field(data["chi"]))
    raise DomainError(
        "character object needs keys {ch0, ch1, ch2}, {r, mu, delta} or {r, c1, chi}"
    )
