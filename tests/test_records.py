"""The result types are immutable slots records with value semantics.

Every record a report or a descent builds is checked for what
callers rely on: positional construction, equality and hashing by value,
a ``repr`` naming each field, refused assignment and deletion, and a
``pickle`` round trip.  A record holding a ``QuadraticNumber`` hashes too,
since ``QuadraticNumber`` hashes as equal values do.
"""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planecones import cone
from planecones.chern import ChernCharacter, SlopeDisc
from planecones.exceptional import DyadicRational, parents
from planecones.qarith import QuadraticNumber, squarefree_decompose
from planecones.record import Record

from conftest import record_fields, replace, triad_key

GOLDEN = ChernCharacter.from_rmd(3, Fraction(2, 3), Fraction(17, 9))


def _records() -> dict:
    """One record of each type, from the golden character's report and its gamma's triad."""
    report = cone.cone_report(GOLDEN)
    primary = report.primary
    inv = primary.invariants
    gamma = inv.corresponding_slope
    left, right = parents(gamma)
    return {
        "SlopeDisc": inv.point,
        "DyadicRational": report.secondary.corresponding_slope.dyadic,
        "ExceptionalSlope": report.secondary.corresponding_slope,
        "Classification": report.classification,
        "OrthogonalInvariants": inv,
        "ResolutionData": primary.resolution,
        "KroneckerData": primary.kronecker,
        "Wall": primary.wall,
        "PrimaryEdge": primary,
        "SecondaryEdge": report.secondary,
        "ConeReport": report,
        "_Triad": cone._triad(*triad_key(left, gamma, right)),
    }


RECORDS = list(_records())


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    record = _records()[name]
    cls = type(record)
    assert cls.__name__ == name and isinstance(record, Record)
    fields = record_fields(record)
    assert fields == tuple(cls.__annotations__)  # the slots are the annotated fields
    assert not hasattr(record, "__dict__")

    twin = cls(*(getattr(record, field) for field in fields))
    assert twin is not record and twin == record and not twin != record
    assert repr(twin) == repr(record)
    assert repr(record).startswith(f"{name}({fields[0]}={getattr(record, fields[0])!r}, ")
    assert hash(twin) == hash(record)  # equal twins hash equal

    for field in fields:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert cls(*(getattr(record, field) for field in fields)) == record  # nothing changed

    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and copy is not record
    assert all(getattr(copy, field) == getattr(record, field) for field in fields)

    # a record differs from one with a field changed, and from its fields' tuple
    other = cls.__new__(cls)
    Record.__init__(other, object(), *(getattr(record, field) for field in fields[1:]))
    assert other != record and record != tuple(getattr(record, f) for f in fields)


# values that are records but no report field's record type
VALUES = {"ChernCharacter": GOLDEN, "QuadraticNumber": cone.cone_report(GOLDEN).mu0_plus}


@pytest.mark.parametrize("name", [*RECORDS, *VALUES])
def test_trusted_constructor(name):
    """``cls._trusted(*fields)`` builds the record that ``Record`` checks and pickles."""
    record = VALUES[name] if name in VALUES else _records()[name]
    cls = type(record)
    made = cls._trusted(*(getattr(record, field) for field in record_fields(record)))
    assert type(made) is cls and made is not record and made == record
    assert isinstance(made, Record)
    assert hash(made) == hash(record) and repr(made) == repr(record)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(made, record_fields(made)[0], None)
    copy = pickle.loads(pickle.dumps(made))
    assert type(copy) is cls and copy == record
    # pickle finds the constructor by reference, as chern.ChernCharacter._trusted and the like
    assert pickle.loads(pickle.dumps(cls._trusted)) is cls._trusted


@given(st.fractions(), st.fractions(), st.integers(min_value=0, max_value=10**9))
def test_from_form_stores_what_init_stores(a, b, d):
    """The trusted ``_from_form`` of an unreduced form keeps the fields ``__init__`` keeps."""
    s, squarefree = squarefree_decompose(d)
    made = QuadraticNumber._from_form(a.numerator * b.denominator,
                                      s * b.numerator * a.denominator, squarefree,
                                      a.denominator * b.denominator)
    checked = QuadraticNumber(a, b, d)
    assert type(made) is QuadraticNumber
    assert record_fields(made) == ("A", "B", "d", "D")
    assert made._fields(made) == checked._fields(checked)


class Five(Record):
    __slots__ = ("a", "b", "c", "d", "e")


class Eight(Record):
    __slots__ = ("a", "b", "c", "d", "e", "f", "g", "h")


@pytest.mark.parametrize("cls", [Five, Eight], ids=["five", "eight"])
def test_a_record_of_any_field_count(cls):
    """A field count no result type has gets its trusted constructor too."""
    values = tuple(Fraction(i, 7) for i in range(len(cls.__slots__)))
    made, checked = cls._trusted(*values), cls(*values)
    assert type(made) is cls and made is not checked and made == checked
    assert hash(made) == hash(checked) and made._fields(made) == values
    copy = pickle.loads(pickle.dumps(made))
    assert type(copy) is cls and copy == checked
    assert pickle.loads(pickle.dumps(cls._trusted)) is cls._trusted


@pytest.mark.parametrize("slots", [(), ("a",)], ids=["none", "one"])
def test_a_record_has_at_least_two_fields(slots):
    # attrgetter of one name reads the bare value, not a 1-tuple
    with pytest.raises(TypeError, match=rf"^Few has {len(slots)} fields; a record has at least 2$"):
        type("Few", (Record,), {"__slots__": slots})


def test_positional_construction_checks_the_field_count():
    with pytest.raises(TypeError, match="SlopeDisc takes 2 fields, got 1"):
        SlopeDisc(Fraction(1))
    with pytest.raises(TypeError):
        DyadicRational(1, 2, 3)


def test_dyadic_check():
    assert DyadicRational(3, 2) == DyadicRational(3, 2) != DyadicRational(1, 2)
    for p, q in ((4, 1), (1, -1)):
        with pytest.raises(ValueError):
            DyadicRational(p, q)


def test_equal_slopes_share_a_triad():
    # the triad cache is keyed on the integers of gamma, its parents and its
    # address, so equal slopes built apart share one triad and no record is hashed
    left, gamma, right = (replace(s) for s in cone.exceptional.slope_and_parents(
        DyadicRational(5, 3)))
    cone._triad.cache_clear()
    first = cone._triad(*triad_key(left, gamma, right))
    again = cone._triad(*triad_key(*(replace(s) for s in (left, gamma, right))))
    assert again is first and cone._triad.cache_info().hits == 1
    assert first.slope == gamma and first.gamma == gamma.character()
