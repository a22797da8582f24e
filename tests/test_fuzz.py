"""Hostile input to the command line ends in one line, and to the library in its own error.

Hypothesis draws ``argv`` from a small grammar of each subcommand's flags
and ``batch`` files of hostile lines, and calls ``main`` in-process.
Nothing may escape but argparse's ``SystemExit(2)``; every exit code is 0,
1, 2 or 4, never the internal status 3; no case prints a traceback, an
error exit with no output is one ``error:`` line, and no case takes a
second.  Each public callable of the package is called, too, with
arguments from a hostile pool, and nothing but ``DomainError`` or
``DescentError`` may escape, within a second.  The tier-1 run draws 50
cases a test; the ``fuzz`` profile (``pytest -m fuzz
--hypothesis-profile=fuzz``) draws its own 2,000.  ``curve`` refuses, at
once, more samples than ``MAX_CURVE_SAMPLES``
and an interval table past ``MAX_CURVE_ROWS`` rows, so its bounds are drawn
up to 10^30 and its counts far past the caps.  What an accepted request
prints still takes time to write, so below the caps ``--samples`` stays at
most 64 and ``--interval-order`` at most 8, and a range is either a few units
wide or at least 10^9: no accepted table comes near the cap.
"""

import contextlib
import enum
import inspect
import io
import json
import math
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planecones
from planecones import cfrac
from planecones.chern import ChernCharacter
from planecones.cli import MAX_CURVE_SAMPLES, main
from planecones.cone import (
    CaseSign, OrthogonalInvariants, bridgeland_wall, cone_report, orthogonal_character,
)
from planecones.errors import DescentError, DomainError
from planecones.exceptional import (
    DyadicRational, ExceptionalSlope, delta_curve, find_interval, from_integer, from_slope_value,
)
from planecones.qarith import QuadraticNumber, int_digit_limit, parse_rational

pytestmark = pytest.mark.fuzz

LONG = "7" * 5000  # past Python's int-to-string digit limit
HOSTILE = ["1e100000000", "nan", "inf", "-inf", "١٢", "1/0", "", " ", LONG, f"-{LONG}",
           f"1/{LONG}", "0x10", "1.5", "-2.5e-3", "2/-3", "1,2"]


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


# hostile values that no integer flag reads as an integer; ``١٢`` reads as 12
NOT_INTS = [text for text in HOSTILE if not _is_int(text)]

small = st.one_of(st.integers(-6, 6).map(str),
                  st.fractions(-3, 3, max_denominator=9).map(str))
value = st.one_of(st.sampled_from(HOSTILE), small)
triple = st.one_of(st.lists(value, min_size=3, max_size=3).map(",".join), value)
count = st.one_of(st.integers(-2, 80).map(str), st.sampled_from(HOSTILE))


def bounded(most: int, past: int = 0):
    """An integer flag's text: at most ``most``, or a hostile value that is no integer.

    A positive ``past`` adds values from ``past`` up to 10^7.
    """
    drawn = [st.integers(-2, most).map(str), st.sampled_from(NOT_INTS)]
    if past:
        drawn.append(st.integers(past, 10 ** 7).map(str))
    return st.one_of(*drawn)


# a curve bound 10^9 to 10^30 from zero, or past it in exponent form: far from
# the small values and from each other, unless equal
far = st.tuples(st.sampled_from(["", "-"]), st.integers(9, 30)).map(
    lambda drawn: f"{drawn[0]}1{'0' * drawn[1]}")
far_exponent = st.tuples(st.sampled_from(["", "-"]), st.integers(9, 30)).map(
    lambda drawn: f"{drawn[0]}1e{drawn[1]}")
bound = st.one_of(value, far, far_exponent)


def flags(*options) -> st.SearchStrategy:
    """Each ``(flag, values)`` given or not, in a drawn order; ``values`` None for a switch."""
    drawn = [st.one_of(st.just([]), st.just([flag]) if values is None
                       else values.map(lambda text, flag=flag: [flag, text]))
             for flag, values in options]
    return st.tuples(*drawn).flatmap(st.permutations).map(lambda parts: sum(parts, []))


CHARACTER = (("--chern", triple), ("--rmd", triple))
word = st.text(alphabet="LRx ", max_size=40)
dyadic = st.one_of(value, st.tuples(value, count).map("/2^".join))
SLOPE = (("--dyadic", dyadic), ("--rational", value), ("--lr", word), ("--max-order", count))

ARGV = st.one_of(
    flags(*CHARACTER, ("--max-order", count), ("--approx", count))
    .map(lambda rest: ["cone", *rest]),
    flags(*CHARACTER, ("--max-order", count)).map(lambda rest: ["classify", *rest]),
    flags(*SLOPE).map(lambda rest: ["slope", *rest]),
    flags(*SLOPE, ("--period", None)).map(lambda rest: ["cfrac", *rest]),
    flags(("--lo", bound), ("--hi", bound), ("--samples", bounded(64, MAX_CURVE_SAMPLES + 1)),
          ("--interval-order", bounded(8, 17)), *CHARACTER, ("--max-order", count), ("--approx", count))
    .map(lambda rest: ["curve", *rest]),
)

# JSON values a batch line may hold where a number goes
json_field = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-10 ** 30, 10 ** 30), value,
    st.sampled_from([[], [1], [[3, 2]], {}, {"r": 3}, {"r": [{"c1": None}]}]),
)
KEY_SHAPES = [("r", "c1", "chi"), ("r", "mu", "delta"), ("ch0", "ch1", "ch2")]
character_line = st.tuples(
    st.sampled_from(KEY_SHAPES), st.lists(json_field, min_size=2, max_size=3),
).map(lambda drawn: json.dumps(dict(zip(*drawn))).encode())  # two fields leave a key out
raw_line = st.one_of(
    st.binary(max_size=12),
    st.sampled_from([b"\xff\xfe", b"{", b"[" * 10 ** 4, b"[]", b"null", b"true", b"1.5",
                     b'"r"', b"   \t", b"", f'{{"r": {LONG}, "c1": 0, "chi": 1}}'.encode()]),
    st.text(max_size=12).map(str.encode),
)
batch_lines = st.lists(st.one_of(character_line, raw_line), max_size=4)

cases = settings() if settings.get_current_profile_name() == "fuzz" else settings(max_examples=50)


def _run(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` with its output captured, checked for what every case must meet."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error, and nothing else
            assert exc.code == 2, (argv, exc.code)
            code = 2
    elapsed = time.perf_counter() - start
    out, err = out.getvalue(), err.getvalue()
    assert elapsed < 1, (argv, elapsed)
    assert code in (0, 1, 2, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1 and not out:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return code, out, err


@cases
@given(ARGV)
def test_hostile_argv(argv):
    _run(argv)


@cases
@given(batch_lines, flags(("--max-order", count), ("--approx", count)))
def test_hostile_batch_lines(lines, rest):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "batch.jsonl")
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines) + b"\n")
        code, out, err = _run(["batch", path, *rest])
    if code == 0:  # one record per line that is not blank, whatever it holds
        records = [json.loads(line) for line in out.splitlines()]
        read = (b"\n".join(lines) + b"\n").split(b"\n")[:-1]  # the lines a file yields
        assert len(records) == sum(not _blank(line) for line in read), lines
        assert err == ""


def _blank(line: bytes) -> bool:
    """Whether ``batch`` skips the line: it decodes to nothing but whitespace."""
    try:
        return not line.decode("utf-8").strip()
    except UnicodeDecodeError:
        return False


def _invariants(ray=ChernCharacter(1, 0, 0), case=CaseSign.POSITIVE, slope=from_integer(0)):
    """Orthogonal invariants built by hand, with the given ray, case and slope."""
    return OrthogonalInvariants(ray, case, True, slope)


# a library call handed a value of the wrong type, a record of no exceptional
# bundle, or a digit count past Python's digit limit: (call, args, what the refusal names)
WRONG_TYPES = [
    (QuadraticNumber, (1.5,), "a must be an int or a Fraction"),
    (QuadraticNumber, (1, True), "b must be an int or a Fraction"),
    (QuadraticNumber, (1, 0, 2.5), "d must be an int >= 0"),
    (QuadraticNumber, (1, 1, 2.5), "d must be an int >= 0"),
    (QuadraticNumber(1, 1, 2).decimal, (1.5,), "digits must be an int >= 0"),
    (QuadraticNumber.parse, (None,), "text must be a str"),
    *([(QuadraticNumber(1, 1, 2).decimal, (5000,), "digits must be at most Python's limit"),
       (QuadraticNumber(1, 1, 2).bounds, (10 ** 30,), "digits must be at most Python's limit")]
      if int_digit_limit() < 5000 else []),  # the bound is 4,300 with no limit
    (DyadicRational, (1.5, 2), "p must be an int"),
    (DyadicRational.make, (1, 2.0), "q must be an int"),
    (from_integer, (1.5,), "n must be an int"),
    (ExceptionalSlope, (0, 1, DyadicRational(1, 0)), "r must be an int >= 1"),
    (ExceptionalSlope, (None, 0, DyadicRational(0, 0)), "r must be an int >= 1"),
    (ExceptionalSlope, (1, 0.5, DyadicRational(0, 0)), "c1 must be an int"),
    (ExceptionalSlope, (1, 0, Fraction(0)), "dyadic must be a DyadicRational"),
    (ExceptionalSlope, (2, 0, DyadicRational(0, 0)),
     r"\(r, c1\) = \(2, 0\) is no exceptional bundle"),
    (bridgeland_wall, (_invariants(ray=None),), "inv.ray must be a ChernCharacter"),
    (bridgeland_wall, (_invariants(ray=ChernCharacter(0, 3, 0)),), "inv.ray.r must be an int >= 1"),
    (orthogonal_character, (_invariants(ray=ChernCharacter(1, Fraction(1, 2), 0)),),
     "inv.ray.c1 must be an int"),
    (orthogonal_character, (_invariants(case="POSITIVE"),), "inv.case_sign must be a CaseSign"),
    (orthogonal_character, (_invariants(slope=(1, 0)),),
     "inv.corresponding_slope must be an ExceptionalSlope"),
    (ChernCharacter, (True, 0, 0), "ch0 must be an int or a Fraction"),
    (ChernCharacter(1, 0, 0).tensor, (None,), "other must be a ChernCharacter"),
    (ChernCharacter(1, 0, 0).__add__, (1,), "other must be a ChernCharacter"),
    (ChernCharacter(1, 0, 0).__sub__, (None,), "other must be a ChernCharacter"),
    (cone_report, (None,), "x must be a ChernCharacter"),
    (from_slope_value, (math.nan,), "mu must be an int or a Fraction"),
    (delta_curve, (math.inf,), "mu must be an int or a Fraction"),
    (delta_curve, (0.1,), "mu must be an int or a Fraction"),
    (find_interval, (0.3,), "x must be an int or a Fraction"),
    (parse_rational, (5,), "text must be a str"),
    (cfrac.cantor_approx, ("RL", 1.5), "depth must be an int"),
    (cfrac.cantor_approx, ("RL", None), "depth must be an int"),
    (cfrac.lr_to_slope, (None,), "not an LR word"),
    (cfrac.period_structure, (None,), "not an LR word"),
    (cfrac.word_to_dyadic, (5,), "not an LR word"),
    (cfrac.cf_eval, ("1a",), "not a digit string"),
    (cfrac.parity_convert, ("1a",), "not a digit string"),
]


@pytest.mark.parametrize("call, args, named", WRONG_TYPES,
                         ids=[f"{call.__qualname__}{args}" for call, args, _ in WRONG_TYPES])
def test_a_wrong_type_is_a_domain_error(call, args, named):
    with pytest.raises(DomainError, match=f"^{named}"):
        call(*args)


def _library() -> list[tuple]:
    """``(name, call, fewest, most, keywords)`` for each public callable of the package.

    That is each function and class ``planecones`` exports and each static or
    class method of an exported class, called with ``fewest`` to ``most``
    positional arguments and any of its ``keywords``, the names of its
    keyword-only parameters, as ``inspect.signature`` reads them; a record
    without a constructor of its own takes one positional argument per field.  An ``Enum`` class
    is left out, as calling it looks a member up by value, by Python's
    protocol, and so is an exception class, whose call raises nothing.
    """
    found = []
    for name in dir(planecones):
        value = getattr(planecones, name)
        if name.startswith("_") or not callable(value):
            continue
        if isinstance(value, type) and issubclass(value, (enum.Enum, BaseException)):
            continue
        found.append((name, value))
        if isinstance(value, type):
            found += [(f"{name}.{method}", getattr(value, method))
                      for method, member in vars(value).items() if not method.startswith("_")
                      and isinstance(member, (staticmethod, classmethod))]
    library = []
    for name, call in found:
        params = list(inspect.signature(call).parameters.values())
        if any(p.kind is p.VAR_POSITIONAL for p in params):
            library.append((name, call, len(call.__slots__), len(call.__slots__), ()))
            continue
        positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        fewest = sum(p.default is p.empty for p in positional)
        keywords = tuple(p.name for p in params if p.kind is p.KEYWORD_ONLY)
        library.append((name, call, fewest, len(positional), keywords))
    return library


LIBRARY = _library()
GOLDEN = ChernCharacter.from_rmd(3, Fraction(2, 3), Fraction(17, 9))
# None, bools, non-finite and other floats, strings, huge ints (the last past
# Python's digit limit) and one record of each class a public call takes,
# each of the wrong class for every argument but its own, and an address of
# order 10^9, whose walk must stop at its digit cap; a Fraction, a slope and
# an address holding an int past the digit limit, which no refusal may write
# out, and a character of a non-integral field
HOSTILE_ARGS = [
    None, True, False, math.nan, math.inf, -math.inf, 0.5, -2.0, 1e300,
    "", "2/5", "RL", "3", 10 ** 30, -10 ** 30, 10 ** 5000 + 1,
    GOLDEN, cone_report(GOLDEN).primary.invariants, DyadicRational(1, 1), from_integer(0),
    QuadraticNumber(1, 1, 2), DyadicRational(1, 10 ** 9),
    Fraction(1, 10 ** 5000 + 1), from_integer(10 ** 5000 + 1), DyadicRational(1, 10 ** 5000 + 1),
    ChernCharacter(1, Fraction(1, 2), 0),
]
hostile_call = st.sampled_from(LIBRARY).flatmap(lambda entry: st.tuples(
    st.just(entry), st.lists(st.sampled_from(HOSTILE_ARGS), min_size=entry[2],
                             max_size=entry[3]),
    st.fixed_dictionaries({}, optional=dict.fromkeys(entry[4], st.sampled_from(HOSTILE_ARGS)))))


def test_the_library_is_read_whole():
    names = {name for name, *_ in LIBRARY}
    assert {"cone_report", "ChernCharacter", "ChernCharacter.from_rmd", "DyadicRational.make",
            "QuadraticNumber.parse", "enumerate_slopes", "parse_rational"} <= names
    assert "Kind" not in names and {("ExceptionalSlope", 3, 3), ("Classification", 2, 2)} <= {
        (name, fewest, most) for name, _, fewest, most, _ in LIBRARY}
    assert {("cone_report", ("max_order",)), ("secondary_edge", ("max_order",))} <= {
        (name, keywords) for name, *_, keywords in LIBRARY}


@cases
@given(hostile_call)
def test_hostile_library_calls(drawn):
    (name, call, *_), args, keywords = drawn
    start = time.perf_counter()
    try:
        call(*args, **keywords)
    except (DomainError, DescentError):
        pass
    elapsed = time.perf_counter() - start
    assert elapsed < 1, (name, elapsed)
