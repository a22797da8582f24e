"""Command-line front end: cone, classify, slope, cfrac, curve and batch.

All machine output is exact: rationals render as ``p/q`` strings and
quadratic irrationals as ``(a + b*sqrt(d))``.  A report is written from the
integers it was computed as, each quotient by ``ratio_str``.  The renderer
measures every integer as it writes it: a string past Python's
int-to-string digit limit, or a JSON int of that size, becomes a
``DomainError`` naming the field by its path, and nothing is printed until
the whole output is rendered.  ``slope`` and ``cfrac`` stop their walk at
the first rank past that limit.  A slope's fields and a resolution's triad
characters depend on nothing but the slope or the triad, so each is
rendered once per digit limit into a bounded cache and every report gets
its own copy of the cached dicts.  The caches key on integers (a slope's
``(r, c1)`` and address, the triad's ``(r, c1, chi)`` triples), never on
records nor on a field's path: a cached fragment names a refused field
from the fragment (``slope``, ``interval``, ``chi``, ...), and the caller
puts its path in front of the ``DomainError``'s message.
A report reads the digit limit once and writes enums from ``_value_`` and
quotients from integers.  Decimal columns only appear
under ``--approx`` and are labeled non-authoritative.  Output is
deterministic: fixed field order, no ambient state.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import cfrac, cone, exceptional
from .chern import ChernCharacter, _lattice, character_from_json, character_to_json
from .errors import ConsistencyError, DescentError, DomainError
from .exceptional import DEFAULT_MAX_ORDER, DyadicRational
from .qarith import (
    QuadraticNumber, _digit_bound, int_digit_limit, more_digits, parse_rational, ratio_str,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
# 2 is argparse's status for a usage error
EXIT_INTERNAL = 3
EXIT_CLASSIFICATION_ONLY = 4

# ``curve``'s caps on samples and on interval-table rows, each a few seconds of work
MAX_CURVE_SAMPLES = 1 << 16
MAX_CURVE_ROWS = 1 << 16


def _int_at_least(least: int, most: int = 0):
    """argparse type for an integer flag ``>= least``, and ``<= most`` if that is positive."""
    import argparse

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        if most and value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, got {value}")
        return value

    return parse


def _approx(value, digits: Optional[int]) -> Optional[str]:
    if digits is None or value is None:
        return None
    if isinstance(value, QuadraticNumber):
        return value.decimal(digits)
    return QuadraticNumber(Fraction(value)).decimal(digits)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "text":
        for line in _text_lines(payload, ""):
            print(line)
    else:
        print(json.dumps(payload))


def _text_lines(value, prefix: str) -> list[str]:
    """``key: value`` per dict entry and ``- value`` per list item, nesting two deeper."""
    if not isinstance(value, (dict, list)):
        return [f"{prefix}{value}"]
    if isinstance(value, dict):
        labelled = [(f"{key}:", sub) for key, sub in value.items()]
    else:
        labelled = [("-", sub) for sub in value]
    lines = []
    for label, sub in labelled:
        if isinstance(sub, (dict, list)):
            lines += [f"{prefix}{label}", *_text_lines(sub, prefix + "  ")]
        else:
            lines.append(f"{prefix}{label} {sub}")
    return lines


# -- writing within the digit limit ---------------------------------------------


def _refuse(path: str, *numbers) -> None:
    """Raise ``DomainError`` for the first integer ``str`` writes of ``numbers`` past the limit.

    ``numbers`` are ints, ``Fraction``s and ``QuadraticNumber``s; the last are
    written as ``A/D``, ``B/D`` and ``d`` of their stored form.  Each quotient
    is reduced, and each of its integers is measured by ``more_digits``.
    Returns when every integer fits.
    """
    limit = int_digit_limit()
    for x in numbers:
        if isinstance(x, QuadraticNumber):
            ratios = (x.A, x.D), (x.B, x.D), (x.d, 1)
        else:
            ratios = ((x.numerator, x.denominator),)
        for n, d in ratios:
            g = math.gcd(n, d)
            for m in (abs(n) // g, abs(d) // g):
                if limit and more_digits(m, limit):
                    raise DomainError(f"{path} has a {m.bit_length():,}-bit integer, past "
                                      f"Python's limit of {limit:,} digits for printing one")


def _ratio(path: str, n: int, d: int = 1) -> str:
    """``ratio_str(n, d)``; past Python's digit limit, a ``DomainError`` naming ``path``."""
    try:
        return ratio_str(n, d)
    except ValueError:
        _refuse(path, Fraction(n, d))
        raise


def _str(path: str, x, *numbers) -> str:
    """``str(x)``; past Python's digit limit, a ``DomainError`` naming ``path``.

    ``numbers`` are the values whose integers ``str`` writes, ``x`` itself by default.
    """
    try:
        return str(x)
    except ValueError:
        _refuse(path, *(numbers or (x,)))
        raise


# Python refuses no int of fewer digits than 640, its least limit, so none of
# 3 * 640 bits or fewer (2**1920 < 10**640)
_ALWAYS_PRINTED_BITS = 1920


def _int(path: str, n: Optional[int]) -> Optional[int]:
    """``n`` as a JSON field, refused where ``str(n)`` would be: most pass one bit-length test."""
    if n is not None and n.bit_length() > _ALWAYS_PRINTED_BITS:
        _refuse(path, n)
    return n


# -- report rendering ---------------------------------------------------------


# Distinct slopes and triad characters whose rendering is kept, as many as
# the gammas whose triad the cone keeps.
_RENDER_CACHE_SIZE = 1024


def _character_dict(x: ChernCharacter, prefix: str = "") -> dict:
    """``character_to_json(x)``.

    Past the digit limit, the ``DomainError`` names the first of the
    character's ``r``, ``c1``, ``chi``, ``ch2``, ``mu`` and ``delta`` that
    does not fit.
    """
    try:
        return character_to_json(x)
    except ValueError:
        values = [("r", x.r), ("c1", x.c1), ("chi", x.chi), ("ch2", x.ch2)]
        if x.r != 0:
            values += [("mu", x.slope()), ("delta", x.discriminant())]
        for name, value in values:
            _refuse(prefix + name, value)
        raise


def _triad_dicts(triad: tuple[ChernCharacter, ...], prefix: str, limit: int) -> list[dict]:
    """A resolution's triad characters, rendered once per triad and digit limit.

    One cache lookup per triad; each call gets its own copy of each dict.
    Past the digit limit, the ``DomainError`` is :func:`_character_dict`'s
    for the first character that does not fit, named under ``prefix``.
    """
    try:
        fields = _triad_character_fields(tuple([(x.r, x.c1, x.chi) for x in triad]), limit)
    except DomainError as exc:
        raise DomainError(prefix + str(exc)) from None
    return list(map(dict.copy, fields))


@lru_cache(maxsize=_RENDER_CACHE_SIZE)
def _triad_character_fields(triad: tuple[tuple[int, int, int], ...],
                            limit: int) -> tuple[dict, ...]:
    # ``limit`` keys the cache: a lower one renders again
    return tuple(_character_dict(_lattice(*x)) for x in triad)


def _slope_dict(s: exceptional.ExceptionalSlope, prefix: str = "",
                limit: Optional[int] = None) -> dict:
    """``s`` rendered once per slope and digit limit, whatever its path; each call gets a copy.

    Past the digit limit, the ``DomainError`` names the field under ``prefix``.
    """
    d = s.dyadic
    try:
        out = _slope_fields(s.r, s.c1, d.p, d.q,
                            int_digit_limit() if limit is None else limit).copy()
    except DomainError as exc:
        raise DomainError(prefix + str(exc)) from None
    out["interval"] = out["interval"].copy()
    return out


@lru_cache(maxsize=_RENDER_CACHE_SIZE)
def _slope_fields(r: int, c1: int, p: int, q: int, limit: int) -> dict:
    """The fields of the slope ``(r, c1)`` at ``p/2**q``; ``limit`` keys the cache."""
    s = exceptional._slope(r, c1, exceptional._dyadic(p, q))
    shift, word = cfrac.slope_to_lr(s)
    out = {
        "slope": _ratio("slope", c1, r),
        "rank": _int("rank", r),
        "discriminant": _ratio("discriminant", r * r - 1, 2 * r * r),
        "order": _int("order", q),
        "dyadic": _str("dyadic", s.dyadic, p),
        "lr_word": word,
        "lr_translation": _int("lr_translation", shift),
    }
    left, right = s.interval()  # built once the rank is known to fit
    out["interval"] = {"left": _str("interval", left), "right": _str("interval", right)}
    return out


def _coords_dict(ray: ChernCharacter, r: int, path: str) -> dict:
    """The ray's natural-basis coordinates ``(R/r, C/r)``, written from its integers."""
    return {"zeta0": _ratio(path, ray.r, r), "zeta1": _ratio(path, ray.c1, r)}


def _primary_dict(edge: cone.PrimaryEdge, digits: Optional[int], prefix: str,
                  limit: int) -> dict:
    """The invariants' ``mu`` and ``delta`` are the extremal character's, so written once."""
    inv = edge.invariants
    slope = _slope_dict(inv.corresponding_slope, prefix + "invariants.corresponding_slope.",
                        limit)
    character = _character_dict(edge.extremal_character, prefix + "extremal_character.")
    invariants = {
        "mu": character["mu"],
        "delta": character["delta"],
        "case_sign": inv.case_sign._value_,
        "on_delta_curve": inv.on_delta_curve,
        "corresponding_slope": slope,
    }
    if digits is not None:
        invariants["approx_mu"] = _approx(inv.point.mu, digits)
    out: dict = {"invariants": invariants, "extremal_character": character}
    if edge.coords_denominator is not None:
        out["extremal_ray_coordinates"] = _coords_dict(
            edge.extremal_character, edge.coords_denominator, prefix + "extremal_ray_coordinates")
    res = edge.resolution
    if res is not None:  # the triad's slopes are its characters' mu
        path = prefix + "resolution.triad_characters."
        triad = _triad_dicts(res.triad, path, limit)
        path = prefix + "resolution.multiplicities"
        out["resolution"] = {
            "case_sign": res.case_sign._value_,
            "triad": [z["mu"] for z in triad],
            "triad_characters": triad,
            "multiplicities": [_int(path, m) for m in (res.m1, res.m2, res.m3) if m is not None],
            "shape": res.shape,
        }
    kron = edge.kronecker
    if kron is not None:
        path = prefix + "kronecker"
        out["kronecker"] = {
            "N": _int(path, kron.hom_count),
            "dim_vector": [_int(path, n) for n in kron.dim_vector],
            "expected_dimension": _int(path, kron.expected_dimension),
            "fibration": kron.fibration._value_,
        }
    wall, path = edge.wall, prefix + "wall"
    out["wall"] = {
        "center_s": _ratio(path, wall.center_num, wall.center_den),
        "radius": _str(path, wall.radius),
        "radius_squared": _ratio(path, wall.radius_squared_num, wall.radius_squared_den),
        "exceeds_collapse_bound": wall.exceeds_collapse_bound,
    }
    if digits is not None:
        out["wall"]["approx_radius"] = _approx(wall.radius, digits)
    out["movable_edge_coincides"] = edge.movable_edge_coincides
    return out


def report_to_dict(report: cone.ConeReport, digits: Optional[int] = None) -> dict:
    """The report as JSON fields, each integer measured against the digit limit as it is written."""
    limit = int_digit_limit()
    cls = report.classification
    out: dict = {
        "input": _character_dict(report.input),
        "classification": {"kind": cls.kind._value_, "reasons": list(cls.reasons)},
        "dimension": _int("dimension", report.dimension),
    }
    if report.natural is not None:
        out["natural_classes"] = {
            "zeta0": _character_dict(report.natural[0], "natural_classes.zeta0."),
            "zeta1": _character_dict(report.natural[1], "natural_classes.zeta1."),
        }
    plus, minus = report.mu0_plus, report.mu0_minus
    if plus is not None:
        out["mu0"] = {
            "plus": _str("mu0+", plus),
            "minus": None if minus is None else _str("mu0-", minus),
        }
        if digits is not None:
            out["mu0"]["approx_plus"] = _approx(plus, digits)
            if minus is not None:
                out["mu0"]["approx_minus"] = _approx(minus, digits)
    if report.primary is not None:
        out["primary"] = _primary_dict(report.primary, digits, "primary.", limit)
    sec = report.secondary
    if sec is not None:
        sec_out: dict = {"mode": sec.mode._value_, "descriptor": sec.descriptor}
        ray = sec.extremal_character
        if ray is not None:
            character = _character_dict(ray, "secondary.extremal_character.")
            sec_out["mu"], sec_out["delta"] = character["mu"], character["delta"]
        if sec.corresponding_slope is not None:
            sec_out["corresponding_slope"] = _slope_dict(sec.corresponding_slope,
                                                         "secondary.corresponding_slope.", limit)
        if ray is not None:
            sec_out["extremal_character"] = character
            sec_out["extremal_ray_coordinates"] = _coords_dict(
                ray, sec.coords_denominator, "secondary.extremal_ray_coordinates")
        if sec.dual_primary is not None:
            sec_out["serre_dual_pipeline"] = _primary_dict(sec.dual_primary, digits,
                                                           "secondary.serre_dual_pipeline.",
                                                           limit)
        out["secondary"] = sec_out
    if report.note is not None:
        out["note"] = report.note
    return out


# -- input parsing -------------------------------------------------------------


def _parse_triple(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(f"expected three comma-separated rationals, got {text!r}")
    return tuple(parse_rational(p) for p in parts)


def _character_from_args(args) -> ChernCharacter:
    if args.chern is not None and args.rmd is not None:
        raise DomainError("provide one of --chern and --rmd, not both")
    if args.chern:
        ch0, ch1, ch2 = _parse_triple(args.chern)
        return ChernCharacter(ch0, ch1, ch2)
    if args.rmd:
        r, mu, delta = _parse_triple(args.rmd)
        return ChernCharacter.from_rmd(r, mu, delta)
    raise DomainError("provide --chern r,c1,ch2 or --rmd r,mu,delta")


def _parse_dyadic(text: str) -> DyadicRational:
    text = text.strip()
    if "^" in text:
        mantissa, _, exponent = text.partition("/2^")
        try:
            return DyadicRational.make(int(mantissa), int(exponent))
        except ValueError:
            raise DomainError(f"bad dyadic literal {text!r}") from None
    value = parse_rational(text)
    return DyadicRational.from_fraction(value)


def _check_order(order: int, max_order: int) -> None:
    if order > max_order:
        raise DomainError(f"slope of order {order} exceeds the max_order budget {max_order}")


def _slope_from_args(args) -> exceptional.ExceptionalSlope:
    chosen = [
        flag for flag in ("dyadic", "rational", "lr") if getattr(args, flag, None) is not None
    ]
    if len(chosen) != 1:
        raise DomainError("provide exactly one of --dyadic, --rational, --lr")
    if args.rational is not None:
        return exceptional.from_slope_value(parse_rational(args.rational), args.max_order)
    if args.dyadic is not None:
        address = _parse_dyadic(args.dyadic)
    else:
        address = cfrac.word_to_dyadic(args.lr.strip())
    _check_order(address.order, args.max_order)  # a word of length q is an address of order q
    return exceptional.from_dyadic(address)


# -- subcommands ---------------------------------------------------------------


def _cmd_cone(args) -> int:
    x = _character_from_args(args)
    report = cone.cone_report(x, max_order=args.max_order)
    _emit(report_to_dict(report, args.approx), args.format)
    if report.classification.kind is cone.Kind.INVALID:
        return EXIT_BAD_INPUT
    if report.primary is None:
        return EXIT_CLASSIFICATION_ONLY
    return EXIT_OK


def _cmd_classify(args) -> int:
    x = _character_from_args(args)
    out = {"input": _character_dict(x)}  # refused past the digit limit before classifying
    cls = cone.classify(x, args.max_order)
    out["classification"] = {"kind": cls.kind.value, "reasons": list(cls.reasons)}
    _emit(out, args.format)
    return EXIT_OK


def _cmd_slope(args) -> int:
    s = _slope_from_args(args)
    _emit(_slope_dict(s), args.format)
    return EXIT_OK


def _cmd_cfrac(args) -> int:
    s = _slope_from_args(args)
    out = {"slope": _ratio("slope", s.c1, s.r)}
    _, shift, negated = cfrac.normalize_slope(s.slope)
    # normalized = shift - mu if negated else mu - shift
    normalized = exceptional.affine_image(s, negated, shift if negated else -shift)
    out["normalized_slope"] = _ratio("normalized_slope", normalized.c1, normalized.r)
    even = cfrac.even_expansion(normalized)
    out.update(translation=_int("translation", shift), negated=negated, even=even,
               odd=cfrac.parity_convert(even) if even else None, palindrome=even == even[::-1])
    if args.period:
        _, word = cfrac.slope_to_lr(normalized)
        try:
            period = cfrac.period_structure(word)
            out["period_block"] = period.block
            out["period_exponent"] = period.exponent
            out["tail"] = period.tail
            out["beta_is_half"] = period.beta_is_half
        except DomainError as exc:
            out["period_error"] = str(exc)
    _emit(out, args.format)
    return EXIT_OK


def _cmd_curve(args) -> int:
    csv_out = args.output_format == "csv"
    overlaid = args.chern is not None or args.rmd is not None
    if csv_out and overlaid:
        raise DomainError("--chern and --rmd add a parabola, which --format csv does not write")
    if not csv_out and args.approx is not None:
        raise DomainError("--approx adds a CSV column, which --format json does not write")
    lo = parse_rational(args.lo)
    hi = parse_rational(args.hi)
    if not lo < hi:
        raise DomainError("--lo must be smaller than --hi")
    if args.samples < 2:
        raise DomainError("--samples must be at least 2")
    if args.samples > MAX_CURVE_SAMPLES:
        raise DomainError(f"--samples must be at most {MAX_CURVE_SAMPLES:,}")
    order = args.interval_order
    # [lo, hi] holds at most (floor(hi) - ceil(lo) + 2) * 2**order slopes of order <= order;
    # the factor is at least 1, so a large order is refused without the shift
    if not csv_out and (order >= MAX_CURVE_ROWS.bit_length() or (
            math.floor(hi) - math.ceil(lo) + 2) << order > MAX_CURVE_ROWS):
        raise DomainError(f"--interval-order {order} over --lo/--hi passes {MAX_CURVE_ROWS:,} rows")
    overlay = None
    if overlaid:
        x = _character_from_args(args)
        if x.r != 0:
            overlay = {
                "vertex_mu": _str("parabola.vertex_mu", -Fraction(3, 2) - x.slope()),
                "vertex_delta": _str("parabola.vertex_delta", -Fraction(1, 8) - x.discriminant()),
                "translation_mu": _str("parabola.translation_mu", -x.slope()),
                "translation_delta": _str("parabola.translation_delta", -x.discriminant()),
            }
        elif x.c1 != 0:
            overlay = {"line_mu": _str("parabola.line_mu", Fraction(-x.chi, x.c1))}
        else:
            raise DomainError("the parabola overlay needs a nonzero rank or first Chern class")
    step = (hi - lo) / (args.samples - 1)
    rows = []  # (mu's text, delta, delta's text, the descent's error); delta None on an error
    for i in range(args.samples):
        mu = lo + i * step
        mu_text = _str("samples.mu", mu)  # refused before its descent
        try:
            value = exceptional.delta_curve(mu, args.max_order)
            rows.append((mu_text, value, _str("samples.delta", value), None))
        except DescentError as exc:
            rows.append((mu_text, None, None, str(exc)))
    if csv_out:  # no field holds a comma, a quote or a line break: none is quoted
        lines = ["mu,delta" + (",approx_delta" if args.approx is not None else "")]
        for mu_text, value, delta_text, err in rows:
            record = [mu_text, "ERROR" if err is not None else delta_text]
            if args.approx is not None:
                record.append("" if err is not None else _approx(value, args.approx))
            lines.append(",".join(record))
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        intervals = []
        for s in exceptional.enumerate_slopes(lo, hi, args.interval_order):
            left, right = s.interval()
            intervals.append({"slope": _ratio("intervals.slope", s.c1, s.r),
                              "order": _int("intervals.order", s.order),
                              "left": _str("intervals.left", left),
                              "right": _str("intervals.right", right)})
        payload = {
            "samples": [
                {"mu": mu_text, "delta": delta_text, **({"error": err} if err else {})}
                for mu_text, _, delta_text, err in rows
            ],
            "intervals": intervals,
        }
        if overlay is not None:
            payload["parabola"] = overlay
        _emit(payload, "json")
    return EXIT_OK


def _cmd_batch(args) -> int:
    try:  # standard input is read, never closed; each line is decoded on its own
        source = (contextlib.nullcontext(sys.stdin.buffer) if args.input == "-"
                  else open(args.input, "rb"))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    status = EXIT_OK
    with source as stream:
        for number, line in enumerate(stream, start=1):
            try:  # only reading the line can fail on bad input
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                x = character_from_json(json.loads(line))
            except (UnicodeDecodeError, RecursionError, ValueError) as exc:
                print(json.dumps({"line": number, "error": str(exc)}))
                continue
            try:
                report = cone.cone_report(x, max_order=args.max_order)
                if report.classification.kind is cone.Kind.INVALID:
                    record = {
                        "line": number,
                        "error": "; ".join(report.classification.reasons),
                    }
                else:
                    record = report_to_dict(report, args.approx)
            except (DomainError, DescentError) as exc:
                record = {"line": number, "error": str(exc)}
            except (ConsistencyError, ValueError) as exc:  # a fault of the library, not the line
                record = {"line": number, "error": f"internal check failed: {exc}"}
                status = EXIT_INTERNAL
            print(json.dumps(record))
    return status


# -- argument wiring -------------------------------------------------------------


def _add_character_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chern", help="character as r,c1,ch2 (exact rationals)")
    parser.add_argument("--rmd", help="character as r,mu,delta (exact rationals)")


def _add_max_order(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-order",
        dest="max_order",
        type=_int_at_least(0),
        default=DEFAULT_MAX_ORDER,
        help="interval-descent order budget",
    )


def _add_approx(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--approx",
        # decimal() prints the digits as one int, so at most Python's
        # int-to-string limit, or its default where there is none
        type=_int_at_least(0, _digit_bound()),
        default=None,
        metavar="N",
        help="add non-authoritative N-digit decimal columns",
    )


def _add_json_or_text(parser: argparse.ArgumentParser) -> None:
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", dest="format", action="store_const", const="json", default="json"
    )
    fmt.add_argument("--text", dest="format", action="store_const", const="text")


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here, not at the top: importing cli to render reports skips it

    parser = argparse.ArgumentParser(
        prog="planecones",
        description="Exact effective-cone computations for moduli of sheaves on the plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cone = sub.add_parser("cone", help="full cone report for a character")
    _add_character_flags(p_cone)
    _add_max_order(p_cone)
    _add_approx(p_cone)
    _add_json_or_text(p_cone)
    p_cone.set_defaults(func=_cmd_cone)

    p_classify = sub.add_parser("classify", help="classification only")
    _add_character_flags(p_classify)
    _add_max_order(p_classify)
    _add_json_or_text(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    for name, func, about in (("slope", _cmd_slope, "exceptional-slope lookup"),
                              ("cfrac", _cmd_cfrac, "continued-fraction expansions")):
        p_slope = sub.add_parser(name, help=about)
        p_slope.add_argument("--dyadic", help="dyadic address, p/2^q or p/q with q a power of two")
        p_slope.add_argument("--rational", help="slope value p/q (must be exceptional)")
        p_slope.add_argument("--lr", help="left-right word over {L,R}")
        if name == "cfrac":
            p_slope.add_argument("--period", action="store_true",
                                 help="include the period structure")
        _add_max_order(p_slope)
        _add_json_or_text(p_slope)
        p_slope.set_defaults(func=func)

    p_curve = sub.add_parser("curve", help="boundary-curve samples and interval table")
    p_curve.add_argument("--lo", required=True)
    p_curve.add_argument("--hi", required=True)
    p_curve.add_argument("--samples", type=int, default=33)
    p_curve.add_argument(
        "--interval-order", dest="interval_order", type=_int_at_least(0), default=4,
        help="enumerate intervals up to this order",
    )
    p_curve.add_argument(
        "--format", dest="output_format", choices=("csv", "json"), default="json"
    )
    _add_character_flags(p_curve)
    _add_max_order(p_curve)
    _add_approx(p_curve)
    p_curve.set_defaults(func=_cmd_curve)

    p_batch = sub.add_parser("batch", help="one JSON character per line, one report per line")
    p_batch.add_argument("input", help="path to a JSONL file, or - for standard input")
    _add_max_order(p_batch)
    _add_approx(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, DescentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ConsistencyError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
