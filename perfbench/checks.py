"""Correctness gate: golden digests plus checks independent of planecones.

Every op's output is compared with the digest of the seed commit's output
(``golden.json``; the ROADMAP requires byte-identical JSON).  Reports are
also checked with this module's own Riemann-Roch pairing on ``Fraction``s,
and toolkit results against the tree arithmetic in ``workloads``.  A check
returns ``None`` when the output passes and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

import workloads

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def key_id(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:12]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def normalize_batch_record(raw: str, line_number: int) -> str:
    """An error record names its line; the golden digest is taken without it."""
    prefix = f'{{"line": {line_number}, '
    return '{"line": 0, ' + raw[len(prefix):] if raw.startswith(prefix) else raw


# -- Riemann-Roch on the plane ------------------------------------------------


def _ch(obj: dict) -> tuple[Fraction, Fraction, Fraction]:
    return Fraction(obj["ch0"]), Fraction(obj["ch1"]), Fraction(obj["ch2"])


def pairing(x, z) -> Fraction:
    """chi(x (x) z) = ch0 + 3/2 ch1 + ch2 of the product character."""
    x0, x1, x2 = x
    z0, z1, z2 = z
    return x0 * z0 + Fraction(3, 2) * (x0 * z1 + z0 * x1) + (x0 * z2 + x1 * z1 + z0 * x2)


def _combine(terms) -> tuple[Fraction, Fraction, Fraction]:
    total = [Fraction(0)] * 3
    for coeff, ch in terms:
        for i in range(3):
            total[i] += coeff * ch[i]
    return tuple(total)


def _rebuilt(resolution: dict):
    c = [_ch(obj) for obj in resolution["triad_characters"]]
    m = resolution["multiplicities"]
    case = resolution["case_sign"]
    if case == "POSITIVE":
        return _combine([(-m[0], c[0]), (m[1], c[1]), (m[2], c[2])])
    if case == "NEGATIVE":
        return _combine([(-m[0], c[1]), (m[1], c[2]), (-m[2], c[0])])
    return _combine([(-m[0], c[0]), (m[1], c[1])])


def check_report(report: dict, char: dict | None) -> str | None:
    """Independent checks of one cone report against its input character."""
    x = _ch(report["input"])
    if char is not None:
        r, c1, chi = (Fraction(char[k]) for k in ("r", "c1", "chi"))
        if x != (r, c1, chi - r - Fraction(3, 2) * c1):
            return "report is for another character"
    kind = report["classification"]["kind"]
    r = x[0]
    if kind in ("PICARD_RANK_2", "HEIGHT_ZERO") and r > 0:
        mu = x[1] / r
        delta = mu * mu / 2 - x[2] / r
        if report["dimension"] != r * r * (2 * delta - 1) + 1:
            return "dimension differs from r^2(2 delta - 1) + 1"
    if kind == "EXCEPTIONAL" and report["dimension"] != 0:
        return "exceptional character with nonzero dimension"
    if kind != "PICARD_RANK_2":
        return None
    primary = report["primary"]
    if pairing(x, _ch(primary["extremal_character"])) != 0:
        return "primary ray is not orthogonal to the input"
    secondary = report["secondary"].get("extremal_character")
    if secondary is not None and pairing(x, _ch(secondary)) != 0:
        return "secondary ray is not orthogonal to the input"
    if "resolution" in primary:
        if any(m < 0 for m in primary["resolution"]["multiplicities"]):
            return "negative multiplicity"
        if _rebuilt(primary["resolution"]) != x:
            return "resolution does not rebuild the input"
    return None


def check_tree(item: dict, out: str) -> str | None:
    """Toolkit results against this benchmark's own tree arithmetic."""
    op = item["op"]
    if op == "from_dyadic":
        if Fraction(out) != workloads.tree_slope(item["p"], item["q"]):
            return "slope differs from the mediant walk"
    elif op == "lr_to_slope":
        if Fraction(out.split()[0]) != workloads.word_slope(item["word"]):
            return "slope differs from the word's mediant walk"
    elif op == "even_expansion":
        if workloads.cf_value(out) != Fraction(item["slope"]) or len(out) % 2:
            return "even expansion does not evaluate back to its slope"
    elif op == "cantor_approx":
        lo, hi = (Fraction(v) for v in out.split())
        centre = workloads.word_slope(item["word"][: item["depth"]])
        if not lo < centre < hi:
            return "enclosure does not bracket the truncated word's slope"
    return None


def check(workload: str, item: dict, out: str) -> str | None:
    """Independent check of one op's output (golden digests are compared elsewhere)."""
    if out.startswith("ERROR "):
        return out
    if workload == "tree":
        return check_tree(item, out)
    record = json.loads(out)
    if workload == "batch":
        return None if "error" in record else check_report(record, None)
    return check_report(record, item["char"])
