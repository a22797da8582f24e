"""Seeded input generators for the planecones benchmark.

Standard library only: this module never imports ``planecones``, so the
inputs cannot depend on the code under test.  Each workload draws from a
fixed pool (built from ``POOL_SEED``); the run's ``--seed`` only chooses a
sample of the pool and its order (for ``tree``, only how the op kinds
interleave).  Fixed pools let ``golden.json`` hold the digest of the seed
commit's output for every input a run can make.

The exceptional-slope arithmetic below (``tree_slope``, ``word_slope``,
``cf_value`` and the certified interval test) is this module's own, written
from the defining formulas; ``checks.py`` uses it for the independent checks.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

POOL_SEED = 1401_1613
WORKLOADS = ("grid", "deep", "batch", "tree")

DEEP_ORDERS = (4, 5, 6)
DEEP_PER_SLOPE_POOL = 4
DEEP_PER_SLOPE_RUN = 2
BATCH_LINES = 1000
TREE_DYADIC_ORDERS = tuple(range(64, 513, 32))
TREE_DYADIC_SHIFTS = tuple(range(-8, 8))
# ops of each kind per tree round; from_dyadic takes one op per order
TREE_MIX = {
    "lr_to_slope": 50,
    "even_expansion": 40,
    "period_structure": 30,
    "cantor_approx": 40,
    "interval": 40,
    "delta_curve": 40,
}


# -- exceptional slopes, from the definitions --------------------------------


def _disc(mu: Fraction) -> Fraction:
    r = mu.denominator
    return (1 - Fraction(1, r * r)) / 2


def _dot(a: Fraction, b: Fraction) -> Fraction:
    return (a + b) / 2 + (_disc(b) - _disc(a)) / (3 + a - b)


def tree_slope(p: int, q: int) -> Fraction:
    """Exceptional slope at the dyadic address ``p / 2**q``.

    Walks down from the integer bracket: the slope at a dyadic midpoint is
    the mediant of the slopes at the bracket ends.
    """
    lo_p = p >> q
    hi_p = lo_p + 1
    lo, hi = Fraction(lo_p), Fraction(hi_p)
    if p == lo_p << q:
        return lo
    for level in range(1, q + 1):
        # bracket ends are lo_p / 2**(level-1) and hi_p / 2**(level-1)
        mid_p = lo_p + hi_p
        mid = _dot(lo, hi)
        side = p - (mid_p << (q - level))
        if side == 0:
            return mid
        if side < 0:
            hi, lo_p, hi_p = mid, 2 * lo_p, mid_p
        else:
            lo, lo_p, hi_p = mid, mid_p, 2 * hi_p
    raise ValueError(f"{p}/2^{q} is not in lowest terms")


def word_slope(word: str) -> Fraction:
    """Slope ``0 . word`` of a left-right word (``L`` toward -1, ``R`` toward 1)."""
    p, q = 0, 0
    for ch in word:
        p, q = (2 * p - 1 if ch == "L" else 2 * p + 1), q + 1
    return tree_slope(p, q)


def cf_value(digits: str) -> Fraction:
    """Value of the continued fraction ``[0; a1, ..., ak]`` of single digits."""
    value = Fraction(0)
    for a in reversed(digits):
        value = 1 / (int(a) + value)
    return value


def sqrt_bounds(x: Fraction, bits: int = 256) -> tuple[Fraction, Fraction]:
    """Certified ``lo <= sqrt(x) <= hi`` with ``hi - lo <= 2**-bits``-ish."""
    scale = 1 << bits
    n = x.numerator * x.denominator * scale * scale
    s = math.isqrt(n)
    den = x.denominator * scale
    return Fraction(s, den), Fraction(s + 1, den)


def _halfwidth_lower(r: int) -> Fraction:
    # x = (3 - sqrt(9 - 4/r^2)) / 2, bounded below through an upper bound on the root
    _, root_hi = sqrt_bounds(Fraction(9 * r * r - 4, r * r))
    return (3 - root_hi) / 2


def _mu0_in_interval(mu: Fraction, delta: Fraction, centre: Fraction, r: int) -> bool | None:
    """Is ``mu0+ = (-3 - 2 mu + sqrt(5 + 8 delta)) / 2`` inside the open interval?

    ``None`` when the enclosures cannot decide.
    """
    a_lo, a_hi = sqrt_bounds(5 + 8 * delta)
    b_lo, b_hi = sqrt_bounds(Fraction(9 * r * r - 4, r * r))
    left = 2 * centre + 2 * mu
    right = left + 6
    if a_lo - b_hi > left and a_hi + b_hi < right:
        return True
    if a_hi - b_lo <= left or a_lo + b_lo >= right:
        return False
    return None


# -- pools ------------------------------------------------------------------


def _char(r: int, c1: int, chi: int) -> dict:
    return {"r": r, "c1": c1, "chi": chi}


def grid_pool() -> list[dict]:
    """Every ``(r, c1, chi)`` with ``r`` 1-6, ``|c1| <= 8``, ``|chi| <= 6``."""
    return [
        {"key": f"grid {r},{c1},{chi}", "char": _char(r, c1, chi)}
        for r in range(1, 7)
        for c1 in range(-8, 9)
        for chi in range(-6, 7)
    ]


def _hilbert(m: Fraction) -> Fraction:
    return (m * m + 3 * m + 2) / 2


def _deep_character(rng: random.Random, centre: Fraction, r: int) -> dict | None:
    """A character whose ``mu0+`` lies inside the interval of the slope ``centre``.

    Places ``mu0+`` at a seeded fraction of the halfwidth, picks the slope
    so the discriminant stays above 1 (Picard rank 2), rounds to integral
    ``c1`` and ``chi``, and keeps the result only if the exact test still
    puts ``mu0+`` inside the interval.
    """
    u = Fraction(rng.randrange(-90, 91), 100)
    t = centre + u * _halfwidth_lower(r)
    rank = rng.randint(100 * r * r, 10_000 * r * r)
    s0 = Fraction(rng.randrange(400, 1200), 100)
    c1 = round(rank * ((s0 - 3) / 2 - t))
    mu = Fraction(c1, rank)
    s = 2 * t + 3 + 2 * mu
    chi = round(rank * (_hilbert(mu) - (s * s - 5) / 8))
    delta = _hilbert(mu) - Fraction(chi, rank)
    if delta <= 1 or _mu0_in_interval(mu, delta, centre, r) is not True:
        return None
    return _char(rank, c1, chi)


def deep_pool() -> list[dict]:
    """Characters whose corresponding slope has order 4-6."""
    rng = random.Random(POOL_SEED)
    pool = []
    for k in DEEP_ORDERS:
        for p in range(1, 1 << k, 2):
            base = tree_slope(p, k)
            for _ in range(DEEP_PER_SLOPE_POOL):
                shift = rng.randrange(-2, 3)
                char = None
                while char is None:
                    char = _deep_character(rng, base + shift, base.denominator)
                pool.append({
                    "key": f"deep {char['r']},{char['c1']},{char['chi']}",
                    "char": char,
                    "slope": f"{k}:{p}",
                })
    return pool


def _words(max_len: int) -> list[str]:
    out = [""]
    level = [""]
    for _ in range(max_len):
        level = [w + ch for w in level for ch in "LR"]
        out.extend(level)
    return out


def _is_period_word(w: str) -> bool:
    # shape accepted by period_structure: RL, or R + (L + any)? + L + R^n
    if w == "RL":
        return True
    stem = w.rstrip("R")
    if stem == w or not stem.endswith("L") or not w.startswith("R"):
        return False
    head = stem[:-1]
    return head == "R" or head.startswith("RL")


def tree_pool() -> list[dict]:
    """Toolkit calls that never reach ``cone``."""
    rng = random.Random(POOL_SEED)
    words = _words(10)[1:]
    pool = []
    for n in TREE_DYADIC_SHIFTS:
        for end in ("left", "right"):
            for q in TREE_DYADIC_ORDERS:
                p = (n << q) + 1 if end == "left" else ((n + 1) << q) - 1
                pool.append({"key": f"from_dyadic {p}/2^{q}", "op": "from_dyadic",
                             "p": p, "q": q, "walk": f"{n}{end}"})
    for w in rng.sample(words, 300):
        pool.append({"key": f"lr_to_slope {w}", "op": "lr_to_slope", "word": w})
    half = [w for w in words if w == "R" or w.startswith("RL")]
    for w in rng.sample(half, 200):
        slope = word_slope(w)
        pool.append({"key": f"even_expansion {slope}", "op": "even_expansion",
                     "slope": str(slope)})
    for w in (w for w in words if _is_period_word(w)):
        pool.append({"key": f"period_structure {w}", "op": "period_structure", "word": w})
    for w in rng.sample(words, 200):
        depth = rng.randint(0, len(w))
        pool.append({"key": f"cantor_approx {w} {depth}", "op": "cantor_approx",
                     "word": w, "depth": depth})
    for _ in range(200):
        q = rng.randint(1, 10)
        n = rng.randint(-3, 3)
        p = (n << q) + rng.randrange(1, 1 << q, 2)
        pool.append({"key": f"interval {p}/2^{q}", "op": "interval", "p": p, "q": q})
    seen = set()
    while len(seen) < 300:
        x = Fraction(rng.randint(-180, 180), rng.randint(1, 60))
        if x not in seen:
            seen.add(x)
            pool.append({"key": f"delta_curve {x}", "op": "delta_curve", "x": str(x)})
    return pool


_MALFORMED = (
    "not json",
    "{\"r\": 2",
    "[1, 2, 3]",
    "\"3,2,-5\"",
    "null",
    "true",
    "{}",
    "{\"r\": 2}",
    "{\"ch0\": 1, \"ch1\": 0}",
    "{\"ch0\": \"1/0\", \"ch1\": \"0\", \"ch2\": \"0\"}",
    "{\"r\": \"abc\", \"c1\": 0, \"chi\": 0}",
    "{\"r\": 0, \"mu\": \"1\", \"delta\": \"0\"}",
    "{\"ch0\": [1], \"ch1\": 0, \"ch2\": 0}",
    "{\"r\": 1.5, \"c1\": 0, \"chi\": 1}",
)


def _shape(rng: random.Random, r: int, c1: int, chi: int) -> str:
    ch2 = Fraction(chi) - r - Fraction(3, 2) * c1
    shapes = ["rc1chi", "chern"] + (["rmd"] if r != 0 else [])
    shape = rng.choice(shapes)
    if shape == "rc1chi":
        return f"{{\"r\": {r}, \"c1\": {c1}, \"chi\": {chi}}}"
    if shape == "chern":
        return f"{{\"ch0\": {r}, \"ch1\": {c1}, \"ch2\": \"{ch2}\"}}"
    mu = Fraction(c1, r)
    delta = mu * mu / 2 - ch2 / r
    return f"{{\"r\": \"{r}\", \"mu\": \"{mu}\", \"delta\": \"{delta}\"}}"


def batch_pool() -> list[dict]:
    """JSONL lines: the grid and rank zero in all three shapes, plus malformed lines."""
    rng = random.Random(POOL_SEED)
    lines = [_shape(rng, *item["char"].values()) for item in grid_pool()]
    lines += [_shape(rng, 0, d, chi) for d in range(-2, 9) for chi in range(-6, 7)]
    for text in _MALFORMED:
        lines += [text] * 3
    return [{"key": f"batch {line}", "line": line} for line in lines]


POOLS = {"grid": grid_pool, "deep": deep_pool, "tree": tree_pool, "batch": batch_pool}


# -- per-seed inputs ---------------------------------------------------------


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The ordered op list of one run; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    pool = POOLS[workload]()
    if workload == "grid":
        chosen = pool
    elif workload == "deep":
        by_slope: dict[str, list[dict]] = {}
        for item in pool:
            by_slope.setdefault(item["slope"], []).append(item)
        chosen = [x for items in by_slope.values() for x in rng.sample(items, DEEP_PER_SLOPE_RUN)]
    elif workload == "batch":
        chosen = rng.sample(pool, BATCH_LINES)
    else:
        # the memos make an op's cost depend on which earlier ops share its
        # ancestors, so the sample is fixed and so is each op kind's own order;
        # the seed only interleaves the kinds
        return _interleave(rng, _tree_sample(random.Random(POOL_SEED), pool))
    chosen = list(chosen)
    rng.shuffle(chosen)
    return chosen


def _interleave(rng: random.Random, items: list[dict]) -> list[dict]:
    """Shuffle which slots each op kind takes, keeping each kind's own order."""
    kinds = [item["op"] for item in items]
    rng.shuffle(kinds)
    queues: dict[str, list[dict]] = {}
    for item in reversed(items):
        queues.setdefault(item["op"], []).append(item)
    return [queues[kind].pop() for kind in kinds]


def _tree_sample(rng: random.Random, pool: list[dict]) -> list[dict]:
    by_op: dict[str, list[dict]] = {}
    for item in pool:
        by_op.setdefault(item["op"], []).append(item)
    # one cold walk per order, each from its own start so no walk warms another
    walks = rng.sample(sorted({x["walk"] for x in by_op["from_dyadic"]}), len(TREE_DYADIC_ORDERS))
    chosen = [
        next(x for x in by_op["from_dyadic"] if x["walk"] == w and x["q"] == q)
        for w, q in zip(walks, TREE_DYADIC_ORDERS)
    ]
    for op, count in TREE_MIX.items():
        chosen += rng.sample(by_op[op], count)
    return chosen


def serialize(items: list[dict]) -> bytes:
    """Canonical bytes of an input list (what 'byte-identical inputs' compares)."""
    return "\n".join(json.dumps(item, sort_keys=True) for item in items).encode()
