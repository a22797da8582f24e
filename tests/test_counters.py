"""Deterministic work counters for a full cone report (no timing).

Each square root taken by ``sqrt_exact`` factors its radicand once; every
other ``QuadraticNumber`` operation reuses the radicand of its operands.  A
report that factors more often than it takes square roots is re-factoring
reduced radicands on its hot path.

A report analyses the character and its Serre dual once each: one
classification and one descent to the corresponding slope per side, one
``sqrt(5 + 8 delta)`` per side, and no descent at all for slopes whose
dyadic address is already known.
"""

from fractions import Fraction

import pytest

import planecones
from planecones import cone, exceptional, qarith
from planecones.chern import ChernCharacter, character_from_json

GOLDEN = ChernCharacter.from_rmd(3, Fraction(2, 3), Fraction(17, 9))
# mu0+ lies inside the interval of the order-4 slope 47/34 (address 17/2^4).
ORDER_FOUR = character_from_json({"r": 2677938, "c1": 7598734, "chi": -17278349})


@pytest.fixture
def counts(monkeypatch):
    tally = {name: 0 for name in (
        "squarefree_decompose", "sqrt_exact", "classify", "find_interval", "from_slope_value",
    )}
    radicands = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            if name == "sqrt_exact":
                radicands.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        qarith, "squarefree_decompose",
        counted("squarefree_decompose", qarith.squarefree_decompose),
    )
    for name, home in (("sqrt_exact", qarith), ("classify", cone),
                       ("find_interval", exceptional), ("from_slope_value", exceptional)):
        wrapper = counted(name, getattr(home, name))
        for module in (qarith, exceptional, cone, planecones):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    tally["radicands"] = radicands
    return tally


CASES = pytest.mark.parametrize(
    "x, order", [(GOLDEN, 0), (ORDER_FOUR, 4)], ids=["golden", "order4"]
)


@CASES
def test_one_factoring_per_square_root(counts, x, order):
    report = cone.cone_report(x)
    assert report.primary.invariants.corresponding_slope.order == order
    assert counts["sqrt_exact"] >= 1
    assert counts["squarefree_decompose"] <= counts["sqrt_exact"]


@CASES
def test_one_analysis_per_side(counts, x, order):
    exceptional.delta_curve.cache_clear()
    report = cone.cone_report(x)
    assert report.primary.invariants.corresponding_slope.order == order
    assert counts["classify"] <= 2
    assert counts["from_slope_value"] == 0
    assert counts["find_interval"] <= 6
    radicand = 5 + 8 * x.discriminant()
    assert 1 <= counts["radicands"].count(radicand) <= 2
