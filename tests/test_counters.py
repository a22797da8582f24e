"""Deterministic work counters for a full cone report (no timing).

Each square root taken by ``sqrt_exact`` factors its radicand once; every
other ``QuadraticNumber`` operation reuses the radicand of its operands.  A
report that factors more often than it takes square roots is re-factoring
reduced radicands on its hot path.
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
    tally = {"squarefree_decompose": 0, "sqrt_exact": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        qarith, "squarefree_decompose",
        counted("squarefree_decompose", qarith.squarefree_decompose),
    )
    sqrt = counted("sqrt_exact", qarith.sqrt_exact)
    for module in (qarith, exceptional, cone, planecones):
        monkeypatch.setattr(module, "sqrt_exact", sqrt)
    return tally


@pytest.mark.parametrize("x, order", [(GOLDEN, 0), (ORDER_FOUR, 4)], ids=["golden", "order4"])
def test_one_factoring_per_square_root(counts, x, order):
    report = cone.cone_report(x)
    assert report.primary.invariants.corresponding_slope.order == order
    assert counts["sqrt_exact"] >= 1
    assert counts["squarefree_decompose"] <= counts["sqrt_exact"]
