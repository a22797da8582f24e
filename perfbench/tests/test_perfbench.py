"""Tests of the benchmark itself: seeded inputs, tracer, checker, repeatable counts.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKED_EXAMPLE = {"key": "grid 3,2,1", "char": {"r": 3, "c1": 2, "chi": 1}}


@pytest.fixture
def bench_for(tmp_path):
    def make(workload, items):
        return run.Bench(ROOT, workload, items, str(tmp_path))
    return make


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = workloads.serialize(workloads.make_inputs(workload, 7))
    assert first == workloads.serialize(workloads.make_inputs(workload, 7))
    assert first != workloads.serialize(workloads.make_inputs(workload, 8))


def test_every_run_input_has_a_golden_digest():
    golden = checks.load_golden()
    for workload in workloads.WORKLOADS:
        for item in workloads.make_inputs(workload, 3):
            assert checks.key_id(item["key"]) in golden, item["key"]


def test_tracer_sees_calls_through_the_cone_aliases(bench_for):
    layers = bench_for("grid", [WORKED_EXAMPLE]).worker(trace=True)["layers"]
    assert layers["cone.classify.calls_per_op"] > 1
    # cone calls find_interval and delta_curve by names it imported itself
    assert layers["exceptional.find_interval.calls_per_op"] > \
        layers["exceptional.from_slope_value.calls_per_op"]
    assert layers["exceptional.delta_curve.calls_per_op"] >= 1
    assert layers["qarith.QuadraticNumber.constructions_per_op"] > 0


def test_checker_rejects_a_tampered_report(bench_for):
    bench = bench_for("grid", [WORKED_EXAMPLE])
    out = bench.worker()["outputs"][0]
    assert bench.failures([out], checks.load_golden(), {}) == []
    report = json.loads(out)
    assert checks.check_report(report, WORKED_EXAMPLE["char"]) is None

    ray = report["primary"]["extremal_character"]
    ray["ch2"] = str(Fraction(ray["ch2"]) + 1)
    assert "orthogonal" in checks.check_report(report, WORKED_EXAMPLE["char"])

    report = json.loads(out)
    report["primary"]["resolution"]["multiplicities"][0] += 1
    assert "rebuild" in checks.check_report(report, WORKED_EXAMPLE["char"])

    report = json.loads(out)
    report["dimension"] += 1
    assert "dimension" in checks.check_report(report, WORKED_EXAMPLE["char"])

    tampered = out.replace('"PICARD_RANK_2"', '"INVALID"', 1)
    assert bench.failures([tampered], checks.load_golden(), {})


def test_checker_rejects_a_wrong_expansion():
    item = {"op": "even_expansion", "slope": "5/13"}
    assert checks.check_tree(item, "2112") is None
    assert checks.check_tree(item, "2121") is not None


@pytest.mark.parametrize("workload,ops", [("grid", 80), ("tree", 255)])
def test_traced_counts_repeat_exactly(bench_for, workload, ops):
    bench = bench_for(workload, workloads.make_inputs(workload, 5)[:ops])
    first, second = (bench.worker(trace=True)["layers"] for _ in range(2))
    counts = [k for k in first if not k.endswith("self_ms_per_op")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
