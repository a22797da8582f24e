"""One benchmark worker: a fresh process that drives planecones from outside.

Usage: ``python worker.py JOB.json`` with ``src`` on ``PYTHONPATH``.  The
worker imports planecones, parses the inputs, prints ``ready`` (the parent
times set-up up to that line), times ``READY_CALS`` calibration passes, then
runs every op once in a closed loop with one caller, timing one calibration
pass after each op.  Each op's output goes to the job's outputs file as a
JSON string per line; the last line of standard output holds the per-op
latencies and calibration times, plus the per-layer summary when the job
asks for a trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction


def _report_op(cone, cli, x):
    return lambda: json.dumps(cli.report_to_dict(cone.cone_report(x)))


def _tree_op(item: dict):
    from planecones import cfrac, exceptional
    from planecones.exceptional import DyadicRational

    op = item["op"]
    if op == "from_dyadic":
        d = DyadicRational(item["p"], item["q"])
        return lambda: str(exceptional.from_dyadic(d).slope)
    if op == "lr_to_slope":
        word = item["word"]

        def lr():
            s = cfrac.lr_to_slope(word)
            return f"{s.slope} {s.dyadic}"
        return lr
    if op == "even_expansion":
        slope = Fraction(item["slope"])
        return lambda: cfrac.even_expansion(slope)
    if op == "period_structure":
        word = item["word"]
        return lambda: json.dumps(list(cfrac.period_structure(word)))
    if op == "cantor_approx":
        word, depth = item["word"], item["depth"]

        def cantor():
            lo, hi = cfrac.cantor_approx(word, depth)
            return f"{lo} {hi}"
        return cantor
    if op == "interval":
        d = DyadicRational(item["p"], item["q"])

        def interval():
            left, right = exceptional.from_dyadic(d).interval()
            return f"{left} {right}"
        return interval
    if op == "delta_curve":
        x = Fraction(item["x"])
        return lambda: str(exceptional.delta_curve(x))
    raise ValueError(f"unknown tree op {op!r}")


def _batch_parse(lines: list[str]) -> None:
    """What ``planecones batch`` does to a line before the report."""
    from planecones.chern import character_from_json
    from planecones.errors import DomainError

    for line in lines:
        try:
            character_from_json(json.loads(line))
        except (DomainError, ValueError):
            pass


def _ops(workload: str, items: list[dict], batch_path: str):
    """Parse the inputs into zero-argument callables returning output text."""
    from planecones import cli, cone
    from planecones.chern import character_from_json

    if workload in ("grid", "deep"):
        return [_report_op(cone, cli, character_from_json(it["char"])) for it in items]
    if workload == "tree":
        return [_tree_op(it) for it in items]
    _batch_parse([it["line"] for it in items])

    def batch():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["batch", batch_path])
        return buf.getvalue()
    return [batch]


READY_CALS = 21
_WIDE = [Fraction(3 ** (90 + i), 7 ** (70 + i) + i) for i in range(8)]


def _calibrate() -> None:
    """A fixed pass of ``Fraction`` arithmetic; its time tracks the host's speed.

    Two loops of about equal time: one on small rationals, whose time tracks
    ``grid``'s ops best on this host, and one on rationals of hundreds to
    thousands of bits, which tracks ``deep``'s and ``tree``'s best.
    """
    acc = Fraction(0)
    seen = {}
    for i in range(1, 40):
        acc += Fraction(i * 7919 + 1, i * i + 3) * Fraction(i, 2 * i + 1)
        seen[i] = acc.numerator % 1009
    for _ in range(3):
        acc = Fraction(0)
        for wide in _WIDE:
            acc = acc * wide + wide


def _timed_calibration(clock) -> float:
    start = clock()
    _calibrate()
    return clock() - start


def main(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    with open(job["inputs"], encoding="utf-8") as handle:
        items = [json.loads(line) for line in handle]
    ops = _ops(job["workload"], items, job["batch_file"])
    print("ready", flush=True)
    clock = time.perf_counter
    ready_cals = [_timed_calibration(clock) for _ in range(READY_CALS)]
    if job["setup_only"]:
        sys.stdout.write(json.dumps({"ready_cals": ready_cals}) + "\n")
        return
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, cals = [], []
    # outputs go straight to a file so they do not add to this process's memory
    with open(job["outputs"], "w", encoding="utf-8") as sink:
        for op in ops:
            start = clock()
            try:
                out = op()
            except Exception as exc:  # an op that raises is a failed op, not a dead run
                out = f"ERROR {type(exc).__name__}: {exc}"
            latencies.append(clock() - start)
            cals.append(_timed_calibration(clock))
            sink.write(json.dumps(out) + "\n")
    result = {"latencies": latencies, "cals": cals, "ready_cals": ready_cals}
    if tracer is not None:
        result["layers"] = tracer.summary(len(items))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
