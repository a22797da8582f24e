"""planecones benchmark: one command, every metric by name and unit, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics; ``--trace 1``
makes a separate traced run and prints the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
LAUNCH = os.path.join(HERE, "launch.py")
MIN_SETUP_SAMPLES = 15
# Seconds one round takes, calibration passes included, at the seed commit on
# a 2-vCPU host.  A run makes a fixed number of rounds, about --seconds of
# work, so that two commits compared get the same number of samples per op.
ROUND_S = {"grid": 7.0, "deep": 10.0, "batch": 5.0, "tree": 2.0}
MIN_ROUNDS = 3
# Times are rescaled to a host on which one calibration pass (worker.py) takes
# REF_CAL_S, using the median pass within CAL_WINDOW ops either side of an op.
REF_CAL_S = 0.5e-3
CAL_WINDOW = 5


class RunFailed(RuntimeError):
    """A worker or CLI process died; the run cannot produce its metrics."""


def _env(root: str, unbuffered: bool = False) -> dict:
    env = dict(os.environ)
    env.pop("PLANECONES_CONFIG", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        env.pop("PYTHONUNBUFFERED", None)
    return env


class Bench:
    def __init__(self, root: str, workload: str, items: list[dict], work: str) -> None:
        self.root = root
        self.workload = workload
        self.items = items
        self.work = work
        self.inputs_path = os.path.join(work, "inputs.jsonl")
        self.batch_path = os.path.join(work, "batch.jsonl")
        with open(self.inputs_path, "wb") as handle:
            handle.write(workloads.serialize(self.items))
        with open(self.batch_path, "w", encoding="utf-8") as handle:
            if workload == "batch":
                handle.write("".join(it["line"] + "\n" for it in self.items))

    # -- processes ------------------------------------------------------------

    def _launch(self, argv: list[str], cpu: int | None, unbuffered: bool = False):
        """Start ``python ARGV`` through ``launch.py``; returns the process and report path."""
        report = os.path.join(self.work, "launch.json")
        if os.path.exists(report):
            os.remove(report)
        proc = subprocess.Popen(
            [sys.executable, "-S", "-E", LAUNCH, report, "any" if cpu is None else str(cpu),
             sys.executable, *argv],
            cwd=self.root, stdout=subprocess.PIPE, env=_env(self.root, unbuffered))
        return proc, report

    @staticmethod
    def _finish(proc: subprocess.Popen, report: str) -> dict:
        """Wait for the launcher; the child's times, peak memory and exit code."""
        proc.wait()
        try:
            with open(report, encoding="utf-8") as handle:
                return json.load(handle)
        except OSError as exc:
            raise RunFailed(f"launcher exited with code {proc.returncode}") from exc

    def worker(self, trace: bool = False, setup_only: bool = False,
               cpu: int | None = None) -> dict:
        """One fresh worker process; returns set-up time, peak RSS and its result."""
        job_path = os.path.join(self.work, "job.json")
        outputs_path = os.path.join(self.work, "outputs.jsonl")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump({"workload": self.workload, "inputs": self.inputs_path,
                       "batch_file": self.batch_path, "outputs": outputs_path,
                       "trace": trace, "setup_only": setup_only}, handle)
        proc, report = self._launch([WORKER, job_path], cpu)
        with proc.stdout:
            ready = proc.stdout.readline()
            ready_at = time.perf_counter()
            rest = proc.stdout.read()
        child = self._finish(proc, report)
        if ready.strip() != b"ready" or child["exit_code"] != 0:
            raise RunFailed(f"worker exited with code {child['exit_code']}")
        result = json.loads(rest) if rest.strip() else {}
        if not setup_only:
            with open(outputs_path, encoding="utf-8") as handle:
                result["outputs"] = [json.loads(line) for line in handle]
        result.update(setup_s=_rescaled(ready_at - child["start"], result["ready_cals"]),
                      rss_mb=child["rss_mb"])
        return result

    def batch_cli(self, cpu: int | None = None) -> dict:
        """``python -m planecones.cli batch FILE``; per-line output arrival times."""
        proc, report = self._launch(["-m", "planecones.cli", "batch", self.batch_path], cpu,
                                    unbuffered=True)
        arrivals, outputs = [], []
        with proc.stdout:
            for raw in proc.stdout:
                arrivals.append(time.perf_counter())
                outputs.append(raw.decode().rstrip("\n"))
        child = self._finish(proc, report)
        # the first line also pays interpreter start-up and import: not a latency sample
        latencies = [b - a for a, b in zip(arrivals, arrivals[1:])]
        return {"outputs": outputs, "latencies": latencies,
                "wall_s": child["end"] - child["start"],
                "rss_mb": child["rss_mb"], "exit_code": child["exit_code"]}

    # -- correctness -------------------------------------------------------------

    def failures(self, outputs: list[str], golden: dict, verdicts: dict) -> list[str]:
        """Reason per failed op of one round (empty list when all passed)."""
        reasons = []
        for number, item in enumerate(self.items, start=1):
            if number > len(outputs):
                reasons.append("no output: the process died before this line")
                continue
            out = outputs[number - 1]
            if self.workload == "batch":
                out = checks.normalize_batch_record(out, number)
            dig = checks.digest(out)
            if golden.get(checks.key_id(item["key"])) != dig:
                reasons.append(f"output differs from the seed commit's: {item['key'][:80]}")
                continue
            if (item["key"], dig) not in verdicts:
                verdicts[item["key"], dig] = checks.check(self.workload, item, out)
            if verdicts[item["key"], dig] is not None:
                reasons.append(f"{verdicts[item['key'], dig]}: {item['key'][:80]}")
        return reasons

    def descriptor(self, outputs: list[str]) -> dict:
        """Input mix read from the outputs: kinds and corresponding-slope orders."""
        kinds, orders = Counter(), Counter()
        if self.workload == "tree":
            for item, out in zip(self.items, outputs):
                kinds[item["op"]] += 1
                if item["op"] == "from_dyadic":
                    orders[item["q"]] += 1
            return {"ops": dict(sorted(kinds.items())), "walk_orders": dict(sorted(orders.items()))}
        for out in outputs:
            try:
                record = json.loads(out)
            except ValueError:
                kinds["UNREADABLE"] += 1
                continue
            if "error" in record:
                kinds["ERROR_RECORD"] += 1
                continue
            kinds[record["classification"]["kind"]] += 1
            primary = record.get("primary")
            if primary is not None:
                orders[primary["invariants"]["corresponding_slope"]["order"]] += 1
        return {"kinds": dict(sorted(kinds.items())),
                "corresponding_slope_orders": dict(sorted(orders.items()))}


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, n=100)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def _rescaled(seconds: float, cals: list[float]) -> float:
    """``seconds`` as it would read on a host where a calibration pass takes REF_CAL_S."""
    return seconds * REF_CAL_S / statistics.median(cals)


def _host_scaled(latencies: list[float], cals: list[float]) -> list[float]:
    """Each op's latency rescaled by the calibration passes timed around it.

    The host's speed drifts by up to 40% over seconds to minutes, per CPU; the
    passes timed right after each op track that drift, the op's own cost does not.
    """
    return [_rescaled(lat, cals[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1])
            for k, lat in enumerate(latencies)]


def _per_op_median(rounds: list[list[float]]) -> list[float]:
    """Each op's median over the rounds."""
    return [statistics.median(samples) for samples in zip(*rounds)]


def timed_run(bench: Bench, seconds: float, golden: dict):
    """Fresh-process rounds on the same inputs, about ``seconds`` of work in all."""
    rounds, setups, rss, cli_rates = [], [], [], []
    attempted, reasons, verdicts = 0, [], {}
    descriptor = None
    cpus = sorted(os.sched_getaffinity(0))
    n_rounds = max(MIN_ROUNDS, round(seconds / ROUND_S[bench.workload]))
    # set-up samples are spread over the run rather than bunched at one moment
    probes_per_round = -(-MIN_SETUP_SAMPLES // n_rounds) - (bench.workload != "batch")
    for k in range(n_rounds):
        # contention on this host comes and goes per CPU within seconds, so the
        # rounds take turns on each CPU and each op's median sees every CPU
        cpu = cpus[k % len(cpus)]
        for _ in range(probes_per_round):
            setups.append(bench.worker(setup_only=True, cpu=cpu)["setup_s"])
        if bench.workload == "batch":
            result = bench.batch_cli(cpu)
            cli_rates.append(len(bench.items) / result["wall_s"])
        else:
            result = bench.worker(cpu=cpu)
            setups.append(result["setup_s"])
        rss.append(result["rss_mb"])
        attempted += len(bench.items)
        reasons += bench.failures(result["outputs"], golden, verdicts)
        if descriptor is None:
            descriptor = bench.descriptor(result["outputs"])
        if bench.workload == "batch":
            rounds.append(result["latencies"])
        else:
            rounds.append(_host_scaled(result["latencies"], result["cals"]))
        if bench.workload == "batch" and result["exit_code"] != 0:
            # unanswered lines already count as failed; an exit after the last
            # answer fails that answer
            if len(result["outputs"]) == len(bench.items):
                reasons.append(f"batch exited with code {result['exit_code']}")
            break
    latencies = _per_op_median(rounds)
    if bench.workload == "batch":
        ops_per_s = max(cli_rates)
    else:
        ops_per_s = len(latencies) / sum(latencies)
    metrics = {
        "ops_per_s": (ops_per_s, "ops/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (_quantile(latencies, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    info = {"rounds": len(rounds), "ops_per_round": len(bench.items),
            "latency_samples": len(latencies), "setup_samples": len(setups),
            "inputs": descriptor}
    return metrics, attempted, reasons, info


def traced_run(bench: Bench, golden: dict):
    """One untraced and one traced round in fresh workers, for the overhead ratio."""
    attempted, reasons, verdicts = 0, [], {}
    rates = []
    layers = None
    for trace in (False, True):
        result = bench.worker(trace=trace)
        outputs = result["outputs"]
        if bench.workload == "batch":
            outputs = outputs[0].splitlines() if outputs else []
        attempted += len(bench.items)
        reasons += bench.failures(outputs, golden, verdicts)
        rates.append(len(bench.items) / sum(result["latencies"]))
        layers = result.get("layers", layers)
    metrics = {name: (value, _layer_unit(name)) for name, value in layers.items()}
    metrics["trace.untraced_ops_per_s"] = (rates[0], "ops/s")
    metrics["trace.traced_ops_per_s"] = (rates[1], "ops/s")
    metrics["trace.overhead_ratio"] = (rates[0] / rates[1], "ratio")
    return metrics, attempted, reasons, {"ops_per_round": len(bench.items)}


def _layer_unit(name: str) -> str:
    if name.endswith("self_ms_per_op"):
        return "ms/op"
    if name.endswith("_per_op"):
        return "calls/op"
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "planecones", "__init__.py")):
        print("error: run from the repository root; src/planecones not found", file=sys.stderr)
        return 2
    golden = checks.load_golden()
    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        bench = Bench(root, args.workload, workloads.make_inputs(args.workload, args.seed), work)
        if args.trace:
            metrics, attempted, reasons, info = traced_run(bench, golden)
        else:
            metrics, attempted, reasons, info = timed_run(bench, args.seconds, golden)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(reasons)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items() if k != "inputs"))
    if "inputs" in info:
        print(f"inputs: {json.dumps(info['inputs'])}")
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    print(f"{'ops_failed_ratio':<48} {failed / attempted:>14.6g} failed/attempted"
          f" ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
