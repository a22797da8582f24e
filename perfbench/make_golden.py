"""Write ``golden.json``: the digest of the output of every pool input.

Run once, from the repository root, at the commit whose outputs are the
reference (the ROADMAP requires later commits to keep them byte-identical)::

    python3 perfbench/make_golden.py

Every output must also pass the independent checks, or nothing is written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    root = os.getcwd()
    work = os.path.join(run.HERE, ".work", f"golden-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    golden, bad = {}, []
    try:
        for name in workloads.WORKLOADS:
            bench = run.Bench(root, name, workloads.POOLS[name](), work)
            if name == "batch":
                outputs = bench.batch_cli()["outputs"]
            else:
                outputs = bench.worker()["outputs"]
            if len(outputs) != len(bench.items):
                bad.append(f"{name}: {len(outputs)} outputs for {len(bench.items)} inputs")
            for number, (item, out) in enumerate(zip(bench.items, outputs), start=1):
                if name == "batch":
                    out = checks.normalize_batch_record(out, number)
                reason = checks.check(name, item, out)
                if reason is not None:
                    bad.append(f"{item['key'][:80]}: {reason}")
                golden[checks.key_id(item["key"])] = checks.digest(out)
            print(f"{name}: {len(bench.items)} inputs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        print("\n".join(bad[:20]), file=sys.stderr)
        return 1
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
