"""Run one command as the child of this small process and report on it.

Usage: ``python launch.py REPORT CPU ARGV...`` (``CPU`` is a CPU number or
``any``).  Linux carries a process's peak resident memory across ``exec``,
so a child forked from a large parent reports at least the parent's size.
Forking from this fresh, small interpreter keeps that floor at the size of
a bare interpreter.  ``REPORT`` receives the child's fork and exit times on
the ``time.perf_counter`` clock (system-wide on Linux), its peak resident
memory and its exit code.
"""

import os
import sys
import time


def main() -> int:
    report, cpu, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if cpu != "any":
        os.sched_setaffinity(0, {int(cpu)})
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    import json

    with open(report, "w", encoding="utf-8") as handle:
        json.dump({"start": start, "end": end, "rss_mb": usage.ru_maxrss / 1024,
                   "exit_code": os.waitstatus_to_exitcode(status)}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
