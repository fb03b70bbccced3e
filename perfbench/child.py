"""Fresh-interpreter probes of the benchmark.

    python3 perfbench/child.py import
        prints the seconds this interpreter spends importing matconsensus.cli
    python3 perfbench/child.py run STDOUT_FILE ARG...
        runs ``matconsensus ARG...`` with its stdout in STDOUT_FILE, then
        prints the exit code and this process's own peak RSS

The peak is the high-water mark of this process's address space (``VmHWM``).
``getrusage`` is not used for it: Linux carries the forking parent's peak
across ``exec`` into ``ru_maxrss``, so a child of a large benchmark process
would report the parent's size.
"""

from __future__ import annotations

import os
import sys
import time

# Only modules the interpreter has loaded before this script runs are
# imported ahead of the timed import, so ``setup_s`` includes every module
# matconsensus.cli pulls in.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _high_water_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    from matconsensus import cli

    imported = time.perf_counter() - start
    import contextlib
    import json
    import traceback
    from pathlib import Path

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"matconsensus imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if sys.argv[1] == "import":
        print(json.dumps({"import_s": imported}))
        return 0
    with open(sys.argv[2], "w") as out, contextlib.redirect_stdout(out):
        try:
            code = cli.main(sys.argv[3:])
        except Exception:  # reported as a failed invocation
            traceback.print_exc()
            code = None
    peak_kb = _high_water_kb()
    print(json.dumps({"code": code, "peak_kb": peak_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
