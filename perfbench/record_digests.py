"""Record the seed-0 output digests that ``check.py`` compares against.

    python3 perfbench/record_digests.py

Run it only on the commit whose output bytes are the reference: every later
commit must reproduce them byte for byte.  The outputs are checked for
structure before their digests are written.
"""

from __future__ import annotations

import json
import sys

# run comes first: it pins the BLAS thread count before numpy is loaded.
from run import COMMANDS, HERE, SRC, Workload, environment, environment_key, invoke
from check import DIGESTS, Checker, digest
from generate import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    from matconsensus import cli

    key = environment_key(environment(0))
    recorded = {}
    for name in WORKLOADS:
        work = HERE / ".work" / name
        work.mkdir(parents=True, exist_ok=True)
        workload = Workload(name, 0, work, key)
        checker = Checker(workload.shape, None)
        digests = {}
        for command in COMMANDS:
            code, stdout, _ = invoke(cli, workload.argv(command))
            csv = workload.csv.get(command)
            problems = checker.problems(command, code, stdout, csv)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            digests[f"{command}.stdout"] = digest(stdout.encode())
            if csv is not None:
                digests[f"{command}.csv"] = digest(csv.read_bytes())
                csv.unlink()
        recorded[name] = digests
        print(f"{name}: {len(digests)} digests")
    document = {"environment": key, "workloads": recorded}
    DIGESTS.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
