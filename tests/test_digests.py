"""The seed-0 benchmark workloads reproduce, byte for byte, the outputs
whose digests ``perfbench/digests.json`` records.

The workloads run in one fresh interpreter that imports ``perfbench/run.py``
first, so its BLAS thread pin applies before numpy loads.  Output bytes
depend on the numeric environment, so the test is skipped where that differs
from the one the digests were recorded in.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CHILD = """
import json, sys, tempfile
from pathlib import Path

import run  # first: pins the BLAS thread count before numpy loads
from run import COMMANDS, DIGESTS, SRC, Workload, environment, environment_key, invoke

key = environment_key(environment(0))
recorded = json.loads(DIGESTS.read_text())["environment"]
if key != recorded:
    reason = f"numeric environment {key!r}, digests recorded in {recorded!r}"
    print(json.dumps({"skip": reason}))
    sys.exit(0)
sys.path.insert(0, str(SRC))
from matconsensus import cli

problems = []
with tempfile.TemporaryDirectory() as tmp:
    for name in ("periodic-mid", "finite-long"):
        workload = Workload(name, 0, Path(tmp) / name, key)
        assert workload.digests_checked
        for command in COMMANDS:
            code, stdout, _ = invoke(cli, workload.argv(command))
            workload.record(command, code, stdout)
        problems += workload.problems
print(json.dumps({"problems": problems}))
"""


def test_seed_zero_outputs_match_recorded_digests():
    result = subprocess.run(
        [sys.executable, "-c", CHILD],
        cwd=PERFBENCH,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout.splitlines()[-1])
    if "skip" in outcome:
        pytest.skip(outcome["skip"])
    assert outcome["problems"] == []
