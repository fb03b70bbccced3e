"""Run the same command-line invocations against two source trees and
compare their outputs byte for byte.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC [--work DIR]

``OLD_SRC`` and ``NEW_SRC`` are directories holding a ``matconsensus``
package, such as the ``src`` of two checkouts.  Each invocation runs as
``python3 -m matconsensus ...`` in a fresh interpreter with one BLAS thread
and that tree on ``PYTHONPATH``.  The exit code and the sha256 of stdout,
stderr and the CSV written by ``--out`` must match.  The list covers:

* the demo scenario: ``validate``, ``analyze`` as text and as JSON, with
  ``--span 0 2`` and with ``--horizon 9``, and ``simulate --oracle``, also
  with an unstable step (exit 2) and with a step whose reference nodes do
  not fit in memory (exit 2);
* ``simulate`` runs the run-grid check refuses (exit 2): ``--t-end 0``,
  ``--sample-dt 0``, ``--t-end 1e10 --sample-dt 1e-300`` and
  ``--oracle -1`` on the demo, and ``--t-end 7`` past the finite demo's end;
* the seed-0 benchmark scenarios ``periodic-mid``, ``finite-long`` and
  ``periodic-large``: ``validate``, ``analyze``, ``simulate``, and
  ``simulate --oracle`` up to the benchmark's oracle ``--t-end``, and
  ``analyze`` as JSON over the partial-period spans ``--span 0.3 17.9`` and
  ``--span 1.25 250.5``;
* ``simulate`` of the seed-1 ``periodic-mid``, of the demo from a state
  holding both ``-0.0`` and ``0.0``, and of the demo long past consensus
  (``--t-end 600 --sample-dt 0.01``), whose rows repeat a few values;
* ``simulate --oracle`` of the seed-0 ``periodic-mid`` with ``alpha``
  0.001, far below its dwells, up to ``--t-end 20``, and of a finite
  3-node path with 300 dwells of 1e-20 between two of 1.0;
* the demo as a finite signal through ``simulate --oracle`` up to its end,
  to mid-segment and past its end, and a finite 3,000-segment variant of dwell 0.002
  (two oracle steps a segment);
* demo variants with faulty edges, each through ``validate`` and
  ``analyze``: the first bad edge must be reported the same way.

Prints one line per invocation and exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scenarios" / "four_agent_periodic.json"
BENCHMARK_SCENARIOS = ("periodic-mid", "finite-long", "periodic-large")
TIMEOUT_S = 600
# spans that start and end inside a period, so that many positions of the
# segment list are summed with fractional weights
PARTIAL_SPANS = (("0.3", "17.9"), ("1.25", "250.5"))


def _edge(i: int, j: int, weight: list) -> dict:
    return {"i": i, "j": j, "weight": weight}


_OK = [1, 0, 0, 1]
_ZERO = [0, 0, 0, 0]
_INDEFINITE = [1, 3, 3, 1]  # eigenvalues 4 and -2
_ASYMMETRIC = [1, 2, 0, 1]
_HUGE = [1e308, 1e308, 1e308, 1e308]  # eigenvalue 2e308: classified rescaled

# name -> replaced edge lists of the demo's graphs; every list starts with a
# valid edge so that the fault is not the graph's first weight
FAULTS: dict[str, dict[str, list[dict]]] = {
    "weight-then-index": {
        "G1": [_edge(1, 2, _OK), _edge(2, 3, [0, 0, 0, 0]), _edge(3, 9, _OK)]
    },
    "index-then-weight": {
        "G1": [_edge(1, 2, _OK), _edge(3, 9, _OK), _edge(2, 3, [1, 3, 3, 1])]
    },
    "duplicate-after-bad-weight": {
        "G1": [_edge(1, 2, _OK), _edge(2, 3, [1, 3, 3, 1]), _edge(2, 1, _OK)]
    },
    "second-graph": {"G2": [_edge(2, 4, _OK), _edge(3, 4, [0, 0, 0, 0])]},
    "non-finite": {"G1": [_edge(1, 2, _OK), _edge(2, 3, [1, 0, 0, 1e999])]},
    "asymmetric": {"G1": [_edge(1, 2, _OK), _edge(2, 3, [1, 2, 0, 1])]},
    "zero": {"G1": [_edge(1, 2, _OK), _edge(2, 3, [0, 0, 0, 0])]},
    "indefinite": {"G1": [_edge(1, 2, _OK), _edge(2, 3, [1, 3, 3, 1])]},
    "self-loop": {"G1": [_edge(1, 2, _OK), _edge(3, 3, _OK)]},
    "overflowing-spectrum": {"G1": [_edge(1, 2, _OK), _edge(2, 3, _HUGE)]},
    "overflowing-spectrum-then-zero": {
        "G1": [_edge(1, 2, _HUGE), _edge(2, 3, [0, 0, 0, 0])]
    },
    # a fault of one kind before a fault of another, in either order
    "indefinite-then-asymmetric": {
        "G1": [_edge(1, 2, _OK), _edge(2, 3, _INDEFINITE), _edge(3, 4, _ASYMMETRIC)]
    },
    "asymmetric-then-indefinite": {
        "G1": [_edge(1, 2, _OK), _edge(2, 3, _ASYMMETRIC), _edge(3, 4, _INDEFINITE)]
    },
    "self-loop-then-asymmetric": {
        "G1": [_edge(1, 2, _OK), _edge(3, 3, _OK), _edge(2, 3, _ASYMMETRIC)]
    },
    "asymmetric-then-self-loop": {
        "G1": [_edge(1, 2, _OK), _edge(2, 3, _ASYMMETRIC), _edge(3, 3, _OK)]
    },
    "zero-then-asymmetric-then-index": {
        "G1": [
            _edge(1, 2, _OK),
            _edge(2, 3, _ZERO),
            _edge(3, 4, _ASYMMETRIC),
            _edge(3, 9, _OK),
        ]
    },
    "overflowing-spectrum-then-asymmetric": {
        "G1": [_edge(1, 2, _HUGE), _edge(2, 3, _ASYMMETRIC)]
    },
}


# a finite 3-node path whose 300 dwells of 1e-20 are within rounding of
# empty: they take no RK4 step, and end no oracle chunk on their own
SLIVERS = {
    "dimensions": {"n": 3, "d": 1},
    "graphs": {"G1": [_edge(1, 2, [1.0]), _edge(2, 3, [1.0])]},
    "signal": {
        "segments": [
            {"graph": "G1", "dwell": dwell} for dwell in [1.0, *[1e-20] * 300, 1.0]
        ],
        "periodic": False,
        "alpha": 1e-20,
        "beta": 1.0,
    },
    "initial_state": [[1.0], [0.0], [-1.0]],
}


def write_scenarios(directory: Path) -> list[tuple[str, list[str]]]:
    """Write every scenario the invocations read; returns ``(label, argv)``
    pairs, with ``{csv}`` standing for the CSV path of ``--out``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from generate import WORKLOADS, write_scenario

    demo = str(DEMO)
    simulate = ["simulate", demo, "--out", "{csv}"]
    invocations = [
        ("demo validate", ["validate", demo]),
        ("demo analyze text", ["analyze", demo]),
        ("demo analyze json", ["analyze", demo, "--format", "json"]),
        ("demo analyze --span 0 2", ["analyze", demo, "--span", "0", "2"]),
        ("demo analyze --horizon 9", ["analyze", demo, "--horizon", "9"]),
        ("demo simulate --oracle", [*simulate, "--oracle"]),
        ("demo simulate --oracle 0.5 (unstable)", [*simulate, "--oracle", "0.5"]),
        (
            "demo simulate --oracle 1e-15 (refused)",
            [*simulate, "--oracle", "1e-15", "--t-end", "6"],
        ),
        ("demo simulate --t-end 0", [*simulate, "--t-end", "0"]),
        ("demo simulate --sample-dt 0", [*simulate, "--sample-dt", "0"]),
        (
            "demo simulate --sample-dt 1e-300 (too fine)",
            [*simulate, "--t-end", "1e10", "--sample-dt", "1e-300"],
        ),
        ("demo simulate --oracle -1", [*simulate, "--oracle", "-1"]),
    ]
    for name in BENCHMARK_SCENARIOS:
        path = str(write_scenario(name, 0, directory))
        t_oracle = repr(WORKLOADS[name]["t_oracle"])
        invocations += [
            (f"{name} validate", ["validate", path]),
            (f"{name} analyze", ["analyze", path, "--format", "json"]),
            *(
                (
                    f"{name} analyze --span {start} {end}",
                    ["analyze", path, "--format", "json", "--span", start, end],
                )
                for start, end in PARTIAL_SPANS
            ),
            (f"{name} simulate", ["simulate", path, "--out", "{csv}"]),
            (
                f"{name} simulate --oracle",
                ["simulate", path, "--out", "{csv}", "--oracle", "1e-3"]
                + ["--t-end", t_oracle],
            ),
        ]
    seed_1 = str(write_scenario("periodic-mid", 1, directory / "seed-1"))
    low_alpha = json.loads((directory / "periodic-mid.json").read_text())
    low_alpha["signal"]["alpha"] = 0.001
    path = directory / "periodic-mid-alpha.json"
    path.write_text(json.dumps(low_alpha))
    invocations += [
        ("periodic-mid seed 1 simulate", ["simulate", seed_1, "--out", "{csv}"]),
        (
            "demo simulate --t-end 600 --sample-dt 0.01 (converged)",
            [*simulate, "--t-end", "600", "--sample-dt", "0.01"],
        ),
        (
            "periodic-mid alpha 0.001 simulate --oracle",
            ["simulate", str(path), "--out", "{csv}", "--oracle", "--t-end", "20"],
        ),
    ]
    path = directory / "slivers.json"
    path.write_text(json.dumps(SLIVERS))
    invocations.append(
        (
            "slivers simulate --oracle",
            ["simulate", str(path), "--out", "{csv}", "--oracle", "--t-end", "2"],
        )
    )
    base = json.loads(DEMO.read_text())
    zeros = copy.deepcopy(base)
    zeros["initial_state"] = [[-0.0, 0.0], [0.0, -0.0], [-0.0, 1.0], [0.0, -1.0]]
    path = directory / "signed-zeros.json"
    path.write_text(json.dumps(zeros))
    invocations.append(
        ("signed-zeros demo simulate", ["simulate", str(path), "--out", "{csv}"])
    )
    finite = copy.deepcopy(base)
    finite["signal"]["periodic"] = False
    short = copy.deepcopy(finite)
    short["signal"].update(
        alpha=0.002,
        segments=[{"graph": f"G{k % 3 + 1}", "dwell": 0.002} for k in range(3000)],
    )
    for name, doc, ends in (
        ("finite", finite, ("6", "4.3", "7")),
        ("short", short, ("6",)),
    ):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        invocations += [
            (
                f"{name} demo simulate --oracle --t-end {t_end}",
                ["simulate", str(path), "--out", "{csv}", "--oracle", "--t-end", t_end],
            )
            for t_end in ends
        ]
    for name, graphs in FAULTS.items():
        doc = copy.deepcopy(base)
        doc["graphs"].update(graphs)
        path = directory / f"fault-{name}.json"
        path.write_text(json.dumps(doc))
        invocations += [
            (f"fault {name} validate", ["validate", str(path)]),
            (f"fault {name} analyze", ["analyze", str(path), "--format", "json"]),
        ]
    return invocations


def run(src: Path, argv: list[str], csv: Path) -> dict[str, str | int]:
    """Exit code and output digests of one invocation against ``src``."""
    csv.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    argv = [arg.replace("{csv}", str(csv)) for arg in argv]
    result = subprocess.run(
        [sys.executable, "-m", "matconsensus", *argv],
        capture_output=True,
        env=env,
        timeout=TIMEOUT_S,
    )
    digest = lambda data: hashlib.sha256(data).hexdigest()  # noqa: E731
    return {
        "exit": result.returncode,
        "stdout": digest(result.stdout),
        "stderr": digest(result.stderr),
        "csv": digest(csv.read_bytes()) if csv.is_file() else "-",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument(
        "--work", type=Path, help="scratch directory (default: a temporary one)"
    )
    args = parser.parse_args()
    for src in (args.old_src, args.new_src):
        if not (src / "matconsensus" / "cli.py").is_file():
            parser.error(f"no matconsensus package under {src}")

    with tempfile.TemporaryDirectory() as temporary:
        work = args.work or Path(temporary)
        work.mkdir(parents=True, exist_ok=True)
        invocations = write_scenarios(work)
        differing = 0
        for label, argv in invocations:
            old = run(args.old_src.resolve(), argv, work / "old.csv")
            new = run(args.new_src.resolve(), argv, work / "new.csv")
            fields = [key for key in old if old[key] != new[key]]
            differing += bool(fields)
            status = "differs in " + ", ".join(fields) if fields else "equal"
            print(f"{label:<44} exit {old['exit']}  {status}", flush=True)
    print(f"{len(invocations) - differing} of {len(invocations)} invocations equal")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
