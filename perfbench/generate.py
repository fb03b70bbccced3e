"""Seeded scenario generator for the benchmark workloads.

Every workload draws from ``numpy.random.default_rng(seed)``.  Edge weights
are built from small-integer factors (``B B^T + I`` for positive-definite
edges, ``v v^T`` for rank-1 semi-definite ones), so they are exactly
symmetric and exactly PSD and no weight can classify as indefinite.  The
same seed gives byte-identical files.

    python3 perfbench/generate.py --seed 0 --out DIR   # writes all three
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

GRAPHS = 8
ALPHA, BETA = 0.5, 1.5
Q_THRESHOLD = 0.99

# name -> shape of the scenario; ``t_oracle`` is the ``--t-end`` of the
# oracle command.
WORKLOADS: dict[str, dict] = {
    "periodic-mid": dict(
        n=60, d=3, periodic=True, segments=12, horizon=40,
        t_end=200.0, sample_dt=0.1, t_oracle=20.0,
    ),
    "periodic-large": dict(
        n=200, d=2, periodic=True, segments=12, horizon=40,
        t_end=200.0, sample_dt=0.1, t_oracle=6.0,
    ),
    "finite-long": dict(
        n=100, d=2, periodic=False, segments=300, horizon=None,
        t_end=290.0, sample_dt=1.0, t_oracle=15.0,
    ),
}


def _weight(rng: np.random.Generator, d: int, definite: bool) -> list[int]:
    if definite:
        factor = rng.integers(-2, 3, size=(d, d))
        weight = factor @ factor.T + np.eye(d, dtype=np.int64)
    else:
        vector = np.zeros(d, dtype=np.int64)
        while not vector.any():
            vector = rng.integers(-2, 3, size=d)
        weight = np.outer(vector, vector)
    return [int(x) for x in weight.flat]


def scenario(name: str, seed: int) -> dict:
    """The scenario document of workload ``name`` for ``seed``."""
    shape = WORKLOADS[name]
    n, d = shape["n"], shape["d"]
    rng = np.random.default_rng(seed)
    probability = 3.0 / n

    graphs = {}
    for g in range(GRAPHS):
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < probability:
                    definite = bool(rng.random() < 0.5)
                    edges.append(
                        {"i": i + 1, "j": j + 1, "weight": _weight(rng, d, definite)}
                    )
        graphs[f"G{g + 1}"] = edges

    segments = []
    for _ in range(shape["segments"]):
        graph = f"G{int(rng.integers(GRAPHS)) + 1}"
        if shape["periodic"]:
            dwell = float(rng.choice([0.5, 1.0, 1.5]))
        else:
            dwell = round(float(rng.uniform(ALPHA, BETA)), 3)
        segments.append({"graph": graph, "dwell": dwell})

    initial_state = [[round(float(x), 4) for x in row] for row in rng.random((n, d))]

    run: dict = {"q_threshold": Q_THRESHOLD, "sample_dt": shape["sample_dt"]}
    if shape["periodic"]:
        run["t_end"] = shape["t_end"]
        run["horizon"] = shape["horizon"]
    else:
        # A finite signal must outlast t_end; dwell sums vary with the seed.
        total = sum(seg["dwell"] for seg in segments)
        run["t_end"] = float(min(shape["t_end"], math.floor(total) - 1))

    return {
        "dimensions": {"n": n, "d": d},
        "graphs": graphs,
        "signal": {
            "segments": segments,
            "periodic": shape["periodic"],
            "alpha": ALPHA,
            "beta": BETA,
        },
        "initial_state": initial_state,
        "run": run,
    }


def write_scenario(name: str, seed: int, directory: Path) -> Path:
    """Write workload ``name`` for ``seed`` to ``directory/<name>.json``."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(scenario(name, seed), separators=(",", ":")) + "\n")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for name in WORKLOADS:
        print(write_scenario(name, args.seed, args.out))


if __name__ == "__main__":
    main()
