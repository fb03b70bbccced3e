"""Shared fixtures: the four-node demo network, its frozen Laplacians, and a
seeded random-instance generator for property suites.

Set ``MATCONSENSUS_SEED`` to vary the randomized instances; the default keeps
the whole suite deterministic.
"""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from matconsensus import (
    DEFAULT_TOLERANCES,
    GraphDimensions,
    MatrixWeightedGraph,
    SwitchingSignal,
    integral_network,
    set_edge,
)

SEED = int(os.environ.get("MATCONSENSUS_SEED", "0"))

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def benchmark_scenario(name: str, seed: int) -> dict:
    """The scenario document of benchmark workload ``name`` for ``seed``,
    from ``perfbench/generate.py`` loaded by path (``perfbench`` is not a
    package)."""
    path = FIXTURE_DIR.parent / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("_perfbench_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scenario(name, seed)


# Frozen 8x8 Laplacians of the three demo graphs (n=4, d=2).  Entries are
# small integers, so equality checks below are exact.
LAP_A = np.array(
    [
        [1, 1, -1, -1, 0, 0, 0, 0],
        [1, 2, -1, -2, 0, 0, 0, 0],
        [-1, -1, 2, 2, -1, -1, 0, 0],
        [-1, -2, 2, 3, -1, -1, 0, 0],
        [0, 0, -1, -1, 1, 1, 0, 0],
        [0, 0, -1, -1, 1, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)

LAP_B = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, -1, 0],
        [0, 0, 0, 2, 0, 0, 0, -2],
        [0, 0, 0, 0, 1, 0, -1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, -1, 0, 2, 0],
        [0, 0, 0, -2, 0, 0, 0, 2],
    ],
    dtype=float,
)

LAP_C = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, -1, -1, 1, 0, 0],
        [0, 0, -1, 2, 1, -2, 0, 0],
        [0, 0, -1, 1, 1, -1, 0, 0],
        [0, 0, 1, -2, -1, 2, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)

X0 = np.array([0.6787, 0.7577, 0.7431, 0.3922, 0.6555, 0.1712, 0.7060, 0.0318])


@pytest.fixture(scope="session")
def dims4x2() -> GraphDimensions:
    return GraphDimensions(n=4, d=2)


@pytest.fixture(scope="session")
def demo_graphs(dims4x2):
    """The three demo graphs: a line 1-2-3, a star into node 4, and a single
    strong 2-3 link."""
    g_line = MatrixWeightedGraph(dims4x2)
    g_line = set_edge(g_line, 0, 1, [[1, 1], [1, 2]])
    g_line = set_edge(g_line, 1, 2, [[1, 1], [1, 1]])

    g_star = MatrixWeightedGraph(dims4x2)
    g_star = set_edge(g_star, 1, 3, [[1, 0], [0, 2]])
    g_star = set_edge(g_star, 2, 3, [[1, 0], [0, 0]])

    g_link = MatrixWeightedGraph(dims4x2)
    g_link = set_edge(g_link, 1, 2, [[1, -1], [-1, 2]])
    return g_line, g_star, g_link


DEMO_SEGMENTS = [(0, 2.0), (1, 3.0), (2, 1.0)]


@pytest.fixture(scope="session")
def demo_signal(demo_graphs) -> SwitchingSignal:
    """Periodic schedule: first graph for 2, second for 3, third for 1."""
    return SwitchingSignal(
        demo_graphs, DEMO_SEGMENTS, alpha=0.5, beta=4.0, periodic=True
    )


def stiff_demo(demo_graphs, scale: float) -> SwitchingSignal:
    """The periodic demo with G2's edge (2,4) set to ``diag(1, 2) * scale``:
    from about 1e6 on, the other edges' eigenvalues come near the null-space
    cutoff, which is relative to this edge."""
    graphs = list(demo_graphs)
    graphs[1] = set_edge(graphs[1], 1, 3, np.diag([1.0, 2.0]) * scale)
    return SwitchingSignal(graphs, DEMO_SEGMENTS, alpha=0.5, beta=4.0, periodic=True)


@pytest.fixture(scope="session")
def demo_finite_signal(demo_graphs) -> SwitchingSignal:
    """One pass of the demo schedule, ending at t = 6."""
    return SwitchingSignal(demo_graphs, DEMO_SEGMENTS, alpha=0.5, beta=4.0)


@pytest.fixture(scope="session")
def demo_initial_state() -> np.ndarray:
    return X0.copy()


@pytest.fixture(scope="session")
def scenario_path() -> Path:
    return FIXTURE_DIR / "four_agent_periodic.json"


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


def random_weight(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random PD weight, or (for d >= 2, sometimes) a rank-deficient PSD
    one so both definiteness classes appear in the property suites."""
    if d == 1 or rng.random() < 0.6:
        factor = rng.normal(size=(d, d))
        return factor.T @ factor + 0.05 * np.eye(d)
    rank = int(rng.integers(1, d))
    factor = rng.normal(size=(d, rank))
    factor *= rng.uniform(0.7, 1.5) / max(np.linalg.norm(factor), 1e-9)
    return factor @ factor.T


def random_graph(rng: np.random.Generator, dims: GraphDimensions, edge_prob=0.45):
    graph = MatrixWeightedGraph(dims)
    for i in range(dims.n):
        for j in range(i + 1, dims.n):
            if rng.random() < edge_prob:
                graph = set_edge(graph, i, j, random_weight(rng, dims.d))
    return graph


def _decisively_classified(signal: SwitchingSignal) -> bool:
    """True when every window's averaged Laplacian keeps its eigenvalues well
    clear of the rank cutoff.

    Rank-deficient weights can, by chance, leave a window with an eigenvalue
    a few decades either side of the zero/nonzero threshold.  On that knife
    edge the null-space and contraction classifiers may legitimately split
    (each applies its own tolerance), so such draws are useless as property
    instances and get redrawn.
    """
    count = signal.segment_count
    for start in range(count):
        for stop in range(start + 1, count + 1):
            _, avg_laplacian = integral_network(
                signal, signal.switch_time(start), signal.switch_time(stop)
            )
            eigs = np.linalg.eigvalsh(avg_laplacian)
            cutoff = DEFAULT_TOLERANCES.null_space * max(1.0, float(eigs[-1]))
            if np.any((eigs >= cutoff * 1e-3) & (eigs <= cutoff * 1e3)):
                return False
    return True


def random_signal(rng: np.random.Generator) -> SwitchingSignal:
    """A random finite switching signal: 2-5 nodes, state dimension 1-3,
    1-3 graphs, 1-4 segments, dwells in [0.5, 2]."""
    for _ in range(50):
        dims = GraphDimensions(n=int(rng.integers(2, 6)), d=int(rng.integers(1, 4)))
        graphs = [random_graph(rng, dims) for _ in range(int(rng.integers(1, 4)))]
        segments = [
            (int(rng.integers(0, len(graphs))), float(rng.uniform(0.5, 2.0)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        signal = SwitchingSignal(graphs, segments, alpha=0.5, beta=2.0)
        if _decisively_classified(signal):
            return signal
    raise RuntimeError("could not draw a decisively classifiable signal")
