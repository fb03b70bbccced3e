import json
import tracemalloc

import numpy as np
import pytest

from matconsensus import (
    Definiteness,
    GraphDimensions,
    MatrixWeightedGraph,
    ModelError,
    WeightMatrix,
    cli,
    laplacian,
    new_graph,
    set_edge,
)
from conftest import LAP_A, LAP_B, LAP_C, random_graph


def _reference_laplacian(graph):
    """``D - A`` from two full ``nd x nd`` arrays, the block degree and
    block adjacency matrices: the definition ``laplacian`` must match byte
    for byte."""
    d = graph.dims.d
    adj = np.zeros((graph.dims.stacked, graph.dims.stacked))
    for (i, j), weight in graph.edges.items():
        adj[i * d : (i + 1) * d, j * d : (j + 1) * d] = weight.entries
        adj[j * d : (j + 1) * d, i * d : (i + 1) * d] = weight.entries
    deg = np.zeros((graph.dims.stacked, graph.dims.stacked))
    for (i, j), weight in graph.edges.items():
        deg[i * d : (i + 1) * d, i * d : (i + 1) * d] += weight.entries
        deg[j * d : (j + 1) * d, j * d : (j + 1) * d] += weight.entries
    return deg - adj


def test_dimensions_reject_degenerate_sizes():
    with pytest.raises(ModelError, match="need at least 2 nodes, got n=1"):
        GraphDimensions(n=1, d=2)
    with pytest.raises(ModelError, match="need dimension >= 1, got d=0"):
        GraphDimensions(n=3, d=0)
    assert GraphDimensions(n=4, d=2).stacked == 8


def test_set_edge_classifies_and_stores(dims4x2):
    graph = set_edge(new_graph(dims4x2), 1, 0, [[1, 1], [1, 2]])
    assert list(graph.edges) == [(0, 1)]
    assert graph.edges[(0, 1)].definiteness is Definiteness.POSITIVE_DEFINITE

    graph = set_edge(graph, 1, 2, [[1, 1], [1, 1]])
    assert graph.edges[(1, 2)].definiteness is Definiteness.POSITIVE_SEMIDEFINITE
    assert len(graph.edges) == 2


def test_set_edge_is_functional(dims4x2):
    """set_edge returns a new graph; the original is untouched."""
    empty = new_graph(dims4x2)
    grown = set_edge(empty, 0, 1, np.eye(2))
    assert len(empty.edges) == 0
    assert len(grown.edges) == 1
    with pytest.raises(ValueError):
        grown.edges[(0, 1)].entries[0, 0] = 5.0  # stored weights are read-only


def test_set_edge_rejections(dims4x2):
    graph = new_graph(dims4x2)
    with pytest.raises(ModelError, match="self-loop at node 2 is not allowed"):
        set_edge(graph, 2, 2, np.eye(2))
    with pytest.raises(
        ModelError, match=r"edge \(0, 1\) is not symmetric: max\|M - M\^T\| = "
    ):
        set_edge(graph, 0, 1, [[1, 0.5], [0, 1]])
    with pytest.raises(ModelError, match=r"edge \(0, 1\) is indefinite"):
        set_edge(graph, 0, 1, [[1, 3], [3, 1]])  # eigenvalues 4 and -2
    with pytest.raises(ModelError, match=r"edge \(0, 1\) is zero within tolerance"):
        set_edge(graph, 0, 1, np.zeros((2, 2)))
    with pytest.raises(ModelError, match=r"weight must be 2x2, got shape \(3, 3\)"):
        set_edge(graph, 0, 1, np.eye(3))
    with pytest.raises(ModelError, match=r"node indices must lie in \[0, 4\)"):
        set_edge(graph, 0, 4, np.eye(2))


def test_set_edge_rejects_non_integer_indices():
    """A float index is refused before it becomes an edge key that
    ``laplacian`` cannot slice with; a numpy integer is accepted."""
    graph = new_graph(GraphDimensions(n=2, d=1))
    with pytest.raises(ModelError, match=r"^node index 0\.5 is not an integer$"):
        set_edge(graph, 0.5, 1, [[1.0]])
    with pytest.raises(ModelError, match=r"^node index 1\.0 is not an integer$"):
        set_edge(graph, 0, 1.0, [[1.0]])
    assert list(set_edge(graph, np.int64(1), 0, [[1.0]]).edges) == [(0, 1)]


def test_set_edge_symmetrizes_rounding_noise(dims4x2):
    noisy = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
    graph = set_edge(new_graph(dims4x2), 0, 1, noisy)
    stored = graph.edges[(0, 1)].entries
    assert np.array_equal(stored, stored.T)


def test_degree_blocks(dims4x2, demo_graphs):
    g_line, g_star, g_link = demo_graphs
    assert np.array_equal(laplacian(new_graph(dims4x2)), np.zeros((8, 8)))
    # node 4 of the star graph accumulates both incident weights
    lap = laplacian(g_star)
    assert np.array_equal(lap[6:8, 6:8], np.diag([2.0, 2.0]))
    # node 2 of the single-link graph carries that link's weight
    lap = laplacian(g_link)
    assert np.array_equal(lap[2:4, 2:4], np.array([[1.0, -1.0], [-1.0, 2.0]]))


def test_laplacian_matches_frozen_matrices(demo_graphs):
    """The three demo Laplacians, reproduced entry for entry."""
    for graph, expected in zip(demo_graphs, (LAP_A, LAP_B, LAP_C)):
        assert np.array_equal(laplacian(graph), expected)


def test_laplacian_is_degree_minus_adjacency(dims4x2, demo_graphs, rng):
    """Byte for byte, signed zeros included: a weight with ``-0.0``
    entries and nodes with several incident edges are among the cases."""
    signed_zero = set_edge(new_graph(dims4x2), 0, 1, [[1.0, -0.0], [-0.0, 2.0]])
    signed_zero = set_edge(signed_zero, 1, 2, [[3.0, -0.0], [-0.0, 0.0]])
    graphs = [*demo_graphs, new_graph(dims4x2), signed_zero]
    for _ in range(20):
        dims = GraphDimensions(n=int(rng.integers(2, 7)), d=int(rng.integers(1, 4)))
        graphs.append(random_graph(rng, dims, edge_prob=0.7))
    for graph in graphs:
        assert laplacian(graph).tobytes() == _reference_laplacian(graph).tobytes()


def test_laplacian_allocates_only_its_result():
    """One ``nd x nd`` array: the peak traced while building a path graph's
    Laplacian is its bytes plus small temporaries, not ``D`` and ``A``."""
    dims = GraphDimensions(n=400, d=2)
    weight = WeightMatrix(np.eye(2), Definiteness.POSITIVE_DEFINITE)
    graph = MatrixWeightedGraph(dims, {(k, k + 1): weight for k in range(dims.n - 1)})
    tracemalloc.start()
    try:
        lap = laplacian(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= lap.nbytes + 64 * 2**10


def test_laplacian_block_rows_sum_to_zero(demo_graphs):
    for graph in demo_graphs:
        lap = laplacian(graph)
        n, d = graph.dims.n, graph.dims.d
        for i in range(n):
            rows = lap[i * d : (i + 1) * d]
            row_sum = sum(rows[:, j * d : (j + 1) * d] for j in range(n))
            assert np.allclose(row_sum, 0.0, atol=1e-14)
        # equivalently, states with all nodes equal are annihilated
        same = np.tile(np.arange(1.0, d + 1.0), n)
        assert np.allclose(lap @ same, 0.0, atol=1e-12)


def test_laplacian_symmetric_psd(rng):
    for _ in range(20):
        dims = GraphDimensions(n=int(rng.integers(2, 6)), d=int(rng.integers(1, 4)))
        lap = laplacian(random_graph(rng, dims))
        assert np.array_equal(lap, lap.T)
        assert np.linalg.eigvalsh(lap).min() > -1e-9


def test_set_edge_rejects_non_finite_weights(dims4x2):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ModelError, match=r"edge \(0, 1\) has non-finite") as info:
            set_edge(new_graph(dims4x2), 0, 1, [[1.0, 0.0], [0.0, bad]])
        assert type(info.value) is ModelError


def test_set_edge_symmetrises_huge_weights_without_overflow(dims4x2):
    # the second weight's eigenvalue 2e308 overflows; it is still classified
    for huge, kind in (
        (np.diag([1e308, 1e308]), Definiteness.POSITIVE_DEFINITE),
        (np.full((2, 2), 1e308), Definiteness.POSITIVE_SEMIDEFINITE),
    ):
        with np.errstate(over="raise"):
            weight = set_edge(new_graph(dims4x2), 0, 1, huge).edges[(0, 1)]
        assert weight.definiteness is kind
        assert np.array_equal(weight.entries, huge)


@pytest.mark.parametrize("n", [10**8, 10**10])
def test_laplacian_beyond_memory_is_a_model_error(scenario_path, tmp_path, capsys, n):
    """The demo's shape with ``d = 1`` and ``n`` nodes: at ``10**8`` the
    Laplacian needs 8e16 bytes, more than any address space, and at
    ``10**10`` its shape is beyond any numpy array, so either allocation
    fails at once and ``analyze`` exits 2, naming ``n*d``."""
    doc = json.loads(scenario_path.read_text())
    doc["dimensions"] = {"n": n, "d": 1}
    for edges in doc["graphs"].values():
        for edge in edges:
            edge["weight"] = [edge["weight"][0]]
    del doc["initial_state"]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the Laplacian for n*d = {n} is {n}x{n}, "
        "more entries than fit in memory\n"
    )
