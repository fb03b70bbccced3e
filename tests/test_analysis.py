import numpy as np
import pytest
import scipy.linalg

from matconsensus import (
    BadThresholdError,
    Decision,
    GraphDimensions,
    HorizonExhausted,
    IndexOrderError,
    IndexOutOfRangeError,
    InvalidSignalError,
    NullSpaceMatch,
    NullSpaceObstruction,
    PositiveSpanningTree,
    SwitchingSignal,
    UniformContraction,
    build_periodic_signal,
    consensus_subspace,
    contraction_factor,
    integral_network,
    laplacian,
    necessary_condition_scan,
    new_graph,
    periodic_consensus_verdict,
    positive_spanning_tree,
    segment_laplacian_sum,
    set_edge,
    sufficient_condition_certificate,
    transition_matrix,
)

# Frozen contraction factors for the demo schedule, computed independently
# with scipy.linalg.expm products and eigvalsh (see test_matches_..._oracle
# below for the recomputation).
MU_PERIOD = 0.3976599106280705
MU_FIRST_WINDOW = 0.6753303071056455
MU_SECOND_WINDOW = 0.3517519952757564


def _cert(verdict, kind):
    found = [c for c in verdict.certificates if isinstance(c, kind)]
    assert found, f"no {kind.__name__} certificate in {verdict}"
    return found[0]


def test_transition_matrix_single_segment(demo_signal):
    phi = transition_matrix(demo_signal, 0, 1)
    expected = scipy.linalg.expm(-2.0 * demo_signal.segment_laplacian(0))
    assert np.max(np.abs(phi.matrix - expected)) <= 1e-12


def test_transition_matrix_order_and_bounds(demo_signal, demo_finite_signal):
    phi = transition_matrix(demo_signal, 0, 3)
    expected = (
        scipy.linalg.expm(-1.0 * demo_signal.segment_laplacian(2))
        @ scipy.linalg.expm(-3.0 * demo_signal.segment_laplacian(1))
        @ scipy.linalg.expm(-2.0 * demo_signal.segment_laplacian(0))
    )
    assert np.max(np.abs(phi.matrix - expected)) <= 1e-12
    with pytest.raises(IndexOrderError):
        transition_matrix(demo_signal, 2, 2)
    with pytest.raises(IndexOutOfRangeError):
        transition_matrix(demo_signal, -1, 2)
    with pytest.raises(IndexOutOfRangeError):
        transition_matrix(demo_finite_signal, 0, 4)


def test_transition_fixes_consensus_and_never_expands(demo_signal, dims4x2):
    phi = transition_matrix(demo_signal, 0, 6).matrix
    basis = consensus_subspace(dims4x2).basis
    assert np.allclose(phi @ basis, basis, atol=1e-12)
    singular = np.linalg.svd(phi, compute_uv=False)
    assert singular.max() <= 1.0 + 1e-10


def test_contraction_factor_identity(dims4x2):
    report = contraction_factor(np.eye(8), dims4x2)
    assert report.mu_next == pytest.approx(1.0, abs=1e-12)
    assert not report.contracts
    assert np.allclose(report.eigenvalues, np.ones(8))


def test_contraction_factor_period(demo_signal, dims4x2):
    phi = transition_matrix(demo_signal, 0, 3)
    report = contraction_factor(phi, dims4x2)
    assert report.contracts
    assert report.mu_next == pytest.approx(MU_PERIOD, abs=1e-9)
    # top d eigenvalues are exactly the agreement directions
    assert np.allclose(report.eigenvalues[:2], 1.0, atol=1e-12)
    assert report.eigenvalues[2] < 1.0


def test_contraction_factor_spectral_mapping():
    """For a single positive-definite-tree segment, mu is exp(-2 t lambda)
    with lambda the smallest nonzero Laplacian eigenvalue."""
    dims = GraphDimensions(n=2, d=2)
    graph = set_edge(new_graph(dims), 0, 1, [[2, 0], [0, 1]])
    signal = SwitchingSignal([graph], [(0, 1.5)], alpha=1.0, beta=2.0)
    lap_eigs = np.linalg.eigvalsh(laplacian(graph).matrix)
    report = contraction_factor(transition_matrix(signal, 0, 1), dims)
    assert report.mu_next == pytest.approx(np.exp(-2.0 * 1.5 * lap_eigs[2]), rel=1e-12)


def test_positive_spanning_tree_on_integral_network(demo_signal):
    network = integral_network(demo_signal, 0.0, 6.0)
    exists, edges = positive_spanning_tree(network)
    assert exists
    assert edges == ((0, 1), (1, 2), (1, 3))


def test_positive_spanning_tree_single_graphs(demo_graphs):
    # none of the demo graphs alone has a PD spanning tree
    for graph in demo_graphs:
        exists, _ = positive_spanning_tree(graph)
        assert not exists


def test_positive_spanning_tree_complete_identity():
    dims = GraphDimensions(n=4, d=2)
    graph = new_graph(dims)
    for i in range(4):
        for j in range(i + 1, 4):
            graph = set_edge(graph, i, j, np.eye(2))
    exists, edges = positive_spanning_tree(graph)
    assert exists
    assert edges == ((0, 1), (0, 2), (0, 3))  # lexicographically first tree


def test_positive_spanning_tree_ignores_psd_edges():
    """A connected graph whose only spanning structure uses PSD edges has no
    positive spanning tree."""
    dims = GraphDimensions(n=3, d=2)
    graph = set_edge(new_graph(dims), 0, 1, np.eye(2))
    graph = set_edge(graph, 1, 2, [[1, 0], [0, 0]])
    exists, edges = positive_spanning_tree(graph)
    assert not exists
    assert edges == ((0, 1),)


def test_periodic_verdict_consensus(demo_signal):
    verdict = periodic_consensus_verdict(demo_signal)
    assert verdict.decision is Decision.CONSENSUS
    match = _cert(verdict, NullSpaceMatch)
    assert match.dimension == 2
    tree = _cert(verdict, PositiveSpanningTree)
    assert tree.edges == ((0, 1), (1, 2), (1, 3))


def test_periodic_verdict_requires_periodic_signal(demo_finite_signal):
    with pytest.raises(InvalidSignalError):
        periodic_consensus_verdict(demo_finite_signal)


def test_periodic_verdict_no_consensus_witness(demo_graphs, dims4x2):
    """Repeating only the line graph never mixes node 4: the verdict is
    NO_CONSENSUS and the witness direction is frozen by every segment."""
    signal = build_periodic_signal(
        [demo_graphs[0]], [(0, 2.0), (0, 2.0), (0, 2.0)],
        period=6.0, alpha=0.5, beta=4.0,
    )
    verdict = periodic_consensus_verdict(signal)
    assert verdict.decision is Decision.NO_CONSENSUS
    witness = _cert(verdict, NullSpaceObstruction).witness
    assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
    # annihilated by the segment Laplacian, orthogonal to agreement
    assert np.max(np.abs(laplacian(demo_graphs[0]).matrix @ witness)) <= 1e-9
    basis = consensus_subspace(dims4x2).basis
    assert np.max(np.abs(basis.T @ witness)) <= 1e-12


def test_periodic_verdict_single_pd_tree_graph():
    dims = GraphDimensions(n=3, d=2)
    graph = set_edge(new_graph(dims), 0, 1, [[2, 0], [0, 1]])
    graph = set_edge(graph, 1, 2, np.eye(2))
    signal = build_periodic_signal(
        [graph], [(0, 1.0), (0, 1.0), (0, 1.0)], period=3.0, alpha=0.5, beta=2.0
    )
    verdict = periodic_consensus_verdict(signal)
    assert verdict.decision is Decision.CONSENSUS
    assert _cert(verdict, PositiveSpanningTree).edges == ((0, 1), (1, 2))


def test_necessary_scan_greedy_windows(demo_signal):
    """Greedy minimal windows over the demo schedule: the first window
    already closes after the first two segments (the line and star graphs
    together pin every disagreement direction), the next after each
    following span of line+star."""
    verdict = necessary_condition_scan(demo_signal, 8)
    assert verdict.decision is Decision.INCONCLUSIVE
    assert verdict.horizon == 8
    exhausted = _cert(verdict, HorizonExhausted)
    assert [(w.start, w.stop) for w in exhausted.windows] == [(0, 2), (2, 5), (5, 8)]
    assert exhausted.windows[0].span == (0.0, 5.0)


def test_necessary_scan_open_suffix(demo_signal, dims4x2):
    """With a horizon ending mid-window the suffix never closes, which
    refutes consensus over that horizon and produces a blocking witness."""
    verdict = necessary_condition_scan(demo_signal, 6)
    assert verdict.decision is Decision.NO_CONSENSUS
    obstruction = _cert(verdict, NullSpaceObstruction)
    assert obstruction.window == (5, 6)
    witness = obstruction.witness
    suffix_sum = segment_laplacian_sum(demo_signal, 5, 6)
    assert np.max(np.abs(suffix_sum @ witness)) <= 1e-9
    basis = consensus_subspace(dims4x2).basis
    assert np.max(np.abs(basis.T @ witness)) <= 1e-12
    assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)


def test_necessary_scan_never_closing(demo_graphs):
    signal = SwitchingSignal(
        [demo_graphs[0]], [(0, 1.0), (0, 1.0), (0, 1.0)], alpha=0.5, beta=4.0
    )
    verdict = necessary_condition_scan(signal, 3)
    assert verdict.decision is Decision.NO_CONSENSUS
    assert _cert(verdict, NullSpaceObstruction).window == (0, 3)
    assert _cert(verdict, HorizonExhausted).windows == ()


def test_necessary_scan_horizon_validation(demo_signal, demo_finite_signal):
    with pytest.raises(IndexOutOfRangeError):
        necessary_condition_scan(demo_signal, 0)
    with pytest.raises(IndexOutOfRangeError):
        necessary_condition_scan(demo_finite_signal, 5)


def test_sufficient_certificate_consensus(demo_signal):
    verdict = sufficient_condition_certificate(demo_signal, 8, 0.99)
    assert verdict.decision is Decision.CONSENSUS
    contraction = _cert(verdict, UniformContraction)
    assert contraction.threshold == 0.99
    mus = [w.mu_next for w in contraction.windows]
    assert mus[0] == pytest.approx(MU_FIRST_WINDOW, abs=1e-9)
    assert mus[1] == pytest.approx(MU_SECOND_WINDOW, abs=1e-9)
    assert mus[2] == pytest.approx(MU_SECOND_WINDOW, abs=1e-9)


def test_sufficient_certificate_open_suffix_is_inconclusive(demo_signal):
    verdict = sufficient_condition_certificate(demo_signal, 9, 0.99)
    assert verdict.decision is Decision.INCONCLUSIVE
    exhausted = _cert(verdict, HorizonExhausted)
    assert [(w.start, w.stop) for w in exhausted.windows] == [(0, 2), (2, 5), (5, 8)]


def test_sufficient_certificate_threshold_too_tight(demo_signal):
    verdict = sufficient_condition_certificate(demo_signal, 8, 0.5)
    assert verdict.decision is Decision.INCONCLUSIVE
    exhausted = _cert(verdict, HorizonExhausted)
    worst = max(w.mu_next for w in exhausted.windows)
    assert worst == pytest.approx(MU_FIRST_WINDOW, abs=1e-9)
    assert worst > 0.5


def test_sufficient_certificate_boundary_threshold():
    """mu <= q is inclusive: certifying with q equal to the measured mu
    still yields consensus."""
    dims = GraphDimensions(n=2, d=2)
    graph = set_edge(new_graph(dims), 0, 1, [[2, 0], [0, 1]])
    signal = SwitchingSignal([graph], [(0, 1.0)], alpha=0.5, beta=2.0)
    mu = contraction_factor(transition_matrix(signal, 0, 1), dims).mu_next
    verdict = sufficient_condition_certificate(signal, 1, mu)
    assert verdict.decision is Decision.CONSENSUS


def test_sufficient_certificate_threshold_validation(demo_signal):
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(BadThresholdError):
            sufficient_condition_certificate(demo_signal, 8, bad)


def test_segment_laplacian_sum_matches_manual(demo_signal):
    total = segment_laplacian_sum(demo_signal, 0, 3)
    expected = (
        demo_signal.segment_laplacian(0)
        + demo_signal.segment_laplacian(1)
        + demo_signal.segment_laplacian(2)
    )
    assert np.array_equal(total, expected)
    with pytest.raises(IndexOrderError):
        segment_laplacian_sum(demo_signal, 3, 3)
