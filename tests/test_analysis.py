import numpy as np
import pytest
import scipy.linalg

from matconsensus import (
    DEFAULT_TOLERANCES,
    Decision,
    GraphDimensions,
    HorizonExhausted,
    MatrixWeightedGraph,
    ModelError,
    NullSpaceMatch,
    NullSpaceObstruction,
    PositiveSpanningTree,
    SwitchingSignal,
    TransitionMatrix,
    UniformContraction,
    Window,
    analysis,
    consensus_subspace,
    contraction_factor,
    integral_network,
    integral_report,
    laplacian,
    necessary_condition_scan,
    null_space_basis,
    periodic_consensus_verdict,
    positive_spanning_tree,
    set_edge,
    sufficient_condition_certificate,
    transition_matrix,
)
from matconsensus.analysis import _obstruction_witness
from conftest import SEED, random_graph, stiff_demo

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
    with pytest.raises(ModelError, match=r"need start < stop, got \(2, 2\)"):
        transition_matrix(demo_signal, 2, 2)
    with pytest.raises(ModelError, match=r"segment index -1 outside \[0, inf\)"):
        transition_matrix(demo_signal, -1, 2)
    with pytest.raises(ModelError, match=r"segment index 3 outside \[0, 3\)"):
        transition_matrix(demo_finite_signal, 0, 4)


def test_transition_fixes_consensus_and_never_expands(demo_signal, dims4x2):
    phi = transition_matrix(demo_signal, 0, 6).matrix
    basis = consensus_subspace(dims4x2)
    assert np.allclose(phi @ basis, basis, atol=1e-12)
    singular = np.linalg.svd(phi, compute_uv=False)
    assert singular.max() <= 1.0 + 1e-10


def test_contraction_factor_identity(dims4x2):
    report = contraction_factor(TransitionMatrix(0, 1, np.eye(8)), dims4x2)
    assert report.mu_next == pytest.approx(1.0, abs=1e-12)
    assert not report.contracts


def test_contraction_factor_checks_the_matrix_size(dims4x2):
    with pytest.raises(
        ModelError,
        match=r"^expected a 8x8 transition matrix, got shape \(2, 2\)$",
    ):
        contraction_factor(TransitionMatrix(0, 1, np.eye(2)), dims4x2)


def test_contraction_factor_period(demo_signal, dims4x2):
    phi = transition_matrix(demo_signal, 0, 3)
    report = contraction_factor(phi, dims4x2)
    assert report.contracts
    assert report.mu_next == pytest.approx(MU_PERIOD, abs=1e-9)


def test_contraction_factor_spectral_mapping():
    """For a single positive-definite-tree segment, mu is exp(-2 t lambda)
    with lambda the smallest nonzero Laplacian eigenvalue."""
    dims = GraphDimensions(n=2, d=2)
    graph = set_edge(MatrixWeightedGraph(dims), 0, 1, [[2, 0], [0, 1]])
    signal = SwitchingSignal([graph], [(0, 1.5)], alpha=1.0, beta=2.0)
    lap_eigs = np.linalg.eigvalsh(laplacian(graph))
    report = contraction_factor(transition_matrix(signal, 0, 1), dims)
    assert report.mu_next == pytest.approx(np.exp(-2.0 * 1.5 * lap_eigs[2]), rel=1e-12)


def test_positive_spanning_tree_on_integral_network(demo_signal):
    averaged, _ = integral_network(demo_signal, 0.0, 6.0)
    exists, edges = positive_spanning_tree(averaged)
    assert exists
    assert edges == ((0, 1), (1, 2), (1, 3))


def test_positive_spanning_tree_single_graphs(demo_graphs):
    # none of the demo graphs alone has a PD spanning tree
    for graph in demo_graphs:
        exists, _ = positive_spanning_tree(graph)
        assert not exists


def test_positive_spanning_tree_complete_identity():
    dims = GraphDimensions(n=4, d=2)
    graph = MatrixWeightedGraph(dims)
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
    graph = set_edge(MatrixWeightedGraph(dims), 0, 1, np.eye(2))
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
    with pytest.raises(ModelError, match="requires a periodic signal"):
        periodic_consensus_verdict(demo_finite_signal)


def test_periodic_verdict_refuses_a_report_over_another_span(demo_signal):
    span = (0.0, 2.0)
    report = integral_report(span, integral_network(demo_signal, *span))
    with pytest.raises(
        ModelError,
        match=r"^the integral report spans \[0\.0, 2\.0\), not one period \[0\.0, 6\.0\)$",
    ):
        periodic_consensus_verdict(demo_signal, integral=report)


def test_periodic_verdict_no_consensus_witness(demo_graphs, dims4x2):
    """Repeating only the line graph never mixes node 4: the verdict is
    NO_CONSENSUS and the witness direction is frozen by every segment."""
    signal = SwitchingSignal(
        [demo_graphs[0]], [(0, 2.0), (0, 2.0), (0, 2.0)],
        alpha=0.5, beta=4.0, periodic=True,
    )
    verdict = periodic_consensus_verdict(signal)
    assert verdict.decision is Decision.NO_CONSENSUS
    witness = _cert(verdict, NullSpaceObstruction).witness
    assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
    # annihilated by the segment Laplacian, orthogonal to agreement
    assert np.max(np.abs(laplacian(demo_graphs[0]) @ witness)) <= 1e-9
    basis = consensus_subspace(dims4x2)
    assert np.max(np.abs(basis.T @ witness)) <= 1e-12


    # A weak 3e-9 edge is lost in the period average but not in the plain
    # sum of the segment Laplacians; the witness must come from the null
    # space that decided the verdict, not be the agreement vector's rounding
    # residual blown up to unit length.
    dims = GraphDimensions(n=3, d=1)
    strong = set_edge(MatrixWeightedGraph(dims), 0, 1, [[1.0]])
    weak = set_edge(MatrixWeightedGraph(dims), 1, 2, [[3e-9]])
    signal = SwitchingSignal(
        [strong, weak], [(0, 4.0), (1, 0.5), (0, 4.0)],
        alpha=0.5, beta=4.0, periodic=True,
    )
    verdict = periodic_consensus_verdict(signal)
    assert verdict.decision is Decision.NO_CONSENSUS
    witness = _cert(verdict, NullSpaceObstruction).witness
    assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(consensus_subspace(dims).T @ witness)) <= 1e-12


def test_periodic_verdict_single_pd_tree_graph():
    dims = GraphDimensions(n=3, d=2)
    graph = set_edge(MatrixWeightedGraph(dims), 0, 1, [[2, 0], [0, 1]])
    graph = set_edge(graph, 1, 2, np.eye(2))
    signal = SwitchingSignal(
        [graph], [(0, 1.0), (0, 1.0), (0, 1.0)], alpha=0.5, beta=2.0, periodic=True
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
    assert np.max(np.abs(demo_signal.segment_laplacian(5) @ witness)) <= 1e-9
    basis = consensus_subspace(dims4x2)
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


def test_scan_of_a_sum_beyond_the_float_range_raises_the_kernels_error():
    """A 1e308 edge puts the first window's Gershgorin row sum beyond the
    float range.  The bounds step aside without numpy's overflow warning,
    which the test run would raise as an error, and the exact kernel refuses
    the sum's eigenvalue of 2e308."""
    dims = GraphDimensions(n=2, d=1)
    huge = set_edge(MatrixWeightedGraph(dims), 0, 1, [[1e308]])
    segments = [(0, 1.0), (1, 1.0), (1, 1.0)]
    signal = SwitchingSignal([huge, MatrixWeightedGraph(dims)], segments, 0.5, 2.0)
    with pytest.raises(ModelError, match="^matrix has an eigenvalue beyond the float range$"):
        necessary_condition_scan(signal, 2)


def test_necessary_scan_horizon_validation(demo_signal, demo_finite_signal):
    with pytest.raises(ModelError, match="horizon must be at least 1, got 0"):
        necessary_condition_scan(demo_signal, 0)
    with pytest.raises(ModelError, match="horizon 5 exceeds segment count 3"):
        necessary_condition_scan(demo_finite_signal, 5)


def test_sufficient_certificate_consensus(demo_signal):
    verdict = sufficient_condition_certificate(
        demo_signal, necessary_condition_scan(demo_signal, 8), 0.99
    )
    assert verdict.decision is Decision.CONSENSUS
    contraction = _cert(verdict, UniformContraction)
    assert contraction.threshold == 0.99
    mus = [w.mu_next for w in contraction.windows]
    assert mus[0] == pytest.approx(MU_FIRST_WINDOW, abs=1e-9)
    assert mus[1] == pytest.approx(MU_SECOND_WINDOW, abs=1e-9)
    assert mus[2] == pytest.approx(MU_SECOND_WINDOW, abs=1e-9)


def test_sufficient_certificate_open_suffix_is_inconclusive(demo_signal):
    verdict = sufficient_condition_certificate(
        demo_signal, necessary_condition_scan(demo_signal, 9), 0.99
    )
    assert verdict.decision is Decision.INCONCLUSIVE
    exhausted = _cert(verdict, HorizonExhausted)
    assert [(w.start, w.stop) for w in exhausted.windows] == [(0, 2), (2, 5), (5, 8)]


def test_sufficient_certificate_threshold_too_tight(demo_signal):
    verdict = sufficient_condition_certificate(
        demo_signal, necessary_condition_scan(demo_signal, 8), 0.5
    )
    assert verdict.decision is Decision.INCONCLUSIVE
    exhausted = _cert(verdict, HorizonExhausted)
    worst = max(w.mu_next for w in exhausted.windows)
    assert worst == pytest.approx(MU_FIRST_WINDOW, abs=1e-9)
    assert worst > 0.5


def test_sufficient_certificate_boundary_threshold():
    """mu <= q is inclusive: certifying with q equal to the measured mu
    still yields consensus."""
    dims = GraphDimensions(n=2, d=2)
    graph = set_edge(MatrixWeightedGraph(dims), 0, 1, [[2, 0], [0, 1]])
    signal = SwitchingSignal([graph], [(0, 1.0)], alpha=0.5, beta=2.0)
    mu = contraction_factor(transition_matrix(signal, 0, 1), dims).mu_next
    verdict = sufficient_condition_certificate(
        signal, necessary_condition_scan(signal, 1), mu
    )
    assert verdict.decision is Decision.CONSENSUS


def test_sufficient_certificate_threshold_validation(demo_signal):
    scan = necessary_condition_scan(demo_signal, 8)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ModelError, match=r"threshold must lie strictly inside \(0, 1\)"):
            sufficient_condition_certificate(demo_signal, scan, bad)


def test_sufficient_certificate_measures_the_scan_windows(demo_signal):
    """The certificate strengthens the scan over the windows it closed: same
    start, stop and span, with each contraction factor filled in."""
    scan = necessary_condition_scan(demo_signal, 8)
    verdict = sufficient_condition_certificate(demo_signal, scan, 0.99)
    scanned = _cert(scan, HorizonExhausted).windows
    measured = _cert(verdict, UniformContraction).windows
    assert [(w.start, w.stop, w.span) for w in measured] == [
        (w.start, w.stop, w.span) for w in scanned
    ]
    assert all(w.mu_next is None for w in scanned)
    assert all(w.mu_next is not None for w in measured)


def test_sufficient_certificate_requires_a_scan_verdict(demo_signal):
    """A verdict without the scan's windows, or no verdict at all, is an
    input violation, refused with ``ModelError``."""
    for scan in (periodic_consensus_verdict(demo_signal), None):
        with pytest.raises(
            ModelError, match="^scan must be a verdict of necessary_condition_scan$"
        ):
            sufficient_condition_certificate(demo_signal, scan, 0.99)


def _scan_result(run):
    """Windows with their spans, the obstruction window and the witness
    bytes of a scan, or the error it raised."""
    try:
        windows, obstruction = run()
    except Exception as error:  # the same error must come out either way
        return type(error), str(error)
    tiles = [(w.start, w.stop, w.span) for w in windows]
    if obstruction is None:
        return tiles, None, None
    return tiles, obstruction.window, obstruction.witness.tobytes()


def _bounded_and_exact(signal, horizon, tolerances=DEFAULT_TOLERANCES):
    def bounded():
        verdict = necessary_condition_scan(signal, horizon, tolerances)
        exhausted = _cert(verdict, HorizonExhausted)
        found = [c for c in verdict.certificates if isinstance(c, NullSpaceObstruction)]
        return exhausted.windows, (found[0] if found else None)

    exact = lambda: _exact_greedy_windows(signal, horizon, tolerances)
    return _scan_result(bounded), _scan_result(exact)


def _scaled_edge(graphs, rng, factor):
    """The graphs with one edge's weight, drawn at random, times ``factor``."""
    graphs = list(graphs)
    candidates = [g for g, graph in enumerate(graphs) if graph.edges]
    if not candidates:
        return graphs
    g = candidates[int(rng.integers(len(candidates)))]
    pairs = sorted(graphs[g].edges)
    i, j = pairs[int(rng.integers(len(pairs)))]
    graphs[g] = set_edge(graphs[g], i, j, graphs[g].edges[(i, j)].entries * factor)
    return graphs


def _undecided_signals(rng, count):
    """Random finite and periodic signals, knife-edge draws included (no
    ``_decisively_classified`` filter), each also with one edge scaled by
    ``10**k``."""
    for index in range(count):
        dims = GraphDimensions(n=int(rng.integers(2, 7)), d=int(rng.integers(1, 4)))
        graphs = [random_graph(rng, dims) for _ in range(int(rng.integers(1, 4)))]
        periodic = index % 2 == 1
        segments = [
            (int(rng.integers(0, len(graphs))), float(rng.uniform(0.5, 2.0)))
            for _ in range(int(rng.integers(3 if periodic else 1, 6)))
        ]
        factor = 10.0 ** int(rng.integers(0, 15))
        for pool in (graphs, _scaled_edge(graphs, rng, factor)):
            yield SwitchingSignal(pool, segments, 0.5, 2.0, periodic=periodic)


@pytest.mark.parametrize(
    "overrides, count",
    [({}, 300), ({"psd": 0.0}, 60), ({"null_space": 0.0}, 60)],
    ids=["default", "psd-0", "null-space-0"],
)
def test_bounded_scan_matches_the_exact_scan(overrides, count):
    """The certified bounds only skip kernel calls: windows, spans, the
    obstruction and its witness bytes (or the error raised) equal those of
    the scan that runs the exact kernel at every stop, on random draws with
    knife edges and rescaled edges, at every horizon.  Tolerances at
    rounding level leave every test to the kernel."""
    tolerances = DEFAULT_TOLERANCES.replace(**overrides)
    rng = np.random.default_rng(SEED + 7)
    scans = 0
    for signal in _undecided_signals(rng, count):
        horizons = 2 * signal.partitions + 1 if signal.periodic else signal.partitions
        for horizon in range(1, horizons + 1):
            bounded, exact = _bounded_and_exact(signal, horizon, tolerances)
            assert bounded == exact, (signal.segments, horizon)
            scans += 1
    assert scans > 10 * count


@pytest.mark.parametrize("power", range(0, 21))
def test_bounded_scan_matches_the_exact_scan_on_a_stiff_edge(demo_graphs, power):
    """The demo with G2's edge (2,4) at ``diag(1, 2) * 10**power`` walks the
    knife edge from 1e6 on; the bounds hand those tests to the kernel."""
    signal = stiff_demo(demo_graphs, 10.0**power)
    for horizon in range(1, 31):
        bounded, exact = _bounded_and_exact(signal, horizon)
        assert bounded == exact, horizon


def test_bounded_scan_keeps_the_kernels_psd_check():
    """Each weight is PSD within the definiteness tolerance, but their
    negative eigenvalues add up along one direction: the kernel rejects the
    sum of the first two segments as not PSD, and the bounds must not
    certify that test open."""
    dims = GraphDimensions(n=2, d=3)
    dip = -0.9e-9
    graphs = [
        set_edge(MatrixWeightedGraph(dims), 0, 1, np.diag([1.0, 0.0, dip])),
        set_edge(MatrixWeightedGraph(dims), 0, 1, np.diag([0.0, 1.0, dip])),
    ]
    signal = SwitchingSignal(graphs, [(0, 1.0), (1, 1.0), (0, 1.0)], 0.5, 2.0)
    bounded, exact = _bounded_and_exact(signal, 3)
    assert bounded == exact
    assert bounded[0] is ModelError
    assert bounded[1].startswith("matrix has negative eigenvalue")


def test_window_bounds_step_aside_when_the_agreement_is_not_annihilated():
    """``decide`` certifies a window closed only while ``A Q`` is within
    ``eps`` for the agreement basis ``Q``: ``A = L + 1e-6 I`` has the
    right number of small eigenvalues and passes the shifted Cholesky test,
    but its null space is not the agreement subspace, so the bounds step
    aside (without that premise they called the window closed)."""
    dims = GraphDimensions(n=3, d=2)
    path = set_edge(MatrixWeightedGraph(dims), 0, 1, np.eye(2))
    path = set_edge(path, 1, 2, np.eye(2))
    signal = SwitchingSignal([path], [(0, 1.0)] * 3, 0.5, 2.0, periodic=True)
    accumulated = laplacian(path) + 1e-6 * np.eye(dims.stacked)
    bounds = analysis._WindowBounds(signal, 0, DEFAULT_TOLERANCES)
    assert bounds.decide(0, accumulated) is None
    assert not null_space_basis(accumulated, dims).equals_consensus


def test_scan_runs_the_kernel_once_when_every_bound_decides(
    demo_graphs, demo_signal, monkeypatch
):
    calls = []
    kernel = analysis.null_space_basis

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(analysis, "null_space_basis", counting)
    necessary_condition_scan(demo_signal, 8)
    assert len(calls) == 1
    # at 1e6 an eigenvalue sits inside the band: the kernel decides it
    calls.clear()
    necessary_condition_scan(stiff_demo(demo_graphs, 1e6), 8)
    assert len(calls) > 1


def _exact_greedy_windows(signal, horizon, tolerances):
    """The scan that runs the exact kernel at every stop, kept verbatim as
    the reference for the bounded scan."""
    windows = []
    start = 0
    while start < horizon:
        accumulated = np.zeros((signal.dims.stacked, signal.dims.stacked))
        for stop in range(start + 1, horizon + 1):
            accumulated = accumulated + signal.segment_laplacian(stop - 1)
            report = null_space_basis(accumulated, signal.dims, tolerances)
            if report.equals_consensus:
                break
        else:
            witness = _obstruction_witness(report, signal.dims)
            obstruction = NullSpaceObstruction(window=(start, horizon), witness=witness)
            return tuple(windows), obstruction
        span = (signal.switch_time(start), signal.switch_time(stop))
        windows.append(Window(start=start, stop=stop, span=span))
        start = stop
    return tuple(windows), None
