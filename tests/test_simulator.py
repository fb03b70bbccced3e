import numpy as np
import pytest

from matconsensus import (
    DimensionMismatchError,
    GraphDimensions,
    NegativeDurationError,
    SwitchingSignal,
    TimeOutOfRangeError,
    average_consensus_point,
    build_periodic_signal,
    laplacian,
    matrix_exponential_symmetric,
    max_oracle_deviation,
    new_graph,
    rk4_reference,
    set_edge,
    simulate,
)
from conftest import LAP_A, X0


def test_average_consensus_point(dims4x2, demo_initial_state):
    point = average_consensus_point(demo_initial_state, dims4x2)
    assert np.allclose(point.reshape(4, 2)[0], [0.695825, 0.338225], atol=1e-12)
    assert np.allclose(point.reshape(4, 2), point.reshape(4, 2)[0], atol=0)


def test_average_consensus_point_special_cases():
    dims = GraphDimensions(n=2, d=2)
    same = np.array([1.0, 2.0, 1.0, 2.0])
    assert np.array_equal(average_consensus_point(same, dims), same)
    opposite = np.array([3.0, -1.0, -3.0, 1.0])
    assert np.array_equal(average_consensus_point(opposite, dims), np.zeros(4))
    # (n, d)-shaped input is accepted too
    assert np.array_equal(
        average_consensus_point(same.reshape(2, 2), dims), same
    )
    with pytest.raises(DimensionMismatchError):
        average_consensus_point(np.zeros(5), dims)


def test_propagate_segment_basics(dims4x2, demo_initial_state):
    assert np.allclose(
        matrix_exponential_symmetric(LAP_A, 0.0) @ demo_initial_state,
        demo_initial_state,
    )
    # consensus states are equilibria
    point = average_consensus_point(demo_initial_state, dims4x2)
    assert np.allclose(
        matrix_exponential_symmetric(LAP_A, 3.0) @ point, point, atol=1e-12
    )
    # disagreement never grows
    before = demo_initial_state - point
    after = matrix_exponential_symmetric(LAP_A, 2.0) @ demo_initial_state - point
    assert np.linalg.norm(after) <= np.linalg.norm(before)


def test_propagate_segment_matches_rk4(dims4x2, demo_graphs):
    """Exact propagation vs a fine fixed-step reference on one segment."""
    signal = SwitchingSignal([demo_graphs[0]], [(0, 2.0)], alpha=1.0, beta=4.0)
    exact = matrix_exponential_symmetric(LAP_A, 2.0) @ X0
    reference = rk4_reference(signal, X0, 2.0, 1e-4)
    assert np.max(np.abs(exact - reference.final_state)) <= 1e-8


def test_simulate_samples_and_switches(demo_signal, demo_initial_state):
    trajectory = simulate(demo_signal, demo_initial_state, 12.0, 0.7)
    times = trajectory.times.tolist()
    # switch instants are always sampled, even off the 0.7 grid
    for instant in (2.0, 5.0, 6.0, 8.0, 11.0):
        assert instant in times
    assert times[0] == 0.0 and times[-1] == 12.0
    assert np.array_equal(trajectory.states[0], demo_initial_state)
    assert trajectory.states.shape == (len(times), 8)


def test_simulate_converges_to_consensus(demo_signal, demo_initial_state):
    trajectory = simulate(demo_signal, demo_initial_state, 60.0, 0.5)
    deviation = np.abs(trajectory.final_state - trajectory.consensus_point)
    assert np.max(deviation) <= 1e-3
    assert trajectory.lyapunov[-1] <= 1e-5 * trajectory.lyapunov[0]


def test_simulate_from_consensus_stays_put(demo_signal, demo_initial_state, dims4x2):
    point = average_consensus_point(demo_initial_state, dims4x2)
    trajectory = simulate(demo_signal, point, 12.0, 1.0)
    assert np.max(np.abs(trajectory.states - point)) <= 1e-12


def test_simulate_isolated_node_is_frozen(demo_graphs):
    """Node 4 has no edges in the line graph, so a line-only signal leaves
    its state untouched."""
    signal = build_periodic_signal(
        [demo_graphs[0]], [(0, 2.0), (0, 2.0), (0, 2.0)],
        period=6.0, alpha=0.5, beta=4.0,
    )
    trajectory = simulate(signal, X0, 30.0, 1.0)
    drift = trajectory.states[:, 6:8] - X0[6:8]
    assert np.max(np.abs(drift)) <= 1e-12


def test_simulate_validation(demo_signal, demo_finite_signal):
    with pytest.raises(TimeOutOfRangeError):
        simulate(demo_signal, X0, 0.0, 0.5)
    with pytest.raises(TimeOutOfRangeError):
        simulate(demo_finite_signal, X0, 7.0, 0.5)
    with pytest.raises(NegativeDurationError):
        simulate(demo_signal, X0, 6.0, -0.5)
    with pytest.raises(DimensionMismatchError):
        simulate(demo_signal, X0[:6], 6.0, 0.5)


def test_trajectory_invariants(demo_signal, demo_initial_state):
    """The network mean is conserved and the disagreement norm is monotone
    along the trajectory."""
    trajectory = simulate(demo_signal, demo_initial_state, 30.0, 0.25)
    initial_mean = demo_initial_state.reshape(4, 2).mean(axis=0)
    for state in trajectory.states:
        drift = np.abs(state.reshape(4, 2).mean(axis=0) - initial_mean)
        assert np.max(drift) <= 1e-10
    lyapunov = trajectory.lyapunov
    slack = 1e-10 * lyapunov[0]
    assert np.all(np.diff(lyapunov) <= slack)


def test_disagreement_trace(demo_signal, demo_initial_state):
    trajectory = simulate(demo_signal, demo_initial_state, 6.0, 1.0)
    times, lyapunov = trajectory.times, trajectory.lyapunov
    assert times[0] == 0.0
    assert lyapunov[0] == pytest.approx(0.30492403500000004)
    assert len(lyapunov) == len(times)
    assert np.all(lyapunov >= 0.0)


def test_rk4_reference_zero_laplacian():
    dims = GraphDimensions(n=2, d=1)
    signal = SwitchingSignal(
        [new_graph(dims)], [(0, 1.0)], alpha=0.5, beta=2.0
    )
    x0 = np.array([2.5, -1.0])
    trajectory = rk4_reference(signal, x0, 1.0, 0.1)
    assert np.array_equal(trajectory.states, np.tile(x0, (len(trajectory.times), 1)))


def test_rk4_reference_scalar_closed_form():
    """Two scalar nodes with a unit edge: disagreement decays like
    exp(-2t); RK4 at step 1e-3 matches to 1e-9."""
    dims = GraphDimensions(n=2, d=1)
    graph = set_edge(new_graph(dims), 0, 1, [[1.0]])
    signal = SwitchingSignal([graph], [(0, 2.0)], alpha=1.0, beta=4.0)
    x0 = np.array([1.0, 0.0])
    trajectory = rk4_reference(signal, x0, 2.0, 1e-3)
    times = trajectory.times
    expected = np.stack(
        [0.5 + 0.5 * np.exp(-2.0 * times), 0.5 - 0.5 * np.exp(-2.0 * times)], axis=1
    )
    assert np.max(np.abs(trajectory.states - expected)) <= 1e-9


def test_rk4_reference_subdivides_at_switches(demo_signal):
    """Integration nodes never straddle a switch instant, even when the
    step does not divide the dwell."""
    trajectory = rk4_reference(demo_signal, X0, 6.0, 0.4)
    times = trajectory.times.tolist()
    for instant in (2.0, 5.0, 6.0):
        assert any(abs(t - instant) <= 1e-9 for t in times)


def test_max_oracle_deviation_demo(demo_signal, demo_initial_state):
    deviation = max_oracle_deviation(demo_signal, demo_initial_state, 12.0, 1e-3)
    assert deviation <= 1e-6


def test_laplacian_fixture_consistency(demo_graphs):
    # the session fixtures and frozen arrays describe the same graphs
    assert np.array_equal(laplacian(demo_graphs[0]).matrix, LAP_A)
