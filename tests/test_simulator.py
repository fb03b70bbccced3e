import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from matconsensus import (
    GraphDimensions,
    MatrixWeightedGraph,
    ModelError,
    SwitchingSignal,
    average_consensus_point,
    laplacian,
    load_scenario,
    max_oracle_deviation,
    rk4_reference,
    set_edge,
    simulate,
)
from matconsensus import cli, simulator
from matconsensus.simulator import (
    Trajectory,
    _check_grid,
    _check_stable_step,
    _stacked_state,
)
from matconsensus.switching import same_instant
from conftest import DEMO_SEGMENTS, LAP_A, SEED, X0, random_graph

THREE_SHORT = [(0, 0.3), (1, 0.3), (2, 0.3)]
SRC = Path(__file__).resolve().parent.parent / "src"


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
    with pytest.raises(ModelError, match=r"state must have shape \(4,\) or \(2, 2\)"):
        average_consensus_point(np.zeros(5), dims)


def test_propagate_segment_basics(dims4x2, demo_initial_state):
    assert np.allclose(
        scipy.linalg.expm(-LAP_A * 0.0) @ demo_initial_state,
        demo_initial_state,
    )
    # consensus states are equilibria
    point = average_consensus_point(demo_initial_state, dims4x2)
    assert np.allclose(
        scipy.linalg.expm(-LAP_A * 3.0) @ point, point, atol=1e-12
    )
    # disagreement never grows
    before = demo_initial_state - point
    after = scipy.linalg.expm(-LAP_A * 2.0) @ demo_initial_state - point
    assert np.linalg.norm(after) <= np.linalg.norm(before)


def test_propagate_segment_matches_rk4(dims4x2, demo_graphs):
    """Exact propagation vs a fine fixed-step reference on one segment."""
    signal = SwitchingSignal([demo_graphs[0]], [(0, 2.0)], alpha=1.0, beta=4.0)
    exact = scipy.linalg.expm(-LAP_A * 2.0) @ X0
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
    signal = SwitchingSignal(
        [demo_graphs[0]], [(0, 2.0), (0, 2.0), (0, 2.0)],
        alpha=0.5, beta=4.0, periodic=True,
    )
    trajectory = simulate(signal, X0, 30.0, 1.0)
    drift = trajectory.states[:, 6:8] - X0[6:8]
    assert np.max(np.abs(drift)) <= 1e-12


def test_simulate_validation(demo_signal, demo_finite_signal):
    with pytest.raises(ModelError, match="t_end must be positive and finite, got 0.0"):
        simulate(demo_signal, X0, 0.0, 0.5)
    with pytest.raises(ModelError, match="t_end 7.0 exceeds signal duration 6.0"):
        simulate(demo_finite_signal, X0, 7.0, 0.5)
    with pytest.raises(ModelError, match="sample_dt must be positive, got -0.5"):
        simulate(demo_signal, X0, 6.0, -0.5)
    with pytest.raises(ModelError, match=r"state must have shape \(8,\) or \(4, 2\)"):
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
        [MatrixWeightedGraph(dims)], [(0, 1.0)], alpha=0.5, beta=2.0
    )
    x0 = np.array([2.5, -1.0])
    trajectory = rk4_reference(signal, x0, 1.0, 0.1)
    assert np.array_equal(trajectory.states, np.tile(x0, (len(trajectory.times), 1)))


def test_rk4_reference_scalar_closed_form():
    """Two scalar nodes with a unit edge: disagreement decays like
    exp(-2t); RK4 at step 1e-3 matches to 1e-9."""
    dims = GraphDimensions(n=2, d=1)
    graph = set_edge(MatrixWeightedGraph(dims), 0, 1, [[1.0]])
    signal = SwitchingSignal([graph], [(0, 2.0)], alpha=1.0, beta=4.0)
    x0 = np.array([1.0, 0.0])
    trajectory = rk4_reference(signal, x0, 2.0, 1e-3)
    times = trajectory.times
    expected = np.stack(
        [0.5 + 0.5 * np.exp(-2.0 * times), 0.5 - 0.5 * np.exp(-2.0 * times)], axis=1
    )
    assert np.max(np.abs(trajectory.states - expected)) <= 1e-9


def test_rk4_reference_subdivides_at_switches(demo_graphs):
    """Every switch instant in ``(0, t_end]``, and ``t_end``, is exactly an
    integration node, so no step straddles a switch: on the demo, where the
    step 0.4 does not divide the dwells, and with dwells of 0.3 at step 0.1,
    where ``0.3 / 0.1`` is within rounding of 3 steps (3 * 0.1 is
    0.30000000000000004, a few ulps past the switch)."""
    t_end = 6.0
    for segments, alpha, step in (
        (DEMO_SEGMENTS, 0.5, 0.4),
        ([(0, 0.3), (1, 0.3), (2, 1.0)], 0.05, 0.1),
    ):
        signal = SwitchingSignal(demo_graphs, segments, alpha, 4.0, periodic=True)
        times = rk4_reference(signal, X0, t_end, step).times.tolist()
        instants = [float(t_k) for _, t_k, _ in signal.segments_from(0, t_end)]
        assert set(instants[1:] + [t_end]) <= set(times), segments
        assert times[-1] == t_end
        assert all(a < b for a, b in zip(times, times[1:]))


def test_rk4_reference_refuses_an_enormous_horizon_at_once(scenario_path):
    """1e13 nodes up to t_end 1e12 are bounded, and refused, before any of
    the demo's 1.7e11 segments is walked (walking them first never
    returned).  A subprocess with a timeout fails instead of hanging."""
    script = (
        "import sys\n"
        "from matconsensus import ModelError, load_scenario, rk4_reference\n"
        "scenario = load_scenario(sys.argv[1])\n"
        "try:\n"
        "    rk4_reference(scenario.signal, scenario.initial_state, 1e12, 0.1)\n"
        "except ModelError as error:\n"
        "    print(error)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(scenario_path)],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert "more reference states than fit in memory" in result.stdout


def test_rk4_reference_from_a_segment_outside_the_run_is_refused(
    demo_graphs, demo_signal
):
    """``first`` must name a segment of the signal that starts before
    ``t_end``; anything else is a ``ModelError`` before any step."""
    finite = SwitchingSignal(demo_graphs, DEMO_SEGMENTS, 0.5, 4.0)
    for signal, first, t_end, message in (
        (demo_signal, -1, 6.0, "segment index -1 outside"),
        (finite, 3, 6.0, "segment index 3 outside"),
        (demo_signal, 3, 6.0, "segment 3 does not start before t_end 6.0"),
        (demo_signal, 5, 6.0, "segment 5 does not start before t_end 6.0"),
    ):
        with pytest.raises(ModelError, match=message):
            rk4_reference(signal, X0, t_end, 1e-3, first=first)
    tail = rk4_reference(demo_signal, X0, 6.0, 1e-3, first=2)
    assert tail.times[0] == 5.0 and tail.times[-1] == 6.0


def test_max_oracle_deviation_demo(demo_signal, demo_initial_state):
    deviation = max_oracle_deviation(demo_signal, demo_initial_state, 12.0, 1e-3)
    assert deviation <= 1e-6


def test_an_infinite_oracle_step_is_taken_as_rk4_reference_takes_it(demo_signal):
    """An infinite step lands once on each segment's end, in the oracle as
    in ``rk4_reference``: the demo refuses it as unstable with a
    ``ModelError``, not an ``OverflowError``, and a signal whose Laplacian
    is zero has no gap."""
    for run in (rk4_reference, max_oracle_deviation):
        with pytest.raises(ModelError, match=r"^RK4 step 1\.0 is unstable on segment 0"):
            run(demo_signal, X0, 1.0, math.inf)
    dims = GraphDimensions(n=2, d=1)
    still = SwitchingSignal(
        [MatrixWeightedGraph(dims)], [(0, 1.0)] * 3, alpha=0.5, beta=2.0, periodic=True
    )
    x0 = np.array([2.5, -1.0])
    nodes = rk4_reference(still, x0, 4.5, math.inf).times.tolist()
    assert nodes == [0.0, 1.0, 2.0, 3.0, 4.0, 4.5]
    assert max_oracle_deviation(still, x0, 4.5, math.inf) == 0.0


def test_laplacian_fixture_consistency(demo_graphs):
    # the session fixtures and frozen arrays describe the same graphs
    assert np.array_equal(laplacian(demo_graphs[0]), LAP_A)


def test_t_end_within_rounding_of_a_finite_end(demo_graphs):
    """Three 0.3 dwells end at 0.8999999999999999; t_end 0.9 is that end."""
    signal = SwitchingSignal(demo_graphs, THREE_SHORT, alpha=0.1, beta=1.0)
    assert signal.total_duration == 0.8999999999999999
    trajectory = simulate(signal, X0, 0.9, 0.3)
    assert trajectory.times.tolist() == [0.0, 0.3, 0.6, 0.9]
    reference = rk4_reference(signal, X0, 0.9, 1e-3)
    assert reference.final_time == signal.total_duration
    assert np.max(np.abs(reference.final_state - trajectory.final_state)) <= 1e-9
    assert max_oracle_deviation(signal, X0, 0.9, 1e-3) <= 1e-6
    with pytest.raises(ModelError, match="t_end 0.91 exceeds"):
        simulate(signal, X0, 0.91, 0.3)


def test_sample_ticks_merge_into_switch_instants_and_t_end(demo_graphs, demo_signal):
    periodic = SwitchingSignal(demo_graphs, THREE_SHORT, 0.1, 1.0, periodic=True)
    times = simulate(periodic, X0, 0.9, 0.1).times.tolist()
    # 3 * 0.1 and 6 * 0.1 merge into the switch instants 0.3 and 0.6, and
    # 9 * 0.1 into t_end; 7 * 0.1 has no instant to merge into
    assert times == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7000000000000001, 0.8, 0.9]
    # 3 * 0.3 = 0.8999999999999999 merges into t_end 0.9
    assert simulate(demo_signal, X0, 0.9, 0.3).times.tolist() == [0.0, 0.3, 0.6, 0.9]
    # the initial state is always sampled
    assert simulate(demo_signal, X0, 1e-13, 0.5).times.tolist() == [0.0, 1e-13]


def test_unbounded_t_end_is_rejected(demo_signal):
    for t_end in (math.inf, math.nan):
        for run in (simulate, rk4_reference, max_oracle_deviation):
            with pytest.raises(ModelError, match="t_end must be positive and finite"):
                run(demo_signal, X0, t_end, 0.5)


@pytest.mark.parametrize(
    "run, extra",
    [
        ({}, ["--sample-dt", "5e-324"]),
        ({"sample_dt": 5e-324}, []),
        ({}, ["--oracle", "5e-324"]),
    ],
    ids=["sample-dt-option", "run-sample-dt", "oracle-step"],
)
def test_uncountable_step_is_a_model_error(scenario_path, tmp_path, capsys, run, extra):
    """A sample grid or RK4 step so fine that the step count overflows is
    rejected on entry with exit 2, not an uncaught ``OverflowError``."""
    data = json.loads(scenario_path.read_text())
    data["run"].update(run)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    argv = ["simulate", str(path), "--t-end", "6", "--out", str(tmp_path / "t.csv")]
    assert cli.main(argv + extra) == 2
    err = capsys.readouterr().err
    assert "too fine to count up to t_end 6.0" in err
    assert "Traceback" not in err


def test_trajectory_leaving_the_float_range_is_a_model_error(dims4x2, demo_signal):
    """A 1e308 weight next to O(1) ones: the Laplacian's small eigenvalues
    are rounding noise, and exact propagation turns NaN.  A finite initial
    state of 1e200 has a disagreement V beyond the float range."""
    graph = set_edge(MatrixWeightedGraph(dims4x2), 0, 1, [[1.0, 1.0], [1.0, 2.0]])
    graph = set_edge(graph, 1, 2, [[1e308, 1.0], [1.0, 1.0]])
    wide = SwitchingSignal([graph], [(0, 2.0)] * 3, 0.5, 4.0, periodic=True)
    huge = X0.copy()
    huge[3] = 1e200
    for signal, x0 in ((wide, X0), (demo_signal, huge)):
        with pytest.raises(ModelError, match="V left the float range"):
            with np.errstate(all="ignore"):
                simulate(signal, x0, 6.0, 0.5)


def test_nan_oracle_deviation_is_a_divergence(scenario_path, tmp_path, capsys, monkeypatch):
    """A NaN deviation fails the cross-check (exit 3) instead of passing as
    not greater than the bound."""
    monkeypatch.setattr(cli, "max_oracle_deviation", lambda *args: math.nan)
    argv = ["simulate", str(scenario_path), "--t-end", "6", "--oracle"]
    assert cli.main(argv + ["--out", str(tmp_path / "t.csv")]) == 3
    assert "deviates by nan" in capsys.readouterr().err


def test_non_finite_state_is_rejected(demo_signal, dims4x2):
    for bad in (math.nan, math.inf, -math.inf):
        x0 = X0.copy()
        x0[3] = bad
        calls = (
            lambda: simulate(demo_signal, x0, 2.0, 0.5),
            lambda: rk4_reference(demo_signal, x0, 2.0, 0.5),
            lambda: max_oracle_deviation(demo_signal, x0, 2.0, 0.5),
            lambda: average_consensus_point(x0, dims4x2),
        )
        for call in calls:
            with pytest.raises(ModelError, match="non-finite entries") as info:
                call()
            assert type(info.value) is ModelError


@pytest.mark.parametrize(
    "weight, tolerances, code, tolerance",
    [
        (None, None, 0, None),
        ([1e20, 0, 0, 2], None, 2, "mean_drift"),
        ([1e12, 0, 0, 2], None, 2, "mean_drift"),
        ([1e6, 0, 0, 2e6], None, 2, "mean_drift"),
        ([1e6, 0, 0, 2e6], {"mean_drift": 1e-8}, 0, None),
        ([1e20, 0, 0, 2], {"mean_drift": 1e300}, 2, "monotonicity"),
    ],
    ids=["clean", "1e20", "1e12", "1e6", "1e6-looser-drift", "1e20-rise"],
)
def test_trajectory_invariants_are_checked(
    scenario_path, tmp_path, capsys, weight, tolerances, code, tolerance
):
    """Scaling the demo's G2 edge (2,4) spreads one Laplacian's spectrum;
    exact propagation then loses the network mean and lets ``V`` rise.  The
    mean drift and the rise of ``V`` are checked against their tolerances
    (exit 2) instead of being written out with exit 0."""
    data = json.loads(scenario_path.read_text())
    if weight is not None:
        data["graphs"]["G2"][0]["weight"] = weight
    if tolerances is not None:
        data["tolerances"] = tolerances
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    argv = ["simulate", str(path), "--t-end", "12", "--out", str(tmp_path / "t.csv")]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if tolerance is not None:
        # the tolerance, the sample time as a plain float, the measured value
        assert re.search(
            rf"error: {tolerance}: .* by \d\.\d{{3}}e[+-]\d+ \(relative\) "
            r"at t=\d+\.\d+, beyond the allowed",
            err,
        ), err


def test_trajectory_starting_at_consensus_passes_the_invariant_checks(
    demo_signal, demo_initial_state, dims4x2
):
    """``V(0)`` is zero there, so any rounding of ``V`` is a rise relative to
    it; the check measures rises against the squared mean scale instead."""
    point = average_consensus_point(demo_initial_state, dims4x2)
    for shift in (0.0, 1e6):
        trajectory = simulate(demo_signal, point + shift, 60.0, 0.5)
        assert trajectory.lyapunov[0] == 0.0
        assert np.max(np.diff(trajectory.lyapunov)) > 0.0  # rounding rises


@pytest.mark.parametrize(
    "step, tolerances, code",
    [
        ([], None, 2),
        (["7e-4"], None, 2),
        (["6e-4"], None, 3),
        (["6e-4"], {"oracle_deviation": 0.2}, 0),
    ],
    ids=["default-step", "just-unstable", "stable-inaccurate", "stable"],
)
def test_unstable_oracle_step_is_a_model_error(
    scenario_path, tmp_path, capsys, step, tolerances, code
):
    """G2's edge (2,4) at ``diag(1e3, 2e3)`` gives its Laplacian
    ``lambda_max = 4000``, so RK4 is stable up to a step of 2.785 / 4000 =
    6.96e-4.  A longer step is rejected before it is taken (exit 2, naming
    the step, the segment and the largest stable step) instead of
    overflowing to a NaN deviation; a stable one runs, and its deviation is
    judged against ``oracle_deviation`` as usual."""
    data = json.loads(scenario_path.read_text())
    data["graphs"]["G2"][0]["weight"] = [1e3, 0, 0, 2e3]
    if tolerances is not None:
        data["tolerances"] = tolerances
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "t.csv"
    argv = ["simulate", str(path), "--t-end", "6", "--sample-dt", "0.7", "--oracle"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the test
        assert cli.main(argv + step + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        used = float(step[0]) if step else 1e-3
        assert f"RK4 step {used!r} is unstable on segment 1" in err
        assert "largest stable step there is 6.963e-04" in err
        assert not out.exists()
    else:
        assert "nan" not in err
        assert out.exists()


# -- the oracle before it streamed, kept verbatim (only renamed) as the
# bit-level reference: a list of RK4 states, a full exact-state array, and
# the eigensystem and projection fetched again for every sample --


def _reference_states_at(signal, x0, times):
    states = np.empty((len(times), x0.shape[0]))
    current = x0.copy()
    i = 0
    for k, t_k, t_next in signal.segments_from(0, times[-1]):
        seg_start, seg_end = float(t_k), float(t_next)
        while i < len(times) and times[i] < seg_end:
            delta = times[i] - seg_start
            if delta == 0.0:
                states[i] = current
            else:
                values, vectors = signal.segment_eigensystem(k)
                states[i] = vectors @ (np.exp(-values * delta) * (vectors.T @ current))
            i += 1
        if i < len(times):
            current = signal.segment_exponential(k) @ current
    states[i:] = current
    return states


def _reference_rk4_step(lap, state, h):
    k1 = -(lap @ state)
    k2 = -(lap @ (state + 0.5 * h * k1))
    k3 = -(lap @ (state + 0.5 * h * k2))
    k4 = -(lap @ (state + h * k3))
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_rk4(signal, x0, t_end, step):
    _check_grid(signal, t_end, step, "step")
    state = _stacked_state(x0, signal.dims)

    times = [0.0]
    states = [state]
    seg_start = 0.0
    for k, _, t_next in signal.segments_from(0, t_end):
        seg_end = min(float(t_next), t_end)
        span = seg_end - seg_start
        lap = signal.segment_laplacian(k)
        _check_stable_step(signal, k, min(step, span))
        full = int(math.floor(span / step + 1e-12))
        current = states[-1]
        for i in range(full):
            current = _reference_rk4_step(lap, current, step)
            times.append(seg_start + (i + 1) * step)
            states.append(current)
        remainder = seg_end - times[-1]
        if remainder > 1e-12 * max(1.0, span):
            current = _reference_rk4_step(lap, current, remainder)
            times.append(seg_end)
            states.append(current)
        seg_start = seg_end

    return Trajectory(
        dims=signal.dims,
        times=np.array(times),
        states=np.array(states),
        consensus_point=average_consensus_point(state, signal.dims),
    )


def _reference_deviation(signal, x0, t_end, step):
    reference = _reference_rk4(signal, x0, t_end, step)
    state = _stacked_state(x0, signal.dims)
    exact = _reference_states_at(signal, state, reference.times)
    return float(np.max(np.abs(reference.states - exact)))


def _outcome(call):
    """The call's result, or the type and message of the error it raised."""
    try:
        return call()
    except ModelError as error:
        return type(error), str(error)


def _oracle_cases(rng, count):
    """Random finite and periodic signals with a ``(t_end, step)`` list
    each: ``t_end`` on a switch, mid-segment and (finite) at the end, with
    steps that divide the dwells or steps that do not, some beyond RK4's
    stability limit."""
    for index in range(count):
        dims = GraphDimensions(n=int(rng.integers(2, 6)), d=int(rng.integers(1, 4)))
        graphs = [random_graph(rng, dims) for _ in range(int(rng.integers(1, 4)))]
        periodic = index % 2 == 1
        dividing = index % 4 < 2
        # dwells of whole eighths are divided exactly by the steps below
        dwells = (
            rng.integers(1, 9, size=int(rng.integers(3 if periodic else 1, 5))) / 8.0
            if dividing
            else rng.uniform(0.1, 1.5, size=int(rng.integers(3 if periodic else 1, 5)))
        )
        segments = [(int(rng.integers(0, len(graphs))), float(w)) for w in dwells]
        signal = SwitchingSignal(graphs, segments, 0.05, 2.0, periodic=periodic)
        horizon = 2 * signal.period if periodic else signal.period
        k = int(rng.integers(1, 2 * len(segments) if periodic else len(segments) + 1))
        ends = [signal.switch_time(k), float(rng.uniform(0.05, horizon))]
        if not periodic:
            ends.append(signal.total_duration)
            ends.append(float(sum(dwells)))  # the end again, summed in float
        steps = (
            [1 / 32, 1 / 8]
            if dividing
            else [float(rng.uniform(0.01, 0.05)), float(rng.uniform(0.05, 0.6))]
        )
        x0 = rng.normal(size=dims.stacked)
        yield signal, x0, [(t, steps[i % len(steps)]) for i, t in enumerate(ends)]


def _tail_matches(signal, x0, t_end, step, whole, rng):
    """``rk4_reference(..., first=k)`` from the whole run's state at a
    switch instant ``t_k`` before ``t_end`` gives the whole run's later
    times and states bit for bit; returns whether a ``k`` was tried."""
    starts = [k for k, t_k, _ in signal.segments_from(0, t_end) if k > 0]
    if not starts:
        return False
    k = int(rng.choice(starts))
    (i,) = np.flatnonzero(whole.times == signal.switch_time(k))
    tail = rk4_reference(signal, whole.states[i], t_end, step, first=k)
    assert tail.times.tolist() == whole.times[i:].tolist()
    assert np.array_equal(tail.states, whole.states[i:])
    return True


def _assert_chunked_oracle_matches(monkeypatch, signal, x0, t_end, step):
    """The oracle's deviation equals the whole-run reference's, with its own
    chunks and with ``_BLOCK_ROWS = 1``: chunks of ``ceil(step / alpha)``
    segments, one for most steps, compared a row at a time."""
    expected = _reference_deviation(signal, x0, t_end, step)
    assert max_oracle_deviation(signal, x0, t_end, step) == expected
    with monkeypatch.context() as patched:
        patched.setattr(simulator, "_BLOCK_ROWS", 1)
        assert max_oracle_deviation(signal, x0, t_end, step) == expected


def test_streamed_oracle_matches_the_reference_bit_for_bit(monkeypatch):
    """The preallocated RK4 reference and the chunked, block-wise oracle
    give the same times, the same state bits and the same deviation as the
    list-building reference and the per-sample exact walk, or raise the
    same error, on random finite and periodic signals, with the oracle's
    chunks and with chunks of mostly one segment.  A reference started at a switch
    instant from the whole run's state there is the whole run's tail.
    Signals whose every segment is shorter than ``_BLOCK_ROWS`` steps, and
    finite signals whose ``t_end`` lies past their end by rounding, are
    walked in several chunks of the oracle's own size."""
    rng = np.random.default_rng(SEED + 9)
    runs = unstable = tails = 0
    for signal, x0, cases in _oracle_cases(rng, 200):
        for t_end, step in cases:
            expected = _outcome(lambda: _reference_rk4(signal, x0, t_end, step))
            actual = _outcome(lambda: rk4_reference(signal, x0, t_end, step))
            if isinstance(expected, tuple):
                assert actual == expected
                assert _outcome(
                    lambda: max_oracle_deviation(signal, x0, t_end, step)
                ) == expected
                unstable += 1
                continue
            assert actual.times.tolist() == expected.times.tolist()
            assert np.array_equal(actual.states, expected.states)
            _assert_chunked_oracle_matches(monkeypatch, signal, x0, t_end, step)
            tails += _tail_matches(signal, x0, t_end, step, actual, rng)
            runs += 1
    assert runs >= 450 and unstable >= 20 and tails >= 300, (runs, unstable, tails)

    dims = GraphDimensions(n=3, d=2)
    past_end = 0
    for index in range(12):
        graphs = [random_graph(rng, dims) for _ in range(2)]
        periodic = index % 3 == 0
        # 20 to 200 steps of 1e-3 a segment: a chunk is 13 segments
        dwells = rng.uniform(0.02, 0.2, size=int(rng.integers(14, 40))).tolist()
        segments = [(int(rng.integers(0, 2)), w) for w in dwells]
        signal = SwitchingSignal(graphs, segments, 0.02, 0.2, periodic=periodic)
        t_end = 1.7 * signal.period if periodic else math.fsum(dwells)
        past_end += not periodic and t_end > signal.period_exact
        walked = len(list(signal.segments_from(0, t_end)))
        assert walked > math.ceil(simulator._BLOCK_ROWS * 1e-3 / 0.02), walked
        x0 = rng.normal(size=dims.stacked)
        _assert_chunked_oracle_matches(monkeypatch, signal, x0, t_end, 1e-3)
    # whether the float sum rounds past the exact end depends on the draw
    assert past_end >= 1, past_end


def _near_duplicate_times(rng, signal, t_end):
    """Ascending times with switch instants, their neighbouring floats and
    pairs of instants one ulp apart."""
    instants = [float(t) for _, t, _ in signal.segments_from(0, t_end)]
    times = {0.0, t_end, *rng.uniform(0.0, t_end, size=12).tolist()}
    for t in instants + rng.uniform(0.0, t_end, size=4).tolist():
        times.update({t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)})
    return np.array(sorted(t for t in times if 0.0 <= t <= t_end))


@pytest.mark.parametrize("rows", [1, 3, 256])
def test_exact_walker_matches_the_reference_walk(rows):
    """Exact states from the one walker, in blocks of any size, equal the
    per-sample walk's bits on ``simulate``'s sample grids (near-duplicate
    ticks merged) and on grids with instants one ulp apart."""
    rng = np.random.default_rng(SEED + 10)
    grids = 0
    for signal, x0, cases in _oracle_cases(rng, 200):
        t_end = cases[0][0]
        for times in (
            simulator._sample_times(signal, t_end, float(rng.uniform(0.01, 0.3))),
            simulator._sample_times(signal, t_end, 0.1),
            _near_duplicate_times(rng, signal, t_end),
        ):
            walk = simulator._exact_states(signal, x0, times, rows)
            blocks = [block.copy() for block in walk]  # the buffer is reused
            assert all(len(block) == rows for block in blocks[:-1])
            expected = _reference_states_at(signal, x0, times)
            assert np.array_equal(np.concatenate(blocks), expected)
            grids += 1
    assert grids == 600


def test_oracle_nan_gap_is_kept_by_the_running_maximum(
    demo_signal, scenario_path, tmp_path, capsys, monkeypatch
):
    """A NaN at one node of the first compared block, followed by finite
    blocks, makes the deviation NaN (a later finite gap must not replace it)
    and ``simulate --oracle`` exit 3."""
    real = simulator._rk4_step
    poisoned_call = 10
    calls = []
    saved = np.empty(8)

    def poisoning(lap, state, h):
        calls.append(h)
        if len(calls) == poisoned_call + 1:
            state = saved  # later nodes continue from the finite state
        out = real(lap, state, h)
        if len(calls) == poisoned_call:
            saved[...] = out
            out[0] = math.nan
        return out

    monkeypatch.setattr(simulator, "_rk4_step", poisoning)
    reference = rk4_reference(demo_signal, X0, 6.0, 1e-3)
    nan_rows = np.isnan(reference.states).any(axis=1)
    assert np.flatnonzero(nan_rows).tolist() == [poisoned_call]
    assert len(reference.times) > 4 * simulator._BLOCK_ROWS
    calls.clear()
    assert math.isnan(max_oracle_deviation(demo_signal, X0, 6.0, 1e-3))
    calls.clear()
    argv = ["simulate", str(scenario_path), "--t-end", "6", "--oracle"]
    assert cli.main(argv + ["--out", str(tmp_path / "t.csv")]) == 3
    captured = capsys.readouterr()
    assert "oracle max deviation: nan" in captured.out
    assert "deviates by nan" in captured.err


def test_oracle_holds_one_reference_sized_array(demo_graphs):
    """Besides the reference trajectory, the cross-check holds only
    fixed-size blocks: its traced peak stays within 1.5 times the
    reference states' bytes plus a small constant (the list-building
    oracle held about five such arrays)."""
    signal = SwitchingSignal(
        demo_graphs, DEMO_SEGMENTS, alpha=0.5, beta=4.0, periodic=True
    )
    states_bytes = rk4_reference(signal, X0, 12.0, 1e-3).states.nbytes
    tracemalloc.start()
    try:
        deviation = max_oracle_deviation(signal, X0, 12.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert deviation <= 1e-6
    assert peak <= 1.5 * states_bytes + 64 * 1024, (peak, states_bytes)


def test_oracle_peak_does_not_grow_with_the_reference(tmp_path):
    """``simulate --oracle`` holds one chunk of reference nodes, not the
    whole run's: when ``--t-end`` quadruples on a seeded scenario with
    ``n*d = 100``, the process's peak RSS (``VmHWM``) grows by less than a
    quarter of the reference states' growth, ``delta_nodes * n*d * 8``
    bytes (a whole-run reference grows it by all of that).  The sample grid
    is kept to a few dozen samples, so only the oracle could grow."""
    rng = np.random.default_rng(SEED + 13)
    n, d = 50, 2
    weights = ([2, 1, 1, 2], [1, 0, 0, 1], [1, 1, 1, 1])
    graphs = {}
    for g in range(3):
        pairs = {(i, i + 1) for i in range(n - 1)}
        pairs |= {tuple(sorted(p)) for p in rng.integers(0, n, (n, 2)) if p[0] != p[1]}
        graphs[f"G{g + 1}"] = [
            {"i": int(i) + 1, "j": int(j) + 1, "weight": weights[int(rng.integers(3))]}
            for i, j in sorted(pairs)
        ]
    doc = {
        "dimensions": {"n": n, "d": d},
        "graphs": graphs,
        "signal": {
            "segments": [
                {"graph": "G1", "dwell": 1.0},
                {"graph": "G2", "dwell": 1.5},
                {"graph": "G3", "dwell": 0.5},
            ],
            "periodic": True,
            "alpha": 0.5,
            "beta": 1.5,
        },
        "initial_state": rng.random((n, d)).round(4).tolist(),
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    script = (
        "import sys\n"
        "from matconsensus import cli\n"
        "argv = ['simulate', sys.argv[1], '--t-end', sys.argv[2], '--sample-dt',\n"
        "        '1', '--oracle', '--out', sys.argv[3]]\n"
        "assert cli.main(argv) == 0\n"
        "for line in open('/proc/self/status'):\n"
        "    if line.startswith('VmHWM:'):\n"
        "        print(int(line.split()[1]) * 1024)\n"
    )
    scenario = load_scenario(path)
    peaks, nodes = {}, {}
    for t_end in (5.0, 20.0):
        argv = [str(path), repr(t_end), str(tmp_path / "t.csv")]
        result = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        )
        assert result.returncode == 0, result.stderr
        peaks[t_end] = int(result.stdout.split()[-1])
        reference = rk4_reference(scenario.signal, scenario.initial_state, t_end, 1e-3)
        nodes[t_end] = len(reference.times)
    reference_growth = (nodes[20.0] - nodes[5.0]) * n * d * 8
    assert reference_growth > 10 * 2**20
    growth = peaks[20.0] - peaks[5.0]
    assert growth < reference_growth / 4, (growth, reference_growth)


def test_oracle_step_with_more_nodes_than_memory_is_a_model_error(
    scenario_path, tmp_path, capsys
):
    """A countable step whose reference states exceed any address space is
    rejected when the reference is allocated, before the first step (exit
    2), not with an uncaught ``MemoryError``, nor with the ``ValueError`` of
    a node count beyond any array shape (step 1e-300)."""
    out = tmp_path / "t.csv"
    for step in ("1e-15", "1e-300"):
        argv = ["simulate", str(scenario_path), "--t-end", "6", "--oracle", step]
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "more reference states than fit in memory" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra",
    [
        ["--t-end", "6", "--sample-dt", "1e-12"],
        ["--t-end", "1e13", "--sample-dt", "1e13"],  # 5e12 switch instants
        ["--t-end", "6", "--sample-dt", "1e-15", "--oracle", "1e-15"],
        ["--t-end", "1e300", "--sample-dt", "1e299"],  # beyond any array shape
    ],
    ids=["fine-ticks", "many-periods", "before-the-oracle", "beyond-any-shape"],
)
def test_sample_grid_beyond_memory_is_a_model_error(
    scenario_path, tmp_path, capsys, extra
):
    """A sample grid whose states cannot be held is counted and refused
    before it is built (exit 2), instead of building it for ever."""
    out = tmp_path / "t.csv"
    argv = ["simulate", str(scenario_path), *extra, "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert re.search(
        r"error: the sample grid of sample_dt \S+ up to t_end \S+ has up to "
        r"\d+ samples, more states than fit in memory",
        err,
    ), err
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_holds_one_states_sized_array():
    """``V`` is computed once, in row blocks: besides the sampled states,
    ``simulate`` holds only blocks and per-sample vectors, so its traced
    peak stays within 1.5 times the states' bytes plus a small constant
    (building the whole deviation from consensus took about twice the
    states' bytes).  Block-wise ``V`` has the whole-array ``einsum`` bits."""
    rng = np.random.default_rng(SEED + 11)
    dims = GraphDimensions(n=30, d=4)
    graphs = [random_graph(rng, dims, edge_prob=0.3) for _ in range(3)]
    segments = [(0, 1.5), (1, 2.0), (2, 1.0)]
    signal = SwitchingSignal(graphs, segments, 0.5, 4.0, periodic=True)
    x0 = rng.normal(size=dims.stacked)
    simulate(signal, x0, 20.0, 1.0)  # fills the per-segment caches
    tracemalloc.start()
    try:
        trajectory = simulate(signal, x0, 20.0, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states_bytes = trajectory.states.nbytes
    assert len(trajectory.times) > 4 * simulator._BLOCK_ROWS
    assert peak <= 1.5 * states_bytes + 64 * 1024, (peak, states_bytes)
    deviation = trajectory.states - trajectory.consensus_point
    assert np.array_equal(
        trajectory.lyapunov, np.einsum("ij,ij->i", deviation, deviation)
    )


# -- the sample grid before its tick count dropped a 1e-9 slack, kept
# verbatim (only renamed) as the reference --


def _reference_sample_times(signal, t_end, sample_dt):
    starts = (float(t_k) for _, t_k, _ in signal.segments_from(0, t_end))
    instants = [t for t in starts if not same_instant(t, t_end)] + [float(t_end)]
    count = int(math.floor(t_end / sample_dt + 1e-9))
    ticks = {0.0, *instants}
    for k in range(count + 1):
        t = k * sample_dt
        if t > t_end:
            break
        i = bisect_left(instants, t)  # instants[i - 1] < t <= instants[i]
        if not (
            same_instant(t, instants[i]) or (i > 0 and same_instant(t, instants[i - 1]))
        ):
            ticks.add(t)
    return np.array(sorted(ticks))


def test_sample_grid_without_tick_slack_matches_the_reference(demo_graphs):
    """Counting ticks as ``floor(t_end / sample_dt)`` gives the same grids as
    the count with a 1e-9 slack: a tick the slack admits lies past
    ``t_end``, where the loop stops, or within rounding of ``t_end``, where
    it merges.  Half the draws put ``t_end / sample_dt`` below a whole
    number by 1e-16 to 1e-9 relative, where the two counts differ."""
    rng = np.random.default_rng(SEED + 12)
    slack_counted = 0
    for index in range(2400):
        dwells = rng.choice([0.25, 0.5, 1.0, 0.3, 0.7, float(rng.uniform(0.1, 1.5))], 3)
        segments = [(int(g), float(w)) for g, w in zip(rng.integers(0, 3, 3), dwells)]
        signal = SwitchingSignal(demo_graphs, segments, 0.05, 2.0, periodic=True)
        sample_dt = float(rng.choice([0.1, 0.25, 0.3, 1 / 3, rng.uniform(0.05, 0.5)]))
        ticks = int(rng.integers(1, 40))
        if index % 2:
            below = 10.0 ** rng.uniform(-16, -9)
            t_end = ticks * sample_dt * (1 - below)
        else:
            t_end = float(rng.uniform(0.01, 40 * sample_dt))
        times = simulator._sample_times(signal, t_end, sample_dt)
        assert np.array_equal(times, _reference_sample_times(signal, t_end, sample_dt))
        slack_counted += math.floor(t_end / sample_dt + 1e-9) != math.floor(
            t_end / sample_dt
        )
    assert slack_counted >= 500, slack_counted
