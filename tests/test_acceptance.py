"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (straight to the real stdout so the
lines survive pytest's capture) and then asserts, so a red criterion is
visible both in the log and in the pytest summary.
"""

import sys
import time

import numpy as np
import pytest

from matconsensus import (
    Decision,
    contraction_factor,
    integral_network,
    laplacian,
    load_scenario,
    max_oracle_deviation,
    null_space_basis,
    periodic_consensus_verdict,
    positive_spanning_tree,
    rk4_reference,
    simulate,
    transition_matrix,
)
from matconsensus.tolerances import DEFAULT_TOLERANCES
from conftest import LAP_A, LAP_B, LAP_C, SEED, random_signal


def record(number: int, description: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {description}", file=sys.__stdout__)
    assert passed, f"acceptance criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def scenario(scenario_path):
    return load_scenario(scenario_path)


@pytest.fixture(scope="module")
def long_trajectory(scenario):
    return simulate(scenario.signal, scenario.initial_state, 60.0, 0.5)


@pytest.fixture(scope="module")
def reference_trajectory(scenario):
    return rk4_reference(scenario.signal, scenario.initial_state, 12.0, 1e-3)


@pytest.fixture(scope="module")
def random_instances():
    rng = np.random.default_rng(SEED)
    return [random_signal(rng) for _ in range(220)]


def test_acceptance_1_end_to_end_consensus(scenario_path):
    started = time.perf_counter()
    scenario = load_scenario(scenario_path)
    verdict = periodic_consensus_verdict(scenario.signal, scenario.tolerances)
    trajectory = simulate(scenario.signal, scenario.initial_state, 60.0, 0.5)
    elapsed = time.perf_counter() - started
    deviation = float(
        np.max(np.abs(trajectory.final_state - trajectory.consensus_point))
    )
    passed = (
        verdict.decision is Decision.CONSENSUS
        and deviation <= 1e-3
        and elapsed < 1.0
    )
    record(
        1,
        f"four-node demo converges (|x(60) - x_f| = {deviation:.2e}, "
        f"{elapsed:.2f} s)",
        passed,
    )


def test_acceptance_2_laplacian_fixtures(demo_graphs):
    matches = [
        np.array_equal(laplacian(graph), expected)
        for graph, expected in zip(demo_graphs, (LAP_A, LAP_B, LAP_C))
    ]
    record(2, "demo Laplacians reproduce the frozen matrices bit-exactly",
           all(matches))


def test_acceptance_3_null_space_checks(scenario, dims4x2):
    singles_not_consensus = []
    matrices = [LAP_A, LAP_B, LAP_C]
    averaged = integral_network(scenario.signal, 0.0, 6.0).avg_laplacian
    for matrix in matrices:
        singles_not_consensus.append(
            not null_space_basis(matrix, dims4x2, scenario.tolerances).equals_consensus
        )
    averaged_ok = null_space_basis(
        averaged, dims4x2, scenario.tolerances
    ).equals_consensus

    stable = True
    for matrix in matrices + [averaged]:
        baseline = null_space_basis(matrix, dims4x2, DEFAULT_TOLERANCES).dimension
        for factor in (0.1, 10.0):
            perturbed = DEFAULT_TOLERANCES.replace(
                null_space=DEFAULT_TOLERANCES.null_space * factor
            )
            if null_space_basis(matrix, dims4x2, perturbed).dimension != baseline:
                stable = False

    record(
        3,
        "null spaces: no single graph agrees, the period average does, "
        "dimensions stable under tolerance x/10",
        all(singles_not_consensus) and averaged_ok and stable,
    )


def test_acceptance_4_positive_spanning_tree(scenario, demo_graphs):
    network = integral_network(scenario.signal, 0.0, 6.0)
    exists, edges = positive_spanning_tree(network)
    tree_ok = exists and edges == ((0, 1), (1, 2), (1, 3))
    singles_ok = all(
        not positive_spanning_tree(graph)[0] for graph in demo_graphs
    )
    record(
        4,
        "period-average network has PD spanning tree {(1,2),(2,3),(2,4)}; "
        "no single graph does",
        tree_ok and singles_ok,
    )


def _consensus_by_sum(signal, start, stop) -> bool:
    """Independent route: null space of the plain Laplacian sum, computed
    with raw numpy rather than the library helpers."""
    total = np.zeros((signal.dims.stacked, signal.dims.stacked))
    for k in range(start, stop):
        total += signal.segment_laplacian(k)
    values = np.linalg.eigvalsh((total + total.T) / 2.0)
    threshold = 1e-9 * max(1.0, float(values[-1]))
    dimension = int(np.count_nonzero(values <= threshold))
    n, d = signal.dims.n, signal.dims.d
    agreement = np.kron(np.ones((n, 1)), np.eye(d)) / np.sqrt(n)
    return dimension == d and float(np.max(np.abs(total @ agreement))) <= threshold


def _windows_of(signal, rng):
    count = signal.segment_count
    yield 0, count
    if count >= 2:
        start = int(rng.integers(0, count))
        stop = int(rng.integers(start + 1, count + 1))
        yield start, stop


def test_acceptance_5_contraction_equivalence(random_instances):
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    disagreements = 0
    checks = 0
    for signal in random_instances:
        for start, stop in _windows_of(signal, rng):
            t0, t1 = signal.switch_time(start), signal.switch_time(stop)
            averaged = integral_network(signal, t0, t1).avg_laplacian
            agrees = null_space_basis(averaged, signal.dims).equals_consensus
            contracts = contraction_factor(
                transition_matrix(signal, start, stop), signal.dims
            ).contracts
            checks += 1
            if agrees != contracts:
                disagreements += 1
    elapsed = time.perf_counter() - started
    record(
        5,
        f"window contraction iff averaged null space agrees "
        f"({checks} windows from {len(random_instances)} signals, "
        f"{disagreements} disagreements, {elapsed:.1f} s)",
        disagreements == 0 and elapsed < 30.0,
    )


def test_acceptance_6_null_space_intersection(random_instances):
    rng = np.random.default_rng(SEED + 2)
    disagreements = 0
    checks = 0
    for signal in random_instances:
        for start, stop in _windows_of(signal, rng):
            t0, t1 = signal.switch_time(start), signal.switch_time(stop)
            averaged = integral_network(signal, t0, t1).avg_laplacian
            by_average = null_space_basis(averaged, signal.dims).equals_consensus
            by_sum = _consensus_by_sum(signal, start, stop)
            checks += 1
            if by_average != by_sum:
                disagreements += 1
    record(
        6,
        f"averaged null space iff intersection of segment null spaces "
        f"({checks} windows, {disagreements} disagreements)",
        disagreements == 0,
    )


def test_acceptance_7_oracle_equivalence(scenario):
    deviation = max_oracle_deviation(
        scenario.signal, scenario.initial_state, 12.0, 1e-3
    )
    halved = max_oracle_deviation(
        scenario.signal, scenario.initial_state, 12.0, 5e-4
    )
    ratio = deviation / halved
    record(
        7,
        f"exact vs Runge-Kutta reference: deviation {deviation:.2e} <= 1e-6, "
        f"halving ratio {ratio:.1f}x >= 15x",
        deviation <= 1e-6 and ratio >= 15.0,
    )


def test_acceptance_8_conservation_and_monotonicity(
    scenario, long_trajectory, reference_trajectory
):
    passed = True
    details = []
    for label, trajectory in (
        ("simulate", long_trajectory),
        ("rk4", reference_trajectory),
    ):
        dims = trajectory.dims
        means = trajectory.states.reshape(len(trajectory.times), dims.n, dims.d).mean(
            axis=1
        )
        scale = max(1.0, float(np.max(np.abs(means[0]))))
        drift = float(np.max(np.abs(means - means[0]))) / scale
        lyapunov = trajectory.lyapunov
        slack = 1e-10 * float(lyapunov[0])
        monotone = bool(np.all(np.diff(lyapunov) <= slack))
        details.append(f"{label}: drift {drift:.1e}, monotone {monotone}")
        passed = passed and drift <= 1e-10 and monotone
    record(8, "mean conserved and V non-increasing (" + "; ".join(details) + ")",
           passed)


def test_acceptance_9_periodic_decay_bound(scenario, long_trajectory):
    mu = contraction_factor(
        transition_matrix(scenario.signal, 0, 3), scenario.dims
    ).mu_next
    omega0 = float(np.linalg.norm(long_trajectory.states[0]
                                  - long_trajectory.consensus_point))
    bound_holds = True
    worst = 0.0
    times = long_trajectory.times
    for k in range(1, 11):
        index = int(np.flatnonzero(times == 6.0 * k)[0])
        omega = float(
            np.linalg.norm(
                long_trajectory.states[index] - long_trajectory.consensus_point
            )
        )
        bound = mu ** (k / 2.0) * omega0 * (1.0 + 1e-8)
        worst = max(worst, omega / bound)
        if omega > bound:
            bound_holds = False
    record(
        9,
        f"per-period decay within mu^(k/2) envelope for k=1..10 "
        f"(worst ratio {worst:.3f})",
        bound_holds,
    )
