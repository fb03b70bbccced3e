import math
from fractions import Fraction

import numpy as np
import pytest

from matconsensus import (
    Definiteness,
    DimensionMismatchError,
    DwellOutOfBoundsError,
    EmptySignalError,
    EmptySpanError,
    GraphDimensions,
    IndexOutOfRangeError,
    PeriodMismatchError,
    SwitchingSignal,
    TimeOutOfRangeError,
    TooFewPartitionsError,
    build_periodic_signal,
    integral_network,
    new_graph,
    null_space_basis,
)
from matconsensus.switching import same_instant
from conftest import DEMO_SEGMENTS, LAP_A, LAP_B, LAP_C, random_signal

THREE_SHORT = [(0, 0.3), (1, 0.3), (2, 0.3)]


def test_build_switching_signal_switch_times(demo_graphs):
    signal = SwitchingSignal(
        demo_graphs, [(0, 2.0), (1, 3.0), (2, 1.0)], alpha=0.5, beta=4.0
    )
    assert signal.segment_count == 3
    assert [signal.switch_time(k) for k in range(4)] == [0.0, 2.0, 5.0, 6.0]
    assert signal.total_duration == 6.0
    assert signal.segment_graph(1) is demo_graphs[1]


def test_build_switching_signal_rejections(demo_graphs):
    with pytest.raises(EmptySignalError):
        SwitchingSignal(demo_graphs, [], alpha=0.5, beta=4.0)
    with pytest.raises(DwellOutOfBoundsError):
        SwitchingSignal(demo_graphs, [(0, 0.1)], alpha=0.5, beta=4.0)
    with pytest.raises(DwellOutOfBoundsError):
        SwitchingSignal(demo_graphs, [(0, 9.0)], alpha=0.5, beta=4.0)
    with pytest.raises(DwellOutOfBoundsError):
        SwitchingSignal(demo_graphs, [(0, 1.0)], alpha=2.0, beta=1.0)
    other = new_graph(GraphDimensions(n=3, d=2))
    with pytest.raises(DimensionMismatchError):
        SwitchingSignal(
            list(demo_graphs) + [other], [(0, 1.0)], alpha=0.5, beta=4.0
        )


def test_build_periodic_signal(demo_graphs):
    signal = build_periodic_signal(
        demo_graphs, [(0, 2.0), (1, 3.0), (2, 1.0)], period=6.0, alpha=0.5, beta=4.0
    )
    assert signal.partitions == 3
    assert signal.period == 6.0
    assert signal.total_duration == np.inf
    # global segment indexing wraps around the period
    assert signal.segment_graph_index(5) == 2
    assert signal.switch_time(5) == 11.0
    assert signal.switch_time(6) == 12.0


def test_build_periodic_signal_rejections(demo_graphs):
    with pytest.raises(TooFewPartitionsError):
        build_periodic_signal(
            demo_graphs, [(0, 2.0), (1, 4.0)], period=6.0, alpha=0.5, beta=4.0
        )
    with pytest.raises(PeriodMismatchError):
        build_periodic_signal(
            demo_graphs,
            [(0, 2.0), (1, 3.0), (2, 1.0)],
            period=5.0,
            alpha=0.5,
            beta=4.0,
        )


def test_segment_index_at(demo_graphs, demo_signal, demo_finite_signal):
    def active_graph(s, t):
        return s.segment_graph(s.segment_index_at(t))

    finite = demo_finite_signal
    assert active_graph(finite, 0.0) is demo_graphs[0]
    assert active_graph(finite, 1.99) is demo_graphs[0]
    assert active_graph(finite, 2.0) is demo_graphs[1]  # boundary belongs to the right
    assert active_graph(finite, 5.5) is demo_graphs[2]
    with pytest.raises(TimeOutOfRangeError):
        active_graph(finite, 6.0)
    with pytest.raises(TimeOutOfRangeError):
        active_graph(finite, -0.1)
    # the periodic signal wraps instead
    assert active_graph(demo_signal, 6.0) is demo_graphs[0]
    assert active_graph(demo_signal, 13.5) is demo_graphs[0]
    with pytest.raises(TimeOutOfRangeError):
        active_graph(demo_signal, -0.1)


def test_periodic_and_finite_signals_agree_on_first_pass(demo_graphs):
    periodic = SwitchingSignal(demo_graphs, DEMO_SEGMENTS, 0.5, 4.0, periodic=True)
    finite = SwitchingSignal(demo_graphs, DEMO_SEGMENTS, 0.5, 4.0)
    m = len(DEMO_SEGMENTS)
    assert periodic.partitions == finite.partitions == m
    for k in range(m):
        assert periodic.switch_time_exact(k) == finite.switch_time_exact(k)
        assert periodic.segment_graph_index(k) == finite.segment_graph_index(k)
        assert np.array_equal(
            periodic.segment_laplacian(k), finite.segment_laplacian(k)
        )
        assert np.array_equal(
            periodic.segment_exponential(k), finite.segment_exponential(k)
        )
        # repeated lookups return the cached objects
        assert finite.segment_laplacian(k) is finite.segment_laplacian(k)
        assert finite.segment_exponential(k) is finite.segment_exponential(k)
        assert periodic.segment_laplacian(k) is periodic.segment_laplacian(k + m)
    assert periodic.switch_time_exact(m) == finite.switch_time_exact(m)


def test_periodic_signal_wraps(demo_graphs):
    signal = SwitchingSignal(demo_graphs, DEMO_SEGMENTS, 0.5, 4.0, periodic=True)
    m = len(DEMO_SEGMENTS)
    for k in range(2 * m):
        assert signal.switch_time_exact(k + m) == (
            signal.switch_time_exact(k) + signal.period_exact
        )
        assert signal.segment_exponential(k + m) is signal.segment_exponential(k)
        assert signal.segment_graph_index(k + m) == signal.segment_graph_index(k)
    assert signal.segment_count is None
    with pytest.raises(IndexOutOfRangeError):
        signal.segment_exponential(-1)
    with pytest.raises(IndexOutOfRangeError):
        signal.switch_time_exact(-1)


def test_finite_signal_index_range(demo_graphs):
    signal = SwitchingSignal(demo_graphs, DEMO_SEGMENTS, 0.5, 4.0)
    m = len(DEMO_SEGMENTS)
    assert signal.segment_count == m
    assert signal.switch_time(m) == signal.total_duration == 6.0
    for accessor in (
        signal.segment_graph_index,
        signal.segment_laplacian,
        signal.segment_eigensystem,
        signal.segment_exponential,
    ):
        with pytest.raises(IndexOutOfRangeError):
            accessor(m)
        with pytest.raises(IndexOutOfRangeError):
            accessor(-1)
    with pytest.raises(IndexOutOfRangeError):
        signal.switch_time_exact(m + 1)
    with pytest.raises(IndexOutOfRangeError):
        signal.switch_time_exact(-1)


def test_too_few_partitions_checked_after_dwell_bounds(demo_graphs):
    with pytest.raises(TooFewPartitionsError):
        SwitchingSignal(demo_graphs, [(0, 2.0), (1, 4.0)], 0.5, 4.0, periodic=True)
    with pytest.raises(DwellOutOfBoundsError):
        SwitchingSignal(demo_graphs, [(0, 9.0), (1, 4.0)], 0.5, 4.0, periodic=True)


def test_integral_network_single_segment_is_exact(demo_graphs, demo_signal):
    """A span covering exactly one segment reproduces that graph bit for bit."""
    network = integral_network(demo_signal, 0.0, 2.0)
    graph = demo_graphs[0]
    assert sorted(network.edges) == sorted(graph.edges)
    for pair, weight in graph.edges.items():
        assert np.array_equal(network.adjacency_blocks[pair], weight.entries)
    assert np.array_equal(network.avg_laplacian, LAP_A)


def test_integral_network_over_period(demo_signal, dims4x2):
    network = integral_network(demo_signal, 0.0, 6.0)
    assert sorted(network.edges) == [(0, 1), (1, 2), (1, 3), (2, 3)]
    assert network.edges[(1, 2)] is Definiteness.POSITIVE_DEFINITE
    assert network.edges[(2, 3)] is Definiteness.POSITIVE_SEMIDEFINITE
    # averaged 2-3 block: (2/6) * ones + (1/6) * strong link
    expected = np.array([[1 / 2, 1 / 6], [1 / 6, 2 / 3]])
    assert np.allclose(network.adjacency_blocks[(1, 2)], expected, atol=1e-15)
    expected_lap = (2.0 * LAP_A + 3.0 * LAP_B + LAP_C) / 6.0
    assert np.allclose(network.avg_laplacian, expected_lap, atol=1e-15)
    report = null_space_basis(network.avg_laplacian, dims4x2)
    assert report.dimension == 2
    assert report.equals_consensus


def test_integral_network_periodicity(demo_signal):
    """Averaging over any whole period gives the same network."""
    first = integral_network(demo_signal, 0.0, 6.0)
    for start in (6.0, 12.0, 36.0):
        shifted = integral_network(demo_signal, start, start + 6.0)
        assert np.allclose(
            shifted.avg_laplacian, first.avg_laplacian, atol=1e-14
        )
        assert sorted(shifted.edges) == sorted(first.edges)


def test_integral_network_additivity(demo_signal, rng):
    """(t2-t0)*avg[t0,t2) == (t1-t0)*avg[t0,t1) + (t2-t1)*avg[t1,t2)."""
    for _ in range(10):
        t0, t1, t2 = np.sort(rng.uniform(0.0, 18.0, size=3))
        if t1 - t0 < 1e-3 or t2 - t1 < 1e-3:
            continue
        whole = (t2 - t0) * integral_network(demo_signal, t0, t2).avg_laplacian
        parts = (t1 - t0) * integral_network(demo_signal, t0, t1).avg_laplacian + (
            t2 - t1
        ) * integral_network(demo_signal, t1, t2).avg_laplacian
        assert np.max(np.abs(whole - parts)) <= 1e-12


def test_integral_network_misaligned_span(demo_signal):
    """A span cutting through segments weights each by its overlap."""
    network = integral_network(demo_signal, 1.0, 4.0)
    # one unit of the line graph, two units of the star graph
    expected = (LAP_A + 2.0 * LAP_B) / 3.0
    assert np.allclose(network.avg_laplacian, expected, atol=1e-15)
    assert sorted(network.edges) == [(0, 1), (1, 2), (1, 3), (2, 3)]


def test_integral_network_span_validation(demo_signal, demo_finite_signal):
    with pytest.raises(EmptySpanError):
        integral_network(demo_signal, 2.0, 2.0)
    with pytest.raises(EmptySpanError):
        integral_network(demo_signal, 3.0, 1.0)
    with pytest.raises(TimeOutOfRangeError):
        integral_network(demo_signal, -1.0, 2.0)
    with pytest.raises(TimeOutOfRangeError):
        integral_network(demo_finite_signal, 0.0, 7.0)


def test_integral_weights_sum_to_one(rng):
    """Averaged Laplacian of random signals equals the duration-weighted
    combination of the segment Laplacians."""
    for _ in range(15):
        signal = random_signal(rng)
        total = signal.total_duration
        network = integral_network(signal, 0.0, total)
        expected = np.zeros_like(network.avg_laplacian)
        for k in range(signal.segment_count):
            expected = expected + (
                signal.segments[k][1] / total
            ) * signal.segment_laplacian(k)
        assert np.max(np.abs(network.avg_laplacian - expected)) <= 1e-12


def _overlapping_segments(signal, start, end):
    """``(k, t_k, t_k+1)`` for every segment overlapping ``[start, end)``,
    found by scanning every segment index from zero."""
    found = []
    k = 0
    while signal.periodic or k < signal.partitions:
        t_k, t_next = signal.switch_time_exact(k), signal.switch_time_exact(k + 1)
        if t_k >= end:
            break
        if max(t_k, start) < min(t_next, end):
            found.append((k, t_k, t_next))
        k += 1
    return found


@pytest.mark.parametrize("periodic", [False, True])
def test_segments_between_matches_a_scan_of_switch_instants(demo_graphs, rng, periodic):
    for _ in range(20):
        segments = [
            (int(rng.integers(0, 3)), float(rng.uniform(0.5, 2.0)))
            for _ in range(int(rng.integers(3, 7)))
        ]
        signal = SwitchingSignal(demo_graphs, segments, 0.5, 2.0, periodic=periodic)
        m = signal.partitions
        reach = 3 * m if periodic else m
        horizon = float(signal.switch_time_exact(reach))
        instant = signal.switch_time_exact(int(rng.integers(1, reach + 1)))
        start = float(rng.uniform(0.0, horizon))
        spans = [
            (start, float(rng.uniform(start, horizon))),
            (start, horizon),
            # ends at the float image of a switch instant, or at the instant
            (0.0, float(instant)),
            (0.0, instant),
            (signal.switch_time_exact(1), instant),
            (signal.switch_time(1), float(instant)),
            # within rounding past the end of one pass
            (start, math.nextafter(signal.period, math.inf)),
            # empty
            (start, start),
        ]
        for span in spans:
            assert list(signal.segments_between(*span)) == _overlapping_segments(
                signal, *span
            ), span


def test_same_instant():
    assert same_instant(0.3, Fraction(3, 10))
    assert same_instant(3 * 0.1, 0.3)
    assert same_instant(0.9, 3 * Fraction(0.3))
    assert not same_instant(0.3, 0.3 + 1e-9)
    # the tolerance is relative beyond one time unit
    assert same_instant(1e6, 1e6 + 1e-7)
    assert not same_instant(1e6, 1e6 + 1e-5)


def test_snap_to_end_accepts_rounding_past_a_finite_end(demo_graphs):
    finite = SwitchingSignal(demo_graphs, THREE_SHORT, 0.1, 1.0)
    periodic = SwitchingSignal(demo_graphs, THREE_SHORT, 0.1, 1.0, periodic=True)
    assert finite.period == 0.8999999999999999
    assert finite.snap_to_end(0.9, "t_end 0.9") == finite.period_exact
    assert finite.snap_to_end(0.5, "t_end 0.5") == 0.5
    assert periodic.snap_to_end(5.0, "t_end 5.0") == 5.0
    with pytest.raises(
        TimeOutOfRangeError,
        match="t_end 0.91 exceeds signal duration 0.8999999999999999",
    ):
        finite.snap_to_end(0.91, "t_end 0.91")


def test_integral_network_snaps_its_span_end(demo_graphs):
    finite = SwitchingSignal(demo_graphs, THREE_SHORT, 0.1, 1.0)
    network = integral_network(finite, 0.0, 0.9)
    expected = (LAP_A + LAP_B + LAP_C) / 3.0
    assert np.allclose(network.avg_laplacian, expected, atol=1e-15)
    assert network.span == (0.0, 0.9)
    with pytest.raises(TimeOutOfRangeError, match="span end 0.91 exceeds"):
        integral_network(finite, 0.0, 0.91)
