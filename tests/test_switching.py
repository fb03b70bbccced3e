import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from matconsensus import (
    DEFAULT_TOLERANCES,
    Definiteness,
    GraphDimensions,
    ModelError,
    SwitchingSignal,
    classify_definiteness,
    integral_network,
    new_graph,
    null_space_basis,
    set_edge,
    simulate,
)
from matconsensus import switching
from matconsensus.switching import same_instant
from conftest import DEMO_SEGMENTS, LAP_A, LAP_B, LAP_C, random_graph, random_signal

SRC = Path(__file__).resolve().parent.parent / "src"

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
    with pytest.raises(ModelError, match="a switching signal needs at least one segment"):
        SwitchingSignal(demo_graphs, [], alpha=0.5, beta=4.0)
    with pytest.raises(ModelError, match=r"segment 0 dwell 0\.1 outside \[0\.5, 4\.0\]"):
        SwitchingSignal(demo_graphs, [(0, 0.1)], alpha=0.5, beta=4.0)
    with pytest.raises(ModelError, match=r"segment 0 dwell 9\.0 outside \[0\.5, 4\.0\]"):
        SwitchingSignal(demo_graphs, [(0, 9.0)], alpha=0.5, beta=4.0)
    with pytest.raises(ModelError, match="dwell bounds must satisfy 0 < alpha <= beta"):
        SwitchingSignal(demo_graphs, [(0, 1.0)], alpha=2.0, beta=1.0)
    other = new_graph(GraphDimensions(n=3, d=2))
    with pytest.raises(ModelError, match=r"graph 3 has dimensions GraphDimensions\(n=3"):
        SwitchingSignal(
            list(demo_graphs) + [other], [(0, 1.0)], alpha=0.5, beta=4.0
        )


def test_switching_signal_rejects_a_non_integer_graph_index(demo_graphs):
    """A float graph index is refused, not truncated (``int(2.7)`` would
    pick graph 2), and a numpy integer is stored as an ``int``."""
    segments = [(0, 1.0), (1, 1.0), (2.7, 1.0)]
    with pytest.raises(ModelError, match=r"^segment 2 graph index 2\.7 is not an integer$"):
        SwitchingSignal(demo_graphs, segments, alpha=0.5, beta=4.0)
    signal = SwitchingSignal(demo_graphs, [(np.int64(2), 1.0)], alpha=0.5, beta=4.0)
    assert signal.segments == ((2, 1.0),) and type(signal.segments[0][0]) is int


def test_periodic_signal_period_and_indexing(demo_graphs):
    signal = SwitchingSignal(
        demo_graphs, [(0, 2.0), (1, 3.0), (2, 1.0)], alpha=0.5, beta=4.0, periodic=True
    )
    assert signal.partitions == 3
    assert signal.period == 6.0
    assert signal.total_duration == np.inf
    # global segment indexing wraps around the period
    assert signal.segment_graph_index(5) == 2
    assert signal.switch_time(5) == 11.0
    assert signal.switch_time(6) == 12.0


def test_segment_index_at(demo_graphs, demo_signal, demo_finite_signal):
    def active_graph(s, t):
        return s.segment_graph(s.segment_index_at(t))

    finite = demo_finite_signal
    assert active_graph(finite, 0.0) is demo_graphs[0]
    assert active_graph(finite, 1.99) is demo_graphs[0]
    assert active_graph(finite, 2.0) is demo_graphs[1]  # boundary belongs to the right
    assert active_graph(finite, 5.5) is demo_graphs[2]
    with pytest.raises(ModelError, match=r"time 6\.0 outside \[0, 6\.0\)"):
        active_graph(finite, 6.0)
    with pytest.raises(ModelError, match=r"time -0\.1 outside \[0, 6\.0\)"):
        active_graph(finite, -0.1)
    # the periodic signal wraps instead
    assert active_graph(demo_signal, 6.0) is demo_graphs[0]
    assert active_graph(demo_signal, 13.5) is demo_graphs[0]
    with pytest.raises(ModelError, match=r"time -0\.1 outside \[0, inf\)"):
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
    with pytest.raises(ModelError, match=r"segment index -1 outside \[0, inf\)"):
        signal.segment_exponential(-1)
    with pytest.raises(ModelError, match=r"segment index -1 outside \[0, inf\)"):
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
        with pytest.raises(ModelError, match=r"segment index 3 outside \[0, 3\)"):
            accessor(m)
        with pytest.raises(ModelError, match=r"segment index -1 outside \[0, 3\)"):
            accessor(-1)
    with pytest.raises(ModelError, match=r"segment index 4 outside \[0, 3\)"):
        signal.switch_time_exact(m + 1)
    with pytest.raises(ModelError, match=r"segment index -1 outside \[0, 3\)"):
        signal.switch_time_exact(-1)


def test_too_few_partitions_checked_after_dwell_bounds(demo_graphs):
    with pytest.raises(ModelError, match="more than two segments per period, got 2"):
        SwitchingSignal(demo_graphs, [(0, 2.0), (1, 4.0)], 0.5, 4.0, periodic=True)
    # two segments and a dwell out of bounds: the dwell is reported
    with pytest.raises(ModelError, match=r"^segment 0 dwell 9\.0 outside \[0\.5, 4\.0\]$"):
        SwitchingSignal(demo_graphs, [(0, 9.0), (1, 4.0)], 0.5, 4.0, periodic=True)


def test_integral_network_single_segment_is_exact(demo_graphs, demo_signal):
    """A span covering exactly one segment reproduces that graph bit for bit."""
    averaged, avg_laplacian = integral_network(demo_signal, 0.0, 2.0)
    graph = demo_graphs[0]
    assert sorted(averaged.edges) == sorted(graph.edges)
    for pair, weight in graph.edges.items():
        assert np.array_equal(averaged.edges[pair].entries, weight.entries)
        assert averaged.edges[pair].definiteness is weight.definiteness
    assert np.array_equal(avg_laplacian, LAP_A)


def test_integral_network_drops_zero_slivers(demo_graphs, demo_signal):
    """A span end one rounding step past the first switch overlaps the next
    segment by about 4e-16; its pairs (1,3) and (2,3) average to about
    2e-16 W, classify as zero and are no edges of the averaged graph."""
    averaged, _ = integral_network(demo_signal, 0.0, 2.0000000000000004)
    assert sorted(averaged.edges) == sorted(demo_graphs[0].edges)


def test_integral_network_over_period(demo_signal, dims4x2):
    averaged, avg_laplacian = integral_network(demo_signal, 0.0, 6.0)
    assert sorted(averaged.edges) == [(0, 1), (1, 2), (1, 3), (2, 3)]
    assert averaged.edges[(1, 2)].definiteness is Definiteness.POSITIVE_DEFINITE
    assert averaged.edges[(2, 3)].definiteness is Definiteness.POSITIVE_SEMIDEFINITE
    # averaged 2-3 block: (2/6) * ones + (1/6) * strong link
    expected = np.array([[1 / 2, 1 / 6], [1 / 6, 2 / 3]])
    assert np.allclose(averaged.edges[(1, 2)].entries, expected, atol=1e-15)
    expected_lap = (2.0 * LAP_A + 3.0 * LAP_B + LAP_C) / 6.0
    assert np.allclose(avg_laplacian, expected_lap, atol=1e-15)
    report = null_space_basis(avg_laplacian, dims4x2)
    assert report.dimension == 2
    assert report.equals_consensus


def test_integral_network_periodicity(demo_signal):
    """Averaging over any whole period gives the same network."""
    first, first_laplacian = integral_network(demo_signal, 0.0, 6.0)
    for start in (6.0, 12.0, 36.0):
        shifted, shifted_laplacian = integral_network(demo_signal, start, start + 6.0)
        assert np.allclose(shifted_laplacian, first_laplacian, atol=1e-14)
        assert sorted(shifted.edges) == sorted(first.edges)


def test_integral_network_additivity(demo_signal, rng):
    """(t2-t0)*avg[t0,t2) == (t1-t0)*avg[t0,t1) + (t2-t1)*avg[t1,t2)."""
    for _ in range(10):
        t0, t1, t2 = np.sort(rng.uniform(0.0, 18.0, size=3))
        if t1 - t0 < 1e-3 or t2 - t1 < 1e-3:
            continue
        whole = (t2 - t0) * integral_network(demo_signal, t0, t2)[1]
        parts = (t1 - t0) * integral_network(demo_signal, t0, t1)[1] + (
            t2 - t1
        ) * integral_network(demo_signal, t1, t2)[1]
        assert np.max(np.abs(whole - parts)) <= 1e-12


def test_integral_network_misaligned_span(demo_signal):
    """A span cutting through segments weights each by its overlap."""
    averaged, avg_laplacian = integral_network(demo_signal, 1.0, 4.0)
    # one unit of the line graph, two units of the star graph
    expected = (LAP_A + 2.0 * LAP_B) / 3.0
    assert np.allclose(avg_laplacian, expected, atol=1e-15)
    assert sorted(averaged.edges) == [(0, 1), (1, 2), (1, 3), (2, 3)]


def test_integral_network_span_validation(demo_signal, demo_finite_signal):
    with pytest.raises(ModelError, match=r"span \[2\.0, 2\.0\) is empty"):
        integral_network(demo_signal, 2.0, 2.0)
    with pytest.raises(ModelError, match=r"span \[3\.0, 1\.0\) is empty"):
        integral_network(demo_signal, 3.0, 1.0)
    with pytest.raises(ModelError, match="span start -1.0 must be non-negative"):
        integral_network(demo_signal, -1.0, 2.0)
    with pytest.raises(ModelError, match="span end 7.0 exceeds signal duration 6.0"):
        integral_network(demo_finite_signal, 0.0, 7.0)


def test_integral_weights_sum_to_one(rng):
    """Averaged Laplacian of random signals equals the duration-weighted
    combination of the segment Laplacians."""
    for _ in range(15):
        signal = random_signal(rng)
        total = signal.total_duration
        _, avg_laplacian = integral_network(signal, 0.0, total)
        expected = np.zeros_like(avg_laplacian)
        for k in range(signal.segment_count):
            expected = expected + (
                signal.segments[k][1] / total
            ) * signal.segment_laplacian(k)
        assert np.max(np.abs(avg_laplacian - expected)) <= 1e-12


def _reference_integral_network(signal, t_start, t_end):
    """The segment walk ``integral_network`` replaced: every segment that
    overlaps the span, in time order, weighted by its own overlap.  Returns
    the averaged graph's non-zero blocks and the averaged Laplacian."""
    start = Fraction(float(t_start))
    end = signal.snap_to_end(Fraction(float(t_end)), f"span end {t_end}")
    span = end - start
    blocks = {}
    avg_lap = np.zeros((signal.dims.stacked, signal.dims.stacked))
    for k, t_k, t_next in signal.segments_between(start, end):
        weight = float((min(end, t_next) - max(start, t_k)) / span)
        for pair, edge_weight in signal.segment_graph(k).edges.items():
            if pair in blocks:
                blocks[pair] = blocks[pair] + weight * edge_weight.entries
            else:
                blocks[pair] = weight * edge_weight.entries
        avg_lap = avg_lap + weight * signal.segment_laplacian(k)
    kept = {
        pair: block
        for pair, block in blocks.items()
        if classify_definiteness(block, DEFAULT_TOLERANCES) is not Definiteness.ZERO
    }
    return kept, avg_lap


def _random_span(rng, signal):
    """A span inside the first few passes: one that may cover several
    periods of a periodic signal, one shorter than a pass, or one between
    switch instants."""
    reach = 4 * signal.period if signal.periodic else signal.period
    kind = rng.integers(3)
    if kind == 2:
        m = signal.partitions
        top = 4 * m if signal.periodic else m
        a, b = sorted(rng.choice(top + 1, size=2, replace=False))
        return signal.switch_time(int(a)), signal.switch_time(int(b))
    start = float(rng.uniform(0.0, reach * (0.75 if signal.periodic else 0.9)))
    length = signal.period if kind == 1 else reach
    return start, min(start + float(rng.uniform(0.01, 1.0)) * length, reach)


@pytest.mark.parametrize("periodic", [False, True])
def test_integral_network_matches_the_segment_walk(rng, periodic):
    """Where no segment-list position recurs in the span, the per-position
    sum is the segment walk bit for bit; where one recurs it differs from
    it only by rounding."""
    exact = close = 0
    for _ in range(60):
        dims = GraphDimensions(n=int(rng.integers(2, 5)), d=int(rng.integers(1, 4)))
        graphs = [random_graph(rng, dims) for _ in range(int(rng.integers(1, 4)))]
        segments = [
            (int(rng.integers(0, len(graphs))), float(rng.uniform(0.5, 2.0)))
            for _ in range(int(rng.integers(3, 7)))
        ]
        signal = SwitchingSignal(graphs, segments, 0.5, 2.0, periodic=periodic)
        for _ in range(5):
            start, end = _random_span(rng, signal)
            averaged, avg_laplacian = integral_network(signal, start, end)
            blocks, reference = _reference_integral_network(signal, start, end)
            visits = len(list(signal.segments_between(Fraction(start), Fraction(end))))
            if visits <= signal.partitions:
                assert np.array_equal(avg_laplacian, reference), (start, end)
                assert sorted(averaged.edges) == sorted(blocks)
                for pair, block in blocks.items():
                    assert np.array_equal(averaged.edges[pair].entries, block)
                exact += 1
            else:
                assert np.allclose(avg_laplacian, reference, rtol=1e-12, atol=1e-12)
                for pair, weight in averaged.edges.items():
                    assert np.allclose(weight.entries, blocks[pair], rtol=1e-12, atol=1e-12)
                close += 1
    assert exact > 50
    assert close > 50 or not periodic  # a finite signal's positions never recur


@pytest.mark.parametrize("span", [("0", "1e12"), ("1e300", "1e301")])
def test_analyze_over_an_enormous_span_returns(scenario_path, span):
    """The demo over about 1.7e11 periods, or past 1e300, costs what one
    period does: the integral network does not walk the span's segments."""
    result = subprocess.run(
        [sys.executable, "-m", "matconsensus", "analyze", str(scenario_path),
         "--span", *span],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert f"integral network over [{float(span[0])}, {float(span[1])})" in result.stdout


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
        ModelError,
        match="t_end 0.91 exceeds signal duration 0.8999999999999999",
    ):
        finite.snap_to_end(0.91, "t_end 0.91")


def test_integral_network_snaps_its_span_end(demo_graphs):
    finite = SwitchingSignal(demo_graphs, THREE_SHORT, 0.1, 1.0)
    _, avg_laplacian = integral_network(finite, 0.0, 0.9)
    expected = (LAP_A + LAP_B + LAP_C) / 3.0
    assert np.allclose(avg_laplacian, expected, atol=1e-15)
    with pytest.raises(ModelError, match="span end 0.91 exceeds"):
        integral_network(finite, 0.0, 0.91)


def _distinct_dwell_signal(count):
    """A finite signal of ``count`` segments on two 80-node paths (d = 2),
    every dwell distinct, so no two segments share an exponential."""
    dims = GraphDimensions(n=80, d=2)
    graphs = []
    for scale in (1.0, 2.0):
        graph = new_graph(dims)
        for i in range(dims.n - 1):
            graph = set_edge(graph, i, i + 1, [[scale, 0.0], [0.0, 1.0]])
        graphs.append(graph)
    segments = [(k % 2, 0.5 + k / (2 * count)) for k in range(count)]
    return SwitchingSignal(graphs, segments, alpha=0.5, beta=1.0)


def _simulate_all(signal):
    x0 = np.arange(signal.dims.stacked, dtype=float)
    end = signal.total_duration
    return simulate(signal, x0, end, end)


def test_exponential_cache_stays_within_its_budget():
    """The cache holds as many 160x160 exponentials as fit in the budget
    (81), however many distinct segments the signal walks."""
    slots = max(1, switching.EXPONENTIAL_CACHE_BYTES // (8 * 160**2))
    sizes = []
    for count in (100, 1000):
        signal = _distinct_dwell_signal(count)
        _simulate_all(signal)
        sizes.append(len(signal._exponentials))
    assert sizes[0] == sizes[1] <= slots < 100


def test_exponential_cache_budget_does_not_change_the_trajectory(
    demo_graphs, monkeypatch
):
    """An exponential computed once the cache is full is the same matrix the
    cache would have held, so a one-matrix budget gives the same bits."""

    def run():
        periodic = SwitchingSignal(demo_graphs, DEMO_SEGMENTS, 0.5, 4.0, periodic=True)
        finite = _distinct_dwell_signal(100)
        x0 = np.arange(8, dtype=float)
        states = (
            simulate(periodic, x0, 30.0, 0.5).states,
            _simulate_all(finite).states,
        )
        return states, (len(periodic._exponentials), len(finite._exponentials))

    default, default_sizes = run()
    monkeypatch.setattr(switching, "EXPONENTIAL_CACHE_BYTES", 1)
    small, small_sizes = run()
    assert default_sizes == (3, 81) and small_sizes == (1, 1)
    for expected, actual in zip(default, small):
        assert np.array_equal(expected, actual)
