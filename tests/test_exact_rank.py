"""Tolerance-free check of the null-space decisions: the exact rank of an
integral Laplacian.

Every dwell and weight is a float, so an exact rational, and the integral
Laplacian ``sum_k dwell_k L_k`` of a window or a period, times the common
denominator of its entries, is an integer matrix ``M``.  The agreement
subspace lies in its null space, so ``rank(M) <= nd - d``, and its rank mod
a prime ``p`` is at most its rank.  A rank of ``nd - d`` mod ``p`` therefore
proves that the null space is exactly the agreement subspace: the window
closes, or the periodic signal reaches consensus.  A smaller rank mod ``p``
proves nothing, since ``p`` may divide a minor.

The converse, that a float NO_CONSENSUS or an open window is wrong when the
exact rank is ``nd - d``, holds only where the weights are exactly rank
deficient, as in the demo family's integer weights.  The random instances
draw PSD weights as ``factor @ factor.T``, rounded, so many of them are
exactly full rank where the float classifier rightly calls them PSD.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from matconsensus import (
    Decision,
    HorizonExhausted,
    necessary_condition_scan,
    parse_scenario,
    periodic_consensus_verdict,
)
from conftest import SEED, benchmark_scenario, random_signal, stiff_demo

# a Mersenne prime: the elimination's products stay Python ints of 122 bits
PRIME = 2**61 - 1


def integral_laplacian_exact(signal, start, stop):
    """``sum_k dwell_k L_k`` over segments ``start .. stop - 1`` from the
    exact dwells and edge weights, times the common denominator of its
    entries: rows of Python ints."""
    d = signal.dims.d
    size = signal.dims.n * d
    total = [[Fraction(0)] * size for _ in range(size)]
    for k in range(start, stop):
        dwell = signal.switch_time_exact(k + 1) - signal.switch_time_exact(k)
        graph = signal.graphs[signal.segment_graph_index(k)]
        for (i, j), weight in graph.edges.items():
            for a, row in enumerate(weight.entries.tolist()):
                for b, entry in enumerate(row):
                    term = dwell * Fraction(entry)
                    total[i * d + a][i * d + b] += term
                    total[j * d + a][j * d + b] += term
                    total[i * d + a][j * d + b] -= term
                    total[j * d + a][i * d + b] -= term
    scale = math.lcm(*(entry.denominator for row in total for entry in row))
    return [[int(entry * scale) for entry in row] for row in total]


def rank_mod_prime(matrix):
    """Rank of a square integer matrix mod ``PRIME``, by Gaussian
    elimination."""
    rows = [[entry % PRIME for entry in row] for row in matrix]
    rank = 0
    for column in range(len(rows)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][column]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][column], -1, PRIME)
        lead = [entry * inverse % PRIME for entry in rows[rank]]
        rows[rank] = lead
        for r in range(rank + 1, len(rows)):
            factor = rows[r][column]
            if factor:
                rows[r] = [(x - factor * y) % PRIME for x, y in zip(rows[r], lead)]
        rank += 1
    return rank


def proven_agreement_only(signal, start, stop):
    """Whether the exact rank proves that the null space of the integral
    Laplacian of segments ``start .. stop - 1`` is the agreement subspace."""
    dims = signal.dims
    rank = rank_mod_prime(integral_laplacian_exact(signal, start, stop))
    return rank == dims.n * dims.d - dims.d


@pytest.mark.parametrize("power", range(21))
def test_demo_family_period_is_proven_to_reach_consensus(demo_graphs, power):
    """The stiff demo's period has exact rank ``nd - d`` at every scale."""
    signal = stiff_demo(demo_graphs, 10.0**power)
    assert proven_agreement_only(signal, 0, signal.partitions)


@pytest.mark.parametrize("power", range(8))
def test_demo_family_verdicts_agree_with_the_exact_rank(demo_graphs, power):
    """The periodic verdict is CONSENSUS, which the exact rank proves, and
    the scan's closed windows are proven closed.  The demo's weights are
    exactly rank deficient integers, so an open window of exact rank
    ``nd - d`` would be a wrong verdict too."""
    signal = stiff_demo(demo_graphs, 10.0**power)
    assert periodic_consensus_verdict(signal).decision is Decision.CONSENSUS
    scan = necessary_condition_scan(signal, 9)
    (exhausted,) = [c for c in scan.certificates if isinstance(c, HorizonExhausted)]
    start = 0
    for window in exhausted.windows:
        assert proven_agreement_only(signal, window.start, window.stop)
        for stop in range(window.start + 1, window.stop):
            assert not proven_agreement_only(signal, window.start, stop)
        start = window.stop
    for stop in range(start + 1, 10):
        assert not proven_agreement_only(signal, start, stop)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1 (the scale-free decision kernel): from 1e8 on the "
    "period's exact rank is nd - d, so the signal reaches consensus, but the "
    "null-space cutoff, relative to the stiff edge, swallows the weak edges' "
    "eigenvalues and the periodic verdict reads NO_CONSENSUS",
)
def test_demo_family_verdicts_agree_with_the_exact_rank_from_1e8(demo_graphs):
    for power in range(8, 21):
        signal = stiff_demo(demo_graphs, 10.0**power)
        assert periodic_consensus_verdict(signal).decision is Decision.CONSENSUS


def test_closed_windows_of_the_random_instances_are_proven():
    """Every window the scan closes on the certificate audit's random
    instances has exact rank ``nd - d``.  Open windows and obstructions are
    not refuted: their rounded PSD weights may be exactly full rank."""
    rng = np.random.default_rng(SEED)
    for _ in range(220):
        signal = random_signal(rng)
        scan = necessary_condition_scan(signal, signal.partitions)
        (exhausted,) = [c for c in scan.certificates if isinstance(c, HorizonExhausted)]
        for window in exhausted.windows:
            assert proven_agreement_only(signal, window.start, window.stop), window


def test_periodic_mid_verdict_is_proven():
    """Seed-0 periodic-mid of the benchmark, n = 60 and d = 3: the period's
    exact rank is ``nd - d = 177``, which proves its CONSENSUS verdict."""
    scenario = parse_scenario(benchmark_scenario("periodic-mid", 0))
    signal = scenario.signal
    exact = integral_laplacian_exact(signal, 0, signal.partitions)
    assert rank_mod_prime(exact) == 177 == signal.dims.n * signal.dims.d - signal.dims.d
    verdict = periodic_consensus_verdict(signal, scenario.tolerances)
    assert verdict.decision is Decision.CONSENSUS
