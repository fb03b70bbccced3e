"""Piecewise-constant switching between matrix-weighted graphs, and the
time-averaged ("integral") network over a span.

A switching signal is a sequence of segments ``(graph_index, dwell)``: the
network topology is ``graphs[graph_index]`` for ``dwell`` time units, then
switches instantaneously.  Dwell durations are constrained to a configured
interval ``[alpha, beta]`` with ``0 < alpha <= beta``.  A periodic signal
repeats its segments forever; it must contain more than two segments per
period.

Switch instants are tracked exactly as :class:`fractions.Fraction` values so
that span bookkeeping (segment lookup, overlap quadrature for the averaged
network) has no rounding drift, while all matrix arithmetic stays in floats.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ModelError, as_float, as_index
from .graphs import Edge, GraphDimensions, MatrixWeightedGraph, WeightMatrix, laplacian
from .spectral import Definiteness, classify_definiteness, symmetric_eigen
from .tolerances import DEFAULT_TOLERANCES, Tolerances


# Bytes of segment exponentials one signal keeps, at most; at least one
# matrix is kept whatever its size.  16 MiB holds a full period of a
# 12-segment periodic signal with nd = 400.
EXPONENTIAL_CACHE_BYTES = 16 * 2**20


def same_instant(a: float | Fraction, b: float | Fraction) -> bool:
    """Whether two times differ by no more than rounding."""
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


class SwitchingSignal:
    """A sequence of graph segments with dwell-time bounds, finite or
    repeated forever.

    Parameters
    ----------
    graphs:
        The pool of graphs the signal switches between; all must share the
        same dimensions.
    segments:
        Sequence of ``(graph_index, dwell)`` pairs, in time order.
    alpha, beta:
        Dwell-time bounds; every dwell must satisfy
        ``alpha <= dwell <= beta`` with ``0 < alpha <= beta``.
    periodic:
        Repeat the segments forever.  The period is the dwell sum, and a
        period needs more than two segments.

    Segment indices are global: segment ``k`` of a periodic signal is
    segment ``k mod m`` of the list, shifted by ``floor(k / m)`` periods.
    """

    def __init__(
        self,
        graphs: Sequence[MatrixWeightedGraph],
        segments: Sequence[tuple[int, float]],
        alpha: float,
        beta: float,
        periodic: bool = False,
    ) -> None:
        graphs = tuple(graphs)
        if not graphs:
            raise ModelError("at least one graph is required")
        dims = graphs[0].dims
        for index, graph in enumerate(graphs):
            if graph.dims != dims:
                raise ModelError(
                    f"graph {index} has dimensions {graph.dims}, expected {dims}"
                )
        alpha = as_float(alpha, "alpha", finite=False)
        beta = as_float(beta, "beta", finite=False)
        if not (0 < alpha <= beta):
            raise ModelError(
                f"dwell bounds must satisfy 0 < alpha <= beta, "
                f"got alpha={alpha}, beta={beta}"
            )
        segments = tuple(
            (
                as_index(g, f"segment {k} graph index"),
                as_float(dt, f"segment {k} dwell"),
            )
            for k, (g, dt) in enumerate(segments)
        )
        if not segments:
            raise ModelError("a switching signal needs at least one segment")
        for k, (g, dt) in enumerate(segments):
            if not (0 <= g < len(graphs)):
                raise ModelError(
                    f"segment {k} references graph {g}, "
                    f"but only {len(graphs)} graphs were given"
                )
            if not (alpha <= dt <= beta):
                raise ModelError(
                    f"segment {k} dwell {dt} outside [{alpha}, {beta}]"
                )
        if periodic and len(segments) <= 2:
            raise ModelError(
                "a periodic signal needs more than two segments per period, "
                f"got {len(segments)}"
            )

        self.dims: GraphDimensions = dims
        self.graphs = graphs
        self.segments = segments
        self.alpha = alpha
        self.beta = beta
        self.periodic = bool(periodic)

        times = [Fraction(0)]
        for _, dt in segments:
            times.append(times[-1] + Fraction(dt))
        self._times: tuple[Fraction, ...] = tuple(times)
        # duration of one pass through the segments, t_m
        self.period_exact: Fraction = times[-1]
        self.period: float = self.switch_time(len(segments))

        self._laplacians: dict[int, NDArray[np.float64]] = {}
        self._eigensystems: dict[int, tuple[NDArray, NDArray]] = {}
        self._exponentials: dict[tuple[int, float], NDArray[np.float64]] = {}

    # -- structure ----------------------------------------------------------

    @property
    def partitions(self) -> int:
        """Number of segments in one pass (per period, if periodic)."""
        return len(self.segments)

    @property
    def segment_count(self) -> int | None:
        """Number of segments; ``None`` for a periodic signal."""
        return None if self.periodic else len(self.segments)

    @property
    def total_duration(self) -> float:
        return math.inf if self.periodic else self.period

    def _locate(self, k: int) -> tuple[int, int]:
        """``(cycle, index)`` of global segment ``k`` in the segment list."""
        k = as_index(k, "segment index")
        m = len(self.segments)
        if k < 0 or (k >= m and not self.periodic):
            raise ModelError(
                f"segment index {k} outside [0, {'inf' if self.periodic else m})"
            )
        return divmod(k, m)

    def switch_time_exact(self, k: int) -> Fraction:
        """Exact switch instant ``t_k``, the start of segment ``k``; a finite
        signal also has ``t_m``, its end."""
        k = as_index(k, "segment index")
        if k == len(self.segments) and not self.periodic:
            return self._times[k]
        cycle, index = self._locate(k)
        return cycle * self.period_exact + self._times[index]

    def switch_time(self, k: int) -> float:
        try:
            return float(self.switch_time_exact(k))
        except OverflowError:
            raise ModelError(
                f"switch instant t_{k}, the sum of the first {k} dwells, "
                "is beyond the float range"
            ) from None

    def segment_graph_index(self, k: int) -> int:
        return self.segments[self._locate(k)[1]][0]

    def segment_index_at(self, t: float | Fraction) -> int:
        """Index of the segment active at time ``t`` (``t_k <= t < t_k+1``)."""
        tf = t if isinstance(t, Fraction) else Fraction(as_float(t, "time"))
        if tf < 0 or (not self.periodic and tf >= self.period_exact):
            raise ModelError(
                f"time {t} outside [0, {self.total_duration})"
            )
        cycle, rest = divmod(tf, self.period_exact)
        return int(cycle) * len(self.segments) + bisect_right(self._times, rest) - 1

    def segments_from(
        self, k: int, end: float | Fraction
    ) -> Iterator[tuple[int, Fraction, Fraction]]:
        """Yield ``(k, t_k, t_k+1)`` with exact switch instants for segment
        ``k`` and each later segment, as long as it starts before ``end``.  A
        finite signal stops after its last segment."""
        t_k = self.switch_time_exact(k)
        while t_k < end and (self.periodic or k < len(self.segments)):
            t_next = self.switch_time_exact(k + 1)
            yield k, t_k, t_next
            k, t_k = k + 1, t_next

    def snap_to_end(self, t: float | Fraction, what: str) -> float | Fraction:
        """``t``, or the end of a finite signal if ``t`` is past it by no more
        than rounding.  A ``t`` further past raises :class:`ModelError`
        whose message starts with ``what``, the caller's name for ``t``."""
        if self.periodic or t <= self.period_exact:
            return t
        if same_instant(t, self.period_exact):
            return self.period_exact
        raise ModelError(f"{what} exceeds signal duration {self.period}")

    # -- cached per-segment numerics -----------------------------------------

    def segment_laplacian(self, k: int) -> NDArray[np.float64]:
        g = self.segment_graph_index(k)
        cached = self._laplacians.get(g)
        if cached is None:
            cached = laplacian(self.graphs[g])
            self._laplacians[g] = cached
        return cached

    def segment_eigensystem(self, k: int) -> tuple[NDArray, NDArray]:
        """Eigenvalues and eigenvectors of the segment's Laplacian, cached
        per distinct graph."""
        g = self.segment_graph_index(k)
        cached = self._eigensystems.get(g)
        if cached is None:
            cached = symmetric_eigen(self.segment_laplacian(k))
            self._eigensystems[g] = cached
        return cached

    def segment_exponential(self, k: int) -> NDArray[np.float64]:
        """``exp(-L_k * dwell_k)`` for segment ``k``, formed from the
        segment's eigensystem and symmetrised, cached per ``(graph, dwell)``
        pair within ``EXPONENTIAL_CACHE_BYTES``.

        The cache fills in first-use order and then stops: a pair met once
        it is full is computed on every use.  A periodic walk visits its
        pairs cyclically, so an evicting cache smaller than one period would
        never hit, while this one keeps hitting on the pairs it holds.
        """
        key = self.segments[self._locate(k)[1]]  # (graph, dwell)
        cached = self._exponentials.get(key)
        if cached is None:
            values, vectors = self.segment_eigensystem(k)
            result = (vectors * np.exp(-values * key[1])) @ vectors.T
            cached = (result + result.T) / 2.0
            cached.setflags(write=False)
            slots = max(1, EXPONENTIAL_CACHE_BYTES // cached.nbytes)
            if len(self._exponentials) < slots:
                self._exponentials[key] = cached
        return cached


def integral_network(
    signal: SwitchingSignal,
    t_start: float,
    t_end: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[MatrixWeightedGraph, NDArray[np.float64]]:
    """Average the switching network over ``[t_start, t_end)``.

    Returns ``(averaged, avg_laplacian)``.  ``avg_laplacian`` is the
    read-only time average of the segment Laplacians.  ``averaged`` is the
    matrix-weighted graph read off it: the weight of pair ``i < j`` is its
    off-diagonal block negated as ``0.0 - block``, which is the segments'
    weights averaged over the span with every zero entry ``+0.0``; a pair
    whose block classifies as zero is no edge.

    Each position of the segment list gets its exact total time in the
    span: whole periods times its dwell plus the clamped overlap of the
    partial periods, in rational arithmetic, so the weights sum to one and
    spans aligned with a single segment reproduce that segment's matrices
    value for value; zero entries are ``+0.0``.  The positions are
    accumulated once each, in time order from the one active at
    ``t_start``, so the cost does not grow with the span: where no position
    recurs in the span this is the segment-by-segment sum, and a recurring
    position's weight is rounded once.  The non-zero blocks are classified
    together, in one stacked call.
    """
    start = Fraction(as_float(t_start, "span start"))
    end = Fraction(as_float(t_end, "span end"))
    if start < 0:
        raise ModelError(f"span start {t_start} must be non-negative")
    if end <= start:
        raise ModelError(f"span [{t_start}, {t_end}) is empty")
    end = signal.snap_to_end(end, f"span end {t_end}")
    span = end - start
    m = signal.partitions
    first = signal.segment_index_at(start) % m
    start_cycle, start_rest = divmod(start, signal.period_exact)
    end_cycle, end_rest = divmod(end, signal.period_exact)

    avg_lap = np.zeros((signal.dims.stacked, signal.dims.stacked))
    for k in ((first + i) % m for i in range(m)):
        t_k = signal.switch_time_exact(k)
        dwell = signal.switch_time_exact(k + 1) - t_k
        overlap = (
            (end_cycle - start_cycle) * dwell
            + min(max(end_rest - t_k, 0), dwell)
            - min(max(start_rest - t_k, 0), dwell)
        )
        if overlap != 0:
            avg_lap += float(overlap / span) * signal.segment_laplacian(k)

    n, d = signal.dims.n, signal.dims.d
    blocks = avg_lap.reshape(n, d, n, d).transpose(0, 2, 1, 3)  # block (i, j)
    rows, cols = np.nonzero(np.triu(blocks.any(axis=(2, 3)), k=1))
    edges: dict[Edge, WeightMatrix] = {}
    if len(rows):
        stack = 0.0 - blocks[rows, cols]  # 0.0 - x: no -0.0 entries
        stack.setflags(write=False)
        kinds = classify_definiteness(stack, tolerances)
        for i, j, entries, kind in zip(rows.tolist(), cols.tolist(), stack, kinds):
            if kind is not Definiteness.ZERO:
                edges[i, j] = WeightMatrix(entries=entries, definiteness=kind)

    avg_lap.setflags(write=False)
    return MatrixWeightedGraph(dims=signal.dims, edges=edges), avg_lap

