"""Consensus verdicts for switched matrix-weighted networks.

Three complementary procedures are offered:

* :func:`periodic_consensus_verdict` decides consensus exactly for periodic
  signals: average the network over one period and check whether the
  averaged Laplacian's null space is exactly the agreement subspace.
* :func:`necessary_condition_scan` checks a necessary condition over a
  finite horizon of segments: it greedily tiles the horizon with minimal
  windows whose averaged Laplacian has agreement null space.  A suffix that
  never closes refutes consensus over that horizon and yields an explicit
  blocking direction.
* :func:`sufficient_condition_certificate` strengthens the scan into a
  certificate: if every greedy window's transition matrix contracts the
  disagreement by at least a uniform factor ``q < 1`` and the windows tile
  the horizon exactly, consensus is certified.

All verdicts carry machine-checkable certificates rather than bare booleans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import (
    BadThresholdError,
    IndexOrderError,
    IndexOutOfRangeError,
    InvalidSignalError,
)
from .graphs import Edge, GraphDimensions, MatrixWeightedGraph
from .spectral import (
    Definiteness,
    consensus_subspace,
    null_space_basis,
    symmetric_eigen,
)
from .switching import IntegralNetwork, SwitchingSignal, integral_network
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class TransitionMatrix:
    """State-transition matrix over segments ``start .. stop - 1``: the
    ordered product of the per-segment matrix exponentials, later segments
    applied on the left."""

    start: int
    stop: int
    matrix: NDArray[np.float64]


def transition_matrix(
    signal: SwitchingSignal, start: int, stop: int
) -> TransitionMatrix:
    """Ordered product ``exp(-L_{stop-1} dt_{stop-1}) ... exp(-L_start dt_start)``.

    Requires ``0 <= start < stop``; for finite signals ``stop`` must not
    exceed the segment count.
    """
    if start >= stop:
        raise IndexOrderError(f"need start < stop, got ({start}, {stop})")
    product = np.eye(signal.dims.stacked)
    for k in range(start, stop):
        product = signal.segment_exponential(k) @ product
    return TransitionMatrix(start=start, stop=stop, matrix=product)


@dataclass(frozen=True)
class ContractionReport:
    """Spectrum of ``Phi^T Phi`` (descending) and the contraction verdict.

    The top ``d`` eigenvalues equal 1 because the transition matrix acts as
    the identity on the agreement subspace; ``mu_next`` is eigenvalue
    ``d + 1``, the worst-case squared gain on disagreement directions.
    """

    eigenvalues: NDArray[np.float64]
    mu_next: float
    contracts: bool


def contraction_factor(
    phi: TransitionMatrix | NDArray[np.float64],
    dims: GraphDimensions,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ContractionReport:
    """Largest squared gain of a transition matrix outside the agreement
    subspace, and whether it is strictly below one.

    ``contracts`` requires ``mu_next < 1 - tolerances.mu_gap`` so that a
    verdict is never claimed on rounding noise.
    """
    matrix = phi.matrix if isinstance(phi, TransitionMatrix) else np.asarray(phi, float)
    gram = matrix.T @ matrix
    gram = (gram + gram.T) / 2.0
    report = symmetric_eigen(gram, tolerances)
    descending = report.eigenvalues[::-1].copy()
    mu_next = float(descending[dims.d])
    return ContractionReport(
        eigenvalues=descending,
        mu_next=mu_next,
        contracts=mu_next < 1.0 - tolerances.mu_gap,
    )


class _UnionFind:
    """Disjoint-set forest with path compression and union by rank."""

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.rank = [0] * size

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def positive_spanning_tree(
    network: MatrixWeightedGraph | IntegralNetwork,
) -> tuple[bool, tuple[Edge, ...]]:
    """Search for a spanning tree using only positive-definite edges.

    Edges are scanned in lexicographic order, so the returned tree is
    deterministic.  Returns ``(exists, tree_edges)``; when no such tree
    exists the edges of the largest positive-definite forest found are
    returned instead.
    """
    if isinstance(network, MatrixWeightedGraph):
        classified = {
            pair: weight.definiteness for pair, weight in network.edges.items()
        }
    else:
        classified = dict(network.edges)
    n = network.dims.n
    forest = _UnionFind(n)
    accepted: list[Edge] = []
    for pair in sorted(classified):
        if classified[pair] is Definiteness.POSITIVE_DEFINITE and forest.union(*pair):
            accepted.append(pair)
    return len(accepted) == n - 1, tuple(accepted)


class Decision(enum.Enum):
    CONSENSUS = "consensus"
    NO_CONSENSUS = "no_consensus"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Window:
    """A closed greedy window over segments ``start .. stop - 1``."""

    start: int
    stop: int
    span: tuple[float, float]
    mu_next: float | None = None


@dataclass(frozen=True)
class NullSpaceMatch:
    """The averaged Laplacian's null space equals the agreement subspace."""

    span: tuple[float, float]
    dimension: int


@dataclass(frozen=True)
class PositiveSpanningTree:
    """A spanning tree of positive-definite averaged edges."""

    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class NullSpaceObstruction:
    """A unit direction outside the agreement subspace annihilated by every
    segment Laplacian in the window: disagreement along it never decays."""

    window: tuple[int, int]
    witness: NDArray[np.float64]


@dataclass(frozen=True)
class UniformContraction:
    """Greedy windows tiling the horizon, each contracting by at least
    ``threshold``."""

    threshold: float
    windows: tuple[Window, ...]


@dataclass(frozen=True)
class HorizonExhausted:
    """The scan ran out of segments; ``windows`` are the greedy windows that
    did close."""

    horizon: int
    windows: tuple[Window, ...]


Certificate = (
    NullSpaceMatch
    | PositiveSpanningTree
    | NullSpaceObstruction
    | UniformContraction
    | HorizonExhausted
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a consensus check with its supporting certificates."""

    decision: Decision
    certificates: tuple[Certificate, ...] = field(default_factory=tuple)
    horizon: int | None = None


def _check_horizon(signal: SwitchingSignal, horizon: int) -> None:
    if horizon < 1:
        raise IndexOutOfRangeError(f"horizon must be at least 1, got {horizon}")
    if not signal.periodic and horizon > signal.partitions:
        raise IndexOutOfRangeError(
            f"horizon {horizon} exceeds segment count {signal.partitions}"
        )


def segment_laplacian_sum(
    signal: SwitchingSignal, start: int, stop: int
) -> NDArray[np.float64]:
    """Unweighted sum of the segment Laplacians over ``start .. stop - 1``.

    For positive semi-definite summands the null space of the sum is the
    intersection of the individual null spaces, which makes this the
    workhorse for window-closing tests: it asks the same question as the
    time-averaged Laplacian but is independent of the dwell durations.
    """
    if start >= stop:
        raise IndexOrderError(f"need start < stop, got ({start}, {stop})")
    total = np.zeros((signal.dims.stacked, signal.dims.stacked))
    for k in range(start, stop):
        total = total + signal.segment_laplacian(k)
    return total


def _window_closes(
    accumulated: NDArray[np.float64],
    dims: GraphDimensions,
    tolerances: Tolerances,
) -> bool:
    return null_space_basis(accumulated, dims, tolerances).equals_consensus


def _greedy_windows(
    signal: SwitchingSignal, horizon: int, tolerances: Tolerances
) -> tuple[list[tuple[int, int]], tuple[int, NDArray[np.float64]] | None]:
    """Greedily tile segments ``0 .. horizon - 1`` with minimal closed
    windows.

    Returns the closed windows and, if the final suffix never closes, the
    suffix start together with its accumulated Laplacian sum.
    """
    windows: list[tuple[int, int]] = []
    start = 0
    while start < horizon:
        accumulated = np.zeros((signal.dims.stacked, signal.dims.stacked))
        closed_at = None
        for stop in range(start + 1, horizon + 1):
            accumulated = accumulated + signal.segment_laplacian(stop - 1)
            if _window_closes(accumulated, signal.dims, tolerances):
                closed_at = stop
                break
        if closed_at is None:
            return windows, (start, accumulated)
        windows.append((start, closed_at))
        start = closed_at
    return windows, None


def _obstruction_witness(
    accumulated: NDArray[np.float64],
    dims: GraphDimensions,
    tolerances: Tolerances,
) -> NDArray[np.float64]:
    """A unit vector in the null space of the accumulated Laplacian sum with
    no agreement component (maximal disagreement direction that the window
    leaves untouched)."""
    report = null_space_basis(accumulated, dims, tolerances)
    agreement = consensus_subspace(dims).basis
    candidates = report.basis - agreement @ (agreement.T @ report.basis)
    norms = np.linalg.norm(candidates, axis=0)
    best = int(np.argmax(norms))
    witness = candidates[:, best] / norms[best]
    witness.setflags(write=False)
    return witness


def _window_value(
    signal: SwitchingSignal, start: int, stop: int, mu_next: float | None = None
) -> Window:
    return Window(
        start=start,
        stop=stop,
        span=(signal.switch_time(start), signal.switch_time(stop)),
        mu_next=mu_next,
    )


def periodic_consensus_verdict(
    signal: SwitchingSignal, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> Verdict:
    """Exact consensus decision for a periodic signal.

    The signal reaches average consensus from every initial state if and
    only if the Laplacian averaged over one period has the agreement
    subspace as its null space.  On success the certificate records the
    null-space match and, when one exists, a spanning tree of
    positive-definite averaged edges; on failure it carries a unit blocking
    direction that every segment Laplacian annihilates.
    """
    if not signal.periodic:
        raise InvalidSignalError(
            "periodic_consensus_verdict requires a periodic signal"
        )
    network = integral_network(signal, 0.0, signal.period, tolerances)
    report = null_space_basis(network.avg_laplacian, signal.dims, tolerances)
    if report.equals_consensus:
        certificates: list[Certificate] = [
            NullSpaceMatch(span=network.span, dimension=report.dimension)
        ]
        has_tree, tree_edges = positive_spanning_tree(network)
        if has_tree:
            certificates.append(PositiveSpanningTree(edges=tree_edges))
        return Verdict(Decision.CONSENSUS, tuple(certificates))
    accumulated = segment_laplacian_sum(signal, 0, signal.partitions)
    witness = _obstruction_witness(accumulated, signal.dims, tolerances)
    return Verdict(
        Decision.NO_CONSENSUS,
        (NullSpaceObstruction(window=(0, signal.partitions), witness=witness),),
    )


def necessary_condition_scan(
    signal: SwitchingSignal, horizon: int, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> Verdict:
    """Scan the first ``horizon`` segments for the necessary condition.

    Windows are closed greedily at the earliest segment index at which the
    accumulated null space collapses to the agreement subspace.  If the
    final suffix never closes, no information flows across some disagreement
    direction for the rest of the horizon: the verdict is NO_CONSENSUS over
    this horizon, with the blocking direction as witness.  If the whole
    horizon tiles into closed windows the necessary condition holds, which
    alone cannot certify consensus: the verdict is INCONCLUSIVE.
    """
    _check_horizon(signal, horizon)
    windows, open_suffix = _greedy_windows(signal, horizon, tolerances)
    closed = tuple(_window_value(signal, a, b) for a, b in windows)
    if open_suffix is not None:
        start, accumulated = open_suffix
        witness = _obstruction_witness(accumulated, signal.dims, tolerances)
        return Verdict(
            Decision.NO_CONSENSUS,
            (
                NullSpaceObstruction(window=(start, horizon), witness=witness),
                HorizonExhausted(horizon=horizon, windows=closed),
            ),
            horizon=horizon,
        )
    return Verdict(
        Decision.INCONCLUSIVE,
        (HorizonExhausted(horizon=horizon, windows=closed),),
        horizon=horizon,
    )


def sufficient_condition_certificate(
    signal: SwitchingSignal,
    horizon: int,
    q_threshold: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Certify consensus over a horizon via uniform window contraction.

    Greedy windows are closed as in :func:`necessary_condition_scan`; for
    each closed window the transition matrix is formed and its contraction
    factor computed.  If the windows tile the horizon exactly and every
    factor is at most ``q_threshold``, the disagreement shrinks geometrically
    across windows and consensus is certified.  Otherwise the verdict is
    INCONCLUSIVE, reporting the windows (with their factors) that were
    found.
    """
    if not (0.0 < q_threshold < 1.0):
        raise BadThresholdError(
            f"threshold must lie strictly inside (0, 1), got {q_threshold}"
        )
    _check_horizon(signal, horizon)
    windows, open_suffix = _greedy_windows(signal, horizon, tolerances)
    measured: list[Window] = []
    for start, stop in windows:
        phi = transition_matrix(signal, start, stop)
        factor = contraction_factor(phi, signal.dims, tolerances)
        measured.append(_window_value(signal, start, stop, factor.mu_next))
    tiles = open_suffix is None and bool(measured) and measured[-1].stop == horizon
    uniform = all(w.mu_next is not None and w.mu_next <= q_threshold for w in measured)
    if tiles and uniform:
        return Verdict(
            Decision.CONSENSUS,
            (UniformContraction(threshold=q_threshold, windows=tuple(measured)),),
            horizon=horizon,
        )
    return Verdict(
        Decision.INCONCLUSIVE,
        (HorizonExhausted(horizon=horizon, windows=tuple(measured)),),
        horizon=horizon,
    )
