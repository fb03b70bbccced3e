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
* :func:`sufficient_condition_certificate` takes the scan's verdict and
  strengthens it into a certificate over the same windows: if every
  window's transition matrix contracts the disagreement by at least a
  uniform factor ``q < 1`` and the windows tile the horizon exactly,
  consensus is certified.

All verdicts carry machine-checkable certificates rather than bare booleans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

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
    NullSpaceReport,
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
    eigenvalues, _ = symmetric_eigen(matrix.T @ matrix, tolerances)
    descending = eigenvalues[::-1].copy()
    mu_next = float(descending[dims.d])
    return ContractionReport(
        eigenvalues=descending,
        mu_next=mu_next,
        contracts=mu_next < 1.0 - tolerances.mu_gap,
    )


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
    parent = list(range(n))  # disjoint-set forest of the accepted edges

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    accepted: list[Edge] = []
    for pair in sorted(classified):
        if classified[pair] is Definiteness.POSITIVE_DEFINITE:
            root_i, root_j = find(pair[0]), find(pair[1])
            if root_i != root_j:
                parent[root_j] = root_i
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


def _greedy_windows(
    signal: SwitchingSignal, horizon: int, tolerances: Tolerances
) -> tuple[tuple[Window, ...], NullSpaceObstruction | None]:
    """Greedily tile segments ``0 .. horizon - 1`` with minimal closed
    windows.

    Each window closes at the first segment at which the running Laplacian
    sum has the agreement subspace as null space.  Returns the closed
    windows and, if the final suffix never closes, its obstruction, whose
    witness comes from the null space of the suffix's last test.
    """
    windows: list[Window] = []
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


def _obstruction_witness(
    report: NullSpaceReport, dims: GraphDimensions
) -> NDArray[np.float64]:
    """A unit vector in the reported null space with no agreement component
    (maximal disagreement direction that the window leaves untouched)."""
    agreement = consensus_subspace(dims)
    candidates = report.basis - agreement @ (agreement.T @ report.basis)
    norms = np.linalg.norm(candidates, axis=0)
    best = int(np.argmax(norms))
    witness = candidates[:, best] / norms[best]
    witness.setflags(write=False)
    return witness


def periodic_consensus_verdict(
    signal: SwitchingSignal, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> Verdict:
    """Exact consensus decision for a periodic signal.

    The signal reaches average consensus from every initial state if and
    only if the Laplacian averaged over one period has the agreement
    subspace as its null space.  On success the certificate records the
    null-space match and, when one exists, a spanning tree of
    positive-definite averaged edges; on failure it carries a unit blocking
    direction from the same null space, which every segment Laplacian of
    the period annihilates.
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
    witness = _obstruction_witness(report, signal.dims)
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
    if horizon < 1:
        raise IndexOutOfRangeError(f"horizon must be at least 1, got {horizon}")
    if not signal.periodic and horizon > signal.partitions:
        raise IndexOutOfRangeError(
            f"horizon {horizon} exceeds segment count {signal.partitions}"
        )
    windows, obstruction = _greedy_windows(signal, horizon, tolerances)
    exhausted = HorizonExhausted(horizon=horizon, windows=windows)
    if obstruction is not None:
        return Verdict(Decision.NO_CONSENSUS, (obstruction, exhausted), horizon=horizon)
    return Verdict(Decision.INCONCLUSIVE, (exhausted,), horizon=horizon)


def sufficient_condition_certificate(
    signal: SwitchingSignal,
    scan: Verdict,
    q_threshold: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Strengthen a :func:`necessary_condition_scan` verdict into a
    consensus certificate via uniform window contraction.

    For each window the scan closed, the transition matrix is formed and
    its contraction factor computed.  If the windows tile the scan's
    horizon exactly (the scan is INCONCLUSIVE rather than NO_CONSENSUS)
    and every factor is at most ``q_threshold``, the disagreement shrinks
    geometrically across windows and consensus is certified.  Otherwise
    the verdict is INCONCLUSIVE, reporting the windows with their factors.
    """
    if not (0.0 < q_threshold < 1.0):
        raise BadThresholdError(
            f"threshold must lie strictly inside (0, 1), got {q_threshold}"
        )
    exhausted = next(
        (c for c in scan.certificates if isinstance(c, HorizonExhausted)), None
    )
    if exhausted is None:
        raise TypeError("scan must be a verdict of necessary_condition_scan")
    measured: list[Window] = []
    for window in exhausted.windows:
        phi = transition_matrix(signal, window.start, window.stop)
        factor = contraction_factor(phi, signal.dims, tolerances)
        measured.append(replace(window, mu_next=factor.mu_next))
    horizon = exhausted.horizon
    if scan.decision is Decision.INCONCLUSIVE and all(
        window.mu_next <= q_threshold for window in measured
    ):
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
