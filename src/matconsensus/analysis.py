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

from .errors import ModelError
from .graphs import Edge, GraphDimensions, MatrixWeightedGraph
from .spectral import (
    Definiteness,
    NullSpaceReport,
    consensus_subspace,
    null_space_basis,
    symmetric_eigen,
)
from .switching import SwitchingSignal, integral_network
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
        raise ModelError(f"need start < stop, got ({start}, {stop})")
    product = signal.segment_exponential(start)
    for k in range(start + 1, stop):
        product = signal.segment_exponential(k) @ product
    return TransitionMatrix(start=start, stop=stop, matrix=product)


@dataclass(frozen=True)
class ContractionReport:
    """The contraction verdict from the spectrum of ``Phi^T Phi``.

    The top ``d`` eigenvalues equal 1 because the transition matrix acts as
    the identity on the agreement subspace; ``mu_next`` is eigenvalue
    ``d + 1`` from the top, the worst-case squared gain on disagreement
    directions.
    """

    mu_next: float
    contracts: bool


def contraction_factor(
    phi: TransitionMatrix,
    dims: GraphDimensions,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ContractionReport:
    """Largest squared gain of a transition matrix outside the agreement
    subspace, and whether it is strictly below one.

    ``contracts`` requires ``mu_next < 1 - tolerances.mu_gap`` so that a
    verdict is never claimed on rounding noise.
    """
    eigenvalues, _ = symmetric_eigen(phi.matrix.T @ phi.matrix, tolerances)
    mu_next = float(eigenvalues[-1 - dims.d])
    return ContractionReport(mu_next=mu_next, contracts=mu_next < 1.0 - tolerances.mu_gap)


def positive_spanning_tree(
    graph: MatrixWeightedGraph,
) -> tuple[bool, tuple[Edge, ...]]:
    """Search for a spanning tree using only positive-definite edges.

    Edges are scanned in lexicographic order, so the returned tree is
    deterministic.  Returns ``(exists, tree_edges)``; when no such tree
    exists the edges of the largest positive-definite forest found are
    returned instead.
    """
    n = graph.dims.n
    parent = list(range(n))  # disjoint-set forest of the accepted edges

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    accepted: list[Edge] = []
    for pair in sorted(graph.edges):
        if graph.edges[pair].definiteness is Definiteness.POSITIVE_DEFINITE:
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


# A bound decides a window test only when it clears the exact kernel's
# cutoff ``null_space * max(1, lambda_max)`` by this factor, the knife-edge
# band of the randomized suites; anything closer goes to the kernel.
_BAND = 1e3


class _WindowBounds:
    """Certified bounds on the exact window test, for the growing windows
    that start at segment ``start``.

    ``decide(k, accumulated)`` returns False or True only where the exact
    kernel must give that answer on ``accumulated``, the Laplacian sum of
    segments ``start .. k``, and None otherwise.  It keeps an orthonormal
    basis ``N`` with ``lambda_max(N^T A N) <= eps`` (see
    :func:`_greedy_windows`): the eigenvectors of the first segment's
    cached eigensystem with eigenvalues at most ``eps``, then, while ``N``
    has more than ``d`` columns, ``N U`` at each later segment, with ``U``
    the eigenvectors of ``N^T A N`` whose eigenvalues are at most ``eps``.
    """

    def __init__(self, signal: SwitchingSignal, start: int, tolerances: Tolerances):
        self.signal = signal
        self.start = start
        self.null_space = tolerances.null_space
        self.psd = tolerances.psd
        # the bounds hold up to eigensolver rounding, about nd machine
        # epsilons relative, which the tolerances must clear by the band
        self.usable = min(self.null_space, self.psd) >= (
            _BAND * signal.dims.stacked * np.finfo(float).eps
        )
        # no open bound until the first test seeds the basis
        self.basis = np.empty((signal.dims.stacked, 0))
        self.floor = 0.0  # sum of the segments' smallest eigenvalues

    def decide(self, k: int, accumulated: NDArray[np.float64]) -> bool | None:
        if not self.usable:
            return None
        values, vectors = self.signal.segment_eigensystem(k)
        self.floor += min(0.0, float(values[0]))
        gershgorin = float(np.max(np.sum(np.abs(accumulated), axis=1)))
        if not np.isfinite(2.0 * gershgorin):
            return None
        scale = max(1.0, float(np.max(np.diagonal(accumulated))))
        if self.floor < -self.psd * scale / _BAND:
            return None
        eps = self.null_space * scale / _BAND
        d = self.signal.dims.d
        if k == self.start:  # the sum is this segment's Laplacian
            self.basis = vectors[:, values <= eps]
        elif self.basis.shape[1] > d:
            projected = self.basis.T @ (accumulated @ self.basis)
            small, rotation = np.linalg.eigh(projected / 2.0 + projected.T / 2.0)
            self.basis = self.basis @ rotation[:, small <= eps]
        if self.basis.shape[1] > d:
            return False
        agreement = consensus_subspace(self.signal.dims)
        if np.linalg.norm(accumulated @ agreement) > eps:
            return None
        lift = max(1.0, gershgorin)
        shifted = accumulated + lift * (agreement @ agreement.T)
        shifted[np.diag_indices_from(shifted)] -= _BAND * self.null_space * lift
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return None
        return True


def _greedy_windows(
    signal: SwitchingSignal, horizon: int, tolerances: Tolerances
) -> tuple[tuple[Window, ...], NullSpaceObstruction | None]:
    """Greedily tile segments ``0 .. horizon - 1`` with minimal closed
    windows.

    Each window closes at the first segment at which the running Laplacian
    sum ``A`` has the agreement subspace as null space, as decided by
    :func:`null_space_basis`: at most ``d`` eigenvalues at or below the
    cutoff ``null_space * max(1, lambda_max(A))``, and ``A Q`` within it for
    the agreement basis ``Q``.  Returns the closed windows and, if the final
    suffix never closes, its obstruction, whose witness comes from the null
    space of the suffix's last test.

    Cheap bounds decide a test when they clear that cutoff by ``_BAND``
    either way; the exact kernel decides every other test, and always the
    horizon's last one, so the witness has the kernel's bits.  With ``eps =
    null_space * max(1, max diag A) / _BAND``, which is at most the cutoff
    over ``_BAND`` because ``lambda_max >= max diag A``:

    * *Open.*  An orthonormal ``N`` with more than ``d`` columns and
      ``lambda_max(N^T A N) <= eps`` gives ``lambda_{d+1}(A) <= eps`` by
      Courant-Fischer, so the kernel counts more than ``d`` zero
      eigenvalues.
    * *Closed.*  With ``g`` the Gershgorin bound of ``A``, ``c = max(1, g)``
      and ``tau = _BAND * null_space * c``, a Cholesky factorisation of
      ``A + c Q Q^T - tau I`` proves ``lambda_min(A + c Q Q^T) > tau``; the
      rank-``d`` term can lower only ``d`` eigenvalues, so
      ``lambda_{d+1}(A) > tau``, ``_BAND`` times the cutoff.  Cholesky's
      backward error, about ``nd * eps_machine * g``, is far below ``tau``.
      ``||A Q||_F <= eps`` puts the other ``d`` eigenvalues within ``2 eps``
      of zero and passes the kernel's residual test, ``max|A Q|`` within
      the cutoff.

    The kernel also rejects a sum with an eigenvalue below
    ``-psd * max(1, lambda_max)``; the bounds apply only while the sum of the
    segments' smallest eigenvalues, a lower bound on ``lambda_min(A)``, is
    within ``psd * max(1, max diag A) / _BAND`` of zero, and only when
    ``null_space`` and ``psd`` clear the eigensolver's rounding, about
    ``nd`` machine epsilons, by ``_BAND``.
    """
    windows: list[Window] = []
    start = 0
    while start < horizon:
        accumulated = np.zeros((signal.dims.stacked, signal.dims.stacked))
        bounds = _WindowBounds(signal, start, tolerances)
        for stop in range(start + 1, horizon + 1):
            accumulated = accumulated + signal.segment_laplacian(stop - 1)
            closed = bounds.decide(stop - 1, accumulated) if stop < horizon else None
            if closed is None:
                report = null_space_basis(accumulated, signal.dims, tolerances)
                closed = report.equals_consensus
            if closed:
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
        raise ModelError(
            "periodic_consensus_verdict requires a periodic signal"
        )
    averaged, avg_laplacian = integral_network(signal, 0.0, signal.period, tolerances)
    report = null_space_basis(avg_laplacian, signal.dims, tolerances)
    if report.equals_consensus:
        certificates: list[Certificate] = [
            NullSpaceMatch(span=(0.0, signal.period), dimension=report.dimension)
        ]
        has_tree, tree_edges = positive_spanning_tree(averaged)
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
        raise ModelError(f"horizon must be at least 1, got {horizon}")
    if not signal.periodic and horizon > signal.partitions:
        raise ModelError(
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
    and every factor is at most ``q_threshold`` and below ``1 -
    tolerances.mu_gap``, the disagreement shrinks geometrically across
    windows and consensus is certified.  Otherwise the verdict is
    INCONCLUSIVE, reporting the windows with their factors.
    """
    if not (0.0 < q_threshold < 1.0):
        raise ModelError(
            f"threshold must lie strictly inside (0, 1), got {q_threshold}"
        )
    exhausted = next(
        (c for c in scan.certificates if isinstance(c, HorizonExhausted)), None
    )
    if exhausted is None:
        raise TypeError("scan must be a verdict of necessary_condition_scan")
    measured: list[Window] = []
    uniform = scan.decision is Decision.INCONCLUSIVE
    for window in exhausted.windows:
        phi = transition_matrix(signal, window.start, window.stop)
        factor = contraction_factor(phi, signal.dims, tolerances)
        measured.append(replace(window, mu_next=factor.mu_next))
        uniform = uniform and factor.contracts and factor.mu_next <= q_threshold
    horizon = exhausted.horizon
    if uniform:
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
