"""Undirected graphs whose edges carry symmetric positive (semi-)definite
matrix weights, and the block Laplacians they induce.

Nodes are indexed ``0..n-1``; each node carries a state vector of dimension
``d``.  An edge ``(i, j)`` holds a symmetric ``d x d`` weight that is either
positive definite or positive semi-definite — zero or indefinite weights are
rejected at construction time, so "no entry" is the only encoding of "no
edge".  Graph values are immutable: :func:`set_edge` returns a new graph.
The integral network is such a graph too: its averaged weights are built
directly and keep whatever non-zero class they are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from .errors import ModelError
from .spectral import Definiteness, classify_definiteness, require_symmetric
from .tolerances import DEFAULT_TOLERANCES, Tolerances

Edge = tuple[int, int]


@dataclass(frozen=True)
class GraphDimensions:
    """Number of nodes ``n`` and per-node state dimension ``d``."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ModelError(f"need at least 2 nodes, got n={self.n}")
        if self.d < 1:
            raise ModelError(f"need dimension >= 1, got d={self.d}")

    @property
    def stacked(self) -> int:
        """Length of the stacked network state vector, ``n * d``."""
        return self.n * self.d


@dataclass(frozen=True)
class WeightMatrix:
    """An edge weight and its class: symmetric and PD or PSD from
    :func:`set_edge`; an averaged weight keeps whatever non-zero class it
    is given."""

    entries: NDArray[np.float64]
    definiteness: Definiteness


@dataclass(frozen=True)
class MatrixWeightedGraph:
    """An immutable matrix-weighted graph.

    ``edges`` maps node pairs ``(i, j)`` with ``i < j`` to their weights.
    """

    dims: GraphDimensions
    edges: Mapping[Edge, WeightMatrix] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))

    def has_edge(self, i: int, j: int) -> bool:
        return _ordered(i, j) in self.edges

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _ordered(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


def new_graph(dims: GraphDimensions) -> MatrixWeightedGraph:
    """An edgeless graph on ``dims.n`` nodes."""
    return MatrixWeightedGraph(dims=dims)


def set_edge(
    graph: MatrixWeightedGraph,
    i: int,
    j: int,
    weight: NDArray[np.float64],
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> MatrixWeightedGraph:
    """Return a new graph with edge ``(i, j)`` set to ``weight``.

    The weight must be a symmetric ``d x d`` matrix that classifies as
    positive definite or positive semi-definite.  Asymmetry beyond tolerance,
    indefiniteness, (numerically) zero weights and non-finite entries are
    each rejected with a :class:`ModelError` whose message names the fault.
    Symmetric rounding noise is removed by storing ``W/2 + W^T/2``, which
    does not overflow.
    """
    n, d = graph.dims.n, graph.dims.d
    if not (0 <= i < n and 0 <= j < n):
        raise ModelError(
            f"node indices must lie in [0, {n}), got ({i}, {j})"
        )
    if i == j:
        raise ModelError(f"self-loop at node {i} is not allowed")
    weight = np.asarray(weight, dtype=float)
    if weight.shape != (d, d):
        raise ModelError(
            f"weight must be {d}x{d}, got shape {weight.shape}"
        )
    require_symmetric(weight, tolerances.symmetry, what=f"weight for edge ({i}, {j})")
    half = weight / 2.0
    symmetric = half + half.T
    definiteness = classify_definiteness(symmetric, tolerances)
    if definiteness is Definiteness.ZERO:
        raise ModelError(
            f"weight for edge ({i}, {j}) is zero within tolerance; "
            "omit the edge instead"
        )
    if definiteness is Definiteness.INDEFINITE:
        raise ModelError(
            f"weight for edge ({i}, {j}) is indefinite"
        )
    symmetric.setflags(write=False)
    edges = dict(graph.edges)
    edges[_ordered(i, j)] = WeightMatrix(entries=symmetric, definiteness=definiteness)
    return MatrixWeightedGraph(dims=graph.dims, edges=edges)


def adjacency_matrix(graph: MatrixWeightedGraph) -> NDArray[np.float64]:
    """The stacked ``nd x nd`` block adjacency matrix."""
    d = graph.dims.d
    adj = np.zeros((graph.dims.stacked, graph.dims.stacked))
    for (i, j), weight in graph.edges.items():
        adj[i * d : (i + 1) * d, j * d : (j + 1) * d] = weight.entries
        adj[j * d : (j + 1) * d, i * d : (i + 1) * d] = weight.entries
    return adj


def degree_matrix(graph: MatrixWeightedGraph) -> NDArray[np.float64]:
    """Block-diagonal degree matrix; block ``i`` is the sum of the weights
    of all edges incident to node ``i``."""
    d = graph.dims.d
    deg = np.zeros((graph.dims.stacked, graph.dims.stacked))
    for (i, j), weight in graph.edges.items():
        deg[i * d : (i + 1) * d, i * d : (i + 1) * d] += weight.entries
        deg[j * d : (j + 1) * d, j * d : (j + 1) * d] += weight.entries
    return deg


def laplacian(graph: MatrixWeightedGraph) -> NDArray[np.float64]:
    """The read-only ``nd x nd`` degree-minus-adjacency block Laplacian of
    the graph: symmetric and positive semi-definite, with every block row
    summing to the zero block.  Raises :class:`ModelError` if the matrices
    it is built from cannot be allocated."""
    try:
        matrix = degree_matrix(graph) - adjacency_matrix(graph)
    except (MemoryError, ValueError) as error:  # ValueError: beyond any shape
        size = graph.dims.stacked
        raise ModelError(
            f"the Laplacian for n*d = {size} is {size}x{size}, "
            "more entries than fit in memory"
        ) from error
    matrix.setflags(write=False)
    return matrix
