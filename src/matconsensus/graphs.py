"""Undirected graphs whose edges carry symmetric positive (semi-)definite
matrix weights, and the block Laplacians they induce.

Nodes are indexed ``0..n-1``; each node carries a state vector of dimension
``d``.  An edge ``(i, j)`` holds a symmetric ``d x d`` weight that is either
positive definite or positive semi-definite — zero or indefinite weights are
rejected at construction time, so "no entry" is the only encoding of "no
edge".  A graph is its dimensions and its edge map, and is immutable:
:func:`set_edge` returns a new graph, copying the edge map, while a loader
checks each weight with :func:`checked_weight` and builds the graph once.
The integral network is such a graph too: its averaged weights are built
directly and keep whatever non-zero class they are given.
"""

from __future__ import annotations

import operator
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
    :func:`checked_weight`; an averaged weight keeps whatever non-zero
    class it is given."""

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


def new_graph(dims: GraphDimensions) -> MatrixWeightedGraph:
    """An edgeless graph on ``dims.n`` nodes."""
    return MatrixWeightedGraph(dims=dims)


def checked_weight(
    dims: GraphDimensions,
    i: int,
    j: int,
    weight: NDArray[np.float64],
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> WeightMatrix:
    """The checked, stored form of ``weight`` for edge ``(i, j)``.  The nodes
    must be distinct integers in ``[0, n)`` and the weight a symmetric
    ``d x d`` PD or PSD matrix; asymmetry beyond tolerance, indefiniteness,
    a (numerically) zero weight and non-finite entries each raise a
    :class:`ModelError` naming the fault.  Rounding noise is removed by
    storing ``W/2 + W^T/2``, which does not overflow."""
    n, d = dims.n, dims.d
    for index in (i, j):
        try:
            operator.index(index)
        except TypeError:
            raise ModelError(f"node index {index!r} is not an integer") from None
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
    return WeightMatrix(entries=symmetric, definiteness=definiteness)


def set_edge(
    graph: MatrixWeightedGraph,
    i: int,
    j: int,
    weight: NDArray[np.float64],
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> MatrixWeightedGraph:
    """A new graph with edge ``(i, j)`` set to :func:`checked_weight`'s result;
    the edge map is copied, so building ``m`` edges this way costs ``O(m^2)``."""
    edges = dict(graph.edges)
    edges[min(i, j), max(i, j)] = checked_weight(graph.dims, i, j, weight, tolerances)
    return MatrixWeightedGraph(dims=graph.dims, edges=edges)


def laplacian(graph: MatrixWeightedGraph) -> NDArray[np.float64]:
    """The read-only ``nd x nd`` block Laplacian ``D - A``: symmetric and
    positive semi-definite, every block row summing to the zero block.  Each
    weight ``W`` is added to its two diagonal blocks of one array and stored
    as ``0.0 - W`` (the bits of ``D - A``) in its two off-diagonal blocks.
    Raises :class:`ModelError` if that array cannot be allocated."""
    n, d = graph.dims.n, graph.dims.d
    size = graph.dims.stacked
    try:
        matrix = np.zeros((size, size))
    except (MemoryError, ValueError) as error:  # ValueError: beyond any shape
        raise ModelError(
            f"the Laplacian for n*d = {size} is {size}x{size}, "
            "more entries than fit in memory"
        ) from error
    blocks = matrix.reshape(n, d, n, d)  # blocks[i, :, j] is block (i, j)
    for (i, j), weight in graph.edges.items():
        blocks[i, :, i] += weight.entries
        blocks[j, :, j] += weight.entries
        blocks[i, :, j] = blocks[j, :, i] = 0.0 - weight.entries
    matrix.setflags(write=False)
    return matrix
