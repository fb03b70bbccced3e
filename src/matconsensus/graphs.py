"""Undirected graphs whose edges carry symmetric positive (semi-)definite
matrix weights, and the block Laplacians they induce.

Nodes are indexed ``0..n-1``; each node carries a state vector of dimension
``d``.  An edge ``(i, j)`` holds a symmetric ``d x d`` weight that is either
positive definite or positive semi-definite — zero or indefinite weights are
rejected at construction time, so "no entry" is the only encoding of "no
edge".  A graph is its dimensions and its edge map, and is immutable.
:func:`checked_weights` is the one weight check: :func:`set_edge` runs it
on one edge and returns a new graph, copying the edge map, while a loader
runs it on a graph's edges together and builds the graph once.
The integral network is such a graph too: its averaged weights are built
directly and keep whatever non-zero class they are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ModelError, as_index
from .spectral import Definiteness, classify_definiteness, symmetry_faults
from .tolerances import DEFAULT_TOLERANCES, Tolerances

Edge = tuple[int, int]


@dataclass(frozen=True)
class GraphDimensions:
    """Number of nodes ``n`` and per-node state dimension ``d``, integers."""

    n: int
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_index(self.n, "n"))
        object.__setattr__(self, "d", as_index(self.d, "d"))
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
    :func:`checked_weights`; an averaged weight keeps whatever non-zero
    class it is given."""

    entries: NDArray[np.float64]
    definiteness: Definiteness


@dataclass(frozen=True)
class MatrixWeightedGraph:
    """An immutable matrix-weighted graph.

    ``edges`` maps node pairs ``(i, j)`` with ``i < j`` to their weights;
    any other key raises :class:`ModelError`.
    """

    dims: GraphDimensions
    edges: Mapping[Edge, WeightMatrix] = field(default_factory=dict)

    def __post_init__(self) -> None:
        edges = dict(self.edges)
        for key in edges:
            i, j = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
            if _node_pair_fault(i, j, self.dims.n) is not None or not i < j:
                raise ModelError(
                    f"edge key {key!r} is not a node pair (i, j) "
                    f"with 0 <= i < j < {self.dims.n}"
                )
        object.__setattr__(self, "edges", MappingProxyType(edges))


def _node_pair_fault(i: object, j: object, n: int) -> ModelError | None:
    """None if ``i`` and ``j`` are distinct integers in ``[0, n)``, else why not."""
    try:
        as_index(i, "node index"), as_index(j, "node index")
    except ModelError as error:
        return error
    if not (0 <= i < n and 0 <= j < n):
        return ModelError(f"node indices must lie in [0, {n}), got ({i}, {j})")
    if i == j:
        return ModelError(f"self-loop at node {i} is not allowed")
    return None


def checked_weights(
    dims: GraphDimensions,
    edges: Sequence[tuple[int, int, NDArray[np.float64]]],
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> list[WeightMatrix | ModelError]:
    """For each ``(i, j, weight)``, in order, the stored weight or the
    :class:`ModelError` of the first check it fails: the nodes are distinct
    integers in ``[0, n)``, and the weight is a ``d x d`` array of finite
    numbers, symmetric within tolerance, and neither (numerically) zero nor
    indefinite.  It is stored as ``W/2 + W^T/2``, which does not overflow.
    The symmetry check and the classification each run once, stacked, on
    the weights that reach them."""
    d = dims.d
    results: list = []
    for i, j, weight in edges:
        fault = _node_pair_fault(i, j, dims.n)
        if fault is None:
            try:
                weight = np.asarray(weight, dtype=float)
            except (TypeError, ValueError):  # ragged, or not numbers
                fault = ModelError(f"weight must be {d}x{d} numbers, got {weight!r}")
            if fault is None and weight.shape != (d, d):
                fault = ModelError(f"weight must be {d}x{d}, got shape {weight.shape}")
        results.append(weight if fault is None else fault)
    pending = [k for k, result in enumerate(results) if isinstance(result, np.ndarray)]
    stack = np.array([results[k] for k in pending]).reshape(-1, d, d)  # may be empty
    faults = symmetry_faults(stack, tolerances.symmetry)
    refusals = {k: fault for k, fault in zip(pending, faults) if fault is not None}
    if refusals:  # a second copy of the stack, made only on a fault
        rows = [row for row, fault in enumerate(faults) if fault is None]
        stack, pending = stack[rows], [pending[row] for row in rows]
    if pending:
        half = stack / 2.0
        symmetric = half + np.swapaxes(half, 1, 2)
        symmetric.setflags(write=False)
        kinds = classify_definiteness(symmetric, tolerances)
        for k, entries, kind in zip(pending, symmetric, kinds):
            if kind is Definiteness.ZERO:
                refusals[k] = "is zero within tolerance; omit the edge instead"
            elif kind is Definiteness.INDEFINITE:
                refusals[k] = "is indefinite"
            else:
                results[k] = WeightMatrix(entries, kind)
    for k, refusal in refusals.items():
        i, j, _ = edges[k]
        results[k] = ModelError(f"weight for edge ({i}, {j}) {refusal}")
    return results


def set_edge(
    graph: MatrixWeightedGraph,
    i: int,
    j: int,
    weight: NDArray[np.float64],
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> MatrixWeightedGraph:
    """A new graph with edge ``(i, j)`` set to its :func:`checked_weights`
    result, which is raised if it is an error; the edge map is copied, so
    building ``m`` edges this way costs ``O(m^2)``."""
    (result,) = checked_weights(graph.dims, [(i, j, weight)], tolerances)
    if isinstance(result, ModelError):
        raise result
    edges = dict(graph.edges)
    edges[min(i, j), max(i, j)] = result
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
