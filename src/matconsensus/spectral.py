"""Symmetric-matrix numerics: eigendecompositions, definiteness classes
and null spaces.

Everything here operates on plain ``numpy`` arrays.  The helpers that reason
about the agreement subspace take the network dimensions so they can compare
a computed null space against ``span(1_n (x) I_d)``, the subspace of states
on which all nodes carry the same d-vector.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from .errors import ModelError
from .tolerances import DEFAULT_TOLERANCES, Tolerances

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .graphs import GraphDimensions


class Definiteness(enum.Enum):
    """Classification of a symmetric matrix by the sign of its spectrum."""

    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE = "positive_semidefinite"
    ZERO = "zero"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class NullSpaceReport:
    """Numerical null space of a PSD matrix.

    ``equals_consensus`` is True exactly when the null space has dimension
    ``d`` and every agreement basis vector is annihilated within tolerance,
    i.e. the null space *is* the agreement subspace.
    """

    basis: NDArray[np.float64]
    dimension: int
    equals_consensus: bool


def symmetry_faults(stack: NDArray[np.float64], tol: float) -> list[str | None]:
    """For each matrix of a ``(k, d, d)`` stack, None if it is finite and
    symmetric within ``tol`` relative to its magnitude, else its fault,
    worded to follow the matrix's name; only a failing matrix is looked at
    alone."""
    # the largest magnitude is NaN or inf exactly when some entry is; such a
    # matrix fails on that, whatever M - M^T comes to, and M - M^T beyond
    # the float range is an infinite defect
    with np.errstate(over="ignore", invalid="ignore"):
        magnitudes = np.max(np.abs(stack), axis=(1, 2), initial=0.0)
        asymmetry = np.abs(stack - np.swapaxes(stack, 1, 2))
        defects = np.max(asymmetry, axis=(1, 2), initial=0.0)
        limits = tol * np.maximum(1.0, magnitudes)
        failed = ~np.isfinite(magnitudes) | (defects > limits)
    faults: list[str | None] = [None] * len(stack)
    for index in np.flatnonzero(failed).tolist():
        faults[index] = (
            f"is not symmetric: max|M - M^T| = {float(defects[index]):.3e}"
            if math.isfinite(magnitudes[index])
            else "has non-finite entries: NaN, or beyond the float range"
        )
    return faults


def symmetric_eigen(
    matrix: NDArray[np.float64], tolerances: Tolerances = DEFAULT_TOLERANCES
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns
    of a symmetric matrix, or of each matrix of a ``(k, d, d)`` stack.

    Raises :class:`ModelError` unless the input is square and has no
    :func:`symmetry_faults`; the first matrix of a stack that has one is
    named by its index.  The input is then symmetrised as ``M/2 + M^T/2``,
    which does not overflow, before calling the symmetric solver, so the
    result is deterministic and the reconstruction ``V diag(w) V^T``
    reproduces the input to solver accuracy.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim not in (2, 3) or matrix.shape[-1] != matrix.shape[-2]:
        raise ModelError(f"matrix must be square, got shape {matrix.shape}")
    stack = matrix[None] if matrix.ndim == 2 else matrix
    for index, fault in enumerate(symmetry_faults(stack, tolerances.symmetry)):
        if fault is not None:
            name = "matrix" if matrix.ndim == 2 else f"matrix {index}"
            raise ModelError(f"{name} {fault}")
    half = matrix / 2.0
    return np.linalg.eigh(half + np.swapaxes(half, -1, -2))


def classify_definiteness(
    matrix: NDArray[np.float64], tolerances: Tolerances = DEFAULT_TOLERANCES
) -> Definiteness | tuple[Definiteness, ...]:
    """Classify a symmetric matrix as PD, PSD, zero, or indefinite.

    The eigenvalue cutoff is ``tolerances.definiteness`` scaled by
    ``max(1, |lambda|_max)`` so classification is stable for matrices of
    moderate norm and does not flip on rounding noise.  A stack of shape
    ``(k, d, d)`` gives a tuple of ``k`` classes, each the class of its
    matrix alone, from one eigendecomposition call.
    """
    matrix = np.asarray(matrix, dtype=float)
    eigenvalues, _ = symmetric_eigen(matrix, tolerances)
    single = matrix.ndim == 2
    stack = matrix[None] if single else matrix
    values = eigenvalues[None] if single else eigenvalues
    magnitudes = np.max(np.abs(values), axis=1, initial=0.0).tolist()
    classes = [
        _classify(magnitude, smallest, tolerances.definiteness)
        for magnitude, smallest in zip(magnitudes, values[:, 0].tolist())
    ]
    overflowed = [index for index, size in enumerate(magnitudes) if math.isinf(size)]
    if overflowed:
        # the spectrum overflowed; the class is invariant under positive
        # scaling, so classify the matrix scaled down to max|M| = 1
        huge = stack[overflowed]
        scale = np.maximum(1.0, np.max(np.abs(huge), axis=(1, 2), initial=0.0))
        rescaled = classify_definiteness(huge / scale[:, None, None], tolerances)
        for index, kind in zip(overflowed, rescaled):
            classes[index] = kind
    return classes[0] if single else tuple(classes)


def _classify(magnitude: float, smallest: float, tol: float) -> Definiteness:
    """The class of a spectrum from its largest magnitude and its smallest
    eigenvalue."""
    cutoff = tol * max(1.0, magnitude)
    if magnitude <= cutoff:
        return Definiteness.ZERO
    if smallest > cutoff:
        return Definiteness.POSITIVE_DEFINITE
    if smallest >= -cutoff:
        return Definiteness.POSITIVE_SEMIDEFINITE
    return Definiteness.INDEFINITE


def consensus_subspace(dims: "GraphDimensions") -> NDArray[np.float64]:
    """Read-only orthonormal basis of the agreement subspace
    ``span(1_n (x) I_d)``: columns of ``(1_n (x) I_d) / sqrt(n)``."""
    basis = np.kron(np.ones((dims.n, 1)), np.eye(dims.d)) / np.sqrt(dims.n)
    basis.setflags(write=False)
    return basis


def null_space_basis(
    matrix: NDArray[np.float64],
    dims: "GraphDimensions",
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    eigensystem: tuple[NDArray[np.float64], NDArray[np.float64]] | None = None,
) -> NullSpaceReport:
    """Numerical null space of a PSD matrix of size ``n*d``.

    Eigenvalues at or below ``tolerances.null_space * max(1, lambda_max)``
    count as zero; the verdict is therefore invariant under positive
    rescaling of the matrix while ``lambda_max >= 1``, and below that the
    cutoff is the absolute ``tolerances.null_space``.  Raises
    :class:`ModelError` on a size mismatch of the matrix or of
    ``eigensystem``, if an eigenvalue is clearly negative, or if one is
    beyond the float range.  ``eigensystem`` is the
    matrix's :func:`symmetric_eigen` where the caller already has it, so the
    matrix is not decomposed again.
    """
    matrix = np.asarray(matrix, dtype=float)
    size = dims.n * dims.d
    if matrix.shape != (size, size):
        raise ModelError(
            f"expected a {size}x{size} matrix for n={dims.n}, d={dims.d}, "
            f"got shape {matrix.shape}"
        )
    if eigensystem is None:
        eigensystem = symmetric_eigen(matrix, tolerances)
    eigenvalues, eigenvectors = eigensystem
    shapes = np.shape(eigenvalues), np.shape(eigenvectors)
    if shapes != ((size,), (size, size)):
        raise ModelError(
            f"expected an eigensystem of {size} eigenvalues and {size}x{size} "
            f"eigenvectors, got shapes {shapes[0]} and {shapes[1]}"
        )
    if not np.isfinite(eigenvalues).all():
        raise ModelError("matrix has an eigenvalue beyond the float range")
    lam_max = max(float(eigenvalues[-1]), 0.0)
    scale = max(1.0, lam_max)
    if float(eigenvalues[0]) < -tolerances.psd * scale:
        raise ModelError(
            f"matrix has negative eigenvalue {eigenvalues[0]:.3e}"
        )
    threshold = tolerances.null_space * scale
    mask = eigenvalues <= threshold
    basis = np.array(eigenvectors[:, mask])
    basis.setflags(write=False)
    dimension = int(np.count_nonzero(mask))

    equals = dimension == dims.d
    if equals:
        agreement = consensus_subspace(dims)
        residual = float(np.max(np.abs(matrix @ agreement), initial=0.0))
        equals = residual <= threshold
    return NullSpaceReport(basis=basis, dimension=dimension, equals_consensus=equals)
