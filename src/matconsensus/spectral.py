"""Symmetric-matrix numerics: eigendecompositions, definiteness classes,
null spaces, and matrix exponentials.

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
    threshold: float


def _symmetry_defect(matrix: NDArray[np.float64]) -> float:
    return float(np.max(np.abs(matrix - matrix.T), initial=0.0))


def _scale(matrix: NDArray[np.float64]) -> float:
    """Relative scale used for tolerance comparisons: ``max(1, max|M|)``."""
    return max(1.0, float(np.max(np.abs(matrix), initial=0.0)))


def require_symmetric(
    matrix: NDArray[np.float64], tol: float, *, what: str = "matrix"
) -> None:
    """Raise :class:`ModelError` unless ``matrix`` is square, finite and
    symmetric within ``tol`` relative to its magnitude."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ModelError(f"{what} must be square, got shape {matrix.shape}")
    defect = _symmetry_defect(matrix)
    if math.isnan(defect):  # exactly when some entry is NaN or infinite
        raise ModelError(
            f"{what} has non-finite entries: NaN, or beyond the float range"
        )
    if defect > tol * _scale(matrix):
        raise ModelError(
            f"{what} is not symmetric: max|M - M^T| = {defect:.3e}"
        )


def symmetric_eigen(
    matrix: NDArray[np.float64], tolerances: Tolerances = DEFAULT_TOLERANCES
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns
    of a symmetric matrix.

    The input is checked for symmetry and symmetrised as ``M/2 + M^T/2``,
    which does not overflow, before calling the symmetric solver, so the
    result is deterministic and the reconstruction ``V diag(w) V^T``
    reproduces the input to solver accuracy.
    """
    matrix = np.asarray(matrix, dtype=float)
    require_symmetric(matrix, tolerances.symmetry)
    half = matrix / 2.0
    return np.linalg.eigh(half + half.T)


def classify_definiteness(
    matrix: NDArray[np.float64], tolerances: Tolerances = DEFAULT_TOLERANCES
) -> Definiteness:
    """Classify a symmetric matrix as PD, PSD, zero, or indefinite.

    The eigenvalue cutoff is ``tolerances.definiteness`` scaled by
    ``max(1, |lambda|_max)`` so classification is stable for matrices of
    moderate norm and does not flip on rounding noise.
    """
    eigenvalues, _ = symmetric_eigen(matrix, tolerances)
    magnitude = float(np.max(np.abs(eigenvalues), initial=0.0))
    if math.isinf(magnitude):
        # the spectrum overflowed; the class is invariant under positive
        # scaling, so classify the matrix scaled down to max|M| = 1
        matrix = np.asarray(matrix, dtype=float)
        return classify_definiteness(matrix / _scale(matrix), tolerances)
    cutoff = tolerances.definiteness * max(1.0, magnitude)
    if magnitude <= cutoff:
        return Definiteness.ZERO
    smallest = float(eigenvalues[0])
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
) -> NullSpaceReport:
    """Numerical null space of a PSD matrix of size ``n*d``.

    Eigenvalues at or below ``tolerances.null_space * max(1, lambda_max)``
    count as zero; the verdict is therefore invariant under positive
    rescaling of the matrix.  Raises :class:`ModelError` on a size
    mismatch, if an eigenvalue is clearly negative, or if one is beyond the
    float range.
    """
    matrix = np.asarray(matrix, dtype=float)
    size = dims.n * dims.d
    if matrix.shape != (size, size):
        raise ModelError(
            f"expected a {size}x{size} matrix for n={dims.n}, d={dims.d}, "
            f"got shape {matrix.shape}"
        )
    eigenvalues, eigenvectors = symmetric_eigen(matrix, tolerances)
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
    return NullSpaceReport(
        basis=basis,
        dimension=dimension,
        equals_consensus=equals,
        threshold=threshold,
    )


def eigen_exponential(
    values: NDArray[np.float64], vectors: NDArray[np.float64], t: float
) -> NDArray[np.float64]:
    """``exp(-M t)`` from the eigensystem ``M = V diag(values) V^T``.

    The result is explicitly symmetrised so that downstream symmetric
    products remain symmetric to machine precision.
    """
    result = (vectors * np.exp(-values * t)) @ vectors.T
    return (result + result.T) / 2.0

