"""Numerical thresholds shared across the package.

All comparisons against these thresholds are made on a relative scale where
that makes sense: a threshold ``tol`` applied to a matrix ``M`` is interpreted
as ``tol * max(1, lambda_max(M))`` so that verdicts are invariant under
positive rescaling while remaining meaningful for matrices of modest norm.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ModelError


@dataclass(frozen=True)
class Tolerances:
    """Bundle of numerical thresholds.

    Attributes
    ----------
    symmetry:
        Maximum relative asymmetry ``max|M - M^T|`` accepted before a matrix
        is rejected as not symmetric.
    definiteness:
        Eigenvalue threshold for classifying a symmetric matrix as positive
        definite / semi-definite / zero / indefinite.
    null_space:
        Eigenvalue threshold below which an eigenvalue of a PSD matrix is
        treated as zero, and residual threshold for subspace membership tests.
    psd:
        How far below zero an eigenvalue may dip before a matrix expected to
        be PSD is rejected.
    mu_gap:
        Margin below 1 required before a contraction factor counts as an
        actual contraction.
    oracle_deviation:
        Maximum deviation accepted between exact propagation and the
        Runge-Kutta reference integrator.
    eigenvector_residual, monotonicity, mean_drift:
        Accepted in scenario files and echoed in the ``analyze`` report,
        but no check reads them.
    """

    symmetry: float = 1e-12
    definiteness: float = 1e-9
    null_space: float = 1e-9
    psd: float = 1e-9
    eigenvector_residual: float = 1e-8
    mu_gap: float = 1e-9
    monotonicity: float = 1e-10
    mean_drift: float = 1e-10
    oracle_deviation: float = 1e-6

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if not 0.0 <= value < math.inf:
                raise ModelError(f"{name} must be finite and >= 0, got {value!r}")

    def replace(self, **overrides: float) -> "Tolerances":
        """Return a copy with the given fields overridden."""
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


DEFAULT_TOLERANCES = Tolerances()
