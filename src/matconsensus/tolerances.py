"""Numerical thresholds shared across the package.

All comparisons against these thresholds are made on a relative scale where
that makes sense: a threshold ``tol`` applied to a matrix ``M`` is interpreted
as ``tol * max(1, lambda_max(M))``.  Verdicts are therefore invariant under
positive rescaling while ``lambda_max(M) >= 1``; below that the cutoff is the
absolute ``tol``, so a matrix scaled down far enough reads as zero.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ModelError, as_float


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
        Margin below 1 that every window's contraction factor needs before
        the sufficient certificate counts it as a contraction.
    monotonicity:
        Largest rise of the disagreement ``V`` between samples that
        ``simulate`` accepts, relative to ``max(V(0), max(1, max|mean(0)|)**2)``.
    mean_drift:
        Largest drift of the network mean that ``simulate`` accepts,
        relative to ``max(1, max|mean(0)|)``.
    oracle_deviation:
        Maximum deviation accepted between exact propagation and the
        Runge-Kutta reference integrator.
    eigenvector_residual:
        Accepted in scenario files and echoed in the ``analyze`` report,
        but no check reads it.
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
            object.__setattr__(self, name, as_float(value, name, finite=False))
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ModelError(f"{name} must be finite and >= 0, got {value!r}")

    def replace(self, **overrides: float) -> "Tolerances":
        """Return a copy with the given fields overridden."""
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


DEFAULT_TOLERANCES = Tolerances()
