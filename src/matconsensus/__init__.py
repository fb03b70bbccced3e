"""Consensus analysis and simulation for time-varying networks whose edges
carry matrix-valued weights.

The package models undirected graphs with symmetric positive
(semi-)definite ``d x d`` edge weights, piecewise-constant switching between
such graphs, and the diffusion dynamics ``x' = -L(t) x`` they induce.  It
decides average consensus for periodic switching exactly, checks
necessary/sufficient conditions over finite horizons with machine-checkable
certificates, and propagates trajectories exactly via spectral
decomposition, with a fixed-step Runge-Kutta integrator as an independent
reference.
"""

from .analysis import (
    ContractionReport,
    Decision,
    HorizonExhausted,
    NullSpaceMatch,
    NullSpaceObstruction,
    PositiveSpanningTree,
    TransitionMatrix,
    UniformContraction,
    Verdict,
    Window,
    contraction_factor,
    necessary_condition_scan,
    periodic_consensus_verdict,
    positive_spanning_tree,
    sufficient_condition_certificate,
    transition_matrix,
)
from .errors import ModelError
from .graphs import (
    GraphDimensions,
    MatrixWeightedGraph,
    WeightMatrix,
    laplacian,
    new_graph,
    set_edge,
)
from .scenario import (
    RunSettings,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)
from .simulator import (
    Trajectory,
    average_consensus_point,
    max_oracle_deviation,
    rk4_reference,
    simulate,
)
from .spectral import (
    Definiteness,
    NullSpaceReport,
    classify_definiteness,
    consensus_subspace,
    null_space_basis,
    symmetric_eigen,
)
from .switching import SwitchingSignal, integral_network
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"

__all__ = [
    "ContractionReport",
    "DEFAULT_TOLERANCES",
    "Decision",
    "Definiteness",
    "GraphDimensions",
    "HorizonExhausted",
    "MatrixWeightedGraph",
    "ModelError",
    "NullSpaceMatch",
    "NullSpaceObstruction",
    "NullSpaceReport",
    "PositiveSpanningTree",
    "RunSettings",
    "Scenario",
    "ScenarioError",
    "SwitchingSignal",
    "Tolerances",
    "Trajectory",
    "TransitionMatrix",
    "UniformContraction",
    "Verdict",
    "WeightMatrix",
    "Window",
    "average_consensus_point",
    "classify_definiteness",
    "consensus_subspace",
    "contraction_factor",
    "integral_network",
    "laplacian",
    "load_scenario",
    "max_oracle_deviation",
    "necessary_condition_scan",
    "new_graph",
    "null_space_basis",
    "parse_scenario",
    "periodic_consensus_verdict",
    "positive_spanning_tree",
    "rk4_reference",
    "scenario_to_dict",
    "set_edge",
    "simulate",
    "sufficient_condition_certificate",
    "symmetric_eigen",
    "transition_matrix",
]
