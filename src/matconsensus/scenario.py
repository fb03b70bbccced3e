"""Scenario files: a JSON document describing a switched matrix-weighted
network, an optional initial state, and run settings.

Layout (all matrices row-major, node indices 1-based in files)::

    {
      "dimensions": {"n": 4, "d": 2},
      "graphs": {
        "G1": [{"i": 1, "j": 2, "weight": [1, 1, 1, 2]}, ...],
        ...
      },
      "signal": {
        "segments": [{"graph": "G1", "dwell": 2.0}, ...],
        "periodic": true,
        "alpha": 0.5,
        "beta": 4.0
      },
      "initial_state": [[0.6787, 0.7577], ...],
      "run": {"t_end": 60, "sample_dt": 0.5, "q_threshold": 0.99, "horizon": 8},
      "tolerances": {"null_space": 1e-9, ...}
    }

For a periodic signal the period is the sum of the segment dwells.  Edge
weights may be given flat (row-major, ``d*d`` numbers) or as ``d`` rows of
``d`` numbers.  Structural problems raise :class:`ScenarioError` with the
offending field path; semantic violations (indefinite weights, dwell bounds,
too few periodic segments, ...) raise :class:`ModelError` with the field
path prefixed to the message.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np
from numpy.typing import NDArray

from .errors import ModelError
from .graphs import GraphDimensions, MatrixWeightedGraph, WeightMatrix, checked_weight
from .switching import SwitchingSignal
from .tolerances import DEFAULT_TOLERANCES, Tolerances


class ScenarioError(Exception):
    """A scenario file is structurally invalid; ``path`` names the field."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class RunSettings:
    """Optional run parameters from the scenario's ``run`` section."""

    t_end: float | None = None
    sample_dt: float | None = None
    q_threshold: float | None = None
    horizon: int | None = None


# (name, type, what is expected) of every ``run`` field, in file order
_RUN_FIELDS: tuple[tuple[str, type, str], ...] = (
    ("t_end", float, "a number"),
    ("sample_dt", float, "a number"),
    ("q_threshold", float, "a number"),
    ("horizon", int, "an integer"),
)


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: named graphs, the switching signal built from
    them, and optional initial state / run settings."""

    dims: GraphDimensions
    graph_names: tuple[str, ...]
    graphs: Mapping[str, MatrixWeightedGraph]
    signal: SwitchingSignal
    initial_state: NDArray[np.float64] | None
    run: RunSettings
    tolerances: Tolerances


def _expect(value: Any, kind: type, path: str, what: str) -> Any:
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(path, f"expected {what}, got {value!r}")
        if not -sys.float_info.max <= value <= sys.float_info.max:
            raise ScenarioError(path, f"expected a finite number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(path, f"expected {what}, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise ScenarioError(path, f"expected {what}, got {type(value).__name__}")
    return value


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing field")
    return obj[key]


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ScenarioError(where, "unknown field")


def _parse_weight(value: Any, d: int, path: str) -> NDArray[np.float64]:
    value = _expect(value, list, path, "a weight array")
    if value and isinstance(value[0], list):
        rows = value
        if len(rows) != d or any(
            not isinstance(r, list) or len(r) != d for r in rows
        ):
            raise ScenarioError(path, f"expected {d} rows of {d} numbers")
        flat = [x for row in rows for x in row]
    else:
        flat = value
        if len(flat) != d * d:
            raise ScenarioError(
                path, f"expected {d * d} numbers (row-major), got {len(flat)}"
            )
    numbers = [
        _expect(x, float, f"{path}[{idx}]", "a number") for idx, x in enumerate(flat)
    ]
    return np.array(numbers, dtype=float).reshape(d, d)


def _parse_tolerances(data: dict, path: str) -> Tolerances:
    raw = data.get("tolerances")
    if raw is None:
        return DEFAULT_TOLERANCES
    raw = _expect(raw, dict, path, "an object")
    known = set(DEFAULT_TOLERANCES.as_dict())
    overrides: dict[str, float] = {}
    for key, value in raw.items():
        if key not in known:
            raise ScenarioError(f"{path}.{key}", "unknown tolerance")
        overrides[key] = _expect(value, float, f"{path}.{key}", "a number")
    try:
        return DEFAULT_TOLERANCES.replace(**overrides)
    except ModelError as error:
        raise _contextualize(error, path) from error


def _contextualize(error: ModelError, path: str) -> ModelError:
    return ModelError(f"{path}: {error}")


def parse_scenario(data: dict) -> Scenario:
    """Build a :class:`Scenario` from decoded JSON data."""
    data = _expect(data, dict, "", "a JSON object")
    _reject_unknown(
        data,
        {"dimensions", "graphs", "signal", "initial_state", "run", "tolerances"},
        "",
    )
    tolerances = _parse_tolerances(data, "tolerances")

    dims_raw = _expect(_get(data, "dimensions", ""), dict, "dimensions", "an object")
    _reject_unknown(dims_raw, {"n", "d"}, "dimensions")
    n = _expect(_get(dims_raw, "n", "dimensions"), int, "dimensions.n", "an integer")
    d = _expect(_get(dims_raw, "d", "dimensions"), int, "dimensions.d", "an integer")
    try:
        dims = GraphDimensions(n=n, d=d)
    except ModelError as error:
        raise _contextualize(error, "dimensions") from error

    graphs_raw = _expect(_get(data, "graphs", ""), dict, "graphs", "an object")
    if not graphs_raw:
        raise ScenarioError("graphs", "at least one graph is required")
    graphs: dict[str, MatrixWeightedGraph] = {}
    for name, edges_raw in graphs_raw.items():
        gpath = f"graphs.{name}"
        edges_raw = _expect(edges_raw, list, gpath, "a list of edges")
        edges: dict[tuple[int, int], WeightMatrix] = {}
        for idx, edge_raw in enumerate(edges_raw):
            epath = f"{gpath}[{idx}]"
            edge_raw = _expect(edge_raw, dict, epath, "an edge object")
            _reject_unknown(edge_raw, {"i", "j", "weight"}, epath)
            i = _expect(_get(edge_raw, "i", epath), int, f"{epath}.i", "an integer")
            j = _expect(_get(edge_raw, "j", epath), int, f"{epath}.j", "an integer")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ScenarioError(
                    epath, f"node indices must lie in 1..{n}, got ({i}, {j})"
                )
            pair = (min(i, j) - 1, max(i, j) - 1)
            if pair in edges:
                raise ScenarioError(epath, f"duplicate edge ({i}, {j})")
            weight = _parse_weight(
                _get(edge_raw, "weight", epath), d, f"{epath}.weight"
            )
            try:
                edges[pair] = checked_weight(dims, i - 1, j - 1, weight, tolerances)
            except ModelError as error:
                raise _contextualize(error, epath) from error
        graphs[name] = MatrixWeightedGraph(dims, edges)

    signal_raw = _expect(_get(data, "signal", ""), dict, "signal", "an object")
    _reject_unknown(signal_raw, {"segments", "periodic", "alpha", "beta"}, "signal")
    alpha = _expect(
        _get(signal_raw, "alpha", "signal"), float, "signal.alpha", "a number"
    )
    beta = _expect(
        _get(signal_raw, "beta", "signal"), float, "signal.beta", "a number"
    )
    periodic = signal_raw.get("periodic", False)
    periodic = _expect(periodic, bool, "signal.periodic", "a boolean")
    segments_raw = _expect(
        _get(signal_raw, "segments", "signal"), list, "signal.segments", "a list"
    )
    names = tuple(graphs)
    segments: list[tuple[int, float]] = []
    for idx, seg_raw in enumerate(segments_raw):
        spath = f"signal.segments[{idx}]"
        seg_raw = _expect(seg_raw, dict, spath, "a segment object")
        _reject_unknown(seg_raw, {"graph", "dwell"}, spath)
        gname = _expect(
            _get(seg_raw, "graph", spath), str, f"{spath}.graph", "a graph name"
        )
        if gname not in graphs:
            raise ScenarioError(f"{spath}.graph", f"unknown graph {gname!r}")
        dwell = _expect(
            _get(seg_raw, "dwell", spath), float, f"{spath}.dwell", "a number"
        )
        segments.append((names.index(gname), dwell))
    try:
        signal = SwitchingSignal(
            [graphs[name] for name in names], segments, alpha, beta, periodic
        )
    except ModelError as error:
        raise _contextualize(error, "signal") from error

    initial_state = None
    if data.get("initial_state") is not None:
        rows = _expect(
            data["initial_state"], list, "initial_state", f"{n} rows of {d} numbers"
        )
        if len(rows) != n:
            raise ScenarioError("initial_state", f"expected {n} rows, got {len(rows)}")
        values: list[float] = []
        for idx, row in enumerate(rows):
            row = _expect(row, list, f"initial_state[{idx}]", f"{d} numbers")
            if len(row) != d:
                raise ScenarioError(
                    f"initial_state[{idx}]", f"expected {d} numbers, got {len(row)}"
                )
            values.extend(
                _expect(x, float, f"initial_state[{idx}][{c}]", "a number")
                for c, x in enumerate(row)
            )
        initial_state = np.array(values, dtype=float)
        initial_state.setflags(write=False)

    run_raw = _expect(data.get("run", {}), dict, "run", "an object")
    _reject_unknown(run_raw, {name for name, _, _ in _RUN_FIELDS}, "run")
    run = RunSettings(
        **{
            name: _expect(run_raw[name], kind, f"run.{name}", what)
            for name, kind, what in _RUN_FIELDS
            if name in run_raw
        }
    )

    return Scenario(
        dims=dims,
        graph_names=names,
        graphs=graphs,
        signal=signal,
        initial_state=initial_state,
        run=run,
        tolerances=tolerances,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file."""
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ScenarioError(str(path), f"cannot read scenario: {error}") from error
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ScenarioError(
            str(path),
            f"invalid JSON at line {error.lineno}, column {error.colno}: {error.msg}",
        ) from error
    return parse_scenario(data)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical JSON-ready form of a scenario.

    Edges are emitted in sorted node order with flat row-major weights, so
    the output is deterministic and re-parses to an equivalent scenario.
    """
    signal = scenario.signal
    doc: dict[str, Any] = {
        "dimensions": {"n": scenario.dims.n, "d": scenario.dims.d},
        "graphs": {
            name: [
                {
                    "i": i + 1,
                    "j": j + 1,
                    "weight": [float(x) for x in graph.edges[(i, j)].entries.flat],
                }
                for (i, j) in sorted(graph.edges)
            ]
            for name, graph in ((nm, scenario.graphs[nm]) for nm in scenario.graph_names)
        },
        "signal": {
            "segments": [
                {"graph": scenario.graph_names[g], "dwell": dt}
                for g, dt in signal.segments
            ],
            "periodic": signal.periodic,
            "alpha": signal.alpha,
            "beta": signal.beta,
        },
    }
    if scenario.initial_state is not None:
        doc["initial_state"] = [
            [float(x) for x in row]
            for row in scenario.initial_state.reshape(scenario.dims.n, scenario.dims.d)
        ]
    run = {
        name: getattr(scenario.run, name)
        for name, _, _ in _RUN_FIELDS
        if getattr(scenario.run, name) is not None
    }
    if run:
        doc["run"] = run
    doc["tolerances"] = scenario.tolerances.as_dict()
    return doc
