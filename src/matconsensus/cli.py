"""Command-line front end: validate scenario files, run the consensus
analysis, and export simulated trajectories.

Exit codes: 0 success; 1 usage or scenario-parse error; 2 model/assumption
violation (indefinite weights, dwell bounds, too few periodic segments,
out-of-range spans, ...); 3 divergence between exact propagation and the
Runge-Kutta reference.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from .analysis import (
    NullSpaceMatch,
    NullSpaceObstruction,
    PositiveSpanningTree,
    UniformContraction,
    Verdict,
    Window,
    integral_report,
    necessary_condition_scan,
    periodic_consensus_verdict,
    sufficient_condition_certificate,
)
from .errors import ModelError
from .graphs import laplacian
from .scenario import Scenario, ScenarioError, load_scenario, scenario_to_dict
from .simulator import max_oracle_deviation, simulate
from .spectral import null_space_basis
from .switching import integral_network

DEFAULT_SAMPLE_DT = 0.1
DEFAULT_Q_THRESHOLD = 0.99
DEFAULT_ORACLE_STEP = 1e-3
# The CSV writer's cache of cell strings is emptied once it holds more than
# this many bit patterns, so its memory stays bounded whatever the run.
_CSV_CACHE_CELLS = 4096


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _finite_float(text: str) -> float:
    """Option type: a float, with NaN and infinities rejected as usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matconsensus",
        description=(
            "Consensus analysis and simulation for switched networks with "
            "matrix-valued edge weights."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    validate = commands.add_parser(
        "validate", help="parse a scenario file and check its assumptions"
    )
    validate.add_argument("scenario", help="path to a scenario JSON file")
    validate.set_defaults(func=cmd_validate)

    analyze = commands.add_parser(
        "analyze", help="run the consensus checks and emit a report"
    )
    analyze.add_argument("scenario", help="path to a scenario JSON file")
    analyze.add_argument(
        "--span",
        nargs=2,
        type=_finite_float,
        metavar=("START", "END"),
        help="average the network over [START, END) instead of the default span",
    )
    analyze.add_argument(
        "--format",
        choices=("json", "text"),
        default="text",
        help="report format (default: text)",
    )
    analyze.add_argument(
        "--q",
        type=_finite_float,
        default=None,
        help="contraction threshold for the sufficient-condition certificate",
    )
    analyze.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="number of segments to scan for the horizon-based checks",
    )
    analyze.set_defaults(func=cmd_analyze)

    sim = commands.add_parser(
        "simulate", help="propagate the dynamics and export a CSV trajectory"
    )
    sim.add_argument("scenario", help="path to a scenario JSON file")
    sim.add_argument(
        "--t-end", type=_finite_float, default=None, help="simulation end time"
    )
    sim.add_argument(
        "--sample-dt", type=_finite_float, default=None, help="sampling interval"
    )
    sim.add_argument(
        "--oracle",
        nargs="?",
        type=_finite_float,
        const=DEFAULT_ORACLE_STEP,
        default=None,
        metavar="STEP",
        help=(
            "cross-check against the Runge-Kutta reference with the given "
            f"step (default {DEFAULT_ORACLE_STEP})"
        ),
    )
    sim.add_argument("--out", default=None, help="write the CSV trajectory here")
    sim.set_defaults(func=cmd_simulate)

    return parser


# -- validate ----------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    signal = scenario.signal
    print(f"OK dimensions: n={scenario.dims.n}, d={scenario.dims.d}")
    edge_counts = ", ".join(
        "{} ({} edge{})".format(
            name,
            len(scenario.graphs[name].edges),
            "s" if len(scenario.graphs[name].edges) != 1 else "",
        )
        for name in scenario.graph_names
    )
    print(f"OK graphs: {edge_counts}")
    print(
        f"OK dwell bounds: {signal.partitions} segments within "
        f"[{signal.alpha!r}, {signal.beta!r}]"
    )
    if signal.periodic:
        print(
            f"OK periodic: {signal.partitions} segments per period, "
            f"period {signal.period!r}"
        )
    print("scenario valid")
    return 0


# -- analyze -----------------------------------------------------------------


def _edge_name(pair: tuple[int, int]) -> list[int]:
    return [pair[0] + 1, pair[1] + 1]


def _window_to_dict(window: Window) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "start": window.start,
        "stop": window.stop,
        "span": [window.span[0], window.span[1]],
    }
    if window.mu_next is not None:
        doc["mu_next"] = window.mu_next
    return doc


def _certificate_to_dict(certificate: Any) -> dict[str, Any]:
    if isinstance(certificate, NullSpaceMatch):
        return {
            "type": "null_space_match",
            "span": list(certificate.span),
            "dimension": certificate.dimension,
        }
    if isinstance(certificate, PositiveSpanningTree):
        return {
            "type": "positive_spanning_tree",
            "edges": [_edge_name(pair) for pair in certificate.edges],
        }
    if isinstance(certificate, NullSpaceObstruction):
        return {
            "type": "null_space_obstruction",
            "window": list(certificate.window),
            "witness": [float(x) for x in certificate.witness],
        }
    if isinstance(certificate, UniformContraction):
        return {
            "type": "uniform_contraction",
            "threshold": certificate.threshold,
            "windows": [_window_to_dict(w) for w in certificate.windows],
        }
    return {  # HorizonExhausted
        "type": "horizon_exhausted",
        "horizon": certificate.horizon,
        "windows": [_window_to_dict(w) for w in certificate.windows],
    }


def _verdict_to_dict(verdict: Verdict) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "decision": verdict.decision.value,
        "certificates": [_certificate_to_dict(c) for c in verdict.certificates],
    }
    if verdict.horizon is not None:
        doc["horizon"] = verdict.horizon
    return doc


def _build_report(scenario: Scenario, args: argparse.Namespace) -> dict[str, Any]:
    tolerances = scenario.tolerances
    signal = scenario.signal
    # a segment of each graph the signal uses, whose Laplacian and
    # eigensystem it caches
    segment_of = {g: k for k, (g, _) in enumerate(signal.segments)}
    graphs_doc: dict[str, Any] = {}
    for g, name in enumerate(scenario.graph_names):  # graph g of the signal
        graph = scenario.graphs[name]
        k = segment_of.get(g)
        if k is None:
            matrix, eigensystem = laplacian(graph), None
        else:
            matrix = signal.segment_laplacian(k)
            eigensystem = signal.segment_eigensystem(k)
        null = null_space_basis(matrix, scenario.dims, tolerances, eigensystem)
        graphs_doc[name] = {
            "edges": [
                {
                    "nodes": _edge_name(pair),
                    "definiteness": graph.edges[pair].definiteness.value,
                }
                for pair in sorted(graph.edges)
            ],
            "null_space_dimension": null.dimension,
            "equals_consensus": null.equals_consensus,
        }

    if args.span is not None:
        span = (float(args.span[0]), float(args.span[1]))
    else:
        span = (0.0, signal.period)  # one period, or the whole finite signal
    integral = integral_report(
        span, integral_network(signal, span[0], span[1], tolerances), tolerances
    )
    averaged, null = integral.network, integral.null_space
    has_tree, tree_edges = integral.spanning_tree
    integral_doc = {
        "span": [span[0], span[1]],
        "edges": [
            {
                "nodes": _edge_name(pair),
                "definiteness": averaged.edges[pair].definiteness.value,
                "weight": [float(x) for x in averaged.edges[pair].entries.flat],
            }
            for pair in sorted(averaged.edges)
        ],
        "null_space_dimension": null.dimension,
        "equals_consensus": null.equals_consensus,
        "positive_spanning_tree": {
            "exists": has_tree,
            "edges": [_edge_name(pair) for pair in tree_edges],
        },
    }

    verdicts: dict[str, Any] = {}
    if signal.periodic:
        one_period = integral if integral.span == (0.0, signal.period) else None
        verdicts["periodic"] = _verdict_to_dict(
            periodic_consensus_verdict(signal, tolerances, one_period)
        )
    horizon = args.horizon if args.horizon is not None else scenario.run.horizon
    if horizon is None and not signal.periodic:
        horizon = signal.partitions
    if horizon is not None:
        q = args.q if args.q is not None else scenario.run.q_threshold
        if q is None:
            q = DEFAULT_Q_THRESHOLD
        scan = necessary_condition_scan(signal, horizon, tolerances)
        verdicts["necessary_scan"] = _verdict_to_dict(scan)
        verdicts["sufficient_certificate"] = _verdict_to_dict(
            sufficient_condition_certificate(signal, scan, q, tolerances)
        )

    return {
        "echo": scenario_to_dict(scenario),
        "graphs": graphs_doc,
        "integral": integral_doc,
        "verdicts": verdicts,
    }


def _render_text(report: dict[str, Any]) -> str:
    lines: list[str] = []
    echo = report["echo"]
    dims = echo["dimensions"]
    signal = echo["signal"]
    kind = "periodic" if signal["periodic"] else "finite"
    lines.append(
        f"scenario: n={dims['n']}, d={dims['d']}, {kind} signal with "
        f"{len(signal['segments'])} segments, dwell bounds "
        f"[{signal['alpha']!r}, {signal['beta']!r}]"
    )
    for name, doc in report["graphs"].items():
        lines.append(f"graph {name}: {_render_graph(doc)}")
    integral = report["integral"]
    lines.append(
        f"integral network over [{integral['span'][0]!r}, {integral['span'][1]!r}): "
        + _render_graph(integral)
    )
    tree = integral["positive_spanning_tree"]
    if tree["exists"]:
        listed = " ".join("({},{})".format(*pair) for pair in tree["edges"])
        lines.append(f"positive spanning tree: {listed}")
    else:
        lines.append("positive spanning tree: none")
    for key, verdict in report["verdicts"].items():
        suffix = (
            f" (horizon {verdict['horizon']})" if "horizon" in verdict else ""
        )
        lines.append(f"verdict {key}{suffix}: {verdict['decision']}")
        for cert in verdict["certificates"]:
            lines.append(f"  certificate: {_render_certificate(cert)}")
    return "\n".join(lines) + "\n"


def _render_graph(doc: dict[str, Any]) -> str:
    """A report graph's edges and null space, as one line's tail."""
    edges = ", ".join(
        "({},{}) {}".format(*e["nodes"], e["definiteness"]) for e in doc["edges"]
    )
    agreement = "yes" if doc["equals_consensus"] else "no"
    return (
        f"edges {edges or '(none)'}; "
        f"null-space dimension {doc['null_space_dimension']}; "
        f"agreement subspace: {agreement}"
    )


def _render_certificate(cert: dict[str, Any]) -> str:
    kind = cert["type"]
    if kind == "null_space_match":
        return (
            f"null-space match over [{cert['span'][0]!r}, {cert['span'][1]!r}), "
            f"dimension {cert['dimension']}"
        )
    if kind == "positive_spanning_tree":
        return "positive spanning tree " + " ".join(
            "({},{})".format(*pair) for pair in cert["edges"]
        )
    if kind == "null_space_obstruction":
        witness = " ".join(f"{x:+.6f}" for x in cert["witness"])
        return (
            f"blocking direction over segments "
            f"[{cert['window'][0]}, {cert['window'][1]}): {witness}"
        )
    if kind == "uniform_contraction":
        windows = " ".join(
            f"[{w['start']},{w['stop']}) mu={w['mu_next']:.6f}"
            for w in cert["windows"]
        )
        return f"uniform contraction below {cert['threshold']!r}: {windows}"
    windows = " ".join(  # horizon_exhausted
        f"[{w['start']},{w['stop']})"
        + (f" mu={w['mu_next']:.6f}" if "mu_next" in w else "")
        for w in cert["windows"]
    )
    return (
        f"horizon {cert['horizon']} exhausted; closed windows: "
        f"{windows or '(none)'}"
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    report = _build_report(scenario, args)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        sys.stdout.write(_render_text(report))
    return 0


# -- simulate ----------------------------------------------------------------


def _write_csv(stream: Any, trajectory: Any) -> None:
    """One line per (sample, node), written a sample at a time from one
    line template.  Each cell is ``repr`` of the value as a Python float.  A
    converged run repeats a few values, so each state cell is looked up by
    its float64 bit pattern (not by value: ``-0.0 == 0.0`` and ``nan !=
    nan``) in a cache of the strings already formatted, and ``repr`` runs
    only on a miss.  The cache is emptied once it holds more than
    ``_CSV_CACHE_CELLS`` entries, and times, ``V`` and states are converted
    a sample at a time, so the writer's memory does not grow with the run."""
    n, d = trajectory.dims.n, trajectory.dims.d
    header = ",".join(["t", "node"] + [f"dim_{k + 1}" for k in range(d)] + ["V"])
    stream.write(header + "\n")
    # ``{0}`` and ``{1}`` take the sample's t and V cells, ``%s`` its states
    template = "".join(f"{{0}},{node + 1}" + ",%s" * d + ",{1}\n" for node in range(n))
    cache: dict[int, str] = {}
    for t, v, row in zip(trajectory.times, trajectory.lyapunov, trajectory.states):
        keys = row.view(np.int64).tolist()
        cells = list(map(cache.get, keys))
        if None in cells:
            if len(cache) > _CSV_CACHE_CELLS:
                cache.clear()
            cells = [
                cell or cache.get(key) or cache.setdefault(key, repr(value))
                for cell, key, value in zip(cells, keys, row.tolist())
            ]
        stream.write(template.format(repr(float(t)), repr(float(v))) % tuple(cells))


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.initial_state is None:
        raise ScenarioError("initial_state", "required for simulation")
    t_end = args.t_end if args.t_end is not None else scenario.run.t_end
    if t_end is None:
        raise ScenarioError(
            "run.t_end", "required for simulation (or pass --t-end)"
        )
    sample_dt = args.sample_dt if args.sample_dt is not None else scenario.run.sample_dt
    if sample_dt is None:
        sample_dt = DEFAULT_SAMPLE_DT

    trajectory = simulate(
        scenario.signal, scenario.initial_state, t_end, sample_dt, scenario.tolerances
    )

    deviation = None
    if args.oracle is not None:
        deviation = max_oracle_deviation(
            scenario.signal, scenario.initial_state, t_end, args.oracle
        )

    summary_stream = sys.stdout
    if args.out is not None:
        with open(args.out, "w") as stream:
            _write_csv(stream, trajectory)
    else:
        _write_csv(sys.stdout, trajectory)
        summary_stream = sys.stderr

    d = scenario.dims.d
    print(f"final time: {trajectory.final_time!r}", file=summary_stream)
    for node in range(scenario.dims.n):
        values = " ".join(
            repr(float(x)) for x in trajectory.final_state[node * d : (node + 1) * d]
        )
        print(f"node {node + 1}: {values}", file=summary_stream)
    mean = " ".join(repr(float(x)) for x in trajectory.consensus_point[:d])
    print(f"consensus point: {mean}", file=summary_stream)
    omega = float(np.linalg.norm(trajectory.final_state - trajectory.consensus_point))
    print(f"disagreement norm: {omega!r}", file=summary_stream)
    if deviation is not None:
        print(f"oracle max deviation: {deviation!r}", file=summary_stream)
        if not deviation <= scenario.tolerances.oracle_deviation:  # NaN fails
            print(
                f"error: reference integrator deviates by {deviation:.3e}, "
                f"beyond the allowed {scenario.tolerances.oracle_deviation:.3e}",
                file=sys.stderr,
            )
            return 3
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ModelError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
