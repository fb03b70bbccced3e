"""Span tracing of the matconsensus layers, installed from outside the
package.

The wrappers replace module-level names where their callers look them up
(``cli.load_scenario``, ``analysis.null_space_basis``, ...), the signal
classes' ``segment_exponential`` / ``segment_eigensystem`` methods, and
``numpy.linalg.eigh`` / ``eigvalsh`` for the eigendecomposition census.
Nothing in the package changes; a name the package no longer has is
skipped.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

Hook = Callable[["Tracer", tuple, dict, Any], None]

# Eigendecomposition sizes given their own census entry (the node blocks and
# nd of the listed workloads); any other size, such as periodic-large's
# nd=400, is counted under ``other``.
CENSUS_SIZES = (2, 3, 180, 200)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Invocation:
    command: str
    output_bytes: int = 0
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)


class _Returned:
    """Tells arrays never returned before from cached ones, by identity."""

    def __init__(self) -> None:
        self._seen: dict[int, weakref.ref] = {}

    def is_new(self, array: Any) -> bool:
        ref = self._seen.get(id(array))
        if ref is not None and ref() is array:
            return False
        self._seen[id(array)] = weakref.ref(array)
        return True


class _ModuleProxy:
    """A stand-in for a module with some attributes replaced."""

    def __init__(self, module: Any, overrides: dict[str, Any]) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


class Tracer:
    """Records spans of wrapped calls, grouped by CLI invocation."""

    def __init__(self) -> None:
        self.invocations: list[Invocation] = []
        self._stack: list[int] = []
        self._current: Invocation | None = None
        self._exponentials = _Returned()
        self._eigensystems = _Returned()

    # -- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def invocation(self, command: str) -> Iterator[Invocation]:
        """Group the spans of one CLI invocation under a top-level span."""
        record = Invocation(command)
        self.invocations.append(record)
        self._current = record
        self._stack = []
        try:
            with self.span("cli.main"):
                yield record
        finally:
            self._current = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = self._current
        if record is None:
            yield
            return
        index = len(record.spans)
        parent = self._stack[-1] if self._stack else None
        record.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record.spans[index].end = time.perf_counter()

    def count(self, key: str, amount: float = 1) -> None:
        if self._current is not None:
            counters = self._current.counters
            counters[key] = counters.get(key, 0) + amount

    def wrap(self, name: str, function: Callable, hook: Hook | None = None) -> Callable:
        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = function(*args, **kwargs)
            if hook is not None and self._current is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, modules: dict[str, Any]) -> Iterator[None]:
        """Install every wrapper for the duration of the block."""
        saved: list[tuple[Any, str, Any]] = []

        def replace(owner: Any, attribute: str, value: Any) -> None:
            saved.append((owner, attribute, getattr(owner, attribute)))
            setattr(owner, attribute, value)

        for module_name, attribute, span_name, hook in _TARGETS:
            owner = modules[module_name]
            original = getattr(owner, attribute, None)
            if original is not None:
                replace(owner, attribute, self.wrap(span_name, original, hook))

        cli = modules["cli"]
        replace(
            cli,
            "json",
            _ModuleProxy(json, {"dumps": self.wrap("cli.report", json.dumps)}),
        )
        for attribute in ("eigh", "eigvalsh"):
            replace(
                np.linalg, attribute,
                self.wrap("spectral.eigh", getattr(np.linalg, attribute), _census),
            )
        switching = modules["switching"]
        for cls in vars(switching).values():
            if not isinstance(cls, type) or cls.__module__ != switching.__name__:
                continue
            for method, span_name, hook in (
                ("segment_exponential", "switching.exponential", _exponential_built),
                ("segment_eigensystem", "switching.eigensystem", _eigensystem_built),
            ):
                if method in vars(cls):
                    replace(cls, method, self.wrap(span_name, vars(cls)[method], hook))
        try:
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def dump(self, path: Path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w") as stream:
            for number, record in enumerate(self.invocations):
                for index, span in enumerate(record.spans):
                    stream.write(
                        json.dumps(
                            {
                                "invocation": number,
                                "command": record.command,
                                "id": index,
                                "name": span.name,
                                "start": span.start,
                                "end": span.end,
                                "parent": span.parent,
                            }
                        )
                        + "\n"
                    )


# -- hooks: counts taken at the layer boundaries ------------------------------


def _census(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    matrix = np.asarray(args[0] if args else kwargs["a"])
    size = matrix.shape[-1]
    stacked = int(np.prod(matrix.shape[:-2], dtype=np.int64))
    label = str(size) if size in CENSUS_SIZES else "other"
    tracer.count(f"spectral.eigh_calls.{label}", stacked)
    tracer.count("spectral.eigh_n3", stacked * size**3)


def _scenario_edges(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("scenario.edges", sum(len(g.edges) for g in result.graphs.values()))


def _integral_segments(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    signal, start, end = args[0], float(args[1]), float(args[2])
    count = signal.segment_count
    first = k = signal.segment_index_at(start)
    while (count is None or k < count) and signal.switch_time(k) < end:
        k += 1
    tracer.count("switching.integral_segments", k - first)


def _exponential_built(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if tracer._exponentials.is_new(result):
        tracer.count("switching.exponential_builds")


def _eigensystem_built(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if tracer._eigensystems.is_new(result[0]):
        tracer.count("switching.eigensystem_builds")


def _windows_closed(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    for certificate in result.certificates:
        windows = getattr(certificate, "windows", None)
        if windows is not None:
            tracer.count("analysis.windows_closed", len(windows))


def _transition_segments(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("analysis.transition_segments", result.stop - result.start)


def _samples(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("simulator.samples", len(result.times))


def _rk4_steps(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("simulator.rk4_steps", len(result.times) - 1)


# (module, attribute looked up by its caller, span name, hook)
_TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("cli", "load_scenario", "scenario.load", _scenario_edges),
    ("cli", "laplacian", "graphs.laplacian", None),
    ("switching", "laplacian", "graphs.laplacian", None),
    ("graphs", "classify_definiteness", "spectral.classify", None),
    ("switching", "classify_definiteness", "spectral.classify", None),
    ("cli", "null_space_basis", "spectral.null_space", None),
    ("analysis", "null_space_basis", "spectral.null_space", None),
    ("cli", "integral_network", "switching.integral_network", _integral_segments),
    ("analysis", "integral_network", "switching.integral_network", _integral_segments),
    ("cli", "necessary_condition_scan", "analysis.window_scan", _windows_closed),
    ("cli", "sufficient_condition_certificate", "analysis.window_scan", _windows_closed),
    ("analysis", "transition_matrix", "analysis.transition", _transition_segments),
    ("analysis", "contraction_factor", "analysis.contraction", None),
    ("cli", "periodic_consensus_verdict", "analysis.periodic_verdict", None),
    ("cli", "simulate", "simulator.propagate", _samples),
    ("simulator", "rk4_reference", "simulator.rk4", _rk4_steps),
    ("cli", "max_oracle_deviation", "simulator.oracle_compare", None),
    ("cli", "_build_report", "cli.report", None),
    ("cli", "_write_csv", "cli.csv_write", None),
)


# -- reduction ----------------------------------------------------------------


def self_times(record: Invocation) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's."""
    child_time = [0.0] * len(record.spans)
    for span in record.spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, float] = {}
    for span, inner in zip(record.spans, child_time):
        totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start - inner)
    return totals


def call_counts(record: Invocation) -> dict[str, int]:
    counts: dict[str, int] = {}
    for span in record.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    return counts


def window_tests(record: Invocation) -> int:
    """Null-space tests made directly by a window scan."""
    return sum(
        1
        for span in record.spans
        if span.name == "spectral.null_space"
        and span.parent is not None
        and record.spans[span.parent].name == "analysis.window_scan"
    )


def coverage(record: Invocation) -> float:
    """Share of the invocation's wall time covered by its child spans."""
    top = record.spans[0]
    covered = sum(s.end - s.start for s in record.spans if s.parent == 0)
    return covered / (top.end - top.start)
