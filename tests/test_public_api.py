"""The public API is what the README documents plus what the package itself
uses: every name in ``matconsensus.__all__`` must appear in ``README.md`` or
be referenced by some module under ``src/`` beyond its own definition and
the import lists."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import matconsensus
from matconsensus import SwitchingSignal

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "matconsensus"


def _referenced_names() -> set[str]:
    """Names loaded or accessed as attributes anywhere in the package.

    ``def``/``class`` names, import aliases and the ``__all__`` strings are
    not ``Name``/``Attribute`` nodes, so they do not count as uses.
    """
    names: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_name_is_documented_or_used():
    readme = (ROOT / "README.md").read_text()
    used = _referenced_names()
    unjustified = [
        name
        for name in matconsensus.__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unjustified == []


def test_every_exported_function_is_in_the_library_section():
    """The README's entry-point list keeps up with ``__all__``."""
    readme = (ROOT / "README.md").read_text()
    library = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    functions = [name for name in matconsensus.__all__ if name[0].islower()]
    assert [f for f in functions if not re.search(rf"\b{f}\b", library)] == []


def _load_tracer():
    """``perfbench/tracer.py``, loaded by path (``perfbench`` is not a
    package)."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_exists():
    """The benchmark tracer skips a name the package no longer has, which
    would silently drop a layer from the per-layer split."""
    tracer = _load_tracer()
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _, _ in tracer._TARGETS
        if not hasattr(importlib.import_module(f"matconsensus.{module}"), attribute)
    ]
    assert missing == []
    # wrapped on the class itself, so they must be defined there
    assert {"segment_exponential", "segment_eigensystem"} <= set(vars(SwitchingSignal))
    # read by the integral-network hook
    for name in ("segment_count", "segment_index_at", "switch_time"):
        assert hasattr(SwitchingSignal, name)


def test_tracer_hooks_run_on_the_demo(tmp_path):
    """The tracer's hooks read the package's results; one that reads a
    removed attribute fails here, not only under ``perfbench/run.py
    --trace 1``."""
    tracer = _load_tracer().Tracer()
    modules = {
        name: importlib.import_module(f"matconsensus.{name}")
        for name in ("cli", "graphs", "switching", "analysis", "simulator")
    }
    scenario = str(ROOT / "scenarios" / "four_agent_periodic.json")
    commands = {
        "analyze": ["analyze", scenario, "--format", "json"],
        "simulate": [
            "simulate", scenario, "--t-end", "6", "--sample-dt", "1.0",
            "--oracle", "--out", str(tmp_path / "trajectory.csv"),
        ],
    }
    with tracer.installed(modules):
        for command, argv in commands.items():
            with tracer.invocation(command):
                assert modules["cli"].main(argv) == 0
    spans = {span.name for record in tracer.invocations for span in record.spans}
    assert {
        "switching.integral_network",
        "analysis.periodic_verdict",
        "analysis.transition",
        "simulator.rk4",
    } <= spans
    counters = [record.counters for record in tracer.invocations]
    for name in (
        "switching.integral_segments",
        "analysis.windows_closed",
        "analysis.transition_segments",
        "simulator.rk4_steps",
    ):
        assert sum(c.get(name, 0) for c in counters) > 0, name


def _exception_classes() -> set[str]:
    """``module.Class`` for every class defined anywhere under ``src/``
    (nested ones too) with a base that is an exception class."""
    found: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "matconsensus" if path.stem == "__init__" else f"matconsensus.{path.stem}"
        )
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                try:
                    resolved = eval(ast.unparse(base), vars(module))
                except Exception:
                    continue
                if isinstance(resolved, type) and issubclass(resolved, BaseException):
                    found.add(f"{path.stem}.{node.name}")
    return found


def test_one_exception_class_per_exit_code():
    """A model or input violation is a ``ModelError`` (exit 2) whose message
    names it; a scenario file that cannot be parsed is a ``ScenarioError``
    (exit 1), and so is a usage error inside the CLI.  No other exception
    class is defined: none would be dispatched on."""
    assert _exception_classes() == {
        "errors.ModelError",
        "scenario.ScenarioError",
        "cli._UsageError",
    }
