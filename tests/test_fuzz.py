"""Fuzz the CLI with mutated copies of the demo scenario document.

Every mutation replaces a leaf, deletes a key, adds an unknown key, swaps
a value's type or scales one edge weight by a power of ten.  Whatever the
document, ``validate``, ``analyze`` and ``simulate`` must end with a
documented exit code (0, 1 or 2; 3 too for the ``--oracle`` cross-check)
and no traceback, a CSV written on success must hold only finite numbers,
and an oracle deviation must be printed as a float, finite on success.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matconsensus.cli import main
from conftest import FIXTURE_DIR

DEMO = json.loads((FIXTURE_DIR / "four_agent_periodic.json").read_text())

# The explicit options bound the work whatever a mutated ``run`` section asks.
COMMANDS = (
    ["validate"],
    ["analyze", "--horizon", "8"],
    ["simulate", "--t-end", "6", "--sample-dt", "0.5"],
    ["simulate", "--t-end", "6", "--sample-dt", "0.5", "--oracle", "0.01"],
)


def _children(node):
    if isinstance(node, dict):
        return list(node.items())
    if isinstance(node, list):
        return list(enumerate(node))
    return []


def _paths(node, prefix=()):
    """Every key path into ``node``, its own (empty) path first."""
    yield prefix
    for key, child in _children(node):
        yield from _paths(child, prefix + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


PATHS = list(_paths(DEMO))
LEAVES = [p for p in PATHS if not isinstance(_node(DEMO, p), (dict, list))]
OBJECTS = [p for p in PATHS if isinstance(_node(DEMO, p), dict)]
MEMBERS = PATHS[1:]
WEIGHTS = [p for p in PATHS if p[-1:] == ("weight",)]

NUMBERS = st.one_of(
    st.integers(-3, 10),
    st.floats(-10.0, 10.0),
    st.sampled_from(
        [0.0, -1.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf]
    ),
)
VALUES = st.one_of(
    NUMBERS,
    st.none(),
    st.booleans(),
    st.sampled_from(["", "G1", "G4", "x"]),
    st.sampled_from([[], {}, [1.0, 0.0, 0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]]]),
)


def _swapped(value):
    """The same content under another JSON type."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, list):
        return {str(index): item for index, item in enumerate(value)}
    if isinstance(value, str):
        return 1.0
    if value is None or isinstance(value, bool):
        return int(bool(value))
    return str(value)


MUTATIONS = st.one_of(
    # most leaves are numbers, so a numeric replacement often parses and
    # reaches the numerics
    st.tuples(st.just("replace"), st.sampled_from(LEAVES), NUMBERS),
    st.tuples(st.just("replace"), st.sampled_from(LEAVES), VALUES),
    st.tuples(st.just("delete"), st.sampled_from(MEMBERS), st.none()),
    st.tuples(st.just("add"), st.sampled_from(OBJECTS), VALUES),
    st.tuples(st.just("swap"), st.sampled_from(MEMBERS), st.none()),
    # a PSD weight stays PSD, but the Laplacian's spectrum spreads
    st.tuples(st.just("scale"), st.sampled_from(WEIGHTS), st.integers(0, 20)),
)


def _apply(doc, mutation):
    """Apply one mutation in place; skip it if an earlier one removed or
    retyped its target."""
    kind, path, value = mutation
    try:
        if kind == "add":
            target = _node(doc, path)
            if isinstance(target, dict):
                target["unexpected"] = value
            return
        parent, key = _node(doc, path[:-1]), path[-1]
        parent[key]  # the target must still exist
    except (KeyError, IndexError, TypeError):
        return
    if kind == "replace":
        parent[key] = value
    elif kind == "scale":
        weight = parent[key]
        if isinstance(weight, list) and all(type(x) in (int, float) for x in weight):
            parent[key] = [x * 10**value for x in weight]
    elif kind == "delete":
        del parent[key]
    else:
        parent[key] = _swapped(parent[key])


def _run(path, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    return code, out.getvalue(), err.getvalue()


# huge inputs overflow on the way to their rejection
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.lists(MUTATIONS, min_size=1, max_size=2))
# found by longer runs: a Laplacian spectrum beyond the float range, exact
# propagation through one, and an initial state whose squared norm overflows
@example([("replace", ("graphs", "G2", 0, "weight", 0), 1e308)])
@example([("replace", ("graphs", "G1", 1, "weight", 0), 1e308)])
@example([("replace", ("initial_state", 0, 0), 1e308)])
# a spread too wide for exact propagation to keep the network mean
@example([("scale", ("graphs", "G2", 0, "weight"), 20)])
def test_mutated_scenarios_end_cleanly(mutations):
    doc = copy.deepcopy(DEMO)
    for mutation in mutations:
        _apply(doc, mutation)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "scenario.json"
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            code, out, err = _run(path, command)
            oracle = "--oracle" in command
            assert code in ((0, 1, 2, 3) if oracle else (0, 1, 2)), (command, err)
            assert "Traceback" not in err
            if command[0] == "simulate" and code == 0:
                rows = out.splitlines()[1:]
                assert rows
                for row in rows:
                    assert all(math.isfinite(float(cell)) for cell in row.split(","))
            if oracle and code in (0, 3):
                # the CSV goes to stdout, so the summary goes to stderr
                line = next(
                    line for line in err.splitlines()
                    if line.startswith("oracle max deviation: ")
                )
                deviation = float(line.split(": ", 1)[1])
                assert math.isfinite(deviation) or code == 3, line
