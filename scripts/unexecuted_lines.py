"""List every statement of the package that the test suite never runs.

    python3 scripts/unexecuted_lines.py [PYTEST_ARGS ...]

Runs the tests (``tests/`` unless other pytest arguments are given) in this
process under ``sys.settrace``, then prints ``path:line`` for each statement
under ``src/`` that never ran, and their count.  Statements are read with
``ast``; docstrings are skipped, and a compound statement (``if``, ``for``,
``def``, ``try``, ...) counts as run when a line of its header, or a
statement of its body, ran.  Only code run in this interpreter is seen: a
test that starts a subprocess (``python3 -m matconsensus ...``) runs it
untraced, so lines that only such tests reach are listed too.  Uses the
standard library and pytest only.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The pytest exit code, and the lines run per file under ``src/``."""
    import pytest

    prefix = str(SRC) + "/"
    seen: dict[str, set[int]] = {}

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None  # no line events for frames outside the package
        lines = seen.setdefault(path, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        lines.add(frame.f_lineno)
        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    return int(code), seen


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _first_line(node: ast.stmt) -> int:
    """The statement's first line, its decorators included."""
    decorators = getattr(node, "decorator_list", [])
    return min([node.lineno] + [d.lineno for d in decorators])


def _unexecuted(body: list[ast.stmt], ran: set[int], out: list[int]) -> bool:
    """Append to ``out`` the first line of each statement of ``body``, and of
    the bodies nested in it, that never ran; whether any statement of
    ``body`` ran."""
    any_ran = False
    for index, node in enumerate(body):
        if (index == 0 and _is_docstring(node)) or isinstance(
            node, (ast.Global, ast.Nonlocal)  # no code of their own
        ):
            continue
        nested = [
            getattr(node, field)
            for field in ("body", "orelse", "finalbody")
            if isinstance(getattr(node, field, None), list)
        ]
        nested += [handler.body for handler in getattr(node, "handlers", [])]
        nested += [case.body for case in getattr(node, "cases", [])]
        # a compound statement's header ends before its first nested line
        end = node.end_lineno or node.lineno
        if nested:
            end = max(node.lineno, min(inner[0].lineno for inner in nested if inner) - 1)
        node_ran = any(line in ran for line in range(_first_line(node), end + 1))
        for inner in nested:
            node_ran |= _unexecuted(inner, ran, out)
        if not node_ran:
            out.append(_first_line(node))
        any_ran |= node_ran
    return any_ran


def main(argv: list[str]) -> int:
    pytest_args = argv or [str(ROOT / "tests")]
    code, seen = _run_traced(["-q", "-p", "no:cacheprovider", *pytest_args])
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        missed: list[int] = []
        _unexecuted(tree.body, seen.get(str(path), set()), missed)
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}")
        total += len(missed)
    print(f"{total} statements under src/ never ran (pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
