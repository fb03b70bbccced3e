"""The public API is what the README documents plus what the package itself
uses: every name in ``matconsensus.__all__`` must appear in ``README.md`` or
be referenced by some module under ``src/`` beyond its own definition and
the import lists."""

import ast
import re
from pathlib import Path

import matconsensus

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
