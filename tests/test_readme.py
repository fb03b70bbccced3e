"""README.md's Library example runs as written, and the values its comments
promise are the values it computes; the counts it states are the counts of
the code it describes."""

import importlib.util
import re
from pathlib import Path

import numpy as np

from matconsensus import Decision

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_snippet() -> str:
    section = README.read_text().split("## Library", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block in the Library section"
    return match.group(1)


def test_library_snippet_runs_and_matches_its_comments():
    snippet = _library_snippet()
    namespace: dict = {}
    exec(compile(snippet, str(README), "exec"), namespace)
    signal, scan, x0 = namespace["signal"], namespace["scan"], namespace["x0"]
    certificate = namespace["sufficient_condition_certificate"](signal, scan, 0.99)
    assert "sufficient_condition_certificate(signal, scan, 0.99)" in snippet
    assert certificate.decision is Decision.CONSENSUS
    assert namespace["periodic_consensus_verdict"](signal).decision is Decision.CONSENSUS
    report = namespace["report"]
    assert (report.dimension, report.equals_consensus) == (2, True)
    final = namespace["trajectory"].final_state.reshape(3, 2)
    assert np.allclose(final, x0.mean(axis=0), atol=1e-3)


def test_invocation_count_matches_the_comparison_script(tmp_path):
    """The README's count of ``scripts/compare_outputs.py`` invocations is
    the length of the list the script builds."""
    path = README.parent / "scripts" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("_compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    match = re.search(r"runs a fixed list of (\d+) CLI\s+invocations", README.read_text())
    assert match, "no invocation count in the README"
    assert int(match.group(1)) == len(module.write_scenarios(tmp_path))
