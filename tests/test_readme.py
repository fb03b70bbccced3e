"""README.md's Library example runs as written, and the values its comments
promise are the values it computes."""

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
