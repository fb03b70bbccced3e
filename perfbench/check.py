"""Output checks behind ``failed_frac``.

For the default seed the outputs must match, byte for byte, the digests
recorded from the seed code in ``digests.json`` (when the numeric
environment matches the one they were recorded in).  For any other seed the
outputs are checked for structure: the report parses and carries every
verdict, the CSV has one row per (sample, node) under the documented
header, and the oracle deviation is within tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from generate import GRAPHS

DIGESTS = Path(__file__).with_name("digests.json")
DECISIONS = {"consensus", "no_consensus", "inconclusive"}
ORACLE_TOLERANCE = 1e-6


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests(workload: str, environment: str) -> dict[str, str] | None:
    """Recorded seed-0 digests of ``workload``, if recorded in this
    numeric environment."""
    if not DIGESTS.is_file():
        return None
    recorded = json.loads(DIGESTS.read_text())
    if recorded.get("environment") != environment:
        return None
    return recorded["workloads"].get(workload)


class Checker:
    """Checks the outputs of one workload's commands.

    Structure checks run once per distinct output: equal bytes cannot
    differ in their verdict.
    """

    def __init__(self, shape: dict, expected: dict[str, str] | None) -> None:
        self.shape = shape
        self.expected = expected
        self._passed: set[str] = set()

    def problems(
        self, command: str, code: int | None, stdout: str, csv: Path | None
    ) -> list[str]:
        if code != 0:
            return [f"{command}: exit code {code}"]
        outputs = {f"{command}.stdout": stdout.encode()}
        if csv is not None:
            outputs[f"{command}.csv"] = csv.read_bytes()
        if self.expected is not None:
            return [
                f"{key}: digest differs from the seed code"
                for key, data in outputs.items()
                if digest(data) != self.expected.get(key)
            ]
        found: list[str] = []
        for key, data in outputs.items():
            fingerprint = digest(data)
            if fingerprint in self._passed:
                continue
            if key.endswith(".csv"):
                errors = self._csv(command, data)
            else:
                errors = getattr(self, f"_{command}")(stdout)
            found.extend(f"{key}: {error}" for error in errors)
            if not errors:
                self._passed.add(fingerprint)
        return found

    # -- stdout --------------------------------------------------------------

    def _validate(self, stdout: str) -> list[str]:
        return [] if stdout.endswith("scenario valid\n") else ["not reported valid"]

    def _analyze(self, stdout: str) -> list[str]:
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as error:
            return [f"report is not JSON: {error}"]
        wanted = {"necessary_scan", "sufficient_certificate"}
        if self.shape["periodic"]:
            wanted.add("periodic")
        verdicts = report.get("verdicts", {})
        errors = [f"verdict {name} missing" for name in sorted(wanted - set(verdicts))]
        errors.extend(
            f"verdict {name} has decision {v.get('decision')!r}"
            for name, v in verdicts.items()
            if v.get("decision") not in DECISIONS
        )
        if len(report.get("graphs", {})) != GRAPHS:
            errors.append(f"report does not list {GRAPHS} graphs")
        return errors

    def _summary(self, stdout: str, t_end: float) -> list[str]:
        fields = dict(
            line.split(": ", 1) for line in stdout.splitlines() if ": " in line
        )
        errors = []
        if fields.get("final time") != repr(t_end):
            errors.append(f"final time {fields.get('final time')!r}, want {t_end!r}")
        if len([key for key in fields if key.startswith("node ")]) != self.shape["n"]:
            errors.append("summary does not list every node")
        return errors

    def _simulate(self, stdout: str) -> list[str]:
        return self._summary(stdout, self.shape["t_end"])

    def _oracle(self, stdout: str) -> list[str]:
        errors = self._summary(stdout, self.shape["t_oracle"])
        deviation = None
        for line in stdout.splitlines():
            if line.startswith("oracle max deviation: "):
                deviation = float(line.split(": ", 1)[1])
        if deviation is None or not deviation <= ORACLE_TOLERANCE:
            errors.append(f"oracle deviation {deviation!r} beyond {ORACLE_TOLERANCE}")
        return errors

    # -- CSV -----------------------------------------------------------------

    def _csv(self, command: str, data: bytes) -> list[str]:
        n, d = self.shape["n"], self.shape["d"]
        t_end = self.shape["t_oracle" if command == "oracle" else "t_end"]
        header = ",".join(["t", "node"] + [f"dim_{k + 1}" for k in range(d)] + ["V"])
        text = data.decode()
        head, _, body = text.partition("\n")
        if head != header:
            return [f"header {head!r}, want {header!r}"]
        if not body.endswith("\n"):
            return ["last row is not terminated"]
        rows = body.count("\n")
        if rows == 0 or rows % n:
            return [f"{rows} rows is not a multiple of n={n}"]
        try:
            table = np.array(body[:-1].replace("\n", ",").split(","), dtype=float)
        except ValueError as error:
            return [f"malformed number: {error}"]
        if table.size != rows * (d + 3):
            return [f"rows do not all have {d + 3} columns"]
        table = table.reshape(rows // n, n, d + 3)
        times, nodes, lyapunov = table[:, :, 0], table[:, :, 1], table[:, :, -1]
        errors = []
        if not np.all(np.isfinite(table)):
            errors.append("non-finite value")
        if not np.array_equal(nodes, np.broadcast_to(np.arange(1, n + 1), nodes.shape)):
            errors.append("node column does not cycle 1..n within each sample")
        if not (np.all(times == times[:, :1]) and np.all(lyapunov == lyapunov[:, :1])):
            errors.append("t or V differs within a sample")
        if not (np.all(np.diff(times[:, 0]) > 0) and times[0, 0] == 0.0):
            errors.append("sample times do not ascend from 0")
        if not math.isclose(times[-1, 0], t_end, rel_tol=1e-12):
            errors.append(f"last sample at {times[-1, 0]!r}, want {t_end!r}")
        slack = 1e-9 * max(1.0, float(lyapunov[0, 0]))
        if np.any(np.diff(lyapunov[:, 0]) > slack):
            errors.append("disagreement V increases")
        return errors
