"""End-to-end benchmark of the matconsensus CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's scenario from the seed (``generate.py``), then
drives ``matconsensus.cli.main`` in this process in a closed loop with one
caller: each invocation starts after the previous one returns.  Every
output is checked (``check.py``): whatever the seed, each run first runs the
seed-0 scenario's four commands once, untimed, and compares their outputs
byte for byte with the digests recorded from the seed code; the seed's own
outputs are checked for structure.  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--seconds`` bounds the whole run, warm-up and fresh-process probes
included.  ``--trace 0`` reports the end-to-end metrics: median warm wall
time of each command, each measured for about the same share of the run;
import time in a fresh interpreter (``setup_s``); and the peak RSS of a
fresh child running one command.  ``--trace 1`` alternates
untraced and traced rounds of the four commands and reports the per-layer
metrics (``tracer.py``); spans are written to
``perfbench/.work/<workload>/spans.jsonl``.

``periodic-large`` runs the same way but is not listed in ``BENCHMARK.json``:
its warm-up and fresh-process probes take about 30 s, which leaves too few
warm samples within the run budget for a steady median.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import importlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS and inherited by every
# child.  With the default two threads on a shared two-vCPU host, each
# 200x200 matrix-vector product of the oracle waits for a second thread:
# one busy neighbour vCPU slowed ``oracle`` by 35% with two threads and by
# 11% with one, while on an idle host the two settings ran equally fast.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from check import DIGESTS, Checker, load_digests  # noqa: E402
from generate import WORKLOADS, write_scenario  # noqa: E402
import tracer as tracing  # noqa: E402

COMMANDS = ("validate", "analyze", "simulate", "oracle")
PEAK_COMMANDS = ("analyze", "simulate", "oracle")
# The seed whose output bytes are recorded in digests.json.
REFERENCE_SEED = 0
SETUP_REPEATS = 30
# Warm samples each command gets even when the run is shorter than that.
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("validate_s", "s"),
    ("analyze_s", "s"),
    ("simulate_s", "s"),
    ("oracle_s", "s"),
    ("analyze_peak_mb", "MB"),
    ("simulate_peak_mb", "MB"),
    ("oracle_peak_mb", "MB"),
)

# The end-to-end metric each layer should move, the workload that exercises
# it most, and where a change to the layer should move nothing:
#   scenario   validate_s, every command's parse  periodic-mid (d=3)   analyze_peak_mb
#   graphs     analyze_s                          finite-long          oracle_s
#   spectral   analyze_s, validate_s              null spaces: finite-long;
#                                                 classification: periodic-mid   simulate_s
#   switching  analyze_s, simulate_s, *_peak_mb   finite-long          periodic-mid
#   analysis   analyze_s                          scan: both; contraction: finite-long
#                                                                      simulate_s, oracle_s
#   simulator  simulate_s, oracle_s, oracle_peak_mb  finite-long (simulate), both (oracle)
#                                                                      analyze_s
#   cli        simulate_s, analyze_s              periodic-mid (CSV)   validate_s
# periodic-large exercises the BLAS-bound and CSV-bound ends of the same
# layers when run by hand.
#
# per-layer metric -> (unit, source); sources are "self:<span>" (summed
# self time), "calls:<span>", "count:<counter>" or a name computed below.
# Values are sums over one round of the four commands.
PER_LAYER: dict[str, tuple[str, str]] = {
    "scenario.load_s": ("s", "self:scenario.load"),
    "scenario.edges": ("count", "edges"),
    "graphs.laplacian_s": ("s", "self:graphs.laplacian"),
    "graphs.laplacian_calls": ("count", "calls:graphs.laplacian"),
    **{
        f"spectral.eigh_calls.{size}": ("count", f"count:spectral.eigh_calls.{size}")
        for size in [*map(str, tracing.CENSUS_SIZES), "other"]
    },
    "spectral.eigh_s": ("s", "self:spectral.eigh"),
    "spectral.eigh_n3": ("count", "count:spectral.eigh_n3"),
    "spectral.classify_calls": ("count", "calls:spectral.classify"),
    "spectral.classify_s": ("s", "self:spectral.classify"),
    "spectral.null_space_calls": ("count", "calls:spectral.null_space"),
    "spectral.null_space_s": ("s", "self:spectral.null_space"),
    "switching.integral_network_s": ("s", "self:switching.integral_network"),
    "switching.integral_segments": ("count", "count:switching.integral_segments"),
    "switching.exponential_builds": ("count", "count:switching.exponential_builds"),
    "switching.exponential_s": ("s", "self:switching.exponential"),
    "switching.eigensystem_builds": ("count", "count:switching.eigensystem_builds"),
    "analysis.window_scan_s": ("s", "self:analysis.window_scan"),
    "analysis.window_tests": ("count", "window_tests"),
    "analysis.windows_closed": ("count", "count:analysis.windows_closed"),
    "analysis.transition_s": ("s", "self:analysis.transition"),
    "analysis.transition_segments": ("count", "count:analysis.transition_segments"),
    "analysis.contraction_s": ("s", "self:analysis.contraction"),
    "analysis.contraction_calls": ("count", "calls:analysis.contraction"),
    "analysis.periodic_verdict_s": ("s", "self:analysis.periodic_verdict"),
    "simulator.propagate_s": ("s", "self:simulator.propagate"),
    "simulator.samples": ("count", "count:simulator.samples"),
    "simulator.rk4_s": ("s", "self:simulator.rk4"),
    "simulator.rk4_steps": ("count", "count:simulator.rk4_steps"),
    "simulator.oracle_compare_s": ("s", "self:simulator.oracle_compare"),
    "cli.report_s": ("s", "self:cli.report"),
    "cli.report_bytes": ("bytes", "report_bytes"),
    "cli.csv_write_s": ("s", "self:cli.csv_write"),
    "cli.csv_rows": ("count", "csv_rows"),
    "cli.csv_bytes": ("bytes", "csv_bytes"),
    "trace.coverage_analyze": ("ratio", "coverage:analyze"),
    "trace.coverage_simulate": ("ratio", "coverage:simulate"),
    "trace.overhead_s": ("s", "overhead"),
}


class Workload:
    """One workload's scenario, command lines and output checks."""

    def __init__(self, name: str, seed: int, work: Path, environment: str) -> None:
        self.work = work
        self.path = write_scenario(name, seed, work)
        t_end = json.loads(self.path.read_text())["run"]["t_end"]
        self.shape = {**WORKLOADS[name], "t_end": t_end}
        self.csv = {"simulate": work / "simulate.csv", "oracle": work / "oracle.csv"}
        expected = load_digests(name, environment) if seed == REFERENCE_SEED else None
        self.digests_checked = expected is not None
        self.checker = Checker(self.shape, expected)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def argv(self, command: str) -> list[str]:
        path = str(self.path)
        if command == "validate":
            return ["validate", path]
        if command == "analyze":
            return ["analyze", path, "--format", "json"]
        argv = ["simulate", path, "--out", str(self.csv[command])]
        if command == "oracle":
            argv += ["--oracle", "--t-end", repr(self.shape["t_oracle"])]
        return argv

    def record(self, command: str, code: int | None, stdout: str) -> None:
        self.attempted += 1
        problems = self.checker.problems(command, code, stdout, self.csv.get(command))
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def invoke(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """Run one CLI invocation in this process; returns (exit code or None
    on an uncaught exception, stdout, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed invocation, not a crash
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue(), elapsed


def child(*args: str) -> dict:
    result = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise SystemExit(f"child {args[0]} exited {result.returncode}")
    return json.loads(result.stdout.splitlines()[-1])


# -- environment --------------------------------------------------------------


def _openblas() -> tuple[str, int | None]:
    """Configuration string and thread count of the loaded OpenBLAS."""
    maps = Path("/proc/self/maps").read_text()
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                return config().decode().strip(), int(threads())
    return "unknown", None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": config,
        "blas_threads": threads,
        "seed": seed,
    }


def environment_key(env: dict) -> str:
    """What the output bytes depend on besides the program and the seed."""
    return f"numpy {env['numpy']}; {env['blas_config']}; threads {env['blas_threads']}"


# -- statistics ---------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, quartiles and the highest tail percentile with at least ten
    samples beyond it."""
    ordered = sorted(values)
    doc = {"median": statistics.median(ordered), "samples": len(ordered)}
    if len(ordered) >= 4:
        doc["p25"], _, doc["p75"] = statistics.quantiles(ordered, n=4)
    for tail in (99, 95, 90):
        if len(ordered) * (100 - tail) / 100 >= 10:
            doc[f"p{tail}"] = ordered[math.ceil(len(ordered) * tail / 100) - 1]
            break
    return doc


def run_rounds(deadline: float, minimum: int, one_round) -> None:
    """Call ``one_round`` at least ``minimum`` times, then while another
    round still fits before ``deadline`` (a ``perf_counter`` time)."""
    rounds = 0
    in_rounds = 0.0
    while True:
        began = time.perf_counter()
        one_round()
        in_rounds += time.perf_counter() - began
        rounds += 1
        if rounds >= minimum and time.perf_counter() + in_rounds / rounds > deadline:
            break


# -- the two kinds of run -----------------------------------------------------


def check_reference(cli, reference: Workload) -> dict[str, float]:
    """Run the seed-0 scenario's four commands once, untimed, and check
    them against the recorded digests; returns each command's wall time."""
    times = {}
    for command in COMMANDS:
        code, stdout, times[command] = invoke(cli, reference.argv(command))
        reference.record(command, code, stdout)
    return times


def timed_run(
    workload: Workload, reference: Workload, deadline: float
) -> tuple[dict, list[str], dict]:
    """Closed loop until ``deadline``: each step runs the command with the
    least measured time so far, so every command is measured for about the
    same share of the run and each command's samples are interleaved with
    the others' over the whole run.  The fresh-process probes (``chores``)
    run between steps, spread over the run in proportion to the time
    elapsed, and the loop stops early enough for the ones still pending."""
    from matconsensus import cli

    # The digest check doubles as the warm-up: same shape, same code paths.
    warm = check_reference(cli, reference)

    samples: dict[str, list[float]] = {command: [] for command in COMMANDS}
    measured = dict.fromkeys(COMMANDS, 0.0)
    setup: list[float] = []
    peaks: dict[str, float] = {}

    def probe_setup() -> None:
        setup.append(child("import")["import_s"])

    def probe_peak(command: str) -> None:
        stdout_file = workload.work / f"{command}.stdout"
        result = child("run", str(stdout_file), *workload.argv(command))
        workload.record(command, result["code"], stdout_file.read_text())
        peaks[command] = result["peak_kb"] * 1024 / 1e6

    chores: list[tuple[str, Callable[[], None]]] = []
    for command in PEAK_COMMANDS:
        chores.append((command, functools.partial(probe_peak, command)))
        chores.extend([("import", probe_setup)] * (SETUP_REPEATS // len(PEAK_COMMANDS)))
    chore_s: dict[str, float] = {}

    def pending_s(pending: list) -> float:
        """Expected time of the pending chores, from the last run of each kind."""
        known = list(chore_s.values())
        fallback = statistics.mean(known) if known else 0.0
        return sum(chore_s.get(label, fallback) for label, _ in pending)

    pending = list(chores)
    start = time.perf_counter()
    window = max(deadline - start, 1e-9)
    while True:
        command = min(COMMANDS, key=measured.__getitem__)
        expected = statistics.median(samples[command] or [warm[command]])
        enough = all(len(samples[c]) >= MIN_SAMPLES for c in COMMANDS)
        if enough and time.perf_counter() + expected + pending_s(pending) > deadline:
            break
        code, stdout, elapsed = invoke(cli, workload.argv(command))
        workload.record(command, code, stdout)
        samples[command].append(elapsed)
        measured[command] += elapsed
        due = len(chores) * min(1.0, (time.perf_counter() - start) / window)
        while pending and len(chores) - len(pending) < due:
            label, chore = pending.pop(0)
            began = time.perf_counter()
            chore()
            chore_s[label] = time.perf_counter() - began
    for _, chore in pending:
        chore()

    stats = {"setup_s": summary(setup)}
    stats.update({f"{c}_s": summary(samples[c]) for c in COMMANDS})
    stats.update({f"{c}_peak_mb": summary([peaks[c]]) for c in PEAK_COMMANDS})
    metrics = {
        name: {"value": stats[name]["median"], "unit": unit} for name, unit in END_TO_END
    }
    lines = [f"{'metric':<18} {'value':>12} {'unit':<5} {'samples':>7}  quartiles / tail"]
    for name, unit in END_TO_END:
        doc = stats[name]
        extra = " ".join(
            f"{key}={doc[key]:.4g}" for key in ("p25", "p75", "p90", "p95", "p99") if key in doc
        )
        lines.append(
            f"{name:<18} {doc['median']:>12.6g} {unit:<5} {doc['samples']:>7}  {extra}"
        )
    raw = {"setup_s": setup, "peak_mb": peaks, **{f"{c}_s": samples[c] for c in COMMANDS}}
    return metrics, lines, raw


def _round_layers(workload: Workload, records: dict) -> dict[str, float]:
    """Per-layer values of one traced round of the four commands."""
    selfs: dict[str, float] = {}
    calls: dict[str, float] = {}
    counters: dict[str, float] = {}
    for record in records.values():
        for key, value in tracing.self_times(record).items():
            selfs[key] = selfs.get(key, 0.0) + value
        for key, value in tracing.call_counts(record).items():
            calls[key] = calls.get(key, 0) + value
        for key, value in record.counters.items():
            counters[key] = counters.get(key, 0) + value
    csv = [path.read_bytes() for path in workload.csv.values() if path.is_file()]
    computed = {
        "edges": max(r.counters.get("scenario.edges", 0) for r in records.values()),
        "window_tests": sum(tracing.window_tests(r) for r in records.values()),
        "report_bytes": records["analyze"].output_bytes,
        "csv_rows": sum(data.count(b"\n") - 1 for data in csv),
        "csv_bytes": sum(len(data) for data in csv),
        "coverage:analyze": tracing.coverage(records["analyze"]),
        "coverage:simulate": tracing.coverage(records["simulate"]),
    }
    values = {}
    for name, (_, source) in PER_LAYER.items():
        kind, _, key = source.partition(":")
        if kind == "self":
            values[name] = selfs.get(key, 0.0)
        elif kind == "calls":
            values[name] = calls.get(key, 0)
        elif kind == "count":
            values[name] = counters.get(key, 0)
        elif source in computed:
            values[name] = computed[source]
    return values


def traced_run(
    workload: Workload, reference: Workload, deadline: float
) -> tuple[dict, list[str], dict]:
    from matconsensus import cli

    check_reference(cli, reference)

    modules = {
        name: importlib.import_module(f"matconsensus.{name}")
        for name in ("cli", "graphs", "switching", "analysis", "simulator")
    }
    tracer = tracing.Tracer()

    def one_pass(traced: bool) -> tuple[float, dict]:
        records = {}
        total = 0.0
        with tracer.installed(modules) if traced else contextlib.nullcontext():
            for command in COMMANDS:
                with tracer.invocation(command) if traced else contextlib.nullcontext() as record:
                    code, stdout, elapsed = invoke(cli, workload.argv(command))
                workload.record(command, code, stdout)
                total += elapsed
                if traced:
                    record.output_bytes = len(stdout.encode())
                    records[command] = record
        return total, records

    _, warm_records = one_pass(traced=True)  # warm-up, counts only
    rounds: list[dict] = [_round_layers(workload, warm_records)]
    untraced: list[float] = []
    traced: list[float] = []

    def one_round() -> None:
        untraced.append(one_pass(traced=False)[0])
        total, records = one_pass(traced=True)
        traced.append(total)
        rounds.append(_round_layers(workload, records))

    run_rounds(deadline, 1, one_round)
    tracer.dump(workload.work / "spans.jsonl")

    counted = [n for n, (unit, _) in PER_LAYER.items() if unit in ("count", "bytes")]
    for name in counted:
        seen = {r[name] for r in rounds}
        if len(seen) > 1:
            workload.problems.append(f"{name} differs between traced rounds: {sorted(seen)}")
    timed = rounds[1:]
    values = {
        name: (timed[-1][name] if name in counted else statistics.median(r[name] for r in timed))
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics = {
        name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()
    }
    lines = [f"traced rounds {len(timed)} (+1 warm-up), untraced rounds {len(untraced)}"]
    lines += [f"{name:<32} {values[name]:>14.6g} {unit}" for name, (unit, _) in PER_LAYER.items()]
    lines.append("self time by span, last traced round:")
    last = tracer.invocations[-len(COMMANDS):]
    for record in last:
        top = sorted(tracing.self_times(record).items(), key=lambda kv: -kv[1])
        lines.append(
            f"  {record.command:<9} " + ", ".join(f"{k} {v:.4f}" for k, v in top if v >= 5e-4)
        )
    raw = {"rounds": rounds, "traced_s": traced, "untraced_s": untraced}
    return metrics, lines, raw


def main() -> int:
    parser = argparse.ArgumentParser(description="matconsensus CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + args.seconds

    if not (SRC / "matconsensus" / "cli.py").is_file():
        print(f"no matconsensus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matconsensus

    if not Path(matconsensus.__file__).resolve().is_relative_to(SRC):
        print(f"matconsensus imported from {matconsensus.__file__}", file=sys.stderr)
        return 2

    work = HERE / ".work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env = environment(args.seed)
    key = environment_key(env)
    workload = Workload(args.workload, args.seed, work, key)
    if args.seed == REFERENCE_SEED:
        reference = workload
    else:
        reference = Workload(args.workload, REFERENCE_SEED, work / "reference", key)
    if not reference.digests_checked:
        print(
            f"WARNING: no byte-for-byte check: digests.json was recorded for "
            f"[{json.loads(DIGESTS.read_text())['environment']}], this is [{key}]",
            file=sys.stderr,
        )

    run = traced_run if args.trace else timed_run
    metrics, lines, raw = run(workload, reference, deadline)
    for pattern in ("**/*.csv", "**/*.stdout"):
        for path in work.glob(pattern):
            path.unlink()

    scenarios = [workload] if reference is workload else [workload, reference]
    attempted = sum(s.attempted for s in scenarios)
    failed = sum(s.failed for s in scenarios)
    problems = [p for s in scenarios for p in s.problems]
    if reference.digests_checked:
        check = f"seed {REFERENCE_SEED} against digests of the seed code"
    else:
        check = "structure only (WARNING: digests not checked, see stderr)"
    print(
        f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
        f"closed loop, one caller; outputs checked: {check}"
        + ("" if reference is workload else f", seed {args.seed} for structure")
    )
    print("# env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} invocations)")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {"args": vars(args), "env": env, "result": result, "raw": raw}
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
