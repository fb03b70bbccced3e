import io
import json
import shutil

import numpy as np
import pytest

from matconsensus import (
    GraphDimensions,
    Trajectory,
    analysis,
    load_scenario,
    necessary_condition_scan,
    periodic_consensus_verdict,
)
from matconsensus.cli import _write_csv, main
from conftest import FIXTURE_DIR


@pytest.fixture()
def fixture_path(tmp_path):
    path = tmp_path / "scenario.json"
    shutil.copy(FIXTURE_DIR / "four_agent_periodic.json", path)
    return path


def edit_fixture(path, mutate):
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    return path


def test_validate_fixture(fixture_path, capsys):
    assert main(["validate", str(fixture_path)]) == 0
    out = capsys.readouterr().out
    assert "scenario valid" in out
    assert "periodic" in out


def test_validate_reports_indefinite_weight(fixture_path, capsys):
    def corrupt(data):
        data["graphs"]["G1"][0]["weight"] = [1, 3, 3, 1]

    edit_fixture(fixture_path, corrupt)
    assert main(["validate", str(fixture_path)]) == 2
    err = capsys.readouterr().err
    assert "indefinite" in err
    assert "G1" in err


def test_validate_reports_too_few_partitions(fixture_path, capsys):
    def truncate(data):
        data["signal"]["segments"] = data["signal"]["segments"][:2]

    edit_fixture(fixture_path, truncate)
    assert main(["validate", str(fixture_path)]) == 2
    assert "two segments" in capsys.readouterr().err


def test_validate_reports_dwell_bounds(fixture_path, capsys):
    def stretch(data):
        data["signal"]["segments"][0]["dwell"] = 11.0

    edit_fixture(fixture_path, stretch)
    assert main(["validate", str(fixture_path)]) == 2
    assert "dwell" in capsys.readouterr().err


def test_exit_code_for_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_exit_code_for_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1


def test_exit_code_for_usage_error(capsys):
    assert main(["analyze"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_analyze_json_report(fixture_path, capsys):
    assert main(["analyze", str(fixture_path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["graphs"]["G1"]["null_space_dimension"] == 5
    assert report["graphs"]["G3"]["null_space_dimension"] == 6
    assert not report["graphs"]["G1"]["equals_consensus"]
    integral = report["integral"]
    assert integral["span"] == [0.0, 6.0]
    assert integral["equals_consensus"]
    assert integral["null_space_dimension"] == 2
    assert integral["positive_spanning_tree"]["exists"]
    assert integral["positive_spanning_tree"]["edges"] == [[1, 2], [2, 3], [2, 4]]

    verdicts = report["verdicts"]
    assert verdicts["periodic"]["decision"] == "consensus"
    kinds = {c["type"] for c in verdicts["periodic"]["certificates"]}
    assert kinds == {"null_space_match", "positive_spanning_tree"}
    assert verdicts["necessary_scan"]["decision"] == "inconclusive"
    assert verdicts["sufficient_certificate"]["decision"] == "consensus"
    contraction = verdicts["sufficient_certificate"]["certificates"][0]
    assert contraction["type"] == "uniform_contraction"
    assert [w["mu_next"] <= 0.99 for w in contraction["windows"]] == [True] * 3


def test_analyze_is_deterministic(fixture_path, capsys):
    assert main(["analyze", str(fixture_path), "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", str(fixture_path), "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_analyze_span_single_segment(fixture_path, capsys):
    assert main(["analyze", str(fixture_path), "--span", "0", "2",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    integral = report["integral"]
    assert integral["span"] == [0.0, 2.0]
    edges = {tuple(e["nodes"]): e for e in integral["edges"]}
    assert set(edges) == {(1, 2), (2, 3)}
    assert edges[(1, 2)]["weight"] == [1.0, 1.0, 1.0, 2.0]
    assert edges[(2, 3)]["weight"] == [1.0, 1.0, 1.0, 1.0]
    assert not integral["positive_spanning_tree"]["exists"]


def test_analyze_span_drops_zero_slivers(fixture_path, capsys):
    """A span end one rounding step past the first switch lists only G1's
    edges: the next segment's blocks average to zero over the overlap."""
    argv = ["analyze", str(fixture_path), "--span", "0", "2.0000000000000004"]
    assert main(argv + ["--format", "json"]) == 0
    integral = json.loads(capsys.readouterr().out)["integral"]
    assert [e["nodes"] for e in integral["edges"]] == [[1, 2], [2, 3]]


def test_analyze_certifies_only_beyond_mu_gap(fixture_path, capsys):
    """The first window contracts to mu = 0.675 <= q = 0.99, but not below
    1 - mu_gap = 0.5, so the sufficient certificate is inconclusive."""
    edit_fixture(fixture_path, lambda data: data.update(tolerances={"mu_gap": 0.5}))
    assert main(["analyze", str(fixture_path)]) == 0
    out = capsys.readouterr().out
    assert "verdict sufficient_certificate (horizon 8): inconclusive" in out


def test_analyze_no_consensus_witness(fixture_path, capsys):
    def line_only(data):
        data["signal"]["segments"] = [
            {"graph": "G1", "dwell": 2.0},
            {"graph": "G1", "dwell": 2.0},
            {"graph": "G1", "dwell": 2.0},
        ]

    edit_fixture(fixture_path, line_only)
    assert main(["analyze", str(fixture_path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    verdict = report["verdicts"]["periodic"]
    assert verdict["decision"] == "no_consensus"
    obstruction = verdict["certificates"][0]
    assert obstruction["type"] == "null_space_obstruction"
    assert len(obstruction["witness"]) == 8


def test_analyze_round_trips_through_echo(fixture_path, tmp_path, capsys):
    """Re-analyzing the echoed scenario reproduces the report byte for byte."""
    assert main(["analyze", str(fixture_path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    echoed_path = tmp_path / "echoed.json"
    echoed_path.write_text(json.dumps(report["echo"]))
    assert main(["analyze", str(echoed_path), "--format", "json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second == report


def test_analyze_text_format(fixture_path, capsys):
    assert main(["analyze", str(fixture_path)]) == 0
    out = capsys.readouterr().out
    assert "verdict periodic: consensus" in out
    assert "positive spanning tree: (1,2) (2,3) (2,4)" in out


def test_simulate_csv_layout(fixture_path, tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code = main(
        ["simulate", str(fixture_path), "--t-end", "6", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,node,dim_1,dim_2,V"
    first_rows = [line.split(",") for line in lines[1:5]]
    assert [row[1] for row in first_rows] == ["1", "2", "3", "4"]
    assert all(row[0] == "0.0" for row in first_rows)
    # V is repeated on every node row of a sample
    assert len({row[4] for row in first_rows}) == 1
    # 13 grid samples (sample_dt 0.5) incl. both endpoints and the switches
    assert len(lines) == 1 + 13 * 4
    summary = capsys.readouterr().out
    assert "disagreement norm:" in summary
    assert "node 1:" in summary


def test_simulate_reaches_consensus(fixture_path, tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    assert main(["simulate", str(fixture_path), "--out", str(out_path)]) == 0
    rows = out_path.read_text().splitlines()[-4:]
    for row in rows:
        cells = row.split(",")
        assert cells[0] == "60.0"
        assert abs(float(cells[2]) - 0.695825) <= 1e-3
        assert abs(float(cells[3]) - 0.338225) <= 1e-3


def test_simulate_is_deterministic(fixture_path, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["simulate", str(fixture_path), "--out", str(first)]) == 0
    assert main(["simulate", str(fixture_path), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_oracle_summary(fixture_path, tmp_path, capsys):
    code = main(
        [
            "simulate", str(fixture_path),
            "--t-end", "12", "--oracle", "1e-3",
            "--out", str(tmp_path / "traj.csv"),
        ]
    )
    assert code == 0
    summary = capsys.readouterr().out
    line = next(l for l in summary.splitlines() if "oracle" in l)
    assert float(line.split(":")[1]) <= 1e-6


def test_simulate_oracle_divergence_exit_code(fixture_path, tmp_path, capsys):
    """An impossible deviation bound turns the oracle check into exit 3."""

    def tighten(data):
        data["tolerances"] = {"oracle_deviation": 1e-18}

    edit_fixture(fixture_path, tighten)
    code = main(
        [
            "simulate", str(fixture_path),
            "--t-end", "6", "--oracle",
            "--out", str(tmp_path / "traj.csv"),
        ]
    )
    assert code == 3
    assert "deviates" in capsys.readouterr().err


def test_simulate_requires_initial_state(fixture_path, capsys):
    def strip(data):
        del data["initial_state"]

    edit_fixture(fixture_path, strip)
    assert main(["simulate", str(fixture_path), "--t-end", "6"]) == 1
    assert "initial_state" in capsys.readouterr().err


def test_simulate_csv_to_stdout(fixture_path, capsys):
    assert main(["simulate", str(fixture_path), "--t-end", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("t,node,dim_1,dim_2,V")
    assert "disagreement norm:" in captured.err  # summary moves to stderr


def test_simulate_span_violation_exit_code(fixture_path, capsys):
    def finite(data):
        data["signal"]["periodic"] = False

    edit_fixture(fixture_path, finite)
    assert main(["simulate", str(fixture_path), "--t-end", "100"]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_analyze_scans_the_windows_once(fixture_path, monkeypatch, capsys):
    """The sufficient certificate reuses the necessary scan's windows, so an
    ``analyze`` run makes no more window tests than one scan plus the
    periodic verdict."""
    calls = []
    kernel = analysis.null_space_basis

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(analysis, "null_space_basis", counting)
    assert main(["analyze", str(fixture_path), "--horizon", "8"]) == 0
    capsys.readouterr()
    analyze_calls = len(calls)
    signal = load_scenario(fixture_path).signal
    calls.clear()
    necessary_condition_scan(signal, 8)
    periodic_consensus_verdict(signal)
    assert analyze_calls == len(calls) > 0


def _set(*keys, value):
    def mutate(data):
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return mutate


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "mutate, extra, command",
    [
        (_set("initial_state", 0, 1, value=NAN), [], "simulate"),
        (_set("signal", "beta", value=INF), [], "validate"),
        (_set("tolerances", value={"oracle_deviation": NAN}), ["--oracle"], "simulate"),
        (_set("graphs", "G1", 0, "weight", 1, value=NAN), [], "validate"),
        (_set("run", "t_end", value=INF), [], "simulate"),
        (None, ["--t-end", "inf"], "simulate"),
        (None, ["--span", "0", "inf"], "analyze"),
        (None, ["--span", "nan", "1"], "analyze"),
    ],
    ids=[
        "nan-initial-state",
        "infinite-beta",
        "nan-oracle-deviation",
        "nan-weight",
        "infinite-run-t-end",
        "t-end-inf",
        "span-end-inf",
        "span-start-nan",
    ],
)
def test_non_finite_numbers_are_rejected(
    fixture_path, tmp_path, capsys, mutate, extra, command
):
    if mutate is not None:
        edit_fixture(fixture_path, mutate)
    if command == "simulate":
        extra = extra + ["--out", str(tmp_path / "traj.csv")]
    assert main([command, str(fixture_path), *extra]) == 1
    err = capsys.readouterr().err
    assert "finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "traj.csv").exists()


def test_negative_tolerance_is_a_model_error(fixture_path, capsys):
    edit_fixture(fixture_path, _set("tolerances", value={"null_space": -1}))
    assert main(["analyze", str(fixture_path)]) == 2
    err = capsys.readouterr().err
    assert "tolerances: null_space" in err
    assert "Traceback" not in err


def _huge_dwells(dwell):
    def mutate(data):
        for segment in data["signal"]["segments"]:
            segment["dwell"] = dwell
        data["signal"]["beta"] = 1e308

    return mutate


def _beyond(k):
    return (
        f"switch instant t_{k}, the sum of the first {k} dwells, "
        "is beyond the float range"
    )


# The demo's Laplacians have eigenvalues of about -1e-15 by rounding, which
# exact propagation over 1.7e308 time units turns into an infinite V.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "dwell, argv, message",
    [
        (1e308, ["validate"], _beyond(3)),
        (1e308, ["analyze"], _beyond(3)),
        (1e308, ["simulate"], _beyond(3)),
        (3e307, ["analyze", "--horizon", "8"], _beyond(8)),
        (
            3e307,
            ["simulate", "--t-end", "1.7e308", "--sample-dt", "1e308"],
            "the trajectory's disagreement V left the float range",
        ),
    ],
    ids=["sum-validate", "sum-analyze", "sum-simulate", "t8-analyze", "t6-simulate"],
)
def test_switch_instants_beyond_the_float_range_are_model_errors(
    fixture_path, tmp_path, capsys, dwell, argv, message
):
    """Dwells of 1e308 sum beyond the float range, and dwells of 3e307 put
    every switch instant from t_6 = 1.8e308 on beyond it.  A command that
    needs that sum, or such an instant (the window scan's t_8), as a float
    exits 2 naming it, not with an ``OverflowError`` traceback (exit 1).
    ``simulate`` up to 1.7e308 never converts t_6, which lies past it."""
    edit_fixture(fixture_path, _huge_dwells(dwell))
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "traj.csv")]
    assert main([argv[0], str(fixture_path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "traj.csv").exists()


def _per_cell_csv(stream, trajectory):
    """The CSV writer that formats and writes one cell list per line, kept
    as the byte reference for the sample-at-a-time writer."""
    d = trajectory.dims.d
    header = ",".join(["t", "node"] + [f"dim_{k + 1}" for k in range(d)] + ["V"])
    stream.write(header + "\n")
    lyapunov = trajectory.lyapunov
    for row, t in enumerate(trajectory.times):
        for node in range(trajectory.dims.n):
            values = trajectory.states[row, node * d : (node + 1) * d]
            cells = [repr(float(t)), str(node + 1)]
            cells.extend(repr(float(v)) for v in values)
            cells.append(repr(float(lyapunov[row])))
            stream.write(",".join(cells) + "\n")


@pytest.mark.parametrize("n, d", [(2, 1), (3, 3)])  # d = 1 on the smallest network
def test_csv_writer_matches_the_per_cell_reference(n, d):
    """Negative zero, a subnormal, a large integer-valued float and values
    without a short decimal form print the same bytes either way."""
    specials = [-0.0, 5e-324, 1e16, 0.1 + 0.2, 1e-7]
    dims = GraphDimensions(n=n, d=d)
    states = np.random.default_rng(0).normal(size=(len(specials), dims.stacked))
    states[:, 0] = specials
    states[0, -1] = -0.0
    trajectory = Trajectory(
        dims=dims,
        times=np.array([0.0, 1e-7, 0.1 + 0.2, 1.0, 1e16]),
        states=states,
        consensus_point=np.tile(states[0].reshape(n, d).mean(axis=0), n),
    )
    expected, actual = io.StringIO(), io.StringIO()
    _per_cell_csv(expected, trajectory)
    _write_csv(actual, trajectory)
    assert actual.getvalue() == expected.getvalue()
    assert "-0.0" in actual.getvalue() and "5e-324" in actual.getvalue()
