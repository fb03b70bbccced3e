import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matconsensus import (
    Definiteness,
    GraphDimensions,
    MatrixWeightedGraph,
    ModelError,
    ScenarioError,
    Tolerances,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
    set_edge,
)
from conftest import LAP_A, X0

SRC = Path(__file__).resolve().parent.parent / "src"


def minimal_scenario() -> dict:
    return {
        "dimensions": {"n": 2, "d": 1},
        "graphs": {"pair": [{"i": 1, "j": 2, "weight": [1.0]}]},
        "signal": {
            "segments": [{"graph": "pair", "dwell": 1.0}],
            "alpha": 0.5,
            "beta": 2.0,
        },
    }


def test_load_fixture(scenario_path):
    scenario = load_scenario(scenario_path)
    assert scenario.dims.n == 4 and scenario.dims.d == 2
    assert scenario.graph_names == ("G1", "G2", "G3")
    assert scenario.signal.periodic and scenario.signal.period == 6.0
    assert np.array_equal(scenario.initial_state, X0)
    assert scenario.run.t_end == 60.0
    assert scenario.run.sample_dt == 0.5
    assert scenario.run.q_threshold == 0.99
    assert scenario.run.horizon == 8
    # edges were converted from 1-based file indices to 0-based
    g1 = scenario.graphs["G1"]
    assert list(g1.edges) == [(0, 1), (1, 2)]
    assert g1.edges[(0, 1)].definiteness is Definiteness.POSITIVE_DEFINITE
    from matconsensus import laplacian

    assert np.array_equal(laplacian(g1), LAP_A)


def test_nested_and_flat_weights_agree():
    flat = minimal_scenario()
    nested = minimal_scenario()
    flat["dimensions"] = {"n": 2, "d": 2}
    nested["dimensions"] = {"n": 2, "d": 2}
    flat["graphs"]["pair"][0]["weight"] = [1, 0.5, 0.5, 2]
    nested["graphs"]["pair"][0]["weight"] = [[1, 0.5], [0.5, 2]]
    a = parse_scenario(flat).graphs["pair"].edges[(0, 1)].entries
    b = parse_scenario(nested).graphs["pair"].edges[(0, 1)].entries
    assert np.array_equal(a, b)


def test_missing_field_paths():
    data = minimal_scenario()
    del data["dimensions"]
    with pytest.raises(ScenarioError, match="dimensions"):
        parse_scenario(data)

    data = minimal_scenario()
    del data["graphs"]["pair"][0]["weight"]
    with pytest.raises(ScenarioError, match=r"graphs\.pair\[0\]\.weight"):
        parse_scenario(data)

    data = minimal_scenario()
    del data["signal"]["alpha"]
    with pytest.raises(ScenarioError, match=r"signal\.alpha"):
        parse_scenario(data)


def test_unknown_fields_rejected():
    data = minimal_scenario()
    data["extra"] = 1
    with pytest.raises(ScenarioError, match="unknown field"):
        parse_scenario(data)

    data = minimal_scenario()
    data["tolerances"] = {"no_such_tolerance": 1e-9}
    with pytest.raises(ScenarioError, match="unknown tolerance"):
        parse_scenario(data)


def test_bad_weight_shape():
    data = minimal_scenario()
    data["graphs"]["pair"][0]["weight"] = [1.0, 2.0]
    with pytest.raises(ScenarioError, match="row-major"):
        parse_scenario(data)

    data = minimal_scenario()
    data["dimensions"]["d"] = 2
    data["graphs"]["pair"][0]["weight"] = [[1.0, 0.0], [0.0]]
    with pytest.raises(
        ScenarioError, match=r"^graphs\.pair\[0\]\.weight: expected 2 rows of 2 numbers$"
    ):
        parse_scenario(data)


def test_empty_graphs_and_a_wrong_row_count_name_their_path():
    data = minimal_scenario()
    data["graphs"] = {}
    with pytest.raises(ScenarioError, match="^graphs: at least one graph is required$"):
        parse_scenario(data)

    data = minimal_scenario()
    data["initial_state"] = [[1.0], [2.0], [3.0]]
    with pytest.raises(ScenarioError, match="^initial_state: expected 2 rows, got 3$"):
        parse_scenario(data)


def test_unknown_graph_in_segment():
    data = minimal_scenario()
    data["signal"]["segments"][0]["graph"] = "missing"
    with pytest.raises(ScenarioError, match=r"segments\[0\]\.graph"):
        parse_scenario(data)


def test_node_indices_one_based():
    data = minimal_scenario()
    data["graphs"]["pair"][0]["i"] = 0
    with pytest.raises(ScenarioError, match="1..2"):
        parse_scenario(data)


def test_duplicate_edge_rejected():
    data = minimal_scenario()
    data["graphs"]["pair"].append({"i": 2, "j": 1, "weight": [2.0]})
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario(data)


def test_validate_of_a_30000_edge_graph_ends(tmp_path):
    """Each graph is built once, so loading is linear in its edge count: a
    30,000-edge path validates well within the timeout, where rebuilding
    the graph for every edge takes about a minute."""
    edges = 30_000
    data = minimal_scenario()
    data["dimensions"]["n"] = edges + 1
    data["graphs"]["pair"] = [
        {"i": k, "j": k + 1, "weight": [1.0]} for k in range(1, edges + 1)
    ]
    path = tmp_path / "path.json"
    path.write_text(json.dumps(data))
    result = subprocess.run(
        [sys.executable, "-m", "matconsensus", "validate", str(path)],
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert f"OK graphs: pair ({edges} edges)" in result.stdout


def test_semantic_violations_keep_their_error_type():
    """A model violation in a well-formed file stays a ModelError (exit 2),
    not a ScenarioError, with the field path put before its message."""
    data = minimal_scenario()
    data["dimensions"] = {"n": 2, "d": 2}
    data["graphs"]["pair"][0]["weight"] = [1, 3, 3, 1]  # eigenvalues 4 and -2
    with pytest.raises(ModelError, match=r"^graphs\.pair\[0\]: .* is indefinite$"):
        parse_scenario(data)

    data = minimal_scenario()
    data["signal"]["segments"][0]["dwell"] = 17.0
    with pytest.raises(ModelError, match=r"^signal: segment 0 dwell 17\.0 outside"):
        parse_scenario(data)

    data = minimal_scenario()
    data["signal"]["periodic"] = True
    with pytest.raises(ModelError, match="^signal: .* more than two segments per period"):
        parse_scenario(data)


def test_tolerance_overrides():
    data = minimal_scenario()
    data["tolerances"] = {"null_space": 1e-7, "mu_gap": 1e-6}
    scenario = parse_scenario(data)
    assert scenario.tolerances.null_space == 1e-7
    assert scenario.tolerances.mu_gap == 1e-6
    assert scenario.tolerances.symmetry == 1e-12  # untouched default


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_tolerances_must_be_finite_and_non_negative(bad):
    with pytest.raises(ModelError, match="null_space"):
        Tolerances(null_space=bad)
    with pytest.raises(ModelError, match="mu_gap"):
        Tolerances().replace(mu_gap=bad)
    assert Tolerances(null_space=0.0).null_space == 0.0


def test_negative_tolerance_in_scenario_names_its_path():
    data = minimal_scenario()
    data["tolerances"] = {"null_space": -1}
    with pytest.raises(ModelError, match=r"^tolerances: null_space"):
        parse_scenario(data)


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "1e400"]
)
def test_non_finite_numbers_rejected_at_their_path(bad):
    data = minimal_scenario()
    data["signal"]["beta"] = bad
    with pytest.raises(ScenarioError, match=r"^signal\.beta: expected a finite"):
        parse_scenario(data)


def test_round_trip_through_canonical_dict(scenario_path):
    scenario = load_scenario(scenario_path)
    echoed = scenario_to_dict(scenario)
    # canonical form survives JSON serialization and re-parsing
    reparsed = parse_scenario(json.loads(json.dumps(echoed)))
    assert scenario_to_dict(reparsed) == echoed


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "nope.json")


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimensions": {"n": 4,}')
    with pytest.raises(ScenarioError, match="line 1"):
        load_scenario(path)


def _edge(i, j, weight):
    return {"i": i, "j": j, "weight": weight}


_OK = [1, 0, 0, 1]
_ZERO = [0, 0, 0, 0]
_INDEFINITE = [1, 3, 3, 1]  # eigenvalues 4 and -2
_ASYMMETRIC = [1, 2, 0, 1]
_HUGE = [1e308, 1e308, 1e308, 1e308]  # eigenvalue 2e308, classified rescaled
_ZERO_AT_1 = (
    "error: graphs.G1[1]: weight for edge (1, 2) is zero within tolerance; "
    "omit the edge instead\n"
)
_INDEFINITE_AT_1 = "error: graphs.G1[1]: weight for edge (1, 2) is indefinite\n"
_ASYMMETRIC_AT_1 = (
    "error: graphs.G1[1]: weight for edge (1, 2) is not symmetric: "
    "max|M - M^T| = 2.000e+00\n"
)


@pytest.mark.parametrize(
    "graphs, code, stderr",
    [
        pytest.param(
            {"G1": [_edge(1, 2, _OK), _edge(2, 3, _ZERO), _edge(3, 9, _OK)]},
            2, _ZERO_AT_1, id="weight-then-index",
        ),
        pytest.param(
            {"G1": [_edge(1, 2, _OK), _edge(3, 9, _OK), _edge(2, 3, _INDEFINITE)]},
            1, "error: graphs.G1[1]: node indices must lie in 1..4, got (3, 9)\n",
            id="index-then-weight",
        ),
        pytest.param(
            {"G1": [_edge(1, 2, _OK), _edge(2, 3, _INDEFINITE), _edge(2, 1, _OK)]},
            2, "error: graphs.G1[1]: weight for edge (1, 2) is indefinite\n",
            id="duplicate-after-bad-weight",
        ),
        pytest.param(
            {"G2": [_edge(2, 4, _OK), _edge(3, 4, _ZERO)]},
            2,
            "error: graphs.G2[1]: weight for edge (2, 3) is zero within tolerance; "
            "omit the edge instead\n",
            id="second-graph",
        ),
        pytest.param(
            {"G1": [_edge(1, 2, _OK), _edge(2, 3, [1, 0, 0, 1e999])]},
            1, "error: graphs.G1[1].weight[3]: expected a finite number, got inf\n",
            id="non-finite",
        ),
        pytest.param(
            {"G1": [_edge(1, 2, _OK), _edge(2, 3, _ASYMMETRIC)]},
            2,
            "error: graphs.G1[1]: weight for edge (1, 2) is not symmetric: "
            "max|M - M^T| = 2.000e+00\n",
            id="asymmetric",
        ),
        pytest.param(
            {"G1": [_edge(1, 2, _OK), _edge(2, 3, _ZERO)]}, 2, _ZERO_AT_1, id="zero"
        ),
        pytest.param(
            {"G1": [_edge(1, 2, _OK), _edge(2, 3, _INDEFINITE)]},
            2, "error: graphs.G1[1]: weight for edge (1, 2) is indefinite\n",
            id="indefinite",
        ),
        pytest.param(
            {"G1": [_edge(1, 2, _OK), _edge(2, 3, _ZERO), _edge(3, 4, _ASYMMETRIC)]},
            2, _ZERO_AT_1, id="zero-then-asymmetric",
        ),
        pytest.param(
            {"G1": [_edge(1, 2, _OK), _edge(3, 3, _OK)]},
            2, "error: graphs.G1[1]: self-loop at node 2 is not allowed\n",
            id="self-loop",
        ),
        pytest.param(
            {"G1": [_edge(1, 2, _HUGE), _edge(2, 3, _ZERO)]},
            2, _ZERO_AT_1, id="overflowing-spectrum-then-zero",
        ),
        pytest.param(
            {"G1": [_edge(1, 2, _OK), _edge(2, 3, _HUGE)]},
            0, "", id="overflowing-spectrum",
        ),
        pytest.param(
            {
                "G1": [
                    _edge(1, 2, _OK),
                    _edge(2, 3, _INDEFINITE),
                    _edge(3, 4, _ASYMMETRIC),
                ]
            },
            2, _INDEFINITE_AT_1, id="indefinite-then-asymmetric",
        ),
        pytest.param(
            {
                "G1": [
                    _edge(1, 2, _OK),
                    _edge(2, 3, _ASYMMETRIC),
                    _edge(3, 4, _INDEFINITE),
                ]
            },
            2, _ASYMMETRIC_AT_1, id="asymmetric-then-indefinite",
        ),
        pytest.param(
            {"G1": [_edge(1, 2, _OK), _edge(3, 3, _OK), _edge(2, 3, _ASYMMETRIC)]},
            2, "error: graphs.G1[1]: self-loop at node 2 is not allowed\n",
            id="self-loop-then-asymmetric",
        ),
        pytest.param(
            {"G1": [_edge(1, 2, _OK), _edge(2, 3, _ASYMMETRIC), _edge(3, 3, _OK)]},
            2, _ASYMMETRIC_AT_1, id="asymmetric-then-self-loop",
        ),
        pytest.param(
            {
                "G1": [
                    _edge(1, 2, _OK),
                    _edge(2, 3, _ZERO),
                    _edge(3, 4, _ASYMMETRIC),
                    _edge(3, 9, _OK),
                ]
            },
            2, _ZERO_AT_1, id="zero-then-asymmetric-then-index",
        ),
        pytest.param(
            {"G1": [_edge(1, 2, _HUGE), _edge(2, 3, _ASYMMETRIC)]},
            2, _ASYMMETRIC_AT_1, id="overflowing-spectrum-then-asymmetric",
        ),
    ],
)
def test_first_bad_edge_in_file_order_is_reported(
    scenario_path, tmp_path, capsys, graphs, code, stderr
):
    """A graph's weights are checked together, yet the first bad edge in
    file order is reported, with the exit code and message it had when each
    edge was checked alone: indices, duplicate, weight parse, then weight
    checks, edge by edge."""
    from matconsensus.cli import main

    data = json.loads(scenario_path.read_text())
    data["graphs"].update(graphs)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == code
    assert capsys.readouterr().err == stderr


def _random_weight_of_kind(rng, kind, d):
    """A random ``d x d`` weight that is PD, PSD, zero, indefinite or
    asymmetric, as a nested list."""
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    spectrum = {
        "pd": rng.uniform(0.1, 3.0, size=d),
        "psd": np.r_[0.0, rng.uniform(0.1, 3.0, size=d - 1)],
        "zero": np.zeros(d),
        "indefinite": np.r_[-rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0, size=d - 1)],
        "asymmetric": rng.uniform(0.1, 3.0, size=d),
    }[kind]
    weight = (basis * spectrum) @ basis.T
    if kind == "asymmetric":
        weight[0, 1] += 0.5
    return weight.tolist()


def test_set_edge_and_the_loader_share_one_weight_check(rng):
    """Seeded random weights of every class give the same stored bytes and
    class, or the same message, through ``set_edge`` one edge at a time as
    through ``parse_scenario``, which checks a graph's weights together and
    reports its first bad edge."""
    kinds = ("pd", "psd", "zero", "indefinite", "asymmetric")
    outcomes = set()
    for trial in range(40):
        n, d = int(rng.integers(3, 7)), int(rng.integers(2, 4))
        # mostly valid weights, so that a graph's first fault comes late
        picks = rng.choice(5, size=n - 1, p=[0.45, 0.35, 0.07, 0.07, 0.06])
        weights = [_random_weight_of_kind(rng, kinds[pick], d) for pick in picks]
        data = minimal_scenario()
        data["dimensions"] = {"n": n, "d": d}
        data["graphs"]["pair"] = [
            {"i": k + 1, "j": k + 2, "weight": weight}
            for k, weight in enumerate(weights)
        ]
        graph, expected = MatrixWeightedGraph(GraphDimensions(n, d)), None
        for k, weight in enumerate(weights):
            try:
                graph = set_edge(graph, k, k + 1, weight)
            except ModelError as error:
                expected = f"graphs.pair[{k}]: {error}"
                break
        if expected is not None:
            with pytest.raises(ModelError) as info:
                parse_scenario(data)
            assert str(info.value) == expected, trial
            outcomes.add("refused")
            continue
        outcomes.add("loaded")
        loaded = parse_scenario(data).graphs["pair"]
        assert list(loaded.edges) == list(graph.edges)
        for pair, weight in graph.edges.items():
            assert loaded.edges[pair].entries.tobytes() == weight.entries.tobytes()
            assert loaded.edges[pair].definiteness is weight.definiteness
    assert outcomes == {"refused", "loaded"}
