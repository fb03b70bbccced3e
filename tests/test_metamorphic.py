"""Metamorphic invariance: the same network in other clothes gets the same
verdicts.

The paper's conditions depend on the dynamics ``x' = -L(t) x`` only up to
changes that leave them the same: a relabeling of the nodes, a common
orthogonal change of basis of the node states, and a reciprocal scaling of
the weights and of time, which leaves the integral network of every window
unchanged.  Each case runs ``analyze --format json`` on a scenario and on
its transformed copy and compares what the change leaves invariant.

Two changes that should leave the verdicts alone do not yet; each is a
strict xfail naming the ROADMAP item that mends it.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from matconsensus.cli import main
from conftest import FIXTURE_DIR, benchmark_scenario

DEMO = json.loads((FIXTURE_DIR / "four_agent_periodic.json").read_text())


def analyze(directory, doc):
    """The JSON report of ``analyze`` on ``doc``, written to ``directory``;
    a non-zero exit fails with the error output."""
    path = directory / "scenario.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["analyze", str(path), "--format", "json"])
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def periodic_mid(tmp_path_factory):
    """Seed-0 periodic-mid of the benchmark and its report."""
    doc = benchmark_scenario("periodic-mid", 0)
    return doc, analyze(tmp_path_factory.mktemp("periodic-mid"), doc)


# -- the transformations -------------------------------------------------------


def relabeled(doc, perm):
    """``doc`` with node ``i`` renamed ``perm[i]`` (0-based) and its
    initial row moved alike."""
    doc = copy.deepcopy(doc)
    for edges in doc["graphs"].values():
        for edge in edges:
            i, j = perm[edge["i"] - 1] + 1, perm[edge["j"] - 1] + 1
            edge["i"], edge["j"] = min(i, j), max(i, j)
    rows = [None] * len(perm)
    for i, row in enumerate(doc["initial_state"]):
        rows[perm[i]] = row
    doc["initial_state"] = rows
    return doc


def rotated(doc, q):
    """``doc`` in the node-state basis ``q``: each weight ``W`` becomes
    ``q^T W q`` and each initial row ``x_i`` becomes ``x_i q``."""
    doc = copy.deepcopy(doc)
    d = doc["dimensions"]["d"]
    for edges in doc["graphs"].values():
        for edge in edges:
            weight = np.reshape(edge["weight"], (d, d))
            edge["weight"] = (q.T @ weight @ q).ravel().tolist()
    doc["initial_state"] = (np.array(doc["initial_state"]) @ q).tolist()
    return doc


def rescaled(doc, c):
    """``doc`` with every weight times ``c`` and every time divided by
    ``c``: dwells, dwell bounds, ``t_end`` and ``sample_dt``."""
    doc = copy.deepcopy(doc)
    for edges in doc["graphs"].values():
        for edge in edges:
            edge["weight"] = [x * c for x in edge["weight"]]
    signal = doc["signal"]
    for segment in signal["segments"]:
        segment["dwell"] /= c
    signal["alpha"] /= c
    signal["beta"] /= c
    doc["run"]["t_end"] /= c
    doc["run"]["sample_dt"] /= c
    return doc


def orthogonal(seed, d):
    """A ``d x d`` orthogonal matrix from the QR of a seeded normal draw."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q


# -- what the transformations leave invariant --------------------------------


def decisions(report):
    """Each verdict's decision, horizon and certificate kinds, with the
    segment bounds of every window it names."""
    result = {}
    for name, verdict in report["verdicts"].items():
        certificates = verdict["certificates"]
        bounds = [
            (window["start"], window["stop"])
            for certificate in certificates
            for window in certificate.get("windows", ())
        ] + [tuple(c["window"]) for c in certificates if "window" in c]
        kinds = [certificate["type"] for certificate in certificates]
        result[name] = (verdict["decision"], verdict.get("horizon"), kinds, bounds)
    return result


def structure(report, perm=None):
    """Null-space dimensions, edge classes and tree existence of the
    per-graph and integral networks, with node ``i`` (1-based) renamed
    ``perm[i - 1] + 1`` where ``perm`` is given."""

    def pair(nodes):
        if perm is None:
            return tuple(nodes)
        i, j = (perm[node - 1] + 1 for node in nodes)
        return min(i, j), max(i, j)

    def classes(edges):
        return sorted((pair(edge["nodes"]), edge["definiteness"]) for edge in edges)

    graphs = {
        name: (g["null_space_dimension"], g["equals_consensus"], classes(g["edges"]))
        for name, g in report["graphs"].items()
    }
    integral = report["integral"]
    return graphs, (
        integral["null_space_dimension"],
        integral["equals_consensus"],
        integral["positive_spanning_tree"]["exists"],
        classes(integral["edges"]),
    )


def averaged_weights(report, perm=None):
    """The integral network's weights by node pair, renamed as in
    :func:`structure`."""
    weights = {}
    for edge in report["integral"]["edges"]:
        i, j = edge["nodes"]
        if perm is not None:
            i, j = sorted((perm[i - 1] + 1, perm[j - 1] + 1))
        weights[i, j] = np.array(edge["weight"])
    return weights


# -- invariant cases -----------------------------------------------------------


def check_relabeling(tmp_path, doc, report, perm):
    moved = analyze(tmp_path, relabeled(doc, perm))
    assert decisions(moved) == decisions(report)
    assert structure(moved) == structure(report, perm)
    expected = averaged_weights(report, perm)
    for key, weight in averaged_weights(moved).items():
        assert np.array_equal(weight, expected[key]), key


def check_basis_change(tmp_path, doc, report, seed):
    d = doc["dimensions"]["d"]
    q = orthogonal(seed, d)
    moved = analyze(tmp_path, rotated(doc, q))
    assert decisions(moved) == decisions(report)
    assert structure(moved) == structure(report)
    assert (
        moved["integral"]["positive_spanning_tree"]["edges"]
        == report["integral"]["positive_spanning_tree"]["edges"]
    )
    expected = averaged_weights(report)
    for key, weight in averaged_weights(moved).items():
        back = q @ weight.reshape(d, d) @ q.T
        assert np.allclose(back.ravel(), expected[key], rtol=1e-12, atol=1e-12), key


@pytest.mark.parametrize("perm", [[3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]])
def test_relabeling_the_demo_keeps_the_verdicts(tmp_path, perm):
    check_relabeling(tmp_path, DEMO, analyze(tmp_path, DEMO), perm)


def test_relabeling_periodic_mid_keeps_the_verdicts(tmp_path, periodic_mid):
    """The tree's edges are not compared: the lexicographic scan picks
    another tree after relabeling."""
    doc, report = periodic_mid
    perm = np.random.default_rng(1).permutation(doc["dimensions"]["n"]).tolist()
    check_relabeling(tmp_path, doc, report, perm)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_basis_change_of_the_demo_keeps_the_verdicts(tmp_path, seed):
    check_basis_change(tmp_path, DEMO, analyze(tmp_path, DEMO), seed)


def test_a_basis_change_of_periodic_mid_keeps_the_verdicts(tmp_path, periodic_mid):
    check_basis_change(tmp_path, *periodic_mid, seed=1)


@pytest.mark.parametrize(
    "c",
    [
        1e-8,
        1e-6,
        1e6,
        pytest.param(
            1e-9,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP item 1 (the scale-free decision kernel): each "
                "weight is checked alone against an absolute floor, so at "
                "c = 1e-9 analyze exits 2 with 'graphs.G2[1]: weight for "
                "edge (2, 3) is zero within tolerance'",
            ),
        ),
    ],
)
def test_reciprocal_scaling_of_the_demo_keeps_the_verdicts(tmp_path, c):
    report = analyze(tmp_path, DEMO)
    scaled = analyze(tmp_path, rescaled(DEMO, c))
    assert decisions(scaled) == decisions(report)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3 (periodic scans): the necessary scan starts at "
    "t = 0, so rotating the demo's segments to G2, G3, G1 flips it from "
    "inconclusive to no_consensus over the window [6, 8)",
)
def test_rotating_the_period_keeps_the_verdicts(tmp_path):
    report = analyze(tmp_path, DEMO)
    doc = copy.deepcopy(DEMO)
    segments = doc["signal"]["segments"]
    doc["signal"]["segments"] = segments[1:] + segments[:1]
    moved = analyze(tmp_path, doc)
    assert moved["verdicts"]["periodic"] == report["verdicts"]["periodic"]
    scan, expected = (r["verdicts"]["necessary_scan"] for r in (moved, report))
    assert scan["decision"] == expected["decision"], scan["certificates"]
