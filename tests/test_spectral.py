import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from matconsensus import (
    Definiteness,
    GraphDimensions,
    MatrixWeightedGraph,
    ModelError,
    SwitchingSignal,
    classify_definiteness,
    consensus_subspace,
    laplacian,
    null_space_basis,
    set_edge,
    symmetric_eigen,
)
from conftest import LAP_A, LAP_B, LAP_C


def test_symmetric_eigen_rank_one():
    values, vectors = symmetric_eigen(np.ones((2, 2)))
    assert np.allclose(values, [0.0, 2.0], atol=1e-12)
    reconstructed = (vectors * values) @ vectors.T
    assert np.allclose(reconstructed, np.ones((2, 2)), atol=1e-10)



def test_symmetric_eigen_does_not_overflow():
    huge = np.array([[1e308, 1e307], [1e307, 1e308]])
    with np.errstate(over="raise"):
        values, _ = symmetric_eigen(huge)
    assert np.allclose(values, [9e307, 1.1e308], rtol=1e-12, atol=0)

def test_symmetric_eigen_rejects_asymmetry():
    with pytest.raises(ModelError, match=r"matrix is not symmetric: max\|M - M\^T\|"):
        symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ModelError, match=r"matrix must be square, got shape \(2, 3\)"):
        symmetric_eigen(np.zeros((2, 3)))


def test_non_finite_matrices_are_rejected(dims4x2):
    for bad in (np.nan, np.inf):
        matrix = np.eye(8)
        matrix[2, 2] = bad
        calls = (
            lambda: symmetric_eigen(matrix),
            lambda: classify_definiteness(matrix),
            lambda: null_space_basis(matrix, dims4x2),
        )
        for call in calls:
            with pytest.raises(ModelError, match="non-finite entries"):
                call()


def test_null_space_beyond_the_float_range_is_a_model_error():
    """The Laplacian of a 1e308 edge has eigenvalue 2e308; with an infinite
    threshold every direction would count as null."""
    dims = GraphDimensions(n=2, d=1)
    graph = set_edge(MatrixWeightedGraph(dims), 0, 1, [[1e308]])
    with pytest.raises(ModelError, match="eigenvalue beyond the float range"):
        null_space_basis(laplacian(graph), dims)


def test_null_space_checks_the_matrix_size(dims4x2):
    with pytest.raises(
        ModelError, match=r"^expected a 8x8 matrix for n=4, d=2, got shape \(3, 3\)$"
    ):
        null_space_basis(np.eye(3), dims4x2)


def test_null_space_checks_the_eigensystem_size(dims4x2):
    """An eigensystem of another size than the matrix is refused, not used
    to build the report."""
    with pytest.raises(
        ModelError,
        match=r"^expected an eigensystem of 8 eigenvalues and 8x8 eigenvectors, "
        r"got shapes \(3,\) and \(3, 3\)$",
    ):
        null_space_basis(LAP_A, dims4x2, eigensystem=(np.zeros(3), np.eye(3)))


def test_classify_definiteness_cases():
    assert classify_definiteness([[1, -1], [-1, 2]]) is Definiteness.POSITIVE_DEFINITE
    assert (
        classify_definiteness([[1, 0], [0, 0]]) is Definiteness.POSITIVE_SEMIDEFINITE
    )
    assert classify_definiteness(np.zeros((2, 2))) is Definiteness.ZERO
    assert classify_definiteness([[1, 3], [3, 1]]) is Definiteness.INDEFINITE
    assert classify_definiteness([[5.0]]) is Definiteness.POSITIVE_DEFINITE


def _stack_of_every_class(rng):
    """Seeded 3x3 weights of every class, near-cutoff ones included, then
    two whose spectrum overflows (one PSD, one indefinite) and signed
    zeros."""
    def rotated(*values):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        return (q * values) @ q.T

    matrices = []
    for _ in range(8):
        factor = rng.integers(-2, 3, size=(3, 3)).astype(float)
        vector = rng.standard_normal(3)
        matrices += [
            factor @ factor.T + np.eye(3),  # PD
            np.outer(vector, vector),  # PSD
            rotated(2.0, 1.0, -0.5),  # indefinite
            rotated(1.0, 1.0, rng.uniform(-2e-9, 2e-9)),  # about the cutoff 1e-9
            rotated(*rng.uniform(-2e-9, 2e-9, size=3)),  # zero or not, near it
        ]
    matrices += [
        np.full((3, 3), 1e308),  # eigenvalue 3e308: PSD, classified rescaled
        np.array([[1e308, 1e308, 0], [1e308, 1e308, 0], [0, 0, -1e308]]),  # indefinite
        np.zeros((3, 3)),
        np.full((3, 3), -0.0),
        np.diag([1.0, -0.0, 1.0]),
    ]
    return np.array([m / 2 + m.T / 2 for m in matrices])


def test_stacked_classification_is_each_matrix_alone(rng, monkeypatch):
    """One stacked call gives every matrix the class a one-matrix call
    gives it, with one eigendecomposition call plus one for the matrices
    whose spectrum overflows."""
    stack = _stack_of_every_class(rng)
    single = [classify_definiteness(matrix) for matrix in stack]
    assert set(single) == set(Definiteness)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    with np.errstate(all="raise"):
        stacked = classify_definiteness(stack)
    assert stacked == tuple(single)
    assert calls == [stack.shape, (2, 3, 3)]
    calls.clear()
    assert classify_definiteness(stack[:5]) == tuple(single[:5])
    assert calls == [(5, 3, 3)]
    assert classify_definiteness(stack[:0]) == ()


def test_stacked_symmetry_check_names_the_first_failure():
    stack = np.array([np.eye(2), [[0.0, 1e308], [-1e308, 0.0]], [[np.nan, 0], [0, 1]]])
    with np.errstate(all="raise"):  # M - M^T overflows: an infinite defect
        with pytest.raises(
            ModelError, match=r"^matrix 1 is not symmetric: max\|M - M\^T\| = inf$"
        ):
            symmetric_eigen(stack)
        with pytest.raises(ModelError, match=r"^matrix has non-finite entries"):
            symmetric_eigen(stack[2])
        with pytest.raises(ModelError, match=r"^matrix is not symmetric: .* = inf$"):
            symmetric_eigen(stack[1])
    symmetric_eigen(stack[:1])


def test_consensus_subspace_orthonormal():
    dims = GraphDimensions(n=4, d=2)
    basis = consensus_subspace(dims)
    assert basis.shape == (8, 2)
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-14)
    # every column has all nodes carrying the same d-vector
    for col in basis.T:
        blocks = col.reshape(4, 2)
        assert np.allclose(blocks, blocks[0], atol=1e-14)


def test_null_space_of_demo_laplacians(dims4x2):
    """Null-space sizes of the three demo Laplacians: 5, 5, and 6.

    The single strong link leaves both remaining disagreement directions of
    its endpoints plus two fully isolated nodes, hence dimension 6.
    """
    for lap, expected_dim in ((LAP_A, 5), (LAP_B, 5), (LAP_C, 6)):
        report = null_space_basis(lap, dims4x2)
        assert report.dimension == expected_dim
        assert not report.equals_consensus
        assert np.allclose(lap @ report.basis, 0.0, atol=1e-9)


def test_null_space_equals_consensus_for_pd_tree():
    dims = GraphDimensions(n=3, d=2)
    graph = set_edge(MatrixWeightedGraph(dims), 0, 1, [[2, 0], [0, 1]])
    graph = set_edge(graph, 1, 2, [[1, 0.5], [0.5, 1]])
    report = null_space_basis(laplacian(graph), dims)
    assert report.dimension == 2
    assert report.equals_consensus


def test_null_space_zero_matrix():
    dims = GraphDimensions(n=2, d=2)
    report = null_space_basis(np.zeros((4, 4)), dims)
    assert report.dimension == 4
    assert not report.equals_consensus


def test_null_space_rejects_indefinite():
    dims = GraphDimensions(n=2, d=1)
    with pytest.raises(ModelError, match="matrix has negative eigenvalue -1.000e"):
        null_space_basis(np.diag([1.0, -1.0]), dims)


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=30, deadline=None)
def test_equals_consensus_invariant_under_scaling(scale):
    dims = GraphDimensions(n=4, d=2)
    combined = LAP_A + LAP_B + LAP_C
    assert null_space_basis(scale * combined, dims).equals_consensus
    assert not null_space_basis(scale * LAP_A, dims).equals_consensus


def _exponential(graph, t):
    """``exp(-L t)`` for the graph's Laplacian ``L``, as the propagator of
    a one-segment signal of dwell ``t``."""
    signal = SwitchingSignal([graph], [(0, t)], alpha=t, beta=t)
    return signal.segment_exponential(0)


def test_matrix_exponential_two_by_two():
    """Weight 0.5 between two scalar nodes: Laplacian eigenvalues 0 and 1."""
    dims = GraphDimensions(n=2, d=1)
    graph = set_edge(MatrixWeightedGraph(dims), 0, 1, [[0.5]])
    result = _exponential(graph, np.log(2.0))
    expected = scipy.linalg.expm(-laplacian(graph) * np.log(2.0))
    assert np.allclose(expected, [[0.75, 0.25], [0.25, 0.75]], atol=1e-14)
    assert np.allclose(result, expected, atol=1e-14)


@pytest.mark.parametrize("t", [0.1, 1.0, 2.0])
def test_matrix_exponential_matches_scaling_and_squaring(demo_graphs, t):
    """Spectral route vs scipy's Pade/scaling-and-squaring route."""
    for graph, lap in zip(demo_graphs, (LAP_A, LAP_B, LAP_C)):
        ours = _exponential(graph, t)
        reference = scipy.linalg.expm(-lap * t)
        assert np.max(np.abs(ours - reference)) <= 1e-10


@given(
    t1=st.floats(min_value=0.01, max_value=3.0),
    t2=st.floats(min_value=0.01, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_matrix_exponential_semigroup(demo_graphs, t1, t2):
    """exp(-L t1) exp(-L t2) == exp(-L (t1+t2)) within 1e-12, and the
    latter agrees with scipy."""
    graph = demo_graphs[0]
    product = _exponential(graph, t1) @ _exponential(graph, t2)
    direct = _exponential(graph, t1 + t2)
    assert np.max(np.abs(product - direct)) <= 1e-12
    reference = scipy.linalg.expm(-LAP_A * (t1 + t2))
    assert np.max(np.abs(direct - reference)) <= 1e-10


def test_matrix_exponential_fixes_consensus(demo_graphs, dims4x2):
    basis = consensus_subspace(dims4x2)
    for graph, lap in zip(demo_graphs, (LAP_A, LAP_B, LAP_C)):
        propagator = _exponential(graph, 1.7)
        assert np.allclose(propagator @ basis, basis, atol=1e-12)
        assert np.allclose(propagator, scipy.linalg.expm(-lap * 1.7), atol=1e-10)
