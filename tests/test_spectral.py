import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from matconsensus import (
    Definiteness,
    GraphDimensions,
    ModelError,
    classify_definiteness,
    consensus_subspace,
    laplacian,
    new_graph,
    null_space_basis,
    set_edge,
    symmetric_eigen,
)
from matconsensus.spectral import eigen_exponential
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
    graph = set_edge(new_graph(dims), 0, 1, [[1e308]])
    with pytest.raises(ModelError, match="eigenvalue beyond the float range"):
        null_space_basis(laplacian(graph), dims)


def test_classify_definiteness_cases():
    assert classify_definiteness([[1, -1], [-1, 2]]) is Definiteness.POSITIVE_DEFINITE
    assert (
        classify_definiteness([[1, 0], [0, 0]]) is Definiteness.POSITIVE_SEMIDEFINITE
    )
    assert classify_definiteness(np.zeros((2, 2))) is Definiteness.ZERO
    assert classify_definiteness([[1, 3], [3, 1]]) is Definiteness.INDEFINITE
    assert classify_definiteness([[5.0]]) is Definiteness.POSITIVE_DEFINITE


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
    graph = set_edge(new_graph(dims), 0, 1, [[2, 0], [0, 1]])
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


def _exponential(matrix, t):
    """``exp(-M t)`` the way a segment's propagator is built."""
    return eigen_exponential(*symmetric_eigen(matrix), t)


def test_matrix_exponential_two_by_two():
    result = _exponential(np.diag([0.0, 1.0]), np.log(2.0))
    assert np.allclose(result, np.diag([1.0, 0.5]), atol=1e-14)


@pytest.mark.parametrize("t", [0.1, 1.0, 2.0])
def test_matrix_exponential_matches_scaling_and_squaring(t):
    """Spectral route vs scipy's Pade/scaling-and-squaring route."""
    for lap in (LAP_A, LAP_B, LAP_C):
        ours = _exponential(lap, t)
        reference = scipy.linalg.expm(-lap * t)
        assert np.max(np.abs(ours - reference)) <= 1e-10


@given(

    t1=st.floats(min_value=0.0, max_value=3.0),
    t2=st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_matrix_exponential_semigroup(t1, t2):
    """exp(-M t1) exp(-M t2) == exp(-M (t1+t2)) within 1e-12."""
    product = _exponential(LAP_A, t1) @ _exponential(LAP_A, t2)
    direct = _exponential(LAP_A, t1 + t2)
    assert np.max(np.abs(product - direct)) <= 1e-12


def test_matrix_exponential_fixes_consensus(dims4x2):
    basis = consensus_subspace(dims4x2)
    for lap in (LAP_A, LAP_B, LAP_C):
        propagator = _exponential(lap, 1.7)
        assert np.allclose(propagator @ basis, basis, atol=1e-12)

