import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from matconsensus import (
    Definiteness,
    GraphDimensions,
    NegativeDurationError,
    NotPositiveSemidefiniteError,
    NotSymmetricError,
    classify_definiteness,
    consensus_subspace,
    matrix_exponential_symmetric,
    null_space_basis,
    symmetric_eigen,
)
from conftest import LAP_A, LAP_B, LAP_C


def test_symmetric_eigen_rank_one():
    report = symmetric_eigen(np.ones((2, 2)))
    assert np.allclose(report.eigenvalues, [0.0, 2.0], atol=1e-12)
    reconstructed = (report.eigenvectors * report.eigenvalues) @ report.eigenvectors.T
    assert np.allclose(reconstructed, np.ones((2, 2)), atol=1e-10)


def test_symmetric_eigen_rejects_asymmetry():
    with pytest.raises(NotSymmetricError):
        symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotSymmetricError):
        symmetric_eigen(np.zeros((2, 3)))


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
    basis = consensus_subspace(dims).basis
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
    from matconsensus import laplacian, new_graph, set_edge

    graph = set_edge(new_graph(dims), 0, 1, [[2, 0], [0, 1]])
    graph = set_edge(graph, 1, 2, [[1, 0.5], [0.5, 1]])
    report = null_space_basis(laplacian(graph).matrix, dims)
    assert report.dimension == 2
    assert report.equals_consensus


def test_null_space_zero_matrix():
    dims = GraphDimensions(n=2, d=2)
    report = null_space_basis(np.zeros((4, 4)), dims)
    assert report.dimension == 4
    assert not report.equals_consensus


def test_null_space_rejects_indefinite():
    dims = GraphDimensions(n=2, d=1)
    with pytest.raises(NotPositiveSemidefiniteError):
        null_space_basis(np.diag([1.0, -1.0]), dims)


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=30, deadline=None)
def test_equals_consensus_invariant_under_scaling(scale):
    dims = GraphDimensions(n=4, d=2)
    combined = LAP_A + LAP_B + LAP_C
    assert null_space_basis(scale * combined, dims).equals_consensus
    assert not null_space_basis(scale * LAP_A, dims).equals_consensus


def test_matrix_exponential_identity_at_zero():
    assert np.array_equal(matrix_exponential_symmetric(LAP_A, 0.0), np.eye(8))


def test_matrix_exponential_two_by_two():
    result = matrix_exponential_symmetric(np.diag([0.0, 1.0]), np.log(2.0))
    assert np.allclose(result, np.diag([1.0, 0.5]), atol=1e-14)


def test_matrix_exponential_rejects_negative_duration():
    with pytest.raises(NegativeDurationError):
        matrix_exponential_symmetric(np.eye(2), -0.5)


@pytest.mark.parametrize("t", [0.1, 1.0, 2.0])
def test_matrix_exponential_matches_scaling_and_squaring(t):
    """Spectral route vs scipy's Pade/scaling-and-squaring route."""
    for lap in (LAP_A, LAP_B, LAP_C):
        ours = matrix_exponential_symmetric(lap, t)
        reference = scipy.linalg.expm(-lap * t)
        assert np.max(np.abs(ours - reference)) <= 1e-10


@given(

    t1=st.floats(min_value=0.0, max_value=3.0),
    t2=st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_matrix_exponential_semigroup(t1, t2):
    """exp(-M t1) exp(-M t2) == exp(-M (t1+t2)) within 1e-12."""
    product = matrix_exponential_symmetric(LAP_A, t1) @ matrix_exponential_symmetric(
        LAP_A, t2
    )
    direct = matrix_exponential_symmetric(LAP_A, t1 + t2)
    assert np.max(np.abs(product - direct)) <= 1e-12


def test_matrix_exponential_fixes_consensus(dims4x2):
    basis = consensus_subspace(dims4x2).basis
    for lap in (LAP_A, LAP_B, LAP_C):
        propagator = matrix_exponential_symmetric(lap, 1.7)
        assert np.allclose(propagator @ basis, basis, atol=1e-12)

