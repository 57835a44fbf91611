import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from topospinor.frames import build_frame
from topospinor.sparse import omp
from topospinor.topology import (
    build_incidence,
    dirac_eigenbasis,
    spectral_decompose,
    super_laplacian_eigenbasis,
)

from conftest import connected_graphs


def frame_for(graph):
    d = spectral_decompose(build_incidence(graph))
    phi, _ = dirac_eigenbasis(d)
    theta, _ = super_laplacian_eigenbasis(d)
    return build_frame(phi, theta), d


def test_path_frame_shape(p3):
    frame, _ = frame_for(p3)
    assert frame.matrix.shape == (5, 10)
    assert frame.matrix.shape[1] == 2 * p3.dim


def test_tightness_on_path(p3):
    frame, _ = frame_for(p3)
    F = frame.matrix
    assert np.max(np.abs(F @ F.T - 2.0 * np.eye(5))) < 1e-10


def test_rejects_non_orthonormal_input(p3):
    frame, _ = frame_for(p3)
    phi = frame.matrix[:, :5].copy()
    bad = phi.copy()
    bad[:, 0] *= 1.5
    with pytest.raises(ValueError, match="not orthonormal"):
        build_frame(bad, phi)


@given(connected_graphs())
@settings(max_examples=30)
def test_tight_frame_bound(g):
    frame, _ = frame_for(g)
    F = frame.matrix
    assert np.max(np.abs(F @ F.T - 2.0 * np.eye(g.dim))) < 1e-10
    assert np.linalg.matrix_rank(F) == g.dim


def test_parseval_round_trip(p3, rng):
    frame, _ = frame_for(p3)
    worst = 0.0
    for _ in range(100):
        s = rng.normal(size=5)
        rec = frame.matrix @ (frame.matrix.T @ s) / 2
        worst = max(worst, np.linalg.norm(rec - s) / np.linalg.norm(s))
    assert worst < 1e-10


def test_analysis_of_eigenvector_column(p3):
    frame, _ = frame_for(p3)
    column = frame.matrix[:, 2]
    coeffs = frame.matrix.T @ column
    assert_allclose(coeffs[2], 1.0, atol=1e-12)


def test_analysis_energy_doubles(p3, rng):
    frame, _ = frame_for(p3)
    s = rng.normal(size=5)
    coeffs = frame.matrix.T @ s
    assert_allclose(np.linalg.norm(coeffs) ** 2, 2.0 * np.linalg.norm(s) ** 2, rtol=1e-12)


def test_batch_round_trip(p3, rng):
    frame, _ = frame_for(p3)
    S = rng.normal(size=(5, 7))
    rec = frame.matrix @ (frame.matrix.T @ S) / 2
    assert np.max(np.abs(rec - S)) < 1e-12


def test_dimension_errors(p3):
    frame, _ = frame_for(p3)
    with pytest.raises(ValueError):
        frame.matrix.T @ np.zeros(4)
    with pytest.raises(ValueError):
        frame.matrix @ np.zeros(9)


class TestSparsityOneRecovery:
    def test_branch_column_recovered(self, p3):
        frame, d = frame_for(p3)
        j = 0  # a non-harmonic Dirac column
        code = omp(frame.matrix, frame.matrix[:, j], sparsity=1)
        assert code.support == (j,)
        assert code.residual_norm < 1e-10

    def test_harmonic_tie_resolves_to_lowest_index(self, p3):
        # The harmonic column appears in both halves; lowest index wins.
        frame, d = frame_for(p3)
        j_phi = d.rank + d.xi1  # node-harmonic column inside the Dirac half
        code = omp(frame.matrix, frame.matrix[:, j_phi], sparsity=1)
        assert code.support[0] <= j_phi
        assert code.residual_norm < 1e-10
