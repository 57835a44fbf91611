"""Dense oracles the tests compare the package against; no command builds them."""

import numpy as np


def dirac_operator(B: np.ndarray) -> np.ndarray:
    """(V+E) x (V+E) block operator [[0, B], [B^T, 0]] acting on spinors."""
    V, E = B.shape
    return np.block([[np.zeros((V, V)), B], [B.T, np.zeros((E, E))]])


def super_laplacian(B: np.ndarray) -> np.ndarray:
    """Block-diagonal (B B^T, B^T B), node then edge Laplacian: the square of the Dirac operator."""
    V, E = B.shape
    return np.block([[B @ B.T, np.zeros((V, E))], [np.zeros((E, V)), B.T @ B]])
