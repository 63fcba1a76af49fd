"""Reference helpers that only the tests use as oracles."""
import numpy as np


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a), np.asarray(b))


def unitary_apply(h: np.ndarray, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) @ psi via the eigendecomposition of Hermitian H."""
    psi = np.asarray(psi, dtype=complex)
    values, vectors = np.linalg.eigh(np.asarray(h))
    phases = np.exp(-1j * t * values)
    return vectors @ (phases * (vectors.conj().T @ psi))
