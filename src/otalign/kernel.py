"""Row normalization, cost matrices, and Gibbs kernels."""

from dataclasses import dataclass

import numpy as np

from .errors import OtalignError


class KernelError(OtalignError):
    pass


@dataclass(frozen=True)
class GibbsKernel:
    """Positive kernel K = exp(-C/epsilon) together with its cost matrix."""

    matrix: np.ndarray
    epsilon: float
    cost: np.ndarray

    @property
    def shape(self):
        return self.matrix.shape


def normalize_rows(matrix):
    """Scale every row to unit L2 norm.

    Raises KernelError (with the row index) on a zero row.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    bad = np.nonzero(norms == 0.0)[0]
    if bad.size:
        raise KernelError(f"zero row at index {bad[0]}")
    return matrix / norms[:, None]


def _check_pair(Z1, Z2):
    Z1 = np.asarray(Z1, dtype=np.float64)
    Z2 = np.asarray(Z2, dtype=np.float64)
    if Z1.shape != Z2.shape or Z1.ndim != 2:
        raise KernelError(f"batch shape mismatch: {Z1.shape} vs {Z2.shape}")
    return Z1, Z2


def cosine_cost(Z1, Z2):
    """C_ij = 1 - <z1_i, z2_j> for unit-norm rows, clamped to [0, 2]."""
    Z1, Z2 = _check_pair(Z1, Z2)
    # one B x B buffer: the same numbers as np.clip(1 - Z1 @ Z2.T, 0, 2)
    C = Z1 @ Z2.T
    np.subtract(1.0, C, out=C)
    return np.clip(C, 0.0, 2.0, out=C)


def sqeuclidean_cost(Z1, Z2):
    """C_ij = ||z1_i - z2_j||^2; equals 2x cosine cost on unit vectors."""
    Z1, Z2 = _check_pair(Z1, Z2)
    sq1 = np.sum(Z1 * Z1, axis=1)[:, None]
    sq2 = np.sum(Z2 * Z2, axis=1)[None, :]
    return np.maximum(sq1 + sq2 - 2.0 * Z1 @ Z2.T, 0.0)


def gibbs_kernel(C, epsilon):
    if epsilon <= 0:
        raise KernelError(f"epsilon must be positive, got {epsilon}")
    C = np.asarray(C, dtype=np.float64)
    # one B x B buffer; C / -eps equals -C / eps bit for bit
    K = np.divide(C, -epsilon)
    return GibbsKernel(matrix=np.exp(K, out=K), epsilon=float(epsilon), cost=C)


def cosine_kernel(Z1, Z2, epsilon):
    """The Gibbs kernel of the cosine cost, and the cost's diagonal.

    Returns (K, diag C) with K bit for bit
    ``gibbs_kernel(cosine_cost(Z1, Z2), epsilon).matrix``, built in one
    B x B buffer: the cost itself is never kept.
    """
    if epsilon <= 0:
        raise KernelError(f"epsilon must be positive, got {epsilon}")
    K = cosine_cost(Z1, Z2)
    diag = np.diagonal(K).copy()
    np.divide(K, -epsilon, out=K)
    return np.exp(K, out=K), diag


def byol_kernel(Q, Z2):
    """S_ij = exp(-||q_i - z2_j||), plain (unsquared) norm in the exponent."""
    Q, Z2 = _check_pair(Q, Z2)
    dist = np.sqrt(sqeuclidean_cost(Q, Z2))
    return GibbsKernel(matrix=np.exp(-dist), epsilon=1.0, cost=dist)
