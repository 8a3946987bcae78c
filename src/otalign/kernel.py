"""Row normalization, cost matrices, and Gibbs kernels."""

from dataclasses import dataclass

import numpy as np

from .errors import LossError, OtalignError


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
    return _unit_rows(matrix)[0]


def _unit_rows(matrix):
    """``normalize_rows`` of a matrix, and its row norms as a column."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    bad = np.nonzero(norms[:, 0] == 0.0)[0]
    if bad.size:
        raise KernelError(f"zero row at index {bad[0]}")
    return matrix / norms, norms


def _check_batch(Z1, Z2):
    """The one check of an embedding batch: two float (B, d) batches of one
    shape, B >= 1, every entry finite, returned as float64 arrays.  Made in
    O(B d) so that no B x B pass meets a NaN or inf; raises LossError."""
    Z1 = np.asarray(Z1, dtype=np.float64)
    Z2 = np.asarray(Z2, dtype=np.float64)
    if Z1.ndim != 2 or Z1.shape != Z2.shape:
        raise LossError(f"embedding shapes differ: {Z1.shape} vs {Z2.shape}")
    if Z1.shape[0] == 0:
        raise LossError("empty batch: the embeddings have no rows")
    if not (np.isfinite(Z1).all() and np.isfinite(Z2).all()):
        raise LossError("non-finite embedding: a NaN or inf entry")
    return Z1, Z2


def cosine_cost(Z1, Z2):
    """C_ij = 1 - <z1_i, z2_j> for unit-norm rows, clamped to [0, 2].

    Raises LossError on a batch that ``_check_batch`` rejects."""
    return _cosine_cost(*_check_batch(Z1, Z2))


def _cosine_cost(Z1, Z2):
    """``cosine_cost`` of a batch already checked."""
    # one B x B buffer: the same numbers as np.clip(1 - Z1 @ Z2.T, 0, 2)
    C = Z1 @ Z2.T
    np.subtract(1.0, C, out=C)
    return np.clip(C, 0.0, 2.0, out=C)


def check_epsilon(epsilon):
    """Raise KernelError unless 0 < eps < inf (a NaN eps included)."""
    if not 0 < epsilon < np.inf:
        raise KernelError(f"epsilon must be positive and finite, got {epsilon}")


def gibbs_kernel(C, epsilon):
    check_epsilon(epsilon)
    C = np.asarray(C, dtype=np.float64)
    # one B x B buffer; C / -eps equals -C / eps bit for bit
    K = np.divide(C, -epsilon)
    return GibbsKernel(matrix=np.exp(K, out=K), epsilon=float(epsilon), cost=C)


def cosine_kernel(Z1, Z2, epsilon):
    """The Gibbs kernel of the cosine cost, and the cost's diagonal.

    Returns (K, diag C) with K = exp(clip(S/eps - 1/eps, -2/eps, 0)), the
    kernel ``gibbs_kernel(cosine_cost(Z1, Z2), epsilon).matrix`` with 1/eps
    folded into the similarity.  The two are bit for bit equal when eps is a
    power of two (1/eps scales exactly); elsewhere they differ by rounding,
    within 2 ((d + 5) / eps + 2) u for unit rows and unit roundoff u, and
    measured at most 1.5e-14 relative over B in {8, 64, 300, 1024}, d in
    {4, 16, 32} and eps in [0.05, 2].  Built in one B x B buffer: 1/eps
    scales the B x d operand before the product, so no B x B pass divides
    by eps, and the cost itself is never kept.  Checks the batch first, as
    every loss does: LossError on a batch that ``_check_batch`` rejects,
    then KernelError on eps <= 0 or eps = inf.
    """
    Z1, Z2 = _check_batch(Z1, Z2)
    check_epsilon(epsilon)
    inv = 1.0 / epsilon
    K = (Z1 * inv) @ Z2.T
    K -= inv
    np.clip(K, -2.0 * inv, 0.0, out=K)
    diag = np.diagonal(K) * -epsilon  # C_ii from the exponent -C_ii / eps
    return np.exp(K, out=K), diag
