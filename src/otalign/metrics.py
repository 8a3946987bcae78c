"""Representation quality measures for normalized embedding batches."""

import numpy as np

from .errors import OtalignError


class MetricError(OtalignError):
    pass


def _pairs(Z1, Z2):
    Z1 = np.asarray(Z1, dtype=np.float64)
    Z2 = np.asarray(Z2, dtype=np.float64)
    if Z1.shape != Z2.shape or Z1.ndim != 2:
        raise MetricError(f"embedding shapes differ: {Z1.shape} vs {Z2.shape}")
    return Z1, Z2


def alignment_loss(Z1, Z2):
    """Mean squared distance between paired embeddings."""
    Z1, Z2 = _pairs(Z1, Z2)
    d = Z1 - Z2
    return float(np.mean(np.sum(d * d, axis=1)))


def uniformity_loss(Z, epsilon):
    """log of the mean Gaussian potential over ordered distinct pairs.

    Lower is more uniform on the sphere; a collapsed batch gives 0.
    """
    Z = np.asarray(Z, dtype=np.float64)
    B = Z.shape[0]
    if B < 2:
        raise MetricError("uniformity needs at least two samples")
    sq = np.sum(Z * Z, axis=1)
    # one B x B buffer: the Gram matrix, the squared distances, the potentials
    pot = Z @ Z.T
    pot *= -2.0
    pot += sq[:, None]
    pot += sq[None, :]
    np.maximum(pot, 0.0, out=pot)
    pot *= -epsilon
    np.exp(pot, out=pot)
    np.fill_diagonal(pot, 0.0)
    return float(np.log(pot.sum() / (B * (B - 1))))


def kl_via_duals(C, f, g, epsilon):
    """KL(I || plan) recovered from the dual potentials alone.

    Valid when the plan has unit row or column sums (total mass B):
    (sum_i C_ii - sum_i (f_i + g_i)) / epsilon.
    """
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (f.size, g.size):
        raise MetricError("dual potentials do not match the cost shape")
    return float((np.sum(np.diag(C)) - np.sum(f + g)) / epsilon)
