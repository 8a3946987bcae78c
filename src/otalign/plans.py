"""Target coupling construction for alignment losses."""

import numpy as np

from .errors import OtalignError


class PlanError(OtalignError):
    pass


def check_batch_size(B):
    """The identity target needs at least two samples."""
    if B < 2:
        raise PlanError("batch size must be at least 2")


def identity_plan(B):
    check_batch_size(B)
    return np.eye(B)


def normalize_plan(P, total_mass=None):
    """Rescale a non-negative matrix so its entries sum to total_mass.

    Defaults to mass B for a square B x B matrix, matching unit row
    marginals in expectation.
    """
    P = np.asarray(P, dtype=np.float64)
    if np.any(P < 0):
        raise PlanError("plan entries must be non-negative")
    s = P.sum()
    if s <= 0:
        raise PlanError("plan has zero total mass")
    if total_mass is None:
        total_mass = float(P.shape[0])
    return P * (total_mass / s)


def block_domain_plan(domains, alpha, beta, raw=False):
    """Identity plus block structure from domain labels.

    Entry (i, j) gets 1 on the diagonal, plus alpha when the two samples
    share a domain label and beta when they do not (off-diagonal only).
    The result is rescaled to total mass B unless ``raw`` is set.
    """
    d = np.asarray(domains)
    if d.ndim != 1 or d.size < 1:
        raise PlanError("domain labels must be a non-empty 1-d vector")
    if alpha < 0 or beta < 0:
        raise PlanError("alpha and beta must be non-negative")
    B = d.size
    same = (d[:, None] == d[None, :]).astype(np.float64)
    off = 1.0 - np.eye(B)
    P = np.eye(B) + alpha * same * off + beta * (1.0 - same) * off
    if raw:
        return P
    return normalize_plan(P, float(B))
