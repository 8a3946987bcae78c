"""Target coupling construction for alignment losses."""

import numpy as np

from .errors import OtalignError


class PlanError(OtalignError):
    pass


def block_domain_plan(domains, alpha, beta, raw=False):
    """Identity plus block structure from domain labels.

    Entry (i, j) gets 1 on the diagonal, plus alpha when the two samples
    share a domain label and beta when they do not (off-diagonal only).
    The result is rescaled to total mass B unless ``raw`` is set.
    """
    d = np.asarray(domains)
    if d.ndim != 1 or d.size < 1:
        raise PlanError("domain labels must be a non-empty 1-d vector")
    if not (0 <= alpha < np.inf and 0 <= beta < np.inf):
        raise PlanError(f"alpha and beta must be non-negative and finite, got {alpha} and {beta}")
    B = d.size
    same = (d[:, None] == d[None, :]).astype(np.float64)
    off = 1.0 - np.eye(B)
    P = np.eye(B) + alpha * same * off + beta * (1.0 - same) * off
    if raw:
        return P
    # the diagonal of ones puts the total mass at B or more
    return P * (B / P.sum())
