"""Unbalanced entropic OT with soft marginal penalties."""

from dataclasses import dataclass

import numpy as np

from . import _backends
from .kernel import GibbsKernel
from .solver import (
    ScalingState,
    SolverError,
    TransportPlan,
    _gibbs_plan,
    check_iteration_count,
    check_marginals,
    check_square,
    default_marginals,
    marginal_error,
)


@dataclass(frozen=True)
class UotOptions:
    lambda1: float = 1.0
    lambda2: float = 1.0
    epsilon: float = 0.5
    iterations: int = 5
    absorption_threshold: float = 1e3
    floor: float = 1e-30
    column_normalize: bool = True

    def __post_init__(self):
        check_iteration_count(self.iterations)
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise SolverError("marginal penalties must be non-negative")
        if self.epsilon <= 0 or self.iterations <= 0:
            raise SolverError("epsilon and iteration count must be positive")


def _solve_scalings(Km, cost, epsilon, mu, nu, opts):
    """Unbalanced loop call: (log_u, log_v, log_v_prev, col_sums, iterations).

    ``Km`` is the kernel matrix of ``cost`` at ``epsilon``; ``cost`` is the
    cost array or a function that builds it, which the loop calls only at
    its first absorption; ``mu`` and ``nu`` are float64 marginal vectors.
    The loop's potentials come back as log scalings (potential / epsilon).
    log_v_prev is the column scaling entering the final sweep, which the
    robust losses need alongside the finished scalings; col_sums are the
    column sums of the unnormalized plan diag(u) K diag(v).
    """
    f, g, g_prev, col, _, iters = _backends.sinkhorn_core(
        np.ascontiguousarray(Km),
        cost,
        mu,
        nu,
        epsilon,
        opts.iterations,
        opts.absorption_threshold,
        opts.floor,
        lam1=opts.lambda1,
        lam2=opts.lambda2,
    )
    return f / epsilon, g / epsilon, g_prev / epsilon, col, iters


def unbalanced_sinkhorn(K: GibbsKernel, marginals=None, opts=None):
    """Proximal scaling iterations with exponents lambda/(lambda+eps).

    lambda -> inf recovers the balanced update; lambda = 0 leaves the
    scalings at one.  Returns (TransportPlan, ScalingState).  When
    ``column_normalize`` is set (the default) the returned plan has its
    columns rescaled to match nu exactly; the scalings are reported
    before that normalization.
    """
    if not isinstance(K, GibbsKernel):
        raise SolverError("unbalanced_sinkhorn expects a GibbsKernel")
    opts = opts or UotOptions(epsilon=K.epsilon)
    if abs(opts.epsilon - K.epsilon) > 1e-12 * max(1.0, K.epsilon):
        raise SolverError("options epsilon must match the kernel epsilon")
    check_square(K.matrix.shape)
    B = K.matrix.shape[0]
    if marginals is None:
        marginals = default_marginals(B)
    mu = np.asarray(marginals.mu, dtype=np.float64)
    nu = np.asarray(marginals.nu, dtype=np.float64)
    check_marginals(K.matrix.shape, mu, nu)
    log_u, log_v, _, _, iters = _solve_scalings(K.matrix, K.cost, K.epsilon, mu, nu, opts)
    if not (np.all(np.isfinite(log_u)) and np.all(np.isfinite(log_v))):
        raise SolverError("overflow despite absorption in unbalanced solve")
    f = K.epsilon * log_u
    g = K.epsilon * log_v
    P = _gibbs_plan(f, g, K.cost, K.epsilon)
    if opts.column_normalize:
        csum = P.sum(axis=0)
        if np.any(csum <= 0):
            raise SolverError("zero column sum before normalization")
        P *= (nu / csum)[None, :]
    rr, cr = marginal_error(P, marginals)
    state = ScalingState(
        u=np.exp(log_u), v=np.exp(log_v), f=f, g=g, iterations=int(iters)
    )
    plan = TransportPlan(
        matrix=P, epsilon=K.epsilon, converged=False, row_residual=rr, col_residual=cr
    )
    return plan, state


def generalized_kl(a, b, floor=1e-30):
    """sum a*log(a/b) - a + b with the 0*log0 = 0 convention."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(a < 0) or np.any(b < 0):
        raise SolverError("generalized KL needs non-negative arguments")
    mask = a > 0
    term = np.zeros_like(a)
    term[mask] = a[mask] * (np.log(a[mask]) - np.log(np.maximum(b[mask], floor)))
    return float(term.sum() - a.sum() + b.sum())


def uot_objective(P, C, epsilon, marginals, lambda1, lambda2):
    """<P,C> + lam1*KL(P1|mu) + lam2*KL(P'1|nu) + eps*sum P log P."""
    P = np.asarray(P.matrix if isinstance(P, TransportPlan) else P, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    mu = np.asarray(marginals.mu, dtype=np.float64)
    nu = np.asarray(marginals.nu, dtype=np.float64)
    if np.any(P < 0):
        raise SolverError("plan entries must be non-negative")
    ent = float(np.sum(np.where(P > 0, P * np.log(np.where(P > 0, P, 1.0)), 0.0)))
    return (
        float(np.sum(P * C))
        + lambda1 * generalized_kl(P.sum(axis=1), mu)
        + lambda2 * generalized_kl(P.sum(axis=0), nu)
        + epsilon * ent
    )
