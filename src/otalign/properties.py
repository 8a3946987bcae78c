"""The exact identities between the contrastive losses and entropic OT.

Each function returns one batch's worst error on one identity, and
``TOLERANCES`` bounds it under the name ``otalign verify`` reports.  The
loss identities take (Z1, Z2, epsilon[, q, lam]); the solver identities
take a Gibbs kernel and its ``sinkhorn`` result.
"""

import numpy as np

from .losses import (
    gca_ince_loss,
    gca_rince_loss,
    ince_loss,
    kl_plan_divergence,
    rince_loss,
)
from .metrics import kl_via_duals
from .solver import SolverOptions, default_marginals, dual_objectives, sinkhorn

TOLERANCES = {
    "ince_half_step_equivalence": 1e-10,
    "rince_proximal_equivalence": 1e-9,
    "kl_monotone_along_iterations": 1e-9,
    "gca_rince_below_proximal": 1e-12,
    "kl_dual_identity": 1e-9,
    "dual_objective_monotone": 1e-9,
    "uot_balanced_limit": 1e-3,
}


def ince_half_step_equivalence(Z1, Z2, epsilon):
    """|INCE - GCA-INCE after one row normalization|."""
    a = ince_loss(Z1, Z2, epsilon).value
    return abs(a - gca_ince_loss(Z1, Z2, epsilon, n_iters=1, half_step=True).value)


def rince_proximal_equivalence(Z1, Z2, epsilon, q, lam):
    """|RINCE - e^{q/eps} times the proximal form|, relative to |RINCE|;
    the proximal form is one sweep of GCA-RINCE."""
    r1 = rince_loss(Z1, Z2, epsilon, q=q, lam=lam).value
    r2 = np.exp(q / epsilon) * gca_rince_loss(Z1, Z2, epsilon, q=q, lam=lam, n_iters=1).value
    return abs(r1 - r2) / max(abs(r1), 1e-12)


def gca_rince_below_proximal(Z1, Z2, epsilon, lam):
    """GCA-RINCE after 5 sweeps minus its one-sweep proximal form, at q=1.
    Claimed to be at most 0; README gives a B=2 counterexample."""
    g5 = gca_rince_loss(Z1, Z2, epsilon, q=1.0, lam=lam, n_iters=5).value
    return g5 - gca_rince_loss(Z1, Z2, epsilon, q=1.0, lam=lam, n_iters=1).value


def kl_monotone_along_iterations(K, solved):
    """The larger of KL(I || plan)'s worst rise over full sweeps and its
    worst gap to ``kl_via_duals`` at any full sweep."""
    traj = solved[2]
    prev = np.inf
    worst_drop = worst_gap = 0.0
    for t in range(1, traj.n_half // 2 + 1):
        kl = kl_plan_divergence(np.eye(K.shape[0]), traj.plan_at(2 * t))
        f, g = traj.f[2 * t - 1], traj.g[2 * t - 1]
        worst_gap = max(worst_gap, abs(kl - kl_via_duals(K.cost, f, g, K.epsilon)))
        worst_drop = max(worst_drop, kl - prev if np.isfinite(prev) else 0.0)
        prev = kl
    return max(worst_drop, worst_gap)


def kl_dual_identity(K, solved):
    """|KL(I || final plan) - kl_via_duals of the final potentials|."""
    plan, state, _ = solved
    kl = kl_plan_divergence(np.eye(K.shape[0]), plan.matrix)
    return abs(kl - kl_via_duals(K.cost, state.f, state.g, K.epsilon))


def dual_objective_monotone(K, solved):
    """The worst drop of the unit-marginal dual objective between half-steps."""
    traj = solved[2]
    duals = dual_objectives(traj.f, traj.g, K, default_marginals(K.shape[0]))
    return max((a - b for a, b in zip(duals, duals[1:])), default=0.0)


def uot_balanced_limit(K):
    """L1 distance between the 50-iteration unit-marginal plans, unbalanced
    at penalties 1e4 and balanced."""
    marg = default_marginals(K.shape[0])
    uplan, _, _ = sinkhorn(K, marg, SolverOptions(max_iterations=50, lambda1=1e4, lambda2=1e4))
    bplan, _, _ = sinkhorn(K, marg, SolverOptions(max_iterations=50))
    return np.sum(np.abs(uplan.matrix - bplan.matrix))
