import numpy as np
import pytest

import dense_reference as dense
from otalign.kernel import cosine_cost, gibbs_kernel, normalize_rows
from otalign.losses import LossError, gca_uot_loss, kl_plan_divergence
from otalign.solver import Marginals, SolverOptions, default_marginals, sinkhorn


def random_kernel(rng, B=8, d=6, epsilon=0.5):
    Z1 = normalize_rows(rng.standard_normal((B, d)))
    Z2 = normalize_rows(rng.standard_normal((B, d)))
    return gibbs_kernel(cosine_cost(Z1, Z2), epsilon)


def uot(lam1=1.0, lam2=None, **kw):
    """Unbalanced options: penalties lam1 and lam2 (default lam1), columns
    normalized unless asked otherwise."""
    kw.setdefault("column_normalize", True)
    return SolverOptions(lambda1=lam1, lambda2=lam1 if lam2 is None else lam2, **kw)


def test_zero_penalty_leaves_kernel(rng):
    # lambda = 0 makes both scaling exponents zero, so the plan is the
    # kernel itself (columns rescaled to nu when normalization is on)
    K = random_kernel(rng)
    plan, state, _ = sinkhorn(K, opts=uot(0.0, column_normalize=False))
    assert np.allclose(plan.matrix, K.matrix, atol=1e-12)
    # u ** 0 is exactly one, so both potentials are exactly zero
    assert np.all(state.f == 0.0) and np.all(state.g == 0.0)

    plan2, _, _ = sinkhorn(K, opts=uot(0.0))
    expect = K.matrix / K.matrix.sum(axis=0)[None, :]
    assert np.allclose(plan2.matrix, expect, atol=1e-12)


def test_large_penalty_recovers_balanced(rng):
    K = random_kernel(rng)
    plan_u, _, _ = sinkhorn(K, opts=uot(1e6, max_iterations=50, column_normalize=False))
    plan_b, _, _ = sinkhorn(K, opts=SolverOptions(max_iterations=50))
    assert np.max(np.abs(plan_u.matrix - plan_b.matrix)) < 1e-4


@pytest.mark.parametrize("epsilon", [0.5, 0.05])
def test_infinite_penalty_is_the_balanced_solve(rng, epsilon):
    # lambda = inf makes both exponents one: gca-uot runs the balanced
    # Sinkhorn update, through absorption too at the smaller epsilon
    Z1 = normalize_rows(rng.standard_normal((64, 8)))
    Z2 = normalize_rows(rng.standard_normal((64, 8)))
    res = gca_uot_loss(Z1, Z2, epsilon=epsilon, lambda1=np.inf, lambda2=np.inf)
    assert np.isfinite(res.value)
    assert np.all(np.isfinite(res.grad_z1)) and np.all(np.isfinite(res.grad_z2))


def test_column_normalization_exact(rng):
    K = random_kernel(rng, B=6)
    nu = np.array([0.5, 1.0, 1.5, 0.5, 1.0, 1.5])
    m = Marginals(mu=np.ones(6), nu=nu)
    plan, _, _ = sinkhorn(K, m, uot())
    assert np.allclose(plan.matrix.sum(axis=0), nu, atol=1e-12)
    assert plan.col_residual < 1e-12


def test_row_gap_shrinks_with_penalty(rng):
    # stronger marginal penalties pull the plan closer to the row targets
    K = random_kernel(rng)
    gaps = []
    for lam in (0.1, 1.0, 10.0, 100.0, 1e4):
        plan, _, _ = sinkhorn(K, opts=uot(lam, max_iterations=30, column_normalize=False))
        gaps.append(float(np.sum(np.abs(plan.matrix.sum(axis=1) - 1.0))))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_generalized_kl_oracles():
    assert kl_plan_divergence([1.0, 1.0], [1.0, 1.0]) == 0.0
    # sum a log(a/b) - a + b with a=2, b=1: 2 log 2 - 1
    assert np.isclose(kl_plan_divergence([2.0], [1.0]), 2.0 * np.log(2.0) - 1.0)
    # 0 log 0 = 0 convention: a=0, b=3 contributes just b
    assert np.isclose(kl_plan_divergence([0.0], [3.0]), 3.0)
    with pytest.raises(LossError, match="non-negative"):
        kl_plan_divergence([-1.0], [1.0])


def test_generalized_kl_nonnegative_same_mass(rng):
    for _ in range(20):
        a = rng.uniform(0.01, 2.0, 8)
        b = rng.uniform(0.01, 2.0, 8)
        b = b * (a.sum() / b.sum())
        assert kl_plan_divergence(a, b) >= -1e-12


def test_generalized_kl_rejects_mismatched_shapes():
    with pytest.raises(LossError, match="shapes differ"):
        kl_plan_divergence([1.0, 1.0], [1.0, 1.0, 1.0])


def test_uot_objective_penalizes_marginal_gaps(rng):
    K = random_kernel(rng)
    m = default_marginals(8)
    plan, _, _ = sinkhorn(K, m, uot(max_iterations=30, column_normalize=False))
    base = dense.uot_objective(plan.matrix, K.cost, 0.5, m, 1.0, 1.0)
    worse = dense.uot_objective(plan.matrix * 1.5, K.cost, 0.5, m, 1.0, 1.0)
    assert worse > base


def test_converged_plan_is_locally_optimal(rng):
    # at the fixed point the objective gradient is the constant eps, so
    # the plan is optimal within its total-mass level set: perturbations
    # that preserve sum(P) can only increase the objective
    K = random_kernel(rng)
    m = default_marginals(8)
    plan, _, _ = sinkhorn(K, m, uot(max_iterations=200, column_normalize=False))
    base = dense.uot_objective(plan.matrix, K.cost, 0.5, m, 1.0, 1.0)
    for _ in range(20):
        D = 1e-3 * rng.standard_normal((8, 8))
        Q = plan.matrix * np.exp(D)
        Q *= plan.matrix.sum() / Q.sum()
        assert dense.uot_objective(Q, K.cost, 0.5, m, 1.0, 1.0) >= base - 1e-10


def test_asymmetric_penalties(rng):
    # a large row penalty with a small column one should fit rows better
    K = random_kernel(rng)
    plan, _, _ = sinkhorn(K, opts=uot(100.0, 0.1, max_iterations=30, column_normalize=False))
    assert plan.row_residual < plan.col_residual


@pytest.mark.parametrize("lam, converges", [(1e9, True), (1.0, False)])
def test_converged_reports_the_final_residuals(rng, lam, converges):
    # a penalty this large is balanced to within the tolerance, so the
    # tolerance-mode solve stops early; at lambda = 1 the plan's marginals
    # stay away from mu and nu, and the solve runs out of iterations
    K = random_kernel(rng, B=16, epsilon=0.5)
    opts = uot(lam, max_iterations=1000, tolerance=1e-6, mode="tolerance", column_normalize=False)
    plan, state, _ = sinkhorn(K, opts=opts)
    assert plan.converged == (max(plan.row_residual, plan.col_residual) <= opts.tolerance)
    assert plan.converged is converges
    assert (state.iterations < 1000) is converges
