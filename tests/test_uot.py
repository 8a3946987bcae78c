import numpy as np
import pytest

from otalign.kernel import cosine_cost, gibbs_kernel, normalize_rows
from otalign.losses import gca_uot_loss
from otalign.solver import Marginals, SolverError, SolverOptions, default_marginals, sinkhorn
from otalign.uot import UotOptions, generalized_kl, unbalanced_sinkhorn, uot_objective


def random_kernel(rng, B=8, d=6, epsilon=0.5):
    Z1 = normalize_rows(rng.standard_normal((B, d)))
    Z2 = normalize_rows(rng.standard_normal((B, d)))
    return gibbs_kernel(cosine_cost(Z1, Z2), epsilon)


def test_options_validation():
    with pytest.raises(SolverError, match="non-negative"):
        UotOptions(lambda1=-1.0)
    with pytest.raises(SolverError):
        UotOptions(epsilon=0.0)
    with pytest.raises(SolverError):
        UotOptions(iterations=0)
    with pytest.raises(SolverError, match="integer"):
        UotOptions(iterations=2.5)
    with pytest.raises(SolverError, match="integer"):
        UotOptions(iterations=5.0)


@pytest.mark.parametrize("mu_size, nu_size", [(7, 8), (8, 9), (1, 8)])
def test_rejects_marginals_of_the_wrong_size(rng, mu_size, nu_size):
    K = random_kernel(rng, B=8)
    m = Marginals(mu=np.ones(mu_size), nu=np.ones(nu_size))
    with pytest.raises(SolverError, match="do not fit"):
        unbalanced_sinkhorn(K, m)


def test_rejects_a_rectangular_kernel(rng):
    C = rng.uniform(0.0, 2.0, size=(5, 7))
    K = gibbs_kernel(C, 0.5)
    m = Marginals(mu=np.ones(5), nu=np.ones(7))
    with pytest.raises(SolverError, match="square kernel"):
        unbalanced_sinkhorn(K, m)


def test_epsilon_must_match_kernel(rng):
    K = random_kernel(rng, epsilon=0.5)
    with pytest.raises(SolverError, match="epsilon must match"):
        unbalanced_sinkhorn(K, opts=UotOptions(epsilon=1.0))


def test_requires_kernel():
    with pytest.raises(SolverError, match="GibbsKernel"):
        unbalanced_sinkhorn(np.ones((2, 2)))


def test_zero_penalty_leaves_kernel(rng):
    # lambda = 0 makes both scaling exponents zero, so the plan is the
    # kernel itself (columns rescaled to nu when normalization is on)
    K = random_kernel(rng)
    plan, state = unbalanced_sinkhorn(
        K, opts=UotOptions(lambda1=0.0, lambda2=0.0, epsilon=0.5, column_normalize=False)
    )
    assert np.allclose(plan.matrix, K.matrix, atol=1e-12)
    assert np.allclose(state.u, 1.0, atol=1e-12)
    assert np.allclose(state.v, 1.0, atol=1e-12)

    plan2, _ = unbalanced_sinkhorn(K, opts=UotOptions(lambda1=0.0, lambda2=0.0, epsilon=0.5))
    expect = K.matrix / K.matrix.sum(axis=0)[None, :]
    assert np.allclose(plan2.matrix, expect, atol=1e-12)


def test_large_penalty_recovers_balanced(rng):
    K = random_kernel(rng)
    opts = UotOptions(lambda1=1e6, lambda2=1e6, epsilon=0.5, iterations=50, column_normalize=False)
    plan_u, _ = unbalanced_sinkhorn(K, opts=opts)
    plan_b, _, _ = sinkhorn(K, opts=SolverOptions(max_iterations=50))
    assert np.max(np.abs(plan_u.matrix - plan_b.matrix)) < 1e-4


@pytest.mark.parametrize("epsilon", [0.5, 0.05])
def test_infinite_penalty_is_the_balanced_solve(rng, epsilon):
    # lambda = inf makes both exponents one: the balanced Sinkhorn update,
    # through absorption too at the smaller epsilon
    Z1 = normalize_rows(rng.standard_normal((64, 8)))
    Z2 = normalize_rows(rng.standard_normal((64, 8)))
    K = gibbs_kernel(cosine_cost(Z1, Z2), epsilon)
    for n in (1, 5, 30):
        opts = UotOptions(lambda1=np.inf, lambda2=np.inf, epsilon=epsilon, iterations=n)
        plan_u, state_u = unbalanced_sinkhorn(K, opts=opts)
        plan_b, state_b, _ = sinkhorn(K, opts=SolverOptions(max_iterations=n))
        assert state_u.iterations == state_b.iterations == n
        assert np.max(np.abs(plan_u.matrix - plan_b.matrix)) <= 1e-12 * np.max(plan_b.matrix)
    res = gca_uot_loss(Z1, Z2, epsilon=epsilon, lambda1=np.inf, lambda2=np.inf)
    assert np.isfinite(res.value)
    assert np.all(np.isfinite(res.grad_z1)) and np.all(np.isfinite(res.grad_z2))


def test_column_normalization_exact(rng):
    K = random_kernel(rng, B=6)
    nu = np.array([0.5, 1.0, 1.5, 0.5, 1.0, 1.5])
    m = Marginals(mu=np.ones(6), nu=nu)
    plan, _ = unbalanced_sinkhorn(K, m, UotOptions(epsilon=0.5))
    assert np.allclose(plan.matrix.sum(axis=0), nu, atol=1e-12)
    assert plan.col_residual < 1e-12


def test_row_gap_shrinks_with_penalty(rng):
    # stronger marginal penalties pull the plan closer to the row targets
    K = random_kernel(rng)
    gaps = []
    for lam in (0.1, 1.0, 10.0, 100.0, 1e4):
        opts = UotOptions(lambda1=lam, lambda2=lam, epsilon=0.5, iterations=30, column_normalize=False)
        plan, _ = unbalanced_sinkhorn(K, opts=opts)
        gaps.append(float(np.sum(np.abs(plan.matrix.sum(axis=1) - 1.0))))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_generalized_kl_oracles():
    assert generalized_kl([1.0, 1.0], [1.0, 1.0]) == 0.0
    # sum a log(a/b) - a + b with a=2, b=1: 2 log 2 - 1
    assert np.isclose(generalized_kl([2.0], [1.0]), 2.0 * np.log(2.0) - 1.0)
    # 0 log 0 = 0 convention: a=0, b=3 contributes just b
    assert np.isclose(generalized_kl([0.0], [3.0]), 3.0)
    with pytest.raises(SolverError, match="non-negative"):
        generalized_kl([-1.0], [1.0])


def test_generalized_kl_nonnegative_same_mass(rng):
    for _ in range(20):
        a = rng.uniform(0.01, 2.0, 8)
        b = rng.uniform(0.01, 2.0, 8)
        b = b * (a.sum() / b.sum())
        assert generalized_kl(a, b) >= -1e-12


def test_uot_objective_penalizes_marginal_gaps(rng):
    K = random_kernel(rng)
    m = default_marginals(8)
    plan, _ = unbalanced_sinkhorn(K, m, UotOptions(epsilon=0.5, iterations=30, column_normalize=False))
    base = uot_objective(plan, K.cost, 0.5, m, 1.0, 1.0)
    worse = uot_objective(plan.matrix * 1.5, K.cost, 0.5, m, 1.0, 1.0)
    assert worse > base


def test_converged_plan_is_locally_optimal(rng):
    # at the fixed point the objective gradient is the constant eps, so
    # the plan is optimal within its total-mass level set: perturbations
    # that preserve sum(P) can only increase the objective
    K = random_kernel(rng)
    m = default_marginals(8)
    opts = UotOptions(lambda1=1.0, lambda2=1.0, epsilon=0.5, iterations=200, column_normalize=False)
    plan, _ = unbalanced_sinkhorn(K, m, opts)
    base = uot_objective(plan, K.cost, 0.5, m, 1.0, 1.0)
    for _ in range(20):
        D = 1e-3 * rng.standard_normal((8, 8))
        Q = plan.matrix * np.exp(D)
        Q *= plan.matrix.sum() / Q.sum()
        assert uot_objective(Q, K.cost, 0.5, m, 1.0, 1.0) >= base - 1e-10


def test_asymmetric_penalties(rng):
    # a large row penalty with a small column one should fit rows better
    K = random_kernel(rng)
    opts = UotOptions(lambda1=100.0, lambda2=0.1, epsilon=0.5, iterations=30, column_normalize=False)
    plan, _ = unbalanced_sinkhorn(K, opts=opts)
    assert plan.row_residual < plan.col_residual
