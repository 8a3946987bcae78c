import warnings
from functools import partial

import numpy as np
import pytest

from otalign.kernel import cosine_cost, gibbs_kernel, normalize_rows
from otalign.losses import (
    LOSS_FUNCTIONS,
    LossError,
    byol_loss,
    gca_ince_loss,
    gca_rince_loss,
    gca_uot_loss,
    ince_loss,
    kl_plan_divergence,
    loss_grad_check,
    rince_loss,
    rince_proximal_form,
)
from otalign.plans import PlanError, block_domain_plan
from otalign.solver import SolverError, SolverOptions, sinkhorn
from otalign.uot import UotOptions, _solve_scalings


def pair(rng, B=8, d=6):
    return (
        normalize_rows(rng.standard_normal((B, d))),
        normalize_rows(rng.standard_normal((B, d))),
    )


# ---------------------------------------------------------------- oracles


def test_ince_orthonormal_oracle():
    # B=2, z1 = z2 = orthonormal, epsilon=1: each row cross-entropy is
    # log(1 + e^{-1}), summed over two rows: 0.626523...
    Z = np.eye(2)
    res = ince_loss(Z, Z, epsilon=1.0)
    assert np.isclose(res.value, 2.0 * np.log(1.0 + np.exp(-1.0)), atol=1e-12)
    assert np.isclose(res.value, 0.626523, atol=1e-6)


def test_ince_identical_pairs_beat_shuffled(rng):
    Z1, Z2 = pair(rng)
    matched = ince_loss(Z1, Z1, epsilon=0.5).value
    shuffled = ince_loss(Z1, np.roll(Z1, 1, axis=0), epsilon=0.5).value
    assert matched < shuffled


def test_rince_orthonormal_oracle():
    # q=1, lam=0.5, orthonormal batch, epsilon=1:
    # pos = e^{1} per row, neg = 0.5*(e^{1} + e^{0}), value = sum(neg - pos)
    Z = np.eye(2)
    res = rince_loss(Z, Z, epsilon=1.0, q=1.0, lam=0.5)
    expect = 2.0 * (0.5 * (np.e + 1.0) - np.e)
    assert np.isclose(res.value, expect, atol=1e-12)
    assert np.isclose(res.value, -1.718282, atol=1e-6)


def test_byol_oracle():
    Q = np.array([[1.0, 0.0]])
    Z = np.array([[0.0, 1.0]])
    res = byol_loss(Q, Z)
    assert np.isclose(res.value, 2.0)
    assert np.allclose(res.grad_z2, 0.0)
    assert np.allclose(res.grad_z1, 2.0 * (Q - Z))


def test_kl_plan_divergence_oracle():
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.isclose(kl_plan_divergence(np.eye(2), P), 2.0 * np.log(2.0))
    assert kl_plan_divergence(P, P) == 0.0


def test_kl_plan_divergence_support_violation():
    tgt = np.eye(2)
    P = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(LossError):
        kl_plan_divergence(tgt, P)


# --------------------------------------------------------- exact identities


def test_gca_ince_half_step_equals_ince(rng):
    # the contrastive cross-entropy is exactly the KL between the identity
    # coupling and the plan after the first row normalization
    for _ in range(10):
        B = int(rng.integers(3, 16))
        Z1, Z2 = pair(rng, B=B, d=5)
        eps = float(rng.choice([0.1, 0.5, 1.0]))
        a = ince_loss(Z1, Z2, epsilon=eps).value
        b = gca_ince_loss(Z1, Z2, epsilon=eps, n_iters=1, half_step=True).value
        assert abs(a - b) < 1e-10


def test_rince_proximal_identity(rng):
    # e^{q/eps} * proximal form == rince value, for any q, lam
    for _ in range(10):
        Z1, Z2 = pair(rng)
        q = float(rng.choice([0.5, 1.0]))
        lam = float(rng.choice([0.01, 0.5]))
        direct = rince_loss(Z1, Z2, epsilon=0.5, q=q, lam=lam).value
        prox = rince_proximal_form(Z1, Z2, epsilon=0.5, q=q, lam=lam)
        scaled = np.exp(q / 0.5) * prox
        assert abs(direct - scaled) <= 1e-9 * max(1.0, abs(direct))


def test_gca_rince_one_iteration_equals_proximal(rng):
    # with a single scaling iteration the column scaling is still one, so
    # the loss reduces exactly to the proximal form
    for _ in range(5):
        Z1, Z2 = pair(rng)
        got = gca_rince_loss(Z1, Z2, epsilon=0.5, q=1.0, lam=0.01, n_iters=1).value
        want = rince_proximal_form(Z1, Z2, epsilon=0.5, q=1.0, lam=0.01)
        assert abs(got - want) < 1e-12


def test_gca_ince_full_plan_differs_from_half_step(rng):
    Z1, Z2 = pair(rng)
    a = gca_ince_loss(Z1, Z2, epsilon=0.5, n_iters=1, half_step=True).value
    b = gca_ince_loss(Z1, Z2, epsilon=0.5, n_iters=5).value
    assert a != b


# ------------------------------------------------------------- invariances


def test_ince_permutation_equivariance(rng):
    Z1, Z2 = pair(rng)
    p = rng.permutation(8)
    a = ince_loss(Z1, Z2, epsilon=0.5).value
    b = ince_loss(Z1[p], Z2[p], epsilon=0.5).value
    assert np.isclose(a, b, atol=1e-10)


def test_gca_losses_permutation_invariant(rng):
    Z1, Z2 = pair(rng)
    p = rng.permutation(8)
    for fn in (gca_ince_loss, gca_rince_loss, gca_uot_loss):
        a = fn(Z1, Z2, epsilon=0.5).value
        b = fn(Z1[p], Z2[p], epsilon=0.5).value
        assert np.isclose(a, b, atol=1e-9), fn.__name__


def test_ince_epsilon_zero_limit(rng):
    # as epsilon shrinks the softmax sharpens; with the diagonal the best
    # match the loss tends to zero
    Z1, _ = pair(rng)
    vals = [ince_loss(Z1, Z1, epsilon=e).value for e in (1.0, 0.3, 0.1, 0.03)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.1 * vals[0]


def test_rince_q_to_one_continuity(rng):
    Z1, Z2 = pair(rng)
    at1 = rince_loss(Z1, Z2, epsilon=0.5, q=1.0, lam=0.1).value
    near1 = rince_loss(Z1, Z2, epsilon=0.5, q=1.0 - 1e-7, lam=0.1).value
    assert abs(at1 - near1) < 1e-5


def test_rince_validation():
    Z = np.eye(2)
    with pytest.raises(LossError):
        rince_loss(Z, Z, q=0.0)
    with pytest.raises(LossError):
        rince_loss(Z, Z, q=1.5)
    with pytest.raises(LossError):
        rince_loss(Z, Z, lam=-0.1)
    # lam = 0 is allowed (pure positive term)
    rince_loss(Z, Z, lam=0.0)


def test_gca_uot_weight_limits(rng):
    # w=1 is the robust term alone; w=0 is the divergence term alone,
    # and the value interpolates linearly in between
    Z1, Z2 = pair(rng)
    v0 = gca_uot_loss(Z1, Z2, epsilon=0.5, weight=0.0).value
    v1 = gca_uot_loss(Z1, Z2, epsilon=0.5, weight=1.0).value
    vh = gca_uot_loss(Z1, Z2, epsilon=0.5, weight=0.5).value
    assert np.isclose(vh, 0.5 * (v0 + v1), atol=1e-10)


@pytest.mark.parametrize("B, d, eps", [(32, 8, 0.5), (1024, 32, 0.05)])
def test_gca_uot_at_infinite_penalties_is_gca_ince(rng, B, d, eps):
    # balanced Sinkhorn is the lambda = inf case of the unbalanced update, so
    # gca-uot's KL term alone (weight 0, columns as solved) is gca-ince; the
    # second case absorbs
    Z1, Z2 = pair(rng, B=B, d=d)
    block = block_domain_plan(np.arange(B) % 4, 0.5, 0.2)
    for target in (None, block):
        uot = gca_uot_loss(Z1, Z2, epsilon=eps, lambda1=np.inf, lambda2=np.inf, weight=0.0,
                           column_normalize=False, target=target)
        ince = gca_ince_loss(Z1, Z2, epsilon=eps, target=target)
        assert abs(uot.value - ince.value) <= 1e-12 * abs(ince.value)
        for got, want in ((uot.grad_z1, ince.grad_z1), (uot.grad_z2, ince.grad_z2)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_gca_ince_custom_target(rng):
    Z1, Z2 = pair(rng)
    tgt = block_domain_plan([0, 0, 1, 1, 2, 2, 3, 3], 0.5, 0.0)
    res = gca_ince_loss(Z1, Z2, epsilon=0.5, target=tgt)
    assert np.isfinite(res.value)
    assert res.grad_z1.shape == Z1.shape


def count_calls(monkeypatch, name):
    """Replace otalign.losses.<name> with a wrapper; returns its call list."""
    import otalign.losses

    calls = []
    original = getattr(otalign.losses, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(otalign.losses, name, counted)
    return calls


def test_gca_ince_builds_its_cost_once(rng, monkeypatch):
    Z1, Z2 = pair(rng)
    want = gca_ince_loss(Z1, Z2, epsilon=0.5)
    kernels = count_calls(monkeypatch, "cosine_kernel")
    costs = count_calls(monkeypatch, "cosine_cost")
    got = gca_ince_loss(Z1, Z2, epsilon=0.5)
    assert len(kernels) == 1 and len(costs) == 0
    # the kernel is built from the loss's own cost: the same numbers
    K = gibbs_kernel(cosine_cost(Z1, Z2), 0.5)
    plan, _, _ = sinkhorn(K, opts=SolverOptions(max_iterations=5))
    assert np.array_equal(got.plan, plan.matrix)
    assert got.value == want.value
    assert np.array_equal(got.grad_z1, want.grad_z1)
    assert np.array_equal(got.grad_z2, want.grad_z2)


@pytest.mark.parametrize("loss_id", ["gca-ince", "gca-rince", "gca-uot"])
def test_gca_losses_build_the_cost_only_when_absorption_fires(rng, monkeypatch, loss_id):
    # the kernel comes from one fused buffer; the cost is built for the first
    # absorption only, which never fires at eps=0.5 and does at eps=0.05.  A
    # dense target needs <T, C> as well, from the same single build; gca-rince
    # reads only the target's diagonal
    Z1, Z2 = pair(rng, B=1024, d=32)
    block = block_domain_plan(np.arange(1024) % 4, 0.5, 0.2)
    costs = count_calls(monkeypatch, "cosine_cost")
    dense = 0 if loss_id == "gca-rince" else 1
    for target, eps, builds in ((None, 0.5, 0), (None, 0.05, 1),
                                (block, 0.5, dense), (block, 0.05, 1)):
        del costs[:]
        LOSS_FUNCTIONS[loss_id](Z1, Z2, epsilon=eps, target=target)
        assert len(costs) == builds, (target is None, eps, len(costs))


# ------------------------------------------- the formulas before fusion
#
# ince, rince and rince_proximal_form build their B x B data in one
# buffer.  These are the formulas as they read with fresh arrays; the
# fused code must give the same numbers bit for bit.


def unfused_ince(Z1, Z2, eps):
    s = (Z1 @ Z2.T) / eps
    m = s.max(axis=1)
    P = np.exp(s - m[:, None])
    sums = P.sum(axis=1)
    value = float(np.sum(np.log(sums) + m - np.diagonal(s)))
    P /= sums[:, None]
    return value, (P @ Z2 - Z2) / eps, (P.T @ Z1 - Z1) / eps


def unfused_rince(Z1, Z2, eps, q, lam):
    s = (Z1 @ Z2.T) / eps
    m = s.max(axis=1)
    e = np.exp(s - m[:, None])
    lse = np.log(e.sum(axis=1)) + m
    pos = np.exp(q * np.diagonal(s))
    if lam > 0:
        neg = np.exp(q * (lse + np.log(lam)))
        c = e * np.exp((q - 1.0) * lse + m + q * np.log(lam))[:, None]
    else:
        neg = np.zeros_like(pos)
        c = np.zeros_like(s)
    c[np.diag_indices_from(c)] -= pos
    return float(np.sum(neg - pos) / q), c @ Z2 / eps, c.T @ Z1 / eps


def unfused_rince_proximal_form(Z1, Z2, eps, q, lam):
    K = np.exp(-np.clip(1 - Z1 @ Z2.T, 0, 2) / eps)
    u = 1.0 / (K.sum(axis=1))
    pos = (np.diag(u[:, None] * K) / u) ** q
    neg = (lam / u) ** q if lam > 0 else np.zeros_like(pos)
    return float(np.sum(neg - pos) / q)


@pytest.mark.parametrize("B", [64, 1024])
def test_fused_losses_equal_the_unfused_formulas_bit_for_bit(rng, B):
    Z1, Z2 = pair(rng, B=B, d=16)
    Z2 = normalize_rows(Z1 + 0.3 * Z2)
    for eps in (0.5, 0.05):
        cases = [(ince_loss(Z1, Z2, epsilon=eps), unfused_ince(Z1, Z2, eps))]
        for lam in (0.01, 0.0):
            cases.append((rince_loss(Z1, Z2, epsilon=eps, q=0.98, lam=lam),
                          unfused_rince(Z1, Z2, eps, 0.98, lam)))
            assert (rince_proximal_form(Z1, Z2, epsilon=eps, q=0.98, lam=lam)
                    == unfused_rince_proximal_form(Z1, Z2, eps, 0.98, lam))
        for res, (value, g1, g2) in cases:
            assert res.value == value
            assert np.array_equal(res.grad_z1, g1) and np.array_equal(res.grad_z2, g2)


# ----------------------------------------- dense reference formulas
#
# gca-rince and gca-uot compute their value and gradients through K and
# the scalings without forming the plan or d(loss)/dC.  These are the
# same quantities written out with dense B x B matrices.


def dense_gca_rince(Z1, Z2, eps, q, lam, target, v_prev):
    tgt = np.eye(len(Z1)) if target is None else target
    K = np.exp(-cosine_cost(Z1, Z2) / eps)
    Kv = K @ v_prev
    pos = (np.diag(K) * v_prev) ** q
    neg = (lam * np.diag(tgt) * Kv) ** q if lam > 0 else np.zeros_like(pos)
    dLdC = -(neg / np.maximum(Kv, 1e-300))[:, None] * (K * v_prev[None, :]) / eps
    dLdC[np.diag_indices_from(dLdC)] += pos / eps
    return float(np.sum(neg - pos) / q), -dLdC @ Z2, -dLdC.T @ Z1


def dense_gca_uot(Z1, Z2, eps, q, lam, weight, target, column_normalize,
                  log_u, log_v, log_v_prev):
    B = len(Z1)
    tgt = np.eye(B) if target is None else target
    K = np.exp(-cosine_cost(Z1, Z2) / eps)
    P = np.exp(log_u)[:, None] * K * np.exp(log_v)[None, :]
    ti, tj = np.nonzero(tgt)
    tv = tgt[ti, tj]
    if column_normalize:
        s = P.sum(axis=0)
        kl = np.sum(tv * (np.log(tv) - np.log(P[ti, tj]) + np.log(s)[tj])) - tgt.sum() + B
        Pw = P * (tgt.sum(axis=0) / s)[None, :]
    else:
        kl = np.sum(tv * (np.log(tv) - np.log(P[ti, tj]))) - tgt.sum() + P.sum()
        Pw = P
    pos = (np.diag(K) * np.exp(log_v_prev)) ** q
    neg = (lam * np.diag(tgt) / np.exp(log_u)) ** q if lam > 0 else np.zeros_like(pos)
    value = weight * np.sum(neg - pos) / q + (1.0 - weight) * kl
    ck = (1.0 - weight) / eps
    d = weight * pos / eps
    g1 = ck * (Pw @ Z2 - tgt @ Z2) - d[:, None] * Z2
    g2 = ck * (Pw.T @ Z1 - tgt.T @ Z1) - d[:, None] * Z1
    return float(value), g1, g2


def assert_matches_dense(res, dense, tol=1e-12):
    value, g1, g2 = dense
    assert abs(res.value - value) <= tol * abs(value), (res.value, value)
    for got, want in ((res.grad_z1, g1), (res.grad_z2, g2)):
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


DENSE_CASES = {
    "identity": {},
    "block-target": {"target": block_domain_plan([0, 0, 0, 1, 1, 2, 2, 2], 0.5, 0.2)},
    "frozen": {"frozen": True},
    "lam0": {"lam": 0.0},
    "absorbing": {"epsilon": 0.05, "independent": True},
}


def dense_case_batch(rng, case):
    Z1, Z2 = pair(rng)
    if not case.get("independent"):
        Z2 = normalize_rows(Z1 + 0.3 * rng.standard_normal(Z1.shape))
    return Z1, Z2


@pytest.mark.parametrize("name", list(DENSE_CASES) + ["one-sweep"])
def test_gca_rince_matches_dense_formula(rng, name):
    case = dict(DENSE_CASES.get(name, {"n_iters": 1}))
    Z1, Z2 = dense_case_batch(rng, case)
    eps = case.get("epsilon", 0.5)
    kw = {"epsilon": eps, "q": 0.98, "lam": case.get("lam", 0.01),
          "n_iters": case.get("n_iters", 5), "target": case.get("target")}
    res = gca_rince_loss(Z1, Z2, **kw)
    if kw["n_iters"] >= 2:
        K = gibbs_kernel(cosine_cost(Z1, Z2), eps)
        _, _, traj = sinkhorn(K, opts=SolverOptions(max_iterations=kw["n_iters"] - 1))
        v_prev = np.exp(traj.g[-1] / eps)
    else:
        v_prev = np.ones(len(Z1))
    assert np.array_equal(res.frozen["v_prev"], v_prev)
    if name == "absorbing":
        assert np.max(v_prev) > SolverOptions().absorption_threshold
    if case.get("frozen"):
        Z1 = normalize_rows(Z1 + 0.05 * rng.standard_normal(Z1.shape))
        res = gca_rince_loss(Z1, Z2, frozen=res.frozen, **kw)
    assert_matches_dense(res, dense_gca_rince(Z1, Z2, eps, kw["q"], kw["lam"], kw["target"], v_prev))


@pytest.mark.parametrize("name", list(DENSE_CASES) + ["unnormalized"])
def test_gca_uot_matches_dense_formula(rng, name):
    case = dict(DENSE_CASES.get(name, {"column_normalize": False}))
    Z1, Z2 = dense_case_batch(rng, case)
    eps = case.get("epsilon", 0.5)
    kw = {"epsilon": eps, "q": 0.98, "lam": case.get("lam", 0.01), "weight": 0.5,
          "target": case.get("target"), "column_normalize": case.get("column_normalize", True)}
    res = gca_uot_loss(Z1, Z2, **kw)
    K = gibbs_kernel(cosine_cost(Z1, Z2), eps)
    opts = UotOptions(epsilon=eps, column_normalize=False)
    log_u, log_v, log_v_prev, _, _ = _solve_scalings(
        K.matrix, K.cost, eps, np.ones(len(Z1)), np.ones(len(Z1)), opts
    )
    for key, want in (("log_u", log_u), ("log_v", log_v), ("log_v_prev", log_v_prev)):
        assert np.array_equal(res.frozen[key], want)
    if name == "absorbing":
        assert np.max(np.exp(log_u)) > opts.absorption_threshold
    if case.get("frozen"):
        Z1 = normalize_rows(Z1 + 0.05 * rng.standard_normal(Z1.shape))
        res = gca_uot_loss(Z1, Z2, frozen=res.frozen, **kw)
    dense = dense_gca_uot(Z1, Z2, eps, kw["q"], kw["lam"], kw["weight"], kw["target"],
                          kw["column_normalize"], log_u, log_v, log_v_prev)
    assert_matches_dense(res, dense)


def dense_gca_ince(Z1, Z2, eps, target, n_iters=5, half_step=False, frozen=None):
    """The plan, KL and d(loss)/dC of gca-ince as dense B x B matrices."""
    tgt = np.eye(len(Z1)) if target is None else target
    C = cosine_cost(Z1, Z2)
    if frozen is not None:
        P = np.exp((frozen["f"][:, None] + frozen["g"][None, :] - C) / eps)
    else:
        plan, _, traj = sinkhorn(gibbs_kernel(C, eps), opts=SolverOptions(max_iterations=n_iters))
        P = traj.plan_at(2 * n_iters - 1) if half_step else plan.matrix
    dLdC = (tgt - P) / eps
    return kl_plan_divergence(tgt, P), -dLdC @ Z2, -dLdC.T @ Z1


GCA_INCE_CASES = {
    "identity": {},
    "block-beta0": {"target": block_domain_plan([0, 0, 0, 1, 1, 2, 2, 2], 0.5, 0.0)},
    "block-beta": {"target": block_domain_plan([0, 0, 0, 1, 1, 2, 2, 2], 0.5, 0.2)},
    "half-step-1": {"half_step": True, "n_iters": 1},
    "half-step-5": {"half_step": True, "n_iters": 5},
    "half-step-block": {"half_step": True, "n_iters": 3,
                        "target": block_domain_plan([0, 1, 0, 1, 0, 1, 0, 1], 0.5, 0.2)},
    "frozen": {"frozen": True},
    "frozen-block-half-step": {"frozen": True, "half_step": True, "n_iters": 2,
                               "target": block_domain_plan([0, 0, 0, 1, 1, 2, 2, 2], 0.5, 0.2)},
    "absorbing": {"epsilon": 0.05, "B": 1024, "d": 32, "independent": True},
}


@pytest.mark.parametrize("name", list(GCA_INCE_CASES))
def test_gca_ince_matches_dense_formula(rng, name):
    case = GCA_INCE_CASES[name]
    Z1, Z2 = pair(rng, B=case.get("B", 8), d=case.get("d", 6))
    if not case.get("independent"):
        Z2 = normalize_rows(Z1 + 0.3 * rng.standard_normal(Z1.shape))
    eps = case.get("epsilon", 0.5)
    kw = {"epsilon": eps, "n_iters": case.get("n_iters", 5),
          "half_step": case.get("half_step", False), "target": case.get("target")}
    res = gca_ince_loss(Z1, Z2, **kw)
    dense = dense_gca_ince(Z1, Z2, eps, kw["target"], kw["n_iters"], kw["half_step"])
    assert_matches_dense(res, dense)
    if name == "absorbing":
        # until the first absorption the recorded potentials are eps * log of
        # the live scalings, and the loop absorbs at the end of any iteration
        # whose scalings exceed the threshold
        _, _, traj = sinkhorn(gibbs_kernel(cosine_cost(Z1, Z2), eps))
        top = max(np.max(traj.f[1::2]), np.max(traj.g[1::2])) / eps
        assert top > np.log(SolverOptions().absorption_threshold)
    if case.get("frozen"):
        Z1 = normalize_rows(Z1 + 0.05 * rng.standard_normal(Z1.shape))
        frozen = res.frozen
        res = gca_ince_loss(Z1, Z2, frozen=frozen, **kw)
        assert_matches_dense(res, dense_gca_ince(Z1, Z2, eps, kw["target"], frozen=frozen))
        assert loss_grad_check("gca-ince", Z1, Z2, config=kw) < 1e-5


@pytest.mark.parametrize("half_step", [False, True])
def test_gca_ince_lazy_plan_is_the_solver_plan(rng, half_step):
    Z1, Z2 = pair(rng, B=32, d=6)
    for n in (1, 4):
        res = gca_ince_loss(Z1, Z2, epsilon=0.3, n_iters=n, half_step=half_step)
        plan, _, traj = sinkhorn(gibbs_kernel(cosine_cost(Z1, Z2), 0.3),
                                 opts=SolverOptions(max_iterations=n))
        want = traj.plan_at(2 * n - 1) if half_step else plan.matrix
        assert np.allclose(res.plan, want, rtol=1e-12, atol=0.0)


def test_gca_ince_forms_no_dense_plan(rng, monkeypatch):
    import otalign.losses
    import otalign.plans
    import otalign.solver

    def forbidden(*args, **kwargs):
        raise AssertionError("gca_ince_loss formed a dense plan")

    for module, name in ((otalign.losses, "sinkhorn"), (otalign.solver, "sinkhorn"),
                         (otalign.losses, "identity_plan"), (otalign.plans, "identity_plan"),
                         (otalign.losses, "kl_plan_divergence"),
                         (otalign.losses, "_gibbs_plan"), (otalign.solver, "_gibbs_plan")):
        monkeypatch.setattr(module, name, forbidden, raising=False)
    Z1, Z2 = pair(rng)
    tgt = block_domain_plan([0, 0, 1, 1, 2, 2, 3, 3], 0.5, 0.2)
    for kw in ({}, {"half_step": True}, {"target": tgt}):
        res = gca_ince_loss(Z1, Z2, epsilon=0.5, **kw)
        gca_ince_loss(Z1, Z2, epsilon=0.5, frozen=res.frozen, **kw)


def test_gca_ince_rejects_a_target_that_does_not_fit(rng):
    # every gca-* loss checks its target the same way
    Z1, Z2 = pair(rng)
    bad = np.eye(8)
    bad[0, 1] = -0.5
    for fn in (gca_ince_loss, gca_rince_loss, gca_uot_loss):
        with pytest.raises(LossError, match="does not fit"):
            fn(Z1, Z2, target=np.eye(7))
        with pytest.raises(LossError, match="non-negative"):
            fn(Z1, Z2, target=bad)


@pytest.mark.parametrize("fn", [
    ince_loss,
    rince_loss,
    # one sweep runs no scaling loop, so no kernel check sees the NaN
    pytest.param(partial(gca_rince_loss, n_iters=1), id="gca_rince_loss-one-sweep"),
])
def test_nan_embedding_raises_instead_of_returning_nan(rng, fn):
    Z1, Z2 = pair(rng)
    Z2[0, 0] = np.nan
    with pytest.raises(LossError, match="non-finite"):
        fn(Z1, Z2)


def test_rince_overflow_at_small_epsilon_raises(unit_batch):
    # e^{q s_ii} with s_ii = 1/eps = 1000 overflows to inf
    Z1, Z2 = unit_batch(64, 8), unit_batch(64, 8)
    with pytest.raises(LossError, match="non-finite"):
        rince_loss(Z1, Z2, epsilon=1e-3)
    assert np.isfinite(rince_loss(Z1, Z2, epsilon=1e-2).value)


def test_gca_losses_need_two_samples():
    # the identity target is undefined for a single sample
    Z = np.eye(3)[:1]
    for fn in (gca_ince_loss, gca_rince_loss, gca_uot_loss):
        with pytest.raises(PlanError):
            fn(Z, Z)


def test_gca_uot_kernel_underflow_raises(unit_batch):
    # at eps=1e-4 every kernel entry of these batches underflows to zero;
    # the loss must fail with the solver's error, not return NaN
    Z1, Z2 = unit_batch(64, 8), unit_batch(64, 8)
    with pytest.raises(SolverError):
        gca_uot_loss(Z1, Z2, epsilon=1e-4)
    assert np.isfinite(gca_uot_loss(Z1, Z2, epsilon=1e-3).value)


def test_typed_failures_raise_without_runtime_warnings(unit_batch):
    # overflow on the way to a non-finite result is the typed error's job
    # to report; numpy's warnings about it are noise
    Z1, Z2 = unit_batch(64, 8), unit_batch(64, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LossError, match="non-finite"):
            rince_loss(Z1, Z2, epsilon=1e-3)
        with pytest.raises(SolverError, match="non-finite"):
            gca_uot_loss(Z1, Z2, epsilon=1e-4)
        # the kernel underflows in part here, yet the loss is finite
        assert gca_uot_loss(Z1, Z2, epsilon=1e-3).value == 22074.624247222313


# ---------------------------------------------------------------- gradients


@pytest.mark.parametrize("loss_id", sorted(LOSS_FUNCTIONS))
def test_gradients_match_finite_differences(rng, loss_id):
    for _ in range(3):
        Z1, Z2 = pair(rng, B=6, d=5)
        rel = loss_grad_check(loss_id, Z1, Z2)
        tol = 1e-4 if loss_id == "gca-uot" else 1e-5
        assert rel < tol, (loss_id, rel)


def test_gca_uot_grad_without_column_normalization(rng):
    Z1, Z2 = pair(rng, B=6, d=5)
    rel = loss_grad_check("gca-uot", Z1, Z2, config={"column_normalize": False})
    assert rel < 1e-4


def test_frozen_solution_reused_is_deterministic(rng):
    Z1, Z2 = pair(rng)
    a = gca_ince_loss(Z1, Z2, epsilon=0.5)
    b = gca_ince_loss(Z1, Z2, epsilon=0.5, frozen=a.frozen)
    assert a.value == b.value
    assert np.array_equal(a.grad_z1, b.grad_z1)


def test_loss_grad_check_rejects_unknown():
    with pytest.raises(LossError):
        loss_grad_check("nonsense", np.eye(3), np.eye(3))


def test_batch_validation():
    with pytest.raises(LossError):
        ince_loss(np.ones((2, 3)), np.ones((3, 3)))
