import warnings
from functools import partial

import numpy as np
import pytest

import dense_reference as dense
from otalign import _backends, properties
from otalign.kernel import (
    GibbsKernel,
    KernelError,
    cosine_cost,
    cosine_kernel,
    gibbs_kernel,
    normalize_rows,
)
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
        err = properties.ince_half_step_equivalence(Z1, Z2, eps)
        assert err <= properties.TOLERANCES["ince_half_step_equivalence"]


def test_rince_proximal_identity(rng):
    # e^{q/eps} * proximal form == rince value, for any q, lam
    for _ in range(10):
        Z1, Z2 = pair(rng)
        q = float(rng.choice([0.5, 1.0]))
        lam = float(rng.choice([0.01, 0.5]))
        err = properties.rince_proximal_equivalence(Z1, Z2, 0.5, q, lam)
        assert err <= properties.TOLERANCES["rince_proximal_equivalence"]


def test_gca_rince_one_iteration_equals_proximal(rng):
    # with a single scaling iteration the column scaling is still one, so
    # the loss reduces exactly to the proximal form
    for _ in range(5):
        Z1, Z2 = pair(rng)
        got = gca_rince_loss(Z1, Z2, epsilon=0.5, q=1.0, lam=0.01, n_iters=1).value
        want = rince_proximal_form(Z1, Z2, epsilon=0.5, q=1.0, lam=0.01)
        assert abs(got - want) < 1e-12


def test_gca_rince_below_proximal_fails_on_a_fixed_pair():
    # B=2, eps=0.5, q=1: every sweep leaves v at ((1 + e^2) / 2,
    # (1 + e^-2) / 2), where sum_j c_j (v_j - 1) = 0 for K's column sums c,
    # so the gap sum_j (v_j - 1)(lam c_j - K_jj) = (1 - e^-2)^2 / 2 for any lam
    Z1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    Z2 = np.array([[-1.0, 0.0], [0.0, 1.0]])
    for lam in (0.01, 0.5):
        gap = properties.gca_rince_below_proximal(Z1, Z2, 0.5, lam)
        assert abs(gap - 0.37382253620775435) <= 1e-12


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


@pytest.mark.parametrize("fn", [rince_loss, gca_rince_loss, gca_uot_loss, rince_proximal_form])
def test_a_nan_lam_is_rejected(rng, fn):
    # NaN fails lam < 0 and lam > 0 alike, so it must fail the check itself
    # rather than pass for lam = 0
    Z1, Z2 = pair(rng)
    with pytest.raises(LossError, match="lam must be non-negative"):
        fn(Z1, Z2, lam=np.nan)


@pytest.mark.parametrize("n_iters", [0, -3, 1.5, 2.5, np.nan, True])
def test_gca_rince_checks_n_iters_as_gca_ince_does(rng, n_iters):
    # the error names the caller's value, not the n_iters - 1 sweeps run
    Z1, Z2 = pair(rng)
    with pytest.raises(SolverError) as want:
        gca_ince_loss(Z1, Z2, n_iters=n_iters)
    with pytest.raises(SolverError) as got:
        gca_rince_loss(Z1, Z2, n_iters=n_iters)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("penalty", ["lambda1", "lambda2"])
@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_gca_uot_rejects_a_penalty_that_is_not_non_negative(rng, penalty, bad):
    # a NaN penalty fails the options check, before the scaling loop runs
    Z1, Z2 = pair(rng)
    with pytest.raises(SolverError, match="non-negative"):
        gca_uot_loss(Z1, Z2, **{penalty: bad})


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


# ------------------------------------------------ the textbook formulas
#
# ince, rince and rince_proximal_form build their B x B data in one
# buffer, with 1/eps folded into the similarity and the row scalings
# applied on the B x d side.  dense_reference holds the formulas as they
# read with fresh arrays, and the rounding bounds they are compared at.


def assert_within(got, want, bound):
    """Each of (value, grad_z1, grad_z2) within twice its bound of the
    textbook's: both are within the bound of the exact numbers."""
    for g, w, b in zip(got, want, bound):
        assert np.all(np.abs(g - w) <= 2 * b), float(np.max(np.abs(g - w) / b))


@pytest.mark.parametrize("B", [64, 1024])
def test_fused_losses_match_the_textbook_formulas(rng, B):
    Z1, Z2 = pair(rng, B=B, d=16)
    Z2 = normalize_rows(Z1 + 0.3 * Z2)
    for eps in (0.5, 0.05):
        res = ince_loss(Z1, Z2, epsilon=eps)
        assert_within((res.value, res.grad_z1, res.grad_z2), dense.ince(Z1, Z2, eps),
                      dense.ince_error(Z1, Z2, eps))
        for lam in (0.01, 0.0):
            res = rince_loss(Z1, Z2, epsilon=eps, q=0.98, lam=lam)
            assert_within((res.value, res.grad_z1, res.grad_z2), dense.rince(Z1, Z2, eps, 0.98, lam),
                          dense.rince_error(Z1, Z2, eps, 0.98, lam))
            prox = rince_proximal_form(Z1, Z2, epsilon=eps, q=0.98, lam=lam)
            want = dense.rince_proximal_form(Z1, Z2, eps, 0.98, lam)
            if eps == 0.5:
                # the kernel is exact at a power-of-two eps, and so is the rest
                assert prox == want
            else:
                assert abs(prox - want) <= 2 * dense.rince_proximal_form_error(Z1, Z2, eps, 0.98, lam)


def test_fused_losses_are_as_accurate_as_the_textbook_formulas(rng):
    # against a long-double evaluation, the mean error of each fused output
    # is at most twice that of the textbook formula in float64
    errs = {}
    for B in (8, 64, 256):
        for d in (4, 16, 32):
            Z1, Z2 = pair(rng, B=B, d=d)
            Z2 = normalize_rows(Z1 + 0.3 * Z2)
            L1, L2 = dense.long_double(Z1, Z2)
            for eps in (0.05, 0.3, 0.7, 2.0):
                runs = [("ince", ince_loss(Z1, Z2, epsilon=eps), dense.ince, ())]
                for lam in (0.01, 0.0):
                    runs.append((f"rince lam={lam}", rince_loss(Z1, Z2, epsilon=eps, q=0.98, lam=lam),
                                 dense.rince, (0.98, lam)))
                for name, res, formula, args in runs:
                    exact = formula(L1, L2, eps, *args)
                    e = errs.setdefault(name, np.zeros((2, 3)))
                    e[0] += dense.relative_errors((res.value, res.grad_z1, res.grad_z2), exact)
                    e[1] += dense.relative_errors(formula(Z1, Z2, eps, *args), exact)
    for name, (fused, textbook) in errs.items():
        assert np.all(fused <= 2 * textbook), (name, fused / textbook)


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
    # several row blocks, the last one ragged (7 x 128 + 104 rows)
    "B1000": {"B": 1000, "d": 16},
}


def loss_kernel(Z1, Z2, eps):
    """The kernel the gca-* losses scale, with its cost: the scalings are
    compared bit for bit, so the reference loop runs on the same numbers."""
    return GibbsKernel(cosine_kernel(Z1, Z2, eps)[0], eps, cosine_cost(Z1, Z2))


def dense_case_batch(rng, case):
    Z1, Z2 = pair(rng, B=case.get("B", 8), d=case.get("d", 6))
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
        K = loss_kernel(Z1, Z2, eps)
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
    K = loss_kernel(Z1, Z2, eps)
    opts = SolverOptions(lambda1=1.0, lambda2=1.0)
    ones = np.ones(len(Z1))
    f, g, g_prev, _, _, _ = _backends.sinkhorn_core(K.matrix, K.cost, ones, ones, eps, opts)
    log_u, log_v, log_v_prev = f / eps, g / eps, g_prev / eps
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
    # over several row blocks, exactly: at a power-of-two eps the two kernels
    # are equal, and the loss's loop (fixed) and the solver's (recording)
    # make the same row pass
    Z1, Z2 = pair(rng, B=1000, d=16)
    assert _backends.row_block(1000) < 1000
    for n in (1, 4):
        res = gca_ince_loss(Z1, Z2, epsilon=0.25, n_iters=n, half_step=half_step)
        plan, _, traj = sinkhorn(gibbs_kernel(cosine_cost(Z1, Z2), 0.25),
                                 opts=SolverOptions(max_iterations=n))
        want = traj.plan_at(2 * n - 1) if half_step else plan.matrix
        assert np.array_equal(res.plan, want)


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


@pytest.mark.parametrize("entry", [np.nan, np.inf])
@pytest.mark.parametrize("fn", [gca_ince_loss, gca_rince_loss, gca_uot_loss])
def test_gca_losses_reject_a_non_finite_target(rng, fn, entry):
    # NaN passes a plain T < 0 test; the error must name the target, not
    # the embeddings or the kernel
    Z1, Z2 = pair(rng)
    bad = np.eye(8)
    bad[0, 1] = entry
    with pytest.raises(LossError, match="target must be finite"):
        fn(Z1, Z2, target=bad)


TRANSPORT_LOSSES = [ince_loss, gca_ince_loss, rince_loss, gca_rince_loss, gca_uot_loss]


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", TRANSPORT_LOSSES + [
    byol_loss,
    # one sweep runs no scaling loop, so no kernel check could see the entry
    pytest.param(partial(gca_rince_loss, n_iters=1), id="gca_rince_loss-one-sweep"),
])
def test_nan_embedding_raises_instead_of_returning_nan(rng, fn, entry):
    # every loss checks its batches once, before any B x B pass: a typed
    # error, never a numpy warning or a NaN
    for side in (0, 1):
        Z = list(pair(rng, B=16, d=4))
        Z[side][0, 0] = entry
        with pytest.raises(LossError, match="non-finite"):
            fn(*Z)


@pytest.mark.parametrize("fn", TRANSPORT_LOSSES + [byol_loss])
def test_empty_batch_raises(fn):
    Z = np.zeros((0, 4))
    with pytest.raises(LossError, match="empty batch"):
        fn(Z, Z)


@pytest.mark.parametrize("eps", [0.0, -0.5, np.nan])
@pytest.mark.parametrize("fn", TRANSPORT_LOSSES)
def test_every_loss_rejects_a_non_positive_epsilon(rng, fn, eps):
    Z1, Z2 = pair(rng)
    with pytest.raises(KernelError, match="epsilon must be positive"):
        fn(Z1, Z2, epsilon=eps)
    if fn is rince_loss:
        # lam = 0 skips the gradient GEMMs, but checks eps all the same
        with pytest.raises(KernelError, match="epsilon must be positive"):
            fn(Z1, Z2, epsilon=eps, lam=0.0)


def test_ince_plan_is_the_softmax_read_once(rng):
    # the softmax rows are normalized only when the plan is first read
    Z1, Z2 = pair(rng, B=32, d=6)
    res = ince_loss(Z1, Z2, epsilon=0.3)
    first = res.plan
    assert res.plan is first
    s = Z1 @ Z2.T / 0.3
    want = np.exp(s - s.max(axis=1)[:, None])
    want /= want.sum(axis=1)[:, None]
    assert np.allclose(first, want, rtol=1e-12, atol=0.0)
    assert np.allclose(first.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


@pytest.fixture(params=["rule", "single-row"])
def ragged_blocks(request, monkeypatch):
    """Split a B=37 batch into row blocks: by the block rule at a smaller
    block (8, 8, 8, 8 and 5 rows), or 12, 12, 12 and 1 rows."""
    def split():
        if request.param == "rule":
            monkeypatch.setattr(_backends, "BLOCK_ENTRIES", 300)
        else:
            monkeypatch.setattr(_backends, "row_block", lambda B: 12)
        assert _backends.row_block(37) == {"rule": 8, "single-row": 12}[request.param]
    return split


def assert_close_to(got, want, rtol):
    """Every float array within rtol of its largest entry, floats within
    rtol relative, the rest equal."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_close_to(got[key], want[key], rtol)
    elif isinstance(want, np.ndarray):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))
    else:
        assert abs(got - want) <= rtol * abs(want), (got, want)


def test_row_blocks_give_the_one_block_results(rng, ragged_blocks):
    # every loss over several row blocks, against the same call in one
    # block; at eps = 0.05 the balanced loops and the lambda = 5 unbalanced
    # one absorb, so the blocked kernel rebuild and damping run too
    Z1, Z2 = pair(rng, B=37, d=6)
    tgt = rng.uniform(0.5, 1.5, (37, 37))  # a diagonal that varies by row
    cases = [("ince", {}), ("rince", {}), ("rince", {"lam": 0.0}), ("gca-ince", {}),
             ("gca-ince", {"half_step": True}), ("gca-ince", {"target": tgt}),
             ("gca-rince", {}), ("gca-rince", {"target": tgt}), ("gca-uot", {}),
             ("gca-uot", {"target": tgt, "column_normalize": False}),
             ("gca-uot", {"lambda1": 5.0, "lambda2": 5.0})]
    runs = []
    for eps in (0.5, 0.05):
        for name, kw in cases:
            res = LOSS_FUNCTIONS[name](Z1, Z2, epsilon=eps, **kw)
            runs.append((name, dict(kw, epsilon=eps), res, res.plan))
    ragged_blocks()
    for name, kw, want, want_plan in runs:
        got = LOSS_FUNCTIONS[name](Z1, Z2, **kw)
        assert_close_to(got.value, want.value, 1e-13)
        assert_close_to(got.grad_z1, want.grad_z1, 1e-13)
        assert_close_to(got.grad_z2, want.grad_z2, 1e-13)
        if want.frozen is not None:
            assert_close_to(got.frozen, want.frozen, 1e-13)
            refrozen = LOSS_FUNCTIONS[name](Z1, Z2, frozen=want.frozen, **kw)
            assert_close_to(refrozen.grad_z1, want.grad_z1, 1e-13)
            assert_close_to(refrozen.grad_z2, want.grad_z2, 1e-13)
        if want_plan is not None:
            assert_close_to(got.plan, want_plan, 1e-13)


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
