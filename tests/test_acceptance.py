"""End-to-end acceptance checks: exact identities, solver diagnostics,
gradient validation, and desk-scale training outcomes."""

import time

import numpy as np
import pytest

from otalign import properties
from otalign.kernel import cosine_cost, gibbs_kernel, normalize_rows
from otalign.losses import gca_ince_loss, gca_uot_loss, loss_grad_check
from otalign.solver import SolverOptions, default_marginals, hilbert_metric, sinkhorn
from otalign.train import (
    MlpEncoder,
    TrainConfig,
    domain_alignment_experiment,
    encoder_backward,
    encoder_forward,
    encoder_representation,
    gen_blobs,
    linear_probe,
    train_encoder,
)


def unit_pair(rng, B, d):
    return (
        normalize_rows(rng.standard_normal((B, d))),
        normalize_rows(rng.standard_normal((B, d))),
    )


def random_kernel(rng, B=None, eps=None):
    B = B or int(rng.integers(4, 33))
    eps = eps or float(rng.choice([0.1, 0.5, 1.0]))
    Z1, Z2 = unit_pair(rng, B, int(rng.integers(4, 17)))
    return gibbs_kernel(cosine_cost(Z1, Z2), eps)


def assert_holds(name, *batch):
    err = getattr(properties, name)(*batch)
    assert err <= properties.TOLERANCES[name], (name, err)


def test_contrastive_cross_entropy_equals_half_step_divergence():
    # 200 random batches: the softmax cross-entropy and the KL from the
    # identity coupling to the once-row-normalized plan agree
    rng = np.random.default_rng(11)
    for _ in range(200):
        B = int(rng.integers(4, 65))
        d = int(rng.integers(4, 33))
        eps = float(rng.choice([0.1, 0.5, 1.0]))
        Z1, Z2 = unit_pair(rng, B, d)
        assert_holds("ince_half_step_equivalence", Z1, Z2, eps)


def test_robust_loss_equals_scaled_proximal_form():
    # 200 random batches over the (q, lam) grid: direct evaluation equals
    # e^{q/eps} times the half-step proximal form
    rng = np.random.default_rng(12)
    for _ in range(200):
        B = int(rng.integers(4, 65))
        Z1, Z2 = unit_pair(rng, B, int(rng.integers(4, 33)))
        eps = float(rng.choice([0.1, 0.5, 1.0]))
        q = float(rng.choice([0.5, 1.0]))
        lam = float(rng.choice([0.01, 0.5]))
        assert_holds("rince_proximal_equivalence", Z1, Z2, eps, q, lam)


def test_divergence_to_plan_non_increasing_and_dual_identity():
    # 100 kernels: KL(I || plan) never increases across full sweeps, and
    # the dual-potential shortcut reproduces the direct value
    rng = np.random.default_rng(13)
    for _ in range(100):
        K = random_kernel(rng)
        solved = sinkhorn(K, opts=SolverOptions(max_iterations=10))
        assert_holds("kl_monotone_along_iterations", K, solved)
        assert_holds("kl_dual_identity", K, solved)


def test_iterated_robust_loss_dominated_by_proximal_form():
    # 100 batches at q=1: the claim is that extra scaling sweeps can only
    # lower the robust loss below its one-sweep proximal form.  The
    # counterexamples are real; this test documents the gap honestly.
    rng = np.random.default_rng(14)
    worst = -np.inf
    for _ in range(100):
        B = int(rng.integers(4, 65))
        Z1, Z2 = unit_pair(rng, B, int(rng.integers(4, 33)))
        eps = float(rng.choice([0.1, 0.5, 1.0]))
        lam = float(rng.choice([0.01, 0.5]))
        worst = max(worst, properties.gca_rince_below_proximal(Z1, Z2, eps, lam))
    tol = properties.TOLERANCES["gca_rince_below_proximal"]
    assert worst <= tol, f"iterated robust loss exceeds proximal form by {worst:.3e}"


def test_dual_objective_monotone_and_final_potentials_dominate():
    # 100 kernels: the dual objective never drops between half-steps, and
    # the final potential sum dominates every recorded half-step
    rng = np.random.default_rng(15)
    for _ in range(100):
        K = random_kernel(rng)
        solved = sinkhorn(K, opts=SolverOptions(max_iterations=8))
        assert_holds("dual_objective_monotone", K, solved)
        _, state, traj = solved
        final = state.f.sum() + state.g.sum()
        sums = traj.f.sum(axis=1) + traj.g.sum(axis=1)
        assert np.all(final >= sums - 1e-9)


def test_tolerance_mode_reaches_target_and_decay_is_geometric():
    # residuals meet a 1e-10 tolerance, and the scaling vector approaches
    # its fixed point geometrically in the projective metric: a linear
    # fit of log distance against iteration explains 99 percent variance
    rng = np.random.default_rng(16)
    for _ in range(10):
        Z1, Z2 = unit_pair(rng, 32, 8)
        K = gibbs_kernel(cosine_cost(Z1, Z2), 0.1)
        opts = SolverOptions(max_iterations=2000, tolerance=1e-10, mode="tolerance")
        plan, state, traj = sinkhorn(K, opts=opts)
        assert plan.converged
        assert plan.row_residual <= 1e-10 and plan.col_residual <= 1e-10

        ustar = np.exp(state.f / K.epsilon)
        dists = []
        for h in range(1, traj.n_half, 2):
            u = np.exp(traj.f[h - 1] / K.epsilon)
            d = hilbert_metric(u, ustar)
            if d > 1e-12:
                dists.append(d)
        assert len(dists) >= 5
        y = np.log(dists)
        t = np.arange(len(dists), dtype=np.float64)
        A = np.vstack([t, np.ones_like(t)]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        pred = A @ coef
        r2 = 1.0 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
        assert coef[0] < 0.0
        assert r2 >= 0.99


def test_unbalanced_limits_and_penalty_monotonicity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        K = random_kernel(rng, eps=0.5)
        B = K.shape[0]
        marg = default_marginals(B)

        # huge penalties recover the balanced plan
        assert_holds("uot_balanced_limit", K)

        # zero penalties leave the kernel untouched up to the column fit
        zplan, _, _ = sinkhorn(
            K, marg, SolverOptions(lambda1=0.0, lambda2=0.0, column_normalize=True)
        )
        expect = K.matrix / K.matrix.sum(axis=0)[None, :]
        assert np.max(np.abs(zplan.matrix - expect)) <= 1e-12

        # the row-marginal gap shrinks monotonically in the penalty
        gaps = []
        for lam in (1.0, 10.0, 100.0, 1e4):
            opts = SolverOptions(max_iterations=30, lambda1=lam, lambda2=lam)
            plan, _, _ = sinkhorn(K, marg, opts)
            gaps.append(float(np.sum(np.abs(plan.matrix.sum(axis=1) - 1.0))))
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize(
    "loss_id,tol",
    [
        ("ince", 1e-5),
        ("gca-ince", 1e-5),
        ("gca-rince", 1e-5),
        ("byol", 1e-5),
        ("gca-uot", 1e-4),
    ],
)
def test_analytic_gradients_match_finite_differences(loss_id, tol):
    rng = np.random.default_rng(18)
    for _ in range(20):
        B = int(rng.integers(4, 17))
        Z1, Z2 = unit_pair(rng, B, int(rng.integers(4, 9)))
        rel = loss_grad_check(loss_id, Z1, Z2)
        assert rel <= tol, (loss_id, rel)


def test_encoder_backward_matches_finite_differences():
    rng = np.random.default_rng(19)
    enc = MlpEncoder.init(8, seed=2)
    X = rng.standard_normal((6, 8))
    G = rng.standard_normal((6, 16))
    _, cache = encoder_forward(enc, X)
    gW, gb = encoder_backward(enc, cache, G)

    def value(e):
        Z, _ = encoder_forward(e, X)
        return float(np.sum(G * Z))

    h = 1e-6
    for layer in range(3):
        for _ in range(10):
            i = int(rng.integers(enc.weights[layer].shape[0]))
            j = int(rng.integers(enc.weights[layer].shape[1]))
            e = enc.copy()
            e.weights[layer][i, j] += h
            up = value(e)
            e.weights[layer][i, j] -= 2 * h
            fd = (up - value(e)) / (2 * h)
            assert abs(fd - gW[layer][i, j]) <= 1e-5


@pytest.mark.parametrize("loss_id", ["gca-ince", "gca-rince", "gca-uot"])
def test_training_reaches_probe_accuracy_and_improves_geometry(loss_id):
    data = gen_blobs(4, 1, 16, 50, seed=0)
    cfg = TrainConfig(loss=loss_id, epochs=200, batch_size=64, epsilon=0.5, seed=0)
    enc, history = train_encoder(data, cfg)
    H = encoder_representation(enc, data.points)
    acc = linear_probe(H, data.class_labels, seed=0)
    assert acc >= 0.95, (loss_id, acc)
    assert history[-1]["alignment"] < history[0]["alignment"]
    assert history[-1]["uniformity"] < history[0]["uniformity"]


def _spearman(x, y):
    def ranks(a):
        a = np.asarray(a, dtype=np.float64)
        order = np.argsort(a)
        r = np.empty_like(a)
        r[order] = np.arange(1.0, a.size + 1.0)
        # average ranks over ties
        for val in np.unique(a):
            m = a == val
            r[m] = r[m].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt(np.sum(rx**2) * np.sum(ry**2))
    if denom == 0.0:
        return 0.0
    return float(np.sum(rx * ry) / denom)


def test_domain_weight_shapes_representations_without_hurting_classes():
    # sweeping the same-domain target weight raises how much domain
    # information a probe recovers, while class accuracy stays put
    alphas = [0.0, 0.25, 0.5, 1.0]
    dom_acc = {a: [] for a in alphas}
    cls_acc = {a: [] for a in alphas}
    for seed in range(5):
        data = gen_blobs(4, 2, 16, 50, sigma_class=0.45, domain_offset_scale=0.35,
                         seed=seed)
        cfg = TrainConfig(loss="gca-ince", epochs=20, batch_size=64, lr=0.05,
                          epsilon=0.5, seed=seed)
        rows = domain_alignment_experiment(alphas, 0.0, data, cfg)
        for r in rows:
            dom_acc[r["alpha"]].append(r["domain_acc"])
            cls_acc[r["alpha"]].append(r["class_acc"])
    med_dom = [float(np.median(dom_acc[a])) for a in alphas]
    med_cls = [float(np.median(cls_acc[a])) for a in alphas]
    assert all(b >= a - 1e-12 for a, b in zip(med_dom, med_dom[1:])), med_dom
    assert _spearman(alphas, med_dom) > 0.0
    assert med_cls[-1] >= med_cls[0] - 0.02, med_cls


def test_unbalanced_loss_is_not_slower_than_plan_divergence_loss():
    rng = np.random.default_rng(20)
    Z1, Z2 = unit_pair(rng, 256, 16)
    # warm-up so both paths are compiled and cached
    gca_uot_loss(Z1, Z2, epsilon=0.5)
    gca_ince_loss(Z1, Z2, epsilon=0.5, n_iters=5)

    # interleave the two loops so load drift hits both measurements alike
    t_uot, t_ince = [], []
    for _ in range(50):
        t0 = time.perf_counter()
        gca_uot_loss(Z1, Z2, epsilon=0.5)
        t1 = time.perf_counter()
        gca_ince_loss(Z1, Z2, epsilon=0.5, n_iters=5)
        t2 = time.perf_counter()
        t_uot.append(t1 - t0)
        t_ince.append(t2 - t1)
    m_uot = float(np.median(t_uot))
    m_ince = float(np.median(t_ince))
    assert m_uot <= m_ince, (m_uot, m_ince)
