"""Textbook dense formulas for the kernel and the InfoNCE losses, with
their rounding-error bounds; for the three gca-* losses, which compute
their value and gradients through K and the scalings without forming the
plan or d(loss)/dC; and for two transport objectives: ``dual_objective``,
the entropic OT dual that ``solver.dual_objectives`` evaluates through
products with K, and ``uot_objective``, the unbalanced objective whose
minimizer an unbalanced ``sinkhorn`` solve approaches.

Each formula is written as it reads, with fresh B x B arrays, and runs in
any float dtype: in float64 it is the formula the library's fused code is
compared with, and in ``np.longdouble`` (64-bit significand on x86-64) it
is the arbiter that both float64 evaluations are measured against.

The bounds are first-order forward-error bounds from the operation count,
for rows of unit norm, so that |<z1_i, z2_j>| <= sum_k |z1_ik z2_jk| <= 1.
With unit roundoff u and gamma_n = n u:

- a similarity s_ij = <z1_i, z2_j> / eps is off by at most
  (d + 5) u / eps however it is rounded: gamma_d for the inner product, u
  for 1/eps, u for scaling Z1 by it or for dividing by eps, and 2u / eps
  for the shift by 1 (kernel) or by M = max |z1_i| max |z2_j| / eps or
  the row maximum (losses), each |s_ij - 1/eps|, |s_ij - M| and
  |s_ij - m_i| being at most 2 / eps;
- exp and log add at most 2u relative and u of their result;
- a sum of B non-negative terms, and each entry of a product with B terms,
  adds gamma_B relative to the sum of the absolute terms.

Two float64 evaluations of the same quantity differ by at most the sum of
their bounds; both use the bound below, so tests allow twice it.
"""

import numpy as np

from otalign.kernel import cosine_cost, gibbs_kernel
from otalign.losses import kl_plan_divergence
from otalign.solver import SolverOptions, sinkhorn

U = np.finfo(np.float64).eps / 2


def similarity_error(d, eps):
    """Bound on the error of one s_ij = <z1_i, z2_j> / eps, or of the
    kernel's exponent -C_ij / eps."""
    return (d + 5) * U / eps


def kernel(Z1, Z2, eps):
    """exp(-clip(1 - Z1 Z2', 0, 2) / eps) and the cost's diagonal."""
    C = np.clip(1 - Z1 @ Z2.T, 0, 2)
    return np.exp(-C / eps), np.diagonal(C).copy()


def kernel_error(d, eps):
    """Relative bound on one kernel entry: the exponent's error, then exp."""
    return similarity_error(d, eps) + 2 * U


def _softmax_rows(Z1, Z2, eps):
    s = (Z1 @ Z2.T) / eps
    m = s.max(axis=1)
    e = np.exp(s - m[:, None])
    lse = np.log(e.sum(axis=1)) + m
    return s, m, e, lse


def ince(Z1, Z2, eps):
    """(value, grad_z1, grad_z2) of sum_i [lse_i(s) - s_ii]."""
    s, m, e, lse = _softmax_rows(Z1, Z2, eps)
    P = e / e.sum(axis=1)[:, None]
    value = np.sum(lse - np.diagonal(s))
    return value, (P @ Z2 - Z2) / eps, (P.T @ Z1 - Z1) / eps


def rince(Z1, Z2, eps, q, lam):
    """(value, grad_z1, grad_z2) of (1/q) sum_i [(lam e^{lse_i})^q - e^{q s_ii}]."""
    s, m, e, lse = _softmax_rows(Z1, Z2, eps)
    pos = np.exp(q * np.diagonal(s))
    if lam > 0:
        log_lam = np.log(np.asarray(lam, dtype=s.dtype))
        neg = np.exp(q * (lse + log_lam))
        c = e * np.exp((q - 1) * lse + m + q * log_lam)[:, None]
    else:
        neg = np.zeros_like(pos)
        c = np.zeros_like(s)
    c[np.diag_indices_from(c)] -= pos
    return np.sum(neg - pos) / q, c @ Z2 / eps, c.T @ Z1 / eps


def rince_proximal_form(Z1, Z2, eps, q, lam):
    K, _ = kernel(Z1, Z2, eps)
    u = 1 / K.sum(axis=1)
    pos = (np.diagonal(u[:, None] * K) / u) ** q
    neg = (lam / u) ** q if lam > 0 else np.zeros_like(pos)
    return np.sum(neg - pos) / q


def _row_terms(Z1, Z2, eps):
    """What the bounds of both losses share, from float64 inputs: the
    softmax P, lse, m, s_ii, and the error bounds of E = exp(s - m), of P
    and of lse."""
    B, d = Z1.shape
    s, m, e, lse = _softmax_rows(Z1, Z2, eps)
    sig = similarity_error(d, eps)
    rel_e = 2 * sig + 2 * U
    rel_p = rel_e + (B + 2) * U
    err_lse = sig + rel_e + (B + 2) * U + U * (np.abs(lse - m) + np.abs(lse))
    return e / e.sum(axis=1)[:, None], lse, m, np.diagonal(s).copy(), sig, rel_p, err_lse


def ince_error(Z1, Z2, eps):
    """Bounds (on the value, elementwise on grad_z1 and grad_z2) for one
    float64 evaluation of ince."""
    B = Z1.shape[0]
    P, lse, _, s_diag, sig, rel_p, err_lse = _row_terms(Z1, Z2, eps)
    term = lse - s_diag
    value = np.sum(err_lse + sig + U * np.abs(term)) + B * U * np.sum(np.abs(term))
    rel = rel_p + (B + 4) * U
    g1 = (rel * (P @ np.abs(Z2)) + 2 * U * np.abs(Z2)) / eps
    g2 = (rel * (P.T @ np.abs(Z1)) + 2 * U * np.abs(Z1)) / eps
    return value, g1, g2


def rince_error(Z1, Z2, eps, q, lam):
    """The same bounds for one float64 evaluation of rince: neg_i = (lam
    e^{lse_i})^q, pos_i = e^{q s_ii}, and d(value)/d(s_ij) = neg_i P_ij -
    pos_i [i == j]."""
    B = Z1.shape[0]
    P, lse, m, s_diag, sig, rel_p, err_lse = _row_terms(Z1, Z2, eps)
    pos = np.exp(q * s_diag)
    rel_pos = q * (sig + 2 * U * np.abs(s_diag)) + 3 * U
    if lam > 0:
        neg = np.exp(q * (lse + np.log(lam)))
        big = np.abs(lse) + np.abs(m) + abs(np.log(lam))
        rel_neg = q * (err_lse + 2 * U * big) + 3 * U
        # the row factor of d(value)/ds: its argument, then exp and E
        rel_c = rel_neg + err_lse + sig + rel_p + 4 * U * big + 4 * U
    else:
        neg = rel_neg = rel_c = np.zeros(B)
    value = (np.sum(rel_neg * neg + rel_pos * pos) + (B + 2) * U * np.sum(neg + pos)) / q
    w = ((rel_c + (B + 3) * U) * neg)[:, None]
    side = ((rel_pos + 3 * U) * pos)[:, None]
    g1 = ((w * P) @ np.abs(Z2) + side * np.abs(Z2)) / eps
    g2 = ((w * P).T @ np.abs(Z1) + side * np.abs(Z1)) / eps
    return value, g1, g2


def rince_proximal_form_error(Z1, Z2, eps, q, lam):
    """Bound on one float64 evaluation of the proximal form: each kernel
    entry within kernel_error, then the row sums, 1/u and the powers."""
    B, d = Z1.shape
    K, _ = kernel(Z1, Z2, eps)
    kb = kernel_error(d, eps)
    pos = np.diagonal(K) ** q
    rel_pos = q * (kb + 2 * U) + 3 * U
    if lam > 0:
        neg = (lam * K.sum(axis=1)) ** q
        rel_neg = q * (kb + (B + 3) * U) + 3 * U
    else:
        neg = rel_neg = 0.0
    return (np.sum(rel_neg * neg + rel_pos * pos) + (B + 2) * U * np.sum(neg + pos)) / q


def gca_ince(Z1, Z2, eps, target, n_iters=5, half_step=False, frozen=None):
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


def gca_rince(Z1, Z2, eps, q, lam, target, v_prev):
    tgt = np.eye(len(Z1)) if target is None else target
    K = np.exp(-cosine_cost(Z1, Z2) / eps)
    Kv = K @ v_prev
    pos = (np.diag(K) * v_prev) ** q
    neg = (lam * np.diag(tgt) * Kv) ** q if lam > 0 else np.zeros_like(pos)
    dLdC = -(neg / np.maximum(Kv, 1e-300))[:, None] * (K * v_prev[None, :]) / eps
    dLdC[np.diag_indices_from(dLdC)] += pos / eps
    return float(np.sum(neg - pos) / q), -dLdC @ Z2, -dLdC.T @ Z1


def gca_uot(Z1, Z2, eps, q, lam, weight, target, column_normalize,
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


def dual_objective(f, g, C, eps, marginals):
    """E[f + g - eps e^{(f+g-C)/eps}] + eps, the expectation over the
    product of the marginals normalized to probability vectors."""
    mh = marginals.mu / marginals.mu.sum()
    nh = marginals.nu / marginals.nu.sum()
    plan = np.exp((f[:, None] + g[None, :] - C) / eps)
    return f @ mh + g @ nh - eps * (mh @ plan @ nh) + eps


def uot_objective(P, C, eps, marginals, lambda1, lambda2):
    """<P, C> + lambda1 KL(P 1 | mu) + lambda2 KL(P' 1 | nu) + eps sum P log P
    for a positive plan P, with KL(a | b) = sum a log(a / b) - a + b."""

    def kl(a, b):
        return np.sum(a * np.log(a / b) - a + b)

    return (np.sum(P * C) + lambda1 * kl(P.sum(axis=1), marginals.mu)
            + lambda2 * kl(P.sum(axis=0), marginals.nu) + eps * np.sum(P * np.log(P)))


def long_double(*arrays):
    return [np.asarray(a, dtype=np.longdouble) for a in arrays]


def relative_errors(got, want):
    """Errors of (value, grad_z1, grad_z2) against a reference: |dv| / |v|
    and max |dg| / max |g|, in float64."""
    value, g1, g2 = (np.asarray(x, dtype=np.longdouble) for x in got)
    v0, h1, h2 = want
    out = [float(abs(value - v0) / abs(v0))]
    for g, h in ((g1, h1), (g2, h2)):
        out.append(float(np.max(np.abs(g - h)) / np.max(np.abs(h))))
    return out
