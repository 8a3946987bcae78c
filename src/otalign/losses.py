"""Contrastive alignment losses and their transport-plan generalizations.

All losses take row-normalized embedding batches Z1, Z2 of shape (B, d)
and return a LossResult.  Gradients for the plan-based losses are taken
with the transport scalings held fixed (envelope gradient); each result
carries the frozen quantities needed to re-evaluate the loss at perturbed
embeddings, which is what the finite-difference checker uses.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from . import _backends
from ._backends import row_views
from .errors import OtalignError
from .kernel import check_epsilon, cosine_cost, cosine_kernel
from .plans import check_batch_size
from .solver import SolverError, SolverOptions, _gibbs_plan, check_kernel


class LossError(OtalignError):
    pass


@dataclass(frozen=True)
class LossResult:
    """Loss value, gradients for both batches, and what the loss measured.

    ``plan`` is the transport plan the loss compared against the target,
    or None for losses without one.  It is computed on first read from
    ``make_plan`` and then kept, so a caller that never reads it (training)
    never pays for a B x B plan the loss itself did not need.
    """

    value: float
    grad_z1: np.ndarray
    grad_z2: np.ndarray
    make_plan: Callable[[], np.ndarray] = None
    frozen: dict = None

    @cached_property
    def plan(self):
        return None if self.make_plan is None else self.make_plan()


def _check_batch(Z1, Z2):
    """Two float (B, d) batches of one shape, B >= 1, every entry finite;
    checked here in O(B d) so that no B x B pass meets a NaN or inf."""
    Z1 = np.asarray(Z1, dtype=np.float64)
    Z2 = np.asarray(Z2, dtype=np.float64)
    if Z1.ndim != 2 or Z1.shape != Z2.shape:
        raise LossError(f"embedding shapes differ: {Z1.shape} vs {Z2.shape}")
    if Z1.shape[0] == 0:
        raise LossError("empty batch: the embeddings have no rows")
    if not (np.isfinite(Z1).all() and np.isfinite(Z2).all()):
        raise LossError("non-finite embedding: a NaN or inf entry")
    return Z1, Z2


def _gca_batch(Z1, Z2, epsilon, target):
    """The gca-* prologue: (Z1, Z2, T, K, diag C, cost), T None for the
    identity target.  ``cost`` builds the cosine cost on its first call
    and returns it on later ones: the loop's first absorption and <T, C>
    share one build."""
    Z1, Z2 = _check_batch(Z1, Z2)
    B = Z1.shape[0]
    if target is None:
        check_batch_size(B)
        T = None
    else:
        T = np.asarray(target, dtype=np.float64)
        if T.shape != (B, B):
            raise LossError(f"target of shape {T.shape} does not fit a batch of {B}")
        if np.any(T < 0):
            raise LossError("target must be non-negative")
        if not np.isfinite(T).all():
            raise LossError("target must be finite: it has a NaN or inf entry")
    K, c_diag = cosine_kernel(Z1, Z2, epsilon)
    built = []

    def cost():
        if not built:
            built.append(cosine_cost(Z1, Z2))
        return built[0]

    return Z1, Z2, T, K, c_diag, cost


def _balanced_sweeps(K, cost, epsilon, n):
    """n balanced Sinkhorn iterations from v = 1 with unit marginals:
    (f, g, g_prev), g_prev being the column potential entering the last."""
    check_kernel(K)
    ones = np.ones(K.shape[0])
    f, g, g_prev, _, _, iters = _backends.sinkhorn_core(
        K, cost, ones, ones, epsilon, SolverOptions(max_iterations=n)
    )
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise SolverError(f"overflow despite absorption at iteration {iters}")
    return f, g, g_prev


def _join(parts):
    """The blocks of one array, joined; the one block itself if there is one."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _through_kernel(K, a, b, Z1, Z2):
    """P @ Z2 and P' @ Z1 for P = diag(a) K diag(b), without forming P.

    One read of K: each row block K_I gives its rows of P @ Z2 and adds
    its part of P' @ Z1 while it is still in cache.  ``a`` is the row
    scaling, or a function that maps a block's (first row, K_I b) to its
    rows of the scaling.  P' @ Z1 is taken as ((a Z1)' K)': the product
    runs on the short side instead of through the transpose of K."""
    rows = _backends.row_block(K.shape[0])
    bZ2 = b[:, None] * Z2
    PZ2, ZtP = [], None
    for s, KI, Z1I in row_views(rows, K, Z1):
        aI = (a(s, KI @ b) if callable(a) else a[s:s + KI.shape[0]])[:, None]
        PZ2.append(aI * (KI @ bZ2))
        if ZtP is None:
            ZtP = (aI * Z1I).T @ KI
        else:
            ZtP += (aI * Z1I).T @ KI
    return _join(PZ2), b[:, None] * ZtP.T


def _plan_kl(K, log_u, log_v, c_diag, epsilon, T, cost, Z1, Z2, ck, col=None,
             normalize=False):
    """KL(T || P) for P = diag(u) K diag(v) from its log scalings, with
    log P_ij = log u_i + log v_j - C_ij / eps, so P is never formed.

    ``col`` holds P's column sums if the caller has them; with ``normalize``
    the KL is to P with its columns rescaled to unit sums.  Returns (kl, grad_z1,
    grad_z2, pull, u) with grad_z1 = ck (P @ Z2 - T @ Z2), except that an
    identity target's -ck Z2 is left to the caller as the diagonal weight
    ``pull`` (0 for a dense target), and u = exp(log_u).
    """
    u = np.exp(log_u)
    v = np.exp(log_v)
    if col is None:
        col = v * (K.T @ u)
    B = K.shape[0]
    if T is None:
        c = np.ones(B) if normalize else None
        t_log_t = 0.0
        t_log_p = float((log_u + log_v).sum() - c_diag.sum() / epsilon)
        t_mass = float(B)
    else:
        c = T.sum(axis=0)
        t_log_t = float(np.sum(T * np.log(np.where(T > 0, T, 1.0))))
        t_log_p = float(T.sum(axis=1) @ log_u + c @ log_v - np.vdot(T, cost()) / epsilon)
        t_mass = float(c.sum())
    if normalize:
        kl = t_log_t - t_log_p + float(c @ np.log(col)) - t_mass + B
        v *= c / col  # its gradient weighs P's columns by c / col
    else:
        kl = t_log_t - t_log_p - t_mass + float(col.sum())
    grad_z1, grad_z2 = _through_kernel(K, ck * u, v, Z1, Z2)
    if T is None:
        return kl, grad_z1, grad_z2, ck, u
    grad_z1 -= ck * (T @ Z2)
    grad_z2 -= ck * (T.T @ Z1)
    return kl, grad_z1, grad_z2, 0.0, u


def _check_finite(value, grad_z1, grad_z2):
    """Raise LossError unless the value and both gradients are finite."""
    if not (np.isfinite(value) and np.all(np.isfinite(grad_z1)) and np.all(np.isfinite(grad_z2))):
        raise LossError("non-finite loss or gradient: raise epsilon")


def _check_rince(q, lam):
    """Raise LossError unless 0 < q <= 1 and lam >= 0; NaN fails both."""
    if not (0 < q <= 1):
        raise LossError("q must lie in (0, 1]")
    if not (lam >= 0):
        raise LossError(f"lam must be non-negative, got {lam}")


def kl_plan_divergence(target, P, floor=1e-300):
    """Generalized KL divergence sum t*log(t/p) - t + p between plans,
    with the 0*log0 = 0 convention."""
    target = np.asarray(target, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    if target.shape != P.shape:
        raise LossError("plan shapes differ")
    if np.any(target < 0) or np.any(P < 0):
        raise LossError("plans must be non-negative")
    mask = target > 0
    if np.any(mask & (P <= 0)):
        raise LossError("target puts mass where the plan is zero")
    term = np.zeros_like(target)
    term[mask] = target[mask] * (np.log(target[mask]) - np.log(np.maximum(P[mask], floor)))
    return float(term.sum() - target.sum() + P.sum())


def _softmax_pass(Z1, Z2, epsilon, row_weight, plan=None):
    """One pass over the row blocks of E = exp(S - m), S = Z1 Z2' / eps and
    m its row maxima; no B x B array outlives its block.

    Returns (lse, s_diag, G1, G2): lse = log(row sums of E) + m and S's
    diagonal as full-length vectors, G1 = diag(w) E Z2 and G2 = E' diag(w) Z1,
    w being row_weight(m_I, sums_I, lse_I) on each block I.  With ``plan``
    the pass writes the softmax rows E_I / sums_I into the plan's rows
    instead, and G1 and G2 are None.
    """
    check_epsilon(epsilon)
    rows = _backends.row_block(Z1.shape[0])
    lse, s_diag, G1, G2 = [], [], [], None
    for s, ZsI, Z1I in row_views(rows, Z1 * (1.0 / epsilon), Z1):
        E = ZsI @ Z2.T if plan is None else np.matmul(ZsI, Z2.T, out=plan[s:s + rows])
        s_diag.append(np.diagonal(E, s).copy())
        m = E.max(axis=1)
        E -= m[:, None]
        np.exp(E, out=E)
        sums = E.sum(axis=1)
        lse.append(np.log(sums) + m)
        if plan is not None:
            np.divide(E, sums[:, None], out=E)
            continue
        w = row_weight(m, sums, lse[-1])[:, None]
        g1 = E @ Z2
        g1 *= w
        G1.append(g1)
        # E_I' (w Z1_I) as ((w Z1_I)' E_I)', on the d x B side
        if G2 is None:
            G2 = (w * Z1I).T @ E
        else:
            G2 += (w * Z1I).T @ E
    return _join(lse), _join(s_diag), _join(G1) if G1 else None, None if G2 is None else G2.T


def ince_loss(Z1, Z2, epsilon=0.5):
    """Row-wise cross entropy against the matching index.

    sum_i [-s_ii + log sum_j exp(s_ij)] with s = Z1 Z2' / epsilon.
    """
    Z1, Z2 = _check_batch(Z1, Z2)
    # E = exp(s - m) stays unnormalized: the softmax P = diag(w) E,
    # w = 1 / rowsum, is applied on the B x d side
    lse, s_diag, grad_z1, grad_z2 = _softmax_pass(Z1, Z2, epsilon, lambda m, sums, lse: 1.0 / sums)
    value = float((lse - s_diag).sum())
    grad_z1 -= Z2
    grad_z1 /= epsilon
    grad_z2 -= Z1
    grad_z2 /= epsilon
    _check_finite(value, grad_z1, grad_z2)

    def make_plan():
        # the softmax rows exp(s - lse), from the same pass: ``plan`` calls this once
        P = np.empty((Z1.shape[0], Z1.shape[0]))
        _softmax_pass(Z1, Z2, epsilon, None, plan=P)
        return P

    return LossResult(value=value, grad_z1=grad_z1, grad_z2=grad_z2, make_plan=make_plan)


def gca_ince_loss(Z1, Z2, epsilon=0.5, n_iters=5, target=None, half_step=False,
                  frozen=None):
    """KL from a target coupling to the entropic plan of the batch.

    With ``half_step`` the plan after the final row update is used
    instead of the fully iterated one; at n_iters=1 that plan is
    row-stochastic and the identity-target value coincides with
    ince_loss.  ``frozen`` reuses previously computed dual potentials
    instead of solving, making the loss a plain function of the
    embeddings.  The plan is never formed (``_plan_kl``); ``plan`` on
    the result rebuilds it on first read.
    """
    Z1, Z2, T, K, c_diag, cost = _gca_batch(Z1, Z2, epsilon, target)
    if frozen is not None:
        f, g = frozen["f"], frozen["g"]
    else:
        f, g, g_prev = _balanced_sweeps(K, cost, epsilon, n_iters)
        if half_step:
            # half-step 2n-1, the final row update: f is final, g enters it
            g = g_prev
    # log u = (f - c)/eps, log v = (g + c)/eps; the gauge shift c keeps
    # both scalings in range, as in dual_objectives
    c = (np.max(f) - np.max(g)) / 2
    # ck = 1 and one division by eps at the end: 1/eps folded into the row
    # scale would move the gradients by up to 5e-13 of their largest entry
    # where attraction and repulsion cancel
    value, grad_z1, grad_z2, pull, _ = _plan_kl(
        K, (f - c) / epsilon, (g + c) / epsilon, c_diag, epsilon, T, cost, Z1, Z2, 1.0
    )
    if T is None:
        grad_z1 -= pull * Z2
        grad_z2 -= pull * Z1
    grad_z1 /= epsilon
    grad_z2 /= epsilon
    _check_finite(value, grad_z1, grad_z2)
    return LossResult(
        value=value,
        grad_z1=grad_z1,
        grad_z2=grad_z2,
        make_plan=lambda: _gibbs_plan(f, g, cosine_cost(Z1, Z2), epsilon),
        frozen={"f": f, "g": g},
    )


def rince_loss(Z1, Z2, epsilon=0.5, q=0.98, lam=0.01):
    """Robust InfoNCE: (1/q) sum_i [-e^{q s_ii} + (lam sum_j e^{s_ij})^q]."""
    Z1, Z2 = _check_batch(Z1, Z2)
    _check_rince(q, lam)
    # overflow at small epsilon is reported by the output check, not by
    # numpy's warnings on the way there
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # s_ii from the row dot products, not from the similarity's GEMM: the
        # rounding of the 1/eps folded there moves every s_ii the same way,
        # and sum_i e^{q s_ii}, unlike ince's lse_i - s_ii, does not cancel it
        s_diag = np.einsum("ij,ij->i", Z1, Z2)
        s_diag /= epsilon
        if lam > 0:
            # d(value)/d(s_ij) = r_i E_ij - pos_i [i == j], with the row
            # factor r = exp((q - 1) lse + m + q log lam) applied on the B x d side
            lse, _, grad_z1, grad_z2 = _softmax_pass(
                Z1, Z2, epsilon, lambda m, sums, lse: np.exp((q - 1.0) * lse + m + q * np.log(lam))
            )
            neg = np.exp(q * (lse + np.log(lam)))
        else:
            # the value and gradients need no similarity beyond s_ii
            check_epsilon(epsilon)
            neg = 0.0
            grad_z1 = grad_z2 = 0.0
        pos = np.exp(q * s_diag)
        value = float((neg - pos).sum() / q)
        grad_z1 = (grad_z1 - pos[:, None] * Z2) / epsilon
        grad_z2 = (grad_z2 - pos[:, None] * Z1) / epsilon
    _check_finite(value, grad_z1, grad_z2)
    return LossResult(value=value, grad_z1=grad_z1, grad_z2=grad_z2)


def rince_proximal_form(Z1, Z2, epsilon=0.5, q=0.98, lam=0.01):
    """Robust objective written on the half-step scaled kernel.

    Builds K, one row scaling u = 1/(K 1), and returns
    (1/q) sum_i [(lam / u_i)^q - (diag(u K)_i / u_i)^q].  Equals
    exp(-q/epsilon) times rince_loss of the same batch.
    """
    Z1, Z2 = _check_batch(Z1, Z2)
    _check_rince(q, lam)
    K, _ = cosine_kernel(Z1, Z2, epsilon)
    u = 1.0 / (K.sum(axis=1))
    pos = (u * np.diagonal(K) / u) ** q  # the diagonal of diag(u) K, over u
    neg = (lam / u) ** q if lam > 0 else np.zeros_like(pos)
    return float(np.sum(neg - pos) / q)


def gca_rince_loss(Z1, Z2, epsilon=0.5, q=0.98, lam=0.01, n_iters=5,
                   target=None, frozen=None):
    """Robust loss on the partially scaled kernel after n_iters sweeps.

    (1/q) sum_i [(lam t_ii / u_i)^q - (K_ii v_i)^q], where v is the
    column scaling entering the final sweep and u = 1/(K v) the row
    scaling leaving it.  Only the history v is frozen in the gradient;
    u is a function of the current kernel by definition, so the second
    term contributes the repulsive part.  One sweep with an identity
    target reduces to the proximal form.
    """
    _check_rince(q, lam)
    Z1, Z2, T, K, _, cost = _gca_batch(Z1, Z2, epsilon, target)
    if frozen is not None:
        v_prev = frozen["v_prev"]
    # n_iters is checked as gca-ince's sweeps check it
    elif _scaling_options(np.inf, np.inf, n_iters).max_iterations >= 2:
        _, g, _ = _balanced_sweeps(K, cost, epsilon, n_iters - 1)
        v_prev = np.exp(g / epsilon)
        if not np.all(np.isfinite(v_prev)):
            raise SolverError(f"overflow despite absorption at iteration {n_iters - 1}")
    else:
        v_prev = np.ones(K.shape[0])
    t_diag = None if T is None else np.diagonal(T)
    negs = []

    def row_scale(s, Kv):
        # a = neg / (K v), block by block, with neg = (lam t_ii K v)^q
        t = 1.0 if T is None else t_diag[s:s + Kv.shape[0]]
        negs.append((lam * t * Kv) ** q if lam > 0 else np.zeros_like(Kv))
        return negs[-1] / np.maximum(Kv, 1e-300)

    # -d(value)/dC = (a_i K_ij v_j - pos_i [i == j]) / eps: repulsion
    # through K v, attraction on the diagonal; one read of K gives K v and
    # both products
    PZ2, PtZ1 = _through_kernel(K, row_scale, v_prev, Z1, Z2)
    pos = (np.diagonal(K) * v_prev) ** q
    value = float((_join(negs) - pos).sum() / q)
    d = pos / epsilon
    grad_z1 = PZ2 / epsilon - d[:, None] * Z2
    grad_z2 = PtZ1 / epsilon - d[:, None] * Z1
    _check_finite(value, grad_z1, grad_z2)
    return LossResult(value=value, grad_z1=grad_z1, grad_z2=grad_z2,
                      frozen={"v_prev": v_prev})


@lru_cache(maxsize=64, typed=True)
def _scaling_options(lambda1, lambda2, n_iters):
    """The scaling options of a gca-* call, validated once per setting:
    they are frozen, so one object serves every call that shares them."""
    return SolverOptions(max_iterations=n_iters, lambda1=lambda1, lambda2=lambda2)


def gca_uot_loss(Z1, Z2, epsilon=0.5, lambda1=1.0, lambda2=1.0, q=0.98,
                 lam=0.01, weight=0.5, n_iters=5, target=None,
                 column_normalize=True, frozen=None):
    """Weighted mix of the robust diagonal term and a KL term on the
    unbalanced plan.

    weight * robust_term + (1 - weight) * KL(target || plan).  The robust
    term reuses the unbalanced scalings; with weight 1, a single sweep
    and large penalties it approaches the proximal form of the robust
    loss, and with weight 0 and large penalties it approaches the
    balanced KL loss.  The plan is never formed (``_plan_kl``); ``plan``
    on the result rebuilds it, columns rescaled to unit sums when
    ``column_normalize`` is set.
    """
    _check_rince(q, lam)
    if not (0.0 <= weight <= 1.0):
        raise LossError("weight must lie in [0, 1]")
    Z1, Z2, T, K, c_diag, cost = _gca_batch(Z1, Z2, epsilon, target)
    # an underflowing kernel or overflowing scalings are reported by the
    # output check below, not by numpy's warnings on the way there; ufuncs
    # that ignore every floating-point error also skip reading the flags
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if frozen is not None:
            log_u, log_v, log_v_prev = frozen["log_u"], frozen["log_v"], frozen["log_v_prev"]
            col = None
        else:
            ones = np.ones(K.shape[0])
            f, g, g_prev, col, _, _ = _backends.sinkhorn_core(
                K, cost, ones, ones, epsilon, _scaling_options(lambda1, lambda2, n_iters)
            )
            log_u, log_v, log_v_prev = f / epsilon, g / epsilon, g_prev / epsilon
        # the KL term enters -d(value)/dC as ck (P - T), ck = (1 - weight) / eps
        ck = (1.0 - weight) / epsilon
        kl, grad_z1, grad_z2, pull, u = _plan_kl(
            K, log_u, log_v, c_diag, epsilon, T, cost, Z1, Z2, ck, col, column_normalize
        )
        pos = np.power(K.diagonal() * np.exp(log_v_prev), q)
        t_diag = 1.0 if T is None else np.diagonal(T)
        neg = np.power(lam * t_diag / u, q) if lam > 0 else np.zeros_like(pos)
        robust = float((neg - pos).sum() / q)
        value = weight * robust + (1.0 - weight) * kl
        # the robust pull d = weight * pos / eps acts on the diagonal, with
        # an identity target's KL pull
        d = pos * (weight / epsilon)
        d += pull
        grad_z1 -= d[:, None] * Z2
        grad_z2 -= d[:, None] * Z1
    if not (np.isfinite(value) and np.isfinite(grad_z1).all() and np.isfinite(grad_z2).all()):
        raise SolverError(
            f"non-finite loss at epsilon={epsilon}: the kernel underflows or the scalings overflow"
        )

    def make_plan():
        P = _gibbs_plan(epsilon * log_u, epsilon * log_v, cosine_cost(Z1, Z2), epsilon)
        if column_normalize:
            P /= P.sum(axis=0)[None, :]
        return P

    return LossResult(
        value=value,
        grad_z1=grad_z1,
        grad_z2=grad_z2,
        make_plan=make_plan,
        frozen={"log_u": log_u, "log_v": log_v, "log_v_prev": log_v_prev},
    )


def byol_loss(Q, Z2):
    """Summed squared distance between predictions and targets.

    The target branch is constant: grad_z2 is identically zero.
    """
    Q, Z2 = _check_batch(Q, Z2)
    d = Q - Z2
    return LossResult(
        value=float(np.sum(d * d)),
        grad_z1=2.0 * d,
        grad_z2=np.zeros_like(Z2),
    )


LOSS_FUNCTIONS = {
    "ince": ince_loss,
    "gca-ince": gca_ince_loss,
    "rince": rince_loss,
    "gca-rince": gca_rince_loss,
    "gca-uot": gca_uot_loss,
    "byol": byol_loss,
}

# losses that stop the gradient on the second argument by contract
_STOP_GRAD_Z2 = {"byol"}


def loss_grad_check(loss_id, Z1, Z2, config=None, h=1e-6):
    """Central finite differences of a loss against its analytic grads.

    For a loss that returns frozen scalings (the gca-* losses) the
    perturbed evaluations reuse the ones captured at the base point,
    matching the fixed-scaling gradient contract.  Returns the max
    relative error over both arguments, measured as max absolute
    deviation over max absolute numeric entry.
    """
    if loss_id not in LOSS_FUNCTIONS:
        raise LossError(f"unknown loss: {loss_id}")
    fn = LOSS_FUNCTIONS[loss_id]
    cfg = dict(config or {})
    Z1 = np.asarray(Z1, dtype=np.float64)
    Z2 = np.asarray(Z2, dtype=np.float64)
    base = fn(Z1, Z2, **cfg)
    if base.frozen is not None:
        cfg["frozen"] = base.frozen
    errs = []
    grads = [(0, base.grad_z1), (1, base.grad_z2)]
    if loss_id in _STOP_GRAD_Z2:
        grads = grads[:1]
    for arg, grad in grads:
        num = np.zeros_like(grad)
        Z = (Z1, Z2)[arg].copy()
        for idx in np.ndindex(Z.shape):
            orig = Z[idx]
            Z[idx] = orig + h
            hi = fn(Z, Z2, **cfg).value if arg == 0 else fn(Z1, Z, **cfg).value
            Z[idx] = orig - h
            lo = fn(Z, Z2, **cfg).value if arg == 0 else fn(Z1, Z, **cfg).value
            Z[idx] = orig
            num[idx] = (hi - lo) / (2.0 * h)
        scale = max(float(np.max(np.abs(num))), 1e-12)
        errs.append(float(np.max(np.abs(grad - num))) / scale)
    return max(errs)
