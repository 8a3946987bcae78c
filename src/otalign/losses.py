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
from .kernel import cosine_cost, cosine_kernel
from .plans import check_batch_size
from .solver import SolverError, SolverOptions, _gibbs_plan, check_kernel
from .uot import UotOptions, _solve_scalings, generalized_kl


class LossError(Exception):
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
    Z1 = np.asarray(Z1, dtype=np.float64)
    Z2 = np.asarray(Z2, dtype=np.float64)
    if Z1.ndim != 2 or Z1.shape != Z2.shape:
        raise LossError(f"embedding shapes differ: {Z1.shape} vs {Z2.shape}")
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
    opts = SolverOptions(max_iterations=n)
    ones = np.ones(K.shape[0])
    f, g, g_prev, _, _, iters = _backends.sinkhorn_core(
        K, cost, ones, ones, epsilon,
        opts.max_iterations, opts.absorption_threshold, opts.floor,
    )
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise SolverError(f"overflow despite absorption at iteration {iters}")
    return f, g, g_prev


def _through_kernel(K, a, b, Z1, Z2):
    """P @ Z2 and P' @ Z1 for P = diag(a) K diag(b), without forming P."""
    return a[:, None] * (K @ (b[:, None] * Z2)), b[:, None] * (K.T @ (a[:, None] * Z1))


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
        raise LossError(
            "non-finite loss or gradient: check the embeddings for NaN or inf, "
            "or raise epsilon"
        )


def _check_rince(q, lam):
    if not (0 < q <= 1):
        raise LossError("q must lie in (0, 1]")
    if lam < 0:
        raise LossError("lam must be non-negative")


def kl_plan_divergence(target, P, floor=1e-300):
    """Generalized KL divergence sum t*log(t/p) - t + p between plans."""
    target = np.asarray(target, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    if target.shape != P.shape:
        raise LossError("plan shapes differ")
    if np.any(target < 0) or np.any(P < 0):
        raise LossError("plans must be non-negative")
    if np.any((target > 0) & (P <= 0)):
        raise LossError("target puts mass where the plan is zero")
    return generalized_kl(target, P, floor)


def ince_loss(Z1, Z2, epsilon=0.5):
    """Row-wise cross entropy against the matching index.

    sum_i [-s_ii + log sum_j exp(s_ij)] with s = Z1 Z2' / epsilon.
    """
    Z1, Z2 = _check_batch(Z1, Z2)
    # one B x B buffer: s, then exp(s - m), then the softmax rows
    P = Z1 @ Z2.T
    P /= epsilon
    s_diag = np.diagonal(P).copy()
    m = P.max(axis=1)
    P -= m[:, None]
    np.exp(P, out=P)
    sums = P.sum(axis=1)
    lse = np.log(sums) + m
    value = float(np.sum(lse - s_diag))
    P /= sums[:, None]  # softmax rows: exp(s - lse)
    grad_z1 = (P @ Z2 - Z2) / epsilon
    grad_z2 = (P.T @ Z1 - Z1) / epsilon
    _check_finite(value, grad_z1, grad_z2)
    return LossResult(value=value, grad_z1=grad_z1, grad_z2=grad_z2, make_plan=lambda: P)


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
        # one B x B buffer: s, then exp(s - m), then c = d(value)/ds
        c = Z1 @ Z2.T
        c /= epsilon
        s_diag = np.diagonal(c).copy()
        m = c.max(axis=1)
        c -= m[:, None]
        np.exp(c, out=c)
        lse = np.log(c.sum(axis=1)) + m
        pos = np.exp(q * s_diag)
        if lam > 0:
            neg = np.exp(q * (lse + np.log(lam)))
            # c_ij = d(value)/d(s_ij) = exp((q - 1) lse_i + s_ij + q log lam)
            c *= np.exp((q - 1.0) * lse + m + q * np.log(lam))[:, None]
        else:
            neg = np.zeros_like(pos)
            c.fill(0.0)
        c[np.diag_indices_from(c)] -= pos
        value = float(np.sum(neg - pos) / q)
        grad_z1 = c @ Z2 / epsilon
        grad_z2 = c.T @ Z1 / epsilon
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
    elif n_iters >= 2:
        _, g, _ = _balanced_sweeps(K, cost, epsilon, n_iters - 1)
        v_prev = np.exp(g / epsilon)
        if not np.all(np.isfinite(v_prev)):
            raise SolverError(f"overflow despite absorption at iteration {n_iters - 1}")
    else:
        v_prev = np.ones(K.shape[0])
    Kv = K @ v_prev
    pos = (np.diagonal(K) * v_prev) ** q
    t_diag = 1.0 if T is None else np.diagonal(T)
    neg = (lam * t_diag * Kv) ** q if lam > 0 else np.zeros_like(pos)
    value = float(np.sum(neg - pos) / q)
    # -d(value)/dC = (a_i K_ij v_j - pos_i [i == j]) / eps with a = neg / (K v):
    # repulsion through K v, attraction on the diagonal
    PZ2, PtZ1 = _through_kernel(K, neg / np.maximum(Kv, 1e-300), v_prev, Z1, Z2)
    d = pos / epsilon
    grad_z1 = PZ2 / epsilon - d[:, None] * Z2
    grad_z2 = PtZ1 / epsilon - d[:, None] * Z1
    _check_finite(value, grad_z1, grad_z2)
    return LossResult(value=value, grad_z1=grad_z1, grad_z2=grad_z2,
                      frozen={"v_prev": v_prev})


@lru_cache(maxsize=64, typed=True)
def _uot_options(lambda1, lambda2, epsilon, n_iters):
    """The scaling options of a gca-uot call, validated once per setting:
    they are frozen, so one object serves every call that shares them."""
    return UotOptions(lambda1=lambda1, lambda2=lambda2, epsilon=epsilon, iterations=n_iters,
                      column_normalize=False)


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
            log_u, log_v, log_v_prev, col, _ = _solve_scalings(
                K, cost, epsilon, ones, ones, _uot_options(lambda1, lambda2, epsilon, n_iters)
            )
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

# losses whose gradients hold inner scalings fixed; the checker reuses
# the scalings captured at the base point
_FROZEN = {"gca-ince", "gca-rince", "gca-uot"}
# losses that stop the gradient on the second argument by contract
_STOP_GRAD_Z2 = {"byol"}


def loss_grad_check(loss_id, Z1, Z2, config=None, h=1e-6):
    """Central finite differences of a loss against its analytic grads.

    For the plan-based losses the perturbed evaluations reuse the
    scalings captured at the base point, matching the fixed-scaling
    gradient contract.  Returns the max relative error over both
    arguments, measured as max absolute deviation over max absolute
    numeric entry.
    """
    if loss_id not in LOSS_FUNCTIONS:
        raise LossError(f"unknown loss: {loss_id}")
    fn = LOSS_FUNCTIONS[loss_id]
    cfg = dict(config or {})
    Z1 = np.asarray(Z1, dtype=np.float64)
    Z2 = np.asarray(Z2, dtype=np.float64)
    base = fn(Z1, Z2, **cfg)
    if loss_id in _FROZEN:
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
