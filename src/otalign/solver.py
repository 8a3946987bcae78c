"""Balanced entropic OT: Bregman projections, stabilized Sinkhorn, diagnostics."""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _backends
from .kernel import GibbsKernel

DUAL_BLOCK_ELEMENTS = 1 << 16  # float64 entries per block in dual_objective
DUAL_CHUNK_ROWS = 8  # half-steps per product with K in dual_objectives


class SolverError(Exception):
    pass


@dataclass(frozen=True)
class Marginals:
    mu: np.ndarray
    nu: np.ndarray


def default_marginals(B):
    """Each sample carries mass 1, total mass B."""
    return Marginals(mu=np.ones(B), nu=np.ones(B))


def check_iteration_count(n):
    """Raise SolverError unless n is an integer (a bool is not one)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise SolverError(f"iteration count must be an integer, got {n!r}")


def check_marginals(shape, mu, nu):
    """Raise SolverError unless mu and nu are vectors sized to the kernel's
    sides with positive, finite entries."""
    if mu.shape != (shape[0],) or nu.shape != (shape[1],):
        raise SolverError(
            f"marginals of sizes {mu.shape} and {nu.shape} do not fit a {shape[0]}x{shape[1]} kernel"
        )
    # NaN fails both comparisons
    if not (np.all((mu > 0) & (mu < np.inf)) and np.all((nu > 0) & (nu < np.inf))):
        raise SolverError("marginal entries must be positive and finite")


def check_square(shape):
    """Raise SolverError unless the kernel is square: the scaling loops
    keep one vector length for both sides."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise SolverError(f"the scaling loops need a square kernel, got shape {shape}")


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 5
    tolerance: float = 1e-6
    absorption_threshold: float = 1e3
    floor: float = 1e-30
    mode: str = "fixed"  # "fixed" | "tolerance"

    def __post_init__(self):
        check_iteration_count(self.max_iterations)
        if self.max_iterations <= 0 or self.tolerance <= 0:
            raise SolverError("iteration count and tolerance must be positive")
        if self.absorption_threshold <= 0 or self.floor <= 0:
            raise SolverError("absorption threshold and floor must be positive")
        if self.mode not in ("fixed", "tolerance"):
            raise SolverError(f"unknown mode: {self.mode}")


@dataclass(frozen=True)
class ScalingState:
    u: np.ndarray
    v: np.ndarray
    f: np.ndarray
    g: np.ndarray
    iterations: int


@dataclass(frozen=True)
class TransportPlan:
    matrix: np.ndarray
    epsilon: float
    converged: bool
    row_residual: float
    col_residual: float


def _gibbs_plan(f, g, C, epsilon):
    """exp((f_i + g_j - C_ij) / epsilon), computed in one B x B buffer."""
    P = f[:, None] + g[None, :]
    P -= C
    P /= epsilon
    return np.exp(P, out=P)


@dataclass(frozen=True)
class Trajectory:
    """Per-half-step total dual potentials and L1 marginal residuals.

    Half-step h (1-based) is a row update for odd h and a column update
    for even h; ``plan_at`` rebuilds the plan at any half-step.
    """

    f: np.ndarray  # (n_half, B)
    g: np.ndarray
    row_err: np.ndarray
    col_err: np.ndarray
    cost: np.ndarray = field(repr=False)
    epsilon: float = 1.0

    @property
    def n_half(self):
        return self.f.shape[0]

    def plan_at(self, half_step):
        fh = self.f[half_step - 1]
        gh = self.g[half_step - 1]
        return _gibbs_plan(fh, gh, self.cost, self.epsilon)


def _as_matrix(P):
    if isinstance(P, GibbsKernel):
        return P.matrix
    if isinstance(P, TransportPlan):
        return P.matrix
    return np.asarray(P, dtype=np.float64)


def project_rows(P, mu):
    """KL projection onto the row-marginal set: diag(mu / (P @ 1)) @ P."""
    P = _as_matrix(P)
    sums = P.sum(axis=1)
    if np.any(sums <= 0):
        raise SolverError("zero row sum in projection")
    return (np.asarray(mu) / sums)[:, None] * P


def project_cols(P, nu):
    P = _as_matrix(P)
    sums = P.sum(axis=0)
    if np.any(sums <= 0):
        raise SolverError("zero column sum in projection")
    return P * (np.asarray(nu) / sums)[None, :]


def check_kernel(Km):
    """Raise SolverError unless every kernel entry is positive and finite."""
    if not (np.min(Km) > 0 and np.max(Km) < np.inf):
        raise SolverError("kernel must be strictly positive and finite")


def sinkhorn(K: GibbsKernel, marginals=None, opts=None):
    """Alternating row/column scalings of K with log-domain absorption.

    Returns (TransportPlan, ScalingState, Trajectory).  One iteration is a
    row update followed by a column update; the trajectory records both
    half-steps.
    """
    if not isinstance(K, GibbsKernel):
        raise SolverError("sinkhorn expects a GibbsKernel")
    Km = K.matrix
    check_kernel(Km)
    check_square(Km.shape)
    B = Km.shape[0]
    if marginals is None:
        marginals = default_marginals(B)
    opts = opts or SolverOptions()
    mu = np.asarray(marginals.mu, dtype=np.float64)
    nu = np.asarray(marginals.nu, dtype=np.float64)
    check_marginals(Km.shape, mu, nu)
    Km = np.ascontiguousarray(Km)
    f, g, _, _, (F, G, row_err, col_err), iters = _backends.sinkhorn_core(
        Km,
        np.ascontiguousarray(K.cost),
        mu,
        nu,
        K.epsilon,
        opts.max_iterations,
        opts.absorption_threshold,
        opts.floor,
        tol=opts.tolerance if opts.mode == "tolerance" else None,
        record=True,
    )
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise SolverError(f"overflow despite absorption at iteration {iters}")
    traj = Trajectory(f=F, g=G, row_err=row_err, col_err=col_err, cost=K.cost, epsilon=K.epsilon)
    P = _gibbs_plan(f, g, K.cost, K.epsilon)
    rr, cr = marginal_error(P, marginals)
    state = ScalingState(
        u=np.exp(f / K.epsilon), v=np.exp(g / K.epsilon), f=f, g=g, iterations=int(iters)
    )
    plan = TransportPlan(
        matrix=P,
        epsilon=K.epsilon,
        converged=bool(max(rr, cr) <= opts.tolerance),
        row_residual=rr,
        col_residual=cr,
    )
    return plan, state, traj


def hilbert_metric(u, u_star):
    """Projective distance log max_{i,j} (u_i u*_j) / (u_j u*_i)."""
    u = np.asarray(u, dtype=np.float64)
    u_star = np.asarray(u_star, dtype=np.float64)
    if np.any(u <= 0) or np.any(u_star <= 0):
        raise SolverError("hilbert_metric requires strictly positive vectors")
    r = np.log(u) - np.log(u_star)
    return float(np.max(r) - np.min(r))


def marginal_error(P, marginals):
    P = _as_matrix(P)
    mu = np.asarray(marginals.mu)
    nu = np.asarray(marginals.nu)
    if P.shape != (mu.size, nu.size):
        raise SolverError(f"shape mismatch: plan {P.shape}, marginals {mu.size}x{nu.size}")
    return (
        float(np.sum(np.abs(P.sum(axis=1) - mu))),
        float(np.sum(np.abs(P.sum(axis=0) - nu))),
    )


def dual_objective(f, g, C, epsilon, marginals):
    """Discrete EOT dual E[f + g - eps*e^{(f+g-C)/eps}] + eps.

    The expectation is over the product of the marginals normalized to
    probability vectors.
    """
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    mu = np.asarray(marginals.mu, dtype=np.float64)
    nu = np.asarray(marginals.nu, dtype=np.float64)
    if C.shape != (f.size, g.size) or mu.size != f.size or nu.size != g.size:
        raise SolverError("dual_objective shape mismatch")
    mh = mu / mu.sum()
    nh = nu / nu.sum()
    lin = float(f @ mh + g @ nh)
    # row blocks of about 512 KiB instead of one B x B temporary per call:
    # the CLI evaluates this at every half-step of a solve
    rows = max(1, DUAL_BLOCK_ELEMENTS // max(g.size, 1))
    expected = 0.0
    for s in range(0, f.size, rows):
        blk = slice(s, s + rows)
        expected += float(mh[blk] @ _gibbs_plan(f[blk], g, C[blk], epsilon) @ nh)
    return lin - epsilon * expected + epsilon


def dual_objectives(F, G, K: GibbsKernel, marginals):
    """``dual_objective`` of every row pair (F[h], G[h]) through products with K.

    exp((f_i + g_j - C_ij)/eps) = e^{f_i/eps} K_ij e^{g_j/eps}, so the
    expectation is (mu^ e^{(f-c)/eps})' K (nu^ e^{(g+c)/eps}) for any shift c.
    With c = (max f - max g)/2 neither factor overflows on potentials whose
    plan entries are bounded, as every Sinkhorn half-step's are, once K > 0.
    Rows go through K in chunks of DUAL_CHUNK_ROWS: no B x B temporary and
    no B x B exp.
    """
    F = np.asarray(F, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    Km = K.matrix
    eps = K.epsilon
    mu = np.asarray(marginals.mu, dtype=np.float64)
    nu = np.asarray(marginals.nu, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != Km.shape[0] or G.shape != (F.shape[0], Km.shape[1]):
        raise SolverError("dual_objectives shape mismatch")
    check_marginals(Km.shape, mu, nu)
    mh = mu / mu.sum()
    nh = nu / nu.sum()
    out = F @ mh + G @ nh + eps
    for s in range(0, F.shape[0], DUAL_CHUNK_ROWS):
        Fc = F[s:s + DUAL_CHUNK_ROWS]
        Gc = G[s:s + DUAL_CHUNK_ROWS]
        c = (Fc.max(axis=1) - Gc.max(axis=1))[:, None] / 2
        a = Fc - c
        a /= eps
        np.exp(a, out=a)
        a *= mh
        b = Gc + c
        b /= eps
        np.exp(b, out=b)
        b *= nh
        aK = a @ Km
        aK *= b
        out[s:s + DUAL_CHUNK_ROWS] -= eps * aK.sum(axis=1)
    return out
