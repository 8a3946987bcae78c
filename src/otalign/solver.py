"""Entropic OT, balanced and unbalanced: one stabilized scaling solve and
its diagnostics.

``sinkhorn`` serves both kinds of solve.  ``SolverOptions.lambda1`` and
``lambda2`` are the KL penalties on the row and column marginals; at their
default, infinity, the marginals are constraints and the solve is balanced
Sinkhorn, its lambda -> inf limit.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _backends
from .errors import OtalignError
from .kernel import GibbsKernel

DUAL_CHUNK_ROWS = 8  # half-steps per product with K in dual_objectives


class SolverError(OtalignError):
    pass


@dataclass(frozen=True)
class Marginals:
    mu: np.ndarray
    nu: np.ndarray


def default_marginals(B):
    """Each sample carries mass 1, total mass B."""
    return Marginals(mu=np.ones(B), nu=np.ones(B))


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


@dataclass(frozen=True)
class SolverOptions:
    """The options of one scaling solve.

    ``lambda1`` and ``lambda2`` are the marginal penalties (infinite: a
    balanced solve); ``column_normalize`` rescales the returned plan's
    columns to nu exactly.  Every check is written so that NaN fails it.
    """

    max_iterations: int = 5
    tolerance: float = 1e-6
    absorption_threshold: float = 1e3
    floor: float = 1e-30
    mode: str = "fixed"  # "fixed" | "tolerance"
    lambda1: float = np.inf
    lambda2: float = np.inf
    column_normalize: bool = False

    def __post_init__(self):
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise SolverError(f"iteration count must be an integer, got {n!r}")
        if not (n > 0 and self.tolerance > 0):
            raise SolverError("iteration count and tolerance must be positive")
        if not (self.absorption_threshold > 0 and self.floor > 0):
            raise SolverError("absorption threshold and floor must be positive")
        if not (self.lambda1 >= 0 and self.lambda2 >= 0):
            raise SolverError("marginal penalties must be non-negative")
        if self.mode not in ("fixed", "tolerance"):
            raise SolverError(f"unknown mode: {self.mode}")


@dataclass(frozen=True)
class ScalingState:
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


def check_kernel(Km):
    """Raise SolverError unless every kernel entry is positive and finite."""
    if not (np.min(Km) > 0 and np.max(Km) < np.inf):
        raise SolverError("kernel must be strictly positive and finite")


def sinkhorn(K: GibbsKernel, marginals=None, opts=None):
    """Alternating row/column scalings of K with log-domain absorption.

    Returns (TransportPlan, ScalingState, Trajectory).  One iteration is a
    row update followed by a column update; the trajectory records both
    half-steps.  With finite penalties the updates are the KL-relaxed
    ones, with exponents lambda/(lambda+eps); lambda = 0 leaves the
    scalings at one.  With ``column_normalize`` the returned plan has its
    columns rescaled to match nu exactly; the potentials and the
    trajectory are reported before that normalization.  Only a balanced
    solve checks the kernel up front; any solve raises SolverError if its
    potentials are not finite.
    """
    if not isinstance(K, GibbsKernel):
        raise SolverError("sinkhorn expects a GibbsKernel")
    opts = opts or SolverOptions()
    Km = K.matrix
    if opts.lambda1 == np.inf and opts.lambda2 == np.inf:
        check_kernel(Km)
    # the scaling loop keeps one vector length for both sides
    if Km.ndim != 2 or Km.shape[0] != Km.shape[1]:
        raise SolverError(f"the scaling loops need a square kernel, got shape {Km.shape}")
    if marginals is None:
        marginals = default_marginals(Km.shape[0])
    mu = np.asarray(marginals.mu, dtype=np.float64)
    nu = np.asarray(marginals.nu, dtype=np.float64)
    check_marginals(Km.shape, mu, nu)
    f, g, _, _, (F, G, row_err, col_err), iters = _backends.sinkhorn_core(
        np.ascontiguousarray(Km), np.ascontiguousarray(K.cost), mu, nu, K.epsilon, opts,
        record=True,
    )
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise SolverError(f"overflow despite absorption at iteration {iters}")
    traj = Trajectory(f=F, g=G, row_err=row_err, col_err=col_err, cost=K.cost, epsilon=K.epsilon)
    P = _gibbs_plan(f, g, K.cost, K.epsilon)
    if opts.column_normalize:
        csum = P.sum(axis=0)
        if np.any(csum <= 0):
            raise SolverError("zero column sum before normalization")
        P *= (nu / csum)[None, :]
    rr, cr = marginal_error(P, marginals)
    plan = TransportPlan(
        matrix=P,
        epsilon=K.epsilon,
        converged=bool(max(rr, cr) <= opts.tolerance),
        row_residual=rr,
        col_residual=cr,
    )
    return plan, ScalingState(f=f, g=g, iterations=int(iters)), traj


def hilbert_metric(u, u_star):
    """Projective distance log max_{i,j} (u_i u*_j) / (u_j u*_i)."""
    u = np.asarray(u, dtype=np.float64)
    u_star = np.asarray(u_star, dtype=np.float64)
    if np.any(u <= 0) or np.any(u_star <= 0):
        raise SolverError("hilbert_metric requires strictly positive vectors")
    r = np.log(u) - np.log(u_star)
    return float(np.max(r) - np.min(r))


def marginal_error(P, marginals):
    """L1 gaps (rows, columns) between P's sums and the marginals."""
    if isinstance(P, (GibbsKernel, TransportPlan)):
        P = P.matrix
    P = np.asarray(P, dtype=np.float64)
    mu = np.asarray(marginals.mu)
    nu = np.asarray(marginals.nu)
    if P.shape != (mu.size, nu.size):
        raise SolverError(f"shape mismatch: plan {P.shape}, marginals {mu.size}x{nu.size}")
    return (
        float(np.sum(np.abs(P.sum(axis=1) - mu))),
        float(np.sum(np.abs(P.sum(axis=0) - nu))),
    )


def dual_objectives(F, G, K: GibbsKernel, marginals):
    """The discrete EOT dual E[f + g - eps*e^{(f+g-C)/eps}] + eps of every
    row pair (f, g) = (F[h], G[h]), through products with K.

    The expectation is over the product of the marginals normalized to
    probability vectors.

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
