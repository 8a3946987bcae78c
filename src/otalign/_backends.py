"""The two hot scaling loops, in plain numpy.

Both take the cost either as an array or as a zero-argument function that
builds it.  A loop reads the cost only at its first absorption, which
rebuilds the kernel from the absorbed potentials, so a caller that holds
only the kernel passes such a function and pays for the cost only when the
scalings grow past the absorption threshold.  Callers reach the loops as
module attributes (``_backends.sinkhorn_core``), so that a wrapper put in
their place sees every call.
"""

import numpy as np

# initial half-step capacity of the scaling loop's trajectory records
TRAJECTORY_ROWS = 64


def sinkhorn_core(K, C, mu, nu, eps, max_iter, tol, to_tol, tau, floor):
    """Gauss-Seidel scaling loop with log-domain absorption.

    Two matvecs per iteration: ``Kw.T @ u`` serves the column update and
    both column residuals, and ``Kw @ v`` serves the even half-step's row
    residual and the next iteration's row update.  Returns total dual
    potentials (f, g), per-half-step potential and residual trajectories,
    the number of half-steps taken, and the number of full iterations run.
    ``C`` is the cost or a function that builds it, called at most once.
    """
    B = K.shape[0]
    u = np.ones(B)
    v = np.ones(B)
    fa = np.zeros(B)  # absorbed part of f
    ga = np.zeros(B)
    Kw = K  # replaced by an owned buffer at the first absorption
    owned = False
    # per-half-step records, grown by doubling: tolerance mode allows far
    # more iterations than a solve usually takes, and a buffer sized for all
    # of them is megabytes of mostly untouched memory
    FG = np.zeros((min(2 * max_iter, TRAJECTORY_ROWS), 2, B))
    err = np.zeros((FG.shape[0], 2))
    nh = 0
    iters = 0
    Kv = Kw @ v
    for _ in range(max_iter):
        if nh + 2 > FG.shape[0]:
            cap = min(2 * FG.shape[0], 2 * max_iter)
            FG2 = np.zeros((cap, 2, B))
            FG2[:nh] = FG[:nh]
            FG = FG2
            err2 = np.zeros((cap, 2))
            err2[:nh] = err[:nh]
            err = err2
        u = mu / (Kv + floor)
        KTu = Kw.T @ u
        # odd half-step: rows feasible by construction
        FG[nh, 0] = fa + eps * np.log(u)
        FG[nh, 1] = ga + eps * np.log(v)
        err[nh, 0] = np.sum(np.abs(u * Kv - mu))
        err[nh, 1] = np.sum(np.abs(v * KTu - nu))
        nh += 1
        v = nu / (KTu + floor)
        # even half-step: columns feasible, row residual needs one matvec
        Kv = Kw @ v
        re = np.sum(np.abs(u * Kv - mu))
        ce = np.sum(np.abs(v * KTu - nu))
        FG[nh, 0] = fa + eps * np.log(u)
        FG[nh, 1] = ga + eps * np.log(v)
        err[nh, 0] = re
        err[nh, 1] = ce
        nh += 1
        iters += 1
        if to_tol and re <= tol and ce <= tol:
            break
        if np.max(u) > tau or np.max(v) > tau:
            fa = fa + eps * np.log(u)
            ga = ga + eps * np.log(v)
            if not owned:
                Kw = np.empty_like(K)
                owned = True
                if callable(C):
                    C = C()
            # one buffer serves every absorption: fresh B x B arrays per
            # absorption raise the peak resident set of long solves
            np.add(fa.reshape(B, 1), ga.reshape(1, B), Kw)
            Kw -= C
            Kw /= eps
            np.exp(Kw, Kw)
            u = np.ones(B)
            v = np.ones(B)
            Kv = Kw @ v
    f = fa + eps * np.log(u)
    g = ga + eps * np.log(v)
    return f, g, FG[:nh, 0], FG[:nh, 1], err[:nh, 0], err[:nh, 1], nh, iters


def uot_core(K, C, mu, nu, eps, lam1, lam2, max_iter, tau, floor):
    """Exponent-damped scaling loop for KL-relaxed marginals.

    Returns total log scalings (log u, log v), the total log v from the
    start of the final iteration, the column sums of the final plan
    diag(u) K diag(v) (taken from the last ``Kw.T @ u``, which absorption
    leaves valid because it does not change the plan), and the iteration
    count.  ``C`` is the cost or a function that builds it, called at most
    once.
    """
    B = K.shape[0]
    fi1 = lam1 / (lam1 + eps)
    fi2 = lam2 / (lam2 + eps)
    u = np.ones(B)
    v = np.ones(B)
    fa = np.zeros(B)
    ga = np.zeros(B)
    Kw = K  # replaced by an owned buffer at the first absorption
    owned = False
    log_v_prev = np.zeros(B)
    col = np.zeros(B)
    for _ in range(max_iter):
        log_v_prev = ga / eps + np.log(v)
        u = (mu / (Kw @ v + floor)) ** fi1
        # the damping factors exp(-fa/(eps+lam)) are exactly one until the
        # first absorption, so their vector passes are skipped until then
        if owned:
            u *= np.exp(-fa / (eps + lam1))
        KTu = Kw.T @ u
        v = (nu / (KTu + floor)) ** fi2
        if owned:
            v *= np.exp(-ga / (eps + lam2))
        col = v * KTu
        if np.max(u) > tau or np.max(v) > tau:
            fa = fa + eps * np.log(u)
            ga = ga + eps * np.log(v)
            if not owned:
                Kw = np.empty_like(K)
                owned = True
                if callable(C):
                    C = C()
            np.add(fa.reshape(B, 1), ga.reshape(1, B), Kw)
            Kw -= C
            Kw /= eps
            np.exp(Kw, Kw)
            u = np.ones(B)
            v = np.ones(B)
    log_u = fa / eps + np.log(u)
    log_v = ga / eps + np.log(v)
    return log_u, log_v, log_v_prev, col, max_iter

