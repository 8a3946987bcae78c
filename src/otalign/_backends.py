"""The hot scaling loop, in plain numpy.

One loop serves balanced and unbalanced transport: balanced Sinkhorn is
the lambda -> inf case of the KL-relaxed update, whose exponents are
lambda / (lambda + eps).  The loop reads its iteration count, stopping
rule, absorption threshold, floor and penalties from one
``solver.SolverOptions`` record.  It takes the cost either as an array or
as a zero-argument function that builds it, and reads the cost only at
its first absorption, which rebuilds the kernel from the absorbed
potentials; so a caller that holds only the kernel passes such a function
and pays for the cost only when the scalings grow past the absorption
threshold.  Callers reach the loop as a module attribute
(``_backends.sinkhorn_core``), so that a wrapper put in its place sees
every call.
"""

import numpy as np


def sinkhorn_core(K, C, mu, nu, eps, opts, record=False):
    """Gauss-Seidel scaling loop with log-domain absorption.

    Each iteration is a row update u = (mu / (K v))^(lam1/(lam1+eps))
    followed by a column update of v in the same form, lam1 and lam2 being
    ``opts.lambda1`` and ``opts.lambda2``; an infinite penalty makes the
    exponent one, the balanced update.  Returns (f, g, g_prev, col,
    trajectory, iterations): the total dual potentials, the column
    potential entering the final iteration, the column sums v * (K' u) of
    the final iteration taken before any absorption (which does not change
    the plan), the trajectory, and the number of iterations run.

    Only with ``record`` does the loop keep a trajectory: the potentials
    (F, G) and L1 marginal residuals of every half-step; otherwise it is
    None.  In ``"tolerance"`` mode the loop stops after the first
    iteration whose row and column residuals are both within
    ``opts.tolerance``.  ``C`` is the cost or a function that builds it,
    called at most once.
    """
    B = K.shape[0]
    lam1, lam2 = opts.lambda1, opts.lambda2
    tau, floor = opts.absorption_threshold, opts.floor
    tol = opts.tolerance if opts.mode == "tolerance" else None
    fi1 = 1.0 if lam1 == np.inf else lam1 / (lam1 + eps)
    fi2 = 1.0 if lam2 == np.inf else lam2 / (lam2 + eps)
    check = record or tol is not None
    u = np.ones(B)
    v = np.ones(B)
    fa = np.zeros(B)  # absorbed part of f
    ga = np.zeros(B)
    v_prev, ga_prev = v, ga
    v_end, KTu = v, np.zeros(B)  # v before any absorption, and K' u
    Kw = K  # replaced by an owned buffer at the first absorption
    owned = False
    F, G, row_err, col_err = [], [], [], []
    Kv = None  # K v when the residual check has it for the next row update
    iters = 0
    for _ in range(opts.max_iterations):
        v_prev, ga_prev = v, ga
        if Kv is None:
            Kv = Kw @ v
        u = mu / (Kv + floor)
        if fi1 != 1.0:
            np.power(u, fi1, out=u)
            # the damping factors exp(-fa/(eps+lam)) are exactly one until
            # the first absorption, so their vector passes wait until then
            if owned:
                u *= np.exp(-fa / (eps + lam1))
        KTu = Kw.T @ u
        if record:
            # odd half-step: rows feasible by construction when balanced
            F.append(fa + eps * np.log(u))
            G.append(ga + eps * np.log(v))
            row_err.append(np.sum(np.abs(u * Kv - mu)))
            col_err.append(np.sum(np.abs(v * KTu - nu)))
        v_end = v = nu / (KTu + floor)
        if fi2 != 1.0:
            np.power(v, fi2, out=v)
            if owned:
                v *= np.exp(-ga / (eps + lam2))
        iters += 1
        Kv = None
        if check:
            # even half-step: the row residual needs one more matvec, which
            # the next row update reuses
            Kv = Kw @ v
            re = np.sum(np.abs(u * Kv - mu))
            ce = np.sum(np.abs(v * KTu - nu))
            if record:
                F.append(F[-1])
                G.append(ga + eps * np.log(v))
                row_err.append(re)
                col_err.append(ce)
            if tol is not None and re <= tol and ce <= tol:
                break
        if u.max() > tau or v.max() > tau:
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
            Kv = None
    f = fa + eps * np.log(u)
    g = ga + eps * np.log(v)
    g_prev = ga_prev + eps * np.log(v_prev)
    trajectory = (np.array(F), np.array(G), np.array(row_err), np.array(col_err)) if record else None
    return f, g, g_prev, v_end * KTu, trajectory, iters
