"""The hot scaling loop, in plain numpy, and the row blocks of B x B passes.

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

The loop's passes over K, and the losses' softmax and products through
the kernel, run over the row blocks of ``row_block``: a block of rows is
read once, and everything the pass needs from it is done while it is
still in cache.  Up to B = 362 a pass is one block and makes the numpy
calls an unblocked pass would make.
"""

import numpy as np

# float64 entries in one row block (1 MiB): a block stays in a 2 MiB L2
BLOCK_ENTRIES = 1 << 17


def row_block(B):
    """Rows per block of a pass over a B x B array.

    All B rows while B * B <= BLOCK_ENTRIES; otherwise BLOCK_ENTRIES // B
    rounded down to a multiple of 8 (and at least 8), at which OpenBLAS
    gives each block's rows of a matrix-vector product the same bits as
    the product over all rows.
    """
    if B * B <= BLOCK_ENTRIES:
        return B
    return max(8, BLOCK_ENTRIES // B // 8 * 8)


def row_views(rows, *arrays):
    """For each block of ``rows`` rows: (its first row, each array's rows
    in it), the arrays themselves when one block holds them all."""
    B = arrays[0].shape[0]
    if rows >= B:
        return ((0,) + arrays,)
    return [(s,) + tuple(x[s:s + rows] for x in arrays) for s in range(0, B, rows)]


def _pass_blocks(K, mu, damp, rows):
    """(K_I, mu_I, damp_I, I) for each row block I of K, I None for one block."""
    if rows >= K.shape[0]:
        return [(K, mu, damp, None)]
    return [(KI, muI, None if damp is None else damp[s:s + rows], slice(s, s + rows))
            for s, KI, muI in row_views(rows, K, mu)]


def _row_pass(blocks, v, floor, fi):
    """(K v, u, K' u) for the row update u = (mu / (K v))^fi * damp, in one
    read of K: each block gives K_I v, then u_I, and adds K_I' u_I while
    K_I is still in cache."""
    for KI, muI, dI, I in blocks:
        KvI = KI @ v
        uI = muI / (KvI + floor)
        if fi != 1.0:
            np.power(uI, fi, out=uI)
            if dI is not None:
                uI *= dI
        if I is None:  # one block: its vectors are the whole ones
            return KvI, uI, KI.T @ uI
        if I.start == 0:
            Kv, u, KTu = np.empty(v.shape[0]), np.empty(v.shape[0]), KI.T @ uI
        else:
            KTu += KI.T @ uI
        Kv[I] = KvI
        u[I] = uI
    return Kv, u, KTu


def sinkhorn_core(K, C, mu, nu, eps, opts, record=False):
    """Gauss-Seidel scaling loop with log-domain absorption.

    Each iteration is a row update u = (mu / (K v))^(lam1/(lam1+eps))
    followed by a column update of v in the same form, lam1 and lam2 being
    ``opts.lambda1`` and ``opts.lambda2``; an infinite penalty makes the
    exponent one, the balanced update.  An iteration reads K once: one
    pass over its row blocks gives K v, the row update and K' u.  Returns
    (f, g, g_prev, col, trajectory, iterations): the total dual
    potentials, the column potential entering the final iteration, the
    column sums v * (K' u) of the final iteration taken before any
    absorption (which does not change the plan), the trajectory, and the
    number of iterations run.

    Only with ``record`` does the loop keep a trajectory: the potentials
    (F, G) and L1 marginal residuals of every half-step; otherwise it is
    None.  In ``"tolerance"`` mode the loop stops after the first
    iteration whose row and column residuals are both within
    ``opts.tolerance``.  The even half-step's row residual needs K v for
    the new v; in these two modes the loop takes it from the next
    iteration's row pass, run ahead, and drops that pass when the loop
    stops or absorbs.  The loop absorbs at the end of any iteration but
    the last whose scalings exceed ``opts.absorption_threshold``.  ``C``
    is the cost or a function that builds it, called at most once.
    """
    B = K.shape[0]
    lam1, lam2 = opts.lambda1, opts.lambda2
    tau, floor = opts.absorption_threshold, opts.floor
    tol = opts.tolerance if opts.mode == "tolerance" else None
    fi1 = 1.0 if lam1 == np.inf else lam1 / (lam1 + eps)
    fi2 = 1.0 if lam2 == np.inf else lam2 / (lam2 + eps)
    check = record or tol is not None
    rows = row_block(B)
    blocks = _pass_blocks(K, mu, None, rows)
    damp2 = None  # exp(-ga/(eps+lam2)): one until the first absorption
    amax = np.maximum.reduce
    v = np.ones(B)
    fa = ga = 0.0  # absorbed parts of f and g, vectors from the first absorption
    owned = False  # K is replaced by an owned buffer at the first absorption
    F, G, row_err, col_err = [], [], [], []
    ahead = None  # the next iteration's row pass, when the residual check ran it
    iters = 0
    for _ in range(opts.max_iterations):
        v_prev, ga_prev = v, ga
        Kv, u, KTu = ahead or _row_pass(blocks, v, floor, fi1)
        ahead = None
        if record:
            # odd half-step: rows feasible by construction when balanced
            F.append(fa + eps * np.log(u))
            G.append(ga + eps * np.log(v))
            row_err.append(np.abs(u * Kv - mu).sum())
            col_err.append(np.abs(v * KTu - nu).sum())
        v_end = v = nu / (KTu + floor)  # col = v_end * KTu, before any absorption
        if fi2 != 1.0:
            np.power(v, fi2, out=v)
            if damp2 is not None:
                v *= damp2
        iters += 1
        if check:
            # even half-step: the row residual needs K v for the new v
            ahead = _row_pass(blocks, v, floor, fi1)
            re = np.abs(u * ahead[0] - mu).sum()
            ce = np.abs(v * KTu - nu).sum()
            if record:
                F.append(F[-1])
                G.append(ga + eps * np.log(v))
                row_err.append(re)
                col_err.append(ce)
            if tol is not None and re <= tol and ce <= tol:
                break
        # an absorption after the final iteration would leave f and g as
        # they are and rebuild a kernel that nothing reads
        if iters < opts.max_iterations and (amax(u) > tau or amax(v) > tau):
            fa = fa + eps * np.log(u)
            ga = ga + eps * np.log(v)
            if not owned:
                K = np.empty_like(K)
                owned = True
                if callable(C):
                    C = C()
            # one buffer serves every absorption: fresh B x B arrays per
            # absorption raise the peak resident set of long solves
            for _, KI, CI, faI in row_views(rows, K, C, fa):
                np.add(faI.reshape(-1, 1), ga.reshape(1, B), KI)
                KI -= CI
                KI /= eps
                np.exp(KI, KI)
            # the damping factors exp(-fa/(eps+lam)) change only here
            blocks = _pass_blocks(K, mu, np.exp(-fa / (eps + lam1)) if fi1 != 1.0 else None, rows)
            if fi2 != 1.0:
                damp2 = np.exp(-ga / (eps + lam2))
            v = np.ones(B)
            ahead = None
    f = fa + eps * np.log(u)
    g = ga + eps * np.log(v)
    g_prev = ga_prev + eps * np.log(v_prev)
    trajectory = (np.array(F), np.array(G), np.array(row_err), np.array(col_err)) if record else None
    return f, g, g_prev, v_end * KTu, trajectory, iters
