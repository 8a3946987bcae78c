"""Output checks: one per timed call, and a few once per run.

Each check returns None when the output is right and a one-line reason when
it is not.  ``reference.json`` holds loss values and gradient norms on a
fixed batch; regenerate it with ``python3 perfbench/checks.py`` only when a
change to the losses is meant to change their results.
"""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 20250227  # fixed: independent of the workload seed
REFERENCE_RTOL = 1e-9


def _finite(x):
    return bool(np.all(np.isfinite(x)))


def check_step(res, batch_shape):
    if not np.isfinite(res.value):
        return f"non-finite loss {res.value}"
    for name in ("grad_z1", "grad_z2"):
        g = getattr(res, name)
        if g.shape != batch_shape:
            return f"{name} shape {g.shape}, expected {batch_shape}"
        if not _finite(g):
            return f"non-finite {name}"
    return None


def check_history(history, epochs):
    if len(history) != epochs + 1:
        return f"history has {len(history)} entries, expected {epochs + 1}"
    for rec in history:
        if not all(np.isfinite(v) for v in rec.values()):
            return f"non-finite history record {rec}"
    return None


def check_solve(rc, stdout, diag, tol, plan_path):
    if rc != 0:
        return f"solve exited {rc}"
    printed = json.loads(stdout.strip().splitlines()[-1])
    if printed["iterations"] != diag["iterations"]:
        return "printed and diagnostic iteration counts differ"
    if not diag["converged"]:
        return f"not converged after {diag['iterations']} iterations"
    if not (diag["row_residual"] <= tol and diag["col_residual"] <= tol):
        return f"residuals {diag['row_residual']}, {diag['col_residual']} above {tol}"
    if not _finite(diag["dual_objective"]):
        return "non-finite dual objective"
    with open(plan_path) as fh:
        first = np.array([float(t) for t in fh.readline().split(",")])
    # unit row marginals: the first row of the written plan sums to 1
    if not (np.all(first >= 0) and abs(first.sum() - 1.0) <= tol + 1e-12 * first.size):
        return f"written plan row 0 sums to {first.sum()!r}"
    return None


def reference_batch():
    from otalign.kernel import normalize_rows

    rng = np.random.default_rng(REFERENCE_SEED)
    Z1 = normalize_rows(rng.normal(size=(32, 16)))
    Z2 = normalize_rows(Z1 + 0.3 * rng.normal(size=(32, 16)))
    domains = np.repeat([0, 1], 16)
    return Z1, Z2, domains


def reference_values():
    """Value and gradient norms of every transport loss on the fixed batch,
    with the identity target and, for gca-ince, a block-domain target."""
    from otalign.losses import LOSS_FUNCTIONS
    from otalign.plans import block_domain_plan

    Z1, Z2, domains = reference_batch()
    cases = {k: (k, {}) for k in ("ince", "gca-ince", "rince", "gca-rince", "gca-uot")}
    cases["gca-ince.block"] = ("gca-ince", {"target": block_domain_plan(domains, 0.5, 0.0)})
    out = {}
    for key, (loss_id, extra) in cases.items():
        kwargs = {"epsilon": 0.5, **extra}
        if loss_id.startswith("gca-"):
            kwargs["n_iters"] = 5
        res = LOSS_FUNCTIONS[loss_id](Z1, Z2, **kwargs)
        out[key] = [res.value, float(np.linalg.norm(res.grad_z1)),
                    float(np.linalg.norm(res.grad_z2))]
    return out


def check_identities():
    """INCE equals half-step GCA-INCE with one iteration, to 1e-10."""
    from otalign.losses import gca_ince_loss, ince_loss

    Z1, Z2, _ = reference_batch()
    a = ince_loss(Z1, Z2, epsilon=0.5).value
    b = gca_ince_loss(Z1, Z2, epsilon=0.5, n_iters=1, half_step=True).value
    if not abs(a - b) <= 1e-10:
        return f"ince {a!r} != half-step gca-ince {b!r}"
    return None


def check_reference():
    with open(REFERENCE_PATH) as fh:
        ref = json.load(fh)
    got = reference_values()
    for key, want in ref.items():
        have = got[key]
        if not np.allclose(have, want, rtol=REFERENCE_RTOL, atol=0.0):
            return f"{key}: value/grad norms {have} differ from reference {want}"
    return None


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference_values(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
