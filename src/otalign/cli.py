"""Command-line interface.

Exit codes: 0 success, 1 property failure, 2 usage or input error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import properties
from .errors import OtalignError
from .kernel import cosine_cost, gibbs_kernel, normalize_rows
from .losses import LOSS_FUNCTIONS, _LOSS_PARAMETERS
from .matio import (
    append_metrics_jsonl,
    read_matrix_bin,
    read_matrix_csv,
    write_matrix_bin,
    write_matrix_csv,
)
from .plans import block_domain_plan
from .solver import Marginals, SolverOptions, dual_objectives, sinkhorn
from .train import (
    AugmentConfig,
    TrainConfig,
    domain_alignment_experiment,
    gen_blobs,
    linear_probe,
    encoder_representation,
    train_encoder,
)


class UsageError(Exception):
    pass


def _load_matrix(path):
    if not os.path.exists(path):
        raise UsageError(f"no such file: {path}")
    if path.endswith(".bin"):
        return read_matrix_bin(path)
    return read_matrix_csv(path)


def _save_matrix(M, path):
    """Write M in the binary format to a ``.bin`` path, as CSV otherwise."""
    if path.endswith(".bin"):
        write_matrix_bin(M, path)
    else:
        write_matrix_csv(M, path)


def _load_vector(path, B, what):
    M = _load_matrix(path)
    v = M.reshape(-1)
    if v.size != B:
        raise UsageError(f"{what} has {v.size} entries, expected {B}")
    return v


def _load_problem(args):
    """The square cost of ``args.cost`` and the marginals from --mu/--nu (default ones)."""
    C = _load_matrix(args.cost)
    if C.shape[0] != C.shape[1]:
        raise UsageError("cost matrix must be square")
    B = C.shape[0]
    mu = _load_vector(args.mu, B, "mu") if args.mu else np.ones(B)
    nu = _load_vector(args.nu, B, "nu") if args.nu else np.ones(B)
    return C, Marginals(mu=mu, nu=nu)


def cmd_solve(args):
    if args.tol is not None and args.iters is not None:
        raise UsageError("--tol and --iters are mutually exclusive")
    C, marg = _load_problem(args)
    if args.tol is not None:
        opts = SolverOptions(max_iterations=1000, tolerance=args.tol, mode="tolerance")
    else:
        opts = SolverOptions(max_iterations=args.iters or 5)
    K = gibbs_kernel(C, args.epsilon)
    plan, state, traj = sinkhorn(K, marg, opts)
    _save_matrix(plan.matrix, args.out)
    if args.diagnostics:
        diag = {
            "iterations": state.iterations,
            "row_residual": plan.row_residual,
            "col_residual": plan.col_residual,
            "converged": plan.converged,
            "dual_objective": dual_objectives(traj.f, traj.g, K, marg).tolist(),
        }
        with open(args.diagnostics, "w") as fh:
            json.dump(diag, fh, indent=1)
    print(json.dumps({"iterations": state.iterations,
                      "row_residual": plan.row_residual,
                      "col_residual": plan.col_residual}))
    return 0


def cmd_uot(args):
    C, marg = _load_problem(args)
    K = gibbs_kernel(C, args.epsilon)
    opts = SolverOptions(
        max_iterations=args.iters,
        absorption_threshold=args.tau,
        lambda1=args.lambda1,
        lambda2=args.lambda2,
        column_normalize=not args.no_colnorm,
    )
    plan, state, _ = sinkhorn(K, marg, opts)
    _save_matrix(plan.matrix, args.out)
    print(json.dumps({"iterations": state.iterations,
                      "row_residual": plan.row_residual,
                      "col_residual": plan.col_residual}))
    return 0


def cmd_loss(args):
    Z1 = _load_matrix(args.z1)
    Z2 = _load_matrix(args.z2)
    options = {"epsilon": args.epsilon, "q": args.q, "lam": getattr(args, "lambda"),
               "n_iters": args.iters, "lambda1": args.lambda1, "lambda2": args.lambda2,
               "weight": args.w}
    accepted = _LOSS_PARAMETERS[args.loss]
    res = LOSS_FUNCTIONS[args.loss](Z1, Z2, **{k: v for k, v in options.items() if k in accepted})
    print(f"{res.value:.6f}")
    if args.plan_out and res.plan is not None:
        _save_matrix(res.plan, args.plan_out)
    return 0


def cmd_plan(args):
    try:
        domains = [int(t) for t in args.domains.split(",") if t.strip() != ""]
    except ValueError as e:
        raise UsageError(f"bad domain list: {e}")
    if not domains:
        raise UsageError("empty domain list")
    P = block_domain_plan(np.array(domains), args.alpha, args.beta, raw=args.raw)
    _save_matrix(P, args.out)
    return 0


def cmd_train(args):
    data = gen_blobs(
        k=args.classes,
        m=args.domains,
        d=args.dim,
        n_per_cell=args.n_per_cell,
        sigma_class=args.sigma_class,
        domain_offset_scale=args.offset_scale,
        seed=args.seed,
    )
    aug = AugmentConfig()
    if args.sweep_alpha:
        try:
            alphas = [float(t) for t in args.sweep_alpha.split(",")]
        except ValueError as e:
            raise UsageError(f"bad alpha list: {e}")
        cfg = TrainConfig(
            loss="gca-ince", epochs=args.epochs, batch_size=args.batch,
            lr=args.lr, seed=args.seed, epsilon=args.epsilon,
        )
        rows = domain_alignment_experiment(alphas, args.beta, data, cfg, aug)
        for r in rows:
            rec = {"alpha": r["alpha"], "beta": args.beta, "seed": args.seed,
                   "class_accuracy": r["class_acc"], "domain_accuracy": r["domain_acc"]}
            if args.metrics:
                append_metrics_jsonl(rec, args.metrics)
            print(json.dumps(rec, sort_keys=True))
        return 0
    cfg = TrainConfig(
        loss=args.loss, epochs=args.epochs, batch_size=args.batch,
        lr=args.lr, seed=args.seed, epsilon=args.epsilon,
        alpha=args.alpha, beta=args.beta,
    )
    enc, history = train_encoder(data, cfg, aug)
    H = encoder_representation(enc, data.points)
    acc = linear_probe(H, data.class_labels, seed=args.seed)
    for rec in history:
        if args.metrics:
            append_metrics_jsonl(rec, args.metrics)
    final = {"probe_accuracy": acc, "seed": args.seed,
             "loss": history[-1]["loss"]}
    if args.metrics:
        append_metrics_jsonl(final, args.metrics)
    if args.embeddings_out:
        _save_matrix(H, args.embeddings_out)
    print(json.dumps(final, sort_keys=True))
    return 0


def _verify_properties(n, seed):
    rng = np.random.default_rng(seed)
    results = {name: {"pass": True, "worst": 0.0} for name in properties.TOLERANCES}
    for _ in range(n):
        B = int(rng.integers(4, 33))
        d = int(rng.integers(4, 17))
        eps = float(rng.choice([0.1, 0.5, 1.0]))
        Z1 = normalize_rows(rng.normal(size=(B, d)))
        Z2 = normalize_rows(rng.normal(size=(B, d)))
        q = float(rng.choice([0.5, 1.0]))
        lam = float(rng.choice([0.01, 0.5]))
        K = gibbs_kernel(cosine_cost(Z1, Z2), eps)
        solved = sinkhorn(K, opts=SolverOptions(max_iterations=10))
        errors = {
            "ince_half_step_equivalence": properties.ince_half_step_equivalence(Z1, Z2, eps),
            "rince_proximal_equivalence": properties.rince_proximal_equivalence(Z1, Z2, eps, q, lam),
            "gca_rince_below_proximal": properties.gca_rince_below_proximal(Z1, Z2, eps, lam),
            "kl_monotone_along_iterations": properties.kl_monotone_along_iterations(K, solved),
            "kl_dual_identity": properties.kl_dual_identity(K, solved),
            "dual_objective_monotone": properties.dual_objective_monotone(K, solved),
            "uot_balanced_limit": properties.uot_balanced_limit(K),
        }
        for name, err in errors.items():
            r = results[name]
            r["worst"] = max(r["worst"], float(err))
            if err > properties.TOLERANCES[name]:
                r["pass"] = False
    return results


def cmd_verify(args):
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    results = _verify_properties(args.n, args.seed)
    ok = all(r["pass"] for r in results.values())
    for name, r in sorted(results.items()):
        status = "pass" if r["pass"] else "FAIL"
        print(f"{status}  {name}  worst={r['worst']:.3e}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(prog="otalign",
                                description="optimal-transport contrastive alignment toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="balanced entropic transport on a cost matrix")
    s.add_argument("cost")
    s.add_argument("--epsilon", type=float, default=0.5)
    s.add_argument("--iters", type=int, default=None)
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--mu", default=None)
    s.add_argument("--nu", default=None)
    s.add_argument("--out", default="plan.csv")
    s.add_argument("--diagnostics", default=None)
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("uot", help="unbalanced entropic transport")
    s.add_argument("cost")
    s.add_argument("--epsilon", type=float, default=0.5)
    s.add_argument("--lambda1", type=float, default=1.0)
    s.add_argument("--lambda2", type=float, default=1.0)
    s.add_argument("--iters", type=int, default=5)
    s.add_argument("--tau", type=float, default=1e3)
    s.add_argument("--mu", default=None)
    s.add_argument("--nu", default=None)
    s.add_argument("--no-colnorm", action="store_true")
    s.add_argument("--out", default="plan.csv")
    s.set_defaults(func=cmd_uot)

    s = sub.add_parser("loss", help="evaluate a loss on two embedding files")
    s.add_argument("--loss", required=True, choices=sorted(LOSS_FUNCTIONS))
    s.add_argument("z1")
    s.add_argument("z2")
    s.add_argument("--epsilon", type=float, default=0.5)
    s.add_argument("--iters", type=int, default=5)
    s.add_argument("--q", type=float, default=0.98)
    s.add_argument("--lambda", type=float, default=0.01)
    s.add_argument("--lambda1", type=float, default=1.0)
    s.add_argument("--lambda2", type=float, default=1.0)
    s.add_argument("--w", type=float, default=0.5)
    s.add_argument("--plan-out", default=None)
    s.set_defaults(func=cmd_loss)

    s = sub.add_parser("plan", help="build a block-structured target plan")
    s.add_argument("--domains", required=True, help="comma-separated labels")
    s.add_argument("--alpha", type=float, default=0.0)
    s.add_argument("--beta", type=float, default=0.0)
    s.add_argument("--raw", action="store_true", help="skip mass normalization")
    s.add_argument("--out", default="plan.csv")
    s.set_defaults(func=cmd_plan)

    s = sub.add_parser("train", help="self-supervised training on synthetic blobs")
    s.add_argument("--loss", default="gca-ince", choices=sorted(LOSS_FUNCTIONS))
    s.add_argument("--epochs", type=int, default=200)
    s.add_argument("--batch", type=int, default=64)
    s.add_argument("--lr", type=float, default=0.2)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--epsilon", type=float, default=0.5)
    s.add_argument("--classes", type=int, default=4)
    s.add_argument("--domains", type=int, default=1)
    s.add_argument("--dim", type=int, default=16)
    s.add_argument("--n-per-cell", type=int, default=50)
    s.add_argument("--sigma-class", type=float, default=0.5)
    s.add_argument("--offset-scale", type=float, default=1.0)
    s.add_argument("--alpha", type=float, default=0.0)
    s.add_argument("--beta", type=float, default=0.0)
    s.add_argument("--sweep-alpha", default=None,
                   help="comma list; runs the domain experiment instead")
    s.add_argument("--metrics", default=None, help="JSONL output path")
    s.add_argument("--embeddings-out", default=None)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("verify", help="run the solver/loss property suite")
    s.add_argument("--n", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--report", default=None, help="JSON output path")
    s.set_defaults(func=cmd_verify)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, OtalignError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
