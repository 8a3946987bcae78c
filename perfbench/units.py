"""The three units a user waits on, and the workloads that mix them.

A unit is one training step, one ``train_encoder`` run, or one in-process
``otalign solve`` to a tolerance.  Every workload runs all three, so every
run reports every end-to-end metric; the workload's name says which unit
runs at full size and takes most of the time, and the other two run at the
small sizes of ``SMALL_*``.  The loop is closed: one client, the next call
issued when the previous one returns.

Library calls go through module attributes (``train.augment``,
``losses.LOSS_FUNCTIONS[...]``, ``cli.main``) so that the tracer's wrappers
see them.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from otalign import cli, losses, matio, train
from otalign.kernel import cosine_cost, normalize_rows

LOSS_IDS = ("ince", "gca-ince", "rince", "gca-rince", "gca-uot")


@dataclass(frozen=True)
class StepUnit:
    """Augment, forward x2, loss, backward x2, SGD update on the whole
    ``gen_blobs(*blobs)`` dataset as one batch; the loss cycles over
    ``LOSS_IDS`` with the identity target."""

    blobs: tuple
    epsilon: float = 0.5
    n_iters: int = 5
    lr: float = 1e-3

    @property
    def batch(self):
        k, m, _, n = self.blobs
        return k * m * n


@dataclass(frozen=True)
class TrainUnit:
    """``otalign train --domains 2 --alpha 0.5`` in-process: gca-ince with a
    block-domain target."""

    blobs: tuple = (4, 2, 16, 50)
    epochs: int = 20
    batch: int = 64
    epsilon: float = 0.5
    alpha: float = 0.5
    beta: float = 0.0


@dataclass(frozen=True)
class SolveUnit:
    """``otalign solve cost.bin --epsilon 0.05 --tol 1e-6 --diagnostics``
    on a pool of cosine costs between independent random unit batches."""

    size: int
    dim: int = 16
    pool: int = 4
    epsilon: float = 0.05
    tol: float = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    step: StepUnit
    train: TrainUnit
    solve: SolveUnit
    primary: str  # "step" | "train" | "solve"
    per_round: tuple  # (steps, train runs, solves); steps a multiple of 5


SMALL_STEP = StepUnit(blobs=(4, 2, 16, 8))  # B = 64
SMALL_TRAIN = TrainUnit(blobs=(4, 2, 16, 8), epochs=10)  # one batch per epoch
# eps=0.2 keeps the small solve at 9-11 iterations on every seed; at
# eps=0.05 and B=256 the count ranged over 40-90 and swamped the timing
SMALL_SOLVE = SolveUnit(size=64, epsilon=0.2)

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "step-b1024",
            "training steps at B=1024 over five losses: BxB cost, kernel, scaling-loop and"
            " loss passes dominate",
            StepUnit(blobs=(8, 2, 16, 64)), SMALL_TRAIN, SMALL_SOLVE, "step", (20, 4, 4),
        ),
        Workload(
            "train-b64-domains",
            "train_encoder at B=64 with a dense block-domain target: Python overhead,"
            " encoder and per-epoch metrics dominate",
            SMALL_STEP, TrainUnit(), SMALL_SOLVE, "train", (25, 2, 4),
        ),
        Workload(
            "solve-tol-b1024",
            "in-process CLI solve to tol 1e-6 at B=1024, eps=0.05: absorption, CSV output"
            " and per-half-step dual objectives dominate",
            SMALL_STEP, SMALL_TRAIN, SolveUnit(size=1024), "solve", (50, 4, 1),
        ),
    ]
}


def tiny(w):
    """The same workload at sizes that run in well under a second."""
    return replace(
        w,
        step=replace(w.step, blobs=(2, 2, 4, 4)),
        train=replace(w.train, blobs=(2, 2, 4, 8), epochs=2, batch=16),
        solve=replace(w.solve, size=16, pool=2),
        per_round=(5, 1, 1),
    )


def working_set_bytes(w):
    """Computed (not measured) sizes of the largest arrays each unit holds."""
    b_step, b_solve = w.step.batch, w.solve.size
    return {
        "step.bxb_array": 8 * b_step * b_step,
        "train.bxb_array": 8 * w.train.batch * w.train.batch,
        "solve.bxb_array": 8 * b_solve * b_solve,
        "solve.cost_pool": 8 * b_solve * b_solve * w.solve.pool,
    }


class Inputs:
    """Everything one run feeds the program, made from the workload seed."""

    def __init__(self, w, seed, workdir):
        self.w = w
        self.aug = train.AugmentConfig()
        sd = train.gen_blobs(*w.step.blobs, seed=seed)
        self.step_x = sd.points
        self.enc = train.MlpEncoder.init(sd.points.shape[1], seed=seed)
        self.rng = np.random.default_rng((seed, 1))
        k, m, d, n = w.train.blobs
        self.train_data = train.gen_blobs(k, m, d, n, seed=seed)
        self.train_cfg = train.TrainConfig(
            loss="gca-ince", epochs=w.train.epochs, batch_size=w.train.batch,
            seed=seed, epsilon=w.train.epsilon, alpha=w.train.alpha, beta=w.train.beta,
        )
        crng = np.random.default_rng((seed, 2))
        s = w.solve
        self.cost_paths = []
        for i in range(s.pool):
            Z1 = normalize_rows(crng.normal(size=(s.size, s.dim)))
            Z2 = normalize_rows(crng.normal(size=(s.size, s.dim)))
            path = os.path.join(workdir, f"cost{i}.bin")
            matio.write_matrix_bin(cosine_cost(Z1, Z2), path)
            self.cost_paths.append(path)
        self.plan_path = os.path.join(workdir, "plan.csv")
        self.diag_path = os.path.join(workdir, "diag.json")


def step(inp, loss_id):
    """One training step; returns the loss result."""
    u = inp.w.step
    X1 = train.augment(inp.step_x, inp.aug, inp.rng)
    X2 = train.augment(inp.step_x, inp.aug, inp.rng)
    Z1, c1 = train.encoder_forward(inp.enc, X1)
    Z2, c2 = train.encoder_forward(inp.enc, X2)
    kwargs = {"epsilon": u.epsilon}
    if loss_id.startswith("gca-"):
        kwargs["n_iters"] = u.n_iters
    res = losses.LOSS_FUNCTIONS[loss_id](Z1, Z2, **kwargs)
    gW1, gb1 = train.encoder_backward(inp.enc, c1, res.grad_z1)
    gW2, gb2 = train.encoder_backward(inp.enc, c2, res.grad_z2)
    for p, g1, g2 in zip(inp.enc.weights + inp.enc.biases, gW1 + gb1, gW2 + gb2):
        p -= u.lr * (g1 + g2)
    return res


def train_run(inp):
    """One full ``train_encoder`` run; returns its history."""
    _, history = train.train_encoder(inp.train_data, inp.train_cfg, inp.aug)
    return history


def solve(inp, i):
    """One in-process CLI solve over cost ``i`` of the pool.

    Returns (exit code, captured stdout).
    """
    path = inp.cost_paths[i]
    s = inp.w.solve
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["solve", path, "--epsilon", repr(s.epsilon), "--tol", repr(s.tol),
                       "--out", inp.plan_path, "--diagnostics", inp.diag_path])
    return rc, out.getvalue()


def read_diagnostics(inp):
    with open(inp.diag_path) as fh:
        return json.load(fh)
