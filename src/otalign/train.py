"""Desk-scale self-supervised training on synthetic blob data.

A small MLP encoder with an explicit projector head is trained with any
loss from the losses module on augmented vector pairs, then evaluated
with a linear probe on frozen representations.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import OtalignError
from .kernel import _unit_rows
from .losses import LOSS_FUNCTIONS, _LOSS_PARAMETERS
from .metrics import alignment_loss, uniformity_loss
from .plans import block_domain_plan


class TrainError(OtalignError):
    pass


@dataclass(frozen=True)
class SyntheticDataset:
    points: np.ndarray
    class_labels: np.ndarray
    domain_labels: np.ndarray
    sigma_class: float
    domain_offset_scale: float
    seed: int

    @property
    def n(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class AugmentConfig:
    jitter_sigma: float = 0.1
    scale_range: tuple = (0.8, 1.2)
    dropout_prob: float = 0.1

    def __post_init__(self):
        if self.jitter_sigma < 0:
            raise TrainError("jitter_sigma must be non-negative")
        lo, hi = self.scale_range
        if lo <= 0 or hi < lo:
            raise TrainError("scale_range must be positive and ordered")
        if not (0.0 <= self.dropout_prob < 1.0):
            raise TrainError("dropout_prob must lie in [0, 1)")


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "gca-ince"
    epochs: int = 200
    batch_size: int = 64
    lr: float = 0.2
    seed: int = 0
    epsilon: float = 0.5
    alpha: float = 0.0
    beta: float = 0.0
    loss_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.loss not in LOSS_FUNCTIONS:
            raise TrainError(f"unknown loss: {self.loss}")
        if self.batch_size < 4:
            raise TrainError("batch size must be at least 4")
        if self.epochs < 0:
            raise TrainError("epochs must be non-negative")
        if self.lr <= 0:
            raise TrainError("learning rate must be positive")
        if not (0 <= self.alpha < np.inf and 0 <= self.beta < np.inf):
            raise TrainError("alpha and beta must be non-negative and finite, "
                             f"got {self.alpha} and {self.beta}")


def gen_blobs(k, m, d, n_per_cell, sigma_class=0.5, domain_offset_scale=1.0,
              seed=0):
    """Gaussian blobs with class and domain structure.

    Class centroids are uniform draws on the unit sphere scaled by 3;
    each domain adds a fixed Gaussian offset of the given scale; samples
    add isotropic class noise.  n_per_cell points per (class, domain)
    cell.
    """
    if k < 1 or m < 1 or d < 2 or n_per_cell < 1:
        raise TrainError("need k, m, n_per_cell >= 1 and d >= 2")
    rng = np.random.default_rng(seed)
    cent = rng.normal(size=(k, d))
    cent = 3.0 * cent / np.linalg.norm(cent, axis=1, keepdims=True)
    offs = domain_offset_scale * rng.normal(size=(m, d))
    pts, cls, dom = [], [], []
    for c in range(k):
        for g in range(m):
            x = cent[c] + offs[g] + sigma_class * rng.normal(size=(n_per_cell, d))
            pts.append(x)
            cls.extend([c] * n_per_cell)
            dom.extend([g] * n_per_cell)
    return SyntheticDataset(
        points=np.vstack(pts),
        class_labels=np.array(cls),
        domain_labels=np.array(dom),
        sigma_class=sigma_class,
        domain_offset_scale=domain_offset_scale,
        seed=seed,
    )


def augment(x, cfg, rng):
    """dropout(scale * x + jitter) with fresh draws per call."""
    x = np.asarray(x, dtype=np.float64)
    lo, hi = cfg.scale_range
    out = x * rng.uniform(lo, hi)
    if cfg.jitter_sigma > 0:
        out = out + cfg.jitter_sigma * rng.normal(size=x.shape)
    if cfg.dropout_prob > 0:
        out = out * (rng.random(x.shape) >= cfg.dropout_prob)
    return out


@dataclass
class MlpEncoder:
    """d -> 64 -> 32 encoder with a 32 -> 16 projector, rectifier units."""

    weights: list
    biases: list

    @classmethod
    def init(cls, d_in, hidden=64, rep=32, proj=16, seed=0):
        rng = np.random.default_rng(seed)
        sizes = [d_in, hidden, rep, proj]
        W, b = [], []
        for a, c in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / (a + c))
            W.append(rng.uniform(-bound, bound, size=(a, c)))
            b.append(np.zeros(c))
        return cls(weights=W, biases=b)

    def copy(self):
        return MlpEncoder(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def _rectified(X, W, b):
    """max(X @ W + b, 0), computed in the product's own array."""
    h = X @ W
    h += b
    np.maximum(h, 0.0, out=h)
    return h


def _hidden(enc, X):
    """The two rectified layers (h1, h2) of a float64 batch."""
    h1 = _rectified(X, enc.weights[0], enc.biases[0])
    return h1, _rectified(h1, enc.weights[1], enc.biases[1])


def encoder_forward(enc, X):
    """Forward pass; returns unit-normalized projector outputs and a
    cache holding every intermediate the backward pass needs."""
    X = np.asarray(X, dtype=np.float64)
    h1, h2 = _hidden(enc, X)
    zp = h2 @ enc.weights[2]
    zp += enc.biases[2]
    Z, norms = _unit_rows(zp)
    return Z, {"X": X, "h1": h1, "h2": h2, "norms": norms, "Z": Z}


def encoder_representation(enc, X):
    """Frozen features for probing: the 32-unit layer before the
    projector."""
    return _hidden(enc, np.asarray(X, dtype=np.float64))[1]


def encoder_backward(enc, cache, grad_Z):
    """Exact gradients of sum(dot(grad_Z, Z)) w.r.t. all parameters.

    The unit-normalization Jacobian projects the upstream gradient onto
    the tangent space of the sphere before the linear layers.
    """
    grad_Z = np.asarray(grad_Z, dtype=np.float64)
    if grad_Z.shape != cache["Z"].shape:
        raise TrainError("upstream gradient shape does not match cache")
    Z = cache["Z"]
    # (grad_Z - <grad_Z, z> Z) / |zp|, the same operations in one buffer
    gzp = np.sum(grad_Z * Z, axis=1, keepdims=True) * Z
    np.subtract(grad_Z, gzp, out=gzp)
    gzp /= cache["norms"]
    gW3 = cache["h2"].T @ gzp
    gb3 = gzp.sum(axis=0)
    # h = max(a, 0), so h > 0 exactly where a > 0
    ga2 = gzp @ enc.weights[2].T
    ga2 *= cache["h2"] > 0
    gW2 = cache["h1"].T @ ga2
    gb2 = ga2.sum(axis=0)
    ga1 = ga2 @ enc.weights[1].T
    ga1 *= cache["h1"] > 0
    gW1 = cache["X"].T @ ga1
    gb1 = ga1.sum(axis=0)
    return [gW1, gW2, gW3], [gb1, gb2, gb3]


def _batch_loss(cfg, Z1, Z2, domains):
    accepted = _LOSS_PARAMETERS[cfg.loss]
    kwargs = dict(cfg.loss_kwargs)
    if "epsilon" in accepted:
        kwargs.setdefault("epsilon", cfg.epsilon)
    if (cfg.alpha > 0 or cfg.beta > 0) and "target" in accepted:
        kwargs["target"] = block_domain_plan(domains, cfg.alpha, cfg.beta)
    return LOSS_FUNCTIONS[cfg.loss](Z1, Z2, **kwargs)


def _epoch_metrics(enc, dataset, cfg, aug_cfg, epoch, loss_value):
    rng = np.random.default_rng((cfg.seed, epoch, 0xEA))
    X1 = augment(dataset.points, aug_cfg, rng)
    X2 = augment(dataset.points, aug_cfg, rng)
    # keep only Z, so a view's cache is freed before the next is built
    Z1 = encoder_forward(enc, X1)[0]
    Z2 = encoder_forward(enc, X2)[0]
    return {
        "epoch": epoch,
        "loss": float(loss_value),
        "alignment": alignment_loss(Z1, Z2),
        "uniformity": uniformity_loss(Z1, cfg.epsilon),
    }


def train_encoder(dataset, cfg, aug_cfg=None):
    """SGD with linearly decaying rate; two augmentations per sample.

    Returns the trained encoder and a per-epoch metrics history whose
    first entry describes the untrained encoder.
    """
    aug_cfg = aug_cfg or AugmentConfig()
    rng = np.random.default_rng(cfg.seed)
    enc = MlpEncoder.init(dataset.points.shape[1], seed=cfg.seed)
    n = dataset.n
    n_batches = max(1, n // cfg.batch_size)
    total = max(1, cfg.epochs * n_batches)
    history = [_epoch_metrics(enc, dataset, cfg, aug_cfg, 0, _eval_loss(enc, dataset, cfg, aug_cfg))]
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for b in range(n_batches):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            if idx.size < 2:
                continue
            X = dataset.points[idx]
            X1 = augment(X, aug_cfg, rng)
            X2 = augment(X, aug_cfg, rng)
            Z1, c1 = encoder_forward(enc, X1)
            Z2, c2 = encoder_forward(enc, X2)
            res = _batch_loss(cfg, Z1, Z2, dataset.domain_labels[idx])
            if not np.isfinite(res.value):
                raise TrainError(f"non-finite loss at epoch {epoch} batch {b}")
            gW1, gb1 = encoder_backward(enc, c1, res.grad_z1)
            gW2, gb2 = encoder_backward(enc, c2, res.grad_z2)
            lr = cfg.lr * (1.0 - (1.0 - 1e-3) * step / total)
            for p, g1, g2 in zip(enc.weights, gW1, gW2):
                p -= lr * (g1 + g2)
            for p, g1, g2 in zip(enc.biases, gb1, gb2):
                p -= lr * (g1 + g2)
            epoch_loss += res.value
            step += 1
        history.append(
            _epoch_metrics(enc, dataset, cfg, aug_cfg, epoch, epoch_loss / n_batches)
        )
    return enc, history


def _eval_loss(enc, dataset, cfg, aug_cfg):
    rng = np.random.default_rng((cfg.seed, 0xE7A))
    idx = np.arange(min(dataset.n, cfg.batch_size))
    X = dataset.points[idx]
    X1 = augment(X, aug_cfg, rng)
    X2 = augment(X, aug_cfg, rng)
    Z1 = encoder_forward(enc, X1)[0]
    Z2 = encoder_forward(enc, X2)[0]
    return _batch_loss(cfg, Z1, Z2, dataset.domain_labels[idx]).value


def linear_probe(embeddings, labels, train_fraction=0.8, seed=0):
    """Held-out accuracy of multinomial logistic regression on frozen
    features: full-batch gradient descent, 500 steps, rate 0.1."""
    X = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(round(train_fraction * n))
    if n_train < 2 or n_train >= n:
        raise TrainError("degenerate train/test split")
    tr, te = order[:n_train], order[n_train:]
    classes = np.unique(y)
    if np.unique(y[tr]).size < 2:
        raise TrainError("train split has fewer than two classes")
    k = classes.size
    cls_index = {c: i for i, c in enumerate(classes)}
    yt = np.array([cls_index[c] for c in y[tr]])
    Xt = np.hstack([X[tr], np.ones((tr.size, 1))])
    W = np.zeros((Xt.shape[1], k))
    onehot = np.eye(k)[yt]
    for _ in range(500):
        s = Xt @ W
        s -= s.max(axis=1, keepdims=True)
        p = np.exp(s)
        p /= p.sum(axis=1, keepdims=True)
        W -= 0.1 * (Xt.T @ (p - onehot)) / tr.size
    Xe = np.hstack([X[te], np.ones((te.size, 1))])
    pred = classes[np.argmax(Xe @ W, axis=1)]
    return float(np.mean(pred == y[te]))


def domain_alignment_experiment(alpha_values, beta, dataset, cfg=None,
                                aug_cfg=None):
    """Sweep the same-domain target weight and probe both label types.

    Trains with the KL plan loss and a block-structured target for each
    alpha; returns rows of (alpha, class_acc, domain_acc).
    """
    if np.unique(dataset.domain_labels).size < 2:
        raise TrainError("experiment needs at least two domains")
    cfg = cfg or TrainConfig(loss="gca-ince")
    # every setting is checked before the first run
    run_cfgs = [replace(cfg, loss="gca-ince", alpha=float(a), beta=float(beta))
                for a in alpha_values]
    rows = []
    for run_cfg in run_cfgs:
        enc, _ = train_encoder(dataset, run_cfg, aug_cfg)
        H = encoder_representation(enc, dataset.points)
        rows.append(
            {
                "alpha": run_cfg.alpha,
                "class_acc": linear_probe(H, dataset.class_labels, seed=cfg.seed),
                "domain_acc": linear_probe(H, dataset.domain_labels, seed=cfg.seed),
            }
        )
    return rows
