import tracemalloc

import numpy as np
import pytest

from otalign.kernel import normalize_rows
from otalign.train import (
    AugmentConfig,
    MlpEncoder,
    TrainConfig,
    TrainError,
    _epoch_metrics,
    augment,
    encoder_backward,
    encoder_forward,
    encoder_representation,
    gen_blobs,
    linear_probe,
    train_encoder,
)


def small_dataset(seed=0):
    return gen_blobs(3, 1, 8, 30, seed=seed)


def test_gen_blobs_shapes_and_labels():
    ds = gen_blobs(4, 2, 16, 10, seed=1)
    assert ds.points.shape == (80, 16)
    assert np.array_equal(np.unique(ds.class_labels), np.arange(4))
    assert np.array_equal(np.unique(ds.domain_labels), np.arange(2))
    assert np.sum((ds.class_labels == 0) & (ds.domain_labels == 1)) == 10


def test_gen_blobs_deterministic():
    a = gen_blobs(3, 2, 8, 5, seed=7)
    b = gen_blobs(3, 2, 8, 5, seed=7)
    assert np.array_equal(a.points, b.points)
    c = gen_blobs(3, 2, 8, 5, seed=8)
    assert not np.array_equal(a.points, c.points)


def test_gen_blobs_validation():
    with pytest.raises(TrainError):
        gen_blobs(0, 1, 8, 10)
    with pytest.raises(TrainError):
        gen_blobs(2, 1, 1, 10)


def test_offset_scale_separates_domains():
    near = gen_blobs(2, 2, 8, 20, domain_offset_scale=0.0, seed=0)
    far = gen_blobs(2, 2, 8, 20, domain_offset_scale=5.0, seed=0)

    def domain_gap(ds):
        a = ds.points[ds.domain_labels == 0].mean(axis=0)
        b = ds.points[ds.domain_labels == 1].mean(axis=0)
        return np.linalg.norm(a - b)

    assert domain_gap(far) > domain_gap(near)


def test_augment_config_validation():
    with pytest.raises(TrainError):
        AugmentConfig(jitter_sigma=-0.1)
    with pytest.raises(TrainError):
        AugmentConfig(scale_range=(1.2, 0.8))
    with pytest.raises(TrainError):
        AugmentConfig(dropout_prob=1.0)


def test_augment_monte_carlo_statistics(rng):
    # over many draws the augmentation is mean-preserving up to the
    # dropout factor and the scale midpoint
    cfg = AugmentConfig(jitter_sigma=0.05, scale_range=(0.8, 1.2), dropout_prob=0.1)
    x = np.full((1, 4), 2.0)
    draws = np.stack([augment(x, cfg, rng) for _ in range(4000)])
    # E[scale] = 1.0, E[keep] = 0.9 -> expected mean 1.8
    assert np.allclose(draws.mean(), 1.8, atol=0.05)
    # dropout zeros roughly 10 percent of entries
    frac_zero = np.mean(draws == 0.0)
    assert 0.07 < frac_zero < 0.13


def test_augment_identity_config(rng):
    cfg = AugmentConfig(jitter_sigma=0.0, scale_range=(1.0, 1.0), dropout_prob=0.0)
    x = rng.standard_normal((5, 3))
    assert np.array_equal(augment(x, cfg, rng), x)


def test_train_config_validation():
    with pytest.raises(TrainError, match="unknown loss"):
        TrainConfig(loss="nope")
    with pytest.raises(TrainError):
        TrainConfig(batch_size=2)
    with pytest.raises(TrainError):
        TrainConfig(lr=0.0)
    with pytest.raises(TrainError):
        TrainConfig(epochs=-1)
    for weights in ({"alpha": np.nan}, {"alpha": -1.0}, {"beta": np.nan}, {"beta": np.inf}):
        with pytest.raises(TrainError, match="alpha and beta must be non-negative and finite"):
            TrainConfig(**weights)


def test_encoder_forward_unit_norm(rng):
    enc = MlpEncoder.init(8, seed=0)
    Z, cache = encoder_forward(enc, rng.standard_normal((10, 8)))
    assert Z.shape == (10, 16)
    assert np.allclose(np.linalg.norm(Z, axis=1), 1.0, atol=1e-12)
    assert cache["h2"].shape == (10, 32)


def test_encoder_representation_matches_cache(rng):
    enc = MlpEncoder.init(8, seed=0)
    X = rng.standard_normal((6, 8))
    _, cache = encoder_forward(enc, X)
    assert np.allclose(encoder_representation(enc, X), cache["h2"])


def reference_forward_backward(enc, X, G):
    # the layers written out as separate arrays, the masks taken on the
    # pre-activations a rather than on h = max(a, 0)
    a1 = X @ enc.weights[0] + enc.biases[0]
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ enc.weights[1] + enc.biases[1]
    h2 = np.maximum(a2, 0.0)
    zp = h2 @ enc.weights[2] + enc.biases[2]
    Z = normalize_rows(zp)
    norms = np.linalg.norm(zp, axis=1, keepdims=True)
    gzp = (G - np.sum(G * Z, axis=1, keepdims=True) * Z) / norms
    ga2 = (gzp @ enc.weights[2].T) * (a2 > 0)
    ga1 = (ga2 @ enc.weights[1].T) * (a1 > 0)
    grads = [X.T @ ga1, h1.T @ ga2, h2.T @ gzp,
             ga1.sum(axis=0), ga2.sum(axis=0), gzp.sum(axis=0)]
    return a1, a2, h1, h2, Z, grads


def test_encoder_paths_equal_the_written_out_layers(rng):
    enc = MlpEncoder.init(8, seed=2)
    enc.biases[0][:] = -np.abs(rng.standard_normal(64))
    enc.biases[1][:] = rng.standard_normal(32)
    enc.biases[2][:] = rng.standard_normal(16)
    enc.biases[0][::4] = 0.0
    enc.biases[1][::3] = 0.0
    X = rng.standard_normal((12, 8))
    # a1 = b1 <= 0 on the zero rows, so h1 = 0 there and a2 = b2: both
    # layers see pre-activations that are exactly zero
    X[:3] = 0.0
    G = rng.standard_normal((12, 16))
    a1, a2, h1, h2, Z, grads = reference_forward_backward(enc, X, G)
    assert np.any(a1 == 0.0) and np.any(a2 == 0.0)
    Zf, cache = encoder_forward(enc, X)
    assert np.array_equal(Zf, Z)
    assert np.array_equal(cache["h1"], h1)
    assert np.array_equal(cache["h2"], h2)
    gW, gb = encoder_backward(enc, cache, G)
    for got, want in zip(gW + gb, grads):
        assert np.array_equal(got, want)
    assert np.array_equal(encoder_representation(enc, X), h2)
    # the masks agree on signed zeros and NaN as well
    a = np.array([-0.0, 0.0, np.nan, -1.0, 1.0, np.inf, -np.inf])
    assert np.array_equal(np.maximum(a, 0.0) > 0, a > 0)


def test_epoch_metrics_keep_no_backward_cache():
    ds = gen_blobs(4, 2, 16, 50)
    n, d = ds.points.shape
    enc = MlpEncoder.init(d, seed=0)
    cfg, aug_cfg = TrainConfig(), AugmentConfig()
    _epoch_metrics(enc, ds, cfg, aug_cfg, 1, 0.0)  # warm up
    tracemalloc.start()
    try:
        _epoch_metrics(enc, ds, cfg, aug_cfg, 1, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the n x n uniformity buffer, both augmented views (n x d), both
    # embeddings (n x 16), and room for one n x 64 hidden layer; a kept
    # forward cache (X, h1, h2, Z and the row norms) alone would exceed that room
    bound = 8 * (n * n + 2 * n * d + 2 * n * 16 + n * 64)
    assert peak < bound, (peak, bound)


def test_encoder_backward_finite_differences(rng):
    # sum(dot(G, Z)) differentiated through the whole network
    enc = MlpEncoder.init(6, seed=1)
    X = rng.standard_normal((5, 6))
    G = rng.standard_normal((5, 16))

    def value(e):
        Z, _ = encoder_forward(e, X)
        return float(np.sum(G * Z))

    _, cache = encoder_forward(enc, X)
    gW, gb = encoder_backward(enc, cache, G)
    h = 1e-6
    for layer in range(3):
        for _ in range(5):
            i = rng.integers(enc.weights[layer].shape[0])
            j = rng.integers(enc.weights[layer].shape[1])
            e = enc.copy()
            e.weights[layer][i, j] += h
            up = value(e)
            e.weights[layer][i, j] -= 2 * h
            down = value(e)
            fd = (up - down) / (2 * h)
            assert abs(fd - gW[layer][i, j]) < 1e-5
        i = rng.integers(enc.biases[layer].size)
        e = enc.copy()
        e.biases[layer][i] += h
        up = value(e)
        e.biases[layer][i] -= 2 * h
        fd = (up - value(e)) / (2 * h)
        assert abs(fd - gb[layer][i]) < 1e-5


def test_encoder_backward_shape_check(rng):
    enc = MlpEncoder.init(6, seed=0)
    _, cache = encoder_forward(enc, rng.standard_normal((4, 6)))
    with pytest.raises(TrainError, match="shape"):
        encoder_backward(enc, cache, np.zeros((4, 3)))


def test_train_zero_epochs_returns_initial_metrics():
    ds = small_dataset()
    cfg = TrainConfig(loss="ince", epochs=0, batch_size=32)
    enc, history = train_encoder(ds, cfg)
    assert len(history) == 1
    init = MlpEncoder.init(ds.points.shape[1], seed=cfg.seed)
    for w, w0 in zip(enc.weights, init.weights):
        assert np.array_equal(w, w0)


def test_train_deterministic_by_seed():
    ds = small_dataset()
    cfg = TrainConfig(loss="gca-ince", epochs=2, batch_size=32, seed=3)
    enc_a, hist_a = train_encoder(ds, cfg)
    enc_b, hist_b = train_encoder(ds, cfg)
    for wa, wb in zip(enc_a.weights, enc_b.weights):
        assert np.array_equal(wa, wb)
    assert hist_a == hist_b


def test_train_loss_decreases():
    ds = small_dataset()
    cfg = TrainConfig(loss="gca-ince", epochs=10, batch_size=32)
    _, history = train_encoder(ds, cfg)
    assert history[-1]["loss"] < history[0]["loss"]
    keys = {"epoch", "loss", "alignment", "uniformity"}
    assert all(set(h) == keys for h in history)


def test_train_history_epoch_numbers():
    ds = small_dataset()
    cfg = TrainConfig(loss="byol", epochs=3, batch_size=32)
    _, history = train_encoder(ds, cfg)
    assert [h["epoch"] for h in history] == [0, 1, 2, 3]


def test_linear_probe_separable_data(rng):
    X = np.vstack([rng.normal(0, 0.2, (40, 4)) + 3, rng.normal(0, 0.2, (40, 4)) - 3])
    y = np.array([0] * 40 + [1] * 40)
    assert linear_probe(X, y) == 1.0


def test_linear_probe_random_labels_near_chance(rng):
    X = rng.standard_normal((200, 4))
    y = rng.integers(0, 2, 200)
    acc = linear_probe(X, y)
    assert 0.2 < acc < 0.8


def test_linear_probe_validation():
    with pytest.raises(TrainError, match="degenerate"):
        linear_probe(np.ones((3, 2)), [0, 1, 0], train_fraction=0.99)
