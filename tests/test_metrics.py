import numpy as np
import pytest

from otalign.kernel import gibbs_kernel, normalize_rows
from otalign.metrics import (
    MetricError,
    alignment_loss,
    kl_via_duals,
    uniformity_loss,
)
from otalign.solver import sinkhorn


def test_alignment_identical_batches(unit_batch):
    Z = unit_batch(6, 4)
    assert alignment_loss(Z, Z) == 0.0


def test_alignment_known_value():
    Z1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    Z2 = np.array([[0.0, 1.0], [0.0, 1.0]])
    # pair distances squared: 2 and 0, mean 1
    assert np.isclose(alignment_loss(Z1, Z2), 1.0)


def test_alignment_shape_mismatch():
    with pytest.raises(MetricError, match="shapes differ"):
        alignment_loss(np.ones((2, 2)), np.ones((3, 2)))


def test_uniformity_antipodal_oracle():
    # two antipodal unit vectors, squared distance 4, epsilon 1 -> -4
    Z = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert np.isclose(uniformity_loss(Z, 1.0), -4.0, atol=1e-12)


def test_uniformity_orthonormal_oracle():
    # every distinct pair of an orthonormal basis is at squared distance 2,
    # epsilon 0.5 -> log e^{-1} = -1
    assert np.isclose(uniformity_loss(np.eye(4), 0.5), -1.0, atol=1e-12)


def test_uniformity_collapsed_batch_is_zero():
    Z = np.tile([[0.6, 0.8]], (5, 1))
    assert np.isclose(uniformity_loss(Z, 2.0), 0.0, atol=1e-12)


def test_uniformity_prefers_spread(rng):
    spread = normalize_rows(rng.standard_normal((64, 8)))
    tight = normalize_rows(spread[0] + 0.01 * rng.standard_normal((64, 8)))
    assert uniformity_loss(spread, 0.5) < uniformity_loss(tight, 0.5)


@pytest.mark.parametrize("n", [64, 400])
def test_uniformity_matches_the_pairwise_formula(rng, n):
    # built in one buffer, so the squared distances sum in another order
    Z = normalize_rows(rng.standard_normal((n, 16)))
    for eps in (0.5, 2.0):
        sq = np.sum(Z * Z, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (Z @ Z.T)
        pot = np.exp(-eps * np.maximum(d2, 0.0))
        np.fill_diagonal(pot, 0.0)
        want = np.log(pot.sum() / (n * (n - 1)))
        assert abs(uniformity_loss(Z, eps) - want) <= 1e-14 * abs(want)


def test_uniformity_needs_two_samples():
    with pytest.raises(MetricError, match="at least two"):
        uniformity_loss(np.ones((1, 3)), 1.0)


def test_kl_via_duals_matches_direct(rng, unit_batch):
    from otalign import properties
    from otalign.kernel import cosine_cost
    from otalign.solver import SolverOptions

    for _ in range(5):
        K = gibbs_kernel(cosine_cost(unit_batch(8, 5), unit_batch(8, 5)), 0.5)
        solved = sinkhorn(K, opts=SolverOptions(max_iterations=6))
        err = properties.kl_dual_identity(K, solved)
        assert err <= properties.TOLERANCES["kl_dual_identity"]


def test_kl_via_duals_shape_check():
    with pytest.raises(MetricError, match="do not match"):
        kl_via_duals(np.zeros((2, 2)), np.zeros(3), np.zeros(2), 1.0)
