import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from otalign.errors import LossError
from otalign.kernel import (
    KernelError,
    cosine_cost,
    cosine_kernel,
    gibbs_kernel,
    normalize_rows,
)


def test_normalize_rows_unit_norm(rng):
    Z = normalize_rows(rng.standard_normal((8, 5)))
    assert np.allclose(np.linalg.norm(Z, axis=1), 1.0, atol=1e-14)


def test_normalize_rows_zero_row():
    m = np.ones((3, 2))
    m[1] = 0.0
    with pytest.raises(KernelError, match="zero row at index 1"):
        normalize_rows(m)


def test_cosine_cost_self_diagonal(unit_batch):
    Z = unit_batch(6, 4)
    C = cosine_cost(Z, Z)
    assert np.allclose(np.diag(C), 0.0, atol=1e-12)
    assert C.min() >= 0.0 and C.max() <= 2.0


def test_cosine_cost_orthonormal():
    Z = np.eye(3)
    C = cosine_cost(Z, Z)
    assert np.allclose(C, 1.0 - np.eye(3))


def test_cosine_cost_shape_mismatch():
    # a malformed embedding batch is a LossError wherever it is met
    with pytest.raises(LossError, match="shapes differ"):
        cosine_cost(np.ones((2, 3)), np.ones((3, 3)))


@pytest.mark.parametrize("bad", ["empty", "nan", "inf"])
@pytest.mark.parametrize("build", [cosine_cost, lambda Z1, Z2: cosine_kernel(Z1, Z2, 0.5)],
                         ids=["cost", "kernel"])
def test_cost_and_kernel_reject_a_malformed_batch(unit_batch, build, bad):
    # the losses' batch check: no NaN cost or kernel from a NaN embedding
    Z1, Z2 = unit_batch(4, 3), unit_batch(4, 3)
    if bad == "empty":
        Z1, Z2 = Z1[:0], Z2[:0]
    else:
        Z2[1, 2] = np.nan if bad == "nan" else np.inf
    with pytest.raises(LossError, match="empty batch" if bad == "empty" else "non-finite embedding"):
        build(Z1, Z2)


def test_cosine_cost_is_half_the_squared_distance_on_the_sphere(unit_batch):
    # for unit rows ||z1 - z2||^2 = 2 - 2 <z1, z2> = 2 C
    Z1 = unit_batch(5, 7)
    Z2 = unit_batch(5, 7)
    sq = np.sum((Z1[:, None, :] - Z2[None, :, :]) ** 2, axis=2)
    assert np.allclose(2.0 * cosine_cost(Z1, Z2), sq, atol=1e-12)


def test_cosine_cost_clamps_to_zero_and_two():
    # antipodal unit rows sit at the top of the range; rows longer than
    # one would leave [0, 2] unclamped
    Z1 = np.array([[1.0, 0.0], [2.0, 0.0]])
    Z2 = np.array([[-1.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(cosine_cost(Z1, Z2), [[2.0, 0.0], [2.0, 0.0]])


def test_gibbs_kernel_oracle():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    K = gibbs_kernel(C, 1.0)
    e = np.exp(-1.0)
    assert np.allclose(K.matrix, [[1.0, e], [e, 1.0]], atol=1e-15)
    assert K.epsilon == 1.0
    assert K.cost is C or np.array_equal(K.cost, C)
    assert K.shape == (2, 2)


@pytest.mark.parametrize("B", [64, 300, 1024])
def test_cosine_cost_is_the_clipped_formula_bit_for_bit(rng, B):
    # the cost is built in one buffer; the numbers must not change
    Z1 = normalize_rows(rng.normal(size=(B, 16)))
    Z2 = normalize_rows(rng.normal(size=(B, 16)))
    C = cosine_cost(Z1, Z2)
    assert C.tobytes() == np.clip(1 - Z1 @ Z2.T, 0, 2).tobytes()
    # clamping: identical rows give 1 - <z, z>, which may round below zero
    C = cosine_cost(Z1, Z1)
    assert C.tobytes() == np.clip(1 - Z1 @ Z1.T, 0, 2).tobytes()
    assert C.min() >= 0.0 and C.max() <= 2.0


def test_gibbs_kernel_is_exp_of_negated_cost_bit_for_bit(rng):
    Z1 = normalize_rows(rng.normal(size=(40, 5)))
    Z2 = normalize_rows(rng.normal(size=(40, 5)))
    C = cosine_cost(Z1, Z2)
    for eps in (0.05, 0.3, 1.0, 7.0):
        K = gibbs_kernel(C, eps)
        assert np.array_equal(K.matrix, np.exp(-C / eps))
        assert K.cost is C


def near_pairs(rng, B, d=16):
    Z1 = normalize_rows(rng.normal(size=(B, d)))
    Z2 = normalize_rows(Z1 + 0.3 * rng.normal(size=(B, d)))
    return (Z1, Z2), (Z1, Z1)


@pytest.mark.parametrize("B", [64, 1024])
def test_cosine_kernel_is_the_kernel_of_the_cost_bit_for_bit(rng, B):
    # 1/eps folded into the similarity scales exactly when eps is a power
    # of two: there the numbers of gibbs_kernel(cosine_cost(...)) must not change
    for Za, Zb in near_pairs(rng, B):
        for eps in (0.5, 0.25, 2.0):
            K, diag = cosine_kernel(Za, Zb, eps)
            want, diag_c = dense.kernel(Za, Zb, eps)
            assert K.tobytes() == want.tobytes()
            assert np.array_equal(diag, diag_c)
    with pytest.raises(KernelError, match="epsilon must be positive"):
        cosine_kernel(Za, Zb, 0.0)


@pytest.mark.parametrize("B", [64, 1024])
def test_cosine_kernel_is_the_kernel_of_the_cost_to_rounding(rng, B):
    # elsewhere both are off the exact kernel by at most kernel_error each
    for Za, Zb in near_pairs(rng, B):
        for eps in (0.05, 0.3, 0.7):
            K, diag = cosine_kernel(Za, Zb, eps)
            want, diag_c = dense.kernel(Za, Zb, eps)
            assert np.max(np.abs(K / want - 1)) <= 2 * dense.kernel_error(16, eps)
            # C_ii = -eps x_ii from the exponent x_ii: its error, then one rounding
            assert np.max(np.abs(diag - diag_c)) <= 2 * (eps * dense.similarity_error(16, eps) + 2 * dense.U)


def test_cosine_kernel_is_as_accurate_as_the_cost_kernel(rng):
    # against a long-double evaluation, the mean relative error of the fused
    # kernel is at most twice that of exp(-C/eps) in float64
    errs = np.zeros(2)
    for B in (8, 64, 256):
        for d in (4, 16, 32):
            Za, Zb = near_pairs(rng, B, d)[0]
            for eps in (0.05, 0.3, 0.7, 2.0):
                exact, _ = dense.kernel(*dense.long_double(Za, Zb), eps)
                for k, K in enumerate((cosine_kernel(Za, Zb, eps)[0], dense.kernel(Za, Zb, eps)[0])):
                    errs[k] += float(np.max(np.abs(K - exact) / exact))
    assert errs[0] <= 2 * errs[1], errs


def test_gibbs_kernel_rejects_bad_epsilon():
    with pytest.raises(KernelError, match="epsilon must be positive"):
        gibbs_kernel(np.zeros((2, 2)), 0.0)
    # exp(-C / inf) = 1 everywhere, and cosine_kernel's C_ii = -eps x_ii
    # was 0 * inf = NaN: both raise, with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: gibbs_kernel(np.zeros((2, 2)), np.inf),
                      lambda: cosine_kernel(np.eye(2), np.eye(2), np.inf)):
            with pytest.raises(KernelError, match="epsilon must be positive and finite, got inf"):
                build()


@settings(max_examples=50, deadline=None)
@given(
    B=st.integers(2, 10),
    d=st.integers(2, 8),
    eps=st.floats(0.05, 2.0),
    seed=st.integers(0, 10**6),
)
def test_gibbs_kernel_positive_and_bounded(B, d, eps, seed):
    rng = np.random.default_rng(seed)
    Z1 = normalize_rows(rng.standard_normal((B, d)))
    Z2 = normalize_rows(rng.standard_normal((B, d)))
    K = gibbs_kernel(cosine_cost(Z1, Z2), eps).matrix
    assert np.all(K > 0.0)
    assert np.all(K <= 1.0 + 1e-12)
