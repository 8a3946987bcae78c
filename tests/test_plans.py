import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otalign.plans import PlanError, block_domain_plan


def test_block_domain_plan_oracle():
    # domains [0,0,1,1], alpha=0.5, beta=0: identity plus 0.5 on the two
    # same-domain off-diagonal pairs, then scaled to total mass 4.
    raw = block_domain_plan([0, 0, 1, 1], 0.5, 0.0, raw=True)
    expect = np.eye(4)
    expect[0, 1] = expect[1, 0] = 0.5
    expect[2, 3] = expect[3, 2] = 0.5
    assert np.allclose(raw, expect)
    P = block_domain_plan([0, 0, 1, 1], 0.5, 0.0)
    assert np.allclose(P, expect * (4.0 / 6.0))
    assert np.isclose(P.sum(), 4.0)
    # the rescaling is the one product B / sum, bit for bit
    assert np.array_equal(P, raw * (4 / raw.sum()))


def test_block_domain_plan_zero_params_is_identity():
    assert np.allclose(block_domain_plan([0, 1, 2], 0.0, 0.0), np.eye(3))


def test_block_domain_plan_beta_hits_cross_domain():
    raw = block_domain_plan([0, 1], 0.0, 0.25, raw=True)
    assert np.allclose(raw, [[1.0, 0.25], [0.25, 1.0]])


def test_block_domain_plan_validation():
    with pytest.raises(PlanError, match="1-d"):
        block_domain_plan(np.zeros((2, 2)), 0.1, 0.0)
    with pytest.raises(PlanError, match="non-negative"):
        block_domain_plan([0, 1], -0.1, 0.0)


@pytest.mark.parametrize("alpha, beta", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0)])
def test_block_domain_plan_rejects_a_non_finite_weight(alpha, beta):
    # NaN fails both alpha < 0 and alpha >= 0, and inf times the zero
    # diagonal of ``off`` is NaN: the check must raise, not return an
    # all-NaN target
    with pytest.raises(PlanError, match="non-negative and finite"):
        block_domain_plan([0, 1], alpha, beta)


@settings(max_examples=50, deadline=None)
@given(
    B=st.integers(2, 12),
    alpha=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
)
def test_block_domain_plan_properties(B, alpha, beta, seed):
    rng = np.random.default_rng(seed)
    domains = rng.integers(0, 3, B)
    P = block_domain_plan(domains, alpha, beta)
    assert np.isclose(P.sum(), B)
    assert np.all(P >= 0.0)
    # every diagonal entry keeps positive mass
    assert np.all(np.diag(P) > 0.0)
    # symmetric because the block structure is symmetric
    assert np.allclose(P, P.T, atol=1e-15)
