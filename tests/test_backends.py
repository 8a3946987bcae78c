import numpy as np
import pytest

from otalign import _backends
from otalign.kernel import cosine_cost, gibbs_kernel, normalize_rows


EPS = 0.05  # these batches absorb within the first iterations


def _inputs(rng, B=10):
    Z1 = normalize_rows(rng.standard_normal((B, 6)))
    Z2 = normalize_rows(rng.standard_normal((B, 6)))
    K = gibbs_kernel(cosine_cost(Z1, Z2), EPS)
    return K.matrix, K.cost


def _counted(C):
    calls = []

    def build():
        calls.append(1)
        return C.copy()

    return build, calls


def _core(Km, C, n, **kw):
    ones = np.ones(Km.shape[0])
    return _backends.sinkhorn_core(Km, C, ones, ones, EPS, n, 1e3, 1e-30, **kw)


# the balanced loop is the lambda = inf case of the unbalanced one
@pytest.mark.parametrize("lam", [np.inf, 1.0], ids=["sinkhorn", "uot"])
def test_core_builds_the_cost_once_at_the_first_absorption(rng, lam):
    # the loop given a cost function must return what it returns given the cost
    for _ in range(5):
        Km, C = _inputs(rng)
        want = _core(Km, C, 30, lam1=lam, lam2=lam, record=True)
        build, calls = _counted(C)
        got = _core(Km, build, 30, lam1=lam, lam2=lam, record=True)
        assert len(calls) == 1
        for x, y in zip(got[:4] + got[4], want[:4] + want[4]):
            assert np.array_equal(x, y)
        assert got[-1] == want[-1] == 30


def test_record_free_potentials_are_the_last_two_half_steps(rng):
    # without records the loop still returns what the trajectory ends with:
    # half-step 2n-1 is (f, g_prev), half-step 2n is (f, g)
    for n in (1, 2, 5, 11):
        Km, C = _inputs(rng)
        build, calls = _counted(C)
        f, g, g_prev, col, traj, iters = _core(Km, build, n)
        assert traj is None and iters == n
        F, G, row_err, col_err = _core(Km, C, n, record=True)[4]
        assert F.shape == G.shape == (2 * n, 10) and row_err.shape == col_err.shape == (2 * n,)
        assert np.array_equal(F[2 * n - 2], f) and np.array_equal(G[2 * n - 2], g_prev)
        assert np.array_equal(F[2 * n - 1], f) and np.array_equal(G[2 * n - 1], g)
        if n >= 2:
            assert len(calls) == 1  # absorption fired


def test_tolerance_stops_at_the_first_iteration_within_it(rng):
    Km, C = _inputs(rng)
    *_, traj, iters = _core(Km, C, 500, tol=1e-9)
    assert traj is None and iters < 500
    _, _, _, _, (_, _, row_err, col_err), recorded = _core(Km, C, 500, tol=1e-9, record=True)
    assert recorded == iters and row_err.shape == (2 * iters,)
    assert max(row_err[-1], col_err[-1]) <= 1e-9 < max(row_err[-3], col_err[-3])
