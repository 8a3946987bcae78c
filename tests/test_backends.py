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


CORES = {
    "sinkhorn": (_backends.sinkhorn_core, (30, 1e-12, False), 6),
    "uot": (_backends.uot_core, (1.0, 1.0, 30), 4),
}


@pytest.mark.parametrize("core", list(CORES))
def test_core_builds_the_cost_once_at_the_first_absorption(rng, core):
    # a core given a cost function must return what it returns given the cost
    fn, args, n_arrays = CORES[core]
    for _ in range(5):
        Km, C = _inputs(rng)
        ones = np.ones(10)
        want = fn(Km, C, ones, ones, EPS, *args, 1e3, 1e-30)
        build, calls = _counted(C)
        got = fn(Km, build, ones, ones, EPS, *args, 1e3, 1e-30)
        assert len(calls) == 1
        for x, y in zip(got[:n_arrays], want[:n_arrays]):
            assert np.array_equal(x, y)
        assert got[n_arrays:] == want[n_arrays:]

