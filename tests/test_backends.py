import numpy as np
import pytest

from otalign import _backends
from otalign.kernel import GibbsKernel, cosine_cost, gibbs_kernel, normalize_rows
from otalign.solver import SolverOptions, sinkhorn


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


def _core(Km, C, n, record=False, **opts):
    ones = np.ones(Km.shape[0])
    return _backends.sinkhorn_core(Km, C, ones, ones, EPS, SolverOptions(max_iterations=n, **opts),
                                   record=record)


# the balanced loop is the lambda = inf case of the unbalanced one
@pytest.mark.parametrize("lam", [np.inf, 1.0], ids=["sinkhorn", "uot"])
def test_core_builds_the_cost_once_at_the_first_absorption(rng, lam):
    # the loop given a cost function must return what it returns given the cost
    for _ in range(5):
        Km, C = _inputs(rng)
        want = _core(Km, C, 30, lambda1=lam, lambda2=lam, record=True)
        build, calls = _counted(C)
        got = _core(Km, build, 30, lambda1=lam, lambda2=lam, record=True)
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
    *_, traj, iters = _core(Km, C, 500, tolerance=1e-9, mode="tolerance")
    assert traj is None and iters < 500
    _, _, _, _, (_, _, row_err, col_err), recorded = _core(Km, C, 500, tolerance=1e-9,
                                                           mode="tolerance", record=True)
    assert recorded == iters and row_err.shape == (2 * iters,)
    assert max(row_err[-1], col_err[-1]) <= 1e-9 < max(row_err[-3], col_err[-3])


@pytest.mark.parametrize("rows", [8, 12], ids=["rule", "single-row"])
@pytest.mark.parametrize("mode", ["fixed", "tolerance", "record"])
@pytest.mark.parametrize("lam", [np.inf, 5.0], ids=["sinkhorn", "uot"])
def test_row_blocks_leave_the_loop_as_it_is(rng, monkeypatch, rows, mode, lam):
    # B=37 in blocks of 8 rows (the block rule at a smaller block: the last
    # block has 5) or of 12 (the last has 1), against one block: the same
    # iteration count and convergence, and the same numbers up to rounding.
    # Both loops absorb, so the blocked kernel rebuild and damping run too
    Km, C = _inputs(rng, B=37)
    opts = {"lambda1": lam, "lambda2": lam}
    if mode == "tolerance":
        opts.update(mode="tolerance", tolerance=1e-9)
    build, calls = _counted(C)
    run = lambda: _core(Km, build, 400 if mode == "tolerance" else 30, record=mode == "record", **opts)
    solve = lambda: sinkhorn(GibbsKernel(Km, EPS, C), opts=SolverOptions(max_iterations=400, **opts))
    want, (want_plan, _, want_traj) = run(), solve()
    assert len(calls) == 1
    if rows == 8:
        monkeypatch.setattr(_backends, "BLOCK_ENTRIES", 300)
    else:
        monkeypatch.setattr(_backends, "row_block", lambda B: 12)
    assert _backends.row_block(37) == rows
    got, (got_plan, _, got_traj) = run(), solve()
    assert got[-1] == want[-1] and got_plan.converged == want_plan.converged
    assert got_traj.n_half == want_traj.n_half
    pairs = list(zip(got[:4], want[:4])) + [(got_plan.matrix, want_plan.matrix)]
    pairs += [(getattr(got_traj, k), getattr(want_traj, k)) for k in ("f", "g", "row_err", "col_err")]
    if mode == "record":
        pairs += list(zip(got[4], want[4]))
    for x, y in pairs:
        assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(y))
