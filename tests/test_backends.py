import os
import subprocess
import sys

import numpy as np

from otalign import _backends
from otalign.kernel import cosine_cost, gibbs_kernel, normalize_rows


def _inputs(rng, B=10, eps=0.5):
    Z1 = normalize_rows(rng.standard_normal((B, 6)))
    Z2 = normalize_rows(rng.standard_normal((B, 6)))
    K = gibbs_kernel(cosine_cost(Z1, Z2), eps)
    return np.ascontiguousarray(K.matrix), np.ascontiguousarray(K.cost)


def test_backend_flag_is_consistent():
    assert _backends.BACKEND in ("numpy", "numba")
    if _backends.numba_backend is None:
        assert _backends.BACKEND == "numpy"


def test_sinkhorn_cores_agree(rng):
    py = _backends.numpy_backend["sinkhorn_core"]
    active = _backends.sinkhorn_core
    for _ in range(5):
        Km, C = _inputs(rng)
        mu = np.ones(10)
        nu = np.ones(10)
        a = py(Km, C, mu, nu, 0.5, 8, 1e-12, False, 1e3, 1e-30)
        b = active(Km, C, mu, nu, 0.5, 8, 1e-12, False, 1e3, 1e-30)
        for x, y in zip(a[:6], b[:6]):
            assert np.allclose(np.asarray(x), np.asarray(y), atol=1e-12)
        assert a[6] == b[6] and a[7] == b[7]


def test_uot_cores_agree(rng):
    py = _backends.numpy_backend["uot_core"]
    active = _backends.uot_core
    for _ in range(5):
        Km, C = _inputs(rng)
        mu = np.ones(10)
        nu = np.ones(10)
        a = py(Km, C, mu, nu, 0.5, 1.0, 1.0, 6, 1e3, 1e-30)
        b = active(Km, C, mu, nu, 0.5, 1.0, 1.0, 6, 1e3, 1e-30)
        for x, y in zip(a[:4], b[:4]):
            assert np.allclose(np.asarray(x), np.asarray(y), atol=1e-12)


def test_numpy_fallback_selected_by_env_flag():
    env = dict(os.environ, OTALIGN_NUMPY="1")
    code = "from otalign import _backends; print(_backends.BACKEND)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "numpy"


def test_fallback_cli_produces_same_plan(tmp_path):
    cost = tmp_path / "c.csv"
    cost.write_text("0,0.5\n0.8,0\n")
    outs = []
    for flag in ("0", "1"):
        out = tmp_path / f"plan{flag}.csv"
        env = dict(os.environ, OTALIGN_NUMPY=flag)
        subprocess.run(
            [sys.executable, "-m", "otalign.cli", "solve", str(cost), "--iters", "6",
             "--out", str(out)],
            env=env, capture_output=True, text=True, check=True,
        )
        outs.append(out.read_text())
    assert outs[0] == outs[1]
