"""Times the compiled solver cores against the plain-numpy versions.

Run as:  python3 benchmarks/backend_bench.py [--size 256] [--repeats 20]

Both code paths live in otalign._backends; this script calls them
directly so one process can compare them regardless of which one the
package selected at import time.
"""

import argparse
import time

import numpy as np

from otalign import _backends


def _bench(core, args, repeats):
    core(*args)  # warm-up (JIT compile for the numba path)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        core(*args)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=256)
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--iters", type=int, default=5)
    ap.add_argument("--epsilon", type=float, default=0.5)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    B = args.size
    Z1 = rng.normal(size=(B, 16))
    Z2 = rng.normal(size=(B, 16))
    Z1 /= np.linalg.norm(Z1, axis=1, keepdims=True)
    Z2 /= np.linalg.norm(Z2, axis=1, keepdims=True)
    C = np.ascontiguousarray(1.0 - Z1 @ Z2.T)
    K = np.exp(-C / args.epsilon)
    ones = np.ones(B)

    sink_args = (K, C, ones, ones, args.epsilon, args.iters, 1e-6, False, 1e3, 1e-30)
    uot_args = (K, C, ones, ones, args.epsilon, 1.0, 1.0, args.iters, 1e3, 1e-30)

    backends = [("numpy", _backends.numpy_backend)]
    if _backends.numba_backend is not None:
        backends.append(("numba", _backends.numba_backend))
    else:
        print("numba backend unavailable; timing numpy only")

    print(f"B={B}  iters={args.iters}  repeats={args.repeats}  (median seconds)")
    for name, be in backends:
        ts = _bench(be["sinkhorn_core"], sink_args, args.repeats)
        tu = _bench(be["uot_core"], uot_args, args.repeats)
        print(f"  {name:6s}  sinkhorn {ts * 1e3:8.3f} ms   uot {tu * 1e3:8.3f} ms")


if __name__ == "__main__":
    main()
