"""otalign benchmark entry point.

    python3 perfbench/run.py --workload step-b1024 --seed 0 --seconds 25 --trace 0

Runs the program from ``src/`` of the checkout this file sits in, with the
BLAS thread count fixed before numpy loads.  See ``bench.py`` for what a run
measures and prints.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS thread on every commit: the load is one closed-loop client, and a
# second OpenBLAS thread on a shared 2-core box stalls some process lifetimes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "otalign", "__init__.py")):
    print(f"error: no otalign sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

if __name__ == "__main__":
    import bench

    sys.exit(bench.main(sys.argv[1:], import_s=time.perf_counter() - T_START))
