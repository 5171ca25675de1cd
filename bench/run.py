"""Benchmark launcher: runs one workload in its own process.

    python3 bench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Pins BLAS and OpenMP to one thread in the child's environment, then
runs ``worker.py`` with the same arguments and passes its output and
exit code through.  See README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 170

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark worker exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
