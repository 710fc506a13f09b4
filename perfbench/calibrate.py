"""Machine calibration: BLAS identity and the dgemm / dpotrf rates at M.

The ``*.floor_frac`` metrics divide a layer's computed flop count by
(calibrated rate x measured time), so a value near 1 means the layer runs at
the machine's BLAS/LAPACK floor for its shape.  Rates are measured in the same
process settings the workers use (same BLAS thread count) and are the best of
a few repeats, i.e. the attainable rate rather than a typical one.
"""

from __future__ import annotations

import ctypes
import glob
import os
import time

import numpy as np
import scipy
from scipy.linalg import lapack

BATCH = 64  # rows per accumulate call: the stream's batch size


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _openblas_threads():
    """Threads numpy's bundled OpenBLAS will use, or None if not bundled."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                            "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def rates(M: int, repeats: int = 5) -> dict:
    """dgemm rate at the accumulate shape (64 x M)^T (64 x M) and dpotrf
    rate at M x M, both in GFLOP/s (computed flop counts 2*B*M^2, M^3/3)."""
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((BATCH, M))
    gemm_s = _best(lambda: phi.T @ phi, repeats)

    noise = rng.uniform(0.0, 0.5, size=(M, M))
    spd = noise + noise.T
    spd.flat[::M + 1] += M  # diagonally dominant, hence positive definite
    del noise

    def potrf():
        _, info = lapack.dpotrf(spd, lower=1, clean=0, overwrite_a=0)
        if info != 0:
            raise RuntimeError(f"calibration dpotrf failed (info={info})")

    potrf_s = _best(potrf, max(2, repeats // 2))
    return {
        "M": M,
        "dgemm_gflops": 2.0 * BATCH * M * M / gemm_s / 1e9,
        "dpotrf_gflops": M ** 3 / 3.0 / potrf_s / 1e9,
    }
