"""One BLAS/OpenMP thread for every test run, as CI and perfbench pin it.

Unpinned, order-3 OSD on (128, 36) used more than twice the process CPU
time per frame, so local --durations would not compare with CI's.  The
variables are read when numpy loads its BLAS, so they are set here, before
any test module imports numpy; values already in the environment win.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
