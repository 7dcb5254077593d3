"""Settings for every test run in this repository: one BLAS thread.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads it, so the
variable is set here, before any test module imports numpy. With OpenBLAS's
default of one thread per CPU, the banded Cholesky factorisations stall when
other processes compete for the CPUs: seconds where an idle machine takes
milliseconds. A value already in the environment is kept.
"""
import os
import sys
import warnings

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
if "numpy" in sys.modules:
    warnings.warn("numpy was loaded before conftest.py: OPENBLAS_NUM_THREADS has no effect")
