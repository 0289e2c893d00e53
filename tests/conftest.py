"""Test-session set-up shared by every test module.

Network results (the narx and mlp goldens among them) depend on the BLAS
thread count, so the suite fixes it at one thread, as bench/run.py does,
before any test module loads numpy.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
