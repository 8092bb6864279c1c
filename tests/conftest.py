"""Test-session set-up, run before any test module imports numpy.

BLAS is pinned to one thread, as importing s2a before numpy would pin it:
the test modules import numpy first, and training's two task threads then
meet a multi-threaded BLAS, which makes the overfit test take about half as
long again. An explicit setting in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var
