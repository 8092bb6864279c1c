"""Test-session set-up, run before any test module imports numpy.

Importing s2a first pins BLAS to one thread, as s2a/__init__.py does for
any program: the test modules import numpy first, and training's two task
threads then meet a multi-threaded BLAS, which makes the overfit test take
about half as long again. An explicit setting in the environment is kept.
"""

import s2a  # noqa: F401
