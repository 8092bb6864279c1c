import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import run  # noqa: E402

# Before numpy loads, as in run.py: the thread count changes BLAS rounding,
# and the committed reference digests were made with one thread.
run.pin_blas_threads()
