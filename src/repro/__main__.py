"""``python -m repro`` dispatches to the CLI.

Before numpy loads, BLAS is pinned to one thread (a value the user set
still wins).  Each engine worker process then uses one core, so the
engine spreads a batch's cache-missing work over one worker per usable
CPU at ``--jobs 1`` and over N workers at ``--jobs N``; forked workers
inherit the pin.  Library callers keep numpy's default threading, and
their ``jobs=1`` engines run inline.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402  (BLAS reads its thread count at import)

# Guarded: a spawned pool worker imports this module as ``__mp_main__``.
if __name__ == "__main__":
    sys.exit(main())
