"""Benchmark configuration.

Benchmarks regenerate every table and figure of the paper.  They default
to the ``tiny`` experiment scale so the full suite completes in minutes;
set ``REPRO_SCALE=small`` (or ``paper``) for the full-size runs.  Each
benchmark runs its experiment once per round (``pedantic``) because a
single run already aggregates thousands of simulated MAC cycles.
"""

import os

from bench_util import run_once  # noqa: F401  (re-export for back-compat)

os.environ.setdefault("REPRO_SCALE", "tiny")
