"""Shared helpers for the benchmark suite.

Kept outside ``conftest.py`` so benchmark modules can import them by a
stable module name: with a repository-root ``conftest.py`` in play (it
registers the ``--backend`` / ``--update-golden`` options), a bare
``from conftest import ...`` would be ambiguous about *which* conftest
module it resolves to.
"""

import json
import os
import platform
import time
from contextlib import contextmanager
from pathlib import Path


def bench_host():
    """The shared ``host`` block of every ``BENCH_*.json`` record."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


class BenchRecorder:
    """Uniform writer for the repo-root ``BENCH_*.json`` records.

    Every bench module used to hand-roll its own JSON emitter; this
    class owns the shared layout — ``schema`` / ``host`` / ``command``
    header, one key per recorded section, and a ``phases_wall_clock_s``
    block fed by the :meth:`phase` context manager — so the engine and
    injection records stay field-compatible and CI can consume both with
    one parser.

    The first :meth:`write` of a pytest session starts a fresh file
    (a full run never carries sections over from an older snapshot);
    later writes in the same session merge into the existing record.
    """

    def __init__(self, path, command):
        self.path = Path(path)
        self.command = command
        self.phases = {}
        self._sections = set()

    @contextmanager
    def phase(self, name):
        """Record one named phase's wall clock into the shared header."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = round(time.perf_counter() - start, 4)

    def write(self, section, payload):
        """Merge one section (plus the shared header) into the record."""
        data = {}
        if self._sections and self.path.exists():
            try:
                data = json.loads(self.path.read_text())
            except json.JSONDecodeError:
                data = {}
        self._sections.add(section)
        data["schema"] = 1
        data["host"] = bench_host()
        data["command"] = self.command
        if self.phases:
            data.setdefault("phases_wall_clock_s", {}).update(self.phases)
        data[section] = payload
        self.path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def env_float(name, default):
    """Read a float knob from the environment, failing loudly on junk.

    Bench floors are tuned via environment variables on noisy hosts; a
    typo'd value must not silently parse as the default (or crash deep
    inside an assertion with a bare ``ValueError``).  Returns ``default``
    when the variable is unset or empty.
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return float(default)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"${name} must be a number (e.g. '12.5'), got {raw!r}"
        ) from None


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an experiment with one warm round (training is cached)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def timed(fn, *args, repeats=2):
    """Best-of-N wall clock (seconds) to damp scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def timed_interleaved(contenders, repeats=3):
    """Best-of-N wall clock per contender, rounds interleaved.

    Alternating the contenders inside each round keeps slow drift (CPU
    throttling, cgroup scheduling) from biasing whichever side happens to
    run first — the reference host is a shared 2-vCPU runner whose
    neighbours' load moves wall clocks between rounds, so asserted speedup
    floors should always be measured this way.
    """
    best = [float("inf")] * len(contenders)
    for _ in range(repeats):
        for i, fn in enumerate(contenders):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best
