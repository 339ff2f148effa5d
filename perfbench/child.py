"""Child-process side of the benchmark: everything that imports ``repro``.

The harness (``run.py``) never imports the package; it starts this file in
a fresh interpreter with ``PYTHONPATH=src``::

    python perfbench/child.py facts
    python perfbench/child.py train vgg16_cifar10 mixer_cifar10
    python perfbench/child.py --trace rec.json train vgg16_cifar10
    python perfbench/child.py --trace rec.json cli all --scale micro --jobs 1

``facts`` prints the interpreter, numpy and BLAS facts as JSON.  ``train``
builds trained-model bundles through ``get_bundle`` (the benchmark's
set-up).  ``cli`` calls ``repro.cli.main`` with the given arguments.

With ``--trace`` the public entry points of the package's modules are
wrapped from outside before the work starts; the package itself is not
changed.  Every wrapped call is a span: its *self* time (inclusive time
minus the traced calls it made) and its call count are summed per layer
name, and some wrappers also count work items (trials, MACs, bytes).
Methods are patched on their class; module functions are rebound at
every module attribute that refers to them, so ``from x import f``
bindings are covered too.  Pool workers are forked from the traced
process and inherit the wrappers; each worker ships the totals of every
job it ran home inside the engine's runtime-counter dict, and the parent
keeps them in a separate ``workers`` block of the record.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Key under which a pool worker's span totals ride home with a result.
_SHIP_KEY = "perfbench_trace"


class Tracer:
    """Per-process span stack plus summed self time, calls and counts."""

    def __init__(self) -> None:
        self.stack: List[list] = []  # open spans: [name, start, child seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.workers = {
            "self_s": defaultdict(float),
            "calls": defaultdict(int),
            "counts": defaultdict(float),
        }
        self.keys_loaded: set = set()

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        elapsed = time.perf_counter() - frame[1]
        self.stack.pop()
        name = frame[0]
        self.self_s[name] += elapsed - frame[2]
        self.incl_s[name] += elapsed
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += elapsed

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def since(self, before: dict) -> dict:
        now = self.snapshot()
        return {
            block: {
                k: v - before[block].get(k, 0)
                for k, v in values.items()
                if v != before[block].get(k, 0)
            }
            for block, values in now.items()
        }

    def absorb_worker(self, delta: dict) -> None:
        for block, values in delta.items():
            for k, v in values.items():
                self.workers[block][k] += v

    def record(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "keys_loaded": len(self.keys_loaded),
            "workers": {block: dict(v) for block, v in self.workers.items()},
        }


TRACER = Tracer()


def _spanned(name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped as a span; ``after(args, kwargs, result)`` counts work."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = TRACER.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            TRACER.leave(frame)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _span(name: str, after: Optional[Callable] = None) -> Callable[[Callable], Callable]:
    return lambda fn: _spanned(name, fn, after)


def _patch_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``cls.attr`` (plain or static method) by ``make(original)``."""
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _patch_function(module_name: str, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Rebind a module function at every ``repro`` module attribute naming it."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = make(original)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_trials(name: str) -> Callable:
    def after(args, kwargs, result):
        TRACER.count(name, len(_arg(args, kwargs, 3, "injectors")))

    return after


def _after_load(args, kwargs, result):
    TRACER.keys_loaded.add(_arg(args, kwargs, 1, "key"))
    if result is None:
        TRACER.count("engine.cache.load_misses")


def _after_store(args, kwargs, result):
    TRACER.count("engine.cache.bytes_stored", os.stat(result).st_size)


def _after_vector(args, kwargs, result):
    jobs = _arg(args, kwargs, 1, "jobs")
    TRACER.count("engine.vector.jobs", len(jobs))
    TRACER.count(
        "engine.vector.macs",
        sum(j.acts.shape[0] * j.acts.shape[1] * j.weights.shape[1] for j in jobs),
    )


def _after_publish(args, kwargs, result):
    if result:
        arrays = _arg(args, kwargs, 2, "arrays")
        TRACER.count("engine.arena.bytes", sum(a.nbytes for a in arrays.values()))


def _count_memo_hits(fn: Callable) -> Callable:
    """A plan memo hit is a ``build_plan`` call that reached no ``plan_layer``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = TRACER.calls["core.plan"]
        result = fn(*args, **kwargs)
        if TRACER.calls["core.plan"] == before:
            TRACER.count("core.plan_memo_hits")
        return result

    return wrapper


def _ship_worker_totals(fn: Callable) -> Callable:
    """Pool-worker side: return this job's span totals with its counters."""

    @functools.wraps(fn)
    def wrapper(factory, job):
        # Spans the parent had open when it forked this worker never
        # close here; the job's spans start from an empty stack.
        saved, TRACER.stack = TRACER.stack, []
        before = TRACER.snapshot()
        try:
            result, counters = fn(factory, job)
        finally:
            TRACER.stack = saved
        counters = dict(counters)
        counters[_SHIP_KEY] = TRACER.since(before)
        return result, counters

    return wrapper


def _absorb_worker_totals(fn: Callable) -> Callable:
    """Parent side: fold shipped worker totals into the ``workers`` block."""

    @functools.wraps(fn)
    def wrapper(self, delta):
        if delta and _SHIP_KEY in delta:
            delta = dict(delta)
            TRACER.absorb_worker(delta.pop(_SHIP_KEY))
        return fn(self, delta)

    return wrapper


def install() -> None:
    """Wrap the layer entry points of an imported ``repro`` package."""
    from repro.engine import arena, cache, job, scheduler, vector
    from repro.experiments import RUNNERS
    from repro.faults import injection, injection_job
    from repro.nn import quantize, training

    methods = [
        (training.Trainer, "fit", _span("nn.fit")),
        (training.Trainer, "evaluate", _span("nn.float_eval")),
        (quantize.QuantizedNetwork, "calibrate", _span("nn.calibrate")),
        (quantize.QuantizedTokenNetwork, "calibrate", _span("nn.calibrate")),
        (quantize.QuantizedNetwork, "evaluate", _span("nn.qeval")),
        (quantize.QuantizedNetwork, "fault_free_pass", _span("nn.fault_free_pass")),
        (quantize.QuantizedTokenNetwork, "fault_free_pass", _span("nn.fault_free_pass")),
        (quantize.QuantizedNetwork, "evaluate_trials",
         _span("nn.trials", _count_trials("nn.trials"))),
        (quantize.QuantizedTokenNetwork, "evaluate_trials",
         _span("nn.token_trials", _count_trials("nn.token_trials"))),
        (scheduler.SimEngine, "run_many", _span("engine.scheduler")),
        (scheduler.SimEngine, "run_stream", _span("engine.scheduler")),
        (scheduler.SimEngine, "_merge_counters", _absorb_worker_totals),
        (cache.ResultCache, "load", _span("engine.cache.load", _after_load)),
        (cache.ResultCache, "store", _span("engine.cache.store", _after_store)),
        (job.SimJob, "deserialize_result", _span("engine.cache.deserialize")),
        (injection_job.InjectionJob, "deserialize_result", _span("engine.cache.deserialize")),
        (injection_job.InjectionShard, "deserialize_result", _span("engine.cache.deserialize")),
        (job.SimJob, "key", _span("engine.job.key")),
        (job.NetworkJob, "key", _span("engine.job.key")),
        (injection_job.InjectionJob, "key", _span("engine.job.key")),
        (injection_job.InjectionShard, "key", _span("engine.job.key")),
        (job.SimJob, "build_plan", _count_memo_hits),
        (vector.VectorBackend, "run_network", _span("engine.vector", _after_vector)),
        (injection_job.InjectionJob, "execute_range", _span("faults.inject")),
        (injection.BitFlipInjector, "flip_plan", _span("faults.flip_plan")),
        (arena.OperandArena, "publish", _span("engine.arena", _after_publish)),
        (arena.OperandArena, "attach", _span("engine.arena")),
    ]
    for cls, attr, make in methods:
        _patch_method(cls, attr, make)

    functions = [
        ("repro.experiments.common", "get_bundle", _span("experiments.get_bundle")),
        ("repro.experiments.common", "record_operand_streams", _span("experiments.record")),
        ("repro.core.pipeline", "plan_layer", _span("core.plan")),
        ("repro.hw.dta", "histogram_expected_errors_many", _span("hw.price")),
        ("repro.engine.scheduler", "_execute_job", _ship_worker_totals),
    ]
    for module_name, attr, make in functions:
        _patch_function(module_name, attr, make)

    # The orchestrator and the CLI look runner entry points up on the
    # runner module at call time.
    for module in RUNNERS.values():
        for attr, name in (
            ("plan", "experiments.plan"),
            ("plan_injections", "experiments.plan"),
            ("run", "experiments.render"),
            ("render", "experiments.render"),
        ):
            if hasattr(module, attr):
                setattr(module, attr, _spanned(name, getattr(module, attr)))


def _facts() -> dict:
    import importlib.util

    import numpy as np

    facts = {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "repro_file": importlib.util.find_spec("repro").origin,
    }
    try:
        facts["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        facts["blas"] = "unknown"
    try:
        from threadpoolctl import threadpool_info

        facts["blas_threads"] = [
            {k: info.get(k) for k in ("internal_api", "version", "num_threads")}
            for info in threadpool_info()
        ]
    except ImportError:
        facts["blas_threads"] = "library default (threadpoolctl not installed)"
    return facts


def _train(recipes: List[str]) -> int:
    from repro.experiments import get_bundle, get_scale

    scale = get_scale("micro")
    for recipe in recipes:
        get_bundle(recipe, scale)
    return 0


def main(argv: List[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    if mode == "facts":
        print(json.dumps(_facts()))
        return 0
    if mode not in ("train", "cli"):
        raise SystemExit(f"unknown mode {mode!r}")

    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    if trace_path is not None:
        install()
    try:
        return _train(rest) if mode == "train" else repro.cli.main(rest)
    finally:
        if trace_path is not None:
            record = TRACER.record()
            record["import_s"] = import_s
            with open(trace_path, "w") as handle:
                json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
