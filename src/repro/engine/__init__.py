"""Batched multi-backend simulation engine with an on-disk result cache.

The engine turns the paper's serial per-figure simulation loops into one
schedulable workload: experiments describe their measurements as
:class:`SimJob`\\ s, and :class:`SimEngine` executes them on a selectable
backend (the whole-network ``vector`` default, or the cycle-behavioural
``reference`` that defines correctness — conformance-tested
bit-identical; ``benchmarks/test_bench_engine.py`` records the speedup),
stacks whole networks of layer jobs into single
:class:`NetworkJob` folds, fans cache-missing jobs out over worker
processes, and memoizes every result on disk keyed by a content hash of
the job spec.  A resident daemon (``read-repro serve`` /
:class:`EngineServer`) keeps one warm engine behind a Unix socket and
coalesces identical submissions across clients; setting
``$REPRO_ENGINE_SOCKET`` routes any engine's batches through it.
See ``docs/engine.md`` for the full tour.

Quickstart::

    from repro.engine import SimEngine, SimJob
    from repro.hw.variations import PAPER_CORNERS

    engine = SimEngine(backend="vector", jobs=4)
    reports = engine.run(SimJob(acts=acts, weights=weights,
                                corners=PAPER_CORNERS,
                                strategy="cluster_then_reorder"))
    reports["Aging&VT-5%"].ter
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "backends": (
            "ReferenceBackend",
            "SimulationBackend",
            "VectorBackend",
            "backend_factory",
            "backend_names",
            "get_backend",
            "register_backend",
        ),
        "cache": (
            "CACHE_ENV_VAR",
            "CACHE_MAX_BYTES_ENV_VAR",
            "CacheGcReport",
            "CacheStats",
            "ResultCache",
            "cache_root",
        ),
        "client": (
            "EngineClient",
            "EngineClientError",
        ),
        "job": (
            "CACHE_SCHEMA_VERSION",
            "EngineJob",
            "NetworkJob",
            "SimJob",
            "feed_hash",
            "job_key",
        ),
        "protocol": (
            "PROTOCOL_VERSION",
            "ProtocolError",
        ),
        "scheduler": (
            "ENGINE_SOCKET_ENV",
            "EngineMetrics",
            "EngineStats",
            "SimEngine",
            "configure_default_engine",
            "default_engine",
            "engine_context",
            "reset_default_engine",
        ),
        "server": (
            "EngineServer",
            "serve",
        ),
    },
)
