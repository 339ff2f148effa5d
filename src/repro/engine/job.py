"""The units of work of the simulation engine.

:class:`EngineJob` is the scheduling contract: anything with a stable
content hash (:meth:`EngineJob.key`), a submit-time diagnostic
(:meth:`EngineJob.check`), an executor (:meth:`EngineJob.execute`) and a
result (de)serializer can be batched through
:class:`~repro.engine.scheduler.SimEngine`, cached on disk, and fanned
out over worker processes.  Two job kinds ship with the repository:

* :class:`SimJob` (here) — one layer-level reliability simulation;
* :class:`~repro.faults.injection_job.InjectionJob` — one seeded
  fault-injection accuracy campaign (Section V-C).

A job fully specifies its computation in a picklable, content-addressable
form: the same job always produces the same result, bit for bit,
regardless of which backend executes it or on which worker process, which
is what makes the on-disk result cache sound.  For :class:`SimJob` the
backends guarantee this exactly — every backend reduces the same integer
delay histogram through one pricing helper — and the conformance suite
and the differential fuzzer compare every report field with ``==``.

:func:`job_key` derives the cache key: a SHA-256 over a canonical
serialization of every result-affecting field (array bytes and shapes,
plan parameters, corner models, accelerator geometry and timing
coefficients).  Provenance-only fields (``label``) are excluded, so
relabelled jobs still hit the cache.
"""

from __future__ import annotations

import functools
import hashlib
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ..arch.config import AcceleratorConfig
from ..arch.systolic import LayerReliabilityReport
from ..core.pipeline import (
    LayerMappingPlan,
    MappingStrategy,
    check_clustering_request,
    plan_layer,
)
from ..errors import MappingError
from ..hw.variations import PvtaCondition

#: Bump when the cached result layout or simulation semantics change;
#: old cache entries then miss instead of deserializing garbage.
#: v2: corner pricing contracts per-corner rows with an elementwise
#: multiply + pairwise sum instead of one matrix product (TERs move at
#: ulp level, and are now bit-stable across corner-set and network-batch
#: composition).
CACHE_SCHEMA_VERSION = 2

#: Per-process memo of materialized mapping plans (see
#: :meth:`SimJob.build_plan`); bounded LRU so long sweeps cannot grow it
#: without limit.
_PLAN_CACHE: "OrderedDict[str, LayerMappingPlan]" = OrderedDict()
_PLAN_CACHE_MAX = 128


def memoized_key(derive: Callable[[Any], str]) -> Callable[[Any], str]:
    """Decorate a job's ``key`` method so it derives the key once per object.

    Jobs are frozen, so a derived key cannot go stale; the orchestrator
    keys every planned job, and the scheduler reads the same key again
    when the job is submitted.
    """

    @functools.wraps(derive)
    def key(self) -> str:
        value = self.__dict__.get("_key")
        if value is None:
            value = derive(self)
            object.__setattr__(self, "_key", value)
        return value

    return key


class EngineJob(ABC):
    """Abstract unit of engine work: hash, diagnose, execute, (de)serialize.

    Subclasses must be picklable (jobs cross process boundaries) and
    deterministic: ``key()`` must cover every result-affecting field, so
    that equal keys imply bit-identical results on any worker.  ``label``
    (and other provenance-only fields) stay out of the hash.
    """

    #: Kind tag stored alongside cached results (guards deserialization).
    kind: str = ""
    #: Free-form provenance, excluded from the content hash.
    label: str = ""

    @abstractmethod
    def key(self) -> str:
        """Content-addressed cache key (hex SHA-256)."""

    def __getstate__(self) -> Dict[str, Any]:
        """Pickled state, without the memoized key.

        Every process derives keys from its own code: a daemon running
        other code than its client must not file the results it computes
        under the client's keys.
        """
        state = dict(self.__dict__)
        state.pop("_key", None)
        return state

    def check(self) -> None:
        """Submit-time diagnostic run in the submitting process.

        The scheduler calls this for every job — including cache hits and
        jobs that execute in worker processes (whose warnings/raises never
        reach the caller).  Default: nothing to diagnose.
        """

    @abstractmethod
    def execute(self, backend_factory: Callable[[], object]):
        """Compute this job's result.

        ``backend_factory`` builds the engine's configured simulation
        backend; job kinds that do not simulate on the array ignore it.
        """

    @staticmethod
    @abstractmethod
    def serialize_result(result) -> Dict[str, np.ndarray]:
        """Flatten a result into npz-storable arrays for the cache."""

    @staticmethod
    @abstractmethod
    def deserialize_result(data):
        """Inverse of :meth:`serialize_result` (byte-identical round trip)."""

    def describe(self) -> Dict[str, object]:
        """Provenance record for artifact manifests (kind, label, corners)."""
        return {"kind": self.kind, "label": self.label, "corners": self.corner_names()}

    def corner_names(self) -> List[str]:
        """PVTA corners this job evaluates (empty when not corner-indexed)."""
        return []


@dataclass(frozen=True, eq=False)
class SimJob(EngineJob):
    """One layer-level reliability simulation, ready to schedule.

    Attributes
    ----------
    acts:
        ``(n_pixels, C_eff)`` integer activation matrix (im2col rows).
    weights:
        ``(C_eff, K)`` integer weight matrix.
    corners:
        PVTA corners to analyze; one report per corner is produced from a
        single shared simulation pass.
    group_size:
        Output channels per array pass (defaults to ``config.cols``).
    strategy / criteria / cluster_iterations / seed:
        Mapping-plan parameters forwarded to
        :func:`~repro.core.pipeline.plan_layer`.
    config:
        Accelerator instance (geometry, dataflow, timing models).
    pixel_chunk:
        GEMM rows simulated per vectorized block; affects only the
        weight-stationary flip statistics at chunk boundaries, exactly as
        in :class:`~repro.arch.systolic.SystolicArraySimulator`.
    strict:
        Forwarded to :func:`plan_layer`: raise instead of warning when a
        clustering request degrades to contiguous segmentation.
    label:
        Free-form provenance (layer name etc.).  **Not** part of the
        cache key.
    """

    kind = "sim"

    acts: np.ndarray
    weights: np.ndarray
    corners: Tuple[PvtaCondition, ...]
    group_size: int = 0  # 0 -> config.cols
    strategy: MappingStrategy = MappingStrategy.BASELINE
    criteria: str = "sign_first"
    cluster_iterations: int = 30
    seed: int = 0
    config: AcceleratorConfig = field(default_factory=AcceleratorConfig)
    pixel_chunk: int = 32
    strict: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        acts = np.ascontiguousarray(np.asarray(self.acts, dtype=np.int64))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.int64))
        object.__setattr__(self, "acts", acts)
        object.__setattr__(self, "weights", weights)
        if acts.ndim != 2 or weights.ndim != 2:
            raise MappingError("acts and weights must be 2-D matrices")
        if acts.shape[1] != weights.shape[0]:
            raise MappingError(
                f"reduction mismatch: acts {acts.shape} vs weights {weights.shape}"
            )
        strategy = self.strategy
        if isinstance(strategy, str):
            object.__setattr__(self, "strategy", MappingStrategy.from_name(strategy))
        corners = tuple(self.corners)
        object.__setattr__(self, "corners", corners)
        if not corners:
            raise MappingError("need at least one PVTA corner")
        if self.group_size < 0:
            raise MappingError("group_size must be >= 1 (or 0 for config.cols)")
        if self.pixel_chunk < 1:
            raise MappingError("pixel_chunk must be >= 1")

    # ------------------------------------------------------------------ #
    @property
    def resolved_group_size(self) -> int:
        """The effective output-channel group width."""
        return self.group_size or self.config.cols

    def build_plan(self) -> LayerMappingPlan:
        """Materialize (or recall) the mapping plan this job prescribes.

        Plans are memoized per process, keyed by every plan-affecting
        field: re-running a sweep re-plans nothing, and the backends'
        repeated executions of one job (benchmarks, equivalence tests)
        share a single planning pass.  Cached plans are treated as
        immutable by every consumer.  A hit re-runs the degraded-
        clustering diagnostic so warnings stay as loud as a fresh
        :func:`plan_layer` call.
        """
        key = self._plan_key()
        cached = _PLAN_CACHE.get(key)
        if cached is not None:
            _PLAN_CACHE.move_to_end(key)
            self.check_plan(stacklevel=3)
            return cached
        plan = plan_layer(
            self.weights,
            group_size=self.resolved_group_size,
            strategy=self.strategy,
            criteria=self.criteria,
            cluster_iterations=self.cluster_iterations,
            seed=self.seed,
            strict=self.strict,
        )
        _PLAN_CACHE[key] = plan
        if len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
        return plan

    def _plan_key(self) -> str:
        """Content hash of the plan-affecting fields only."""
        h = hashlib.sha256()
        _feed(h, "repro-plan")
        _feed_array(h, "weights", self.weights)
        _feed(
            h,
            self.resolved_group_size,
            self.strategy.value,
            self.criteria,
            self.cluster_iterations,
            self.seed,
            self.strict,
        )
        return h.hexdigest()

    def check_plan(self, stacklevel: int = 3) -> None:
        """Run the planner's degraded-clustering diagnostic without planning.

        The scheduler calls this so a ``strict`` job raises — and a
        non-strict one warns — even when its result is recalled from the
        cache and :meth:`build_plan` never executes.
        """
        check_clustering_request(
            self.weights.shape[1],
            self.resolved_group_size,
            self.strategy,
            strict=self.strict,
            stacklevel=stacklevel,
        )

    def check(self) -> None:
        """Scheduler hook: diagnose degraded clustering when submitting."""
        self.check_plan(stacklevel=4)

    def execute(self, backend_factory: Callable[[], object]):
        """Run this job on the engine's configured simulation backend."""
        return backend_factory().run(self)

    @memoized_key
    def key(self) -> str:
        """Content-addressed cache key (hex SHA-256)."""
        return job_key(self)

    def corner_names(self) -> List[str]:
        return [corner.name for corner in self.corners]

    # ------------------------------------------------------------------ #
    @staticmethod
    def serialize_result(
        result: Dict[str, LayerReliabilityReport]
    ) -> Dict[str, np.ndarray]:
        """Flatten per-corner reports into npz-storable arrays.

        All reports of one job share the outputs matrix (stored once); the
        scalar fields are stored as aligned per-corner vectors.
        """
        if not result:
            raise ValueError("cannot serialize an empty report set")
        ordered = list(result.values())
        first = ordered[0]
        return {
            "corner_names": np.array([r.corner_name for r in ordered]),
            "ter": np.array([r.ter for r in ordered], dtype=np.float64),
            "sign_flip_rate": np.array(
                [r.sign_flip_rate for r in ordered], dtype=np.float64
            ),
            "n_cycles": np.array([r.n_cycles for r in ordered], dtype=np.int64),
            "mean_chain_length": np.array(
                [r.mean_chain_length for r in ordered], dtype=np.float64
            ),
            "n_macs_per_output": np.array(
                [r.n_macs_per_output for r in ordered], dtype=np.int64
            ),
            "strategy": np.array([r.strategy for r in ordered]),
            "outputs": np.asarray(first.outputs, dtype=np.int64),
        }

    @staticmethod
    def deserialize_result(data) -> Dict[str, LayerReliabilityReport]:
        """Inverse of :meth:`serialize_result`; reads each field once.

        ``tolist`` yields the same Python floats/ints/strs as per-element
        ``float()``/``int()``/``str()`` conversion, so the reports are
        bit-identical to the ones that were stored.  ``outputs`` is a
        read-only copy: a stored member is a view of its whole entry's
        bytes, which the reports would otherwise keep alive.
        """
        outputs = np.array(data["outputs"], dtype=np.int64)
        outputs.flags.writeable = False
        columns = zip(
            data["corner_names"].tolist(),
            data["ter"].tolist(),
            data["sign_flip_rate"].tolist(),
            data["n_cycles"].tolist(),
            data["mean_chain_length"].tolist(),
            data["n_macs_per_output"].tolist(),
            data["strategy"].tolist(),
        )
        return {
            name: LayerReliabilityReport(
                ter=ter,
                sign_flip_rate=flip_rate,
                n_cycles=n_cycles,
                mean_chain_length=chain,
                outputs=outputs,
                n_macs_per_output=n_macs,
                strategy=strategy,
                corner_name=name,
            )
            for name, ter, flip_rate, n_cycles, chain, n_macs, strategy in columns
        }


@dataclass(frozen=True, eq=False)
class NetworkJob(EngineJob):
    """A whole network's layer simulations, stacked into one unit of work.

    Wraps an ordered tuple of :class:`SimJob`\\ s (typically every layer
    and conv-group GEMM of one network) so a backend can simulate them
    as shared tiles instead of one Python-level pass per layer — the
    ``vector`` backend's :meth:`~repro.engine.backends.SimulationBackend.
    run_network` stacks all equal-shape width classes across layers into
    one ``(pixels, groups, PEs, cycles)`` fold.

    Cache fan-out contract: the scheduler never caches a ``NetworkJob``
    under its own key.  :meth:`SimEngine.run_many` expands it into its
    member jobs up front, so hits/misses/dedup all happen per
    :class:`SimJob` key — a warm per-layer cache fully satisfies a
    stacked submission, and a stacked run warms the per-layer cache for
    later solo submissions (campaign shard resume included).  The result
    is the list of per-job report dicts, aligned with ``jobs``.
    """

    kind = "network"

    jobs: Tuple[SimJob, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        jobs = tuple(self.jobs)
        object.__setattr__(self, "jobs", jobs)
        if not jobs:
            raise MappingError("NetworkJob needs at least one SimJob")
        for job in jobs:
            if not isinstance(job, SimJob):
                raise MappingError(
                    f"NetworkJob stacks SimJobs only, got {type(job).__name__}"
                )

    @memoized_key
    def key(self) -> str:
        h = hashlib.sha256()
        _feed(h, "repro-networkjob", CACHE_SCHEMA_VERSION, len(self.jobs))
        for job in self.jobs:
            _feed(h, job.key())
        return h.hexdigest()

    def check(self) -> None:
        for job in self.jobs:
            job.check()

    def execute(self, backend_factory: Callable[[], object]):
        """Run the stacked batch on the engine's configured backend."""
        return backend_factory().run_network(list(self.jobs))

    def corner_names(self) -> List[str]:
        names: List[str] = []
        for job in self.jobs:
            for name in job.corner_names():
                if name not in names:
                    names.append(name)
        return names

    # ------------------------------------------------------------------ #
    # (De)serialization exists for completeness — the scheduler's fan-out
    # stores per-SimJob entries, never a stacked one.
    @staticmethod
    def serialize_result(result) -> Dict[str, np.ndarray]:
        arrays: Dict[str, np.ndarray] = {
            "n_jobs": np.array(len(result), dtype=np.int64)
        }
        for i, reports in enumerate(result):
            for key, value in SimJob.serialize_result(reports).items():
                arrays[f"job{i}/{key}"] = value
        return arrays

    @staticmethod
    def deserialize_result(data):
        names = list(data)
        out = []
        for i in range(int(data["n_jobs"])):
            prefix = f"job{i}/"
            sub = {n[len(prefix):]: data[n] for n in names if n.startswith(prefix)}
            out.append(SimJob.deserialize_result(sub))
        return out


# ---------------------------------------------------------------------- #
# Stable hashing
# ---------------------------------------------------------------------- #
def feed_hash(h: "hashlib._Hash", *tokens: object) -> None:
    """Feed ``repr``-serialized tokens into a hash, NUL-separated.

    Shared by every :class:`EngineJob` kind's key derivation so all keys
    use one canonical token encoding.
    """
    _feed(h, *tokens)


def _feed(h: "hashlib._Hash", *tokens: object) -> None:
    for token in tokens:
        h.update(repr(token).encode("utf-8"))
        h.update(b"\x00")


def _feed_array(h: "hashlib._Hash", name: str, arr: np.ndarray) -> None:
    _feed(h, name, arr.dtype.str, arr.shape)
    h.update(np.ascontiguousarray(arr).tobytes())


def _feed_corner(h: "hashlib._Hash", corner: PvtaCondition) -> None:
    _feed(
        h,
        corner.name,
        corner.vt_percent,
        corner.aging_years,
        corner.vt_model.mean_per_percent,
        corner.vt_model.sigma_floor,
        corner.vt_model.sigma_per_percent,
        corner.aging_model.coefficient,
        corner.aging_model.exponent,
        corner.aging_model.sigma_at_10y,
    )


def _feed_config(h: "hashlib._Hash", config: AcceleratorConfig) -> None:
    _feed(
        h,
        config.rows,
        config.cols,
        config.dataflow.value,
        config.sta_margin,
        config.mac.act_width,
        config.mac.weight_width,
        config.mac.psum_width,
        config.mac.act_signed,
        config.delay_model.launch_ps,
        config.delay_model.mult_per_bit_ps,
        config.delay_model.settle_per_bit_ps,
    )


def job_key(job: SimJob) -> str:
    """Stable content hash of every result-affecting field of ``job``.

    Two jobs with equal keys produce bit-identical reports; anything that
    can change an output — operands, plan parameters, corner set and
    order, accelerator/timing configuration, pixel chunking — feeds the
    hash.  ``label`` intentionally does not.
    """
    h = hashlib.sha256()
    _feed(h, "repro-simjob", CACHE_SCHEMA_VERSION)
    _feed_array(h, "acts", job.acts)
    _feed_array(h, "weights", job.weights)
    _feed(
        h,
        job.resolved_group_size,
        job.strategy.value,
        job.criteria,
        job.cluster_iterations,
        job.seed,
        job.pixel_chunk,
        len(job.corners),
    )
    for corner in job.corners:
        _feed_corner(h, corner)
    _feed_config(h, job.config)
    return h.hexdigest()
