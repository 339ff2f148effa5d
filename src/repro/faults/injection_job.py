"""The engine's second job kind: one seeded fault-injection campaign.

An :class:`InjectionJob` specifies one cell of the paper's Section V-C
accuracy study — a trained network recipe, a per-layer BER table (from
Eq. 1 at one strategy x corner), and a block of trial seeds — and
produces the per-trial top-k accuracies.  Like
:class:`~repro.engine.job.SimJob` it is picklable and content-addressed,
so fig10/fig11-style campaigns share the engine's process pool and
on-disk result cache with the layer-TER simulations.

Campaigns execute on the trial-batched runtime by default: all
``n_trials`` repetitions in one stacked forward pass over the shared
fault-free prefix, in which bit-identical trials share work and trials
whose faults are masked drop out — see :func:`run_injection_trials` and
:meth:`repro.nn.quantize.QuantizedNetwork.evaluate_trials`.  The serial
reference loop remains available via ``runtime="serial"`` /
``$REPRO_INJECTION_RUNTIME``; the two are bit-identical by contract.

Determinism is the load-bearing property: a worker process rebuilds the
trained bundle via :func:`repro.experiments.common.get_bundle` (which
loads the exact parameter snapshot the submitting process trained) and
replays :func:`run_injection_trials` with seeds derived only from the job
spec — so the same (job, seed) pair yields bit-identical trial accuracies
whether it runs inline, on a pool worker, from the cache, batched or
serial, at any batch size.  The regression suites in
``tests/test_injection_job.py`` and ``tests/test_injection_runtime.py``
enforce this.

The trained network is *not* shipped in the job: the spec carries the
(recipe, scale, seed) triple that determines it, keeping jobs cheap to
pickle and the hash honest — any field that could change the trained
weights (training set size, epochs, width, seeds) feeds the key.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..engine.job import EngineJob, feed_hash, memoized_key
from ..errors import ConfigurationError
from ..nn.quantize import FaultFreePass, TrialBatchStats, canonical_bits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see execute())
    from ..experiments.common import ExperimentScale
    from ..nn.quantize import QuantizedNetwork

#: Bump when the trial protocol or the cached result layout changes.
#: v2: per-(trial, layer) RNG substreams + full-batch active-MSB windows
#: (the trial-batched runtime's determinism contract) replaced the v1
#: single-stream, per-chunk-MSB protocol.
#: v3: the classifier head is lowered to a quantized 1x1 conv (it now
#: participates in campaigns and shifts every accuracy), and per-layer
#: mixed-precision bit widths (``bits`` / ``default_bits``) feed the key.
#: v4: columnar trial-level payloads (:class:`InjectionResult` carries
#: per-trial exact correct counts + the evaluated image count) and the
#: shard protocol (:class:`InjectionShard`: any ``[trial_lo, trial_hi)``
#: sub-range of a campaign is independently executable and
#: content-addressed *without* the campaign's total trial count, so a
#: larger budget re-uses every shard already computed).
INJECTION_SCHEMA_VERSION = 4

#: Execution strategies for the repeated trials (see :func:`injection_runtime`).
INJECTION_RUNTIMES = ("batched", "serial")

#: Per-process memo of fault-free passes (the batched runtime's operand
#: cache): repeated cells of a fig10/fig11 grid — same bundle, different
#: BER tables — share one recorded pass instead of each re-running the
#: quantized im2col prefix.  Keyed by the bundle identity + injected
#: slice; LRU bounded both by entry count and by total bytes (each pass
#: pins every conv's accumulators, which grow with ``inject_n`` — see
#: :meth:`~repro.nn.quantize.FaultFreePass.nbytes`).
_PASS_CACHE: "OrderedDict[Tuple, FaultFreePass]" = OrderedDict()
_PASS_CACHE_MAX = 4
_PASS_CACHE_MAX_BYTES = 1 << 29  # 512 MB per worker process

#: Per-process memo of serial-path active-MSB tables (same key space).
_MSB_CACHE: "OrderedDict[Tuple, Dict[str, int]]" = OrderedDict()
_MSB_CACHE_MAX = 32

#: Per-process work-avoidance counters of the lanes runtime.  Accumulated
#: here (the execution layer), drained by the scheduler into
#: :class:`~repro.engine.scheduler.EngineMetrics` — pool workers drain
#: after each job and ship the deltas home with the result.
_RUNTIME_COUNTERS: Dict[str, int] = {}

_RUNTIME_COUNTER_FIELDS = ("trials_deduped",)


def record_runtime_counters(**deltas: int) -> None:
    """Accumulate trial-dedup events in this process."""
    for name, value in deltas.items():
        if name not in _RUNTIME_COUNTER_FIELDS:
            raise ConfigurationError(f"unknown runtime counter {name!r}")
        if value:
            _RUNTIME_COUNTERS[name] = _RUNTIME_COUNTERS.get(name, 0) + int(value)


def drain_runtime_counters() -> Dict[str, int]:
    """Return and reset this process's accumulated runtime counters."""
    drained = dict(_RUNTIME_COUNTERS)
    _RUNTIME_COUNTERS.clear()
    return drained


def injection_runtime(explicit: Optional[str] = None) -> str:
    """Resolve the trial execution strategy.

    Priority: explicit argument (e.g. a job's ``runtime`` field) >
    ``$REPRO_INJECTION_RUNTIME`` > ``"batched"``.  Both runtimes are
    bit-identical by contract (enforced by the test suite), so the
    choice — like the engine's simulation backend — never feeds a cache
    key; ``"serial"`` is the reference escape hatch.
    """
    name = explicit or os.environ.get("REPRO_INJECTION_RUNTIME") or "batched"
    if name not in INJECTION_RUNTIMES:
        raise ConfigurationError(
            f"unknown injection runtime {name!r}; expected one of {INJECTION_RUNTIMES}"
        )
    return name


#: Environment state before the first CLI configure, so a later
#: ``configure_injection_runtime(None)`` restores it instead of leaking
#: the previous invocation's flag into flag-less runs.
_ENV_BEFORE_CONFIGURE: Optional[Tuple[bool, str]] = None


def configure_injection_runtime(name: Optional[str]) -> str:
    """Install a process-wide runtime choice (the CLI flag lands here).

    Exported via the environment so engine worker processes inherit it —
    the scheduler's pools are forked from the configuring process.
    ``None`` (no flag) undoes any earlier in-process configure, restoring
    whatever ``$REPRO_INJECTION_RUNTIME`` the user launched with.
    """
    global _ENV_BEFORE_CONFIGURE
    var = "REPRO_INJECTION_RUNTIME"
    if name is None:
        if _ENV_BEFORE_CONFIGURE is not None:
            was_set, old = _ENV_BEFORE_CONFIGURE
            if was_set:
                os.environ[var] = old
            else:
                os.environ.pop(var, None)
            _ENV_BEFORE_CONFIGURE = None
        return injection_runtime()
    resolved = injection_runtime(name)
    if _ENV_BEFORE_CONFIGURE is None:
        _ENV_BEFORE_CONFIGURE = (var in os.environ, os.environ.get(var, ""))
    os.environ[var] = resolved
    return resolved


def _lru_get(cache: OrderedDict, key, build, max_entries: int):
    hit = cache.get(key)
    if hit is not None:
        cache.move_to_end(key)
        return hit
    value = build()
    cache[key] = value
    if len(cache) > max_entries:
        cache.popitem(last=False)
    return value


def _pass_cache_get(key: Tuple, build) -> "FaultFreePass":
    """LRU lookup for fault-free passes, evicting on entries *and* bytes.

    The freshest pass is always retained even if it alone exceeds the
    byte budget — callers need the value they just built.
    """
    value = _lru_get(_PASS_CACHE, key, build, _PASS_CACHE_MAX)
    while (
        len(_PASS_CACHE) > 1
        and sum(p.nbytes() for p in _PASS_CACHE.values()) > _PASS_CACHE_MAX_BYTES
    ):
        _PASS_CACHE.popitem(last=False)
    return value


#: Scale fields that determine the trained bundle and hence the result.
_SCALE_FIELDS = (
    "name", "n_train", "n_test", "epochs", "width",
    "ter_pixels", "ter_images", "inject_n", "n_trials",
)


def trial_seed(base_seed: int, trial: int) -> int:
    """Seed of one repeated injection trial (the paper's 5 repetitions).

    Pure function of the job spec — never of process or pool state — so
    trial streams are reproducible across ``--jobs`` settings.  This is
    also the shard/resume contract: trial ``t`` of a campaign draws the
    same stream whether it runs in the monolithic job or inside any
    ``[trial_lo, trial_hi)`` shard covering ``t`` (pinned by a regression
    test — changing this function invalidates every cached campaign).
    """
    return base_seed + 1000 * trial + 17


def _validate_base_seed(base_seed: object) -> int:
    """Uniform seed-block validation shared by jobs and the trial runner.

    ``bool`` is rejected explicitly (it is an ``int`` subclass but a
    ``base_seed=True`` is always a bug); the range keeps every derived
    ``trial_seed`` inside the deterministic 64-bit regime.
    """
    if isinstance(base_seed, bool) or not isinstance(base_seed, (int, np.integer)):
        raise ConfigurationError(
            f"base_seed must be an integer, got {type(base_seed).__name__}"
        )
    seed = int(base_seed)
    if not 0 <= seed < 2**32:
        raise ConfigurationError(f"base_seed {seed} outside [0, 2**32)")
    return seed


@dataclass(frozen=True)
class InjectionResult:
    """Per-trial results of one campaign or shard (the cacheable payload).

    Columnar since schema v4: alongside the float accuracies it carries
    the *exact* per-trial correct counts and the evaluated image count —
    the integer domain in which shard summaries merge bit-identically
    (see :mod:`repro.faults.aggregate`).  Every accuracy is the exact
    ratio ``correct / n_images``.
    """

    trial_accuracies: Tuple[float, ...]
    flips_injected: int = 0
    trial_correct: Tuple[int, ...] = ()
    n_images: int = 0

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.trial_accuracies))

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.trial_accuracies))


def _with_counts(
    accuracies: Sequence[float], flips: int, n_images: int
) -> InjectionResult:
    """Package trial accuracies plus their exact integer counts.

    ``evaluate``/``evaluate_trials`` return exact count ratios, so
    rounding ``accuracy * n_images`` recovers the integer correct count
    bit-exactly (float64 has ample headroom at any supported
    ``inject_n``).
    """
    counts = tuple(int(round(a * n_images)) for a in accuracies)
    return InjectionResult(
        trial_accuracies=tuple(accuracies),
        flips_injected=flips,
        trial_correct=counts,
        n_images=n_images,
    )


def merge_results(results: Sequence[InjectionResult]) -> InjectionResult:
    """Concatenate shard results back into one campaign result.

    Callers pass shards in trial order; trial tuples concatenate and the
    integer fields add, so merging any partition of ``[0, n_trials)``
    reproduces the monolithic :class:`InjectionJob` result bit for bit
    (enforced by the partition property tests).
    """
    if not results:
        raise ConfigurationError("merge_results needs at least one shard result")
    n_images = {r.n_images for r in results}
    if len(n_images) != 1:
        raise ConfigurationError(
            f"shard results evaluate different image counts: {sorted(n_images)}"
        )
    return InjectionResult(
        trial_accuracies=tuple(a for r in results for a in r.trial_accuracies),
        flips_injected=sum(r.flips_injected for r in results),
        trial_correct=tuple(c for r in results for c in r.trial_correct),
        n_images=n_images.pop(),
    )


def _pass_msbs(
    prefix: "FaultFreePass", relative_window: int
) -> Dict[str, int]:
    """Active-MSB table read off a recorded fault-free pass."""
    from .injection import active_msb_from_max

    return {
        name: active_msb_from_max(peak, relative_window)
        for name, peak in prefix.max_abs_acc.items()
    }


def run_injection_trials(
    network: "QuantizedNetwork",
    x: np.ndarray,
    y: np.ndarray,
    ber_per_layer: Mapping[str, float],
    *,
    n_trials: int,
    base_seed: int = 0,
    trial_offset: int = 0,
    topk: int = 1,
    batch_size: int = 128,
    mode: str = "relative",
    relative_window: int = 3,
    bit_low: int = 20,
    bit_high: int = 23,
    runtime: Optional[str] = None,
    prefix: Optional["FaultFreePass"] = None,
    msb_per_layer: Optional[Dict[str, int]] = None,
) -> InjectionResult:
    """The repeated-seeded-trial primitive every injection path shares.

    A BER table that is empty or all-zero short-circuits to a single
    fault-free run (the *Ideal* corner).  Otherwise the campaign runs on
    one of two bit-identical runtimes (see :func:`injection_runtime`):

    * ``batched`` (default) — the lanes walk of
      :meth:`~repro.nn.quantize.QuantizedNetwork.evaluate_trials`: all
      ``n_trials`` repetitions in one stacked forward pass.  Every trial
      starts on the shared fault-free prefix and forks from the
      recorded accumulators at its first effective flip.  Trials whose
      flip draws are byte-identical collapse into one representative,
      and a zero-flip draw keeps a trial on the fault-free lane; both
      dedup events feed the engine's ``trials_deduped`` counter.
    * ``serial`` — the reference loop: one
      :class:`BitFlipInjector`, re-seeded per trial with
      :func:`trial_seed`, driving ``n_trials`` chunked int64 forwards —
      exactly the paper's protocol, unoptimized.

    ``trial_offset`` selects the absolute trial block ``[trial_offset,
    trial_offset + n_trials)`` of the seed stream: trial ``i`` of the
    call runs at ``trial_seed(base_seed, trial_offset + i)``, which is
    what makes any contiguous sub-range of a campaign independently
    reproducible (the :class:`InjectionShard` contract).

    Relative-mode flip windows come from the full-batch fault-free
    active-MSB table in both runtimes (``prefix`` / ``msb_per_layer``
    let callers share a precomputed one).
    """
    if n_trials < 1:
        raise ConfigurationError("n_trials must be >= 1")
    if trial_offset < 0:
        raise ConfigurationError(f"trial_offset must be >= 0, got {trial_offset}")
    base_seed = _validate_base_seed(base_seed)
    n_images = int(x.shape[0])
    bers = dict(ber_per_layer)
    if not bers or all(b == 0.0 for b in bers.values()):
        acc = network.evaluate(x, y, topk=topk, batch_size=batch_size)
        return _with_counts([acc], 0, n_images)
    # The injector loads only for a run that flips bits.
    from .injection import BitFlipInjector, measure_active_msbs

    resolved = injection_runtime(runtime)
    if resolved == "batched":
        if prefix is None:
            prefix = network.fault_free_pass(x)
        if mode == "relative" and msb_per_layer is None:
            msb_per_layer = _pass_msbs(prefix, relative_window)
        injectors = [
            BitFlipInjector(
                ber_per_layer=bers,
                mode=mode,
                relative_window=relative_window,
                bit_low=bit_low,
                bit_high=bit_high,
                seed=trial_seed(base_seed, trial_offset + trial),
                msb_per_layer=msb_per_layer,
            )
            for trial in range(n_trials)
        ]
        stats = TrialBatchStats()
        accuracies = network.evaluate_trials(
            x, y, injectors, topk=topk, batch_size=batch_size, prefix=prefix,
            stats=stats,
        )
        record_runtime_counters(trials_deduped=stats.deduped)
        flips = sum(inj.flips_injected for inj in injectors)
        return _with_counts(accuracies, flips, n_images)

    if mode == "relative" and msb_per_layer is None:
        msb_per_layer = (
            _pass_msbs(prefix, relative_window)
            if prefix is not None
            else measure_active_msbs(
                network, x, relative_window=relative_window, batch_size=batch_size
            )
        )
    injector = BitFlipInjector(
        ber_per_layer=bers,
        mode=mode,
        relative_window=relative_window,
        bit_low=bit_low,
        bit_high=bit_high,
        msb_per_layer=msb_per_layer,
    )
    accuracies = []
    flips = 0
    for trial in range(n_trials):
        injector.reseed(trial_seed(base_seed, trial_offset + trial))
        accuracies.append(
            network.evaluate(x, y, topk=topk, batch_size=batch_size, injector=injector)
        )
        flips += injector.flips_injected
    return _with_counts(accuracies, flips, n_images)


@dataclass(frozen=True, eq=False)
class InjectionJob(EngineJob):
    """One (network, BER table, seed block) accuracy campaign, schedulable.

    Attributes
    ----------
    recipe:
        Model/dataset combination name (see
        :data:`repro.experiments.common.MODEL_RECIPES`).
    scale:
        The :class:`~repro.experiments.common.ExperimentScale` that sized
        the training run; every field feeds the content hash because the
        trained weights (and the test set) depend on them.
    bers:
        Per-layer output BER table, stored as a layer-name-sorted tuple of
        ``(layer, ber)`` pairs (a dict is accepted and normalized).
    inject_n:
        Test images injected (the paper uses one batch of 128).
    n_trials / base_seed:
        The seed block: trials run at ``trial_seed(base_seed, t)``.
    topk / batch_size:
        Evaluation protocol (Fig. 10 uses top-1, Fig. 11 top-3).
    mode / relative_window / bit_low / bit_high:
        :class:`BitFlipInjector` configuration.
    bundle_seed:
        Training/dataset seed forwarded to ``get_bundle``.
    bits / default_bits:
        Per-layer mixed-precision quantization (layer-name-sorted tuple
        of ``(layer, n_bits)`` pairs; a dict is accepted and
        normalized) and the width applied to unlisted layers.  Both
        feed the content hash — they select a different quantized
        network over the same trained float parameters.
    runtime:
        Trial execution strategy override (``"batched"``/``"serial"``;
        empty defers to :func:`injection_runtime`).  **Not** hashed: both
        runtimes are bit-identical by contract — the equivalence suite is
        what licenses either to fill the cache for both, exactly like the
        engine's backend field on :class:`~repro.engine.job.SimJob`.
    corner / label:
        Provenance (PVTA corner name, free-form tag).  **Not** hashed.
    """

    kind = "injection"

    recipe: str
    scale: "ExperimentScale"
    bers: Union[Mapping[str, float], Tuple[Tuple[str, float], ...]]
    inject_n: int
    n_trials: int
    topk: int = 1
    base_seed: int = 0
    batch_size: int = 128
    mode: str = "relative"
    relative_window: int = 3
    bit_low: int = 20
    bit_high: int = 23
    bundle_seed: int = 0
    bits: Union[Mapping[str, int], Tuple[Tuple[str, int], ...]] = ()
    default_bits: int = 8
    runtime: str = ""
    corner: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        bers = self.bers
        if isinstance(bers, Mapping):
            bers = tuple(sorted((str(k), float(v)) for k, v in bers.items()))
        else:
            bers = tuple(sorted((str(k), float(v)) for k, v in bers))
        object.__setattr__(self, "bers", bers)
        if not 2 <= self.default_bits <= 16:
            raise ConfigurationError(f"default_bits {self.default_bits} outside [2, 16]")
        bits = canonical_bits(self.bits, self.default_bits)
        for name, n_bits in bits:
            if not 2 <= n_bits <= 16:
                raise ConfigurationError(f"layer {name}: n_bits {n_bits} outside [2, 16]")
        object.__setattr__(self, "bits", bits)
        for name, ber in bers:
            if not 0.0 <= ber <= 1.0:
                raise ConfigurationError(f"layer {name}: BER {ber} outside [0, 1]")
        if self.inject_n < 1:
            raise ConfigurationError("inject_n must be >= 1")
        if self.n_trials < 1:
            raise ConfigurationError("n_trials must be >= 1")
        _validate_base_seed(self.base_seed)
        if self.topk < 1:
            raise ConfigurationError("topk must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        for fld in _SCALE_FIELDS:
            if not hasattr(self.scale, fld):
                raise ConfigurationError(
                    f"scale must be an ExperimentScale (missing field {fld!r})"
                )
        if self.inject_n > self.scale.n_test:
            raise ConfigurationError(
                f"inject_n {self.inject_n} exceeds the scale's n_test {self.scale.n_test}"
            )
        if self.mode not in ("relative", "absolute"):
            raise ConfigurationError("mode must be 'relative' or 'absolute'")
        if self.runtime:
            injection_runtime(self.runtime)  # validate eagerly

    # ------------------------------------------------------------------ #
    def ber_table(self) -> Dict[str, float]:
        """The BER table as a plain dict (for reporting)."""
        return dict(self.bers)

    def _feed_spec(self, h) -> None:
        """Feed every result-determining field *except* ``n_trials``.

        Shared by :meth:`key` and :meth:`InjectionShard.key`: a shard's
        identity is the campaign spec plus its ``[trial_lo, trial_hi)``
        range — deliberately independent of the campaign's total trial
        budget, so raising ``--max-trials`` re-uses every shard already
        in the cache.
        """
        feed_hash(h, self.recipe, self.bundle_seed)
        feed_hash(h, *(getattr(self.scale, fld) for fld in _SCALE_FIELDS))
        for name, ber in self.bers:
            feed_hash(h, name, ber)
        feed_hash(h, self.default_bits, len(self.bits))
        for name, n_bits in self.bits:
            feed_hash(h, name, n_bits)
        feed_hash(
            h,
            self.inject_n,
            self.topk,
            self.base_seed,
            self.batch_size,
            self.mode,
            self.relative_window,
            self.bit_low,
            self.bit_high,
        )

    @memoized_key
    def key(self) -> str:
        h = hashlib.sha256()
        feed_hash(h, "repro-injectionjob", INJECTION_SCHEMA_VERSION)
        self._feed_spec(h)
        feed_hash(h, self.n_trials)
        return h.hexdigest()

    def _cache_identity(self) -> Tuple:
        """Key of the per-process operand caches (bundle + injected slice)."""
        return (
            self.recipe,
            self.scale.name,
            self.bundle_seed,
            self.bits,
            self.default_bits,
            self.inject_n,
        )

    def execute_range(self, trial_lo: int, trial_hi: int) -> InjectionResult:
        """Rebuild the trained bundle and replay trials ``[lo, hi)``.

        The shared body of :meth:`execute` (the full campaign) and
        :meth:`InjectionShard.execute` (one sub-range): trial ``t`` runs
        at ``trial_seed(base_seed, t)`` either way, so shard results
        concatenate bit-identically into the monolithic result.

        Repeated jobs on one bundle amortize their shared work inside the
        executing process: ``get_bundle`` memoizes the rebuilt
        :class:`~repro.experiments.common.TrainedBundle` per
        (recipe, scale, seed) — so a grid of InjectionJobs re-loads and
        re-quantizes the network once per worker, not once per job — and
        the fault-free operand pass / active-MSB table are LRU-memoized
        here the way :meth:`repro.engine.job.SimJob.build_plan` memoizes
        mapping plans.  Imported lazily: the experiments package imports
        the faults package at module level, so the reverse import must
        happen at call time.
        """
        if not 0 <= trial_lo < trial_hi:
            raise ConfigurationError(
                f"trial range [{trial_lo}, {trial_hi}) is empty or negative"
            )
        from ..experiments.common import get_bundle

        bundle = get_bundle(
            self.recipe,
            self.scale,
            seed=self.bundle_seed,
            bits_per_layer=self.bits,
            default_bits=self.default_bits,
        )
        x, y = bundle.test_images(self.inject_n)
        resolved = injection_runtime(self.runtime)
        prefix = None
        msbs = None
        bers = self.ber_table()
        if bers and any(b > 0.0 for b in bers.values()):
            key = self._cache_identity()
            if resolved == "batched":
                prefix = _pass_cache_get(key, lambda: bundle.qnet.fault_free_pass(x))
            elif self.mode == "relative":
                from .injection import measure_active_msbs

                msbs = _lru_get(
                    _MSB_CACHE,
                    key + (self.relative_window,),
                    lambda: measure_active_msbs(
                        bundle.qnet,
                        x,
                        relative_window=self.relative_window,
                        batch_size=self.batch_size,
                    ),
                    _MSB_CACHE_MAX,
                )
        return run_injection_trials(
            bundle.qnet,
            x,
            y,
            bers,
            n_trials=trial_hi - trial_lo,
            base_seed=self.base_seed,
            trial_offset=trial_lo,
            topk=self.topk,
            batch_size=self.batch_size,
            mode=self.mode,
            relative_window=self.relative_window,
            bit_low=self.bit_low,
            bit_high=self.bit_high,
            runtime=resolved,
            prefix=prefix,
            msb_per_layer=msbs,
        )

    def execute(self, backend_factory=None) -> InjectionResult:
        """Replay the full seeded campaign (trials ``[0, n_trials)``).

        ``backend_factory`` is ignored — injection runs network-level
        inference, not array simulation.
        """
        return self.execute_range(0, self.n_trials)

    def corner_names(self) -> List[str]:
        return [self.corner] if self.corner else []

    # ------------------------------------------------------------------ #
    @staticmethod
    def serialize_result(result: InjectionResult) -> Dict[str, np.ndarray]:
        """Columnar npz payload (schema v4): packed integer arrays only.

        The float accuracies are *not* stored: every one is the exact
        ratio ``trial_correct / n_images`` (the evaluators compute them
        as exactly that division), so :meth:`deserialize_result`
        reconstructs them bit-identically from the integer columns.
        Entries shrink to three integer arrays and warm loads skip a
        redundant float column — without a schema bump, because the
        reconstructed result is indistinguishable from the stored one.
        """
        return {
            "flips_injected": np.asarray(result.flips_injected, dtype=np.int64),
            "trial_correct": np.asarray(result.trial_correct, dtype=np.int64),
            "n_images": np.asarray(result.n_images, dtype=np.int64),
        }

    @staticmethod
    def deserialize_result(data) -> InjectionResult:
        n_images = int(data["n_images"])
        correct = tuple(int(c) for c in data["trial_correct"])
        if "trial_accuracies" in data:
            # Entry written before the integer-only payload slimming.
            accuracies = tuple(float(a) for a in data["trial_accuracies"])
        else:
            accuracies = tuple(c / n_images for c in correct)
        return InjectionResult(
            trial_accuracies=accuracies,
            flips_injected=int(data["flips_injected"]),
            trial_correct=correct,
            n_images=n_images,
        )


@dataclass(frozen=True, eq=False)
class InjectionShard(EngineJob):
    """One contiguous ``[trial_lo, trial_hi)`` slice of a campaign.

    Sharding rests entirely on :func:`trial_seed` being a pure function
    of ``(base_seed, t)``: shard trials draw exactly the streams the
    monolithic :class:`InjectionJob` would, so concatenating shard
    results over any partition of ``[0, n_trials)`` reproduces the
    monolithic result bit for bit (the partition property tests).

    Content-addressing deliberately excludes the parent campaign's
    ``n_trials``: a shard's identity is the spec plus its own range, so
    re-running a campaign with a larger ``--max-trials`` budget — or
    resuming a killed one — turns every previously-computed shard into a
    cache hit.  This *is* the checkpoint/resume mechanism; there is no
    separate checkpoint file.
    """

    kind = "injection-shard"

    job: InjectionJob
    trial_lo: int
    trial_hi: int
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.job, InjectionJob):
            raise ConfigurationError(
                f"InjectionShard wraps an InjectionJob, got {type(self.job).__name__}"
            )
        if not 0 <= self.trial_lo < self.trial_hi <= self.job.n_trials:
            raise ConfigurationError(
                f"shard range [{self.trial_lo}, {self.trial_hi}) invalid for a "
                f"{self.job.n_trials}-trial campaign"
            )
        if not self.label:
            base = self.job.label or self.job.recipe
            object.__setattr__(
                self, "label", f"{base}[{self.trial_lo}:{self.trial_hi})"
            )

    @property
    def n_trials(self) -> int:
        return self.trial_hi - self.trial_lo

    @memoized_key
    def key(self) -> str:
        h = hashlib.sha256()
        feed_hash(h, "repro-injectionshard", INJECTION_SCHEMA_VERSION)
        self.job._feed_spec(h)
        feed_hash(h, self.trial_lo, self.trial_hi)
        return h.hexdigest()

    def execute(self, backend_factory=None) -> InjectionResult:
        """``backend_factory`` is ignored, as on :class:`InjectionJob`."""
        return self.job.execute_range(self.trial_lo, self.trial_hi)

    def corner_names(self) -> List[str]:
        return self.job.corner_names()

    serialize_result = staticmethod(InjectionJob.serialize_result)
    deserialize_result = staticmethod(InjectionJob.deserialize_result)


#: Default trials per shard of a campaign.
DEFAULT_SHARD_TRIALS = 8


def plan_shards(job: InjectionJob, shard_trials: int) -> List[InjectionShard]:
    """Partition ``[0, job.n_trials)`` into ``shard_trials``-sized shards.

    The last shard absorbs the remainder; a campaign smaller than one
    shard yields a single shard covering the whole range.
    """
    if shard_trials < 1:
        raise ConfigurationError(f"shard_trials must be >= 1, got {shard_trials}")
    return [
        InjectionShard(
            job=job, trial_lo=lo, trial_hi=min(lo + shard_trials, job.n_trials)
        )
        for lo in range(0, job.n_trials, shard_trials)
    ]
