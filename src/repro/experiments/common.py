"""Shared infrastructure for the paper-figure experiment runners.

* :class:`ExperimentScale` — one knob that sizes every experiment.  The
  default ``small`` scale finishes each figure in seconds-to-minutes on a
  CPU; ``paper`` runs the full-size study.  Selected via the
  ``REPRO_SCALE`` environment variable or per-call argument.
* :func:`get_bundle` — trains (or loads from the on-disk cache) one of
  the paper's model/dataset combinations and returns the float model, the
  calibrated quantized network and the evaluation data.  The on-disk
  state holds the trained parameters and the quantizer's calibration
  observations, and the clean accuracy is a result-cache entry
  (:func:`clean_accuracy`), so a warm reload runs no forward pass; the
  test split is drawn only as far as a caller reads it.
* :func:`layer_ter_batch` — the central measurement: replay each GEMM
  layer's real quantized operand stream through the systolic-array DTA
  under every requested strategy and PVTA corner.  It is a batch of
  :class:`~repro.engine.SimJob` specs plus the rule that folds their
  reports back into per-layer records, so every runner transparently
  gets backend selection, multi-process fan-out and on-disk result
  caching.  :func:`measure_layer_ters` submits one such batch in a call.
* :func:`drive` — runs a runner's ``steps`` generator: each runner that
  uses the engine yields its job batches from one generator and returns
  its result, and ``run(...)`` is ``drive(steps(...))``.
* small text-table rendering used by all runners and the CLI.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..arch import AcceleratorConfig, sample_pixel_rows
from ..core import MappingStrategy
from ..core.pipeline import plan_layer
from ..core.signflip import paper_sign
from ..engine import EngineJob, SimEngine, SimJob, cache_root, default_engine
from ..engine.cache import read_npz
from ..errors import ConfigurationError
from ..faults.evaluate import injection_job_for_bundle
from ..faults.injection_job import run_injection_trials
from ..hw.variations import PvtaCondition
from ..nn.datasets import SyntheticImageDataset, load_dataset
from ..nn.layers import BatchNorm2d
from ..nn.models import ClassifierNetwork, build_model
from ..nn.quantize import (
    CALIBRATION_VERSION,
    QuantizedDynamicMatmul,
    QuantizedNetwork,
    canonical_bits,
    quantize_model,
)
from ..nn.training import Trainer

#: All strategies compared across the figures, in plotting order.
ALL_STRATEGIES = (
    MappingStrategy.BASELINE,
    MappingStrategy.REORDER,
    MappingStrategy.CLUSTER_THEN_REORDER,
)


@dataclass(frozen=True)
class ExperimentScale:
    """Sizing knobs shared by every experiment runner."""

    name: str
    n_train: int
    n_test: int
    epochs: int
    width: float
    ter_pixels: int      # GEMM rows sampled per layer for DTA
    ter_images: int      # images forwarded to record operand streams
    inject_n: int        # test images used in fault-injection accuracy
    n_trials: int        # repeated injection trials per corner

    def __post_init__(self) -> None:
        # Every runner reads its images off the front of the n_test-image
        # split, so a slice larger than the split would silently shrink
        # to it while job keys and manifests still named the larger count.
        for name in (
            "n_train", "n_test", "epochs", "ter_pixels", "ter_images", "inject_n", "n_trials"
        ):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"scale {self.name!r}: {name} must be >= 1")
        if not self.width > 0:
            raise ConfigurationError(f"scale {self.name!r}: width must be > 0")
        for name in ("ter_images", "inject_n"):
            if getattr(self, name) > self.n_test:
                raise ConfigurationError(
                    f"scale {self.name!r}: {name} {getattr(self, name)} exceeds "
                    f"n_test {self.n_test}"
                )


SCALES: Dict[str, ExperimentScale] = {
    # smallest: smoke tests, CI example runs, orchestrator tests — trains
    # in seconds and proves the plumbing, not the paper's numbers
    "micro": ExperimentScale(
        name="micro", n_train=192, n_test=64, epochs=1, width=0.125,
        ter_pixels=12, ter_images=1, inject_n=32, n_trials=2,
    ),
    "tiny": ExperimentScale(
        name="tiny", n_train=384, n_test=128, epochs=3, width=0.125,
        ter_pixels=24, ter_images=2, inject_n=64, n_trials=2,
    ),
    "small": ExperimentScale(
        name="small", n_train=768, n_test=256, epochs=4, width=0.125,
        ter_pixels=48, ter_images=4, inject_n=128, n_trials=3,
    ),
    "paper": ExperimentScale(
        name="paper", n_train=4096, n_test=1024, epochs=12, width=0.25,
        ter_pixels=128, ter_images=8, inject_n=128, n_trials=5,
    ),
}


def get_scale(name: Optional[str] = None) -> ExperimentScale:
    """Resolve the experiment scale (arg > $REPRO_SCALE > ``small``)."""
    name = name or os.environ.get("REPRO_SCALE", "small")
    if name not in SCALES:
        raise ConfigurationError(f"unknown scale {name!r}; expected one of {sorted(SCALES)}")
    return SCALES[name]


#: The paper's four model/dataset combinations (Section V-A), plus the
#: scenario registry's depthwise-separable mobile workload.
MODEL_RECIPES: Dict[str, Tuple[str, str]] = {
    "vgg16_cifar10": ("vgg16", "cifar10_like"),
    "resnet18_cifar10": ("resnet18", "cifar10_like"),
    "vgg16_cifar100": ("vgg16", "cifar100_like"),
    "resnet34_imagenet32": ("resnet34", "imagenet32_like"),
    "mobilenet_cifar10": ("mobilenet", "cifar10_like"),
    "mixer_cifar10": ("mixer", "cifar10_like"),
}


@dataclass
class TrainedBundle:
    """A trained model plus everything the experiments consume.

    The test split is drawn on demand, and only as far as a caller reads
    it (:meth:`test_images`): a warm run that records one image per
    bundle draws one image.
    """

    recipe: str
    model: ClassifierNetwork
    #: QuantizedNetwork or QuantizedTokenNetwork (same experiment surface).
    qnet: object
    scale: ExperimentScale
    dataset: SyntheticImageDataset = field(repr=False, compare=False)
    #: Training/dataset seed (``get_bundle``'s ``seed``).
    seed: int = 0
    #: Per-layer quantization bit widths (resolved, name-sorted) and the
    #: default applied to unlisted layers — the mixed-precision axis.
    bits_per_layer: Tuple[Tuple[str, int], ...] = ()
    default_bits: int = 8
    #: Clean top-1 accuracy of the injected slice (:func:`clean_accuracy`),
    #: set by :func:`get_bundle`.
    quant_accuracy: float = field(init=False)
    _test: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _streams: Dict[int, Dict[str, object]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def test_images(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The first ``n`` images and labels of the ``scale.n_test``-image split.

        Bit-identical to the same prefix of the whole split
        (:meth:`~repro.nn.datasets.SyntheticImageDataset.sample`'s
        ``count``).  The longest prefix asked for so far is kept; a longer
        request draws again, up to its own length.
        """
        if not 0 <= n <= self.scale.n_test:
            raise ConfigurationError(
                f"{n} test image(s) requested; scale {self.scale.name!r} has "
                f"{self.scale.n_test}"
            )
        if self._test is None or self._test[0].shape[0] < n:
            self._test = self.dataset.test_split(self.scale.n_test, seed=self.seed, count=n)
        x, y = self._test
        return x[:n], y[:n]

    @property
    def x_test(self) -> np.ndarray:
        """The whole test split's images (drawn on first read)."""
        return self.test_images(self.scale.n_test)[0]

    @property
    def y_test(self) -> np.ndarray:
        """The whole test split's labels (drawn on first read)."""
        return self.test_images(self.scale.n_test)[1]

    def operand_streams(self, n_images: int) -> Dict[str, object]:
        """The operand streams of the first ``n_images`` test images.

        Recorded once per image count (see :func:`record_operand_streams`)
        and kept for the bundle's lifetime, shared by every runner that
        measures it.  Each array is read-only, so no caller can change
        another's operands, and narrowed to the smallest integer dtype
        that holds its values, so the kept streams cost less memory than
        one int64 recording; :func:`sample_layer_acts` and
        :func:`gemm_sim_units` widen the rows they sample back to int64.
        """
        streams = self._streams.get(n_images)
        if streams is None:
            recorded = record_operand_streams(self.qnet, self.test_images(n_images)[0])
            streams = {
                name: tuple(map(_narrowed, value))
                if isinstance(value, tuple)
                else _narrowed(value)
                for name, value in recorded.items()
            }
            self._streams[n_images] = streams
        return streams


def _narrowed(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of integer ``arr`` in the narrowest dtype holding its values."""
    dtype = np.result_type(
        np.min_scalar_type(arr.min(initial=0)), np.min_scalar_type(arr.max(initial=0))
    )
    out = arr.astype(dtype)
    out.flags.writeable = False
    return out


_BUNDLE_CACHE: Dict[Tuple, TrainedBundle] = {}

#: Prefix of the per-GEMM-op calibration entries in a trained-state npz.
_CALIBRATION_PREFIX = "calibration."


def cache_dir() -> Path:
    """On-disk cache for trained parameters (repo-local, git-ignored).

    Shares its root with the engine's simulation-result cache
    (:func:`repro.engine.cache_root`, ``$REPRO_CACHE`` to override).
    """
    path = cache_root()
    path.mkdir(parents=True, exist_ok=True)
    return path


def _state_arrays(model: ClassifierNetwork) -> Dict[str, np.ndarray]:
    """Deterministically-keyed snapshot of parameters and BN statistics."""
    state = {}
    for i, p in enumerate(model.parameters()):
        state[f"p{i}"] = p.data
    bn_idx = 0
    for module in model.modules():
        if isinstance(module, BatchNorm2d):
            state[f"rm{bn_idx}"] = module.running_mean
            state[f"rv{bn_idx}"] = module.running_var
            bn_idx += 1
    return state


def save_model_state(
    model: ClassifierNetwork,
    path: Path,
    calibration: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Persist a trained model's parameters to ``path`` (npz).

    ``calibration`` — the quantized network's
    :meth:`~repro.nn.quantize.QuantizedNetwork.calibration` — is stored
    beside the parameters, tagged with ``CALIBRATION_VERSION``.  Members
    are stored, not deflated: float weights deflate by only a few per
    cent, and inflating them would double every reload.  Written
    atomically (temp file + ``os.replace``) so pool workers that race to
    train the same missing bundle never observe a partial file.
    """
    arrays = _state_arrays(model)
    if calibration is not None:
        arrays["calibration_version"] = np.array(CALIBRATION_VERSION)
        for name, values in calibration.items():
            arrays[_CALIBRATION_PREFIX + name] = values
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_model_state(
    model: ClassifierNetwork, path: Path
) -> Optional[Dict[str, np.ndarray]]:
    """Restore parameters saved by :func:`save_model_state` in place.

    Returns the stored calibration observations (read-only arrays), or
    ``None`` when the file holds none of the current
    ``CALIBRATION_VERSION``.  Decodes through the result cache's
    :func:`~repro.engine.cache.read_npz`, so files written deflated by
    earlier versions load too.
    """
    data = read_npz(path)
    for i, p in enumerate(model.parameters()):
        p.data[...] = data[f"p{i}"]
    bn_idx = 0
    for module in model.modules():
        if isinstance(module, BatchNorm2d):
            module.running_mean[...] = data[f"rm{bn_idx}"]
            module.running_var[...] = data[f"rv{bn_idx}"]
            bn_idx += 1
    version = data.get("calibration_version")
    if version is None or int(version) != CALIBRATION_VERSION:
        return None
    return {
        key[len(_CALIBRATION_PREFIX):]: values
        for key, values in data.items()
        if key.startswith(_CALIBRATION_PREFIX)
    }


def get_bundle(
    recipe: str,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    bits_per_layer: Optional[object] = None,
    default_bits: int = 8,
) -> TrainedBundle:
    """Train-or-load one of the paper's model/dataset combinations.

    Results are cached in-memory per (recipe, scale, seed, bits) and on
    disk keyed by the training hyper-parameters, so repeated experiment
    runs re-use one training run.  ``bits_per_layer`` / ``default_bits``
    select a mixed-precision quantization of the *same* trained float
    parameters: training is precision-independent, so every precision
    variant of a recipe shares one on-disk parameter snapshot.

    The snapshot also holds the calibration observations of the float
    pass, which do not depend on the bit widths either; a reload
    restores the activation scales from them.  A snapshot without them
    (written by an older version, or by :func:`save_model_state` without
    ``calibration``) is calibrated once and rewritten.  The clean
    accuracy comes from the default engine's result cache
    (:func:`clean_accuracy`), so a warm reload runs no forward pass and
    draws no test image until a caller reads one.
    """
    scale = scale or get_scale()
    bits = canonical_bits(bits_per_layer, default_bits)
    key = (recipe, scale.name, seed, bits, default_bits)
    if key in _BUNDLE_CACHE:
        return _BUNDLE_CACHE[key]
    if recipe not in MODEL_RECIPES:
        raise ConfigurationError(f"unknown recipe {recipe!r}; expected one of {sorted(MODEL_RECIPES)}")
    model_name, dataset_name = MODEL_RECIPES[recipe]

    dataset = load_dataset(dataset_name)
    n_classes = dataset.spec.n_classes
    model = build_model(model_name, n_classes=n_classes, width=scale.width, seed=seed)

    state_path = cache_dir() / (
        f"{recipe}-{scale.name}-w{scale.width}-n{scale.n_train}-e{scale.epochs}-s{seed}.npz"
    )
    trained = state_path.exists()
    calibration = load_model_state(model, state_path) if trained else None
    if calibration is None:
        # Training, or a file without current observations: the only
        # paths that draw the training split.
        x_train, y_train = dataset.train_split(scale.n_train, seed=seed)
        if not trained:
            Trainer(model, lr=0.03, batch_size=32, seed=seed).fit(
                x_train, y_train, epochs=scale.epochs
            )
        qnet = quantize_model(model, bits_per_layer=dict(bits), default_bits=default_bits)
        qnet.calibrate(x_train[: min(64, x_train.shape[0])])
        save_model_state(model, state_path, qnet.calibration())
    else:
        qnet = quantize_model(model, bits_per_layer=dict(bits), default_bits=default_bits)
        qnet.restore_calibration(calibration)
    bundle = TrainedBundle(
        recipe=recipe,
        model=model,
        qnet=qnet,
        scale=scale,
        dataset=dataset,
        seed=seed,
        bits_per_layer=bits,
        default_bits=default_bits,
    )
    bundle.quant_accuracy = clean_accuracy(bundle)
    _BUNDLE_CACHE[key] = bundle
    return bundle


def clean_accuracy(
    bundle: TrainedBundle, topk: int = 1, engine: Optional[SimEngine] = None
) -> float:
    """Clean quantized top-``topk`` accuracy of the bundle's injected slice.

    The value is the result of the fault-free :class:`InjectionJob` on
    the bundle (empty BER table, one trial), which
    :func:`~repro.faults.run_injection_trials` short-circuits to one
    ``evaluate`` over the first ``scale.inject_n`` test images.  It is
    read from and filed in ``engine``'s result cache (default: the
    process engine) under that job's key, directly rather than through
    ``run_many``, so it counts in no engine summary.  An engine without
    a cache evaluates every time and stores nothing.
    """
    job = injection_job_for_bundle(bundle, {}, n_trials=1, topk=topk)
    cache = (engine or default_engine()).cache
    result = cache.load(job.key(), job) if cache is not None else None
    if result is None:
        x, y = bundle.test_images(job.inject_n)
        result = run_injection_trials(
            bundle.qnet, x, y, {}, n_trials=1, topk=topk, batch_size=job.batch_size
        )
        if cache is not None:
            cache.store(job.key(), job, result)
    return result.trial_accuracies[0]


# ---------------------------------------------------------------------- #
# Layer-wise TER measurement
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class LayerTerRecord:
    """TER measurement of one (layer, strategy) pair across corners.

    A grouped/depthwise layer is measured as one simulation job per
    group; this record carries the cycle-weighted aggregate (see
    :func:`aggregate_group_reports`) with ``groups`` recording how many
    independent GEMMs contributed.
    """

    layer: str
    strategy: str
    ter_by_corner: Dict[str, float]
    sign_flip_rate: float
    n_macs_per_output: int
    groups: int = 1


def record_operand_streams(
    qnet: QuantizedNetwork, x_images: np.ndarray
) -> Dict[str, object]:
    """One recorded quantized forward: GEMM name -> quantized operand stream.

    Conv and static-matmul ops record one ``(rows, C_eff)`` operand
    matrix; dynamic (activation-activation) matmuls record an
    ``(a_q, b_q)`` tensor pair — both operands are runtime data, one
    stationary matrix per image instance.
    """
    qnet.set_recording(True)
    try:
        qnet.forward(x_images)
        streams: Dict[str, object] = {}
        for op in qnet.gemm_ops():
            if isinstance(op, QuantizedDynamicMatmul):
                if op.recorded_operands is None:
                    raise ConfigurationError(f"layer {op.name} recorded no operands")
                streams[op.name] = op.recorded_operands
            else:
                if op.recorded_cols is None:
                    raise ConfigurationError(f"layer {op.name} recorded no operands")
                streams[op.name] = op.recorded_cols
        return streams
    finally:
        qnet.set_recording(False)


def layer_sample_rng(seed: int, layer_name: str) -> np.random.Generator:
    """Deterministic per-layer RNG for GEMM-row sub-sampling.

    Seeded by ``(seed, sha256(layer_name))`` — *not* by draw order — so
    any runner sampling the same layer with the same ``seed`` and
    ``max_pixels`` builds byte-identical operand matrices.  That is what
    lets fig2/fig7/fig8/fig10/fig11 share layer-TER cache entries instead
    of each simulating its own copy of the same measurement.
    """
    digest = hashlib.sha256(layer_name.encode("utf-8")).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "little")])


def sample_layer_acts(
    streams: Dict[str, np.ndarray], layer_name: str, max_pixels: int, seed: int = 0
) -> np.ndarray:
    """Sub-sample one layer's recorded operand stream to ``max_pixels`` int64 rows."""
    cols = streams[layer_name]
    rows = sample_pixel_rows(cols.shape[0], max_pixels, layer_sample_rng(seed, layer_name))
    return cols[rows].astype(np.int64, copy=False)


#: Stationary-operand instances sampled per dynamic (activation-
#: activation) GEMM: the systolic array sees a different stationary
#: matrix per image, so each sampled instance is one independent SimJob.
MAX_DYNAMIC_INSTANCES = 4


@dataclass(frozen=True)
class GemmSimUnit:
    """One independent GEMM simulation of a layer-level measurement.

    A dense conv or static matmul is one unit; a grouped/depthwise conv
    is one unit per group GEMM; a dynamic matmul is one unit per sampled
    operand instance.  ``suffix`` disambiguates the job labels.
    """

    suffix: str
    acts: np.ndarray
    weights: np.ndarray
    config: AcceleratorConfig


def _op_config(config: AcceleratorConfig, signed: bool) -> AcceleratorConfig:
    """The accelerator instance for one GEMM's operand signedness.

    Conv activations are post-ReLU unsigned (the default datapath);
    signed matmul operands flip ``mac.act_signed`` so the timing model —
    and the content hash — describe the datapath actually exercised.
    """
    if not signed:
        return config
    return replace(config, mac=replace(config.mac, act_signed=True))


def gemm_sim_units(
    op: object,
    streams: Dict[str, object],
    config: AcceleratorConfig,
    max_pixels: int = 48,
    seed: int = 0,
) -> List[GemmSimUnit]:
    """The per-strategy simulation units of one GEMM op.

    The single source of truth for how a GEMM decomposes into SimJobs:
    :func:`layer_ter_batch` emits one job per (strategy, unit) and
    records each op's unit count, by which :meth:`LayerTerBatch.records`
    re-assembles the reports, so emission and reassembly can never
    drift apart.
    """
    if isinstance(op, QuantizedDynamicMatmul):
        a_q, b_q = streams[op.name]
        rng = layer_sample_rng(seed, op.name)
        instances = sample_pixel_rows(a_q.shape[0], MAX_DYNAMIC_INSTANCES, rng)
        cfg = _op_config(config, op.a_signed)
        units = []
        for j, i in enumerate(instances):
            rows = sample_pixel_rows(a_q.shape[1], max_pixels, rng)
            units.append(
                GemmSimUnit(
                    suffix=f"[i{j}]" if len(instances) > 1 else "",
                    acts=a_q[i][rows].astype(np.int64, copy=False),
                    weights=np.asarray(b_q[i], dtype=np.int64),
                    config=cfg,
                )
            )
        return units
    acts = sample_layer_acts(streams, op.name, max_pixels, seed)
    cfg = _op_config(config, bool(getattr(op, "act_signed", False)))
    groups = getattr(op, "groups", 1)
    return [
        GemmSimUnit(
            suffix=f"[g{g}]" if groups > 1 else "",
            acts=acts[:, start:stop],
            weights=wmat,
            config=cfg,
        )
        for g, ((start, stop), wmat) in enumerate(
            zip(op.group_col_spans(), op.lowered_group_weights())
        )
    ]


@dataclass(frozen=True)
class LayerTerBatch:
    """One network's layer-TER jobs and the rule that folds their reports.

    ``units`` holds each GEMM op's name and how many simulation units
    (see :func:`gemm_sim_units`) it contributes per strategy, in
    execution order, so :meth:`records` re-assembles the reports by the
    very counts :func:`layer_ter_batch` emitted the jobs with.
    """

    jobs: List[SimJob]
    units: Tuple[Tuple[str, int], ...]
    strategies: Tuple[MappingStrategy, ...]

    def records(self, reports: Sequence[Dict[str, object]]) -> Dict[str, List[LayerTerRecord]]:
        """``{strategy_value: [LayerTerRecord per GEMM in order]}`` from the jobs' reports."""
        records: Dict[str, List[LayerTerRecord]] = {s.value: [] for s in self.strategies}
        report_iter = iter(reports)
        for name, n_units in self.units:
            for strategy in self.strategies:
                per_group = [next(report_iter) for _ in range(n_units)]
                records[strategy.value].append(
                    aggregate_group_reports(name, strategy, per_group)
                )
        return records


def layer_ter_batch(
    qnet: QuantizedNetwork,
    streams: Dict[str, object],
    corners: Sequence[PvtaCondition],
    strategies: Sequence[MappingStrategy] = ALL_STRATEGIES,
    config: Optional[AcceleratorConfig] = None,
    group_size: Optional[int] = None,
    max_pixels: int = 48,
    seed: int = 0,
    label_prefix: str = "",
) -> LayerTerBatch:
    """Build the (GEMM x strategy x unit) job batch for one network.

    Job order is GEMM-major (execution order), then strategy, then unit
    (dense conv and static matmul layers contribute exactly one job per
    strategy; a grouped/depthwise layer one job per independent group
    GEMM over its operand-column slice; a dynamic matmul one job per
    sampled operand instance — see :func:`gemm_sim_units`), matching how
    :meth:`LayerTerBatch.records` re-assembles records.  Every runner
    that measures layer TERs goes through this builder so identical
    measurements hash to identical cache keys across figures.
    """
    config = config or AcceleratorConfig()
    group_size = group_size or config.cols
    jobs: List[SimJob] = []
    units: List[Tuple[str, int]] = []
    for op in qnet.gemm_ops():
        op_units = gemm_sim_units(op, streams, config, max_pixels=max_pixels, seed=seed)
        units.append((op.name, len(op_units)))
        for strategy in strategies:
            for unit in op_units:
                jobs.append(
                    SimJob(
                        acts=unit.acts,
                        weights=unit.weights,
                        corners=tuple(corners),
                        group_size=group_size,
                        strategy=strategy,
                        seed=seed,
                        config=unit.config,
                        label=f"{label_prefix}{op.name}{unit.suffix}:{strategy.value}",
                    )
                )
    return LayerTerBatch(jobs=jobs, units=tuple(units), strategies=tuple(strategies))


def bundle_ter_batch(
    bundle: TrainedBundle,
    corners: Sequence[PvtaCondition],
    strategies: Sequence[MappingStrategy] = ALL_STRATEGIES,
    config: Optional[AcceleratorConfig] = None,
    seed: int = 0,
    label_prefix: str = "",
) -> LayerTerBatch:
    """:func:`layer_ter_batch` over a bundle's shared streams, sized by its scale."""
    scale = bundle.scale
    return layer_ter_batch(
        bundle.qnet,
        bundle.operand_streams(scale.ter_images),
        corners,
        strategies=strategies,
        config=config,
        max_pixels=scale.ter_pixels,
        seed=seed,
        label_prefix=label_prefix,
    )


def aggregate_group_reports(
    layer: str, strategy: MappingStrategy, reports_per_group: List[Dict[str, object]]
) -> LayerTerRecord:
    """Fold per-group simulation reports into one :class:`LayerTerRecord`.

    TER is a per-cycle expectation, so the layer-level value is the
    cycle-weighted mean of the group values (exact: expected errors add
    over groups); the sign-flip rate aggregates the same way.  The
    single-group case passes values through untouched, keeping dense
    layers bit-identical to the pre-grouping measurement.
    """
    first = next(iter(reports_per_group[0].values()))
    if len(reports_per_group) == 1:
        reports = reports_per_group[0]
        return LayerTerRecord(
            layer=layer,
            strategy=strategy.value,
            ter_by_corner={name: r.ter for name, r in reports.items()},
            sign_flip_rate=first.sign_flip_rate,
            n_macs_per_output=first.n_macs_per_output,
        )
    cycles = [next(iter(reports.values())).n_cycles for reports in reports_per_group]
    total = float(sum(cycles))
    ter_by_corner = {
        name: sum(
            reports[name].ter * n for reports, n in zip(reports_per_group, cycles)
        )
        / total
        for name in reports_per_group[0]
    }
    flip_rate = (
        sum(
            next(iter(reports.values())).sign_flip_rate * n
            for reports, n in zip(reports_per_group, cycles)
        )
        / total
    )
    n_macs = {next(iter(r.values())).n_macs_per_output for r in reports_per_group}
    if len(n_macs) != 1:
        raise ConfigurationError(
            f"layer {layer}: groups disagree on MACs per output ({sorted(n_macs)})"
        )
    return LayerTerRecord(
        layer=layer,
        strategy=strategy.value,
        ter_by_corner=ter_by_corner,
        sign_flip_rate=float(flip_rate),
        n_macs_per_output=n_macs.pop(),
        groups=len(reports_per_group),
    )


def measure_layer_ters(
    qnet: QuantizedNetwork,
    x_images: np.ndarray,
    corners: Sequence[PvtaCondition],
    strategies: Sequence[MappingStrategy] = ALL_STRATEGIES,
    config: Optional[AcceleratorConfig] = None,
    group_size: Optional[int] = None,
    max_pixels: int = 48,
    seed: int = 0,
    engine: Optional[SimEngine] = None,
    streams: Optional[Dict[str, object]] = None,
) -> Dict[str, List[LayerTerRecord]]:
    """Measure every GEMM op's TER under each strategy and corner, in one call.

    Returns ``{strategy_value: [LayerTerRecord per GEMM in order]}``.
    The activation streams are the *real* quantized intermediate tensors
    produced by forwarding ``x_images``, sub-sampled to ``max_pixels``
    GEMM rows per layer (an unbiased per-cycle average); callers that
    already recorded the same forward pass (for a bundle,
    :meth:`TrainedBundle.operand_streams`) can pass its streams in via
    ``streams`` to skip the re-recording.

    The :func:`layer_ter_batch` is one ``run_many`` call: with ``engine``
    unset the process default (CLI ``--backend/--jobs``, ``REPRO_*``
    environment) applies, repeated sweeps hit the on-disk result cache,
    all corners share one simulation pass per job, and the cache-missing
    jobs fold through the backend's whole-network path together.
    """
    if streams is None:
        streams = record_operand_streams(qnet, x_images)
    batch = layer_ter_batch(
        qnet,
        streams,
        corners,
        strategies=strategies,
        config=config,
        group_size=group_size,
        max_pixels=max_pixels,
        seed=seed,
    )
    return batch.records((engine or default_engine()).run_many(batch.jobs))


def ters_for_corner(
    records: Dict[str, List[LayerTerRecord]], strategy: MappingStrategy, corner_name: str
) -> Dict[str, float]:
    """Extract ``{layer: TER}`` for one strategy at one corner."""
    return {r.layer: r.ter_by_corner[corner_name] for r in records[strategy.value]}


def macs_per_layer(records: Dict[str, List[LayerTerRecord]]) -> Dict[str, int]:
    """Extract ``{layer: N}`` (Eq. 1 MAC counts) from a measurement."""
    first = next(iter(records.values()))
    return {r.layer: r.n_macs_per_output for r in first}


def split_results(
    results: Sequence[object], batches: Sequence[Sequence[object]]
) -> List[List[object]]:
    """Cut one flat result list into consecutive slices, one per batch."""
    slices: List[List[object]] = []
    start = 0
    for batch in batches:
        slices.append(list(results[start : start + len(batch)]))
        start += len(batch)
    return slices


# ---------------------------------------------------------------------- #
# Runner steps
# ---------------------------------------------------------------------- #
#: A runner's ``steps(...)`` generator: it yields batches of engine jobs,
#: is sent each batch's results in order, and returns the runner's
#: result.  :func:`drive` runs one generator; the orchestrator's
#: lockstep driver runs several at once.
Steps = Generator[List[EngineJob], List[object], Any]


def layer_ter_steps(batches: Sequence[LayerTerBatch]) -> Steps:
    """Yield several networks' layer-TER jobs as one batch; return their records.

    One ``{strategy_value: [LayerTerRecord per GEMM]}`` per batch, in
    order.  Callers pass the batches in directly, so the jobs and their
    reports are freed once the records are built, before the runner's
    next batch runs.
    """
    reports = yield [job for batch in batches for job in batch.jobs]
    parts = split_results(reports, [batch.jobs for batch in batches])
    return [batch.records(part) for batch, part in zip(batches, parts)]


def drive(steps: Steps, engine: Optional[SimEngine] = None) -> Any:
    """Run one ``steps`` generator to its result: one ``run_many`` per batch."""
    engine = engine or default_engine()
    results: Optional[List[object]] = None
    while True:
        try:
            batch = steps.send(results)
        except StopIteration as done:
            return done.value
        results = engine.run_many(batch)


# ---------------------------------------------------------------------- #
# READ-reorder applicability
# ---------------------------------------------------------------------- #
def reorder_applicability(
    acts: np.ndarray, weights: np.ndarray, seed: int = 0
) -> Dict[str, object]:
    """Does READ's single-zero-crossing property hold on this operand pair?

    The paper proves that sign-first reordering makes every per-column
    PSUM trace cross zero at most once — *for non-negative activations*
    (post-ReLU convs).  Attention operands are signed, so the property
    must be measured, not assumed: this replays the actual reorder plan
    (``group_size=1``, one trace per output column) over the operand
    rows and counts sign transitions of the running PSUM, using the same
    convention as the metamorphic suite.

    Returns ``{"holds", "traces", "violating_traces",
    "max_zero_crossings"}`` — ``holds`` is True iff every trace crossed
    zero at most once.
    """
    plan = plan_layer(weights, group_size=1, strategy=MappingStrategy.REORDER, seed=seed)
    n_traces = 0
    violating = 0
    max_crossings = 0
    for group in plan.groups:
        products = acts[:, group.order] * group.weights[:, 0][None, :]
        trace = np.cumsum(products, axis=1)
        transitions = np.abs(np.diff(paper_sign(trace), axis=1)).sum(axis=1)
        n_traces += transitions.shape[0]
        violating += int((transitions > 1).sum())
        max_crossings = max(max_crossings, int(transitions.max(initial=0)))
    return {
        "holds": violating == 0,
        "traces": n_traces,
        "violating_traces": violating,
        "max_zero_crossings": max_crossings,
    }


def gemm_reorder_applicability(
    qnet: QuantizedNetwork,
    streams: Dict[str, object],
    config: Optional[AcceleratorConfig] = None,
    max_pixels: int = 48,
    seed: int = 0,
) -> Dict[str, Dict[str, object]]:
    """Per-GEMM READ-reorder applicability verdicts for one network.

    Runs :func:`reorder_applicability` over exactly the operand units
    that :func:`layer_ter_batch` simulates, folding multi-unit ops
    (grouped convs, dynamic-matmul instances) into one verdict per GEMM.
    Recorded in sweep manifests so reviewers can see *where* the paper's
    invariant stops holding (signed attention operands) without rerunning.
    """
    config = config or AcceleratorConfig()
    verdicts: Dict[str, Dict[str, object]] = {}
    for op in qnet.gemm_ops():
        units = gemm_sim_units(op, streams, config, max_pixels=max_pixels, seed=seed)
        traces = 0
        violating = 0
        max_crossings = 0
        for unit in units:
            report = reorder_applicability(unit.acts, unit.weights, seed=seed)
            traces += report["traces"]
            violating += report["violating_traces"]
            max_crossings = max(max_crossings, report["max_zero_crossings"])
        verdicts[op.name] = {
            "holds": violating == 0,
            "signed_acts": unit.config.mac.act_signed,
            "traces": traces,
            "violating_traces": violating,
            "max_zero_crossings": max_crossings,
        }
    return verdicts


# ---------------------------------------------------------------------- #
# Text rendering
# ---------------------------------------------------------------------- #
def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a fixed-width text table (all runners print through this)."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), max((len(r[i]) for r in cells), default=0))
        for i in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)), sep]
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if 0 < abs(value) < 1e-2 or abs(value) >= 1e5:
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (used for 'average TER reduction' summaries)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0 or np.any(arr <= 0):
        raise ConfigurationError("geometric mean requires positive values")
    return float(np.exp(np.log(arr).mean()))
