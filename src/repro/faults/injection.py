"""Bit-flip fault injection into MAC accumulators.

Reproduces the paper's error-injection protocol (Section V-C): after the
layer-wise TERs are measured, Eq. 1 converts them into per-layer output
BERs, and "the corresponding bits of the output activations (before the
activation function)" are randomly flipped with those probabilities.

The injector operates on the raw integer accumulators exposed by
:class:`repro.nn.quantize.QuantizedConv`.  Timing errors concentrate in
the most significant bits (Section II-B: the failing paths are the
sign-region settle paths).  "Most significant" means the top of the
*active* region of the partial sum: a failed settle leaves bits stale in
the range that was toggling, so the injected error magnitude is
comparable to the accumulator values themselves, not to the full 2^23
range of the register (whose top bits never toggle for layers that use
only part of the dynamic range).  Positions are therefore drawn from a
window just below each layer's active MSB — measured over the *full*
fault-free batch being injected (see :func:`measure_active_msbs`) — with
an absolute-window mode retained for sensitivity studies.

Determinism contract (schema v2)
--------------------------------
The injector's randomness is a pure function of ``(seed, layer name)``:
every layer owns two private substreams — one for the Bernoulli flip
mask, one for the flip positions — derived from the trial seed and a
hash of the layer's name.  Because NumPy generators fill requests
sequentially from one stream, splitting a layer's accumulators into
evaluation chunks draws exactly the same mask/position values as one
full-batch draw: flips no longer depend on ``batch_size``, evaluation
order, process or scheduling state.  Together with the full-batch
``active_msb`` window this is what lets the trial-batched runtime
(:meth:`repro.nn.quantize.QuantizedNetwork.evaluate_trials`) apply each
trial's flips as one vectorized block per (trial, layer) and still be
bit-identical to the serial chunked loop.
:mod:`repro.faults.injection_job` relies on this to make
engine-scheduled campaigns (re-seeded per trial via
:func:`~repro.faults.injection_job.trial_seed`) bit-reproducible across
worker pools and the result cache.

The same contract lets cells that differ only in their BER table share
their draws: every injector seeded alike reads the same mask uniforms
for a layer, and only the threshold ``u < ber`` differs.
:func:`shared_masks` draws them once for all such injectors, and an
injector given that draw (its ``shared`` field) plans its flips from it:
the same plans :meth:`BitFlipInjector.flip_plan` draws for itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..hw import fixedpoint as fp


_LAYER_DIGESTS: Dict[str, int] = {}

#: One layer invocation's flips: C-order element indices and bit positions.
FlipPlan = Tuple[np.ndarray, np.ndarray]


def _layer_digest(layer_name: str) -> int:
    digest = _LAYER_DIGESTS.get(layer_name)
    if digest is None:
        raw = hashlib.sha256(layer_name.encode("utf-8")).digest()
        digest = _LAYER_DIGESTS[layer_name] = int.from_bytes(raw[:8], "little")
    return digest


def layer_stream(seed: int, layer_name: str, stream: int) -> np.random.Generator:
    """The private RNG of one (seed, layer, purpose) triple.

    ``stream`` 0 draws flip masks, 1 draws flip positions.  Keeping the
    two on separate generators is what makes chunked draws concatenate
    to the full-batch draw: a chunk's position draws never advance the
    next chunk's mask stream.
    """
    return np.random.default_rng([seed % (1 << 63), _layer_digest(layer_name), stream])


def active_msb_from_max(
    max_abs: int, relative_window: int, psum_width: int = fp.PSUM_WIDTH
) -> int:
    """Active-MSB position from a layer's peak |accumulator| value."""
    msb = max(int(max_abs).bit_length() - 1, relative_window - 1)
    return min(msb, psum_width - 1)


def measure_active_msbs(
    network,
    x: np.ndarray,
    relative_window: int = 3,
    psum_width: int = fp.PSUM_WIDTH,
    batch_size: int = 128,
) -> Dict[str, int]:
    """Per-layer active-MSB table over one full fault-free batch.

    The relative-mode determinism contract: the flip window of a layer
    is fixed by the fault-free accumulators of the *entire* injected
    batch, so it cannot shift with evaluation chunking (the old
    per-chunk measurement made ``batch_size`` silently change flip
    positions) nor with fault propagation from upstream layers.  A
    maximum is chunking-invariant, so this measuring pass may use any
    batch size; the trial-batched runtime reads the same numbers off its
    cached :class:`~repro.nn.quantize.FaultFreePass` instead of
    re-running this.
    """
    maxes: Dict[str, int] = {}

    def record(acc: np.ndarray, layer) -> np.ndarray:
        peak = int(np.abs(acc).max(initial=0))
        maxes[layer.name] = max(maxes.get(layer.name, 0), peak)
        return acc

    network.set_injector(record)
    try:
        for start in range(0, x.shape[0], batch_size):
            network.forward_features(x[start : start + batch_size])
    finally:
        network.set_injector(None)
    return {
        name: active_msb_from_max(peak, relative_window, psum_width)
        for name, peak in maxes.items()
    }


@dataclass
class BitFlipInjector:
    """Per-layer Bernoulli bit-flip injector (the paper's protocol).

    Parameters
    ----------
    ber_per_layer:
        Mapping conv-layer name -> output-activation BER (from Eq. 1).
        Layers absent from the mapping are left untouched — Fig. 11
        injects only the vulnerable early layers this way.
    relative_window:
        In the default *relative* mode, flip positions are drawn uniformly
        from ``[active_msb - relative_window + 1, active_msb]`` where
        ``active_msb`` is the highest magnitude bit used by the layer's
        accumulators — the MSB region that actually toggles.
    msb_per_layer:
        Precomputed full-batch active-MSB table (relative mode), from
        :func:`measure_active_msbs` or a cached
        :class:`~repro.nn.quantize.FaultFreePass`.  When absent, the MSB
        is measured from each call's accumulators — fine for whole-batch
        calls, but chunked evaluation then re-measures per chunk, which
        is exactly the batch-size trap the precomputed table removes.
    bit_low / bit_high:
        Absolute-mode window within the PSUM register (used when
        ``mode == "absolute"``).
    psum_width:
        Register width the flip is applied in (values wrap into it first,
        which is what the physical register holds).
    seed:
        Seed of the injector's per-layer substreams; re-seed per trial to
        get the paper's five repeated simulations.
    shared:
        ``(masks, member)``: :func:`shared_masks` drawn at ``seed`` for
        several BER tables, this injector's among them as entry
        ``member``.  Its masks are then read from that draw, not drawn,
        which plans each layer's single invocation (as the lanes walk
        makes it) exactly as a live draw would.
    """

    ber_per_layer: Dict[str, float]
    mode: str = "relative"
    relative_window: int = 3
    bit_low: int = 20
    bit_high: int = 23
    psum_width: int = fp.PSUM_WIDTH
    seed: int = 0
    msb_per_layer: Optional[Dict[str, int]] = None
    shared: Optional[Tuple[Dict[str, "SharedMask"], int]] = field(
        default=None, compare=False, repr=False
    )
    flips_injected: int = field(default=0, init=False)
    elements_seen: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.mode not in ("relative", "absolute"):
            raise ConfigurationError("mode must be 'relative' or 'absolute'")
        if self.relative_window < 1:
            raise ConfigurationError("relative_window must be >= 1")
        if not (0 <= self.bit_low <= self.bit_high < self.psum_width):
            raise ConfigurationError(
                f"flip window [{self.bit_low}, {self.bit_high}] invalid for "
                f"width {self.psum_width}"
            )
        for name, ber in self.ber_per_layer.items():
            if not 0.0 <= ber <= 1.0:
                raise ConfigurationError(f"layer {name}: BER {ber} outside [0, 1]")
        self._streams: Dict[str, Tuple[np.random.Generator, np.random.Generator]] = {}

    # ------------------------------------------------------------------ #
    def reseed(self, seed: int) -> None:
        """Restart every per-layer random stream (one call per trial)."""
        self.seed = seed
        self._streams = {}
        self.shared = None  # drawn at the old seed
        self.flips_injected = 0
        self.elements_seen = 0

    def _layer_streams(
        self, layer_name: str
    ) -> Tuple[np.random.Generator, np.random.Generator]:
        streams = self._streams.get(layer_name)
        if streams is None:
            streams = (
                layer_stream(self.seed, layer_name, 0),
                layer_stream(self.seed, layer_name, 1),
            )
            self._streams[layer_name] = streams
        return streams

    def _flip_window(self, layer_name: str, acc: np.ndarray) -> Tuple[int, int]:
        """Inclusive [low, high] bit window for this layer's flips."""
        if self.mode == "absolute":
            return self.bit_low, self.bit_high
        if self.msb_per_layer is not None and layer_name in self.msb_per_layer:
            msb = min(int(self.msb_per_layer[layer_name]), self.psum_width - 1)
            msb = max(msb, self.relative_window - 1)
        else:
            msb = active_msb_from_max(
                int(np.abs(acc).max(initial=0)), self.relative_window, self.psum_width
            )
        return msb - self.relative_window + 1, msb

    def flip_plan(self, acc: np.ndarray, layer) -> Optional[FlipPlan]:
        """Draw one layer invocation's flips without applying them.

        Returns ``(flat_indices, positions)`` — the C-order element
        indices the Bernoulli mask selected and the bit position drawn
        for each — or ``None`` when the draw selects nothing.  The RNG
        consumption, ``flips_injected`` and ``elements_seen`` accounting
        are exactly those of :meth:`__call__` (which is implemented on
        top of this), so a caller may freely mix planned and applied
        invocations without perturbing any stream.  ``acc`` supplies the
        draw shape, and its values only matter on the legacy
        measure-per-call MSB fallback (no ``msb_per_layer`` table).

        This is the dedup primitive of the batched runtime's lanes walk
        (:meth:`repro.nn.quantize.QuantizedNetwork.evaluate_trials`):
        two trials whose plans are byte-identical produce byte-identical
        tensors from the same base accumulators, and an empty plan
        leaves the base untouched.
        """
        ber = float(self.ber_per_layer.get(layer.name, 0.0))
        self.elements_seen += acc.size
        if ber <= 0.0:
            return None
        if self.shared is None:
            mask_rng, pos_rng = self._layer_streams(layer.name)
            indices = np.flatnonzero(mask_rng.random(acc.shape).reshape(-1) < ber)
        else:
            masks, member = self.shared
            indices = masks[layer.name].selected(member)
            pos_rng = layer_stream(self.seed, layer.name, 1)
        if indices.size == 0:
            return None
        low, high = self._flip_window(layer.name, acc)
        positions = pos_rng.integers(low, high + 1, size=indices.size)
        self.flips_injected += indices.size
        return indices, positions

    def apply_plan(
        self,
        acc: np.ndarray,
        plan: Optional[FlipPlan],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply a :meth:`flip_plan` to ``acc``, which is left untouched.

        Without ``out`` the flips land in a copy (an empty plan returns
        ``acc`` as is).  ``out``, a C-contiguous array of ``acc``'s shape
        (one class's rows of the lanes walk's stacked buffer), receives
        a copy of ``acc`` and then the flips.
        """
        if out is None:
            if plan is None:
                return acc
            out = acc.copy()
        elif out.shape != acc.shape or not out.flags.c_contiguous:
            raise ConfigurationError(
                f"out must be C-contiguous of shape {acc.shape}, got {out.shape}"
            )
        else:
            np.copyto(out, acc)
        if plan is not None:
            indices, positions = plan
            flat = out.reshape(-1)
            flat[indices] = fp.flip_bits(flat[indices], positions, self.psum_width)
        return out

    def __call__(self, acc: np.ndarray, layer) -> np.ndarray:
        """Flip bits of the accumulator array for one layer invocation.

        ``layer`` is the :class:`~repro.nn.quantize.QuantizedConv` being
        executed; its ``name`` selects the BER.  One vectorized draw
        block per call: a Bernoulli mask over ``acc`` from the layer's
        mask stream, then one position per flip from its position
        stream.  Calling this per evaluation chunk or once on the full
        layer batch yields identical flips (see the module docstring).
        """
        return self.apply_plan(acc, self.flip_plan(acc, layer))


@dataclass(frozen=True, eq=False)
class SharedMask:
    """One (seed, layer) flip-mask draw, shared by injectors seeded alike.

    Every injector seeded alike reads the same mask uniforms ``u`` for a
    layer, and an injector at BER ``b`` selects the elements with
    ``u < b``.  The draw keeps the elements under the largest BER
    (``hits``, C order) and, for each, how many of the BERs exceed its
    uniform (``levels``); injector ``i`` selects the hits whose level
    exceeds ``ranks[i]``, the number of BERs above its own.  That is
    exactly ``u < b`` for each injector, at 5 bytes per hit rather than
    each injector's own index array.
    """

    hits: np.ndarray
    levels: np.ndarray
    ranks: Tuple[int, ...]

    def selected(self, i: int) -> np.ndarray:
        """Injector ``i``'s mask as C-order flat indices (``u < ber``)."""
        return self.hits[self.levels > self.ranks[i]].astype(np.intp)


def shared_masks(
    seed: int,
    tables: Sequence[Mapping[str, float]],
    shapes: Mapping[str, Tuple[int, ...]],
) -> Dict[str, SharedMask]:
    """Each layer's flip-mask draw at ``seed``, once for several BER tables.

    ``shapes`` maps a layer name to its accumulators' shape; a layer no
    table flips draws nothing.  The uniforms are
    ``layer_stream(seed, layer, 0).random(shape)``, the very array
    :meth:`BitFlipInjector.flip_plan` of an injector at ``seed`` draws,
    so an injector given these masks (``shared``) plans the same flips.
    """
    masks: Dict[str, SharedMask] = {}
    for name, shape in shapes.items():
        bers = [float(table.get(name, 0.0)) for table in tables]
        top = max(bers, default=0.0)
        if top <= 0.0:
            continue
        uniforms = layer_stream(seed, name, 0).random(shape).reshape(-1)
        hits = np.flatnonzero(uniforms < top)
        under = uniforms[hits]
        levels = np.zeros(hits.size, np.uint8 if len(bers) < 256 else np.uint16)
        for ber in bers:
            if ber > 0.0:
                levels += under < ber
        if uniforms.size <= np.iinfo(np.int32).max:
            hits = hits.astype(np.int32)
        ranks = tuple(sum(other > ber for other in bers) for ber in bers)
        masks[name] = SharedMask(hits, levels, ranks)
    return masks


def msb_weighted_positions(
    n: int,
    rng: np.random.Generator,
    psum_width: int = fp.PSUM_WIDTH,
    decay: float = 0.5,
) -> np.ndarray:
    """Alternative flip-position sampler: geometric decay from the MSB.

    Position ``psum_width-1`` (sign bit) is the most likely; each lower
    bit is ``decay`` times less likely.  Provided for sensitivity studies
    (the default injector uses a uniform MSB window).
    """
    if not 0 < decay <= 1:
        raise ConfigurationError("decay must be in (0, 1]")
    weights = decay ** np.arange(psum_width)
    weights /= weights.sum()
    offsets = rng.choice(psum_width, size=n, p=weights)
    return (psum_width - 1) - offsets
