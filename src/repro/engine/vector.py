"""The ``vector`` backend: whole-network stacked simulation as array folds.

Corner evaluation reduces to pricing one integer delay histogram per
job, which leaves the per-cycle *trace* — carry chains, settle spans,
sign flips — as the simulation's hot path.  This backend re-derives
the trace statistics of the ``reference`` simulator as a handful of
whole-tensor passes over shared ``(pixels, PEs, groups, cycles)``
tiles, and — the whole-network fold — stacks every equal-shape width
class of a *batch* of jobs (all layers and conv-group GEMMs of a
network, submitted as one :class:`~repro.engine.job.NetworkJob`) along
the group axis of those tiles, so the Python-level loop runs per width
class of the network, not per layer:

* **Field-domain arithmetic.**  Wrapped PSUM registers are congruences
  mod ``2**width``, so the entire register trace is
  ``cumsum(products) & mask`` — no signed wrap/encode round trips.  When
  the datapath provably fits (``width <= 31`` and the worst-case running
  sum under ``2**31``), everything runs in ``int32``/``float32``;
  otherwise the same code runs in ``int64``.
* **Bit-packed operand streams.**  Activations and weights stream from
  the narrowest dtype whose multiply loop provably holds every product
  (quantized layers: ``uint8 x int8 -> int16``), quartering the gather
  traffic of the dominant pass; the masked-addend identity
  ``(f ^ p) & m == f ^ (p & m)`` lets the carry analysis consume the
  narrow products directly.
* **One stacked fold per width class.**  Jobs sharing a *fuse
  signature* — pixel count, reduction depth, PE width, chunking,
  register width, elected dtypes, dataflow — stack along the group
  axis; per-job statistics come back as axis-1 slice reductions of the
  shared tile, and per-job delay histograms as disjoint key offsets
  folded into the weight keys, so stacking adds zero extra passes.
  Bit-equality with per-job execution is licensed by the backend's
  blocking invariance (``tests/test_backend_conformance.py`` pins
  results under ``_MAX_BLOCK_ELEMENTS = 1``): every statistic is a sum
  or scatter over cycles, reduction rows are never split, and
  weight-stationary blocks stay whole ``pixel_chunk`` multiples.
* **Table-driven carry chains.**  The per-cycle chain statistic is
  :func:`repro.hw.carry.chain_metric_values`: two limb lookup tables
  gathered with contiguous takes — the L1-resident 12-bit pair for the
  paper's <= 24-bit accumulators, the 16-bit pair beyond — yielding the
  metric ``L + 1`` directly, so each stacked job reads its chain total
  as one slice reduction.  Registers wider than 32 bits fall back to
  per-job :func:`~repro.hw.carry.chain_length_sum` (survival counting)
  — the stacked fold's only per-layer fallback.
* **Histogram sign flips.**  A PSUM sign flip is exactly a full-width
  toggle span (see :mod:`repro.hw.carry`), so under output-stationary
  adjacency the flip count is read off each job's delay histogram
  ``span == width`` column; weight-stationary adjacency goes through
  :func:`repro.arch.systolic.weight_stationary_fold_grouped` with one
  shared fold and per-job flip slices.
* **Fused corner pricing.**  All corners of all jobs price against one
  shared probability grid over the union of occupied delay bins
  (:func:`repro.hw.dta.histogram_expected_errors_many`); the per-corner
  elementwise-multiply + pairwise-sum contraction makes the TER
  bit-identical no matter how corners or jobs are batched.

The contract, enforced by ``tests/test_backend_conformance.py`` and the
differential fuzzer in :mod:`repro.engine.fuzz`: every report is
bit-identical to ``reference``'s — functional outputs, integer-valued
statistics and the TER, since both backends reduce the identical
histogram through the shared pricing helper.
``benchmarks/test_bench_engine.py`` records the speedup over
``reference`` and the full-network TER wall clock into
``BENCH_engine.json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.config import Dataflow
from ..arch.systolic import LayerReliabilityReport, weight_stationary_fold_grouped
from ..hw.carry import chain_length_sum, chain_metric_values
from ..hw.dta import histogram_expected_errors_many
from ..hw.mac import significance_matrices
from .backends import SimulationBackend
from .job import SimJob


def _l2_cache_bytes() -> int:
    """Per-core L2 size from sysfs, with a conservative 1 MiB fallback."""
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size") as handle:
            text = handle.read().strip()
        scale = 1
        if text[-1:] in ("K", "k"):
            scale, text = 1024, text[:-1]
        elif text[-1:] in ("M", "m"):
            scale, text = 1024 * 1024, text[:-1]
        return int(text) * scale
    except (OSError, ValueError, IndexError):
        return 1024 * 1024


def _auto_block_elements() -> int:
    """Tile bound sized for L2 residency on the build host.

    The pipeline keeps roughly eight per-cycle int32 buffers alive at
    once (products, fields, propagate/live, spans, key temporaries) plus
    the lookup tables and bincount traffic; sizing the tile so the whole
    working set fits the measured L2 keeps the memory-bound passes
    cache-resident — a block-size sweep on the build host puts the knee
    right around ``L2 // 64``.  Clamped so exotic cache hierarchies
    can't produce degenerate tiles.
    """
    return int(min(max(_l2_cache_bytes() // 64, 16_000), 256_000))


#: Peak per-temporary size of a batched tile, in elements.  It does not
#: just cap peak memory: it is auto-tuned from the host's L2 size so the
#: pipeline's handful of int32 per-cycle buffers together stay
#: cache-resident — the passes are memory-bound, and a cache-sized tile
#: runs them several times faster than a DRAM-sized one.  Tiles are cut along whole ``pixel_chunk``
#: multiples and along the stacked group axis.  Results are invariant to
#: this value (pinned by ``tests/test_backend_conformance.py``, which
#: monkeypatches it to 1); it is a module attribute precisely so tests
#: and benchmarks can do that.
_MAX_BLOCK_ELEMENTS = _auto_block_elements()


def _elect_operand_dtypes(
    amin: int, amax: int, wmin: int, wmax: int, dtype
) -> Tuple[np.dtype, np.dtype, np.dtype]:
    """Narrowest exact operand dtypes for the streamed multiply.

    The product runs in ``np.result_type(a, w)``'s ufunc loop (numpy
    ignores ``out`` when selecting it), so packing is only legal when
    every product magnitude fits that loop's dtype and the loop is
    signed; otherwise the operands stay in the elected datapath dtype.
    Returns ``(act_dtype, weight_dtype, product_dtype)``.
    """

    def narrow(lo: int, hi: int) -> np.dtype:
        if 0 <= lo and hi <= 255:
            return np.dtype(np.uint8)
        if -128 <= lo and hi <= 127:
            return np.dtype(np.int8)
        if -32768 <= lo and hi <= 32767:
            return np.dtype(np.int16)
        return np.dtype(dtype)

    a_dt = narrow(amin, amax)
    bound = max(abs(amin), abs(amax)) * max(abs(wmin), abs(wmax))
    for w_cand in (np.int8, np.int16, dtype):
        w_dt = np.dtype(w_cand)
        if not (np.iinfo(w_dt).min <= wmin and wmax <= np.iinfo(w_dt).max):
            continue
        prod_dt = np.result_type(a_dt, w_dt)
        if prod_dt.kind != "u" and bound <= np.iinfo(prod_dt).max:
            return a_dt, w_dt, prod_dt
    wide = np.dtype(dtype)
    return wide, wide, wide


class _JobState:
    """Per-job planning, packing and accumulator state of one stacked run."""

    __slots__ = (
        "job",
        "plan",
        "width",
        "n_spans",
        "span_bias",
        "hist_stride",
        "n_mult",
        "dtype",
        "float_dtype",
        "mask",
        "sign_field",
        "ws",
        "clock",
        "delay_model",
        "n_pixels",
        "c_eff",
        "a_dtype",
        "w_dtype",
        "prod_dtype",
        "acts_op",
        "a_keys",
        "a_lut",
        "w_keys_all",
        "outputs",
        "delay_bins",
        "chain_sum",
        "flip_sum",
        "flip_cycles",
        "n_cycles",
        "prob_sums",
    )

    def __init__(self, job: SimJob):
        config = job.config
        self.job = job
        self.plan = job.build_plan()
        width = config.mac.psum_width
        self.width = width
        self.n_spans = width + 1
        # Histogram keys use *float-exponent-biased* spans: the span of a
        # toggle pattern is read straight off the exponent bits of its
        # float cast (span s > 0 encodes as s + bias, 0 stays 0), which
        # replaces the hot loop's frexp with a view-shift.  The histogram
        # stride widens to width + bias + 1 (slots 1..bias stay empty)
        # and the fan-back in _run_width_class remaps the occupied slots
        # into the standard (n_mult, n_spans) delay_bins layout.
        self.span_bias = 126 if width <= 24 else 1022
        self.hist_stride = width + 1 + self.span_bias
        self.delay_model = config.delay_model
        self.clock = config.nominal_clock_ps()
        self.ws = config.dataflow is Dataflow.WEIGHT_STATIONARY

        acts, weights = job.acts, job.weights
        self.n_pixels, self.c_eff = acts.shape
        self.outputs = np.zeros((self.n_pixels, weights.shape[1]), dtype=np.int64)

        # Datapath dtype election: int32/float32 when provably exact.
        amin = int(acts.min(initial=0))
        amax = int(acts.max(initial=0))
        wmin = int(weights.min(initial=0))
        wmax = int(weights.max(initial=0))
        prefix_bound = self.c_eff * max(abs(amin), amax) * max(abs(wmin), wmax)
        use32 = width <= 31 and prefix_bound < 2**31 - 1
        self.dtype = np.dtype(np.int32 if use32 else np.int64)
        self.float_dtype = np.float32 if width <= 24 else np.float64
        self.mask = self.dtype.type((1 << width) - 1)
        self.sign_field = 1 << (width - 1)
        self.a_dtype, self.w_dtype, self.prod_dtype = _elect_operand_dtypes(
            amin, amax, wmin, wmax, self.dtype
        )
        self.acts_op = np.ascontiguousarray(acts.astype(self.a_dtype))

        # Significance-bit matrices for all (weight, activation) pairs in
        # one shot, pre-scaled to histogram-key strides.
        a_bits, w_bits = significance_matrices(acts, weights)
        n_mult_nominal = config.mac.act_width + config.mac.weight_width + 1
        max_mult = int(a_bits.max(initial=0) + w_bits.max(initial=0))
        self.n_mult = max(n_mult_nominal, max_mult + 1)
        self.delay_bins = np.zeros(self.n_mult * self.n_spans, dtype=np.int64)
        self.a_keys = (a_bits * self.hist_stride).astype(np.int32)  # (n_pixels, C_eff)
        self.w_keys_all = (w_bits * self.hist_stride).astype(np.int32)  # (C_eff, K)
        # Single-byte operands price their activation keys by a value
        # table over the already-gathered operand tile — replacing the
        # second fancy gather of the inner loop with a contiguous take.
        if self.a_dtype.itemsize == 1:
            lut = np.zeros(256, dtype=np.int32)
            lut[self.acts_op.view(np.uint8).reshape(-1)] = self.a_keys.reshape(-1)
            self.a_lut: Optional[np.ndarray] = lut
        else:
            self.a_lut = None

        self.chain_sum = 0
        self.flip_sum = 0
        self.flip_cycles = 0
        self.n_cycles = 0
        self.prob_sums: Optional[np.ndarray] = None

    def fuse_signature(self, m: int) -> tuple:
        """Stacking key: jobs sharing it fold into one tile per width class."""
        return (
            self.n_pixels,
            self.c_eff,
            self.job.pixel_chunk,
            m,
            self.width,
            self.ws,
            self.dtype.str,
            self.prod_dtype.str,
            self.a_dtype.str,
            self.w_dtype.str,
        )

    def report(self) -> Dict[str, LayerReliabilityReport]:
        assert self.prob_sums is not None
        reports = {}
        for i, corner in enumerate(self.job.corners):
            reports[corner.name] = LayerReliabilityReport(
                ter=float(self.prob_sums[i]) / max(self.n_cycles, 1),
                sign_flip_rate=self.flip_sum / max(self.flip_cycles, 1),
                n_cycles=self.n_cycles,
                mean_chain_length=self.chain_sum / max(self.n_cycles, 1),
                outputs=self.outputs,
                n_macs_per_output=self.c_eff,
                strategy=self.plan.strategy.value,
                corner_name=corner.name,
            )
        return reports


class VectorBackend(SimulationBackend):
    """Whole-tile, whole-network vectorized evaluation (see module docstring)."""

    name = "vector"

    def run(self, job: SimJob) -> Dict[str, LayerReliabilityReport]:
        return self.run_network([job])[0]

    def run_network(
        self, jobs: Sequence[SimJob]
    ) -> List[Dict[str, LayerReliabilityReport]]:
        states = [_JobState(job) for job in jobs]

        # Bucket every (job, plan group) unit by fuse signature.  Units
        # append job-major, so each tile sees jobs as contiguous axis-1
        # slices; per-job group order stays plan order throughout.
        stream: Dict[tuple, List[tuple]] = {}
        for js in states:
            for m, width_groups in _groups_by_width(js.plan).items():
                bucket = stream.setdefault(js.fuse_signature(m), [])
                for group in width_groups:
                    bucket.append((js, group))
        for (n_pixels, c_eff, pixel_chunk, m, *_), units in stream.items():
            _run_width_class(units, n_pixels, c_eff, pixel_chunk, m)

        # Output-stationary sign flips come free from the histogram: a
        # PSUM sign flip is exactly a full-width toggle span.
        for js in states:
            if not js.ws:
                js.flip_sum = int(
                    js.delay_bins.reshape(js.n_mult, js.n_spans)[:, js.width].sum()
                )
                js.flip_cycles = js.n_cycles

        # Fused corner pricing: one probability grid per shared timing
        # context, contracted per job / per corner (bit-identical to
        # pricing each job alone — see histogram_expected_errors_many).
        price_groups: Dict[tuple, List[_JobState]] = {}
        for js in states:
            price_groups.setdefault(
                (js.n_spans, js.delay_model, js.clock), []
            ).append(js)
        for (n_spans, delay_model, clock), members in price_groups.items():
            sums = histogram_expected_errors_many(
                [js.delay_bins for js in members],
                n_spans,
                delay_model,
                [js.job.corners for js in members],
                clock,
            )
            for js, prob_sums in zip(members, sums):
                js.prob_sums = prob_sums

        return [js.report() for js in states]


def _run_width_class(
    units: List[tuple], n_pixels: int, c_eff: int, pixel_chunk: int, m: int
) -> None:
    """Simulate one fuse signature's units as stacked group tiles.

    ``units`` is the job-contiguous ``(state, plan group)`` stream of one
    signature; all shared quantities (dtypes, mask, register width,
    dataflow) are equal across it by construction.

    Tiles are laid out ``(pixels, PEs, groups, cycles)`` — the PE axis
    *before* the stacked group axis — so that every broadcast in the hot
    loop advances contiguously over the trailing ``(groups, cycles)``
    plane: the operand product broadcasts activations along the PE axis
    and weights along the pixel axis, and numpy coalesces both into
    inner loops of ``groups * cycles`` elements instead of per-reduction
    strips.  All per-cycle buffers are allocated once per tile and
    re-sliced per pixel block.
    """
    js0: _JobState = units[0][0]
    width = js0.width
    n_spans = js0.n_spans
    dtype = js0.dtype
    mask = js0.mask
    sign_field = js0.sign_field
    float_dtype = js0.float_dtype
    ws = js0.ws
    wide_chain = width > 32

    span_bias = js0.span_bias
    stride = js0.hist_stride

    # Disjoint histogram segments per job: the job's slot offset rides
    # inside its weight keys, so the stacked tile still histograms with
    # a single bincount.  Segments share the signature's widest n_mult;
    # a narrower job's own keys can never reach the shared tail, so the
    # fan-back-out below only ever touches its own bins.  Segment rows
    # are hist_stride wide (biased spans — see _JobState); the fan-back
    # compacts them to the standard n_spans layout.
    slot_of: Dict[int, int] = {}
    slot_states: List[_JobState] = []
    for js, _ in units:
        if id(js) not in slot_of:
            slot_of[id(js)] = len(slot_states)
            slot_states.append(js)
    seg = max(js.n_mult for js in slot_states) * stride
    hist = np.zeros(seg * len(slot_states), dtype=np.int64)

    per_group = m * c_eff * pixel_chunk
    g_per_tile = max(1, _MAX_BLOCK_ELEMENTS // max(1, per_group))
    for t0 in range(0, len(units), g_per_tile):
        tile = units[t0 : t0 + g_per_tile]
        gt = len(tile)

        # Per-job runs of the tile: (state, group-axis slice, orders,
        # columns).  The group axis is tile axis 2.
        specs = []
        i = 0
        while i < len(tile):
            js = tile[i][0]
            j = i
            while j < len(tile) and tile[j][0] is js:
                j += 1
            groups = [g for _, g in tile[i:j]]
            orders = np.stack([g.order for g in groups])  # (Gj, C_eff)
            columns = np.concatenate([g.columns for g in groups])  # (Gj*m,)
            specs.append((js, slice(i, j), orders, columns))
            i = j
        # group.weights == W[order][:, columns], so the pairwise
        # significance keys gather from the one-shot per-job matrices.
        # Both operands transpose to (m, Gt, C_eff) — PE-major, matching
        # the tile layout.
        w_op = np.ascontiguousarray(
            np.concatenate(
                [
                    np.stack([np.asarray(g.weights).T for _, g in tile[sl]]).astype(
                        js.w_dtype
                    )
                    for js, sl, _, _ in specs
                ]
            ).transpose(1, 0, 2)
        )  # (m, Gt, C_eff)
        w_key = np.ascontiguousarray(
            np.concatenate(
                [
                    np.stack(
                        [js.w_keys_all[g.order][:, g.columns].T for _, g in tile[sl]]
                    )
                    + np.int32(slot_of[id(js)] * seg)
                    for js, sl, _, _ in specs
                ]
            ).transpose(1, 0, 2)
        )  # (m, Gt, C_eff), job histogram offsets folded in

        cycles_per_pixel = gt * m * c_eff
        chunks = max(1, _MAX_BLOCK_ELEMENTS // max(1, cycles_per_pixel * pixel_chunk))
        block = min(n_pixels, chunks * pixel_chunk)

        # One allocation per tile; every pixel block below re-slices
        # these, so page faults and allocator churn drop out of the hot
        # loop (the final partial block simply uses a shorter slice).
        # Output-stationary tiles reuse the fields buffer as the span
        # source once the raw prefix sums have been consumed, so the
        # dedicated sx buffer only exists for weight-stationary tiles
        # (whose fold still needs the masked fields).
        shape = (block, m, gt, c_eff)
        a_full = np.empty((block, gt, c_eff), dtype=js0.a_dtype)
        k_full = np.empty((block, gt, c_eff), dtype=np.int32)
        prod_full = np.empty(shape, dtype=js0.prod_dtype)
        fields_full = np.empty(shape, dtype=dtype)
        prop_full = np.empty(shape, dtype=dtype)
        carry_full = np.empty(shape, dtype=dtype)
        sx_full = np.empty(shape, dtype=dtype) if ws else None
        float_full = np.empty(shape, dtype=float_dtype)
        spans_full = np.empty(shape, dtype=np.int32)
        exp_shift = 23 if float_dtype is np.float32 else 52
        out_mask = (1 << width) - 1

        for start in range(0, n_pixels, block):
            stop = min(start + block, n_pixels)
            p = stop - start
            a_buf = a_full[:p]
            k_buf = k_full[:p]
            prod = prod_full[:p]
            fields = fields_full[:p]
            prop = prop_full[:p]
            carry = carry_full[:p]

            # Operand gathers on the packed dtypes; activation keys via
            # the per-job value table when one exists (single-byte
            # operands), a fancy gather otherwise.
            for js, sl, orders, _ in specs:
                a_buf[:, sl] = js.acts_op[start:stop][:, orders]
                if js.a_lut is not None:
                    k_buf[:, sl] = js.a_lut[a_buf[:, sl].view(np.uint8)]
                else:
                    k_buf[:, sl] = js.a_keys[start:stop][:, orders]

            # (p, m, Gt, C): acts broadcast along PEs, weights along
            # pixels — both with contiguous (Gt, C) inner planes.
            np.multiply(a_buf[:, None, :, :], w_op[None], out=prod)
            # dtype pinned: a bare cumsum would promote the narrow
            # products to int64 and double the traffic of every pass
            # below; the preallocated out skips its allocating copy.
            # The prefix sums stay *raw* (unmasked) — the dtype election
            # bounds them exactly — and masking is deferred to the few
            # consumers that need register semantics: the XOR-derived
            # quantities below, the WS fold, and the output extraction.
            np.add.accumulate(prod, axis=-1, dtype=dtype, out=fields)

            # Exact outputs off the raw last column, masked in int64 —
            # extracted first so the fields buffer is free for reuse.
            last = fields[..., -1]  # (p, m, Gt) raw output sums
            for js, sl, _, columns in specs:
                sub = last[:, :, sl].transpose(0, 2, 1).astype(np.int64)
                sub &= out_mask
                js.outputs[start:stop][:, columns] = np.where(
                    sub >= sign_field, sub - (1 << width), sub
                ).reshape(p, -1)
                js.n_cycles += (sl.stop - sl.start) * m * c_eff * p

            # Carry chains from the field-domain live runs (the masked-
            # addend form of hw.carry.live_carry_fields).  Raw prefixes
            # and sign-extended narrow products only disturb bits at or
            # above ``width``, so prop/carry are computed raw and the
            # single mask lands on the live runs.
            np.bitwise_xor(fields[..., :-1], prod[..., 1:], out=prop[..., 1:])
            prop[..., 0] = prod[..., 0]  # cycle 0: previous field is 0
            np.bitwise_xor(prop, fields, out=carry)  # carry in: a ^ b ^ s

            # Native (within-pixel) settle spans: the cycle-adjacent
            # field XOR is ``s ^ a``, which equals ``carry ^ b`` — one
            # full-length pass instead of a shifted one.  OS tiles write
            # it over the no-longer-needed raw prefix sums; WS tiles
            # first mask the fields (the fold consumes true registers).
            if ws:
                fields &= mask
                sx = sx_full[:p]
            else:
                sx = fields
            np.bitwise_xor(carry, prod, out=sx)
            sx &= mask
            # Biased spans straight off the float exponent bits: cast is
            # exact (float_dtype election), and for sx > 0 with span s
            # the exponent field reads s + span_bias, 0 for sx == 0 —
            # no frexp, no fix-up pass.
            float_full[:p] = sx
            np.right_shift(
                float_full[:p].view(np.int32 if exp_shift == 23 else np.int64),
                exp_shift,
                out=spans_full[:p],
            )
            spans = spans_full[:p]  # int32 biased toggle spans

            live = carry  # in place: live runs are carry & propagate
            live &= prop
            live &= mask
            if wide_chain:
                for js, sl, _, _ in specs:
                    js.chain_sum += chain_length_sum(live[:, :, sl])
            else:
                metric = chain_metric_values(live, max_bits=width)
                for js, sl, _, _ in specs:
                    js.chain_sum += int(metric[:, :, sl].sum(dtype=np.int64))

            if ws:
                spans, flips, rows = weight_stationary_fold_grouped(
                    fields,
                    spans,
                    pixel_chunk,
                    width,
                    [(slice(None), slice(None), sl) for _, sl, _, _ in specs],
                    span_bias=span_bias,
                )
                for (js, sl, _, _), job_flips in zip(specs, flips):
                    js.flip_sum += job_flips
                    js.flip_cycles += rows * (sl.stop - sl.start) * m * c_eff

            # Delay histogram: key = (act_bits + weight_bits) * stride
            # + biased span (+ job segment offset), one bincount per
            # tile block.
            spans += k_buf[:, None, :, :]
            spans += w_key[None]
            hist += np.bincount(spans.reshape(-1), minlength=hist.size)

    # Fan each job's histogram segment back out of the shared bincount,
    # compacting the biased-span rows (slots 1..span_bias provably
    # empty) into the standard (n_mult, n_spans) delay_bins layout.
    for k, js in enumerate(slot_states):
        rows = hist[k * seg : k * seg + js.n_mult * stride].reshape(
            js.n_mult, stride
        )
        bins = js.delay_bins.reshape(js.n_mult, n_spans)
        bins[:, 0] += rows[:, 0]
        bins[:, 1:] += rows[:, span_bias + 1 : span_bias + 1 + width]


def _groups_by_width(plan) -> Dict[int, List[object]]:
    """Plan groups keyed by output-channel count, plan order preserved.

    Groups of equal width stack into one tensor; an indivisible ``K``
    leaves one narrower trailing group, which simply forms its own
    (singleton) width class.
    """
    by_width: Dict[int, List[object]] = {}
    for group in plan.groups:
        by_width.setdefault(len(group.columns), []).append(group)
    return by_width
