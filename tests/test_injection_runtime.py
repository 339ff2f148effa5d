"""Trial-batched vs serial injection runtime: the bit-identity contract.

The batched runtime (one stacked forward pass per campaign, exact
channels-last BLAS GEMMs, vectorized per-(trial, layer) flips) must be
*bit-identical* to the serial reference loop — same trial accuracies,
same flip counts — for every BER table, seed, injection mode, trial
count and evaluation batch size.  And since protocol v2 both runtimes
must themselves be invariant to ``batch_size``: flip masks/positions are
drawn from per-(trial, layer) substreams and the relative-mode window is
fixed by the *full-batch* fault-free accumulators, so chunking cannot
move a single flip (the old per-chunk ``active_msb`` trap).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.experiments.common import SCALES, get_bundle
from repro.faults import (
    BitFlipInjector,
    measure_active_msbs,
    merge_results,
    run_injection_trials,
)
from repro.faults.injection_job import _pass_msbs
from repro.nn import quantize
from repro.nn.quantize import FaultFreePass, QuantizedNetwork, TrialBatchStats, _QBlock

MICRO = SCALES["micro"]


def _held_arrays(prefix):
    """Every array a fault-free pass holds, whatever field holds it."""
    held = []
    for value in vars(prefix).values():
        values = value.values() if isinstance(value, dict) else [value]
        held += [v for v in values if isinstance(v, np.ndarray)]
    return held


@pytest.fixture(scope="module")
def vgg():
    return get_bundle("vgg16_cifar10", MICRO)


@pytest.fixture(scope="module")
def resnet():
    return get_bundle("resnet18_cifar10", MICRO)


def campaign(bundle, runtime, *, ber=2e-3, n_layers=None, batch_size=128, **kwargs):
    names = [qc.name for qc in bundle.qnet.qconvs()]
    if n_layers is not None:
        names = names[:n_layers]
    kwargs.setdefault("n_trials", 2)
    kwargs.setdefault("base_seed", 7)
    return run_injection_trials(
        bundle.qnet,
        bundle.x_test[:16],
        bundle.y_test[:16],
        {name: ber for name in names},
        runtime=runtime,
        batch_size=batch_size,
        **kwargs,
    )


class TestRuntimeEquivalence:
    """batched(spec) == serial(spec), bit for bit."""

    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        ber=st.sampled_from([1e-4, 2e-3, 0.05]),
        base_seed=st.integers(min_value=0, max_value=5000),
        mode=st.sampled_from(["relative", "absolute"]),
        batch_size=st.sampled_from([5, 8, 16, 128]),
        n_trials=st.integers(min_value=1, max_value=3),
        n_layers=st.sampled_from([2, None]),
    )
    def test_property_equivalence(
        self, vgg, ber, base_seed, mode, batch_size, n_trials, n_layers
    ):
        kwargs = dict(
            ber=ber,
            base_seed=base_seed,
            mode=mode,
            batch_size=batch_size,
            n_trials=n_trials,
            n_layers=n_layers,
        )
        serial = campaign(vgg, "serial", **kwargs)
        batched = campaign(vgg, "batched", **kwargs)
        assert serial.trial_accuracies == batched.trial_accuracies
        assert serial.flips_injected == batched.flips_injected

    def test_resnet_blocks_and_shortcuts(self, resnet):
        # Residual blocks exercise the fork-alignment logic; injecting a
        # shortcut conv too covers the independently-forking side paths.
        names = [qc.name for qc in resnet.qnet.qconvs(include_shortcuts=True)]
        assert any("shortcut" in name for name in names)
        bers = {name: 3e-3 for name in names}
        x, y = resnet.x_test[:16], resnet.y_test[:16]
        serial = run_injection_trials(
            resnet.qnet, x, y, bers, n_trials=2, base_seed=3, runtime="serial"
        )
        batched = run_injection_trials(
            resnet.qnet, x, y, bers, n_trials=2, base_seed=3, runtime="batched"
        )
        assert serial.trial_accuracies == batched.trial_accuracies
        assert serial.flips_injected == batched.flips_injected

    @pytest.mark.parametrize(
        "layer",
        ["block2.shortcut", "block2.conv2", "block1.conv1"],
        ids=["conv-shortcut-only", "qconv2-only", "identity-block-main-only"],
    )
    def test_resnet_one_sided_joins(self, resnet, layer):
        # Flips land on one side of a residual join only, so the other
        # side joins as its fault-free output: rebuilt from the pass's
        # accumulators for block2's conv2 and shortcut, read from the
        # stored block input for block1's identity shortcut.
        names = {qc.name for qc in resnet.qnet.qconvs(include_shortcuts=True)}
        assert layer in names
        x, y = resnet.x_test[:16], resnet.y_test[:16]
        runs = {
            runtime: run_injection_trials(
                resnet.qnet, x, y, {layer: 5e-3}, n_trials=3, base_seed=5, runtime=runtime
            )
            for runtime in ("serial", "batched")
        }
        assert runs["batched"].flips_injected > 0
        assert runs["batched"].trial_accuracies == runs["serial"].trial_accuracies
        assert runs["batched"].trial_correct == runs["serial"].trial_correct
        assert runs["batched"].flips_injected == runs["serial"].flips_injected

    @pytest.mark.parametrize(
        "bundle_name, layers",
        [
            ("vgg", None),
            ("resnet", None),
            ("resnet", ["block2.shortcut"]),
            ("resnet", ["block2.conv2"]),
            ("resnet", ["block1.conv1"]),
        ],
        ids=["vgg-all", "resnet-all", "conv-shortcut-only", "qconv2-only", "identity-main-only"],
    )
    def test_one_image_accumulation_blocks(self, request, bundle_name, layers, monkeypatch):
        # The lanes walk with every conv accumulated one image per block,
        # its fault-free pass included, against the serial int64 loop;
        # the one-sided cases join a diverged side with a fault-free one.
        monkeypatch.setattr(quantize, "_ACC_BLOCK_BYTES", 1)
        bundle = request.getfixturevalue(bundle_name)
        names = layers or [qc.name for qc in bundle.qnet.qconvs(include_shortcuts=True)]
        bers = {name: 5e-3 if layers else 3e-3 for name in names}
        x, y = bundle.x_test[:16], bundle.y_test[:16]
        runs = {
            runtime: run_injection_trials(
                bundle.qnet, x, y, bers, n_trials=3, base_seed=5, runtime=runtime
            )
            for runtime in ("serial", "batched")
        }
        assert runs["batched"].flips_injected > 0
        assert runs["batched"].trial_accuracies == runs["serial"].trial_accuracies
        assert runs["batched"].trial_correct == runs["serial"].trial_correct
        assert runs["batched"].flips_injected == runs["serial"].flips_injected

    def test_resnet_partial_block_fork(self, resnet):
        # fig11-style early-layer subset: the fork lands mid-block, with
        # some block convs (and the shortcut) still fault-free.
        names = [qc.name for qc in resnet.qnet.qconvs()][1:4]
        bers = {name: 5e-3 for name in names}
        x, y = resnet.x_test[:16], resnet.y_test[:16]
        serial = run_injection_trials(
            resnet.qnet, x, y, bers, n_trials=2, base_seed=9, runtime="serial"
        )
        batched = run_injection_trials(
            resnet.qnet, x, y, bers, n_trials=2, base_seed=9, runtime="batched"
        )
        assert serial.trial_accuracies == batched.trial_accuracies
        assert serial.flips_injected == batched.flips_injected

    def test_late_layers_only_shared_prefix(self, vgg):
        # Injecting only the last convs maximizes the shared fault-free
        # prefix (convs, ReLUs and pools all served from the cached pass).
        names = [qc.name for qc in vgg.qnet.qconvs()][-2:]
        bers = {name: 5e-3 for name in names}
        x, y = vgg.x_test[:16], vgg.y_test[:16]
        serial = run_injection_trials(
            vgg.qnet, x, y, bers, n_trials=3, base_seed=4, runtime="serial"
        )
        batched = run_injection_trials(
            vgg.qnet, x, y, bers, n_trials=3, base_seed=4, runtime="batched"
        )
        assert serial.trial_accuracies == batched.trial_accuracies
        assert serial.flips_injected == batched.flips_injected

    def test_topk_equivalence(self, vgg):
        serial = campaign(vgg, "serial", topk=3)
        batched = campaign(vgg, "batched", topk=3)
        assert serial.trial_accuracies == batched.trial_accuracies

    def test_explicit_prefix_matches_fresh(self, vgg):
        x = vgg.x_test[:16]
        prefix = vgg.qnet.fault_free_pass(x)
        fresh = campaign(vgg, "batched")
        with_prefix = campaign(vgg, "batched", prefix=prefix)
        assert fresh.trial_accuracies == with_prefix.trial_accuracies
        assert fresh.flips_injected == with_prefix.flips_injected


class TestPruningEquivalence:
    """Masked-trial pruning + effective-flip dedup are exactness-preserving.

    The lanes walk (fault-free lane, plan-signature dedup, masked
    re-join checkpoints) must be bit-identical to the serial reference
    — for every BER decade (the low decades are where pruning actually
    fires), seed, batch size, trial count and layer subset.
    """

    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        ber=st.sampled_from([1e-9, 3e-6, 2e-3]),
        base_seed=st.integers(min_value=0, max_value=5000),
        batch_size=st.sampled_from([5, 8, 128]),
        n_trials=st.integers(min_value=1, max_value=3),
        n_layers=st.sampled_from([2, None]),
    )
    def test_property_prune_invariance(
        self, vgg, ber, base_seed, batch_size, n_trials, n_layers
    ):
        kwargs = dict(
            ber=ber,
            base_seed=base_seed,
            batch_size=batch_size,
            n_trials=n_trials,
            n_layers=n_layers,
        )
        on = campaign(vgg, "batched", **kwargs)
        serial = campaign(vgg, "serial", **kwargs)
        assert on.trial_accuracies == serial.trial_accuracies
        assert on.trial_correct == serial.trial_correct
        assert on.flips_injected == serial.flips_injected

    def test_prune_invariance_on_resnet_blocks(self, resnet):
        # Pruned trials re-join the fault-free lane mid-network; residual
        # blocks (and shortcut forks) must observe the re-joined classes.
        names = [qc.name for qc in resnet.qnet.qconvs(include_shortcuts=True)]
        bers = {name: 2e-6 for name in names}
        x, y = resnet.x_test[:16], resnet.y_test[:16]
        runs = {
            runtime: run_injection_trials(
                resnet.qnet, x, y, bers, n_trials=3, base_seed=3, runtime=runtime
            )
            for runtime in ("serial", "batched")
        }
        assert runs["batched"].trial_accuracies == runs["serial"].trial_accuracies
        assert runs["batched"].flips_injected == runs["serial"].flips_injected

    def test_prune_invariance_across_shard_partitions(self, vgg):
        # Shards of [0, 6) executed on the lanes walk must merge into the
        # monolithic serial result bit for bit: trial_offset seeds and
        # the lanes walk compose.
        names = [qc.name for qc in vgg.qnet.qconvs()[:3]]
        bers = {name: 3e-6 for name in names}
        x, y = vgg.x_test[:18], vgg.y_test[:18]

        def shard(lo, hi, runtime):
            return run_injection_trials(
                vgg.qnet, x, y, bers, n_trials=hi - lo, trial_offset=lo,
                base_seed=7, runtime=runtime, batch_size=7,
            )

        mono = shard(0, 6, "serial")
        for cuts in ([(0, 6)], [(0, 2), (2, 5), (5, 6)], [(0, 3), (3, 6)]):
            merged = merge_results([shard(lo, hi, "batched") for lo, hi in cuts])
            assert merged.trial_accuracies == mono.trial_accuracies
            assert merged.trial_correct == mono.trial_correct
            assert merged.flips_injected == mono.flips_injected

    def test_duplicate_flip_plans_collapse(self, vgg):
        # Injectors seeded identically draw identical flip plans — the
        # lanes walk must collapse them onto one representative and fan
        # the exact counts back out to every trial.
        x, y = vgg.x_test[:16], vgg.y_test[:16]
        prefix = vgg.qnet.fault_free_pass(x)
        msbs = _pass_msbs(prefix, 3)
        names = [qc.name for qc in vgg.qnet.qconvs()[:3]]
        bers = {name: 2e-3 for name in names}

        def trio():
            return [
                BitFlipInjector(bers, seed=11, msb_per_layer=msbs)
                for _ in range(3)
            ]

        stats = TrialBatchStats()
        lanes, serial_injectors = trio(), trio()
        on = vgg.qnet.evaluate_trials(x, y, lanes, prefix=prefix, stats=stats)
        serial = [vgg.qnet.evaluate(x, y, injector=inj) for inj in serial_injectors]
        assert on == serial
        assert on[0] == on[1] == on[2]
        assert [inj.flips_injected for inj in lanes] == [
            inj.flips_injected for inj in serial_injectors
        ]
        # Per injected conv, trials 1 and 2 join trial 0's class.
        assert stats.deduped >= 2 * len(names)

    def test_masked_trials_return_to_fault_free_lane(self, vgg):
        # At a vanishing BER every draw is empty: all trials collapse to
        # the fault-free lane (counted as dedup) and score exactly the
        # fault-free accuracy.
        x, y = vgg.x_test[:16], vgg.y_test[:16]
        prefix = vgg.qnet.fault_free_pass(x)
        msbs = _pass_msbs(prefix, 3)
        names = [qc.name for qc in vgg.qnet.qconvs()]
        bers = {name: 1e-12 for name in names}
        injectors = [
            BitFlipInjector(bers, seed=s, msb_per_layer=msbs) for s in (1, 2)
        ]
        stats = TrialBatchStats()
        accs = vgg.qnet.evaluate_trials(x, y, injectors, prefix=prefix, stats=stats)
        assert sum(inj.flips_injected for inj in injectors) == 0
        assert stats.deduped == 2 * len(names)
        fault_free = vgg.qnet.evaluate(x, y)
        assert accs == [fault_free, fault_free]


class TestBatchSizeInvariance:
    """The satellite regression: batch_size must not move a single flip."""

    @pytest.mark.parametrize("runtime", ["serial", "batched"])
    def test_accuracies_and_flips(self, vgg, runtime):
        reference = campaign(vgg, runtime, batch_size=128)
        for batch_size in (5, 7, 8, 16):
            result = campaign(vgg, runtime, batch_size=batch_size)
            assert result.trial_accuracies == reference.trial_accuracies, batch_size
            assert result.flips_injected == reference.flips_injected, batch_size

    def test_chunked_injector_calls_equal_full_batch(self, vgg):
        """Raw injector contract: chunk-split calls == one full-batch call."""
        layer = vgg.qnet.qconvs()[0]
        rng = np.random.default_rng(0)
        acc = rng.integers(-(2**15), 2**15, size=(96, 8))
        msbs = {layer.name: 15}
        full = BitFlipInjector({layer.name: 0.05}, seed=11, msb_per_layer=msbs)
        whole = full(acc, layer)
        chunked = BitFlipInjector({layer.name: 0.05}, seed=11, msb_per_layer=msbs)
        parts = [chunked(acc[i : i + 25], layer) for i in range(0, 96, 25)]
        assert np.array_equal(whole, np.concatenate(parts, axis=0))
        assert full.flips_injected == chunked.flips_injected

    def test_msb_window_is_full_batch(self, vgg):
        """measure_active_msbs is chunking-invariant and matches the pass."""
        x = vgg.x_test[:16]
        a = measure_active_msbs(vgg.qnet, x, batch_size=128)
        b = measure_active_msbs(vgg.qnet, x, batch_size=5)
        assert a == b
        assert _pass_msbs(vgg.qnet.fault_free_pass(x), 3) == a


class TestExactBlasGemm:
    """The BLAS accumulators must be bit-identical to the int64 datapath."""

    def test_accumulators_match_int64_reference(self, vgg):
        from repro.arch.mapper import im2col

        x = vgg.x_test[:8]
        state = x
        for qc in vgg.qnet.qconvs()[:3]:
            acc_blas = qc.accumulate_exact(state)
            cols = im2col(
                qc.quantize_input(state),
                qc.weight_q.shape[2],
                qc.weight_q.shape[3],
                stride=qc.stride,
                padding=qc.padding,
            )
            acc_ref = cols @ qc.lowered_weight_matrix()
            assert np.array_equal(acc_blas.astype(np.int64), acc_ref)
            # every BLAS accumulator is an exactly-held integer
            assert np.array_equal(np.rint(acc_blas), acc_blas)
            state = np.maximum(qc(state), 0.0)

    def test_dtype_follows_accumulator_bound(self, vgg):
        for qc in vgg.qnet.qconvs():
            bound = qc.acc_bound()
            assert bound < (1 << 53)
            expected = np.float32 if bound < (1 << 24) else np.float64
            for w in qc._blas_weights_nhwc():
                assert w.dtype == expected

    def test_fault_free_pass_serves_frozen_arrays(self, vgg, resnet):
        for bundle in (vgg, resnet):
            prefix = bundle.qnet.fault_free_pass(bundle.x_test[:8])
            assert prefix.n_images == 8
            held = _held_arrays(prefix)
            assert held
            for arr in held:
                assert not arr.flags.writeable
            assert prefix.nbytes() > 0

    def test_fault_free_pass_holds_only_what_the_walk_reads(self, resnet, monkeypatch):
        """Accumulators in the BLAS dtype, identity-block inputs and the
        final features; no conv's float64 output but the head's (which is
        the features), and every conv output the walk rebuilds from the
        accumulators equals the forward's byte for byte."""
        outs = {}
        forward = QuantizedNetwork._forward_nhwc

        def spying(qnet, x, on_conv=None, **kwargs):
            def seen(qc, acc, out):
                outs[qc.name] = out
                on_conv(qc, acc, out)

            return forward(qnet, x, on_conv=seen, **kwargs)

        monkeypatch.setattr(QuantizedNetwork, "_forward_nhwc", spying)
        qnet = resnet.qnet
        prefix = qnet.fault_free_pass(resnet.x_test[:8])
        convs = qnet.qconvs(include_shortcuts=True)
        identity = [
            i for i, op in enumerate(qnet._ops) if isinstance(op, _QBlock) and op.qshortcut is None
        ]
        assert sorted(prefix.acc) == sorted(outs) == sorted(qc.name for qc in convs)
        assert sorted(prefix.block_inputs) == identity and identity
        held = _held_arrays(prefix)
        assert len(held) == len(convs) + len(identity) + 1
        head = convs[-1].name
        for qc in convs:
            acc = prefix.acc[qc.name]
            assert acc.dtype == qc._blas_weights_nhwc()[0].dtype
            rebuilt = qc.dequantize_nhwc(acc, *prefix.out_hw[qc.name])
            assert rebuilt.tobytes() == outs[qc.name].tobytes()
            if qc.name != head:
                assert not any(np.shares_memory(outs[qc.name], arr) for arr in held)
        assert np.shares_memory(prefix.features, outs[head])

    def test_nbytes_counts_each_buffer_once(self):
        shared = np.zeros((4, 2, 2, 3))
        prefix = FaultFreePass(
            n_images=4,
            acc={"conv": shared.reshape(16, 3)},
            block_inputs={1: shared},
            features=shared[:, :1, :1],
        )
        assert prefix.nbytes() == shared.nbytes
        prefix.acc["other"] = np.zeros((16, 3), dtype=np.float32)
        assert prefix.nbytes() == shared.nbytes + 16 * 3 * 4


class TestEvaluateChunking:
    """The satellite small-fix: exact counts, non-divisible batch sizes."""

    def test_non_divisible_batch_size(self, vgg):
        x, y = vgg.x_test[:18], vgg.y_test[:18]
        full = vgg.qnet.evaluate(x, y, batch_size=18)
        for batch_size in (5, 7, 18, 64):
            assert vgg.qnet.evaluate(x, y, batch_size=batch_size) == full

    def test_accuracy_is_exact_count_ratio(self, vgg):
        x, y = vgg.x_test[:18], vgg.y_test[:18]
        acc = vgg.qnet.evaluate(x, y, batch_size=7)
        assert (acc * 18) == pytest.approx(round(acc * 18), abs=1e-12)


class TestShardedChunkedEquivalence:
    """Sharding x runtime x non-divisible evaluate chunks, all at once.

    A campaign shard evaluates trials ``[lo, hi)`` via ``trial_offset``;
    with 18 images and ``batch_size=7`` the final evaluate chunk holds 4
    images.  Bit-identity must survive the combination: serial == batched
    on every shard, and shards merged in either runtime == the monolithic
    serial run.
    """

    N_IMAGES = 18
    CUTS = [(0, 2), (2, 5), (5, 6)]

    def sharded(self, bundle, runtime, lo, hi):
        names = [qc.name for qc in bundle.qnet.qconvs()[:2]]
        return run_injection_trials(
            bundle.qnet,
            bundle.x_test[: self.N_IMAGES],
            bundle.y_test[: self.N_IMAGES],
            {name: 2e-3 for name in names},
            n_trials=hi - lo,
            trial_offset=lo,
            base_seed=7,
            runtime=runtime,
            batch_size=7,
        )

    def test_serial_equals_batched_on_every_shard(self, vgg):
        for lo, hi in self.CUTS:
            assert self.sharded(vgg, "serial", lo, hi) == self.sharded(
                vgg, "batched", lo, hi
            )

    def test_shard_merge_equals_monolithic_across_runtimes(self, vgg):
        mono = self.sharded(vgg, "serial", 0, 6)
        merged = merge_results(
            [self.sharded(vgg, "batched", lo, hi) for lo, hi in self.CUTS]
        )
        assert merged.trial_accuracies == mono.trial_accuracies
        assert merged.trial_correct == mono.trial_correct
        assert merged.flips_injected == mono.flips_injected
        assert merged.n_images == mono.n_images == self.N_IMAGES


class TestValidation:
    def test_mismatched_trial_tables_rejected(self, vgg):
        x = vgg.x_test[:8]
        convs = vgg.qnet.qconvs()
        injectors = [
            BitFlipInjector({convs[0].name: 1e-3}, seed=1),
            BitFlipInjector({convs[0].name: 2e-3}, seed=2),
        ]
        with pytest.raises(QuantizationError):
            vgg.qnet.forward_trials(x, injectors)

    def test_prefix_size_mismatch_rejected(self, vgg):
        x = vgg.x_test[:8]
        prefix = vgg.qnet.fault_free_pass(vgg.x_test[:16])
        injectors = [BitFlipInjector({vgg.qnet.qconvs()[0].name: 1e-3}, seed=1)]
        with pytest.raises(QuantizationError):
            vgg.qnet.forward_trials(x, injectors, prefix=prefix)

    def test_no_injectors_rejected(self, vgg):
        with pytest.raises(QuantizationError):
            vgg.qnet.forward_trials(vgg.x_test[:8], [])
