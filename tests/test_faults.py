"""Tests for Eq. 1 BER math and the bit-flip fault injector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults.ber import ber_from_ter, ter_from_ber
from repro.faults.evaluate import bers_from_layer_ters
from repro.faults.injection import BitFlipInjector, msb_weighted_positions


class _FakeLayer:
    def __init__(self, name):
        self.name = name


class TestEq1:
    def test_single_mac_identity(self):
        assert float(ber_from_ter(1e-6, 1)) == pytest.approx(1e-6)

    def test_known_value(self):
        assert float(ber_from_ter(0.5, 2)) == pytest.approx(0.75)

    def test_amplification_with_n(self):
        """Eq. 1's point: tiny TER -> large BER at realistic N."""
        ber = float(ber_from_ter(1e-4, 4608))
        assert ber > 0.3

    def test_tiny_ter_precision(self):
        assert float(ber_from_ter(1e-12, 1000)) == pytest.approx(1e-9, rel=1e-6)

    def test_zero_and_bounds(self):
        assert float(ber_from_ter(0.0, 100)) == 0.0
        with pytest.raises(ConfigurationError):
            ber_from_ter(1.5, 10)
        with pytest.raises(ConfigurationError):
            ber_from_ter(0.1, 0)

    @given(
        st.floats(min_value=1e-12, max_value=0.01),
        st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=100)
    def test_roundtrip(self, ter, n):
        ber = float(ber_from_ter(ter, n))
        if ber >= 1.0:
            return  # saturated: the inverse is undefined
        assert float(ter_from_ber(ber, n)) == pytest.approx(ter, rel=1e-5)

    @given(st.floats(min_value=0, max_value=0.5), st.integers(min_value=1, max_value=100))
    @settings(max_examples=100)
    def test_monotone_in_n(self, ter, n):
        assert float(ber_from_ter(ter, n + 1)) >= float(ber_from_ter(ter, n))


class TestBersFromLayerTers:
    def test_basic_conversion(self):
        bers = bers_from_layer_ters({"a": 1e-4}, {"a": 100})
        assert bers["a"] == pytest.approx(float(ber_from_ter(1e-4, 100)))

    def test_only_layers_filter(self):
        bers = bers_from_layer_ters(
            {"a": 1e-4, "b": 1e-4}, {"a": 10, "b": 10}, only_layers=["a"]
        )
        assert set(bers) == {"a"}

    def test_missing_mac_count_rejected(self):
        with pytest.raises(ConfigurationError):
            bers_from_layer_ters({"a": 1e-4}, {})


class TestBitFlipInjector:
    def test_zero_ber_untouched(self):
        injector = BitFlipInjector({"layer": 0.0})
        acc = np.arange(100)
        out = injector(acc, _FakeLayer("layer"))
        assert out is acc

    def test_unlisted_layer_untouched(self):
        injector = BitFlipInjector({"other": 1.0})
        acc = np.arange(100)
        assert injector(acc, _FakeLayer("layer")) is acc

    def test_ber_one_flips_everything(self):
        injector = BitFlipInjector({"layer": 1.0}, seed=0)
        acc = np.zeros(50, dtype=np.int64)
        out = injector(acc, _FakeLayer("layer"))
        assert np.all(out != 0)
        assert injector.flips_injected == 50

    def test_flip_rate_statistical(self):
        injector = BitFlipInjector({"layer": 0.25}, seed=1)
        acc = np.ones(20000, dtype=np.int64) * 1000
        out = injector(acc, _FakeLayer("layer"))
        rate = float((out != acc).mean())
        assert rate == pytest.approx(0.25, abs=0.02)

    def test_relative_mode_error_magnitude_bounded(self):
        """Relative flips stay within the active value region."""
        injector = BitFlipInjector({"layer": 1.0}, relative_window=3, seed=2)
        acc = np.full(100, 1000, dtype=np.int64)  # active msb = bit 9
        out = injector(acc, _FakeLayer("layer"))
        assert np.abs(out - acc).max() <= 2**9

    def test_absolute_mode_uses_window(self):
        injector = BitFlipInjector(
            {"layer": 1.0}, mode="absolute", bit_low=23, bit_high=23, seed=3
        )
        acc = np.zeros(10, dtype=np.int64)
        out = injector(acc, _FakeLayer("layer"))
        assert np.all(out == -(2**23))  # sign-bit flip of the 24-bit register

    def test_reseed_reproducible(self):
        acc = np.arange(1000, dtype=np.int64)
        injector = BitFlipInjector({"layer": 0.3}, seed=0)
        out1 = injector(acc, _FakeLayer("layer"))
        injector.reseed(0)
        out2 = injector(acc, _FakeLayer("layer"))
        assert np.array_equal(out1, out2)
        injector.reseed(1)
        out3 = injector(acc, _FakeLayer("layer"))
        assert not np.array_equal(out1, out3)

    def test_original_array_never_mutated(self):
        injector = BitFlipInjector({"layer": 1.0}, seed=0)
        acc = np.arange(64, dtype=np.int64)
        snapshot = acc.copy()
        injector(acc, _FakeLayer("layer"))
        assert np.array_equal(acc, snapshot)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("ber", [0.0, 0.3])
    def test_apply_plan_into_out_equals_copy(self, dtype, ber):
        """``out=`` is the lanes walk's stacked-buffer flip: it must leave
        the bytes ``apply_plan`` + a copy would, empty plans included, and
        leave the source untouched."""
        layer = _FakeLayer("layer")
        acc = np.arange(-600, 600, 3, dtype=dtype).reshape(20, 20)
        snapshot = acc.copy()
        injector = BitFlipInjector({"layer": ber}, seed=4)
        plan = injector.flip_plan(acc, layer)
        assert (plan is None) == (ber == 0.0)
        expected = injector.apply_plan(acc, plan).copy()
        stacked = np.full((3 * 20, 20), -1, dtype=dtype)
        out = stacked[20:40]
        assert injector.apply_plan(acc, plan, out=out) is out
        assert out.tobytes() == expected.tobytes()
        assert np.all(stacked[:20] == -1) and np.all(stacked[40:] == -1)
        assert acc.tobytes() == snapshot.tobytes()
        with pytest.raises(ConfigurationError):
            injector.apply_plan(acc, plan, out=np.empty((20, 40), dtype=dtype)[:, ::2])
        with pytest.raises(ConfigurationError):
            injector.apply_plan(acc, plan, out=np.empty((10, 40), dtype=dtype))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BitFlipInjector({"layer": 1.5})
        with pytest.raises(ConfigurationError):
            BitFlipInjector({}, bit_low=20, bit_high=30)
        with pytest.raises(ConfigurationError):
            BitFlipInjector({}, mode="sideways")
        with pytest.raises(ConfigurationError):
            BitFlipInjector({}, relative_window=0)


class TestMsbWeightedPositions:
    def test_positions_in_range(self):
        rng = np.random.default_rng(0)
        pos = msb_weighted_positions(1000, rng)
        assert pos.min() >= 0 and pos.max() <= 23

    def test_msb_most_likely(self):
        rng = np.random.default_rng(1)
        pos = msb_weighted_positions(5000, rng, decay=0.5)
        counts = np.bincount(pos, minlength=24)
        assert counts[23] == counts.max()

    def test_decay_validation(self):
        with pytest.raises(ConfigurationError):
            msb_weighted_positions(10, np.random.default_rng(0), decay=0.0)
