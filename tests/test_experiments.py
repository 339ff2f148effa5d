"""Integration tests: experiment runners reproduce the paper's findings.

These run at the ``tiny`` scale and share trained bundles through the
experiment cache, so the whole module costs a couple of minutes of CPU.
Each test asserts the *qualitative* property the corresponding figure
demonstrates — the same properties EXPERIMENTS.md reports quantitatively.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import MappingStrategy
from repro.experiments import fig2, fig3, fig5, fig7, fig8, fig9, table1
from repro.experiments.common import SCALES, get_bundle, get_scale, render_table
from repro.errors import ConfigurationError

TINY = SCALES["tiny"]


@pytest.fixture(scope="module")
def vgg_bundle():
    return get_bundle("vgg16_cifar10", TINY)


class TestCommon:
    def test_get_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert get_scale().name == "tiny"
        monkeypatch.delenv("REPRO_SCALE")
        assert get_scale().name == "small"
        with pytest.raises(ConfigurationError):
            get_scale("huge")

    def test_bundle_trains_and_quantizes(self, vgg_bundle):
        assert vgg_bundle.quant_accuracy > 0.5
        # 13 feature convs + the classifier head lowered to a 1x1 conv
        assert len(vgg_bundle.qnet.qconvs()) == 14

    def test_bundle_memo_cache(self, vgg_bundle):
        again = get_bundle("vgg16_cifar10", TINY)
        assert again is vgg_bundle

    @pytest.mark.parametrize(
        "changes",
        [
            {"inject_n": TINY.n_test + 1},
            {"ter_images": TINY.n_test + 1},
            {"n_train": 0},
            {"n_test": 0},
            {"epochs": 0},
            {"ter_pixels": 0},
            {"ter_images": 0},
            {"inject_n": 0},
            {"n_trials": -1},
            {"width": 0.0},
        ],
    )
    def test_scale_rejects_counts_the_test_split_cannot_serve(self, changes):
        with pytest.raises(ConfigurationError):
            replace(TINY, **changes)

    def test_named_scales_are_valid(self):
        for scale in SCALES.values():
            assert replace(scale) == scale

    def test_render_table_alignment(self):
        table = render_table(["a", "bb"], [[1, 2.5], ["xyz", 3e-7]])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular


class TestTable1:
    def test_read_row_claims(self):
        rows = table1.run()
        read = [r for r in rows if "READ" in r.method][0]
        assert read.layer == "dataflow"
        assert not read.accuracy_loss
        assert read.hardware_overhead == "Negligible"
        assert not read.throughput_drop
        assert read.design_effort == "Low"

    def test_renders_all_methods(self):
        text = table1.render(table1.run())
        assert "Guardbanding" in text and "ABFT" in text


class TestFig3:
    def test_flip_counts_match_paper_pattern(self):
        demos = fig3.run()
        assert [d.sign_flips for d in demos] == [4, 0, 1]

    def test_reordering_preserves_result(self):
        demos = fig3.run()
        assert demos[0].final == demos[1].final  # same conv, different order


class TestFig2:
    def test_strong_positive_correlation(self, vgg_bundle):
        result = fig2.run(scale=TINY)
        assert result.correlation > 0.8

    def test_scatter_covers_both_dataflows(self, vgg_bundle):
        result = fig2.run(scale=TINY)
        dataflows = {p.dataflow for p in result.points}
        assert len(dataflows) == 2


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self, vgg_bundle):
        return fig5.run(scale=TINY)

    def test_initial_layout_roughly_uniform(self, result):
        assert abs(fig5.front_loading(result.initial_ratio)) < 0.15

    def test_reorder_concentrates_nonnegative_in_front(self, result):
        assert fig5.front_loading(result.sign_first_ratio) > 0.15
        assert fig5.front_loading(result.mag_first_ratio) > 0.1

    def test_sign_first_beats_mag_first(self, result):
        assert fig5.front_loading(result.sign_first_ratio) >= fig5.front_loading(
            result.mag_first_ratio
        )

    def test_clustering_top_ratios_high(self, result):
        assert result.top25_by_iteration[-1] > 0.6
        assert result.top50_by_iteration[-1] > 0.55


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self, vgg_bundle):
        return fig7.run(scale=TINY)

    def test_all_variants_beat_baseline(self, result):
        for name in ("reorder_sign_first", "reorder_mag_first", "cluster_then_reorder"):
            for i in range(len(result.group_sizes)):
                assert result.ter[name][i] < result.ter["baseline"][i]

    def test_reordering_less_effective_as_group_grows(self, result):
        series = result.ter["reorder_sign_first"]
        assert series[-1] > series[0]

    def test_clustering_helps_at_moderate_widths(self, result):
        # paper: cluster-then-reorder wins especially at larger Ac; at our
        # tiny layer sizes the advantage shows through mid group sizes
        mid = range(1, len(result.group_sizes) - 1)
        assert any(
            result.ter["cluster_then_reorder"][i] <= result.ter["reorder_sign_first"][i]
            for i in mid
        )


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self, vgg_bundle):
        return fig8.run(scale=TINY, recipes=["vgg16_cifar10"])

    def test_every_layer_improves(self, result):
        net = result.networks[0]
        for base, ctr in zip(net.ter["baseline"], net.ter["cluster_then_reorder"]):
            assert ctr < base

    def test_average_reduction_in_paper_ballpark(self, result):
        avg = result.average_reduction(MappingStrategy.CLUSTER_THEN_REORDER)
        assert 2.0 < avg < 40.0

    def test_cluster_beats_plain_reorder_on_average(self, result):
        assert result.average_reduction(
            MappingStrategy.CLUSTER_THEN_REORDER
        ) >= result.average_reduction(MappingStrategy.REORDER) * 0.95

    def test_max_reduction_exceeds_average(self, result):
        strategy = MappingStrategy.CLUSTER_THEN_REORDER
        assert result.max_reduction(strategy) > result.average_reduction(strategy)

    def test_render_includes_summary(self, result):
        assert "cluster-then-reorder avg" in fig8.render(result)


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self, vgg_bundle):
        return fig9.run(scale=TINY)

    def test_reorder_reduces_trace_flips(self, result):
        assert result.reordered.total_sign_flips < result.original.total_sign_flips

    def test_reordered_flips_at_minimum(self, result):
        # after reorder each output flips 0 or 1 times
        assert np.all(result.reordered.sign_flips <= 1)

    def test_trajectories_same_endpoint(self, result):
        # compute correctness: denormalized trajectories end at the same value
        orig_final = result.original.psums[:, -1] * result.original.norm
        reord_final = result.reordered.psums[:, -1] * result.reordered.norm
        np.testing.assert_allclose(orig_final, reord_final, rtol=1e-9, atol=1e-9)

    def test_ascii_plot_renders(self, result):
        art = fig9.ascii_plot(result.reordered.psums)
        assert "*" in art
