"""Injection units: cells that differ only in their BER table share draws.

A grid corner's three strategy cells share ``corner_seed``, so their
trials read the same flip-mask uniforms.  The scheduler fuses such cells
into one :class:`~repro.faults.injection_job.InjectionUnit`, which draws
each (trial, layer) mask once and thresholds it per cell.  Every member's
result must equal the cell run alone — on the batched runtime as a unit
of one, and on the serial runtime, which draws live — inline, on the
pool and at ``--jobs 2``; every plan must equal
:meth:`~repro.faults.injection.BitFlipInjector.flip_plan`'s.
"""

import dataclasses
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import SimEngine
from repro.experiments.common import SCALES, get_bundle
from repro.faults import InjectionJob, injection, injection_job_for_bundle
from repro.faults.injection import BitFlipInjector, shared_masks
from repro.faults.injection_job import InjectionUnit, _pass_msbs, injection_units

MICRO = SCALES["micro"]


@pytest.fixture(scope="module")
def bundles():
    return {}


def bundle_for(bundles, recipe):
    if recipe not in bundles:
        bundles[recipe] = get_bundle(recipe, MICRO)
    return bundles[recipe]


def layer_names(bundle):
    return [qc.name for qc in bundle.qnet.qconvs(include_shortcuts=True)]


def cells(bundle, tables, base_seed=7, **kwargs):
    kwargs.setdefault("inject_n", 16)
    kwargs.setdefault("n_trials", 3)
    return [
        injection_job_for_bundle(
            bundle, table, base_seed=base_seed, label=f"cell{i}", **kwargs
        )
        for i, table in enumerate(tables)
    ]


def assert_same(got, want):
    assert got.trial_accuracies == want.trial_accuracies
    assert got.trial_correct == want.trial_correct
    assert got.flips_injected == want.flips_injected
    assert got.n_images == want.n_images


def every(names, ber):
    return {name: ber for name in names}


#: (recipe, tables): each builds the tables of one unit's members.
UNITS = {
    "vgg16-strategies": (
        "vgg16_cifar10",
        lambda names: [every(names, 2e-3), every(names, 5e-4), every(names, 0.0)],
    ),
    "vgg16-different-layers": (
        "vgg16_cifar10",
        lambda names: [every(names[:3], 2e-3), every(names[3:7], 1e-3), {names[-1]: 0.05}],
    ),
    "resnet18-one-sided-joins": (
        "resnet18_cifar10",
        lambda names: [{"block2.shortcut": 5e-3}, {"block2.conv2": 5e-3}, {"block1.conv1": 5e-3}],
    ),
    "resnet18-every-layer": (
        "resnet18_cifar10",
        lambda names: [every(names, 3e-3), every(names, 1e-3), every(names, 3e-3)],
    ),
    "mobilenet-grouped": (
        "mobilenet_cifar10",
        lambda names: [every(names, 3e-3), every(names, 1e-3), every(names, 3e-4)],
    ),
}


class TestUnitEqualsSolo:
    @pytest.mark.parametrize("case", sorted(UNITS))
    def test_members_equal_solo_and_serial_runs(self, bundles, case):
        recipe, make = UNITS[case]
        bundle = bundle_for(bundles, recipe)
        jobs = cells(bundle, make(layer_names(bundle)))
        fused = InjectionUnit(jobs=tuple(jobs)).execute()
        assert len(fused) == len(jobs)
        flipped = 0
        for job, got in zip(jobs, fused):
            assert_same(got, job.execute())  # a unit of one
            assert_same(got, dataclasses.replace(job, runtime="serial").execute())
            flipped += got.flips_injected
        assert flipped > 0

    def test_zero_tables_share_one_clean_run(self, bundles, monkeypatch):
        bundle = bundle_for(bundles, "vgg16_cifar10")
        names = layer_names(bundle)
        jobs = cells(bundle, [every(names, 0.0), every(names, 1e-3), {}])
        calls = Counter()
        evaluate = type(bundle.qnet).evaluate

        def counted(self, *args, **kwargs):
            calls["clean" if kwargs.get("injector") is None else "injected"] += 1
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(type(bundle.qnet), "evaluate", counted)
        clean, live, empty = InjectionUnit(jobs=tuple(jobs)).execute()
        assert calls == {"clean": 1}
        assert clean is empty
        assert len(clean.trial_accuracies) == 1 and clean.flips_injected == 0
        assert live.flips_injected > 0

    def test_each_mask_is_drawn_once_per_unit(self, bundles, monkeypatch):
        bundle = bundle_for(bundles, "resnet18_cifar10")
        names = layer_names(bundle)
        jobs = cells(bundle, [every(names, 3e-3), every(names[:5], 1e-3), every(names, 1e-4)])
        draws = Counter()
        stream = injection.layer_stream

        def counted(seed, name, purpose):
            if purpose == 0:
                draws[seed, name] += 1
            return stream(seed, name, purpose)

        monkeypatch.setattr(injection, "layer_stream", counted)
        InjectionUnit(jobs=tuple(jobs)).execute()
        # Every (trial seed, layer) some member injects, exactly once.
        assert len(draws) == jobs[0].n_trials * len(names)
        assert set(draws.values()) == {1}
        draws.clear()
        for job in jobs:
            job.execute()
        assert sum(draws.values()) == jobs[0].n_trials * (2 * len(names) + 5)


class _Layer:
    def __init__(self, name):
        self.name = name


class TestSharedDrawPlans:
    def test_plans_equal_flip_plan_on_a_real_pass(self, bundles):
        bundle = bundle_for(bundles, "resnet18_cifar10")
        x = bundle.x_test[:16]
        prefix = bundle.qnet.fault_free_pass(x)
        msbs = _pass_msbs(prefix, 3)
        names = list(prefix.acc)
        tables = [every(names, 2e-3), every(names[::2], 0.02), {names[3]: 0.5}, {}]
        shapes = {name: acc.shape for name, acc in prefix.acc.items()}
        for seed in (17, 1017, 2**33 + 5):
            masks = shared_masks(seed, tables, shapes)
            for m, table in enumerate(tables):
                live = BitFlipInjector(table, seed=seed, msb_per_layer=msbs)
                planned = BitFlipInjector(table, seed=seed, msb_per_layer=msbs, shared=(masks, m))
                for name, acc in prefix.acc.items():
                    want = live.flip_plan(acc, _Layer(name))
                    got = planned.flip_plan(acc, _Layer(name))
                    if want is None:
                        assert got is None
                        continue
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype and np.array_equal(g, w)
                assert planned.flips_injected == live.flips_injected
                assert planned.elements_seen == live.elements_seen

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**40),
        bers=st.lists(
            st.sampled_from([0.0, 1e-4, 0.01, 0.3, 0.3, 0.9, 1.0]), min_size=1, max_size=5
        ),
        shape=st.tuples(st.integers(1, 40), st.integers(1, 9)),
        mode=st.sampled_from(["relative", "absolute"]),
    )
    def test_property_plans_equal_flip_plan(self, seed, bers, shape, mode):
        acc = np.random.default_rng(seed % 97).integers(-5000, 5000, size=shape).astype(np.float32)
        tables = [{"conv": ber, "other": ber / 2} for ber in bers]
        masks = shared_masks(seed, tables, {"conv": shape, "other": shape})
        for m, table in enumerate(tables):
            live = BitFlipInjector(table, seed=seed, mode=mode, msb_per_layer={"conv": 9})
            planned = BitFlipInjector(
                table, seed=seed, mode=mode, msb_per_layer={"conv": 9}, shared=(masks, m)
            )
            for name in ("conv", "other"):  # "other" measures its window from acc
                want = live.flip_plan(acc, _Layer(name))
                got = planned.flip_plan(acc, _Layer(name))
                assert (got is None) == (want is None)
                if want is not None:
                    assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))
            assert planned.flips_injected == live.flips_injected


class TestSchedulerFusion:
    def test_units_group_batched_cells_by_everything_but_the_table(self, bundles):
        bundle = bundle_for(bundles, "vgg16_cifar10")
        names = layer_names(bundle)
        corner_a = cells(bundle, [every(names, 1e-3), every(names, 2e-3)], base_seed=7)
        corner_b = cells(bundle, [every(names, 1e-3), every(names, 2e-3)], base_seed=8)
        serial = dataclasses.replace(corner_a[0], runtime="serial", label="serial")
        top3 = dataclasses.replace(corner_a[0], topk=3, label="top3")
        jobs = [corner_a[0], corner_b[0], serial, corner_a[1], top3, corner_b[1]]
        units = injection_units(jobs, list(range(len(jobs))))
        assert sorted(sorted(idxs) for idxs, _ in units) == [[0, 3], [1, 5], [2], [4]]
        for idxs, unit in units:
            if len(idxs) > 1:
                assert isinstance(unit, InjectionUnit)
                assert list(unit.jobs) == [jobs[i] for i in idxs]
            else:
                assert unit is jobs[idxs[0]]
        # Heaviest first: the two-cell units lead.
        assert [len(idxs) for idxs, _ in units][:2] == [2, 2]

    @pytest.mark.parametrize("mode", ["inline", "pool", "jobs2"])
    def test_engine_runs_each_corner_as_one_unit(self, bundles, tmp_path, monkeypatch, mode):
        bundle = bundle_for(bundles, "resnet18_cifar10")
        names = layer_names(bundle)
        tables = [{"block2.shortcut": 5e-3}, {"block2.conv2": 5e-3}, every(names, 1e-3)]
        jobs = cells(bundle, tables, base_seed=7) + cells(bundle, tables, base_seed=9)
        expected = [job.execute() for job in jobs]
        if mode == "pool":
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        engine = SimEngine(jobs=2 if mode == "jobs2" else 1, cache_dir=tmp_path, remote=False)
        assert engine.workers == (1 if mode == "inline" else 2)
        results = engine.run_many(jobs)
        for got, want in zip(results, expected):
            assert_same(got, want)
        assert engine.stats.misses == len(jobs)
        assert engine.stats.units == 2
        # Each member keeps its own cache entry.
        warm = SimEngine(cache_dir=tmp_path, remote=False)
        for got, want in zip(warm.run_many(jobs), expected):
            assert_same(got, want)
        assert warm.stats.hits == len(jobs)

    def test_serial_cells_stay_solo(self, bundles):
        bundle = bundle_for(bundles, "vgg16_cifar10")
        names = layer_names(bundle)
        jobs = cells(bundle, [every(names, 1e-3), every(names, 2e-3)], runtime="serial")
        units = injection_units(jobs, [0, 1])
        assert [idxs for idxs, _ in units] == [[0], [1]]
        assert all(isinstance(unit, InjectionJob) for _, unit in units)
