"""The differential fuzzer itself: drawing, shrinking, catching bugs.

The fuzzer is the PR-level conformance net over the simulation
backends; these tests keep the net honest — deterministic draws, a
bounded all-green campaign, spec round-trips, real greedy shrinking,
and (the important one) a *mutation smoke test*: a deliberately broken
backend must be caught with a minimized, replayable repro command.
"""

import dataclasses

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.engine.backends import _REGISTRY, ReferenceBackend, register_backend
from repro.engine.fuzz import (
    FuzzCase,
    build_jobs,
    draw_case,
    fuzz,
    repro_command,
    run_case,
    shrink,
)

#: Bounded CI-friendly campaign size; the dedicated CI fuzz job runs the
#: full 200-case campaign via tools/fuzz_conformance.py --cases 200.
N_CASES = 40


def test_draws_are_deterministic():
    for index in (0, 1, 17):
        assert draw_case(123, index) == draw_case(123, index)
    assert draw_case(123, 0) != draw_case(123, 1)
    assert draw_case(123, 5) != draw_case(124, 5)


def test_spec_roundtrip():
    for index in range(8):
        case = draw_case(99, index)
        assert FuzzCase.from_spec(case.to_spec()) == case


def test_spec_rejects_unknown_and_missing_keys():
    case = draw_case(99, 0)
    with pytest.raises(ValueError, match="unknown fuzz-spec key"):
        FuzzCase.from_spec(case.to_spec() + ",bogus=1")
    with pytest.raises(ValueError, match="missing keys"):
        FuzzCase.from_spec("n_pixels=1,c_eff=2")


def test_cases_cover_the_axes():
    """The drawn space must actually exercise every contract axis."""
    cases = [draw_case(7, i) for i in range(64)]
    assert {c.dataflow for c in cases} == {"output_stationary", "weight_stationary"}
    assert len({c.strategy for c in cases}) == 3
    assert any(c.groups > 1 for c in cases)
    assert len({(c.act_width, c.weight_width, c.psum_extra) for c in cases}) > 4
    assert any(bin(c.corner_mask).count("1") > 1 for c in cases)
    assert any(bin(c.corner_mask).count("1") == 1 for c in cases)


def test_build_jobs_shapes_follow_the_case():
    case = dataclasses.replace(draw_case(7, 0), groups=3, n_pixels=4, c_eff=5, k=2)
    jobs = build_jobs(case)
    assert len(jobs) == 3
    for job in jobs:
        assert job.acts.shape == (4, 5)
        assert job.weights.shape == (5, 2)
        assert len(job.corners) == bin(case.corner_mask).count("1")
    # Same case, same operands: the draw is a pure function of the spec.
    again = build_jobs(case)
    for a, b in zip(jobs, again):
        assert np.array_equal(a.acts, b.acts)
        assert np.array_equal(a.weights, b.weights)


def test_bounded_campaign_is_conformant():
    report = fuzz(seed=7, n_cases=N_CASES)
    assert report.ok, [
        (index, case.to_spec(), problems)
        for index, case, problems in report.failures
    ]


def test_shrink_minimizes_while_failure_persists():
    case = dataclasses.replace(
        draw_case(7, 0), n_pixels=11, c_eff=9, k=6, groups=3, corner_mask=0b111
    )

    def still_fails(c):
        return c.c_eff >= 3 and c.n_pixels >= 2

    small = shrink(case, still_fails)
    assert still_fails(small)
    assert small.n_pixels == 2 and small.c_eff == 3
    # Axes the predicate ignores shrink all the way to their floors.
    assert small.k == 1 and small.groups == 1
    assert bin(small.corner_mask).count("1") == 1


def test_repro_command_is_replayable():
    case = draw_case(7, 3)
    command = repro_command(case, backends=["vector"])
    assert command.startswith("read-repro fuzz --spec '")
    assert "--backend vector" in command
    spec = command.split("'")[1]
    assert FuzzCase.from_spec(spec) == case


# Mutants subclass ReferenceBackend: its run_network loops run(), so the
# whole-network fold carries the same mutation and the fuzzer reports
# only the mutated field.
class _BrokenBackend(ReferenceBackend):
    """reference, with one output element corrupted: the mutant to catch."""

    name = "broken-mutant"

    def run(self, job):
        reports = super().run(job)
        for corner, report in reports.items():
            outputs = report.outputs.copy()
            outputs[0, 0] += 1
            reports[corner] = dataclasses.replace(report, outputs=outputs)
        return reports


class _BrokenTerBackend(ReferenceBackend):
    """reference, with the TER nudged by 1e-6: a pricing mutant."""

    name = "broken-ter-mutant"

    def run(self, job):
        reports = super().run(job)
        for corner, report in reports.items():
            reports[corner] = dataclasses.replace(report, ter=report.ter + 1e-6)
        return reports


class _UlpTerBackend(ReferenceBackend):
    """reference, with every TER one ulp too high: a summation-order
    drift that only an exact TER comparison catches."""

    name = "ulp-ter-mutant"

    def run(self, job):
        reports = super().run(job)
        for corner, report in reports.items():
            ter = float(np.nextafter(report.ter, np.inf))
            reports[corner] = dataclasses.replace(report, ter=ter)
        return reports


@pytest.mark.parametrize(
    "backend_cls, expect_what",
    [(_BrokenBackend, "outputs"), (_BrokenTerBackend, "ter"), (_UlpTerBackend, "ter")],
)
def test_mutation_smoke_broken_backend_is_caught(backend_cls, expect_what, capsys):
    """A deliberately broken backend must be caught, shrunk, and repro'd."""
    register_backend(backend_cls.name, backend_cls)
    try:
        report = fuzz(
            seed=7,
            n_cases=10,
            backends=[backend_cls.name],
            max_failures=1,
            log=print,
        )
        assert not report.ok
        index, minimized, problems = report.failures[0]
        assert index == 0  # every case trips a total mutant
        assert any(expect_what in p.what for p in problems)
        assert all(p.backend == backend_cls.name for p in problems)
        # Shrinking hit the floor cases a total mutant cannot escape.
        assert minimized.n_pixels == 1 and minimized.c_eff == 1 and minimized.k == 1
        out = capsys.readouterr().out
        assert "minimized repro" in out
        assert f"read-repro fuzz --spec '{minimized.to_spec()}'" in out
    finally:
        _REGISTRY.pop(backend_cls.name, None)


def test_cli_fuzz_campaign_and_replays(capsys):
    assert cli_main(["fuzz", "--seed", "7", "--cases", "5"]) == 0
    assert "all conformant" in capsys.readouterr().out
    assert cli_main(["fuzz", "--seed", "7", "--case", "2"]) == 0
    assert "PASS" in capsys.readouterr().out
    spec = draw_case(7, 2).to_spec()
    assert cli_main(["fuzz", "--spec", spec, "--backend", "vector"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_fuzz_reports_broken_backend_failure(tmp_path, capsys):
    register_backend(_BrokenBackend.name, _BrokenBackend)
    try:
        failures_file = tmp_path / "fuzz_failures.txt"
        code = cli_main(
            [
                "fuzz",
                "--seed",
                "7",
                "--cases",
                "3",
                "--backend",
                _BrokenBackend.name,
                "--failures-file",
                str(failures_file),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "failing case(s)" in out
        content = failures_file.read_text()
        assert content.startswith("read-repro fuzz --spec '")
        assert f"--backend {_BrokenBackend.name}" in content
    finally:
        _REGISTRY.pop(_BrokenBackend.name, None)


def test_tools_entry_point_runs_bounded_campaign(tmp_path, monkeypatch, capsys):
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "fuzz_conformance_tool",
        Path(__file__).resolve().parents[1] / "tools" / "fuzz_conformance.py",
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.chdir(tmp_path)
    assert tool.main(["--cases", "4"]) == 0
    assert "all conformant" in capsys.readouterr().out
