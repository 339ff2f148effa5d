"""Golden regression fixtures: figure-level numbers cannot drift silently.

``tests/golden/*.json`` pins the micro-scale summaries of fig2 and fig7
and the static Table I rows.  Any change that moves a figure-level
number — a backend bug, a planner change, a delay-model edit — fails
here with a numeric diff, even if every unit invariant still holds.

Intentional changes are re-pinned with::

    python -m pytest tests/test_golden_figures.py --update-golden

then reviewed like any other diff: the fixture files *are* the claim
that the figures still say what they said.

Floats are compared at 1e-6 relative tolerance (and stored rounded to
10 significant digits), far below any real regression.  The backends
themselves are bit-identical, so the tolerance only absorbs the
rounding of the stored fixtures.
"""

import json
import math
from pathlib import Path

import pytest

from repro.engine import SimEngine, engine_context
from repro.experiments import fig2, fig7, fig10, fig11, table1
from repro.experiments.common import get_scale
from repro.experiments.sweep import run_suite

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Relative tolerance for stored floats.
RTOL = 1e-6

#: The scale every golden fixture is pinned at.
SCALE = "micro"


def _rounded(value):
    """Canonicalize a payload for storage (floats to 10 significant digits)."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def _assert_matches(expected, actual, path=""):
    if isinstance(expected, float) or isinstance(actual, float):
        expected_f, actual_f = float(expected), float(actual)
        if math.isnan(expected_f) and math.isnan(actual_f):
            return
        assert math.isclose(expected_f, actual_f, rel_tol=RTOL, abs_tol=1e-300), (
            f"golden drift at {path or '<root>'}: {expected_f!r} -> {actual_f!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and set(expected) == set(actual), path
        for key in expected:
            _assert_matches(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(expected) == len(actual), path
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_matches(e, a, f"{path}[{i}]")
    else:
        assert expected == actual, f"golden drift at {path}: {expected!r} -> {actual!r}"


def _leaf_values(value, path=""):
    """Flatten a canonical payload into {dotted-path: leaf value}."""
    if isinstance(value, dict):
        out = {}
        for key, sub in value.items():
            out.update(_leaf_values(sub, f"{path}.{key}" if path else str(key)))
        return out
    if isinstance(value, list):
        out = {}
        for i, sub in enumerate(value):
            out.update(_leaf_values(sub, f"{path}[{i}]"))
        return out
    return {path or "<root>": value}


def diff_summary(old, new):
    """(added, removed, changed) leaf paths between two canonical payloads."""
    old_leaves, new_leaves = _leaf_values(old), _leaf_values(new)
    added = sorted(set(new_leaves) - set(old_leaves))
    removed = sorted(set(old_leaves) - set(new_leaves))
    changed = sorted(
        p
        for p in set(old_leaves) & set(new_leaves)
        if old_leaves[p] != new_leaves[p]
    )
    return added, removed, changed


def check_golden(name, payload, update):
    payload = _rounded(payload)
    path = GOLDEN_DIR / f"{name}.json"
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        if path.exists():
            added, removed, changed = diff_summary(
                json.loads(path.read_text()), payload
            )
            if not (added or removed or changed):
                # Byte-stable no-op: leave the committed bytes untouched.
                print(f"golden {name}: unchanged")
                return
            print(
                f"golden {name}: {len(changed)} changed, "
                f"{len(added)} added, {len(removed)} removed"
            )
            for label, paths in (
                ("changed", changed), ("added", added), ("removed", removed)
            ):
                for p in paths[:5]:
                    print(f"  {label}: {p}")
                if len(paths) > 5:
                    print(f"  ... +{len(paths) - 5} more {label}")
        else:
            print(f"golden {name}: created")
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"golden fixture {path} is missing; generate it with "
        "`python -m pytest tests/test_golden_figures.py --update-golden`"
    )
    _assert_matches(json.loads(path.read_text()), payload, name)


@pytest.fixture()
def update_golden(pytestconfig):
    return pytestconfig.getoption("--update-golden")


@pytest.fixture()
def golden_engine(tmp_path):
    """An engine with a throwaway result cache.

    Deliberately *not* the shared repo cache: golden tests exist to
    re-execute the figure pipeline, and recalling warm repo-cache entries
    would mask exactly the code regressions (and re-pin stale numbers
    under ``--update-golden``) that this suite guards against.  A
    tmp-path cache keeps within-run deduplication while guaranteeing
    every session simulates from scratch.
    """
    with engine_context(SimEngine(backend="vector", cache_dir=tmp_path)) as engine:
        yield engine


def test_golden_fig2_micro(update_golden, golden_engine):
    result = fig2.run(scale=get_scale(SCALE))
    payload = {
        "scale": SCALE,
        "correlation": result.correlation,
        "points": [
            {
                "layer": p.layer,
                "strategy": p.strategy,
                "dataflow": p.dataflow,
                "sign_flip_rate": p.sign_flip_rate,
                "ter": p.ter,
            }
            for p in result.points
        ],
    }
    check_golden("fig2_micro", payload, update_golden)


def test_golden_fig7_micro(update_golden, golden_engine):
    result = fig7.run(scale=get_scale(SCALE))
    payload = {
        "scale": SCALE,
        "layer": result.layer,
        "corner": result.corner_name,
        "group_sizes": result.group_sizes,
        "ter": result.ter,
    }
    check_golden("fig7_micro", payload, update_golden)


def _grid_payload(grid):
    return {
        "recipe": grid.recipe,
        "corners": grid.corners,
        "topk": grid.topk,
        "clean_accuracy": grid.clean_accuracy,
        "accuracy": grid.accuracy,
        "mean_ber": grid.mean_ber,
    }


def test_golden_fig10_micro(update_golden, golden_engine):
    """Pins the full TER -> Eq.1 BER -> injection-accuracy pipeline.

    The injection campaigns run on the trial-batched runtime (the
    default); the runtime-equivalence suite guarantees the serial loop
    would pin identical numbers, so this fixture is also the drift alarm
    for the injection protocol itself (schema v2: per-(trial, layer)
    streams, full-batch MSB windows).
    """
    result = fig10.run(scale=get_scale(SCALE))
    payload = {"scale": SCALE, "grids": [_grid_payload(g) for g in result.grids]}
    check_golden("fig10_micro", payload, update_golden)


def test_golden_fig11_micro(update_golden, golden_engine):
    result = fig11.run(scale=get_scale(SCALE))
    payload = {
        "scale": SCALE,
        "injected_layers": result.injected_layers,
        "grids": [_grid_payload(g) for g in result.grids],
    }
    check_golden("fig11_micro", payload, update_golden)


def _suite_payload(result):
    """Full TER/accuracy grids of one suite (the scenario-matrix pin)."""
    return {
        "suite": result.suite,
        "scale": result.scale,
        "scenarios": [
            {
                "name": rep.scenario.name,
                "recipe": rep.scenario.recipe,
                "default_bits": rep.scenario.default_bits,
                "bits": [list(pair) for pair in rep.bits],
                "quant_accuracy": rep.quant_accuracy,
                "layers": {
                    strategy: [
                        {
                            "layer": r.layer,
                            "groups": r.groups,
                            "n_macs": r.n_macs_per_output,
                            "sign_flip_rate": r.sign_flip_rate,
                            "ter_by_corner": r.ter_by_corner,
                        }
                        for r in records
                    ]
                    for strategy, records in rep.records.items()
                },
                "injected_accuracy": rep.injected_accuracy,
            }
            for rep in result.reports
        ],
    }


def test_golden_mobile_micro(update_golden, golden_engine):
    """Pins the mobile suite: depthwise/pointwise per-group TERs + the
    lowered classifier head, through Eq.1 to injected accuracies."""
    result = run_suite("mobile", get_scale(SCALE), engine=golden_engine)
    check_golden("mobile_micro", _suite_payload(result), update_golden)


def test_golden_transformer_micro(update_golden, golden_engine):
    """Pins the transformer suite: attention/FFN GEMM TERs (static and
    runtime activation-activation products) plus the per-GEMM READ
    applicability verdicts measured on signed operand statistics."""
    result = run_suite("transformer", get_scale(SCALE), engine=golden_engine)
    payload = _suite_payload(result)
    for section, rep in zip(payload["scenarios"], result.reports):
        section["reorder_applicability"] = rep.reorder_applicability
    check_golden("transformer_micro", payload, update_golden)


def test_golden_mixed_micro(update_golden, golden_engine):
    """Pins the mixed-precision suite (per-layer bit widths feed both the
    quantizers and the injection-job cache keys)."""
    result = run_suite("mixed-precision", get_scale(SCALE), engine=golden_engine)
    check_golden("mixed_micro", _suite_payload(result), update_golden)


def _table1_payload():
    rows = table1.run()
    return {
        "rows": [
            {
                "method": r.method,
                "layer": r.layer,
                "scalable_with_technology": r.scalable_with_technology,
                "accuracy_loss": r.accuracy_loss,
                "hardware_overhead": r.hardware_overhead,
                "throughput_drop": r.throughput_drop,
                "design_effort": r.design_effort,
            }
            for r in rows
        ],
        "rendered": table1.render(rows),
    }


def test_golden_table1(update_golden):
    check_golden("table1", _table1_payload(), update_golden)


def test_update_golden_noop_is_byte_stable(tmp_path, monkeypatch, capsys):
    """A no-op ``--update-golden`` must not rewrite a single byte.

    The committed fixture bytes are the review surface; an update run
    that reproduces the same numbers leaves them untouched (and says
    so), and a run that does move numbers prints the per-fixture
    added/removed/changed summary before rewriting.
    """
    committed = GOLDEN_DIR / "table1.json"
    scratch = tmp_path / "table1.json"
    scratch.write_text(committed.read_text())
    monkeypatch.setattr(
        __import__("sys").modules[__name__], "GOLDEN_DIR", tmp_path
    )

    before = scratch.read_bytes()
    check_golden("table1", _table1_payload(), update=True)
    assert scratch.read_bytes() == before
    assert "golden table1: unchanged" in capsys.readouterr().out

    # A real drift rewrites the fixture and summarizes what moved.
    payload = _table1_payload()
    payload["rows"][0]["method"] = "perturbed"
    payload["extra"] = 1
    del payload["rendered"]
    check_golden("table1", payload, update=True)
    out = capsys.readouterr().out
    assert "golden table1: 1 changed, 1 added, 1 removed" in out
    assert "changed: rows[0].method" in out
    assert "added: extra" in out
    assert "removed: rendered" in out
    assert scratch.read_bytes() != before
    assert json.loads(scratch.read_text())["rows"][0]["method"] == "perturbed"
