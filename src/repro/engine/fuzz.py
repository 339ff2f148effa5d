"""Differential conformance fuzzer over the simulation backends.

The conformance suites pin hand-picked and hypothesis-drawn scenarios;
this module closes the remaining gap with *seeded randomized
differential testing*: draw a job specification from the full cross
product of the engine's axes — datapath widths x dataflows x mapping
strategies x PVTA corners x conv grouping x operand bit ranges — run
every registered backend on the exact same jobs, and compare against
the conformance contract:

* functional outputs bit-equal to ``reference`` (``np.array_equal``);
* integer-valued statistics (cycle counts, and the flip/chain
  statistics, which are integer counts divided by shared cycle
  denominators) exact;
* TER bit-identical to ``reference`` (every backend reduces the same
  integer delay histogram through the shared pricing helper
  :func:`repro.hw.dta.histogram_expected_errors`);
* the ``vector`` backend's whole-network fold
  (:meth:`~repro.engine.backends.SimulationBackend.run_network` over all
  of the case's group GEMMs at once) entry-for-entry equal to its own
  per-job results.

Every case is a pure function of ``(seed, index)``, so any failure is
reproducible from two integers; on top of that the fuzzer greedily
*shrinks* a failing case along every axis and prints a single
self-contained repro command::

    read-repro fuzz --spec 'n_pixels=1,c_eff=3,...' --backend vector

``tools/fuzz_conformance.py`` runs a bounded campaign in CI (fixed seed,
``$REPRO_FUZZ_ITERS`` cases) and writes the repro file CI uploads as an
artifact on failure; ``tests/test_fuzz_conformance.py`` keeps the
fuzzer itself honest, including a mutation smoke test that registers a
deliberately broken backend and asserts the fuzzer catches it.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.config import AcceleratorConfig, Dataflow
from ..core.pipeline import MappingStrategy
from ..errors import MappingFallbackWarning
from ..hw.mac import MacConfig
from ..hw.variations import PAPER_CORNERS
from .backends import backend_names, get_backend
from .job import SimJob

#: Default bounded-campaign size; CI overrides via $REPRO_FUZZ_ITERS.
DEFAULT_CASES = 200


@dataclass(frozen=True)
class FuzzCase:
    """One drawn job specification — every axis the backends branch on.

    A case is *self-contained*: :func:`build_jobs` materializes the same
    operand matrices from ``operand_seed`` alone, so two integers (the
    campaign seed and the case index) or the ``to_spec`` string fully
    reproduce any failure.
    """

    n_pixels: int
    c_eff: int
    k: int
    groups: int
    act_width: int
    weight_width: int
    psum_extra: int
    act_bits: int
    weight_bits: int
    dataflow: str
    strategy: str
    group_size: int
    pixel_chunk: int
    corner_mask: int
    operand_seed: int

    @property
    def psum_width(self) -> int:
        return min(32, self.act_width + self.weight_width + self.psum_extra)

    @property
    def corners(self) -> tuple:
        """The drawn PVTA corner subset (never empty by construction)."""
        return tuple(
            corner
            for i, corner in enumerate(PAPER_CORNERS)
            if self.corner_mask >> i & 1
        )

    def to_spec(self) -> str:
        """Serialize as the ``--spec`` string of ``read-repro fuzz``."""
        return ",".join(
            f"{f.name}={getattr(self, f.name)}" for f in dataclasses.fields(self)
        )

    @classmethod
    def from_spec(cls, spec: str) -> "FuzzCase":
        """Parse a ``to_spec`` string (unknown/missing keys are errors)."""
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, _, raw = item.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(
                    f"unknown fuzz-spec key {key!r}; expected one of {sorted(fields)}"
                )
            annotation = fields[key].type
            values[key] = raw.strip() if annotation in ("str", str) else int(raw)
        missing = sorted(set(fields) - set(values))
        if missing:
            raise ValueError(f"fuzz spec is missing keys: {missing}")
        return cls(**values)


def draw_case(seed: int, index: int) -> FuzzCase:
    """The deterministic ``(seed, index) -> FuzzCase`` draw."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))

    def pick(options):
        return options[int(rng.integers(len(options)))]

    act_width = pick([2, 4, 8])
    weight_width = pick([2, 4, 8])
    corner_mask = int(rng.integers(1, 1 << len(PAPER_CORNERS)))
    return FuzzCase(
        n_pixels=int(rng.integers(1, 13)),
        c_eff=int(rng.integers(1, 10)),
        k=int(rng.integers(1, 7)),
        groups=pick([1, 1, 2, 3]),
        act_width=act_width,
        weight_width=weight_width,
        psum_extra=pick([0, 2, 8, 16]),
        act_bits=int(rng.integers(1, act_width + 1)),
        weight_bits=int(rng.integers(1, weight_width + 1)),
        dataflow=pick([d.value for d in Dataflow]),
        strategy=pick([s.value for s in MappingStrategy]),
        group_size=int(rng.integers(1, 5)),
        pixel_chunk=int(rng.integers(1, 6)),
        corner_mask=corner_mask,
        operand_seed=int(rng.integers(0, 2**31 - 1)),
    )


def build_jobs(case: FuzzCase) -> List[SimJob]:
    """Materialize the case's group GEMMs (one SimJob per conv group).

    Drawn cells routinely hit the documented cluster-size fallback
    (``K`` not divisible by the drawn group size); that is an expected
    part of the space, not a finding, so the warning is silenced here.
    """
    rng = np.random.default_rng(case.operand_seed)
    config = AcceleratorConfig(
        dataflow=Dataflow(case.dataflow),
        mac=MacConfig(
            act_width=case.act_width,
            weight_width=case.weight_width,
            psum_width=case.psum_width,
        ),
    )
    q_max = 1 << (case.weight_bits - 1) if case.weight_bits > 1 else 1
    jobs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MappingFallbackWarning)
        for g in range(case.groups):
            acts = rng.integers(
                0, 1 << case.act_bits, size=(case.n_pixels, case.c_eff)
            )
            weights = rng.integers(-q_max, q_max, size=(case.c_eff, case.k))
            jobs.append(
                SimJob(
                    acts=acts,
                    weights=weights,
                    corners=case.corners,
                    group_size=case.group_size,
                    strategy=MappingStrategy(case.strategy),
                    config=config,
                    pixel_chunk=case.pixel_chunk,
                    label=f"fuzz:g{g}",
                )
            )
    return jobs


@dataclass(frozen=True)
class Mismatch:
    """One conformance violation found by :func:`run_case`."""

    backend: str
    what: str
    detail: str


def _compare_reports(backend: str, ref, got) -> List[Mismatch]:
    """Conformance contract for one job's per-corner report dicts."""
    problems: List[Mismatch] = []

    def bad(what, detail):
        problems.append(Mismatch(backend=backend, what=what, detail=detail))

    if sorted(got) != sorted(ref):
        bad("corners", f"corner sets differ: {sorted(got)} vs {sorted(ref)}")
        return problems
    for corner in ref:
        r, g = ref[corner], got[corner]
        if not np.array_equal(r.outputs, g.outputs):
            bad("outputs", f"functional outputs differ at corner {corner}")
        if r.n_cycles != g.n_cycles:
            bad("n_cycles", f"{corner}: {g.n_cycles} != {r.n_cycles}")
        if r.n_macs_per_output != g.n_macs_per_output:
            bad("n_macs", f"{corner}: {g.n_macs_per_output} != {r.n_macs_per_output}")
        # Flip/chain statistics are integer counts over shared integer
        # denominators, so their float ratios must be exactly equal.
        if g.sign_flip_rate != r.sign_flip_rate:
            bad("sign_flip_rate", f"{corner}: {g.sign_flip_rate} != {r.sign_flip_rate}")
        if g.mean_chain_length != r.mean_chain_length:
            bad(
                "mean_chain_length",
                f"{corner}: {g.mean_chain_length} != {r.mean_chain_length}",
            )
        if g.ter != r.ter:
            bad("ter", f"{corner}: {g.ter} != {r.ter}")
    return problems


def run_case(
    case: FuzzCase, backends: Optional[Sequence[str]] = None
) -> List[Mismatch]:
    """Run every backend on the case's jobs; return all violations."""
    names = list(backends) if backends is not None else backend_names()
    if "reference" not in names:
        names = ["reference"] + names
    jobs = build_jobs(case)
    results: Dict[str, list] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MappingFallbackWarning)
        for name in names:
            backend = get_backend(name)
            try:
                results[name] = [backend.run(job) for job in jobs]
            except Exception as exc:  # a crash is a finding, not a fuzzer bug
                return [Mismatch(backend=name, what="crash", detail=repr(exc))]
    ref = results["reference"]
    problems: List[Mismatch] = []
    for name in names:
        if name == "reference":
            continue
        for i, (r, g) in enumerate(zip(ref, results[name])):
            for problem in _compare_reports(name, r, g):
                problems.append(
                    dataclasses.replace(problem, what=f"group{i}:{problem.what}")
                )
        # The whole-network fold must equal the backend's own per-job
        # loop entry-for-entry (this is what NetworkJob submission runs).
        backend = get_backend(name)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MappingFallbackWarning)
                network = backend.run_network(jobs)
        except Exception as exc:
            problems.append(
                Mismatch(backend=name, what="network:crash", detail=repr(exc))
            )
            continue
        for i, (per_job, stacked) in enumerate(zip(results[name], network)):
            for corner in per_job:
                p, s = per_job[corner], stacked[corner]
                if (
                    p.ter != s.ter
                    or p.sign_flip_rate != s.sign_flip_rate
                    or p.mean_chain_length != s.mean_chain_length
                    or not np.array_equal(p.outputs, s.outputs)
                ):
                    problems.append(
                        Mismatch(
                            backend=name,
                            what=f"group{i}:network_fold",
                            detail=f"{corner}: stacked run_network differs from run",
                        )
                    )
    return problems


def repro_command(case: FuzzCase, backends: Optional[Sequence[str]] = None) -> str:
    """The single self-contained command that replays ``case``."""
    flags = ""
    if backends:
        flags = "".join(f" --backend {name}" for name in backends)
    return f"read-repro fuzz --spec '{case.to_spec()}'{flags}"


def shrink(
    case: FuzzCase,
    still_fails: Callable[[FuzzCase], bool],
    max_steps: int = 200,
) -> FuzzCase:
    """Greedy per-axis minimization while ``still_fails`` holds.

    Each round tries to reduce every numeric axis (halving, then
    decrementing, floored at the axis minimum) and to drop corners from
    the drawn subset; the first reduction that still fails is kept.
    Deterministic, and bounded by ``max_steps`` candidate evaluations.
    """
    minima = {
        "n_pixels": 1,
        "c_eff": 1,
        "k": 1,
        "groups": 1,
        "psum_extra": 0,
        "act_bits": 1,
        "weight_bits": 1,
        "group_size": 1,
        "pixel_chunk": 1,
    }
    steps = 0
    progress = True
    while progress and steps < max_steps:
        progress = False
        for field, floor in minima.items():
            value = getattr(case, field)
            candidates = []
            if value > floor:
                if (value - floor) > 1:
                    candidates.append(floor + (value - floor) // 2)
                candidates.append(value - 1)
            for candidate in candidates:
                if steps >= max_steps:
                    return case
                steps += 1
                smaller = dataclasses.replace(case, **{field: candidate})
                if still_fails(smaller):
                    case = smaller
                    progress = True
                    break
        # Try dropping corners (keep at least one bit set).
        mask = case.corner_mask
        for i in range(len(PAPER_CORNERS)):
            if mask >> i & 1 and mask != 1 << i and steps < max_steps:
                steps += 1
                smaller = dataclasses.replace(case, corner_mask=mask & ~(1 << i))
                if still_fails(smaller):
                    case = smaller
                    mask = case.corner_mask
                    progress = True
    return case


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one bounded fuzz campaign."""

    seed: int
    n_cases: int
    failures: Tuple[Tuple[int, FuzzCase, Tuple[Mismatch, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz(
    seed: int,
    n_cases: int,
    backends: Optional[Sequence[str]] = None,
    max_failures: int = 3,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run a bounded differential campaign; shrink and report failures.

    Stops early after ``max_failures`` distinct failing cases (each one
    already minimized) — a systematically broken backend would otherwise
    shrink hundreds of duplicates of the same root cause.
    """
    failures = []
    for index in range(n_cases):
        case = draw_case(seed, index)
        problems = run_case(case, backends)
        if not problems:
            continue
        minimized = shrink(case, lambda c: bool(run_case(c, backends)))
        problems = run_case(minimized, backends) or problems
        failures.append((index, minimized, tuple(problems)))
        if log is not None:
            log(f"case {index} FAILED; minimized repro:")
            log(f"  {repro_command(minimized, backends)}")
            for problem in problems:
                log(f"  [{problem.backend}] {problem.what}: {problem.detail}")
        if len(failures) >= max_failures:
            break
    return FuzzReport(seed=seed, n_cases=n_cases, failures=tuple(failures))
