"""Simulation backends: interchangeable executors for :class:`SimJob`.

Backends implement the array-simulation half of the engine: a
:class:`~repro.engine.job.SimJob` executes as ``backend.run(job)``,
while other job kinds (e.g. :class:`~repro.faults.InjectionJob`) ignore
the backend entirely — the scheduler hands every job the backend
*factory* and lets the job decide (see
:meth:`~repro.engine.job.EngineJob.execute`).

Two backends ship with the engine:

* ``reference`` — the cycle-behavioural
  :class:`~repro.arch.systolic.SystolicArraySimulator`.  Its semantics
  define correctness.
* ``vector`` — whole-tile array folds in :mod:`repro.engine.vector`:
  field-domain PSUM traces on narrow dtypes, table-driven carry chains
  and histogram-derived sign flips.  The production backend and the
  default everywhere.

Both reduce a job to the same integer ``(multiplier bits, toggle span)``
delay histogram and price it through
:func:`repro.hw.dta.histogram_expected_errors`, so their reports are
bit-identical: functional outputs, integer-valued statistics and the
TER alike.  The cross-backend conformance suite in
``tests/test_backend_conformance.py`` and the differential fuzzer in
:mod:`repro.engine.fuzz` enforce that across dataflows, strategies,
datapath widths and all paper corners.

Third parties can plug in alternatives via :func:`register_backend`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List

from ..arch.systolic import LayerReliabilityReport, SystolicArraySimulator
from ..errors import ConfigurationError, unknown_name_error
from .job import SimJob


class SimulationBackend(ABC):
    """Executes a :class:`SimJob` into per-corner reliability reports."""

    #: Registry name; subclasses must override.
    name: str = ""

    @abstractmethod
    def run(self, job: SimJob) -> Dict[str, LayerReliabilityReport]:
        """Simulate ``job`` and return ``{corner name: report}``."""

    def run_network(
        self, jobs: List[SimJob]
    ) -> List[Dict[str, LayerReliabilityReport]]:
        """Simulate a batch of jobs; results align with ``jobs``.

        The default simply loops :meth:`run`.  Backends that can exploit
        batch structure override it — the ``vector`` backend stacks all
        equal-shape width classes of the batch into shared tiles (one
        Python-level fold per width class of the whole network) and
        prices every corner of every job against one shared probability
        grid.  The scheduler's job fusion keys off whether this method
        is overridden, so loop-only backends pay no batching overhead.
        Must be bit-identical to the per-job loop (pinned by
        ``tests/test_backend_conformance.py`` and the differential
        fuzzer).
        """
        return [self.run(job) for job in jobs]


class ReferenceBackend(SimulationBackend):
    """The cycle-behavioural simulator whose semantics define correctness."""

    name = "reference"

    def run(self, job: SimJob) -> Dict[str, LayerReliabilityReport]:
        sim = SystolicArraySimulator(job.config, pixel_chunk=job.pixel_chunk)
        plan = job.build_plan()
        return sim.run_gemm_corners(job.acts, job.weights, list(job.corners), plan)


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, Callable[[], SimulationBackend]] = {}


def register_backend(
    name: str, factory: Callable[[], SimulationBackend], replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is called lazily per :func:`get_backend` request (and
    hence once per worker process), so backends may hold caches.
    """
    if not replace and name in _REGISTRY:
        raise ConfigurationError(f"backend {name!r} is already registered")
    _REGISTRY[name] = factory


def backend_names() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def backend_factory(name: str) -> Callable[[], SimulationBackend]:
    """The factory registered under ``name``.

    The scheduler ships the factory itself (not the name) to pool
    workers: under spawn/forkserver start methods a worker re-imports
    only the built-in registrations, so a third-party backend registered
    in the submitting process would be unknown by name — the pickled
    factory reference resolves through the defining module instead.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise unknown_name_error("backend", name, _REGISTRY) from None


def get_backend(name: str) -> SimulationBackend:
    """Instantiate the backend registered under ``name``."""
    return backend_factory(name)()


register_backend(ReferenceBackend.name, ReferenceBackend)

# Imported last: vector.py subclasses SimulationBackend from this module.
from .vector import VectorBackend  # noqa: E402

register_backend(VectorBackend.name, VectorBackend)
