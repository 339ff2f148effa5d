"""Experiment runners: one module per table/figure of the paper.

Every runner exposes ``run(...) -> result`` and ``render(result) -> str``;
the CLI (``python -m repro``) and the benchmark suite are thin wrappers
around these.  Runners that use the engine also expose
``steps(scale, ...)``, the one generator that yields their job batches
and returns their result (``run`` is ``drive(steps(...))``).
"""

from . import fig2, fig3, fig5, fig7, fig8, fig9, fig10, fig11, table1
from .common import (
    ALL_STRATEGIES,
    MODEL_RECIPES,
    SCALES,
    ExperimentScale,
    LayerTerRecord,
    TrainedBundle,
    geometric_mean,
    get_bundle,
    get_scale,
    measure_layer_ters,
    record_operand_streams,
    render_table,
)

#: Registry used by the CLI and the orchestrator: name -> module with
#: run()/render()/main(), plus the steps() job-batch generator for the
#: runners that use the engine (the orchestrator drives those in
#: lockstep and calls run() for the rest).
RUNNERS = {
    "table1": table1,
    "fig2": fig2,
    "fig3": fig3,
    "fig5": fig5,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
}

from . import orchestrator  # noqa: E402  (needs RUNNERS above)
from .orchestrator import OrchestratorResult, run_all  # noqa: E402
from . import sweep  # noqa: E402  (needs orchestrator above)
from .sweep import SuiteResult, run_suite  # noqa: E402
from . import campaign  # noqa: E402  (needs fig10 above)
from .campaign import CampaignResult, run_campaign  # noqa: E402

__all__ = [
    "ALL_STRATEGIES",
    "MODEL_RECIPES",
    "RUNNERS",
    "SCALES",
    "CampaignResult",
    "ExperimentScale",
    "LayerTerRecord",
    "OrchestratorResult",
    "SuiteResult",
    "TrainedBundle",
    "campaign",
    "fig10",
    "fig11",
    "fig2",
    "fig3",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "geometric_mean",
    "get_bundle",
    "get_scale",
    "measure_layer_ters",
    "orchestrator",
    "record_operand_streams",
    "render_table",
    "run_all",
    "run_campaign",
    "run_suite",
    "sweep",
    "table1",
]
