"""Experiment runners: one module per table/figure of the paper.

Every runner exposes ``run(...) -> result`` and ``render(result) -> str``;
the CLI (``python -m repro``) and the benchmark suite are thin wrappers
around these.  Runners that use the engine also expose
``steps(scale, ...)``, the one generator that yields their job batches
and returns their result (``run`` is ``drive(steps(...))``).
"""

from .._lazy import lazy_exports
from . import fig2, fig3, fig5, fig7, fig8, fig9, fig10, fig11, table1

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

# Only some commands drive the orchestrator, a suite or a campaign, so
# those modules load on first access.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "common": (
            "ALL_STRATEGIES",
            "MODEL_RECIPES",
            "SCALES",
            "ExperimentScale",
            "LayerTerRecord",
            "TrainedBundle",
            "geometric_mean",
            "get_bundle",
            "get_scale",
            "measure_layer_ters",
            "record_operand_streams",
            "render_table",
        ),
        "orchestrator": ("orchestrator", "OrchestratorResult", "run_all"),
        "sweep": ("sweep", "SuiteResult", "run_suite"),
        "campaign": ("campaign", "CampaignResult", "run_campaign"),
    },
)
__all__ += ["RUNNERS", *RUNNERS]
