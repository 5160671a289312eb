"""Content-addressed campaign pipeline: typed stages, cached artifacts.

The campaign workflow — generate instances, solve (curve, sweep point)
blocks, aggregate seeds, render exports — as an explicit DAG of
:class:`~repro.dag.stage.Stage` objects with content-addressed outputs:

* :mod:`repro.dag.stage` — the stage types and their content keys;
* :mod:`repro.dag.pipeline` — compile a
  :class:`~repro.campaign.plan.CampaignManifest` into the DAG;
* :mod:`repro.dag.artifacts` — the ``content key -> output`` log on the
  :class:`~repro.experiments.store.JsonlStore` base;
* :mod:`repro.dag.cost` — calibrated per-provider cost estimates
  (MIP ~100x a heuristic block) for the LPT shard planner and the
  stealing order;
* :mod:`repro.dag.scheduler` — :func:`execute_solves`, the one campaign
  executor: cache-hit execution with cost-aware work stealing, and the
  only writer of result-store cells and run headers.

Unchanged stages are cache hits: re-running an identical campaign
performs zero block solves and reproduces its exports bit-for-bit.
``microrepro dag plan/run/status`` is the DAG's own CLI surface; every
other command that stores figure results (``run --store``,
``campaign``, ``resume``, ``shard run``) compiles its manifest into the
same DAG and runs its solve stages through :func:`execute_solves`.
"""

from .artifacts import ArtifactStore, artifact_store_for
from .cost import classify_curve, provider_cost, unit_cost
from .pipeline import Pipeline, build_pipeline
from .scheduler import (
    DispatchReport,
    PipelineReport,
    PipelineRun,
    execute_solves,
    run_pipeline,
    steal_dispatch,
)
from .stage import (
    AggregateStage,
    GenerateStage,
    RenderStage,
    SolveStage,
    Stage,
    content_key,
)

__all__ = [
    "Stage",
    "GenerateStage",
    "SolveStage",
    "AggregateStage",
    "RenderStage",
    "content_key",
    "Pipeline",
    "build_pipeline",
    "ArtifactStore",
    "artifact_store_for",
    "classify_curve",
    "provider_cost",
    "unit_cost",
    "DispatchReport",
    "PipelineReport",
    "PipelineRun",
    "steal_dispatch",
    "execute_solves",
    "run_pipeline",
]
