"""Distributed campaign orchestration: plan, execute, merge.

The paper's figures are R-repetition Monte-Carlo sweeps; this package
scales them past one host by splitting a campaign into deterministic,
disjoint **shards** executed anywhere and merged back without
coordination:

1. :func:`~repro.campaign.plan.plan` expands a
   :class:`~repro.campaign.plan.CampaignManifest` (figures x seeds x
   curves x sweep points) into per-shard work-unit lists, balanced
   longest-first by the :mod:`repro.dag.cost` estimates
   (``microrepro shard plan``);
2. each shard's units map to their campaign-DAG solve stages and run
   through the one campaign executor,
   :func:`repro.dag.scheduler.execute_solves`, into a local
   :class:`~repro.experiments.store.ResultStore`
   (``microrepro shard run``);
3. :func:`~repro.campaign.merge.merge_stores` unions the shard stores —
   append-only, key-addressed cell records with conflict detection —
   into the store a single host would have produced, bit for bit
   (``microrepro store merge``);
4. :func:`~repro.campaign.status.shard_status` reports how complete each
   shard's store is against its plan (``microrepro shard status``).

Results are pure functions of ``(scenario, seed, curve, sweep value)``
through CRC-hashed random stream labels, which is what makes the merged
store independent of how the work was partitioned.
"""

from .merge import merge_stores
from .plan import (
    CampaignManifest,
    ShardPlan,
    WorkUnit,
    expand_units,
    load_plan,
    parse_seed_spec,
    plan,
    write_plans,
)
from .status import (
    ShardStatus,
    load_shard_plans,
    shard_status,
    status_payload,
    status_rows,
)

__all__ = [
    "CampaignManifest",
    "ShardPlan",
    "WorkUnit",
    "expand_units",
    "load_plan",
    "parse_seed_spec",
    "plan",
    "write_plans",
    "ShardStatus",
    "load_shard_plans",
    "shard_status",
    "status_payload",
    "status_rows",
    "merge_stores",
]
