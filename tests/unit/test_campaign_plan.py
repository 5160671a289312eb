"""Unit tests for the distributed campaign subsystem (plan / execute / merge)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaign import (
    CampaignManifest,
    ShardPlan,
    expand_units,
    load_plan,
    load_shard_plans,
    merge_stores,
    parse_seed_spec,
    plan,
    shard_status,
    status_rows,
    write_plans,
)
from repro.cli import _execute_campaign as execute_campaign
from repro.dag import unit_cost
from repro.exceptions import ExperimentError
from repro.experiments import FIGURES, ResultStore


def _manifest(**overrides) -> CampaignManifest:
    defaults = dict(
        figures=("fig6",),
        seeds=(0, 1),
        repetitions=2,
        max_points=2,
    )
    defaults.update(overrides)
    return CampaignManifest(**defaults)


class TestSeedSpec:
    def test_single_int(self):
        assert parse_seed_spec(7) == (7,)
        assert parse_seed_spec("7") == (7,)

    def test_inclusive_range(self):
        assert parse_seed_spec("0..3") == (0, 1, 2, 3)

    def test_comma_mix(self):
        assert parse_seed_spec("0..2,7,9") == (0, 1, 2, 7, 9)

    def test_rejects_garbage_and_duplicates(self):
        with pytest.raises(ExperimentError):
            parse_seed_spec("x..3")
        with pytest.raises(ExperimentError):
            parse_seed_spec("3..1")
        with pytest.raises(ExperimentError):
            parse_seed_spec("1,1")
        with pytest.raises(ExperimentError):
            parse_seed_spec("")


class TestManifest:
    def test_validates_figures_and_seeds(self):
        with pytest.raises(ExperimentError):
            CampaignManifest(figures=("fig99",))
        with pytest.raises(ExperimentError):
            CampaignManifest(figures=("fig6",), seeds=())
        with pytest.raises(ExperimentError):
            CampaignManifest(figures=("fig6",), seeds=(1, 1))

    def test_round_trip(self):
        manifest = _manifest(no_milp=True, workers=4)
        assert CampaignManifest.from_dict(manifest.to_dict()) == manifest

    def test_from_dict_promotes_legacy_scalar_seed(self):
        legacy = _manifest().to_dict()
        del legacy["seeds"]
        legacy["seed"] = 3
        assert CampaignManifest.from_dict(legacy).seeds == (3,)

    def test_curves_follow_engine_series_order(self):
        manifest = _manifest(figures=("fig10",))
        curves = manifest.curves_for("fig10")
        assert curves[-1] == "MIP"  # fig10 runs the exact MIP last
        assert manifest.curves_for("fig6") == FIGURES["fig6"].scenario.heuristics

    def test_no_milp_drops_the_mip_curve(self):
        manifest = _manifest(figures=("fig10",), no_milp=True)
        assert "MIP" not in manifest.curves_for("fig10")

    def test_optional_curves_are_planned_when_asked(self):
        assert "H4ls" not in _manifest().curves_for("fig6")
        assert "H4ls" in _manifest(optional_curves=True).curves_for("fig6")


class TestPlanner:
    def test_units_cover_the_full_grid(self):
        manifest = _manifest()
        units = expand_units(manifest)
        scenario = manifest.scenario_for("fig6")
        expected = (
            len(manifest.seeds)
            * len(manifest.curves_for("fig6"))
            * len(scenario.sweep_values)
        )
        assert len(units) == expected
        assert len(set(units)) == len(units)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"figures": ("fig10",), "seeds": (0,)}],
        ids=["fig6-heuristics", "fig10-mip"],
    )
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_shards_partition_the_units(self, overrides, shards):
        manifest = _manifest(**overrides)
        shard_plans = plan(manifest, shards=shards)
        assert len(shard_plans) == shards
        merged = [unit for shard in shard_plans for unit in shard.units]
        assert sorted(map(repr, merged)) == sorted(map(repr, expand_units(manifest)))

    def test_lpt_levels_estimated_cost(self):
        # Longest-first greedy: no shard ends more than one unit's cost
        # above the lightest one.
        manifest = _manifest(figures=("fig10",), seeds=(0, 1))
        loads = [
            sum(unit_cost(manifest, unit) for unit in shard.units)
            for shard in plan(manifest, shards=3)
        ]
        largest = max(unit_cost(manifest, unit) for unit in expand_units(manifest))
        assert max(loads) - min(loads) <= largest

    def test_planning_is_deterministic(self):
        first = plan(_manifest(), shards=3)
        second = plan(_manifest(), shards=3)
        assert [s.units for s in first] == [s.units for s in second]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ExperimentError):
            plan(_manifest(), shards=0)


class TestPlanFiles:
    def test_write_and_load_shard_plan(self, tmp_path):
        manifest = _manifest()
        written = write_plans(manifest, tmp_path / "plans", shards=2)
        assert len(written) == 2
        assert (tmp_path / "plans" / "campaign.json").exists()
        path, written_plan = written[1]
        assert written_plan == plan(manifest, shards=2)[1]
        shard = load_plan(path)
        assert isinstance(shard, ShardPlan)
        assert shard.index == 1 and shard.shards == 2
        assert shard.manifest == manifest
        assert shard.units == plan(manifest, shards=2)[1].units

    def test_load_campaign_manifest_with_coordinates(self, tmp_path):
        manifest = _manifest()
        write_plans(manifest, tmp_path / "plans", shards=2)
        campaign = tmp_path / "plans" / "campaign.json"
        shard = load_plan(campaign, shard=(0, 2))
        assert shard.units == plan(manifest, shards=2)[0].units
        # Planned-for-N campaign files refuse to run without coordinates.
        with pytest.raises(ExperimentError):
            load_plan(campaign)
        with pytest.raises(ExperimentError):
            load_plan(campaign, shard=(5, 2))

    def test_shard_file_rejects_wrong_coordinates(self, tmp_path):
        (path, _), _ = write_plans(_manifest(), tmp_path / "plans", shards=2)
        with pytest.raises(ExperimentError):
            load_plan(path, shard=(1, 2))

    def test_older_shard_file_loads_its_listed_units(self, tmp_path):
        # A shard file from an older planner records its axis and policy;
        # its unit list is authoritative, so it loads unchanged.
        units = expand_units(_manifest())[::2]
        path = tmp_path / "shard_0.json"
        path.write_text(
            json.dumps(
                {
                    "manifest": _manifest().to_dict(),
                    "shard": 0,
                    "shards": 2,
                    "by": "seed",
                    "balance": "round_robin",
                    "units": [unit.as_list() for unit in units],
                }
            ),
            encoding="utf-8",
        )
        assert load_plan(path).units == tuple(units)

    @pytest.mark.parametrize(
        "recorded",
        [{"by": "seed"}, {"by": "block"}, {"by": "curve", "balance": "cost"}],
        ids=["seed", "block-round-robin", "curve-cost"],
    )
    def test_campaign_file_with_another_partition_rejected(self, tmp_path, recorded):
        # Re-planning it would not reproduce the partition its other
        # workers ran (the hazard a mismatched shard count also guards).
        path = tmp_path / "campaign.json"
        doc = dict(_manifest().to_dict(), shards=2, **recorded)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ExperimentError, match="re-run 'shard plan'"):
            load_plan(path, shard=(0, 2))
        with pytest.raises(ExperimentError, match="re-run 'shard plan'"):
            load_shard_plans(path)

    def test_campaign_file_planned_by_block_cost_still_loads(self, tmp_path):
        # block/cost is exactly today's partition, so those files re-plan.
        path = tmp_path / "campaign.json"
        doc = dict(_manifest().to_dict(), shards=2, by="block", balance="cost")
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_plan(path, shard=(1, 2)) == plan(_manifest(), shards=2)[1]

    def test_campaign_file_rejects_different_shard_count(self, tmp_path):
        # Accepting 0/8 against a 4-shard plan would silently re-partition
        # the campaign and leave units uncovered across the fleet.
        write_plans(_manifest(), tmp_path / "plans", shards=4)
        campaign = tmp_path / "plans" / "campaign.json"
        with pytest.raises(ExperimentError):
            load_plan(campaign, shard=(0, 8))
        assert load_plan(campaign, shard=(0, 4)).shards == 4

    def test_plain_campaign_manifest_defaults_to_single_shard(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(_manifest().to_dict()), encoding="utf-8")
        shard = load_plan(path)
        assert shard.shards == 1
        assert len(shard.units) == len(expand_units(_manifest()))


class TestShardExecution:
    def test_shard_execution_is_resumable(self, tmp_path):
        shard = plan(_manifest(seeds=(0,)), shards=1)[0]
        with ResultStore(tmp_path / "s") as store:
            first = execute_campaign(shard.manifest, store, shard.units)
            assert first.computed["solve"] == len(shard.units)
            assert first.hits["solve"] == 0
            again = execute_campaign(shard.manifest, store, shard.units)
        assert again.computed["solve"] == 0
        assert again.hits["solve"] == len(shard.units)

    def test_resume_computes_only_the_missing_units(self, tmp_path):
        manifest = _manifest(seeds=(0,))
        first, rest = plan(manifest, shards=2)
        with ResultStore(tmp_path / "s") as store:
            execute_campaign(manifest, store, first.units)
            resumed = execute_campaign(manifest, store)
            # Another seed shares no stored block: everything runs.
            other = execute_campaign(dataclasses.replace(manifest, seeds=(1,)), store)
        assert resumed.hits["solve"] == len(first.units)
        assert resumed.computed["solve"] == len(rest.units)
        assert other.hits["solve"] == 0
        assert other.computed["solve"] == len(expand_units(manifest))

    def test_meta_carries_the_full_curve_list(self, tmp_path):
        # A shard holding one curve still records the whole run's curve
        # order, so the merged store can rebuild results.
        manifest = _manifest(seeds=(0,))
        units = [unit for unit in expand_units(manifest) if unit.curve == "H2"]
        with ResultStore(tmp_path / "s") as store:
            execute_campaign(manifest, store, units)
            meta = store.runs()[0]
        assert meta.curves == list(manifest.curves_for("fig6"))
        assert len(meta.curves) > 1


class TestMergeStores:
    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            merge_stores(tmp_path / "m", [tmp_path / "nope"])

    def test_no_sources_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            merge_stores(tmp_path / "m", [])


class TestShardStatus:
    def test_status_classifies_done_partial_missing(self, tmp_path):
        manifest = _manifest(seeds=(0,))
        shards = plan(manifest, shards=2)
        with ResultStore(tmp_path / "s0") as store:
            execute_campaign(manifest, store, shards[0].units)
            status = shard_status(shards[0], store)
            assert status.units == len(shards[0].units)
            assert status.done == status.units
            assert status.partial == status.missing == 0
            assert status.complete

            # The other shard's units are absent from this store.
            other = shard_status(shards[1], store)
            assert other.done == 0
            assert other.missing == other.units
            assert not other.complete

    def test_status_counts_shallow_records_as_partial(self, tmp_path):
        manifest = _manifest(seeds=(0,))
        shard = plan(manifest, shards=1)[0]
        shallow = dataclasses.replace(manifest, repetitions=1)
        with ResultStore(tmp_path / "s") as store:
            # Run at R=1, then check against the R=2 plan: every unit is
            # stored but too shallow to serve the deeper campaign.
            execute_campaign(shallow, store)
            status = shard_status(shard, store)
        assert status.partial == status.units
        assert status.done == 0 and status.missing == 0

    def test_load_shard_plans_from_planner_outputs(self, tmp_path):
        manifest = _manifest()
        written = write_plans(manifest, tmp_path / "plans", shards=2)
        by_dir = load_shard_plans(tmp_path / "plans")
        by_campaign = load_shard_plans(tmp_path / "plans" / "campaign.json")
        assert [s.units for s in by_dir] == [shard.units for _, shard in written]
        assert [s.units for s in by_campaign] == [s.units for s in by_dir]
        single = load_shard_plans(written[1][0])
        assert len(single) == 1
        assert single[0].units == written[1][1].units

    def test_load_shard_plans_rejects_a_planless_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ExperimentError, match="campaign.json"):
            load_shard_plans(tmp_path / "empty")

    def test_status_rows_pairs_stores_with_shards(self, tmp_path):
        manifest = _manifest(seeds=(0,))
        write_plans(manifest, tmp_path / "plans", shards=2)
        shards = load_shard_plans(tmp_path / "plans")
        with ResultStore(tmp_path / "s0") as store:
            execute_campaign(manifest, store, shards[0].units)
        rows = status_rows(shards, [tmp_path / "s0", tmp_path / "s1"])
        assert rows[0].complete and not rows[1].complete
        # A single store is checked against every shard (merged case).
        merged_rows = status_rows(shards, [tmp_path / "s0"])
        assert merged_rows[0].complete and not merged_rows[1].complete
        with pytest.raises(ExperimentError, match="one store per shard"):
            status_rows(shards, [tmp_path / "a", tmp_path / "b", tmp_path / "c"])
