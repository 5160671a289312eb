"""Integration: the campaign DAG reproduces the in-memory engine bit-for-bit.

The acceptance test of the `repro.dag` subsystem: running a campaign
through the content-addressed stage DAG must produce (1) cell records
and exports equal, byte for byte, to what the in-memory `run_figure`
engine computes; (2) a second identical run that performs **zero**
solves and serves every stage from the artifact cache with unchanged
exports; (3) the same bytes again when the solve phase runs through the
work-stealing process pool instead of the serial engine; (4) zero solves
on a merged, cells-only store.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignManifest, merge_stores
from repro.dag import build_pipeline, run_pipeline
from repro.experiments import ResultStore, aggregate_results, run_figure

SEEDS = (0, 1)


@pytest.fixture(scope="module")
def manifest() -> CampaignManifest:
    """A scaled-down fig5 multi-seed campaign (no exact baselines)."""
    return CampaignManifest(
        figures=("fig5",), seeds=SEEDS, repetitions=4, max_points=2
    )


@pytest.fixture(scope="module")
def reference(manifest) -> dict:
    """The in-memory engine's result of every seed: ``{seed: result}``."""
    return {
        seed: run_figure(
            "fig5",
            seed=seed,
            repetitions=manifest.repetitions,
            max_points=manifest.max_points,
        )
        for seed in manifest.seeds
    }


@pytest.fixture(scope="module")
def dag_store(manifest, tmp_path_factory):
    """One DAG execution plus its run result."""
    store = ResultStore(tmp_path_factory.mktemp("dag"))
    run = run_pipeline(build_pipeline(manifest), store)
    return store, run


@pytest.fixture(scope="module")
def cells_only_store(dag_store, tmp_path_factory) -> ResultStore:
    """The DAG store merged into a fresh one: cells and run headers only."""
    store, _ = dag_store
    store.flush()
    merged_dir = tmp_path_factory.mktemp("merged")
    merge_stores(merged_dir, [store.path])
    return ResultStore(merged_dir)


def _cell_map(store: ResultStore) -> dict:
    return {
        record.key: (record.repetitions, record.values, record.failures)
        for record in store.cells()
    }


class TestDagEqualsInMemory:
    def test_first_run_computes_every_stage(self, dag_store):
        _, run = dag_store
        assert run.report.total_hits == 0
        assert run.report.computed["solve"] > 0
        assert run.report.hit_rate() == 0.0

    def test_cells_are_bit_for_bit_identical(self, dag_store, reference):
        store, _ = dag_store
        cells = store.cells()
        assert len(cells) == sum(
            len(result.series) * len(result.scenario.sweep_values)
            for result in reference.values()
        )
        for record in cells:
            series = reference[record.seed].series[record.curve]
            assert record.values == series.samples[record.sweep_value]

    def test_per_seed_exports_match(self, dag_store, reference, manifest):
        store, run = dag_store
        for seed in manifest.seeds:
            expected_csv = reference[seed].to_csv()
            assert run.renders["fig5"]["per_seed"][str(seed)] == expected_csv
            assert store.load_result("fig5", seed=seed).to_csv() == expected_csv

    def test_aggregate_export_matches(self, dag_store, reference):
        _, run = dag_store
        pooled = aggregate_results(list(reference.values()), ci="pooled")
        assert run.renders["fig5"]["aggregate"] == pooled.to_csv()


class TestZeroSolveRerun:
    def test_identical_rerun_hits_every_stage(self, dag_store, manifest):
        store, first = dag_store
        second = run_pipeline(build_pipeline(manifest), store)
        assert second.report.computed["solve"] == 0
        assert sum(second.report.computed.values()) == 0
        assert second.report.hit_rate() == 1.0
        assert second.renders == first.renders

    def test_cells_only_store_adopts_without_solving(
        self, cells_only_store, manifest, reference
    ):
        # `store merge` copies cells, not artifacts: the DAG adopts the
        # merged cells as solve hits and still renders the same bytes.
        with ResultStore(cells_only_store.path) as store:
            run = run_pipeline(build_pipeline(manifest), store)
        assert run.report.computed["solve"] == 0
        for seed in manifest.seeds:
            expected_csv = reference[seed].to_csv()
            assert run.renders["fig5"]["per_seed"][str(seed)] == expected_csv


class TestParallelDispatch:
    def test_worker_pool_with_stealing_matches_serial(
        self, dag_store, manifest, tmp_path_factory
    ):
        serial_store, serial_run = dag_store
        store = ResultStore(tmp_path_factory.mktemp("dag-parallel"))
        run = run_pipeline(build_pipeline(manifest), store, workers=2)
        assert run.report.computed["solve"] == serial_run.report.computed["solve"]
        assert run.renders == serial_run.renders
        assert _cell_map(store) == _cell_map(serial_store)
        store.close()
