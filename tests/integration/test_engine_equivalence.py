"""Block-scheduled engine vs the per-cell reference oracle.

The contract under test: for the same seed, ``run_scenario`` /
``run_figure`` — which schedule whole repetition blocks through the
curve providers and the vectorized :class:`~repro.batch.InstanceStack`
pass — produce bit-for-bit the series of the scalar per-cell oracle
(:mod:`tests.cells_oracle`, the original engine), serially or on a
process pool.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments import run_figure, run_scenario
from repro.experiments import providers as providers_module
from repro.experiments.figures import FIGURES
from repro.experiments.providers import CellBlock, HeuristicProvider
from repro.generators import ScenarioConfig
from repro.heuristics import get_heuristic, supports_batch
from repro.heuristics.base import batch_solve_min_repetitions, solve_stack
from repro.simulation.rng import RandomStreamFactory
from tests.cells_oracle import run_cells, run_figure_cells


def _series_payload(result):
    return {
        label: (series.x_values, series.samples)
        for label, series in result.series.items()
    }


def _assert_identical(a, b):
    """Bit-for-bit series equality, treating NaN cells (MIP timeouts /
    OtO infeasibility) as equal when they coincide."""
    pa, pb = _series_payload(a), _series_payload(b)
    assert pa.keys() == pb.keys()
    for label in pa:
        xa, sa = pa[label]
        xb, sb = pb[label]
        assert xa == xb, label
        for x in xa:
            va, vb = sa[x], sb[x]
            assert len(va) == len(vb), (label, x)
            for left, right in zip(va, vb):
                if math.isnan(left) and math.isnan(right):
                    continue
                assert left == right, (label, x)


def _small_scenario(**overrides) -> ScenarioConfig:
    defaults = dict(
        name="engine-test",
        num_machines=5,
        num_types=2,
        sweep="tasks",
        sweep_values=(6, 9),
        repetitions=4,
        heuristics=("H1", "H2", "H4w"),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestBlockVsCells:
    def test_custom_scenario_identical(self):
        scenario = _small_scenario()
        _assert_identical(
            run_cells(scenario, seed=11),
            run_scenario(scenario, seed=11),
        )

    def test_custom_scenario_with_exact_baselines(self):
        scenario = _small_scenario(
            num_machines=8,
            sweep_values=(4,),
            repetitions=2,
            heuristics=("H2", "H4w"),
            task_dependent_failures=True,
        )
        cells = run_cells(
            scenario, seed=3, include_milp=True, include_one_to_one=True
        )
        block = run_scenario(
            scenario, seed=3, include_milp=True, include_one_to_one=True
        )
        _assert_identical(cells, block)
        assert cells.milp_failures == block.milp_failures

    def test_fig9_reduced_identical(self):
        _assert_identical(
            run_figure_cells("fig9", seed=5, repetitions=2, max_points=2),
            run_figure("fig9", seed=5, repetitions=2, max_points=2),
        )

    def test_fig10_reduced_identical(self):
        # MILP-free in tier 1 (the n=16 solves take ~10s each); the slow
        # suite covers the full curve set below, and
        # test_custom_scenario_with_exact_baselines keeps a cheap
        # MILP-inclusive equivalence check in tier 1.
        _assert_identical(
            run_figure_cells(
                "fig10", seed=1, repetitions=2, max_points=2, include_milp=False
            ),
            run_figure(
                "fig10", seed=1, repetitions=2, max_points=2, include_milp=False
            ),
        )

    @pytest.mark.slow
    def test_fig10_reduced_identical_including_milp(self):
        _assert_identical(
            run_figure_cells("fig10", seed=1, repetitions=2, max_points=2),
            run_figure("fig10", seed=1, repetitions=2, max_points=2),
        )

    @pytest.mark.slow
    def test_fig5_reduced_identical(self):
        _assert_identical(
            run_figure_cells("fig5", seed=7, repetitions=2, max_points=2),
            run_figure("fig5", seed=7, repetitions=2, max_points=2),
        )

    def test_parallel_block_matches_serial_block(self):
        scenario = _small_scenario()
        _assert_identical(
            run_scenario(scenario, seed=11),
            run_scenario(scenario, seed=11, workers=2),
        )

    def test_parallel_block_matches_parallel_cells(self):
        scenario = _small_scenario(repetitions=3)
        _assert_identical(
            run_cells(scenario, seed=23, workers=2),
            run_scenario(scenario, seed=23, workers=2),
        )

    def test_memoized_block_run_is_identical(self):
        scenario = _small_scenario(repetitions=2)
        _assert_identical(
            run_scenario(scenario, seed=9),
            run_scenario(scenario, seed=9, memoize_instances=True),
        )


class TestBatchSolveEquivalence:
    """The batch solve layer vs the per-instance loop on real figure shapes.

    For every batch-capable heuristic of a figure's curve set, the forced
    ``solve_batch`` path must produce the per-instance path's assignments
    bit for bit on a block sampled from that figure's scenario.
    """

    @pytest.mark.parametrize("figure_id", ["fig5", "fig9", "fig10"])
    def test_block_solve_identical_to_per_instance(self, figure_id):
        scenario = FIGURES[figure_id].scenario.scaled(repetitions=3)
        sweep_value = scenario.sweep_values[0]
        block = CellBlock.sample(scenario, sweep_value, RandomStreamFactory(21))
        covered = 0
        for name in scenario.heuristics:
            heuristic = get_heuristic(name)
            if not supports_batch(heuristic):
                continue  # H1: randomized, stays on the per-instance path
            batched = solve_stack(heuristic, block.instances, batch=True)
            looped = solve_stack(heuristic, block.instances, batch=False)
            assert (batched == looped).all(), (figure_id, name)
            covered += 1
        assert covered >= 3  # H2/H3 and at least one H4-family curve

    def test_engine_uses_batch_solve_above_threshold(self, monkeypatch):
        """A block-engine run at production depth routes through solve_batch
        and still matches the per-cell reference engine bit for bit."""
        calls = []
        scenario = _small_scenario(
            repetitions=max(
                batch_solve_min_repetitions("H2"),
                batch_solve_min_repetitions("H4w"),
            ),
            heuristics=("H2", "H4w"),
        )
        for name in scenario.heuristics:
            cls = type(get_heuristic(name))
            original = cls.solve_batch

            def counting(self, instances, _original=original):
                calls.append(type(self).name)
                return _original(self, instances)

            monkeypatch.setattr(cls, "solve_batch", counting)
        block = run_scenario(scenario, seed=29)
        assert sorted(set(calls)) == ["H2", "H4w"]
        cells = run_cells(scenario, seed=29)
        _assert_identical(cells, block)


class TestCrossPointStacking:
    """Signature-aligned sweep points stacked into one kernel pass.

    A types sweep keeps (n, m) fixed across points, so the serial block
    engine chunks the whole figure into one solve per curve; results
    must stay bit-for-bit identical to the per-cell reference, and the
    lock-step kernel must actually be entered once with every point's
    rows."""

    def _types_scenario(self, **overrides) -> ScenarioConfig:
        defaults = dict(
            name="cross-point-test",
            num_machines=12,
            num_types=None,
            num_tasks=12,
            sweep="types",
            sweep_values=(3, 4, 5, 6),
            repetitions=6,
            heuristics=("H2", "H4w", "H4ls", "H1"),
        )
        defaults.update(overrides)
        return ScenarioConfig(**defaults)

    def test_types_sweep_identical_to_cells(self):
        scenario = self._types_scenario()
        _assert_identical(
            run_cells(scenario, seed=7),
            run_scenario(scenario, seed=7),
        )

    def test_aligned_points_solve_in_one_batch_call(self, monkeypatch):
        calls = []
        scenario = self._types_scenario(heuristics=("H2", "H4w"))
        for name in scenario.heuristics:
            cls = type(get_heuristic(name))
            original = cls.solve_batch

            def counting(self, instances, _original=original):
                calls.append((type(self).name, len(instances)))
                return _original(self, instances)

            monkeypatch.setattr(cls, "solve_batch", counting)
        run_scenario(scenario, seed=7)
        rows = len(scenario.sweep_values) * scenario.repetitions
        assert sorted(calls) == [("H2", rows), ("H4w", rows)]

    def test_provider_stacking_matches_per_block(self):
        scenario = self._types_scenario(heuristics=("H2",))
        streams = RandomStreamFactory(19)
        blocks = [
            CellBlock.sample(scenario, value, streams)
            for value in scenario.sweep_values
        ]
        for name in ("H2", "H4w", "H4ls"):
            provider = providers_module.resolve_provider(name)
            stacked = provider.evaluate_blocks(blocks)
            per_block = [provider.evaluate_block(block) for block in blocks]
            for one, many in zip(per_block, stacked):
                assert (one.periods == many.periods).all(), name

    def test_misaligned_points_fall_back_per_block(self):
        # A tasks sweep changes n between points: nothing may stack.
        scenario = _small_scenario(heuristics=("H4w",), repetitions=6)
        streams = RandomStreamFactory(19)
        blocks = [
            CellBlock.sample(scenario, value, streams)
            for value in scenario.sweep_values
        ]
        chunks = providers_module._aligned_chunks(blocks)
        assert [len(chunk) for chunk in chunks] == [1, 1]
        provider = HeuristicProvider("H4w")
        stacked = provider.evaluate_blocks(blocks)
        for block, result in zip(blocks, stacked):
            reference = provider.evaluate_block(block)
            assert (result.periods == reference.periods).all()

    def test_row_cap_splits_chunks(self):
        scenario = self._types_scenario(heuristics=("H4w",), repetitions=4)
        streams = RandomStreamFactory(19)
        blocks = [
            CellBlock.sample(scenario, value, streams)
            for value in scenario.sweep_values
        ]
        chunks = providers_module._aligned_chunks(blocks, max_rows=8)
        assert [len(chunk) for chunk in chunks] == [2, 2]
        # An oversized single block still forms its own chunk.
        chunks = providers_module._aligned_chunks(blocks, max_rows=2)
        assert [len(chunk) for chunk in chunks] == [1, 1, 1, 1]


class TestBatchFallback:
    """Providers whose heuristic lacks ``solve_batch`` must keep working
    under the block engine — serially and on a process pool."""

    def test_h1_has_no_batch_kernel(self):
        assert not supports_batch(get_heuristic("H1"))

    def test_fallback_block_run_matches_cells_with_workers(self):
        scenario = _small_scenario(
            repetitions=batch_solve_min_repetitions("H4w"),
            heuristics=("H1", "RoundRobin", "H4w"),
        )
        cells = run_cells(scenario, seed=31)
        block = run_scenario(scenario, seed=31, workers=2)
        _assert_identical(cells, block)

    def test_fallback_provider_solves_blocks_directly(self):
        scenario = _small_scenario(repetitions=4, heuristics=("H1",))
        block = CellBlock.sample(
            scenario, scenario.sweep_values[0], RandomStreamFactory(8)
        )
        result = HeuristicProvider("H1").evaluate_block(block)
        assert result.periods.shape == (4,)
        assert np.isfinite(result.periods).all()


class TestOptionalCurves:
    def test_fig6_optional_h4ls_never_above_h4w(self):
        result = run_figure(
            "fig6", seed=0, repetitions=2, max_points=2, include_optional=True
        )
        assert "H4ls" in result.series
        for x in result.series["H4ls"].x_values:
            for refined, seeded in zip(
                result.series["H4ls"].samples[x], result.series["H4w"].samples[x]
            ):
                assert refined <= seeded

    def test_optional_curves_do_not_perturb_paper_curves(self):
        plain = run_figure("fig6", seed=0, repetitions=1, max_points=2)
        extended = run_figure(
            "fig6", seed=0, repetitions=1, max_points=2, include_optional=True
        )
        for label in plain.series:
            assert (
                plain.series[label].samples == extended.series[label].samples
            )
