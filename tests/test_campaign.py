"""Campaign subsystem: spec grids, store atomicity, crash-safe resume, CLI."""

import json

import pytest

from repro.arch.config import HardwareConfig, random_hardware_config
from repro.campaign import (
    CampaignReport,
    CampaignScheduler,
    CampaignSpec,
    ResultStore,
    StoreCorruptionError,
    StrategyVariant,
    run_campaign,
)
import repro.campaign.scheduler as scheduler_module
from repro.campaign.store import (
    cache_entry_from_dict,
    cache_entry_to_dict,
    segment_name_for,
)
from repro.eval.cache import EvaluationCache
from repro.eval.engine import EvaluationEngine
from repro.mapping.cosa import cosa_mapping
from repro.search.api import SearchCallback, SearchSession
from repro.utils.serialization import (
    canonical_outcome_json,
    outcome_from_dict,
    outcome_to_dict,
)
from repro.workloads.networks import get_network

import repro


def tiny_spec(seeds=(0, 1), budgets=None, name="tiny"):
    """A seconds-scale two-strategy grid on bert."""
    kwargs = {} if budgets is None else {"budgets": budgets}
    return CampaignSpec(
        name=name,
        workloads=("bert",),
        strategies=(
            StrategyVariant("dosa", settings={"num_start_points": 1,
                                              "gd_steps": 20,
                                              "rounding_period": 10}),
            StrategyVariant("random", settings={"num_hardware_designs": 2,
                                                "mappings_per_layer": 5}),
        ),
        seeds=seeds,
        **kwargs,
    )


# --------------------------------------------------------------------------- #
# CampaignSpec
# --------------------------------------------------------------------------- #
class TestCampaignSpec:
    def test_grid_expansion_order_and_ids(self):
        spec = tiny_spec()
        ids = [job.job_id for job in spec.jobs()]
        assert ids == [
            "bert/dosa/seed=0/budget=0",
            "bert/dosa/seed=1/budget=0",
            "bert/random/seed=0/budget=0",
            "bert/random/seed=1/budget=0",
        ]
        assert spec.grid_size == 4
        assert len(set(ids)) == len(ids)

    def test_json_round_trip(self, tmp_path):
        spec = CampaignSpec(
            name="rt",
            workloads=("bert", "resnet50"),
            strategies=(
                StrategyVariant("dosa", settings={"gd_steps": 50}),
                StrategyVariant("pinned", strategy="fixed_hw_random",
                                hardware=HardwareConfig(16, 32, 128)),
            ),
            seeds=(0, 7),
            budgets=(repro.SearchBudget(max_samples=100),
                     repro.SearchBudget()),
        )
        path = spec.save(tmp_path / "spec.json")
        reloaded = CampaignSpec.load(path)
        assert reloaded.to_dict() == spec.to_dict()
        assert reloaded.strategies[1].hardware == HardwareConfig(16, 32, 128)
        assert reloaded.budgets[0].max_samples == 100

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown workloads"):
            CampaignSpec(name="x", workloads=("nope",),
                         strategies=(StrategyVariant("dosa"),))
        with pytest.raises(ValueError, match="duplicate strategy"):
            CampaignSpec(name="x", workloads=("bert",),
                         strategies=(StrategyVariant("dosa"),
                                     StrategyVariant("dosa")))
        with pytest.raises(KeyError, match="unknown search strategy"):
            CampaignSpec(name="x", workloads=("bert",),
                         strategies=(StrategyVariant("not-a-strategy"),))
        with pytest.raises(ValueError, match="requires hardware"):
            CampaignSpec(name="x", workloads=("bert",),
                         strategies=(StrategyVariant("fixed_hw_random"),))
        with pytest.raises(ValueError, match="JSON-safe"):
            StrategyVariant("dosa", settings={"bounds": object()})

    def test_seeds_must_be_json_safe(self):
        import numpy as np
        with pytest.raises(ValueError, match="seeds must be JSON-safe"):
            CampaignSpec(name="x", workloads=("bert",),
                         strategies=(StrategyVariant("dosa"),),
                         seeds=(np.random.default_rng(0),))

    def test_job_named(self):
        spec = tiny_spec()
        job = spec.job_named("bert/random/seed=1/budget=0")
        assert job.variant.strategy == "random" and job.seed == 1
        with pytest.raises(KeyError):
            spec.job_named("bert/random/seed=9/budget=0")


# --------------------------------------------------------------------------- #
# ResultStore
# --------------------------------------------------------------------------- #
class TestResultStore:
    def test_manifest_spec_round_trip_and_mismatch(self, tmp_path):
        spec = tiny_spec()
        ResultStore(tmp_path / "s", spec=spec)
        reopened = ResultStore(tmp_path / "s")  # spec comes from the manifest
        assert reopened.spec.to_dict() == spec.to_dict()
        with pytest.raises(ValueError, match="different grid"):
            ResultStore(tmp_path / "s", spec=tiny_spec(seeds=(5,)))
        with pytest.raises(ValueError, match="no campaign manifest"):
            ResultStore(tmp_path / "empty")

    def test_truncated_tail_is_dropped_not_loaded(self, tmp_path):
        spec = tiny_spec(seeds=(0,))
        store = ResultStore(tmp_path / "s", spec=spec)
        run = CampaignScheduler(spec, store).run()
        assert run.complete and len(store.completed_job_ids()) == 2

        # Simulate a crash mid-append: chop the final record in half.
        text = store.results_path.read_text()
        lines = text.splitlines()
        store.results_path.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][:len(lines[-1]) // 2])

        fresh = ResultStore(tmp_path / "s")
        records = fresh.records()
        assert fresh.dropped_truncated_tail
        assert len(records) == 1  # the damaged record is re-run, not loaded
        assert len(fresh.completed_job_ids()) == 1

        # Resume re-runs exactly the dropped job and completes the grid.
        resumed = CampaignScheduler(spec, fresh).run()
        assert resumed.ran == ["bert/random/seed=0/budget=0"]
        assert resumed.complete

    def test_corrupt_middle_record_raises(self, tmp_path):
        spec = tiny_spec(seeds=(0,))
        store = ResultStore(tmp_path / "s", spec=spec)
        CampaignScheduler(spec, store).run()
        lines = store.results_path.read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]  # damage a non-tail record
        store.results_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreCorruptionError):
            ResultStore(tmp_path / "s").records()

    def test_cache_spill_round_trip_bit_identical(self, tmp_path):
        network = get_network("bert")
        hardware = random_hardware_config(seed=0)
        mappings = [cosa_mapping(layer, hardware) for layer in network.layers]
        engine = EvaluationEngine()
        expected = engine.evaluate_many(mappings, hardware)
        entries = engine.cache.items()
        for entry, payload in zip(entries,
                                  (cache_entry_to_dict(*e) for e in entries)):
            key, result = cache_entry_from_dict(
                json.loads(json.dumps(payload)))
            assert key == entry[0]
            assert result == entry[1]  # dataclass equality covers every field

        store = ResultStore(tmp_path / "s", spec=tiny_spec())
        segment = store.append_cache_segment("seg", entries)
        assert segment == segment_name_for(
            "seg", (store.cache_dir / segment).read_text())
        assert store.spilled_entry_count() == len(entries)
        loaded = store.load_cache()
        assert len(loaded) == len(entries)
        # A preloaded cache serves the evaluations as pure hits.
        again = EvaluationEngine(cache=loaded).evaluate_many(mappings, hardware)
        assert again == expected
        assert loaded.stats.misses == 0 and loaded.stats.hits == len(mappings)


# --------------------------------------------------------------------------- #
# Scheduler: resume, sharding, interrupts
# --------------------------------------------------------------------------- #
class TestSchedulerResume:
    def test_interrupt_between_jobs_then_resume_matches_uninterrupted(
            self, tmp_path):
        spec = tiny_spec()

        baseline = ResultStore(tmp_path / "baseline", spec=spec)
        CampaignScheduler(spec, baseline).run()
        baseline_report = CampaignReport.from_store(baseline).to_text()

        # Interrupt the campaign after two persisted jobs.
        def stop_after_two(job, outcome, _count=[0]):
            _count[0] += 1
            if _count[0] == 2:
                raise KeyboardInterrupt

        store = ResultStore(tmp_path / "resumable", spec=spec)
        first = CampaignScheduler(spec, store).run(on_job_done=stop_after_two)
        assert first.was_interrupted and len(first.ran) == 2
        assert len(first.pending_after) == 2

        second = CampaignScheduler(spec, store).run()
        assert second.skipped and second.complete
        assert set(second.ran) == set(first.pending_after)
        assert CampaignReport.from_store(store).to_text() == baseline_report

    def test_mid_job_interrupt_persists_best_so_far_and_resumes(
            self, tmp_path, monkeypatch):
        spec = tiny_spec()
        baseline = ResultStore(tmp_path / "baseline", spec=spec)
        CampaignScheduler(spec, baseline).run()
        baseline_report = CampaignReport.from_store(baseline).to_text()

        # Raise KeyboardInterrupt inside the third job's search loop, after
        # it has offered a candidate — the searcher absorbs it and returns an
        # interrupted best-so-far outcome.
        original_offer = SearchSession.offer
        offers = {"count": 0}

        def interrupting_offer(self, candidate):
            improved = original_offer(self, candidate)
            offers["count"] += 1
            if offers["count"] == 5:
                raise KeyboardInterrupt
            return improved

        monkeypatch.setattr(SearchSession, "offer", interrupting_offer)
        store = ResultStore(tmp_path / "resumable", spec=spec)
        first = CampaignScheduler(spec, store).run()
        assert first.was_interrupted
        assert len(first.interrupted) == 1
        interrupted_id = first.interrupted[0]
        # The best-so-far outcome was persisted, flagged as interrupted...
        assert store.interrupted_job_ids() == {interrupted_id}
        payload = store.latest_outcomes()[interrupted_id]
        assert payload["interrupted"] and payload["best"]["edp"] > 0
        # ...and is not treated as complete.
        assert interrupted_id not in store.completed_job_ids()

        monkeypatch.setattr(SearchSession, "offer", original_offer)
        second = CampaignScheduler(spec, store).run()
        assert interrupted_id in second.ran and second.complete
        assert CampaignReport.from_store(store).to_text() == baseline_report

    def test_complete_outcomes_backfills_resumed_jobs(self, tmp_path):
        spec = tiny_spec(seeds=(0,))
        store = ResultStore(tmp_path / "s", spec=spec)
        scheduler = CampaignScheduler(spec, store)
        partial = scheduler.run(max_jobs=1)
        with pytest.raises(RuntimeError, match="incomplete"):
            partial.complete_outcomes()
        resumed = scheduler.run()
        outcomes = resumed.complete_outcomes()
        # The job run in the *first* invocation is reloaded from the store.
        assert set(outcomes) == {job.job_id for job in spec.jobs()}
        assert outcomes[partial.ran[0]].best_edp > 0

    def test_worker_mode_store_cannot_write_results(self, tmp_path):
        spec = tiny_spec(seeds=(0,))
        ResultStore(tmp_path / "s", spec=spec)
        reader = ResultStore(tmp_path / "s", writer=False)
        with pytest.raises(RuntimeError, match="worker"):
            reader.append("job", {"interrupted": False})

    def test_run_strategies_helper(self):
        from repro.experiments.common import run_strategies
        outcomes = run_strategies(
            "bert",
            {"dosa": {"num_start_points": 1, "gd_steps": 20,
                      "rounding_period": 10},
             "random": {"num_hardware_designs": 2, "mappings_per_layer": 5}},
            seed=0)
        assert set(outcomes) == {"dosa", "random"}
        assert all(outcome.best_edp > 0 for outcome in outcomes.values())

    def test_max_jobs_and_shards_partition_the_grid(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s", spec=spec)
        scheduler = CampaignScheduler(spec, store)
        first = scheduler.run(max_jobs=1)
        assert len(first.ran) == 1 and len(first.pending_after) == 3

        shard0 = scheduler.run(shard_index=0, shard_count=2)
        shard1 = scheduler.run(shard_index=1, shard_count=2)
        assert not (set(shard0.ran) & set(shard1.ran))
        assert shard1.complete
        status = scheduler.status()
        assert len(status.completed) == 4 and not status.pending

    def test_scheduler_validation(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s", spec=spec)
        scheduler = CampaignScheduler(spec, store)
        with pytest.raises(ValueError, match="together"):
            scheduler.run(shard_index=0)
        with pytest.raises(ValueError, match="invalid shard"):
            scheduler.run(shard_index=2, shard_count=2)
        with pytest.raises(ValueError, match="max_jobs"):
            scheduler.run(max_jobs=0)
        with pytest.raises(ValueError, match="n_workers"):
            CampaignScheduler(spec, store, n_workers=0)

    def test_pool_job_failure_is_recorded_not_fatal(self, tmp_path, monkeypatch):
        import repro.campaign.scheduler as scheduler_module
        spec = tiny_spec(seeds=(0,))
        original = scheduler_module.execute_job

        def failing_execute_job(job, cache=None, callbacks=None):
            if job.variant.name == "random":
                raise RuntimeError("no feasible design (simulated)")
            return original(job, cache=cache, callbacks=callbacks)

        # The fork-based pool inherits the patched module state.
        monkeypatch.setattr(scheduler_module, "execute_job", failing_execute_job)
        store = ResultStore(tmp_path / "s", spec=spec)
        run = CampaignScheduler(spec, store, n_workers=2).run()
        assert len(run.failed) == 1
        assert run.failed[0][0] == "bert/random/seed=0/budget=0"
        assert run.ran == ["bert/dosa/seed=0/budget=0"]  # still persisted
        assert not run.complete
        with pytest.raises(RuntimeError, match="1 jobs failed"):
            run.complete_outcomes()
        # The failed job stays pending and re-runs once the failure is gone.
        monkeypatch.setattr(scheduler_module, "execute_job", original)
        resumed = CampaignScheduler(spec, store, n_workers=2).run()
        assert resumed.complete

    def test_worker_pool_matches_inline(self, tmp_path):
        spec = tiny_spec(seeds=(0,))
        inline = ResultStore(tmp_path / "inline", spec=spec)
        CampaignScheduler(spec, inline).run()
        pooled = ResultStore(tmp_path / "pooled", spec=spec)
        run = CampaignScheduler(spec, pooled, n_workers=2).run()
        assert run.complete
        assert (CampaignReport.from_store(pooled).to_text()
                == CampaignReport.from_store(inline).to_text())

    def test_budget_axis_and_cache_spill_do_not_change_results(self, tmp_path):
        budgets = (repro.SearchBudget(max_samples=40), repro.SearchBudget())
        spec = tiny_spec(seeds=(0,), budgets=budgets)
        with_spill = ResultStore(tmp_path / "spill", spec=spec)
        CampaignScheduler(spec, with_spill).run()
        assert with_spill.spilled_entry_count() > 0
        without = ResultStore(tmp_path / "nospill", spec=spec)
        CampaignScheduler(spec, without, persist_cache=False).run()
        assert without.spilled_entry_count() == 0
        assert (CampaignReport.from_store(with_spill).to_text()
                == CampaignReport.from_store(without).to_text())
        # The budgeted job really was capped.
        report = CampaignReport.from_store(without)
        capped = [r for r in report.results if r.budget == "samples<=40"]
        assert capped and all(r.samples <= 40 + 10 for r in capped)


# --------------------------------------------------------------------------- #
# The spill: what each job stored; the bounded pool-worker cache
# --------------------------------------------------------------------------- #
def random_spec(seeds=(0,), budgets=(repro.SearchBudget(),)):
    """Seconds-scale random-search jobs on bert (~60 stored entries each)."""
    return CampaignSpec(
        name="spill",
        workloads=("bert",),
        strategies=(StrategyVariant("random",
                                    settings={"num_hardware_designs": 2,
                                              "mappings_per_layer": 5}),),
        seeds=seeds,
        budgets=budgets,
    )


def worker_misses(cache_dir) -> int:
    """Misses so far of the in-process pool worker's cache over ``cache_dir``."""
    state = scheduler_module._WORKER_SPILL.get(str(cache_dir))
    return 0 if state is None else state[0].stats.misses


def segment_keys(store, job_id):
    """Cache keys of one job's spill segment, in file order."""
    [text] = [path.read_text() for path in store.cache_dir.iterdir()
              if path.name == segment_name_for(job_id, path.read_text())]
    return [cache_entry_from_dict(json.loads(line))[0]
            for line in text.splitlines()]


def run_pool_job(store, job_id):
    """One job through the pool worker's entry point, in this process."""
    return scheduler_module._pool_run_job(
        store.spec.to_dict(), job_id, str(store.directory), True,
        str(store.cache_dir))


@pytest.fixture
def fresh_worker(monkeypatch):
    """A fresh pool-worker spill state: in-process worker calls neither see
    nor leave cache state across tests."""
    monkeypatch.setattr(scheduler_module, "_WORKER_SPILL", {})


@pytest.fixture
def stored_per_job(monkeypatch, fresh_worker):
    """Keys ``EvaluationCache.store`` receives inside each ``execute_job``."""
    per_job: list[list] = []
    running: list[bool] = []
    execute_job = scheduler_module.execute_job
    store = EvaluationCache.store

    def recording_execute_job(job, cache=None, callbacks=None):
        per_job.append([])
        running.append(True)
        try:
            return execute_job(job, cache=cache, callbacks=callbacks)
        finally:
            running.pop()

    def recording_store(self, key, result):
        if running:
            per_job[-1].append(key)
        store(self, key, result)

    monkeypatch.setattr(scheduler_module, "execute_job", recording_execute_job)
    monkeypatch.setattr(EvaluationCache, "store", recording_store)
    return per_job


class TestSpill:
    def test_inline_job_on_full_bounded_cache_spills_what_it_stored(
            self, tmp_path, stored_per_job):
        hardware = random_hardware_config(seed=0)
        cache = EvaluationCache(max_entries=4)
        EvaluationEngine(cache=cache).evaluate_many(
            [cosa_mapping(layer, hardware)
             for layer in get_network("resnet50").layers[:8]], hardware)
        assert len(cache) == 4  # full before the job starts
        spec = random_spec()
        store = ResultStore(tmp_path / "s", spec=spec)
        run = CampaignScheduler(spec, store, cache=cache).run()
        assert run.complete
        [stored] = stored_per_job
        assert len(stored) > cache.max_entries and cache.stats.evictions
        assert segment_keys(store, spec.jobs()[0].job_id) == stored

    def test_pool_jobs_spill_what_they_stored_not_what_they_preloaded(
            self, tmp_path, stored_per_job):
        spec = random_spec(seeds=(0, 1, 2))
        store = ResultStore(tmp_path / "s", spec=spec)
        first = spec.jobs()[0]
        standalone = EvaluationCache()
        with standalone.recording() as entries:
            scheduler_module.execute_job(first, cache=standalone)
        half = len(entries) // 2
        # Another process spilled half of the first job's entries.
        store.append_cache_segment("another-process", entries[:half])
        stored_per_job.clear()

        for job in spec.jobs():
            run_pool_job(store, job.job_id)
        assert len(stored_per_job) == 3
        preloaded = {key for key, _ in entries[:half]}
        for job, stored in zip(spec.jobs(), stored_per_job):
            spilled = segment_keys(store, job.job_id)
            assert spilled and spilled == stored
            assert not preloaded & set(spilled)
        assert stored_per_job[0] == [key for key, _ in entries[half:]]

    def test_capped_worker_cache_keeps_outcomes_and_complete_segments(
            self, tmp_path, monkeypatch, stored_per_job):
        spec = random_spec(seeds=(0, 1, 2))
        uncapped = ResultStore(tmp_path / "uncapped", spec=spec)
        expected = [canonical_outcome_json(
            run_pool_job(uncapped, job.job_id)["outcome"])
            for job in spec.jobs()]
        stored_per_job.clear()

        cap = 24
        monkeypatch.setattr(scheduler_module, "_WORKER_CACHE_ENTRIES", cap)
        store = ResultStore(tmp_path / "capped", spec=spec)
        for job, outcome in zip(spec.jobs(), expected):
            payload = run_pool_job(store, job.job_id)["outcome"]
            assert canonical_outcome_json(payload) == outcome
            cache, _ = scheduler_module._WORKER_SPILL[str(store.cache_dir)]
            assert cache.max_entries == cap and len(cache) <= cap
            assert segment_keys(store, job.job_id) == stored_per_job[-1]
            assert len(stored_per_job[-1]) > cap
        assert cache.stats.evictions > 0

    def test_segment_gone_after_listing_is_skipped(self, tmp_path,
                                                   fresh_worker):
        # A compaction may unlink a segment between a worker's listing and
        # its read; a dangling symlink is such a listed-but-missing segment.
        spec = random_spec()
        store = ResultStore(tmp_path / "s", spec=spec)
        hardware = random_hardware_config(seed=0)
        engine = EvaluationEngine()
        engine.evaluate_many([cosa_mapping(layer, hardware)
                              for layer in get_network("bert").layers],
                             hardware)
        entries = engine.cache.items()
        segment = store.append_cache_segment("job-0001", entries)
        written = len(entries)
        (store.cache_dir / "job-0000.jsonl").symlink_to(
            store.cache_dir / "unlinked")
        cache = EvaluationCache()
        assert store.load_cache_segments(cache, skip=set()) == {segment}
        assert len(cache) == written
        assert store.spilled_entry_count() == written

        payload = run_pool_job(store, spec.jobs()[0].job_id)
        assert payload["outcome"]["best"]["edp"] > 0
        _, seen = scheduler_module._WORKER_SPILL[str(store.cache_dir)]
        assert segment in seen and "job-0000.jsonl" not in seen

    def test_same_cell_jobs_with_different_budgets_keep_both_segments(
            self, tmp_path, fresh_worker):
        # A service job's cell id carries no budget value, so two jobs of one
        # network, strategy and seed share a cell id over one shared spill.
        cache_dir = tmp_path / "cache"
        misses, job_ids = [], []
        for index, budget in enumerate((repro.SearchBudget(max_samples=30),
                                        repro.SearchBudget())):
            spec = random_spec(budgets=(budget,))
            store = ResultStore(tmp_path / f"job{index}", spec=spec,
                                cache_dir=cache_dir)
            [job] = spec.jobs()
            before = worker_misses(cache_dir)
            scheduler_module._pool_run_job(spec.to_dict(), job.job_id,
                                           str(store.directory), True,
                                           str(cache_dir))
            misses.append(worker_misses(cache_dir) - before)
            job_ids.append(job.job_id)
        assert job_ids[0] == job_ids[1]
        assert misses[0] > 0 and misses[1] > 0
        assert store.spilled_entry_count() == sum(misses)

    def test_worker_loads_entries_a_later_compaction_folded_in(
            self, tmp_path, fresh_worker):
        spec = random_spec(seeds=(0, 1, 2))
        store = ResultStore(tmp_path / "s", spec=spec)
        first, second, third = spec.jobs()
        run_pool_job(store, first.job_id)
        store.compact_spill()
        run_pool_job(store, second.job_id)  # preloads compaction 1
        # Another worker spills the third job's entries; compaction 2 folds
        # them, compaction 1 and the second job's segment into one segment.
        standalone = EvaluationCache()
        with standalone.recording() as entries:
            scheduler_module.execute_job(third, cache=standalone)
        store.append_cache_segment("other-worker", entries)
        store.compact_spill()
        assert len(list(store.cache_dir.iterdir())) == 1

        cache, _ = scheduler_module._WORKER_SPILL[str(store.cache_dir)]
        hits, misses = cache.stats.hits, cache.stats.misses
        run_pool_job(store, third.job_id)
        assert cache.stats.misses == misses
        assert cache.stats.hits - hits == len(entries)


# --------------------------------------------------------------------------- #
# Report determinism
# --------------------------------------------------------------------------- #
class TestReport:
    def test_report_sections_and_determinism(self, tmp_path):
        spec = tiny_spec(seeds=(0,))
        run_campaign(spec, directory=tmp_path / "s")
        report = CampaignReport.from_store(ResultStore(tmp_path / "s"))
        text = report.to_text()
        assert "== campaign tiny ==" in text
        assert "completed 2/2 jobs" in text
        assert "vs dosa" in text  # reference strategy is the first variant
        assert text == CampaignReport.from_store(
            ResultStore(tmp_path / "s")).to_text()
        geomeans = report.geomean_ratios()
        assert geomeans["dosa"] == pytest.approx(1.0)
        assert geomeans["random"] > 0

    def test_partial_report_lists_pending(self, tmp_path):
        spec = tiny_spec(seeds=(0,))
        store = ResultStore(tmp_path / "s", spec=spec)
        CampaignScheduler(spec, store).run(max_jobs=1)
        report = CampaignReport.from_store(store)
        assert len(report.pending) == 1
        assert "pending: 1" in report.to_text()


# --------------------------------------------------------------------------- #
# Interrupted searches (satellite: graceful Ctrl-C)
# --------------------------------------------------------------------------- #
class _InterruptAfter(SearchCallback):
    def __init__(self, candidates):
        self.remaining = candidates

    def on_candidate(self, candidate, samples):
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt


class TestGracefulInterrupt:
    def test_dosa_returns_best_so_far(self):
        outcome = repro.optimize(
            "bert", strategy="dosa",
            settings=repro.DosaSettings(num_start_points=2, gd_steps=40,
                                        rounding_period=10, seed=0),
            callbacks=_InterruptAfter(2))
        assert outcome.interrupted
        assert len(outcome.candidates) == 2 and outcome.best_edp > 0
        restored = outcome_from_dict(outcome_to_dict(outcome))
        assert restored.interrupted and restored.best_edp == outcome.best_edp

    def test_random_returns_best_so_far(self):
        from repro.search.random_search import RandomSearchSettings
        outcome = repro.optimize(
            "bert", strategy="random",
            settings=RandomSearchSettings(num_hardware_designs=4,
                                          mappings_per_layer=5, seed=0),
            callbacks=_InterruptAfter(2))
        assert outcome.interrupted and len(outcome.candidates) == 2

    def test_interrupt_before_any_design_reraises(self):
        with pytest.raises(KeyboardInterrupt):
            repro.optimize(
                "bert", strategy="random",
                settings=__import__("repro.search.random_search",
                                    fromlist=["RandomSearchSettings"])
                .RandomSearchSettings(num_hardware_designs=2,
                                      mappings_per_layer=5, seed=0),
                callbacks=_InterruptAfter(1))

    def test_completed_outcome_not_flagged(self):
        outcome = repro.optimize("bert", strategy="random", seed=0, budget=60)
        assert not outcome.interrupted


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCampaignCli:
    def write_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        tiny_spec(seeds=(0,), name="cli").save(path)
        return str(path)

    def test_run_status_resume_report(self, tmp_path, capsys):
        from repro.cli import main
        spec_path = self.write_spec(tmp_path)
        store = str(tmp_path / "store")

        assert main(["campaign", "run", spec_path, "--dir", store,
                     "--max-jobs", "1"]) == 0
        assert main(["campaign", "status", "--dir", store]) == 0
        assert "1 completed" in capsys.readouterr().out

        assert main(["campaign", "run", spec_path, "--dir", store]) == 0
        out_path = tmp_path / "resumed.txt"
        assert main(["campaign", "report", "--dir", store,
                     "--out", str(out_path)]) == 0

        fresh = str(tmp_path / "fresh")
        assert main(["campaign", "run", spec_path, "--dir", fresh]) == 0
        fresh_path = tmp_path / "fresh.txt"
        assert main(["campaign", "report", "--dir", fresh,
                     "--out", str(fresh_path)]) == 0
        assert out_path.read_bytes() == fresh_path.read_bytes()

    def test_cli_error_paths(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["campaign", "run", str(tmp_path / "missing.json"),
                     "--dir", str(tmp_path / "s")]) == 2
        spec_path = self.write_spec(tmp_path)
        assert main(["campaign", "run", spec_path,
                     "--dir", str(tmp_path / "s"), "--shard", "zero/4"]) == 2
        assert main(["campaign", "status", "--dir", str(tmp_path / "nope")]) == 2
        capsys.readouterr()

    def test_run_refuses_unknown_setting_before_any_job(self, tmp_path, capsys):
        """A spec naming a setting its strategy lacks still loads, but
        ``campaign run`` exits 2 naming the key and runs no job."""
        from repro.cli import main
        spec = tiny_spec(seeds=(0,), name="stale")
        payload = spec.to_dict()
        payload["strategies"][0]["settings"]["batched_starts"] = False
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        store = tmp_path / "store"
        assert main(["campaign", "run", str(spec_path), "--dir", str(store)]) == 2
        assert "batched_starts" in capsys.readouterr().err
        assert ResultStore(store, writer=False, create=False).latest_outcomes() == {}


# --------------------------------------------------------------------------- #
# Cross-start batched rounding evaluation (satellite: engine batch path)
# --------------------------------------------------------------------------- #
class TestEvaluateNetworkSets:
    def test_pairs_and_sets_bit_identical_to_scalar_paths(self):
        from repro.timeloop.model import (
            evaluate_mapping,
            evaluate_network_mappings,
        )
        network = get_network("bert")
        sets = []
        for seed in (0, 1, 2):
            hardware = random_hardware_config(seed=seed)
            sets.append(([cosa_mapping(layer, hardware)
                          for layer in network.layers], hardware))

        batched = EvaluationEngine().evaluate_network_sets(sets)
        for (mappings, hardware), performance in zip(sets, batched):
            expected = evaluate_network_mappings(mappings, hardware)
            assert performance.total_latency == expected.total_latency
            assert performance.total_energy == expected.total_energy
            assert performance.per_layer == expected.per_layer
            for mapping, result in zip(mappings, performance.per_layer):
                assert result == evaluate_mapping(mapping, hardware)

    def test_cross_set_duplicates_on_same_hardware_hit_once(self):
        network = get_network("bert")
        hardware = random_hardware_config(seed=0)
        mappings = [cosa_mapping(layer, hardware) for layer in network.layers]
        engine = EvaluationEngine()
        engine.evaluate_network_sets([(mappings, hardware),
                                      (mappings, hardware)])
        assert engine.stats.misses == len(mappings)
        assert engine.stats.hits == len(mappings)
