"""Shard-store merging, spill compaction, and the campaign CLI error paths."""

import json

import pytest

from repro.campaign import (
    CampaignReport,
    CampaignSpec,
    ResultStore,
    StrategyVariant,
    run_campaign,
)
from repro.campaign.store import COMPACTED_PREFIX
from repro.cli import main as cli_main
from repro.eval.cache import EvaluationCache
from repro.campaign.store import cache_entry_to_dict


def small_spec(name="merge-spec", seeds=(0, 1)):
    """A seconds-scale single-strategy grid on bert (2 jobs by default)."""
    return CampaignSpec(
        name=name,
        workloads=("bert",),
        strategies=(
            StrategyVariant("random", settings={"num_hardware_designs": 2,
                                                "mappings_per_layer": 5}),
        ),
        seeds=seeds,
    )


def report_text(directory) -> str:
    return CampaignReport.from_store(
        ResultStore(directory, create=False)).to_text()


def spill_entries(directory) -> set[str]:
    """Canonical serialization of every spilled cache entry in a store."""
    cache = ResultStore(directory, create=False).load_cache(EvaluationCache())
    return {json.dumps(cache_entry_to_dict(key, result), sort_keys=True)
            for key, result in cache.items()}


# --------------------------------------------------------------------------- #
# ResultStore.merge
# --------------------------------------------------------------------------- #
class TestMerge:
    def test_disjoint_shards_equal_single_run_report_bytes(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, directory=tmp_path / "full")
        run_campaign(spec, directory=tmp_path / "s0",
                     shard_index=0, shard_count=2)
        run_campaign(spec, directory=tmp_path / "s1",
                     shard_index=1, shard_count=2)

        merged, stats = ResultStore.merge(
            tmp_path / "merged", [tmp_path / "s0", tmp_path / "s1"])
        assert stats.jobs_written == spec.grid_size
        assert stats.duplicate_ids == 0
        assert merged.completed_job_ids() == \
            ResultStore(tmp_path / "full").completed_job_ids()
        assert report_text(tmp_path / "merged") == report_text(tmp_path / "full")

    def test_overlapping_shards_resolve_duplicates(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, directory=tmp_path / "full")
        run_campaign(spec, directory=tmp_path / "s0",
                     shard_index=0, shard_count=2)

        # s0 overlaps the full run on one job; the merge must still match
        # the single-run report byte-for-byte (duplicates are bit-identical
        # up to wall time, and the report is deterministic).
        _, stats = ResultStore.merge(
            tmp_path / "merged", [tmp_path / "s0", tmp_path / "full"])
        assert stats.duplicate_ids == 1
        assert report_text(tmp_path / "merged") == report_text(tmp_path / "full")

    def test_merge_order_independent(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, directory=tmp_path / "a",
                     shard_index=0, shard_count=2)
        run_campaign(spec, directory=tmp_path / "b")

        ResultStore.merge(tmp_path / "ab", [tmp_path / "a", tmp_path / "b"])
        ResultStore.merge(tmp_path / "ba", [tmp_path / "b", tmp_path / "a"])
        outcomes_ab = ResultStore(tmp_path / "ab").latest_outcomes()
        outcomes_ba = ResultStore(tmp_path / "ba").latest_outcomes()
        assert outcomes_ab == outcomes_ba
        assert spill_entries(tmp_path / "ab") == spill_entries(tmp_path / "ba")

    def test_completed_beats_interrupted(self, tmp_path):
        spec = small_spec(seeds=(0,))
        run = run_campaign(spec, directory=tmp_path / "done")
        job_id = next(iter(run.outcomes))
        payload = ResultStore(tmp_path / "done").latest_outcomes()[job_id]

        interrupted = dict(payload)
        interrupted["interrupted"] = True
        partial = ResultStore(tmp_path / "partial", spec=spec)
        partial.append(job_id, interrupted)

        merged, _ = ResultStore.merge(
            tmp_path / "merged", [tmp_path / "partial", tmp_path / "done"])
        assert not merged.latest_outcomes()[job_id]["interrupted"]

    def test_merge_refuses_mismatched_specs(self, tmp_path):
        run_campaign(small_spec("one"), directory=tmp_path / "one")
        run_campaign(small_spec("two"), directory=tmp_path / "two")
        with pytest.raises(ValueError, match="spec"):
            ResultStore.merge(tmp_path / "merged",
                              [tmp_path / "one", tmp_path / "two"])

    def test_merge_unions_cache_spill(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, directory=tmp_path / "s0",
                     shard_index=0, shard_count=2)
        run_campaign(spec, directory=tmp_path / "s1",
                     shard_index=1, shard_count=2)
        ResultStore.merge(tmp_path / "merged",
                          [tmp_path / "s0", tmp_path / "s1"])
        assert spill_entries(tmp_path / "merged") == \
            spill_entries(tmp_path / "s0") | spill_entries(tmp_path / "s1")


# --------------------------------------------------------------------------- #
# Spill compaction
# --------------------------------------------------------------------------- #
class TestCompactSpill:
    def test_compaction_reloads_bit_identical(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, directory=tmp_path / "c")
        store = ResultStore(tmp_path / "c")
        before = spill_entries(tmp_path / "c")
        segments_before = len(list(store.cache_dir.glob("*.jsonl")))
        assert segments_before > 1  # one segment per job

        stats = store.compact_spill()
        assert stats.segments_before == segments_before
        remaining = list(store.cache_dir.glob("*.jsonl"))
        assert len(remaining) == 1
        assert remaining[0].name.startswith(COMPACTED_PREFIX)
        assert spill_entries(tmp_path / "c") == before

    def test_compaction_is_idempotent(self, tmp_path):
        spec = small_spec(seeds=(0,))
        run_campaign(spec, directory=tmp_path / "c")
        store = ResultStore(tmp_path / "c")
        store.compact_spill()
        [compacted] = store.cache_dir.glob(f"{COMPACTED_PREFIX}*")
        first = compacted.read_bytes()
        again = store.compact_spill()
        assert list(store.cache_dir.glob("*.jsonl")) == [compacted]
        assert compacted.read_bytes() == first
        assert again.segments_before == 1


# --------------------------------------------------------------------------- #
# CLI error paths (status/report/compact must not traceback or create dirs)
# --------------------------------------------------------------------------- #
class TestCampaignCLIErrors:
    def test_status_on_missing_dir_is_clean(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        rc = cli_main(["campaign", "status", "--dir", str(missing)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err
        assert captured.err.count("\n") == 1  # a one-line error
        assert not missing.exists()  # and no store was created as a side effect

    def test_report_on_missing_dir_is_clean(self, tmp_path, capsys):
        rc = cli_main(["campaign", "report", "--dir", str(tmp_path / "nope")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_status_on_partial_store_is_clean(self, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "manifest.json").write_text("{not json")
        rc = cli_main(["campaign", "status", "--dir", str(broken)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_report_on_dir_without_manifest_is_clean(self, tmp_path, capsys):
        not_a_store = tmp_path / "plain"
        not_a_store.mkdir()
        (not_a_store / "README").write_text("just a directory")
        rc = cli_main(["campaign", "report", "--dir", str(not_a_store)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_merge_cli_reports_stats(self, tmp_path, capsys):
        spec = small_spec()
        run_campaign(spec, directory=tmp_path / "a",
                     shard_index=0, shard_count=2)
        run_campaign(spec, directory=tmp_path / "b",
                     shard_index=1, shard_count=2)
        rc = cli_main(["campaign", "merge", str(tmp_path / "a"),
                       str(tmp_path / "b"), "--into", str(tmp_path / "m")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "records written" in captured.out

    def test_log_level_accepted_before_and_after_subcommand(self, tmp_path,
                                                            capsys):
        run_campaign(small_spec(seeds=(0,)), directory=tmp_path / "c")
        for argv in (["--log-level", "error", "campaign", "status",
                      "--dir", str(tmp_path / "c")],
                     ["campaign", "status", "--dir", str(tmp_path / "c"),
                      "--log-level", "error"]):
            assert cli_main(argv) == 0
            assert "completed" in capsys.readouterr().out

    def test_compact_cli(self, tmp_path, capsys):
        run_campaign(small_spec(seeds=(0,)), directory=tmp_path / "c")
        rc = cli_main(["campaign", "compact", "--dir", str(tmp_path / "c")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "segment" in captured.out
