"""Tests for evaluation jobs, content hashing and the persistent cache."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.arch.template import default_array_spec
from repro.core.cost_model import HardwareCostModel
from repro.core.exploration import RSPDesignSpaceExplorer
from repro.core.rsp_params import base_parameters, paper_parameters
from repro.core.stalls import CriticalOpIssue, ScheduleProfile
from repro.core.timing_model import TimingModel
from repro.engine.cache import EvaluationCache
from repro.engine.jobs import (
    SUITE_NAMES,
    CampaignSpec,
    EvaluationJob,
    evaluation_context_hash,
    hash_payload,
    suite_kernels,
)
from repro.errors import ExplorationError


def make_profiles(length: int = 10) -> dict:
    issues = tuple(
        CriticalOpIssue(cycle=cycle, row=index, col=index, iteration=index,
                        has_immediate_dependent=True)
        for cycle in range(3)
        for index in range(4)
    )
    return {
        "k": ScheduleProfile(kernel="k", length=length, critical_issues=issues, rows=8, cols=8)
    }


@pytest.fixture()
def context_hash():
    return evaluation_context_hash(
        make_profiles(), default_array_spec(), HardwareCostModel(), TimingModel()
    )


# ----------------------------------------------------------------------
# Content hashing
# ----------------------------------------------------------------------
def test_hash_payload_is_deterministic():
    payload = {"b": paper_parameters(2, pipelined=True), "a": [1, 2, 3]}
    assert hash_payload(payload) == hash_payload(payload)
    assert len(hash_payload(payload)) == 64


def test_context_hash_changes_with_profiles():
    first = evaluation_context_hash(
        make_profiles(10), default_array_spec(), HardwareCostModel(), TimingModel()
    )
    second = evaluation_context_hash(
        make_profiles(11), default_array_spec(), HardwareCostModel(), TimingModel()
    )
    assert first != second


def test_context_hash_changes_with_timing_calibration():
    base = evaluation_context_hash(
        make_profiles(), default_array_spec(), HardwareCostModel(), TimingModel()
    )
    recalibrated = evaluation_context_hash(
        make_profiles(),
        default_array_spec(),
        HardwareCostModel(),
        TimingModel(wiring_margin_ns=1.5),
    )
    assert base != recalibrated


def test_job_hash_depends_on_parameters_and_context(context_hash):
    job_a = EvaluationJob(paper_parameters(1, pipelined=False))
    job_b = EvaluationJob(paper_parameters(2, pipelined=False))
    assert job_a.content_hash(context_hash) != job_b.content_hash(context_hash)
    assert job_a.content_hash(context_hash) != job_a.content_hash("other-context")
    assert job_a.content_hash(context_hash) == EvaluationJob(
        paper_parameters(1, pipelined=False)
    ).content_hash(context_hash)


def test_job_label():
    assert EvaluationJob(base_parameters(), name="Base").label == "Base"
    assert EvaluationJob(paper_parameters(2, pipelined=True)).label == (
        "rsp(shr=2,shc=0,stages=2)"
    )


# ----------------------------------------------------------------------
# Campaign specs
# ----------------------------------------------------------------------
def test_campaign_spec_jobs_cover_the_grid():
    spec = CampaignSpec(suites=("dsp",), max_rows_shared=1, max_cols_shared=1)
    jobs = spec.jobs()
    assert len(jobs) == len(spec.candidate_grid())
    assert jobs[0].name == "Base"
    assert all(job.name is None for job in jobs[1:])


def test_campaign_spec_rejects_unknown_suite():
    with pytest.raises(ExplorationError):
        CampaignSpec(suites=("nonexistent",))
    with pytest.raises(ExplorationError):
        CampaignSpec(suites=())


#: Fingerprints pinned from before the parallel backends were removed:
#: serial specs keep their identity, so their checkpoints still resume and
#: their coordinator campaign ids are unchanged.
DEFAULT_SPEC_FINGERPRINT = "a0543743d8f80b3917433c257bfb2a77a4792a2b9229a50c95282af6041a0a0f"
RESUME_SPEC_FINGERPRINT = "191fa3278c61e761f809a926152d489eef8778920895e285d04becdf8f033545"


def test_serial_spec_fingerprints_are_pinned():
    from repro.engine.checkpoint import campaign_fingerprint

    assert campaign_fingerprint(CampaignSpec()) == DEFAULT_SPEC_FINGERPRINT
    # The spec of the CI campaign-resume job.
    resume_spec = CampaignSpec(
        suites=("dsp", "h264"),
        max_rows_shared=3,
        max_cols_shared=3,
        stage_options=(1, 2, 3),
        chunk_size=2,
    )
    assert campaign_fingerprint(resume_spec) == RESUME_SPEC_FINGERPRINT
    # The legacy fields still ride in the wire form, with their only values.
    payload = resume_spec.as_payload()
    assert (payload["backend"], payload["workers"]) == ("serial", 1)
    assert CampaignSpec.from_payload(payload) == resume_spec


def test_campaign_spec_rejects_removed_backends():
    for kwargs in ({"backend": "thread"}, {"backend": "process"}, {"workers": 2},
                   {"workers": 0}):
        with pytest.raises(ExplorationError, match="backends were removed"):
            CampaignSpec(**kwargs)
    old_payload = dict(CampaignSpec().as_payload(), backend="process", workers=4)
    with pytest.raises(ExplorationError, match="backends were removed"):
        CampaignSpec.from_payload(old_payload)
    with pytest.raises(ExplorationError, match="backends were removed"):
        CampaignSpec.from_payload(dict(CampaignSpec().as_payload(), workers=4))
    with pytest.raises(ExplorationError, match="chunk_size"):
        CampaignSpec(chunk_size=0)


def test_suite_kernels_known_and_unknown():
    for name in SUITE_NAMES:
        kernels = suite_kernels(name)
        assert kernels and all(kernel.name for kernel in kernels)
    with pytest.raises(ExplorationError):
        suite_kernels("bogus")


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def test_cache_round_trips_an_evaluation(tmp_path, context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    job = EvaluationJob(paper_parameters(2, pipelined=True))
    evaluation = explorer.evaluate(job.parameters, name=job.name)
    key = job.content_hash(context_hash)

    cache = EvaluationCache(tmp_path / "evals.jsonl")
    assert cache.get(key, job, explorer.array) is None
    cache.put(key, evaluation)

    reloaded = EvaluationCache(tmp_path / "evals.jsonl")
    assert len(reloaded) == 1
    restored = reloaded.get(key, job, explorer.array)
    assert restored is not None
    assert restored.area_slices == evaluation.area_slices
    assert restored.critical_path_ns == evaluation.critical_path_ns
    assert restored.total_estimated_cycles == evaluation.total_estimated_cycles
    assert restored.total_stall_cycles == evaluation.total_stall_cycles
    assert restored.architecture.name == evaluation.architecture.name
    assert restored.parameters == evaluation.parameters


def test_cache_stats_track_hits_and_misses(tmp_path, context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    job = EvaluationJob(paper_parameters(1, pipelined=False))
    key = job.content_hash(context_hash)
    cache = EvaluationCache(tmp_path / "evals.jsonl")

    cache.get(key, job, explorer.array)
    cache.put(key, explorer.evaluate(job.parameters))
    cache.get(key, job, explorer.array)
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1
    assert cache.stats.hit_rate == 0.5


def test_cache_skips_and_counts_corrupt_lines(tmp_path, context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    job = EvaluationJob(paper_parameters(1, pipelined=False))
    key = job.content_hash(context_hash)
    path = tmp_path / "evals.jsonl"

    cache = EvaluationCache(path)
    cache.put(key, explorer.evaluate(job.parameters))
    with path.open("a", encoding="utf-8") as handle:
        handle.write("{truncated json\n")
        handle.write(json.dumps({"key": "missing-fields"}) + "\n")
        handle.write("\n")  # blank lines are not corruption

    with pytest.warns(RuntimeWarning, match=r"skipped 2 corrupt line\(s\)"):
        reloaded = EvaluationCache(path)
    assert reloaded.corrupt_lines == 2
    assert len(reloaded) == 1
    assert reloaded.get(key, job, explorer.array) is not None


def test_cache_loads_clean_file_without_warning(tmp_path, context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    job = EvaluationJob(paper_parameters(2, pipelined=False))
    key = job.content_hash(context_hash)
    path = tmp_path / "evals.jsonl"
    EvaluationCache(path).put(key, explorer.evaluate(job.parameters))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reloaded = EvaluationCache(path)
    assert reloaded.corrupt_lines == 0


def test_in_memory_cache_needs_no_path(context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    job = EvaluationJob(paper_parameters(3, pipelined=True))
    key = job.content_hash(context_hash)
    cache = EvaluationCache()
    cache.put(key, explorer.evaluate(job.parameters))
    assert key in cache
    assert cache.get(key, job, explorer.array) is not None


def test_for_context_creates_directory(tmp_path):
    cache = EvaluationCache.for_context(tmp_path / "nested" / "cache", "ab" * 32)
    assert cache.path.parent.is_dir()
    assert cache.path.name.startswith("evals-")


def test_sharded_cache_spreads_records_and_reloads(tmp_path, context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    jobs = [
        EvaluationJob(paper_parameters(stages, pipelined=flag))
        for stages in (1, 2, 3)
        for flag in (True, False)
    ]
    cache = EvaluationCache.for_context(tmp_path, context_hash, shards=4)
    for job in jobs:
        cache.put(job.content_hash(context_hash), explorer.evaluate(job.parameters))
    shard_files = list(tmp_path.glob("evals-*.jsonl"))
    assert len(shard_files) > 1  # records landed on more than one shard

    reloaded = EvaluationCache.for_context(tmp_path, context_hash, shards=4)
    assert len(reloaded) == len(jobs)
    for job in jobs:
        assert reloaded.get(job.content_hash(context_hash), job, explorer.array) is not None


def test_legacy_cache_file_loads_warm_into_a_sharded_cache(tmp_path, context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    job = EvaluationJob(paper_parameters(2, pipelined=True))
    key = job.content_hash(context_hash)
    EvaluationCache.for_context(tmp_path, context_hash).put(
        key, explorer.evaluate(job.parameters)
    )

    sharded = EvaluationCache.for_context(tmp_path, context_hash, shards=8)
    assert key in sharded
    assert sharded.get(key, job, explorer.array) is not None
    assert sharded.stats.hit_rate == 1.0


def test_cache_janitor_compacts_duplicates(tmp_path, context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    job = EvaluationJob(paper_parameters(1, pipelined=True))
    key = job.content_hash(context_hash)
    cache = EvaluationCache(tmp_path / "evals.jsonl")
    cache.put(key, explorer.evaluate(job.parameters))
    line = (tmp_path / "evals.jsonl").read_text()
    with (tmp_path / "evals.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(line)  # a duplicate line from a racing writer

    report = EvaluationCache(tmp_path / "evals.jsonl").janitor().sweep()
    assert report.compaction.dropped_duplicates == 1
    assert len((tmp_path / "evals.jsonl").read_text().splitlines()) == 1
    assert EvaluationCache(tmp_path / "evals.jsonl").get(key, job, explorer.array) is not None
