"""The sharded runtime must be invisible in the output.

``jobs=N`` (and any shard count) is purely a scheduling decision: the
resulting suites, counters, and JSON serializations must be *identical*
to the sequential run.  These tests pin that contract through the real
``multiprocessing`` pool, not just the in-process shard loop.
"""

import pytest

from repro.core.enumerator import EnumerationConfig
from repro.core.synthesis import OracleSpec, SynthesisOptions, synthesize
from repro.exec import plan_shards
from repro.models.registry import get_model


def _options(**overrides) -> SynthesisOptions:
    base = dict(
        bound=3,
        config=EnumerationConfig(max_events=3, max_addresses=2),
    )
    base.update(overrides)
    return SynthesisOptions(**base)


@pytest.fixture(scope="module")
def sequential():
    return synthesize(get_model("tso"), _options())


def assert_same_result(a, b):
    assert a.union.to_json() == b.union.to_json()
    assert set(a.per_axiom) == set(b.per_axiom)
    for axiom in a.per_axiom:
        assert a.per_axiom[axiom].to_json() == b.per_axiom[axiom].to_json()
    assert a.candidates == b.candidates
    assert a.unique_candidates == b.unique_candidates
    assert a.minimal_tests == b.minimal_tests


class TestShardedRuntime:
    def test_inprocess_sharding_matches_sequential(self, sequential):
        # jobs=1 + explicit shard count exercises the shard/merge path
        # without any subprocess in the way.
        result = synthesize(get_model("tso"), _options(shards=7))
        assert_same_result(sequential, result)

    def test_multiprocess_matches_sequential(self, sequential):
        result = synthesize(get_model("tso"), _options(jobs=2))
        assert_same_result(sequential, result)

    def test_shard_count_does_not_leak_into_output(self, sequential):
        for shards in (2, 5):
            result = synthesize(
                get_model("tso"), _options(jobs=2, shards=shards)
            )
            assert_same_result(sequential, result)

    def test_early_reject_sentinel_crosses_processes(self):
        from repro.core.synthesis import EARLY_REJECT

        seq = synthesize(get_model("tso"), _options(reject=EARLY_REJECT))
        par = synthesize(
            get_model("tso"), _options(reject=EARLY_REJECT, jobs=2)
        )
        assert_same_result(seq, par)

    def test_progress_reports_cumulative_candidates(self, sequential):
        events = []
        result = synthesize(
            get_model("tso"), _options(shards=4, progress_events=events.append)
        )
        shard_events = [e for e in events if e["phase"] == "shard"]
        assert sorted(e["shard"] for e in shard_events) == [0, 1, 2, 3]
        totals = [e["total_candidates"] for e in shard_events]
        assert totals == sorted(totals)
        assert shard_events[-1]["total_candidates"] == result.candidates
        assert result.candidates == sequential.candidates
        assert events[-1]["phase"] == "finish"

    def test_explicit_candidates_incompatible_with_jobs(self):
        tests = [entry.test for entry in synthesize(
            get_model("tso"), _options()
        ).union]
        with pytest.raises(ValueError, match="candidates"):
            synthesize(
                get_model("tso"), _options(jobs=2, candidates=tests)
            )

    def test_unpicklable_reject_rejected_up_front(self):
        oracle_probe = object()
        reject = lambda test: oracle_probe is None  # noqa: E731
        with pytest.raises(ValueError, match="picklable"):
            synthesize(get_model("tso"), _options(jobs=2, reject=reject))

    def test_fingerprint_distinguishes_alias_maps(self):
        # The merge dedups records and counts unique candidates by
        # digest, so two canonical forms differing only in their alias
        # map must not share one.
        from dataclasses import replace

        from repro.core.canonical import canonical_form
        from repro.exec import fingerprint
        from repro.litmus.events import read, write
        from repro.litmus.test import LitmusTest

        plain = LitmusTest(((write(1, 1), read(0)), (write(0, 2),)))
        aliased = replace(plain, addr_map=((1, 0),))
        assert fingerprint(canonical_form(plain)) != fingerprint(
            canonical_form(aliased)
        )

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_only_first_occurrences_count(self, shards):
        # Minimality need not agree across an alias-orientation symmetry
        # class: here the first member the enumerator meets is not
        # minimal, but a twin that lands in another shard is.  The
        # sequential loop never checks the twin, so neither may a
        # sharded run.
        config = EnumerationConfig(
            max_events=4,
            min_events=4,
            max_threads=2,
            max_addresses=2,
            max_deps=0,
            max_rmws=0,
            max_aliases=1,
            max_thread_size=2,
        )

        def skip(test):
            return test.addr_map is None or any(
                sorted(i.kind.value for i in thread) != ["R", "W"]
                for thread in test.threads
            )

        def run(**layout):
            return synthesize(
                get_model("tso_vmem"),
                SynthesisOptions(
                    bound=4,
                    config=config,
                    axioms=["sc_per_loc"],
                    reject=skip,
                    **layout,
                ),
            )

        assert_same_result(run(), run(shards=shards))

    def test_plan_shards_defaults(self):
        assert plan_shards(1).count >= 1
        assert plan_shards(4).count >= 4
        assert plan_shards(2, shards=9).count == 9
        with pytest.raises(ValueError):
            plan_shards(2, shards=0)


class TestWarmCompileEntries:
    """A rerun over a populated CNF cache reports the cache's warm
    entries — the figure the SAT009 lint keys on — however it is
    sharded, and counts them once rather than once per shard."""

    @pytest.mark.parametrize(
        "layout", [{}, {"jobs": 2, "shards": 2}], ids=["jobs1", "jobs2"]
    )
    def test_rerun_reports_warm_entries_once(self, tmp_path, layout):
        from repro.analysis import lint_warm_compile

        spec = OracleSpec(oracle="relational", cnf_cache_dir=str(tmp_path))
        opts = SynthesisOptions(bound=3, oracle_spec=spec, **layout)
        cold = synthesize(get_model("tso"), opts)
        entries = len(list(tmp_path.glob("*.json")))
        assert entries > 0
        assert cold.oracle_stats["compile_warm_entries"] == 0

        warm = synthesize(get_model("tso"), opts)
        assert warm.oracle_stats["compile_warm_entries"] == entries
        assert warm.oracle_stats["compile_misses"] == 0
        assert warm.oracle_stats["compile_hit_rate"] == 1.0
        assert lint_warm_compile(warm.oracle_stats) == []
        assert warm.union.to_json() == cold.union.to_json()
