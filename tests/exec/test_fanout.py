"""Generic deterministic shard fan-out (repro.exec.fanout)."""

import os

import pytest

from repro.exec.fanout import FanoutTask, run_fanout


# Module-level so the pool can pickle them by reference under both the
# fork and spawn start methods.
def _setup(payload):
    return {"base": payload["base"], "pid": os.getpid()}


def _work(state, shard_index):
    return state["base"] + shard_index


def _work_pid(state, shard_index):
    return (shard_index, state["pid"])


def _raise(state, shard_index):
    raise RuntimeError(f"shard {shard_index} exploded")


def _task(work=_work, shards=6):
    return FanoutTask(
        setup=_setup, work=work, payload={"base": 100}, shard_count=shards
    )


class TestRunFanout:
    def test_sequential(self):
        assert run_fanout(_task(), jobs=1) == [100, 101, 102, 103, 104, 105]

    def test_parallel_matches_sequential(self):
        assert run_fanout(_task(), jobs=3) == run_fanout(_task(), jobs=1)

    def test_results_ordered_by_shard_index(self):
        results = run_fanout(_task(work=_work_pid), jobs=2)
        assert [i for i, _ in results] == list(range(6))

    def test_setup_runs_once_per_worker(self):
        results = run_fanout(_task(work=_work_pid, shards=8), jobs=2)
        pids = {pid for _, pid in results}
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids

    def test_jobs_one_stays_in_process(self):
        results = run_fanout(_task(work=_work_pid), jobs=1)
        assert {pid for _, pid in results} == {os.getpid()}

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="exploded"):
            run_fanout(_task(work=_raise), jobs=2)
        with pytest.raises(RuntimeError, match="shard 0 exploded"):
            run_fanout(_task(work=_raise), jobs=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_indices_and_on_result(self, jobs):
        # a resumed run asks for its pending shards only, and sees each
        # result as it lands (completion order) before the ordered list
        landed = []
        results = run_fanout(
            _task(),
            jobs=jobs,
            indices=[4, 1, 3],
            on_result=lambda index, result: landed.append((index, result)),
        )
        assert results == [101, 103, 104]
        assert sorted(landed) == [(1, 101), (3, 103), (4, 104)]

    def test_no_pending_shards_runs_nothing(self):
        assert run_fanout(_task(work=_raise), jobs=2, indices=[]) == []

    def test_more_jobs_than_shards(self):
        assert run_fanout(_task(shards=2), jobs=8) == [100, 101]
