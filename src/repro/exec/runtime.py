"""The synthesis runtime: every run, sequential or parallel, goes here.

``run_sharded(model, opts)`` is what :func:`repro.core.synthesis.synthesize`
(and :func:`~repro.core.synthesis.run_sequential`) dispatch to:

1. plan the shard partition (:mod:`repro.exec.sharding`) — a plain
   ``jobs=1`` run with no shard count, checkpoint or trace is a single
   in-process shard, reported as ``shard_count = 0``;
2. replay completed shards from the checkpoint store, if any;
3. fan the remaining shards out with :func:`repro.exec.fanout.run_fanout`
   — in-process at ``jobs=1`` (where a resident checker, an explicit
   candidate stream and periodic ``enumerate`` progress events are
   available), over worker processes otherwise — checkpointing and
   reporting progress as each shard lands;
4. merge everything deterministically (:mod:`repro.exec.merge`).

The merged result is byte-identical for every job count and shard
partition — parallelism and resume are pure wall-clock concerns.
"""

from __future__ import annotations

import json
import os
import pickle
import time

from repro.core.minimality import CriterionMode, MinimalityChecker
from repro.core.synthesis import SynthesisOptions, SynthesisResult
from repro.exec.checkpoint import (
    CheckpointStore,
    run_fingerprint,
    saved_shard_count,
)
from repro.exec.fanout import FanoutTask, run_fanout
from repro.exec.merge import merge_shards
from repro.exec.sharding import ShardPlan, plan_shards
from repro.exec.worker import WorkerTask, compute_shard, start_worker
from repro.models.base import MemoryModel
from repro.obs import (
    TOOL_NAME,
    TRACE_SCHEMA_NAME,
    TRACE_SCHEMA_VERSION,
    Tracer,
    null_tracer,
)

__all__ = ["run_sharded"]


def _write_trace_meta(trace_dir: str, model: MemoryModel, opts: SynthesisOptions) -> None:
    """``meta.json``: the deterministic description of a traced run.

    Worker counts and wall timings deliberately stay out — the merged
    trace must be byte-identical for every ``--jobs`` value, and meta is
    part of what consumers compare.
    """
    os.makedirs(trace_dir, exist_ok=True)
    meta = {
        "schema": {"name": TRACE_SCHEMA_NAME, "version": TRACE_SCHEMA_VERSION},
        "tool": TOOL_NAME,
        "command": "synthesize",
        "model": model.name,
        "bound": opts.bound,
        "oracle": opts.oracle_spec.oracle,
    }
    with open(os.path.join(trace_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _worker_task(model: MemoryModel, opts: SynthesisOptions, shard_count: int) -> WorkerTask:
    reject = opts.reject
    if callable(reject) and opts.jobs > 1:
        try:
            pickle.dumps(reject)
        except Exception as exc:
            raise ValueError(
                "a custom reject callable must be picklable to cross "
                "worker process boundaries; pass repro.core.synthesis."
                "EARLY_REJECT (or a module-level function) instead"
            ) from exc
    mode = opts.mode if isinstance(opts.mode, CriterionMode) else CriterionMode(opts.mode)
    return WorkerTask(
        model_name=model.name,
        bound=opts.bound,
        axioms=tuple(opts.axioms) if opts.axioms is not None else None,
        mode_value=mode.value,
        config=opts.resolved_config(model),
        shard_count=shard_count,
        reject=reject,
        spec=opts.oracle_spec,
        trace_dir=opts.trace_dir,
    )


def run_sharded(
    model: MemoryModel,
    opts: SynthesisOptions,
    checker: MinimalityChecker | None = None,
) -> SynthesisResult:
    """Run one synthesis over shards, in parallel when ``jobs > 1``.

    ``checker`` is a resident :class:`MinimalityChecker` built for the
    same model and oracle configuration (see
    :func:`repro.core.synthesis.build_checker`); in-process runs use it
    in place of a fresh one, so its caches serve — and outlive — this
    run.  Worker processes cannot share it and build their own.
    """
    sharded = (
        opts.jobs > 1
        or opts.shards is not None
        or opts.checkpoint_dir is not None
        or opts.trace_dir is not None
    )
    if opts.candidates is not None and sharded:
        raise ValueError(
            "an explicit candidates stream cannot be sharded; "
            "run it with jobs=1 and no checkpoint_dir"
        )
    start = time.perf_counter()
    if opts.trace_dir is not None:
        _write_trace_meta(opts.trace_dir, model, opts)
        tracer = Tracer(os.path.join(opts.trace_dir, "driver.jsonl"))
    else:
        tracer = null_tracer()

    with tracer:
        with tracer.span("plan"):
            shards = opts.shards
            if shards is None and opts.checkpoint_dir is not None:
                # A resume may change jobs (scheduling) but never the
                # partition: without an explicit shard count, adopt the
                # checkpoint's.
                shards = saved_shard_count(opts.checkpoint_dir)
            plan = (
                plan_shards(opts.jobs, shards)
                if sharded
                else ShardPlan(jobs=1, count=1)
            )
            task = _worker_task(model, opts, plan.count)

        with tracer.span("replay"):
            store: CheckpointStore | None = None
            completed: dict[int, dict] = {}
            if opts.checkpoint_dir is not None:
                store = CheckpointStore(
                    opts.checkpoint_dir, run_fingerprint(task, opts)
                )
                completed = store.load()
            pending = [i for i in plan.indices() if i not in completed]

        events = opts.progress_events
        candidates_done = sum(
            r["stats"]["candidates"] for r in completed.values()
        )

        def finish(index: int, result: dict) -> None:
            nonlocal candidates_done
            completed[index] = result
            candidates_done += result["stats"]["candidates"]
            if store is not None:
                store.record(result)
            if events is not None and sharded:
                events(
                    {
                        "phase": "shard",
                        "shard": index,
                        "shards": plan.count,
                        "candidates": result["stats"]["candidates"],
                        "unique": result["stats"]["unique"],
                        "minimal": len(result["records"]),
                        "total_candidates": candidates_done,
                    }
                )

        with tracer.span("shards", pending=len(pending)):
            # Only an in-process run can hand the worker process-local
            # values: the model object, a resident checker, a candidate
            # stream, a callback.
            local = (
                dict(
                    model=model,
                    checker=checker,
                    candidates=opts.candidates,
                    events=events,
                )
                if opts.jobs == 1
                else {}
            )
            run_fanout(
                FanoutTask(
                    setup=start_worker,
                    work=compute_shard,
                    payload=(task, local),
                    shard_count=plan.count,
                ),
                opts.jobs,
                indices=pending,
                on_result=finish,
            )

        wall_seconds = time.perf_counter() - start
        with tracer.span("merge"):
            result = merge_shards(
                model,
                opts,
                list(completed.values()),
                wall_seconds=wall_seconds,
                shard_count=plan.count if sharded else 0,
            )
    if events is not None:
        events(
            {
                "phase": "finish",
                "candidates": result.candidates,
                "unique": result.unique_candidates,
                "minimal": result.minimal_tests,
            }
        )
    return result
