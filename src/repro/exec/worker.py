"""The synthesis candidate loop (paper §5), run one shard at a time.

:func:`compute_shard` is the only place the pipeline's loop — enumerate,
canonicalize, check minimality per axiom — runs.  A sequential run is
one in-process shard of it (optionally over a resident checker); a
parallel run fans shards out over worker processes, each owning its own
:class:`MinimalityChecker` (and thus its own oracle caches — the
observability cache hits hard within a shard, and sharing it across
processes would serialize the hot path).  Every shard returns a *shard
result*: a plain-JSON dictionary carrying the minimal-test records plus
counters, so the same payload serves the process pipe and the
checkpoint file.

Record schema (one per minimal candidate, local dedup applied)::

    {"item": <global work-item ordinal>,
     "pos":  <candidate position within the item>,
     "digest": <fingerprint of the test's canonical form>,
     "test": <test_to_dict form>,
     "minimal_for": [axiom, ...],            # in axiom-check order
     "witnesses": {axiom: <outcome_to_dict form>, ...}}

``(item, pos)`` is a global sort key: ordering the union of all shards'
records by it reconstructs the exact sequential candidate order, which is
what lets :mod:`repro.exec.merge` produce byte-identical suites.  The
shard's stats also list ``firsts``: ``[digest, item, pos]`` for every
locally-unique canonical form, where it first met it.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.core.canonical import canonical_form, encoding
from repro.core.enumerator import EnumerationConfig, enumerate_shard
from repro.core.minimality import CriterionMode, MinimalityChecker
from repro.core.suite import outcome_to_dict, test_to_dict
from repro.core.synthesis import OracleSpec, SynthesisOptions, build_checker
from repro.litmus.test import LitmusTest
from repro.models.base import MemoryModel
from repro.models.registry import get_model
from repro.obs import (
    LEVEL_METRICS,
    MetricsRegistry,
    Tracer,
    null_tracer,
    use_registry,
)

__all__ = ["WorkerTask", "compute_shard", "fingerprint", "start_worker"]


@dataclass(frozen=True)
class WorkerTask:
    """Everything a worker process needs to rebuild its pipeline.

    Carried as primitives (model *name*, mode *value*) plus the picklable
    :class:`EnumerationConfig`, so the payload crosses process boundaries
    under both fork and spawn start methods.
    """

    model_name: str
    bound: int
    axioms: tuple[str, ...] | None
    mode_value: str
    config: EnumerationConfig
    shard_count: int
    reject: Any = None  # None | EARLY_REJECT | picklable callable
    spec: OracleSpec = field(default_factory=OracleSpec)
    trace_dir: str | None = None


def fingerprint(canon: LitmusTest) -> str:
    """A stable short digest of a canonical form.

    Workers digest each locally-unique canonical form; the merge finds
    each form's global first occurrence by digest, to count *globally*
    unique forms and to keep only the minimal records the sequential
    loop would have produced.  Digests
    hash the form's plain-data :func:`~repro.core.canonical.encoding`
    (no ``hash()`` — that is salted per interpreter — and no object
    reprs), so they agree across worker processes, runs, and the
    interpreters a checkpointed run may be resumed under.
    """
    return hashlib.blake2b(repr(encoding(canon)).encode(), digest_size=8).hexdigest()


class _WorkerState:
    """Per-process pipeline, built once and reused across shards.

    An in-process run may also hand in the ``model`` object itself (so
    unregistered models work), a resident ``checker`` (whose oracle
    caches outlive the run), an explicit ``candidates`` stream, and an
    ``events`` progress callback — none of which cross a process
    boundary, so pool workers look the model up by name, build their
    own checker and run silently.
    """

    def __init__(
        self,
        task: WorkerTask,
        model: MemoryModel | None = None,
        checker: MinimalityChecker | None = None,
        candidates: Iterable[LitmusTest] | None = None,
        events: Callable[[dict], None] | None = None,
    ):
        self.task = task
        self.model = model if model is not None else get_model(task.model_name)
        self.checker = (
            checker
            if checker is not None
            else build_checker(
                self.model, CriterionMode(task.mode_value), task.spec
            )
        )
        self.axiom_names = (
            task.axioms if task.axioms is not None else self.model.axiom_names()
        )
        # Rebuild named reject specs locally; a pre-built closure would
        # not survive pickling into the pool.
        self.reject = SynthesisOptions(
            bound=task.bound, reject=task.reject
        ).resolved_reject(self.model)
        self.candidates = candidates
        self.events = events
        #: candidates streamed across every shard this state computed,
        #: the running count the periodic ``enumerate`` events report
        self.streamed = 0


def start_worker(payload: tuple[WorkerTask, dict]) -> _WorkerState:
    """:class:`repro.exec.fanout.FanoutTask` setup: ``payload`` is the
    task plus the in-process-only :class:`_WorkerState` keywords (empty
    for pool workers)."""
    task, local = payload
    return _WorkerState(task, **local)


def _oracle_metrics(oracle: Any) -> dict[str, int | float]:
    """Raw counter snapshot of an oracle implementing the Stats protocol."""
    as_metrics = getattr(oracle, "as_metrics", None)
    return dict(as_metrics()) if as_metrics is not None else {}


def _oracle_delta(
    before: dict[str, int | float], after: dict[str, int | float]
) -> dict[str, int | float]:
    """What the oracle did between two snapshots.

    Level metrics (:data:`repro.obs.LEVEL_METRICS`, e.g. the CNF cache's
    warm-entry count) keep their absolute value: a difference would
    zero them, and :func:`repro.obs.merge_metrics` folds them by maximum,
    so they count once however many shards one cache served.
    """
    return {
        key: value if key in LEVEL_METRICS else value - before.get(key, 0)
        for key, value in after.items()
    }


def compute_shard(state: _WorkerState, shard_index: int) -> dict:
    """Run the synthesis loop over one shard; return a shard result.

    This is the only candidate loop in the package: sequential runs are
    one in-process shard of it.  With an explicit candidate stream the
    shard walks that stream instead of the enumerator, keying records
    ``(index, 0)``.  Oracle counters are reported as this shard's
    *delta* (the oracle persists across the shards one process computes
    — and, for a resident checker, across runs — so a raw snapshot
    would double-count).  With ``state.events`` set, a running
    ``enumerate`` event fires every 1000 candidates.  With
    ``task.trace_dir`` set, the shard also streams a span + counters
    trace to ``shard-NNNN.jsonl``.
    """
    t0 = time.perf_counter()
    task = state.task
    checker = state.checker
    events = state.events
    axiom_seconds = {name: 0.0 for name in state.axiom_names}
    seen: set[LitmusTest] = set()
    firsts: list[tuple[str, int, int]] = []
    records: list[dict] = []
    n_candidates = 0
    current_item = -1
    pos = 0
    oracle_before = _oracle_metrics(checker.oracle)
    stream: Iterable[tuple[int, LitmusTest]] = (
        enumerate(state.candidates)
        if state.candidates is not None
        else enumerate_shard(
            state.model.vocabulary,
            task.config,
            shard=(shard_index, task.shard_count),
            reject=state.reject,
        )
    )
    tracer = (
        Tracer(os.path.join(task.trace_dir, f"shard-{shard_index:04d}.jsonl"))
        if task.trace_dir is not None
        else null_tracer()
    )
    registry = MetricsRegistry()
    with tracer, use_registry(registry):
        with tracer.span("shard", shard=shard_index) as shard_span:
            for item, test in stream:
                if item != current_item:
                    current_item, pos = item, 0
                else:
                    pos += 1
                n_candidates += 1
                state.streamed += 1
                if events is not None and state.streamed % 1000 == 0:
                    events({"phase": "enumerate", "candidates": state.streamed})
                canon = canonical_form(test)
                if canon in seen:
                    continue
                seen.add(canon)
                digest = fingerprint(canon)
                firsts.append((digest, item, pos))
                minimal_for: list[str] = []
                witnesses: dict[str, dict] = {}
                for name in state.axiom_names:
                    t_ax = time.perf_counter()
                    result = checker.check(test, name)
                    axiom_seconds[name] += time.perf_counter() - t_ax
                    if result.is_minimal:
                        assert result.witness is not None
                        minimal_for.append(name)
                        witnesses[name] = outcome_to_dict(result.witness)
                if minimal_for:
                    records.append(
                        {
                            "item": item,
                            "pos": pos,
                            "digest": digest,
                            "test": test_to_dict(test),
                            "minimal_for": minimal_for,
                            "witnesses": witnesses,
                        }
                    )
            shard_span.annotate(
                candidates=n_candidates, unique=len(seen), minimal=len(records)
            )
        oracle_delta = _oracle_delta(
            oracle_before, _oracle_metrics(checker.oracle)
        )
        registry.count("candidates", n_candidates)
        registry.count("unique_candidates", len(seen))
        registry.count("minimal_records", len(records))
        tracer.counters(
            {**registry.as_metrics(), **oracle_delta}, shard=shard_index
        )
    return {
        "shard": shard_index,
        "records": records,
        "stats": {
            "candidates": n_candidates,
            "unique": len(seen),
            "firsts": firsts,
            "axiom_seconds": axiom_seconds,
            "cpu_seconds": time.perf_counter() - t0,
            "oracle": oracle_delta,
        },
    }
