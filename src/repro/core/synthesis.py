"""The synthesis pipeline (paper §5): enumerate → check minimality →
canonicalize → emit per-axiom and union suites.

``synthesize`` is the top-level entry point the paper's Fig. 5a ``run
generate`` corresponds to: it streams every candidate test within the
size bound, keeps those satisfying the minimality criterion for at least
one axiom, and collects one suite per axiom plus the union suite.

The stable call form takes a :class:`SynthesisOptions` value::

    result = synthesize(model, SynthesisOptions(bound=4, jobs=4))

Oracle configuration travels as one :class:`OracleSpec` value
(``SynthesisOptions(bound=4, oracle_spec=OracleSpec(oracle="relational"))``);
the loose ``oracle``/``incremental``/``cnf_cache_dir``/``prefilter``
fields were removed in 1.3 and now raise :class:`TypeError`, as the
pre-1.1 loose-keyword call form has since 1.2.

This module holds the options, the result, and the checker factory;
the candidate loop itself lives in one place,
:func:`repro.exec.worker.compute_shard`, driven by
:func:`repro.exec.runtime.run_sharded`.  A plain ``jobs=1`` run is one
in-process shard of it; ``jobs > 1``, a shard count, a
``checkpoint_dir`` or a ``trace_dir`` split the run into shards whose
merged output is byte-identical to the one-shard run.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace

from repro.litmus.test import LitmusTest
from repro.models.base import MemoryModel
from repro.core.enumerator import EnumerationConfig
from repro.core.minimality import CriterionMode, MinimalityChecker
from repro.core.suite import TestSuite

__all__ = [
    "OracleSpec",
    "SynthesisOptions",
    "SynthesisResult",
    "RESULT_SCHEMA_NAME",
    "RESULT_SCHEMA_VERSION",
    "ORACLES",
    "build_checker",
    "run_sequential",
    "synthesize",
]

#: recognized ``SynthesisOptions.oracle`` backends
ORACLES = ("explicit", "relational")

#: payload schema of the JSON document ``SynthesisResult.to_json_dict``
#: emits (and the CLI's ``synthesize --json`` prints).  v1 was the
#: implicit pre-1.1 counts-only shape; v2 added the wall/cpu seconds
#: split, shard bookkeeping, and aggregated oracle cache statistics; v3
#: wraps the payload in the unified :class:`repro.obs.Report` envelope.
RESULT_SCHEMA_NAME = "synthesis-result"
RESULT_SCHEMA_VERSION = 3

#: ``SynthesisOptions.reject`` sentinel: build the lint-based early-reject
#: filter (:func:`repro.analysis.early_reject`) for the target model.
#: Unlike an arbitrary callable, the sentinel crosses process boundaries,
#: so it is the way to early-reject under ``jobs > 1``.
EARLY_REJECT = "early-reject"


@dataclass(frozen=True)
class OracleSpec:
    """The oracle configuration of one synthesis run, as a single value.

    Bundles everything that selects and tunes the criterion oracle —
    the four knobs that used to travel as loose
    :class:`SynthesisOptions` fields.  One ``OracleSpec`` is consumed
    identically by every shard worker, in-process or not, and the
    service daemon's resident pools, so the same value always resolves
    to the same pipeline (and the same request fingerprint).

    Attributes:
        oracle: which execution oracle answers criterion queries —
            ``"explicit"`` (enumeration, the default) or ``"relational"``
            (the SAT/model-finding stack; only for models with an Alloy
            encoding).
        incremental: with the relational oracle, reuse one warm
            incremental solver per test (default).  False forces the
            cold-solver baseline — one fresh solver per query — kept for
            A/B benchmarking; results are identical either way.
        cnf_cache_dir: optional on-disk CNF compilation cache directory
            for the relational oracle, shared across worker processes
            and across runs.
        prefilter: with the relational oracle in incremental mode,
            answer fully-pinned per-axiom queries with the polynomial
            static evaluator (:mod:`repro.analysis.flow`) before falling
            back to SAT.  Output is identical with or without it; the
            hit/fallback counters land in the oracle stats.
    """

    oracle: str = "explicit"
    incremental: bool = True
    cnf_cache_dir: str | None = None
    prefilter: bool = False

    def __post_init__(self) -> None:
        if self.oracle not in ORACLES:
            raise ValueError(
                f"unknown oracle {self.oracle!r}; choose from {ORACLES}"
            )

    def to_payload(self) -> dict:
        """The JSON-safe wire form (see :mod:`repro.service.protocol`)."""
        return {
            "oracle": self.oracle,
            "incremental": self.incremental,
            "cnf_cache_dir": self.cnf_cache_dir,
            "prefilter": self.prefilter,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> OracleSpec:
        unknown = set(payload) - {
            "oracle", "incremental", "cnf_cache_dir", "prefilter"
        }
        if unknown:
            raise ValueError(f"unknown oracle spec fields {sorted(unknown)}")
        return cls(**payload)


#: the loose oracle fields ``OracleSpec`` replaced (removed in 1.3)
_SPEC_FIELDS = ("oracle", "incremental", "cnf_cache_dir", "prefilter")


def reject_loose_oracle_fields(cls: type) -> type:
    """Class decorator: constructing ``cls`` with one of the loose
    oracle fields raises a :class:`TypeError` naming the
    :class:`OracleSpec` replacement, instead of the bare
    unexpected-keyword error."""
    init = cls.__init__

    @functools.wraps(init)
    def __init__(self: object, *args: object, **kwargs: object) -> None:
        loose = [name for name in _SPEC_FIELDS if name in kwargs]
        if loose:
            raise TypeError(
                f"{cls.__name__} no longer takes {', '.join(loose)} "
                "(removed in 1.3); bundle the oracle configuration as "
                f"{cls.__name__}(oracle_spec=OracleSpec(...))"
            )
        init(self, *args, **kwargs)

    cls.__init__ = __init__  # type: ignore[misc]
    return cls


@reject_loose_oracle_fields
@dataclass
class SynthesisOptions:
    """Everything ``synthesize`` needs besides the model itself.

    Attributes:
        bound: maximum instruction count per test.
        axioms: which axioms to build suites for (default: all of them).
        mode: criterion evaluation mode (Fig. 5b exact by default).
        config: enumeration bounds (defaults derive from ``bound``).
        exact_symmetry: use the exact canonicalizer (False reproduces the
            paper's greedy one, WWC blind spot included).
        candidates: explicit candidate stream (overrides the enumerator —
            used by tests and suite-from-corpus workflows; incompatible
            with ``jobs > 1`` / checkpointing).
        progress_events: callback invoked with structured progress
            event dicts (always carrying a ``"phase"`` key) — a running
            ``enumerate`` count every 1000 candidates (in-process runs
            only: worker processes cannot call back), one ``shard``
            event per completed shard of a sharded run (its
            ``total_candidates`` is the running total), and a final
            ``finish`` event with the merged counts.  Process-local
            (never serializes); the service daemon wires it to the
            streamed ``job-progress`` wire messages.
        reject: opt-in early filter passed to the enumerator; candidates
            it returns True for are skipped before any oracle call.  Pass
            the :data:`EARLY_REJECT` sentinel to build the lint-based
            filter per worker (plain callables only work with ``jobs=1``
            unless they are picklable).  Ignored when an explicit
            ``candidates`` stream is supplied.
        jobs: worker process count; ``jobs > 1`` fans the shards out
            over worker processes (:mod:`repro.exec`).
        checkpoint_dir: directory for shard-level checkpoints; a rerun
            with the same options resumes, skipping completed shards.
        shards: total shard count for parallel runs (default:
            ``4 * jobs`` — small enough to amortize worker warm-up,
            large enough for balance and useful checkpoint granularity).
        oracle_spec: the oracle configuration (:class:`OracleSpec`) —
            backend choice plus the relational oracle's incremental /
            CNF-cache / prefilter knobs.
        trace_dir: optional directory for :mod:`repro.obs` trace files
            (driver phase spans, per-shard span/counter streams, and the
            deterministic ``merged.jsonl``).  Setting it splits the run
            into shards even at ``jobs=1`` so the merged trace is
            byte-identical for every job count; render with
            ``repro report``.
    """

    bound: int
    axioms: Sequence[str] | None = None
    mode: CriterionMode = CriterionMode.EXACT
    config: EnumerationConfig | None = None
    exact_symmetry: bool = True
    candidates: Iterable[LitmusTest] | None = None
    progress_events: Callable[[dict], None] | None = None
    reject: Callable[[LitmusTest], bool] | str | None = None
    jobs: int = 1
    checkpoint_dir: str | None = None
    shards: int | None = None
    oracle_spec: OracleSpec = field(default_factory=OracleSpec)
    trace_dir: str | None = None

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if isinstance(self.reject, str) and self.reject != EARLY_REJECT:
            raise ValueError(
                f"unknown reject spec {self.reject!r} "
                f"(the only named filter is {EARLY_REJECT!r})"
            )
        if not isinstance(self.oracle_spec, OracleSpec):
            raise TypeError(
                "oracle_spec must be an OracleSpec, got "
                f"{type(self.oracle_spec).__name__}"
            )

    def resolved_config(
        self, model: MemoryModel | None = None
    ) -> EnumerationConfig:
        """The enumeration bounds, derived from ``bound`` when no
        explicit ``config`` was given.

        Models whose vocabulary declares transistency support default to
        ``max_aliases=1``, so enhanced candidates with one
        virtual->physical alias join the stream; consistency-only models
        keep the byte-identical ``max_aliases=0`` space.
        """
        if self.config is not None:
            return self.config
        max_aliases = (
            1 if model is not None and model.vocabulary.has_vmem else 0
        )
        return EnumerationConfig(
            max_events=self.bound, max_aliases=max_aliases
        )

    def axiom_names(self, model: MemoryModel) -> tuple[str, ...]:
        return (
            tuple(self.axioms) if self.axioms is not None else model.axiom_names()
        )

    def resolved_reject(
        self, model: MemoryModel
    ) -> Callable[[LitmusTest], bool] | None:
        if self.reject == EARLY_REJECT:
            from repro import analysis

            return analysis.early_reject(model)
        return self.reject  # a callable or None


@dataclass
class SynthesisResult:
    """Per-axiom suites, the union suite, and bookkeeping counters.

    ``wall_seconds`` is elapsed real time for the whole run;
    ``cpu_seconds`` is the summed busy time of every worker (equal to
    ``wall_seconds`` for sequential runs, roughly ``jobs × wall`` for
    well-balanced parallel ones).  ``axiom_seconds`` always sums *cpu*
    time across workers, so its total can exceed ``wall_seconds``.
    """

    model_name: str
    bound: int
    per_axiom: dict[str, TestSuite]
    union: TestSuite
    candidates: int = 0
    unique_candidates: int = 0
    minimal_tests: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    axiom_seconds: dict[str, float] = field(default_factory=dict)
    jobs: int = 1
    shard_count: int = 0
    oracle_stats: dict[str, float] = field(default_factory=dict)

    def counts(self) -> dict:
        out: dict = {name: len(suite) for name, suite in self.per_axiom.items()}
        out["union"] = len(self.union)
        out["wall_seconds"] = self.wall_seconds
        out["cpu_seconds"] = self.cpu_seconds
        return out

    def to_json_dict(self) -> dict:
        """The stable machine-readable summary: a
        :class:`repro.obs.Report` envelope around the ``synthesis-result``
        payload (schema v3)."""
        from repro.obs import Report

        suite_counts: dict = {
            name: len(suite) for name, suite in self.per_axiom.items()
        }
        suite_counts["union"] = len(self.union)
        payload = {
            "model": self.model_name,
            "bound": self.bound,
            "jobs": self.jobs,
            "shards": self.shard_count,
            "candidates": self.candidates,
            "unique_candidates": self.unique_candidates,
            "minimal_tests": self.minimal_tests,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "axiom_seconds": dict(self.axiom_seconds),
            "suite_counts": suite_counts,
            "oracle": dict(self.oracle_stats),
        }
        return Report(
            schema_name=RESULT_SCHEMA_NAME,
            schema_version=RESULT_SCHEMA_VERSION,
            command="synthesize",
            payload=payload,
        ).to_json_dict()

    def summary(self) -> str:
        rate = self.candidates / self.wall_seconds if self.wall_seconds else 0.0
        head = (
            f"model={self.model_name} bound={self.bound} "
            f"candidates={self.candidates} unique={self.unique_candidates} "
            f"wall={self.wall_seconds:.2f}s cpu={self.cpu_seconds:.2f}s "
            f"({rate:.0f} cand/s)"
        )
        if self.jobs > 1 or self.shard_count:
            head += f" jobs={self.jobs} shards={self.shard_count}"
        lines = [head]
        for name, suite in self.per_axiom.items():
            secs = self.axiom_seconds.get(name, 0.0)
            lines.append(f"  {name:<16s} {len(suite):5d} tests  {secs:8.2f}s")
        lines.append(f"  {'union':<16s} {len(self.union):5d} tests")
        hit_rate = self.oracle_stats.get("observe_hit_rate")
        if hit_rate is not None:
            lines.append(
                f"  oracle cache: analysis "
                f"{self.oracle_stats.get('analysis_hit_rate', 0.0):.0%} hits, "
                f"observe {hit_rate:.0%} hits"
            )
        return "\n".join(lines)


def build_checker(
    model: MemoryModel,
    mode: CriterionMode,
    spec: OracleSpec | None = None,
) -> MinimalityChecker:
    """Build the minimality checker for one :class:`OracleSpec`.

    Shared by every shard worker and the service daemon's resident
    pools, so every path resolves the same spec to the exact same
    pipeline.
    """
    if spec is None:
        spec = OracleSpec()
    if spec.oracle == "relational":
        if mode is CriterionMode.EXECUTION_WA:
            raise ValueError(
                "the Fig. 19 workaround criterion needs the explicit "
                "oracle; use oracle='explicit' with mode=execution-wa"
            )
        from repro.alloy.oracle import AlloyOracle

        backend = AlloyOracle(
            model.name,
            incremental=spec.incremental,
            cnf_cache_dir=spec.cnf_cache_dir,
            prefilter=spec.prefilter,
        )
        return MinimalityChecker(model, mode, oracle=backend)
    return MinimalityChecker(model, mode)


def _resolve_request(model, options):
    """Map the ``SynthesisRequest`` call forms onto (model, options).

    Accepts ``synthesize(request)`` (the request names its own model)
    and ``synthesize(model, request)`` (the names must agree).  Returns
    ``None`` when no request is involved.  The service protocol module
    is imported lazily: it imports this module at load time, so the
    top level here must stay request-free.
    """
    from repro.service.protocol import SynthesisRequest

    if isinstance(model, SynthesisRequest):
        if options is not None:
            raise TypeError(
                "synthesize(request) takes no second positional argument"
            )
        from repro.models.registry import get_model

        return get_model(model.model), model.options
    if isinstance(options, SynthesisRequest):
        if options.model != model.name:
            raise ValueError(
                f"request names model {options.model!r} but synthesize() "
                f"was called with {model.name!r}"
            )
        return model, options.options
    return None


def synthesize(
    model: MemoryModel,
    options: SynthesisOptions | None = None,
) -> SynthesisResult:
    """Synthesize the comprehensive suites for one model.

    Stable forms::

        synthesize(model, SynthesisOptions(bound=4, ...))
        synthesize(SynthesisRequest(model="tso", options=...))

    The request form (:class:`repro.service.protocol.SynthesisRequest`)
    is the wire-serializable shape the synthesis service daemon accepts;
    locally it resolves the model by name and runs identically.

    The pre-1.1 loose-keyword form (``synthesize(model, bound,
    axioms=..., ...)``) completed its deprecation window and was
    removed in 1.2; it now raises :class:`TypeError`.
    """
    if not isinstance(model, MemoryModel) or not isinstance(
        options, (SynthesisOptions, type(None))
    ):
        resolved = _resolve_request(model, options)
        if resolved is not None:
            model, options = resolved
    if not isinstance(options, SynthesisOptions):
        raise TypeError(
            "synthesize() takes a SynthesisOptions (or a SynthesisRequest); "
            "the loose-keyword form was removed in 1.2 — build the options "
            "value explicitly: synthesize(model, SynthesisOptions(bound=...))"
        )
    from repro.exec import run_sharded

    return run_sharded(model, options)


def run_sequential(
    model: MemoryModel,
    opts: SynthesisOptions,
    checker: MinimalityChecker | None = None,
) -> SynthesisResult:
    """One in-process, one-shard run, optionally over a resident checker.

    ``opts.jobs``/``shards``/``checkpoint_dir``/``trace_dir`` are
    ignored.  ``checker`` lets a long-lived host (the
    :mod:`repro.service` worker pool, a benchmark harness) inject a warm
    :class:`MinimalityChecker` whose oracle caches — analysis memos,
    incremental solver sessions, the CNF compilation cache — survive
    across calls.  It must have been built for the same model and
    oracle configuration as ``opts`` (see :func:`build_checker`); when
    omitted, a fresh one is built.  The returned ``oracle_stats`` are
    this call's delta either way: a warm checker's second call reports
    only the work that call did.
    """
    from repro.exec import run_sharded

    one_shard = replace(
        opts, jobs=1, shards=None, checkpoint_dir=None, trace_dir=None
    )
    return run_sharded(model, one_shard, checker=checker)
