"""Consistency oracle: per-test execution analysis with memoization.

The minimality criterion asks the same two questions over and over:

* which outcomes of a test are forbidden (w.r.t. one axiom)?
* is a (partial) outcome observable in some valid execution of a test?

The :class:`ExplicitOracle` answers both by exhaustive execution
enumeration, memoizing per-test analyses in least-recently-used caches.
During synthesis the same relaxed tests recur constantly (RI applied to
structurally similar candidates produces identical tests), so the
observability cache hits hard.

An analysis runs on the test's compiled
:class:`~repro.semantics.enumerate.ExecutionKernel`: outcomes are
tracked as integer ids, and an execution's view — built through
:meth:`MemoryModel.view <repro.models.base.MemoryModel.view>` with the
kernel's precomputed ``rf``/``co``/``fr``/``sc`` — is only materialized
when an axiom result can still change the analysis.  The skip rule is
exact: an execution whose outcome is already model-valid is skipped
outright, and once an execution is known not to be model-valid, an axiom
whose valid set already holds its outcome is not evaluated.
``stats["executions"]`` still counts every well-formed execution.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.litmus.execution import Execution, Outcome
from repro.litmus.test import LitmusTest
from repro.models.base import MemoryModel
from repro.obs import derive_rates
from repro.semantics.enumerate import ExecutionKernel, enumerate_executions

__all__ = ["TestAnalysis", "ExplicitOracle"]


@dataclass(frozen=True)
class TestAnalysis:
    """One test's outcome landscape under a model.

    ``axiom_valid[name]`` is the set of outcomes produced by at least one
    execution satisfying that single axiom; ``model_valid`` is the set of
    outcomes produced by at least one execution satisfying *all* axioms.
    ``all_outcomes`` is every outcome any well-formed execution produces.
    """

    __test__ = False  # not a pytest test class despite the name

    all_outcomes: frozenset[Outcome]
    model_valid: frozenset[Outcome]
    axiom_valid: dict[str, frozenset[Outcome]]

    def forbidden(self, axiom: str | None = None) -> frozenset[Outcome]:
        """Outcomes forbidden w.r.t. one axiom (or the whole model)."""
        allowed = self.model_valid if axiom is None else self.axiom_valid[axiom]
        return self.all_outcomes - allowed

    def admits(self, constraint: Outcome) -> bool:
        """Does some model-valid outcome extend the (partial) constraint?"""
        want_rf = dict(constraint.rf_sources)
        want_finals = dict(constraint.finals)
        for outcome in self.model_valid:
            rf = dict(outcome.rf_sources)
            if any(rf.get(r, _MISSING) != s for r, s in want_rf.items()):
                continue
            # An address absent from the outcome is untouched by the test
            # and keeps its initial value — it satisfies a None (initial)
            # constraint, which arises when a relaxation removes every
            # access to an address.
            finals = dict(outcome.finals)
            if any(finals.get(a) != w for a, w in want_finals.items()):
                continue
            return True
        return False


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


class _LRU(OrderedDict):
    """A minimal LRU mapping used for the oracle's caches: :meth:`recall`
    refreshes a hit's recency, :meth:`remember` evicts the least
    recently used entry."""

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize

    def recall(self, key):
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def remember(self, key, value):
        self[key] = value
        self.move_to_end(key)
        if len(self) > self.maxsize:
            self.popitem(last=False)
        return value


class ExplicitOracle:
    """Exhaustive-enumeration consistency oracle for one memory model."""

    def __init__(
        self,
        model: MemoryModel,
        analysis_cache: int = 4096,
        observe_cache: int = 65536,
        workaround: bool = False,
    ):
        self.model = model
        self.workaround = workaround
        self._axioms = dict(
            model.wa_axioms() if workaround else model.axioms()
        )
        self._analysis: _LRU = _LRU(analysis_cache)
        self._observe: _LRU = _LRU(observe_cache)
        self.stats = {
            "analyses": 0,
            "analysis_hits": 0,
            "observations": 0,
            "observe_hits": 0,
            "executions": 0,
        }

    def as_metrics(self) -> dict[str, int | float]:
        """The :class:`repro.obs.Stats` protocol: raw summable counters
        only — derived ratios come from :func:`repro.obs.derive_rates`."""
        return dict(self.stats)

    def cache_stats(self) -> dict[str, float]:
        """Counters plus derived hit rates — an adapter over
        :meth:`as_metrics` kept for the ``--json`` surfaces; merging
        across shards sums the raw counters and recomputes the rates."""
        metrics = self.as_metrics()
        return {**metrics, **derive_rates(metrics)}

    # -- execution-level helpers -----------------------------------------------

    def executions(self, test: LitmusTest):
        """All well-formed executions (including ``sc`` enumeration when
        the model requires it)."""
        return enumerate_executions(test, with_sc=self.model.uses_sc_order)

    def axiom_bits(self, execution: Execution) -> dict[str, bool]:
        """Which axioms the execution satisfies."""
        view = self.model.view(execution)
        return {name: fn(view) for name, fn in self._axioms.items()}

    def is_valid(self, execution: Execution) -> bool:
        view = self.model.view(execution)
        return all(fn(view) for fn in self._axioms.values())

    # -- outcome-level analysis ---------------------------------------------------

    def analyze(self, test: LitmusTest) -> TestAnalysis:
        """Compute (or recall) the outcome landscape of a test."""
        cached = self._analysis.recall(test)
        if cached is not None:
            self.stats["analysis_hits"] += 1
            return cached
        self.stats["analyses"] += 1
        kernel = ExecutionKernel(test, with_sc=self.model.uses_sc_order)
        self.stats["executions"] += kernel.size
        names = tuple(self._axioms)
        fns = tuple(self._axioms.values())
        # Outcome ids: rf-choice index * len(finals) + finals index.
        n_finals = len(kernel.finals)
        model_valid: set[int] = set()
        axiom_valid: tuple[set[int], ...] = tuple(set() for _ in fns)
        # pairs of (axiom function, its valid set)
        checks = tuple(zip(fns, axiom_valid))
        view_of = self.model.view
        static = kernel.static
        fr_of = kernel.fr
        sc_choices = kernel.sc_choices
        for base, rf_choice in enumerate(kernel.rf_choices):
            rf, rf_rel = rf_choice[0], rf_choice[1]
            base *= n_finals
            for co, co_rel, finals_index in kernel.co_choices:
                oid = base + finals_index
                if oid in model_valid:
                    continue
                fr = fr_of(rf_choice, co_rel)
                for sc, sc_rel in sc_choices:
                    if oid in model_valid:
                        break
                    view = view_of(
                        Execution(test, rf, co, sc),
                        static,
                        rf=rf_rel,
                        co=co_rel,
                        fr=fr,
                        sc=sc_rel,
                    )
                    # Axioms whose valid set lacks the outcome first: they
                    # run regardless, and one failure settles validity.
                    valid = True
                    known = []
                    for fn, holds in checks:
                        if oid in holds:
                            known.append(fn)
                        elif fn(view):
                            holds.add(oid)
                        else:
                            valid = False
                    if valid and all(fn(view) for fn in known):
                        model_valid.add(oid)
        outcomes = [
            Outcome(rf, finals)
            for rf, _, _, _ in kernel.rf_choices
            for finals in kernel.finals
        ]
        analysis = TestAnalysis(
            frozenset(outcomes),
            frozenset(outcomes[i] for i in model_valid),
            {
                name: frozenset(outcomes[i] for i in holds)
                for name, holds in zip(names, axiom_valid)
            },
        )
        return self._analysis.remember(test, analysis)

    def observable(self, test: LitmusTest, constraint: Outcome) -> bool:
        """Is the (possibly partial) outcome produced by some execution
        valid under the full model?

        Answered from the cached per-test analysis: the analysis's
        model-valid outcome set is usually tiny and is shared across all
        constraints ever asked about this test (and RI-relaxed tests
        recur constantly during synthesis).
        """
        key = (test, constraint)
        cached = self._observe.recall(key)
        if cached is not None:
            self.stats["observe_hits"] += 1
            return cached
        self.stats["observations"] += 1
        return self._observe.remember(key, self.analyze(test).admits(constraint))
