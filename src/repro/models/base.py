"""Memory model interface.

A :class:`MemoryModel` bundles two things the synthesis pipeline needs:

* **axioms** — named predicates over a :class:`~repro.semantics.relations.
  RelationView` of a concrete execution.  The paper generates one suite
  per axiom plus a union suite, so axioms must be individually addressable.
* a **vocabulary** — which instruction shapes (memory orders, fence kinds,
  dependency kinds, RMWs, scopes) the model gives semantics to.  The
  candidate-test enumerator draws from the vocabulary, and the relaxation
  applicability matrix (paper Table 2) is derived from it.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.litmus.events import (
    VMEM_KINDS,
    DepKind,
    EventKind,
    FenceKind,
    Order,
    Scope,
)
from repro.litmus.execution import Execution
from repro.semantics.rel import Rel
from repro.semantics.relations import RelationView, StaticRelations

__all__ = ["Axiom", "Vocabulary", "MemoryModel"]

Axiom = Callable[[RelationView], bool]


@dataclass(frozen=True)
class Vocabulary:
    """The instruction design space of a memory model.

    Demotion maps give the *one-step* weakenings DMO/DF may take (paper
    §3.2); chains (e.g. ``seq_cst -> acq_rel -> acquire``) arise from
    repeated application during synthesis of larger suites.
    """

    read_orders: tuple[Order, ...] = (Order.PLAIN,)
    write_orders: tuple[Order, ...] = (Order.PLAIN,)
    fence_kinds: tuple[FenceKind, ...] = ()
    dep_kinds: tuple[DepKind, ...] = ()
    allows_rmw: bool = True
    order_demotions: Mapping[Order, tuple[Order, ...]] = field(
        default_factory=dict
    )
    fence_demotions: Mapping[FenceKind, tuple[FenceKind, ...]] = field(
        default_factory=dict
    )
    scopes: tuple[Scope, ...] = ()
    #: Transistency event kinds (TransForm enhanced tests) the model
    #: gives semantics to; empty for consistency-only models, which keeps
    #: their candidate space — and synthesized suites — byte-identical.
    vmem_kinds: tuple[EventKind, ...] = ()

    def __post_init__(self) -> None:
        for src, dsts in self.order_demotions.items():
            for dst in dsts:
                if dst >= src:
                    raise ValueError(f"demotion {src} -> {dst} does not weaken")
        for kind in self.vmem_kinds:
            if kind not in VMEM_KINDS:
                raise ValueError(f"{kind} is not a transistency event kind")

    @property
    def has_orders(self) -> bool:
        """True when some access carries a demotable memory order."""
        return bool(self.order_demotions)

    @property
    def has_fence_demotions(self) -> bool:
        return bool(self.fence_demotions)

    @property
    def has_deps(self) -> bool:
        return bool(self.dep_kinds)

    @property
    def has_scopes(self) -> bool:
        return bool(self.scopes)

    @property
    def has_vmem(self) -> bool:
        """True when the model supports transistency-enhanced tests."""
        return bool(self.vmem_kinds)


class MemoryModel(abc.ABC):
    """An axiomatic memory consistency model."""

    #: Short identifier used by the CLI and the registry (e.g. ``"tso"``).
    name: str = ""
    #: Human-readable name for reports.
    full_name: str = ""
    #: True when the model's axioms mention an ``sc`` total order over
    #: SC fences that must be enumerated as part of each execution (SCC).
    uses_sc_order: bool = False

    @property
    @abc.abstractmethod
    def vocabulary(self) -> Vocabulary:
        """The instruction design space this model gives semantics to."""

    @abc.abstractmethod
    def axioms(self) -> Mapping[str, Axiom]:
        """Named axioms; an execution is valid iff all of them hold."""

    def wa_axioms(self) -> Mapping[str, Axiom]:
        """Axioms for the paper's Fig. 19 workaround mode.

        Models whose axioms quantify over auxiliary relations chosen
        before relaxation (SCC's ``sc``) override this with the
        reversal-tolerant variants; everyone else just uses the normal
        axioms.
        """
        return self.axioms()

    # -- convenience entry points -------------------------------------------------

    def view(
        self,
        execution: Execution,
        static: StaticRelations | None = None,
        **precomputed: Rel,
    ) -> RelationView:
        """Relational view of an execution (override to specialize).

        ``static`` and ``precomputed`` (``rf``/``co``/``fr``/``sc``) are
        the compiled execution kernel's shared and per-execution
        relations; an override must pass them through to the view it
        builds.
        """
        return RelationView(execution, static, **precomputed)

    def is_valid(self, execution: Execution) -> bool:
        """Does the execution satisfy every axiom of the model?"""
        view = self.view(execution)
        return all(axiom(view) for axiom in self.axioms().values())

    def satisfies(self, execution: Execution, axiom_name: str) -> bool:
        """Does the execution satisfy one named axiom?"""
        return self.axioms()[axiom_name](self.view(execution))

    def axiom_names(self) -> tuple[str, ...]:
        return tuple(self.axioms().keys())

    def __repr__(self) -> str:
        return f"<MemoryModel {self.name}>"
