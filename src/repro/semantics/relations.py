"""Derived relational view of a concrete execution.

Memory models consume a :class:`RelationView`, which exposes every base
and derived relation of the axiomatic literature (po, po_loc, rf, co, fr,
internal/external splits, dependency relations, fence-closure helpers) as
:class:`~repro.semantics.rel.Rel` values over the test's event ids.  The
definitions follow the paper's Fig. 4 Alloy model and Alglave et al.'s
"herding cats" conventions.

Relations that depend only on the *test* (program order, same-address,
dependency edges, fence helpers, event-class masks) are computed once per
test in a shared :class:`StaticRelations` and reused by every execution's
view — the synthesis inner loop visits hundreds of executions per test,
so this sharing dominates throughput.

The per-execution relations ``rf``, ``co``, ``fr`` and ``sc`` are either
derived lazily from the :class:`~repro.litmus.execution.Execution` or,
on the explicit oracle's hot path, handed in precomputed at construction
by the compiled :class:`~repro.semantics.enumerate.ExecutionKernel`.
The kernel never builds a view itself: it goes through
:meth:`repro.models.base.MemoryModel.view`, which passes the precomputed
relations through, so a model that overrides its view (e.g. a difftest
mutant that forgets ``fr``) still wins — a precomputed relation only
pre-fills the lazy cache and never shadows a property a subclass
defines.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property

from repro.litmus.events import DepKind, EventKind, FenceKind, Order
from repro.litmus.execution import Execution
from repro.litmus.test import LitmusTest
from repro.semantics.rel import Rel

__all__ = ["StaticRelations", "RelationView"]


class StaticRelations:
    """Execution-independent relations of one litmus test."""

    _cache: OrderedDict[LitmusTest, "StaticRelations"] = OrderedDict()
    _cache_max = 16384

    def __init__(self, test: LitmusTest):
        self.test = test
        self.n = test.num_events
        self._fence_rels: dict[tuple[FenceKind, ...], Rel] = {}
        self._loc_writes: dict[int, int] = {}

    @classmethod
    def of(cls, test: LitmusTest) -> StaticRelations:
        """The shared instance for ``test`` (least-recently-used cache:
        a hit refreshes the entry's recency)."""
        cached = cls._cache.get(test)
        if cached is not None:
            cls._cache.move_to_end(test)
            return cached
        static = cls(test)
        cls._cache[test] = static
        if len(cls._cache) > cls._cache_max:
            cls._cache.popitem(last=False)
        return static

    # -- event class masks -------------------------------------------------------

    @property
    def reads(self) -> int:
        return self.test.reads_mask

    @property
    def writes(self) -> int:
        return self.test.writes_mask

    @property
    def fences(self) -> int:
        return self.test.fences_mask

    @cached_property
    def acquires(self) -> int:
        """Reads annotated acquire-or-stronger."""
        return self.test.mask_of(lambda i: i.is_read and i.order.is_acquire)

    @cached_property
    def releases(self) -> int:
        """Writes annotated release-or-stronger."""
        return self.test.mask_of(lambda i: i.is_write and i.order.is_release)

    @cached_property
    def vmem(self) -> int:
        """Transistency events (ptwalk / remap / dirty-bit)."""
        return self.test.mask_of(lambda i: i.is_vmem)

    @cached_property
    def ptwalks(self) -> int:
        return self.test.mask_of(lambda i: i.kind is EventKind.PTWALK)

    @cached_property
    def remaps(self) -> int:
        return self.test.mask_of(lambda i: i.kind is EventKind.REMAP)

    @cached_property
    def dirties(self) -> int:
        return self.test.mask_of(lambda i: i.kind is EventKind.DIRTY)

    # -- structural relations ------------------------------------------------------

    @cached_property
    def po(self) -> Rel:
        """Program order: each event before all later events of its thread."""
        pairs = []
        for tid, thread in enumerate(self.test.threads):
            for i in range(len(thread)):
                for j in range(i + 1, len(thread)):
                    pairs.append((self.test.eid(tid, i), self.test.eid(tid, j)))
        return Rel.from_pairs(self.n, pairs)

    @cached_property
    def po_imm(self) -> Rel:
        """Immediate program order (``po - po.po``)."""
        return self.po - self.po.join(self.po)

    @cached_property
    def loc(self) -> Rel:
        """Same-location relation over memory accesses (aliased virtual
        addresses share a location, so they are ``loc``-related)."""
        pairs = []
        for addr in self.test.locations:
            events = self.test.accesses_to(addr)
            pairs += [(a, b) for a in events for b in events]
        return Rel.from_pairs(self.n, pairs)

    @cached_property
    def po_loc(self) -> Rel:
        return self.po & self.loc

    @cached_property
    def po_vmem(self) -> Rel:
        """Program-order edges touching a transistency event on either
        end — the ordering TransForm's translation axioms preserve."""
        return self.po.restrict_domain(self.vmem) | self.po.restrict_range(
            self.vmem
        )

    @cached_property
    def int_(self) -> Rel:
        """Same-thread (internal) pairs, excluding the diagonal."""
        pairs = []
        for tid, thread in enumerate(self.test.threads):
            eids = [self.test.eid(tid, i) for i in range(len(thread))]
            pairs += [(a, b) for a in eids for b in eids if a != b]
        return Rel.from_pairs(self.n, pairs)

    @cached_property
    def ext(self) -> Rel:
        """Different-thread (external) pairs."""
        return (Rel.full(self.n) - Rel.identity(self.n)) - self.int_

    @cached_property
    def rmw(self) -> Rel:
        return Rel.from_pairs(self.n, self.test.rmw)

    def dep(self, *kinds: DepKind) -> Rel:
        return Rel.from_pairs(
            self.n,
            ((d.src, d.dst) for d in self.test.deps if d.kind in kinds),
        )

    @cached_property
    def addr_dep(self) -> Rel:
        return self.dep(DepKind.ADDR)

    @cached_property
    def data_dep(self) -> Rel:
        return self.dep(DepKind.DATA)

    @cached_property
    def ctrl_dep(self) -> Rel:
        """Control dependencies (including ctrl+isync ones)."""
        return self.dep(DepKind.CTRL, DepKind.CTRLISYNC)

    @cached_property
    def ctrlisync_dep(self) -> Rel:
        return self.dep(DepKind.CTRLISYNC)

    @cached_property
    def all_deps(self) -> Rel:
        return self.dep(*DepKind)

    # -- helpers -------------------------------------------------------------------

    def fences_of(self, *kinds: FenceKind) -> int:
        return self.test.mask_of(lambda i: i.is_fence and i.fence in kinds)

    def writes_at(self, address: int) -> int:
        """Bitmask of the writes to ``address``'s location."""
        loc = self.test.location_of(address)
        mask = self._loc_writes.get(loc)
        if mask is None:
            mask = 0
            for w in self.test.writes_to(loc):
                mask |= 1 << w
            self._loc_writes[loc] = mask
        return mask

    def fence_rel(self, *kinds: FenceKind) -> Rel:
        """``(po :> F).po`` — pairs separated by a fence of given strength."""
        cached = self._fence_rels.get(kinds)
        if cached is None:
            mask = self.fences_of(*kinds)
            cached = self.po.restrict_range(mask).join(self.po)
            self._fence_rels[kinds] = cached
        return cached

    @cached_property
    def W_R(self) -> Rel:
        return Rel.product(self.n, self.writes, self.reads)

    @cached_property
    def R_R(self) -> Rel:
        return Rel.product(self.n, self.reads, self.reads)

    @cached_property
    def R_W(self) -> Rel:
        return Rel.product(self.n, self.reads, self.writes)

    @cached_property
    def W_W(self) -> Rel:
        return Rel.product(self.n, self.writes, self.writes)


class RelationView:
    """Relations of one execution; static parts shared per test.

    ``rf``, ``co``, ``fr`` and ``sc``, when given, must be exactly the
    relations the lazy definitions below would derive from
    ``execution``; they pre-fill the per-view cache.
    """

    __slots__ = ("execution", "test", "static", "__dict__")

    def __init__(
        self,
        execution: Execution,
        static: StaticRelations | None = None,
        *,
        rf: Rel | None = None,
        co: Rel | None = None,
        fr: Rel | None = None,
        sc: Rel | None = None,
    ):
        self.execution = execution
        self.test = execution.test
        self.static = static if static is not None else StaticRelations.of(
            execution.test
        )
        # An instance-dict entry shadows a cached_property (a non-data
        # descriptor) exactly as its own cached value would, while a
        # property a subclass defines (a data descriptor) still wins.
        cache = self.__dict__
        if rf is not None:
            cache["rf"] = rf
        if co is not None:
            cache["co"] = co
        if fr is not None:
            cache["fr"] = fr
        if sc is not None:
            cache["sc"] = sc

    @property
    def n(self) -> int:
        return self.static.n

    # -- delegated static accessors --------------------------------------------------

    @property
    def reads(self) -> int:
        return self.static.reads

    @property
    def writes(self) -> int:
        return self.static.writes

    @property
    def fences(self) -> int:
        return self.static.fences

    @property
    def acquires(self) -> int:
        return self.static.acquires

    @property
    def releases(self) -> int:
        return self.static.releases

    @property
    def vmem(self) -> int:
        return self.static.vmem

    @property
    def ptwalks(self) -> int:
        return self.static.ptwalks

    @property
    def remaps(self) -> int:
        return self.static.remaps

    @property
    def dirties(self) -> int:
        return self.static.dirties

    @property
    def po(self) -> Rel:
        return self.static.po

    @property
    def po_imm(self) -> Rel:
        return self.static.po_imm

    @property
    def po_vmem(self) -> Rel:
        return self.static.po_vmem

    @property
    def loc(self) -> Rel:
        return self.static.loc

    @property
    def po_loc(self) -> Rel:
        return self.static.po_loc

    @property
    def int_(self) -> Rel:
        return self.static.int_

    @property
    def ext(self) -> Rel:
        return self.static.ext

    @property
    def rmw(self) -> Rel:
        return self.static.rmw

    @property
    def addr_dep(self) -> Rel:
        return self.static.addr_dep

    @property
    def data_dep(self) -> Rel:
        return self.static.data_dep

    @property
    def ctrl_dep(self) -> Rel:
        return self.static.ctrl_dep

    @property
    def ctrlisync_dep(self) -> Rel:
        return self.static.ctrlisync_dep

    @property
    def all_deps(self) -> Rel:
        return self.static.all_deps

    @property
    def W_R(self) -> Rel:
        return self.static.W_R

    @property
    def R_R(self) -> Rel:
        return self.static.R_R

    @property
    def R_W(self) -> Rel:
        return self.static.R_W

    @property
    def W_W(self) -> Rel:
        return self.static.W_W

    def dep(self, *kinds: DepKind) -> Rel:
        return self.static.dep(*kinds)

    def fences_of(self, *kinds: FenceKind) -> int:
        return self.static.fences_of(*kinds)

    def fence_rel(self, *kinds: FenceKind) -> Rel:
        return self.static.fence_rel(*kinds)

    def accesses_with(self, pred) -> int:
        """Bitmask of memory accesses whose instruction satisfies ``pred``."""
        return self.test.mask_of(lambda i: not i.is_fence and pred(i))

    def orders_at_least(self, order: Order) -> int:
        """Accesses or fences whose annotation is >= ``order``."""
        return self.test.mask_of(lambda i: i.order >= order)

    # -- dynamic (per-execution) relations ---------------------------------------------

    @cached_property
    def rf(self) -> Rel:
        """Reads-from: sourcing write -> read."""
        return Rel.from_pairs(
            self.n,
            (
                (src, read)
                for read, src in self.execution.rf
                if src is not None
            ),
        )

    @cached_property
    def co(self) -> Rel:
        """Coherence: the per-address total orders, transitively closed."""
        rel = Rel.empty(self.n)
        for order in self.execution.co:
            rel = rel | Rel.total_order(self.n, order)
        return rel

    @cached_property
    def fr(self) -> Rel:
        """From-reads, accounting for reads of the initial state.

        A read sourced by write ``w`` is ``fr``-before every ``co``
        successor of ``w``; a read of the initial value is ``fr``-before
        every write to its address (the paper's Fig. 4 alternative
        definition of ``fr``).
        """
        rows = [0] * self.n
        co_rows = self.co.rows
        for read, src in self.execution.rf:
            if src is None:
                addr = self.test.instruction(read).address
                assert addr is not None
                rows[read] = self.static.writes_at(addr)
            else:
                rows[read] = co_rows[src]
        return Rel(self.n, tuple(rows))

    @cached_property
    def com(self) -> Rel:
        """Communication: ``rf + co + fr``."""
        return self.rf | self.co | self.fr

    @cached_property
    def sc(self) -> Rel:
        """Total order over SC fences (SCC Fig. 17), empty if unused.

        Events that are no longer SC fences are dropped — a relaxation
        may have demoted a fence (Fig. 6's perturbed ``sc_p``), and the
        stale order entry must not keep constraining it.
        """
        events = [
            e
            for e in self.execution.sc
            if self.test.instruction(e).fence is FenceKind.FENCE_SC
        ]
        return Rel.total_order(self.n, events)

    # -- internal/external splits ----------------------------------------------------

    @cached_property
    def rfi(self) -> Rel:
        return self.rf & self.int_

    @cached_property
    def rfe(self) -> Rel:
        return self.rf & self.ext

    @cached_property
    def coi(self) -> Rel:
        return self.co & self.int_

    @cached_property
    def coe(self) -> Rel:
        return self.co & self.ext

    @cached_property
    def fri(self) -> Rel:
        return self.fr & self.int_

    @cached_property
    def fre(self) -> Rel:
        return self.fr & self.ext

