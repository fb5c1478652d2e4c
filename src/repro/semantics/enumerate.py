"""Exhaustive enumeration of candidate executions of a litmus test.

This is the explicit-state analogue of the paper's Alloy/Kodkod search:
instead of handing the dynamic relations (``rf``, ``co``, ``sc``) to a SAT
solver as free variables, we enumerate every well-formed assignment
directly.  For the test sizes the minimality criterion is tractable at
(≤ 8 events), the number of candidate executions is small — the product of
each read's candidate sources, the per-address coherence permutations, and
(for models with an ``sc`` axiom) the SC-fence orderings.

Well-formedness here means only the *structural* constraints of the
paper's Fig. 4 sigs (``rf`` respects addresses, ``co`` totally orders each
address's writes); whether an execution is *valid* is the memory model's
business.

Each test is compiled once into an :class:`ExecutionKernel`: per read its
``rf`` choices (the ``rf`` bit, plus the whole ``fr`` row of an
initial-value read — every write to the read's location), per location
its coherence permutations as ready row tuples with their final write,
and the pre-ORed cross-location ``co`` combinations.  An execution's
``rf``/``co``/``fr`` rows are then a few row selections, with no
per-execution pair lists, total orders or write scans.  The explicit
oracle runs on the kernel's tables directly;
:func:`enumerate_executions` is the kernel projected onto
:class:`~repro.litmus.execution.Execution` objects in the same order
(``rf`` outermost, then ``co``, then ``sc``), so there is exactly one
enumerator.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import permutations, product
from operator import or_

from repro.litmus.events import FenceKind
from repro.litmus.execution import Execution, Outcome
from repro.litmus.test import LitmusTest
from repro.semantics.rel import Rel
from repro.semantics.relations import StaticRelations

__all__ = [
    "ExecutionKernel",
    "enumerate_executions",
    "count_executions",
    "outcome_satisfied",
]


class ExecutionKernel:
    """One test's execution space, compiled into row tables.

    The space is the product ``rf_choices`` x ``co_choices`` x
    ``sc_choices`` (``rf`` outermost).  Entries:

    * ``rf_choices``: ``(rf, rf_rel, fr_init, sourced)`` per combination
      of read sources — the :attr:`Execution.rf` tuple, its ``rf``
      relation, the ``fr`` rows of its initial-value reads (zero
      elsewhere), and the ``(read, source)`` pairs of the other reads,
      whose ``fr`` row is their source's ``co`` row;
    * ``co_choices``: ``(co, co_rel, finals_index)`` per combination of
      per-location coherence orders — the :attr:`Execution.co` tuple,
      the pre-ORed ``co`` relation, and the index of its final writes in
      ``finals``;
    * ``sc_choices``: ``(sc, sc_rel)`` per total order of the test's SC
      fences (one empty order without ``with_sc``);
    * ``finals``: the distinct :attr:`Outcome.finals` tuples.

    An execution's outcome is ``Outcome(rf, finals[finals_index])``.
    """

    __slots__ = (
        "test",
        "static",
        "rf_choices",
        "co_choices",
        "sc_choices",
        "finals",
        "size",
    )

    def __init__(self, test: LitmusTest, with_sc: bool = False):
        self.test = test
        self.static = static = StaticRelations.of(test)
        n = test.num_events
        of = Rel._of

        loc_writes = {loc: test.writes_to(loc) for loc in test.locations}
        instructions = test.instructions
        per_read = []
        for r in test.read_eids:
            addr = instructions[r].address
            assert addr is not None
            choices = [(r, None, static.writes_at(addr))]
            choices += [
                (r, w, 1 << r) for w in loc_writes[test.location_of(addr)]
            ]
            per_read.append(choices)
        rf_choices = []
        for combo in product(*per_read):
            rf_rows = [0] * n
            fr_init = [0] * n
            sourced = []
            for r, src, bits in combo:
                if src is None:
                    fr_init[r] = bits
                else:
                    rf_rows[src] |= bits
                    sourced.append((r, src))
            rf_choices.append(
                (
                    tuple((r, src) for r, src, _ in combo),
                    of(n, tuple(rf_rows)),
                    tuple(fr_init),
                    tuple(sourced),
                )
            )

        per_loc = []
        for writes in loc_writes.values():
            orders = []
            for order in permutations(writes):
                rows = Rel.total_order(n, order).rows
                orders.append((order, rows, order[-1] if order else None))
            per_loc.append(orders)
        finals_index: dict[tuple[tuple[int, int | None], ...], int] = {}
        co_choices = []
        for combo in product(*per_loc):
            rows = (0,) * n
            for _, loc_rows, _ in combo:
                rows = tuple(map(or_, rows, loc_rows))
            finals = tuple(
                (loc, final)
                for loc, (_, _, final) in zip(test.locations, combo)
            )
            index = finals_index.setdefault(finals, len(finals_index))
            co_choices.append(
                (tuple(order for order, _, _ in combo), of(n, rows), index)
            )

        if with_sc:
            sc_events = [
                e
                for e, inst in enumerate(instructions)
                if inst.is_fence and inst.fence is FenceKind.FENCE_SC
            ]
            sc_orders = list(permutations(sc_events)) or [()]
        else:
            sc_orders = [()]
        self.rf_choices = tuple(rf_choices)
        self.co_choices = tuple(co_choices)
        self.sc_choices = tuple(
            (order, Rel.total_order(n, order)) for order in sc_orders
        )
        self.finals = tuple(finals_index)
        self.size = len(rf_choices) * len(co_choices) * len(sc_orders)

    def fr(self, rf_choice: tuple, co_rel: Rel) -> Rel:
        """The ``fr`` relation of one ``rf`` choice under one ``co``."""
        _, _, fr_init, sourced = rf_choice
        if not sourced:
            return Rel._of(len(fr_init), fr_init)
        rows = list(fr_init)
        co_rows = co_rel.rows
        for r, src in sourced:
            rows[r] = co_rows[src]
        return Rel._of(len(rows), tuple(rows))

    def executions(self) -> Iterator[Execution]:
        """Every execution, as :class:`Execution` objects, in kernel
        order."""
        test = self.test
        for rf, _, _, _ in self.rf_choices:
            for co, _, _ in self.co_choices:
                for sc, _ in self.sc_choices:
                    yield Execution(test, rf, co, sc)


def enumerate_executions(
    test: LitmusTest, with_sc: bool = False
) -> Iterator[Execution]:
    """Yield every well-formed execution of ``test``.

    A projection of the test's :class:`ExecutionKernel`.

    Args:
        test: the litmus test.
        with_sc: when true, additionally enumerate all total orders of the
            test's ``FenceSC`` events (required by models whose axioms
            mention the ``sc`` relation, e.g. SCC).
    """
    return ExecutionKernel(test, with_sc).executions()


def count_executions(test: LitmusTest, with_sc: bool = False) -> int:
    """Number of well-formed executions without materializing them."""
    total = 1
    for r in test.read_eids:
        total *= len(_sources(test, r))
    for addr in test.locations:
        total *= _factorial(len(test.writes_to(addr)))
    if with_sc:
        n_sc = sum(
            1
            for inst in test.instructions
            if inst.is_fence and inst.fence is FenceKind.FENCE_SC
        )
        total *= max(1, _factorial(n_sc))
    return total


def outcome_satisfied(execution: Execution, constraint: Outcome) -> bool:
    """Does ``execution`` produce (at least) the constrained outcome?

    ``constraint`` may be *partial* — outcome constraints dropped by
    relaxation projection simply do not appear, and the corresponding
    reads/addresses are then unconstrained (paper §4.3).
    """
    rf_map = execution.rf_map
    for read_eid, src in constraint.rf_sources:
        if rf_map.get(read_eid, _MISSING) != src:
            return False
    # An address the test never touches keeps its initial value, which
    # satisfies a None constraint (see ExplicitOracle.admits).
    finals = dict(execution.outcome.finals)
    for addr, w in constraint.finals:
        if finals.get(addr) != w:
            return False
    return True


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


_MISSING = _Missing()


def _sources(test: LitmusTest, read_eid: int) -> list[int | None]:
    """Candidate ``rf`` sources for a read: initial state or any same-
    address write."""
    addr = test.instruction(read_eid).address
    assert addr is not None
    return [None, *test.writes_to(addr)]


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out
