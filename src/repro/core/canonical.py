"""Litmus test canonicalization (paper §5.1 symmetry reduction).

Two tests are *symmetric* if one maps onto the other by permuting threads
and renaming addresses (paper Fig. 9) — scope groups, when present, are
renamed along with the threads.  Only one representative per symmetry
class should be emitted.

Two canonicalizers are provided:

* :func:`canonicalize` — **exact**: minimizes the test's encoding over
  every thread permutation, renaming addresses by first use under each
  permutation (first-use renaming is a canonical representative of the
  address-permutation orbit, so the search over thread orders is
  sufficient).  This catches the WWC symmetry the paper's canonicalizer
  misses.
* :func:`paper_canonicalize` — the Mador-Haim-style greedy the paper
  describes: hash threads independently, sort, then rename addresses
  sequentially.  When two threads have identical shapes modulo addresses
  (WWC's first two threads, paper Fig. 14) the greedy cannot order them
  and symmetric variants survive.  Kept for the ablation bench.
"""

from __future__ import annotations

from itertools import permutations

from repro.litmus.events import Instruction
from repro.litmus.test import Dep, LitmusTest

__all__ = [
    "canonicalize",
    "canonical_form",
    "encoding",
    "paper_canonicalize",
    "symmetry_class_size",
    "CanonicalSet",
]


def _encode_instruction(inst: Instruction, addr_id: int | None) -> tuple:
    # Write values are labels, not semantics (every write to an address
    # stores a distinct value and outcomes track event identity), so they
    # are excluded from the encoding and *normalized away* by _permuted.
    return (
        inst.kind.value,
        addr_id,
        int(inst.order),
        inst.fence.value if inst.fence else "",
        -1 if inst.scope is None else int(inst.scope),
    )


def _permuted(
    test: LitmusTest, order: tuple[int, ...]
) -> tuple[LitmusTest, dict[int, int], dict[int, int]]:
    """Rebuild the test with threads in ``order`` and addresses renamed by
    first use; returns the new test, the event-id map, and the address
    map."""
    addr_rename: dict[int, int] = {}
    event_map: dict[int, int] = {}
    threads: list[tuple[Instruction, ...]] = []
    scopes: list[int] = []
    scope_rename: dict[int, int] = {}
    next_eid = 0
    for tid in order:
        thread = []
        for i, inst in enumerate(test.threads[tid]):
            if inst.address is not None and inst.address not in addr_rename:
                addr_rename[inst.address] = len(addr_rename)
            new_inst = (
                inst
                if inst.address is None
                else Instruction(
                    inst.kind,
                    addr_rename[inst.address],
                    inst.order,
                    inst.fence,
                    None,  # values re-derive positionally (see _encode)
                    inst.scope,
                )
            )
            thread.append(new_inst)
            event_map[test.eid(tid, i)] = next_eid
            next_eid += 1
        threads.append(tuple(thread))
        if test.scopes is not None:
            group = test.scopes[tid]
            if group not in scope_rename:
                scope_rename[group] = len(scope_rename)
            scopes.append(scope_rename[group])
    rmw = frozenset((event_map[r], event_map[w]) for r, w in test.rmw)
    deps = frozenset(
        Dep(event_map[d.src], event_map[d.dst], d.kind) for d in test.deps
    )
    new_test = LitmusTest(
        tuple(threads),
        rmw,
        deps,
        tuple(scopes) if test.scopes is not None else None,
        test.name,
        _renamed_addr_map(test, addr_rename),
    )
    return new_test, event_map, addr_rename


def _renamed_addr_map(
    test: LitmusTest, addr_rename: dict[int, int]
) -> tuple[tuple[int, int], ...] | None:
    """Translate the aliasing layer through an address renaming.

    Which member of an alias group plays "physical" is itself a symmetry
    (merging ``v`` into ``p`` and ``p`` into ``v`` yield the same
    location structure), so each group is re-anchored at its minimal
    renamed member — making the canonical form independent of the input
    map's orientation.
    """
    if test.addr_map is None:
        return None
    groups: dict[int, list[int]] = {}
    for v, p in test.addr_map:
        groups.setdefault(p, []).append(v)
    entries: list[tuple[int, int]] = []
    for p, vs in groups.items():
        members = sorted(addr_rename[a] for a in (p, *vs))
        rep = members[0]
        entries += [(m, rep) for m in members[1:]]
    return tuple(sorted(entries))


def encoding(test: LitmusTest) -> tuple:
    """The plain-data key of a test's presentation: ints and strings
    only, write values left out.  :func:`canonicalize` keeps the
    permutation that minimizes it, so on a canonical form it identifies
    the symmetry class — stably across processes and interpreter
    versions."""
    threads = tuple(
        tuple(
            _encode_instruction(inst, inst.address) for inst in thread
        )
        for thread in test.threads
    )
    return (
        threads,
        tuple(sorted(test.rmw)),
        tuple(sorted((d.src, d.dst, d.kind.value) for d in test.deps)),
        test.scopes if test.scopes is not None else (),
        test.addr_map if test.addr_map is not None else (),
    )


def canonicalize(
    test: LitmusTest,
) -> tuple[LitmusTest, dict[int, int], dict[int, int]]:
    """Exact canonical form; returns the form plus the event-id and
    address mappings from the input test to it."""
    best: tuple | None = None
    best_result = None
    for order in permutations(range(len(test.threads))):
        candidate, event_map, addr_map = _permuted(test, order)
        key = encoding(candidate)
        if best is None or key < best:
            best, best_result = key, (candidate, event_map, addr_map)
    assert best_result is not None
    return best_result


def canonical_form(test: LitmusTest) -> LitmusTest:
    """Exact canonical form (drops the mappings)."""
    return canonicalize(test)[0]


def paper_canonicalize(test: LitmusTest) -> LitmusTest:
    """The paper's greedy canonicalizer (thread hashing + sequential
    address renaming), including its WWC blind spot."""
    # Hash each thread with *thread-local* address abstraction, as the
    # Mador-Haim scheme does, then sort threads by that key.  Ties keep
    # input order — which is exactly why swapped WWC variants survive.
    def local_key(tid: int) -> tuple:
        local_rename: dict[int, int] = {}
        out = []
        for inst in test.threads[tid]:
            if inst.address is not None and inst.address not in local_rename:
                local_rename[inst.address] = len(local_rename)
            addr_id = (
                None if inst.address is None else local_rename[inst.address]
            )
            out.append(_encode_instruction(inst, addr_id))
        return tuple(out)

    order = tuple(
        sorted(range(len(test.threads)), key=lambda tid: (local_key(tid), 0))
    )
    return _permuted(test, order)[0]


def symmetry_class_size(test: LitmusTest) -> int:
    """How many distinct raw presentations the test's symmetry class has
    (thread permutations yielding distinct first-use-renamed encodings)."""
    encodings = set()
    for order in permutations(range(len(test.threads))):
        candidate, _, _ = _permuted(test, order)
        encodings.add(encoding(candidate))
    return len(encodings)


class CanonicalSet:
    """A set of tests modulo symmetry.

    ``exact=True`` uses the exact canonicalizer; ``exact=False``
    reproduces the paper's greedy post-processor.
    """

    def __init__(self, exact: bool = True):
        self.exact = exact
        self._seen: dict[LitmusTest, LitmusTest] = {}

    def _key(self, test: LitmusTest) -> LitmusTest:
        return canonical_form(test) if self.exact else paper_canonicalize(test)

    def add(self, test: LitmusTest) -> bool:
        """Insert; returns True if the test was new (not symmetric to a
        previously added test)."""
        key = self._key(test)
        if key in self._seen:
            return False
        self._seen[key] = test
        return True

    def __contains__(self, test: LitmusTest) -> bool:
        return self._key(test) in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def __iter__(self):
        return iter(self._seen.values())

    def canonical_tests(self):
        return iter(self._seen.keys())
