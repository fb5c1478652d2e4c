"""Bitmask-backed binary relations over small event universes.

Every litmus test the synthesis engine touches has at most a handful of
events (the paper never scales past 8 instructions), so a binary relation
over event ids ``0..n-1`` fits comfortably in ``n`` machine-word row masks.
All of the relational operators the axiomatic memory-model literature uses
(union, intersection, difference, composition, transpose, transitive
closure, domain/range restriction) then become a few integer bitwise
operations, which keeps the synthesis inner loop fast in pure Python.

The operator spelling deliberately mirrors the Alloy syntax key from the
paper (Table 3): ``+`` union, ``&`` intersection, ``-`` difference, ``~r``
transpose, ``r ^ None`` is not used — instead :meth:`Rel.plus` is ``^r``
(transitive closure) and :meth:`Rel.star` is ``*r`` (reflexive transitive
closure).  Composition (relational join ``.``) is :meth:`Rel.join` or the
``@`` operator.

Operator results are built through an internal constructor that skips
the public constructor's row-count check (an operator over two ``n``-row
relations always yields ``n`` rows), and the element-wise set operations
run through ``map`` over the row tuples.  :meth:`Rel.is_acyclic` never
computes a closure: it repeatedly peels *sinks* (nodes with no edge into
the remaining graph) as one bitmask per round, and the graph is acyclic
iff peeling empties it.  That test runs once per axiom per execution in
the explicit oracle, so it is the relation algebra's hottest operation.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import and_, invert, or_

__all__ = ["Rel"]


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Rel:
    """An immutable binary relation over the universe ``{0, .., n-1}``.

    Internally a tuple of ``n`` integers; bit ``j`` of ``rows[i]`` is set
    iff the pair ``(i, j)`` is in the relation.
    """

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, rows: tuple[int, ...] | None = None):
        if rows is None:
            rows = (0,) * n
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        self.n = n
        self.rows = rows
        self._hash: int | None = None

    @staticmethod
    def _of(n: int, rows: tuple[int, ...]) -> Rel:
        """Internal constructor for rows known to number ``n`` (operator
        results and precompiled execution tables): no validation."""
        rel = _new(Rel)
        rel.n = n
        rel.rows = rows
        rel._hash = None
        return rel

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> Rel:
        """The empty relation over a universe of size ``n``."""
        return cls(n)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> Rel:
        """Build a relation from an iterable of ``(src, dst)`` pairs."""
        rows = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) outside universe of size {n}")
            rows[i] |= 1 << j
        return cls(n, tuple(rows))

    @classmethod
    def identity(cls, n: int) -> Rel:
        """The identity relation ``iden``."""
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def full(cls, n: int) -> Rel:
        """The complete relation ``univ -> univ``."""
        mask = (1 << n) - 1
        return cls(n, (mask,) * n)

    @classmethod
    def product(cls, n: int, src: int, dst: int) -> Rel:
        """Cross product of two sets given as bitmasks (``src -> dst``)."""
        return cls(n, tuple(dst if (src >> i) & 1 else 0 for i in range(n)))

    @classmethod
    def total_order(cls, n: int, order: Iterable[int]) -> Rel:
        """The strict total order relating each element of ``order`` to
        every later element."""
        seq = list(order)
        rows = [0] * n
        later = 0
        for i in reversed(seq):
            rows[i] = later
            later |= 1 << i
        return cls(n, tuple(rows))

    # -- set algebra -----------------------------------------------------

    def __or__(self, other: Rel) -> Rel:
        return _of(self.n, tuple(map(or_, self.rows, other.rows)))

    __add__ = __or__  # Alloy spells union "+"

    def __and__(self, other: Rel) -> Rel:
        return _of(self.n, tuple(map(and_, self.rows, other.rows)))

    def __sub__(self, other: Rel) -> Rel:
        return _of(
            self.n, tuple(map(and_, self.rows, map(invert, other.rows)))
        )

    def __invert__(self) -> Rel:
        """Transpose (Alloy ``~r``)."""
        rows = [0] * self.n
        for i, row in enumerate(self.rows):
            bit = 1 << i
            while row:
                low = row & -row
                rows[low.bit_length() - 1] |= bit
                row ^= low
        return _of(self.n, tuple(rows))

    transpose = __invert__

    # -- composition and closures ----------------------------------------

    def join(self, other: Rel) -> Rel:
        """Relational composition ``self ; other`` (Alloy ``.``)."""
        orows = other.rows
        out = []
        for row in self.rows:
            acc = 0
            while row:
                low = row & -row
                acc |= orows[low.bit_length() - 1]
                row ^= low
            out.append(acc)
        return _of(self.n, tuple(out))

    __matmul__ = join

    def plus(self) -> Rel:
        """Transitive closure (Alloy ``^r``), Warshall-style over rows:
        after round ``k`` every row reaching ``k`` also reaches all of
        ``k``'s successors."""
        rows = list(self.rows)
        for k in range(self.n):
            succ = rows[k]
            if not succ:
                continue
            bit = 1 << k
            for i, row in enumerate(rows):
                if row & bit:
                    rows[i] = row | succ
        return _of(self.n, tuple(rows))

    def star(self) -> Rel:
        """Reflexive transitive closure (Alloy ``*r``)."""
        return self.plus() | Rel.identity(self.n)

    def opt(self) -> Rel:
        """Reflexive closure ``r?`` = ``iden + r``."""
        return self | Rel.identity(self.n)

    # -- restrictions ------------------------------------------------------

    def restrict_domain(self, mask: int) -> Rel:
        """Alloy ``set <: rel``: keep pairs whose source is in ``mask``."""
        return _of(
            self.n,
            tuple(row if (mask >> i) & 1 else 0 for i, row in enumerate(self.rows)),
        )

    def restrict_range(self, mask: int) -> Rel:
        """Alloy ``rel :> set``: keep pairs whose target is in ``mask``."""
        return _of(self.n, tuple(row & mask for row in self.rows))

    # -- predicates --------------------------------------------------------

    def is_empty(self) -> bool:
        return not any(self.rows)

    def is_irreflexive(self) -> bool:
        return all(not (row >> i) & 1 for i, row in enumerate(self.rows))

    def is_acyclic(self) -> bool:
        """True iff the relation, viewed as a digraph, has no cycle.

        Peels sinks: a node with no edge into the live set is on no
        cycle, so each round drops every such node at once.  Nodes with
        empty rows are sinks from the start.  A round that finds no sink
        leaves a non-empty live set where every node has a successor,
        which must contain a cycle.
        """
        rows = self.rows
        live = 0
        for i, row in enumerate(rows):
            if row:
                live |= 1 << i
        while live:
            sinks = 0
            rest = live
            while rest:
                low = rest & -rest
                if not rows[low.bit_length() - 1] & live:
                    sinks |= low
                rest ^= low
            if not sinks:
                return False
            live ^= sinks
        return True

    def is_transitive(self) -> bool:
        return self.join(self).__sub__(self).is_empty()

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        return 0 <= i < self.n and bool((self.rows[i] >> j) & 1)

    def __bool__(self) -> bool:
        return not self.is_empty()

    # -- introspection -------------------------------------------------------

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate the pairs in the relation in row-major order."""
        for i, row in enumerate(self.rows):
            for j in _iter_bits(row):
                yield (i, j)

    def domain(self) -> int:
        """Bitmask of sources."""
        mask = 0
        for i, row in enumerate(self.rows):
            if row:
                mask |= 1 << i
        return mask

    def range(self) -> int:
        """Bitmask of targets."""
        mask = 0
        for row in self.rows:
            mask |= row
        return mask

    def image(self, src_mask: int) -> int:
        """Bitmask of elements reachable in one step from ``src_mask``."""
        acc = 0
        for i in _iter_bits(src_mask):
            acc |= self.rows[i]
        return acc

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rel) and self.n == other.n and self.rows == other.rows
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.rows))
        return self._hash

    def __repr__(self) -> str:
        return f"Rel({self.n}, {{{', '.join(f'{i}->{j}' for i, j in self.pairs())}}})"


_new = object.__new__
_of = Rel._of
