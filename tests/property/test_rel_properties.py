"""Property-based tests for the relation algebra (hypothesis)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.semantics.rel import Rel

N = 5


@st.composite
def rels(draw, n=N):
    pairs = draw(
        st.sets(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            max_size=n * n,
        )
    )
    return Rel.from_pairs(n, pairs)


@st.composite
def sized_rels(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    return draw(rels(n=n))


@st.composite
def sized_rel_pairs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    return draw(rels(n=n)), draw(rels(n=n))


@given(rels(), rels())
def test_union_commutative(a, b):
    assert a | b == b | a


@given(rels(), rels(), rels())
def test_union_associative(a, b, c):
    assert (a | b) | c == a | (b | c)


@given(rels(), rels())
def test_intersection_subset_of_union(a, b):
    assert ((a & b) - (a | b)).is_empty()


@given(rels())
def test_difference_self_empty(a):
    assert (a - a).is_empty()


@given(rels())
def test_double_transpose_identity(a):
    assert ~~a == a


@given(rels(), rels())
def test_transpose_antidistributes_over_join(a, b):
    assert ~(a.join(b)) == (~b).join(~a)


@given(rels())
def test_closure_contains_relation(a):
    assert (a - a.plus()).is_empty()


@given(rels())
def test_closure_transitive(a):
    assert a.plus().is_transitive()


@given(rels())
def test_closure_idempotent(a):
    assert a.plus().plus() == a.plus()


@given(sized_rels())
def test_closure_matches_pair_reachability(a):
    closed = a.plus()
    # Floyd-Warshall reference
    n = a.n
    reach = [[bool((a.rows[i] >> j) & 1) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    assert {(i, j) for i in range(n) for j in range(n) if reach[i][j]} == set(
        closed.pairs()
    )


@given(rels())
def test_star_is_plus_plus_identity(a):
    assert a.star() == a.plus() | Rel.identity(a.n)


@given(rels(), rels())
def test_join_via_reference_semantics(a, b):
    expected = {
        (i, k)
        for i, j in a.pairs()
        for j2, k in b.pairs()
        if j == j2
    }
    assert set(a.join(b).pairs()) == expected


@given(rels())
def test_join_identity_neutral(a):
    iden = Rel.identity(a.n)
    assert a.join(iden) == a
    assert iden.join(a) == a


@given(rels(), st.integers(0, (1 << N) - 1))
def test_restrictions_shrink(a, mask):
    assert len(a.restrict_domain(mask)) <= len(a)
    assert len(a.restrict_range(mask)) <= len(a)
    assert set(a.restrict_domain(mask).pairs()) == {
        (i, j) for i, j in a.pairs() if (mask >> i) & 1
    }


@given(sized_rels())
def test_acyclic_iff_no_diagonal_in_closure(a):
    assert a.is_acyclic() == a.plus().is_irreflexive()


@given(rels())
def test_domain_range_via_pairs(a):
    pairs = list(a.pairs())
    assert a.domain() == sum(
        1 << i for i in {i for i, _ in pairs}
    )
    assert a.range() == sum(1 << j for j in {j for _, j in pairs})


@given(st.lists(st.integers(0, N - 1), unique=True))
def test_total_order_properties(order):
    r = Rel.total_order(N, order)
    assert r.is_acyclic()
    assert r.is_transitive()
    assert len(r) == len(order) * (len(order) - 1) // 2


# -- internal constructor, operator results and cycles (universes up to 8) --


@given(st.integers(1, 8), st.data())
def test_cycles_are_never_acyclic(n, data):
    nodes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    cycle = list(zip(nodes, nodes[1:] + nodes[:1]))
    extra = data.draw(rels(n=n))
    assert not (Rel.from_pairs(n, cycle) | extra).is_acyclic()


def _same_as_pairs(rel):
    """The operator result equals a validated rebuild from its pairs."""
    public = Rel.from_pairs(rel.n, rel.pairs())
    assert rel == public and public == rel
    assert hash(rel) == hash(public)
    assert len({rel, public}) == 1


@given(sized_rel_pairs())
def test_operator_results_match_from_pairs(ab):
    a, b = ab
    pa, pb = set(a.pairs()), set(b.pairs())
    n = a.n
    cases = [
        (a | b, pa | pb),
        (a & b, pa & pb),
        (a - b, pa - pb),
        (~a, {(j, i) for i, j in pa}),
        (a.join(b), {(i, k) for i, j in pa for j2, k in pb if j == j2}),
        (a.restrict_range(b.domain()), {(i, j) for i, j in pa if (b.domain() >> j) & 1}),
        (a.restrict_domain(b.range()), {(i, j) for i, j in pa if (b.range() >> i) & 1}),
    ]
    for result, expected in cases:
        assert result == Rel.from_pairs(n, expected)
        _same_as_pairs(result)
    for closure in (a.plus(), a.star(), a.opt()):
        _same_as_pairs(closure)


@given(sized_rels())
def test_internal_constructor_equals_public(a):
    internal = Rel._of(a.n, a.rows)
    public = Rel(a.n, a.rows)
    assert internal == public == a
    assert hash(internal) == hash(public) == hash(a)
    assert {internal: 1}[public] == 1
