import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from frameflow.errors import (
    BadSizes,
    Inconsistent,
    NotLinked,
    ShapeMismatch,
    SizeLimitError,
    ValidationError,
)
from frameflow.morse import fixed_points, poincare_poly
from frameflow.skeleton import (
    Perm,
    _dumps,
    _moves,
    _rank,
    build_graph,
    index_h,
    leads_to,
    linked,
    one_dim_strata,
    precedes,
    singleton_tree,
    tree_bounds,
)
from frameflow.strata import Tree, contains, dimension, enumerate_irreducible, is_consistent


def P(n, *word, sp=False):
    return Perm(n, word, symplectic=sp)


# ------------------------------------------------------------------ vertices


def test_perm_validation():
    p = P(4, 1, 2)
    assert p.n == 4 and p.k == 2 and p.word == (1, 2) and not p.symplectic
    with pytest.raises(ValidationError):
        P(4, 1, 1)
    with pytest.raises(ValidationError):
        P(4, 0, 2)
    with pytest.raises(ValidationError):
        P(4, 1, 5)
    with pytest.raises(ValidationError):
        Perm(4, ())
    # symplectic entries live in 1..2n with distinct residues mod n
    assert P(2, 4, 1, sp=True).k == 2
    with pytest.raises(ValidationError):
        P(2, 1, 3, sp=True)
    with pytest.raises(ValidationError):
        P(2, 2, 4, sp=True)
    with pytest.raises(ValidationError):
        P(2, 1, 5, sp=True)


def test_bool_sizes_rejected():
    # True is an int, but not a size
    with pytest.raises(ValidationError):
        Perm(True, (1,))
    with pytest.raises(BadSizes):
        poincare_poly(True, True)
    with pytest.raises(BadSizes):
        fixed_points(True, True)
    with pytest.raises(BadSizes):
        build_graph(2, True)


# ------------------------------------------------------------------- linking


def test_linked_general_frozen():
    assert linked(P(4, 1, 2), P(4, 1, 3))  # replace one entry
    assert linked(P(4, 1, 2), P(4, 3, 2))
    assert linked(P(4, 1, 2), P(4, 2, 1))  # switch two entries
    assert not linked(P(4, 1, 2), P(4, 3, 4))
    assert not linked(P(4, 1, 2), P(4, 1, 2))
    assert not linked(P(4, 1, 2, 3), P(4, 2, 3, 1))  # 3-cycle is two moves
    with pytest.raises(ShapeMismatch):
        linked(P(4, 1, 2), P(5, 1, 2))
    with pytest.raises(ShapeMismatch):
        linked(P(4, 1, 2), P(4, 1))
    with pytest.raises(ShapeMismatch):
        linked(P(2, 1, 2), P(2, 1, 2, sp=True))


def test_linked_symplectic_frozen():
    assert linked(P(2, 1, 2, sp=True), P(2, 3, 2, sp=True))  # conj replacement
    assert linked(P(2, 1, 2, sp=True), P(2, 1, 4, sp=True))
    assert linked(P(2, 1, 2, sp=True), P(2, 2, 1, sp=True))  # switch
    assert linked(P(2, 1, 2, sp=True), P(2, 4, 3, sp=True))  # conj switch
    # conjugating both entries in place is not a single move
    assert not linked(P(2, 1, 2, sp=True), P(2, 3, 4, sp=True))
    # replacement from the doubly-free complement
    assert linked(P(3, 1, 2, sp=True), P(3, 1, 6, sp=True))


def test_linked_matches_one_dimensional_strata_general():
    trees = [t for t in enumerate_irreducible(3, 2) if dimension(t) == 1]
    g = build_graph(3, 2)
    for a in g.vertices:
        for b in g.vertices:
            if a.word >= b.word:
                continue
            expected = any(
                contains(t, singleton_tree(a)) and contains(t, singleton_tree(b))
                for t in trees
            )
            assert linked(a, b) == expected, (a.word, b.word)


def test_linked_matches_one_dimensional_strata_symplectic():
    trees = [
        t for t in enumerate_irreducible(2, 2, symplectic=True) if dimension(t) == 1
    ]
    g = build_graph(2, 2, symplectic=True)
    for a in g.vertices:
        for b in g.vertices:
            if a.word >= b.word:
                continue
            expected = any(
                contains(t, singleton_tree(a)) and contains(t, singleton_tree(b))
                for t in trees
            )
            assert linked(a, b) == expected, (a.word, b.word)


# --------------------------------------------------------------- orientation


def test_leads_to_general_frozen():
    assert leads_to(P(4, 1, 2), P(4, 1, 3))
    assert not leads_to(P(4, 1, 3), P(4, 1, 2))
    assert leads_to(P(4, 1, 2), P(4, 2, 1))  # switch with increasing entries
    assert not leads_to(P(4, 2, 1), P(4, 1, 2))
    with pytest.raises(NotLinked):
        leads_to(P(4, 1, 2), P(4, 3, 4))


def test_leads_to_symplectic_frozen():
    # circular order 1 < 2 < 4 < 3 on {1..4}
    assert leads_to(P(2, 2, sp=True), P(2, 4, sp=True))
    assert leads_to(P(2, 4, sp=True), P(2, 3, sp=True))
    assert not leads_to(P(2, 3, sp=True), P(2, 4, sp=True))
    assert leads_to(P(2, 1, 4, sp=True), P(2, 2, 3, sp=True))  # conj switch


def test_leads_to_orients_every_edge():
    for g in (build_graph(4, 2), build_graph(2, 2, symplectic=True)):
        for a in g.vertices:
            for b in g.vertices:
                if a.word < b.word and linked(a, b):
                    assert leads_to(a, b) != leads_to(b, a)


def test_precedes_general_frozen():
    assert precedes(P(4, 1, 3), P(4, 2, 3))  # consecutive replacement
    assert leads_to(P(5, 1, 2), P(5, 1, 4))
    assert not precedes(P(5, 1, 2), P(5, 1, 4))  # skips over the free 3
    assert precedes(P(5, 3, 2), P(5, 3, 4))  # 3 is already placed earlier
    assert not precedes(P(5, 2, 3), P(5, 4, 3))  # 3 placed later blocks it
    assert precedes(P(3, 1, 3), P(3, 3, 1))  # switch, nothing in between
    assert precedes(P(4, 1, 4), P(4, 4, 1))  # 2,3 are free, switch still covers
    assert not precedes(P(3, 1, 2, 3), P(3, 3, 2, 1))  # 2 sits in between
    assert precedes(P(3, 1, 3, 2), P(3, 3, 1, 2))  # in word but not in between
    assert precedes(P(3, 1, 2), P(3, 1, 3))
    assert not precedes(P(4, 1, 2), P(4, 3, 4))  # not even linked


def test_precedes_symplectic_frozen():
    assert precedes(P(2, 2, sp=True), P(2, 4, sp=True))  # n and 2n touch
    assert not precedes(P(2, 1, sp=True), P(2, 3, sp=True))  # 1 < 2 < 4 < 3
    assert leads_to(P(2, 1, sp=True), P(2, 3, sp=True))
    assert precedes(P(2, 2, 1, sp=True), P(2, 2, 3, sp=True))  # 2,4 placed
    assert precedes(P(3, 1, 2, sp=True), P(3, 1, 3, sp=True))
    assert precedes(P(2, 1, 4, sp=True), P(2, 2, 3, sp=True))  # conj switch
    assert not precedes(P(2, 1, 2, sp=True), P(2, 4, 3, sp=True))


def test_precedes_is_the_covering_relation():
    specs = (
        (3, 2, False),
        (4, 2, False),
        (5, 2, False),
        (3, 3, False),
        (2, 2, True),
        (3, 1, True),
    )
    for n, k, sp in specs:
        g = build_graph(n, k, symplectic=sp)
        n_v = len(g.vertices)
        reach = oracles.reachability(n_v, list(g.edges))
        prec = {
            (ia, ib)
            for ia, a in enumerate(g.vertices)
            for ib, b in enumerate(g.vertices)
            if ia != ib and precedes(a, b)
        }
        assert prec <= set(g.edges)
        cover = set()
        for a in range(n_v):
            for b in reach[a]:
                if b == a:
                    continue
                between = any(
                    z not in (a, b) and z in reach[a] and b in reach[z]
                    for z in range(n_v)
                )
                if not between:
                    cover.add((a, b))
        assert prec == cover, (n, k, sp)
        # the covering pairs alone already generate the whole order
        assert oracles.reachability(n_v, sorted(prec)) == reach


# ------------------------------------------------------------------ indexing


def test_index_h_frozen():
    assert index_h(P(5, 1, 2, 3)) == 0
    assert index_h(P(4, 4, 3)) == 5  # bottom entry of the 5-regular graph
    assert index_h(P(4, 2, 1)) == 1
    assert index_h(P(2, 1, 2, sp=True)) == 0
    assert index_h(P(2, 3, 4, sp=True)) == 4
    assert index_h(P(2, 1, 4, sp=True)) == 1


def test_index_equals_in_degree():
    for g in (build_graph(4, 2), build_graph(4, 4), build_graph(2, 2, symplectic=True)):
        incoming = [0] * len(g.vertices)
        for _, head in g.edges:
            incoming[head] += 1
        assert list(g.h) == incoming


# ---------------------------------------------------------------- the graphs


def _degrees(g):
    deg = [0] * len(g.vertices)
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def _is_acyclic(g):
    indeg = [0] * len(g.vertices)
    adj = [[] for _ in g.vertices]
    for a, b in g.edges:
        adj[a].append(b)
        indeg[b] += 1
    queue = [v for v, d in enumerate(indeg) if d == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(g.vertices)


def test_graph_counts_and_regularity():
    g = build_graph(4, 2)
    assert len(g.vertices) == 12
    assert len(g.edges) == 30
    assert set(_degrees(g)) == {5}
    g44 = build_graph(4, 4)
    assert len(g44.vertices) == 24
    assert set(_degrees(g44)) == {6}
    gsp = build_graph(2, 2, symplectic=True)
    assert len(gsp.vertices) == 8
    assert len(gsp.edges) == 16
    assert set(_degrees(gsp)) == {4}


def test_graph_orientation_properties():
    for g in (build_graph(4, 2), build_graph(4, 4), build_graph(2, 2, symplectic=True)):
        assert _is_acyclic(g)
        for a, b in g.edges:
            assert g.h[b] > g.h[a]
            if precedes(g.vertices[a], g.vertices[b]):
                assert g.h[b] == g.h[a] + 1
        d = max(g.h)
        k, n = g.k, g.n
        expect = k * (2 * n - k) if g.symplectic else k * (2 * n - k - 1) // 2
        assert d == expect
        assert g.h.count(0) == 1 and g.h.count(d) == 1  # unique source and sink


def test_graph_vertices_sorted_and_deterministic():
    g1 = build_graph(4, 2)
    g2 = build_graph(4, 2)
    words = [v.word for v in g1.vertices]
    assert words == sorted(words)
    assert words == [v.word for v in g2.vertices]
    assert g1.edges == g2.edges


def test_graph_size_limit():
    with pytest.raises(SizeLimitError):
        build_graph(9, 9)
    with pytest.raises(SizeLimitError):
        build_graph(5, 3, max_vertices=10)


def test_dot_and_json_exports():
    g = build_graph(3, 2)
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert '"(1 2)" [label="(1 2) [H=0]"]' in dot
    assert '"(1 2)" -> ' in dot
    assert dot == build_graph(3, 2).to_dot()
    blob = json.loads(g.to_json())
    assert blob["n"] == 3 and blob["k"] == 2 and blob["symplectic"] is False
    assert len(blob["vertices"]) == 6
    assert len(blob["edges"]) == len(g.edges)
    assert blob["index"] == list(g.h)
    assert blob["vertices"][0] == [1, 2]


_JSON_SCALARS = st.one_of(
    st.integers(),
    st.floats(),  # NaN and both infinities included
    st.floats(allow_nan=False).map(np.float64),
    st.booleans(),
    st.none(),
)
_IDENTIFIERS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)


def _json_docs(depth):
    """Documents of dicts with identifier keys, lists and tuples nested up
    to depth levels, empty containers included."""
    if depth == 0:
        return _JSON_SCALARS
    inner = _json_docs(depth - 1)
    return st.one_of(
        inner,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_IDENTIFIERS, inner, max_size=4),
    )


@settings(max_examples=400, deadline=None)
@given(_json_docs(4))
def test_dumps_is_the_encoders_indent_2_text(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2)


# ------------------------------------------------------- one-dim connections


def test_one_dim_strata_frozen():
    t = one_dim_strata(P(3, 1, 2), P(3, 1, 3))
    assert t.sets == ((1,), (2, 3)) and not t.symplectic
    t = one_dim_strata(P(3, 1, 2), P(3, 2, 1))
    assert t.sets == ((1, 2), (1, 2))
    t = one_dim_strata(P(2, 1, 2, sp=True), P(2, 4, 3, sp=True))
    assert t.sets == ((1, 4), (2, 3)) and t.symplectic
    t = one_dim_strata(P(2, 1, 2, sp=True), P(2, 1, 4, sp=True))
    assert t.sets == ((1,), (2, 4))
    with pytest.raises(NotLinked):
        one_dim_strata(P(4, 1, 2), P(4, 3, 4))


def test_one_dim_strata_properties():
    for n, k, sp in ((4, 2, False), (2, 2, True)):
        g = build_graph(n, k, symplectic=sp)
        for a, b in g.edges:
            p, q = g.vertices[a], g.vertices[b]
            t = one_dim_strata(p, q)
            assert dimension(t) == 1
            assert contains(t, singleton_tree(p))
            assert contains(t, singleton_tree(q))
            assert t.sets == one_dim_strata(q, p).sets


@st.composite
def _vertices(draw):
    """A word beyond the sizes of the exhaustive tests: plain n <= 8, paired
    n <= 5, with a partner side drawn per entry."""
    sp = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=5 if sp else 8))
    k = draw(st.integers(min_value=1, max_value=n))
    classes = draw(st.permutations(range(1, n + 1)))[:k]
    sides = draw(st.lists(st.booleans(), min_size=k, max_size=k)) if sp else [False] * k
    return Perm(n, tuple(c + n * s for c, s in zip(classes, sides)), symplectic=sp)


@settings(max_examples=200, deadline=None)
@given(_vertices())
def test_moves_are_the_one_dimensional_strata(p):
    moves = _moves(p)
    assert len(moves) == poincare_poly(p.n, p.k, p.symplectic).degree
    rank = lambda v: _rank(v, p.n)
    assert index_h(p) == sum(1 for i, u, _, _ in moves if rank(u) < rank(p.word[i]))
    for i, u, j, v in moves:
        word = list(p.word)
        word[i] = u
        if j >= 0:
            word[j] = v
        q = Perm(p.n, word, symplectic=p.symplectic)
        assert linked(p, q)
        assert leads_to(p, q) == (rank(p.word[i]) < rank(u))
        t = one_dim_strata(p, q)
        assert is_consistent(t) and dimension(t) == 1


# ----------------------------------------------------------------- bounds


def test_singleton_tree_roundtrip():
    t = singleton_tree(P(4, 3, 1))
    assert t.sets == ((3,), (1,)) and t.n == 4
    s = singleton_tree(P(2, 4, 1, sp=True))
    assert s.sets == ((4,), (1,)) and s.symplectic


def test_tree_bounds_frozen():
    lo, hi = tree_bounds(Tree(3, [{1, 2, 3}, {1, 2, 3}]))
    assert lo.word == (1, 2) and hi.word == (3, 2)
    pi = P(4, 2, 4)
    lo, hi = tree_bounds(singleton_tree(pi))
    assert lo.word == pi.word and hi.word == pi.word
    lo, hi = tree_bounds(Tree(2, [{1, 2, 3, 4}] * 2, symplectic=True))
    assert lo.word == (1, 2) and hi.word == (3, 4)
    with pytest.raises(Inconsistent):
        tree_bounds(Tree(3, [{1}, {1}]))


def test_tree_bounds_against_poset_oracle():
    for n, k, sp in ((3, 2, False), (2, 2, True)):
        g = build_graph(n, k, symplectic=sp)
        n_v = len(g.vertices)
        lead_edges = [e for e in g.edges]
        reach = oracles.reachability(n_v, lead_edges)
        lookup = {v.word: i for i, v in enumerate(g.vertices)}
        for t in enumerate_irreducible(n, k, symplectic=sp):
            members = [
                i for i, v in enumerate(g.vertices) if contains(t, singleton_tree(v))
            ]
            assert members, t.sets
            lo, hi = tree_bounds(t)
            assert lookup[lo.word] == oracles.brute_glb(members, n_v, reach)
            assert lookup[hi.word] == oracles.brute_lub(members, n_v, reach)
            for m in members:  # bounds are comparable to every member
                assert m in reach[lookup[lo.word]]
                assert lookup[hi.word] in reach[m]


def test_poset_is_not_a_lattice():
    # (4,1) and (2,3) admit two incomparable maximal lower bounds, so
    # neither order is a lattice
    for n, k, sp in ((4, 2, False), (2, 2, True)):
        g = build_graph(n, k, symplectic=sp)
        reach = oracles.reachability(len(g.vertices), list(g.edges))
        lookup = {v.word: i for i, v in enumerate(g.vertices)}
        pair = [lookup[(4, 1)], lookup[(2, 3)]]
        assert oracles.brute_glb(pair, len(g.vertices), reach) is None
        if sp:
            # upper bounds (4,3) and (3,2) are incomparable as well
            assert oracles.brute_lub(pair, len(g.vertices), reach) is None
        else:
            # here the least upper bound survives: the only upper bounds
            # are (4,2) and (4,3), and (4,2) leads to (4,3)
            lub = oracles.brute_lub(pair, len(g.vertices), reach)
            assert lub == lookup[(4, 2)]
