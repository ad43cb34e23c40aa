import itertools

import numpy as np
import pytest

import oracles
from frameflow.errors import (
    BadIndex,
    BadSizes,
    Inconsistent,
    ShapeMismatch,
    SizeLimitError,
    ValidationError,
)
from frameflow.flows import FlowConfig, SpectralData, Weights, flow, gradient_flow
from frameflow.strata import (
    Tree,
    _irreducible,
    card,
    codepth,
    constraint_rank_deficiency,
    contains,
    depth,
    dimension,
    enumerate_irreducible,
    is_consistent,
    is_full,
    is_irreducible,
    is_root,
    kappa,
    meet,
    member,
    member_residual,
    mu,
    reduce_tree,
    sample_stratum,
)

CHAIN = Tree(3, [{1}, {1, 2}, {1, 2, 3}])


# ------------------------------------------------------------- construction


def test_tree_construction_and_sets():
    t = Tree(4, [{2, 1}, {4}])
    assert t.k == 2 and t.n == 4 and not t.symplectic
    assert t.sets == ((1, 2), (4,))
    assert t.universe == 4
    s = Tree(2, [{1}, {1, 2}], symplectic=True)
    assert s.universe == 4


def test_tree_rejects_bad_nodes():
    with pytest.raises(ValidationError):
        Tree(3, [set(), {1}])
    with pytest.raises(ValidationError):
        Tree(3, [{0, 1}])
    with pytest.raises(ValidationError):
        Tree(3, [{4}])
    with pytest.raises(ValidationError):
        Tree(3, [])
    with pytest.raises(BadSizes):
        Tree(2, [{1}, {2}, {1, 2}])
    # symplectic universe has 2n elements
    Tree(2, [{4}], symplectic=True)
    with pytest.raises(ValidationError):
        Tree(2, [{5}], symplectic=True)


@pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
def test_tree_rejects_non_integer_label_count(n):
    with pytest.raises(ValidationError):
        Tree(n, [{1}])


def test_tree_rejects_overlap_without_nesting():
    with pytest.raises(ValidationError):
        Tree(3, [{1, 2}, {2, 3}])


def test_tree_rejects_earlier_superset():
    # nodes may only grow (or stay disjoint) along the sequence
    with pytest.raises(ValidationError):
        Tree(3, [{1, 2}, {1}])


def test_symplectic_conjugate_dichotomy():
    Tree(2, [{1}, {1, 2}], symplectic=True)
    # partner of {1,2} is {3,4}; meeting {1,2,4} without containment is bad
    with pytest.raises(ValidationError):
        Tree(2, [{1, 2}, {1, 2, 4}], symplectic=True)
    # partner of {1,2} strictly contains {3}
    with pytest.raises(ValidationError):
        Tree(2, [{1, 2}, {3}], symplectic=True)


# ------------------------------------------------------------------- counts


def test_depth_card_kappa_chain():
    assert [card(CHAIN, i) for i in (1, 2, 3)] == [1, 2, 3]
    assert [depth(CHAIN, i) for i in (1, 2, 3)] == [0, 1, 2]
    assert kappa(CHAIN) == 3
    assert mu(CHAIN) == 0


def test_codepth_and_mu_symplectic():
    t = Tree(2, [{1}, {2, 3}], symplectic=True)
    assert codepth(t, 1) == 0
    assert codepth(t, 2) == 1  # partner of {1} is {3}, inside {2,3}
    assert mu(t) == 1
    assert kappa(t) == 0


def test_count_indices_validated():
    with pytest.raises(BadIndex):
        card(CHAIN, 0)
    with pytest.raises(BadIndex):
        depth(CHAIN, 4)
    with pytest.raises(BadIndex):
        codepth(CHAIN, -1)


# -------------------------------------------------------------- consistency


def test_consistency_frozen_cases():
    assert is_consistent(CHAIN)
    assert not is_consistent(Tree(2, [{1}, {1}]))
    # forced second column would be the skew partner of the first
    assert not is_consistent(Tree(2, [{1}, {3}], symplectic=True))
    assert is_consistent(Tree(2, [{1}, {2, 3}], symplectic=True))


def test_consistency_matches_numerical_search_general():
    rng = np.random.default_rng(61)
    subsets = [frozenset(s) for r in (1, 2, 3) for s in itertools.combinations((1, 2, 3), r)]
    for p1 in subsets:
        for p2 in subsets:
            try:
                t = Tree(3, [p1, p2])
            except ValidationError:
                continue
            found = oracles.lstsq_stratum_search(t.masks, np.eye(3), rng)
            if is_consistent(t):
                assert found < 1e-6, t.sets
            else:
                assert found > 1e-3, t.sets


def test_consistency_matches_numerical_search_symplectic():
    rng = np.random.default_rng(62)
    j = np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    subsets = [
        frozenset(s) for r in (1, 2) for s in itertools.combinations((1, 2, 3, 4), r)
    ]
    checked = 0
    for p1 in subsets:
        for p2 in subsets:
            try:
                t = Tree(2, [p1, p2], symplectic=True)
            except ValidationError:
                continue
            found = oracles.lstsq_stratum_search(t.masks, np.eye(4), rng, j=j)
            checked += 1
            if is_consistent(t):
                assert found < 1e-6, t.sets
            else:
                assert found > 1e-3, t.sets
    assert checked > 20


def test_full_and_root():
    assert all(is_full(CHAIN, i) for i in (1, 2, 3))
    assert is_root(CHAIN, 3)
    assert not is_root(CHAIN, 1) and not is_root(CHAIN, 2)
    assert not is_irreducible(CHAIN)
    assert is_full(Tree(3, [{1}, {1, 2}]), 2)
    t = Tree(3, [{1, 2}, {3}])
    assert not is_full(t, 1) and is_full(t, 2)
    assert is_irreducible(t)
    with pytest.raises(BadIndex):
        is_full(t, 3)


# ------------------------------------------------------------------- reduce


def test_reduce_chain_to_disjoint_singletons():
    r = reduce_tree(CHAIN)
    assert r.sets == ((1,), (2,), (3,))
    assert is_irreducible(r)
    assert reduce_tree(r).sets == r.sets


def test_reduce_leaves_irreducible_untouched():
    t = Tree(3, [{1, 2}, {1, 2, 3}])
    assert reduce_tree(t).sets == t.sets


def test_reduce_symplectic_removes_conjugate_pair():
    t = Tree(2, [{1}, {1, 2, 3}], symplectic=True)
    r = reduce_tree(t)
    assert r.sets == ((1,), (2,))
    # the plain reduction of the same shape keeps the partner element
    g = Tree(4, [{1}, {1, 2, 3}])
    assert reduce_tree(g).sets == ((1,), (2, 3))


def test_reduce_symplectic_acts_through_partner_containment():
    # the partner {3} of the full first node sits inside the second node,
    # which therefore loses the pair {1,3} even without containing {1}
    t = Tree(2, [{1}, {2, 3}], symplectic=True)
    assert reduce_tree(t).sets == ((1,), (2,))
    assert not is_irreducible(t)


def test_reduce_requires_consistency():
    with pytest.raises(Inconsistent):
        reduce_tree(Tree(2, [{1}, {1}]))


def test_reduce_preserves_dimension_and_members():
    rng = np.random.default_rng(63)
    basis = SpectralData((4.0, 2.0, 1.0), np.eye(3))
    t = Tree(3, [{1}, {1, 2, 3}])
    r = reduce_tree(t)
    assert dimension(t) == dimension(r)
    x = sample_stratum(r, basis, rng)
    assert member(t, x, basis)
    y = sample_stratum(t, basis, rng)
    assert member(r, y, basis)


# ---------------------------------------------------------------- dimension


def test_dimension_frozen():
    assert dimension(Tree(3, [{1}, {2}])) == 0
    assert dimension(Tree(3, [{1, 2}, {1, 2, 3}])) == 2
    # largest stratum: every node the full ground set
    assert dimension(Tree(4, [{1, 2, 3, 4}] * 2)) == 5  # k(2n-k-1)/2
    assert dimension(Tree(4, [{1, 2, 3, 4}] * 4)) == 6
    full = {1, 2, 3, 4}
    assert dimension(Tree(2, [full, full], symplectic=True)) == 4  # k(2n-k)
    assert dimension(Tree(2, [{1}, {2, 3}], symplectic=True)) == 0


def test_dimension_inconsistent_raises():
    with pytest.raises(Inconsistent):
        dimension(Tree(2, [{1}, {1}]))


# ----------------------------------------------------------- contains, meet


def test_contains_basics():
    top = Tree(3, [{1, 2, 3}, {1, 2, 3}])
    assert contains(top, Tree(3, [{1}, {2}]))
    assert contains(top, top)
    assert not contains(Tree(3, [{1}, {2}]), top)
    with pytest.raises(ShapeMismatch):
        contains(top, Tree(3, [{1}]))
    with pytest.raises(ShapeMismatch):
        contains(top, Tree(4, [{1}, {2}]))
    with pytest.raises(ShapeMismatch):
        contains(Tree(2, [{1}], symplectic=True), Tree(2, [{1}]))


def test_meet_frozen():
    a = Tree(3, [{1, 2}, {1, 2, 3}])
    b = Tree(3, [{1, 3}, {1, 2, 3}])
    m = meet(a, b)
    assert m.sets == ((1,), (2, 3))
    assert meet(a, a).sets == reduce_tree(a).sets
    assert meet(Tree(3, [{1}, {3}]), Tree(3, [{2}, {3}])) is None  # empty part
    # nonempty parts but inconsistent intersection ({1}, {1})
    assert meet(Tree(3, [{1, 2}, {1, 2}]), Tree(3, [{1, 3}, {1, 3}])) is None


def test_meet_is_greatest_lower_bound():
    trees = enumerate_irreducible(3, 2)
    key = {t.sets for t in trees}
    for a in trees:
        for b in trees:
            m = meet(a, b)
            lower = [c for c in trees if contains(a, c) and contains(b, c)]
            if m is None:
                assert not lower
            else:
                assert m.sets in key
                assert contains(a, m) and contains(b, m)
                for c in lower:
                    assert contains(m, c)


# --------------------------------------------------------------- membership


def test_member_eigenframe_in_singleton_tree():
    basis = SpectralData((4.0, 2.0, 1.0), np.eye(3))
    from frameflow.frames import Frame

    x = Frame(np.eye(3)[:, [0, 2]])
    assert member(Tree(3, [{1}, {3}]), x, basis)
    assert not member(Tree(3, [{1}, {2}]), x, basis)
    assert member_residual(Tree(3, [{1}, {2}]), x, basis) == pytest.approx(1.0)


def test_member_shape_checks():
    basis = SpectralData((4.0, 2.0, 1.0), np.eye(3))
    from frameflow.frames import Frame

    with pytest.raises(ShapeMismatch):
        member(Tree(3, [{1}, {2}]), Frame(np.eye(4, 2)), basis)
    with pytest.raises(ShapeMismatch):
        member(Tree(3, [{1}]), Frame(np.eye(3, 2)), basis)


# ----------------------------------------------------------------- sampling


def test_sample_stratum_general():
    rng = np.random.default_rng(64)
    evecs = oracles.random_orthogonal(rng, 4)
    basis = SpectralData((8.0, 4.0, 2.0, 1.0), evecs)
    for k in (1, 2, 3):
        trees = enumerate_irreducible(4, k)
        picks = rng.choice(len(trees), size=min(8, len(trees)), replace=False)
        for idx in picks:
            t = trees[int(idx)]
            x = sample_stratum(t, basis, rng)
            assert x.kind == "orthogonal"
            assert member_residual(t, x, basis) < 1e-10


def test_sample_stratum_symplectic():
    rng = np.random.default_rng(65)
    basis = SpectralData((4.0, 2.0, 0.25, 0.5), np.eye(4))
    for k in (1, 2):
        for t in enumerate_irreducible(2, k, symplectic=True):
            x = sample_stratum(t, basis, rng)
            assert x.kind == "unitary"
            assert member_residual(t, x, basis) < 1e-10


def test_sample_stratum_rotated_symplectic_basis():
    rng = np.random.default_rng(66)
    w = oracles.random_orthogonal_symplectic(rng, 2)
    basis = SpectralData((4.0, 2.0, 0.25, 0.5), w)
    t = Tree(2, [{1}, {1, 2}], symplectic=True)
    x = sample_stratum(t, basis, rng)
    assert member_residual(t, x, basis) < 1e-10


def test_sample_stratum_inconsistent_raises():
    rng = np.random.default_rng(67)
    basis = SpectralData((4.0, 2.0), np.eye(2))
    with pytest.raises(Inconsistent):
        sample_stratum(Tree(2, [{1}, {1}]), basis, rng)


# ------------------------------------------------- constraint rank checking


def test_rank_deficiency_matches_dimension_exhaustive():
    rng = np.random.default_rng(68)
    basis3 = SpectralData((4.0, 2.0, 1.0), oracles.random_orthogonal(rng, 3))
    for t in enumerate_irreducible(3, 2):
        x = sample_stratum(t, basis3, rng)
        assert constraint_rank_deficiency(t, x, basis3) == dimension(t), t.sets
    basis_sp = SpectralData((4.0, 2.0, 0.25, 0.5), np.eye(4))
    for k in (1, 2):
        for t in enumerate_irreducible(2, k, symplectic=True):
            x = sample_stratum(t, basis_sp, rng)
            assert constraint_rank_deficiency(t, x, basis_sp) == dimension(t), t.sets


def test_rank_deficiency_spot_checks_larger():
    rng = np.random.default_rng(69)
    basis = SpectralData((8.0, 4.0, 2.0, 1.0), oracles.random_orthogonal(rng, 4))
    for sets in ([{1, 2}, {1, 2, 3, 4}], [{2}, {1, 2, 3}, {1, 2, 3}], [{1, 2, 3, 4}] * 3):
        t = Tree(4, sets)
        x = sample_stratum(t, basis, rng)
        assert constraint_rank_deficiency(t, x, basis) == dimension(t)


# -------------------------------------------------------------- enumeration


def test_enumerate_zero_dimensional_counts():
    # strata of dimension zero are counted by falling factorials
    assert sum(1 for t in enumerate_irreducible(3, 1) if dimension(t) == 0) == 3
    assert sum(1 for t in enumerate_irreducible(3, 2) if dimension(t) == 0) == 6
    assert sum(1 for t in enumerate_irreducible(3, 3) if dimension(t) == 0) == 6
    assert sum(1 for t in enumerate_irreducible(4, 2) if dimension(t) == 0) == 12
    assert (
        sum(1 for t in enumerate_irreducible(2, 1, symplectic=True) if dimension(t) == 0)
        == 4
    )
    assert (
        sum(1 for t in enumerate_irreducible(2, 2, symplectic=True) if dimension(t) == 0)
        == 8
    )


def test_enumerate_is_clean_and_deterministic():
    a = enumerate_irreducible(3, 2)
    b = enumerate_irreducible(3, 2)
    assert [t.sets for t in a] == [t.sets for t in b]
    assert len({t.sets for t in a}) == len(a)
    for t in a:
        assert is_consistent(t) and is_irreducible(t)
    assert len(a) == 19


def test_enumerate_limits():
    with pytest.raises(SizeLimitError):
        enumerate_irreducible(7, 2)
    with pytest.raises(SizeLimitError):
        enumerate_irreducible(5, 2, symplectic=True)
    with pytest.raises(BadSizes):
        enumerate_irreducible(3, 0)
    with pytest.raises(BadSizes):
        enumerate_irreducible(3, 4)
    for sp in (False, True):  # bad sizes are reported before the cap
        with pytest.raises(BadSizes):
            enumerate_irreducible(7, 8, symplectic=sp)
        with pytest.raises(BadSizes):
            _irreducible(7, 0, sp)


@pytest.mark.parametrize("n,k", [(True, True), (True, 1), (3, True), (2.0, 1), (3, 1.0)])
@pytest.mark.parametrize("sp", [False, True])
def test_enumerate_rejects_non_integer_sizes(n, k, sp):
    with pytest.raises(BadSizes):
        enumerate_irreducible(n, k, symplectic=sp)
    with pytest.raises(BadSizes):
        _irreducible(n, k, sp)


_ORACLE_SIZES = (
    [(n, k, False) for n in range(1, 6) for k in range(1, n + 1)]
    + [(6, k, False) for k in range(1, 5)]
    + [(n, k, True) for n in range(1, 4) for k in range(1, n + 1)]
    + [(4, k, True) for k in (1, 2)]
)


@pytest.mark.parametrize("n,k,sp", _ORACLE_SIZES)
def test_irreducible_rows_match_mask_scan(n, k, sp):
    rows = _irreducible(n, k, sp)
    want = [(m, dimension(Tree(n, m, sp))) for m in oracles.scan_irreducible(n, k, sp)]
    assert rows == want
    for masks, _ in rows:
        t = Tree(n, masks, sp)
        assert is_consistent(t) and is_irreducible(t)


def test_stratification_axioms_small():
    for n, k, symplectic in ((3, 2, False), (2, 2, True)):
        trees = enumerate_irreducible(n, k, symplectic=symplectic)
        dims = [dimension(t) for t in trees]
        top = max(dims)
        expect_top = k * (2 * n - k) if symplectic else k * (2 * n - k - 1) // 2
        assert top == expect_top
        assert dims.count(top) == 1
        # every stratum below the top sits inside one exactly one dimension up
        for t, d in zip(trees, dims):
            if d == top:
                continue
            assert any(
                contains(s, t) and dimension(s) == d + 1 for s in trees
            ), t.sets
        # strict containment strictly increases dimension
        for t in trees:
            for s in trees:
                if t.sets != s.sets and contains(s, t):
                    assert dimension(s) > dimension(t)


def test_concatenation_adds_dimensions():
    a = Tree(4, [{1, 2}, {1, 2}])
    b = Tree(4, [{3, 4}])
    joint = Tree(4, [{1, 2}, {1, 2}, {3, 4}])
    assert dimension(joint) == dimension(a) + dimension(b)
    sa = Tree(2, [{1, 3}], symplectic=True)
    sb = Tree(2, [{2, 4}], symplectic=True)
    sj = Tree(2, [{1, 3}, {2, 4}], symplectic=True)
    assert dimension(sj) == dimension(sa) + dimension(sb)


# -------------------------------------------------------------- invariance


def test_flow_preserves_strata_general():
    rng = np.random.default_rng(70)
    evecs = oracles.random_orthogonal(rng, 4)
    basis = SpectralData((1.5, 0.6, -0.4, -1.2), evecs)
    for k in (1, 2, 3):
        trees = enumerate_irreducible(4, k)
        picks = rng.choice(len(trees), size=4, replace=False)
        for idx in picks:
            t = trees[int(idx)]
            x = sample_stratum(t, basis, rng)
            y = flow(basis, x, 3.0)
            assert member_residual(t, y, basis) < 1e-8, t.sets


def test_flow_preserves_strata_symplectic():
    rng = np.random.default_rng(71)
    basis = SpectralData((1.0, 0.7, -1.0, -0.7), np.eye(4))
    for t in enumerate_irreducible(2, 2, symplectic=True):
        x = sample_stratum(t, basis, rng)
        y = flow(basis, x, 3.0)
        assert member_residual(t, y, basis) < 1e-8, t.sets


def test_gradient_flow_preserves_nesting_free_strata():
    # trees whose nodes are pairwise disjoint or equal admit an invariant
    # gradient flow; this covers every zero- and one-dimensional stratum.
    # mild gaps keep rounding noise transverse to a repelling stratum
    # (e.g. the last one) from amplifying past the membership tolerance
    rng = np.random.default_rng(72)
    basis = SpectralData((3.0, 1.5, 0.75), np.eye(3))
    b = Weights((1.2, 0.7))
    cfg = FlowConfig(step=1e-2, horizon=3.0, integrator="rk4")
    for sets in ([{1, 2}, {1, 2}], [{1}, {2, 3}], [{2, 3}, {2, 3}]):
        t = Tree(3, sets)
        x = sample_stratum(t, basis, rng)
        y = gradient_flow(basis.matrix(), b, x, cfg)
        assert member_residual(t, y, basis) < 1e-6, t.sets


def test_gradient_field_exits_strictly_nested_stratum():
    # with a strict nesting the gradient field is not tangent to the
    # stratum: starting on it, the flow leaves and settles elsewhere
    rng = np.random.default_rng(73)
    basis = SpectralData((8.0, 2.0, 0.5), np.eye(3))
    b = Weights((1.2, 0.7))
    t = Tree(3, [{2, 3}, {1, 2, 3}])
    x = sample_stratum(t, basis, rng)
    assert member_residual(t, x, basis) < 1e-10
    cfg = FlowConfig(step=1e-3, horizon=10.0, integrator="rk4")
    y = gradient_flow(basis.matrix(), b, x, cfg)
    assert member_residual(t, y, basis) > 0.5
