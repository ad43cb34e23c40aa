"""Nested-support trees, the frame strata they cut out of an eigenbasis,
and the combinatorial invariants (depth, dimension, reduction, meet) that
organize those strata into a stratification."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BadIndex,
    BadSizes,
    Inconsistent,
    PreconditionViolated,
    RankDeficient,
    ShapeMismatch,
    SizeLimit,
    ValidationError,
)
from .frames import KIND_ORTHOGONAL, KIND_UNITARY, Frame
from .linalg import _j


def _is_size(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _subset(a, b):
    return a | b == b


def _conj_mask(m, n):
    low = (1 << n) - 1
    return ((m & low) << n) | (m >> n)


@lru_cache(maxsize=1 << 12)
def _elements(m):
    """The 1-based elements of a mask, ascending."""
    return tuple(e + 1 for e in range(m.bit_length()) if m >> e & 1)


@dataclass(frozen=True)
class Tree:
    """A sequence of supports over 1..n (or 1..2n when symplectic), where
    any earlier node is contained in or disjoint from any later node.

    Nodes are stored as bitmasks (element e <-> bit e-1); iterables of
    1-based elements are accepted and converted.
    """

    n: int
    masks: tuple
    symplectic: bool = False

    def __post_init__(self):
        if not _is_size(self.n):
            raise ValidationError(f"ground size must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValidationError(f"ground size must be positive, got {self.n}")
        u = 2 * self.n if self.symplectic else self.n
        full = (1 << u) - 1
        norm = []
        for node in self.masks:
            if isinstance(node, (int, np.integer)):
                m = int(node)
            else:
                m = 0
                for e in node:
                    e = int(e)
                    if not 1 <= e <= u:
                        raise ValidationError(f"element {e} outside 1..{u}")
                    m |= 1 << (e - 1)
            if m == 0:
                raise ValidationError("nodes must be nonempty")
            if m & ~full:
                raise ValidationError(f"node {m:#x} leaves the ground set")
            norm.append(m)
        if not norm:
            raise ValidationError("a tree needs at least one node")
        if len(norm) > self.n:
            raise BadSizes(f"at most {self.n} nodes allowed, got {len(norm)}")
        for i in range(len(norm)):
            for j in range(i + 1, len(norm)):
                a, b = norm[i], norm[j]
                if a & b and not _subset(a, b):
                    raise ValidationError(
                        f"nodes {i + 1} and {j + 1} overlap without containment"
                    )
                if self.symplectic:
                    c = _conj_mask(a, self.n)
                    if c & b and not _subset(c, b):
                        raise ValidationError(
                            f"partner of node {i + 1} clashes with node {j + 1}"
                        )
        object.__setattr__(self, "masks", tuple(norm))

    @property
    def k(self):
        return len(self.masks)

    @property
    def universe(self):
        return 2 * self.n if self.symplectic else self.n

    @property
    def sets(self):
        return tuple(_elements(m) for m in self.masks)

    def __repr__(self):
        tag = ", symplectic" if self.symplectic else ""
        body = ", ".join("{" + ",".join(map(str, s)) + "}" for s in self.sets)
        return f"Tree(n={self.n}{tag}; {body})"


def _check_index(t, i):
    if not 1 <= i <= t.k:
        raise BadIndex(f"node index must be in 1..{t.k}, got {i}")


def card(t, i):
    """Number of elements in node i (1-based)."""
    _check_index(t, i)
    return t.masks[i - 1].bit_count()


def depth(t, i):
    """How many earlier nodes are contained in node i."""
    _check_index(t, i)
    m = t.masks[i - 1]
    return sum(1 for s in t.masks[: i - 1] if _subset(s, m))


def codepth(t, i):
    """How many earlier nodes have their skew partner inside node i."""
    _check_index(t, i)
    if not t.symplectic:
        return 0
    m = t.masks[i - 1]
    return sum(1 for s in t.masks[: i - 1] if _subset(_conj_mask(s, t.n), m))


def kappa(t):
    """Total number of containing pairs."""
    return sum(depth(t, i) for i in range(1, t.k + 1))


def mu(t):
    """Total number of partner-containing pairs (zero when not symplectic)."""
    return sum(codepth(t, i) for i in range(1, t.k + 1))


def is_consistent(t):
    """Whether every node is large enough for its forced directions; this
    is exactly nonemptiness of the stratum."""
    return all(
        depth(t, i) + codepth(t, i) + 1 <= card(t, i) for i in range(1, t.k + 1)
    )


def is_full(t, i):
    """Node i admits no freedom: forced directions exhaust its size."""
    _check_index(t, i)
    return depth(t, i) + codepth(t, i) + 1 == card(t, i)


def _forces(t, i):
    """Node i pins down the whole eigenspace of its conjugation-saturated
    hull, so later nodes cannot use any of it.

    Without a skew form this is exactly fullness.  With one, the forced
    span S at node i (earlier contained columns, earlier partner columns,
    and the column itself) meets J*S in 2*beta dimensions, where beta
    counts earlier nodes contained both plainly and through their partner;
    S + J*S covers E over the hull of P_i iff the count below balances.
    A node meeting its own partner set (e.g. a conjugate pair {e, e+n})
    can force saturation without being full.
    """
    _check_index(t, i)
    if not t.symplectic:
        return depth(t, i) + 1 == card(t, i)
    m = t.masks[i - 1]
    cm = _conj_mask(m, t.n)
    beta = sum(
        1
        for s in t.masks[: i - 1]
        if _subset(s, m) and _subset(_conj_mask(s, t.n), m)
    )
    forced = depth(t, i) + codepth(t, i) + 1
    return 2 * (forced - beta) == 2 * card(t, i) - (m & cm).bit_count()


def is_root(t, i):
    """No later node absorbs node i (or, when symplectic, its partner)."""
    _check_index(t, i)
    m = t.masks[i - 1]
    later = t.masks[i:]
    if any(_subset(m, s) for s in later):
        return False
    if t.symplectic:
        c = _conj_mask(m, t.n)
        if any(_subset(c, s) for s in later):
            return False
    return True


def is_irreducible(t):
    """Every saturating node is a root; irreducible trees label strata
    uniquely."""
    return all(is_root(t, i) for i in range(1, t.k + 1) if _forces(t, i))


def reduce_tree(t):
    """Shrink later nodes by the forced content of saturating non-root nodes
    until the tree is irreducible.  The stratum is unchanged."""
    if not is_consistent(t):
        raise Inconsistent(f"{t!r} has an empty stratum")
    masks = list(t.masks)
    while True:
        cur = Tree(t.n, tuple(masks), t.symplectic)
        target = None
        for i in range(1, cur.k + 1):
            if _forces(cur, i) and not is_root(cur, i):
                target = i
                break
        if target is None:
            return cur
        m = masks[target - 1]
        forced = m | _conj_mask(m, t.n) if t.symplectic else m
        cm = _conj_mask(m, t.n) if t.symplectic else 0
        for j in range(target, len(masks)):
            hit = _subset(m, masks[j]) or (t.symplectic and _subset(cm, masks[j]))
            if hit:
                masks[j] &= ~forced
                if masks[j] == 0:
                    raise Inconsistent("reduction emptied a node")


def dimension(t):
    """Dimension of the stratum: total node size minus one unit per node and
    per (partner-)containing pair."""
    if not is_consistent(t):
        raise Inconsistent(f"{t!r} has an empty stratum")
    total = sum(card(t, i) for i in range(1, t.k + 1))
    return total - t.k - kappa(t) - (mu(t) if t.symplectic else 0)


def _same_shape(t, s):
    if t.n != s.n or t.k != s.k or t.symplectic != s.symplectic:
        raise ShapeMismatch(
            f"trees differ in shape: ({t.n},{t.k},{t.symplectic}) vs "
            f"({s.n},{s.k},{s.symplectic})"
        )


def contains(t, s):
    """Componentwise containment of node sets; on irreducible trees this is
    the closure order of the strata."""
    _same_shape(t, s)
    return all(_subset(a, b) for a, b in zip(s.masks, t.masks))


def meet(t, s):
    """Infimum: the reduced componentwise intersection, or None when the
    strata cannot intersect."""
    _same_shape(t, s)
    inter = [a & b for a, b in zip(t.masks, s.masks)]
    if any(m == 0 for m in inter):
        return None
    cand = Tree(t.n, tuple(inter), t.symplectic)
    if not is_consistent(cand):
        return None
    return reduce_tree(cand)


def _check_frame_against(t, x, basis):
    if basis.n != t.universe:
        raise ShapeMismatch(
            f"basis lives in dimension {basis.n}, tree ground set has {t.universe}"
        )
    if x is not None:
        if x.n != t.universe:
            raise ShapeMismatch(f"frame ambient {x.n} != ground size {t.universe}")
        if x.k != t.k:
            raise ShapeMismatch(f"frame has {x.k} columns, tree has {t.k} nodes")


def member_residual(t, x, basis):
    """Largest off-support coefficient mass of any column of x in the
    eigenbasis; zero exactly on the stratum."""
    _check_frame_against(t, x, basis)
    coords = basis.evecs.T @ x.mat
    worst = 0.0
    for i, m in enumerate(t.masks):
        off = [e for e in range(t.universe) if not m >> e & 1]
        if off:
            worst = max(worst, float(np.linalg.norm(coords[off, i])))
    return worst


def member(t, x, basis, tol=1e-8):
    return member_residual(t, x, basis) <= tol


def _j_compatible(basis, n):
    j = _j(n)
    return np.allclose(j @ basis.evecs[:, :n], basis.evecs[:, n:], atol=1e-8)


def sample_stratum(t, basis, rng, max_tries=20):
    """Draw a random frame of the stratum: each column is a random vector of
    its node's eigenspace, made orthogonal to the forced directions of the
    earlier columns."""
    if not is_consistent(t):
        raise Inconsistent(f"{t!r} has an empty stratum")
    _check_frame_against(t, None, basis)
    if t.symplectic and not _j_compatible(basis, t.n):
        raise PreconditionViolated(
            "eigenbasis must map to itself under the skew form (column i to i+n)"
        )
    evecs = basis.evecs
    j = _j(t.n) if t.symplectic else None
    for _ in range(max_tries):
        cols = []
        ok = True
        for i, m in enumerate(t.masks):
            idx = [e for e in range(t.universe) if m >> e & 1]
            w = evecs[:, idx] @ rng.standard_normal(len(idx))
            for p in range(i):
                if _subset(t.masks[p], m):
                    w -= (cols[p] @ w) * cols[p]
                if t.symplectic and _subset(_conj_mask(t.masks[p], t.n), m):
                    jc = j @ cols[p]
                    w -= (jc @ w) * jc
            nrm = np.linalg.norm(w)
            if nrm < 1e-6:
                ok = False
                break
            cols.append(w / nrm)
        if ok:
            kind = KIND_UNITARY if t.symplectic else KIND_ORTHOGONAL
            return Frame(np.column_stack(cols), kind)
    raise RankDeficient("could not draw a well-conditioned stratum point")


def constraint_rank_deficiency(t, x, basis):
    """Corank at x of the constraint map that carves the stratum out of the
    product of its node eigenspaces.

    The domain restricts each column's motion to its own eigenspace; the
    constraints are the column norms, the orthogonality of containing pairs,
    and (symplectic) the isotropy against partner-containing pairs.  For a
    generic stratum point the returned corank equals dimension(t).
    """
    _check_frame_against(t, x, basis)
    u = t.universe
    evecs = basis.evecs
    idx = [[e for e in range(u) if m >> e & 1] for m in t.masks]
    offsets = np.cumsum([0] + [len(ix) for ix in idx])
    dom = int(offsets[-1])
    jmat = _j(t.n) if t.symplectic else None
    rows = []

    def coeff(col_vec, node, row):
        # derivative coefficients of <col_vec, x_node> w.r.t. the allowed
        # motions of column node
        for pos, e in enumerate(idx[node]):
            row[offsets[node] + pos] += float(col_vec @ evecs[:, e])

    for i in range(t.k):
        row = np.zeros(dom)
        coeff(2.0 * x.mat[:, i], i, row)
        rows.append(row)
    for i in range(t.k):
        for jn in range(i + 1, t.k):
            if _subset(t.masks[i], t.masks[jn]):
                row = np.zeros(dom)
                coeff(x.mat[:, i], jn, row)
                coeff(x.mat[:, jn], i, row)
                rows.append(row)
            if t.symplectic and _subset(_conj_mask(t.masks[i], t.n), t.masks[jn]):
                row = np.zeros(dom)
                coeff(jmat @ x.mat[:, i], jn, row)
                for pos, e in enumerate(idx[i]):
                    row[offsets[i] + pos] += float(
                        (jmat @ evecs[:, e]) @ x.mat[:, jn]
                    )
                rows.append(row)
    mat = np.array(rows)
    return dom - int(np.linalg.matrix_rank(mat))


_ENUM_MAX_N = 6
_ENUM_MAX_N_SYMPLECTIC = 4


def _absorb(comps, block, forces):
    """The disjoint components (mask, blocks held, holds a saturating node)
    after block joins every component it overlaps."""
    held = 1
    keep = []
    for c in comps:
        if c[0] & block:
            block |= c[0]
            held += c[1]
            forces = forces or c[2]
        else:
            keep.append(c)
    keep.append((block, held, forces))
    return keep


def _irreducible(n, k, symplectic=False):
    """Rows (masks, dim) of every irreducible consistent tree with k nodes,
    in levelwise mask-ascending order.

    A prefix splits the ground set into units: the overlap components of
    its blocks (each node and, when symplectic, its partner) and the free
    elements.  A later node meets a block only by containing it, so the
    candidates are exactly the nonempty unions of units, less the
    components that hold a saturating node.  A component holding h blocks
    adds h to the depth plus codepth of any node that takes it.
    """
    if not _is_size(n) or not _is_size(k) or not 1 <= k <= n:
        raise BadSizes(f"need 1 <= k <= n, got k={k!r}, n={n!r}")
    cap = _ENUM_MAX_N_SYMPLECTIC if symplectic else _ENUM_MAX_N
    if n > cap:
        raise SizeLimit(f"enumeration limited to n <= {cap}")
    full = (1 << (2 * n if symplectic else n)) - 1
    rows = []
    seen = {}

    def candidates(comps):
        # (mask, size, depth + codepth) of each union of units that passes
        # the consistency check, mask-ascending, built once per component
        # structure (82% of lookups hit at the strata-enum sizes)
        key = frozenset(comps)
        if key in seen:
            return seen[key]
        cands = [(0, 0, 0)]
        free = full
        for um, held, saturated in comps:
            free &= ~um
            if not saturated:
                size = um.bit_count()
                cands += [(m | um, s + size, f + held) for m, s, f in cands]
        while free:
            bit = free & -free
            free ^= bit
            cands += [(m | bit, s + 1, f) for m, s, f in cands]
        cands.sort()
        seen[key] = out = [(m, s, f) for m, s, f in cands[1:] if f + 1 <= s]
        return out

    def extend(masks, comps, hulls, dim):
        # hulls: node | partner per prefix node, for beta
        if len(masks) + 1 == k:
            rows.extend([
                (masks + (m,), dim + size - 1 - forced)
                for m, size, forced in candidates(comps)
            ])
            return
        for m, size, forced in candidates(comps):
            cm = _conj_mask(m, n) if symplectic else 0
            beta = sum(1 for h in hulls if h & m == h)
            # _forces; with no partners (cm = 0, no hulls) it is fullness
            forces = 2 * (forced + 1 - beta) == 2 * size - (m & cm).bit_count()
            comps_next = _absorb(comps, m, forces)
            hulls_next = hulls
            if symplectic:
                comps_next = _absorb(comps_next, cm, forces)
                hulls_next = hulls + [m | cm]
            extend(masks + (m,), comps_next, hulls_next, dim + size - 1 - forced)

    extend((), [], [], 0)
    return rows


def enumerate_irreducible(n, k, symplectic=False):
    """All irreducible consistent trees with k nodes, in a deterministic
    (levelwise mask-ascending) order."""
    return tuple(Tree(n, masks, symplectic) for masks, _ in _irreducible(n, k, symplectic))
