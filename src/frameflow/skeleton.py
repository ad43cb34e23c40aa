"""Oriented skeleton of the stratified frame space.

Zero-dimensional strata are named by injective words over the
eigendirection labels; one-dimensional strata join exactly the pairs of
words that differ by one elementary move.  Reading each one-dimensional
stratum as an arrow from its repelling end to its attracting end turns
the collection into a finite acyclic graph whose grading by incoming
edges doubles as a combinatorial index of the corresponding rest point.

Labels follow the circular precedence 1, 2, ..., n, 2n, 2n-1, ..., n+1
in the paired (symplectic) setting; in the plain setting the precedence
is just the usual order on 1..n.
"""

import itertools
import json
import math
from dataclasses import dataclass

from .errors import (
    BadSizes,
    Inconsistent,
    NotLinked,
    ShapeMismatch,
    SizeLimit,
    ValidationError,
)
from .strata import Tree, _is_size, is_consistent

__all__ = [
    "Perm",
    "SkeletonGraph",
    "build_graph",
    "index_h",
    "leads_to",
    "linked",
    "one_dim_strata",
    "precedes",
    "singleton_tree",
    "tree_bounds",
]


def _conj(v, n):
    return v + n if v <= n else v - n


def _rank(v, n):
    # position of v in the precedence 1,...,n,2n,...,n+1; identity below n
    return v if v <= n else 3 * n + 1 - v


def _unused(word, n, symplectic):
    """Labels still free beside word, ascending: neither an entry nor, in
    the paired case, the partner of an entry."""
    used = set(word)
    if symplectic:
        used |= {_conj(v, n) for v in word}
    return [j for j in range(1, (2 * n if symplectic else n) + 1) if j not in used]


def _label(word):
    """Name of a word in the CSV and DOT outputs, e.g. "(1 2)"."""
    return "(" + " ".join(map(str, word)) + ")"


_PLAIN_NUMBERS = frozenset((int, float))
_LITERALS = {True: "true", False: "false", None: "null"}
# the line break and indent that open each level of an indent-2 document
_PADS = tuple("\n" + "  " * depth for depth in range(16))


def _dumps(doc, depth=0):
    """The text json.dumps(doc, indent=2) gives for a document of dicts with
    identifier keys, lists, tuples, numbers, bools and None whose first line
    opens depth levels deep; no container may sit deeper than level 14."""
    # repr is the encoder's rule for plain ints and finite floats, and the
    # repr of every non-finite float holds an "n"
    if type(doc) in _PLAIN_NUMBERS:
        text = repr(doc)
        return json.dumps(doc) if "n" in text else text
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        pad = _PADS[depth + 1]
        if _PLAIN_NUMBERS.issuperset(map(type, doc)):
            text = f",{pad}".join(map(repr, doc))
            if "n" not in text:
                return f"[{pad}{text}{_PADS[depth]}]"
        items = f",{pad}".join([_dumps(v, depth + 1) for v in doc])
        return f"[{pad}{items}{_PADS[depth]}]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        pad = _PADS[depth + 1]
        items = f",{pad}".join([f'"{key}": {_dumps(v, depth + 1)}' for key, v in doc.items()])
        return f"{{{pad}{items}{_PADS[depth]}}}"
    if doc is None or type(doc) is bool:
        return _LITERALS[doc]
    return json.dumps(doc)


def _check_sizes(n, k):
    if not _is_size(n) or not _is_size(k) or not 1 <= k <= n:
        raise BadSizes(f"need 1 <= k <= n, got n={n!r}, k={k!r}")


def _words(n, k, symplectic, budget, noun):
    """Every length-k word as a Perm, in lexicographic order.  The count is
    checked against budget first; a SizeLimit calls the words noun."""
    _check_sizes(n, k)
    # a paired word also picks a side of each of its k partner classes
    count = math.perm(n, k) * (2**k if symplectic else 1)
    if count > budget:
        raise SizeLimit(f"{count} {noun} exceed the budget of {budget}")
    return tuple(
        Perm(n, word, symplectic=symplectic)
        for word in itertools.permutations(range(1, (2 * n if symplectic else n) + 1), k)
        if not symplectic or len({(v - 1) % n for v in word}) == k
    )


@dataclass(frozen=True)
class Perm:
    """Injective word picking one eigendirection per frame column.

    Plain words use labels 1..n, all distinct.  Paired words use labels
    1..2n where label v+n marks the partner of direction v, and no two
    entries may name the same partner class.
    """

    n: int
    word: tuple
    symplectic: bool = False

    def __post_init__(self):
        if not _is_size(self.n) or self.n < 1:
            raise ValidationError(f"need a positive label count, got {self.n!r}")
        word = tuple(int(v) for v in self.word)
        object.__setattr__(self, "word", word)
        if not word:
            raise ValidationError("empty word")
        top = 2 * self.n if self.symplectic else self.n
        for v in word:
            if not 1 <= v <= top:
                raise ValidationError(f"entry {v} outside 1..{top}")
        if self.symplectic:
            classes = {(v - 1) % self.n for v in word}
        else:
            classes = set(word)
        if len(classes) != len(word):
            raise ValidationError(f"colliding entries in {word}")

    @property
    def k(self):
        return len(self.word)

    def __repr__(self):
        tag = ", symplectic=True" if self.symplectic else ""
        return f"Perm({self.n}, {self.word}{tag})"


def _check_pair(p, q):
    if not isinstance(p, Perm) or not isinstance(q, Perm):
        raise ValidationError("expected a pair of word vertices")
    if p.n != q.n or p.k != q.k or p.symplectic != q.symplectic:
        raise ShapeMismatch(
            f"incomparable vertices: ({p.n},{p.k},{p.symplectic}) "
            f"vs ({q.n},{q.k},{q.symplectic})"
        )


def linked(p, q):
    """Whether two distinct vertices lie on a common one-dimensional stratum,
    that is, whether one move (a partner flip, a free replacement, an
    in-word switch or a partner switch) turns p's word into q's."""
    _check_pair(p, q)
    return any(_apply(p.word, m) == q.word for m in _moves(p))


def leads_to(p, q):
    """Orientation of the stratum joining two linked vertices.

    True when the connecting flow line leaves p and lands on q; exactly
    one of leads_to(p, q), leads_to(q, p) holds for each linked pair.
    """
    if not linked(p, q):
        raise NotLinked(f"{p.word} and {q.word} are not linked")
    i = next(m for m in range(p.k) if p.word[m] != q.word[m])
    return _rank(p.word[i], p.n) < _rank(q.word[i], p.n)


def precedes(p, q):
    """Covering relation of the reachability order: an ascending link whose
    grading rises by exactly one, leaving no room for a vertex in between.

    A replacement of a at position i by b costs 1 plus one per free label
    strictly between a and b plus two per later word entry strictly between,
    and a switch costs 1 plus two per in-between position holding an
    in-between value, so the unit-cost moves are the covering pairs.

    Returns False (never raises) when the pair is not an ascending link.
    """
    _check_pair(p, q)
    if p.word == q.word or not linked(p, q) or not leads_to(p, q):
        return False
    return index_h(q) == index_h(p) + 1


def index_h(p):
    """Combinatorial grading of a vertex; equals its number of incoming
    edges in the skeleton graph."""
    n, k, word = p.n, p.k, p.word
    r = [_rank(v, n) for v in word]
    free = [_rank(j, n) for j in _unused(word, n, p.symplectic)]
    total = sum(1 for i in range(k) for j in range(i + 1, k) if r[i] > r[j])
    total += sum(1 for rv in r for fj in free if rv > fj)
    if not p.symplectic:
        return total
    total += sum(1 for v in word if _rank(v, n) > _rank(_conj(v, n), n))
    total += sum(
        1
        for i in range(k)
        for j in range(i + 1, k)
        if r[i] > _rank(_conj(word[j], n), n)
    )
    return total


def _moves(p):
    """One-dimensional strata through the vertex p, one move each.

    A move (i, u, j, v) gives column i the label u and, for a switch,
    column j the label v (j = -1 for a one-column move).  The stratum
    leaves p when column i rises in rank, and arrives at p otherwise.

    Family order: partner flips (paired case, position-ascending), free
    replacements (position-major, label-ascending), in-word switches
    (lexicographic pairs), partner switches (paired case, lexicographic).
    """
    n, k, word = p.n, p.k, p.word
    free = _unused(word, n, p.symplectic)
    pairs = list(itertools.combinations(range(k), 2))
    moves = [(i, _conj(v, n), -1, 0) for i, v in enumerate(word)] if p.symplectic else []
    moves += [(i, u, -1, 0) for i in range(k) for u in free]
    moves += [(i, word[j], j, word[i]) for i, j in pairs]
    if p.symplectic:
        moves += [(i, _conj(word[j], n), j, _conj(word[i], n)) for i, j in pairs]
    return moves


def _apply(word, move):
    """The word at the far end of a move."""
    i, u, j, v = move
    w = list(word)
    w[i] = u
    if j >= 0:
        w[j] = v
    return tuple(w)


def _ascents(p):
    """Words of every vertex one ascending move away from p."""
    n, word = p.n, p.word
    return {_apply(word, m) for m in _moves(p) if _rank(word[m[0]], n) < _rank(m[1], n)}


@dataclass(frozen=True)
class SkeletonGraph:
    """Oriented graph whose vertices are injective words and whose edges
    are the one-dimensional strata joining them, pointed along the flow."""

    n: int
    k: int
    symplectic: bool
    vertices: tuple
    edges: tuple  # (tail, head) indices into vertices
    h: tuple  # per-vertex grading, equal to the incoming-edge count

    def to_dot(self):
        names = [_label(p.word) for p in self.vertices]
        lines = ["digraph skeleton {"]
        for name, grade in zip(names, self.h):
            lines.append(f'  "{name}" [label="{name} [H={grade}]"];')
        for a, b in self.edges:
            lines.append(f'  "{names[a]}" -> "{names[b]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        """The bytes of json.dumps(..., indent=2, sort_keys=True) + "\n" of
        the graph's fields."""
        words = [p.word for p in self.vertices]
        doc = {"edges": self.edges, "index": self.h, "k": self.k, "n": self.n,
               "symplectic": self.symplectic, "vertices": words}
        return _dumps(doc) + "\n"


def build_graph(n, k, symplectic=False, max_vertices=100000):
    """Assemble the full skeleton graph on length-k words.

    Vertices are sorted by word; each edge appears once, tail first.  A
    SizeLimit is raised before enumeration whenever the vertex count
    would exceed max_vertices.
    """
    vertices = _words(n, k, symplectic, max_vertices, "vertices")
    where = {p.word: i for i, p in enumerate(vertices)}
    edges = []
    for idx, p in enumerate(vertices):
        edges.extend((idx, where[w]) for w in sorted(_ascents(p)))
    grades = [0] * len(vertices)
    for _, head in edges:
        grades[head] += 1
    return SkeletonGraph(n, k, symplectic, vertices, tuple(edges), tuple(grades))


def singleton_tree(p):
    """Zero-dimensional stratum through a single vertex."""
    return Tree(p.n, [{v} for v in p.word], symplectic=p.symplectic)


def one_dim_strata(p, q):
    """The one-dimensional stratum joining two linked vertices: each node
    collects the entries the two words show at that position."""
    if not linked(p, q):
        raise NotLinked(f"{p.word} and {q.word} are not linked")
    return Tree(p.n, [{a, b} for a, b in zip(p.word, q.word)], symplectic=p.symplectic)


def tree_bounds(t):
    """Least and greatest vertices of a stratum in the reachability order.

    Both are produced by a greedy pass: each position takes the extreme
    admissible label of its node, skipping labels (and, in the paired
    case, partners of labels) already placed earlier in the same bound.
    """
    if not isinstance(t, Tree):
        raise ValidationError("expected a stratum tree")
    if not is_consistent(t):
        raise Inconsistent("empty stratum has no extreme vertices")
    return _extreme(t, min), _extreme(t, max)


def _extreme(t, pick):
    n = t.n
    word = []
    for part in t.sets:
        free = _unused(word, n, t.symplectic)
        avail = [v for v in part if v in free]
        if not avail:
            raise Inconsistent("empty stratum has no extreme vertices")
        word.append(pick(avail, key=lambda v: _rank(v, n)))
    return Perm(n, tuple(word), symplectic=t.symplectic)
