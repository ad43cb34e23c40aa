"""Orthonormal frames, the QR compression of the linear group action on
them, truncation to shorter frames, and the induced flags."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadIndex,
    NotUnitaryFrame,
    OddAmbient,
    ShapeMismatch,
    SignatureMismatch,
    Singular,
    ValidationError,
)
from .linalg import (
    _FRAME_ATOL,
    DEFAULT_TOL,
    _dependent,
    _householder,
    _isotropy_defect,
    _orthonormal,
    _rank_error,
    hs_norm,
)

KIND_ORTHOGONAL = "orthogonal"
KIND_UNITARY = "unitary"
_KINDS = (KIND_ORTHOGONAL, KIND_UNITARY)

class Frame:
    """A tuple of orthonormal columns in n-space.

    kind "orthogonal" is a point of the real frame manifold; kind "unitary"
    additionally requires the columns to be pairwise isotropic for the
    standard skew form (even ambient dimension).
    """

    __slots__ = ("_mat", "_kind")

    def __init__(self, mat, kind=KIND_ORTHOGONAL):
        m = np.array(mat, dtype=float)
        if m.ndim != 2:
            raise ShapeMismatch(f"frame matrix must be 2-d, got ndim={m.ndim}")
        n, k = m.shape
        if not 1 <= k <= n:
            raise ShapeMismatch(f"need 1 <= columns <= rows, got {n}x{k}")
        if kind not in _KINDS:
            raise ValidationError(f"unknown frame kind {kind!r}")
        if not _orthonormal(m):
            raise ValidationError("columns are not orthonormal")
        if kind == KIND_UNITARY:
            if n % 2:
                raise OddAmbient(f"unitary frames need even ambient dimension, got {n}")
            if _isotropy_defect(m) > _FRAME_ATOL:
                raise NotUnitaryFrame("columns are not pairwise isotropic")
        m.setflags(write=False)
        self._mat = m
        self._kind = kind

    @classmethod
    def _trusted(cls, m, kind):
        """A frame on m, one of the kind by construction: unchecked, m made read-only."""
        x = object.__new__(cls)
        m.setflags(write=False)
        x._mat, x._kind = m, kind
        return x

    @property
    def mat(self):
        return self._mat

    @property
    def kind(self):
        return self._kind

    @property
    def n(self):
        return self._mat.shape[0]

    @property
    def k(self):
        return self._mat.shape[1]

    def __repr__(self):
        return f"Frame(n={self.n}, k={self.k}, kind={self._kind!r})"


def act(a, x, tol=DEFAULT_TOL):
    """Move the frame x by the invertible matrix a: orthonormalize the
    columns of a @ x by thin QR and keep the Q factor.

    This is a left action: act(b, act(a, x)) == act(b @ a, x).
    """
    (y,) = _act_steps(_invertible(a, x.n, tol), x, 1, tol)
    return y


def _invertible(a, n, tol=DEFAULT_TOL):
    """a as an n x n float matrix; raises Singular unless it is finite and
    its singular values stay above tol.relative times the largest."""
    a = np.asarray(a, dtype=float)
    if a.shape != (n, n):
        raise ShapeMismatch(f"need a {n}x{n} matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise Singular("matrix has non-finite entries")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= tol.relative * sv[0]:
        raise Singular("matrix is numerically singular")
    return a


def _act_steps(a, x, count, tol=DEFAULT_TOL):
    """Yield the count frames of the steps y -> act(a, y) from x, for an a
    that passed _invertible, and raise act's error at the step it fails.

    The steps run as one block.  Each one tests its q for finiteness, so
    no step runs on a NaN frame.  The rank test, and the isotropy test of
    unitary frames, run once on the block's stacks, in act's order per
    step: rank, finiteness, isotropy.  The frames before the first failing
    step come out, then its error; an error raised while stepping comes
    after the frames of the steps before it, once they are checked.
    """
    ys = np.empty((count, *x.mat.shape))  # each step's a @ q, for the rank test
    q, diags, qs, err = x.mat, [], [], None
    try:
        for y in ys:
            np.matmul(a, q, out=y)
            q, r = _householder(y)
            d = r.diagonal()
            np.negative(q, out=q, where=d < 0.0)  # the positive-diagonal signs
            diags.append(d)
            # qr_positive lets NaN through; a finite q is orthogonal, so the
            # sum of its squares is finite exactly when q is
            if not math.isfinite(np.vdot(q, q)):
                break
            qs.append(q)
    except Exception as exc:
        err = exc
    done = len(diags)
    with np.errstate(over="ignore"):  # an overflowed column is rank-deficient
        bad = _dependent(np.array(diags).reshape(done, x.k),
                         (ys[:done] * ys[:done]).sum(axis=1), tol)
    fail = bad.any(axis=1)
    fail[len(qs):] = True  # the step whose q is not finite
    if x.kind == KIND_UNITARY and qs:
        fail[:len(qs)] |= ~(_isotropy_defect(np.array(qs)) <= _FRAME_ATOL)
    stop = int(fail.argmax()) if fail.any() else done
    for q in qs[:stop]:
        yield Frame._trusted(q, x.kind)
    if stop < done:
        if bad[stop].any():
            raise _rank_error(bad[stop])
        if stop == len(qs):
            raise ValidationError("columns are not orthonormal")
        raise NotUnitaryFrame("columns are not pairwise isotropic")
    if err is not None:
        raise err


def truncate(x, k2):
    """Keep the first k2 columns of the frame."""
    if not 1 <= k2 <= x.k:
        raise BadIndex(f"k2 must be in 1..{x.k}, got {k2}")
    return Frame(x.mat[:, :k2], x.kind)


@dataclass(frozen=True)
class Signature:
    """Strictly increasing subspace dimensions of a flag."""

    parts: tuple

    def __post_init__(self):
        p = tuple(int(v) for v in self.parts)
        object.__setattr__(self, "parts", p)
        if not p:
            raise ValidationError("signature needs at least one part")
        if p[0] < 1 or any(a >= b for a, b in zip(p, p[1:])):
            raise ValidationError(f"signature must increase strictly from >= 1, got {p}")


@dataclass(frozen=True)
class Flag:
    """Nested subspaces spanned by leading columns of a frame."""

    mat: np.ndarray
    signature: Signature

    @property
    def n(self):
        return self.mat.shape[0]


def to_flag(x, signature):
    """Forget the frame down to the flag of its leading-column spans."""
    top = signature.parts[-1]
    if top > x.k:
        raise ShapeMismatch(f"signature needs {top} columns, frame has {x.k}")
    return Flag(x.mat[:, :top], signature)


def flag_distance(u, v):
    """Largest Hilbert-Schmidt distance between matching subspace
    projectors of two flags with the same signature."""
    if u.signature != v.signature:
        raise SignatureMismatch(f"{u.signature.parts} vs {v.signature.parts}")
    if u.n != v.n:
        raise ShapeMismatch(f"ambient dimensions differ: {u.n} vs {v.n}")
    worst = 0.0
    for part in u.signature.parts:
        a = u.mat[:, :part]
        b = v.mat[:, :part]
        worst = max(worst, hs_norm(a @ a.T - b @ b.T))
    return worst


def is_isotropic(x, atol=_FRAME_ATOL):
    """Whether the columns pairwise annihilate under the standard skew form."""
    m = np.asarray(x.mat if isinstance(x, Frame) else x, dtype=float)
    n = m.shape[0]
    if n % 2:
        raise OddAmbient(f"ambient dimension {n} is odd")
    return bool(_isotropy_defect(m) <= atol)


def frame_to_json(x):
    """Serialize a frame to a deterministic JSON document (17 significant
    digits, row-major entries)."""
    entries = ", ".join(f"{v:.17g}" for v in x.mat.ravel())
    return (
        f'{{"n": {x.n}, "k": {x.k}, "kind": "{x.kind}", "entries": [{entries}]}}'
    )


def frame_from_json(text):
    try:
        doc = json.loads(text)
        n, k = doc["n"], doc["k"]
        kind = doc["kind"]
        entries = [float(v) for v in doc["entries"]]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed frame document: {exc}") from exc
    for name, v in (("n", n), ("k", k)):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ValidationError(f"frame document needs a positive integer {name}, got {v!r}")
    if len(entries) != n * k:
        raise ShapeMismatch(f"expected {n * k} entries, got {len(entries)}")
    return Frame(np.array(entries).reshape(n, k), kind)
