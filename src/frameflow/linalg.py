"""Core matrix operations: sign-fixed QR, the triangular bracket used by
QR-style calculus, Hilbert-Schmidt inner products and tangent projections."""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# The LAPACK gufuncs behind numpy.linalg.qr (geqrf, then orgqr).  Called
# directly they give the same bits without the wrapper, whose checks
# _as_matrix makes and whose triu dominates on small frames.  The module is
# private to numpy; test_qr_bitwise_equals_sign_fixed_numpy_qr pins the
# equivalence.
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import qr_r_raw as _geqrf
from numpy.linalg._umath_linalg import qr_reduced as _orgqr

from .errors import (
    NonSquare,
    NotUnitaryFrame,
    OddAmbient,
    RankDeficient,
    ShapeMismatch,
)


@dataclass(frozen=True)
class Tolerance:
    absolute: float = 1e-10
    relative: float = 1e-8


DEFAULT_TOL = Tolerance()
# the entrywise tolerance of a frame's Gram and isotropy tests
_FRAME_ATOL = 1e-8


class QRPair(NamedTuple):
    q: np.ndarray
    r: np.ndarray


def _as_matrix(x, name="x"):
    m = np.asarray(x, dtype=float)
    if m.ndim != 2:
        raise ShapeMismatch(f"{name} must be a 2-d array, got ndim={m.ndim}")
    return m


def _same_shape(x, y, names="xb"):
    """x and y as float matrices of one shape; names are theirs in errors."""
    x, y = _as_matrix(x, names[0]), _as_matrix(y, names[1])
    if y.shape != x.shape:
        raise ShapeMismatch(f"shapes differ: {x.shape} vs {y.shape}")
    return x, y


def _raise_qr_error(err, flag):
    # numpy.linalg.qr's reaction to a LAPACK failure
    raise LinAlgError("Incorrect argument found while performing QR factorization")


@lru_cache(maxsize=None)
def _tri_masks(n):
    """The diagonal and the strictly lower triangle of n x n, read-only."""
    diag, lower = np.eye(n, dtype=bool), np.tri(n, k=-1, dtype=bool)
    diag.flags.writeable = lower.flags.writeable = False
    return diag, lower


def qr_positive(x, tol=DEFAULT_TOL):
    """Thin QR factorization normalized so the triangular factor has a
    strictly positive diagonal.  Returns (q, r) with x = q @ r.

    Raises RankDeficient when some diagonal entry is negligible relative to
    the corresponding input column.
    """
    x = _as_matrix(x)
    n, k = x.shape
    if k > n:
        raise ShapeMismatch(f"need at least as many rows as columns, got {n}x{k}")
    q, a, sign = _qr_q(x, tol)
    return QRPair(q, np.where(_tri_masks(k)[1], 0.0, a[:k]) * sign[:, None])


def _qr_q(x, tol=DEFAULT_TOL):
    """qr_positive's q for a float n x k matrix x (k <= n), without forming r;
    also returns geqrf's output a (r unsigned, on and above its diagonal) and the signs."""
    q, a = _householder(x)
    d = a.diagonal()
    bad = _dependent(d, (x * x).sum(axis=0), tol)
    if bad.any():
        raise _rank_error(bad)
    sign = np.where(d < 0.0, -1.0, 1.0)
    q *= sign
    return q, a, sign


@np.errstate(call=_raise_qr_error, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _householder(x):
    """geqrf, then orgqr, on a copy of x: q before the sign fix, and
    geqrf's output (r unsigned, on and above its diagonal)."""
    a = x.copy()  # geqrf overwrites it with r and the Householder vectors
    tau = _geqrf(a, signature="d->d")
    return _orgqr(a, tau, signature="dd->d"), a


def _dependent(d, sumsq, tol):
    """The rank test of a QR: whether each diagonal entry d of r is
    negligible beside its column of x, whose squares sum to sumsq.  d and
    sumsq are (..., k), for one matrix or a stack of them."""
    return np.abs(d) < tol.absolute * np.maximum(1.0, np.sqrt(sumsq))


def _rank_error(bad):
    """The RankDeficient of one matrix's failed rank test."""
    return RankDeficient(f"columns {np.nonzero(bad)[0].tolist()} numerically dependent")


def tri_left(x):
    """Triangular bracket: keep the diagonal, symmetrize above it, zero below.

    For square x this is triu(x + x^T, 1) + diag(x); it satisfies
    t + t^T = x + x^T and vanishes on skew-symmetric input.  A stack of
    square matrices (..., n, n) is bracketed matrix by matrix.
    """
    x = np.asarray(x, dtype=float) + 0.0  # -0.0 to 0.0, as triu(...) + diag(...) does
    if x.ndim < 2:
        raise ShapeMismatch(f"x must be a matrix or a stack of them, got ndim={x.ndim}")
    if x.shape[-2] != x.shape[-1]:
        raise NonSquare(f"triangular bracket needs a square matrix, got {x.shape}")
    diag, lower = _tri_masks(x.shape[-1])
    t = x + x.mT
    np.copyto(t, x, where=diag)
    np.copyto(t, 0.0, where=lower)
    return t


def tangent_qr(x, v, tol=DEFAULT_TOL):
    """Split a direction v at full-rank x into QR-factor derivatives.

    With x = q r the thin positive QR, returns (v0, v1) such that
    v = v0 @ r + q @ v1, where v0 is the derivative of the Q-factor map
    along v (tangent at q: q^T v0 skew) and v1 is upper triangular.
    """
    x = _as_matrix(x)
    v = _as_matrix(v, "v")
    if v.shape != x.shape:
        raise ShapeMismatch(f"direction shape {v.shape} != base shape {x.shape}")
    q, r = qr_positive(x, tol)
    # y = v r^{-1} via a triangular solve on the transposed system
    y = np.linalg.solve(r.T, v.T).T
    g = tri_left(q.T @ y)
    v0 = y - q @ g
    v1 = g @ r
    return v0, v1


def hs_inner(e, f):
    """Trace inner product scaled by the number of columns, so that every
    orthonormal frame has norm one."""
    e, f = _same_shape(e, f, "ef")
    return float(_vdots(e, f)) / e.shape[1]


def hs_norm(e):
    """sqrt(hs_inner(e, e)), finite whenever it fits in a float."""
    return float(_hs_norms(_as_matrix(e, "e")))


def _vdots(e, f):
    """np.vdot of two matrices (n, k), or of each pair in two stacks of
    them (..., n, k), with its bits and, as vdot, without floating-point
    warnings: the (1, nk) @ (nk, 1) product runs vdot's dot kernel."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (e.reshape(*e.shape[:-2], 1, -1) @ f.reshape(*f.shape[:-2], -1, 1))[..., 0, 0]


def _hs_norms(e):
    """hs_norm of a matrix (n, k) or of each in a stack (..., n, k), with its
    bits.  A finite matrix whose sum of squares overflows is scaled by its
    largest entry first, so its norm is finite whenever it fits in a float."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = _vdots(e, e)
        norms = np.sqrt(np.maximum(sq / e.shape[-1], 0.0))
        big = np.isinf(sq) & np.isfinite(e).all(axis=(-2, -1))
        if big.any():  # the other matrices' scaled norms are dropped
            s = np.abs(e).max(axis=(-2, -1))
            norms = np.where(big, s * _hs_norms(e / s[..., None, None]), norms)
    return norms


def proj_tangent_orth(x, b):
    """Orthogonal projection of an ambient matrix b onto the tangent space
    of the orthonormal-frame manifold at the frame x."""
    x, b = _same_shape(x, b)
    xtb = x.T @ b
    return 0.5 * x @ (xtb - xtb.T) + b - x @ xtb


def proj_normal_orth(x, b):
    """Complementary projection onto the normal space at x."""
    return _as_matrix(b, "b") - proj_tangent_orth(x, b)


def symplectic_j(n):
    """Standard skew form on 2n coordinates: block [[0, -I], [I, 0]]."""
    if n < 1:
        raise ShapeMismatch("n must be positive")
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


@lru_cache(maxsize=None)
def _j(n):
    """symplectic_j(n) built once per n and read-only, the J that every
    check, retract and projection in the package reads."""
    j = symplectic_j(n)
    j.setflags(write=False)
    return j


def _orthonormal(m):
    """Whether the columns of m are orthonormal: its Gram matrix is the
    identity up to _FRAME_ATOL (and np.allclose's relative part, which only
    widens the diagonal).  NaN and inf entries fail."""
    return np.allclose(m.mT @ m, np.eye(m.shape[-1]), atol=_FRAME_ATOL)


def _isotropy_defect(m):
    """The largest |m^T j m| entry of a matrix with an even number of rows,
    or of each matrix in a stack of them; 0 for no columns."""
    return np.abs(m.mT @ _j(m.shape[-2] // 2) @ m).max(axis=(-2, -1), initial=0.0)


def proj_tangent_unitary(x, b):
    """Orthogonal projection onto the tangent space of the isotropic
    (unitary-group) frame manifold at x.

    Requires x to have orthonormal, pairwise isotropic columns in an
    even-dimensional ambient space.
    """
    x, b = _same_shape(x, b)
    if x.shape[0] % 2:
        raise OddAmbient(f"ambient dimension {x.shape[0]} is odd")
    j = _j(x.shape[0] // 2)
    if not (_orthonormal(x) and _isotropy_defect(x) <= _FRAME_ATOL):
        raise NotUnitaryFrame("columns must be orthonormal and pairwise isotropic")
    xtb = x.T @ b
    xjb = x.T @ j @ b
    skew = 0.5 * (xtb - xtb.T)
    sym = -0.5 * (xjb + xjb.T)
    rest = b - x @ xtb + j @ x @ (x.T @ (j @ b))
    return x @ skew + j @ x @ sym + rest
