"""One-parameter QR flows, weighted quadratic energies, their gradients,
and the Lyapunov audit that certifies monotonicity along a companion flow."""

import json
import math
from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    Divergence,
    NotProjector,
    PreconditionViolated,
    RankDeficient,
    ShapeMismatch,
    ValidationError,
    WeightsNotStrict,
)
from .frames import KIND_UNITARY, Frame, _act_checked, _invertible
from .linalg import hs_norm, qr_positive, symplectic_j, tri_left

_SIMPLE_GAP = 1e-10
_MONOTONE_SLACK = 1e-10
# a field of norm f raises the energy by at least ~0.1 f^2 dt per step for
# the eigenbases used here, so smaller increments expose a genuine flat spot
_STALL_FACTOR = 0.1
_STALL_WINDOW = 50
_STATIONARY_NORM = 1e-6
_DRIFT_LIMIT = 1e-3


@dataclass(frozen=True)
class SpectralData:
    """A symmetric matrix given by its eigenvalues and orthonormal
    eigenvector columns."""

    evals: tuple
    evecs: np.ndarray

    def __post_init__(self):
        vals = tuple(float(v) for v in self.evals)
        vecs = np.array(self.evecs, dtype=float)
        if vecs.ndim != 2 or vecs.shape[0] != vecs.shape[1]:
            raise ValidationError(f"eigenvector matrix must be square, got {vecs.shape}")
        if len(vals) != vecs.shape[0]:
            raise ValidationError(
                f"{len(vals)} eigenvalues for a {vecs.shape[0]}-dimensional basis"
            )
        if not np.allclose(vecs.T @ vecs, np.eye(vecs.shape[0]), atol=1e-8):
            raise ValidationError("eigenvector columns are not orthonormal")
        vecs.setflags(write=False)
        object.__setattr__(self, "evals", vals)
        object.__setattr__(self, "evecs", vecs)

    @property
    def n(self):
        return len(self.evals)

    @property
    def is_simple(self):
        vals = sorted(self.evals)
        return all(b - a > _SIMPLE_GAP for a, b in zip(vals, vals[1:]))

    @property
    def is_ordered(self):
        return all(a > b for a, b in zip(self.evals, self.evals[1:]))

    def matrix(self):
        lam = np.asarray(self.evals)
        return (self.evecs * lam) @ self.evecs.T

    def exp(self, t=1.0):
        lam = np.exp(t * np.asarray(self.evals))
        return (self.evecs * lam) @ self.evecs.T


def default_spectral(n, symplectic=False):
    """Well-separated reference spectrum: powers of two, identity basis.

    The plain scheme has unit determinant; the symplectic scheme pairs each
    of the n leading values with its reciprocal n slots later.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    if symplectic:
        lead = [2.0 ** (n + 1 - i) for i in range(1, n + 1)]
        vals = lead + [1.0 / v for v in lead]
        return SpectralData(tuple(vals), np.eye(2 * n))
    vals = [2.0 ** (n + 1 - 2 * i) for i in range(1, n + 1)]
    return SpectralData(tuple(vals), np.eye(n))


@dataclass(frozen=True)
class Weights:
    """Nonincreasing positive column weights of the quadratic energy."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValidationError("need at least one weight")
        if any(v <= 0.0 for v in vals):
            raise ValidationError(f"weights must be positive, got {vals}")
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise ValidationError(f"weights must not increase, got {vals}")

    @property
    def k(self):
        return len(self.values)

    @property
    def is_strict(self):
        return all(a > b for a, b in zip(self.values, self.values[1:]))


_INTEGRATORS = ("exact", "rk4")


@dataclass(frozen=True)
class FlowConfig:
    step: float = 1e-2
    horizon: float = 10.0
    integrator: str = "exact"

    def __post_init__(self):
        for name in ("step", "horizon"):
            v = getattr(self, name)
            if not v > 0.0:
                raise ValidationError(f"{name} must be positive, got {v}")
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v}")
        if self.step > self.horizon:
            raise ValidationError("step must not exceed horizon")
        if self.integrator not in _INTEGRATORS:
            raise ValidationError(
                f"integrator must be one of {_INTEGRATORS}, got {self.integrator!r}"
            )


def _as_sym(a, n):
    m = a.matrix() if isinstance(a, SpectralData) else np.asarray(a, dtype=float)
    if m.shape != (n, n):
        raise ShapeMismatch(f"need a {n}x{n} matrix, got {m.shape}")
    return m


def _field_raw(amat, m):
    am = amat @ m
    return am - m @ tri_left(m.T @ am)


def vector_field(a, x):
    """Velocity of the QR flow of a at the frame x: the image of a @ x
    under the derivative of the Q-factor map."""
    amat = _as_sym(a, x.n)
    return _field_raw(amat, x.mat)


def _iso_orthonormalize(m):
    # Gram-Schmidt removing components along earlier columns and their
    # skew-form partners; restores an isotropic orthonormal tuple.
    m = np.array(m, dtype=float)
    n2, k = m.shape
    j = symplectic_j(n2 // 2)
    q = np.zeros_like(m)
    for i in range(k):
        w = m[:, i].copy()
        for t in range(i):
            w -= (q[:, t] @ w) * q[:, t]
            jq = j @ q[:, t]
            w -= (jq @ w) * jq
        nrm = np.linalg.norm(w)
        if nrm < 1e-8:
            raise RankDeficient(f"column {i} collapsed during re-orthonormalization")
        q[:, i] = w / nrm
    return q


def _retract(m, kind):
    if kind == KIND_UNITARY:
        return _iso_orthonormalize(m)
    return qr_positive(m).q


def _walk(x, total, step, advance):
    """Yield (t, frame) at t = 0 and after each step of the signed grid to
    total: floor(|total|/step + 1e-9) full steps, then a remainder step when
    |total| - nsteps*step exceeds 1e-12.  advance(x, dt) takes one step."""
    span = abs(total)
    nsteps = int(math.floor(span / step + 1e-9))
    rem = span - nsteps * step
    dt = -step if total < 0.0 else step
    yield 0.0, x
    for i in range(1, nsteps + 1):
        x = advance(x, dt)
        yield i * dt, x
    if rem > 1e-12:
        x = advance(x, -rem if total < 0.0 else rem)
        yield total, x


def _rk4_step(fieldfn, x, dt):
    m = x.mat
    k1 = fieldfn(m)
    k2 = fieldfn(m + 0.5 * dt * k1)
    k3 = fieldfn(m + 0.5 * dt * k2)
    k4 = fieldfn(m + dt * k3)
    m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    drift = np.abs(np.linalg.norm(m, axis=0) - 1.0).max()
    if drift > _DRIFT_LIMIT:
        raise Divergence(f"column norms drifted by {drift:.3e}; reduce the step")
    return Frame(_retract(m, x.kind), x.kind)


def _flow_stepper(a, x, t, config):
    """The entry check of flow and flow_path, then their step function."""
    if not isinstance(a, SpectralData):
        raise ValidationError("flow needs SpectralData to exponentiate")
    if a.n != x.n:
        raise ShapeMismatch(f"spectral data is {a.n}-dimensional, frame has n={x.n}")
    if not math.isfinite(t):
        raise ValidationError(f"time must be finite, got {t}")
    if config is not None and config.integrator == "rk4":
        amat = a.matrix()
        return partial(_rk4_step, lambda m: _field_raw(amat, m))
    # each exp(dt a) is checked for invertibility once, just before its
    # first step, so Singular still comes after the rows already yielded
    g = cache(lambda dt: _invertible(a.exp(dt), x.n))
    return lambda y, dt: _act_checked(g(dt), y)


def flow(a, x, t, config=None):
    """Flow the frame x for time t under the one-parameter QR flow of a.

    a must be SpectralData.  The default (exact) integrator moves by the
    group element exp(t a) in unit-time substeps; the rk4 integrator steps
    the vector field on the grid of config.step, as flow_path does, and
    re-orthonormalizes after every step.
    """
    advance = _flow_stepper(a, x, t, config)
    if t == 0.0:
        return x
    rk4 = config is not None and config.integrator == "rk4"
    step = config.step if rk4 else abs(t) / math.ceil(abs(t))
    for _, x in _walk(x, t, step, advance):
        pass
    return x


def flow_path(a, x, config):
    """Yield (time, frame) along the flow on the grid of config.step up to
    config.horizon (endpoint included)."""
    advance = _flow_stepper(a, x, config.horizon, config)
    yield from _walk(x, config.horizon, config.step, advance)


def quad(a, b, x):
    """Weighted quadratic energy of the frame: the mean of b_i^2 times the
    Rayleigh quotient of a at column i."""
    amat = _as_sym(a, x.n)
    if b.k != x.k:
        raise ShapeMismatch(f"{b.k} weights for a frame with k={x.k}")
    m = x.mat * np.asarray(b.values)
    return float(np.vdot(amat @ m, m)) / x.k


def _grad_raw(amat, bsq, m):
    # tangent projection of the ambient gradient 2 A m b^2; the in-span
    # block m^T g comes out skew, so the output is a frame direction
    am = amat @ (m * bsq)
    s = m.T @ am
    return 2.0 * (am - m @ ((s + s.T) / 2.0))


def quad_gradient(a, b, x):
    """Gradient of the weighted quadratic energy at the frame x; pairs with
    tangent directions as the derivative of quad and vanishes exactly at
    eigenvector frames."""
    amat = _as_sym(a, x.n)
    if b.k != x.k:
        raise ShapeMismatch(f"{b.k} weights for a frame with k={x.k}")
    bsq = np.asarray(b.values) ** 2
    return _grad_raw(amat, bsq, x.mat)


def gradient_path(a, b, x, config, direction=1):
    """Yield (time, frame) along the RK4-integrated gradient flow of the
    weighted energy.  direction=+1 ascends, -1 descends."""
    if direction not in (1, -1):
        raise ValidationError(f"direction must be +1 or -1, got {direction}")
    amat = _as_sym(a, x.n)
    if b.k != x.k:
        raise ShapeMismatch(f"{b.k} weights for a frame with k={x.k}")
    bsq = np.asarray(b.values) ** 2
    advance = partial(_rk4_step, lambda m: direction * _grad_raw(amat, bsq, m))
    yield from _walk(x, config.horizon, config.step, advance)


def gradient_flow(a, b, x, config, direction=1):
    """Endpoint of gradient_path."""
    for _, x in gradient_path(a, b, x, config, direction):
        pass
    return x


def xi_form(p, a, h):
    """Interaction form trace(p a (1-p) h) of two symmetric matrices across
    an orthogonal projector p."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise NotProjector(f"projector must be square, got {p.shape}")
    if not (np.allclose(p, p.T, atol=1e-8) and np.allclose(p @ p, p, atol=1e-8)):
        raise NotProjector("matrix is not a symmetric idempotent")
    n = p.shape[0]
    a = _as_sym(a, n)
    h = _as_sym(h, n)
    comp = np.eye(n) - p
    return float(np.trace(p @ a @ comp @ h))


class AuditRow(NamedTuple):
    t: float
    value: float
    grad_norm: float
    field_norm: float


@dataclass(frozen=True)
class AuditReport:
    rows: Tuple[AuditRow, ...]
    monotone: bool
    max_violation: float
    stalls_ok: bool
    converged_to: Optional[tuple]

    def to_json(self):
        doc = {
            "monotone": self.monotone,
            "max_violation": self.max_violation,
            "stalls_ok": self.stalls_ok,
            "converged_to": list(self.converged_to) if self.converged_to else None,
            "rows": len(self.rows),
        }
        return json.dumps(doc)

    def csv_lines(self):
        lines = ["t,value,grad_norm,field_norm"]
        for r in self.rows:
            lines.append(
                f"{r.t:.17g},{r.value:.17g},{r.grad_norm:.17g},{r.field_norm:.17g}"
            )
        return lines


def _nearest_eigenframe_word(evecs, m, tol=1e-6):
    k = m.shape[1]
    overlap = evecs.T @ m
    word = []
    for i in range(k):
        j = int(np.argmax(np.abs(overlap[:, i])))
        sign = 1.0 if overlap[j, i] >= 0.0 else -1.0
        if np.linalg.norm(m[:, i] - sign * evecs[:, j]) > tol:
            return None
        word.append(j + 1)
    if len(set(word)) != k:
        return None
    return tuple(word)


def lyapunov_audit(a, h, b, x, config):
    """Integrate the flow of h and certify that the weighted energy of a is
    a Lyapunov function along it.

    Requires a and h to share eigenvector columns in a consistent order and
    the weights to be strictly decreasing.  Returns an AuditReport with the
    sampled rows, the worst monotonicity violation, whether every stall
    (a 50-step window of flat energy) happens at a stationary point of the
    flow, and the eigenvector word of the limit when one is reached.
    """
    if not isinstance(a, SpectralData) or not isinstance(h, SpectralData):
        raise ValidationError("lyapunov_audit needs SpectralData for both matrices")
    if not b.is_strict:
        raise WeightsNotStrict("audit requires strictly decreasing weights")
    if a.n != h.n or a.n != x.n:
        raise ShapeMismatch("dimensions of a, h and the frame disagree")
    if not np.allclose(a.evecs, h.evecs, atol=1e-10):
        raise PreconditionViolated("a and h must share eigenvector columns")
    for i in range(a.n):
        for j in range(i + 1, a.n):
            da = a.evals[i] - a.evals[j]
            dh = h.evals[i] - h.evals[j]
            if np.sign(da) != np.sign(dh):
                raise PreconditionViolated(
                    "eigenvalues of a and h are not ordered the same way"
                )
    amat = a.matrix()
    hmat = h.matrix()
    bvec = np.asarray(b.values)
    bsq = bvec**2
    k = x.k
    rows = []
    for t, fr in flow_path(h, x, config):
        m = fr.mat
        weighted = m * bvec
        rows.append(
            AuditRow(
                t,
                float(np.vdot(amat @ weighted, weighted)) / k,
                hs_norm(_grad_raw(amat, bsq, m)),
                hs_norm(_field_raw(hmat, m)),
            )
        )
    final = rows[-1]
    max_violation = 0.0
    stalls_ok = True
    flat_run = 0
    stall_eps = _STALL_FACTOR * _STATIONARY_NORM**2 * config.step
    for prev, cur in zip(rows, rows[1:]):
        dq = cur.value - prev.value
        if dq < 0.0:
            max_violation = max(max_violation, -dq)
        if abs(dq) < stall_eps:
            flat_run += 1
            if flat_run >= _STALL_WINDOW and cur.field_norm >= _STATIONARY_NORM:
                stalls_ok = False
        else:
            flat_run = 0
    converged = None
    if final.field_norm < _STATIONARY_NORM:
        converged = _nearest_eigenframe_word(a.evecs, fr.mat)
    return AuditReport(
        rows=tuple(rows),
        monotone=max_violation <= _MONOTONE_SLACK,
        max_violation=max_violation,
        stalls_ok=stalls_ok,
        converged_to=converged,
    )
