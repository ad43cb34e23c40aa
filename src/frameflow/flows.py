"""One-parameter QR flows, weighted quadratic energies, their gradients,
and the Lyapunov audit that certifies monotonicity along a companion flow.

The gradient reported with each row of a gradient path is the first RK4
stage of the step that leaves the row, so each row costs one evaluation of
the gradient field, not two.  The steppers build their frames without
re-validation, as a retract makes frames; the public constructors validate.

The exact integrator checks its steps per block of 64 steps by one exp(dt a):
each step tests its Q factor for finiteness, the rank and isotropy tests
run once per block, and a block's frames come out once it is checked.  So
flow_path can run up to 64 steps ahead of its consumer, and it still yields
exactly the rows before a failing step, then raises that step's error."""

import json
import math
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice
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
from .frames import KIND_UNITARY, Frame, _act_steps, _invertible
from .linalg import _hs_norms, _j, _orthonormal, _qr_q, _vdots, tri_left

_SIMPLE_GAP = 1e-10
_MONOTONE_SLACK = 1e-10
# a field of norm f raises the energy by at least ~0.1 f^2 dt per step for
# the eigenbases used here, so smaller increments expose a genuine flat spot
_STALL_FACTOR = 0.1
_STALL_WINDOW = 50
_STATIONARY_NORM = 1e-6
_DRIFT_LIMIT = 1e-3
# steps of the exact integrator checked as one block
_BLOCK = 64


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
        if not _orthonormal(vecs):
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
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValidationError(f"n must be an integer, got {n!r}")
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


def _default_weights(k):
    """The weights (k - i) / k, i = 0, ..., k - 1, of a run that gives none."""
    return Weights(tuple((k - i) / k for i in range(k)))


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
    # m is a frame matrix or a stack (..., n, k), as in _energy and _grad_raw
    am = amat @ m
    return am - m @ tri_left(m.mT @ am)


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
    j = _j(n2 // 2)
    q = np.zeros_like(m)
    jq = []  # j @ q[:, t] once column t is done, contiguous as dot's bits need
    for i in range(k):
        w = m[:, i].copy()
        for t in range(i):
            w -= (q[:, t] @ w) * q[:, t]
            w -= (jq[t] @ w) * jq[t]
        nrm = math.sqrt(w @ w)  # np.linalg.norm's bits
        if nrm < 1e-8:
            raise RankDeficient(f"column {i} collapsed during re-orthonormalization")
        q[:, i] = w / nrm
        jq.append(j @ q[:, i])
    return q


def _retract(m, kind):
    if kind == KIND_UNITARY:
        return _iso_orthonormalize(m)
    return _qr_q(m)[0]


def _walk(x, total, step, stepper):
    """Yield (t, frame) at t = 0 and after each step of the signed grid to
    total: floor(|total|/step + 1e-9) full steps, then a remainder step when
    |total| - nsteps*step exceeds 1e-12.  stepper is (advance, block):
    advance(x, dt, count) yields the frames of count <= block steps of dt."""
    advance, block = stepper
    span = abs(total)
    nsteps = int(math.floor(span / step + 1e-9))
    rem = span - nsteps * step
    dt = -step if total < 0.0 else step
    yield 0.0, x
    i = 0
    while i < nsteps:
        for x in advance(x, dt, min(block, nsteps - i)):
            i += 1
            yield i * dt, x
    if rem > 1e-12:
        for x in advance(x, -rem if total < 0.0 else rem, 1):
            yield total, x


def _rk4_step(fieldfn, x, dt, k1=None):
    """One RK4 step and retract; k1, when given, is fieldfn(x.mat)."""
    m = x.mat
    if k1 is None:
        k1 = fieldfn(m)
    k2 = fieldfn(m + 0.5 * dt * k1)
    k3 = fieldfn(m + 0.5 * dt * k2)
    k4 = fieldfn(m + dt * k3)
    m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # the bits of np.linalg.norm(m, axis=0) without its wrapper
    norms = np.sqrt(np.add.reduce(m * m, axis=0))
    if not all(abs(v - 1.0) <= _DRIFT_LIMIT for v in norms.tolist()):  # NaN included
        drift = np.abs(norms - 1.0).max()
        raise Divergence(f"column norms drifted by {drift:.3e}; reduce the step")
    # finite columns of norm near one: the retract's output is a frame
    return Frame._trusted(_retract(m, x.kind), x.kind)


def _flow_stepper(a, x, t, config):
    """The entry check of flow and flow_path, then their stepper for _walk."""
    if not isinstance(a, SpectralData):
        raise ValidationError("flow needs SpectralData to exponentiate")
    if a.n != x.n:
        raise ShapeMismatch(f"spectral data is {a.n}-dimensional, frame has n={x.n}")
    if not math.isfinite(t):
        raise ValidationError(f"time must be finite, got {t}")
    if config is not None and config.integrator == "rk4":
        field = partial(_field_raw, a.matrix())
        return lambda y, dt, count: (_rk4_step(field, y, dt),), 1
    # each exp(dt a) is checked for invertibility once, just before its
    # first block, so Singular still comes after the rows already yielded
    g = cache(lambda dt: _invertible(a.exp(dt), x.n))
    return lambda y, dt, count: _act_steps(g(dt), y, count), _BLOCK


def flow(a, x, t, config=None):
    """Flow the frame x for time t under the one-parameter QR flow of a.

    a must be SpectralData.  The default (exact) integrator moves by the
    group element exp(t a) in unit-time substeps; the rk4 integrator steps
    the vector field on the grid of config.step, as flow_path does, and
    re-orthonormalizes after every step.
    """
    stepper = _flow_stepper(a, x, t, config)
    if t == 0.0:
        return x
    rk4 = config is not None and config.integrator == "rk4"
    step = config.step if rk4 else abs(t) / math.ceil(abs(t))
    for _, x in _walk(x, t, step, stepper):
        pass
    return x


def flow_path(a, x, config):
    """Yield (time, frame) along the flow on the grid of config.step up to
    config.horizon (endpoint included), which the step must not exceed."""
    if config.step > config.horizon:
        raise ValidationError("step must not exceed horizon")
    stepper = _flow_stepper(a, x, config.horizon, config)
    yield from _walk(x, config.horizon, config.step, stepper)


def _energy_input(a, b, x):
    """a's matrix and the weights b as an array, once both fit the frame x."""
    amat = _as_sym(a, x.n)
    if b.k != x.k:
        raise ShapeMismatch(f"{b.k} weights for a frame with k={x.k}")
    return amat, np.asarray(b.values)


def quad(a, b, x):
    """Weighted quadratic energy of the frame: the mean of b_i^2 times the
    Rayleigh quotient of a at column i."""
    return float(_energy(*_energy_input(a, b, x), x.mat))


def _energy(amat, w, m):
    """quad at the frame matrix m, with a's matrix amat and the weights w
    as an array; a stack of frame matrices gives an array of values."""
    m = m * w
    return _vdots(amat @ m, m) / m.shape[-1]


def _grad_raw(amat, bsq, m):
    # tangent projection of the ambient gradient 2 A m b^2; the in-span
    # block m^T g comes out skew, so the output is a frame direction
    return 2.0 * _grad_field(amat, bsq, m)


def _grad_field(amat, c, m):
    # a path folds its constants into c = (2 * direction) * b^2 once: exact short of
    # overflow, so the bits are direction times _grad_raw's, up to the sign of zero
    am = amat @ (m * c)
    s = m.mT @ am
    return am - m @ ((s + s.mT) / 2.0)


def quad_gradient(a, b, x):
    """Gradient of the weighted quadratic energy at the frame x; pairs with
    tangent directions as the derivative of quad and vanishes exactly at
    eigenvector frames."""
    amat, w = _energy_input(a, b, x)
    return _grad_raw(amat, w**2, x.mat)


def _gradient_rows(a, b, x, config, direction):
    """Yield (time, frame, g) along gradient_path, where g is direction
    times the gradient at the frame: the first RK4 stage of the next step,
    which that step takes instead of evaluating the field again."""
    if config.step > config.horizon:
        raise ValidationError("step must not exceed horizon")
    if direction not in (1, -1):
        raise ValidationError(f"direction must be +1 or -1, got {direction}")
    amat, w = _energy_input(a, b, x)
    field = partial(_grad_field, amat, (2.0 * direction) * w**2)

    def advance(y, dt, count):
        return (_rk4_step(field, y, dt, g),)

    for t, x in _walk(x, config.horizon, config.step, (advance, 1)):
        g = field(x.mat)
        yield t, x, g


def gradient_path(a, b, x, config, direction=1):
    """Yield (time, frame) along the RK4-integrated gradient flow of the
    weighted energy.  direction=+1 ascends, -1 descends."""
    for t, x, _ in _gradient_rows(a, b, x, config, direction):
        yield t, x


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
    # the rows read only the frames, so each block of the path is one pass
    amat, hmat, bvec = a.matrix(), h.matrix(), np.asarray(b.values)
    rows, path = [], flow_path(h, x, config)
    while block := list(islice(path, 1024)):  # memory stays bounded on long paths
        ts, frames = zip(*block)
        m = np.stack([fr.mat for fr in frames])
        values = _energy(amat, bvec, m).tolist()
        grads = _hs_norms(_grad_raw(amat, bvec**2, m)).tolist()
        fields = _hs_norms(_field_raw(hmat, m)).tolist()
        rows += map(AuditRow, ts, values, grads, fields)
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
    if rows[-1].field_norm < _STATIONARY_NORM:
        converged = _nearest_eigenframe_word(a.evecs, m[-1])
    return AuditReport(
        rows=tuple(rows),
        monotone=max_violation <= _MONOTONE_SLACK,
        max_violation=max_violation,
        stalls_ok=stalls_ok,
        converged_to=converged,
    )
