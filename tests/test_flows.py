import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from frameflow import cli, flows, frames
from frameflow.errors import (
    Divergence,
    NotProjector,
    PreconditionViolated,
    RankDeficient,
    ShapeMismatch,
    Singular,
    ValidationError,
    WeightsNotStrict,
)
from frameflow.flows import (
    AuditReport,
    FlowConfig,
    SpectralData,
    Weights,
    _energy,
    _field_raw,
    _grad_field,
    _grad_raw,
    _gradient_rows,
    _iso_orthonormalize,
    _rk4_step,
    default_spectral,
    flow,
    flow_path,
    gradient_flow,
    gradient_path,
    lyapunov_audit,
    quad,
    quad_gradient,
    vector_field,
    xi_form,
)
from frameflow.frames import Frame, Signature, act, flag_distance, to_flag
from frameflow.linalg import (
    _hs_norms,
    hs_inner,
    hs_norm,
    proj_tangent_orth,
    qr_positive,
    symplectic_j,
    tri_left,
)


def _random_frame(rng, n, k):
    q, _ = qr_positive(rng.standard_normal((n, k)))
    return Frame(q)


def _descending(rng, n, lo=0.2, hi=4.0):
    vals = np.sort(rng.uniform(lo, hi, size=n))[::-1]
    # enforce clear gaps
    return vals + np.linspace(n * 0.3, 0.0, n)


# ------------------------------------------------------------- data classes


def test_spectral_data_validation():
    sd = SpectralData((3.0, 1.0), np.eye(2))
    assert sd.is_simple and sd.is_ordered
    assert np.allclose(sd.matrix(), np.diag([3.0, 1.0]))
    with pytest.raises(ValidationError):
        SpectralData((1.0, 2.0, 3.0), np.eye(2))
    with pytest.raises(ValidationError):
        SpectralData((1.0, 2.0), np.ones((2, 2)))


def test_spectral_data_orderings():
    assert not SpectralData((1.0, 2.0), np.eye(2)).is_ordered
    assert not SpectralData((2.0, 2.0), np.eye(2)).is_simple


def test_spectral_matrix_reconstruction():
    rng = np.random.default_rng(31)
    v = oracles.random_orthogonal(rng, 4)
    sd = SpectralData((4.0, 2.0, 1.0, 0.5), v)
    m = sd.matrix()
    assert np.allclose(m, m.T)
    assert np.allclose(np.sort(np.linalg.eigvalsh(m)), [0.5, 1.0, 2.0, 4.0])
    e = sd.exp(0.5)
    assert np.allclose(e, v @ np.diag(np.exp(0.5 * np.array([4, 2, 1, 0.5]))) @ v.T)


def test_default_spectral_general():
    sd = default_spectral(4)
    assert np.allclose(sd.evals, (8.0, 2.0, 0.5, 0.125))
    assert np.allclose(sd.evecs, np.eye(4))
    assert np.prod(sd.evals) == pytest.approx(1.0)
    assert sd.is_ordered and sd.is_simple


def test_default_spectral_symplectic():
    sd = default_spectral(2, symplectic=True)
    assert np.allclose(sd.evals, (4.0, 2.0, 0.25, 0.5))
    # multiplicative pairing between positions i and i+n
    assert sd.evals[2] == pytest.approx(1.0 / sd.evals[0])
    assert sd.evals[3] == pytest.approx(1.0 / sd.evals[1])


@pytest.mark.parametrize("n", [True, False, 2.5, "3", None])
@pytest.mark.parametrize("sp", [False, True])
def test_default_spectral_rejects_non_integer_n(n, sp):
    with pytest.raises(ValidationError):
        default_spectral(n, symplectic=sp)


def test_weights_validation():
    b = Weights((2.0, 1.0, 0.5))
    assert b.is_strict and b.k == 3
    assert not Weights((1.0, 1.0)).is_strict
    with pytest.raises(ValidationError):
        Weights((1.0, 2.0))
    with pytest.raises(ValidationError):
        Weights((1.0, 0.0))
    with pytest.raises(ValidationError):
        Weights(())


def test_flow_config_validation():
    FlowConfig(step=0.1, horizon=1.0)
    with pytest.raises(ValidationError):
        FlowConfig(step=0.0, horizon=1.0)
    FlowConfig(step=2.0, horizon=1.0)  # checked where the horizon is walked
    with pytest.raises(ValidationError):
        FlowConfig(step=0.1, horizon=1.0, integrator="euler")
    with pytest.raises(ValidationError, match="horizon must be finite"):
        FlowConfig(step=0.1, horizon=math.inf)
    with pytest.raises(ValidationError, match="step must be finite"):
        FlowConfig(step=math.inf, horizon=math.inf)


def test_step_above_horizon_fails_only_where_the_horizon_is_walked():
    a = default_spectral(3)
    x = _random_frame(np.random.default_rng(55), 3, 2)
    b = Weights((2.0, 1.0))
    short = FlowConfig(step=0.1, horizon=0.05, integrator="rk4")
    # flow steps to its own time on the grid of config.step
    assert np.array_equal(
        flow(a, x, 0.35, short).mat,
        flow(a, x, 0.35, FlowConfig(step=0.1, integrator="rk4")).mat,
    )
    walks = [
        lambda: next(flow_path(a, x, short)),
        lambda: next(gradient_path(a, b, x, short)),
        lambda: gradient_flow(a, b, x, short),
        lambda: lyapunov_audit(a, a, b, x, FlowConfig(step=0.1, horizon=0.05)),
    ]
    for walk in walks:
        with pytest.raises(ValidationError, match="^step must not exceed horizon$"):
            walk()


# ------------------------------------------------------------- vector field


def test_vector_field_zero_at_eigenvector_frame():
    a = np.diag([5.0, 3.0, 1.0])
    x = Frame(np.eye(3, 2))
    assert np.allclose(vector_field(a, x), 0.0)


def test_vector_field_is_tangent():
    rng = np.random.default_rng(32)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        x = _random_frame(rng, n, k)
        a = oracles.random_spd(rng, n)
        f = vector_field(a, x)
        assert np.allclose(x.mat.T @ f + f.T @ x.mat, 0.0, atol=1e-12)


def test_vector_field_matches_flow_derivative():
    rng = np.random.default_rng(33)
    n, k = 4, 2
    x = _random_frame(rng, n, k)
    sd = SpectralData(tuple(_descending(rng, n)), oracles.random_orthogonal(rng, n))
    a = sd.matrix()
    t = 1e-4
    plus = act(sd.exp(t), x).mat
    minus = act(sd.exp(-t), x).mat
    fd = (plus - minus) / (2.0 * t)
    assert np.max(np.abs(fd - vector_field(a, x))) < 1e-6


def test_vector_field_unitary_tangency():
    rng = np.random.default_rng(34)
    n = 2
    bsym = rng.standard_normal((n, n))
    bsym = (bsym + bsym.T) / 2
    csym = rng.standard_normal((n, n))
    csym = (csym + csym.T) / 2
    a = np.block([[bsym, csym], [csym, -bsym]])  # symmetric, anticommutes with J
    from frameflow.linalg import symplectic_j

    j = symplectic_j(n)
    x = Frame(oracles.iso_gs(rng.standard_normal((2 * n, 2)), j), kind="unitary")
    f = vector_field(a, x)
    assert np.allclose(x.mat.T @ f + f.T @ x.mat, 0.0, atol=1e-10)
    m = x.mat.T @ j @ f
    assert np.allclose(m, m.T, atol=1e-10)


# --------------------------------------------------------------------- flow


def test_flow_zero_time_is_identity():
    rng = np.random.default_rng(35)
    x = _random_frame(rng, 4, 2)
    sd = default_spectral(4)
    assert np.allclose(flow(sd, x, 0.0).mat, x.mat)


def test_flow_semigroup():
    rng = np.random.default_rng(36)
    x = _random_frame(rng, 4, 3)
    sd = SpectralData(tuple(_descending(rng, 4)), oracles.random_orthogonal(rng, 4))
    a = flow(sd, flow(sd, x, 1.3), 0.9).mat
    b = flow(sd, x, 2.2).mat
    assert np.max(np.abs(a - b)) < 1e-8


def test_flow_attracts_to_leading_eigenflag():
    rng = np.random.default_rng(37)
    sd = SpectralData((2.0, 1.0, -3.0), np.eye(3))
    sig = Signature((1, 2))
    target = to_flag(Frame(np.eye(3, 2)), sig)
    for _ in range(5):
        x = _random_frame(rng, 3, 2)
        y = flow(sd, x, 40.0)
        assert flag_distance(to_flag(y, sig), target) < 1e-8


def test_flow_exact_matches_rk4():
    rng = np.random.default_rng(38)
    x = _random_frame(rng, 4, 2)
    sd = SpectralData((1.5, 0.7, -0.2, -1.1), oracles.random_orthogonal(rng, 4))
    for t in (3.0, -2.0):
        exact = flow(sd, x, t).mat
        rk4 = flow(sd, x, t, FlowConfig(step=1e-3, horizon=abs(t), integrator="rk4")).mat
        assert np.max(np.abs(exact - rk4)) < 1e-6


def test_flow_rk4_divergence_guard():
    rng = np.random.default_rng(39)
    x = _random_frame(rng, 3, 2)
    sd = SpectralData((40.0, 1.0, -40.0), np.eye(3))
    with pytest.raises(Divergence):
        flow(sd, x, 10.0, FlowConfig(step=10.0, horizon=10.0, integrator="rk4"))


def test_flow_path_grid():
    rng = np.random.default_rng(40)
    x = _random_frame(rng, 3, 2)
    sd = default_spectral(3)
    pts = list(flow_path(sd, x, FlowConfig(step=0.5, horizon=2.0)))
    assert [t for t, _ in pts] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.allclose(pts[0][1].mat, x.mat)
    assert np.max(np.abs(pts[-1][1].mat - flow(sd, x, 2.0).mat)) < 1e-9


def test_flow_path_exact_is_iterated_act():
    rng = np.random.default_rng(42)
    sd = SpectralData(tuple(_descending(rng, 5)), oracles.random_orthogonal(rng, 5))
    x = _random_frame(rng, 5, 3)
    cfg = FlowConfig(step=0.05, horizon=1.03)  # 20 steps, then a 0.03 remainder
    pts = list(flow_path(sd, x, cfg))
    expected = [x]
    g = sd.exp(cfg.step)
    for _ in range(20):
        expected.append(act(g, expected[-1]))
    expected.append(act(sd.exp(cfg.horizon - 20 * cfg.step), expected[-1]))
    assert len(pts) == len(expected) == 22
    assert pts[-1][0] == cfg.horizon
    for (_, fr), want in zip(pts, expected):
        assert np.array_equal(fr.mat, want.mat)
        assert fr.kind == want.kind


def test_flow_path_singular_step_after_first_row():
    # exp(0.01 A) for the n = 12 reference spectrum is invertible, but its
    # condition number, about 8e8, is past the 1e8 that act accepts
    x = Frame(np.eye(12, 6))
    path = flow_path(default_spectral(12), x, FlowConfig())
    t, fr = next(path)
    assert t == 0.0 and fr is x
    with pytest.raises(Singular, match="numerically singular"):
        next(path)


@pytest.mark.parametrize("t", [0.3, 2.5, 3.0, -1.7])
def test_flow_exact_is_unit_substeps(t):
    rng = np.random.default_rng(43)
    sd = SpectralData(tuple(_descending(rng, 4)), oracles.random_orthogonal(rng, 4))
    x = want = _random_frame(rng, 4, 2)
    nsub = math.ceil(abs(t))
    for _ in range(nsub):
        want = act(sd.exp(t / nsub), want)
    assert np.array_equal(flow(sd, x, t).mat, want.mat)
    assert np.array_equal(flow(sd, x, t, FlowConfig(step=0.1, horizon=1.0)).mat, want.mat)


@pytest.mark.parametrize("integrator", ["exact", "rk4"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_flow_rejects_non_finite_time(integrator, t):
    x = Frame(np.eye(3, 2))
    cfg = FlowConfig(step=0.1, horizon=1.0, integrator=integrator)
    with pytest.raises(ValidationError, match="time must be finite"):
        flow(default_spectral(3), x, t, cfg)


@pytest.mark.parametrize("integrator", ["exact", "rk4"])
def test_flow_path_entry_check_matches_flow(integrator):
    x = Frame(np.eye(4, 2))
    cfg = FlowConfig(step=0.1, horizon=1.0, integrator=integrator)
    for fn in (lambda a: flow(a, x, 1.0, cfg), lambda a: list(flow_path(a, x, cfg))):
        with pytest.raises(ValidationError, match="SpectralData"):
            fn(default_spectral(4).matrix())
        with pytest.raises(ShapeMismatch):
            fn(default_spectral(5))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.01, max_value=0.05),
    st.integers(min_value=1, max_value=40),
    st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=0.95)),
)
def test_flow_grid_contract(n, k, seed, step, nfull, frac):
    # nfull full steps, then a remainder step of frac * step when frac > 0
    k = min(k, n)
    rng = np.random.default_rng(seed)
    sd = SpectralData(tuple(rng.uniform(-1.0, 1.0, n)), oracles.random_orthogonal(rng, n))
    x = _random_frame(rng, n, k)
    horizon = nfull * step + frac * step
    times = [i * step for i in range(nfull + 1)] + ([horizon] if frac else [])
    assert [t for t, _ in flow_path(sd, x, FlowConfig(step, horizon))] == times
    cfg = FlowConfig(step, horizon, integrator="rk4")
    pts = list(flow_path(sd, x, cfg))
    assert [t for t, _ in pts] == times
    assert np.array_equal(flow(sd, x, horizon, cfg).mat, pts[-1][1].mat)
    b = Weights(tuple(np.sort(rng.uniform(0.2, 1.0, k))[::-1]))
    for direction in (1, -1):
        last = list(gradient_path(sd, b, x, cfg, direction))[-1][1]
        assert np.array_equal(gradient_flow(sd, b, x, cfg, direction).mat, last.mat)


def test_flow_preserves_unitary_frames():
    rng = np.random.default_rng(41)
    n = 2
    j = symplectic_j(n)
    x = Frame(oracles.iso_gs(rng.standard_normal((2 * n, 2)), j), kind="unitary")
    sd = SpectralData((1.0, 0.5, -1.0, -0.5), np.eye(4))
    y = flow(sd, x, 2.0)
    assert y.kind == "unitary"
    z = flow(sd, x, 2.0, FlowConfig(step=1e-2, horizon=2.0, integrator="rk4"))
    assert z.kind == "unitary"
    assert np.max(np.abs(y.mat - z.mat)) < 1e-6


@st.composite
def _flow_cases(draw):
    """Spectral data, strict weights and a frame, plain with n <= 8 and k < n
    or paired with n <= 4; a paired spectrum is a +/- pair on an orthogonal
    symplectic basis, so that its exponential keeps frames isotropic."""
    paired = draw(st.booleans())
    n = draw(st.integers(1, 4) if paired else st.integers(2, 8))
    k = draw(st.integers(1, n) if paired else st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = rng.uniform(-1.0, 1.0, n)
    if paired:
        sd = SpectralData((*lam, *-lam), oracles.random_orthogonal_symplectic(rng, n))
        x = Frame(oracles.iso_gs(rng.standard_normal((2 * n, k)), symplectic_j(n)), "unitary")
    else:
        sd = SpectralData(tuple(lam), oracles.random_orthogonal(rng, n))
        x = _random_frame(rng, n, k)
    b = Weights(tuple(np.sort(rng.uniform(0.2, 1.5, k))[::-1]))
    return sd, b, x


@settings(max_examples=60, deadline=None)
@given(_flow_cases())
def test_path_frames_pass_the_frame_check(case):
    # the steppers build their frames unchecked; every frame a path yields
    # still passes Frame's full check, is orthonormal (and isotropic) to
    # rounding, far inside that check's tolerance, and lies near the last
    sd, b, x = case
    cfg = FlowConfig(step=0.05, horizon=1.0)
    audited = []

    def recorded(*args):
        for t, fr in flow_path(*args):
            audited.append(fr)
            yield t, fr

    with mock.patch.object(flows, "flow_path", recorded):
        lyapunov_audit(sd, sd, b, x, cfg)
    rk4 = FlowConfig(cfg.step, cfg.horizon, integrator="rk4")
    paths = [audited, list(flow_path(sd, x, cfg)), list(flow_path(sd, x, rk4))]
    paths += [list(gradient_path(sd, b, x, rk4, d)) for d in (1, -1)]
    j = symplectic_j(x.n // 2) if x.kind == "unitary" else None
    for path in paths:
        assert len(path) == 21
        last = x.mat
        for fr in (p if isinstance(p, Frame) else p[1] for p in path):
            assert np.max(np.abs(fr.mat - last)) < 0.5
            last = fr.mat
            assert Frame(fr.mat, fr.kind).kind == x.kind
            assert not fr.mat.flags.writeable
            assert np.max(np.abs(fr.mat.T @ fr.mat - np.eye(x.k))) < 1e-12
            if j is not None:
                assert np.max(np.abs(fr.mat.T @ j @ fr.mat)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(_flow_cases(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_flow_semigroup_law(case, s, t):
    sd, _, x = case
    y = flow(sd, flow(sd, x, s), t)
    assert y.kind == x.kind
    assert np.max(np.abs(y.mat - flow(sd, x, s + t).mat)) < 1e-9


# ------------------------------------------- exact steps checked per block


def _rows(path):
    """The (t, frame matrix) rows of a path and the (name, message) of the
    error that ends it, or None."""
    rows = []
    try:
        for t, x in path:
            rows.append((t, x.mat if isinstance(x, Frame) else x))
    except oracles.StepError as exc:
        return rows, (exc.name, str(exc))
    except Exception as exc:
        return rows, (type(exc).__name__, str(exc))
    return rows, None


def _same_as_the_loop(sd, x, step, horizon):
    """flow_path's rows and error, after checking that they are the per-step
    loop's: the same times, frames bit for bit, error and message."""
    got = _rows(flow_path(sd, x, FlowConfig(step=step, horizon=horizon)))
    want = _rows(oracles.exact_flow_loop(sd.evals, sd.evecs, x.mat, step, horizon,
                                         x.kind == "unitary"))
    assert got[1] == want[1]
    assert [t for t, _ in got[0]] == [t for t, _ in want[0]]
    for (_, m), (_, w) in zip(got[0], want[0]):
        assert np.array_equal(m.view(np.int64), w.view(np.int64))
    return len(got[0]), got[1]


def _closing_frame(theta, a=0.005, b=0.002, dt=0.01):
    """A plane frame at angle theta under a spectrum whose steps scale by
    (1 + a) and (1 - b) times 1e-10: the second column's r entry falls to
    the 1e-10 of the rank test as the frame turns, later for larger theta."""
    sd = SpectralData((math.log(1e-10 * (1 + a)) / dt, math.log(1e-10 * (1 - b)) / dt),
                      np.eye(2))
    c, s = math.cos(theta), math.sin(theta)
    return sd, Frame(np.array([[c, -s], [s, c]]))


def _leaking_frame(delta, seed=7):
    """A unitary frame in 4-space under a spectrum that is paired up to
    delta: its exponential is not symplectic, so isotropy leaks, slower
    for smaller delta."""
    sd = SpectralData((1.0, 0.5, -1.0 + delta, -0.5), np.eye(4))
    rng = np.random.default_rng(seed)
    return sd, Frame(oracles.iso_gs(rng.standard_normal((4, 2)), symplectic_j(2)), "unitary")


_RANK = ("RankDeficient", "columns [1] numerically dependent")
_ISO = ("NotUnitaryFrame", "columns are not pairwise isotropic")


@pytest.mark.parametrize("case,horizon,rows,error", [
    (_closing_frame(0.66), 2.0, 30, _RANK),  # step 30, mid-block
    (_closing_frame(0.777), 2.0, 64, _RANK),  # step 64, the block's last
    (_closing_frame(0.78), 2.0, 65, _RANK),  # step 65, the next block's first
    (_closing_frame(0.996), 2.0, 128, _RANK),
    (_closing_frame(0.66), 0.5, 30, _RANK),  # in a path of one short block
    (_closing_frame(1.0), 1.5, 130, _RANK),  # in the short block after two full ones
    (_leaking_frame(1e-7), 2.0, 22, _ISO),
    (_leaking_frame(3.55e-8), 2.0, 64, _ISO),
    (_leaking_frame(1e-7), 0.217, 22, _ISO),  # the remainder step after 21 steps
    (_leaking_frame(3.5e-8), 0.655, 66, _ISO),  # the remainder step after 65 steps
    (_leaking_frame(3.5e-8), 0.645, 66, None),
])
def test_exact_path_fails_at_the_step_of_the_per_step_loop(case, horizon, rows, error):
    # rows before the failing step come out, then that step's error; each
    # case pins the step, so the block boundaries and the remainder are met
    sd, x = case
    assert _same_as_the_loop(sd, x, 0.01, horizon) == (rows, error)


@st.composite
def _exact_cases(draw):
    """A spectrum, a frame, a step and a horizon of up to 150 steps: a
    generic spectrum, a closing one that fails the rank test at some step,
    or, for unitary frames, one paired up to a small leak."""
    unitary = draw(st.booleans())
    family = draw(st.sampled_from(["generic", "closing", "leaking" if unitary else "closing"]))
    step = draw(st.sampled_from([0.01, 0.05, 0.1]))
    horizon = step * draw(st.integers(1, 150)) + draw(st.sampled_from([0.0, 0.3, 0.7])) * step
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "closing":
        sd, x = _closing_frame(rng.uniform(0.5, 1.0), rng.uniform(0.002, 0.01),
                               rng.uniform(0.001, 0.004), step)
    elif family == "leaking":
        sd, x = _leaking_frame(10.0 ** rng.uniform(-8.0, -6.0), int(rng.integers(100)))
    elif unitary:
        n = draw(st.integers(1, 4))
        k = draw(st.integers(1, n))
        lam = rng.uniform(-3.0, 3.0, n)
        sd = SpectralData((*lam, *-lam), oracles.random_orthogonal_symplectic(rng, n))
        x = Frame(oracles.iso_gs(rng.standard_normal((2 * n, k)), symplectic_j(n)), "unitary")
    else:
        n = draw(st.integers(1, 8))
        sd = SpectralData(tuple(rng.uniform(-3.0, 3.0, n)), oracles.random_orthogonal(rng, n))
        x = _random_frame(rng, n, draw(st.integers(1, n)))
    return sd, x, step, horizon


@settings(max_examples=100, deadline=None)
@given(_exact_cases())
def test_exact_path_is_the_per_step_loop(case):
    _same_as_the_loop(*case)


def _qr_with_fault(real, at, fault, seen):
    """real, whose call number at (from 0) returns a NaN q or raises; each
    call first records whether its input is finite."""
    calls = []

    def qr(y, *args, **kwargs):
        seen.append(bool(np.isfinite(y).all()))
        calls.append(None)
        out = real(y, *args, **kwargs)
        if len(calls) - 1 == at:
            if fault == "nan":
                return (np.full_like(out[0], np.nan), *out[1:])
            raise np.linalg.LinAlgError("injected")
        return out

    return qr


@pytest.mark.parametrize("at", [0, 9, 63, 64, 130])
@pytest.mark.parametrize("fault", ["nan", "raise"])
def test_exact_path_stops_at_a_step_that_turns_nan_or_raises(monkeypatch, at, fault):
    # a step whose q is not finite is the last one to run; an error raised
    # inside a block comes after the block's earlier steps, once checked
    rng = np.random.default_rng(3)
    sd = SpectralData(tuple(rng.uniform(-2.0, 2.0, 5)), oracles.random_orthogonal(rng, 5))
    x = _random_frame(rng, 5, 3)
    seen = []
    monkeypatch.setattr(frames, "_householder", _qr_with_fault(frames._householder, at,
                                                               fault, seen))
    monkeypatch.setattr(np.linalg, "qr", _qr_with_fault(np.linalg.qr, at, fault, []))
    error = (("ValidationError", "columns are not orthonormal") if fault == "nan"
             else ("LinAlgError", "injected"))
    assert _same_as_the_loop(sd, x, 0.01, 2.0) == (at + 1, error)
    assert seen == [True] * (at + 1)


@pytest.mark.parametrize("at,rows,error", [(19, 20, ("LinAlgError", "injected")),
                                           (40, 30, _RANK)])
def test_an_error_inside_a_block_comes_after_its_checked_steps(monkeypatch, at, rows, error):
    # the closing frame fails the rank test at step 30: an error raised at a
    # later step of the same block never shows
    sd, x = _closing_frame(0.66)
    monkeypatch.setattr(frames, "_householder", _qr_with_fault(frames._householder, at,
                                                               "raise", []))
    monkeypatch.setattr(np.linalg, "qr", _qr_with_fault(np.linalg.qr, at, "raise", []))
    assert _same_as_the_loop(sd, x, 0.01, 1.0) == (rows, error)


def test_an_overflowed_column_fails_the_rank_test_without_a_warning():
    # exp(0.01 * 50000) ~ 1e217: the squares of the moved column overflow,
    # which takes the rank test's column scale to inf; the step fails that
    # test as it did, now without numpy's overflow warning
    sd = SpectralData((50000.0, 49990.0), np.eye(2))
    x = Frame(np.eye(2, 1))
    with np.errstate(over="ignore"):
        want = _rows(oracles.exact_flow_loop(sd.evals, sd.evecs, x.mat, 0.01, 1.0))
    got = _rows(flow_path(sd, x, FlowConfig(step=0.01, horizon=1.0)))  # warnings are errors
    assert len(got[0]) == len(want[0]) == 1
    assert got[1] == want[1] == ("RankDeficient", "columns [0] numerically dependent")


@pytest.mark.parametrize("x", [Frame(np.eye(3, 2)), Frame(np.eye(4, 2), "unitary")])
def test_rk4_step_with_a_nan_stage_is_a_divergence(x):
    stages = []

    def field(m):
        stages.append(m)
        return np.full_like(m, np.nan) if len(stages) == 2 else np.zeros_like(m)

    with pytest.raises(Divergence) as err:
        _rk4_step(field, x, 0.01)
    assert str(err.value) == "column norms drifted by nan; reduce the step"
    assert len(stages) == 4


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["near", "random", "zeros", "collapse"]),
)
def test_iso_orthonormalize_keeps_the_bits_of_its_loop(n, k, seed, shape):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    j = symplectic_j(n)
    m = rng.standard_normal((2 * n, k))
    if shape == "near":  # what an RK4 step hands the retract
        m = oracles.iso_gs(m, j) + 1e-3 * m
    elif shape == "zeros":
        m[rng.random(m.shape) < 0.4] = 0.0
    elif shape == "collapse":  # a zero column, or one in an earlier span
        i = int(rng.integers(0, k))
        prev = m[:, int(rng.integers(0, i))] if i else np.zeros(2 * n)
        m[:, i] = [prev, -2.0 * prev, j @ prev][int(rng.integers(0, 3))]
    try:
        want = oracles.iso_orthonormalize_loop(m, j)
    except ZeroDivisionError as exc:
        with pytest.raises(RankDeficient, match=f"^{exc}$"):
            _iso_orthonormalize(m)
        return
    assert np.array_equal(_iso_orthonormalize(m).view(np.int64), want.view(np.int64))


# ------------------------------------------------------------ quadratic form


def test_quad_weighted_average_of_rayleigh_quotients():
    a = np.diag([3.0, 1.0])
    x = Frame(np.array([[1.0], [1.0]]) / np.sqrt(2.0))
    assert quad(a, Weights((1.0,)), x) == pytest.approx(2.0)


def test_quad_value_at_eigenvector_frame():
    a = np.diag([5.0, 3.0, 2.0])
    x = Frame(np.eye(3)[:, [1, 2]])
    b = Weights((2.0, 1.0))
    assert quad(a, b, x) == pytest.approx((4.0 * 3.0 + 1.0 * 2.0) / 2.0)


def test_quad_accepts_spectral_data():
    sd = default_spectral(3)
    x = Frame(np.eye(3, 2))
    assert quad(sd, Weights((1.0, 1.0)), x) == pytest.approx((4.0 + 1.0) / 2.0)


def test_quad_truncation_decomposition():
    # weighted form splits into uniform forms on truncated frames
    rng = np.random.default_rng(42)
    n, k = 5, 3
    x = _random_frame(rng, n, k)
    a = oracles.random_spd(rng, n)
    bvals = (1.7, 1.1, 0.4)
    b = Weights(bvals)
    total = 0.0
    for i in range(1, k + 1):
        bi2 = bvals[i - 1] ** 2
        bnext2 = bvals[i] ** 2 if i < k else 0.0
        omega = i * (bi2 - bnext2) / k
        xi = Frame(x.mat[:, :i])
        total += omega * quad(a, Weights(tuple([1.0] * i)), xi)
    assert total == pytest.approx(quad(a, b, x))


def test_quad_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        quad(np.eye(3), Weights((1.0,)), Frame(np.eye(4, 1)))
    with pytest.raises(ShapeMismatch):
        quad(np.eye(3), Weights((1.0, 1.0)), Frame(np.eye(3, 1)))


@st.composite
def _factored(draw):
    """The paper's coordinates: a unit-determinant A (n <= 6) and B = R D_b S
    with R an n x k frame, b positive nonincreasing and S orthogonal."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n))
    assume(np.linalg.cond(a) < 1e6)
    a[0] *= np.sign(np.linalg.det(a))
    a /= np.linalg.det(a) ** (1.0 / n)
    r = qr_positive(rng.standard_normal((n, k))).q
    b = np.sort(rng.uniform(0.1, 3.0, k))[::-1]
    return a, r, b, (r * b) @ oracles.random_orthogonal(rng, k)


@settings(max_examples=100, deadline=None)
@given(_factored())
def test_hs_norm_is_the_square_root_of_the_expansion_function(case):
    # ||A B||_hs = Q_{A^t A, b}(R)^{1/2}
    a, r, b, bmat = case
    q = quad(a.T @ a, Weights(tuple(b)), Frame(r))
    assert hs_norm(a @ bmat) ** 2 == pytest.approx(q, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(_factored())
def test_positive_qr_of_the_moved_frame_carries_the_singular_values(case):
    # with A R = q r (r's diagonal positive), sv(r D_b) = sv(A B)
    a, r, b, bmat = case
    q, rr = qr_positive(a @ r)
    assert (np.diag(rr) > 0.0).all()
    want = np.linalg.svd(a @ bmat, compute_uv=False)
    got = np.linalg.svd(rr * b, compute_uv=False)
    assert np.max(np.abs(got - want)) <= 1e-12 * want[0]


@settings(max_examples=100, deadline=None)
@given(_factored())
def test_q_factor_of_the_moved_frame_is_the_action(case):
    a, r, _, _ = case
    q, _ = qr_positive(a @ r)
    assert np.array_equal(q.view(np.int64), act(a, Frame(r)).mat.view(np.int64))


# ------------------------------------------------------------------ gradient


def test_gradient_uniform_weights_closed_form():
    rng = np.random.default_rng(43)
    for _ in range(5):
        n, k = 5, 3
        x = _random_frame(rng, n, k)
        a = oracles.random_spd(rng, n)
        g = quad_gradient(a, Weights((1.0, 1.0, 1.0)), x)
        p = x.mat @ x.mat.T
        assert np.allclose(g, 2.0 * (np.eye(n) - p) @ a @ x.mat, atol=1e-12)


def test_gradient_zero_at_eigenvector_frame():
    a = np.diag([5.0, 3.0, 2.0, 1.0])
    x = Frame(np.eye(4)[:, [0, 2]])
    g = quad_gradient(a, Weights((2.0, 1.0)), x)
    assert np.allclose(g, 0.0, atol=1e-12)


def test_gradient_pairs_with_directional_derivative():
    rng = np.random.default_rng(44)
    b = Weights((1.9, 1.2, 0.6))
    for _ in range(10):
        n, k = 6, 3
        x = _random_frame(rng, n, k)
        a = oracles.random_spd(rng, n)
        v = proj_tangent_orth(x.mat, rng.standard_normal((n, k)))

        def qval(m):
            return quad(a, b, Frame(m))

        def retract(m):
            return qr_positive(m).q

        fd = oracles.fd_directional(qval, x.mat, v, retract, h=1e-5)
        pairing = hs_inner(quad_gradient(a, b, x), v)
        assert pairing == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_gradient_is_tangent():
    rng = np.random.default_rng(46)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, n))
        x = _random_frame(rng, n, k)
        a = oracles.random_spd(rng, n)
        b = Weights(tuple(np.sort(rng.uniform(0.2, 2.0, k))[::-1] + np.linspace(0.3, 0.0, k)))
        g = quad_gradient(a, b, x)
        assert np.abs(x.mat.T @ g + g.T @ x.mat).max() < 1e-10


def test_gradient_flow_ascends():
    rng = np.random.default_rng(45)
    a = oracles.random_spd(rng, 4)
    b = Weights((1.5, 0.5))
    x = _random_frame(rng, 4, 2)
    cfg = FlowConfig(step=5e-3, horizon=2.0, integrator="rk4")
    values = [quad(a, b, f) for _, f in gradient_path(a, b, x, cfg)]
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-10)
    assert values[-1] > values[0]


def test_gradient_flow_descends_with_flag():
    rng = np.random.default_rng(46)
    a = oracles.random_spd(rng, 4)
    b = Weights((1.5, 0.5))
    x = _random_frame(rng, 4, 2)
    cfg = FlowConfig(step=5e-3, horizon=1.0, integrator="rk4")
    values = [quad(a, b, f) for _, f in gradient_path(a, b, x, cfg, direction=-1)]
    assert np.all(np.diff(values) <= 1e-10)


def test_gradient_flow_converges_to_critical_point():
    rng = np.random.default_rng(47)
    sd = default_spectral(3)
    a = sd.matrix()
    b = Weights((1.0, 0.5))
    x = _random_frame(rng, 3, 2)
    cfg = FlowConfig(step=1e-2, horizon=50.0, integrator="rk4")
    y = gradient_flow(a, b, x, cfg)
    assert hs_norm(quad_gradient(a, b, y)) < 1e-6
    # limit columns are eigenvectors of a
    overlap = np.abs(sd.evecs.T @ y.mat)
    assert np.allclose(np.max(overlap, axis=0), 1.0, atol=1e-6)


def test_gradient_flow_fixes_eigenvector_frame():
    a = np.diag([4.0, 2.0, 1.0])
    x = Frame(np.eye(3, 2))
    cfg = FlowConfig(step=1e-2, horizon=1.0, integrator="rk4")
    y = gradient_flow(a, Weights((1.0, 0.5)), x, cfg)
    assert np.max(np.abs(y.mat - x.mat)) < 1e-12


@pytest.mark.parametrize("n,k,sp", [(3, 2, False), (4, 1, False), (2, 1, True), (3, 2, True)])
@pytest.mark.parametrize("descend", [False, True])
def test_gradient_rows_are_the_path_and_its_row_values(capsys, n, k, sp, descend):
    cfg = cli.RunConfig(command="gradient-flow", n=n, k=k, symplectic=sp, seed=5,
                        horizon=0.105, descend=descend)
    a, b = cli._spectral(cfg), cli._weight_ladder(cfg)
    x = cli._start_frame(cfg, a)
    config = FlowConfig(step=cfg.step, horizon=cfg.horizon)
    direction = -1 if descend else 1
    rows = list(_gradient_rows(a, b, x, config, direction))
    path = list(gradient_path(a, b, x, config, direction))
    argv = ["gradient-flow", "--n", str(n), "--k", str(k), "--seed", "5", "--horizon", "0.105"]
    assert cli.main(argv + ["--symplectic"] * sp + ["--descend"] * descend) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    # ten full steps and a remainder step
    assert len(rows) == len(path) == len(lines) == 12
    for (t, fr, g), (tp, fp), line in zip(rows, path, lines):
        assert t == tp and np.array_equal(fr.mat, fp.mat)
        assert np.array_equal(g, direction * quad_gradient(a, b, fr))
        assert hs_norm(g) == hs_norm(quad_gradient(a, b, fr))
        cells = [float(c) for c in line.split(",") if c not in ("true", "false")]
        assert cells[:3] == [t, quad(a, b, fr), hs_norm(g)]
        assert np.array_equal(cells[3:], fr.mat.ravel())


@st.composite
def _frame_stacks(draw):
    """A symmetric matrix, weights and a stack of 1-300 n x k matrices, plain
    (n <= 12) or paired (ambient 2n, n <= 6), with signed zeros mixed in."""
    paired = draw(st.booleans())
    n = draw(st.integers(1, 6 if paired else 12))
    amb = 2 * n if paired else n
    k = draw(st.integers(1, n))
    t = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((t, amb, k))
    zeros = rng.random(m.shape) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    m[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    s = rng.standard_normal((amb, amb))
    return s + s.T, np.sort(rng.uniform(0.1, 2.0, k))[::-1], m


@settings(max_examples=60, deadline=None)
@given(_frame_stacks())
def test_stacked_row_kernels_are_the_per_frame_bits(case):
    amat, w, m = case

    def bits(x):
        return np.asarray(x, dtype=float).view(np.int64)

    k = m.shape[-1]
    pairs = [
        (tri_left(m[:, :k]), [tri_left(f[:k]) for f in m]),
        (_field_raw(amat, m), [_field_raw(amat, f) for f in m]),
        (_grad_raw(amat, w**2, m), [_grad_raw(amat, w**2, f) for f in m]),
        (_energy(amat, w, m), [_energy(amat, w, f) for f in m]),
        (_hs_norms(m), [hs_norm(f) for f in m]),
    ]
    for stacked, per_frame in pairs:
        assert np.array_equal(bits(stacked), bits(per_frame))


@settings(max_examples=60, deadline=None)
@given(_frame_stacks(), st.lists(st.floats(1e-3, 1e3), min_size=12, max_size=12))
def test_folded_gradient_field_is_the_signed_gradient(case, weights):
    # a path folds 2 * direction into the column scales once; scaling by a
    # power of two is exact, so the bits match up to the sign of zero
    amat, _, m = case
    bsq = np.array(weights[: m.shape[-1]]) ** 2
    for frames in (m, m[0]):
        for direction in (1, -1):
            got = _grad_field(amat, (2.0 * direction) * bsq, frames) + 0.0
            want = direction * _grad_raw(amat, bsq, frames) + 0.0
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_audit_rows_are_the_per_frame_values_across_blocks():
    # 1,201 rows: the path is stacked in two blocks
    sd = default_spectral(4)
    h = SpectralData(tuple(v / 2.0 for v in sd.evals), sd.evecs)
    x = _random_frame(np.random.default_rng(56), 4, 2)
    b = Weights((1.0, 0.5))
    config = FlowConfig(step=0.01, horizon=12.0)
    rows = lyapunov_audit(sd, h, b, x, config).rows
    path = list(flow_path(h, x, config))
    assert len(rows) == len(path) == 1201
    for row, (t, fr) in zip(rows, path):
        want = (t, quad(sd, b, fr), hs_norm(quad_gradient(sd, b, fr)), hs_norm(vector_field(h, fr)))
        assert row == want


def test_path_rows_bracket_once_per_path(monkeypatch, tmp_path):
    # the rows of an audit and of a flow run are one stacked pass, so the
    # number of brackets does not grow with the path
    calls = []

    def counted(x):
        calls.append(x.shape)
        return tri_left(x)

    monkeypatch.setattr(flows, "tri_left", counted)
    sd = default_spectral(4)
    x = _random_frame(np.random.default_rng(54), 4, 2)
    counts = []
    for horizon in (0.5, 2.0):
        calls.clear()
        lyapunov_audit(sd, sd, Weights((1.0, 0.5)), x, FlowConfig(step=0.01, horizon=horizon))
        audit = len(calls)
        calls.clear()
        argv = ["flow", "--n", "4", "--k", "2", "--horizon", str(horizon)]
        assert cli.main([*argv, "--output", str(tmp_path / "flow.csv")]) == 0
        counts.append((audit, len(calls)))
    assert counts == [(1, 1), (1, 1)]


def test_drift_norms_are_linalg_norm_bits():
    # the column norms _rk4_step checks for drift
    rng = np.random.default_rng(8)
    for _ in range(300):
        n, k = rng.integers(1, 9), rng.integers(1, 6)
        m = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-150, 151)
        m[:, rng.random(k) < 0.3] = 0.0
        norms = np.sqrt(np.add.reduce(m * m, axis=0))
        assert np.array_equal(norms, np.linalg.norm(m, axis=0))


# ------------------------------------------------------------------- xi form


def test_xi_form_value():
    p = 0.5 * np.ones((2, 2))
    a = np.diag([2.0, -2.0])
    assert xi_form(p, a, a) == pytest.approx(4.0)


def test_xi_form_trivial_projectors():
    a = np.diag([2.0, -2.0])
    assert xi_form(np.eye(2), a, a) == pytest.approx(0.0)
    assert xi_form(np.zeros((2, 2)), a, a) == pytest.approx(0.0)


def test_xi_form_rejects_non_projector():
    a = np.eye(2)
    with pytest.raises(NotProjector):
        xi_form(np.array([[1.0, 1.0], [0.0, 0.0]]), a, a)
    with pytest.raises(NotProjector):
        xi_form(2.0 * np.eye(2), a, a)


def test_xi_form_nonnegative_for_shared_descending_pair():
    rng = np.random.default_rng(48)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        v = oracles.random_orthogonal(rng, n)
        a = v @ np.diag(np.sort(rng.uniform(-2, 2, n))[::-1]) @ v.T
        h = v @ np.diag(np.sort(rng.uniform(-2, 2, n))[::-1]) @ v.T
        k = int(rng.integers(1, n + 1))
        y = _random_frame(rng, n, k)
        p = y.mat @ y.mat.T
        assert xi_form(p, a, h) >= -1e-10


def test_xi_chain_rule_with_field():
    rng = np.random.default_rng(49)
    for _ in range(10):
        n, k = 5, 3
        v = oracles.random_orthogonal(rng, n)
        a = v @ np.diag(rng.uniform(0.5, 3.0, n)) @ v.T
        h = v @ np.diag(rng.uniform(0.5, 3.0, n)) @ v.T
        x = _random_frame(rng, n, k)
        lhs = hs_inner(
            quad_gradient(a, Weights(tuple([1.0] * k)), x), vector_field(h, x)
        )
        p = x.mat @ x.mat.T
        assert lhs == pytest.approx((2.0 / k) * xi_form(p, a, h), abs=1e-10)


# ------------------------------------------------------------ lyapunov audit


def _shared_pair(rng, n):
    v = oracles.random_orthogonal(rng, n)
    la = tuple(_descending(rng, n))
    lh = tuple(_descending(rng, n))
    return SpectralData(la, v), SpectralData(lh, v)


def test_lyapunov_audit_monotone_and_rows():
    rng = np.random.default_rng(50)
    for _ in range(5):
        a, h = _shared_pair(rng, 4)
        x = _random_frame(rng, 4, 3)
        b = Weights((1.5, 1.0, 0.5))
        cfg = FlowConfig(step=1e-2, horizon=5.0)
        rep = lyapunov_audit(a, h, b, x, cfg)
        assert isinstance(rep, AuditReport)
        assert len(rep.rows) == 501
        assert rep.monotone
        assert rep.max_violation <= 1e-10
        assert rep.stalls_ok
        times = [r.t for r in rep.rows]
        assert times[0] == 0.0 and times[-1] == pytest.approx(5.0)


def test_lyapunov_audit_requires_shared_directions():
    rng = np.random.default_rng(51)
    a = SpectralData((3.0, 1.0), np.eye(2))
    h = SpectralData((3.0, 1.0), oracles.random_orthogonal(rng, 2))
    x = Frame(np.eye(2, 1))
    with pytest.raises(PreconditionViolated):
        lyapunov_audit(a, h, Weights((1.0,)), x, FlowConfig(step=0.1, horizon=1.0))


def test_lyapunov_audit_requires_consistent_order():
    a = SpectralData((3.0, 1.0), np.eye(2))
    h = SpectralData((1.0, 3.0), np.eye(2))
    x = Frame(np.eye(2, 1))
    with pytest.raises(PreconditionViolated):
        lyapunov_audit(a, h, Weights((1.0,)), x, FlowConfig(step=0.1, horizon=1.0))


def test_lyapunov_audit_requires_strict_weights():
    a = SpectralData((3.0, 1.0, 0.5), np.eye(3))
    x = Frame(np.eye(3, 2))
    with pytest.raises(WeightsNotStrict):
        lyapunov_audit(a, a, Weights((1.0, 1.0)), x, FlowConfig(step=0.1, horizon=1.0))


def test_lyapunov_audit_stalls_at_eigenvector_frame():
    a = SpectralData((3.0, 1.0, 0.5), np.eye(3))
    x = Frame(np.eye(3, 2))
    rep = lyapunov_audit(a, a, Weights((1.0, 0.5)), x, FlowConfig(step=0.01, horizon=2.0))
    assert rep.monotone and rep.stalls_ok
    assert rep.converged_to == (1, 2)
    assert all(r.field_norm < 1e-10 for r in rep.rows)


def test_lyapunov_audit_converges_generically():
    rng = np.random.default_rng(52)
    sd = default_spectral(3)
    x = _random_frame(rng, 3, 2)
    rep = lyapunov_audit(sd, sd, Weights((1.0, 0.5)), x, FlowConfig(step=0.05, horizon=30.0))
    assert rep.converged_to == (1, 2)
    assert rep.monotone


def test_lyapunov_audit_serialization():
    rng = np.random.default_rng(53)
    sd = default_spectral(3)
    x = _random_frame(rng, 3, 2)
    rep = lyapunov_audit(sd, sd, Weights((1.0, 0.5)), x, FlowConfig(step=0.5, horizon=1.0))
    doc = json.loads(rep.to_json())
    assert set(doc) >= {"monotone", "max_violation", "converged_to", "stalls_ok"}
    lines = rep.csv_lines()
    assert lines[0] == "t,value,grad_norm,field_norm"
    assert len(lines) == len(rep.rows) + 1
