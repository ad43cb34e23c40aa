import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from frameflow.errors import (
    Divergence,
    NotProjector,
    PreconditionViolated,
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
from frameflow.linalg import hs_inner, hs_norm, proj_tangent_orth, qr_positive


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
    with pytest.raises(ValidationError):
        FlowConfig(step=2.0, horizon=1.0)
    with pytest.raises(ValidationError):
        FlowConfig(step=0.1, horizon=1.0, integrator="euler")
    with pytest.raises(ValidationError, match="horizon must be finite"):
        FlowConfig(step=0.1, horizon=math.inf)
    with pytest.raises(ValidationError, match="step must be finite"):
        FlowConfig(step=math.inf, horizon=math.inf)


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
    from frameflow.linalg import symplectic_j

    n = 2
    j = symplectic_j(n)
    x = Frame(oracles.iso_gs(rng.standard_normal((2 * n, 2)), j), kind="unitary")
    sd = SpectralData((1.0, 0.5, -1.0, -0.5), np.eye(4))
    y = flow(sd, x, 2.0)
    assert y.kind == "unitary"
    z = flow(sd, x, 2.0, FlowConfig(step=1e-2, horizon=2.0, integrator="rk4"))
    assert z.kind == "unitary"
    assert np.max(np.abs(y.mat - z.mat)) < 1e-6


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
