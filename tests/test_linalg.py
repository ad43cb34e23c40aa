import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from frameflow.errors import (
    NonSquare,
    NotUnitaryFrame,
    OddAmbient,
    RankDeficient,
    ShapeMismatch,
    ValidationError,
)
from frameflow.flows import SpectralData, Weights, quad
from frameflow.frames import Frame
from frameflow.linalg import (
    Tolerance,
    _hs_norms,
    _qr_q,
    _vdots,
    hs_inner,
    hs_norm,
    proj_normal_orth,
    proj_tangent_orth,
    proj_tangent_unitary,
    qr_positive,
    symplectic_j,
    tangent_qr,
    tri_left,
)


def test_tolerance_defaults():
    tol = Tolerance()
    assert tol.absolute == 1e-10
    assert tol.relative == 1e-8


# ---------------------------------------------------------------- qr_positive


def test_qr_identity_frame():
    x = np.eye(3, 2)
    q, r = qr_positive(x)
    assert np.allclose(q, x)
    assert np.allclose(r, np.eye(2))


def test_qr_column_scaling():
    x = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
    q, r = qr_positive(x)
    assert np.allclose(q, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(r, np.diag([2.0, 3.0]))


def test_qr_diagonal_is_positive():
    x = np.array([[-2.0, 1.0], [0.0, -3.0]])
    q, r = qr_positive(x)
    assert np.all(np.diag(r) > 0)
    assert np.allclose(q @ r, x)
    assert np.allclose(q.T @ q, np.eye(2))


def test_qr_matches_gram_schmidt_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        x = rng.standard_normal((n, k))
        q, r = qr_positive(x)
        qo, ro = oracles.mgs_qr(x)
        assert np.allclose(q, qo, atol=1e-9)
        assert np.allclose(r, ro, atol=1e-9)
        assert np.allclose(q @ r, x, atol=1e-12)
        assert np.allclose(q.T @ q, np.eye(k), atol=1e-12)
        assert np.allclose(r, np.triu(r))


def test_qr_bitwise_equals_sign_fixed_numpy_qr():
    # qr_positive calls the LAPACK routines behind np.linalg.qr itself; the
    # reference is np.linalg.qr with the signs fixed as before
    def reference(x):
        q, r = np.linalg.qr(x)
        sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
        return q * sign, r * sign[:, None]

    rng = np.random.default_rng(11)
    cases = []
    for n in range(1, 13):
        for k in range(1, n + 1):
            x = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-5, 5)
            cases += [x, np.asfortranarray(x), np.repeat(x, 2, axis=1)[:, ::2]]
    cases.append(np.array([[-0.0, 1.0], [2.0, -0.0], [0.0, 3.0]]))
    for bad in (np.nan, np.inf):
        x = np.eye(4, 3)
        x[1, 1] = bad
        cases.append(x)
    for x in cases:
        q, r = reference(x)
        # the steppers' Q-only core gives qr_positive's q
        for got, want in zip((*qr_positive(x), _qr_q(x)[0]), (q, r, q)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_qr_rank_deficient_zero_column():
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(RankDeficient):
        qr_positive(x)


def test_qr_rank_deficient_repeated_column():
    x = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(RankDeficient):
        qr_positive(x)


def test_qr_rejects_wide_input():
    with pytest.raises(ShapeMismatch):
        qr_positive(np.ones((2, 3)))


# ------------------------------------------------------------------- tri_left


def test_tri_left_small_matrix():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(tri_left(x), np.array([[1.0, 5.0], [0.0, 4.0]]))


def test_tri_left_keeps_diagonal_and_doubles_upper_of_symmetric():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((4, 4))
    s = s + s.T
    t = tri_left(s)
    assert np.allclose(np.diag(t), np.diag(s))
    assert np.allclose(np.triu(t, 1), 2.0 * np.triu(s, 1))
    assert np.allclose(np.tril(t, -1), 0.0)


def test_tri_left_skew_vanishes():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 5))
    w = a - a.T
    assert np.allclose(tri_left(w), 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
def test_tri_left_symmetrization_identity(seed, n):
    # t + t^T recovers a + a^T for t = tri_left(a)
    a = np.random.default_rng(seed).standard_normal((n, n))
    t = tri_left(a)
    assert np.allclose(t + t.T, a + a.T, atol=1e-12)


def test_tri_left_bitwise_equals_triu_formula():
    # same bits as triu(x + x^T, 1) + diag(diag(x)), signed zeros included
    rng = np.random.default_rng(5)
    cases = [rng.standard_normal((n, n)) for n in range(1, 8)]
    cases.append(np.array([[-0.0, -0.0, 1.0], [-0.0, -0.0, 2.0], [3.0, 4.0, -0.0]]))
    cases.append(np.diag([-0.0, 2.0]))
    for x in cases:
        want = np.triu(x + x.T, 1) + np.diag(np.diag(x))
        assert np.array_equal(tri_left(x).view(np.int64), want.view(np.int64))


def test_tri_left_nonsquare():
    with pytest.raises(NonSquare):
        tri_left(np.ones((2, 3)))
    with pytest.raises(NonSquare):
        tri_left(np.ones((4, 2, 3)))
    with pytest.raises(ShapeMismatch):
        tri_left(np.ones(3))


# ----------------------------------------------------------------- tangent_qr


def test_tangent_qr_identity_frame():
    x = np.eye(2)
    v = np.array([[0.0, 1.0], [0.0, 0.0]])
    v0, v1 = tangent_qr(x, v)
    assert np.allclose(v0, 0.0, atol=1e-12)
    assert np.allclose(v1, v, atol=1e-12)


def test_tangent_qr_reconstruction_and_structure():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        x = rng.standard_normal((n, k))
        v = rng.standard_normal((n, k))
        v0, v1 = tangent_qr(x, v)
        q, r = qr_positive(x)
        recon = v0 @ r + q @ v1
        assert hs_norm(recon - v) < 1e-10
        # v0 is tangent at q, v1 is upper triangular
        assert np.allclose(q.T @ v0 + v0.T @ q, 0.0, atol=1e-9)
        assert np.allclose(v1, np.triu(v1), atol=1e-12)


def test_tangent_qr_frame_part_matches_fd_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        x = rng.standard_normal((n, k)) + np.eye(n, k)
        v = rng.standard_normal((n, k))
        v0, _ = tangent_qr(x, v)
        fd = oracles.fd_qfactor_derivative(x, v)
        assert np.max(np.abs(v0 - fd)) < 1e-5


def test_tangent_qr_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        tangent_qr(np.eye(3, 2), np.ones((3, 3)))


# ------------------------------------------------------------------- hs_inner


def test_hs_inner_frame_has_unit_norm():
    assert hs_inner(np.eye(4, 2), np.eye(4, 2)) == pytest.approx(1.0)
    assert hs_norm(np.eye(5, 3)) == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    q, _ = qr_positive(rng.standard_normal((6, 4)))
    assert hs_norm(q) == pytest.approx(1.0)


def test_hs_inner_normalizes_by_column_count():
    e = np.array([[2.0, 0.0], [0.0, 0.0]])
    # trace of e^T e is 4, divided by 2 columns
    assert hs_inner(e, e) == pytest.approx(2.0)


def test_hs_inner_orthogonal_invariance():
    rng = np.random.default_rng(6)
    e = rng.standard_normal((5, 3))
    f = rng.standard_normal((5, 3))
    rl = oracles.random_orthogonal(rng, 5)
    rr = oracles.random_orthogonal(rng, 3)
    assert hs_inner(rl @ e @ rr, rl @ f @ rr) == pytest.approx(hs_inner(e, f))


def test_hs_inner_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        hs_inner(np.eye(3, 2), np.eye(2, 3))


def test_hs_norm_bitwise_equals_inner_formula():
    def bits(x):
        return struct.pack("<d", x)

    rng = np.random.default_rng(9)
    cases = []
    for _ in range(2000):
        n, k = rng.integers(1, 13), rng.integers(1, 9)
        scale = 10.0 ** rng.uniform(-150, 150)
        m = scale * rng.standard_normal((n, k))
        layout = rng.integers(4)
        if layout == 1:
            m = np.asfortranarray(m)
        elif layout == 2:
            m = np.repeat(np.repeat(m, 2, axis=0), 2, axis=1)[::2, ::2]
        elif layout == 3:
            m = m.T.copy().T
        cases.append(m)
    cases += [np.full((3, 2), np.nan), np.full((2, 2), np.inf), np.array([[1.0, -np.inf]]),
              np.array([[np.nan, np.inf]]), np.zeros((2, 1)),
              np.full((2, 2), -0.0), [[3.0, 4.0]], [[1, 2], [3, 4]]]
    for m in cases:
        want = float(np.sqrt(max(hs_inner(m, m), 0.0)))
        assert bits(hs_norm(m)) == bits(want)
    with pytest.raises(ShapeMismatch):
        hs_norm(np.ones(3))


def test_stacked_vdot_is_vdot_bits():
    # the (1, nk) @ (nk, 1) product runs vdot's dot kernel at every length,
    # the tails of the kernel's blocks included
    def bits(x):
        return np.asarray(x, dtype=float).view(np.int64).tolist()

    rng = np.random.default_rng(12)
    for nk in range(1, 700):
        k = int(rng.choice([d for d in range(1, 7) if nk % d == 0]))
        for t in (1, 3, 301) if nk % 50 in (0, 1) else (1, 3):
            e, f = rng.standard_normal((2, t, nk // k, k)) * 10.0 ** rng.uniform(-150, 150)
            e[rng.random(e.shape) < 0.1] = -0.0
            assert bits(_vdots(e, f)) == bits([np.vdot(a, b) for a, b in zip(e, f)])
            assert bits(_hs_norms(e)) == bits([hs_norm(a) for a in e])
    # matrices stored column-major are read in vdot's (row-major) order too
    e, f = rng.standard_normal((2, 5, 4, 3))
    f = f.mT.copy().mT
    assert bits(_vdots(e, f)) == bits([np.vdot(a, b) for a, b in zip(e, f)])


def test_hs_norms_rescale_only_the_matrices_whose_squares_overflow():
    # a finite matrix whose sum of squares overflows gets a finite norm, with
    # no warning; every other matrix keeps hs_norm's bits, inf and NaN too
    rng = np.random.default_rng(13)
    e = rng.standard_normal((6, 4, 2))
    e[1] *= 1e160
    e[2] *= 1e300
    e[3, 0, 0] = np.inf
    e[4, 1, 1] = np.nan
    got = _hs_norms(e)  # warnings are errors
    plain = [0, 3, 4, 5]
    with np.errstate(over="ignore"):
        want = [hs_norm(e[i]) for i in plain]
    assert got[plain].view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
    for i, scale in ((1, 1e160), (2, 1e300)):
        assert got[i] == pytest.approx(scale * hs_norm(e[i] / scale), rel=1e-15)
    # one matrix alone, through _hs_norms and hs_norm, where hs_inner overflows
    for m, norm in ((1e200 * np.eye(3, 2), 1e200), (np.full((4, 3), 1e200), 2e200)):
        assert float(_hs_norms(m)) == hs_norm(m) == norm
        assert hs_inner(m, m) == np.inf


_SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e100, 1e100))


def _laid_out(data, shape):
    """A drawn matrix of the shape, stored C-ordered, Fortran-ordered or
    strided on both axes."""
    m = data.draw(hnp.arrays(np.float64, shape, elements=_SIGNED))
    layout = data.draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(m)
    if layout == "strided":
        big = np.full((2 * shape[0], 3 * shape[1]), np.nan)
        big[::2, ::3] = m
        return big[::2, ::3]
    return m


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_matrix_trace_products_keep_vdot_bits(data):
    # hs_inner, hs_norm and quad keep the bits of their np.vdot formulas
    # on every layout, signed zeros included
    def bits(x):
        return struct.pack("<d", x)

    n = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, min(n, 6)))
    e, f = _laid_out(data, (n, k)), _laid_out(data, (n, k))
    assert bits(hs_inner(e, f)) == bits(oracles.vdot_hs_inner(e, f))
    assert bits(hs_norm(e)) == bits(oracles.vdot_hs_norm(e))
    # a signed-permutation frame with signed zeros, and nonincreasing weights
    cols = data.draw(st.permutations(range(n)))[:k]
    x = np.where(data.draw(hnp.arrays(bool, (n, k))), -0.0, 0.0)
    x[cols, range(k)] = data.draw(hnp.arrays(np.float64, k, elements=st.sampled_from([-1.0, 1.0])))
    w = sorted(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k)), reverse=True)
    a = _laid_out(data, (n, n))
    assert bits(quad(a, Weights(w), Frame(x))) == bits(oracles.vdot_quad(a, np.array(w), x))


def test_gram_rule_is_allclose_to_the_identity():
    # Frame, SpectralData and proj_tangent_unitary accept a matrix exactly
    # when np.allclose(gram, I, atol=1e-8) does; the draws straddle that
    # bound on the diagonal (1e-8 + 1e-5 there) and off it (1e-8)
    rng = np.random.default_rng(21)
    seen = set()
    cases = []
    for trial in range(400):
        n = int(rng.integers(1, 5))
        if trial % 2:  # off the diagonal: a strictly upper shear
            p = np.triu(rng.choice([-1.0, 1.0], (n, n)) * 1e-8
                        * (1.0 + rng.uniform(-1e-2, 1e-2, (n, n))), 1)
        else:  # on it: 1 + 2d of a column scaled by 1 + d
            p = np.diag(rng.choice([-1.0, 1.0], n) * (1e-8 + 1e-5) / 2.0
                        * (1.0 + rng.uniform(-1e-3, 1e-3, n)))
        cases.append((trial % 2, np.eye(n) + p))
    bad = np.eye(3)
    bad[1, 2] = np.nan
    cases += [(2, bad), (2, np.diag([1.0, np.inf])), (2, np.full((2, 2), np.inf))]
    for where, mat in cases:
        n = mat.shape[0]
        with np.errstate(invalid="ignore"):  # the Gram matrices of inf entries
            want = bool(np.allclose(mat.T @ mat, np.eye(n), atol=1e-8))
            seen.add((where, want))
            assert _accepts(lambda: SpectralData(tuple(range(n)), mat)) == want
            for k in range(1, n + 1):
                x = np.ascontiguousarray(mat[:, :k])
                iso = np.zeros((2 * n, k))
                iso[:n] = x  # spans a Lagrangian subspace: exactly isotropic
                want = bool(np.allclose(x.T @ x, np.eye(k), atol=1e-8))
                assert _accepts(lambda: Frame(x)) == want
                assert _accepts(lambda: Frame(iso, "unitary")) == want
                assert _accepts(lambda: proj_tangent_unitary(iso, iso)) == want
    assert seen >= {(0, True), (0, False), (1, True), (1, False), (2, False)}


def _accepts(make):
    try:
        make()
    except ValidationError:  # NotUnitaryFrame included
        return False
    return True


# ---------------------------------------------------------------- projections


def _random_frame(rng, n, k):
    q, _ = qr_positive(rng.standard_normal((n, k)))
    return q


def test_proj_orth_splits_ambient_vector():
    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n + 1))
        x = _random_frame(rng, n, k)
        b = rng.standard_normal((n, k))
        t = proj_tangent_orth(x, b)
        nm = proj_normal_orth(x, b)
        assert np.allclose(t + nm, b, atol=1e-12)
        assert abs(hs_inner(t, nm)) < 1e-10
        # idempotence and mutual annihilation
        assert np.allclose(proj_tangent_orth(x, t), t, atol=1e-10)
        assert np.allclose(proj_normal_orth(x, nm), nm, atol=1e-10)
        assert np.allclose(proj_tangent_orth(x, nm), 0.0, atol=1e-10)
        assert np.allclose(proj_normal_orth(x, t), 0.0, atol=1e-10)
        # tangency condition: x^T t skew
        assert np.allclose(x.T @ t + t.T @ x, 0.0, atol=1e-10)


def test_proj_orth_kills_frame_itself():
    x = np.eye(4, 2)
    assert np.allclose(proj_tangent_orth(x, x), 0.0)


def test_proj_orth_matches_lstsq_oracle():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        x = _random_frame(rng, n, k)
        b = rng.standard_normal((n, k))
        assert np.allclose(
            proj_tangent_orth(x, b), oracles.lstsq_tangent_projection(x, b), atol=1e-8
        )


def test_proj_orth_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        proj_tangent_orth(np.eye(3, 2), np.ones((2, 2)))


def test_proj_unitary_matches_lstsq_oracle():
    rng = np.random.default_rng(10)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        j = symplectic_j(n)
        x = oracles.iso_gs(rng.standard_normal((2 * n, k)), j)
        b = rng.standard_normal((2 * n, k))
        p = proj_tangent_unitary(x, b)
        assert np.allclose(p, oracles.lstsq_tangent_projection(x, b, j), atol=1e-8)
        # both tangency conditions
        assert np.allclose(x.T @ p + p.T @ x, 0.0, atol=1e-9)
        m = x.T @ j @ p
        assert np.allclose(m, m.T, atol=1e-9)
        # idempotent
        assert np.allclose(proj_tangent_unitary(x, p), p, atol=1e-9)


def test_proj_unitary_rejects_nonisotropic_frame():
    # columns e1, e3 pair to -1 under the skew form, not a unitary frame
    x = np.eye(4)[:, [0, 2]]
    with pytest.raises(NotUnitaryFrame):
        proj_tangent_unitary(x, np.zeros((4, 2)))


def test_proj_unitary_rejects_nonorthonormal():
    with pytest.raises(NotUnitaryFrame):
        proj_tangent_unitary(2.0 * np.eye(4, 2), np.zeros((4, 2)))


def test_proj_unitary_odd_ambient():
    with pytest.raises(OddAmbient):
        proj_tangent_unitary(np.eye(3, 1), np.zeros((3, 1)))


# --------------------------------------------------------------- symplectic_j


def test_symplectic_j_small():
    assert np.array_equal(symplectic_j(1), np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_symplectic_j_properties():
    for n in (1, 2, 3):
        j = symplectic_j(n)
        assert np.array_equal(j.T, -j)
        assert np.array_equal(j @ j, -np.eye(2 * n))
        for i in range(n):
            e = np.zeros(2 * n)
            e[i] = 1.0
            out = np.zeros(2 * n)
            out[i + n] = 1.0
            assert np.array_equal(j @ e, out)
