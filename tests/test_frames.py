import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from frameflow.errors import (
    BadIndex,
    NotUnitaryFrame,
    OddAmbient,
    ShapeMismatch,
    SignatureMismatch,
    Singular,
    ValidationError,
)
from frameflow.frames import (
    Frame,
    Signature,
    _act_steps,
    act,
    flag_distance,
    frame_from_json,
    frame_to_json,
    is_isotropic,
    to_flag,
    truncate,
)
from frameflow.linalg import _j, qr_positive, symplectic_j


def _random_frame(rng, n, k):
    q, _ = qr_positive(rng.standard_normal((n, k)))
    return Frame(q)


def _random_unitary_frame(rng, n, k):
    j = symplectic_j(n)
    return Frame(oracles.iso_gs(rng.standard_normal((2 * n, k)), j), kind="unitary")


# -------------------------------------------------------------------- Frame


def test_frame_accepts_orthonormal_columns():
    f = Frame(np.eye(4, 2))
    assert f.n == 4 and f.k == 2
    assert f.kind == "orthogonal"


def test_symplectic_j_result_is_safe_to_mutate():
    standard = symplectic_j(2)
    Frame(np.eye(4, 2), "unitary")  # the checks' own skew form is built now
    j = symplectic_j(2)
    assert j.flags.writeable and j is not symplectic_j(2)
    j[:] = 0.0
    iso, partners = np.eye(4, 2), np.eye(4)[:, [0, 2]]  # e1, e2 and e1, J e1
    assert Frame(iso, "unitary").kind == "unitary"
    with pytest.raises(NotUnitaryFrame):
        Frame(partners, "unitary")
    assert is_isotropic(iso) and not is_isotropic(partners)
    assert np.array_equal(symplectic_j(2), standard)
    with pytest.raises(ValueError):
        _j(2)[0, 0] = 1.0


def test_frame_rejects_nonorthonormal():
    with pytest.raises(ValidationError):
        Frame(np.ones((3, 2)))


def test_frame_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        Frame(np.eye(3, 2), kind="special")


def test_frame_matrix_is_read_only():
    f = Frame(np.eye(3, 2))
    with pytest.raises(ValueError):
        f.mat[0, 0] = 7.0


def test_unitary_frame_requires_even_ambient():
    with pytest.raises(OddAmbient):
        Frame(np.eye(3, 1), kind="unitary")


def test_unitary_frame_requires_isotropy():
    # e1, e3 pair to -1 under the standard skew form on 4 coordinates
    with pytest.raises(NotUnitaryFrame):
        Frame(np.eye(4)[:, [0, 2]], kind="unitary")
    Frame(np.eye(4)[:, [0, 1]], kind="unitary")  # e1, e2 is fine


def test_frame_gram_tolerance_boundary():
    # the accepted Gram matrices are those of allclose(gram, I, atol=1e-8):
    # 1e-8 off the diagonal, 1e-8 + 1e-5 on it
    def sheared(e):
        m = np.eye(3, 2)
        m[0, 1] = e  # gram = [[1, e], [e, 1 + e^2]]
        return m

    def stretched(d):
        m = np.eye(3, 2)
        m[0, 0] = np.sqrt(1.0 + d)  # gram[0, 0] = 1 + d up to roundoff
        return m

    diag_tol = 1e-8 + 1e-5
    for m in (sheared(0.99e-8), sheared(-0.99e-8), stretched(0.999 * diag_tol),
              stretched(-0.999 * diag_tol)):
        Frame(m)
    for m in (sheared(1.01e-8), sheared(-1.01e-8), stretched(1.001 * diag_tol),
              stretched(-1.001 * diag_tol)):
        with pytest.raises(ValidationError):
            Frame(m)
    for bad in (np.nan, np.inf):
        m = np.eye(3, 2)
        m[2, 0] = bad
        with pytest.raises(ValidationError), np.errstate(invalid="ignore"):
            Frame(m)


def test_frame_gram_check_agrees_with_allclose():
    rng = np.random.default_rng(24)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, n + 1))
        q, _ = qr_positive(rng.standard_normal((n, k)))
        m = q + 10.0 ** rng.uniform(-10, -4) * rng.standard_normal((n, k))
        ok = np.allclose(m.T @ m, np.eye(k), atol=1e-8)
        try:
            Frame(m)
            accepted = True
        except ValidationError:
            accepted = False
        assert accepted == ok


def test_unitary_frame_isotropy_boundary():
    # e1 pairs with e3 to -1, so e1 and e2 + d e3 pair to -d
    for d, ok in ((0.99e-8, True), (-0.99e-8, True), (1.01e-8, False), (-1.01e-8, False)):
        m = np.eye(4)[:, [0, 1]]
        m[2, 1] = d
        if ok:
            Frame(m, kind="unitary")
        else:
            with pytest.raises(NotUnitaryFrame):
                Frame(m, kind="unitary")


# ---------------------------------------------------------------------- act


def test_act_identity():
    x = Frame(np.eye(3, 2))
    y = act(np.eye(3), x)
    assert np.allclose(y.mat, x.mat)


def test_act_positive_diagonal_fixes_axis_frame():
    x = Frame(np.eye(4)[:, [0, 2]])
    y = act(np.diag([3.0, 1.0, 2.0, 0.5]), x)
    assert np.allclose(y.mat, x.mat, atol=1e-12)


@st.composite
def _two_moves(draw):
    """A frame, plain with n <= 8 and k < n or paired with n <= 4, and two
    invertible matrices that keep its kind (symplectic ones when paired)."""
    paired = draw(st.booleans())
    n = draw(st.integers(1, 4) if paired else st.integers(2, 8))
    k = draw(st.integers(1, n) if paired else st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if paired:
        x = _random_unitary_frame(rng, n, k)
        return x, oracles.random_symplectic(rng, n)[0], oracles.random_symplectic(rng, n)[0]
    a, b = rng.standard_normal((2, n, n)) + 2.0 * np.eye(n)
    assume(max(np.linalg.cond(a), np.linalg.cond(b)) < 1e4)
    return _random_frame(rng, n, k), a, b


@settings(max_examples=100, deadline=None)
@given(_two_moves())
def test_act_is_a_left_action(case):
    x, a, b = case
    assert np.max(np.abs(act(np.eye(x.n), x).mat - x.mat)) < 1e-12
    lhs = act(b, act(a, x))
    assert lhs.kind == x.kind
    assert np.max(np.abs(lhs.mat - act(b @ a, x).mat)) < 1e-9


def test_act_step_rejects_a_product_that_turns_nan():
    # qr_positive lets NaN through; the step's finiteness guard stops it
    # with the error the Gram check raised
    for x in (Frame(np.eye(3, 2)), Frame(np.eye(4, 2), "unitary")):
        a = np.eye(x.n)
        a[1, 1] = np.nan
        with pytest.raises(ValidationError, match="^columns are not orthonormal$"):
            list(_act_steps(a, x, 1))


def test_act_keeps_the_isotropy_check_for_unitary_frames():
    # only a symplectic matrix keeps a unitary frame isotropic
    rng = np.random.default_rng(25)
    x = _random_unitary_frame(rng, 2, 2)
    with pytest.raises(NotUnitaryFrame):
        act(oracles.random_spd(rng, 4), x)


def test_act_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        act(np.eye(4), Frame(np.eye(3, 2)))


def test_act_singular_matrix():
    x = Frame(np.eye(3, 2))
    a = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(Singular):
        act(a, x)
    for bad in (np.inf, np.nan):
        with pytest.raises(Singular, match="non-finite"):
            act(np.diag([1.0, bad, 1.0]), x)


def test_act_preserves_unitary_kind():
    rng = np.random.default_rng(22)
    for n in (1, 2, 3):
        x = _random_unitary_frame(rng, n, n)
        g, j = oracles.random_symplectic(rng, n)
        y = act(g, x)  # Frame validation would reject a non-unitary result
        assert y.kind == "unitary"
        assert np.max(np.abs(y.mat.T @ j @ y.mat)) < 1e-8


def test_act_fixed_points_are_eigenvector_frames():
    rng = np.random.default_rng(23)
    n, k = 4, 2
    basis = oracles.random_orthogonal(rng, n)
    a = basis @ np.diag([5.0, 3.0, 2.0, 1.0]) @ basis.T
    x = Frame(basis[:, [1, 3]])
    y = act(a, x)
    assert np.max(np.abs(y.mat - x.mat)) < 1e-10
    # conversely a generic frame moves
    z = _random_frame(rng, n, k)
    assert np.max(np.abs(act(a, z).mat - z.mat)) > 1e-3


# ----------------------------------------------------------------- truncate


def test_truncate_takes_leading_columns():
    x = Frame(np.eye(4, 3))
    y = truncate(x, 2)
    assert y.k == 2
    assert np.allclose(y.mat, np.eye(4, 2))


def test_truncate_bad_index():
    x = Frame(np.eye(4, 3))
    with pytest.raises(BadIndex):
        truncate(x, 0)
    with pytest.raises(BadIndex):
        truncate(x, 4)


def test_truncate_commutes_with_act():
    rng = np.random.default_rng(24)
    x = _random_frame(rng, 5, 4)
    a = oracles.random_spd(rng, 5)
    lhs = truncate(act(a, x), 2).mat
    rhs = act(a, truncate(x, 2)).mat
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# ------------------------------------------------------------------- flags


def test_signature_must_increase():
    Signature((1, 3, 4))
    with pytest.raises(ValidationError):
        Signature((2, 2))
    with pytest.raises(ValidationError):
        Signature((0, 1))
    with pytest.raises(ValidationError):
        Signature(())


def test_to_flag_needs_enough_columns():
    x = Frame(np.eye(4, 2))
    to_flag(x, Signature((1, 2)))
    with pytest.raises(ShapeMismatch):
        to_flag(x, Signature((1, 3)))


def test_flag_distance_axis_lines():
    u = to_flag(Frame(np.eye(2)[:, [0]]), Signature((1,)))
    v = to_flag(Frame(np.eye(2)[:, [1]]), Signature((1,)))
    assert flag_distance(u, v) == pytest.approx(1.0)
    assert flag_distance(u, u) == pytest.approx(0.0)


def test_flag_distance_ignores_column_sign():
    x = Frame(np.eye(3, 2))
    y = Frame(-np.eye(3, 2))
    sig = Signature((1, 2))
    assert flag_distance(to_flag(x, sig), to_flag(y, sig)) < 1e-14


def test_flag_distance_signature_mismatch():
    x = Frame(np.eye(4, 3))
    with pytest.raises(SignatureMismatch):
        flag_distance(to_flag(x, Signature((1, 2))), to_flag(x, Signature((1, 3))))


def test_flag_distance_metric_properties():
    rng = np.random.default_rng(25)
    sig = Signature((1, 3))
    frames = [_random_frame(rng, 5, 3) for _ in range(3)]
    fl = [to_flag(f, sig) for f in frames]
    d01 = flag_distance(fl[0], fl[1])
    d10 = flag_distance(fl[1], fl[0])
    d02 = flag_distance(fl[0], fl[2])
    d12 = flag_distance(fl[1], fl[2])
    assert d01 == pytest.approx(d10)
    assert d02 <= d01 + d12 + 1e-12
    assert d01 > 0.0


def test_flag_distance_rotation_invariance():
    rng = np.random.default_rng(26)
    sig = Signature((1, 2))
    x = _random_frame(rng, 4, 2)
    y = _random_frame(rng, 4, 2)
    r = oracles.random_orthogonal(rng, 4)
    d0 = flag_distance(to_flag(x, sig), to_flag(y, sig))
    d1 = flag_distance(
        to_flag(act(r, x), sig), to_flag(act(r, y), sig)
    )
    assert d1 == pytest.approx(d0, abs=1e-12)


# --------------------------------------------------------------- isotropy


def test_is_isotropic_small_cases():
    assert is_isotropic(np.eye(4)[:, [0, 1]])
    assert not is_isotropic(np.eye(4)[:, [0, 2]])
    assert is_isotropic(np.eye(2)[:, [0]])  # single column always isotropic


def test_is_isotropic_odd_ambient():
    with pytest.raises(OddAmbient):
        is_isotropic(np.eye(3, 1))


# ------------------------------------------------------------------- JSON


def test_json_roundtrip_exact():
    rng = np.random.default_rng(27)
    x = _random_frame(rng, 5, 2)
    s = frame_to_json(x)
    y = frame_from_json(s)
    assert y.kind == x.kind
    assert np.array_equal(y.mat, x.mat)  # bit-exact through 17 digits
    assert frame_to_json(y) == s


def test_json_fields():
    x = Frame(np.eye(4)[:, [0, 1]], kind="unitary")
    doc = json.loads(frame_to_json(x))
    assert doc["n"] == 4 and doc["k"] == 2 and doc["kind"] == "unitary"
    assert len(doc["entries"]) == 8
    assert doc["entries"][0] == 1.0


def test_json_rejects_garbage():
    with pytest.raises(ValidationError):
        frame_from_json('{"n": 2, "k": 1}')


def test_json_rejects_negative_sizes():
    with pytest.raises(ValidationError, match="positive integer n"):
        frame_from_json('{"n": -1, "k": -1, "kind": "orthogonal", "entries": [1.0]}')


def test_json_rejects_non_integral_sizes():
    # a fractional size must not be truncated to a smaller frame
    with pytest.raises(ValidationError, match="positive integer n"):
        frame_from_json('{"n": 2.9, "k": 1, "kind": "orthogonal", "entries": [1.0, 0.0]}')


# ------------------------------------------------------- numerical hygiene


def test_repeated_actions_stay_orthonormal():
    rng = np.random.default_rng(28)
    x = _random_frame(rng, 5, 3)
    for _ in range(100):
        a = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
        x = act(a, x)
    assert np.max(np.abs(x.mat.T @ x.mat - np.eye(3))) < 1e-9
