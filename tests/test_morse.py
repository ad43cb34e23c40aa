import itertools
import json
import math

import numpy as np
import pytest

import oracles
from frameflow.errors import (
    BadSizes,
    NonPositiveEigenvalue,
    NotSimpleSpectrum,
    OutOfRange,
    PreconditionViolated,
    ShapeMismatch,
    SizeLimitError,
    ValidationError,
    WeightsNotStrict,
)
from frameflow.flows import SpectralData, Weights, default_spectral, flow
from frameflow.frames import Frame, act
from frameflow.morse import (
    Certificate,
    CriticalReport,
    Polynomial,
    counting_bijection,
    counting_inverse,
    critical_report,
    eigenframe,
    fixed_points,
    hessian_spectrum,
    jacobian_spectrum,
    morse_poly,
    perfectness_certificate,
    poincare_poly,
)
from frameflow.skeleton import Perm, build_graph, index_h, singleton_tree, tree_bounds
from frameflow.strata import Tree, member_residual, sample_stratum


def P(n, *word, sp=False):
    return Perm(n, word, symplectic=sp)


def _conj(v, n):
    return v + n if v <= n else v - n


def _j_mat(n):
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def _eigen_basis(p):
    """Direction matrices tangent to the one-dimensional strata at V_pi,
    in the family order the spectrum functions document: partner flips,
    replacements (label-ascending), switches, partner switches."""
    n, k, word = p.n, p.k, p.word
    amb = 2 * n if p.symplectic else n
    used = set(word) | ({_conj(v, n) for v in word} if p.symplectic else set())

    def single(col, label):
        t = np.zeros((amb, k))
        t[label - 1, col] = 1.0
        return t

    dirs = []
    if p.symplectic:
        for i, v in enumerate(word):
            dirs.append(single(i, _conj(v, n)))
    free = [j for j in range(1, amb + 1) if j not in used]
    for i in range(k):
        for j in free:
            dirs.append(single(i, j))
    for i in range(k):
        for j in range(i + 1, k):
            t = np.zeros((amb, k))
            t[word[j] - 1, i] = 1.0
            t[word[i] - 1, j] = -1.0
            dirs.append(t)
    if p.symplectic:
        eps = lambda v: 1.0 if v <= n else -1.0
        for i in range(k):
            for j in range(i + 1, k):
                t = np.zeros((amb, k))
                t[_conj(word[j], n) - 1, i] = 1.0
                t[_conj(word[i], n) - 1, j] = -eps(word[j]) * eps(_conj(word[i], n))
                dirs.append(t)
    return dirs


def _energy_fn(a, b, k):
    # the audited functional: mean of b_i^2 |A x_i|^2 over columns
    amat2 = (a.evecs * np.square(a.evals)) @ a.evecs.T
    bvals = np.asarray(b.values)

    def f(m):
        w = m * bvals
        return float(np.tensordot(amat2 @ w, w)) / k

    return f


# ----------------------------------------------------------------- polynomial


def test_polynomial_validation():
    p = Polynomial((1, 2, 1))
    assert p.degree == 2 and p(1) == 4 and p(2) == 9
    assert Polynomial((0,)).degree == 0
    with pytest.raises(ValidationError):
        Polynomial((1, 0))
    with pytest.raises(ValidationError):
        Polynomial((1, -2, 1))
    with pytest.raises(ValidationError):
        Polynomial(())
    with pytest.raises(ValidationError):
        Polynomial((1.5, 1))


# --------------------------------------------------------------- rest points


def test_fixed_points_counts():
    assert len(fixed_points(3, 3)) == 6
    assert len(fixed_points(2, 2, symplectic=True)) == 8
    assert len(fixed_points(5, 2)) == 20
    pts = fixed_points(4, 2)
    assert len(set(p.word for p in pts)) == 12
    assert [p.word for p in pts] == [v.word for v in build_graph(4, 2).vertices]
    with pytest.raises(SizeLimitError):
        fixed_points(9, 9)
    with pytest.raises(SizeLimitError):
        fixed_points(5, 3, max_points=10)
    with pytest.raises(BadSizes):
        fixed_points(3, 4)


def test_fixed_points_are_action_fixed():
    a = default_spectral(4)
    for p in fixed_points(4, 2):
        v = eigenframe(a, p)
        assert np.allclose(act(a.matrix(), v).mat, v.mat, atol=1e-10)
    asp = default_spectral(2, symplectic=True)
    for p in fixed_points(2, 2, symplectic=True):
        v = eigenframe(asp, p)
        assert v.kind == "unitary"
        assert np.allclose(act(asp.matrix(), v).mat, v.mat, atol=1e-10)


def test_eigenframe_shape_guard():
    a = default_spectral(3)
    with pytest.raises(ShapeMismatch):
        eigenframe(a, P(4, 1, 2))
    with pytest.raises(ShapeMismatch):
        eigenframe(a, P(3, 1, 2, sp=True))


# ------------------------------------------------------------ jacobian audit


def test_jacobian_spectrum_frozen():
    e = math.e
    a = SpectralData((e, 1.0 / e), np.eye(2))
    vals = jacobian_spectrum(a, P(2, 1))
    assert len(vals) == 1 and abs(vals[0] - e**-2) < 1e-15
    vals = jacobian_spectrum(a, P(2, 2))
    assert abs(vals[0] - e**2) < 1e-12


def test_jacobian_spectrum_guards():
    with pytest.raises(NotSimpleSpectrum):
        jacobian_spectrum(SpectralData((2.0, 2.0), np.eye(2)), P(2, 1))
    with pytest.raises(NonPositiveEigenvalue):
        jacobian_spectrum(SpectralData((2.0, -1.0), np.eye(2)), P(2, 1))
    with pytest.raises(ShapeMismatch):
        jacobian_spectrum(default_spectral(3), P(4, 1))
    # the paired action only exists for reciprocal-paired spectra
    with pytest.raises(PreconditionViolated):
        jacobian_spectrum(
            SpectralData((4.0, 2.0, 1.0, 0.5), np.eye(4)), P(2, 1, 2, sp=True)
        )


def test_jacobian_counts_match_grading():
    for n, k in ((4, 2), (4, 4), (5, 3)):
        a = default_spectral(n)
        d = k * (2 * n - k - 1) // 2
        for p in fixed_points(n, k):
            vals = jacobian_spectrum(a, p)
            assert len(vals) == d
            assert all(v > 0 for v in vals)
            assert min(abs(v - 1.0) for v in vals) > 1e-9
            assert sum(1 for v in vals if v > 1.0) == index_h(p)
    for n, k in ((2, 2), (3, 2)):
        a = default_spectral(n, symplectic=True)
        d = k * (2 * n - k)
        for p in fixed_points(n, k, symplectic=True):
            vals = jacobian_spectrum(a, p)
            assert len(vals) == d
            assert sum(1 for v in vals if v > 1.0) == index_h(p)


def test_jacobian_matches_finite_differences():
    a = default_spectral(3)
    amat = a.matrix()
    phi = lambda m: act(amat, Frame(oracles.mgs_qr(m)[0])).mat
    inner = lambda e, f: float(np.tensordot(e, f)) / float(np.tensordot(e, e))
    for p in fixed_points(3, 2):
        basis = _eigen_basis(p)
        jac = oracles.fd_jacobian(phi, eigenframe(a, p).mat, basis, inner)
        closed = jacobian_spectrum(a, p)
        assert np.allclose(np.diag(jac), closed, rtol=1e-5, atol=1e-7)
        off = jac - np.diag(np.diag(jac))
        assert np.max(np.abs(off)) < 1e-5


def test_jacobian_matches_finite_differences_symplectic():
    a = default_spectral(2, symplectic=True)
    amat = a.matrix()
    j = _j_mat(2)
    phi = lambda m: act(amat, Frame(oracles.iso_gs(m, j), "unitary")).mat
    inner = lambda e, f: float(np.tensordot(e, f)) / float(np.tensordot(e, e))
    for k in (1, 2):
        for p in fixed_points(2, k, symplectic=True):
            v = eigenframe(a, p)
            basis = _eigen_basis(p)
            for t in basis:  # sanity: directions are isotropy-tangent
                s = v.mat.T @ j @ t
                assert np.allclose(s, s.T, atol=1e-12)
            jac = oracles.fd_jacobian(phi, v.mat, basis, inner)
            closed = jacobian_spectrum(a, p)
            assert np.allclose(np.diag(jac), closed, rtol=1e-5, atol=1e-7)
            off = jac - np.diag(np.diag(jac))
            assert np.max(np.abs(off)) < 1e-5


# ------------------------------------------------------------- hessian audit


def test_hessian_spectrum_frozen():
    a = SpectralData((2.0, 0.5), np.eye(2))
    vals = hessian_spectrum(a, Weights((1.0,)), P(2, 1))
    assert len(vals) == 1 and abs(vals[0] - 2.0 * (0.25 - 4.0)) < 1e-12
    vals = hessian_spectrum(a, Weights((1.0,)), P(2, 2))
    assert abs(vals[0] - 2.0 * (4.0 - 0.25)) < 1e-12


def test_hessian_spectrum_guards():
    a = default_spectral(4)
    with pytest.raises(WeightsNotStrict):
        hessian_spectrum(a, Weights((1.0, 1.0)), P(4, 1, 2))
    with pytest.raises(ShapeMismatch):
        hessian_spectrum(a, Weights((1.0,)), P(4, 1, 2))
    with pytest.raises(NotSimpleSpectrum):
        hessian_spectrum(SpectralData((2.0, 2.0), np.eye(2)), Weights((1.0,)), P(2, 1))


def test_hessian_counts_match_grading():
    cases = (
        (4, 2, False),
        (4, 4, False),
        (2, 2, True),
        (3, 2, True),
    )
    for n, k, sp in cases:
        a = default_spectral(n, symplectic=sp)
        b = Weights(tuple((k - i) / k for i in range(k)))
        d = k * (2 * n - k) if sp else k * (2 * n - k - 1) // 2
        for p in fixed_points(n, k, symplectic=sp):
            vals = hessian_spectrum(a, b, p)
            assert len(vals) == d
            assert min(abs(v) for v in vals) > 1e-9  # nondegenerate
            assert sum(1 for v in vals if v > 0.0) == index_h(p)
        bottom = counting_bijection(n, k, (0,) * k, symplectic=sp)
        assert all(v < 0 for v in hessian_spectrum(a, b, bottom))
        tops = (2 * n - 2 * i - 1 if sp else n - i - 1 for i in range(k))
        top = counting_bijection(n, k, tuple(tops), symplectic=sp)
        assert all(v > 0 for v in hessian_spectrum(a, b, top))


def test_hessian_matches_finite_differences():
    a = default_spectral(3)
    b = Weights((1.0, 0.5))
    f = _energy_fn(a, b, 2)
    retract = lambda m: oracles.mgs_qr(m)[0]
    for p in fixed_points(3, 2):
        basis = _eigen_basis(p)
        num = oracles.fd_hessian(f, eigenframe(a, p).mat, basis, retract)
        closed = np.asarray(hessian_spectrum(a, b, p))
        scale = np.max(np.abs(closed))
        assert np.allclose(np.diag(num), closed, rtol=1e-4, atol=1e-8 * scale)
        off = num - np.diag(np.diag(num))
        assert np.max(np.abs(off)) < 1e-4 * scale


def test_hessian_matches_finite_differences_symplectic():
    a = default_spectral(2, symplectic=True)
    j = _j_mat(2)
    retract = lambda m: oracles.iso_gs(m, j)
    for k in (1, 2):
        b = Weights(tuple((k - i) / k for i in range(k)))
        f = _energy_fn(a, b, k)
        for p in fixed_points(2, k, symplectic=True):
            basis = _eigen_basis(p)
            num = oracles.fd_hessian(f, eigenframe(a, p).mat, basis, retract)
            closed = np.asarray(hessian_spectrum(a, b, p))
            scale = np.max(np.abs(closed))
            assert np.allclose(np.diag(num), closed, rtol=1e-4, atol=1e-8 * scale)
            off = num - np.diag(np.diag(num))
            assert np.max(np.abs(off)) < 1e-4 * scale


def test_critical_report_consistency():
    a = default_spectral(3)
    b = Weights((1.0, 0.5))
    for p in fixed_points(3, 2):
        rep = critical_report(a, b, p)
        assert isinstance(rep, CriticalReport)
        assert rep.perm == p
        assert rep.morse_index == index_h(p)
        assert rep.morse_index == sum(1 for v in rep.jacobian_eigs if v > 1.0)
        assert rep.morse_index == sum(1 for v in rep.hessian_eigs if v > 0.0)


# ---------------------------------------------------------------- polynomials


def test_poincare_poly_frozen():
    assert poincare_poly(2, 1).coeffs == (1, 1)
    assert poincare_poly(4, 2).coeffs == (1, 2, 3, 3, 2, 1)
    assert poincare_poly(2, 2, symplectic=True).coeffs == (1, 2, 2, 2, 1)
    assert poincare_poly(4, 2).degree == 5
    assert poincare_poly(4, 2)(1) == 12
    with pytest.raises(BadSizes):
        poincare_poly(3, 4)
    with pytest.raises(BadSizes):
        poincare_poly(3, 0)


def test_poincare_poly_against_convolution_oracle():
    for n in range(1, 7):
        for k in range(1, n + 1):
            ref = (1,)
            for i in range(1, k + 1):
                ref = oracles.poly_mul(ref, (1,) * (n - i + 1))
            assert poincare_poly(n, k).coeffs == ref
    for n in range(1, 4):
        for k in range(1, n + 1):
            ref = (1,)
            for i in range(1, k + 1):
                ref = oracles.poly_mul(ref, (1,) * (2 * n - 2 * i + 2))
            assert poincare_poly(n, k, symplectic=True).coeffs == ref


def test_morse_poly_equals_poincare_poly():
    for n in range(1, 7):
        for k in range(1, n + 1):
            m = morse_poly(n, k)
            assert m == poincare_poly(n, k)
            assert m.coeffs == m.coeffs[::-1]  # palindromic
            assert m(1) == len(fixed_points(n, k))
    for n in range(1, 4):
        for k in range(1, n + 1):
            m = morse_poly(n, k, symplectic=True)
            assert m == poincare_poly(n, k, symplectic=True)
            assert m.coeffs == m.coeffs[::-1]
            assert m(1) == len(fixed_points(n, k, symplectic=True))


def test_morse_poly_size_limit():
    with pytest.raises(SizeLimitError):
        morse_poly(9, 9)


# ------------------------------------------------------------- the bijection


def test_counting_bijection_frozen():
    assert counting_bijection(4, 2, (0, 0)).word == (1, 2)
    assert counting_bijection(4, 2, (3, 2)).word == (4, 3)
    assert counting_bijection(2, 2, (3, 1), symplectic=True).word == (3, 4)
    assert counting_bijection(2, 2, (0, 0), symplectic=True).word == (1, 2)
    with pytest.raises(OutOfRange):
        counting_bijection(4, 2, (4, 0))
    with pytest.raises(OutOfRange):
        counting_bijection(4, 2, (0, -1))
    with pytest.raises(OutOfRange):
        counting_bijection(2, 2, (4, 1), symplectic=True)
    with pytest.raises(OutOfRange):
        counting_bijection(4, 2, (0, 0, 0))


def test_counting_bijection_grades_and_roundtrip():
    for n, k in ((4, 2), (5, 3)):
        domain = itertools.product(*(range(n - i + 1) for i in range(1, k + 1)))
        seen = set()
        for s in domain:
            p = counting_bijection(n, k, s)
            assert index_h(p) == sum(s)
            assert counting_inverse(p) == s
            seen.add(p.word)
        assert seen == {q.word for q in fixed_points(n, k)}
    for n, k in ((2, 2), (3, 2)):
        domain = itertools.product(*(range(2 * n - 2 * i + 2) for i in range(1, k + 1)))
        seen = set()
        for s in domain:
            p = counting_bijection(n, k, s, symplectic=True)
            assert index_h(p) == sum(s)
            assert counting_inverse(p) == s
            seen.add(p.word)
        assert seen == {q.word for q in fixed_points(n, k, symplectic=True)}


# ---------------------------------------------------------------- certificate


def test_certificate_passes_desk_scale():
    cert = perfectness_certificate(3, 2)
    assert cert.match
    assert cert.morse == cert.poincare
    assert len(cert.reports) == 6
    assert cert.numeric is not None  # auto-enabled at this size
    blob = json.loads(cert.to_json())
    assert blob["n"] == 3 and blob["k"] == 2 and blob["symplectic"] is False
    assert blob["match"] is True
    assert blob["morse_coeffs"] == [1, 2, 2, 1]
    assert blob["poincare_coeffs"] == [1, 2, 2, 1]
    assert len(blob["per_point"]) == 6
    for row in blob["per_point"]:
        assert row["ok"] is True
        assert row["morse_index"] == row["h"]
        assert row["numeric_index"] == row["h"]
    lines = cert.csv_lines()
    assert lines[0] == "word,h,morse_index,jacobian_above_one,numeric_index,ok"
    assert len(lines) == 7


def test_certificate_symplectic():
    cert = perfectness_certificate(2, 2, symplectic=True)
    assert cert.match
    assert len(cert.reports) == 8
    blob = json.loads(cert.to_json())
    assert blob["symplectic"] is True
    assert blob["morse_coeffs"] == [1, 2, 2, 2, 1]


def test_certificate_deterministic():
    one = perfectness_certificate(3, 2).to_json()
    two = perfectness_certificate(3, 2).to_json()
    assert one == two


def test_certificate_surfaces_spectrum_collision():
    bad = SpectralData((2.0, 2.0, 1.0), np.eye(3))
    with pytest.raises(NotSimpleSpectrum):
        perfectness_certificate(3, 2, spectral=bad)


def test_certificate_skips_numeric_when_disabled():
    cert = perfectness_certificate(5, 2, numeric=False)
    assert cert.numeric is None
    assert cert.match


# ----------------------------------------------- stratum attractor/repeller


def test_flow_attracts_to_stratum_minimum():
    rng = np.random.default_rng(7)
    a = default_spectral(4)
    trees = (
        Tree(4, [{1, 2, 3, 4}] * 2),
        Tree(4, [{2, 3}, {1, 2, 3}, {1, 2, 3, 4}]),
        Tree(4, [{2, 4}, {1, 3}]),
    )
    for t in trees:
        lo, hi = tree_bounds(t)
        for _ in range(3):
            x = sample_stratum(t, a, rng)
            down = flow(a, x, 40.0)
            assert member_residual(singleton_tree(lo), down, a) < 1e-6
            up = flow(a, x, -40.0)
            assert member_residual(singleton_tree(hi), up, a) < 1e-6


def test_flow_attracts_to_stratum_minimum_symplectic():
    rng = np.random.default_rng(11)
    gen = SpectralData((2.0, 1.0, -2.0, -1.0), np.eye(4))
    basis = SpectralData((4.0, 2.0, 0.25, 0.5), np.eye(4))
    t = Tree(2, [{1, 2, 3, 4}] * 2, symplectic=True)
    lo, hi = tree_bounds(t)
    assert lo.word == (1, 2) and hi.word == (3, 4)
    for _ in range(3):
        x = sample_stratum(t, basis, rng)
        down = flow(gen, x, 40.0)
        assert member_residual(singleton_tree(lo), down, basis) < 1e-6
        up = flow(gen, x, -40.0)
        assert member_residual(singleton_tree(hi), up, basis) < 1e-6


# ------------------------------------------------ agreement with the skeleton


def _word_layer_sizes():
    plain = [(n, k, False) for n in range(1, 6) for k in range(1, n + 1)]
    return plain + [(n, k, True) for n in range(1, 4) for k in range(1, n + 1)]


@pytest.mark.parametrize("n,k,sp", _word_layer_sizes())
def test_graph_vertices_are_the_rest_points(n, k, sp):
    g = build_graph(n, k, sp)
    pts = fixed_points(n, k, sp)
    assert [p.word for p in g.vertices] == [p.word for p in pts]
    assert g.h == tuple(index_h(p) for p in pts)


@pytest.mark.parametrize("n,k,sp", _word_layer_sizes())
def test_graph_and_rest_points_share_the_size_budget(n, k, sp):
    count = len(fixed_points(n, k, sp))
    for budget in (count - 1, count):
        fails = []
        for enumerate_words in (build_graph, fixed_points):
            try:
                enumerate_words(n, k, sp, budget)
            except SizeLimitError:
                fails.append(True)
            else:
                fails.append(False)
        assert fails == [budget < count] * 2


def test_certificate_built_directly_derives_its_rows():
    cert = perfectness_certificate(3, 2)
    names = ("n", "k", "symplectic", "morse", "poincare", "match", "reports", "numeric")
    again = Certificate(**{name: getattr(cert, name) for name in names})
    assert again == cert
    assert again.to_json() == cert.to_json()
    assert again.csv_lines() == cert.csv_lines()
