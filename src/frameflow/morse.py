"""Rest-point audit for the frame flows.

Every rest point of the matrix action is a frame of eigenvectors selected
by a word.  This module enumerates the rest points, evaluates closed-form
spectra for the linearized action and for the Hessian of the quadratic
energy at each one, and packages the certificate that the grading
histogram over rest points matches the cell-count polynomial of the frame
space coefficient by coefficient.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonPositiveEigenvalue,
    NotSimpleSpectrum,
    OutOfRange,
    PreconditionViolated,
    ShapeMismatch,
    ValidationError,
    WeightsNotStrict,
)
from .flows import SpectralData, Weights, _energy, _retract, default_spectral
from .frames import KIND_ORTHOGONAL, KIND_UNITARY, Frame
from .skeleton import (
    Perm,
    _check_sizes,
    _dumps,
    _label,
    _moves,
    _rank,
    _unused,
    _words,
    index_h,
)

__all__ = [
    "Certificate",
    "CriticalReport",
    "Polynomial",
    "counting_bijection",
    "counting_inverse",
    "critical_report",
    "eigenframe",
    "fixed_points",
    "hessian_spectrum",
    "jacobian_spectrum",
    "morse_poly",
    "perfectness_certificate",
    "poincare_poly",
]

# paired eigenvalues must multiply to one before the paired action exists
_RECIPROCAL_ATOL = 1e-8


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with nonnegative integer coefficients, constant term first."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(self.coeffs)
        if not c:
            raise ValidationError("a polynomial needs at least one coefficient")
        for v in c:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValidationError(f"coefficients must be integers, got {v!r}")
            if v < 0:
                raise ValidationError(f"coefficients must be nonnegative, got {v!r}")
        if len(c) > 1 and c[-1] == 0:
            raise ValidationError("leading coefficient of a nonconstant polynomial is zero")
        object.__setattr__(self, "coeffs", tuple(int(v) for v in c))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, t):
        out = 0
        for v in reversed(self.coeffs):
            out = out * t + v
        return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def fixed_points(n, k, symplectic=False, max_points=100000):
    """All rest points of the matrix action on (n, k) frames, as words in
    lexicographic order.

    Raises SizeLimit before enumerating more than max_points words.
    """
    return _words(n, k, symplectic, max_points, "rest points")


def _check_point(a, p):
    if not isinstance(a, SpectralData):
        raise ValidationError("expected SpectralData")
    if not isinstance(p, Perm):
        raise ValidationError("expected a Perm")
    amb = 2 * p.n if p.symplectic else p.n
    if a.n != amb:
        raise ShapeMismatch(f"spectral data is {a.n}-dimensional, the word needs {amb}")


def eigenframe(a, p):
    """The frame whose i-th column is the eigenvector selected by word entry i."""
    _check_point(a, p)
    cols = [v - 1 for v in p.word]
    kind = KIND_UNITARY if p.symplectic else KIND_ORTHOGONAL
    return Frame(a.evecs[:, cols], kind)


def _checked_evals(a, p, reciprocal):
    _check_point(a, p)
    for v in a.evals:
        if v <= 0.0:
            raise NonPositiveEigenvalue(f"eigenvalues must be positive, got {v}")
    if not a.is_simple:
        raise NotSimpleSpectrum("repeated eigenvalue, the rest points degenerate")
    if reciprocal and p.symplectic:
        n = p.n
        for v in range(1, n + 1):
            if abs(a.evals[v - 1] * a.evals[v + n - 1] - 1.0) > _RECIPROCAL_ATOL:
                raise PreconditionViolated(
                    "paired eigenvalues must multiply to one for the paired action"
                )
    return a.evals


def _checked_weights(b, p):
    if not isinstance(b, Weights):
        raise ValidationError("expected Weights")
    if b.k != p.k:
        raise ShapeMismatch(f"{b.k} weights cannot scale {p.k} columns")
    if not b.is_strict:
        raise WeightsNotStrict("equal weights flatten the energy along switches")
    return b.values


def _squares(vals):
    return [v * v for v in vals]


def _spectra(lam, lam2, b2, p, moves):
    """Jacobian and Hessian spectra at the rest point of p, one entry per
    move of moves = skeleton._moves(p); lam2 and b2 hold the squared
    eigenvalues and weights."""
    word = p.word
    scale = 2.0 / p.k
    jac, hess = [], []
    for i, u, j, v in moves:
        out = word[i] - 1
        jac.append(lam[u - 1] / lam[out])
        gap = lam2[u - 1] - lam2[out]
        if j < 0:
            hess.append(scale * b2[i] * gap)
        elif u == word[j]:  # in-word switch
            hess.append(scale * (b2[i] - b2[j]) * gap)
        else:  # partner switch
            hess.append(scale * (b2[i] * gap + b2[j] * (lam2[v - 1] - lam2[word[j] - 1])))
    return tuple(jac), tuple(hess)


def jacobian_spectrum(a, p):
    """Eigenvalues of the linearized action at the rest point of p, one per
    one-dimensional stratum through p, in the family order of skeleton._moves.

    Each entry is the ratio of the eigenvalues of the labels a move swaps
    into and out of its first column; the count above one equals the
    grading of the word whenever the eigenvalues are rank-descending.
    """
    lam = _checked_evals(a, p, reciprocal=True)
    # the Jacobian does not read the weights; unit ones fill the kernel's slot
    return _spectra(lam, _squares(lam), (1.0,) * p.k, p, _moves(p))[0]


def hessian_spectrum(a, b, p):
    """Eigenvalues of the Hessian of the weighted quadratic energy at the
    rest point of p, in the same order as jacobian_spectrum.

    The energy averages b_i^2 |A x_i|^2 over columns, so every entry is a
    difference of squared eigenvalues scaled by squared weights.  A partner
    switch mixes two column weights; its entry keeps both terms.
    """
    lam = _checked_evals(a, p, reciprocal=False)
    b2 = _squares(_checked_weights(b, p))
    return _spectra(lam, _squares(lam), b2, p, _moves(p))[1]


@dataclass(frozen=True)
class CriticalReport:
    """Closed-form audit of one rest point."""

    perm: Perm
    jacobian_eigs: tuple
    hessian_eigs: tuple
    morse_index: int


def _reports(a, b, pts):
    """critical_report of every point of pts, words of one (n, k) space.
    The checks read only the sizes of a word, so they run once, against
    the first point, in critical_report's order."""
    lam = _checked_evals(a, pts[0], reciprocal=True)
    b2 = _squares(_checked_weights(b, pts[0]))
    lam2 = _squares(lam)
    out = []
    for p in pts:
        jac, hess = _spectra(lam, lam2, b2, p, _moves(p))
        out.append(CriticalReport(p, jac, hess, sum(1 for v in hess if v > 0.0)))
    return tuple(out)


def critical_report(a, b, p):
    """Spectra and index of the rest point of p; the index counts positive
    Hessian eigenvalues."""
    return _reports(a, b, (p,))[0]


def poincare_poly(n, k, symplectic=False):
    """Cell-count polynomial of the (n, k) frame space: the product of one
    truncated geometric factor per column."""
    _check_sizes(n, k)
    coeffs = (1,)
    for i in range(1, k + 1):
        width = 2 * n - 2 * i + 2 if symplectic else n - i + 1
        coeffs = _poly_mul(coeffs, (1,) * width)
    return Polynomial(coeffs)


def _histogram(grades, n, k, symplectic):
    # top grading = dimension of the frame space
    top = k * (2 * n - k) if symplectic else k * (2 * n - k - 1) // 2
    coeffs = [0] * (top + 1)
    for h in grades:
        coeffs[h] += 1
    return Polynomial(tuple(coeffs))


def morse_poly(n, k, symplectic=False, max_points=100000):
    """Histogram of the grading over all rest points, as a polynomial."""
    pts = fixed_points(n, k, symplectic, max_points)
    return _histogram((index_h(p) for p in pts), n, k, symplectic)


def _available(word, n, symplectic):
    # labels a counter may still pick after word, in precedence order
    return sorted(_unused(word, n, symplectic), key=lambda v: _rank(v, n))


def counting_bijection(n, k, s, symplectic=False):
    """Word whose grading equals sum(s): the i-th letter is the (s_i+1)-th
    smallest available label in the precedence order, where choosing a
    label retires it (and its partner, in the paired case)."""
    _check_sizes(n, k)
    s = tuple(s)
    if len(s) != k:
        raise OutOfRange(f"counter needs {k} entries, got {len(s)}")
    word = []
    for i, si in enumerate(s, start=1):
        top = 2 * n - 2 * i + 1 if symplectic else n - i
        if isinstance(si, bool) or not isinstance(si, (int, np.integer)):
            raise OutOfRange(f"counter entries must be integers, got {si!r}")
        if not 0 <= si <= top:
            raise OutOfRange(f"entry {i} must lie in 0..{top}, got {si}")
        word.append(_available(word, n, symplectic)[si])
    return Perm(n, tuple(word), symplectic=symplectic)


def counting_inverse(p):
    """Counter of a word: how many still-available labels precede each letter."""
    if not isinstance(p, Perm):
        raise ValidationError("expected a Perm")
    return tuple(
        _available(p.word[:i], p.n, p.symplectic).index(v) for i, v in enumerate(p.word)
    )


def _chart_directions(p):
    """Tangent directions at the rest point of p, one per one-dimensional
    stratum through it, in the order of the spectrum functions.

    Coordinates are in the eigenvector-label basis; switch directions have
    norm sqrt(2) because they parametrize a rotation of two columns."""
    n, k, word = p.n, p.k, p.word
    amb = 2 * n if p.symplectic else n
    eps = lambda v: 1.0 if v <= n else -1.0
    dirs = []
    for i, u, j, v in _moves(p):
        t = np.zeros((amb, k))
        t[u - 1, i] = 1.0
        if j >= 0:
            # a partner switch's sign keeps the curve inside the isotropic frames
            t[v - 1, j] = -1.0 if u == word[j] else -eps(word[j]) * eps(v)
        dirs.append(t)
    return dirs


def _numeric_index(a, b, p, step):
    """Count positive second differences of the energy along the chart
    directions; a flat direction counts as nonpositive, and so does a NaN
    one, where the squared eigenvalues overflow."""
    v = eigenframe(a, p)
    bv = np.asarray(b.values)
    idx = 0
    with np.errstate(over="ignore", invalid="ignore"):
        amat2 = (a.evecs * np.square(a.evals)) @ a.evecs.T
        f0 = _energy(amat2, bv, v.mat)
        for t in _chart_directions(p):
            d = a.evecs @ t
            plus = _energy(amat2, bv, _retract(v.mat + step * d, v.kind))
            minus = _energy(amat2, bv, _retract(v.mat - step * d, v.kind))
            if plus - 2.0 * f0 + minus > 0.0:
                idx += 1
    return idx


# rest-point columns, named alike in the morse and certify outputs
_REST_COLUMNS = ("word", "h", "morse_index", "jacobian_above_one")
_CERT_COLUMNS = _REST_COLUMNS + ("numeric_index", "ok")


def _rest_row(rep):
    """Values of _REST_COLUMNS for one audited rest point."""
    above = sum(1 for v in rep.jacobian_eigs if v > 1.0)
    return rep.perm.word, index_h(rep.perm), rep.morse_index, above


def _certificate_rows(reports, numeric):
    rows = []
    for pos, rep in enumerate(reports):
        word, h, mi, above = _rest_row(rep)
        num = None if numeric is None else numeric[pos]
        ok = mi == h == above and (num is None or num == h)
        rows.append((word, h, mi, above, num, ok))
    return tuple(rows)


@dataclass(frozen=True)
class Certificate:
    """Perfectness audit: grading histogram vs cell-count polynomial, with a
    per-rest-point index cross-check."""

    n: int
    k: int
    symplectic: bool
    morse: Polynomial
    poincare: Polynomial
    match: bool
    reports: tuple
    numeric: tuple  # numeric indices aligned with reports, or None
    # per-point values of _CERT_COLUMNS; derived from reports and numeric
    # when not given
    _rows: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._rows is None:
            object.__setattr__(self, "_rows", _certificate_rows(self.reports, self.numeric))

    def to_json(self):
        """The bytes of json.dumps(..., indent=2, sort_keys=True) + "\n" of
        the certificate."""
        points = [
            {"h": h, "jacobian_above_one": above, "morse_index": mi, "numeric_index": num,
             "ok": ok, "word": word}
            for word, h, mi, above, num, ok in self._rows
        ]
        doc = {"k": self.k, "match": self.match, "morse_coeffs": self.morse.coeffs,
               "n": self.n, "per_point": points, "poincare_coeffs": self.poincare.coeffs,
               "symplectic": self.symplectic}
        return _dumps(doc) + "\n"

    def csv_lines(self):
        lines = [",".join(_CERT_COLUMNS)]
        for word, h, mi, above, num, ok in self._rows:
            numtxt = "" if num is None else str(num)
            lines.append(f"{_label(word)},{h},{mi},{above},{numtxt},{str(ok).lower()}")
        return lines


def perfectness_certificate(
    n,
    k,
    symplectic=False,
    spectral=None,
    weights=None,
    numeric=None,
    step=1e-4,
    max_points=100000,
):
    """Audit every rest point of the (n, k) frame space and certify that the
    grading histogram equals the cell-count polynomial.

    numeric=None enables the finite-difference index cross-check at desk
    scale (n <= 4, or n <= 2 in the paired case) and skips it above that.
    A repeated eigenvalue in spectral aborts with NotSimpleSpectrum.
    """
    pts = fixed_points(n, k, symplectic, max_points)
    a = default_spectral(n, symplectic) if spectral is None else spectral
    b = Weights(tuple((k - i) / k for i in range(k))) if weights is None else weights
    if numeric is None:
        numeric = n <= 2 if symplectic else n <= 4
    reports = _reports(a, b, pts)
    nums = tuple(_numeric_index(a, b, p, step) for p in pts) if numeric else None
    rows = _certificate_rows(reports, nums)
    morse = _histogram((row[1] for row in rows), n, k, symplectic)
    poincare = poincare_poly(n, k, symplectic)
    return Certificate(
        n=n,
        k=k,
        symplectic=bool(symplectic),
        morse=morse,
        poincare=poincare,
        match=morse == poincare and all(row[5] for row in rows),
        reports=reports,
        numeric=nums,
        _rows=rows,
    )
