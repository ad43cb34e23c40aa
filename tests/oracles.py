"""Independent reference implementations used only by the test suite.

Everything here is deliberately written with a different algorithm than the
package under test (modified Gram-Schmidt instead of Householder QR,
least-squares null-space projections instead of closed forms, brute-force
poset searches instead of recursions) so that agreement is meaningful.
"""

import json

import numpy as np
import scipy.linalg


def mgs_qr(x):
    """Modified Gram-Schmidt QR with positive diagonal. Returns (q, r)."""
    x = np.array(x, dtype=float)
    n, k = x.shape
    q = np.zeros((n, k))
    r = np.zeros((k, k))
    v = x.copy()
    for i in range(k):
        r[i, i] = np.linalg.norm(v[:, i])
        if r[i, i] < 1e-12 * max(1.0, np.linalg.norm(x[:, i])):
            raise ZeroDivisionError("oracle: rank deficient")
        q[:, i] = v[:, i] / r[i, i]
        for j in range(i + 1, k):
            r[i, j] = q[:, i] @ v[:, j]
            v[:, j] = v[:, j] - r[i, j] * q[:, i]
    return q, r


def fd_qfactor_derivative(x, v, h=1e-6):
    """Central difference of the Q-factor map along direction v."""
    qp, _ = mgs_qr(x + h * v)
    qm, _ = mgs_qr(x - h * v)
    return (qp - qm) / (2.0 * h)


def iso_gs(x, j):
    """Gram-Schmidt that also removes components along j @ (earlier columns).

    Produces a frame whose columns are orthonormal and pairwise isotropic
    for the skew form j.  Used to build reference unitary frames.
    """
    x = np.array(x, dtype=float)
    n, k = x.shape
    q = np.zeros((n, k))
    for i in range(k):
        w = x[:, i].copy()
        for t in range(i):
            w -= (q[:, t] @ w) * q[:, t]
            jq = j @ q[:, t]
            w -= (jq @ w) * jq
        nrm = np.linalg.norm(w)
        if nrm < 1e-10:
            raise ZeroDivisionError("oracle: isotropic GS breakdown")
        q[:, i] = w / nrm
    return q


def iso_orthonormalize_loop(m, j):
    """The isotropic re-orthonormalization retract as a plain double loop,
    forming j @ q[:, t] anew for every pair (i, t).

    Unlike the other oracles this one is the same algorithm as the package's
    (flows._iso_orthonormalize), kept in its first form as the bit reference
    for the retract's loop.  A collapsed column raises ZeroDivisionError
    with the retract's RankDeficient message.
    """
    m = np.array(m, dtype=float)
    n2, k = m.shape
    q = np.zeros_like(m)
    for i in range(k):
        w = m[:, i].copy()
        for t in range(i):
            w -= (q[:, t] @ w) * q[:, t]
            jq = j @ q[:, t]
            w -= (jq @ w) * jq
        nrm = np.linalg.norm(w)
        if nrm < 1e-8:
            raise ZeroDivisionError(f"column {i} collapsed during re-orthonormalization")
        q[:, i] = w / nrm
    return q


def lstsq_tangent_projection(x, b, j=None):
    """Project b onto the tangent space at frame x via pure least squares.

    The tangent space is the null space of the linearized constraints
    x^T v + v^T x = 0 (and, when j is given, x^T j v + v^T j x = 0).
    Build the constraint matrix row by row in flattened coordinates and
    project with the pseudoinverse: v = (I - C^+ C) b.
    """
    x = np.asarray(x, dtype=float)
    n, k = x.shape
    rows = []
    for a in range(k):
        for c in range(a, k):
            m = np.zeros((n, k))
            m[:, c] += x[:, a]
            m[:, a] += x[:, c]
            rows.append(m.ravel())
    if j is not None:
        # the skew form's derivative matrix is itself skew, so only entries
        # strictly above the diagonal are independent constraints
        for a in range(k):
            for c in range(a + 1, k):
                m = np.zeros((n, k))
                m[:, c] += j.T @ x[:, a]
                m[:, a] += j @ x[:, c]
                rows.append(m.ravel())
    cmat = np.array(rows)
    bb = np.asarray(b, dtype=float).ravel()
    v = bb - np.linalg.pinv(cmat) @ (cmat @ bb)
    return v.reshape(n, k)


def random_orthogonal(rng, n):
    q, _ = mgs_qr(rng.standard_normal((n, n)))
    return q


def random_spd(rng, n, spread=2.0):
    q = random_orthogonal(rng, n)
    lam = np.exp(rng.uniform(-spread, spread, size=n))
    return q @ np.diag(lam) @ q.T


def random_symplectic(rng, n, scale=0.5):
    """exp(J S) with S symmetric lies in the symplectic group."""
    j = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    s = rng.standard_normal((2 * n, 2 * n)) * scale
    s = (s + s.T) / 2.0
    return scipy.linalg.expm(j @ s), j


def random_orthogonal_symplectic(rng, n, scale=0.7):
    """Orthogonal AND symplectic: exp of [[A,-B],[B,A]], A skew, B symmetric."""
    a = rng.standard_normal((n, n)) * scale
    a = (a - a.T) / 2.0
    b = rng.standard_normal((n, n)) * scale
    b = (b + b.T) / 2.0
    g = np.block([[a, -b], [b, a]])
    return scipy.linalg.expm(g)


def fd_directional(f, x, v, retract, h=1e-5):
    """Central difference of f along v through the supplied retraction."""
    return (f(retract(x + h * v)) - f(retract(x - h * v))) / (2.0 * h)


def fd_hessian(f, x, basis, retract, h=1e-4):
    """Symmetric finite-difference Hessian of f at frame x in the chart
    spanned by the orthonormal (Hilbert-Schmidt) tangent basis."""
    d = len(basis)
    hess = np.zeros((d, d))
    f0 = f(x)
    for a in range(d):
        fp = f(retract(x + h * basis[a]))
        fm = f(retract(x - h * basis[a]))
        hess[a, a] = (fp - 2.0 * f0 + fm) / (h * h)
    for a in range(d):
        for c in range(a + 1, d):
            fpp = f(retract(x + h * (basis[a] + basis[c])))
            fpm = f(retract(x + h * (basis[a] - basis[c])))
            fmp = f(retract(x - h * (basis[a] - basis[c])))
            fmm = f(retract(x - h * (basis[a] + basis[c])))
            hess[a, c] = hess[c, a] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return hess


def fd_jacobian(phi, x, basis, inner, h=1e-5):
    """Finite-difference Jacobian of the frame map phi in the given chart.

    inner(e, f) is the ambient inner product used to read off coordinates.
    """
    d = len(basis)
    jac = np.zeros((d, d))
    for c in range(d):
        dp = phi(x + h * basis[c])
        dm = phi(x - h * basis[c])
        dv = (dp - dm) / (2.0 * h)
        for a in range(d):
            jac[a, c] = inner(basis[a], dv)
    return jac


def lstsq_stratum_search(masks, basis_mat, rng, tries=40, j=None):
    """Randomized check that a tree's stratum is nonempty.

    Attempts to build an orthonormal k-tuple with column i supported on the
    eigenvector set masks[i] by subtracting all earlier columns (and, when
    the skew form j is supplied, their j-partners) from a random vector in
    the allowed span.  Returns the best achieved constraint residual
    (near 0 means a witness was found, inf means breakdown every try).
    """
    n = basis_mat.shape[0]
    k = len(masks)
    best = np.inf
    for _ in range(tries):
        cols = []
        ok = True
        for i in range(k):
            idx = [e for e in range(n) if masks[i] >> e & 1]
            w = basis_mat[:, idx] @ rng.standard_normal(len(idx))
            for c in cols:
                w = w - (c @ w) * c
                if j is not None:
                    jc = j @ c
                    w = w - (jc @ w) * jc
            nrm = np.linalg.norm(w)
            if nrm < 1e-6:
                ok = False
                break
            cols.append(w / nrm)
        if not ok:
            continue
        xm = np.column_stack(cols)
        res = np.linalg.norm(xm.T @ xm - np.eye(k))
        if j is not None:
            res = max(res, np.max(np.abs(xm.T @ j @ xm)))
        best = min(best, res)
    return best


def reachability(n_vertices, edges):
    """Transitive closure: reach[i] = set of vertices reachable from i
    (including i itself) following directed edges."""
    adj = [[] for _ in range(n_vertices)]
    for a, b in edges:
        adj[a].append(b)
    reach = []
    for s in range(n_vertices):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(frozenset(seen))
    return reach


def brute_glb(members, n_vertices, reach):
    """Greatest lower bound of a vertex set in the reachability order,
    or None.  u <= v  iff  v in reach[u]."""
    lower = [u for u in range(n_vertices) if all(m in reach[u] for m in members)]
    for g in lower:
        if all(g in reach[u] for u in lower):
            return g
    return None


def brute_lub(members, n_vertices, reach):
    upper = [u for u in range(n_vertices) if all(u in reach[m] for m in members)]
    for g in upper:
        if all(u in reach[g] for u in upper):
            return g
    return None


def poly_mul(a, b):
    """Integer polynomial product on coefficient tuples."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def scan_irreducible(n, k, symplectic=False):
    """Mask tuples of the irreducible consistent trees with k nodes, found by
    trying every nonempty mask at every level (levelwise mask-ascending)."""
    u = 2 * n if symplectic else n
    low = (1 << n) - 1
    results = []

    def extend(prefix):
        # prefix entries are (mask, partner mask, forces)
        for m in range(1, 1 << u):
            size = bin(m).count("1")
            dep = cod = beta = 0
            ok = True
            for pm, pc, pforces in prefix:
                inside = False
                if pm & m:
                    if pm | m != m or pforces:
                        ok = False
                        break
                    dep += 1
                    inside = True
                if symplectic and pc & m:
                    if pc | m != m or pforces:
                        ok = False
                        break
                    cod += 1
                    beta += inside
            if not ok or dep + cod + 1 > size:
                continue
            if symplectic:
                cm = ((m & low) << n) | (m >> n)
                forces = 2 * (dep + cod + 1 - beta) == 2 * size - bin(m & cm).count("1")
            else:
                cm = 0
                forces = dep + 1 == size
            if len(prefix) + 1 == k:
                results.append(tuple(p[0] for p in prefix) + (m,))
            else:
                extend(prefix + [(m, cm, forces)])

    extend([])
    return results


# ------------------------------------------------ rest-point JSON, by dicts
#
# The three rest-point JSON outputs as they were written before their
# direct writers: a dict per document, rendered by json.dumps with indent=2
# (which runs the pure-Python encoder).


def skeleton_json(g):
    """SkeletonGraph.to_json of g."""
    blob = {
        "n": g.n,
        "k": g.k,
        "symplectic": g.symplectic,
        "vertices": [list(p.word) for p in g.vertices],
        "edges": [list(e) for e in g.edges],
        "index": list(g.h),
    }
    return json.dumps(blob, indent=2, sort_keys=True) + "\n"


def certificate_json(cert):
    """Certificate.to_json of cert; its rows are (word, h, morse_index,
    jacobian_above_one, numeric_index, ok)."""
    cols = ("word", "h", "morse_index", "jacobian_above_one", "numeric_index", "ok")
    blob = {
        "n": cert.n,
        "k": cert.k,
        "symplectic": cert.symplectic,
        "morse_coeffs": list(cert.morse.coeffs),
        "poincare_coeffs": list(cert.poincare.coeffs),
        "match": cert.match,
        "per_point": [dict(zip(cols, row)) for row in cert._rows],
    }
    return json.dumps(blob, indent=2, sort_keys=True) + "\n"


def morse_json(n, k, symplectic, evals, weights, reports, grades):
    """The morse command's JSON for critical reports of the words in order,
    with grades[i] the grading of the i-th word."""
    points = [
        {
            "word": rep.perm.word,
            "h": h,
            "morse_index": rep.morse_index,
            "jacobian_above_one": sum(1 for v in rep.jacobian_eigs if v > 1.0),
            "jacobian_eigs": list(rep.jacobian_eigs),
            "hessian_eigs": list(rep.hessian_eigs),
        }
        for rep, h in zip(reports, grades)
    ]
    blob = {
        "n": n,
        "k": k,
        "symplectic": symplectic,
        "eigenvalues": list(evals),
        "weights": list(weights),
        "points": points,
    }
    return json.dumps(blob, indent=2) + "\n"


def path_json(cfg, a, samples, value_cols, meta):
    """The flow and gradient-flow JSON as its dict builder wrote it, for
    samples (t, frame matrix, values in value_cols order, stationary) and
    the command's own top-level fields meta."""
    doc = {
        "command": cfg.command,
        "n": cfg.n,
        "k": cfg.k,
        "symplectic": cfg.symplectic,
        "seed": cfg.seed,
        "eigenvalues": list(a.evals),
        "step": cfg.step,
        "horizon": cfg.horizon,
        "tolerance": cfg.tolerance,
        **meta,
        "settled": samples[-1][3],
        "rows": [
            {
                "t": t,
                **dict(zip(value_cols, vals)),
                "stationary": still,
                "entries": mat.tolist(),
            }
            for t, mat, vals, still in samples
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# ------------------------------------------ the exact integrator, step by step
#
# The exact flow as it ran before its steps were checked per block: one act
# per grid step, each with its own rank, finiteness and isotropy tests.  Like
# iso_orthonormalize_loop this is the package's algorithm, kept in its first
# form as the bit reference (numpy.linalg.qr gives the bits of the package's
# LAPACK calls).  A failed test raises StepError under the name of the
# package's exception and with its message; anything else raised on the way
# (numpy's LinAlgError, a warning turned into an error) passes through.


class StepError(Exception):
    def __init__(self, name, message):
        super().__init__(message)
        self.name = name


def act_loop(a, q, count, unitary=False, atol=1e-10):
    """Yield the frame matrix after each of count steps q -> the Q factor,
    with r's diagonal positive, of a @ q."""
    j = None
    if unitary:
        m = q.shape[0] // 2
        j = np.block([[np.zeros((m, m)), -np.eye(m)], [np.eye(m), np.zeros((m, m))]])
    for _ in range(count):
        y = a @ q
        q, r = np.linalg.qr(y)
        d = r.diagonal()
        bad = np.abs(d) < atol * np.maximum(1.0, np.sqrt((y * y).sum(axis=0)))
        if bad.any():
            raise StepError(
                "RankDeficient", f"columns {np.nonzero(bad)[0].tolist()} numerically dependent"
            )
        q = q * np.where(d < 0.0, -1.0, 1.0)
        if not np.isfinite(q).all():
            raise StepError("ValidationError", "columns are not orthonormal")
        if unitary and np.max(np.abs(q.T @ j @ q)) > 1e-8:
            raise StepError("NotUnitaryFrame", "columns are not pairwise isotropic")
        yield q


def exact_flow_loop(evals, evecs, q, step, horizon, unitary=False):
    """Yield (t, frame matrix) along the exact flow of the symmetric matrix
    with these eigenvalues and eigenvector columns, on the grid of
    flow_path: floor(|horizon|/step + 1e-9) steps, then a remainder step
    when more than 1e-12 of the horizon is left.  exp(dt a) is checked for
    invertibility just before its first step."""
    span = abs(horizon)
    nsteps = int(np.floor(span / step + 1e-9))
    rem = span - nsteps * step
    dts = [step] * nsteps + ([rem] if rem > 1e-12 else [])
    times = [i * step for i in range(1, nsteps + 1)] + [horizon]
    mats = {}
    yield 0.0, q
    for t, dt in zip(times, dts):
        if dt not in mats:
            m = (evecs * np.exp(dt * np.asarray(evals))) @ evecs.T
            if not np.isfinite(m).all():
                raise StepError("Singular", "matrix has non-finite entries")
            sv = np.linalg.svd(m, compute_uv=False)
            if sv[0] == 0.0 or sv[-1] <= 1e-8 * sv[0]:
                raise StepError("Singular", "matrix is numerically singular")
            mats[dt] = m
        (q,) = act_loop(mats[dt], q, 1, unitary)
        yield t, q
