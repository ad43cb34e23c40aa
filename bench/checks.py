"""Output checks: parse one job's output and test invariants it must hold.

Each check returns an Outcome with the job's work units (output rows for the
path commands, trees for strata, words for the rest-point commands) and the
numerical health read from the output, or raises CheckFailed.  The expected
counts come from closed forms here, not from frameflow, so a wrong count in
the program cannot also move the reference.
"""

import json
import math
from typing import NamedTuple

import numpy as np

STEP = 1e-2  # the CLI default, which every path job uses
ORTH_TOL = 1e-8
ENERGY_TOL = 1e-10


class CheckFailed(Exception):
    pass


class Outcome(NamedTuple):
    units: int
    orth_defect: float = 0.0  # worst |X^T X - I| (and |X^T J X| when paired)
    energy_dip: float = 0.0  # worst energy step against the flow direction


def grid_rows(horizon, step=STEP):
    """Rows of a path sampled on the step grid, endpoints included."""
    nsteps = math.floor(horizon / step + 1e-9)
    rem = horizon - nsteps * step
    return nsteps + 1 + (1 if rem > 1e-12 else 0)


def rest_point_count(n, k, symplectic):
    if symplectic:
        return math.prod(2 * (n - i) for i in range(k))
    return math.perm(n, k)


def frame_dimension(n, k, symplectic):
    return k * (2 * n - k) if symplectic else k * (2 * n - k - 1) // 2


def poincare_coeffs(n, k, symplectic):
    coeffs = [1]
    for i in range(1, k + 1):
        width = 2 * n - 2 * i + 2 if symplectic else n - i + 1
        out = [0] * (len(coeffs) + width - 1)
        for a, c in enumerate(coeffs):
            for b in range(width):
                out[a + b] += c
        coeffs = out
    return coeffs


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _frame_defects(frames, symplectic):
    """Per-frame orthonormality (and isotropy) defect of a (rows, n, k) stack."""
    k = frames.shape[2]
    gram = np.einsum("rik,ril->rkl", frames, frames) - np.eye(k)
    defect = np.abs(gram).max(axis=(1, 2))
    if symplectic:
        half = frames.shape[1] // 2
        jx = np.concatenate([frames[:, half:], -frames[:, :half]], axis=1)
        iso = np.abs(np.einsum("rik,ril->rkl", frames, jx)).max(axis=(1, 2))
        defect = np.maximum(defect, iso)
    return defect


def _check_path(job, values, frames):
    """Row count, final frame, and (for gradient flows) energy monotonicity."""
    rows = grid_rows(job.horizon)
    _require(len(frames) == rows, f"{len(frames)} rows, expected {rows}")
    defects = _frame_defects(frames, job.symplectic)
    _require(
        defects[-1] <= ORTH_TOL, f"final frame defect {defects[-1]:.3e} > {ORTH_TOL}"
    )
    dip = 0.0
    if values is not None:
        direction = -1.0 if job.descend else 1.0
        dip = max(0.0, float(np.max(-direction * np.diff(values))))
        _require(dip <= ENERGY_TOL, f"energy moved against the flow by {dip:.3e}")
    return Outcome(rows, float(defects.max()), dip)


def _path_csv(job, text):
    lines = text.splitlines()
    header = lines[0].split(",")
    first_x = next(i for i, name in enumerate(header) if name.startswith("x_"))
    body = [line.split(",") for line in lines[1:]]
    amb = 2 * job.n if job.symplectic else job.n
    frames = np.array([r[first_x:] for r in body], dtype=float).reshape(-1, amb, job.k)
    values = None
    if "value" in header:
        col = header.index("value")
        values = np.array([r[col] for r in body], dtype=float)
    return _check_path(job, values, frames)


def _path_json(job, text):
    doc = json.loads(text)
    rows = doc["rows"]
    frames = np.array([r["entries"] for r in rows], dtype=float)
    values = np.array([r["value"] for r in rows], dtype=float)
    _require(doc["direction"] == (-1 if job.descend else 1), "wrong direction")
    return _check_path(job, values, frames)


def _lyapunov_json(job, text):
    doc = json.loads(text)
    _require(doc["monotone"], f"audit not monotone: {doc['max_violation']}")
    _require(doc["stalls_ok"], "audit stalled away from a rest point")
    rows = grid_rows(job.horizon)
    _require(doc["rows"] == rows, f"{doc['rows']} rows, expected {rows}")
    return Outcome(doc["rows"], energy_dip=float(doc["max_violation"]))


def _strata(job, text):
    if job.format == "csv":
        dims = [int(line.split(",")[1]) for line in text.splitlines()[1:]]
    else:
        dims = [t["dim"] for t in json.loads(text)["trees"]]
    zero = sum(1 for d in dims if d == 0)
    want = rest_point_count(job.n, job.k, job.symplectic)
    _require(zero == want, f"{zero} zero-dimensional trees, expected {want}")
    return Outcome(len(dims))


def _skeleton_edges(job, text):
    """(vertex count or None, list of (tail, head)) from any skeleton format."""
    if job.format == "json":
        doc = json.loads(text)
        return len(doc["vertices"]), [tuple(e) for e in doc["edges"]]
    if job.format == "csv":
        return None, [tuple(line.split(",")) for line in text.splitlines()[1:]]
    vertices = 0
    edges = []
    for line in text.splitlines():
        if "->" in line:
            tail, head = line.strip().rstrip(";").split(" -> ")
            edges.append((tail, head))
        elif "[label=" in line:
            vertices += 1
    return vertices, edges


def _skeleton(job, text):
    vertices, edges = _skeleton_edges(job, text)
    degree = {}
    for tail, head in edges:
        degree[tail] = degree.get(tail, 0) + 1
        degree[head] = degree.get(head, 0) + 1
    want_v = rest_point_count(job.n, job.k, job.symplectic)
    want_deg = frame_dimension(job.n, job.k, job.symplectic)
    if vertices is None:  # csv lists edges only; isolated vertices do not show
        vertices = len(degree) if want_deg else want_v
    _require(vertices == want_v, f"V={vertices}, expected {want_v}")
    if want_deg:
        _require(len(degree) == want_v, f"{want_v - len(degree)} vertices without edges")
    bad = [v for v, d in degree.items() if d != want_deg]
    _require(not bad, f"{len(bad)} vertices with degree other than {want_deg}")
    return Outcome(vertices)


def _histogram_matches(job, grades):
    hist = [0] * (max(grades) + 1)
    for g in grades:
        hist[g] += 1
    want = poincare_coeffs(job.n, job.k, job.symplectic)
    _require(hist == want, f"index histogram {hist} != Poincare {want}")


def _morse(job, text):
    if job.format == "csv":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        pairs = [(int(r[1]), int(r[2])) for r in rows]
    else:
        pairs = [(p["h"], p["morse_index"]) for p in json.loads(text)["points"]]
    _require(all(h == mi for h, mi in pairs), "morse_index differs from h")
    _histogram_matches(job, [mi for _, mi in pairs])
    return Outcome(len(pairs))


def _certify(job, text):
    if job.format == "json":
        doc = json.loads(text)
        _require(doc["match"] is True, "certificate does not match")
        return Outcome(len(doc["per_point"]))
    rows = [line.split(",") for line in text.splitlines()[1:]]
    _require(all(r[5] == "true" for r in rows), "a rest point failed its audit")
    _histogram_matches(job, [int(r[1]) for r in rows])
    return Outcome(len(rows))


_CHECKS = {
    ("lyapunov", "json"): _lyapunov_json,
    ("flow", "csv"): _path_csv,
    ("gradient-flow", "csv"): _path_csv,
    ("gradient-flow", "json"): _path_json,
    ("strata", "csv"): _strata,
    ("strata", "json"): _strata,
    ("skeleton", "csv"): _skeleton,
    ("skeleton", "json"): _skeleton,
    ("skeleton", "dot"): _skeleton,
    ("morse", "csv"): _morse,
    ("morse", "json"): _morse,
    ("certify", "json"): _certify,
    ("certify", "csv"): _certify,
}


def check(job, text):
    """Outcome of a completed job's output text; raises CheckFailed."""
    try:
        return _CHECKS[(job.command, job.format)](job, text)
    except (KeyError, IndexError, ValueError, TypeError) as err:
        raise CheckFailed(f"unreadable output: {type(err).__name__}: {err}") from err
