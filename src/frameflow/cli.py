"""Command-line interface to the frame-flow toolkit.

Subcommands integrate matrix and gradient flows, audit energy monotonicity,
list stratum trees, export the oriented word graph, and emit rest-point
certificates.  One --seed drives every random draw, so a fixed
configuration reproduces its output byte for byte.  Exit codes: 0 success,
1 bad input, 2 numerical failure, 3 size budget exceeded.
"""

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    NonPositiveEigenvalue,
    NumericalError,
    SizeLimitError,
    ValidationError,
)
from .flows import (
    FlowConfig,
    SpectralData,
    Weights,
    _energy,
    _field_raw,
    _gradient_rows,
    flow_path,
    lyapunov_audit,
)
from .linalg import _hs_norms
from .morse import (
    _REST_COLUMNS,
    _reports,
    _rest_row,
    fixed_points,
    perfectness_certificate,
)
from .skeleton import _dumps, _label, build_graph
from .strata import Tree, _elements, _irreducible, sample_stratum

__all__ = ["RunConfig", "generate_matrix", "main", "run"]


def generate_matrix(spec, symplectic=False, n=None):
    """Diagonal-family spectral data from an eigenvalue list or a seed.

    Lists are sorted into rank-descending order.  A plain list is
    normalized to determinant one; a paired list supplies the leading
    block, gets each value flipped above one so the order holds, and is
    completed with reciprocals on the partner directions.  An integer is a
    seed: it draws a jittered geometric ladder (always a simple spectrum),
    and n says how many values to draw.
    """
    if isinstance(spec, bool):
        raise ValidationError("spec must be an eigenvalue list or an integer seed")
    if isinstance(spec, (int, np.integer)):
        if n is None:
            raise ValidationError("a seeded spectrum needs n")
        if spec < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {spec}")
        if n < 1:
            raise ValidationError("need at least one eigenvalue")
        jitter = np.random.default_rng(int(spec)).uniform(0.9, 1.1, size=n)
        # a paired ladder stays above one, so no value flips below
        spec = [2.0 ** (n - i if symplectic else n - 1 - 2 * i) * jitter[i] for i in range(n)]
    vals = [float(v) for v in spec]
    if not vals:
        raise ValidationError("need at least one eigenvalue")
    for v in vals:
        if not v > 0.0:
            raise NonPositiveEigenvalue(f"eigenvalues must be positive, got {v}")
    if symplectic:
        for v in vals:
            if not 0.0 < 1.0 / v < math.inf:
                raise ValidationError(f"eigenvalue {v!r} cannot be paired with its reciprocal,"
                                      f" which {'over' if v < 1.0 else 'under'}flows")
        lead = sorted((max(v, 1.0 / v) for v in vals), reverse=True)
        evals = tuple(lead) + tuple(1.0 / v for v in lead)
        return SpectralData(evals, np.eye(2 * len(vals)))
    vals.sort(reverse=True)
    # the mean of the logs only when the product leaves the normal range
    geo = math.prod(vals)
    geo = (geo ** (1.0 / len(vals)) if sys.float_info.min <= geo < math.inf
           else math.exp(math.fsum(map(math.log, vals)) / len(vals)))
    for v in vals:
        if not 0.0 < v / geo < math.inf:
            raise ValidationError(f"eigenvalue {v!r} {'under' if v < geo else 'over'}flows"
                                  " when the list is normalized to determinant one")
    return SpectralData(tuple(v / geo for v in vals), np.eye(len(vals)))


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved run; construction validates the combination."""

    command: str
    n: int
    k: int
    symplectic: bool = False
    seed: int = 0
    eigenvalues: tuple = None
    weights: tuple = None
    step: float = None  # resolved per command when omitted
    horizon: float = 10.0
    output: str = None
    format: str = None  # resolved per command when omitted
    max_vertices: int = 100000
    tolerance: float = 1e-6
    descend: bool = False

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        for name in ("n", "k"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValidationError(f"{self.command} needs an integer {name}")
        if self.step is None:
            object.__setattr__(
                self, "step", 1e-4 if self.command == "certify" else 1e-2
            )
        if self.format is None:
            object.__setattr__(
                self, "format", "json" if self.command == "certify" else "csv"
            )
        allowed = ("csv", "json", "dot") if self.command == "skeleton" else ("csv", "json")
        if self.format not in allowed:
            raise ValidationError(
                f"format must be one of {', '.join(allowed)} for {self.command}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.step > 0.0:
            raise ValidationError(f"step must be positive, got {self.step}")
        if not self.horizon > 0.0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        if not self.tolerance > 0.0:
            raise ValidationError(f"tolerance must be positive, got {self.tolerance}")
        if isinstance(self.max_vertices, bool) or not isinstance(self.max_vertices, int):
            raise ValidationError("max-vertices must be an integer")
        if self.max_vertices < 1:
            raise ValidationError("max-vertices must be at least 1")
        if self.eigenvalues is not None:
            object.__setattr__(self, "eigenvalues", tuple(self.eigenvalues))
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))


# --------------------------------------------------------------- flag parsing


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that through the
    # validation channel (exit 1) instead
    def error(self, message):
        raise ValidationError(message)


def _to_int(text):
    try:
        return int(str(text).strip())
    except ValueError:
        raise ValidationError(f"expected an integer, got {text!r}")


def _to_float(text):
    try:
        return float(str(text).strip())
    except ValueError:
        raise ValidationError(f"expected a number, got {text!r}")


def _to_bool(text):
    low = str(text).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValidationError(f"expected true or false, got {text!r}")


def _to_floats(text):
    items = [s for s in str(text).replace(",", " ").split() if s]
    if not items:
        raise ValidationError("expected at least one number")
    return tuple(_to_float(s) for s in items)


# the fields after command are the flags and the config-file keys; values
# convert type by type in this order (ints, then floats, bools, lists and
# strings), which decides the error printed when two values are malformed
_FLAGS = fields(RunConfig)[1:]
_CONVERTERS = {
    f.name: convert
    for kind, convert in ((int, _to_int), (float, _to_float), (bool, _to_bool),
                          (tuple, _to_floats), (str, str))
    for f in _FLAGS
    if f.type is kind
}


def _read_config_file(path):
    """Key=value configuration, one pair per line, # comments allowed."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ValidationError(f"cannot read config file: {err}")
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, val = body.partition("=")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected key=value")
        key = key.strip().replace("-", "_")
        if key not in _CONVERTERS:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip().strip("\"'")
    return values


@functools.cache
def _parser():
    # built once per process: parsing leaves no state on the parser
    parser = _Parser(prog="frameflow")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command in _COMMANDS:
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="key=value file; explicit flags win")
        for f in _FLAGS:
            if f.name == "descend" and command != "gradient-flow":
                continue
            bool_flag = {"nargs": "?", "const": "true"} if f.type is bool else {}
            sp.add_argument("--" + f.name.replace("_", "-"), **bool_flag)
    return parser


def _config_from_args(argv):
    ns = _parser().parse_args(argv)
    if ns.command is None:
        raise ValidationError("choose a command: " + ", ".join(_COMMANDS))
    raw = {}
    if ns.config is not None:
        raw.update(_read_config_file(ns.config))
    for key in _CONVERTERS:
        flag = getattr(ns, key, None)
        if flag is not None:
            raw[key] = flag
    kwargs = {key: _CONVERTERS[key](val) for key, val in raw.items()}
    if "n" not in kwargs or "k" not in kwargs:
        raise ValidationError(f"{ns.command} needs --n and --k")
    return RunConfig(command=ns.command, **kwargs)


# ----------------------------------------------------------------- execution


def _csv(lines):
    return "\n".join(lines) + "\n"


def _spectral(cfg):
    if cfg.eigenvalues is not None:
        if len(cfg.eigenvalues) != cfg.n:
            raise ValidationError(
                f"n={cfg.n} needs {cfg.n} eigenvalues, got {len(cfg.eigenvalues)}"
            )
        return generate_matrix(cfg.eigenvalues, cfg.symplectic)
    return generate_matrix(cfg.seed, cfg.symplectic, n=cfg.n)


def _weight_ladder(cfg):
    if cfg.weights is not None:
        if len(cfg.weights) != cfg.k:
            raise ValidationError(
                f"k={cfg.k} needs {cfg.k} weights, got {len(cfg.weights)}"
            )
        return Weights(cfg.weights)
    return Weights(tuple((cfg.k - i) / cfg.k for i in range(cfg.k)))


def _start_frame(cfg, a):
    amb = 2 * cfg.n if cfg.symplectic else cfg.n
    full = set(range(1, amb + 1))
    tree = Tree(cfg.n, [full] * cfg.k, symplectic=cfg.symplectic)
    rng = np.random.default_rng(cfg.seed)
    return sample_stratum(tree, a, rng)


def _generator(a, symplectic):
    """Infinitesimal generator whose time-t exponential acts like the matrix
    family of a.  In the paired case the exponential must stay in the paired
    group, so the generator carries +/-log pairs instead of reciprocals."""
    if not symplectic:
        return a
    n = a.n // 2
    logs = tuple(math.log(v) for v in a.evals[:n])
    return SpectralData(logs + tuple(-v for v in logs), a.evecs)


def _path_text(cfg, a, samples, value_cols, meta):
    """Shared serialization for the two path commands.  samples is a list of
    (t, frame matrix, values in value_cols order, stationary); meta holds
    the command's own top-level fields."""
    if cfg.format == "csv":
        amb, k = samples[0][1].shape
        cols = [f"x_{r}_{c}" for r in range(amb) for c in range(k)]
        lines = [",".join(["t", *value_cols, "stationary", *cols])]
        # one template per row: %.17g per number, %s for stationary
        row = ",".join(["%.17g"] * (1 + len(value_cols)) + ["%s"] + ["%.17g"] * len(cols))
        lines.extend(
            row % (t, *vals, "true" if still else "false", *mat.ravel().tolist())
            for t, mat, vals, still in samples
        )
        return _csv(lines)
    rows = [
        {"t": t, **dict(zip(value_cols, vals)), "stationary": still, "entries": mat.tolist()}
        for t, mat, vals, still in samples
    ]
    doc = {"command": cfg.command, "n": cfg.n, "k": cfg.k, "symplectic": cfg.symplectic,
           "seed": cfg.seed, "eigenvalues": a.evals, "step": cfg.step, "horizon": cfg.horizon,
           "tolerance": cfg.tolerance, **meta, "settled": samples[-1][3], "rows": rows}
    return _dumps(doc) + "\n"


def _cmd_flow(cfg):
    a = _spectral(cfg)
    gen = _generator(a, cfg.symplectic)
    x = _start_frame(cfg, a)
    ts, frames = zip(*flow_path(gen, x, FlowConfig(step=cfg.step, horizon=cfg.horizon)))
    m = np.stack([fr.mat for fr in frames])
    fns = _hs_norms(_field_raw(gen.matrix(), m))
    samples = zip(ts, m, zip(fns.tolist()), (fns < cfg.tolerance).tolist())
    return _path_text(cfg, a, list(samples), ["field_norm"], {})


def _cmd_gradient_flow(cfg):
    a = _spectral(cfg)
    b = _weight_ladder(cfg)
    x = _start_frame(cfg, a)
    direction = -1 if cfg.descend else 1
    config = FlowConfig(step=cfg.step, horizon=cfg.horizon)
    ts, frames, gs = zip(*_gradient_rows(a, b, x, config, direction))
    m = np.stack([fr.mat for fr in frames])
    # the bits of quad and of hs_norm(quad_gradient), which g's sign keeps
    values = _energy(a.matrix(), np.asarray(b.values), m).tolist()
    gns = _hs_norms(np.stack(gs))
    samples = zip(ts, m, zip(values, gns.tolist()), (gns < cfg.tolerance).tolist())
    meta = {"weights": list(b.values), "direction": direction}
    return _path_text(cfg, a, list(samples), ["value", "grad_norm"], meta)


def _cmd_lyapunov(cfg):
    a = _spectral(cfg)
    b = _weight_ladder(cfg)
    x = _start_frame(cfg, a)
    gen = _generator(a, cfg.symplectic)
    report = lyapunov_audit(a, gen, b, x, FlowConfig(step=cfg.step, horizon=cfg.horizon))
    if cfg.format == "csv":
        return _csv(report.csv_lines())
    return report.to_json() + "\n"


def _cmd_strata(cfg):
    rows = _irreducible(cfg.n, cfg.k, cfg.symplectic)
    if cfg.format == "csv":
        zero, other = f",{cfg.k},true", f",{cfg.k},false"
        lines = ["tree_id,dim,n_nodes,is_zero_dim"]
        lines += [f"{i},{d}{zero if d == 0 else other}" for i, (_, d) in enumerate(rows)]
        return _csv(lines)
    # the bytes of json.dumps(..., indent=2), one string per tree
    n, k, sp = map(_dumps, (cfg.n, cfg.k, cfg.symplectic))
    universe = 2 * cfg.n if cfg.symplectic else cfg.n
    block = {m: "        " + _dumps(_elements(m), 4) for m in range(1, 1 << universe)}
    sep = ",\n"
    start = '    {\n      "tree_id": '
    mid = f',\n      "n": {n},\n      "k": {k},\n      "symplectic": {sp},\n      "nodes": [\n'
    end = '\n      ],\n      "dim": '
    docs = [
        f"{start}{i}{mid}{sep.join([block[m] for m in masks])}{end}{d}\n    }}"
        for i, (masks, d) in enumerate(rows)
    ]
    # never empty: the disjoint singletons {1}, ..., {k} are always a row
    docs[0] = f'{{\n  "n": {n},\n  "k": {k},\n  "symplectic": {sp},\n  "trees": [\n' + docs[0]
    docs[-1] += "\n  ]\n}\n"
    return sep.join(docs)


def _cmd_skeleton(cfg):
    g = build_graph(cfg.n, cfg.k, cfg.symplectic, max_vertices=cfg.max_vertices)
    if cfg.format == "dot":
        return g.to_dot()
    if cfg.format == "json":
        return g.to_json()
    names = [_label(p.word) for p in g.vertices]
    lines = ["tail,head"]
    lines.extend(f"{names[a]},{names[b]}" for a, b in g.edges)
    return _csv(lines)


def _cmd_morse(cfg):
    a = _spectral(cfg)
    b = _weight_ladder(cfg)
    pts = fixed_points(cfg.n, cfg.k, cfg.symplectic, max_points=cfg.max_vertices)
    reports = _reports(a, b, pts)
    if cfg.format == "json":
        return _morse_json(cfg, a, b, reports)
    lines = [",".join(_REST_COLUMNS)]
    lines.extend(f"{_label(w)},{h},{mi},{above}" for w, h, mi, above in map(_rest_row, reports))
    return _csv(lines)


def _morse_json(cfg, a, b, reports):
    """The bytes of json.dumps(..., indent=2) + "\n" of the morse fields."""
    points = [
        {"word": w, "h": h, "morse_index": mi, "jacobian_above_one": above,
         "jacobian_eigs": rep.jacobian_eigs, "hessian_eigs": rep.hessian_eigs}
        for rep, (w, h, mi, above) in zip(reports, map(_rest_row, reports))
    ]
    doc = {"n": cfg.n, "k": cfg.k, "symplectic": cfg.symplectic, "eigenvalues": a.evals,
           "weights": b.values, "points": points}
    return _dumps(doc) + "\n"


def _cmd_certify(cfg):
    cert = perfectness_certificate(
        cfg.n,
        cfg.k,
        cfg.symplectic,
        spectral=_spectral(cfg) if cfg.eigenvalues is not None else None,
        weights=_weight_ladder(cfg) if cfg.weights is not None else None,
        step=cfg.step,
        max_points=cfg.max_vertices,
    )
    if cfg.format == "csv":
        return _csv(cert.csv_lines())
    return cert.to_json()


_COMMANDS = {
    "flow": _cmd_flow,
    "gradient-flow": _cmd_gradient_flow,
    "lyapunov": _cmd_lyapunov,
    "strata": _cmd_strata,
    "skeleton": _cmd_skeleton,
    "morse": _cmd_morse,
    "certify": _cmd_certify,
}


def run(cfg):
    """Execute one validated RunConfig, writing its report to cfg.output or
    standard output.  Returns 0; failures raise and main maps them."""
    text = _COMMANDS[cfg.command](cfg)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None):
    """Console entry point; returns the process exit code."""
    try:
        return run(_config_from_args(argv))
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except SizeLimitError as err:
        print(f"size limit: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
