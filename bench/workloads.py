"""The benchmark's four workloads and the job lists drawn from a seed.

A job is one argv for ``frameflow.cli.main``.  A workload is a fixed set of
cells, each a command at one size in one output variant.  Its job list is an
endless sequence of cycles: every cycle runs each cell once, in an order
shuffled from the workload seed, and every job gets its own ``--seed`` drawn
from the same stream.  All cycles hold the same work, so a run of whole
cycles measures the same mix on every seed.

Sizes stop short of the cases where the program exits 2 today ("matrix is
numerically singular" for exact flows at n = 12, "column norms drifted" for
gradient flows at plain n >= 6 and paired n >= 5), so no job is expected to
fail; RECORD.md lists those cases.
"""

import itertools
import random
from dataclasses import dataclass

_SEED_SPACE = 1 << 31


@dataclass(frozen=True)
class Cell:
    command: str
    n: int
    k: int
    symplectic: bool
    format: str
    descend: bool
    horizon: float = None


@dataclass(frozen=True)
class Job:
    index: int
    cycle: int
    command: str
    n: int
    k: int
    symplectic: bool
    format: str
    descend: bool
    seed: int
    horizon: float = None

    def argv(self, output):
        args = [
            self.command,
            "--n", str(self.n),
            "--k", str(self.k),
            "--seed", str(self.seed),
            "--format", self.format,
            "--output", str(output),
        ]
        if self.horizon is not None:
            args += ["--horizon", repr(self.horizon)]
        if self.symplectic:
            args.append("--symplectic")
        if self.descend:
            args.append("--descend")
        return args

    def label(self):
        paired = " paired" if self.symplectic else ""
        descend = " descend" if self.descend else ""
        return f"{self.command} n={self.n} k={self.k}{paired} {self.format}{descend}"


def _cells(command, sizes, variants, horizon=None):
    return [
        Cell(command, n, k, sym, fmt, descend, horizon)
        for n, k, sym in sizes
        for fmt, descend in variants
    ]


def _fmt(*formats):
    return [(f, False) for f in formats]


def _plain(pairs):
    return [(n, k, False) for n, k in pairs]


def _paired(pairs):
    return [(n, k, True) for n, k in pairs]


# Path jobs integrate 300 steps of the default 0.01, so a run holds enough
# jobs of every size for a stable tail.
PATH_HORIZON = 3.0

# Exact integrator: plain n with k = n // 2, test_03's (4, 3) and two paired
# shapes; the per-step act -> SVD -> qr_positive -> Frame loop dominates.
_EXACT_SIZES = (
    _plain((n, n // 2) for n in (3, 4, 5, 6, 8, 10))
    + _plain([(4, 3)])
    + _paired([(3, 2), (5, 3)])
)

# RK4 gradient flow: four field evaluations and a QR or isotropic
# Gram-Schmidt retract per step, no act and no SVD.
_RK4_SIZES = _plain((n, k) for n in (3, 4, 5) for k in range(1, n)) + _paired(
    (n, k) for n in (2, 3, 4) for k in range(1, n)
)
_RK4_VARIANTS = [(f, d) for f in ("csv", "json") for d in (False, True)]

# Stratum trees: the mask scan of enumerate_irreducible and dimension.
_STRATA_SIZES = _plain(
    (n, k) for n in range(1, 7) for k in range(1, min(n, 4) + 1)
) + _paired((n, k) for n in range(1, 5) for k in range(1, (2 if n == 4 else n) + 1))

# Rest points: word enumeration, index_h, closed-form spectra and large
# serializations; certify runs its finite-difference check at n <= 4.
_REST_SIZES = _plain((n, k) for n in range(1, 8) for k in range(1, n + 1)) + _paired(
    (n, k) for n in range(1, 5) for k in range(1, n + 1)
)

WORKLOADS = {
    "flow-exact": (
        _cells("lyapunov", _EXACT_SIZES, _fmt("json"), PATH_HORIZON)
        + _cells("flow", _EXACT_SIZES, _fmt("csv"), PATH_HORIZON)
    ),
    "flow-rk4": _cells("gradient-flow", _RK4_SIZES, _RK4_VARIANTS, PATH_HORIZON),
    "strata-enum": _cells("strata", _STRATA_SIZES, _fmt("csv", "json")),
    "rest-points": (
        _cells("skeleton", _REST_SIZES, _fmt("csv", "json", "dot"))
        + _cells("morse", _REST_SIZES, _fmt("csv", "json"))
        + _cells("certify", _REST_SIZES, _fmt("json", "csv"))
    ),
}

# What one unit of work_per_s is on each workload.
WORK_UNITS = {
    "flow-exact": "steps",
    "flow-rk4": "steps",
    "strata-enum": "trees",
    "rest-points": "words",
}


def jobs(workload, seed):
    """Endless job list of the workload, determined by the seed."""
    plan = list(WORKLOADS[workload])
    return _cycles(plan, random.Random(f"{workload}:{seed}"))


def _cycles(plan, rng):
    index = 0
    for cycle in itertools.count():
        rng.shuffle(plan)
        for c in plan:
            yield Job(
                index, cycle, c.command, c.n, c.k, c.symplectic,
                c.format, c.descend, rng.randrange(_SEED_SPACE), c.horizon,
            )
            index += 1


def first_cycle(workload, seed):
    """The jobs of cycle 0, which the traced run replays."""
    out = []
    for job in jobs(workload, seed):
        if job.cycle:
            return out
        out.append(job)
