import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from frameflow import cli
from frameflow.cli import RunConfig, _morse_json, generate_matrix, main, run
from frameflow.errors import NonPositiveEigenvalue, ValidationError
from frameflow.flows import SpectralData, Weights
from frameflow.morse import _reports, critical_report, fixed_points, perfectness_certificate
from frameflow.skeleton import build_graph, index_h
from frameflow.strata import Tree


def _lines(path):
    return path.read_text().splitlines()


# ------------------------------------------------------------ matrix factory


def test_generate_matrix_frozen():
    a = generate_matrix((4.0, 1.0))
    assert a.evals == (2.0, 0.5)
    assert np.array_equal(a.evecs, np.eye(2))
    # unsorted input lands in descending order with determinant one
    assert generate_matrix((1.0, 4.0)).evals == (2.0, 0.5)
    sp = generate_matrix((3.0,), symplectic=True)
    assert sp.n == 2
    assert sp.evals[0] == 3.0 and abs(sp.evals[1] - 1.0 / 3.0) < 1e-15
    # a contracting input flips to its expanding partner to keep the order
    assert generate_matrix((0.5,), symplectic=True).evals == (2.0, 0.5)


def test_generate_matrix_errors():
    with pytest.raises(NonPositiveEigenvalue):
        generate_matrix((4.0, -1.0))
    with pytest.raises(NonPositiveEigenvalue):
        generate_matrix((0.0,), symplectic=True)
    with pytest.raises(ValidationError):
        generate_matrix(7)  # seeded draw needs the size
    for sp in (False, True):
        with pytest.raises(ValidationError, match="at least one eigenvalue"):
            generate_matrix(7, sp, n=0)
        with pytest.raises(ValidationError, match="at least one eigenvalue"):
            generate_matrix(7, sp, n=-1)
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            generate_matrix(-1, sp, n=2)


def test_generate_matrix_seeded():
    a = generate_matrix(7, n=4)
    b = generate_matrix(7, n=4)
    assert a.evals == b.evals
    assert abs(float(np.prod(a.evals)) - 1.0) < 1e-12
    assert all(x > y for x, y in zip(a.evals, a.evals[1:]))
    sp = generate_matrix(11, symplectic=True, n=3)
    assert sp.n == 6
    for i in range(3):
        assert abs(sp.evals[i] * sp.evals[i + 3] - 1.0) < 1e-12
    lead = sp.evals[:3]
    assert all(x > y for x, y in zip(lead, lead[1:]))
    assert min(lead) > max(sp.evals[3:])


@pytest.mark.parametrize("vals", [
    (1e300, 1e150), (1e200, 1e200), (1e-200, 1e-200), (1e-160, 1e-160), (1e308, 1e-5, 3.0),
])
def test_generate_matrix_normalizes_lists_whose_product_leaves_the_range(vals):
    # the product overflows, underflows or goes subnormal; the geometric
    # mean of the list does neither
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = generate_matrix(vals)
    assert all(0.0 < v < math.inf for v in a.evals)
    assert abs(math.fsum(map(math.log, a.evals))) < 1e-12
    for v, w in zip(a.evals, sorted(vals, reverse=True)):
        assert v / a.evals[0] == pytest.approx(w / max(vals), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-30, 1e30), min_size=1, max_size=16))
def test_generate_matrix_keeps_the_bits_of_ordinary_lists(vals):
    # the product stays normal: the bits of prod ** (1 / n), with numpy's prod
    vals = sorted(vals, reverse=True)
    with np.errstate(over="ignore"):
        prod = float(np.prod(vals))
    assume(np.finfo(float).tiny <= prod < math.inf)
    assert generate_matrix(vals).evals == tuple(v / prod ** (1.0 / len(vals)) for v in vals)


@pytest.mark.parametrize("text,message", [
    ("1e300 1e300 1e-300", "eigenvalue 1e-300 underflows"),
    ("1e300 1e-300 1e-300", "eigenvalue 1e+300 overflows"),
])
def test_generate_matrix_names_the_value_that_normalizing_loses(text, message):
    # the geometric mean is representable, but one normalized value is not:
    # the error names the value as given, not the 0.0 or inf it became
    message += " when the list is normalized to determinant one"
    with pytest.raises(ValidationError, match=re.escape(message)):
        generate_matrix([float(v) for v in text.split()])
    for command in ("flow", "lyapunov", "gradient-flow", "morse", "certify"):
        argv = [command, "--n", "3", "--k", "1", "--eigenvalues", text]
        assert _call(argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("text,message", [
    ("1e-310", "eigenvalue 1e-310 cannot be paired with its reciprocal, which overflows"),
    ("2 1e-310", "eigenvalue 1e-310 cannot be paired with its reciprocal, which overflows"),
    ("inf 2", "eigenvalue inf cannot be paired with its reciprocal, which underflows"),
])
def test_generate_matrix_names_the_paired_value_whose_reciprocal_is_lost(text, message):
    # a paired list flips each value above one and pairs it with its
    # reciprocal; the error names the value as given, before the inf or 0.0
    vals = [float(v) for v in text.split()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=re.escape(message)):
            generate_matrix(vals, symplectic=True)
        for command in ("flow", "lyapunov", "gradient-flow", "morse", "certify"):
            argv = [command, "--n", str(len(vals)), "--k", "1", "--symplectic",
                    "--eigenvalues", text]
            assert _call(argv) == (1, "", f"error: {message}\n")
    # the largest value whose reciprocal stays subnormal still pairs
    assert generate_matrix([1e308], symplectic=True).evals == (1e308, 1.0 / 1e308)


def test_lyapunov_grad_norm_stays_finite_at_huge_weights():
    # the gradient's entries reach 1e160, so their squares overflow; the
    # column reads the norm, with no warning (warnings are errors here)
    code, out, err = _call(["lyapunov", "--n", "4", "--k", "2", "--weights", "1e80 1"])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 1001
    assert all(math.isfinite(float(r[2])) for r in rows)
    assert float(rows[0][2]) > 1e160


# -------------------------------------------------------------------- config


def test_run_config_validation():
    cfg = RunConfig(command="flow", n=3, k=2)
    assert cfg.step == 1e-2 and cfg.format == "csv"
    assert RunConfig(command="certify", n=3, k=2).format == "json"
    with pytest.raises(ValidationError):
        RunConfig(command="meander", n=3, k=2)
    with pytest.raises(ValidationError):
        RunConfig(command="flow", n=3, k=None)
    with pytest.raises(ValidationError):
        RunConfig(command="flow", n=3, k=2, format="dot")
    with pytest.raises(ValidationError):
        RunConfig(command="skeleton", n=3, k=2, format="pdf")
    with pytest.raises(ValidationError):
        RunConfig(command="flow", n=3, k=2, step=-1.0)
    with pytest.raises(ValidationError):
        RunConfig(command="flow", n=3, k=2, horizon=0.0)
    with pytest.raises(ValidationError):
        RunConfig(command="flow", n=3, k=2, tolerance=0.0)
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        RunConfig(command="strata", n=3, k=2, seed=-1)


def test_exit_codes():
    assert main(["skeleton", "--n", "9", "--k", "9"]) == 3
    assert main(["skeleton", "--n", "0", "--k", "1"]) == 1
    assert main(["flow", "--n", "3"]) == 1
    assert main(["flow", "--n", "3", "--k", "2", "--bogus"]) == 1
    assert main(["flow", "--n", "2", "--k", "1", "--eigenvalues", "2,-1"]) == 1
    assert main(["flow", "--n", "3", "--k", "1", "--eigenvalues", "2,1"]) == 1
    assert main(["morse", "--n", "3", "--k", "2", "--format", "dot"]) == 1
    assert main(["certify", "--n", "2", "--k", "1", "--eigenvalues", "2,2"]) == 2
    assert main([]) == 1


# ---------------------------------------------------------------------- flow


def test_flow_csv(tmp_path):
    out = tmp_path / "flow.csv"
    args = ["flow", "--n", "3", "--k", "2", "--seed", "5",
            "--tolerance", "1e-4", "--output", str(out)]
    assert main(args) == 0
    lines = _lines(out)
    assert lines[0] == "t,field_norm,stationary," + ",".join(
        f"x_{r}_{c}" for r in range(3) for c in range(2)
    )
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0
    assert float(last[0]) == pytest.approx(10.0, abs=1e-9)
    assert last[2] == "true"  # the flow has settled by the horizon
    # byte-identical on a rerun with the same seed
    twin = tmp_path / "again.csv"
    assert main(args[:-1] + [str(twin)]) == 0
    assert out.read_bytes() == twin.read_bytes()
    other = tmp_path / "other.csv"
    assert main(["flow", "--n", "3", "--k", "2", "--seed", "6",
                 "--tolerance", "1e-4", "--output", str(other)]) == 0
    assert _lines(other)[1] != lines[1]


def test_flow_json(tmp_path):
    out = tmp_path / "flow.json"
    args = [
        "flow", "--n", "3", "--k", "2", "--seed", "5", "--tolerance", "1e-4",
        "--format", "json", "--output", str(out),
    ]
    assert main(args) == 0
    blob = json.loads(out.read_text())
    assert blob["command"] == "flow"
    assert blob["n"] == 3 and blob["k"] == 2 and blob["symplectic"] is False
    assert blob["settled"] is True
    assert len(blob["eigenvalues"]) == 3
    row = blob["rows"][0]
    m = np.array(row["entries"])
    assert m.shape == (3, 2)
    assert np.allclose(m.T @ m, np.eye(2), atol=1e-10)
    assert blob["rows"][-1]["stationary"] is True


def test_flow_symplectic(tmp_path):
    out = tmp_path / "sp.csv"
    args = [
        "flow", "--n", "2", "--k", "2", "--symplectic",
        "--seed", "3", "--output", str(out),
    ]
    assert main(args) == 0
    header = _lines(out)[0]
    assert header.endswith("x_3_1")  # ambient dimension doubles


# ------------------------------------------------------------- gradient flow


def test_gradient_flow_monotone(tmp_path):
    out = tmp_path / "up.csv"
    base = ["gradient-flow", "--n", "3", "--k", "2", "--seed", "2",
            "--horizon", "5", "--output", str(out)]
    assert main(base) == 0
    lines = _lines(out)
    assert lines[0].startswith("t,value,grad_norm,stationary,")
    vals = [float(r.split(",")[1]) for r in lines[1:]]
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
    down = tmp_path / "down.csv"
    assert main(base[:-1] + [str(down), "--descend"]) == 0
    dvals = [float(r.split(",")[1]) for r in _lines(down)[1:]]
    assert all(b <= a + 1e-10 for a, b in zip(dvals, dvals[1:]))
    assert dvals[0] == pytest.approx(vals[0])  # same seeded start


# ------------------------------------------------------------------ lyapunov


def test_lyapunov_outputs(tmp_path):
    out = tmp_path / "audit.csv"
    args = ["lyapunov", "--n", "3", "--k", "2", "--seed", "4",
            "--horizon", "30", "--output", str(out)]
    assert main(args) == 0
    lines = _lines(out)
    assert lines[0] == "t,value,grad_norm,field_norm"
    assert len(lines) > 100
    jout = tmp_path / "audit.json"
    args = ["lyapunov", "--n", "3", "--k", "2", "--seed", "4", "--horizon", "30",
            "--format", "json", "--output", str(jout)]
    assert main(args) == 0
    blob = json.loads(jout.read_text())
    assert blob["monotone"] is True
    assert blob["stalls_ok"] is True
    assert blob["max_violation"] <= 1e-10
    assert blob["converged_to"] == [1, 2]


# -------------------------------------------------------------------- strata


def test_strata_outputs(tmp_path):
    out = tmp_path / "strata.csv"
    assert main(["strata", "--n", "3", "--k", "2", "--symplectic", "false",
                 "--output", str(out)]) == 0
    lines = _lines(out)
    assert lines[0] == "tree_id,dim,n_nodes,is_zero_dim"
    zero = [r for r in lines[1:] if r.endswith(",true")]
    assert len(zero) == 6
    jout = tmp_path / "strata.json"
    assert main(["strata", "--n", "3", "--k", "2", "--format", "json",
                 "--output", str(jout)]) == 0
    blob = json.loads(jout.read_text())
    assert blob["n"] == 3 and blob["k"] == 2
    assert len(blob["trees"]) == len(lines) - 1
    for doc in blob["trees"]:
        t = Tree(doc["n"], [set(s) for s in doc["nodes"]], symplectic=doc["symplectic"])
        assert t.k == 2
    assert sum(1 for d in blob["trees"] if d["dim"] == 0) == 6


# sha256 of stdout for (n, k, paired, format), recorded while the rows still
# came from a scan over every mask and json.dumps wrote the document
_STRATA_GOLDEN = {
    (4, 3, False, "csv"): "866f4bfa17b124daf80b9ed73edcf63c0972684dd2d1e00afdca57a868886476",
    (4, 3, False, "json"): "20e64ebf0f02a183b1c5820a24130a8737a6bfd325e3e3446c52501a559bd4ed",
    (5, 2, False, "csv"): "02cab09d53507b73e2723958ff0a459999956092cac57e8c69268a59e94ed98a",
    (5, 2, False, "json"): "7241ef660c8ed9e9739f821ff479e562fb42912bad370ba60749990adaa10b04",
    (2, 2, True, "csv"): "d5b37db836d529c1cf815d627c811cf8d532aa6e22c767764a898b834aabfcba",
    (2, 2, True, "json"): "483ce42d5e8d53ab7a404665b66591ebf2abb32720f764e7b3c9ec88c09adf04",
    (3, 2, True, "csv"): "cfc5e23d2e561bec06c73d35481996a6cb9fbdf89b9aa25f57271f9f31fc3886",
    (3, 2, True, "json"): "f7f1cd1661ff77359ba8356f50f3c0152a9be9ee217a3800a37d6943f955b044",
}


@pytest.mark.parametrize("n,k,sp,fmt", sorted(_STRATA_GOLDEN))
def test_strata_outputs_golden_bytes(capsys, n, k, sp, fmt):
    argv = ["strata", "--n", str(n), "--k", str(k), "--format", fmt]
    out = _stdout(capsys, argv + (["--symplectic"] if sp else []))
    assert hashlib.sha256(out.encode()).hexdigest() == _STRATA_GOLDEN[n, k, sp, fmt]


def test_strata_largest_workload_cell_is_fast(tmp_path):
    # 38,559 trees; the mask scan with json.dumps took 2–3 s on a 2-vCPU x86-64
    out = tmp_path / "strata.json"
    start = time.perf_counter()
    assert main(["strata", "--n", "6", "--k", "4", "--format", "json",
                 "--output", str(out)]) == 0
    elapsed = time.perf_counter() - start
    assert len(json.loads(out.read_text())["trees"]) == 38559
    assert elapsed < 1.0, f"strata --n 6 --k 4 json took {elapsed:.2f}s of 1.0s"


# ------------------------------------------------------------------ skeleton


def test_skeleton_outputs(tmp_path):
    dot = tmp_path / "g.dot"
    assert main(["skeleton", "--n", "4", "--k", "2", "--format", "dot",
                 "--output", str(dot)]) == 0
    text = dot.read_text()
    assert text.count("label=") == 12
    assert text.count("->") == 30
    jout = tmp_path / "g.json"
    assert main(["skeleton", "--n", "4", "--k", "2", "--format", "json",
                 "--output", str(jout)]) == 0
    blob = json.loads(jout.read_text())
    assert len(blob["vertices"]) == 12 and len(blob["edges"]) == 30
    cout = tmp_path / "g.csv"
    assert main(["skeleton", "--n", "4", "--k", "2", "--output", str(cout)]) == 0
    lines = _lines(cout)
    assert lines[0] == "tail,head"
    assert len(lines) == 31
    assert main(["skeleton", "--n", "4", "--k", "2", "--max-vertices", "5"]) == 3


# --------------------------------------------------------------------- morse


def test_morse_outputs(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["morse", "--n", "3", "--k", "2", "--output", str(out)]) == 0
    lines = _lines(out)
    assert lines[0] == "word,h,morse_index,jacobian_above_one"
    assert len(lines) == 7
    jout = tmp_path / "m.json"
    assert main(["morse", "--n", "3", "--k", "2", "--format", "json",
                 "--output", str(jout)]) == 0
    blob = json.loads(jout.read_text())
    assert len(blob["points"]) == 6
    for pt in blob["points"]:
        assert len(pt["jacobian_eigs"]) == 3
        assert len(pt["hessian_eigs"]) == 3
        assert pt["morse_index"] == pt["h"]


# ------------------------------------------------------------------- certify


def test_certify_stdout_defaults_to_json(capsys):
    assert main(["certify", "--n", "3", "--k", "2"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["match"] is True
    assert blob["morse_coeffs"] == blob["poincare_coeffs"] == [1, 2, 2, 1]


def test_certify_csv_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["certify", "--n", "3", "--k", "2", "--format", "csv"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = _lines(a)
    assert lines[0] == "word,h,morse_index,jacobian_above_one,numeric_index,ok"
    assert len(lines) == 7
    assert all(r.endswith(",true") for r in lines[1:])


def test_certify_symplectic(tmp_path):
    out = tmp_path / "sp.json"
    assert main(["certify", "--n", "2", "--k", "2", "--symplectic",
                 "--output", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["match"] is True
    assert blob["morse_coeffs"] == [1, 2, 2, 2, 1]


# ------------------------------------------------- rest-point output bytes


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("n,k,sp", [(3, 2, False), (4, 3, False), (2, 2, True)])
@pytest.mark.parametrize("seed", ["0", "7"])
def test_morse_csv_matches_certify_csv_columns(capsys, n, k, sp, seed):
    argv = ["--n", str(n), "--k", str(k), "--seed", seed, "--format", "csv"]
    argv += ["--symplectic"] if sp else []
    morse = _stdout(capsys, ["morse"] + argv).splitlines()
    cert = _stdout(capsys, ["certify"] + argv).splitlines()
    assert len(morse) == len(cert) > 1
    assert morse == [",".join(line.split(",")[:4]) for line in cert]


# sha256 of stdout, recorded before the word enumeration, free-label rule and
# rest-point rows were merged into one layer; any byte change shows here
_GOLDEN = {
    ("skeleton", "csv", False): "b0da1a67f377b519d5174b7191ce61515fe60efbd0bb1820fd21c290176d44e4",
    ("skeleton", "json", False): "ab2662cc47239d6529f5b64d4413a6ab0c2123bea3a3be8f7fa9cf03dc6a2ab5",
    ("skeleton", "dot", False): "85bbd9d3220a54a63f80dcb50d549ae7cf9755c3177a6c97134f45029e09aa7d",
    ("morse", "csv", False): "1b48c5804b9023ddecbf03f05a010fad7a0f1b84737f5499392f8b706b2618fe",
    ("morse", "json", False): "7ade524e9285ee6606e5a9e47921e985fc5e25de4dbd1fdf855a0a8ec0b52711",
    ("certify", "json", False): "4184bc8b43dea9d9956fd56b6d139ebc473948a55d65307ebc630e56ab6d6651",
    ("certify", "csv", False): "b137ef45fd87f4e18ed5f7c08d921bdd50c4e7557e9daab908eaeab75daf11ce",
    ("skeleton", "csv", True): "0f1467e9a1a7d2cd4be8612e7f2c213a53d0ff31f1a35fd637bfd7c07ad53fc1",
    ("skeleton", "json", True): "6a8ec200f6f54b0ced52fd1dfc653ee57e03c74ad6544934c5086c055dc735e3",
    ("skeleton", "dot", True): "f092d176a8036f02b9bf58122ec644e7276fc3320103073ffea7caf70930851f",
    ("morse", "csv", True): "479b73d419c6f6fe6bba921fe91c4af3266800d0beb1b0c6a1820fe74f209471",
    ("morse", "json", True): "f4ac5c3e30da9dfab1c0f2b0d249e90d7e2e1c14c92ac5358568e4f5a9fac664",
    ("certify", "json", True): "9978194f366439743e9a639b0c49c0a817756caf82e05b183388e71bbb11164d",
    ("certify", "csv", True): "b5be820d14724ff66b73f4e2df22aba4ed5ce9250840cf809399627cdcb9bf96",
}


# sha256 of stdout with non-default eigenvalues and unequal weights at plain
# (5, 3) and paired (3, 3), so every Hessian family, the partner switch
# included, is pinned bit for bit; recorded before the spectra were read
# off one list of moves
_SPECTRAL_ARGS = {
    False: ["--n", "5", "--k", "3", "--eigenvalues", "5 3 2 1.5 0.7"],
    True: ["--n", "3", "--k", "3", "--symplectic", "--eigenvalues", "4 2 1.5"],
}
_SPECTRAL_GOLDEN = {
    ("morse", "json", False): "63f76947a43be55b70623f6490bacfeb72e24e5ed387b6ad7420742b602fb07c",
    ("certify", "csv", False): "d0773cf7f513ee9c821d701e1eb6f4e13cebf63484798f061466a0e0dfda9435",
    ("morse", "json", True): "306b621b35fad820b202a398ecf78529da3ffa7373a347d779528fcc8ffa41eb",
    ("certify", "csv", True): "ae866c4c0481b15099acd7a839449745535f920504f1dbdaed6f3b42fbf52953",
}
# sha256 of stdout at the larger plain (6, 4) and paired (3, 3), seed 0, and
# at plain (3, 2) with eigenvalues whose squares overflow, so the outputs
# carry 0.0, 1e-300, 1e+300, Infinity, -Infinity and NaN; recorded before
# the rest-point JSON was written without json.dumps
_LARGE_GOLDEN = {
    ("skeleton", "json", False): "705fcbbbc23e073e6993ae13471e7ae9f82aa80d8cb3843a479e70baff0eb9b2",
    ("skeleton", "dot", False): "213339c3ae3f5cb2d659a603bdb2e6453ad2bf9f6b929606ba3b4812fcd221af",
    ("morse", "json", False): "a3895e70b286b8fa85ad04caca7a408301e17df5e36a2fd50b6c1b97a2538420",
    ("certify", "json", False): "9735b380ee9fb21240c6a3919aacfd74602fc601f41c357709dad016b179012c",
    ("skeleton", "json", True): "68778628c160d8e785cc8338a8f68307378e0a0bcad2cd8ffa0bc35a39b59e30",
    ("skeleton", "dot", True): "119cc8d04381927a42dcc3d1205597608cd1623f5ce28c8b6018750333b7feda",
    ("morse", "json", True): "744af6ad26376f4c8be2d8dfd2d6486e289cb4c29564406b8e0f342b583b3a0a",
    ("certify", "json", True): "dc721fd8ee11cc8de52fb5b0f4494efe63da8d70aa8512f91f6b5a74b8b8a9f2",
}
_OVERFLOW_GOLDEN = {
    ("morse", "json", False): "ccbfaf874a374813a3c1f8439d362b149e5155d606a1cf1d833aafe469c1ecd3",
    ("certify", "json", False): "409ce46862f5f6b32a8dfbb72483c4939495729ff9864a91a0dc8016213f452f",
}
_REST_GOLDEN = {
    "": _GOLDEN,
    "spectral": _SPECTRAL_GOLDEN,
    "large": _LARGE_GOLDEN,
    "overflow": _OVERFLOW_GOLDEN,
}
_REST_CELLS = [
    pytest.param(*key, variant, id="-".join(map(str, key)) + (f"-{variant}" if variant else ""))
    for variant, golden in _REST_GOLDEN.items()
    for key in sorted(golden)
]


def _rest_argv(sp, variant):
    if variant == "spectral":
        return _SPECTRAL_ARGS[sp] + ["--weights", "1.5 1 0.25"]
    if variant == "overflow":
        return ["--n", "3", "--k", "2", "--eigenvalues", "1e300 1 1e-300"]
    if variant == "large":
        size = ["--n", "3", "--k", "3", "--symplectic"] if sp else ["--n", "6", "--k", "4"]
    else:
        # (4, 2) plain and (2, 2) paired
        size = ["--n", "2", "--k", "2", "--symplectic"] if sp else ["--n", "4", "--k", "2"]
    return size + ["--seed", "0"]


@pytest.mark.parametrize("command,fmt,sp,variant", _REST_CELLS)
def test_rest_point_outputs_golden_bytes(capsys, command, fmt, sp, variant):
    argv = [command, *_rest_argv(sp, variant), "--format", fmt]
    out = _stdout(capsys, argv)
    assert hashlib.sha256(out.encode()).hexdigest() == _REST_GOLDEN[variant][command, fmt, sp]


@st.composite
def _rest_inputs(draw):
    """(n, k, paired, spectral data, weights, seeded): a seeded spectrum, or
    powers of ten up to 1e300 whose squares overflow to inf, so the spectra
    carry inf and, where two infinite squares meet, NaN."""
    sp = draw(st.booleans())
    n = draw(st.integers(1, 3 if sp else 6))
    k = draw(st.integers(1, n))
    seeded = draw(st.booleans())
    if seeded:
        a = generate_matrix(draw(st.integers(0, 2**31 - 1)), sp, n=n)
    elif sp:
        # reciprocals below 1e-10 would break the simple gap, so one at most
        big = draw(st.integers(1, 300))
        rest = draw(st.lists(st.integers(1, 9).filter(lambda e: e != big),
                             min_size=n - 1, max_size=n - 1, unique=True))
        lead = [10.0**e for e in [big, *rest]]
        a = SpectralData(tuple(lead) + tuple(1.0 / v for v in lead), np.eye(2 * n))
    else:
        exps = draw(st.lists(st.integers(-1, 300), min_size=n, max_size=n, unique=True))
        vals = [10.0**e for e in exps]
        if draw(st.booleans()):
            vals[draw(st.integers(0, n - 1))] = 1e-300
        a = SpectralData(tuple(vals), np.eye(n))
    exps = draw(st.lists(st.integers(-2, 200), min_size=k, max_size=k, unique=True))
    b = Weights(tuple(10.0**e for e in sorted(exps, reverse=True)))
    return n, k, sp, a, b, seeded


@settings(max_examples=60, deadline=None)
@given(_rest_inputs())
def test_direct_json_writers_match_json_dumps(case):
    n, k, sp, a, b, _ = case
    pts = fixed_points(n, k, sp)
    reports = tuple(critical_report(a, b, p) for p in pts)
    # the one-pass reports are the per-point ones, NaN included
    assert repr(_reports(a, b, pts)) == repr(reports)
    cfg = RunConfig(command="morse", n=n, k=k, symplectic=sp, format="json")
    want = oracles.morse_json(n, k, sp, a.evals, b.values, reports, map(index_h, pts))
    assert _morse_json(cfg, a, b, reports) == want
    g = build_graph(n, k, sp)
    assert g.to_json() == oracles.skeleton_json(g)
    numeric = n <= (2 if sp else 3)
    cert = perfectness_certificate(n, k, sp, spectral=a, weights=b, numeric=numeric)
    assert cert.to_json() == oracles.certificate_json(cert)


# sha256 of stdout for (command, format, paired, descend) at plain (3, 2) or
# paired (2, 1), seed 0, horizon 0.255 (25 steps and a remainder step),
# recorded before the stepping loops of flows were merged into one walker
_PATH_GOLDEN = {
    ("flow", "csv", False, False): "a42c8c9c779a66276b8348e3066133804851904bf33a35a2b7f2678bdfe07edf",
    ("flow", "json", False, False): "e53d181fe2d01356f52d0848c81f1029fcf260b18db3e9b8e5e10ce497783ef2",
    ("flow", "csv", True, False): "30ab53db9c35c6fc5d3cdbfa45957b8322be2d118017a147c84e23024d3f7f41",
    ("flow", "json", True, False): "1d943db4778da68693f50b9c0bf484297164b871c6c437731b1848dfe6b46104",
    ("gradient-flow", "csv", False, False): "12cce9751b4890eca5bcd2b126aca7a8658d039d33bde68f3457708aa7bd0a04",
    ("gradient-flow", "csv", False, True): "aabc36660e97e2d98d69830360e94bc42d49b5b8198273b6587cd3d6c6fc15e4",
    ("gradient-flow", "json", False, False): "cc3004db87e0bb852533cddc907f188b2ad69463ea1901c6c1eadbc3e75de773",
    ("gradient-flow", "json", False, True): "d0631636896e86973566d9500f80dbe842468fcdfbd5f7bc3e9566a84abb15a0",
    ("gradient-flow", "csv", True, False): "ac33366e4b32c7c26a4e69efbbf896003797bf08eda68ae6786100844ce22d80",
    ("gradient-flow", "csv", True, True): "eafc3c4717f228b9ccaf8318efc1dca7ddc265c3915d1aa753c38775b762eaaf",
    ("gradient-flow", "json", True, False): "39f361afe002568fffa03f9395b0f8dff17bd379772bfd0b4be4fa05b48eb63c",
    ("gradient-flow", "json", True, True): "d4d342ca3b6636a865439dc925ec52544fea195aa29ae90ce1d75d31c3757af0",
    ("lyapunov", "csv", False, False): "35f9836d01be6305426dca9e94a9f356bfe524cab813ca52fa87ff59e133c979",
    ("lyapunov", "json", False, False): "3ef6fa4abcab5b6813f680012d6adbabc4cd9e18bc84fd11fc02eac443b17fbf",
    ("lyapunov", "csv", True, False): "a9b7111f7c251086864df1c6a69845bd49f5813f8a0353d44d60c9d328c7a111",
    ("lyapunov", "json", True, False): "3ef6fa4abcab5b6813f680012d6adbabc4cd9e18bc84fd11fc02eac443b17fbf",
}


@pytest.mark.parametrize("command,fmt,sp,descend", sorted(_PATH_GOLDEN))
def test_path_outputs_golden_bytes(capsys, command, fmt, sp, descend):
    size = ["--n", "2", "--k", "1", "--symplectic"] if sp else ["--n", "3", "--k", "2"]
    argv = [command, *size, "--seed", "0", "--horizon", "0.255", "--format", fmt]
    out = _stdout(capsys, argv + (["--descend"] if descend else []))
    assert hashlib.sha256(out.encode()).hexdigest() == _PATH_GOLDEN[command, fmt, sp, descend]


# sha256 of gradient-flow stdout at paired (3, 2), seed 0, horizon 0.255, for
# (format, descend), recorded before the row gradient became the first RK4
# stage of the next step; with two columns the isotropic retract runs its
# inner loop, which the paired (2, 1) cells above never reach
_PATH_GOLDEN_PAIRED_3_2 = {
    ("csv", False): "97eabc21eb884a26ab7abd189c7dd8da67e732268d1d15f13715c3da47080853",
    ("csv", True): "4fa19c66991d76a1cdd434c9edb39751aa726e3fb43be376af0ca3124cebdb07",
    ("json", False): "0657e75fb0f780689a3dcc1cb2ed42f1d516fb97dab0078955c0c8cc96e1ac24",
    ("json", True): "8eb543da7f7a41bbd04cac4057700b5c9b5393ff173e8400232e1d13f09cf49a",
}


@pytest.mark.parametrize("fmt,descend", sorted(_PATH_GOLDEN_PAIRED_3_2))
def test_gradient_flow_paired_3_2_golden_bytes(capsys, fmt, descend):
    argv = ["gradient-flow", "--n", "3", "--k", "2", "--symplectic", "--seed", "0",
            "--horizon", "0.255", "--format", fmt]
    out = _stdout(capsys, argv + (["--descend"] if descend else []))
    assert hashlib.sha256(out.encode()).hexdigest() == _PATH_GOLDEN_PAIRED_3_2[fmt, descend]


@pytest.mark.parametrize("command", [["flow"], ["gradient-flow"], ["gradient-flow", "--descend"]])
@pytest.mark.parametrize("flags", [
    ["--n", "1", "--k", "1"],
    ["--n", "3", "--k", "2"],
    ["--n", "4", "--k", "4"],
    ["--n", "1", "--k", "1", "--symplectic"],
    ["--n", "2", "--k", "2", "--symplectic"],
    ["--n", "3", "--k", "1", "--symplectic", "--tolerance", "inf"],
])
def test_path_json_is_json_dumps(monkeypatch, command, flags):
    path_text = cli._path_text
    written = []

    def spy(*args):
        written.append((args, path_text(*args)))
        return written[-1][1]

    monkeypatch.setattr(cli, "_path_text", spy)
    argv = [*command, *flags, "--seed", "3", "--horizon", "0.055", "--format", "json"]
    code, out, err = _call(argv)
    assert (code, err) == (0, "")
    [(args, text)] = written
    assert out == text == oracles.path_json(*args)


def test_path_json_non_finite_numbers():
    nan, inf = float("nan"), float("inf")
    a = SpectralData((inf, 1.0, -0.0), np.eye(3))
    samples = [
        (nan, np.array([[nan, 1.0], [inf, -inf], [0.0, -0.0]]), (inf, -inf), False),
        (-inf, np.array([[0.5, -2.5e-300], [1e300, nan], [3.0, 1e-7]]), (nan, 3), True),
        (0.25, np.eye(3, 2), (np.float64(0.5), 1e16), True),
    ]
    cases = [
        ("gradient-flow", ["value", "grad_norm"], {"weights": [1.0, nan], "direction": -1}),
        ("flow", ["field_norm"], {}),
    ]
    for command, cols, meta in cases:
        cfg = RunConfig(command=command, n=3, k=2, format="json", tolerance=inf)
        rows = [(t, mat, vals[: len(cols)], still) for t, mat, vals, still in samples]
        text = cli._path_text(cfg, a, rows, cols, meta)
        assert text == oracles.path_json(cfg, a, rows, cols, meta)
        assert "NaN" in text and "-Infinity" in text
        assert json.loads(text)["rows"][2]["entries"] == np.eye(3, 2).tolist()


def test_gradient_flow_drift_failure_message():
    code, out, err = _call(["gradient-flow", "--n", "7", "--k", "3", "--seed", "0"])
    assert (code, out) == (2, "")
    assert err == "numerical failure: column norms drifted by 2.457e-03; reduce the step\n"


@pytest.mark.parametrize("command,message", [
    ("flow", "matrix has non-finite entries"),
    ("lyapunov", "matrix has non-finite entries"),
    ("gradient-flow", "column norms drifted by nan; reduce the step"),
])
def test_overflowing_spectrum_is_a_numerical_failure(command, message):
    # exp(dt * 1e300) and the RK4 stages overflow to inf and NaN; the
    # command exits 2 instead of crashing in the SVD or passing a NaN drift,
    # and numpy's warnings on the way stay silent
    argv = [command, "--n", "3", "--k", "2", "--eigenvalues", "1e300 1 1e-300",
            "--horizon", "0.05"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _call(argv)
    assert (code, out, err) == (2, "", f"numerical failure: {message}\n")


@pytest.mark.parametrize("argv,code,message", [
    (["gradient-flow", "--n", "4", "--k", "2", "--weights", "1e3 1"], 2,
     "numerical failure: column norms drifted by inf; reduce the step\n"),
    (["gradient-flow", "--n", "4", "--k", "2", "--weights", "1e40 1"], 2,
     "numerical failure: column norms drifted by nan; reduce the step\n"),
    (["lyapunov", "--n", "2", "--k", "1", "--symplectic", "--eigenvalues", "1e308 2"], 0, ""),
])
def test_overflow_inside_a_command_prints_no_numpy_warning(argv, code, message):
    # main runs every command under one errstate: the overflow shows in the
    # exit code and message, or as inf and NaN in the output, never as a
    # RuntimeWarning on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _call([*argv, "--horizon", "0.05"])
    assert got[0] == code and got[2] == message
    assert (got[1] == "") == (code != 0)


@pytest.mark.parametrize("command", ["flow", "gradient-flow", "lyapunov"])
@pytest.mark.parametrize("flags,name", [
    (["--horizon", "inf"], "horizon"),
    (["--step", "inf", "--horizon", "inf"], "step"),
])
def test_non_finite_times_exit_1(capsys, command, flags, name):
    assert main([command, "--n", "3", "--k", "1", *flags]) == 1
    outerr = capsys.readouterr()
    assert outerr.out == ""
    assert outerr.err == f"error: {name} must be finite, got inf\n"


@pytest.mark.parametrize("command", ["flow", "gradient-flow", "lyapunov"])
def test_step_above_horizon_exit_1(capsys, command):
    assert main([command, "--n", "3", "--k", "2", "--step", "1", "--horizon", "0.5"]) == 1
    outerr = capsys.readouterr()
    assert (outerr.out, outerr.err) == ("", "error: step must not exceed horizon\n")


# ------------------------------------------------------------- config files


def test_config_file_merge_and_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# skeleton defaults\n"
        "n = 4\n"
        "k = 2\n"
        "format = json\n"
        "max-vertices = 100\n"
        "\n"
    )
    out = tmp_path / "a.json"
    assert main(["skeleton", "--config", str(cfgfile), "--output", str(out)]) == 0
    assert len(json.loads(out.read_text())["vertices"]) == 12
    over = tmp_path / "b.json"
    assert main(["skeleton", "--config", str(cfgfile), "--k", "1",
                 "--output", str(over)]) == 0
    assert len(json.loads(over.read_text())["vertices"]) == 4
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 4\nglitter = on\n")
    assert main(["skeleton", "--config", str(bad), "--k", "2"]) == 1
    assert main(["skeleton", "--config", str(tmp_path / "missing.cfg")]) == 1


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# (text, converted value) per RunConfig field type; every value is one that
# RunConfig accepts for gradient-flow, the command that takes every flag
_FIELD_SAMPLES = {
    int: ("5", 5),
    float: ("0.5", 0.5),
    bool: ("yes", True),
    tuple: ("2, 1", (2.0, 1.0)),
    str: ("json", "json"),
}


@pytest.mark.parametrize("field", dataclasses.fields(RunConfig)[1:], ids=lambda f: f.name)
def test_every_field_is_a_flag_and_a_config_key(tmp_path, field):
    text, value = _FIELD_SAMPLES[field.type]
    flag = "--" + field.name.replace("_", "-")
    base = ["gradient-flow", "--n", "2", "--k", "1"]
    cfgs = [cli._config_from_args([*base, flag, text])]
    for key in (field.name, field.name.replace("_", "-")):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"n = 2\nk = 1\n{key} = {text}\n")
        cfgs.append(cli._config_from_args(["gradient-flow", "--config", str(cfgfile)]))
    for cfg in cfgs:
        got = getattr(cfg, field.name)
        assert type(got) is field.type and got == value


def test_subparser_flags_are_config_then_fields():
    [sub] = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli._COMMANDS)
    fields = ["--" + f.name.replace("_", "-") for f in dataclasses.fields(RunConfig)[1:]]
    for name, sp in sub.choices.items():
        flags = [opt for a in sp._actions for opt in a.option_strings if opt.startswith("--")]
        want = fields if name == "gradient-flow" else [f for f in fields if f != "--descend"]
        assert flags == ["--help", "--config", *want], name


@pytest.mark.parametrize("command", ["flow", "gradient-flow", "lyapunov", "strata",
                                     "skeleton", "morse", "certify"])
def test_descend_is_a_gradient_flow_flag_only(command):
    argv = [command, "--n", "2", "--k", "1", "--descend"]
    if command == "gradient-flow":
        assert cli._config_from_args(argv).descend is True
    else:
        with pytest.raises(ValidationError, match="unrecognized arguments: --descend"):
            cli._config_from_args(argv)


@pytest.mark.parametrize("flags,message", [
    # values convert ints, then floats, bools, lists and strings
    (["--symplectic", "maybe", "--seed", "x"], "expected an integer, got 'x'"),
    (["--eigenvalues", "a", "--step", "b"], "expected a number, got 'b'"),
    (["--weights", "a", "--tolerance", "b", "--max-vertices", "q"],
     "expected an integer, got 'q'"),
])
def test_two_bad_values_report_in_conversion_order(flags, message):
    code, out, err = _call(["flow", "--n", "2", "--k", "1", *flags])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    [command, "--n", "2", "--k", "1", "--seed", "-1", *extra]
    for command in ("flow", "gradient-flow", "lyapunov", "strata", "skeleton", "morse",
                    "certify")
    for extra in ([], ["--eigenvalues", "2,1"])
] + [
    [command, "--n", "-1", "--k", "1"] for command in ("flow", "gradient-flow", "lyapunov",
                                                        "morse")
])
def test_negative_seed_or_n_is_an_input_error(argv):
    code, out, err = _call([*argv, "--horizon", "0.05"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_reuse_matches_fresh_parser(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n = 3\nk = 2\nformat = json\n")
    flow = ["--n", "2", "--k", "1", "--horizon", "0.05"]
    sequence = [
        ["flow", "--n", "3", "--k", "2", "--bogus"],
        ["flow", *flow],
        ["skeleton", "--k", "2"],
        ["skeleton", "--config", str(cfgfile)],
        ["gradient-flow", *flow, "--descend"],
        ["flow", *flow, "--descend"],  # --descend is a gradient-flow flag only
        ["flow", *flow],
    ]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(_call(argv))
    reused = [_call(argv) for argv in sequence]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0, 1, 0, 0, 1, 0]
    assert reused[0][2] == "error: unrecognized arguments: --bogus\n"
    assert reused[2][2] == "error: skeleton needs --n and --k\n"
    assert reused[5][2] == "error: unrecognized arguments: --descend\n"


def test_small_job_fixed_cost(capsys):
    # the parser is built once per process; rebuilding it took about 3.7 ms
    # a call (0.37 s here) on a 2-vCPU x86-64
    main(["strata", "--n", "2", "--k", "1"])
    start = time.perf_counter()
    for _ in range(100):
        main(["strata", "--n", "2", "--k", "1"])
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out.count("tree_id") == 101
    assert elapsed < 0.2, f"100 small strata jobs took {elapsed:.3f}s of 0.2s"


def test_run_writes_stdout(capsys):
    cfg = RunConfig(command="skeleton", n=3, k=1, format="csv")
    assert run(cfg) == 0
    outerr = capsys.readouterr()
    assert outerr.out.splitlines()[0] == "tail,head"


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "frameflow.cli", "certify", "--n", "2", "--k", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["match"] is True
