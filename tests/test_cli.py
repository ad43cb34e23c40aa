import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from frameflow.cli import RunConfig, generate_matrix, main, run
from frameflow.errors import NonPositiveEigenvalue, ValidationError
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


@pytest.mark.parametrize("command,fmt,sp", sorted(_GOLDEN))
def test_rest_point_outputs_golden_bytes(capsys, command, fmt, sp):
    # (4, 2) plain and (2, 2) paired, seed 0
    size = ["--n", "2", "--k", "2", "--symplectic"] if sp else ["--n", "4", "--k", "2"]
    out = _stdout(capsys, [command, *size, "--seed", "0", "--format", fmt])
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN[command, fmt, sp]


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
