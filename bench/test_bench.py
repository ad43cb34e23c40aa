"""Fast checks of the benchmark itself: job lists, output checks and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

import itertools
import json

import pytest

import checks
import run
import tracer
import workloads

FRAMEFLOW = run.load_frameflow()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _small_jobs(workload, count=3, max_n=3):
    cycle = workloads.first_cycle(workload, seed=7)
    return [j for j in cycle if j.n <= max_n][:count]


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.WORK_UNITS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_job_list_is_seeded_and_every_cycle_holds_the_same_work(workload):
    def work(jobs):
        return sorted((j.command, j.n, j.k, j.symplectic, j.format, j.descend) for j in jobs)

    cycle = workloads.first_cycle(workload, seed=3)
    assert work(cycle) == work(workloads.WORKLOADS[workload])
    assert len(set(work(cycle))) == len(cycle)
    assert workloads.first_cycle(workload, seed=3) == cycle
    other = workloads.first_cycle(workload, seed=4)
    assert [j.seed for j in other] != [j.seed for j in cycle]
    assert work(other) == work(cycle)
    second = list(itertools.islice(workloads.jobs(workload, 3), 2 * len(cycle)))
    assert work(second[len(cycle):]) == work(cycle)


def test_runs_stop_at_a_cycle_boundary(tmp_path):
    class Failing:
        @staticmethod
        def main(argv):
            return 1

    jobs = [workloads.Job(i, i // 3, "flow", 3, 1, False, "csv", False, 0) for i in range(9)]
    results = run.run_jobs(Failing, jobs, 1e-12, tmp_path / "job.out")
    assert [r.job.cycle for r in results] == [0, 0, 0]
    assert [r.problem for r in results] == ["exit 1: "] * 3
    assert run.end_to_end(results, 0.1)["ok_ratio"] == 0.0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_jobs_pass_checks_traced_and_untraced(workload, tmp_path):
    jobs = _small_jobs(workload)
    out = tmp_path / "job.out"
    plain = run.run_jobs(FRAMEFLOW.cli, jobs, float("inf"), out)
    t = tracer.Tracer()
    try:
        t.install()
        assert tracer.leftover_wrappers()
        traced = run.run_jobs(FRAMEFLOW.cli, jobs, float("inf"), out, t)
    finally:
        assert t.uninstall() == []
    assert [r.problem for r in plain + traced] == [None] * (2 * len(jobs))
    assert [r.digest for r in plain] == [r.digest for r in traced]
    assert t.spans and not t.bad_spans()
    assert t.layer_stats()["cli.main"][0] == len(jobs)
    metrics = run.per_layer(t, traced, plain)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)


def test_tracer_counts_every_namespace_binding(tmp_path):
    # flows binds act and qr_positive from frames and linalg; the exact flow
    # must reach both through their wrappers
    job = next(j for j in _small_jobs("flow-exact", count=18) if j.command == "flow")
    t = tracer.Tracer()
    try:
        t.install()
        run.run_jobs(FRAMEFLOW.cli, [job], float("inf"), tmp_path / "job.out", t)
    finally:
        t.uninstall()
    stats = t.layer_stats()
    steps = t.counts["flows.flow_path.steps"]
    assert steps == checks.grid_rows(job.horizon)
    assert stats["frames.act"][0] == steps - 1
    assert stats["linalg.qr_positive"][0] == steps - 1


def _output(job, tmp_path):
    out = tmp_path / "job.out"
    result = run.run_job(FRAMEFLOW.cli, job, out)
    assert result.problem is None
    return out.read_text()


def _job(command, n, k, fmt, symplectic=False, horizon=None):
    return workloads.Job(0, 0, command, n, k, symplectic, fmt, False, 5, horizon)


@pytest.mark.parametrize(
    "job, corrupt",
    [
        (_job("strata", 3, 2, "csv"), lambda t: t.replace(",0,2,true", ",1,2,false", 1)),
        (_job("skeleton", 3, 2, "csv"), lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
        (_job("morse", 3, 2, "csv"), lambda t: t.replace(",1,1,", ",1,2,", 1)),
        (_job("certify", 2, 2, "json"), lambda t: t.replace('"match": true', '"match": false')),
        (_job("flow", 3, 1, "csv", horizon=0.5), lambda t: t.rsplit("\n", 2)[0] + "\n"),
    ],
)
def test_checks_reject_corrupted_output(job, corrupt, tmp_path):
    text = _output(job, tmp_path)
    checks.check(job, text)
    with pytest.raises(checks.CheckFailed):
        checks.check(job, corrupt(text))


def test_tail_latency_keeps_ten_jobs_beyond():
    values = [float(v) for v in range(100)]
    assert run.tail_latency(values) == (89.0, 90.0)
    assert run.tail_latency(values[:5]) == (4.0, 100.0)
