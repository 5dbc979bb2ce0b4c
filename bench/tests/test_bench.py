"""Tests of the benchmark: reference check, seeding, time cap, self time.

Run from the repository root: python3 -m pytest bench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
from spans import self_times  # noqa: E402

REFERENCE = jobs.load_reference()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_job(job):
    from cayleyclass import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(job.argv))
    return code, out.getvalue()


def _bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, [json.loads(line) for line in done.stdout.splitlines()]


def _job(workload, key_part):
    (job,) = [j for j in jobs.WORKLOADS[workload] if key_part in j.key]
    return job


def test_reference_covers_every_job():
    keys = {j.key for js in jobs.WORKLOADS.values() for j in js}
    assert keys | {j.key for j in jobs.SMOKE.values()} == set(REFERENCE)


def test_reference_records_known_results():
    s4 = REFERENCE[_job("classify-directed", "--length 3").key]
    assert (s4["exit"], s4["classes"]) == (0, 75)
    theorem = REFERENCE[_job("theorem-presentations", "verify-theorem").key]
    assert theorem["exit"] == 1
    assert [(n, ok) for n, ok, _ in theorem["theorem"]] == [(n, n != 2) for n in range(2, 13)]
    orders = [
        REFERENCE[j.key]["lines"]
        for j in jobs.WORKLOADS["theorem-presentations"]
        if j.argv[0] == "check-presentation"
    ]
    assert orders == [["order 40320", "PASS"], ["order 1024", "PASS"], ["order 168", "PASS"]]


def test_check_accepts_the_reference_and_rejects_changes():
    job = jobs.SMOKE["classify-directed"]
    code, out = _run_job(job)
    assert jobs.check(job, code, out, REFERENCE) is None
    report = json.loads(out)
    report["classes"][0]["size"] += 1
    assert jobs.check(job, code, json.dumps(report), REFERENCE) is not None
    assert jobs.check(job, 1, out, REFERENCE) is not None
    assert jobs.check(job, code, "not json", REFERENCE) is not None


def test_check_requires_n2_to_fail():
    job = jobs.SMOKE["theorem-presentations"]
    expected = REFERENCE[job.key]["theorem"]

    def output(passes):
        return json.dumps([
            {"n": n, "pass": passes(n, ok), "observed": {"class_sizes": sizes}}
            for n, ok, sizes in expected
        ])

    assert jobs.check(job, 1, output(lambda n, ok: ok), REFERENCE) is None
    assert jobs.check(job, 1, output(lambda n, ok: True), REFERENCE) is not None


def test_same_seed_gives_the_same_job_list():
    for workload, base in jobs.WORKLOADS.items():
        assert jobs.seeded_jobs(workload, 5) == jobs.seeded_jobs(workload, 5)
        assert sorted(j.key for j in jobs.seeded_jobs(workload, 5)) == sorted(j.key for j in base)
    lists = {tuple(jobs.seeded_jobs("classify-directed", seed)) for seed in range(4)}
    assert len(lists) == 4


def test_seeds_change_element_ids():
    from cayleyclass import groups

    job = _job("classify-directed", "--length 3")
    orders = set()
    for seed in range(8):
        (seeded,) = [j for j in jobs.seeded_jobs("classify-directed", seed) if j.key == job.key]
        group = groups.from_descriptor(seeded.argv[seeded.argv.index("--group") + 1])
        orders.add(groups.element_order(group, 1))
    assert len(orders) > 1


@pytest.mark.parametrize("seed", range(4))
def test_seeds_keep_the_invariants(seed):
    for workload, part in (("classify-directed", "(1,2,3);"), ("classify-undirected", "perm:4")):
        key = _job(workload, part).key
        (job,) = [j for j in jobs.seeded_jobs(workload, seed) if j.key == key]
        assert jobs.check(job, *_run_job(job), REFERENCE) is None


def test_self_time_subtracts_child_spans():
    # root [0,100] holds a [10,40] and b [50,60]; a holds c [20,30]
    start, end, parent = [0, 10, 20, 50], [100, 40, 30, 60], [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [60, 20, 10, 10]


def test_normalised_time_cancels_the_machine_speed():
    job_s = 0.8
    assert run.normalised(job_s, run.CAL_REF_S) == pytest.approx(job_s)
    # the same work on a machine slowed or sped up alike for job and samples
    for factor in (0.7, 1.5, 3.0):
        assert run.normalised(job_s * factor, run.CAL_REF_S * factor) == pytest.approx(job_s)
    # a change to the program moves the normalised time in proportion
    assert run.normalised(job_s / 2, 0.017) == pytest.approx(run.normalised(job_s, 0.017) / 2)


def test_speed_probe_samples_while_a_job_runs():
    import worker

    probe = worker.SpeedProbe()
    # loose: the machine running the tests may be much faster or slower
    assert run.CAL_REF_S / 10 < probe.boundary() < run.CAL_REF_S * 10
    begin = time.perf_counter()
    with probe.during_job():
        while time.perf_counter() - begin < 3.5 * worker.PROBE_INTERVAL_S:
            pass
    assert len(probe.samples) >= 2
    assert sum(probe.samples) <= probe.spent < time.perf_counter() - begin


def test_job_over_its_cap_fails_and_the_run_continues(monkeypatch):
    # Todd-Coxeter for S8 takes seconds; every other job of the list takes well under one.
    monkeypatch.setattr(run, "JOB_CAP_S", 1.5)
    result = run.run_jobs(
        "theorem-presentations", 0, False, None, REFERENCE, time.perf_counter() + 120
    )
    (slow,) = [j.key for j in jobs.WORKLOADS["theorem-presentations"] if "40320" in j.key]
    assert [key for key, _ in result.failures] == [slow]
    assert "no result within" in result.failures[0][1]
    assert len(result.setups) == 2
    assert all(len(times) == 1 for times in result.seconds)


def test_smoke_reports_every_end_to_end_metric():
    code, results = _bench("--smoke")
    assert code == 0
    assert len(results) == len(jobs.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"]]
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_repeats_its_counts():
    runs = [_bench("--smoke", "--trace", "1", "--workload", "classify-undirected", "--seed", "4")
            for _ in range(2)]
    names = [m["name"] for m in SPEC["per_layer"]]
    for code, (result,) in runs:
        assert code == 0 and result["correct"]
        assert list(result["metrics"]) == names
    exact = [n for n in names if n.endswith((".calls", ".hit_ratio", ".elements", "sequences"))]
    first, second = (r[1][0]["metrics"] for r in runs)
    assert [first[n] for n in exact] == [second[n] for n in exact]
    assert first["iso.undirected_iso.calls"]["value"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, results = _bench("--workload", "classify-directed", "--seed", "1", "--seconds", "1",
                           "--trace", "0", cwd=tmp_path)
    assert code != 0 and results == []


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
