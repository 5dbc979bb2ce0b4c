"""Benchmark harness for cayleyclass.

Run from the repository root:

    python3 bench/run.py --workload classify-directed --seed 1 --seconds 36 --trace 0
    python3 bench/run.py                 # every workload, one after another
    python3 bench/run.py --smoke         # one small job per workload

A run sends the workload's seeded job list through cayleyclass.cli.main,
one job after another (a closed loop with one client), in a fresh
single-threaded worker process (bench/worker.py).  It runs every job
once and then goes round the list again while --seconds allows.  Each
job's output is checked against bench/reference.json, and a job that
gives no result within JOB_CAP_S is killed with its worker and counts as
failed.  With --trace 1 the list runs once untraced and once traced,
neither with speed samples inside jobs, and the result holds the
per-layer metrics instead of the end-to-end ones.

End-to-end times are normalised to a reference machine speed.  On a
shared VM the speed a process gets drifts by up to 3x over tens of
seconds, which no run length averages out.  So the worker samples that
speed with a small fixed piece of pure-Python work (worker.SpeedProbe)
after it starts, between jobs and, from a timer signal, while a job
runs.  A time t during which a sample took c on average is reported as
t * CAL_REF_S / c: seconds at the speed under which a sample takes
CAL_REF_S.  A change to the program moves t and not c, so it moves the
normalised times in proportion, as it would move raw ones on a steady
machine.  Each job's time is the median of its normalised samples; the
raw times go to the run record.

The last line of standard output is the result as JSON; a summary goes
to standard error and the run record (Python version, CPU, nproc, seed,
commit, sample count per metric) to bench/out/.  Exit code: 0 when
every output is correct, 1 when a job failed, 2 when the harness could
not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from jobs import WORKLOADS, check, load_reference, seeded_jobs, sequence_count

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

# The slowest job takes about 4 s on a 2-vCPU Xeon VM; the cap only has
# to stop a runaway search (the undirected one is exponential).
JOB_CAP_S = 30.0
# Time a worker may take to import cayleyclass and report ready.
START_TIMEOUT_S = 20.0
# Jobs not started this long after the run began count as failed, so a
# run ends within three minutes whatever the program does.
RUN_DEADLINE_S = 150.0
# Worker launches made only to time set-up, on top of the measuring one;
# half before the job list and half after it.
SETUP_LAUNCHES = 8
# Time of one speed sample (worker.SpeedProbe) at the reference speed:
# about its time between jobs on a 2-vCPU Xeon VM at its fastest.
CAL_REF_S = 0.01


class HarnessError(RuntimeError):
    """The benchmark itself could not run."""


class Worker:
    """A worker process reporting JSON lines; killed and reaped on close."""

    def __init__(self, workload: str, seed: int, smoke: bool, spans_path: Optional[Path],
                 sample_in_jobs: bool = True):
        begin = time.perf_counter()
        self._buffer = b""
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), workload, str(seed), "1" if smoke else "0",
             "1" if sample_in_jobs else "0", str(spans_path) if spans_path else "-"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        try:
            ready = self.read(START_TIMEOUT_S)
            self.setup_s = time.perf_counter() - begin
            calibration = self.read(START_TIMEOUT_S) if ready is not None else None
        except ValueError:
            ready = calibration = None
        if ready is None or "ready" not in ready or calibration is None:
            self.close(0.0)
            raise HarnessError("the worker did not start; see its error output above")
        self.setup_cal_s = calibration["calibration"]

    def read(self, timeout: float) -> Optional[dict]:
        """The next message, or None on timeout or end of output."""
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def run(self, index: int, timeout: float) -> Optional[dict]:
        """Run one job; None when it gives no result within the timeout."""
        try:
            self.proc.stdin.write(f"{index}\n".encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self.read(timeout)

    def finish(self) -> dict:
        """End the job list and return the worker's summary."""
        self.proc.stdin.close()
        done = self.read(JOB_CAP_S)
        if done is None:
            raise HarnessError("the worker ended without its summary")
        return done

    def close(self, grace: float = 5.0) -> None:
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def normalised(seconds: float, calibration_s: float) -> float:
    """A time measured while the calibration took calibration_s, at the
    reference speed."""
    return seconds * CAL_REF_S / calibration_s


@dataclass
class Samples:
    """Every job's times in a run of its list, each with the calibration
    time around it (CAL_REF_S for a job that gave no result)."""

    seconds: list[list[float]]
    calibrations: list[list[float]]
    failures: list[tuple[str, str]] = field(default_factory=list)
    # (set-up time, calibration time) of each worker launched
    setups: list[tuple[float, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: Optional[dict] = None

    def medians(self, raw: bool = False) -> list[float]:
        return [
            statistics.median(t if raw else normalised(t, c) for t, c in zip(times, cals))
            for times, cals in zip(self.seconds, self.calibrations)
        ]

    def setup(self, raw: bool = False) -> float:
        return statistics.median(t if raw else normalised(t, c) for t, c in self.setups)


def run_jobs(workload, seed, smoke, spans_path, reference, deadline, until=None,
             sample_in_jobs=True) -> Samples:
    """Run every job of the list once, in order; then, while the next
    job's median time still ends before ``until``, go round again."""
    jobs = seeded_jobs(workload, seed, smoke)
    samples = Samples(seconds=[[] for _ in jobs], calibrations=[[] for _ in jobs])
    worker = None
    count = 0
    try:
        while True:
            j = count % len(jobs)
            if count >= len(jobs) and (
                until is None or time.perf_counter() + statistics.median(samples.seconds[j]) > until
            ):
                break
            count += 1
            job, times, cals = jobs[j], samples.seconds[j], samples.calibrations[j]
            cap = min(JOB_CAP_S, deadline - time.perf_counter())
            if cap <= 0:
                times.append(0.0)
                cals.append(CAL_REF_S)
                samples.failures.append((job.key, "run deadline passed"))
                continue
            if worker is None:
                worker = Worker(workload, seed, smoke, spans_path, sample_in_jobs)
                samples.setups.append((worker.setup_s, worker.setup_cal_s))
            begin = time.perf_counter()
            message = worker.run(j, cap)
            if message is None:
                times.append(time.perf_counter() - begin)
                cals.append(CAL_REF_S)
                samples.failures.append((job.key, f"no result within {cap:.0f} s"))
                worker.close(0.0)
                worker = None
                continue
            times.append(message["seconds"])
            cals.append(message["cal_s"])
            reason = check(job, message["exit"], message["stdout"], reference)
            if reason is not None:
                samples.failures.append((job.key, reason))
        if worker is not None:
            done = worker.finish()
            samples.peak_rss_mb = done["peak_rss_mb"]
            samples.layers = done.get("layers")
    finally:
        if worker is not None:
            worker.close()
    return samples


def run_workload(workload, seed, seconds, trace, smoke, spec, reference) -> tuple[dict, dict]:
    begin = time.perf_counter()
    deadline = begin + RUN_DEADLINE_S
    jobs = seeded_jobs(workload, seed, smoke)
    if trace:
        # Speed samples inside a job would count in its spans, so neither
        # list takes them and both are normalised alike.
        plain = run_jobs(workload, seed, smoke, None, reference, deadline, sample_in_jobs=False)
        traced = run_jobs(workload, seed, smoke, OUT / f"spans-{workload}.tsv", reference, deadline,
                          sample_in_jobs=False)
        if traced.layers is None:
            raise HarnessError("the traced worker did not finish its job list")
        # (value, sample count) per metric
        values = {key: (value, 1) for key, value in traced.layers.items()}
        values["trace.overhead_s"] = (sum(traced.medians()) - sum(plain.medians()), 1)
        runs, section = [plain, traced], "per_layer"
    else:
        launches = Samples(seconds=[], calibrations=[])
        _time_setups(launches, workload, seed, smoke, SETUP_LAUNCHES // 2)
        plain = run_jobs(workload, seed, smoke, None, reference, deadline,
                         until=None if smoke else begin + seconds)
        _time_setups(launches, workload, seed, smoke, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
        launches.setups += plain.setups
        cycles = min(len(times) for times in plain.seconds)
        counted = [j for j, job in enumerate(jobs) if job.argv[0] in ("classify", "verify-theorem")]
        sequences = sum(sequence_count(reference[jobs[j].key]) for j in counted)
        values = {"peak_rss_mb": (plain.peak_rss_mb, 1)}
        # setup_s is normalised too; its name is fixed by the benchmark contract
        for names, raw in ((("setup_s", "norm_wall_s", "norm_seqs_per_s"), False),
                           (("raw_setup_s", "raw_wall_s", "raw_seqs_per_s"), True)):
            medians = plain.medians(raw)
            values[names[0]] = (launches.setup(raw), len(launches.setups))
            values[names[1]] = (sum(medians), cycles)
            values[names[2]] = (sequences / sum(medians[j] for j in counted), cycles)
        runs, section = [plain], "end_to_end"

    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in spec[section]}
    failures = [f for r in runs for f in r.failures]
    attempted = sum(len(times) for r in runs for times in r.seconds)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failures": failures,
        "job_seconds": {
            job.key: {"median": raw, "normalised_median": norm, "samples": times, "calibrations": cals}
            for job, raw, norm, times, cals in zip(
                jobs, plain.medians(raw=True), plain.medians(), plain.seconds, plain.calibrations
            )
        },
        "metrics": {
            name: {**m, "samples": values[name][1]} for name, m in metrics.items()
        },
        "values": {name: value for name, (value, _) in values.items()},
    }
    return result, record


def _time_setups(samples: Samples, workload, seed, smoke, launches: int) -> None:
    for _ in range(launches):
        worker = Worker(workload, seed, smoke, None)
        samples.setups.append((worker.setup_s, worker.setup_cal_s))
        worker.close()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _summary(record: dict) -> str:
    lines = [
        f"{record['workload']} seed {record['seed']}: "
        f"failed_ratio {record['failed_ratio']:g} ({record['failed']}/{record['attempted']} jobs)"
    ]
    for name, m in record["metrics"].items():
        lines.append(f"  {name} {m['value']:.6g} {m['unit']} (median of {m['samples']})")
    raw = [
        f"{name} {value:.6g} {'1/s' if name.endswith('_per_s') else 's'}"
        for name, value in record["values"].items() if name.startswith("raw_")
    ]
    if raw:
        lines.append(f"  not normalised: {', '.join(raw)}")
    for key, reason in record["failures"]:
        lines.append(f"  FAILED {key}: {reason}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="cayleyclass benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per run "
                        "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small job per workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cayleyclass" / "__init__.py").is_file():
        print(f"error: no cayleyclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    reference = load_reference()
    OUT.mkdir(exist_ok=True)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            result, record = run_workload(
                workload, args.seed, seconds, args.trace, args.smoke, spec, reference
            )
        except HarnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        name = f"record-{workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}.json"
        with open(OUT / name, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
        print(_summary(record), file=sys.stderr)
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
