"""Benchmark worker: runs jobs of one seeded job list through cayleyclass.cli.main.

Usage: worker.py WORKLOAD SEED SMOKE(0|1) SAMPLE_IN_JOBS(0|1) SPANS_PATH|-

Writes JSON lines to standard output.  The first, {"ready": <jobs>},
comes once cayleyclass is imported and the job list is generated; the
second, {"calibration": <seconds>}, is the mean time of the speed
samples (``SpeedProbe``) taken right after it.  The worker then reads
job indices from standard input, one a line, and answers each with the
job's exit code, time, captured output and "cal_s", the mean time of
the speed samples taken before, during (with SAMPLE_IN_JOBS 1) and
after the job.  At the end
of its input it writes {"done": true, "peak_rss_mb": ...} and exits.
With a spans path the worker traces every layer, adds the per-layer
numbers to the last line and writes its spans to that path.
"""

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from jobs import seeded_jobs

ROOT = Path(__file__).resolve().parent.parent
# Length of the lists a speed sample matches: about 10 ms of work on a
# 2-vCPU Xeon VM.
SAMPLE_LENGTH = 850
# Samples taken after the worker starts and after each job.
BOUNDARY_SAMPLES = 4
# Interval of the samples taken while a job runs.
PROBE_INTERVAL_S = 0.2


class SpeedProbe:
    """Samples the speed the machine gives this process.

    A sample times a small fixed piece of pure-Python work: difflib's
    matcher on two fixed lists of small integers.  It uses none of
    cayleyclass, so its time tracks only that speed, which on a shared
    VM drifts by up to 3x over tens of seconds.  Like the program, the
    matcher is dict- and allocation-heavy interpreted code; it tracked
    the jobs' slowdowns more closely than tight loops over tuples did.

    The probe takes BOUNDARY_SAMPLES samples after the worker starts and
    after each job, and one every PROBE_INTERVAL_S while a job runs, from
    a timer signal; the time spent in those is taken out of the job's.
    """

    def __init__(self) -> None:
        import difflib
        import random

        rng = random.Random(0)
        self._lists = [[rng.randrange(50) for _ in range(SAMPLE_LENGTH)] for _ in range(2)]
        self._matcher = difflib.SequenceMatcher
        self.samples: list[float] = []
        self.spent = 0.0
        self.sample()  # warm-up: the first run of the matcher's code is slower

    def sample(self) -> float:
        begin = time.perf_counter()
        blocks = self._matcher(None, *self._lists, autojunk=False).get_matching_blocks()
        seconds = time.perf_counter() - begin
        if len(blocks) < 2 or blocks[-1].size != 0:
            raise AssertionError("speed sample went wrong")
        return seconds

    def boundary(self) -> float:
        return statistics.fmean(self.sample() for _ in range(BOUNDARY_SAMPLES))

    def _on_timer(self, signum, frame) -> None:
        begin = time.perf_counter()
        self.samples.append(self.sample())
        self.spent += time.perf_counter() - begin

    @contextlib.contextmanager
    def during_job(self):
        """Sample while the body runs; ``samples`` and ``spent`` then
        hold the samples taken and the time they took."""
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def main(argv: list[str]) -> int:
    workload, seed, smoke, sample_in_jobs, spans_path = argv
    sys.path.insert(0, str(ROOT / "src"))
    from cayleyclass import cli

    jobs = seeded_jobs(workload, int(seed), smoke == "1")
    tracer = None
    if spans_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    channel = sys.stdout

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    send({"ready": len(jobs)})
    probe = SpeedProbe()
    before = probe.boundary()
    send({"calibration": before})
    while True:
        line = sys.stdin.readline()
        if not line:
            break
        index = int(line)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.current_job = index
        sampling = probe.during_job() if sample_in_jobs == "1" else contextlib.nullcontext()
        begin = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampling:
            try:
                code = cli.main(list(jobs[index].argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - begin - probe.spent
        after = probe.boundary()
        send({"job": index, "exit": code, "seconds": seconds,
              "cal_s": statistics.fmean([before, *probe.samples, after]),
              "stdout": out.getvalue(), "stderr": err.getvalue()})
        before = after
    done = {"done": True, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        done["layers"] = tracer.values()
        tracer.write(spans_path)
    send(done)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
