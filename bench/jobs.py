"""Workloads of the cayleyclass benchmark: job lists, seeding, reference check.

A job is one command line for ``cayleyclass.cli.main``.  Its key is the
unseeded command line; the reference stores, per key, the outputs that
do not change when a seed relabels the group.  This module uses only the
standard library, so the harness can use it without importing the
program under test.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

S4 = "perm:4:(1,2);(1,2,3,4)"
A5 = "perm:5:(1,2,3);(1,2,3,4,5)"
S5 = "perm:5:(1,2);(1,2,3,4,5)"


@dataclass(frozen=True)
class Job:
    key: str
    argv: tuple[str, ...]


def _job(*argv: str) -> Job:
    return Job(" ".join(argv), argv)


def _classify(group: str, length: int, *, minimal: bool = True, mode: str = "directed") -> Job:
    argv = ["classify", "--group", group, "--length", str(length)]
    if minimal:
        argv.append("--minimal")
    if mode != "directed":
        argv += ["--mode", mode]
    return _job(*argv, "--format", "json")


def _coxeter_sn(n: int) -> str:
    """Coxeter presentation of the symmetric group S_n on s1..s(n-1)."""
    gens = [f"s{i}" for i in range(1, n)]
    rels = [f"{s}^2" for s in gens]
    rels += [f"({gens[i]}*{gens[i + 1]})^3" for i in range(len(gens) - 1)]
    rels += [
        f"({gens[i]}*{gens[j]})^2" for i in range(len(gens)) for j in range(i + 2, len(gens))
    ]
    return f"<{','.join(gens)} | {', '.join(rels)}>"


def _check_morphisms() -> list[Job]:
    jobs = []
    for n in range(3, 13):
        for variant in ("1",) if n % 2 == 0 else ("0", "1", "n"):
            jobs.append(_job("check-morphisms", "--n", str(n), "--variant", variant))
    return jobs


# The ladder stops where one job list still fits a run several times:
# on a 2-vCPU Xeon VM, dicyclic:64 alone takes about 17 s directed and
# dicyclic:13 about 23 s undirected.
WORKLOADS: dict[str, list[Job]] = {
    # Directed iso/cayley path: group order, length, minimality and class
    # count all vary.
    "classify-directed": [
        *(_classify(f"dicyclic:{n}", 2) for n in (8, 16, 24, 32)),
        _classify(S5, 2),
        _classify(A5, 2),
        _classify(S4, 3, minimal=False),
    ],
    # Undirected backtracking search (exponential), the same classify layer
    # in the other mode.
    "classify-undirected": [
        *(_classify(f"dicyclic:{n}", 2, mode="undirected") for n in range(7, 12)),
        _classify(S4, 3, mode="undirected"),
        _classify(A5, 2, mode="undirected"),
        _classify("dihedral:10", 3, minimal=False, mode="undirected"),
    ],
    # Todd-Coxeter and the theorem check; classify is a small share here.
    # verify-theorem exits 1 by design: n=2 (Q8) refutes the prediction.
    "theorem-presentations": [
        _job("verify-theorem", "--n-range", "2..12", "--format", "json"),
        *_check_morphisms(),
        _job("check-presentation", _coxeter_sn(8), "--expect", "40320"),
        _job("check-presentation", "<a,x | a^512, x^2=a^256, x^-1*a*x=a^-1>", "--expect", "1024"),
        _job("check-presentation", "<a,b | a^2, b^3, (a*b)^7, (a^-1*b^-1*a*b)^4>", "--expect", "168"),
    ],
}

# One small job per workload for the smoke mode.
SMOKE: dict[str, Job] = {
    "classify-directed": _classify("dicyclic:8", 2),
    "classify-undirected": _classify(S4, 3, mode="undirected"),
    "theorem-presentations": WORKLOADS["theorem-presentations"][0],
}


def _relabel(arg: str, rng: random.Random) -> str:
    """Conjugate a ``perm:`` descriptor by a random point permutation and
    shuffle its generator order.

    Conjugation alone keeps every element id, because the permutation
    closure numbers elements breadth-first along the generators; the
    generator order is what changes the ids and the enumeration order.
    The abstract group, and so the reference, stays the same.
    """
    if not arg.startswith("perm:"):
        return arg
    _, degree, gens = arg.split(":", 2)
    images = list(range(1, int(degree) + 1))
    rng.shuffle(images)
    relabeled = [
        re.sub(r"\d+", lambda m: str(images[int(m[0]) - 1]), g) for g in gens.split(";")
    ]
    rng.shuffle(relabeled)
    return f"perm:{degree}:{';'.join(relabeled)}"


def seeded_jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The workload's job list for a seed: permutation groups relabeled,
    job order shuffled.  The same seed gives the same list."""
    base = [SMOKE[workload]] if smoke else WORKLOADS[workload]
    rng = random.Random(seed)
    jobs = [Job(job.key, tuple(_relabel(a, rng) for a in job.argv)) for job in base]
    rng.shuffle(jobs)
    return jobs


def invariants(job: Job, exit_code: int, stdout: str) -> dict:
    """The parts of a job's result that a relabeling of the group keeps.

    Raises ValueError, KeyError or TypeError on output that does not
    parse.
    """
    command = job.argv[0]
    if command == "classify":
        report = json.loads(stdout)
        classes = report["classes"]
        return {
            "exit": exit_code,
            "classes": len(classes),
            "total": report["total"],
            "profile": sorted([c["order_multiset"], c["size"]] for c in classes),
        }
    if command == "verify-theorem":
        return {
            "exit": exit_code,
            "theorem": [
                [r["n"], r["pass"], sorted(r["observed"]["class_sizes"])]
                for r in json.loads(stdout)
            ],
        }
    return {"exit": exit_code, "lines": stdout.splitlines()}


def sequence_count(expected: dict) -> int:
    """Generating sequences a job classifies: the report total for
    classify, the class sizes summed over n for verify-theorem."""
    if "total" in expected:
        return expected["total"]
    return sum(sum(sizes) for _, _, sizes in expected.get("theorem", ()))


def load_reference() -> dict[str, dict]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check(job: Job, exit_code: int, stdout: str, reference: dict[str, dict]) -> str | None:
    """None when the job's result matches the reference, else the reason."""
    expected = reference[job.key]
    try:
        got = invariants(job, exit_code, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"exit {exit_code}, unparseable output: {exc!r}"
    if got != expected:
        return f"expected {json.dumps(expected)}, got {json.dumps(got)}"
    return None
