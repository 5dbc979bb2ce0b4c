"""Regenerate bench/reference.json from the program in src/.

Run from the repository root: python3 bench/make_reference.py

Runs every job of every workload once, unseeded, and stores for each
the invariants that the benchmark checks (see jobs.invariants).  Only
regenerate it from a commit whose outputs are known to be right.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from jobs import REFERENCE_PATH, WORKLOADS, invariants

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cayleyclass import cli

    reference = {}
    for job in [j for jobs in WORKLOADS.values() for j in jobs]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(job.argv))
        reference[job.key] = invariants(job, code, out.getvalue())
        print(f"{job.key[:70]}: exit {code}", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
