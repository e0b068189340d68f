"""Record reference.json: the output rows of every workload's jobs.

Usage: python3 perfbench/record_reference.py

Run it at the commit whose outputs are the reference.  The stream
workload's reference is the uninterrupted run, whose snapshot limits are
the default grid plus the run limit.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from gapsum import cli, sums  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workdir = os.path.join(ROOT, ".perfbench_work", "reference")
    os.makedirs(workdir, exist_ok=True)
    reference = {}
    try:
        for workload, workers in workloads.WORKERS.items():
            tables = {}
            for tag, argv in workloads.jobs(workload, None, os.path.join(workdir, "ckpt")):
                out = os.path.join(workdir, f"{tag}.csv")
                if cli.main(argv + ["--workers", str(workers), "--output", out]) != 0:
                    raise SystemExit(f"{workload}: {tag} failed")
                header, rows = checks.read_rows(out)
                tables[tag] = {"header": header, "rows": rows}
            reference[workload] = tables
    finally:
        shutil.rmtree(workdir)
    grid = sums.default_snapshot_grid(workloads.STREAM_LIMIT) + [workloads.STREAM_LIMIT]
    if [r[0] for r in reference["stream"]["weighted-sum"]["rows"]] != [str(x) for x in grid]:
        raise SystemExit("the uninterrupted stream run did not write the default grid")
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
