#!/usr/bin/env python3
"""Run the full verification battery and drop CSV reports into reports/.

Scale is controlled by --limit (default 1e8; 1e9 reproduces the figures
quoted in the README but takes a few minutes on a laptop).
"""

import argparse
import pathlib
import sys
import time

from gapsum import cli


def suite_jobs(x: str) -> list[list[str]]:
    """The battery's command lines at limit ``x``."""
    return [
        ["verify-lemma21", "--grid", "1e3:1e7:log"],
        ["verify-lemma22", "--d-list", "30,210,2310,30030"],
        ["verify-conjecture1", "--limit", x, "--d-list", "2,4,6,10,12"],
        ["verify-sieve-bound", "--limit", x],
        ["verify-theorem1", "--limit", x, "--alpha", "-1"],
        ["verify-theorem1", "--limit", x, "--alpha", "0"],
        ["verify-theorem1", "--limit", x, "--alpha", "1"],
        ["verify-corollary", "--limit", x, "--c", "0"],
        ["verify-corollary", "--limit", x, "--c", "2"],
        ["verify-corollary", "--limit", x, "--c", "3"],
    ]


def report_name(job: list[str]) -> str:
    """File stem for a job: its words joined by '-', flags without their '--'.

    Only the flag prefix is removed, so a negative value keeps its sign
    (``--alpha -1`` gives ``alpha--1``, distinct from ``alpha-1``).
    """
    return "-".join(p.removeprefix("--") for p in job)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", default="1e8")
    parser.add_argument("--out", default="reports")
    parser.add_argument("--workers", default=None)
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    common = ["--workers", args.workers] if args.workers else []

    for job in suite_jobs(args.limit):
        target = out / f"{report_name(job)}.csv"
        started = time.perf_counter()
        code = cli.main(job + common + ["--output", str(target)])
        print(f"[{time.perf_counter() - started:7.1f}s] {' '.join(job)} -> {target} (exit {code})")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
