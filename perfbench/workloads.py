"""The benchmark's workloads: the gapsum command lines each one runs.

Every job is one call of ``gapsum.cli.main``.  The benchmark adds
``--workers`` and ``--output`` itself, so a job lists only the command and
its arguments.
"""

from __future__ import annotations

import random

# stream runs 1 worker: its parent folds terms and saves a checkpoint per
# segment, so 2 workers keep three processes busy on 2 cores and its
# timings follow the scheduler (meta.json gives the measured spreads).
WORKERS = {"count": 1, "stream": 1, "suite": 2}

STREAM_LIMIT = 10**9

# Integers the jobs of each workload sieve at the parent commit (the
# traced run's engine.sieved_int).  sieve_mps divides this fixed figure
# by wall_s, so a change that sieves less for the same outputs shows as
# higher throughput.
SIEVED_INTEGERS = {
    "count": 1_999_999_996,
    "stream": 999_999_998,
    "suite": 1_159_492_336,
}

# Published values (OEIS A006880 and A007508).
PI = {10**8: 5_761_455, 10**9: 50_847_534}
PI2 = {10**8: 440_312, 10**9: 3_424_506}


def stream_stop_segment(seed: int, segments: int) -> int:
    """The segment after which the first ``stream`` run stops, from the seed."""
    return random.Random(seed).randint(segments // 4, 3 * segments // 4)


def jobs(workload: str, stop_segment: int | None = None, ckpt_dir: str = "") -> list[tuple[str, list[str]]]:
    """(tag, argv) pairs in run order; the tag names the job's output file."""
    if workload == "count":
        return [
            ("sieve-stats", ["sieve-stats", "--limit", "1e9"]),
            ("conjecture1", ["verify-conjecture1", "--limit", "1e9", "--d-list", "2,4,6,10,12"]),
        ]
    if workload == "stream":
        argv = ["weighted-sum", "--limit", "1e9", "--alpha", "0", "--mode", "prime",
                "--checkpoint-dir", ckpt_dir]
        resume = f"{ckpt_dir}/gapsum-weighted-sum.ckpt"
        if stop_segment is None:  # the uninterrupted run the reference comes from
            return [("weighted-sum", argv)]
        return [
            ("stopped", argv + ["--stop-after-segments", str(stop_segment)]),
            ("weighted-sum", argv + ["--resume", resume]),
        ]
    if workload == "suite":
        return [
            ("lemma21", ["verify-lemma21", "--grid", "1e3:1e7:log"]),
            ("lemma22", ["verify-lemma22", "--d-list", "30,210,2310,30030"]),
            ("conjecture1", ["verify-conjecture1", "--limit", "1e8", "--d-list", "2,4,6,10,12"]),
            ("sieve-bound", ["verify-sieve-bound", "--limit", "1e8"]),
            ("theorem1-a-1", ["verify-theorem1", "--limit", "1e8", "--alpha", "-1"]),
            ("theorem1-a0", ["verify-theorem1", "--limit", "1e8", "--alpha", "0"]),
            ("theorem1-a1", ["verify-theorem1", "--limit", "1e8", "--alpha", "1"]),
            ("corollary-c0", ["verify-corollary", "--limit", "1e7", "--c", "0"]),
            ("corollary-c2", ["verify-corollary", "--limit", "1e7", "--c", "2"]),
            ("corollary-c3", ["verify-corollary", "--limit", "1e7", "--c", "3"]),
            ("sandwich", ["sandwich", "--limit", "1e7", "--d", "30"]),
            ("gaps-histogram", ["gaps-histogram", "--limit", "1e8"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")
