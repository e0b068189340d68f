"""One repetition of a workload in a fresh interpreter.

Usage: rep.py --workload NAME --seed N --workdir DIR [--trace] [--setup-only]

Set-up (importing gapsum and one tiny warm-up call that fills its lazy
caches) is timed apart from the workload.  The result is written to
DIR/result.json; with --trace the spans go to DIR/spans.json.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _setup():
    """Import gapsum from the checkout's src/ and make one tiny call."""
    sys.path.insert(0, SRC)
    from gapsum import cli, verify

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gapsum was imported from {cli.__file__}, not from {SRC}")
    verify.conjecture1_ratio(1000, [2], workers=1)  # fills _c2, _spf_table, base primes
    return time.perf_counter() - _T0


def _rusage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss)  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    setup_s = _setup()
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(_run(args))
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def _run(args) -> dict:
    from gapsum import cli, engine

    import workloads

    stop = None
    if args.workload == "stream":
        limit = workloads.STREAM_LIMIT
        span = 2 * engine.effective_segment_slots(limit)
        stop = workloads.stream_stop_segment(args.seed, -(-(limit - 2) // span))
    ckpt_dir = os.path.join(args.workdir, "ckpt")
    jobs = workloads.jobs(args.workload, stop, ckpt_dir)
    common = ["--workers", str(workloads.WORKERS[args.workload])]

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        for layer in spans.LAYERS:
            recorder.wrap_module(importlib.import_module(f"gapsum.{layer}"), layer)

    exit_codes = {}
    cpu0, _ = _rusage()
    started = time.perf_counter()
    for tag, argv in jobs:
        out = os.path.join(args.workdir, f"{tag}.csv")
        exit_codes[tag] = cli.main(argv + common + ["--output", out])
    wall_s = time.perf_counter() - started
    cpu1, maxrss_kib = _rusage()

    if recorder is not None:
        with open(os.path.join(args.workdir, "spans.json"), "w") as fh:
            json.dump(recorder.spans, fh)
    return {
        "wall_s": wall_s,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": maxrss_kib / 1024,
        "exit_codes": exit_codes,
        "stop_segment": stop,
    }


if __name__ == "__main__":
    sys.exit(main())
