"""gapsum benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload count|stream|suite --seed N --seconds S --trace 0|1

Each repetition runs the workload's gapsum command lines in a fresh
interpreter (rep.py), so no lru_cache state carries over between
repetitions.  Repetitions continue while the next one is expected to end
within --seconds.  With --trace 0 the last line of output is a JSON object
with the end-to-end metrics (medians over the repetitions); with --trace 1
the last repetition runs traced and the JSON carries the per-layer metrics.
The lines before it name every metric with its unit, and every check with
its outcome.  Set-up is timed apart, in dedicated fresh interpreters and
at the start of every repetition.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170  # a run must end within 180 s


class RepFailed(Exception):
    pass


def run_rep(workload, seed, workdir, deadline, *, trace=False, setup_only=False):
    """Run rep.py in a fresh interpreter and return its result dict."""
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = {k: v for k, v in os.environ.items() if k not in ("GAPSUM_WORKERS", "PYTHONPATH")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    with open(os.path.join(workdir, "log.txt"), "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:  # timed out or interrupted: stop it and its workers
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if code is None:
        raise RepFailed(f"{workload} repetition did not finish before the deadline")
    if code != 0:
        with open(os.path.join(workdir, "log.txt")) as fh:
            tail = fh.read()[-2000:]
        raise RepFailed(f"{workload} repetition exited with {code}:\n{tail}")
    with open(os.path.join(workdir, "result.json")) as fh:
        return json.load(fh)


def measure(args, workdir, deadline):
    """Set-up samples, untraced repetitions, and with --trace one traced one."""
    setups = [
        run_rep(args.workload, args.seed, os.path.join(workdir, f"setup{i}"), deadline,
                setup_only=True)["setup_s"]
        for i in range(SETUP_SAMPLES)
    ]
    reference = load_json("reference.json")[args.workload]
    reps, results = [], []
    started = time.monotonic()
    # A traced run keeps room for one more repetition, the traced one.
    room = 2 if args.trace else 1
    while not reps or time.monotonic() - started + room * statistics.mean(reps) <= args.seconds:
        t = time.monotonic()
        rep_dir = os.path.join(workdir, f"rep{len(reps)}")
        results.append(run_rep(args.workload, args.seed, rep_dir, deadline))
        reps.append(time.monotonic() - t)
        results[-1]["checks"] = checks.check_rep(
            args.workload, rep_dir, results[-1]["exit_codes"], reference)
    traced = None
    if args.trace:
        rep_dir = os.path.join(workdir, "traced")
        traced = run_rep(args.workload, args.seed, rep_dir, deadline, trace=True)
        traced["checks"] = checks.check_rep(args.workload, rep_dir, traced["exit_codes"],
                                            reference)
        with open(os.path.join(rep_dir, "spans.json")) as fh:
            traced["layers"] = spans.layer_metrics(json.load(fh))
    setups += [r["setup_s"] for r in results + [traced] if r]
    return setups, results, traced


def load_json(name, directory=HERE):
    with open(os.path.join(directory, name)) as fh:
        return json.load(fh)


def summarize_checks(rep_checks, known):
    """Print each check's outcome; return (attempted, failed, unexpected failures).

    Every repetition runs every check.  The totals count checks, not rows
    or repetitions: a check is attempted once and fails if it failed in
    any repetition, so the totals depend only on the workload, not on the
    seed or on how many repetitions fit in the run.
    """
    merged, failing_reps = {}, {}
    for checks_of_rep in rep_checks:
        for c in checks_of_rep:
            m = merged.setdefault(c.name, checks.Check(c.name, 0, 0))
            m.attempted = max(m.attempted, c.attempted)
            m.failed = max(m.failed, c.failed)
            m.detail = m.detail or c.detail
            failing_reps[c.name] = failing_reps.get(c.name, 0) + bool(c.failed)
    unexpected = 0
    for name, c in merged.items():
        if not c.failed:
            status = "PASS"
            if name in known:
                status += " (listed as a known defect in meta.json; remove it there)"
        elif name in known:
            status = f"FAIL, known defect: {known[name]}"
        else:
            status = "FAIL"
            unexpected += 1
        detail = f" [{c.detail}]" if c.failed else ""
        print(f"check {name}: {c.attempted - c.failed}/{c.attempted} items passed, failed in "
              f"{failing_reps[name]} of {len(rep_checks)} repetitions - {status}{detail}")
    failed = sum(bool(c.failed) for c in merged.values())
    return len(merged), failed, unexpected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "gapsum", "__init__.py")):
        print(f"error: no gapsum sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    try:
        setups, results, traced = measure(args, workdir, deadline)
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    print(f"workload {args.workload}: seed {args.seed}, "
          f"{workloads.WORKERS[args.workload]} worker(s), {len(results)} untraced repetitions"
          f"{', 1 traced' if traced else ''}; nproc {os.cpu_count()}, "
          f"python {platform.python_version()}, numpy {numpy.__version__}")
    if results[0]["stop_segment"] is not None:
        print(f"stream stops after segment {results[0]['stop_segment']} and resumes")
    known = load_json("meta.json")["known_failures"]
    rep_checks = [r["checks"] for r in results + [traced] if r]
    attempted, failed, unexpected = summarize_checks(rep_checks, known)
    print(f"fail_frac: {failed}/{attempted} = {failed / attempted:.6f} ratio")

    walls = [r["wall_s"] for r in results]
    sieved = workloads.SIEVED_INTEGERS[args.workload]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in results),
        "sieve_mps": statistics.median(sieved / w / 1e6 for w in walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "setup_s": statistics.median(setups),
    }
    bench = load_json("BENCHMARK.json", ROOT)
    for m in bench["end_to_end"]:
        n = len(setups) if m["name"] == "setup_s" else len(results)
        print(f"{m['name']}: {end_to_end[m['name']]:.6g} {m['unit']} (median of {n})")
    print(f"wall_s samples: {', '.join(f'{w:.4f}' for w in walls)}")

    if traced:
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - end_to_end["wall_s"]
        for m in bench["per_layer"]:
            print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
        chosen = bench["per_layer"]
    else:
        values = end_to_end
        chosen = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
