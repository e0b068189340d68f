"""Command-line entry point.

Commands cover sieving statistics, gap histograms, the weighted and
damped gap sums (checkpointable), singular series values, and the
verification reports.  Two stable output schemas cover everything:

    snapshots:  limit,value,terms
    reports:    claim,params_json,empirical,predicted,ratio,notes

CSV output is locale independent ('.' decimal separator, LF endings,
17 significant digits) and starts with the full run configuration in
'#' comment lines.  Files are written to a temporary name and renamed
into place, so a failed run leaves no partial output.

Exit codes: 0 success, 1 validation or usage error, 2 capacity or
precision error or a MemoryError (a worker thread's too); a crash or an
OOM kill ends the whole process, whatever the worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import time
from decimal import Decimal, InvalidOperation
from typing import Callable, NamedTuple

from . import checkpoint, engine, singular, sums, verify
from .errors import CapacityError, GapsumError, PrecisionError, ValidationError

SNAPSHOT_FIELDS = ["limit", "value", "terms"]
REPORT_FIELDS = ["claim", "params_json", "empirical", "predicted", "ratio", "notes"]


def parse_count(text: str) -> int:
    """Integer limits with scientific notation and underscores (1e9, 1_000_000).

    Parsed exactly, never through a float.  A value beyond 2^63 - 1 is
    refused before the integer is built, so '1e1000000000' costs nothing.
    """
    try:
        value = Decimal(text.replace("_", ""))
    except InvalidOperation:
        value = Decimal("NaN")
    if value.is_finite() and value.copy_abs() > engine.CAPACITY_LIMIT:
        raise CapacityError(f"count {text!r} exceeds the supported range 2^63 - 1")
    if not value.is_finite() or value != value.to_integral_value():
        raise ValidationError(f"cannot parse {text!r} as an integer count")
    return int(value)


def parse_int_list(text: str) -> list[int]:
    return [parse_count(part) for part in text.split(",") if part]

def parse_grid(text: str) -> list[int]:
    """Either a comma list or lo:hi:log (powers of ten from lo to hi)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or parts[2] != "log":
            raise ValidationError("grid must be 'lo:hi:log' or a comma-separated list")
        lo, hi = parse_count(parts[0]), parse_count(parts[1])
        if lo < 2 or hi < lo:
            raise ValidationError("grid bounds must satisfy 2 <= lo <= hi")
        out = [lo]
        while out[-1] * 10 <= hi:
            out.append(out[-1] * 10)
        return out
    return parse_int_list(text)


def parse_samples(text: str) -> list[tuple[int, int]]:
    """Sieve-bound samples as 'h:d,h:d,...'."""
    out = []
    for part in filter(None, text.split(",")):
        h, _, d = part.partition(":")
        if not d:
            raise ValidationError("samples must look like 'h:d,h:d'")
        out.append((parse_count(h), parse_count(d)))
    return out


# ---------------------------------------------------------------------------
# Command implementations

class Output(NamedTuple):
    """What a command reports: the file's columns and rows, and its stdout summary."""

    fields: list[str]
    rows: list[list]
    lines: list[str]


def write_rows(args: argparse.Namespace, fieldnames: list[str], rows: list[list]) -> str:
    """Write one report; CSV starts with every set value of ``args`` in '#' lines."""
    path = args.output_path or f"gapsum-{args.command}.{args.output_format}"
    if args.output_format == "json":
        text = json.dumps([dict(zip(fieldnames, row)) for row in rows], indent=2) + "\n"
    else:
        buf = io.StringIO()
        for key, value in sorted(vars(args).items()):
            if value is not None:
                buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(rows)
        text = buf.getvalue()
    checkpoint._write_atomic(path, text.encode("utf-8"))
    return path


def _reports(reports: list[verify.VerificationReport], lines: list[str] | None = None) -> Output:
    """Report rows; the summary is one line per row unless ``lines`` is given."""
    if lines is None:
        lines = []
        for r in reports:
            ratio = "n/a" if r.ratio is None else f"{r.ratio:.6f}"
            lines.append(f"{r.claim} {r.params}: empirical={r.empirical:.6g} "
                         f"ratio={ratio} {r.notes}")
    return Output(REPORT_FIELDS, [r.to_csv_row() for r in reports], lines)


def _sieve_stats(a: argparse.Namespace) -> Output:
    started = time.perf_counter()
    count = engine.prime_count(a.limit, workers=a.workers)
    elapsed = time.perf_counter() - started
    return Output(SNAPSHOT_FIELDS, [[a.limit, verify.format_float(float(count)), count]],
                  [f"pi({a.limit}) = {count} ({elapsed:.2f}s)"])


def _gaps_histogram(a: argparse.Namespace) -> Output:
    hist = engine.consecutive_gap_counts(a.limit, workers=a.workers)
    reports = [
        verify.VerificationReport("gap_histogram", {"X": a.limit, "d": d}, float(c), None, None, "")
        for d, c in sorted(hist.counts.items())
    ]
    return _reports(reports, [f"gaps-histogram: {len(hist.counts)} distinct gaps, "
                              f"span {hist.total_span()}"])


def _singular(claim: str, params: dict, sv: singular.SingularValue, label: str) -> Output:
    err = verify.format_float(sv.abs_error)
    report = verify.VerificationReport(claim, params, sv.value, None, None, f"abs_error={err}")
    return _reports([report], [f"{label} = {verify.format_float(sv.value)} (+/- {err})"])


def _sandwich(a: argparse.Namespace) -> Output:
    res = sums.sandwich_check(a.limit, a.d, workers=a.workers)
    report = verify.VerificationReport(
        "sandwich", {"X": a.limit, "d": a.d}, float(res.middle), None, None,
        f"lower={res.lower};upper={res.upper};ok={res.ok}",
    )
    return _reports([report], [f"sandwich X={a.limit} d={a.d}: "
                               f"{res.lower} <= {res.middle} <= {res.upper} (ok={res.ok})"])


def _sieve_bound(a: argparse.Namespace) -> Output:
    a.samples = a.samples or verify.default_sieve_samples()
    return _reports(verify.sieve_bound_check(a.limit, a.samples, workers=a.workers))


def _weighted_sum(a: argparse.Namespace) -> Output | None:
    weight = sums.WeightSpec(a.alpha)
    a.start_index = 2 if a.alpha < 0 else 1  # the first n summed, for the header and digest
    return _stream(a, lambda **kw: sums.weighted_gap_sum_series(
        weight, **{f"{a.mode}_limit": a.limit}, **kw))


def _en_sum(a: argparse.Namespace) -> Output | None:
    a.mode, a.start_index = "index", 3
    out = _stream(a, lambda **kw: sums.erdos_nathanson_series(a.limit, a.c, **kw))
    if out is not None and a.c > 2:
        out.lines.append(f"heuristic tail estimate (c > 2): "
                         f"{verify.format_float(sums.en_heuristic_tail(a.limit, a.c))}")
    return out


def _stream(a: argparse.Namespace, runner: Callable[..., list[sums.SumSnapshot]]) -> Output | None:
    """Run a checkpointable sum; None when a stop-after-segments budget ends it."""
    if a.snapshot_grid is None:
        a.snapshot_grid = sums.default_snapshot_grid(a.limit)
    # The semantic configuration a checkpoint must match; the worker count
    # and segment size are left out because they cannot affect results.
    digest = checkpoint.config_digest({
        "command": a.command, "mode": a.mode, "limit": a.limit, "start_index": a.start_index,
        "alpha": getattr(a, "alpha", None), "c": getattr(a, "c", None),
        "snapshot_grid": a.snapshot_grid,
    })

    resume_state = None
    if a.resume:
        ck = checkpoint.load(a.resume)
        checkpoint.verify_match(ck, a.mode, a.limit, digest)
        resume_state = ck.state

    saver = None
    if a.checkpoint_dir:
        os.makedirs(a.checkpoint_dir, exist_ok=True)
        saver = checkpoint.Saver(os.path.join(a.checkpoint_dir, f"gapsum-{a.command}.ckpt"),
                                 a.mode, a.limit, digest)
    if a.stop_after_segments is not None and saver is None:
        raise ValidationError("--stop-after-segments requires --checkpoint-dir")

    started = time.perf_counter()
    try:
        with saver or contextlib.nullcontext():
            snaps = runner(snapshot_limits=a.snapshot_grid, resume=resume_state,
                           on_segment=saver.offer if saver else None,
                           stop_after_segments=a.stop_after_segments, workers=a.workers)
    except sums.RunInterrupted:
        print(f"run interrupted after {a.stop_after_segments} segments; "
              f"checkpoint saved at {saver.path}")
        return None
    elapsed = time.perf_counter() - started
    final = snaps[-1]
    rows = [[s.limit_reached, verify.format_float(s.value), s.terms] for s in snaps]
    summary = (f"{a.command}: {a.mode} limit {a.limit}, value {verify.format_float(final.value)}, "
               f"terms {final.terms} ({elapsed:.2f}s)")
    return Output(SNAPSHOT_FIELDS, rows, [summary])


# ---------------------------------------------------------------------------
# The command table: each command's help, arguments (flag -> add_argument
# keywords) and run function

class Command(NamedTuple):
    help: str
    args: dict[str, dict]
    run: Callable[[argparse.Namespace], Output | None]


_COMMON = {
    "--workers": dict(type=int, help="worker threads (GAPSUM_WORKERS overrides)"),
    "--format": dict(choices=("csv", "json"), default="csv", dest="output_format"),
    "--output": dict(dest="output_path"),
}
_COUNT = dict(type=parse_count, required=True)
_FLOAT = dict(type=float, required=True)
_LIST = dict(type=parse_int_list, required=True)
_MODE = dict(choices=("prime", "index"), default="prime")
_STREAM = {
    "--snapshot-grid": dict(type=parse_grid),
    "--checkpoint-dir": dict(metavar="DIR", help=(
        f"save the run's state to DIR/gapsum-<command>.ckpt after a segment once "
        f"{checkpoint.SAVE_INTERVAL_S:g} s have passed since the last save, and always "
        f"at completion, at a --stop-after-segments stop and when the run fails")),
    "--resume": {},
    "--stop-after-segments": dict(
        type=int, help="testing hook: stop after N segments, keeping the checkpoint"),
}

COMMANDS = {
    "sieve-stats": Command("prime count up to a limit",
                           {"--limit": _COUNT}, _sieve_stats),
    "gaps-histogram": Command("histogram of consecutive gaps",
                              {"--limit": _COUNT}, _gaps_histogram),
    "weighted-sum": Command("sum of log^alpha(d_n)/d_n over the gap stream", {
        "--limit": _COUNT, "--alpha": dict(type=float, default=0.0), "--mode": _MODE,
        **_STREAM}, _weighted_sum),
    "en-sum": Command("sum of 1/(d_n n (loglog n)^c), n from 3", {
        "--limit": dict(_COUNT, help="index limit"), "--c": _FLOAT, **_STREAM}, _en_sum),
    "singular-pair": Command("S({0,d})", {"--d": _COUNT}, lambda a: _singular(
        "singular_pair", {"d": a.d}, singular.pair_singular(a.d), f"S({{0,{a.d}}})")),
    "singular-tuple": Command("S(H) for a general tuple", {
        "--offsets": dict(_LIST, help="comma separated, starting at 0")}, lambda a: _singular(
            "singular_tuple", {"offsets": a.offsets, "P": singular.BOUND_PRIME},
            singular.tuple_singular(tuple(a.offsets)), f"S({tuple(a.offsets)})")),
    "verify-lemma21": Command("pair singular sum error curve", {
        "--grid": dict(type=parse_grid, required=True)},
        lambda a: _reports(verify.lemma21_error_curve(a.grid))),
    "verify-lemma22": Command("triple row sums against d * S({0,d})", {
        "--d-list": _LIST}, lambda a: _reports(verify.lemma22_ratio_curve(a.d_list))),
    "verify-conjecture1": Command("pair counts against the conjectural main term", {
        "--limit": _COUNT, "--d-list": _LIST},
        lambda a: _reports(verify.conjecture1_ratio(a.limit, a.d_list, workers=a.workers))),
    "verify-sieve-bound": Command("triple counts against the sieve upper bound", {
        "--limit": _COUNT, "--samples": dict(
            type=parse_samples, help="h:d pairs; default picks 20 admissible with d <= 50")},
        _sieve_bound),
    "verify-theorem1": Command("weighted sum against its main term", {
        "--limit": _COUNT, "--alpha": _FLOAT, "--mode": _MODE},
        lambda a: _reports([verify.theorem1_ratio(a.limit, a.alpha, a.mode, workers=a.workers)])),
    "verify-corollary": Command("damped reciprocal series against its main term", {
        "--limit": _COUNT, "--c": _FLOAT},
        lambda a: _reports([verify.corollary_ratio(a.limit, a.c, workers=a.workers)])),
    "sandwich": Command("inclusion-exclusion bracket for one gap value",
                        {"--limit": _COUNT, "--d": _COUNT}, _sandwich),
}


# ---------------------------------------------------------------------------
# Argument parsing and the entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with status 2 by default; usage errors are 1 here.
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="gapsum", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, kwargs in {**_COMMON, **command.args}.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        env = os.environ.get("GAPSUM_WORKERS")  # when set, it overrides --workers
        args.workers = engine._resolve_workers(None if env else args.workers)
        out = COMMANDS[args.command].run(args)
        if out is not None:
            path = write_rows(args, out.fields, out.rows)
            for line in out.lines:
                print(line)
            print(f"report written to {path}")
        return 0
    except (CapacityError, PrecisionError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except GapsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
