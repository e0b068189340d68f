import csv
import hashlib
import importlib.util
import json
import struct
import threading
from pathlib import Path

import pytest

from gapsum import checkpoint, cli, engine, singular, sums
from gapsum.errors import CapacityError, ValidationError


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return cli.main(args)


def read_csv(path):
    comments, rows = [], []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line)
    return comments, list(csv.reader(rows))


def test_parse_count():
    assert cli.parse_count("1e9") == 10**9
    assert cli.parse_count("1_000_000") == 10**6
    assert cli.parse_count("42") == 42
    # exact: through a float this came back as 1234567890123456768
    assert cli.parse_count("123456789012345679e1") == 1234567890123456790
    assert cli.parse_count("9223372036854775807") == 2**63 - 1
    assert cli.parse_count("1.5e1") == 15
    for bad in ("1.5", "ten", "inf", "nan", "1e-3"):
        with pytest.raises(ValidationError):
            cli.parse_count(bad)
    for huge in ("9223372036854775808", "1e1000000000", "-1e1000000000"):
        with pytest.raises(CapacityError):
            cli.parse_count(huge)


def test_parse_grid():
    assert cli.parse_grid("1e3:1e5:log") == [1000, 10_000, 100_000]
    assert cli.parse_grid("10,30,100") == [10, 30, 100]
    with pytest.raises(ValidationError):
        cli.parse_grid("1:10:linear")


def test_parse_samples():
    assert cli.parse_samples("2:6,4:10") == [(2, 6), (4, 10)]
    with pytest.raises(ValidationError):
        cli.parse_samples("2-6")


def test_singular_pair_command(tmp_path, monkeypatch, capsys):
    assert run_cli(["singular-pair", "--d", "6"], tmp_path, monkeypatch) == 0
    comments, rows = read_csv(tmp_path / "gapsum-singular-pair.csv")
    assert any(c.startswith("# command=singular-pair") for c in comments)
    header, row = rows
    assert header == cli.REPORT_FIELDS
    assert float(row[2]) == 2 * singular.pair_singular(2).value


def test_weighted_sum_csv_matches_library(tmp_path, monkeypatch):
    code = run_cli(
        ["weighted-sum", "--limit", "1e4", "--alpha", "0", "--mode", "prime"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "gapsum-weighted-sum.csv")
    header, *data = rows
    assert header == cli.SNAPSHOT_FIELDS
    final = data[-1]
    # same snapshot grid as the CLI: the grid participates in the
    # reduction grouping, so it must match for bit equality
    snap = sums.weighted_gap_sum(
        sums.WeightSpec(0.0), prime_limit=10_000,
        snapshot_limits=sums.default_snapshot_grid(10_000),
    )
    assert int(final[0]) == 10_000
    assert float(final[1]) == snap.value
    assert int(final[2]) == snap.terms


def test_json_output_is_array(tmp_path, monkeypatch):
    code = run_cli(
        ["verify-lemma21", "--grid", "1e3:1e4:log", "--format", "json"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    payload = json.loads((tmp_path / "gapsum-verify-lemma21.json").read_text())
    assert isinstance(payload, list) and len(payload) == 2
    assert set(payload[0]) == set(cli.REPORT_FIELDS)


def test_en_sum_heuristic_tail_printed(tmp_path, monkeypatch, capsys):
    code = run_cli(["en-sum", "--limit", "1000", "--c", "3"], tmp_path, monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    assert "heuristic" in out


def test_unknown_flag_exits_1(tmp_path, monkeypatch, capsys):
    assert run_cli(["weighted-sum", "--limit", "10", "--bogus"], tmp_path, monkeypatch) == 1
    # alpha alone decides the first n summed
    args = ["weighted-sum", "--limit", "1000", "--alpha", "-1", "--start-index", "3"]
    assert run_cli(args, tmp_path, monkeypatch) == 1
    assert not (tmp_path / "gapsum-weighted-sum.csv").exists()
    # every pass sieves engine.SEGMENT_SLOTS slots a segment
    args = ["sieve-stats", "--limit", "1e4", "--segment-size", "1024"]
    assert run_cli(args, tmp_path, monkeypatch) == 1
    # every singular-series bound uses the one fixed P
    for args in (["singular-tuple", "--offsets", "0,2,6"], ["verify-lemma22", "--d-list", "30"],
                 ["verify-sieve-bound", "--limit", "1e4"]):
        assert run_cli(args + ["--truncation", "1e6"], tmp_path, monkeypatch) == 1


def test_unknown_command_exits_1(tmp_path, monkeypatch):
    assert run_cli(["frobnicate"], tmp_path, monkeypatch) == 1


def test_validation_error_exits_1_and_leaves_no_file(tmp_path, monkeypatch):
    code = run_cli(
        ["weighted-sum", "--limit", "1000", "--alpha", "-2"], tmp_path, monkeypatch
    )
    assert code == 1
    assert not (tmp_path / "gapsum-weighted-sum.csv").exists()


def test_capacity_error_exits_2(tmp_path, monkeypatch):
    code = run_cli(
        ["sieve-stats", "--limit", "9300000000000000000"], tmp_path, monkeypatch
    )
    assert code == 2
    assert run_cli(["sieve-stats", "--limit", "1e1000000000"], tmp_path, monkeypatch) == 2


@pytest.mark.parametrize("args", [
    ["weighted-sum", "--limit", "1000", "--alpha", "nan"],
    ["weighted-sum", "--limit", "1000", "--alpha", "inf"],
    ["en-sum", "--limit", "1000", "--c", "inf"],
    ["verify-theorem1", "--limit", "1000", "--alpha", "nan"],
    ["verify-corollary", "--limit", "1000", "--c", "nan"],
])
def test_non_finite_parameter_exits_1_and_leaves_no_file(args, tmp_path, monkeypatch):
    assert run_cli(args + ["--workers", "1"], tmp_path, monkeypatch) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failure", [
    # (the function that runs out of memory, the command, whether it runs in the main thread)
    ("_worker_counts", ["gaps-histogram", "--limit", "1e5", "--workers", "2"], False),
    ("prime_count", ["sieve-stats", "--limit", "1e4"], True),
])
def test_worker_failure_exits_2(failure, tmp_path, monkeypatch, capsys, set_segment_slots):
    name, args, in_main = failure
    monkeypatch.delenv("GAPSUM_WORKERS", raising=False)
    set_segment_slots(1 << 12)  # a pass to 1e5 in 13 segments
    threads = []

    def fail(*args, **kwargs):
        threads.append(threading.current_thread())
        raise MemoryError

    monkeypatch.setattr(engine, name, fail)
    assert run_cli(args, tmp_path, monkeypatch) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert list(tmp_path.iterdir()) == []
    assert threads and all((t is threading.main_thread()) == in_main for t in threads)


@pytest.mark.parametrize("lib", [engine._segment_lib, lambda: None], ids=["compiled", "numpy"])
def test_histogram_gap_wider_than_its_bins_exits_2(lib, tmp_path, monkeypatch, capsys,
                                                   set_segment_slots):
    # a first segment whose primes 3 and 3 + 2 * 1024 lie 2048 apart: no wrong bin, exit 2
    monkeypatch.setattr(engine, "_segment_lib", lib)
    set_segment_slots(1 << 12)
    sieve_mask = engine._sieve_mask

    def wide(lo, hi, base):
        mask = sieve_mask(lo, hi, base)
        if lo == 3 and len(mask) > 2048:
            mask[: 1025] = False
            mask[[0, 1024]] = True
        return mask

    monkeypatch.setattr(engine, "_sieve_mask", wide)
    args = ["gaps-histogram", "--limit", "1e5", "--workers", "2"]
    assert run_cli(args, tmp_path, monkeypatch) == 2
    assert capsys.readouterr().err == f"error: {engine._WIDE_BIN}\n"
    assert "2046" in engine._WIDE_BIN
    assert list(tmp_path.iterdir()) == []


def test_sandwich_command(tmp_path, monkeypatch, capsys):
    assert run_cli(["sandwich", "--limit", "1000", "--d", "4"], tmp_path, monkeypatch) == 0
    assert "ok=True" in capsys.readouterr().out


def test_gaps_histogram_command(tmp_path, monkeypatch):
    assert run_cli(["gaps-histogram", "--limit", "100"], tmp_path, monkeypatch) == 0
    _, rows = read_csv(tmp_path / "gapsum-gaps-histogram.csv")
    header, *data = rows
    by_d = {json.loads(r[1])["d"]: float(r[2]) for r in data}
    assert by_d[2] == 8.0


def test_verify_conjecture1_command(tmp_path, monkeypatch):
    code = run_cli(
        ["verify-conjecture1", "--limit", "1e4", "--d-list", "2,4,6"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "gapsum-verify-conjecture1.csv")
    assert len(rows) == 4  # header + 3


def test_verify_sieve_bound_default_samples(tmp_path, monkeypatch):
    code = run_cli(["verify-sieve-bound", "--limit", "1e5"], tmp_path, monkeypatch)
    assert code == 0
    _, rows = read_csv(tmp_path / "gapsum-verify-sieve-bound.csv")
    assert len(rows) == 21


def test_checkpoint_stop_resume_cycle(tmp_path, monkeypatch):
    base = [
        "weighted-sum", "--limit", "1e7", "--alpha", "0", "--workers", "1",
    ]
    assert run_cli(base + ["--output", "full.csv"], tmp_path, monkeypatch) == 0
    code = run_cli(
        base + ["--checkpoint-dir", "ck", "--stop-after-segments", "2"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    ckpt = tmp_path / "ck" / "gapsum-weighted-sum.ckpt"
    assert ckpt.exists()
    assert not (tmp_path / "gapsum-weighted-sum.csv").exists()  # interrupted: no report
    code = run_cli(
        base + ["--resume", str(ckpt), "--output", "resumed.csv"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    _, full_rows = read_csv(tmp_path / "full.csv")
    _, resumed_rows = read_csv(tmp_path / "resumed.csv")
    assert resumed_rows == full_rows  # every snapshot row, to the last bit


def test_en_sum_checkpoint_cycle(tmp_path, monkeypatch):
    base = ["en-sum", "--limit", "2e5", "--c", "3", "--workers", "1"]
    assert run_cli(base + ["--output", "full.csv"], tmp_path, monkeypatch) == 0
    code = run_cli(
        base + ["--checkpoint-dir", "ck", "--stop-after-segments", "1"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    ckpt = str(tmp_path / "ck" / "gapsum-en-sum.ckpt")
    code = run_cli(base + ["--resume", ckpt, "--output", "resumed.csv"],
                   tmp_path, monkeypatch)
    assert code == 0
    _, full_rows = read_csv(tmp_path / "full.csv")
    _, resumed_rows = read_csv(tmp_path / "resumed.csv")
    assert resumed_rows == full_rows


# The cadence runs: 1e5 at 1024 slots is 49 segments of 2048 integers each.
_CADENCE = ["weighted-sum", "--limit", "1e5", "--alpha", "1", "--workers", "1"]
_SEGMENT_ENDS = [min(lo + 2048, 10**5 + 1) for lo in range(3, 10**5 + 1, 2048)]


@pytest.fixture
def saved(monkeypatch):
    """The states the run saves, in order; ``checkpoint.save`` still writes each."""
    states = []
    real_save = checkpoint.save

    def save(path, ckpt):
        states.append(ckpt.state)
        real_save(path, ckpt)

    monkeypatch.setattr(checkpoint, "save", save)
    return states


def _resume_matches_full(tmp_path, monkeypatch):
    """Resume from the saved record; its report rows equal the uninterrupted run's."""
    assert run_cli(_CADENCE + ["--output", "full.csv"], tmp_path, monkeypatch) == 0
    ckpt = str(tmp_path / "ck" / "gapsum-weighted-sum.ckpt")
    code = run_cli(_CADENCE + ["--resume", ckpt, "--output", "resumed.csv"],
                   tmp_path, monkeypatch)
    assert code == 0
    assert read_csv(tmp_path / "resumed.csv")[1] == read_csv(tmp_path / "full.csv")[1]


def test_checkpoint_every_segment_at_zero_interval(saved, tmp_path, monkeypatch, set_segment_slots):
    set_segment_slots(1 << 10)
    monkeypatch.setattr(checkpoint, "SAVE_INTERVAL_S", 0.0)
    assert run_cli(_CADENCE + ["--checkpoint-dir", "ck"], tmp_path, monkeypatch) == 0
    assert [st.next_lo for st in saved] == _SEGMENT_ENDS


def test_checkpoint_once_at_completion_within_the_interval(saved, tmp_path, monkeypatch,
                                                           set_segment_slots):
    set_segment_slots(1 << 10)
    monkeypatch.setattr(checkpoint, "SAVE_INTERVAL_S", 1e9)
    assert run_cli(_CADENCE + ["--checkpoint-dir", "ck"], tmp_path, monkeypatch) == 0
    assert [st.next_lo for st in saved] == [_SEGMENT_ENDS[-1]]
    _resume_matches_full(tmp_path, monkeypatch)


def test_checkpoint_saved_at_a_stop(saved, tmp_path, monkeypatch, set_segment_slots):
    set_segment_slots(1 << 10)
    monkeypatch.setattr(checkpoint, "SAVE_INTERVAL_S", 1e9)
    code = run_cli(_CADENCE + ["--checkpoint-dir", "ck", "--stop-after-segments", "3"],
                   tmp_path, monkeypatch)
    assert code == 0
    assert [st.next_lo for st in saved] == [_SEGMENT_ENDS[2]]
    _resume_matches_full(tmp_path, monkeypatch)


def test_checkpoint_saved_when_a_segment_fails(saved, tmp_path, monkeypatch, set_segment_slots):
    set_segment_slots(1 << 10)
    # the 5th segment's worker fails, so the record holds the state after 4
    monkeypatch.setattr(checkpoint, "SAVE_INTERVAL_S", 1e9)
    real_worker, calls = engine._worker_gaps, []

    def worker(task):
        calls.append(task)
        if len(calls) == 5:
            raise MemoryError
        return real_worker(task)

    monkeypatch.setattr(engine, "_worker_gaps", worker)
    assert run_cli(_CADENCE + ["--checkpoint-dir", "ck"], tmp_path, monkeypatch) == 2
    assert not (tmp_path / "gapsum-weighted-sum.csv").exists()
    assert [st.next_lo for st in saved] == [_SEGMENT_ENDS[3]]
    monkeypatch.setattr(engine, "_worker_gaps", real_worker)
    _resume_matches_full(tmp_path, monkeypatch)


@pytest.mark.parametrize("interval", [0.0, 1e9])  # a timed save, then the final one
def test_failed_checkpoint_save_is_not_retried(interval, tmp_path, monkeypatch, set_segment_slots):
    set_segment_slots(1 << 10)
    monkeypatch.setattr(checkpoint, "SAVE_INTERVAL_S", interval)
    error, calls = OSError("disk full"), []

    def save(path, ckpt):
        calls.append(ckpt)
        raise error

    monkeypatch.setattr(checkpoint, "save", save)
    with pytest.raises(OSError) as raised:
        run_cli(_CADENCE + ["--checkpoint-dir", "ck"], tmp_path, monkeypatch)
    assert raised.value is error
    assert len(calls) == 1


def test_resume_with_other_alpha_refused(tmp_path, monkeypatch):
    base = ["weighted-sum", "--limit", "2e6", "--workers", "1"]
    run_cli(
        base + ["--alpha", "0", "--checkpoint-dir", "ck", "--stop-after-segments", "2"],
        tmp_path, monkeypatch,
    )
    ckpt = str(tmp_path / "ck" / "gapsum-weighted-sum.ckpt")
    code = run_cli(base + ["--alpha", "1", "--resume", ckpt], tmp_path, monkeypatch)
    assert code == 1


def test_resume_on_another_segment_size_writes_the_same_report(tmp_path, monkeypatch,
                                                               set_segment_slots):
    # 500 segments of 2048 integers pass n = 2^16 (p_65536 = 821,641), so the
    # series restarts from there, on a grid of 8192 integers: a checkpoint
    # written before a change of engine.SEGMENT_SLOTS still resumes
    base = ["en-sum", "--limit", "2e5", "--c", "3", "--workers", "1"]
    assert run_cli(base + ["--output", "full.csv"], tmp_path, monkeypatch) == 0
    set_segment_slots(1024)
    assert run_cli(base + ["--checkpoint-dir", "ck", "--stop-after-segments", "500"],
                   tmp_path, monkeypatch) == 0
    ckpt = tmp_path / "ck" / "gapsum-en-sum.ckpt"
    assert checkpoint.load(str(ckpt)).state.next_n == 1 << 16
    set_segment_slots(4096)
    assert run_cli(base + ["--resume", str(ckpt), "--output", "resumed.csv"],
                   tmp_path, monkeypatch) == 0
    assert read_csv(tmp_path / "resumed.csv")[1] == read_csv(tmp_path / "full.csv")[1]


@pytest.mark.parametrize("grid", ["-5,0,100", "0", "100.9"])
def test_snapshot_grid_below_one_or_fractional_refused(grid, tmp_path, monkeypatch):
    # a cut at -5 or 0 once counted the gaps before it twice: 411.94 over
    # 1,995 terms against 206.31 over 1,000
    for command in (["weighted-sum", "--mode", "index"], ["en-sum", "--c", "0"]):
        argv = [*command, "--limit", "1000", f"--snapshot-grid={grid}", "--output", "out.csv"]
        assert run_cli(argv, tmp_path, monkeypatch) == 1
        assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["weighted-sum", "--limit", "100", "--alpha", "1000"],
    ["weighted-sum", "--limit", "100", "--alpha", "1000", "--mode", "index"],
    ["en-sum", "--limit", "100", "--c", "1000"],
    ["en-sum", "--limit", "1e4", "--c", "-2000"],
])
def test_terms_not_finite_in_float64_exit_2(argv, tmp_path, monkeypatch, capsys):
    assert run_cli(argv + ["--output", "out.csv"], tmp_path, monkeypatch) == 2
    assert "not finite in float64" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_resume_with_other_worker_count_allowed(tmp_path, monkeypatch):
    base = ["weighted-sum", "--limit", "2e6", "--alpha", "0"]
    run_cli(
        base + ["--workers", "1", "--checkpoint-dir", "ck", "--stop-after-segments", "2"],
        tmp_path, monkeypatch,
    )
    ckpt = str(tmp_path / "ck" / "gapsum-weighted-sum.ckpt")
    code = run_cli(
        base + ["--workers", "3", "--resume", ckpt, "--output", "w3.csv"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    run_cli(base + ["--workers", "1", "--output", "w1.csv"], tmp_path, monkeypatch)
    _, a = read_csv(tmp_path / "w3.csv")
    _, b = read_csv(tmp_path / "w1.csv")
    assert a[-1] == b[-1]


def test_corrupt_checkpoint_refused(tmp_path, monkeypatch):
    (tmp_path / "bad.ckpt").write_bytes(b"GSCK" + b"\x00" * 84)
    code = run_cli(
        ["weighted-sum", "--limit", "2e6", "--alpha", "0", "--resume", "bad.ckpt"],
        tmp_path, monkeypatch,
    )
    assert code == 1


def test_version_1_checkpoint_refused(tmp_path, monkeypatch, capsys):
    # an 88-byte record of the old binary format, checksum intact
    head = struct.pack("<4sHBxQQQQddQ16s", b"GSCK", 1, 0, 2 * 10**6, 2051, 2039, 309,
                       0.5, 0.0, 308, bytes(16))
    (tmp_path / "v1.ckpt").write_bytes(head + hashlib.sha256(head).digest()[:8])
    code = run_cli(
        ["weighted-sum", "--limit", "2e6", "--alpha", "0", "--resume", "v1.ckpt"],
        tmp_path, monkeypatch,
    )
    assert code == 1
    assert "unsupported checkpoint version 1 " in capsys.readouterr().err
    assert not (tmp_path / "gapsum-weighted-sum.csv").exists()


def test_workers_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("GAPSUM_WORKERS", "1")
    code = run_cli(
        ["weighted-sum", "--limit", "1e4", "--alpha", "0", "--workers", "7"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    comments, _ = read_csv(tmp_path / "gapsum-weighted-sum.csv")
    assert "# workers=1" in comments


def test_stop_after_requires_checkpoint_dir(tmp_path, monkeypatch):
    code = run_cli(
        ["weighted-sum", "--limit", "1e4", "--alpha", "0", "--stop-after-segments", "1"],
        tmp_path, monkeypatch,
    )
    assert code == 1
    for budget in ("0", "-3"):
        code = run_cli(
            ["weighted-sum", "--limit", "1e4", "--alpha", "0", "--checkpoint-dir", "ck",
             "--stop-after-segments", budget],
            tmp_path, monkeypatch,
        )
        assert code == 1
        assert not (tmp_path / "gapsum-weighted-sum.csv").exists()
        assert not (tmp_path / "ck" / "gapsum-weighted-sum.ckpt").exists()


def test_verification_suite_report_names_are_distinct():
    # --alpha -1 and --alpha 1 must name different reports, or one
    # overwrites the other
    path = Path(__file__).parents[1] / "scripts" / "run_verification_suite.py"
    spec = importlib.util.spec_from_file_location("run_verification_suite", path)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    names = [suite.report_name(job) for job in suite.suite_jobs("1e8")]
    assert len(names) == 10
    assert len(set(names)) == 10
    assert "verify-theorem1-limit-1e8-alpha--1" in names
    assert "verify-theorem1-limit-1e8-alpha-1" in names
