"""Golden outputs of every CLI command.

Each case runs its command lines with ``--workers 1`` in an empty working
directory, then compares every file left there, and the captured stdout
with run times masked, byte for byte against ``tests/golden/<case>/``.
The checkpoint cases run with ``engine.SEGMENT_SLOTS`` patched to 1024 and
keep the file written at a stop after that many segments (for ``en-sum``,
500 of them, past its first chunk boundary at n = 2^16), so a change to the
checkpoint format or its configuration digest shows.

After an intended output change, re-record the cases it touches with
``PYTHONPATH=src python tests/test_cli_golden.py CASE [CASE ...]`` (every
case when none is named) and review the diff.
"""

import contextlib
import io
import os
import pathlib
import re
import shutil
import sys
import sysconfig
import warnings
from unittest import mock

import pytest

from gapsum import cli, engine

GOLDEN = pathlib.Path(__file__).parent / "golden"
STDOUT = "stdout.txt"

_CKPT = ["--checkpoint-dir", "ck"]

CASES = {
    "sieve-stats": [["sieve-stats", "--limit", "1e4", "--output", "out.csv"]],
    "gaps-histogram": [["gaps-histogram", "--limit", "1000", "--output", "out.csv"]],
    "weighted-sum": [["weighted-sum", "--limit", "1e4", "--alpha", "0", "--output", "out.csv"]],
    "weighted-sum-index": [[
        "weighted-sum", "--limit", "1000", "--alpha", "-1", "--mode", "index",
        "--snapshot-grid", "10,100", "--output", "out.csv",
    ]],
    "weighted-sum-checkpoint": [
        ["weighted-sum", "--limit", "1e5", "--alpha", "1", *_CKPT, "--stop-after-segments", "1"],
        ["weighted-sum", "--limit", "1e5", "--alpha", "1",
         "--resume", "ck/gapsum-weighted-sum.ckpt", "--output", "out.csv"],
    ],
    "en-sum": [["en-sum", "--limit", "1e4", "--c", "3", "--output", "out.csv"]],
    "en-sum-checkpoint": [
        ["en-sum", "--limit", "1e5", "--c", "2", *_CKPT, "--stop-after-segments", "500"],
        ["en-sum", "--limit", "1e5", "--c", "2",
         "--resume", "ck/gapsum-en-sum.ckpt", "--output", "out.csv"],
    ],
    "singular-pair": [["singular-pair", "--d", "30", "--output", "out.csv"]],
    "singular-tuple": [["singular-tuple", "--offsets", "0,2,6", "--output", "out.csv"]],
    "verify-lemma21": [["verify-lemma21", "--grid", "1e3:1e5:log", "--output", "out.csv"]],
    "verify-lemma21-json": [[
        "verify-lemma21", "--grid", "1e3:1e4:log", "--format", "json", "--output", "out.json",
    ]],
    "verify-lemma22": [["verify-lemma22", "--d-list", "30,210", "--output", "out.csv"]],
    "verify-conjecture1": [[
        "verify-conjecture1", "--limit", "1e4", "--d-list", "2,3,4,6,10", "--output", "out.csv",
    ]],
    "verify-sieve-bound": [["verify-sieve-bound", "--limit", "1e5", "--output", "out.csv"]],
    "verify-sieve-bound-samples": [[
        "verify-sieve-bound", "--limit", "1e4", "--samples", "2:6,2:4", "--output", "out.csv",
    ]],
    "verify-theorem1": [[
        "verify-theorem1", "--limit", "1e5", "--alpha", "0", "--output", "out.csv",
    ]],
    "verify-theorem1-index": [[
        "verify-theorem1", "--limit", "1e4", "--alpha", "-1", "--mode", "index",
        "--output", "out.csv",
    ]],
    "verify-corollary-c0": [["verify-corollary", "--limit", "1e4", "--c", "0", "--output", "out.csv"]],
    "verify-corollary-c2": [["verify-corollary", "--limit", "1e4", "--c", "2", "--output", "out.csv"]],
    "verify-corollary-c3": [["verify-corollary", "--limit", "1e4", "--c", "3", "--output", "out.csv"]],
    "sandwich": [["sandwich", "--limit", "1e4", "--d", "6", "--output", "out.csv"]],
}

# The cases that sieve 1024-slot segments, so that they stop mid-run.
_SMALL_SEGMENTS = {"weighted-sum-checkpoint", "en-sum-checkpoint"}

_ELAPSED = re.compile(r"\(\d+\.\d\ds\)")


def run_case(name: str, workdir: pathlib.Path) -> dict[str, bytes]:
    """Run one case in ``workdir``; map each file it leaves (and stdout) to its bytes."""
    out = io.StringIO()
    slots = 1024 if name in _SMALL_SEGMENTS else engine.SEGMENT_SLOTS
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.object(engine, "SEGMENT_SLOTS", slots), contextlib.redirect_stdout(out):
            for argv in CASES[name]:
                code = cli.main(argv + ["--workers", "1"])
                assert code == 0, f"{argv} exited {code}"
    finally:
        os.chdir(cwd)
    files = {
        p.relative_to(workdir).as_posix(): p.read_bytes()
        for p in sorted(workdir.rglob("*")) if p.is_file()
    }
    files[STDOUT] = _ELAPSED.sub("(<t>s)", out.getvalue()).encode()
    return files


def read_golden(name: str) -> dict[str, bytes]:
    root = GOLDEN / name
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_every_command_has_a_case():
    assert {argv[0] for runs in CASES.values() for argv in runs} == set(cli.COMMANDS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.delenv("GAPSUM_WORKERS", raising=False)
    got = run_case(name, tmp_path)
    expected = read_golden(name)
    assert sorted(got) == sorted(expected)
    for path, data in expected.items():
        assert got[path] == data, f"{name}/{path} differs from the golden file"


@pytest.mark.parametrize("disable", ["loader", "compiler"])
def test_golden_output_on_the_numpy_path(disable, tmp_path, monkeypatch):
    # every case writes the same bytes, without a warning, when the compiled
    # kernel does not load or the compiler sysconfig names does not exist
    monkeypatch.delenv("GAPSUM_WORKERS", raising=False)
    loader = engine._segment_lib
    if disable == "loader":
        monkeypatch.setattr(engine, "_segment_lib", lambda: None)
    else:
        config = sysconfig.get_config_var
        missing = str(tmp_path / "no-such-cc")
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda name: missing if name == "CC" else config(name))
        loader.cache_clear()
    try:
        assert engine._segment_lib() is None
        for name in sorted(CASES):
            workdir = tmp_path / name
            workdir.mkdir()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = run_case(name, workdir)
            assert got == read_golden(name), name
    finally:
        loader.cache_clear()  # the next call loads the compiled kernel again


def _record(names: list[str]) -> None:
    """Re-record the named cases, or every case when none is named."""
    import tempfile

    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}")
    os.environ.pop("GAPSUM_WORKERS", None)
    for name in names or sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(name, pathlib.Path(tmp))
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        for path, data in files.items():
            target = GOLDEN / name / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        print(f"recorded {name}: {len(files)} files", file=sys.stderr)


if __name__ == "__main__":
    _record(sys.argv[1:])
