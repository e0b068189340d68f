import hashlib
import struct

import pytest

from gapsum import checkpoint, cli
from gapsum.errors import CheckpointError
from gapsum.sums import AccumulatorState, SumSnapshot


def make_state():
    return AccumulatorState(
        next_lo=524291,
        last_prime=524287,
        next_n=43390,
        kahan_s=123.456789e-3,
        kahan_c=-7.8e-18,
        terms=43389,
        counts={1: 1, 2: 6000, 4: 5900, 72: 1},
        snapshots=[
            SumSnapshot("prime", 10, 2.0, 3, 0.0),
            SumSnapshot("prime", 30, 0.1 + 0.2, 9, -1.1102230246251565e-17),
        ],
    )


def test_pack_unpack_round_trip(tmp_path):
    digest = checkpoint.config_digest({"command": "weighted-sum", "alpha": 0.0})
    ck = checkpoint.Checkpoint("prime", 10**8, make_state(), digest)
    path = tmp_path / "run.ckpt"
    checkpoint.save(str(path), ck)
    back = checkpoint.load(str(path))
    assert back == ck  # bit-exact floats included


def test_checksum_detects_corruption(tmp_path):
    digest = checkpoint.config_digest({"a": 1})
    ck = checkpoint.Checkpoint("index", 1000, make_state(), digest)
    raw = bytearray(ck.pack())
    raw[40] ^= 0xFF  # flip a bit inside the accumulator value
    with pytest.raises(CheckpointError):
        checkpoint.unpack(bytes(raw))


def test_wrong_magic_and_length():
    with pytest.raises(CheckpointError):
        checkpoint.unpack(b"nope")
    digest = checkpoint.config_digest({})
    raw = bytearray(checkpoint.Checkpoint("prime", 10, make_state(), digest).pack())
    raw[:4] = b"XXXX"
    raw[-8:] = hashlib.sha256(bytes(raw[:-8])).digest()[:8]
    with pytest.raises(CheckpointError):
        checkpoint.unpack(bytes(raw))


def test_verify_match_rules():
    digest = checkpoint.config_digest({"alpha": 0.0})
    other = checkpoint.config_digest({"alpha": 1.0})
    ck = checkpoint.Checkpoint("prime", 10**6, make_state(), digest)
    checkpoint.verify_match(ck, "prime", 10**6, digest)
    with pytest.raises(CheckpointError):
        checkpoint.verify_match(ck, "index", 10**6, digest)
    with pytest.raises(CheckpointError):
        checkpoint.verify_match(ck, "prime", 10**7, digest)
    with pytest.raises(CheckpointError):
        checkpoint.verify_match(ck, "prime", 10**6, other)


def test_missing_file():
    with pytest.raises(CheckpointError):
        checkpoint.load("/nonexistent/run.ckpt")


def test_version_1_record_refused():
    # the fixed 88-byte binary layout of version 1, with a valid checksum
    head = struct.pack("<4sHBxQQQQddQ16s", b"GSCK", 1, 0, 10**8, 524291, 524287, 43390,
                       0.5, 0.0, 43389, checkpoint.config_digest({}))
    raw = head + hashlib.sha256(head).digest()[:8]
    assert len(raw) == 88
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1 "):
        checkpoint.unpack(raw)


def test_version_2_record_refused(tmp_path, monkeypatch, capsys):
    # version 2 held the series' state at a segment boundary, not at a chunk boundary
    ck = checkpoint.Checkpoint("index", 10**5, make_state(), checkpoint.config_digest({}))
    head = ck.pack()[:-8].replace(b'{"version":3,', b'{"version":2,')
    (tmp_path / "v2.ckpt").write_bytes(head + hashlib.sha256(head).digest()[:8])
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 2 "):
        checkpoint.load(str(tmp_path / "v2.ckpt"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["en-sum", "--limit", "1e5", "--c", "2", "--resume", "v2.ckpt"]) == 1
    assert "version 2" in capsys.readouterr().err
    assert not (tmp_path / "gapsum-en-sum.csv").exists()
