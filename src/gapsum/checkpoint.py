"""Versioned binary checkpoints for resumable streaming runs.

One record per completed sieve segment, written atomically (temp file +
rename).  The accumulator floats are serialized bit-exactly, so a
resumed run reproduces the uninterrupted run's final value to the last
bit.  A digest of the semantic run configuration refuses resumes under a
different command, limit, weight, segment size, or snapshot grid; the
worker count is deliberately not part of the digest because it cannot
affect results.

Record layout (little endian), 88 bytes total:

    offset  size  field
    0       4     magic "GSCK"
    4       2     format version (currently 1)
    6       1     mode (0 = prime limit, 1 = index limit)
    7       1     reserved
    8       8     run limit (uint64)
    16      8     next segment lower bound (uint64)
    24      8     last prime of the previous segment (uint64)
    32      8     next gap index n (uint64)
    40      8     accumulator value (float64 bits)
    48      8     accumulator compensation (float64 bits)
    56      8     included term count (uint64)
    64      16    sha256 digest prefix of the run configuration
    80      8     sha256 checksum prefix of the preceding bytes
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass

from .errors import CheckpointError
from .sums import AccumulatorState

MAGIC = b"GSCK"
VERSION = 1

_HEAD = struct.Struct("<4sHBxQQQQddQ16s")
_CHECK = struct.Struct("<8s")
_MODES = {"prime": 0, "index": 1}
_MODE_NAMES = {v: k for k, v in _MODES.items()}


def config_digest(config: dict) -> bytes:
    """16-byte digest of the semantic run configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).digest()[:16]


@dataclass(frozen=True)
class Checkpoint:
    mode: str
    limit: int
    state: AccumulatorState
    digest: bytes

    def pack(self) -> bytes:
        head = _HEAD.pack(
            MAGIC,
            VERSION,
            _MODES[self.mode],
            self.limit,
            self.state.next_lo,
            self.state.last_prime,
            self.state.next_n,
            self.state.kahan_s,
            self.state.kahan_c,
            self.state.terms,
            self.digest,
        )
        return head + _CHECK.pack(hashlib.sha256(head).digest()[:8])


def unpack(raw: bytes) -> Checkpoint:
    if len(raw) != _HEAD.size + _CHECK.size:
        raise CheckpointError("checkpoint has the wrong length")
    head, check = raw[: _HEAD.size], raw[_HEAD.size :]
    (expected,) = _CHECK.unpack(check)
    if hashlib.sha256(head).digest()[:8] != expected:
        raise CheckpointError("checkpoint checksum mismatch (corrupt file)")
    magic, version, mode_id, limit, next_lo, last_prime, next_n, s, c, terms, digest = (
        _HEAD.unpack(head)
    )
    if magic != MAGIC:
        raise CheckpointError("not a gapsum checkpoint")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if mode_id not in _MODE_NAMES:
        raise CheckpointError(f"unknown checkpoint mode {mode_id}")
    state = AccumulatorState(
        next_lo=next_lo,
        last_prime=last_prime,
        next_n=next_n,
        kahan_s=s,
        kahan_c=c,
        terms=terms,
    )
    return Checkpoint(_MODE_NAMES[mode_id], limit, state, digest)


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path`` and rename it into place.

    Shared with the CLI's report writer, so neither a checkpoint nor a
    report is ever left half written.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gapsum-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save(path: str, ckpt: Checkpoint) -> None:
    _write_atomic(path, ckpt.pack())


def load(path: str) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return unpack(raw)


def verify_match(ckpt: Checkpoint, mode: str, limit: int, digest: bytes) -> None:
    if ckpt.mode != mode or ckpt.limit != limit:
        raise CheckpointError(
            f"checkpoint is for a {ckpt.mode}-limit run to {ckpt.limit}, "
            f"not a {mode}-limit run to {limit}"
        )
    if ckpt.digest != digest:
        raise CheckpointError(
            "checkpoint configuration digest does not match this run; refusing to resume"
        )
