"""Versioned checkpoints for resumable streaming runs.

A record holds the state after a completed sieve segment (for the
Erdos-Nathanson series, at its last chunk boundary).  A run saves one
when at least ``SAVE_INTERVAL_S`` seconds have passed since its last
save, and always once more as it ends: at completion, at a
stop-after-segments stop and when an exception propagates.  Only a hard
kill can lose up to one interval of work.  Each record is written
atomically (temp file, fsync, rename): the magic b"GSCK", a JSON body,
and the first 8 bytes of the sha256 of everything before them.  The body
holds the version, mode, limit, configuration digest and the
``AccumulatorState``: restart point, Neumaier pair, term count, gap
histogram as (d, N) pairs and the snapshot rows written.  JSON floats
round-trip float64 exactly, so a resumed run reproduces the
uninterrupted run to the last bit.  The digest refuses resumes under a
different command, limit, weight or snapshot grid; the worker count and
segment size cannot affect results and are left out.  Versions 1 (88
binary bytes) and 2 (the series' state at a segment boundary) are refused.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass

from .errors import CheckpointError
from .sums import AccumulatorState, SumSnapshot

MAGIC = b"GSCK"
VERSION = 3
_CHECK = 8
# Least time between two saves of one run; each save fsyncs (~0.5 ms).
SAVE_INTERVAL_S = 2.0


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
        st = self.state
        body = {
            "version": VERSION, "mode": self.mode, "limit": self.limit,
            "digest": self.digest.hex(),
            "state": [st.next_lo, st.last_prime, st.next_n, st.kahan_s, st.kahan_c, st.terms,
                      sorted(st.counts.items()),
                      [[s.limit_reached, s.value, s.terms, s.compensation] for s in st.snapshots]],
        }
        head = MAGIC + json.dumps(body, separators=(",", ":")).encode()
        return head + hashlib.sha256(head).digest()[:_CHECK]


def unpack(raw: bytes) -> Checkpoint:
    head, check = raw[:-_CHECK], raw[-_CHECK:]
    if len(head) < len(MAGIC) + 1:
        raise CheckpointError("checkpoint is too short")
    if hashlib.sha256(head).digest()[:_CHECK] != check:
        raise CheckpointError("checkpoint checksum mismatch (corrupt file)")
    if head[:4] != MAGIC:
        raise CheckpointError("not a gapsum checkpoint")
    try:
        # version 1 wrote a binary uint16 version where the JSON body now starts
        body = (json.loads(head[4:]) if head[4:5] == b"{"
                else {"version": int.from_bytes(head[4:6], "little")})
        version = body["version"]
        if version == VERSION:
            mode, limit, digest = body["mode"], body["limit"], bytes.fromhex(body["digest"])
            *fields, counts, snaps = body["state"]
            state = AccumulatorState(*fields, counts={d: n for d, n in counts},
                                     snapshots=[SumSnapshot(mode, *row) for row in snaps])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint body: {exc}") from exc
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} "
                              f"(this gapsum reads version {VERSION}); rerun without --resume")
    return Checkpoint(mode, limit, state, digest)


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
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save(path: str, ckpt: Checkpoint) -> None:
    _write_atomic(path, ckpt.pack())


class Saver:
    """The checkpoint writer of one run, used as a context manager.

    ``offer`` takes the state after each segment and saves it once
    ``SAVE_INTERVAL_S`` seconds have passed since the last save; leaving
    the ``with`` block, normally or by an exception, saves the latest
    state not yet saved.  A state is dropped before its save is tried, so
    a save that fails is not retried on the way out.
    """

    def __init__(self, path: str, mode: str, limit: int, digest: bytes):
        self.path, self.mode, self.limit, self.digest = path, mode, limit, digest
        self._pending: AccumulatorState | None = None
        self._last = time.monotonic()

    def offer(self, state: AccumulatorState) -> None:
        self._pending = state
        if time.monotonic() - self._last >= SAVE_INTERVAL_S:
            self._flush()

    def _flush(self) -> None:
        state, self._pending = self._pending, None
        if state is not None:
            save(self.path, Checkpoint(self.mode, self.limit, state, self.digest))
            self._last = time.monotonic()

    def __enter__(self) -> "Saver":
        return self

    def __exit__(self, *exc_info) -> None:
        self._flush()


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
