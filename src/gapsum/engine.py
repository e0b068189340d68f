"""Segmented prime sieve with deterministic parallel segment merging.

The sieve works on odd integers only.  A segment covers a span of
``2 * SEGMENT_SLOTS`` consecutive integers starting at an odd bound, and
slot ``i`` of a segment based at ``lo`` represents the odd number
``lo + 2*i``.  Segments are sieved independently (optionally on worker
threads) and consumed strictly in increasing order, so every derived
stream (primes, gaps, counts) is identical for any worker count and any
segment size.  ``_sieve_mask`` is the one kernel, also for the base
primes.  Two folds read the segments.  ``gap_blocks`` is the one gap stream,
over the uint16 gaps the gap worker sends, 2 bytes a prime, and
``prime_blocks`` reads it.  ``_count_pass`` is the one counting pass: its
worker counts tuples and, when asked, bins the gaps of its segment, so
``tuple_counts`` (``prime_count`` counts the tuple (0,)) and
``consecutive_gap_counts`` share it.

Three steps of a segment run in C when they can.  ``_segment.c``'s
``cross_off`` clears the multiples of the base primes, those below 8192 one
32 KiB block at a time; its ``pack_gaps`` reads the gap worker's primes 64
slots to a word; and its ``count_words`` packs the counting worker's mask
into 64-slot words once, counts every tuple by ANDing shifted words, and
bins the gaps from the same words.  ``_segment_lib`` compiles the file on
first use and caches the library in ``__pycache__``; the wheel tile, the
start offsets and both folds stay in numpy.  Where the library does not
build or load, the numpy code does the same work with the same results,
and the tests use it as the reference: a strided slice assignment per base
prime, then ``np.flatnonzero`` and ``_pack_gaps`` for the gaps, and
``_count_bytes`` (one byte AND per offset, and a bincount of the slot
distances) for the counts.  A pass of the tuple (0,) alone counts the
mask bytes on either path.

The counting pass keeps the gap histograms of its last eight limits, each
keyed by its pass, whenever it made one: every pass with no tuples or with
a tuple of two or more offsets does, if none is kept for its key.  So a
process sieves each limit's histogram at most once while it is kept, and
not at all after a tuple pass to the same limit.

The n-dependent sums need the gaps themselves, so ``gap_blocks`` keeps the
last finished from-scratch index stream of at most 2^24 gaps, one byte a
gap, and replays it for the next pass with the same sieve bound, index
limit and worker count instead of sieving again.  Both keys also hold
``SEGMENT_SLOTS`` as it reads at the call, so a pass after a patch of the
constant sieves again.

Counting is by sieve only; there is no analytic shortcut, and no
primality proving for individual large integers.

A note on scale: the number of primes up to X grows like X/log X (the
prime number theorem), so the index of the largest prime below a desk
scale limit of 1e12 still fits comfortably in 64 bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, EmptyDomainError, ValidationError

CAPACITY_LIMIT = 2**63 - 1

# Odd slots per segment, one size for every pass, measured rather than sized
# to a cache.  Each segment pays a fixed cost per base prime (its start
# offset), which a larger mask amortises.  But while the compiled kernel
# sweeps the small primes in L1-sized blocks whatever the size, the large
# primes and the gap scan sweep the whole mask, one byte a slot: 2^20 slots
# fill half of a 2 MiB L2, 2^21 all of it.  On one segment just below X,
# _worker_gaps took 1.12 ns per integer at 2^20 slots against 1.34 at 2^21
# (X = 1e10), 1.39 against 2.67 at 2^23 (X = 2e11), and 1.66 against 1.91
# at 2^21 and 3.11 at 2^23 (X = 1e12) (BENCH_one_segment_size.json).
SEGMENT_SLOTS = 1 << 20

_FIRST_ODD = 3


def default_workers() -> int:
    env = os.environ.get("GAPSUM_WORKERS")
    if env:
        try:
            w = int(env)
        except ValueError as exc:
            raise ValidationError(f"GAPSUM_WORKERS must be an integer, got {env!r}") from exc
        if w < 1:
            raise ValidationError("GAPSUM_WORKERS must be >= 1")
        return w
    return os.cpu_count() or 1


def _resolve_workers(workers: int | None) -> int:
    """``workers``, or ``default_workers()`` for None; a count below 1 is refused."""
    if workers is None:
        return default_workers()
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValidationError(f"workers must be an integer >= 1, got {workers!r}")
    return int(workers)


def effective_segment_slots(limit: int) -> int:
    """The odd slots per segment of a pass to ``limit``: ``SEGMENT_SLOTS``, read at call time."""
    return SEGMENT_SLOTS


def _check_limit(limit: int, minimum: int, what: str = "limit") -> int:
    if isinstance(limit, bool) or not isinstance(limit, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {type(limit).__name__}")
    limit = int(limit)
    if limit > CAPACITY_LIMIT:
        raise CapacityError(f"{what} {limit} exceeds the supported range 2^63 - 1")
    if limit < minimum:
        raise EmptyDomainError(f"{what} must be >= {minimum}, got {limit}")
    return limit


def _check_real(x: float, what: str) -> float:
    """``x`` as a float; a str, bool, complex or non-finite value is refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{what} must be a real number, got {type(x).__name__}")
    try:
        value = float(x)
    except OverflowError:  # an int past the float64 range
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {x}")
    return value


@lru_cache(maxsize=4)
def _odd_base_primes(limit: int) -> np.ndarray:
    """Odd primes <= limit, sieved by ``_sieve_mask`` over the base primes to sqrt(limit)."""
    if limit < 3:
        return np.empty(0, dtype=np.int64)
    mask = _sieve_mask(_FIRST_ODD, limit + 1, _odd_base_primes(math.isqrt(limit)))
    return (np.flatnonzero(mask) << 1) + _FIRST_ODD


# The compiled segment kernel: _segment.c, built on first use with the
# compiler Python was built with, and cached beside this module's bytecode.
_SEGMENT_SOURCE = Path(__file__).with_name("_segment.c")


def _segment_library_path(command: Sequence[str]) -> Path:
    """Where the library built from the current source by ``command`` is cached.

    The name holds the SHA-256 of the source and the command, so another
    interpreter finds the library without compiling, and an edit of the
    source builds a new one.
    """
    digest = hashlib.sha256(_SEGMENT_SOURCE.read_bytes())
    digest.update("\0".join(command).encode())
    return _SEGMENT_SOURCE.parent / "__pycache__" / f"_segment-{digest.hexdigest()[:16]}.so"


def _build_segment_library(command: Sequence[str], path: Path) -> None:
    """Compile ``_segment.c`` to ``path`` through a temporary file, so no reader sees half a library."""
    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([*command, "-o", tmp, str(_SEGMENT_SOURCE)], check=True, capture_output=True,
                       timeout=300)
        os.chmod(tmp, 0o755)  # mkstemp's 0600 would keep other users of the checkout on numpy
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # libraries of older sources go; a process with another CC rebuilds its own
    for stale in path.parent.glob("_segment-*.so"):
        if stale != path:
            with contextlib.suppress(OSError):
                stale.unlink()


@lru_cache(maxsize=1)
def _segment_lib() -> ctypes.CDLL | None:
    """The compiled ``cross_off``, ``pack_gaps`` and ``count_words``, or None for numpy.

    numpy runs on a big-endian host (``pack_gaps`` and ``count_words`` read
    eight mask bytes as one word), and when sysconfig names no compiler or the build or the
    load fails.  The outputs are the same either way.
    """
    cc = sysconfig.get_config_var("CC")
    if sys.byteorder != "little" or not cc:
        return None
    command = [*shlex.split(cc), "-O2", "-shared", "-fPIC"]
    try:
        path = _segment_library_path(command)
        if not path.exists():
            _build_segment_library(command, path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError):
        return None
    mask = np.ctypeslib.ndpointer(np.bool_, flags=("C_CONTIGUOUS", "WRITEABLE"))
    int64s = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    out64s = np.ctypeslib.ndpointer(np.int64, flags=("C_CONTIGUOUS", "WRITEABLE"))
    lib.cross_off.argtypes = [mask, ctypes.c_int64, int64s, out64s, ctypes.c_int64]
    lib.cross_off.restype = None
    lib.pack_gaps.argtypes = [
        np.ctypeslib.ndpointer(np.bool_, flags="C_CONTIGUOUS"), ctypes.c_int64,
        np.ctypeslib.ndpointer(np.uint16, flags=("C_CONTIGUOUS", "WRITEABLE")), out64s,
    ]
    lib.pack_gaps.restype = ctypes.c_int64
    lib.count_words.argtypes = [
        np.ctypeslib.ndpointer(np.bool_, flags="C_CONTIGUOUS"), ctypes.c_int64, int64s, int64s,
        int64s, ctypes.c_int64, out64s, ctypes.c_int64, out64s, out64s,
    ]
    lib.count_words.restype = ctypes.c_int64
    return lib


# Wheel pre-sieve: every segment mask starts as a copy of the odd numbers
# prime to 3*5*7*11*13, so the cross-off loop starts at 17.  The pattern
# repeats every 15,015 odd slots and is cached at that length.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL_PERIOD = 3 * 5 * 7 * 11 * 13


@lru_cache(maxsize=1)
def _wheel_pattern() -> np.ndarray:
    """One period of the wheel; slot i stands for the odd number 2i + 1."""
    pattern = np.ones(_WHEEL_PERIOD, dtype=bool)
    for p in _WHEEL_PRIMES:
        pattern[p // 2 :: p] = False
    return pattern


def _sieve_mask(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Boolean mask over odd integers in [lo, hi); True means prime.

    ``lo`` must be odd and >= 3.  ``base`` must be sorted and contain
    every odd prime <= sqrt(hi - 1).
    """
    n_slots = (hi - lo + 1) // 2
    phase = (lo // 2) % _WHEEL_PERIOD
    periods = -(-(phase + n_slots) // _WHEEL_PERIOD)
    mask = np.tile(_wheel_pattern(), periods)[phase : phase + n_slots]
    if lo <= _WHEEL_PRIMES[-1]:
        for p in _WHEEL_PRIMES:
            if lo <= p < hi:
                mask[(p - lo) // 2] = True
    # Cross off base primes p >= 17 with p^2 < hi, each from its first odd
    # multiple >= max(p^2, lo), all offsets computed in one pass.
    first = np.searchsorted(base, _WHEEL_PRIMES[-1], "right")
    ps = base[first : np.searchsorted(base, math.isqrt(hi - 1), "right")]
    offsets = (-lo) % ps  # distance from lo to the first multiple >= lo
    offsets += (offsets & 1) * ps  # odd distance: that multiple is even
    offsets >>= 1
    np.maximum(offsets, (ps * ps - lo) >> 1, out=offsets)
    lib = _segment_lib()
    if lib is not None:
        lib.cross_off(mask, len(mask), ps, offsets, len(ps))
    else:
        for p, o in zip(ps.tolist(), offsets.tolist()):
            mask[o::p] = False
    return mask


# ---------------------------------------------------------------------------
# Worker functions, run on pool threads: each writes only arrays of its own

_WIDE_GAP = "a prime gap exceeds 65535, the width of the uint16 gap transfer"


def _worker_gaps(task: tuple[int, int, int]) -> tuple[int, int, np.ndarray] | None:
    """``_pack_gaps`` of the primes in [lo, hi), or None if there are none."""
    lo, hi, sqrt_cap = task
    mask = _sieve_mask(lo, hi, _odd_base_primes(sqrt_cap))
    lib = _segment_lib()
    if lib is not None:
        return _scan_gaps(lib, lo, mask)
    slots = np.flatnonzero(mask)
    return _pack_gaps(lo, slots) if len(slots) else None


def _scan_gaps(lib: ctypes.CDLL, lo: int, mask: np.ndarray) -> tuple[int, int, np.ndarray] | None:
    """``_pack_gaps(lo, np.flatnonzero(mask))`` by the compiled ``pack_gaps``, or None."""
    gaps = np.empty(len(mask), dtype=np.uint16)
    ends = np.empty(2, dtype=np.int64)
    count = lib.pack_gaps(mask, len(mask), gaps, ends)
    if count < 0:
        raise CapacityError(_WIDE_GAP)
    if not count:
        return None
    return lo + 2 * int(ends[0]), lo + 2 * int(ends[1]), gaps[:count].copy()


def _pack_gaps(lo: int, slots: np.ndarray) -> tuple[int, int, np.ndarray]:
    """(first prime, last prime, gaps) of the primes lo + 2*slot, for sorted ``slots``.

    ``gaps`` is uint16 with one entry per prime: entry j > 0 is the gap
    from prime j - 1 to prime j, and entry 0 is left for the gap that
    enters the segment.  Gaps below 2^63 are at most 1,550 (OEIS A005250).
    A wider one wraps to a smaller value, so the gaps no longer sum to
    last - first, and that sum stays below 2^32.
    """
    gaps = np.zeros(len(slots), dtype=np.uint16)
    np.subtract(slots[1:], slots[:-1], out=gaps[1:], casting="unsafe")
    gaps <<= 1
    first, last = lo + 2 * int(slots[0]), lo + 2 * int(slots[-1])
    if int(gaps.sum(dtype=np.uint32)) != last - first:
        raise CapacityError(_WIDE_GAP)
    return first, last, gaps


# Bins of a segment's gap histogram, by distance in slots (d / 2): gaps to
# 2046.  The gaps below 2^64 are at most 1,550 (OEIS A005250); a wider one
# raises rather than land in a wrong bin.
_HIST_BINS = 1024
_WIDE_BIN = "a prime gap exceeds 2046, the width of the gap histogram"


def _worker_counts(task: tuple[int, int, int, int, tuple[tuple[int, ...], ...], bool]
                   ) -> tuple[np.ndarray, np.ndarray | None, int | None, int | None]:
    """Tuple counts of [lo, hi), and with ``histogram`` the gaps between its primes.

    Counts the starts n in [lo, hi) with n + max(h) <= limit, per tuple;
    the mask is sieved max(h)/2 slots past ``hi`` so shifted reads never
    cross into another segment.  Returns (counts, histogram, first prime,
    last prime).  The histogram counts the primes of [lo, hi) by their
    distance in slots from the one before; it and the primes are None
    unless the histogram was asked for and [lo, hi) holds a prime.
    """
    lo, hi, sqrt_cap, limit, tuples, histogram = task
    hi_ext = min(hi + max((h[-1] for h in tuples), default=0), limit + 1)
    mask = _sieve_mask(lo, hi_ext, _odd_base_primes(sqrt_cap))
    cores = [max(0, (min(hi, limit - h[-1] + 1) - lo + 1) // 2) for h in tuples]
    core = (hi - lo + 1) // 2 if histogram else 0
    lib = _segment_lib()
    if lib is not None and (histogram or max(map(len, tuples), default=0) > 1):
        counts, hist, ends = _count_words(lib, mask, tuples, cores, core)
    else:
        counts, hist, ends = _count_bytes(mask, tuples, cores, core)
    if not histogram or ends[0] < 0:
        return counts, None, None, None
    return counts, hist, lo + 2 * ends[0], lo + 2 * ends[1]


def _count_words(lib: ctypes.CDLL, mask: np.ndarray, tuples, cores: list[int], core: int
                 ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """``_count_bytes`` by the compiled ``count_words``, from the mask packed into words."""
    shifts = np.array([h // 2 for offsets in tuples for h in offsets], dtype=np.int64)
    starts = np.cumsum([0, *map(len, tuples)], dtype=np.int64)
    counts = np.empty(len(tuples), dtype=np.int64)
    hist = np.zeros(_HIST_BINS, dtype=np.int64)
    ends = np.empty(2, dtype=np.int64)
    status = lib.count_words(mask, len(mask), shifts, starts, np.array(cores, dtype=np.int64),
                             len(tuples), counts, core, hist, ends)
    if status == -2:
        raise MemoryError
    if status < 0:
        raise CapacityError(_WIDE_BIN)
    return counts, hist, ends.tolist()


def _count_bytes(mask: np.ndarray, tuples, cores: list[int], core: int
                 ) -> tuple[np.ndarray, np.ndarray | None, list[int]]:
    """Per tuple, the slots i < its core with every mask[i + h/2] set; and the
    histogram of slot distances between the set slots of mask[:core], with
    the first and last of them (-1 if none), when ``core`` > 0."""
    counts = np.zeros(len(tuples), dtype=np.int64)
    # one buffer for every tuple of two or more offsets; (0,) counts the mask itself
    scratch = np.empty(max(cores, default=0) if max(map(len, tuples), default=0) > 1 else 0,
                       dtype=bool)
    for j, (offsets, n) in enumerate(zip(tuples, cores)):
        acc = mask[:n]  # a view, so a one-offset tuple counts without a copy
        for h in offsets[1:]:
            acc = np.logical_and(acc, mask[h // 2 : h // 2 + n], out=scratch[:n])
        counts[j] = int(np.count_nonzero(acc))
    slots = np.flatnonzero(mask[:core])
    if not len(slots):
        return counts, None, [-1, -1]
    hist = np.bincount(np.diff(slots), minlength=_HIST_BINS)
    if len(hist) > _HIST_BINS:
        raise CapacityError(_WIDE_BIN)
    return counts, hist, [int(slots[0]), int(slots[-1])]


def _segment_map(worker, limit: int, *, workers: int | None, start_lo: int = _FIRST_ODD,
                 extra: tuple = ()) -> Iterator[tuple[int, object]]:
    """Yield (segment end, worker(task)) for each segment up to ``limit``, in order.

    A task is ``(lo, hi, sqrt_cap, *extra)``: the odd integers in
    [lo, hi), with base primes up to ``sqrt_cap``.  With ``workers > 1``
    the tasks run on at most one thread per task (the kernel releases the
    GIL), a bounded window ahead of the consumer, but results are yielded
    in segment order, which keeps every downstream reduction
    deterministic.  No result is referenced here once it has been yielded.
    """
    workers = _resolve_workers(workers)
    span = 2 * SEGMENT_SLOTS
    sqrt_cap = math.isqrt(limit) + 1
    _segment_lib()  # built or loaded here, so by one thread
    _odd_base_primes(sqrt_cap)  # and the base primes sieved once
    tasks = [(lo, min(lo + span, limit + 1), sqrt_cap, *extra)
             for lo in range(start_lo, limit + 1, span)]
    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield task[1], worker(task)
        return
    window = 2 * workers + 2
    ex = ThreadPoolExecutor(max_workers=min(workers, len(tasks)))
    try:
        ahead = iter(tasks)
        pending = deque()
        for task in tasks:
            for queued in islice(ahead, window - len(pending)):
                pending.append(ex.submit(worker, queued))
            yield task[1], pending.popleft().result()
    finally:
        # a pass closed early (index limit, stop, or a raise) cancels every
        # task not yet started; only those running on a thread finish
        ex.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# Public types

@dataclass(frozen=True, slots=True)
class GapRecord:
    """One consecutive-prime event: the n-th prime, its successor, and their gap."""

    n: int
    p: int
    p_next: int
    gap: int


@dataclass(frozen=True)
class GapHistogram:
    """Counts of consecutive gaps d with p_next <= limit."""

    limit: int
    counts: dict[int, int]

    def total_span(self) -> int:
        """Sum of d * count(d); telescopes to (largest prime <= limit) - 2."""
        return sum(d * c for d, c in self.counts.items())


# ---------------------------------------------------------------------------
# Prime enumeration

def prime_blocks(limit: int, *, workers: int | None = None) -> Iterator[np.ndarray]:
    """Yield int64 arrays of the odd primes in successive segments up to ``limit``.

    The prime 2 is not included; callers that need it prepend it
    themselves.  Each array is ``rights()`` of one ``gap_blocks`` block.
    """
    if _check_limit(limit, 2) > 2:
        blocks = gap_blocks(prime_limit=limit, workers=workers)
        yield from (block.rights() for block in blocks)


def primes_up_to(limit: int, *, workers: int | None = None) -> Iterator[int]:
    """Every prime <= limit exactly once, in increasing order."""
    limit = _check_limit(limit, 2)
    yield 2
    for block in prime_blocks(limit, workers=workers):
        yield from (int(p) for p in block)


def prime_count(limit: int, *, workers: int | None = None) -> int:
    """pi(limit): the number of primes <= limit."""
    return tuple_count(limit, (0,), workers=workers)


# ---------------------------------------------------------------------------
# Gap streams

@dataclass(frozen=True)
class GapBlock:
    """A contiguous run of gaps: gap j is d_n with n = n0 + j.

    ``gaps`` is uint16.  ``last_prime`` is the larger prime of the last
    pair, so ``rights()`` rebuilds every p_{n+1} with one cumsum.
    ``seg_end`` is the sieve segment boundary whose consumption produced
    the block; it is the restart point a checkpoint records.  A segment
    without primes gives a block without gaps.
    """

    n0: int
    gaps: np.ndarray
    last_prime: int
    seg_end: int

    def rights(self) -> np.ndarray:
        """p_{n+1} for each gap d_n of the block, as int64."""
        rights = self.gaps.astype(np.int64)
        # the gaps of one segment sum to less than 2^32 (see _pack_gaps)
        rights[:1] += self.last_prime - int(self.gaps.sum(dtype=np.uint32))
        return np.cumsum(rights, out=rights)


# The kept index stream: at most one, keyed by (sieve bound, index limit,
# workers, SEGMENT_SLOTS), holding (n0, gaps as uint8, last_prime, seg_end)
# per block.  The first 2^24 gaps are all at most 248: the next record gap,
# 250, follows 387,096,133, past p_(2^24) ~ 3.1e8 (OEIS A005250).
_KEPT_STREAM_GAPS = 1 << 24
_kept_stream: dict[tuple, list[tuple[int, np.ndarray, int, int]]] = {}


def gap_blocks(
    *,
    prime_limit: int | None = None,
    index_limit: int | None = None,
    workers: int | None = None,
    start_lo: int = _FIRST_ODD,
    init_last: int = 2,
    init_n: int = 1,
) -> Iterator[GapBlock]:
    """The gap stream in one block per sieve segment: the only gap fold.

    Exactly one of ``prime_limit`` (include gaps with p_{n+1} <= X) and
    ``index_limit`` (include gaps with n <= N) must be given.  The
    ``start_lo`` / ``init_last`` / ``init_n`` triple restarts the stream
    from checkpointed state; the defaults start from scratch, where the
    first record pairs 2 with 3.  Workers send each segment's inner gaps;
    this fold adds the gap that crosses into the segment, numbers the gaps
    and stops at the index limit.

    A from-scratch index pass to N <= 2^24 that is consumed to its end is
    kept in place of the previous one; the next from-scratch pass with the
    same sieve bound, N, worker count and ``SEGMENT_SLOTS`` replays its blocks
    (equal field by field) instead of sieving.  A pass closed early or ended
    by an exception keeps nothing.
    """
    sieve_limit, index_limit = _sieve_limit(prime_limit, index_limit)
    if index_limit is not None and init_n > index_limit:
        return  # restarted from a run that had already closed the index limit
    workers = _resolve_workers(workers)
    key = (sieve_limit, index_limit, workers, SEGMENT_SLOTS)
    fresh = index_limit is not None and (start_lo, init_last, init_n) == (_FIRST_ODD, 2, 1)
    if fresh and key in _kept_stream:
        for n0, gaps, top, seg_end in _kept_stream[key]:
            yield GapBlock(n0, gaps.astype(np.uint16), top, seg_end)
        return
    kept = [] if fresh and index_limit <= _KEPT_STREAM_GAPS else None
    last = init_last
    n = init_n
    for seg_end, summary in _segment_map(
        _worker_gaps, sieve_limit, workers=workers, start_lo=start_lo,
    ):
        first, top, gaps = summary or (last, last, np.empty(0, dtype=np.uint16))
        if first - last > 0xFFFF:
            raise CapacityError(_WIDE_GAP)
        gaps[:1] = first - last
        done = index_limit is not None and n + len(gaps) > index_limit
        if done:
            gaps = gaps[: index_limit - n + 1]
            top = last + int(gaps.sum(dtype=np.int64))
        if kept is not None and gaps.max(initial=0) > 0xFF:
            kept = None  # this gap does not fit a byte: keep nothing
        if kept is not None:
            kept.append((n, gaps.astype(np.uint8), top, seg_end))
        yield GapBlock(n, gaps, top, seg_end)
        if done:
            if kept is not None:
                _kept_stream.clear()
                _kept_stream[key] = kept
            return
        n += len(gaps)
        last = top
        del gaps, summary  # free this segment's arrays before the next is sieved
    if index_limit is not None:
        raise CapacityError("prime enumeration bound exhausted before index limit")


def _sieve_limit(prime_limit: int | None, index_limit: int | None) -> tuple[int, int | None]:
    """The sieve bound for exactly one of the two limits, and the checked index limit."""
    if (prime_limit is None) == (index_limit is None):
        raise ValidationError("exactly one of prime_limit and index_limit is required")
    if prime_limit is not None:
        return _check_limit(prime_limit, 3, "prime_limit"), None
    index_limit = _check_limit(index_limit, 1, "index_limit")
    return _check_limit(_prime_value_bound(index_limit + 1), 2), index_limit


def _prime_value_bound(n: int) -> int:
    """An upper bound for the n-th prime (p_n < n(log n + log log n) for n >= 6)."""
    if n < 6:
        return 13
    ln = math.log(n)
    return int(n * (ln + math.log(ln))) + 1


def gap_stream(
    *,
    prime_limit: int | None = None,
    index_limit: int | None = None,
    workers: int | None = None,
) -> Iterator[GapRecord]:
    """Yield GapRecord(n, p_n, p_{n+1}, d_n) in increasing n."""
    for block in gap_blocks(prime_limit=prime_limit, index_limit=index_limit, workers=workers):
        for j, (g, r) in enumerate(zip(block.gaps.tolist(), block.rights().tolist())):
            yield GapRecord(block.n0 + j, r - g, r, g)


def _gap_counter(gaps: np.ndarray) -> Counter:
    """N(d) over ``gaps``, from their bincount."""
    return Counter({d: c for d, c in enumerate(np.bincount(gaps).tolist()) if c})


# The histograms of the last eight counting passes that made one, keyed by
# (limit, workers, SEGMENT_SLOTS): sorted (d, N(d)) pairs.  The histogram
# does not depend on the workers or the segment size; the key holds them so
# that every distinct pass is still sieved once.
_GAP_HISTOGRAMS = 8
_gap_histograms: dict[tuple[int, int, int], tuple[tuple[int, int], ...]] = {}


def consecutive_gap_counts(limit: int, *, workers: int | None = None) -> GapHistogram:
    """Histogram of consecutive gaps d_n with p_{n+1} <= limit; the integer fold is exact.

    It is the counting pass with no tuples, unless a pass to the same limit
    with the same worker count and ``SEGMENT_SLOTS`` has already made it in
    this process: any tuple pass of two or more offsets does, so theorem 1,
    the sandwich and ``gaps-histogram`` read what an earlier pass stored.
    Every call gets a fresh ``counts`` dict.
    """
    limit = _check_limit(limit, 3)
    workers = _resolve_workers(workers)
    key = (limit, workers, SEGMENT_SLOTS)
    if key not in _gap_histograms:
        _count_pass(limit, (), workers)
    return GapHistogram(limit, dict(_gap_histograms[key]))


def _count_pass(limit: int, tuples: tuple[tuple[int, ...], ...], workers: int) -> list[int]:
    """The counts of ``tuples`` over the odd starts to ``limit``, in one pass.

    The pass also makes the gap histogram to ``limit`` when none is kept for
    its key and it packs the mask into words anyway: for a tuple of two or
    more offsets, or for no tuples at all.  It keeps the histogram once the
    pass has finished.  A pass of (0,) alone counts the mask bytes.
    """
    key = (limit, workers, SEGMENT_SLOTS)
    packs = not tuples or max(map(len, tuples)) > 1
    histogram = packs and key not in _gap_histograms
    counts = np.zeros(len(tuples), dtype=np.int64)
    bins = np.zeros(_HIST_BINS, dtype=np.int64)
    crossing = Counter()  # the gap into each segment, from 2 -> 3 on
    last = 2
    for _, (part, hist, first, top) in _segment_map(_worker_counts, limit, workers=workers,
                                                     extra=(limit, tuples, histogram)):
        counts += part
        if first is not None:
            bins += hist
            crossing[first - last] += 1
            last = top
    if histogram:
        gaps = Counter({2 * k: c for k, c in enumerate(bins.tolist()) if c}) + crossing
        while len(_gap_histograms) >= _GAP_HISTOGRAMS:
            del _gap_histograms[next(iter(_gap_histograms))]
        _gap_histograms[key] = tuple(sorted(gaps.items()))
    return counts.tolist()


# ---------------------------------------------------------------------------
# Prime tuple counts

def _normalize_offsets(h) -> tuple[int, ...]:
    offsets = tuple(_check_limit(x, 0, "tuple offset") for x in getattr(h, "offsets", h))
    if not offsets:
        raise ValidationError("tuple offsets must be non-empty")
    if offsets[0] != 0:
        raise ValidationError("tuple offsets must start at 0")
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        raise ValidationError("tuple offsets must be strictly increasing")
    return offsets


# Deterministic Miller-Rabin, valid for all 64-bit inputs.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def tuple_counts(limit: int, tuple_list: Sequence, *, workers: int | None = None) -> list[int]:
    """pi(limit; H) for each H in one sieve pass.

    Counts n with n + max(H) <= limit such that n + h is prime for every
    offset h.  The start n = 2 is checked directly; the sieve counts the
    odd starts, which only tuples of even offsets can have.  A pass for a
    tuple of two or more offsets also keeps the gap histogram to ``limit``
    for ``consecutive_gap_counts``.
    """
    limit = _check_limit(limit, 2)
    normalized = [_normalize_offsets(h) for h in tuple_list]
    results = [int(h[-1] + 2 <= limit and all(_is_prime(2 + x) for x in h)) for h in normalized]
    sieved = [j for j, h in enumerate(normalized)
              if h[-1] + 3 <= limit and not any(x % 2 for x in h)]
    if sieved:
        counts = _count_pass(limit, tuple(normalized[j] for j in sieved), _resolve_workers(workers))
        for j, count in zip(sieved, counts):
            results[j] += count
    return results


def tuple_count(limit: int, h, *, workers: int | None = None) -> int:
    """pi(limit; H) for a single tuple; see ``tuple_counts``."""
    return tuple_counts(limit, [h], workers=workers)[0]
