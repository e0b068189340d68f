"""Accumulators over the consecutive-prime gap stream.

Both kinds of sum read the blocks of ``engine.gap_blocks`` and split them
at the snapshot cuts.  A sum of a weight f(d) depends on the gaps only
through their histogram N(d), so weighted sums and the range split
bincount the blocks: each value is the sum of fl(f(d)) * N(d) over the
bins the weight takes (all but d = 1 for alpha < 0), computed exactly and
rounded once, which is the correctly rounded sum of the per-gap floats
and does not depend on segment size, worker count or a resume.  The
Erdos-Nathanson series depends on n, so it is summed in fixed chunks of
2^16 consecutive n from n = 0 (n < 3 as zero terms), one ``np.sum`` each,
the chunk sums folded in order with compensated (Neumaier) summation; a
snapshot adds the open chunk's prefix to a copy of the pair.  So its
values depend only on the float terms (Demmel & Nguyen, IEEE TC 64, 2015).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import engine
from .errors import PrecisionError, UnsupportedExponentError, ValidationError


class RunInterrupted(Exception):
    """Raised by the accumulator when a stop-after-segments budget is hit.

    Control flow for the checkpointing layer, not an error.
    """


@dataclass(frozen=True)
class WeightSpec:
    """The weight family f(t) = t^(-1) (log t)^alpha, alpha >= -1.

    For alpha < 0 the sums skip d_1 = 1, the only gap equal to 1 (log 1 = 0
    cannot be raised to a negative power), so they run from n = 2; the
    excluded term is irrelevant to any of the asymptotics tracked here.
    For 0 <= alpha <= 1 the weight is strictly decreasing on [2, oo);
    larger alpha is accepted for plain accumulation.
    """

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValidationError(f"alpha must be finite, got {self.alpha}")
        if self.alpha < -1:
            raise UnsupportedExponentError("alpha must satisfy alpha >= -1")

    def evaluate(self, gaps: np.ndarray) -> np.ndarray:
        g = gaps.astype(np.float64)
        return np.log(g) ** self.alpha / g

    def summed(self, counts: dict[int, int]) -> dict[int, int]:
        """The bins of a gap histogram this weight sums: all but d = 1 when alpha < 0."""
        return {d: c for d, c in counts.items() if d > 1 or self.alpha >= 0}


@dataclass(frozen=True)
class SumSnapshot:
    """Accumulator state at a limit: value, term count, and the Neumaier carry."""

    mode: str
    limit_reached: int
    value: float
    terms: int
    compensation: float


@dataclass(frozen=True)
class RangeSplit:
    """A weighted gap sum split at y = log X / loglog X and at log X."""

    limit: int
    threshold_y: float
    low: float
    mid: float
    high: float

    @property
    def total(self) -> float:
        return self.low + self.mid + self.high


class SandwichResult(NamedTuple):
    lower: int
    middle: int
    upper: int
    ok: bool


def default_snapshot_grid(limit: int) -> list[int]:
    """Snapshot limits at 10^k and 3*10^k below the run limit."""
    out = []
    base = 10
    while base < limit:
        out.append(base)
        if 3 * base < limit:
            out.append(3 * base)
        base *= 10
    return out


@dataclass
class AccumulatorState:
    """A sum's resumable state: restart point, term count, snapshots, and the
    gap histogram (weighted sums) or the Neumaier pair (the series)."""

    next_lo: int = 3
    last_prime: int = 2
    next_n: int = 1
    kahan_s: float = 0.0
    kahan_c: float = 0.0
    terms: int = 0
    counts: dict[int, int] = field(default_factory=dict)
    snapshots: list[SumSnapshot] = field(default_factory=list)


def _pending_grid(grid: Sequence[int] | None, limit: int, done: list[SumSnapshot],
                  restart: int) -> list[int]:
    """The snapshot limits (default: the geometric grid) and ``limit``, past ``done``.

    ``restart`` is where a resumed state picks the stream up (0 for a fresh
    run).  The terms below it are already summed, so a limit below it must
    be one of the snapshots in ``done``.
    """
    floor = done[-1].limit_reached if done else -math.inf
    grid = default_snapshot_grid(limit) if grid is None else grid
    limits = {*(engine._check_limit(g, 1, "snapshot limit") for g in grid), limit}
    missed = sorted({g for g in limits if g < restart} - {s.limit_reached for s in done})
    if missed:
        raise ValidationError(f"snapshot limits {missed} lie below the resumed state's restart "
                              f"point {restart} and are not among its snapshots")
    return sorted(g for g in limits if floor < g <= limit)


def _segments(state: AccumulatorState, stop_after_segments: int | None, **limits):
    """The gap blocks from ``state``'s restart point on; raise RunInterrupted
    once the budget's last one is consumed."""
    if stop_after_segments is not None and stop_after_segments < 1:
        raise ValidationError(f"stop_after_segments must be >= 1, got {stop_after_segments}")
    blocks = engine.gap_blocks(**limits, start_lo=state.next_lo, init_last=state.last_prime,
                               init_n=state.next_n)
    for done, block in enumerate(blocks, 1):
        yield block
        if stop_after_segments is not None and done >= stop_after_segments:
            raise RunInterrupted


# ---------------------------------------------------------------------------
# Weighted gap sums, read from the gap histogram

def _closing_cuts(block: engine.GapBlock, cuts: list[int], mode: str) -> list[tuple[int, int]]:
    """Take the cuts that close in ``block`` off the front of ``cuts``, each with its position.

    Cut c closes the gaps d_n with n <= c (index mode) or p_{n+1} <= c
    (prime mode); its position is how many of the block's gaps it closes.
    A prime cut closes in the segment that holds it, and only then are the
    block's right-hand primes rebuilt to place it.
    """
    if mode == "index":
        closing = cuts[: bisect_left(cuts, block.n0 + len(block.gaps))]
        positions = [c - block.n0 + 1 for c in closing]
    else:
        closing = cuts[: bisect_left(cuts, block.seg_end)]
        positions = np.searchsorted(block.rights(), closing, "right").tolist() if closing else []
    del cuts[: len(closing)]
    return list(zip(closing, positions))


@np.errstate(over="ignore")  # an overflowing weight raises PrecisionError below
def _exact_sum(weight: WeightSpec, counts: dict[int, int]) -> float:
    """The sum of fl(f(d)) * N(d) over the bins, computed exactly and rounded once."""
    bins = np.array(list(counts), dtype=np.int64)
    weights = weight.evaluate(bins)
    if not np.isfinite(weights).all():
        raise PrecisionError(f"a gap weight with alpha = {weight.alpha} is not finite in float64")
    terms = zip(bins.tolist(), weights.tolist())
    return float(sum((Fraction(w) * counts[d] for d, w in terms), Fraction(0)))


def weighted_gap_sum_series(
    weight: WeightSpec,
    *,
    prime_limit: int | None = None,
    index_limit: int | None = None,
    snapshot_limits: Sequence[int] | None = None,
    workers: int | None = None,
    segment_slots: int | None = None,
    resume: AccumulatorState | None = None,
    on_segment: Callable[[AccumulatorState], None] | None = None,
    stop_after_segments: int | None = None,
) -> list[SumSnapshot]:
    """Snapshots of sum f(d_n), f from ``weight``, over the chosen range.

    Prime mode sums the gaps with p_{n+1} <= limit, index mode those with
    n <= limit.  Snapshots fall at each snapshot limit (default: the 10^k,
    3*10^k grid; [] for the final one only) and at the run limit.
    ``on_segment`` gets the resumable state after every segment; ``resume``
    restarts from one, with the snapshots it carries (a limit below its
    restart point must be one of them).
    """
    if not isinstance(weight, WeightSpec):
        raise ValidationError("weight must be a WeightSpec")
    sieve_limit, index_limit = engine._sieve_limit(prime_limit, index_limit)
    mode, limit = ("prime", sieve_limit) if index_limit is None else ("index", index_limit)
    state = resume or AccumulatorState()
    snaps = list(state.snapshots)
    restart = 0 if resume is None else state.next_n if mode == "index" else state.next_lo
    cuts = _pending_grid(snapshot_limits, limit, snaps, restart)
    hist = Counter(state.counts)
    for block in _segments(state, stop_after_segments, **{f"{mode}_limit": limit},
                           workers=workers, segment_slots=segment_slots):
        prev = 0
        for cut, pos in _closing_cuts(block, cuts, mode):
            hist.update(engine._gap_counter(block.gaps[prev:pos]))
            kept = weight.summed(hist)
            snaps.append(SumSnapshot(mode, cut, _exact_sum(weight, kept), sum(kept.values()), 0.0))
            prev = pos
        hist.update(engine._gap_counter(block.gaps[prev:]))
        if on_segment is not None:
            on_segment(AccumulatorState(
                block.seg_end, block.last_prime, block.n0 + len(block.gaps),
                terms=sum(weight.summed(hist).values()),
                counts=dict(hist), snapshots=list(snaps),
            ))
    return snaps


def weighted_gap_sum(weight: WeightSpec, **kwargs) -> SumSnapshot:
    """Final snapshot of ``weighted_gap_sum_series``."""
    return weighted_gap_sum_series(weight, **kwargs)[-1]


# ---------------------------------------------------------------------------
# The reciprocal series with loglog damping

def en_heuristic_tail(index_limit: int, c: float) -> float:
    """Crude convergence illustration for c > 2 (labeled heuristic).

    Models the summand tail with the average-gap density, giving
    integral_X^oo dt / (2 t log t (loglog t)^c) = (loglog X)^(1-c) / (2(c-1)).
    Reported alongside the series for orientation only.
    """
    if c <= 2:
        raise ValidationError("the heuristic tail is reported for c > 2 only")
    return math.log(math.log(index_limit)) ** (1.0 - c) / (2.0 * (c - 1.0))


# The series is summed in chunks of this many consecutive n (module docstring).
_CHUNK = 1 << 16


def _neumaier(pair: tuple[float, float], x: float) -> tuple[float, float]:
    """The compensated pair (sum, carry) after one Neumaier step adding ``x``."""
    if not math.isfinite(x):
        raise PrecisionError(f"an Erdos-Nathanson term is not finite in float64 (a sum read {x})")
    s, comp = pair
    t = s + x
    return t, comp + ((s - t) + x if abs(s) >= abs(x) else (x - t) + s)


@np.errstate(divide="ignore", over="ignore")  # a term that is not finite raises PrecisionError
def erdos_nathanson_series(
    index_limit: int,
    c: float,
    *,
    snapshot_limits: Sequence[int] | None = None,
    workers: int | None = None,
    segment_slots: int | None = None,
    resume: AccumulatorState | None = None,
    on_segment: Callable[[AccumulatorState], None] | None = None,
    stop_after_segments: int | None = None,
) -> list[SumSnapshot]:
    """Snapshots of sum_{3 <= n <= N} 1 / (d_n n (loglog n)^c).

    Summed in fixed n-chunks (module docstring).  Snapshots and ``resume``
    work as in ``weighted_gap_sum_series``; ``on_segment`` gets, after every
    segment, the state at the last chunk boundary passed, n = kC, which
    restarts the stream from p_kC and holds the snapshots below kC.
    """
    index_limit = engine._check_limit(index_limit, 3, "index_limit")
    c = float(c)
    if not math.isfinite(c):
        raise ValidationError(f"c must be finite, got {c}")
    state = resume or AccumulatorState()
    snaps = list(state.snapshots)
    cuts = _pending_grid(snapshot_limits, index_limit, snaps, 0 if resume is None else state.next_n)
    pair, restart = (state.kahan_s, state.kahan_c), state
    chunk = np.zeros(_CHUNK)  # the open chunk's terms; those of n = 0, 1, 2 stay 0.0
    for block in _segments(state, stop_after_segments, index_limit=index_limit,
                           workers=workers, segment_slots=segment_slots):
        n, end, closed = block.n0, block.n0 + len(block.gaps), None
        while n < end:  # one piece per chunk the block reaches into
            lo, top = max(n, 3), min(end, n - n % _CHUNK + _CHUNK)
            k = np.arange(lo, top, dtype=np.float64)
            w = block.gaps[lo - block.n0 : top - block.n0] * k
            if c != 0:
                w *= np.log(np.log(k)) ** c
            np.divide(1.0, w, out=chunk[lo % _CHUNK :][: len(k)])
            while cuts and cuts[0] < top:
                cut = cuts.pop(0)
                s, comp = _neumaier(pair, float(np.sum(chunk[: cut % _CHUNK + 1])))
                snaps.append(SumSnapshot("index", cut, s + comp, max(cut - 2, 0), comp))
            if top % _CHUNK == 0:
                pair, closed = _neumaier(pair, float(np.sum(chunk))), top
            n = top
        if on_segment is not None:
            if closed is not None:
                p = block.last_prime - int(block.gaps[closed - block.n0 :].sum(dtype=np.int64))
                restart = AccumulatorState(p + 2, p, closed, *pair, closed - 3, snapshots=[
                    s for s in snaps if s.limit_reached < closed])
            on_segment(restart)
        block = k = w = None  # free them before the next segment is sieved
    return snaps


def erdos_nathanson_sum(index_limit: int, c: float, **kwargs) -> SumSnapshot:
    """Final snapshot of ``erdos_nathanson_series``."""
    return erdos_nathanson_series(index_limit, c, **kwargs)[-1]


# ---------------------------------------------------------------------------
# Three-range decomposition

def range_split_sum(
    prime_limit: int,
    weight: WeightSpec,
    *,
    workers: int | None = None,
    segment_slots: int | None = None,
) -> RangeSplit:
    """Split sum f(d_n) over p_{n+1} <= X at d = y and d = log X.

    y = log X / loglog X.  Requires X >= 16 so that loglog X > 1, and
    alpha <= 1 so the weight is decreasing on the whole range (the
    decomposition's reading leans on that monotonicity; for plain
    accumulation of larger alpha use ``weighted_gap_sum``).  Each range
    is read from the gap histogram like a weighted sum (module docstring).
    """
    x = engine._check_limit(prime_limit, 16, "prime_limit")
    if not isinstance(weight, WeightSpec):
        raise ValidationError("weight must be a WeightSpec")
    if weight.alpha > 1:
        raise ValidationError("the range decomposition requires alpha <= 1")
    log_x = math.log(x)
    y = log_x / math.log(log_x)
    hist = engine.consecutive_gap_counts(x, workers=workers, segment_slots=segment_slots)
    counts = weight.summed(hist.counts)
    bounds = (0, y, log_x, math.inf)
    return RangeSplit(x, y, *(
        _exact_sum(weight, {d: c for d, c in counts.items() if lo < d <= hi})
        for lo, hi in zip(bounds, bounds[1:])
    ))


# ---------------------------------------------------------------------------
# Inclusion-exclusion sandwich

def sandwich_check(
    limit: int,
    d: int,
    *,
    workers: int | None = None,
    segment_slots: int | None = None,
) -> SandwichResult:
    """Bracket the consecutive-gap count between inclusion-exclusion bounds.

    lower = pi(X; {0,d}) - sum_{h=1}^{d-1} pi(X; {0,h,d}), middle = the
    number of n with d_n = d and p_{n+1} <= X, upper = pi(X; {0,d}).
    The bracket lower <= middle <= upper is a set-theoretic certainty;
    ``ok`` is False only under an implementation bug.
    """
    d = engine._check_limit(d, 2, "d")
    if d % 2:
        raise ValidationError("the sandwich is defined for even d >= 2")
    limit = engine._check_limit(limit, d + 3)
    counts = engine.tuple_counts(
        limit, [(0, d)] + [(0, h, d) for h in range(1, d)],
        workers=workers, segment_slots=segment_slots,
    )
    upper = counts[0]
    histogram = engine.consecutive_gap_counts(
        limit, workers=workers, segment_slots=segment_slots
    )
    middle = histogram.counts.get(d, 0)
    lower = upper - sum(counts[1:])
    return SandwichResult(lower, middle, upper, lower <= middle <= upper)
