"""Accumulators over the consecutive-prime gap stream.

Streamed sums are reduced with compensated (Neumaier) summation in a
fixed segment order, so a run's final value is bit-identical for any
worker count and for a checkpointed stop/resume at a segment boundary;
the segment size may move their last bit.  The range split is summed
exactly from the integer gap histogram and rounded once, so it does not
depend on segment size or worker count, and neither do integer results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import engine
from .errors import UnsupportedExponentError, ValidationError


class RunInterrupted(Exception):
    """Raised by the accumulator when a stop-after-segments budget is hit.

    Control flow for the checkpointing layer, not an error.
    """


@dataclass(frozen=True)
class WeightSpec:
    """The weight family f(t) = t^(-1) (log t)^alpha, alpha >= -1.

    For alpha < 0 the first gap d_1 = 1 is excluded (log 1 = 0 cannot be
    raised to a negative power), which forces start_index >= 2.  The
    excluded term is irrelevant to any of the asymptotics tracked here.
    For 0 <= alpha <= 1 the weight is strictly decreasing on [2, oo);
    larger alpha is accepted for plain accumulation.
    """

    alpha: float
    start_index: int = 1

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValidationError(f"alpha must be finite, got {self.alpha}")
        if self.alpha < -1:
            raise UnsupportedExponentError("alpha must satisfy alpha >= -1")
        if self.start_index < 1:
            raise ValidationError("start_index must be >= 1")
        if self.alpha < 0 and self.start_index < 2:
            raise ValidationError(
                "alpha < 0 requires start_index >= 2 (d_1 = 1 has no log weight)"
            )

    def evaluate(self, gaps: np.ndarray) -> np.ndarray:
        g = gaps.astype(np.float64)
        if self.alpha == 0:
            return np.divide(1.0, g, out=g)
        return np.log(g) ** self.alpha / g


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


class _Kahan:
    __slots__ = ("s", "c")

    def __init__(self, s: float = 0.0, c: float = 0.0):
        self.s = s
        self.c = c

    def add(self, x: float) -> None:
        s = self.s
        t = s + x
        if abs(s) >= abs(x):
            self.c += (s - t) + x
        else:
            self.c += (x - t) + s
        self.s = t

    def total(self) -> float:
        return self.s + self.c


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
    """Resumable position of a streaming sum (one record per completed segment)."""

    next_lo: int
    last_prime: int
    next_n: int
    kahan_s: float
    kahan_c: float
    terms: int


def accumulate_terms(
    term_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    mode: str,
    limit: int,
    start_index: int = 1,
    snapshot_limits: Sequence[int] | None = None,
    workers: int | None = None,
    segment_slots: int | None = None,
    resume: AccumulatorState | None = None,
    on_segment: Callable[[AccumulatorState], None] | None = None,
    stop_after_segments: int | None = None,
) -> list[SumSnapshot]:
    """Reduce term_fn(gaps, n0) over the gap stream, in order.

    ``n0`` is the index n of ``gaps[0]``; the gaps run over n0, n0 + 1, ...

    ``mode`` is "prime" (include gaps with p_{n+1} <= limit) or "index"
    (n <= limit).  Snapshots are emitted at each snapshot limit (the
    geometric 10^k / 3*10^k grid when none is given; pass [] for final
    only) plus a final one at the run limit.  The grid participates in
    the compensated reduction's grouping, so bit-identical reruns must
    keep it fixed.  ``on_segment`` receives the resumable state after
    every consumed segment; ``resume`` restarts from such a state
    (snapshots below the resume point are not re-emitted).
    """
    if mode not in ("prime", "index"):
        raise ValidationError(f"mode must be 'prime' or 'index', got {mode!r}")
    if snapshot_limits is None:
        snapshot_limits = default_snapshot_grid(limit)
    grid = sorted(set(int(g) for g in snapshot_limits))
    grid = [g for g in grid if g <= limit]
    kahan = _Kahan()
    terms = 0
    block_kwargs: dict = {}
    if resume is not None:
        kahan = _Kahan(resume.kahan_s, resume.kahan_c)
        terms = resume.terms
        block_kwargs = dict(
            start_lo=resume.next_lo,
            init_last=resume.last_prime,
            init_n=resume.next_n,
        )
        resume_pos = resume.last_prime if mode == "prime" else resume.next_n - 1
        grid = [g for g in grid if g > resume_pos]
    snapshots: list[SumSnapshot] = []
    gi = 0
    segments_done = 0
    limit_kw = {"prime_limit": limit} if mode == "prime" else {"index_limit": limit}
    for block in engine.gap_blocks(
        workers=workers, segment_slots=segment_slots, **limit_kw, **block_kwargs
    ):
        skip = max(0, start_index - block.n0)
        gaps = block.gaps[skip:]
        if len(gaps):
            n0 = block.n0 + skip
            w = term_fn(gaps, n0)
            rights = block.rights[skip:]
            last = int(rights[-1]) if mode == "prime" else n0 + len(gaps) - 1
            prev = 0
            while gi < len(grid) and grid[gi] <= last:
                if mode == "prime":
                    cut = int(np.searchsorted(rights, grid[gi], side="right"))
                else:
                    cut = max(0, grid[gi] - n0 + 1)
                kahan.add(float(np.sum(w[prev:cut])))
                terms += cut - prev
                snapshots.append(
                    SumSnapshot(mode, grid[gi], kahan.total(), terms, kahan.c)
                )
                prev = cut
                gi += 1
            kahan.add(float(np.sum(w[prev:])))
            terms += len(w) - prev
        segments_done += 1
        if on_segment is not None:
            on_segment(
                AccumulatorState(
                    next_lo=block.seg_end,
                    last_prime=int(block.rights[-1]),
                    next_n=block.n0 + len(block.gaps),
                    kahan_s=kahan.s,
                    kahan_c=kahan.c,
                    terms=terms,
                )
            )
        if stop_after_segments is not None and segments_done >= stop_after_segments:
            raise RunInterrupted
        block = gaps = w = rights = None  # free them before the next segment is sieved
    if not snapshots or snapshots[-1].limit_reached != limit:
        snapshots.append(SumSnapshot(mode, limit, kahan.total(), terms, kahan.c))
    return snapshots


# ---------------------------------------------------------------------------
# Weighted gap sums

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
    """Snapshots of sum f(d_n), f from ``weight``, over the chosen range."""
    if (prime_limit is None) == (index_limit is None):
        raise ValidationError("exactly one of prime_limit and index_limit is required")
    if not isinstance(weight, WeightSpec):
        raise ValidationError("weight must be a WeightSpec")
    if prime_limit is not None:
        mode, limit = "prime", engine._check_limit(prime_limit, 3, "prime_limit")
    else:
        mode, limit = "index", engine._check_limit(index_limit, 1, "index_limit")
    return accumulate_terms(
        lambda gaps, n0: weight.evaluate(gaps),
        mode=mode,
        limit=limit,
        start_index=weight.start_index,
        snapshot_limits=snapshot_limits,
        workers=workers,
        segment_slots=segment_slots,
        resume=resume,
        on_segment=on_segment,
        stop_after_segments=stop_after_segments,
    )


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
    """Snapshots of sum_{3 <= n <= N} 1 / (d_n n (loglog n)^c)."""
    index_limit = engine._check_limit(index_limit, 3, "index_limit")
    c = float(c)
    if not math.isfinite(c):
        raise ValidationError(f"c must be finite, got {c}")

    def terms(gaps: np.ndarray, n0: int) -> np.ndarray:
        n = np.arange(n0, n0 + len(gaps), dtype=np.float64)
        w = gaps * n
        if c == 0:
            return 1.0 / w
        return 1.0 / (w * np.log(np.log(n)) ** c)

    return accumulate_terms(
        terms,
        mode="index",
        limit=index_limit,
        start_index=3,
        snapshot_limits=snapshot_limits,
        workers=workers,
        segment_slots=segment_slots,
        resume=resume,
        on_segment=on_segment,
        stop_after_segments=stop_after_segments,
    )


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
    accumulation of larger alpha use ``weighted_gap_sum``).

    Each range is read from the gap histogram N(d; X) as the exact sum
    of f(d) * N(d) over its bins, rounded once, so the split is the
    correctly rounded sum of the per-gap terms and does not depend on
    segment size or worker count.
    """
    x = engine._check_limit(prime_limit, 16, "prime_limit")
    if not isinstance(weight, WeightSpec):
        raise ValidationError("weight must be a WeightSpec")
    if weight.alpha > 1:
        raise ValidationError("the range decomposition requires alpha <= 1")
    log_x = math.log(x)
    y = log_x / math.log(log_x)
    counts = engine.consecutive_gap_counts(x, workers=workers, segment_slots=segment_slots).counts
    if weight.start_index > 1:  # drop the gaps with n < start_index
        for rec in engine.gap_stream(index_limit=weight.start_index - 1, workers=1):
            if rec.p_next <= x:
                counts[rec.gap] -= 1
    bins = np.array([d for d, c in counts.items() if c], dtype=np.int64)
    parts = [Fraction(0)] * 3
    for d, w in zip(bins.tolist(), weight.evaluate(bins).tolist()):
        parts[0 if d <= y else 1 if d <= log_x else 2] += Fraction(w) * counts[d]
    return RangeSplit(x, y, *(float(part) for part in parts))


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
    d = int(d)
    if d < 2 or d % 2:
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
