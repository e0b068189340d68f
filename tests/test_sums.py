import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from gapsum import engine, singular, sums, verify
from gapsum.errors import (
    EmptyDomainError,
    PrecisionError,
    UnsupportedExponentError,
    ValidationError,
)
from gapsum.sums import WeightSpec


# ---------------------------------------------------------------------------
# Weight family

def test_weight_validation():
    with pytest.raises(UnsupportedExponentError):
        WeightSpec(-1.5)
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            WeightSpec(alpha)
    WeightSpec(-1.0)
    WeightSpec(1.0)


def test_weight_evaluation_at_d1():
    w0 = WeightSpec(0.0).evaluate(np.array([1, 2, 4]))
    assert w0.tolist() == [1.0, 0.5, 0.25]
    w1 = WeightSpec(1.0).evaluate(np.array([1, 2]))
    assert w1[0] == 0.0  # log 1 = 0
    assert w1[1] == pytest.approx(math.log(2) / 2)


# ---------------------------------------------------------------------------
# Hand values

def test_weighted_sum_alpha0_n5():
    snap = sums.weighted_gap_sum(WeightSpec(0.0), index_limit=5)
    assert snap.value == 2.75
    assert snap.terms == 5


def test_weighted_sum_alpha1_n3():
    snap = sums.weighted_gap_sum(WeightSpec(1.0), index_limit=3)
    assert snap.value == pytest.approx(math.log(2), rel=1e-15)


def test_weighted_sum_alpha_minus1_n3():
    snap = sums.weighted_gap_sum(WeightSpec(-1.0), index_limit=3)
    assert snap.value == pytest.approx(1 / math.log(2), rel=1e-15)
    assert snap.terms == 2
    for limits in ({"index_limit": 1}, {"prime_limit": 3}):  # d_1 = 1 only: nothing to sum
        states = []
        snaps = sums.weighted_gap_sum_series(WeightSpec(-1.0), **limits, on_segment=states.append)
        assert [(s.value, s.terms) for s in snaps] == [(0.0, 0)], limits
        assert [s.terms for s in states] == [0], limits


def test_weighted_sum_limit_validation():
    with pytest.raises(ValidationError):
        sums.weighted_gap_sum(WeightSpec(0.0))
    with pytest.raises(EmptyDomainError):
        sums.weighted_gap_sum(WeightSpec(0.0), prime_limit=2)
    with pytest.raises(EmptyDomainError):
        sums.weighted_gap_sum(WeightSpec(0.0), index_limit=0)


def test_float_limits_refused():
    # int() would quietly truncate 2500.7 to 2500
    with pytest.raises(ValidationError):
        sums.weighted_gap_sum(WeightSpec(0.0), prime_limit=2500.7)
    with pytest.raises(ValidationError):
        sums.weighted_gap_sum(WeightSpec(0.0), index_limit=2500.7)
    with pytest.raises(ValidationError):
        sums.erdos_nathanson_series(2500.7, 0.0)
    with pytest.raises(ValidationError):
        sums.range_split_sum(2500.7, WeightSpec(0.0))
    with pytest.raises(ValidationError):
        sums.sandwich_check(2500.7, 2)
    with pytest.raises(ValidationError):
        sums.sandwich_check(1000, 10.7)
    with pytest.raises(ValidationError):
        singular.pair_singular(6.5)
    with pytest.raises(ValidationError):
        singular.triple_row_sum(10.7)
    with pytest.raises(ValidationError):
        singular.residue_count((0, 2, 6), 5.9)
    with pytest.raises(ValidationError):
        singular.pair_singular_sum_grid([1000, 2500.7])
    with pytest.raises(ValidationError):
        singular.TupleSpec((0, 2.5))
    with pytest.raises(ValidationError):
        singular.TupleSpec.from_integers([1, 3.5])
    with pytest.raises(ValidationError):
        singular.tuple_singular((0, 2.5))
    with pytest.raises(ValidationError):
        singular.is_admissible((0, 2.5))
    with pytest.raises(ValidationError):
        verify.theorem1_ratio(2500.7, 0.0)
    with pytest.raises(ValidationError):
        verify.theorem1_ratio(2500.7, 0.0, "index")
    with pytest.raises(ValidationError):
        verify.corollary_ratio(2500.7, 0.0)
    with pytest.raises(ValidationError):
        verify.conjecture1_ratio(2500.7, [2])
    with pytest.raises(ValidationError):
        verify.sieve_bound_check(2500.7, [(2, 6)])
    with pytest.raises(ValidationError):
        verify.conjecture1_ratio(1000, [2.5])
    with pytest.raises(ValidationError):
        verify.lemma22_ratio_curve([10.7])
    with pytest.raises(ValidationError):
        verify.sieve_bound_check(1000, [(2, 6.5)])


# Calls that take one real parameter x, and calls that take one integer.
_REAL_CALLS = {
    "WeightSpec": WeightSpec,
    "erdos_nathanson_sum": lambda x: sums.erdos_nathanson_sum(1000, x),
    "en_heuristic_tail": lambda x: sums.en_heuristic_tail(1000, x),
    "theorem1_ratio": lambda x: verify.theorem1_ratio(1000, x),
    "main_term_theorem1": lambda x: verify.main_term_theorem1(1000, x, "prime"),
    "corollary_ratio": lambda x: verify.corollary_ratio(1000, x),
    "main_term_corollary": lambda x: verify.main_term_corollary(1000, x),
    "twin_prime_constant": singular.twin_prime_constant,
}
_INTEGER_CALLS = {
    "prime_count": engine.prime_count,
    "tuple_counts": lambda x: engine.tuple_counts(100, [(0, x)]),
}
_NOT_REAL = {"digit_str": "3", "str": "x", "true": True, "false": False, "complex": 1 + 0j,
             "nan": math.nan, "inf": math.inf}


@pytest.mark.parametrize("call, bad", [
    pytest.param(call, bad, id=f"{name}-{kind}")
    for calls, extra in ((_REAL_CALLS, {"huge_int": 10**400}), (_INTEGER_CALLS, {}))
    for name, call in calls.items()
    for kind, bad in {**_NOT_REAL, **extra}.items()
])
def test_non_real_and_bool_parameters_refused(call, bad):
    # a str, bool, complex or non-finite value is never read as a number
    with pytest.raises(ValidationError):
        call(bad)


def test_en_sum_hand_values():
    assert sums.erdos_nathanson_sum(3, 0.0).value == pytest.approx(1 / 6, rel=1e-15)
    assert sums.erdos_nathanson_sum(4, 0.0).value == pytest.approx(1 / 6 + 1 / 16, rel=1e-15)
    for c in (-1.0, 1.0, 2.0):
        expected = 1 / (6 * math.log(math.log(3)) ** c)
        assert sums.erdos_nathanson_sum(3, c).value == pytest.approx(expected, rel=1e-14)
    with pytest.raises(EmptyDomainError):
        sums.erdos_nathanson_sum(2, 0.0)
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            sums.erdos_nathanson_series(10, c)


# ---------------------------------------------------------------------------
# Oracle equivalence

def test_weighted_sums_match_brute_force(oracle_primes_1e5):
    gaps = oracles.gap_list(oracle_primes_1e5)
    for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
        start = 2 if alpha < 0 else 1
        brute = oracles.weighted_sum(alpha, gaps, start)
        snap = sums.weighted_gap_sum(WeightSpec(alpha), index_limit=len(gaps))
        assert abs(snap.value - brute) <= 1e-12 * abs(brute)


def test_en_sums_match_brute_force(oracle_primes_1e5):
    gaps = oracles.gap_list(oracle_primes_1e5)
    n = 5000
    for c in (0.0, 2.0, 3.0):
        brute = oracles.en_sum(c, gaps, n)
        snap = sums.erdos_nathanson_sum(n, c)
        assert abs(snap.value - brute) <= 1e-12 * abs(brute)


def test_prime_limit_matches_index_conversion(oracle_primes_1e5):
    # the two modes agree exactly when n is capped at pi(X) - 1
    x = 10_000
    n_below = sum(1 for p in oracle_primes_1e5 if p <= x) - 1
    for grid in ([], None):
        a = sums.weighted_gap_sum(WeightSpec(0.0), prime_limit=x, snapshot_limits=grid)
        b = sums.weighted_gap_sum(WeightSpec(0.0), index_limit=n_below, snapshot_limits=grid)
        assert a.value == b.value
        assert a.terms == b.terms == n_below


# ---------------------------------------------------------------------------
# Snapshots and determinism

def test_snapshot_grid_and_final():
    snaps = sums.weighted_gap_sum_series(
        WeightSpec(0.0), prime_limit=1000, snapshot_limits=[10, 100, 1000]
    )
    assert [s.limit_reached for s in snaps] == [10, 100, 1000]
    final = snaps[-1]
    assert final.terms == 167  # pi(1000) = 168 primes, 167 gaps
    partial = sums.weighted_gap_sum(
        WeightSpec(0.0), prime_limit=100, snapshot_limits=[10, 100, 1000]
    )
    assert snaps[1].value == partial.value


def test_default_snapshot_grid():
    assert sums.default_snapshot_grid(5000) == [10, 30, 100, 300, 1000, 3000]


def test_snapshot_determinism_across_workers():
    runs = [
        sums.weighted_gap_sum_series(
            WeightSpec(0.0), prime_limit=2_000_000, workers=w,
            snapshot_limits=[10**5, 10**6],
        )
        for w in (1, 2, 5)
    ]
    for other in runs[1:]:
        assert [(s.value, s.compensation, s.terms) for s in other] == [
            (s.value, s.compensation, s.terms) for s in runs[0]
        ]


@pytest.mark.parametrize("alpha", [-1.0, 0.0])
def test_resume_reproduces_bits(alpha, set_segment_slots):
    set_segment_slots(1 << 14)
    kwargs = dict(prime_limit=2_000_000, snapshot_limits=[10**5, 10**6])
    full = sums.weighted_gap_sum_series(WeightSpec(alpha), **kwargs)
    states = []
    with pytest.raises(sums.RunInterrupted):
        sums.weighted_gap_sum_series(
            WeightSpec(alpha), **kwargs, on_segment=states.append, stop_after_segments=9
        )
    stopped = states[-1]
    resumed = sums.weighted_gap_sum_series(
        WeightSpec(alpha), **kwargs, resume=stopped, on_segment=states.append
    )
    assert len(stopped.snapshots) == 1  # the stop falls between the snapshots
    assert resumed == full
    start = 2 if alpha < 0 else 1  # d_1 = 1 has no log weight
    assert [s.terms for s in states] == [s.next_n - start for s in states]
    assert states[-1].terms == full[-1].terms


def test_resume_reproduces_bits_index_mode(set_segment_slots):
    # 60 segments of 2^14 integers reach n ~ 77,000, past the series' first
    # chunk boundary at n = 2^16 (p_65536 = 821,641), where its state restarts
    set_segment_slots(1 << 13)
    kwargs = dict(snapshot_limits=[10**4, 9 * 10**4])
    full = sums.erdos_nathanson_series(100_000, 3.0, **kwargs)
    states = []
    with pytest.raises(sums.RunInterrupted):
        sums.erdos_nathanson_series(
            100_000, 3.0, **kwargs, on_segment=states.append, stop_after_segments=60
        )
    assert (states[-1].next_n, states[-1].last_prime, states[-1].next_lo) == (
        1 << 16, 821_641, 821_643)
    resumed = sums.erdos_nathanson_series(100_000, 3.0, **kwargs, resume=states[-1])
    assert len(states[-1].snapshots) == 1  # the stop falls between the snapshots
    assert resumed == full
    with pytest.raises(sums.RunInterrupted):
        sums.weighted_gap_sum_series(
            WeightSpec(0.0), index_limit=100_000, **kwargs, on_segment=states.append,
            stop_after_segments=60,
        )
    resumed = sums.weighted_gap_sum_series(
        WeightSpec(0.0), index_limit=100_000, **kwargs, resume=states[-1]
    )
    assert resumed == sums.weighted_gap_sum_series(WeightSpec(0.0), index_limit=100_000, **kwargs)


def test_resume_of_completed_run_is_graceful(set_segment_slots):
    runs = [  # a prime-limit weighted sum, and an index-limit series whose one segment closes it
        (lambda **kw: sums.weighted_gap_sum_series(WeightSpec(0.0), prime_limit=300_000, **kw),
         1 << 14),
        (lambda **kw: sums.erdos_nathanson_series(10, 2.0, **kw), 1 << 10),
    ]
    for series, slots in runs:
        set_segment_slots(slots)
        states = []
        full = series(snapshot_limits=[], on_segment=states.append)
        # the last state marks a finished run; resuming from it must re-emit
        # the same final snapshot without consuming anything
        again = series(snapshot_limits=[], resume=states[-1])
        assert again[-1].value == full[-1].value
        assert again[-1].terms == full[-1].terms


# N = 20,000 sieves to 244,185, in 120 segments of 2048 integers at 2^10 slots.
_COROLLARY = dict(workers=1)


def test_replayed_series_sees_the_same_segments(set_segment_slots):
    set_segment_slots(1 << 10)
    runs = []
    for _ in range(2):  # the first sieves, the second replays
        states = []
        snaps = sums.erdos_nathanson_series(20_000, 3.0, **_COROLLARY, on_segment=states.append)
        runs.append((snaps, states))
    assert engine._kept_stream
    assert runs[1] == runs[0]
    stopped = []
    with pytest.raises(sums.RunInterrupted):
        sums.erdos_nathanson_series(20_000, 3.0, **_COROLLARY, on_segment=stopped.append,
                                    stop_after_segments=7)
    assert stopped == runs[0][1][:7]


def test_stopped_and_resumed_series_keep_nothing(set_segment_slots):
    # 450 segments reach n ~ 73,000, so the state restarts at n = 2^16, not
    # from scratch (a from-scratch pass would be kept)
    set_segment_slots(1 << 10)
    states = []
    with pytest.raises(sums.RunInterrupted):
        sums.erdos_nathanson_series(100_000, 3.0, **_COROLLARY, on_segment=states.append,
                                    stop_after_segments=450)
    assert not engine._kept_stream
    resumed = sums.erdos_nathanson_series(100_000, 3.0, **_COROLLARY, resume=states[-1])
    assert not engine._kept_stream
    assert resumed == sums.erdos_nathanson_series(100_000, 3.0, **_COROLLARY)
    assert engine._kept_stream  # the run from scratch is kept


# Each run, stopped after the given number of segments, restarts near
# n = 73,000 (the series at its chunk boundary, n = 65,536) or p = 491,523.
_STOPPED_RUNS = {
    "series": (lambda **kw: sums.erdos_nathanson_series(100_000, 0.0, **kw), 1 << 10, 450),
    "weighted-index": (lambda **kw: sums.weighted_gap_sum_series(
        WeightSpec(0.0), index_limit=100_000, **kw), 1 << 10, 450),
    "weighted-prime": (lambda **kw: sums.weighted_gap_sum_series(
        WeightSpec(0.0), prime_limit=10**6, **kw), 1 << 13, 30),
}


@pytest.mark.parametrize("run", list(_STOPPED_RUNS))
def test_resume_refuses_a_limit_below_its_restart_point(run, set_segment_slots):
    series, slots, stop = _STOPPED_RUNS[run]
    set_segment_slots(slots)
    kwargs = dict(workers=1)
    states = []
    with pytest.raises(sums.RunInterrupted):
        series(snapshot_limits=[10**4], **kwargs, on_segment=states.append,
               stop_after_segments=stop)
    state = states[-1]
    assert (state.next_lo if run == "weighted-prime" else state.next_n) > 10**4
    # 1000 was never taken: the state already sums the terms past it
    for grid in ([1000], [1000, 10**4], [10**4, 20_000]):
        with pytest.raises(ValidationError, match="below the resumed state's restart point"):
            series(snapshot_limits=grid, **kwargs, resume=state)
    # a limit the state holds is re-emitted as taken
    resumed = series(snapshot_limits=[10**4], **kwargs, resume=state)
    assert resumed == series(snapshot_limits=[10**4], **kwargs)


def test_float_results_stable_across_segment_sizes(set_segment_slots):
    # weighted sums are read from the exact histogram, and the series is
    # summed in fixed n-chunks, so neither segment size nor workers move a bit
    runs = {
        "prime": lambda **kw: sums.weighted_gap_sum_series(WeightSpec(0.0), prime_limit=500_000,
                                                           **kw),
        "index": lambda **kw: sums.weighted_gap_sum_series(WeightSpec(0.0), index_limit=40_000,
                                                           **kw),
        "series": lambda **kw: sums.erdos_nathanson_series(200_000, 3.0, **kw),
    }
    for name, series in runs.items():
        got = []
        for slots, workers in ((1 << 10, 1), (1 << 12, 2), (1 << 15, 1), (1 << 18, 2)):
            set_segment_slots(slots)
            got.append(series(workers=workers))
        assert all(run == got[0] for run in got), name


def test_series_chunks_align_to_n(set_segment_slots):
    # The first chunk holds n = 0 .. 2^16 - 1, with n = 0, 1, 2 as zero
    # terms, so N = 2^16 - 1 closes it with each term from n = 3 counted
    # once, and N = 2^16 and 2^16 + 1 read the next chunk's prefix
    set_segment_slots(1 << 10)
    top = sums._CHUNK + 1
    gaps = oracles.gap_list(oracles.primes_upto(821_651))  # p_(2^16 + 2) = 821,651
    cuts = [top - 2, top - 1, top]
    for c in (0.0, 3.0):
        terms = [1.0 / (d * n * math.log(math.log(n)) ** c)
                 for n, d in enumerate(gaps[:top], start=1) if n >= 3]
        series = sums.erdos_nathanson_series(top, c, snapshot_limits=cuts, workers=1)
        for cut, snap in zip(cuts, series, strict=True):
            exact = math.fsum(terms[: cut - 2])
            assert snap.terms == cut - 2
            # c = 0 terms are correctly rounded in both, so only the sum rounds
            tolerance = 2 * math.ulp(exact) if c == 0 else 1e-13 * exact
            assert abs(snap.value - exact) <= tolerance, (c, cut)
            assert snap == sums.erdos_nathanson_sum(cut, c, snapshot_limits=[])
        if c == 0:  # the first chunk is one np.sum over n = 0 .. 2^16 - 1
            assert series[0].value == float(np.sum([0.0] * 3 + terms[: top - 4]))


def test_snapshot_limits_must_be_positive_integers():
    # a cut at -5 or 0 once counted the gaps before it twice
    for grid in ([-5, 0, 100], [0], [100.9]):
        with pytest.raises(ValidationError):
            sums.weighted_gap_sum_series(WeightSpec(0.0), index_limit=1000, snapshot_limits=grid)
        with pytest.raises(ValidationError):
            sums.erdos_nathanson_series(1000, 0.0, snapshot_limits=grid)


def test_terms_not_finite_in_float64_refused():
    for limits in ({"prime_limit": 100}, {"index_limit": 100}):
        with pytest.raises(PrecisionError):
            sums.weighted_gap_sum(WeightSpec(1000.0), **limits)
    for limit, c in ((100, 1000.0), (10_000, -2000.0)):
        with pytest.raises(PrecisionError):
            sums.erdos_nathanson_series(limit, c)


# ---------------------------------------------------------------------------
# Range split

def test_range_split_hand_thresholds():
    split = sums.range_split_sum(16, WeightSpec(0.0))
    assert split.threshold_y == pytest.approx(math.log(16) / math.log(math.log(16)))
    # gaps with p_next <= 16: 1, 2, 2, 4, 2; y ~ 2.719, log X ~ 2.773
    assert split.low == pytest.approx(2.5)
    assert split.mid == 0.0
    assert split.high == pytest.approx(0.25)


def test_range_split_partition_identity():
    for x in (16, 100, 10_000, 250_000):
        split = sums.range_split_sum(x, WeightSpec(0.0))
        total = sums.weighted_gap_sum(WeightSpec(0.0), prime_limit=x)
        assert abs(split.total - total.value) <= 1e-9 * abs(total.value)


def test_range_split_validation():
    with pytest.raises(ValidationError):
        sums.range_split_sum(15, WeightSpec(0.0))
    with pytest.raises(ValidationError):
        sums.range_split_sum(100, WeightSpec(1.5))  # weight not decreasing


def test_range_split_exact_and_invariant(oracle_primes_1e5, set_segment_slots):
    # each range and each weighted-sum snapshot is the correctly rounded
    # sum of the per-gap floats, identical for every segment size and
    # worker count
    x = 100_000
    log_x = math.log(x)
    y = log_x / math.log(log_x)
    gaps = oracles.gap_list(oracle_primes_1e5)
    # with 2^10 slots the gap 2039 -> 2053 crosses the segment boundary at
    # 2051, and p_309 = 2039: both cuts close on that boundary gap
    grid = [10, 309, 1000, 2053, 5000]
    for alpha in (-1.0, 0.0, 1.0):
        start = 2 if alpha < 0 else 1
        parts = [Fraction(0)] * 3
        prime_cuts = {g: Fraction(0) for g in grid + [x]}
        index_cuts = {g: Fraction(0) for g in grid + [len(gaps)]}
        for n, d in enumerate(gaps[start - 1 :], start=start):
            w = Fraction(oracles.weight(alpha, d))
            parts[0 if d <= y else 1 if d <= log_x else 2] += w
            for g in prime_cuts:
                prime_cuts[g] += w if oracle_primes_1e5[n] <= g else 0
            for g in index_cuts:
                index_cuts[g] += w if n <= g else 0
        expected = sums.RangeSplit(x, y, *(float(part) for part in parts))
        expected_prime = [float(v) for v in prime_cuts.values()]
        expected_index = [float(v) for v in index_cuts.values()]
        for w in (1, 2):
            for s in (1 << 10, 1 << 14, 1 << 18):
                set_segment_slots(s)
                weight = WeightSpec(alpha)
                kw = dict(workers=w, snapshot_limits=grid)
                assert sums.range_split_sum(x, weight, workers=w) == expected
                prime = sums.weighted_gap_sum_series(weight, prime_limit=x, **kw)
                index = sums.weighted_gap_sum_series(weight, index_limit=len(gaps), **kw)
                assert [snap.value for snap in prime] == expected_prime, (alpha, w, s)
                assert [snap.value for snap in index] == expected_index, (alpha, w, s)


def test_high_component_bounded_by_count(oracle_primes_1e5):
    x = 100_000
    split = sums.range_split_sum(x, WeightSpec(0.0))
    gaps = [q - p for p, q in zip(oracle_primes_1e5, oracle_primes_1e5[1:]) if q <= x]
    log_x = math.log(x)
    n_high = sum(1 for d in gaps if d > log_x)
    assert split.high <= n_high / log_x + 1e-12


# ---------------------------------------------------------------------------
# Sandwich

def test_sandwich_hand_case_x100_d2(oracle_prime_set_1e5):
    res = sums.sandwich_check(100, 2)
    pair = oracles.tuple_count(100, (0, 2), oracle_prime_set_1e5)
    triple = oracles.tuple_count(100, (0, 1, 2), oracle_prime_set_1e5)
    assert res.upper == pair == 8
    assert res.lower == pair - triple == 8
    assert res.middle == 8
    assert res.ok


def test_sandwich_x100_d4_strict(oracle_prime_set_1e5):
    res = sums.sandwich_check(100, 4)
    assert res.middle < res.upper  # (3, 7) is a non-consecutive pair
    triples = sum(
        oracles.tuple_count(100, (0, h, 4), oracle_prime_set_1e5) for h in (1, 2, 3)
    )
    assert res.lower == res.upper - triples
    assert res.ok


def test_sandwich_inadmissible_triples_still_counted():
    # {0, 2, 4} is inadmissible yet n = 3 gives 3, 5, 7 all prime; the
    # sieve count must catch it.
    res = sums.sandwich_check(1000, 4)
    assert res.ok
    assert res.upper - res.lower >= 1


def test_sandwich_makes_one_pass(monkeypatch, oracle_primes_1e5):
    # the tuple pass keeps the histogram that the middle term reads
    calls = []
    segment_map = engine._segment_map

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return segment_map(*args, **kwargs)

    monkeypatch.setattr(engine, "_segment_map", counted)
    res = sums.sandwich_check(100_000, 30, workers=2)
    assert calls == [(engine._worker_counts, 100_000)]
    assert res.middle == oracles.gap_histogram(100_000, oracle_primes_1e5)[30]
    assert res.ok


def test_sandwich_validation():
    with pytest.raises(ValidationError):
        sums.sandwich_check(100, 3)
    with pytest.raises(EmptyDomainError):
        sums.sandwich_check(4, 2)


@given(
    st.integers(min_value=30, max_value=4000),
    st.integers(min_value=1, max_value=10),
)
def test_sandwich_always_ok(x, half_d):
    d = 2 * half_d
    if x < d + 3:
        x = d + 3
    res = sums.sandwich_check(x, d)
    assert res.ok
    assert res.lower <= res.middle <= res.upper


# ---------------------------------------------------------------------------
# Monotonicity

def test_weighted_sum_monotone_in_limit():
    values = [
        sums.weighted_gap_sum(WeightSpec(0.0), prime_limit=x).value
        for x in (10, 100, 1000, 10_000)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_weight_type_rejected():
    with pytest.raises(ValidationError):
        sums.weighted_gap_sum(42, index_limit=5)
    with pytest.raises(ValidationError):
        sums.weighted_gap_sum(lambda g: 1.0 / g, index_limit=5)
    with pytest.raises(ValidationError):
        sums.range_split_sum(100, lambda g: 1.0 / g)


def test_heuristic_tail_validation():
    with pytest.raises(ValidationError):
        sums.en_heuristic_tail(10**6, 2.0)
    assert sums.en_heuristic_tail(10**6, 3.0) > 0
