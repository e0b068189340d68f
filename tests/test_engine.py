import bisect
import math
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gapsum import engine, verify
from gapsum.errors import CapacityError, EmptyDomainError, ValidationError


def test_primes_smallest_cases():
    assert list(engine.primes_up_to(10)) == [2, 3, 5, 7]
    assert list(engine.primes_up_to(2)) == [2]
    assert list(engine.primes_up_to(3)) == [2, 3]


def test_primes_below_two_is_empty_domain():
    with pytest.raises(EmptyDomainError):
        list(engine.primes_up_to(1))
    with pytest.raises(EmptyDomainError):
        engine.prime_count(0)


def test_limit_above_capacity():
    with pytest.raises(CapacityError):
        engine.prime_count(2**63)


def test_primes_match_trial_division_to_1e6():
    ours = list(engine.primes_up_to(1_000_000))
    assert len(ours) == 78_498
    reference = oracles.primes_upto(1_000_000)
    assert ours == reference


def test_prime_count_hand_values():
    assert engine.prime_count(100) == 25
    assert engine.prime_count(2) == 1


def test_prime_count_dual_implementation_oracle_1e8():
    # Independent second sieve, shared-code-free, extends the trial
    # division check beyond what trial division can reach.
    assert oracles.byte_sieve_count(1_000_000) == 78_498
    assert engine.prime_count(100_000_000) == oracles.byte_sieve_count(100_000_000)


def test_prime_count_published_value_1e9():
    assert engine.prime_count(10**9) == 50_847_534


def test_twin_prime_counts_published_values():
    # pi_2(X), the number of twin prime pairs (p, p + 2) with p + 2 <= X (OEIS A007508)
    assert engine.tuple_count(10**8, (0, 2)) == 440_312
    assert engine.tuple_count(10**9, (0, 2)) == 3_424_506


@settings(max_examples=150)
@given(
    # lo <= 13 puts wheel primes in the segment; larger lo starts at any wheel phase
    lo=st.one_of(st.integers(1, 6), st.integers(1, 2_500_000_000)).map(lambda k: 2 * k + 1),
    # spans shorter and longer than the wheel's 15,015-slot period
    slots=st.one_of(st.integers(1, 64), st.integers(1, 15_015), st.integers(15_016, 40_000)),
    # tuple_counts sieves max(H) past a segment's end, so hi has either parity
    extra=st.integers(0, 64),
    wide_base=st.booleans(),
)
def test_sieve_mask_matches_per_prime_oracle(lo, slots, extra, wide_base, oracle_primes_1e5):
    hi = lo + 2 * slots + extra
    # callers pass the base primes for the whole run, which may reach past sqrt(hi);
    # they come from the oracle, since the kernel also builds engine._odd_base_primes
    cap = 100_001 if wide_base else math.isqrt(hi - 1)
    base = np.array(oracle_primes_1e5[1 : bisect.bisect_right(oracle_primes_1e5, cap)], np.int64)
    got = engine._sieve_mask(lo, hi, base)
    assert np.array_equal(got, oracles.segment_mask(lo, hi, base))


@pytest.fixture(scope="module")
def oracle_odd_primes_1e6(oracle_primes_1e5):
    # the plain oracle sieve over [3, 1e6], from the trial-division primes to 1000
    small = oracle_primes_1e5[1 : bisect.bisect_right(oracle_primes_1e5, 1000)]
    return 3 + 2 * np.flatnonzero(oracles.segment_mask(3, 10**6 + 1, small))


def _gap_task(lo: int, hi: int) -> tuple:
    """The segment worker's task for the gaps of [lo, hi), as ``gap_blocks`` sends it."""
    return lo, hi, math.isqrt(hi) + 1, hi - 1, (), False, True


@pytest.mark.parametrize("x", [10**9, 10**10, 10**12])
@pytest.mark.parametrize("slots", [1 << 12, 1 << 13, 1 << 14])
def test_worker_gaps_past_the_sparse_crossover(x, slots, oracle_odd_primes_1e6):
    lo = x + 1
    hi = lo + 2 * slots
    want = np.flatnonzero(oracles.segment_mask(lo, hi, oracle_odd_primes_1e6))
    assert 10 * len(want) <= slots  # numpy reads this mask by its sparse path
    # the compiled kernel where it loads, then the numpy path, as on a host without it
    for lib in (engine._segment_lib, lambda: None):
        with mock.patch.object(engine, "_segment_lib", lib):
            _, _, gaps, first, last = engine._worker_counts(_gap_task(lo, hi))
        assert (first, last) == (lo + 2 * int(want[0]), lo + 2 * int(want[-1]))
        assert gaps.dtype == np.uint16
        assert gaps[0] == 0 and gaps[1:].tolist() == (2 * np.diff(want)).tolist()


@pytest.fixture(scope="module")
def segment_lib():
    lib = engine._segment_lib()
    if lib is None:
        pytest.skip("the compiled segment kernel did not build or load on this host")
    return lib


def test_compiled_kernel_builds_where_it_can():
    # a _segment.c that fails to compile fails here, rather than skipping every
    # test of the kernel and leaving the run on the numpy path
    cc = sysconfig.get_config_var("CC")
    if sys.byteorder != "little" or not cc or not shutil.which(shlex.split(cc)[0]):
        pytest.skip("no compiler, or a big-endian host: the numpy path is expected")
    assert engine._segment_lib() is not None


def test_compiled_kernel_source_has_no_warning():
    # gcc -Wall -Wextra finds nothing in _segment.c, so a new warning fails here
    cc = sysconfig.get_config_var("CC")
    if not cc or not shutil.which(shlex.split(cc)[0]):
        pytest.skip("no compiler")
    flags = ["-Wall", "-Wextra", "-Werror", "-fsyntax-only"]
    result = subprocess.run([*shlex.split(cc), *flags, str(engine._SEGMENT_SOURCE)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def _same_gaps(got, want) -> bool:
    """Whether two worker results, or two walks, hold the same gaps, ends and histogram."""
    return all(a is b if a is None or b is None else
               a.dtype == b.dtype and np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
               for a, b in zip(got, want, strict=True))


_ODD_PRIMES_BELOW_3000 = [p for p in oracles.primes_upto(3000) if p > 2]


@settings(max_examples=150)
@given(
    lo=st.one_of(
        st.integers(1, 8).map(lambda k: 2 * k + 1),  # lo <= 17: the wheel primes are in range
        st.integers(1, 2_500_000_000).map(lambda k: 2 * k + 1),
        # p^2 in or near the segment, for p on either side of the kernel's 8192 split
        st.tuples(st.sampled_from(_ODD_PRIMES_BELOW_3000 + [8191, 8209, 9973]),
                  st.integers(0, 40_000)).map(lambda pk: max(3, pk[0] ** 2 - 2 * pk[1])),
        # inside the prime gap of 250 after 387,096,133: segments with no prime or one
        st.integers(0, 124).map(lambda k: 387_096_135 + 2 * k),
    ),
    # spans off and on multiples of 64 slots, across the kernel's 32,768-slot blocks
    slots=st.one_of(st.integers(1, 200), st.integers(1, 1_100).map(lambda k: 64 * k),
                    st.integers(1, 70_000)),
    extra=st.integers(0, 1),
)
def test_compiled_kernel_matches_numpy(segment_lib, oracle_primes_1e5, lo, slots, extra):
    hi = lo + 2 * slots + extra
    base = np.array(oracle_primes_1e5[1 : bisect.bisect_right(oracle_primes_1e5, math.isqrt(hi - 1))],
                    np.int64)
    task = _gap_task(lo, hi)
    got_mask, got_gaps = engine._sieve_mask(lo, hi, base), engine._worker_counts(task)
    with mock.patch.object(engine, "_segment_lib", lambda: None):  # as on a host without it
        want_mask, want_gaps = engine._sieve_mask(lo, hi, base), engine._worker_counts(task)
    assert np.array_equal(got_mask, want_mask)
    assert _same_gaps(got_gaps[1:], want_gaps[1:])
    walk = (got_mask, (), [], len(got_mask), False, True)
    assert _same_gaps(engine._count_words(segment_lib, *walk)[1:], engine._count_bytes(*walk)[1:])


@settings(max_examples=150)
@given(
    n_slots=st.one_of(st.integers(0, 200), st.integers(0, 70_000)),
    # no set slot, one, a few far apart (gaps past 2046 among them) and a sieve's density
    count=st.one_of(st.integers(0, 3), st.integers(0, 200), st.integers(0, 10_000)),
    seed=st.integers(0, 2**32 - 1),
    histogram=st.booleans(),
)
def test_compiled_gap_scan_matches_numpy(segment_lib, n_slots, count, seed, histogram):
    mask = np.zeros(n_slots, dtype=bool)
    mask[np.random.default_rng(seed).choice(n_slots, min(count, n_slots), replace=False)] = True
    walk = (mask, (), [], n_slots, histogram, True)
    try:
        want = engine._count_bytes(*walk)
    except CapacityError:
        with pytest.raises(CapacityError):
            engine._count_words(segment_lib, *walk)
    else:
        assert _same_gaps(engine._count_words(segment_lib, *walk)[1:], want[1:])


def test_compiled_gap_wider_than_a_bin_raises(segment_lib):
    mask = np.zeros(40_000, dtype=bool)
    mask[[5, 5 + 1023]] = True  # the widest gap that fits: 2,046
    for walk in (lambda *a: engine._count_words(segment_lib, *a), engine._count_bytes):
        _, _, gaps, ends = walk(mask, (), [], len(mask), False, True)
        assert (ends, gaps.dtype, gaps.tolist()) == ([5, 5 + 1023], np.uint16, [0, 2046])
    mask[5 + 1023], mask[5 + 1024] = False, True  # 2,048
    for walk in (lambda *a: engine._count_words(segment_lib, *a), engine._count_bytes):
        with pytest.raises(CapacityError, match="2046"):
            walk(mask, (), [], len(mask), False, True)


@settings(max_examples=150)
@given(segment=st.one_of(
    # no prime: inside the gap of 250 after 387,096,133
    st.integers(0, 123).flatmap(lambda a: st.integers(1, 124 - a).map(
        lambda k: (387_096_135 + 2 * a, 387_096_135 + 2 * (a + k)))),
    # a prime in the last slot
    st.tuples(st.sampled_from(_ODD_PRIMES_BELOW_3000), st.integers(1, 1_500)).map(
        lambda pk: (max(3, pk[0] - 2 * (pk[1] - 1)), pk[0] + 2)),
    # a core ending mid-word
    st.tuples(st.integers(1, 2_500_000_000), st.integers(0, 300), st.integers(1, 63)).map(
        lambda t: (2 * t[0] + 1, 2 * t[0] + 1 + 2 * (64 * t[1] + t[2]))),
    st.integers(1, 40_000).map(lambda k: (3, 3 + 2 * k)),  # lo = 3
))
def test_compiled_gap_buffer_matches_byte_walk(segment_lib, segment):
    lo, hi = segment
    got = engine._worker_counts(_gap_task(lo, hi))
    with mock.patch.object(engine, "_segment_lib", lambda: None):  # _count_bytes' gaps
        want = engine._worker_counts(_gap_task(lo, hi))
    assert _same_gaps(got[1:], want[1:])
    if want[2] is not None:
        assert int(want[2].sum()) == want[4] - want[3] and lo <= want[3] <= want[4] < hi


def test_second_interpreter_loads_the_cached_library(segment_lib):
    code = (
        "from gapsum import engine\n"
        "def build(*args):\n"
        "    raise AssertionError('compiled again')\n"
        "engine._build_segment_library = build\n"
        "assert engine._segment_lib() is not None\n"
    )
    src = str(Path(engine.__file__).parent.parent)
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                   check=True, timeout=60)


def test_source_edit_builds_a_new_library(segment_lib, tmp_path, monkeypatch):
    command = ["cc", "-O2"]
    before = engine._segment_library_path(command)
    edited = tmp_path / "_segment.c"
    edited.write_bytes(engine._SEGMENT_SOURCE.read_bytes() + b"/* edited */\n")
    monkeypatch.setattr(engine, "_SEGMENT_SOURCE", edited)
    after = engine._segment_library_path(command)
    assert after.parent == tmp_path / "__pycache__" and after.name != before.name
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "_segment-0000000000000000.so").write_bytes(b"stale")
    engine._segment_lib.cache_clear()
    try:
        lib = engine._segment_lib()
        assert lib is not None and Path(lib._name).parent == tmp_path / "__pycache__"
        # the build went through a temporary file and removed the stale library,
        # leaving only its own, readable by all
        assert [p.name for p in (tmp_path / "__pycache__").iterdir()] == [Path(lib._name).name]
        assert os.stat(lib._name).st_mode & 0o444 == 0o444
        assert engine._worker_counts(_gap_task(3, 1001))[3:] == (3, 997)
    finally:
        engine._segment_lib.cache_clear()


def test_odd_base_primes_match_oracle(oracle_primes_1e5):
    # the kernel sieves them over _odd_base_primes(isqrt(x)); 1..2000 crosses the
    # wheel primes and the recursion's edges 9, 25, 169 and 289
    odd = oracle_primes_1e5[1:]
    for x in range(1, 2001):
        assert engine._odd_base_primes(x).tolist() == odd[: bisect.bisect_right(odd, x)], x
    assert engine._odd_base_primes(100_000).tolist() == odd


def test_gap_stream_prime_limit_smallest():
    records = list(engine.gap_stream(prime_limit=10))
    assert [(r.n, r.p, r.p_next, r.gap) for r in records] == [
        (1, 2, 3, 1),
        (2, 3, 5, 2),
        (3, 5, 7, 2),
    ]
    assert [r.gap for r in engine.gap_stream(prime_limit=3)] == [1]


def test_gap_stream_index_limit():
    gaps = [r.gap for r in engine.gap_stream(index_limit=5)]
    assert gaps == [1, 2, 2, 4, 2]  # primes 2,3,5,7,11,13
    records = list(engine.gap_stream(index_limit=1))
    assert records == [engine.GapRecord(1, 2, 3, 1)]


def test_gap_stream_requires_exactly_one_limit():
    with pytest.raises(ValidationError):
        list(engine.gap_stream())
    with pytest.raises(ValidationError):
        list(engine.gap_stream(prime_limit=10, index_limit=10))
    with pytest.raises(EmptyDomainError):
        list(engine.gap_stream(prime_limit=2))


def test_gap_records_consistent(oracle_primes_1e5):
    for rec, (p, q) in zip(
        engine.gap_stream(prime_limit=10_000),
        zip(oracle_primes_1e5, oracle_primes_1e5[1:]),
    ):
        assert (rec.p, rec.p_next, rec.gap) == (p, q, q - p)


def test_tuple_count_examples():
    assert engine.tuple_count(100, (0, 2)) == 8
    assert engine.tuple_count(100, (0, 2, 6)) == 4
    assert engine.tuple_count(10, (0, 1)) == 1  # parity forces n = 2
    # the four {0,2,6} starts below 100 are 5, 11, 17, 41
    witnesses = [n for n in range(2, 95) if all(oracles.is_prime(n + h) for h in (0, 2, 6))]
    assert witnesses == [5, 11, 17, 41]


def test_tuple_count_trivial_tuple_counts_primes():
    assert engine.tuple_count(100, (0,)) == 25


def test_tuple_count_start_two_hand_values():
    assert engine.tuple_count(2, (0,)) == 1
    assert engine.tuple_count(3, (0, 1)) == 1
    assert engine.tuple_count(4, (0, 2)) == 0


def test_tuple_counts_share_one_pass(monkeypatch, oracle_prime_set_1e5):
    calls = []
    segment_map = engine._segment_map

    def counted(*args, **kwargs):
        calls.append(args[0])
        return segment_map(*args, **kwargs)

    monkeypatch.setattr(engine, "_segment_map", counted)
    tuples = [(0,), (0, 2), (0, 1), (0, 2, 6)]
    got = engine.tuple_counts(10**5, tuples)
    assert calls == [engine._worker_counts]
    assert got == [oracles.tuple_count(10**5, h, oracle_prime_set_1e5) for h in tuples]


def test_tuple_count_small_limit_returns_zero():
    assert engine.tuple_count(5, (0, 2, 6)) == 0


def test_tuple_count_validation():
    for bad in [(), (1, 3), (0, 2, 2), (0, 3, 2), (0, 2.5)]:
        with pytest.raises(ValidationError):
            engine.tuple_count(100, bad)


def test_tuple_counts_match_brute_force(oracle_prime_set_1e5):
    tuples = [(0, 2), (0, 2, 6), (0, 4, 6), (0, 6), (0, 2, 6, 8), (0, 1), (0, 3)]
    got = engine.tuple_counts(50_000, tuples)
    for offsets, value in zip(tuples, got):
        assert value == oracles.tuple_count(50_000, offsets, oracle_prime_set_1e5), offsets


def test_tuple_count_offset_wider_than_segment(oracle_prime_set_1e5, set_segment_slots):
    # the shifted-mask lookup must survive offsets larger than a segment
    set_segment_slots(1 << 12)  # span 8192
    h = (0, 30_000)
    want = oracles.tuple_count(90_000, h, oracle_prime_set_1e5)
    # the compiled word count where it loads, then the numpy byte loop
    for lib in (engine._segment_lib, lambda: None):
        with mock.patch.object(engine, "_segment_lib", lib):
            assert engine.tuple_count(90_000, h) == want


# Tuples of even offsets for the counting worker: (0,) alone, pairs, triples
# and wider ones, with shifts inside one word and across several.
_EVEN_TUPLES = st.one_of(
    st.just([]),
    st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 600), min_size=1, max_size=4, unique=True),
).map(lambda hs: (0, *sorted(2 * h for h in hs)))


@settings(max_examples=150)
@given(
    lo=st.one_of(st.integers(1, 8).map(lambda k: 2 * k + 1),
                 st.integers(1, 2_500_000_000).map(lambda k: 2 * k + 1)),
    # cores on and off multiples of 64 slots, past one 256-word row block
    slots=st.one_of(st.integers(1, 200), st.integers(1, 400).map(lambda k: 64 * k),
                    st.integers(1, 40_000)),
    tuples=st.lists(_EVEN_TUPLES, min_size=0, max_size=6),
    histogram=st.booleans(),
    gaps=st.booleans(),
    # the limit past the segment's extension, or inside the segment itself
    cut=st.one_of(st.none(), st.integers(0, 2400)),
)
def test_counting_worker_matches_byte_loop(segment_lib, lo, slots, tuples, histogram, gaps, cut):
    hi = lo + 2 * slots
    ext = max((h[-1] for h in tuples), default=0)
    limit = hi + ext + 1 if cut is None else max(lo, hi + ext - 2 * cut)
    hi = min(hi, limit + 1)
    if not tuples and not gaps:
        histogram = True  # consecutive_gap_counts' pass
    task = (lo, hi, math.isqrt(limit) + 1, limit, tuple(tuples), histogram, gaps)
    got = engine._worker_counts(task)
    with mock.patch.object(engine, "_segment_lib", lambda: None):
        want = engine._worker_counts(task)
    assert got[0].tolist() == want[0].tolist()
    assert _same_gaps(got[1:], want[1:])
    assert (got[1] is None) == (not histogram or got[3] is None)
    assert (got[2] is None) == (not gaps or got[3] is None)
    if got[3] is not None:
        assert lo <= got[3] <= got[4] < hi


@settings(max_examples=150)
@given(
    n_slots=st.integers(1, 20_000),
    density=st.sampled_from([0.0005, 0.01, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    tuples=st.lists(_EVEN_TUPLES, min_size=0, max_size=6),
    core_cut=st.integers(0, 200),
)
def test_word_count_matches_byte_count(segment_lib, n_slots, density, seed, tuples, core_cut):
    # hand-built masks, dense and sparse; each tuple's core stops where its
    # widest shift reaches the mask's end, or short of it
    mask = np.random.default_rng(seed).random(n_slots) < density
    cores = [max(0, n_slots - h[-1] // 2 - core_cut) for h in tuples]
    core = max(0, n_slots - core_cut)
    walk = (mask, tuples, cores, core, True, True)
    try:
        want = engine._count_bytes(*walk)
    except CapacityError:
        with pytest.raises(CapacityError):
            engine._count_words(segment_lib, *walk)
        return
    got = engine._count_words(segment_lib, *walk)
    assert got[0].tolist() == want[0].tolist()
    assert _same_gaps(got[1:], want[1:])


def test_histogram_wider_than_its_bins_raises(segment_lib):
    # slots 1023 apart are the gap 2046, the widest bin; 1024 apart raise on both paths
    mask = np.zeros(5000, dtype=bool)
    mask[[7, 7 + 1023]] = True
    for count in (lambda *a: engine._count_words(segment_lib, *a), engine._count_bytes):
        counts, hist, gaps, ends = count(mask, ((0,),), [5000], 5000, True, False)
        assert counts.tolist() == [2] and ends == [7, 7 + 1023] and gaps is None
        assert np.flatnonzero(hist).tolist() == [1023] and hist[1023] == 1
    mask[7 + 1023], mask[7 + 1024] = False, True
    for count in (lambda *a: engine._count_words(segment_lib, *a), engine._count_bytes):
        with pytest.raises(CapacityError, match="2046"):
            count(mask, ((0, 2),), [4000], 5000, True, False)
    # a tuple pass that makes no histogram reads no gap
    counted = engine._count_words(segment_lib, mask, ((0,),), [5000], 0, False, False)
    assert counted[0].tolist() == [2] and counted[1:] == (None, None, [-1, -1])


def test_consecutive_gap_counts_hand_values():
    assert engine.consecutive_gap_counts(20).counts == {1: 1, 2: 4, 4: 2}
    assert engine.consecutive_gap_counts(3).counts == {1: 1}
    with pytest.raises(EmptyDomainError):
        engine.consecutive_gap_counts(2)


def test_gap_counts_match_oracle(oracle_primes_1e5):
    hist = engine.consecutive_gap_counts(100_000)
    assert hist.counts == oracles.gap_histogram(100_000, oracle_primes_1e5)


def test_d2_equals_pair_count():
    # p, p+2 both prime forces consecutiveness (p+1 is even).
    for x in (100, 1000, 12_345):
        hist = engine.consecutive_gap_counts(x)
        assert hist.counts.get(2, 0) == engine.tuple_count(x, (0, 2))


@given(st.integers(min_value=3, max_value=3000))
def test_telescoping(x):
    hist = engine.consecutive_gap_counts(x)
    largest = max(p for p in oracles.primes_upto(x))
    assert hist.total_span() == largest - 2


@given(st.integers(min_value=20, max_value=2000), st.integers(min_value=1, max_value=15))
def test_gap_counts_below_pair_counts(x, half_d):
    d = 2 * half_d
    hist = engine.consecutive_gap_counts(x)
    assert hist.counts.get(d, 0) <= engine.tuple_count(x, (0, d))


def test_odd_gaps_never_counted():
    counts = engine.consecutive_gap_counts(100_000).counts
    assert all(d % 2 == 0 for d in counts if d != 1)
    assert counts[1] == 1


def test_gap_record_invariants():
    # d_1 = 1 exactly; every later gap is even (p_n >= 3 is odd)
    for rec in engine.gap_stream(index_limit=500):
        assert rec.p_next - rec.p == rec.gap > 0
        if rec.n == 1:
            assert (rec.p, rec.p_next, rec.gap) == (2, 3, 1)
        else:
            assert rec.gap % 2 == 0


def test_determinism_across_workers_and_segment_sizes(oracle_primes_1e5, set_segment_slots):
    reference = list(engine.primes_up_to(300_000, workers=1))
    for workers, slots in [(1, 1 << 12), (2, 1 << 14), (4, 1 << 16), (3, 1 << 10)]:
        set_segment_slots(slots)
        got = list(engine.primes_up_to(300_000, workers=workers))
        assert got == reference
    counts = set()
    for w, s in [(1, 1 << 12), (2, 1 << 15), (4, 1 << 18)]:
        set_segment_slots(s)
        counts.add(engine.tuple_count(200_000, (0, 2), workers=w))
    assert len(counts) == 1
    # small segments put many gaps across segment boundaries, which the
    # parent adds to the workers' histograms
    for x in (100_000, 2051):  # 2051 = 7 * 293 alone in a prime-free last segment
        histogram = oracles.gap_histogram(x, oracle_primes_1e5)
        for workers, slots in [(1, 1 << 10), (2, 1 << 10), (3, 1 << 12), (1, 1 << 18)]:
            set_segment_slots(slots)
            got = engine.consecutive_gap_counts(x, workers=workers)
            assert got.counts == histogram, (x, workers, slots)
    # prime blocks are rebuilt from the workers' uint16 gaps
    for x in (100_000, 2051):
        expected = [p for p in oracle_primes_1e5 if 2 < p <= x]
        for workers in (1, 2, 3):
            for slots in (1 << 10, 1 << 12):
                set_segment_slots(slots)
                blocks = list(engine.prime_blocks(x, workers=workers))
                assert all(block.dtype == np.int64 for block in blocks)
                assert np.concatenate(blocks).tolist() == expected, (x, workers, slots)


def test_non_integer_limit_rejected():
    with pytest.raises(ValidationError):
        engine.prime_count("100")
    with pytest.raises(ValidationError):
        engine.prime_count(100.0)


def test_bad_workers_env(monkeypatch):
    monkeypatch.setenv("GAPSUM_WORKERS", "two")
    with pytest.raises(ValidationError):
        engine.default_workers()
    monkeypatch.setenv("GAPSUM_WORKERS", "0")
    with pytest.raises(ValidationError):
        engine.default_workers()
    # the library refuses the same counts, and a bool, before any pool starts
    for workers in (0, -3, 2.0, "2", True):
        with pytest.raises(ValidationError):
            engine.prime_count(10**6, workers=workers)
        with pytest.raises(ValidationError):
            list(engine.gap_blocks(prime_limit=10**6, workers=workers))
        with pytest.raises(ValidationError):
            next(engine.gap_stream(prime_limit=10**6, workers=workers))
        with pytest.raises(ValidationError):
            engine.consecutive_gap_counts(10**6, workers=workers)


def test_prime_value_bound_is_an_upper_bound(oracle_primes_1e5):
    for n in (1, 5, 6, 100, 9592):
        assert oracle_primes_1e5[n - 1] <= engine._prime_value_bound(n)


def test_gap_blocks_restart_from_segment_boundary(set_segment_slots):
    slots = 1 << 12
    set_segment_slots(slots)
    full = list(engine.gap_blocks(prime_limit=100_000))
    head = full[:4]  # resume after four segments, as a checkpoint records them
    last = head[-1]
    assert last.seg_end == 3 + 4 * 2 * slots
    tail = list(engine.gap_blocks(
        prime_limit=100_000, start_lo=last.seg_end,
        init_last=last.last_prime, init_n=last.n0 + len(last.gaps),
    ))
    stitched = head + tail
    assert [b.n0 for b in stitched] == [b.n0 for b in full]
    for part in (lambda b: b.gaps, lambda b: b.rights()):
        assert np.array_equal(np.concatenate([part(b) for b in stitched]),
                              np.concatenate([part(b) for b in full]))


def test_gap_wider_than_uint16_raises(monkeypatch):
    # synthetic primes lo + 2*slot with lo = 3
    slots = (np.array([3, 5, 7, 7 + 65_536, 7 + 3 * 65_536], dtype=np.int64) - 3) // 2
    for lib in (engine._segment_lib(), None):
        walk = engine._count_bytes if lib is None else partial(engine._count_words, lib)
        for chosen, want in ((slots[:3], [0, 2, 2]), (slots[:4], None), (slots[[0, 1, 2, 4]], None)):
            mask = np.zeros(chosen[-1] + 1, dtype=bool)
            mask[chosen] = True  # inner gaps of 2, then 65,536 or 196,608
            if want is None:
                with pytest.raises(CapacityError):
                    walk(mask, (), [], len(mask), False, True)
            else:
                _, _, gaps, ends = walk(mask, (), [], len(mask), False, True)
                assert (ends, gaps.dtype, gaps.tolist()) == ([0, 2], np.uint16, want)
    # the gap that enters a segment is checked in the fold
    far = 3 + 65_536 * 2
    empty = np.zeros(0, np.int64)
    monkeypatch.setattr(engine, "_worker_counts",
                        lambda task: (empty, None, np.zeros(1, np.uint16), far, far))
    with pytest.raises(CapacityError):
        next(engine.gap_blocks(prime_limit=10**6, workers=1))


def _record_passes(monkeypatch) -> list:
    """Record (worker, sieve limit) for each ``_segment_map`` pass."""
    calls = []
    segment_map = engine._segment_map

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return segment_map(*args, **kwargs)

    monkeypatch.setattr(engine, "_segment_map", counted)
    return calls


def test_every_alpha_reads_one_gap_pass(monkeypatch, oracle_primes_1e5):
    calls = _record_passes(monkeypatch)
    verify.theorem1_ratio(100_000, -1.0)  # alpha < 0 drops the d = 1 bin, with no pass of its own
    assert calls == [(engine._worker_counts, 100_000)]
    for alpha in (0.0, 1.0):
        verify.theorem1_ratio(100_000, alpha)
    hist = engine.consecutive_gap_counts(100_000)
    assert calls == [(engine._worker_counts, 100_000)]
    assert hist.counts == oracles.gap_histogram(100_000, oracle_primes_1e5)


def test_each_gap_pass_is_sieved_once(monkeypatch, oracle_primes_1e5, set_segment_slots):
    calls = _record_passes(monkeypatch)
    expected = oracles.gap_histogram(100_000, oracle_primes_1e5)
    passes = [(1, 1 << 10), (2, 1 << 10), (1, 1 << 12)]
    for _ in range(2):
        for workers, slots in passes:
            set_segment_slots(slots)
            got = engine.consecutive_gap_counts(100_000, workers=workers)
            assert got.counts == expected, (workers, slots)
    assert calls == [(engine._worker_counts, 100_000)] * len(passes)


def test_gap_counts_are_a_fresh_dict_per_call(oracle_primes_1e5):
    first = engine.consecutive_gap_counts(100_000)
    first.counts[2] = -1
    first.counts[99_999] = 1
    again = engine.consecutive_gap_counts(100_000)
    assert again.counts is not first.counts
    assert again.counts == oracles.gap_histogram(100_000, oracle_primes_1e5)


def test_failed_gap_pass_is_not_remembered(monkeypatch, oracle_primes_1e5):
    def fail(task):
        raise MemoryError

    monkeypatch.setattr(engine, "_worker_counts", fail)
    with pytest.raises(MemoryError):
        engine.consecutive_gap_counts(100_000, workers=1)
    monkeypatch.undo()
    got = engine.consecutive_gap_counts(100_000, workers=1)
    assert got.counts == oracles.gap_histogram(100_000, oracle_primes_1e5)


def _oracle_primes(limit: int) -> list[int]:
    """The primes to ``limit`` from the plain oracle sieve."""
    base = oracles.primes_upto(math.isqrt(limit))[1:]
    return [2, *(3 + 2 * np.flatnonzero(oracles.segment_mask(3, limit + 1, base))).tolist()]


def _prime_free_tail(limit: int, span: int, primes: set[int]) -> int:
    """The first limit past ``limit`` whose last segment of ``span`` holds no prime."""
    lo = 3 + (limit - 3) // span * span
    while True:
        lo += span
        if lo not in primes and lo + 2 not in primes:
            return lo + 2


@pytest.mark.parametrize("slots", [1 << 10, 1 << 12])
def test_tuple_pass_histogram_matches_oracle(slots, monkeypatch, set_segment_slots):
    set_segment_slots(slots)
    calls = _record_passes(monkeypatch)
    primes = _oracle_primes(10**7 + 10**5)
    prime_set = set(primes)
    limits = [10**3, 10**4, 99_991, 10**6, 10**7,  # 99,991 is prime
              _prime_free_tail(10**5, 2 * slots, prime_set)]
    assert 99_991 in prime_set
    for limit in limits:
        engine.tuple_counts(limit, [(0, 2), (0, 2, 6)], workers=2)
        hist = engine.consecutive_gap_counts(limit, workers=2)  # what the tuple pass kept
        assert hist.counts == oracles.gap_histogram(limit, primes), limit
        assert 1 + sum(hist.counts.values()) == engine.prime_count(limit, workers=2), limit
    # one tuple pass and one prime count per limit, no histogram pass
    assert [limit for _, limit in calls] == [x for x in limits for _ in range(2)]


def test_histogram_memo_keeps_eight_passes(monkeypatch, oracle_primes_1e5):
    calls = _record_passes(monkeypatch)
    limits = list(range(1000, 1009))  # nine limits: the first is dropped
    for limit in limits:
        engine.consecutive_gap_counts(limit, workers=1)
    assert list(engine._gap_histograms) == [(x, 1, engine.SEGMENT_SLOTS) for x in limits[1:]]
    for limit in limits[1:]:
        got = engine.consecutive_gap_counts(limit, workers=1)
        assert got.counts == oracles.gap_histogram(limit, oracle_primes_1e5)
    assert len(calls) == len(limits)
    engine.consecutive_gap_counts(limits[0], workers=1)
    assert len(calls) == len(limits) + 1


def test_tuple_pass_makes_a_histogram_only_when_none_is_kept(monkeypatch):
    tasks = []
    worker = engine._worker_counts

    def recorded(task):
        tasks.append(task[5])  # the histogram flag
        return worker(task)

    monkeypatch.setattr(engine, "_worker_counts", recorded)
    engine.tuple_counts(10**5, [(0,)], workers=1)  # (0,) alone counts bytes, with no histogram
    assert not any(tasks) and not engine._gap_histograms
    engine.tuple_counts(10**5, [(0, 2)], workers=1)
    assert all(tasks[-1:]) and list(engine._gap_histograms) == [(10**5, 1, engine.SEGMENT_SLOTS)]
    tasks.clear()
    engine.tuple_counts(10**5, [(0, 4)], workers=1)  # kept: no second histogram
    engine.tuple_counts(10**5, [(0, 4)], workers=2)  # another key
    assert tasks and tasks[0] is False and tasks[-1] is True


# An index pass over many segments: N = 20,000 sieves to 244,185, 2048
# integers a segment at 2^10 slots.
_INDEX_PASS = dict(index_limit=20_000, workers=1)


def _fields(blocks) -> list:
    return [(b.n0, b.gaps.dtype, b.gaps.tolist(), b.last_prime, b.seg_end) for b in blocks]


def test_kept_index_stream_replays_the_sieved_blocks(monkeypatch, set_segment_slots):
    set_segment_slots(1 << 10)
    calls = _record_passes(monkeypatch)
    sieved = _fields(engine.gap_blocks(**_INDEX_PASS))
    next(engine.gap_blocks(**_INDEX_PASS)).gaps[:] = 0  # a replayed block is a fresh copy
    replayed = _fields(engine.gap_blocks(**_INDEX_PASS))
    assert calls == [(engine._worker_counts, engine._sieve_limit(None, 20_000)[0])]
    assert replayed == sieved
    assert len(sieved) > 100 and sieved[0][2][:3] == [1, 2, 2]
    assert sum(len(f[2]) for f in sieved) == 20_000


@pytest.mark.parametrize("budget, passes", [(19_999, 2), (20_000, 1)])
def test_kept_stream_budget(monkeypatch, budget, passes, set_segment_slots):
    set_segment_slots(1 << 10)
    monkeypatch.setattr(engine, "_KEPT_STREAM_GAPS", budget)
    calls = _record_passes(monkeypatch)
    runs = [_fields(engine.gap_blocks(**_INDEX_PASS)) for _ in range(2)]
    assert len(calls) == passes
    assert runs[1] == runs[0]


def test_unfinished_or_other_passes_keep_nothing(monkeypatch, set_segment_slots):
    set_segment_slots(1 << 10)
    n_blocks = len(list(engine.gap_blocks(**_INDEX_PASS)))
    engine._kept_stream.clear()
    for taken in (1, n_blocks):  # closed early, and closed at its last block
        blocks = engine.gap_blocks(**_INDEX_PASS)
        for _ in range(taken):
            next(blocks)
        blocks.close()
        assert not engine._kept_stream, taken
    real_worker, seen = engine._worker_counts, []

    def fail(task):
        seen.append(task)
        if len(seen) == 5:
            raise MemoryError
        return real_worker(task)

    monkeypatch.setattr(engine, "_worker_counts", fail)
    with pytest.raises(MemoryError):
        list(engine.gap_blocks(**_INDEX_PASS))
    assert not engine._kept_stream
    monkeypatch.setattr(engine, "_worker_counts", real_worker)
    list(engine.gap_blocks(prime_limit=250_000, workers=1))
    assert not engine._kept_stream  # prime mode
    # a finished one-segment index pass is kept like any other
    one_segment = _fields(engine.gap_blocks(index_limit=1, workers=1))
    assert engine._kept_stream
    calls = _record_passes(monkeypatch)
    assert _fields(engine.gap_blocks(index_limit=1, workers=1)) == one_segment
    assert calls == [] and one_segment[0][:3] == (1, np.uint16, [1])


def test_other_workers_or_segment_size_sieve_again(monkeypatch, set_segment_slots):
    calls = _record_passes(monkeypatch)
    passes = [(1, 1 << 10), (2, 1 << 10), (1, 1 << 11), (1, 1 << 11), (1, 1 << 10)]
    runs = []
    for w, s in passes:
        set_segment_slots(s)
        runs.append(_fields(engine.gap_blocks(index_limit=20_000, workers=w)))
    # the fourth replays the third; only the last stream is kept, so the fifth sieves
    assert len(calls) == 4
    assert runs[1] == runs[4] == runs[0]
    assert runs[3] == runs[2]


def test_corollary_c_values_share_one_pass(monkeypatch, set_segment_slots):
    set_segment_slots(1 << 10)
    fresh = []
    for c in (0.0, 2.0, 3.0):
        engine._kept_stream.clear()
        fresh.append(verify.corollary_ratio(20_000, c, workers=1).to_csv_row())
    engine._kept_stream.clear()
    calls = _record_passes(monkeypatch)
    shared = [verify.corollary_ratio(20_000, c, workers=1).to_csv_row() for c in (0.0, 2.0, 3.0)]
    assert len(calls) == 1
    assert shared == fresh


def test_theorem1_between_corollaries_keeps_the_stream(monkeypatch, set_segment_slots):
    set_segment_slots(1 << 10)
    calls = _record_passes(monkeypatch)
    verify.corollary_ratio(20_000, 3.0, workers=1)
    verify.theorem1_ratio(20_000, -1.0, workers=1)
    verify.corollary_ratio(20_000, 2.0, workers=1)
    assert [limit for _, limit in calls] == [engine._sieve_limit(None, 20_000)[0], 20_000]


def test_index_pass_segments_follow_the_sieve_bound():
    # index 5e8 sieves to about 1.15e10, past 2^33, in segments of the same
    # size as a pass to 5e8 (the compiled kernel is slower in larger ones)
    for limit in (10**9, 2**37, 2**63 - 1):
        assert engine.effective_segment_slots(limit) == 1 << 20
    for limits in ({"index_limit": 5 * 10**8}, {"prime_limit": 5 * 10**8}):
        blocks = engine.gap_blocks(**limits, workers=1)
        assert next(blocks).seg_end == 3 + 2 * (1 << 20), limits
        blocks.close()


def _record_task(task):
    """A 20 ms segment task that leaves one file per run in the directory it is given."""
    lo, _, _, outdir = task
    time.sleep(0.02)
    (Path(outdir) / str(lo)).touch()
    return lo


def _raise_capacity(task):
    raise CapacityError("segment too wide")


class _RecordedPool(ThreadPoolExecutor):
    shutdowns: list = []

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))
        super().shutdown(wait=wait, cancel_futures=cancel_futures)


def _pool_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


def test_early_closed_pool_pass_cancels_its_queued_segments(tmp_path, monkeypatch,
                                                           set_segment_slots):
    monkeypatch.setattr(engine, "ThreadPoolExecutor", _RecordedPool)
    monkeypatch.setattr(_RecordedPool, "shutdowns", [])
    workers, slots = 2, 1 << 10
    set_segment_slots(slots)
    segments = engine._segment_map(_record_task, 10**6, workers=workers, extra=(str(tmp_path),))
    assert next(segments) == (3 + 2 * slots, 3)
    segments.close()
    assert _RecordedPool.shutdowns == [(True, True)]
    # the close cancels every queued task of the window of 2 * workers + 2:
    # only the first result and those running on a thread ran
    ran = sorted(int(f.name) for f in tmp_path.iterdir())
    assert 1 <= len(ran) <= 2 * workers
    assert ran == [3 + 2 * slots * k for k in range(len(ran))]
    assert not _pool_threads()


def test_pool_pass_worker_error_reaches_the_caller(monkeypatch, set_segment_slots):
    monkeypatch.setattr(engine, "ThreadPoolExecutor", _RecordedPool)
    monkeypatch.setattr(_RecordedPool, "shutdowns", [])
    set_segment_slots(1 << 10)
    with pytest.raises(CapacityError, match="segment too wide"):
        list(engine._segment_map(_raise_capacity, 10**6, workers=2))
    assert _RecordedPool.shutdowns == [(True, True)]
    assert not _pool_threads()


class _StubPool:
    """Runs each submitted call at once and records the pool size asked for."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


def test_pool_is_no_larger_than_the_pass(monkeypatch, set_segment_slots):
    # a pass asks for no more threads than it has segments
    monkeypatch.setattr(engine, "ThreadPoolExecutor", _StubPool)
    monkeypatch.setattr(_StubPool, "sizes", [])
    slots = 1 << 10
    set_segment_slots(slots)
    limit = 3 + 3 * 2 * slots - 1  # three segments
    gap_pass = dict(extra=(limit, (), False, True))  # gap_blocks' pass
    serial = list(engine._segment_map(engine._worker_counts, limit, workers=1, **gap_pass))
    assert len(serial) == 3
    for workers in (2, 3, 16):
        pooled = list(engine._segment_map(engine._worker_counts, limit, workers=workers,
                                          **gap_pass))
        assert [end for end, _ in pooled] == [end for end, _ in serial]
        for (_, got), (_, want) in zip(pooled, serial):
            assert _same_gaps(got[1:], want[1:])
    assert _StubPool.sizes == [2, 3, 3]


@pytest.mark.parametrize("lib", [engine._segment_lib, lambda: None], ids=["compiled", "numpy"])
def test_threads_beyond_the_cores_match_one_worker(lib, monkeypatch, set_segment_slots):
    # eight threads on a short switch interval, racing to fill the wheel tile,
    # still give the gaps and tuple counts of a pass in the caller's thread
    monkeypatch.setattr(engine, "_segment_lib", lib)
    set_segment_slots(1 << 10)
    limit, tuples = 300_000, [(0,), (0, 2), (0, 2, 6)]
    want_gaps = [b.gaps.tolist() for b in engine.gap_blocks(prime_limit=limit, workers=1)]
    want_counts = engine.tuple_counts(limit, tuples, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            engine._wheel_pattern.cache_clear()
            got = [b.gaps.tolist() for b in engine.gap_blocks(prime_limit=limit, workers=8)]
            assert got == want_gaps
            assert engine.tuple_counts(limit, tuples, workers=8) == want_counts
    finally:
        sys.setswitchinterval(interval)
    assert not _pool_threads()
