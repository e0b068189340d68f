import itertools
import math
import time
import tracemalloc

import mpmath
import pytest
from hypothesis import given, strategies as st

import oracles
from gapsum import engine, singular
from gapsum.errors import (
    CapacityError,
    EmptyDomainError,
    PrecisionError,
    ValidationError,
)
from gapsum.singular import TupleSpec

# Twin prime constant to 30 digits, from mpmath's zeta-product machinery;
# used as an independent high-precision oracle.
C2_REFERENCE = float(mpmath.mp.twinprime)


# ---------------------------------------------------------------------------
# Residues and admissibility

def test_residue_count_examples():
    assert singular.residue_count((0, 2, 6), 5) == 3
    assert singular.residue_count((0, 2, 4), 3) == 3
    assert singular.residue_count((0, 2), 2) == 1


def test_residue_count_rejects_composite_modulus():
    with pytest.raises(ValidationError):
        singular.residue_count((0, 2), 9)


@given(
    st.sets(st.integers(min_value=1, max_value=200), min_size=1, max_size=6),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_residue_count_bounds(extra, p):
    spec = TupleSpec(tuple([0] + sorted(extra)))
    v = singular.residue_count(spec, p)
    assert 1 <= v <= min(spec.k, p)


def test_admissibility_examples():
    assert singular.is_admissible((0, 2, 6))
    assert not singular.is_admissible((0, 2, 4))  # covers all classes mod 3
    assert singular.is_admissible((0, 2))


def test_tuple_spec_validation():
    for bad in [(), (2, 4), (0, 0), (0, 4, 2)]:
        with pytest.raises(ValidationError):
            TupleSpec(tuple(bad))


def test_tuple_spec_from_integers_translates():
    assert TupleSpec.from_integers([5, 7, 11]).offsets == (0, 2, 6)
    assert TupleSpec.from_integers([11, 5, 7]).offsets == (0, 2, 6)
    assert TupleSpec.from_integers([-2, 0, 4]).offsets == (0, 2, 6)
    for bad in ([], [0, True], [0, 2.0], [0, "2"]):  # a bool or non-integer is not translated
        with pytest.raises(ValidationError):
            TupleSpec.from_integers(bad)


def test_residue_count_accepts_large_prime_modulus():
    # 2^61 - 1 is a Mersenne prime; the deterministic Miller-Rabin path
    # must accept it and reject a nearby composite
    assert singular.residue_count((0, 2), 2**61 - 1) == 2
    with pytest.raises(ValidationError):
        singular.residue_count((0, 2), 2**61 + 1)  # 3 * ...


# ---------------------------------------------------------------------------
# Prime zeta and the cached generic products

def test_prime_zeta_matches_mpmath_at_50_digits():
    with mpmath.workdps(50):
        for s in range(2, 81):
            exact = mpmath.primezeta(s)
            assert abs(singular._prime_zeta(s) - exact) <= 2e-16 * exact, s
    with pytest.raises(ValidationError):
        singular._prime_zeta(1)


# (k, cutoff) -> (value, abs_error): the products the package evaluates, and
# the smallest cutoff the tail expansion admits
GENERIC_PRODUCTS = {
    (2, 10**4): (0.6601618158468696, 6.601620887137127e-14),
    (2, 10**5): (0.6601618158468696, 6.601620138954142e-14),
    (3, 10**5): (0.6351663546042714, 6.351678790035209e-14),
    (4, 10**5): (0.30749487875832715, 3.0749801520608735e-14),
    (2, 20): (0.6601618158468695, 6.601696517400228e-14),
}


def test_generic_products_pinned():
    for (k, cutoff), pinned in GENERIC_PRODUCTS.items():
        assert singular._generic_product(k, cutoff) == pinned
    assert singular._c2().value == 0.6601618158468696


# ---------------------------------------------------------------------------
# Twin prime constant

def test_twin_constant_accelerated_matches_reference():
    sv = singular.twin_prime_constant(1e-10)
    assert abs(sv.value - C2_REFERENCE) <= sv.abs_error
    assert abs(sv.value - C2_REFERENCE) < 1e-13


def test_twin_constant_accelerated_truncation_orders_agree():
    a = singular._generic_product(2, 10_000)
    b = singular._generic_product(2, 100_000)
    assert abs(a[0] - b[0]) <= a[1] + b[1]


def test_twin_constant_direct_bounds_are_honest():
    # the direct product's certified bound must dominate its true
    # truncation deviation, and its distance from the cached constant
    c2 = singular._c2()
    for p in (10_000, 100_000, 1_000_000):
        value, bound = oracles.twin_prime_direct(engine.prime_blocks(p), p)
        assert abs(value - C2_REFERENCE) <= bound
        assert abs(value - c2.value) <= bound + c2.abs_error
        assert bound < 1e-1  # and is not vacuous


def test_twin_constant_validation():
    for bad in (-1.0, math.nan, "x", True, False, 1e-3j):
        with pytest.raises(ValidationError):
            singular.twin_prime_constant(bad)
    with pytest.raises(PrecisionError):
        singular.twin_prime_constant(1e-16)
    with pytest.raises(PrecisionError):
        # above the precision floor but below the certified 6.6e-14
        singular.twin_prime_constant(5e-14)


def test_twin_constant_cached():
    # every target gets the one cached constant
    for target in (None, 1e-3, 1e-10):
        sv = singular.twin_prime_constant(target)
        assert sv is singular._c2()
        assert (sv.value, sv.abs_error) == (0.6601618158468696, 6.601620138954142e-14)


# ---------------------------------------------------------------------------
# Pair values

def test_pair_singular_odd_is_exact_zero():
    for d in (1, 3, 5, 99, 12345):
        sv = singular.pair_singular(d)
        assert sv.value == 0.0 and sv.abs_error == 0.0


def test_pair_singular_d6_doubles_d2():
    assert singular.pair_singular(6).value == 2 * singular.pair_singular(2).value


def test_pair_singular_powers_of_two_identical():
    v2 = singular.pair_singular(2)
    assert singular.pair_singular(4).value == v2.value
    assert singular.pair_singular(8).value == v2.value


def test_pair_singular_validation():
    with pytest.raises(ValidationError):
        singular.pair_singular(0)
    with pytest.raises(ValidationError):
        singular.pair_singular(-2)


def test_pair_singular_large_prime_factor():
    # a prime factor above 2^20
    p = 1_299_709  # the 10^5-th prime, > 2^20
    sv = singular.pair_singular(2 * p)
    expected = 2 * singular._c2().value * (p - 1) / (p - 2)
    assert sv.value == pytest.approx(expected, rel=1e-15)


def test_factoring_stops_at_a_prime_cofactor():
    # trial division up to sqrt(d) would take minutes on each of these
    m61 = 2**61 - 1
    assert singular._distinct_prime_factors(2 * m61) == [2, m61]
    # the cofactor is tested again after each factor found
    assert singular._distinct_prime_factors(2 * 1_299_709 * m61) == [2, 1_299_709, m61]
    singular._c2()
    start = time.perf_counter()
    sv = singular.pair_singular(2 * m61)
    assert time.perf_counter() - start < 1.0
    assert sv.value == pytest.approx(2 * singular._c2().value * (m61 - 1) / (m61 - 2), rel=1e-15)


def test_factoring_splits_two_large_factors():
    # trial division would walk to the smaller factor, 1e8 (seconds)
    d = 20_000_008_800_000_518
    start = time.perf_counter()
    factors = singular._distinct_prime_factors(d)
    assert time.perf_counter() - start < 1.0
    assert factors == [2, 100_000_007, 100_000_037]
    assert math.prod(factors) == d
    assert singular._distinct_prime_factors(7**2 * 1_000_003**2) == [7, 1_000_003]


def test_factoring_splits_a_composite_cofactor_above_2_64():
    # a Miller-Rabin witness proves 2^67 - 1 composite, so rho splits it;
    # trial division would walk to 193,707,721 (seconds)
    start = time.perf_counter()
    factors = singular._distinct_prime_factors(3 * (2**67 - 1))
    assert time.perf_counter() - start < 1.0
    assert factors == [3, 193_707_721, 761_838_257_287]
    assert singular._distinct_prime_factors(7 * 11 * (2**31 - 1) ** 2 * (2**61 - 1)) == [
        7, 11, 2**31 - 1, 2**61 - 1]


def test_factoring_matches_trial_division_below_2_16():
    for n in range(1, 1 << 16):
        assert singular._distinct_prime_factors(n) == oracles.distinct_prime_factors(n), n


def test_factoring_prime_powers():
    # rho must split p^k, whose cycles mod p and mod p^k can close together
    for p in filter(oracles.is_prime, range(7, 1 << 12)):
        q = p
        while q < 1 << 62:
            assert singular._distinct_prime_factors(q) == [p], (p, q)
            q *= p


def test_pair_singular_beyond_capacity_refused_quickly():
    # 2^89 - 1 is prime: no test here proves that, and trial division
    # to its square root would never end
    start = time.perf_counter()
    for d in (2 * (2**89 - 1), 2**63):
        with pytest.raises(CapacityError):
            singular.pair_singular(d)
    with pytest.raises(CapacityError):
        singular._distinct_prime_factors(2 * (2**89 - 1))
    assert time.perf_counter() - start < 1.0


_ORACLE_PRIMES = st.integers(min_value=2, max_value=999_983).map(
    lambda n: next(k for k in itertools.count(n) if oracles.is_prime(k))
)


@given(_ORACLE_PRIMES, _ORACLE_PRIMES)
def test_factoring_products_of_two_primes_match_trial_division(p, q):
    n = p * q
    assert singular._distinct_prime_factors(n) == oracles.distinct_prime_factors(n)


def test_tuple_singular_correction_prime_above_truncation():
    # a pairwise difference with a prime factor above the bound's P
    # still gets its exact local factor
    p = 1_299_709
    a = singular.tuple_singular((0, 2 * p))
    b = singular.pair_singular(2 * p)
    assert abs(a.value - b.value) <= 1e-12 * b.value


def test_pair_singular_floor():
    two_c2 = 2 * singular._c2().value
    for d in range(2, 400, 2):
        value = singular.pair_singular(d).value
        assert value >= two_c2 * (1 - 1e-12)
        ratio = value / two_c2
        assert ratio < 2.01 ** sum(1 for _ in singular._distinct_prime_factors(d))


@given(
    st.lists(st.sampled_from([3, 5, 7, 11, 13]), min_size=0, max_size=3, unique=True),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
def test_pair_singular_depends_only_on_odd_radical(radical, e1, e2):
    base = 1
    for p in radical:
        base *= p
    d1 = 2**e1 * base
    d2 = 2**e2 * base * base  # same odd radical, different multiplicity
    assert singular.pair_singular(d1).value == singular.pair_singular(d2).value


# ---------------------------------------------------------------------------
# General tuples

def test_tuple_singular_inadmissible_is_exact_zero():
    sv = singular.tuple_singular((0, 2, 4))
    assert sv == singular.SingularValue(0.0, 0.0)


def test_tuple_singular_k1_is_one():
    assert singular.tuple_singular((0,)).value == 1.0


def test_tuple_singular_matches_pair_route():
    for d in (2, 6, 30):
        a = singular.tuple_singular((0, d))
        b = singular.pair_singular(d)
        assert abs(a.value - b.value) <= a.abs_error + b.abs_error
        assert abs(a.value - b.value) < 1e-12 * b.value


def test_tuple_singular_against_direct_euler_product(oracle_primes_1e5):
    # Direct product over p <= 1e5 with per-prime residue counting:
    # an independent evaluation path for a known admissible triple.
    h = (0, 2, 6)
    log_parts = []
    for p in oracle_primes_1e5:
        v = len({x % p for x in h})
        log_parts.append(math.log1p(-v / p) - 3 * math.log1p(-1 / p))
    direct = math.exp(math.fsum(log_parts))
    sv = singular.tuple_singular(h)
    # the direct product still misses its tail: ~ k(k+1)/p over p > 1e5
    assert abs(sv.value - direct) < 3e-4 * direct
    assert abs(sv.value - 2.858248595679268) < 1e-9  # frozen from the direct route


def test_tuple_singular_quadruple_against_direct_product():
    # independent route for k = 4: per-prime residue counting over a
    # dense prime range, vectorised
    import numpy as np

    h = (0, 4, 6, 10)
    ps = np.concatenate(([2], engine._odd_base_primes(1_000_000))).astype(np.float64)
    v = np.zeros_like(ps)
    for p_idx in range(len(ps)):
        p = int(ps[p_idx])
        v[p_idx] = len({x % p for x in h})
    direct = math.exp(
        math.fsum((np.log1p(-v / ps) - 4 * np.log1p(-1.0 / ps)).tolist())
    )
    sv = singular.tuple_singular(h)
    # the direct product misses its own tail, ~ k(k+1)/P relative
    assert abs(sv.value - direct) <= 3e-5 * direct
    assert sv.value > 0


def test_tuple_singular_reflection_exact():
    for d in (8, 12, 30, 100):
        for h in range(1, d):
            left = singular.tuple_singular((0, h, d))
            right = singular.tuple_singular((0, d - h, d))
            assert left.value == right.value


def test_tuple_singular_translation_invariant():
    a = singular.tuple_singular(TupleSpec.from_integers([5, 7, 11]))
    b = singular.tuple_singular((0, 2, 6))
    assert a.value == b.value


def test_tuple_singular_nonnegative_and_zero_iff_inadmissible():
    specs = [(0, 2), (0, 2, 4), (0, 2, 6), (0, 1), (0, 6, 12), (0, 2, 6, 8)]
    for offsets in specs:
        sv = singular.tuple_singular(offsets)
        assert sv.value >= 0.0
        assert (sv.value == 0.0) == (not singular.is_admissible(offsets))


# ---------------------------------------------------------------------------
# Pair singular sums (the sweep)

def test_pair_sum_single_term():
    st_ = singular.pair_singular_sum(3)
    assert st_.total == pytest.approx(2 * singular._c2().value, rel=1e-15)


def test_pair_sum_hand_value_x7():
    st_ = singular.pair_singular_sum(7)
    assert st_.total == pytest.approx(8 * singular._c2().value, rel=1e-13)


def test_pair_sum_error_term_at_2():
    st_ = singular.pair_singular_sum(2)
    expected = 2 * singular._c2().value - 2 + math.log(2) / 2
    assert st_.error_term == pytest.approx(expected, abs=1e-12)


def test_pair_sum_matches_term_by_term():
    c2 = singular._c2().value
    for x in (2, 10, 100, 1234, 10_000):
        sweep = singular.pair_singular_sum(x).total
        direct = oracles.pair_singular_terms(x, c2)
        assert abs(sweep - direct) < 1e-9


def test_pair_sum_grid_consistent_with_singles():
    grid = singular.pair_singular_sum_grid([10, 100, 1000])
    for state in grid:
        single = singular.pair_singular_sum(state.limit)
        assert state.total == pytest.approx(single.total, rel=1e-14)


def test_pair_sum_monotone():
    totals = [singular.pair_singular_sum(x).total for x in (10, 50, 100, 500)]
    assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_pair_sum_validation():
    with pytest.raises(EmptyDomainError):
        singular.pair_singular_sum(1)
    with pytest.raises(CapacityError):
        singular.pair_singular_sum(10**9)


# ---------------------------------------------------------------------------
# Triple row sums

def test_triple_row_degenerate_d2():
    assert singular.triple_row_sum(2) == (0.0, 0.0, 0.0)


def test_triple_row_sum_d6():
    row = singular.triple_row_sum(6)
    pieces = [singular.tuple_singular((0, h, 6)).value for h in (2, 4)]
    assert pieces[0] == pieces[1]  # reflection
    assert row.sum == pytest.approx(sum(pieces), rel=1e-14)
    expected_ratio = row.sum / (6 * singular.pair_singular(6).value)
    assert row.ratio == pytest.approx(expected_ratio, rel=1e-14)


def test_triple_row_sum_validation():
    with pytest.raises(ValidationError):
        singular.triple_row_sum(7)
    with pytest.raises(ValidationError):
        singular.triple_row_sum(0)
    with pytest.raises(ValidationError):
        singular.triple_row_sum(-4)


def test_triple_row_sum_brute_force_small():
    # direct check at d = 12 against per-h evaluation
    row = singular.triple_row_sum(12)
    direct = sum(singular.tuple_singular((0, h, 12)).value for h in range(1, 12))
    assert row.sum == pytest.approx(direct, rel=1e-13)


def _scalar_row_sum(d):
    """The row sum as a loop over h of tuple_singular."""
    parts = []
    err = 0.0
    for h in range(1, d):
        sv = singular.tuple_singular((0, h, d))
        if sv.value:
            parts.append(sv.value)
            err += sv.abs_error
    total = math.fsum(parts)
    return (total, total / (d * singular.pair_singular(d).value), err)


def test_triple_row_sum_equals_scalar_loop_exactly():
    for d in [*range(4, 401, 2), 2310, 4096, 9702, 30030, 2 * 1009]:
        assert tuple(singular.triple_row_sum(d)) == _scalar_row_sum(d), d


# ---------------------------------------------------------------------------
# The pair sweep against the per-prime loop

@pytest.fixture(scope="module")
def oracle_primes_sweep() -> list[int]:
    return oracles.primes_upto(2 * 1009**2 // 2 + 1)


@pytest.mark.parametrize(
    "grid",
    [[x] for p in (101, 1009) for x in (2 * p * p - 2, 2 * p * p, 2 * p * p + 2)]
    + [[2 * p * p - 2, 2 * p * p, 2 * p * p + 2] for p in (101, 1009)]
    + [[10**3, 10**4, 10**5, 10**6], [10**3, 10**4], [2, 3, 7]],
)
def test_pair_sum_grid_equals_per_prime_sweep(grid, oracle_primes_sweep):
    # X // 2 lands on and around the prime squares 101^2 and 1009^2,
    # where a prime moves from the strided loop to the large-prime rounds
    states = singular.pair_singular_sum_grid(grid)
    expected = oracles.pair_singular_sum_grid(grid, singular._c2().value, oracle_primes_sweep)
    assert [(s.total, s.error_term) for s in states] == expected


@pytest.mark.parametrize("m_max", [101**2 - 1, 101**2, 101**2 + 1, 1009**2 - 1, 1009**2, 1018082])
def test_pair_weights_equal_per_prime_sweep(m_max, oracle_primes_sweep):
    # a slot's large prime factor must be multiplied in last, as the
    # per-prime loop does: applying it first moves ~1% of the slots by an ulp
    weights = singular._pair_weights(m_max)
    assert weights.tobytes() == oracles.pair_sweep_weights(m_max, oracle_primes_sweep).tobytes()


def test_pair_sum_peak_memory_is_the_weights():
    singular._c2()
    weights_bytes = 8 * ((10**6 // 2 + 1) // 2)
    tracemalloc.start()
    try:
        singular.pair_singular_sum_grid([10**6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * weights_bytes
