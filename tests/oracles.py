"""Independent brute-force reference implementations.

Everything here is deliberately naive and shares no code with the
package: trial division for primality, direct loops for counts and
sums, and a per-prime segment sieve for the vectorised kernel.  These
are the oracles the library is checked against.
"""

from __future__ import annotations

import math

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def primes_upto(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if is_prime(n)]


def byte_sieve_count(limit: int) -> int:
    """Second, independently coded simple sieve (odd-only bytearray)."""
    if limit < 2:
        return 0
    if limit == 2:
        return 1
    size = (limit - 1) // 2  # flags[i] represents 3 + 2i
    flags = bytearray(b"\x01") * size
    i = 0
    while True:
        p = 3 + 2 * i
        if p * p > limit:
            break
        if flags[i]:
            start = (p * p - 3) // 2
            count = len(range(start, size, p))
            flags[start::p] = b"\x00" * count
        i += 1
    return 1 + sum(flags)


def gap_list(prime_list: list[int]) -> list[int]:
    return [q - p for p, q in zip(prime_list, prime_list[1:])]


def tuple_count(limit: int, offsets, prime_set: set[int]) -> int:
    hmax = max(offsets)
    count = 0
    for n in range(1, limit - hmax + 1):
        if all(n + h in prime_set for h in offsets):
            count += 1
    return count


def gap_histogram(limit: int, prime_list: list[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for p, q in zip(prime_list, prime_list[1:]):
        if q <= limit:
            out[q - p] = out.get(q - p, 0) + 1
    return out


def weight(alpha: float, d: int) -> float:
    """One term log(d)^alpha / d of the weighted gap sum."""
    if alpha == 0:
        return 1.0 / d
    return math.log(d) ** alpha / d


def weighted_sum(alpha: float, gaps: list[int], start_index: int = 1) -> float:
    total = 0.0
    for n, d in enumerate(gaps, start=1):
        if n >= start_index:
            total += weight(alpha, d)
    return total


def en_sum(c: float, gaps: list[int], n_max: int) -> float:
    total = 0.0
    for n, d in enumerate(gaps, start=1):
        if n < 3 or n > n_max:
            continue
        total += 1.0 / (d * n * math.log(math.log(n)) ** c)
    return total


def pair_singular_terms(x: int, c2: float) -> float:
    """Term-by-term sum of S({0,d}) for d <= x (odd d contribute 0)."""
    total = 0.0
    for d in range(2, x + 1, 2):
        m = d
        while m % 2 == 0:
            m //= 2
        factor = 1.0
        p = 3
        while p * p <= m:
            if m % p == 0:
                factor *= (p - 1) / (p - 2)
                while m % p == 0:
                    m //= p
            p += 2
        if m > 1:
            factor *= (m - 1) / (m - 2)
        total += 2.0 * c2 * factor
    return total


def segment_mask(lo: int, hi: int, base) -> np.ndarray:
    """Plain segmented sieve: mask over odd integers in [lo, hi), True = prime.

    One strided slice assignment per base prime p with p^2 < hi, from the
    first odd multiple of p that is >= max(p^2, lo).  ``lo`` is odd and
    >= 3; ``base`` holds at least the odd primes <= sqrt(hi - 1), in order.
    """
    n_slots = (hi - lo + 1) // 2
    mask = np.ones(n_slots, dtype=bool)
    for p in base:
        p = int(p)
        if p * p >= hi:
            break
        start = p * p
        if start < lo:
            start = ((lo + p - 1) // p) * p
            if start % 2 == 0:
                start += p
        if start < hi:
            mask[(start - lo) // 2 :: p] = False
    return mask
