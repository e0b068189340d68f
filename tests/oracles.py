"""Independent brute-force reference implementations.

Everything here is deliberately naive and shares no code with the
package: trial division for primality, direct loops for counts and
sums, a per-prime segment sieve for the vectorised kernel, a
per-prime sweep for the pair singular sums and the direct Euler product
for the twin-prime constant.  These are the oracles the library is
checked against.
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


def distinct_prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 by trial division, smallest first."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


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


def twin_prime_direct(prime_blocks, p_cut: int) -> tuple[float, float]:
    """(value, bound): C2 = prod_{p > 2} (1 - 1/(p-1)^2) truncated at p_cut.

    ``prime_blocks`` yields arrays of the odd primes <= p_cut, in order.
    The log of each factor is summed per array and the array sums by
    ``math.fsum``.  The bound is value * (tail + 1e-14), where the tail
    bound for sum_{q > p_cut} 1/(q-1)^2 is the smaller of 1/(p_cut - 1)
    and partial summation against pi(x) < 1.25506 x / log x
    (Rosser-Schoenfeld); the 1e-14 covers the rounding of the sum.
    """
    parts = []
    for block in prime_blocks:
        q = np.asarray(block, dtype=np.float64)
        parts.append(float(np.sum(np.log1p(-((q - 1.0) ** -2)))))
    value = math.exp(math.fsum(parts))
    simple = 1.0 / (p_cut - 1)
    rs = (2 * 1.25506 / math.log(p_cut)) * (1.0 / (p_cut - 1) + 0.5 / (p_cut - 1) ** 2)
    return value, value * (min(simple, rs) + 1e-14)


def pair_sweep_weights(m_max: int, prime_list: list[int]) -> np.ndarray:
    """weights[i] = h(2i + 1) = prod_{p | 2i+1} (p-1)/(p-2) for odd 2i + 1 <= m_max.

    One strided multiply per odd prime in increasing order; ``prime_list``
    holds at least the primes <= m_max.
    """
    weights = np.ones(max((m_max + 1) // 2, 1))
    for p in prime_list:
        if p > m_max:
            break
        if p > 2:
            weights[(p - 1) // 2 :: p] *= (p - 1.0) / (p - 2.0)
    return weights


def pair_singular_sum_grid(limits, c2: float, prime_list: list[int]) -> list[tuple[float, float]]:
    """(total, error term) of sum_{d <= X} S({0,d}) for each X in ``limits``.

    The per-prime sweep of ``pair_sweep_weights`` up to max(limits) // 2,
    then the prefix of the weights summed in the pieces cut at every
    X >> a, as the library sums them.
    """
    weights = pair_sweep_weights(max(limits) // 2, prime_list)
    cuts = sorted({(x >> a) + 1 >> 1 for x in limits for a in range(1, x.bit_length())})
    prefix = {}
    running = []
    prev = 0
    for c in cuts:
        running.append(float(np.sum(weights[prev:c])))
        prefix[c] = math.fsum(running)
        prev = c
    out = []
    for x in limits:
        total = 2.0 * c2 * math.fsum(prefix[(x >> a) + 1 >> 1] for a in range(1, x.bit_length()))
        out.append((total, total - x + math.log(x) / 2))
    return out


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
