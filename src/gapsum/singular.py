"""Hardy-Littlewood singular series with certified error bounds.

For a tuple H = {0, h_1, ..., h_{k-1}} the singular series is the Euler
product over all primes

    S(H) = prod_p (1 - v_H(p)/p) * (1 - 1/p)^(-k),

where v_H(p) counts the distinct residues of H mod p.  The key structural
fact used throughout this module: v_H(p) = k exactly when p divides none
of the pairwise differences of H (and p > k), so all but finitely many
factors equal the "generic" factor g_k(p) = (1 - k/p)(1 - 1/p)^(-k).
Values are therefore assembled as

    [exact factors for p <= k and p | diff(H)] * prod_{p > k} g_k(p)
    with one rational correction (p - v)/(p - k) per prime p > k
    dividing a pairwise difference.

The infinite generic product is evaluated once per k to ~1e-13 certified
relative error (direct product to Q, then a tail expansion in the prime
zeta function P(s), taken from ``mpmath.primezeta``) and cached; every
downstream value inherits that single audited error source.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from mpmath import mp

from . import engine
from .errors import CapacityError, PrecisionError, ValidationError

# Cutoff between the directly-multiplied head and the prime-zeta tail of
# the cached generic products.
_CONSTANT_CUTOFF = 100_000

# Relative error claimed for the cached constants.  The true arithmetic
# error (exactly-rounded log sums, P(s) from mpmath at 30 digits, which
# holds full float64 accuracy at every s, and one exp) is below 1e-15;
# the claim keeps two orders of margin.
_CONSTANT_REL_ERROR = 1e-13

# Certified relative error below which float64 results are not issued.
_PRECISION_FLOOR = 1e-14

# The prime P of the conventional tuple bound (``_tuple_rel_bound``);
# reports carry it as their "P" param.
BOUND_PRIME = 1_000_000


# ---------------------------------------------------------------------------
# Tuple specifications

@dataclass(frozen=True)
class TupleSpec:
    """A candidate tuple {0, h_1, ..., h_{k-1}} with cached admissibility."""

    offsets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "offsets", engine._normalize_offsets(self.offsets))

    @classmethod
    def from_integers(cls, values: Iterable[int]) -> "TupleSpec":
        """Normalize an arbitrary set of distinct integers by translation."""
        low = -engine.CAPACITY_LIMIT  # any integer, negative ones too; no bool
        vals = sorted({engine._check_limit(v, low, "tuple value") for v in values})
        if not vals:
            raise ValidationError("tuple offsets must be non-empty")
        base = vals[0]
        return cls(tuple(v - base for v in vals))

    @property
    def k(self) -> int:
        return len(self.offsets)

    def residues(self, p: int) -> int:
        return len({h % p for h in self.offsets})

    @property
    def admissible(self) -> bool:
        """True iff no prime modulus is fully covered.

        Primes p > k can never be covered (v <= k < p), so only p <= k
        need checking.
        """
        small = filter(engine._is_prime, range(2, self.k + 1))
        return all(self.residues(p) < p for p in small)

    def pairwise_differences(self) -> list[int]:
        off = self.offsets
        return [off[j] - off[i] for i in range(len(off)) for j in range(i + 1, len(off))]


def _coerce_tuple(h) -> TupleSpec:
    if isinstance(h, TupleSpec):
        return h
    return TupleSpec(tuple(h))


def residue_count(h, p: int) -> int:
    """v_H(p): the number of distinct residue classes of H modulo p."""
    p = engine._check_limit(p, 2, "modulus")
    if not engine._is_prime(p):
        raise ValidationError(f"modulus {p} is not prime")
    return _coerce_tuple(h).residues(p)


def is_admissible(h) -> bool:
    return _coerce_tuple(h).admissible


# ---------------------------------------------------------------------------
# Small factorization helpers

def _distinct_prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, smallest first; n must be >= 1.

    2, 3 and 5 are divided out and the cofactor goes to
    ``_odd_prime_factors``.  At n = 0 the divide-out loop would never end.
    """
    out: list[int] = []
    for p in (2, 3, 5):
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        out.extend(sorted(_odd_prime_factors(n)))
    return out


def _odd_prime_factors(n: int) -> set[int]:
    """Distinct prime factors of an odd n > 1.

    Miller-Rabin with ``engine._MR_BASES`` proves n prime below 2^64, and
    a witness proves n composite at any size.  A composite is split by
    Pollard-Brent rho and each part factored under the same rule.  A
    cofactor at or above 2^64 that Miller-Rabin calls probably prime
    raises CapacityError, since no primality test here is proven that
    far; d and tuple offsets are capped at 2^63 - 1, so none reaches it.
    """
    if not engine._is_prime(n):
        f = _brent_factor(n)
        return _odd_prime_factors(f) | _odd_prime_factors(n // f)
    if n >= 1 << 64:
        raise CapacityError(f"cannot prove the cofactor {n} prime: it is at or above 2^64")
    return {n}


def _brent_factor(n: int) -> int:
    """A proper factor of an odd composite n (Brent's variant of Pollard rho).

    Iterates y -> y^2 + c mod n from y = 2, batching 128 differences into
    one gcd and backtracking one step at a time when a batch overshoots;
    c = 1, 2, ... until the factor is proper, so the result is
    deterministic.
    """
    batch = 128
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


# ---------------------------------------------------------------------------
# Cached generic products and the prime zeta tail

@lru_cache(maxsize=64)
def _prime_zeta(s: int) -> float:
    """P(s) = sum_p p^(-s), from ``mpmath.primezeta`` at 30 digits."""
    if s < 2:
        raise ValidationError("prime zeta is evaluated for integer s >= 2 only")
    with mp.workdps(30):
        return float(mp.primezeta(s))


@lru_cache(maxsize=1)
def _constant_primes() -> np.ndarray:
    odd = engine._odd_base_primes(_CONSTANT_CUTOFF)
    return np.concatenate(([2], odd)).astype(np.float64)


@lru_cache(maxsize=32)
def _generic_product(k: int, cutoff: int = _CONSTANT_CUTOFF) -> tuple[float, float]:
    """prod_{p > k} (1 - k/p)(1 - 1/p)^(-k) with a certified error bound.

    Head: direct product over k < p <= cutoff (exactly-rounded log sum).
    Tail: log prod_{p > cutoff} g_k(p) = -sum_{m>=2} ((k^m - k)/m) * T(m)
    where T(m) = P(m) - sum_{p <= cutoff} p^(-m).  The m-series is cut
    once the certified bound on a term drops below 1e-18; the remainder
    is geometric with ratio ~2k/cutoff.

    Returns (value, abs_error).
    """
    if k < 2:
        raise ValidationError("generic product needs k >= 2")
    if cutoff < max(20, 10 * k):
        raise ValidationError("cutoff too small for the tail expansion")
    ps = _constant_primes()
    if cutoff != _CONSTANT_CUTOFF:
        ps = ps[ps <= cutoff]
    head_ps = ps[ps > k]
    head = math.fsum((np.log1p(-k / head_ps) - k * np.log1p(-1.0 / head_ps)).tolist())
    tail = 0.0
    trunc = 0.0
    m = 2
    while True:
        coef = (k**m - k) / m
        partial = math.fsum((ps**-m).tolist())
        tail -= coef * (_prime_zeta(m) - partial)
        m += 1
        bound = ((k**m - k) / m) * ((cutoff + 1.0) ** -m + (cutoff + 1.0) ** (1 - m) / (m - 1))
        if bound < 1e-18:
            trunc = 2.0 * bound
            break
    value = math.exp(head + tail)
    return value, value * (_CONSTANT_REL_ERROR + trunc)


# ---------------------------------------------------------------------------
# Public value types

@dataclass(frozen=True)
class SingularValue:
    """A singular-series value with a certified absolute error bound."""

    value: float
    abs_error: float


@dataclass(frozen=True)
class PairSumState:
    """Running sum of S({0,d}) for d <= limit and its centered error term."""

    limit: int
    total: float
    error_term: float


class RowSum(NamedTuple):
    sum: float
    ratio: float
    abs_error: float


# ---------------------------------------------------------------------------
# The twin-prime constant

@lru_cache(maxsize=1)
def _c2() -> SingularValue:
    """C2 = prod_{p > 2} (1 - 1/(p-1)^2), the generic product for k = 2.

    Certified to ~6.6e-14 and cached per process; every pair value and
    pair sum reads it.
    """
    return SingularValue(*_generic_product(2))


def twin_prime_constant(target_error: float | None = None) -> SingularValue:
    """C2 = prod_{p > 2} (1 - 1/(p-1)^2) with its certified error bound.

    The value is ``_c2()``: the product over p <= 100,000 times a tail
    expansion in the prime zeta function (Wrench, Math. Comp. 15, 1961),
    certified to ~6.6e-14.  A ``target_error``, when given, must be a
    positive finite real number (not a bool) and at least 1e-14;
    PrecisionError is raised if the certified bound exceeds it.
    """
    if target_error is not None:
        if engine._check_real(target_error, "target_error") <= 0:
            raise ValidationError(f"target_error must be positive, got {target_error!r}")
        if target_error < _PRECISION_FLOOR:
            raise PrecisionError(
                f"cannot certify below {_PRECISION_FLOOR} in double precision"
            )
    result = _c2()
    if target_error is not None and result.abs_error > target_error:
        raise PrecisionError(
            f"certified bound {result.abs_error:.3e} exceeds target {target_error:.3e}"
        )
    return result


# ---------------------------------------------------------------------------
# Pair and tuple values

def pair_singular(d: int) -> SingularValue:
    """S({0, d}): 0 for odd d, else 2 C2 prod_{p | d, p > 2} (p-1)/(p-2).

    The rational factor depends only on the odd primes dividing d and is
    carried as an exact integer fraction until the final division, so
    the error bound is inherited from C2 alone.
    """
    d = engine._check_limit(d, 1, "d")
    if d % 2:
        return SingularValue(0.0, 0.0)
    num = 1
    den = 1
    for p in _distinct_prime_factors(d):
        if p > 2:
            num *= p - 1
            den *= p - 2
    c2 = _c2()
    ratio = num / den
    value = 2.0 * ratio * c2.value
    err = 2.0 * ratio * c2.abs_error + 4e-16 * value
    return SingularValue(value, err)


def _tuple_rel_bound(k: int) -> float:
    """The certified relative error of a k-tuple value.

    The conventional shape e^(k(k+1)/(P-1)) - 1 at P = ``BOUND_PRIME``,
    plus the generic product's own relative error.  Every value is
    assembled from the cached product, so the first part is not an error
    it makes: the bound over-covers the ~1e-13 the value carries.
    """
    gen, gen_err = _generic_product(k)
    return math.expm1(k * (k + 1) / (BOUND_PRIME - 1)) + gen_err / gen


def tuple_singular(h) -> SingularValue:
    """S(H) for a general tuple, assembled from the cached generic product.

    The factors for p <= k and for every prime dividing a pairwise
    difference are exact; the rest are generic by construction, so the
    returned value carries no neglected-structure error.  The certified
    bound is value * ``_tuple_rel_bound(k)``.
    """
    spec = _coerce_tuple(h)
    k = spec.k
    if k == 1:
        return SingularValue(1.0, 0.0)
    if not spec.admissible:
        return SingularValue(0.0, 0.0)
    value = 1.0
    for p in filter(engine._is_prime, range(2, k + 1)):
        v = spec.residues(p)
        value *= (1.0 - v / p) * (1.0 - 1.0 / p) ** -k
    value *= _generic_product(k)[0]
    correction_primes: set[int] = set()
    for diff in spec.pairwise_differences():
        correction_primes.update(q for q in _distinct_prime_factors(diff) if q > k)
    for q in sorted(correction_primes):
        v = spec.residues(q)
        value *= (q - v) / (q - k)
    return SingularValue(value, value * _tuple_rel_bound(k))


# ---------------------------------------------------------------------------
# Aggregate sums

_PAIR_SWEEP_CAP = 100_000_000  # 8 bytes per odd number below limit/2

# Primes above sqrt(m_max) per fancy-index round of the pair sweep; the
# round's temporaries are a few arrays of this length.
_SWEEP_CHUNK = 2048


def _pair_weights(m_max: int) -> np.ndarray:
    """h(m) = prod_{p | m} (p-1)/(p-2) at slot (m-1)/2 for odd m <= m_max.

    Each slot's factors are multiplied in increasing p, whatever route a
    prime takes.  Primes p <= sqrt(m_max) make one strided multiply each.
    An odd m <= m_max has at most one prime factor above sqrt(m_max) and
    that factor comes last, so the larger primes are applied afterwards,
    a chunk at a time: each round multiplies every prime's next odd
    multiple by one fancy-index multiply (no slot twice in a round, as the
    multiples of distinct large primes are distinct), then advances each
    slot by p.  Every slot sees the same rounded products in the same
    order as a per-prime loop, so the weights are identical bit for bit.
    """
    primes = engine._odd_base_primes(m_max)  # before the weights: the sieve's temporaries are gone
    weights = np.ones(max((m_max + 1) // 2, 1))  # odd m = 2i + 1
    n_small = int(np.searchsorted(primes, math.isqrt(m_max), side="right"))
    for p in primes[:n_small].tolist():
        weights[(p - 1) // 2 :: p] *= (p - 1.0) / (p - 2.0)
    for lo in range(n_small, len(primes), _SWEEP_CHUNK):
        ps = primes[lo : lo + _SWEEP_CHUNK]
        factors = (ps - 1.0) / (ps - 2.0)
        slots = (ps - 1) // 2
        while len(slots):
            weights[slots] *= factors
            slots += ps
            live = int(np.searchsorted(slots, len(weights)))  # slots rise with p
            ps, factors, slots = ps[:live], factors[:live], slots[:live]
    return weights


def pair_singular_sum_grid(limits: Sequence[int]) -> list[PairSumState]:
    """sum_{d <= X} S({0, d}) for every X in ``limits``, in one sweep.

    Writing even d = 2^a * m with m odd, S({0, d}) = 2 C2 h(m) where
    h(m) = prod_{p | m} (p-1)/(p-2).  The sweep builds h for all odd
    m <= max(limits)/2 (``_pair_weights``, identical bit for bit to one
    strided multiply per odd prime), then reads the total for each X as
    sum_{a >= 1} H(X >> a) with H a prefix sum.  Peak memory is the
    weights plus one chunk of the large-prime rounds.

    The error term is total - X + log(X)/2.
    """
    xs = [engine._check_limit(x, 2, "X") for x in limits]
    if not xs:
        raise ValidationError("at least one limit is required")
    x_max = max(xs)
    if x_max > _PAIR_SWEEP_CAP:
        raise CapacityError(
            f"sweep limit {x_max} above the documented memory cap {_PAIR_SWEEP_CAP}"
        )
    weights = _pair_weights(x_max // 2)

    cut_slots = sorted({(x >> a) + 1 >> 1 for x in xs for a in range(1, x.bit_length())})
    prefix: dict[int, float] = {}
    running: list[float] = []
    prev = 0
    for c in cut_slots:
        running.append(float(np.sum(weights[prev:c])))
        prefix[c] = math.fsum(running)
        prev = c
    c2 = 2.0 * _c2().value
    out = []
    for x in xs:
        total = c2 * math.fsum(
            prefix[(x >> a) + 1 >> 1] for a in range(1, x.bit_length()) if (x >> a) >= 1
        )
        out.append(PairSumState(x, total, total - x + math.log(x) / 2))
    return out


def pair_singular_sum(limit: int) -> PairSumState:
    """Single-limit form of ``pair_singular_sum_grid``."""
    return pair_singular_sum_grid([limit])[0]


def triple_row_sum(d: int) -> RowSum:
    """sum_{h=1}^{d-1} S({0, h, d}) and its ratio to d * S({0, d}).

    Only even d is meaningful (odd d makes every pair {0, d} odd-spaced).
    d = 2 is degenerate: the single row entry {0, 1, 2} is inadmissible,
    so the sum and ratio are exactly 0.

    The row is one float64 array over the even h = 2i (odd h is
    inadmissible mod 2), built with the same multiplications per h as
    ``tuple_singular((0, h, d))``: the p = 2 and p = 3 factors from
    v = |{0, h, d} mod 3| (zero when v = 3), the generic product, then for
    each prime q > 3 in increasing order (q - v)/(q - 3) wherever q divides
    h, d - h or d.  Each entry is therefore that value bit for bit; the
    sum is ``math.fsum`` of them and the error bound their left-to-right
    sum, as a loop over h would give.
    """
    d = engine._check_limit(d, 2, "d")
    if d % 2:
        raise ValidationError("row sums are defined for even d >= 2")
    if d == 2:
        return RowSum(0.0, 0.0, 0.0)
    gen = _generic_product(3)[0]
    # the value before the corrections, by v = |{0, h, d} mod 3|: the
    # p = 2 factor is 4 for even h, and v = 3 is inadmissible
    start = np.zeros(4)
    for v in (1, 2):
        start[v] = 4.0 * ((1.0 - v / 3) * (1.0 - 1.0 / 3) ** -3) * gen
    half = d // 2
    h3 = np.arange(0, d, 2) % 3  # h = 2i; i = 0 is not in the row
    row = start[1 + (h3 != 0) + ((h3 != d % 3) & (d % 3 != 0))]
    row[0] = 0.0
    for q in engine._odd_base_primes(half)[1:].tolist():  # from 5 on
        if half % q:  # q | h iff q | i, and q | d - h iff q | half - i
            row[q::q] *= (q - 2) / (q - 3)
            row[half % q :: q] *= (q - 2) / (q - 3)
        else:  # q | d: v = 1 where q | h, else 2
            divisible = row[q::q] * ((q - 1) / (q - 3))
            row *= (q - 2) / (q - 3)
            row[q::q] = divisible
    values = row[row != 0.0]
    total = math.fsum(values.tolist())
    errors = values * _tuple_rel_bound(3)
    err = float(np.cumsum(errors)[-1]) if len(errors) else 0.0
    denom = d * pair_singular(d).value
    return RowSum(total, total / denom, err)
