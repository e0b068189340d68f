"""Empirical-vs-predicted comparison reports.

Each report row pairs an empirical quantity (a count or a streamed sum)
with its conjectural or theoretical main term and records the ratio.
The asymptotics involved converge at double- and triple-logarithmic
speed, so at any feasible scale these ratios are bounded-but-drifting
diagnostics, not limits; thresholds applied to them live in the test
suite and are configurable there, never here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

from . import engine, singular, sums
from .errors import ValidationError

# Constant in the three-prime sieve bound: 2^3 * 3!.
SIEVE_BOUND_CONSTANT = 48.0


@dataclass(frozen=True)
class VerificationReport:
    """One empirical-vs-predicted comparison row.

    ``ratio`` is empirical/predicted, or None when the prediction is
    zero or absent (the undefined flag).  Rows are immutable and
    round-trip bit-exactly through the CSV schema.
    """

    claim: str
    params: dict = field(default_factory=dict)
    empirical: float = math.nan
    predicted: float | None = None
    ratio: float | None = None
    notes: str = ""

    @staticmethod
    def build(claim, params, empirical, predicted, notes=""):
        ratio = None
        if predicted is not None and predicted != 0:
            ratio = empirical / predicted
        return VerificationReport(claim, params, empirical, predicted, ratio, notes)

    def to_csv_row(self) -> list[str]:
        return [
            self.claim,
            json.dumps(self.params, sort_keys=True, separators=(",", ":")),
            format_float(self.empirical),
            "" if self.predicted is None else format_float(self.predicted),
            "" if self.ratio is None else format_float(self.ratio),
            self.notes,
        ]

    @staticmethod
    def from_csv_row(row: Sequence[str]) -> "VerificationReport":
        claim, params, empirical, predicted, ratio, notes = row
        return VerificationReport(
            claim,
            json.loads(params),
            float(empirical),
            float(predicted) if predicted else None,
            float(ratio) if ratio else None,
            notes,
        )


def format_float(x: float) -> str:
    """17 significant digits: enough for exact float64 round-trips."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Main terms

def main_term_theorem1(limit: int, alpha: float, mode: str) -> float:
    """Leading asymptotic of the weighted gap sum.

    Index mode: (X/log X) (loglog X)^(1+a) / (1+a), degenerating to
    X logloglog X / log X at a = -1.  Prime-limit mode carries one more
    log in the denominator.  Note the index count below a prime bound X
    is X/log X by the prime number theorem, which is how the two modes
    interconvert.
    """
    x = float(engine._check_limit(limit, 16))
    alpha = engine._check_real(alpha, "alpha")
    if mode not in ("prime", "index"):
        raise ValidationError(f"mode must be 'prime' or 'index', got {mode!r}")
    log_x = math.log(x)
    ll = math.log(log_x)
    denom = log_x if mode == "index" else log_x**2
    if alpha == -1:
        return x * math.log(ll) / denom
    if alpha < -1:
        raise ValidationError("alpha must satisfy alpha >= -1")
    return (x / denom) * ll ** (1 + alpha) / (1 + alpha)


def main_term_corollary(limit: int, c: float) -> float | None:
    """Main term for the damped reciprocal series; None in the c > 2 regime.

    c < 2: (loglog X)^(2-c) / (2-c); c = 2: logloglog X; c > 2 the series
    converges to a constant with no closed form, so the prediction is a
    plateau estimate made by the caller.
    """
    x = float(engine._check_limit(limit, 16))
    c = engine._check_real(c, "c")
    ll = math.log(math.log(x))
    if c < 2:
        return ll ** (2 - c) / (2 - c)
    if c == 2:
        return math.log(ll)
    return None


# ---------------------------------------------------------------------------
# Claim-by-claim reports

def conjecture1_ratio(
    limit: int, d_list: Sequence[int], *, workers: int | None = None
) -> list[VerificationReport]:
    """Pair counts against S({0,d}) X / log^2 X for each d."""
    x = engine._check_limit(limit, 2)
    log_x = math.log(x)
    reports = []
    todo: list[int] = []
    for d in d_list:
        d = engine._check_limit(d, 1, "d")
        if d % 2:
            reports.append(
                VerificationReport(
                    "conjecture1", {"X": x, "d": d}, 0.0, 0.0, None, "singular series zero"
                )
            )
        elif d > log_x:
            reports.append(
                VerificationReport(
                    "conjecture1", {"X": x, "d": d}, math.nan, None, None,
                    "skipped: d exceeds log X",
                )
            )
        else:
            todo.append(d)
    counts = engine.tuple_counts(x, [(0, d) for d in todo], workers=workers)
    for d, count in zip(todo, counts):
        predicted = singular.pair_singular(d).value * x / log_x**2
        reports.append(
            VerificationReport.build("conjecture1", {"X": x, "d": d}, float(count), predicted)
        )
    reports.sort(key=lambda r: r.params["d"])
    return reports


def lemma21_error_curve(x_grid: Sequence[int]) -> list[VerificationReport]:
    """|sum_{d<=X} S({0,d}) - X + log(X)/2| against log^(2/3) X."""
    states = singular.pair_singular_sum_grid(list(x_grid))
    out = []
    for st in states:
        predicted = math.log(st.limit) ** (2.0 / 3.0)
        out.append(
            VerificationReport.build(
                "lemma21",
                {"X": st.limit},
                abs(st.error_term),
                predicted,
                notes=f"signed_error={format_float(st.error_term)}",
            )
        )
    return out


def lemma22_ratio_curve(d_list: Sequence[int]) -> list[VerificationReport]:
    """Row sums of triple singular series against d * S({0,d})."""
    out = []
    for d in d_list:
        d = engine._check_limit(d, 2, "d")
        row = singular.triple_row_sum(d)
        denom = d * singular.pair_singular(d).value
        out.append(
            VerificationReport.build(
                "lemma22",
                {"P": singular.BOUND_PRIME, "d": d},
                row.sum,
                denom,
                notes=f"abs_error={format_float(row.abs_error)}",
            )
        )
    return out


def default_sieve_samples(count: int = 20, d_max: int = 50) -> list[tuple[int, int]]:
    """The first ``count`` admissible (h, d) pairs with 0 < h < d <= d_max."""
    count = engine._check_limit(count, 1, "count")
    d_max = engine._check_limit(d_max, 6, "d_max")
    out = []
    for d in range(6, d_max + 1, 2):
        for h in range(2, d, 2):
            if singular.is_admissible((0, h, d)):
                out.append((h, d))
                if len(out) == count:
                    return out
    if len(out) < count:
        raise ValidationError(f"only {len(out)} admissible samples below d_max={d_max}")
    return out


def sieve_bound_check(
    limit: int,
    samples: Sequence[tuple[int, int]],
    *,
    workers: int | None = None,
) -> list[VerificationReport]:
    """Triple counts against the sieve upper bound 48 S(H) X / log^3 X.

    The bound is an upper estimate, so ratios must stay below 1 plus
    whatever slack the caller grants for the (1 + o(1)); a materially
    larger ratio indicates a bug, not a discovery.
    """
    x = engine._check_limit(limit, 2)
    log_x = math.log(x)
    reports = []
    todo = []
    for h, d in samples:
        h, d = engine._check_limit(h, 1, "h"), engine._check_limit(d, 2, "d")
        if h >= d:
            raise ValidationError(f"sample ({h}, {d}) must satisfy 0 < h < d")
        sv = singular.tuple_singular((0, h, d))
        if sv.value == 0:
            reports.append(
                VerificationReport(
                    "sieve_bound14", {"X": x, "d": d, "h": h}, math.nan, None, None,
                    "skipped: inadmissible tuple",
                )
            )
        else:
            todo.append((h, d, sv))
    counts = engine.tuple_counts(x, [(0, h, d) for h, d, _ in todo], workers=workers)
    for (h, d, sv), count in zip(todo, counts):
        predicted = SIEVE_BOUND_CONSTANT * sv.value * x / log_x**3
        reports.append(
            VerificationReport.build(
                "sieve_bound14",
                {"X": x, "d": d, "h": h},
                float(count),
                predicted,
                notes=f"singular_abs_error={format_float(sv.abs_error)}",
            )
        )
    return reports


def theorem1_ratio(
    limit: int,
    alpha: float,
    mode: str = "prime",
    *,
    workers: int | None = None,
) -> VerificationReport:
    """One weighted-sum ratio row; prime mode carries the range split in notes.

    Prime-limit mode is the default: it is the form the gap stream
    controls directly, and the index form follows by the X/log X index
    count.
    """
    x = engine._check_limit(limit, 16)
    alpha = engine._check_real(alpha, "alpha")
    weight = sums.WeightSpec(alpha)
    notes = ""
    if mode == "prime":
        split = sums.range_split_sum(x, weight, workers=workers)
        empirical = split.total
        notes = (
            f"low={format_float(split.low)};mid={format_float(split.mid)};"
            f"high={format_float(split.high)};y={format_float(split.threshold_y)}"
        )
    elif mode == "index":
        empirical = sums.weighted_gap_sum(weight, index_limit=x, snapshot_limits=[],
                                          workers=workers).value
    else:
        raise ValidationError(f"mode must be 'prime' or 'index', got {mode!r}")
    predicted = main_term_theorem1(x, alpha, mode)
    claim = "theorem1_prime" if mode == "prime" else "theorem1_index"
    return VerificationReport.build(
        claim, {"X": x, "alpha": alpha}, empirical, predicted, notes=notes
    )


def corollary_ratio(limit: int, c: float, *, workers: int | None = None) -> VerificationReport:
    """The damped reciprocal series against its regime-dependent prediction.

    For c > 2 the predicted value is the plateau (the final snapshot)
    and the reported uncertainty is the last inter-snapshot increment,
    since no closed form exists for the limiting constant.
    """
    x = engine._check_limit(limit, 16)
    c = engine._check_real(c, "c")
    grid = sums.default_snapshot_grid(x)
    series = sums.erdos_nathanson_series(x, c, snapshot_limits=grid, workers=workers)
    empirical = series[-1].value
    predicted = main_term_corollary(x, c)
    notes = ""
    if predicted is None:
        # Convergent regime: report the plateau as the constant estimate.
        predicted = empirical
        increment = abs(series[-1].value - series[-2].value) if len(series) > 1 else math.nan
        notes = (
            f"gamma_estimate={format_float(empirical)};"
            f"uncertainty={format_float(increment)};"
            f"heuristic_tail={format_float(sums.en_heuristic_tail(x, c))}"
        )
    return VerificationReport.build("corollary_c", {"X": x, "c": c}, empirical, predicted,
                                    notes=notes)
