import csv
import io
import math

import pytest
from hypothesis import given, strategies as st

import oracles
from gapsum import singular, sums, verify
from gapsum.errors import CapacityError, ValidationError
from gapsum.verify import VerificationReport


def test_conjecture1_hand_case():
    reports = verify.conjecture1_ratio(100, [2])
    (rep,) = reports
    assert rep.empirical == 8.0
    assert rep.predicted == pytest.approx(6.2257, abs=2e-4)
    assert rep.ratio == pytest.approx(1.285, abs=1e-3)


def test_conjecture1_bracket_at_1e6():
    # recorded behaviour at modest scale: the o(1) has no rate, but the
    # twin ratio sits well inside [0.9, 1.4] here
    (rep,) = verify.conjecture1_ratio(10**6, [2])
    assert 0.9 <= rep.ratio <= 1.4


def test_conjecture1_skips():
    reports = verify.conjecture1_ratio(100, [3, 50])
    by_d = {r.params["d"]: r for r in reports}
    assert by_d[3].notes == "singular series zero"
    assert by_d[3].ratio is None
    assert "exceeds log X" in by_d[50].notes


def test_lemma21_hand_case_x2():
    (rep,) = verify.lemma21_error_curve([2])
    expected = abs(2 * singular._c2().value - 2 + math.log(2) / 2)
    assert rep.empirical == pytest.approx(expected, abs=1e-12)
    assert rep.predicted == pytest.approx(math.log(2) ** (2 / 3))


def test_lemma21_curve_bounded():
    reports = verify.lemma21_error_curve([10**3, 10**4, 10**5])
    for rep in reports:
        assert rep.ratio < 2.0


def test_lemma22_degenerate_and_small():
    reports = verify.lemma22_ratio_curve([2, 6])
    by_d = {r.params["d"]: r for r in reports}
    assert by_d[2].empirical == 0.0
    assert by_d[2].ratio == 0.0
    row = singular.triple_row_sum(6)
    assert by_d[6].ratio == pytest.approx(row.ratio, rel=1e-14)


def test_sieve_bound_skips_inadmissible():
    reports = verify.sieve_bound_check(10_000, [(2, 4), (2, 6)])
    by = {(r.params["h"], r.params["d"]): r for r in reports}
    assert "inadmissible" in by[(2, 4)].notes
    assert by[(2, 6)].ratio is not None


def test_sieve_bound_small_x_ratio_recorded(oracle_prime_set_1e5):
    (rep,) = [
        r for r in verify.sieve_bound_check(10_000, [(2, 6)]) if r.ratio is not None
    ]
    count = oracles.tuple_count(10_000, (0, 2, 6), oracle_prime_set_1e5)
    assert rep.empirical == count
    expected = 48 * singular.tuple_singular((0, 2, 6)).value * 10_000 / math.log(10_000) ** 3
    assert rep.predicted == pytest.approx(expected, rel=1e-12)


def test_sieve_bound_sample_validation():
    with pytest.raises(ValidationError):
        verify.sieve_bound_check(10_000, [(6, 2)])  # h must be below d


def test_theorem1_mode_validation():
    with pytest.raises(ValidationError):
        verify.theorem1_ratio(10_000, 0.0, "both")


def test_default_sieve_samples():
    samples = verify.default_sieve_samples()
    assert len(samples) == 20
    assert all(d <= 50 and 0 < h < d for h, d in samples)
    assert all(singular.is_admissible((0, h, d)) for h, d in samples)
    assert verify.default_sieve_samples(1) == samples[:1]
    for count, d_max in ((0, 50), (-1, 50), (2.5, 50), (20, 4), (20, 50.5)):
        with pytest.raises(ValidationError):
            verify.default_sieve_samples(count, d_max)


def test_main_term_theorem1_formulas():
    x = 10**6
    log_x = math.log(x)
    ll = math.log(log_x)
    assert verify.main_term_theorem1(x, 0.0, "index") == pytest.approx(x / log_x * ll)
    assert verify.main_term_theorem1(x, 1.0, "prime") == pytest.approx(
        x / log_x**2 * ll**2 / 2
    )
    assert verify.main_term_theorem1(x, -1.0, "prime") == pytest.approx(
        x * math.log(ll) / log_x**2
    )
    with pytest.raises(ValidationError):
        verify.main_term_theorem1(x, -2.0, "prime")
    with pytest.raises(ValidationError):
        verify.main_term_theorem1(15, 0.0, "prime")
    for limit, alpha in ((x, math.nan), (x, math.inf), (math.nan, 0.0), (1e6 + 0.5, 0.0)):
        with pytest.raises(ValidationError):
            verify.main_term_theorem1(limit, alpha, "prime")
    with pytest.raises(CapacityError):
        verify.main_term_theorem1(10**400, 0.0, "prime")


def test_main_term_corollary_cases():
    x = 10**6
    ll = math.log(math.log(x))
    assert verify.main_term_corollary(x, 0.0) == pytest.approx(ll**2 / 2)
    assert verify.main_term_corollary(x, 2.0) == pytest.approx(math.log(ll))
    assert verify.main_term_corollary(x, 3.0) is None
    for limit, c in ((x, math.nan), (x, math.inf), (math.nan, 0.0), (1e6 + 0.5, 0.0)):
        with pytest.raises(ValidationError):
            verify.main_term_corollary(limit, c)
    with pytest.raises(CapacityError):
        verify.main_term_corollary(10**400, 0.0)


def test_theorem1_smoke_x16():
    rep = verify.theorem1_ratio(16, 0.0, "prime")
    assert rep.empirical == pytest.approx(2.75)
    assert rep.predicted > 0
    assert "low=" in rep.notes


def test_theorem1_prime_total_matches_split():
    rep = verify.theorem1_ratio(10_000, 0.0, "prime")
    total = sums.weighted_gap_sum(sums.WeightSpec(0.0), prime_limit=10_000)
    assert rep.empirical == pytest.approx(total.value, rel=1e-12)


def test_theorem1_index_mode():
    rep = verify.theorem1_ratio(10_000, 0.0, "index")
    snap = sums.weighted_gap_sum(sums.WeightSpec(0.0), index_limit=10_000)
    assert rep.empirical == snap.value
    assert rep.claim == "theorem1_index"


def test_corollary_c_regimes():
    rep = verify.corollary_ratio(10_000, 0.0)
    assert rep.predicted == pytest.approx(math.log(math.log(10_000)) ** 2 / 2)
    rep = verify.corollary_ratio(10_000, 3.0)
    assert rep.ratio == 1.0  # plateau prediction equals the final value
    assert "gamma_estimate" in rep.notes and "heuristic_tail" in rep.notes


def test_report_ratio_flag():
    rep = VerificationReport.build("conjecture1", {"d": 3}, 0.0, 0.0)
    assert rep.ratio is None


def test_report_csv_round_trip_bit_exact():
    nasty = [1 / 3, 1e-300, 2.858248595679268, 6.02e23, -0.0, math.pi]
    for value in nasty:
        rep = VerificationReport.build(
            "lemma21", {"X": 7, "note": "a,b"}, value, value * 3 or 1.0, notes="x,y;z"
        )
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rep.to_csv_row())
        (row,) = list(csv.reader(io.StringIO(buf.getvalue())))
        back = VerificationReport.from_csv_row(row)
        assert back.empirical == rep.empirical
        assert back.predicted == rep.predicted
        assert back.ratio == rep.ratio
        assert back.params == rep.params
        assert back.notes == rep.notes


def test_format_float_round_trips():
    for x in [1 / 3, 1e308, 5e-324, 0.1 + 0.2, math.e]:
        assert float(verify.format_float(x)) == x


@given(st.floats(allow_nan=False, allow_infinity=True))
def test_format_float_round_trips_everywhere(x):
    assert float(verify.format_float(x)) == x


@given(
    st.floats(min_value=0, max_value=1e12),
    st.floats(min_value=1e-12, max_value=1e12),
)
def test_report_round_trip_property(empirical, predicted):
    rep = VerificationReport.build("lemma22", {"d": 6}, empirical, predicted)
    back = VerificationReport.from_csv_row(rep.to_csv_row())
    assert back == rep
