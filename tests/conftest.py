import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

import oracles  # noqa: E402
from gapsum import engine  # noqa: E402

settings.register_profile(
    "gapsum",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("gapsum")


@pytest.fixture(scope="session")
def oracle_primes_1e5() -> list[int]:
    return oracles.primes_upto(100_000)


@pytest.fixture(scope="session")
def oracle_prime_set_1e5(oracle_primes_1e5) -> set[int]:
    return set(oracle_primes_1e5)


@pytest.fixture(autouse=True)
def fresh_gap_memos():
    """Start every test without remembered gap histograms or a kept gap stream,
    so each sieves its first pass."""
    engine._gap_histograms.clear()
    engine._kept_stream.clear()


@pytest.fixture
def set_segment_slots(monkeypatch):
    """A setter of ``engine.SEGMENT_SLOTS`` for the rest of the test.

    Setting it on the module is enough: a pass reads it in the caller's
    thread, and each task carries its own (lo, hi).
    """
    def set_slots(slots: int) -> None:
        monkeypatch.setattr(engine, "SEGMENT_SLOTS", slots)

    return set_slots
