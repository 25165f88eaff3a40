import pytest

from intent_bench import pool
from intent_bench.dataset import synth_cohort


@pytest.fixture(scope="session")
def cohort16():
    """The default 16-participant cohort used by the end-to-end gates."""
    return synth_cohort(42, participants=16)


@pytest.fixture(scope="session")
def cohort8():
    return synth_cohort(11, participants=8)


@pytest.fixture(scope="session")
def cohort4():
    return synth_cohort(5, participants=4)


@pytest.fixture
def cores(monkeypatch):
    """Set the usable cores `map_tasks` sees: 2 runs the worker on a one-core host too, 1 runs serially."""
    return lambda n: monkeypatch.setattr(pool, "usable_cores", lambda: n)
