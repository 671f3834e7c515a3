"""Fixtures shared across test modules."""
import pytest

from localgraphs.verify import run_suites


@pytest.fixture(scope="session")
def criterion9():
    """Criterion 9's result, run once per session: its girth-filter batches
    take seconds, and two modules check its detail."""
    return run_suites([9])[0]
