import pytest

from eecsim.config import preset


@pytest.fixture(scope="session")
def scenario():
    """Default deployment used across the suite."""
    return preset()


@pytest.fixture(scope="session")
def radio(scenario):
    return scenario.radio


@pytest.fixture(scope="session")
def deploy(scenario):
    return scenario.deploy


@pytest.fixture(scope="session")
def task(scenario):
    return scenario.task
