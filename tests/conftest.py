import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "lab",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lab")

from shipped import shipped


@pytest.fixture(scope="session")
def cat():
    return shipped()


@pytest.fixture(scope="session")
def cubic(cat):
    return cat["cubic_map"]


@pytest.fixture(scope="session")
def logistic(cat):
    return cat["logistic_map"]


@pytest.fixture(scope="session")
def coop(cat):
    return cat["linear_cooperative"]


@pytest.fixture(scope="session")
def dirichlet15(cat):
    return cat["dirichlet_cubic_15"]


@pytest.fixture(scope="session")
def dirichlet5(cat):
    return cat["dirichlet_cubic_5"]


@pytest.fixture(scope="session")
def neumann5(cat):
    return cat["neumann_cubic_5"]


@pytest.fixture(scope="session")
def ring5(cat):
    return cat["ring_cubic_5"]


@pytest.fixture(scope="session")
def radial15(cat):
    return cat["radial_cubic_15"]


@pytest.fixture
def value_calls(monkeypatch):
    """Count the closed-form maps: the returned list grows by one per
    ``AnalyticScalar.value`` call."""
    from monotone_lab.systems import AnalyticScalar

    calls, value = [], AnalyticScalar.value

    def spy(self, u, out=None):
        calls.append(1)
        return value(self, u, out)

    monkeypatch.setattr(AnalyticScalar, "value", spy)
    return calls
