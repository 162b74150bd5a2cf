import numpy as np
import pytest
from hypothesis import settings as hyp_settings

from maassperiods import Settings
from maassperiods.specfun import WhittakerTable
from maassperiods.verify import Context, check

hyp_settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
hyp_settings.load_profile("ci")


@pytest.fixture(scope="session")
def settings():
    return Settings()


@pytest.fixture(scope="session")
def context(settings):
    """The forms and transform objects of the verify registry, one per session."""
    return Context(settings)


@pytest.fixture(scope="session")
def holds(context):
    """Assert that each named registry identity holds on the session context."""

    def run(*idents):
        for ident in idents:
            result = check(ident, context)
            assert result.passed, (
                f"{ident}: {result.max_residual:.3e} > tolerance {result.tolerance:.0e}"
            )

    return run


@pytest.fixture(scope="session")
def delta(context):
    return context.delta


@pytest.fixture(scope="session")
def delta_uh_coefficients(context):
    return context.delta_coefficients


@pytest.fixture(scope="session")
def surrogate(context):
    return context.surrogate


@pytest.fixture(scope="session")
def surrogate_two_sided(context):
    return context.two_sided


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def table_lookups(monkeypatch):
    """The index of every Whittaker table lookup made while the test runs;
    both entry points go through ``_lookup``."""
    calls = []
    lookup = WhittakerTable._lookup

    def counting(table, t):
        calls.append(table.kappa)
        return lookup(table, t)

    monkeypatch.setattr(WhittakerTable, "_lookup", counting)
    return calls
