"""Shared fixtures for the serve test suite.

The fixtures are thin veneers over the public surface
(:func:`repro.serve.make_fleet`, :func:`repro.serve.fleet_machine`) so
the tests exercise exactly what users call.  The ``make_fleet`` fixture
spells the dispatch mode ``dispatch=`` (the public keyword is ``mode=``)
and defaults to the public default, ``encoded``.
"""

import pytest

from repro.serve import fleet_machine, make_fleet as _public_make_fleet

#: Parametrisation list covering every bundled model.
BUNDLED_MODELS = [
    pytest.param("commit", id="commit-r4"),
    pytest.param("chandra-toueg", id="chandra-toueg-n5"),
    pytest.param("termination", id="termination-t3"),
    pytest.param("threshold-sig", id="threshold-sig-4of3"),
]


def machine_for(model: str = "commit", engine: str = "eager"):
    """Session-cached generated machine per (model name, generation engine)."""
    return fleet_machine(model, engine)


@pytest.fixture(scope="session")
def machines():
    """Callable ``machines(model, engine)`` -> session-cached machine."""
    return machine_for


@pytest.fixture(scope="session")
def make_fleet():
    """Factory: ``make_fleet(model, dispatch, backend, log_policy, **kw)``.

    ``model`` is a bundled model name or an already-generated machine;
    remaining keyword arguments pass through to
    :func:`repro.serve.make_fleet` (``workers=N`` builds a
    ``MultiprocessFleet``).
    """

    def factory(
        model="commit",
        dispatch: str = "encoded",
        backend: str = "interp",
        log_policy: str = "full",
        *,
        engine: str = "eager",
        **kwargs,
    ):
        return _public_make_fleet(
            model,
            mode=dispatch,
            backend=backend,
            log_policy=log_policy,
            engine=engine,
            **kwargs,
        )

    return factory
