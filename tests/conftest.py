import sys

import numpy as np
import pytest

from relayfield import Region, SystemParams


@pytest.fixture
def params():
    """The desk configuration used throughout the suite."""
    return SystemParams(snr_budget=100.0, path_loss=2.0, threshold=1.0,
                        subcarriers=4, r_sd=5.0)


@pytest.fixture
def disc():
    return Region.disc(5.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def pools(monkeypatch):
    """The process pools that run a task while the test runs, in order.

    Each records its size (_max_workers) and whether it was shut down.
    """
    from relayfield import simulation

    launched = []

    class Recorded(simulation.ProcessPoolExecutor):
        # a pool starts its processes on its first task
        def submit(self, *args, **kwargs):
            if self not in launched:
                self.stopped = False
                launched.append(self)
            return super().submit(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            self.stopped = True
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", Recorded)
    return launched


@pytest.fixture
def cold_caches():
    """A function that empties every module-level cache of relayfield, as
    a fresh process starts; it has run once when the test starts."""
    def clear():
        for name, module in list(sys.modules.items()):
            if name == "relayfield" or name.startswith("relayfield."):
                for obj in vars(module).values():
                    if callable(getattr(obj, "cache_clear", None)):
                        obj.cache_clear()

    clear()
    return clear


@pytest.fixture
def integrations(monkeypatch, cold_caches):
    """The number of cs of each analytic._integrate call made while the
    test runs, in order, from cold caches."""
    from relayfield import analytic

    integrate, calls = analytic._integrate, []

    def counting(region, cs, *args, **kwargs):
        calls.append(len(cs))
        return integrate(region, cs, *args, **kwargs)

    monkeypatch.setattr(analytic, "_integrate", counting)
    return calls
