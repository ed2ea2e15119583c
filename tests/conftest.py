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
