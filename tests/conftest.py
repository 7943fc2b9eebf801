import pytest

import hellcorr as hc
from hellcorr import inference


@pytest.fixture(scope="session")
def nt500():
    # shared across the critical-value, scenario, and trend tests
    return hc.null_table(500, 2000, seed=101)


@pytest.fixture(scope="session")
def nt5000():
    return hc.null_table(5000, 500, seed=102)


@pytest.fixture
def flat_inner_layers(monkeypatch):
    """Make chosen inner bootstrap layers come out constant, so their scale is zero.

    Call it with b2 and the outer replicates to flatten, "se0" naming the
    original sample's layer. ``bootstrap_ci`` estimates that layer in the
    first batch, then the outer replicates in order, each followed by its b2
    inner resamples, which holds with one thread.
    """

    def flatten(b2, flat):
        real = inference.estimate_batch
        seen = None  # outer replicates estimated so far; None before the se0 layer

        def batch(samples, cfg):
            nonlocal seen
            etas = real(samples, cfg)
            if seen is None:
                seen = 0
                if "se0" in flat:
                    etas[:] = 0.5
                return etas
            rows = etas.reshape(-1, 1 + b2)
            for k in range(len(rows)):
                if seen + k in flat:
                    rows[k, 1:] = 0.5
            seen += len(rows)
            return etas

        monkeypatch.setattr(inference, "estimate_batch", batch)

    return flatten
