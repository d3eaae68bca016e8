import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


LARGE_ARRAY_ELEMENTS = 1 << 24


@pytest.fixture
def refuse_large_arrays(monkeypatch):
    """Fail the test at any np.zeros, np.empty or np.fft.fft2 call for more than
    LARGE_ARRAY_ELEMENTS elements, before it allocates: the allocation guards
    must fire first, and a missing guard must not start a huge allocation."""

    def refusing(fn, shape_of):
        def checked(*args, **kwargs):
            shape = np.atleast_1d(shape_of(*args, **kwargs)).tolist()
            assert np.prod(shape, dtype=float) <= LARGE_ARRAY_ELEMENTS, f"{fn.__name__}{shape}"
            return fn(*args, **kwargs)

        return checked

    monkeypatch.setattr(np, "zeros", refusing(np.zeros, lambda shape, *a, **k: shape))
    monkeypatch.setattr(np, "empty", refusing(np.empty, lambda shape, *a, **k: shape))
    monkeypatch.setattr(
        np.fft, "fft2", refusing(np.fft.fft2, lambda a, s=None, *r, **k: np.shape(a) if s is None else s)
    )
