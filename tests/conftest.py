import math
import threading

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


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """Fail any test that leaves a thread it started alive: helper threads are joined."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"thread(s) left alive: {', '.join(left)}")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


LARGE_ARRAY_ELEMENTS = 1 << 24


def _arange_length(start, stop=None, step=None, *args, **kwargs):
    """Number of elements np.arange would make for these arguments."""
    if stop is None:
        start, stop = 0, start
    return max(0, math.ceil((stop - start) / (1 if step is None else step)))


@pytest.fixture
def refuse_large_arrays(monkeypatch):
    """Fail the test at any np.zeros, np.empty, np.arange, np.fft.fft2 or
    np.random.Generator.random call for more than LARGE_ARRAY_ELEMENTS elements,
    before it allocates: the allocation guards must fire first, and a missing
    guard must not start a huge allocation."""

    def refusing(fn, shape_of):
        def checked(*args, **kwargs):
            shape = np.atleast_1d(shape_of(*args, **kwargs)).tolist()
            assert np.prod(shape, dtype=float) <= LARGE_ARRAY_ELEMENTS, f"{fn.__name__}{shape}"
            return fn(*args, **kwargs)

        return checked

    monkeypatch.setattr(np, "zeros", refusing(np.zeros, lambda shape, *a, **k: shape))
    monkeypatch.setattr(np, "empty", refusing(np.empty, lambda shape, *a, **k: shape))
    monkeypatch.setattr(np, "arange", refusing(np.arange, _arange_length))
    monkeypatch.setattr(
        np.fft, "fft2", refusing(np.fft.fft2, lambda a, s=None, *r, **k: np.shape(a) if s is None else s)
    )

    class RefusingGenerator(np.random.Generator):  # the extension type's methods cannot be patched
        random = refusing(
            np.random.Generator.random, lambda self, size=None, *a, **k: () if size is None else size
        )

    monkeypatch.setattr(np.random, "Generator", RefusingGenerator)
