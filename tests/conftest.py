import math
import os
import threading
import tracemalloc
from typing import Callable

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

def pytest_report_header(config):
    """numpy's version and the SIMD targets it dispatched three kernels to, whose bits differ
    between targets (ROADMAP item 9): on a host without the targets the goldens were recorded
    at, the byte pins fail in their last bits, and these lines say why."""
    lines = [f"numpy {np.__version__}"]
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0 does not report its targets
        lines.append("numpy dispatch targets: not reported")
    else:
        kernels = (("exp", "float64"), ("multiply", "complex128"), ("absolute", "complex128"))
        targets = [f"{func} {dtype} {entry['current']}" for func, dtype in kernels
                   for entry in opt_func_info(f"^{func}$", dtype)[func].values()]
        lines.append("numpy dispatch targets: " + ", ".join(targets))
    if "NPY_DISABLE_CPU_FEATURES" in os.environ:
        lines.append(f"NPY_DISABLE_CPU_FEATURES={os.environ['NPY_DISABLE_CPU_FEATURES']}")
    return lines


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


def traced_peak(call: Callable[[], object]) -> int:
    """Peak of the memory that tracemalloc traces, in bytes, while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LARGE_ARRAY_ELEMENTS = 1 << 24


def _arange_length(start, stop=None, step=None, *args, **kwargs):
    """Number of elements np.arange would make for these arguments."""
    if stop is None:
        start, stop = 0, start
    return max(0, math.ceil((stop - start) / (1 if step is None else step)))


def _fft_shape(a, n=None, axis=-1, *args, **kwargs):
    """Shape of the array np.fft.fft would return: ``a``'s, with ``n`` along ``axis``."""
    shape = list(np.shape(a))
    if n is not None:
        shape[axis] = n
    return shape


@pytest.fixture
def refuse_large_arrays(monkeypatch):
    """Fail the test at any np.zeros, np.empty, np.arange, np.fft.fft, np.fft.fft2 or
    np.random.Generator.random call for more than LARGE_ARRAY_ELEMENTS elements,
    before it allocates: the allocation guards must fire first, and a missing
    guard must not start a huge allocation. A transform is sized by its output."""

    def refusing(fn, shape_of):
        def checked(*args, **kwargs):
            shape = np.atleast_1d(shape_of(*args, **kwargs)).tolist()
            assert np.prod(shape, dtype=float) <= LARGE_ARRAY_ELEMENTS, f"{fn.__name__}{shape}"
            return fn(*args, **kwargs)

        return checked

    monkeypatch.setattr(np, "zeros", refusing(np.zeros, lambda shape, *a, **k: shape))
    monkeypatch.setattr(np, "empty", refusing(np.empty, lambda shape, *a, **k: shape))
    monkeypatch.setattr(np, "arange", refusing(np.arange, _arange_length))
    monkeypatch.setattr(np.fft, "fft", refusing(np.fft.fft, _fft_shape))
    monkeypatch.setattr(
        np.fft, "fft2", refusing(np.fft.fft2, lambda a, s=None, *r, **k: np.shape(a) if s is None else s)
    )

    class RefusingGenerator(np.random.Generator):  # the extension type's methods cannot be patched
        random = refusing(
            np.random.Generator.random, lambda self, size=None, *a, **k: () if size is None else size
        )

    monkeypatch.setattr(np.random, "Generator", RefusingGenerator)
