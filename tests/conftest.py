import tracemalloc

import pytest


def _traced_peak(fn, *args, **kw):
    """(fn(*args, **kw), the peak MiB that tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


@pytest.fixture
def traced_peak():
    """The working-set probe for kernels: ``result, mib = traced_peak(fn, *args, **kw)``.
    Warm any cached tables first, or the pin counts them too."""
    return _traced_peak
