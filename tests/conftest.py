import functools
import tracemalloc

import numpy as np
import pytest

from slepian import DiscreteParams, Tolerances, nystrom_spectrum, spectrum
from slepian.numkit import parity_block


def parity_blocks(S):
    """Both ``parity_block``s of S, which may be any strided view."""
    return tuple(parity_block(lambda i, j: S[i:j], len(S), odd) for odd in (0, 1))


def assert_mode_order(values, vectors=None):
    """Column k has parity (-1)^k exactly; the values descend strictly next to
    every resolved one (floor < value < 1 - floor, floor = floor_untrusted)
    and ascend nowhere by more than the floor."""
    floor, step = Tolerances().floor_untrusted, np.diff(values)
    if vectors is not None:
        assert (vectors[::-1] == vectors * (-1.0) ** np.arange(len(values))).all()
    resolved = (floor < values) & (values < 1.0 - floor)
    assert (step[resolved[:-1] | resolved[1:]] < 0).all()
    assert (step <= floor).all()


def traced_peak(call):
    """tracemalloc peak of a second call; the first fills the caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@functools.lru_cache(maxsize=None)
def cached_spectrum(N, W, method="tridiag"):
    return spectrum(DiscreteParams(N, W), method=method)


@functools.lru_cache(maxsize=None)
def cached_nystrom(c, M=None, check=False):
    return nystrom_spectrum(c, M, check_convergence=check)


@pytest.fixture(scope="session")
def get_spectrum():
    return cached_spectrum


@pytest.fixture(scope="session")
def get_nystrom():
    return cached_nystrom


@pytest.fixture(scope="session")
def spec60_03(get_spectrum):
    return get_spectrum(60, 0.3)
