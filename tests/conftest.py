import functools
import math
import tracemalloc

import numpy as np
import pytest

from slepian import DiscreteParams, Tolerances, nystrom_spectrum, spectrum


def parity_blocks(S):
    """The even and odd blocks of a centrosymmetric symmetric n x n matrix S,
    by their definition: with h = n // 2, A = S[:h, :h] and
    BJ = S[:h, n-h:][:, ::-1], they are A + BJ and A - BJ, and for odd n the
    even block gains the sqrt(2)-weighted middle row and column and the middle
    entry. The reference for ``numkit.parity_block``."""
    n, h = len(S), len(S) // 2
    A, BJ = S[:h, :h], S[:h, n - h:][:, ::-1]
    even, odd = A + BJ, A - BJ
    if n % 2:
        col = math.sqrt(2.0) * S[:h, h:h + 1]
        even = np.block([[even, col], [col.T, S[h:h + 1, h:h + 1]]])
    return even, odd


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
def cached_nystrom(c, M=None):
    return nystrom_spectrum(c, M)


@pytest.fixture(scope="session")
def get_spectrum():
    return cached_spectrum


@pytest.fixture(scope="session")
def get_nystrom():
    return cached_nystrom


@pytest.fixture(scope="session")
def spec60_03(get_spectrum):
    return get_spectrum(60, 0.3)
