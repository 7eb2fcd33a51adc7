"""Property tests on random (N, W, eps): the trace and reflection identities
of the concentration spectrum, its monotonicity in W, the plunge bounds, each
evaluated on the spectrum it is given, and the verification report."""

import math

import numpy as np
import pytest

from slepian.bounds import plunge_count_bound, plunge_mass, verify_all
from slepian.config import Tolerances
from slepian.discrete import (METHODS, DiscreteParams, mirror_params, spectrum,
                              symmetry_defect)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

PROPERTY = hypothesis.settings(derandomize=True, max_examples=30,
                               deadline=None, database=None)

lengths = st.integers(min_value=1, max_value=120)
bandwidths = st.floats(min_value=1e-6, max_value=0.5 - 1e-6)
methods = st.sampled_from(METHODS)


@st.composite
def plunge_params(draw):
    """(N, W) with 2NW >= 1: at least one eigenvalue's worth of band, where
    log(2NW)/pi^2 + 0.45 is a meaningful bound (it is negative below
    2NW = exp(-0.45 pi^2) ~ 0.012)."""
    N = draw(st.integers(min_value=2, max_value=120))
    W = draw(st.floats(min_value=1.0 / (2 * N), max_value=0.5, exclude_max=True))
    return N, W


@PROPERTY
@given(N=lengths, W=bandwidths, method=methods)
def test_trace_identity(N, W, method):
    values = spectrum(DiscreteParams(N, W), method).values
    assert abs(values.sum() - 2 * N * W) / (2 * N * W) <= Tolerances().trace_rel


@PROPERTY
@given(N=lengths, W=bandwidths, method=methods)
def test_reflection_identity(N, W, method):
    params = DiscreteParams(N, W)
    spec = spectrum(params, method)
    for mirror_method in METHODS:   # the spec's route x the mirror's route
        mirror = spectrum(mirror_params(params), mirror_method)
        assert symmetry_defect(spec, mirror) <= Tolerances().cross_route


@PROPERTY
@given(params=plunge_params(),
       eps=st.floats(min_value=1e-6, max_value=0.5, exclude_max=True))
def test_plunge_mass_and_count_below_bounds(params, eps):
    N, W = params
    values = spectrum(DiscreteParams(N, W)).values
    measured, bound = plunge_mass(N, W, values)
    assert measured <= bound
    count = int(np.sum((values >= eps) & (values <= 1 - eps)))
    assert count <= plunge_count_bound(N, W, eps)


@PROPERTY
@given(N=lengths, W1=bandwidths, W2=bandwidths, method=methods)
def test_monotone_in_bandwidth(N, W1, W2, method):
    W1, W2 = sorted((W1, W2))
    low = spectrum(DiscreteParams(N, W1), method).values
    high = spectrum(DiscreteParams(N, W2), method).values
    resolved = low >= Tolerances().floor_checks
    assert np.all(low[resolved] <= high[resolved] + 1e-13)


@st.composite
def report_params(draw):
    """(N, W) with W drawn below c = pi N W = 1 for about half the draws."""
    N = draw(st.integers(min_value=1, max_value=60))
    W = draw(st.one_of(
        st.floats(min_value=1e-5, max_value=1.0 / (math.pi * N),
                  exclude_max=True),
        st.floats(min_value=1e-5, max_value=0.5, exclude_max=True)))
    return N, W


@pytest.fixture(scope="module")
def check_names():
    return {c.name for c in verify_all((30,), (0.1,), (0.05,)).checks}


@PROPERTY
@given(params=report_params())
def test_report_has_every_check_and_passes(check_names, params):
    N, W = params
    report = verify_all((N,), (W,), (0.05,))
    assert {c.name for c in report.checks} == check_names
    assert report.passed
    assert all(c.note for c in report.checks if c.skipped)
