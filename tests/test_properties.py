"""Property tests on random (N, W, eps): the trace and reflection identities
of the concentration spectrum and the plunge bounds, each evaluated on the
spectrum it is given."""

import numpy as np
import pytest

from slepian.bounds import plunge_count_bound, plunge_mass
from slepian.config import TOL
from slepian.discrete import METHODS, DiscreteParams, spectrum, symmetry_defect

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
    assert abs(values.sum() - 2 * N * W) / (2 * N * W) <= TOL.trace_rel


@PROPERTY
@given(N=lengths, W=bandwidths, method=methods)
def test_reflection_identity(N, W, method):
    assert symmetry_defect(spectrum(DiscreteParams(N, W), method)) \
        <= TOL.symmetry_identity


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
