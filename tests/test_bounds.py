"""Universal lower bound: direct values and scaling laws."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from sweepdefense import InvalidParam, ScenarioParams, universal_lower_bound, validate

REL_TOL = 1e-12


def make(R0=100.0, r=10.0, VT=1.0, n=2, eps=0.2):
    return validate(ScenarioParams(R0=R0, r=r, VT=VT, n=n, eps=eps))


def test_reference_value():
    # pi * 100 * 1 / (2 * 10) = 5 * pi
    assert math.isclose(universal_lower_bound(make()), 15.707963267948966, rel_tol=1e-15)


def test_doubling_n_halves_the_bound():
    assert math.isclose(
        universal_lower_bound(make(n=4)), 7.853981633974483, rel_tol=1e-15
    )


def test_linear_in_VT():
    assert math.isclose(
        universal_lower_bound(make(VT=2.0)), 31.41592653589793, rel_tol=1e-15
    )


@pytest.mark.parametrize(
    "R0, r, VT",
    # the bound itself overflows; the bound is finite but twice it is not
    [(1e200, 1e-200, 1.0), (1e308, 1.0, 1.0), (1e300, 1.5e-8, 1.0)],
)
def test_bound_past_the_float_range_is_refused(R0, r, VT):
    with pytest.raises(InvalidParam, match="float range"):
        universal_lower_bound(make(R0=R0, r=r, VT=VT))


params_st = st.builds(
    make,
    R0=st.floats(min_value=1.0, max_value=1e4),
    # stay clear of r = R0 so the k = 4 rescale of r below remains valid
    r=st.floats(min_value=0.01, max_value=0.2),
    VT=st.floats(min_value=0.01, max_value=100.0),
    n=st.integers(min_value=1, max_value=32).map(lambda k: 2 * k),
    eps=st.floats(min_value=1e-6, max_value=10.0),
)


@given(params_st, st.sampled_from([2.0, 4.0, 0.5]))
@settings(max_examples=200)
def test_exact_scaling_identities(p, k):
    # Linear in R0 and VT, inverse in n and r. Power-of-two factors keep
    # the float algebra exact up to one rounding of the final division.
    v = universal_lower_bound(p)
    assert math.isclose(
        universal_lower_bound(make(p.R0 * k, p.r, p.VT, p.n, p.eps)), k * v, rel_tol=REL_TOL
    )
    assert math.isclose(
        universal_lower_bound(make(p.R0, p.r, p.VT * k, p.n, p.eps)), k * v, rel_tol=REL_TOL
    )
    assert math.isclose(
        universal_lower_bound(make(p.R0, p.r * k, p.VT, p.n, p.eps)), v / k, rel_tol=REL_TOL
    )


@given(params_st)
@settings(max_examples=100)
def test_bound_is_finite_and_positive(p):
    v = universal_lower_bound(p)
    assert 0.0 < v < math.inf
