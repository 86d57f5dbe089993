"""Wedge geometry: coordinate convention, specular reflection, ray tracing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedge_cot.errors import (
    ApexSingularityError,
    BetaRangeError,
    DegenerateIncidenceError,
    ValidationError,
)
from wedge_cot.geometry import (
    LEFT,
    RIGHT,
    TWO_PI,
    Approach,
    IonPosition,
    WedgeGeometry,
    ion_cartesian,
    is_interior,
    reflect,
    surface_distances,
    trace,
    wrap_angle,
)
from wedge_cot.orbits import ClosedOrbit

TABLE_WEDGE = WedgeGeometry.from_n(5)
TABLE_ION = IonPosition(200.0, math.pi / 15)


def azimuth(vec):
    return math.atan2(vec[1], vec[0]) % (2.0 * math.pi)


# ------------------------------------------------------------ pi/N test

@pytest.mark.parametrize("alpha, n", [(2e-6, 1570796), (1e-7, 31415927)])
def test_narrow_wedge_is_not_pi_over_n_by_an_absolute_tolerance(alpha, n):
    """2e-6 lies 4.2e-13 from pi/1570796, inside an absolute 1e-12 but
    2e-7 of the angle; the tolerance scales with pi/N, so neither wedge
    takes the analytic catalog."""
    assert abs(alpha - math.pi / n) < 1e-12
    assert WedgeGeometry.from_alpha(alpha).n_integer is None
    with pytest.raises(ValidationError, match=r"is not pi/\d+ within"):
        WedgeGeometry(alpha, n)


def test_every_pi_over_n_keeps_its_n():
    for n in [*range(1, 201), 10**6 + 3]:
        assert WedgeGeometry.from_n(n).n_integer == n
        assert WedgeGeometry.from_alpha(math.pi / n).n_integer == n


# ------------------------------------------------------------ angle wrap

def test_wrap_angle_stays_below_two_pi():
    # A tiny negative angle rounds up to exactly 2*pi under a bare %.
    assert -1e-17 % TWO_PI == TWO_PI
    assert wrap_angle(-1e-17) == 0.0
    assert wrap_angle(TWO_PI) == 0.0
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(7.0) == 7.0 - TWO_PI


def test_direction_azimuth_of_tiny_negative_angle_is_a_valid_return_angle():
    app = Approach(1, 0.0, 1.0, (1.0, -1e-17))
    assert app.direction_azimuth == 0.0
    orbit = ClosedOrbit(1, math.pi, app.direction_azimuth, 1, 1.0)
    assert orbit.phi_ret == 0.0


# ---------------------------------------------------------------- placement

def test_ion_cartesian_reference_position():
    x, y = ion_cartesian(TABLE_WEDGE, TABLE_ION)
    assert x == 200.0 * math.sin(math.pi / 15)
    assert y == -200.0 * math.cos(math.pi / 15)


def test_ion_cartesian_corner_midline():
    # On the bisector of a right-angle wedge the ion sits at (r/sqrt2, -r/sqrt2).
    point = ion_cartesian(WedgeGeometry.from_n(2), IonPosition(1.0, math.pi / 4))
    np.testing.assert_allclose(point, (math.sqrt(2) / 2, -math.sqrt(2) / 2),
                               rtol=1e-15)


def test_ion_cartesian_rejects_exterior_beta():
    with pytest.raises(BetaRangeError):
        ion_cartesian(TABLE_WEDGE, IonPosition(200.0, 0.0))
    with pytest.raises(BetaRangeError):
        ion_cartesian(TABLE_WEDGE, IonPosition(200.0, math.pi / 5))


def test_surface_distances_match_declination():
    point = ion_cartesian(TABLE_WEDGE, TABLE_ION)
    d_left, d_right = surface_distances(TABLE_WEDGE, point)
    np.testing.assert_allclose(d_left, 200.0 * math.sin(math.pi / 15), rtol=1e-15)
    np.testing.assert_allclose(
        d_right, 200.0 * math.sin(math.pi / 5 - math.pi / 15), rtol=1e-14
    )
    assert is_interior(TABLE_WEDGE, point)
    assert not is_interior(TABLE_WEDGE, (-1.0, -1.0))


# ---------------------------------------------------------------- reflection

def test_reflect_normal_incidence_left():
    # Hitting the left surface head-on (azimuth pi) sends the ray back out
    # along azimuth 0.
    out = reflect((math.cos(math.pi), math.sin(math.pi)), LEFT, TABLE_WEDGE)
    assert azimuth(out) == pytest.approx(0.0, abs=1e-15)


def test_reflect_normal_incidence_right():
    alpha = TABLE_WEDGE.opening_angle
    out = reflect((math.cos(alpha), math.sin(alpha)), RIGHT, TABLE_WEDGE)
    np.testing.assert_allclose(azimuth(out), (alpha - math.pi) % (2 * math.pi),
                               rtol=1e-12)


def test_reflect_parallel_direction_raises():
    with pytest.raises(DegenerateIncidenceError):
        reflect((0.0, 1.0), LEFT, TABLE_WEDGE)


@settings(max_examples=200)
@given(
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    alpha=st.floats(0.05, math.pi),
    surface=st.sampled_from([LEFT, RIGHT]),
)
def test_reflect_involution_and_unit_norm(phi, alpha, surface):
    """Reflecting twice off the same plane restores the direction, and each
    bounce keeps the direction normalized to within 1e-14."""
    wedge = WedgeGeometry.from_alpha(alpha)
    d = (math.cos(phi), math.sin(phi))
    try:
        once = reflect(d, surface, wedge)
    except DegenerateIncidenceError:
        return  # grazing incidence is rejected by contract, nothing to check
    assert abs(math.hypot(*once) - 1.0) <= 1e-14
    twice = reflect(once, surface, wedge)
    np.testing.assert_allclose(twice, d, rtol=0, atol=1e-15)


# ------------------------------------------------------------------ tracing

def test_trace_perpendicular_retrace_left():
    start = ion_cartesian(TABLE_WEDGE, TABLE_ION)
    path = trace(TABLE_WEDGE, start, (-1.0, 0.0), max_reflections=1)
    assert len(path.segments) == 2
    assert path.reflections == 1
    np.testing.assert_allclose(path.segments[-1][1], start, rtol=0,
                               atol=1e-9 * 200.0)
    np.testing.assert_allclose(
        path.total_length, 2.0 * 200.0 * math.sin(math.pi / 15), rtol=1e-12
    )


def test_trace_perpendicular_retrace_right():
    alpha = TABLE_WEDGE.opening_angle
    start = ion_cartesian(TABLE_WEDGE, TABLE_ION)
    path = trace(TABLE_WEDGE, start, (math.cos(alpha), math.sin(alpha)),
                 max_reflections=1)
    assert path.reflections == 1
    np.testing.assert_allclose(
        path.total_length,
        2.0 * 200.0 * math.sin(alpha - math.pi / 15),
        rtol=1e-12,
    )
    np.testing.assert_allclose(path.segments[-1][1], start, rtol=0,
                               atol=1e-9 * 200.0)


def test_trace_corner_reflector_returns_antiparallel():
    """A right-angle wedge sends any double-bounce ray back antiparallel."""
    wedge = WedgeGeometry.from_n(2)
    start = (7.0, -3.0)
    d = (math.cos(2.4), math.sin(2.4))  # hits left wall first, then right
    path = trace(wedge, start, d, max_reflections=2)
    assert path.reflections == 2
    np.testing.assert_allclose(path.final_direction, (-d[0], -d[1]),
                               rtol=0, atol=1e-14)


def test_trace_apex_hit_is_an_error():
    start = ion_cartesian(TABLE_WEDGE, TABLE_ION)
    aim = math.atan2(-start[1], -start[0])  # straight at the apex
    with pytest.raises(ApexSingularityError):
        trace(TABLE_WEDGE, start, (math.cos(aim), math.sin(aim)),
              max_reflections=3)


def test_trace_rejects_start_on_surface():
    with pytest.raises(ValidationError):
        trace(TABLE_WEDGE, (0.0, -5.0), (1.0, 0.0), max_reflections=1)


def test_trace_escape_without_reflection():
    # Radially outward from the apex: stays inside the open mouth forever.
    start = ion_cartesian(TABLE_WEDGE, TABLE_ION)
    r = math.hypot(*start)
    path = trace(TABLE_WEDGE, start, (start[0] / r, start[1] / r),
                 max_reflections=5)
    assert path.escaped
    assert path.reflections == 0
    assert path.approaches == ()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    beta_frac=st.floats(0.1, 0.9),
    phi_frac=st.floats(0.02, 0.98),
    bounces=st.integers(1, 12),
)
def test_trace_path_bookkeeping(n, beta_frac, phi_frac, bounces):
    """Path length equals the sum of segment lengths, interior vertices lie
    on a wedge surface, and every recorded approach keeps a unit direction."""
    wedge = WedgeGeometry.from_n(n)
    ion = IonPosition(100.0, beta_frac * wedge.opening_angle)
    start = ion_cartesian(wedge, ion)
    fan_lo = wedge.right_surface_azimuth
    phi = fan_lo + phi_frac * (wedge.left_surface_azimuth - fan_lo)
    try:
        path = trace(wedge, start, (math.cos(phi), math.sin(phi)), bounces)
    except ApexSingularityError:
        return
    lengths = [math.dist(a, b) for a, b in path.segments]
    np.testing.assert_allclose(path.total_length, sum(lengths), rtol=1e-10)
    for (_, end), (nxt, _) in zip(path.segments, path.segments[1:]):
        assert end == nxt
        d_left, d_right = surface_distances(wedge, end)
        assert min(abs(d_left), abs(d_right)) <= 1e-10 * 100.0
    for app in path.approaches:
        assert abs(math.hypot(*app.direction) - 1.0) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.3, math.pi),
    beta_frac=st.floats(0.05, 0.95),
    rho=st.floats(0.5, 500.0),
    toward_right=st.booleans(),
)
def test_retroreflection_returns_in_one_bounce(alpha, beta_frac, rho, toward_right):
    """A launch along either surface's normal comes straight back to the
    start after exactly one reflection."""
    wedge = WedgeGeometry.from_alpha(alpha)
    beta = beta_frac * alpha
    ion = IonPosition(rho, beta)
    if toward_right:
        # perpendicular foot must land on the physical half-line
        if not (alpha - beta) < 0.45 * math.pi:
            return
        phi = alpha
        expected = 2.0 * rho * math.sin(alpha - beta)
    else:
        if not beta < 0.45 * math.pi:
            return
        phi = math.pi
        expected = 2.0 * rho * math.sin(beta)
    start = ion_cartesian(wedge, ion)
    path = trace(wedge, start, (math.cos(phi), math.sin(phi)), max_reflections=1)
    assert path.reflections == 1
    assert path.approaches[-1].distance <= 1e-9 * rho
    np.testing.assert_allclose(path.total_length, expected, rtol=1e-11)


def test_time_reversal_segment_multiset():
    """Tracing forward along an orbit and backward along its reversed return
    direction yields the same multiset of segment lengths."""
    wedge = WedgeGeometry.from_n(3)
    ion = IonPosition(120.0, 0.3)
    start = ion_cartesian(wedge, ion)
    phi_out = 2 * math.pi / 6 + 0.3  # even-index catalog orbit, m = 2
    fwd = trace(wedge, start, (math.cos(phi_out), math.sin(phi_out)),
                max_reflections=2)
    back_dir = (-fwd.final_direction[0], -fwd.final_direction[1])
    bwd = trace(wedge, start, back_dir, max_reflections=2)
    fwd_lengths = sorted(math.dist(a, b) for a, b in fwd.segments)
    bwd_lengths = sorted(math.dist(a, b) for a, b in bwd.segments)
    np.testing.assert_allclose(bwd_lengths, fwd_lengths, rtol=1e-9)


def test_unit_norm_survives_many_bounces():
    wedge = WedgeGeometry.from_n(11)
    start = ion_cartesian(wedge, IonPosition(50.0, 0.11))
    path = trace(wedge, start, (math.cos(1.9), math.sin(1.9)),
                 max_reflections=21)
    assert abs(math.hypot(*path.final_direction) - 1.0) <= 1e-14


# ------------------------------------------------------------ input checks

@pytest.mark.parametrize("call, message", [
    (lambda: WedgeGeometry.from_n(0), "n must be a positive integer"),
    (lambda: WedgeGeometry(math.pi / 3, 0),
     "n_integer must be a positive integer"),
    (lambda: reflect((1.0, 0.0), "top", TABLE_WEDGE),
     "surface must be 'left' or 'right', got 'top'"),
    (lambda: trace(TABLE_WEDGE, ion_cartesian(TABLE_WEDGE, TABLE_ION),
                   (1.0, 0.0), max_reflections=-1),
     "max_reflections must be >= 0"),
    (lambda: trace(TABLE_WEDGE, ion_cartesian(TABLE_WEDGE, TABLE_ION),
                   (0.0, 0.0), max_reflections=1),
     "direction must be nonzero"),
])
def test_input_checks_raise_their_error(call, message):
    with pytest.raises(ValidationError) as raised:
        call()
    assert type(raised.value) is ValidationError
    assert str(raised.value) == message
