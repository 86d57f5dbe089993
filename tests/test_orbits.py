"""Closed-orbit catalogs: the method of images, exact and in floats at pi/N
and in radians for any opening angle, checked against the shooting search
and the ray tracer as independent oracles."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wedge_cot.errors import (
    ApexSingularityError,
    BetaRangeError,
    ValidationError,
    WedgeCotError,
    ZeroLengthOrbitError,
)
from wedge_cot.geometry import (
    BETA_MIN,
    TWO_PI,
    IonPosition,
    WedgeGeometry,
    ion_cartesian,
    trace,
)
from wedge_cot.orbits import (
    SCAN_SAMPLES_PER_REFLECTION,
    ClosedOrbit,
    OrbitSearchConfig,
    default_search_config,
    enumerate_analytic,
    exact_catalog,
    find_numeric,
)
from wedge_cot.spectrum import orbit_catalog

# Reference catalog for the pi/5 wedge with beta = pi/15: every angle as an
# exact multiple of pi, lengths as L = 2 rho |sin(chord * pi)|.
REFERENCE_ROWS = [
    # (j, phi_out/pi, phi_ret/pi, m, chord/pi)
    (1, Fraction(1, 5), Fraction(6, 5), 1, Fraction(2, 15)),
    (2, Fraction(4, 15), Fraction(28, 15), 2, Fraction(1, 5)),
    (3, Fraction(2, 5), Fraction(7, 5), 3, Fraction(1, 3)),
    (4, Fraction(7, 15), Fraction(5, 3), 4, Fraction(2, 5)),
    (5, Fraction(3, 5), Fraction(8, 5), 5, Fraction(8, 15)),
    (6, Fraction(2, 3), Fraction(22, 15), 4, Fraction(3, 5)),
    (7, Fraction(4, 5), Fraction(9, 5), 3, Fraction(11, 15)),
    (8, Fraction(13, 15), Fraction(19, 15), 2, Fraction(4, 5)),
    (9, Fraction(1, 1), Fraction(0, 1), 1, Fraction(14, 15)),
]

BETA_FRACTIONS = (0.1, 1 / 3, 0.5, 2 / 3, 0.9)


@st.composite
def pi_over_n_ions(draw):
    """(N, ion) with N in [1, 200], rho in [1e-3, 1e8] and beta strictly
    inside (0, pi/N), boundary neighbours included."""
    n = draw(st.integers(1, 200))
    rho = draw(st.floats(1e-3, 1e8))
    beta = draw(st.floats(0.0, math.pi / n, exclude_min=True, exclude_max=True))
    return n, IonPosition(rho, beta)


def buildable(n, ion):
    # The j = 1 launch (1/N) pi can round below pi/N.  A beta at or above it
    # (one ulp below pi/N for some N) would give a zero or wrapped j = 1
    # chord, so the catalog rejects it with BetaRangeError.
    return ion.beta < 1 / n * math.pi


# ------------------------------------------------------------ exact catalog

def test_exact_catalog_matches_reference_table():
    rows = exact_catalog(5, Fraction(1, 15))
    assert len(rows) == 9
    for orbit, (j, out, ret, m, chord) in zip(rows, REFERENCE_ROWS):
        assert orbit.index == j
        assert orbit.phi_out_over_pi == out
        assert orbit.phi_ret_over_pi == ret  # row 9 wraps 2*pi to 0
        assert orbit.m == m
        assert orbit.chord_over_pi == chord


def test_exact_catalog_rejects_boundary_beta():
    with pytest.raises(BetaRangeError):
        exact_catalog(5, Fraction(0))
    with pytest.raises(BetaRangeError):
        exact_catalog(5, Fraction(1, 5))
    with pytest.raises(ValidationError):
        exact_catalog(0, Fraction(1, 15))


def test_enumerate_analytic_matches_reference_floats():
    orbits = enumerate_analytic(5, IonPosition(200.0, math.pi / 15))
    assert len(orbits) == 9
    for orbit, (j, out, ret, m, chord) in zip(orbits, REFERENCE_ROWS):
        # beta enters as a float here, so angles match to rounding only;
        # the exact rational forms are checked through exact_catalog above.
        np.testing.assert_allclose(orbit.phi_out, float(out) * math.pi,
                                   rtol=0, atol=2e-15)
        np.testing.assert_allclose(orbit.phi_ret, float(ret) * math.pi,
                                   rtol=0, atol=4e-15)
        assert orbit.m == m
        np.testing.assert_allclose(
            orbit.length, 2.0 * 200.0 * abs(math.sin(float(chord) * math.pi)),
            rtol=1e-14,
        )


def test_flat_mirror_has_single_perpendicular_orbit():
    (orbit,) = enumerate_analytic(1, IonPosition(200.0, 0.4))
    assert orbit.phi_out == math.pi
    assert orbit.phi_ret == 0.0
    assert orbit.m == 1
    np.testing.assert_allclose(orbit.length, 2.0 * 200.0 * math.sin(0.4),
                               rtol=1e-15)


def test_corner_orbit_of_right_angle_wedge():
    # j=2 for N=2 is the corner-reflector orbit: straight to the apex region
    # and back, length exactly 2 rho.
    orbits = enumerate_analytic(2, IonPosition(150.0, 0.5))
    assert len(orbits) == 3
    corner = orbits[1]
    assert corner.m == 2
    np.testing.assert_allclose(
        corner.phi_ret, (corner.phi_out + math.pi) % (2 * math.pi), rtol=1e-15
    )
    assert corner.length == 2.0 * 150.0


def test_orbit_count_law():
    for n in range(1, 13):
        alpha = math.pi / n
        for frac in BETA_FRACTIONS:
            orbits = enumerate_analytic(n, IonPosition(100.0, frac * alpha))
            assert len(orbits) == 2 * n - 1


@settings(max_examples=150)
@given(n=st.integers(1, 12), beta_frac=st.floats(0.01, 0.99))
def test_catalog_structure_properties(n, beta_frac):
    """Sorted launch angles, odd-orbit retracing, and time-reversed pair
    identities hold for any interior ion position."""
    beta = beta_frac * math.pi / n
    if not 0.0 < beta < math.pi / n:
        return
    rho = 200.0
    orbits = enumerate_analytic(n, IonPosition(rho, beta))
    assert [o.index for o in orbits] == list(range(1, 2 * n))
    outs = [o.phi_out for o in orbits]
    assert outs == sorted(outs)
    for o in orbits:
        assert o.m == min(o.index, 2 * n - o.index)
        if o.index % 2:
            np.testing.assert_allclose(
                o.phi_ret, (o.phi_out + math.pi) % (2 * math.pi),
                rtol=0, atol=1e-12,
            )
        # Launch angle and chord satisfy the length formula directly.
        np.testing.assert_allclose(
            o.length, 2.0 * rho * abs(math.sin(o.phi_out - beta)),
            rtol=1e-11,
        )


@settings(max_examples=150, deadline=None)
@given(case=pi_over_n_ions())
def test_catalog_count_retracing_and_lengths_over_full_domain(case):
    """The 2N-1 count law, bounce counts, odd-orbit retracing and the length
    formula hold for N up to 200, any rho and beta anywhere inside (0, pi/N)."""
    n, ion = case
    assume(buildable(n, ion))
    rho, beta = ion.rho, ion.beta
    orbits = enumerate_analytic(n, ion)
    assert [o.index for o in orbits] == list(range(1, 2 * n))
    for o in orbits:
        assert o.m == min(o.index, 2 * n - o.index)
        if o.index % 2:
            np.testing.assert_allclose(
                o.phi_ret, (o.phi_out + math.pi) % (2 * math.pi),
                rtol=0, atol=1e-12,
            )
        np.testing.assert_allclose(
            o.length, 2.0 * rho * abs(math.sin(o.phi_out - beta)),
            rtol=1e-11,
        )


def test_time_reversed_pairs_share_length_bits():
    orbits = enumerate_analytic(5, IonPosition(200.0, math.pi / 15))
    by_index = {o.index: o for o in orbits}
    for j in (2, 4):
        a, b = by_index[j], by_index[10 - j]
        assert a.length == b.length  # bit-identical, not merely close
        assert a.m == b.m
        np.testing.assert_allclose(
            a.phi_ret, (b.phi_out + math.pi) % (2 * math.pi), rtol=0, atol=1e-15
        )


def test_geometric_consistency_against_ray_tracing():
    """Every catalog orbit retraces under the ray tracer: back to the ion
    within 1e-9 rho after exactly m bounces, returning along phi_ret.

    The orbit aimed straight at the apex (j=N for even N, and for odd N when
    beta sits on the bisector) cannot be traced: the apex is a hard error.
    """
    cases = [(2, 0.3), (3, 1.0 / 3.0), (5, 1.0 / 3.0), (5, 0.5), (4, 0.5)]
    for n, frac in cases:
        alpha = math.pi / n
        beta = frac * alpha
        rho = 200.0
        wedge = WedgeGeometry.from_n(n)
        ion = IonPosition(rho, beta)
        start = ion_cartesian(wedge, ion)
        for orbit in enumerate_analytic(n, ion):
            direction = (math.cos(orbit.phi_out), math.sin(orbit.phi_out))
            aims_apex = (orbit.index == n) and (n % 2 == 0 or frac == 0.5)
            if aims_apex:
                with pytest.raises(ApexSingularityError):
                    trace(wedge, start, direction, orbit.m)
                continue
            path = trace(wedge, start, direction, orbit.m)
            assert path.reflections == orbit.m
            assert path.approaches[-1].distance <= 1e-9 * rho
            np.testing.assert_allclose(path.total_length, orbit.length,
                                       rtol=1e-9)
            ret = path.approaches[-1].direction_azimuth
            gap = abs(ret - orbit.phi_ret) % (2 * math.pi)
            assert min(gap, 2 * math.pi - gap) <= 1e-9


# ------------------------------------- float catalog against a Fraction oracle

def fraction_oracle(n, ion):
    """The float catalog built orbit by orbit from exact Fraction angles:
    each multiple of pi is rounded once by float(Fraction), then combined
    with beta and rho in the same float operations as the catalog."""
    orbits = []
    for j in range(1, 2 * n):
        m = j if j <= n else 2 * n - j
        if j % 2:
            out_over_pi = Fraction(j + 1, 2 * n)
            phi_out = float(out_over_pi) * math.pi
            phi_ret = float((out_over_pi + 1) % 2) * math.pi
            chord = 2.0 * ion.rho * abs(math.sin(phi_out - ion.beta))
        else:
            q = Fraction(j, 2 * n)
            phi_out = float(q) * math.pi + ion.beta
            phi_ret = float(Fraction(2 * n - j, 2 * n) + 1) * math.pi + ion.beta
            chord = 2.0 * ion.rho * abs(math.sin(float(min(q, 1 - q)) * math.pi))
        orbits.append(ClosedOrbit(j, phi_out, phi_ret % TWO_PI, m, chord))
    return orbits


def bits(orbits):
    return [
        (o.index, o.phi_out.hex(), o.phi_ret.hex(), o.m, o.length.hex())
        for o in orbits
    ]


def outcome(build, n, ion):
    try:
        return bits(build(n, ion))
    except WedgeCotError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(case=pi_over_n_ions())
def test_enumerate_analytic_equals_fraction_oracle_bit_for_bit(case):
    n, ion = case
    if buildable(n, ion):
        assert outcome(enumerate_analytic, n, ion) == outcome(fraction_oracle, n, ion)
    else:
        assert outcome(enumerate_analytic, n, ion) is BetaRangeError


def test_zero_chord_edge_is_out_of_range():
    # beta one ulp below pi/21 is the rounded j = 1 launch (1/21) pi itself:
    # the oracle's j = 1 chord is exactly 0, and the catalog rejects beta.
    n = 21
    ion = IonPosition(1.0, math.nextafter(math.pi / n, 0.0))
    assert not buildable(n, ion)
    assert outcome(fraction_oracle, n, ion) is ZeroLengthOrbitError
    assert outcome(enumerate_analytic, n, ion) is BetaRangeError


def test_beta_a_few_ulps_below_pi_over_n_builds_or_is_out_of_range():
    for n in range(1, 201):
        beta = math.pi / n
        for _ in range(3):
            beta = math.nextafter(beta, 0.0)
            try:
                orbits = enumerate_analytic(n, IonPosition(1.0, beta))
            except BetaRangeError:
                continue
            assert len(orbits) == 2 * n - 1


@settings(max_examples=200, deadline=None)
@given(case=pi_over_n_ions())
def test_rho_rescaling_keeps_angles_and_scales_lengths_exactly(case):
    n, ion = case
    assume(buildable(n, ion))
    scaled = enumerate_analytic(n, ion)
    unit = enumerate_analytic(n, IonPosition(1.0, ion.beta))
    for got, ref in zip(scaled, unit, strict=True):
        assert (got.phi_out, got.phi_ret, got.m) == (ref.phi_out, ref.phi_ret, ref.m)
        assert got.length == ion.rho * ref.length


@settings(max_examples=200, deadline=None)
@given(case=pi_over_n_ions())
def test_time_reversed_partners_share_length_bits(case):
    n, ion = case
    assume(buildable(n, ion))
    orbits = enumerate_analytic(n, ion)
    for j in range(2, 2 * n, 2):
        assert orbits[j - 1].length == orbits[2 * n - j - 1].length


# ---------------------------------------------------------- shooting search

def match_catalogs(numeric, analytic):
    assert len(numeric) == len(analytic)
    for found, expect in zip(numeric, analytic):
        gap = abs(found.phi_out - expect.phi_out) % (2 * math.pi)
        assert min(gap, 2 * math.pi - gap) <= 1e-9
        assert found.m == expect.m
        np.testing.assert_allclose(found.length, expect.length, rtol=1e-9)


def test_find_numeric_reproduces_reference_catalog():
    wedge = WedgeGeometry.from_n(5)
    ion = IonPosition(200.0, math.pi / 15)
    numeric = find_numeric(wedge, ion, OrbitSearchConfig(max_reflections=9))
    match_catalogs(numeric, enumerate_analytic(5, ion))


def test_find_numeric_flat_mirror():
    wedge = WedgeGeometry.from_alpha(math.pi)
    ion = IonPosition(200.0, 0.4)
    (orbit,) = find_numeric(wedge, ion, default_search_config(wedge))
    assert orbit.m == 1
    np.testing.assert_allclose(orbit.phi_out, math.pi, rtol=0, atol=1e-9)
    np.testing.assert_allclose(orbit.length, 2.0 * 200.0 * math.sin(0.4),
                               rtol=1e-9)


def test_find_numeric_irrational_wedge_perpendicular_orbits():
    """For an opening angle that is not pi/N the search still returns the
    normal-incidence bounce off each surface, provided the perpendicular
    foot lands on the physical half-line (beta and alpha-beta below pi/2)."""
    alpha = 0.9 * math.pi
    beta = 0.48 * math.pi
    wedge = WedgeGeometry.from_alpha(alpha)
    ion = IonPosition(150.0, beta)
    orbits = find_numeric(wedge, ion, default_search_config(wedge))
    singles = sorted(o.length for o in orbits if o.m == 1)
    expected = sorted(
        [2.0 * 150.0 * math.sin(beta), 2.0 * 150.0 * math.sin(alpha - beta)]
    )
    assert len(singles) == 2
    np.testing.assert_allclose(singles, expected, rtol=1e-9)


def unpaired(catalog, tol=1e-9):
    """Orbits without a time-reversed partner: the partner of (phi_out,
    phi_ret, m) leaves at phi_ret + pi and returns at phi_out + pi."""
    def gap(a, b):
        d = abs(a - b) % TWO_PI
        return min(d, TWO_PI - d)
    return [
        o for o in catalog
        if not any(p.m == o.m and gap(p.phi_out, o.phi_ret + math.pi) <= tol
                   and gap(p.phi_ret, o.phi_out + math.pi) <= tol for p in catalog)
    ]


def assert_retraces(wedge, ion, catalog):
    start = ion_cartesian(wedge, ion)
    for o in catalog:
        path = trace(wedge, start, (math.cos(o.phi_out), math.sin(o.phi_out)), o.m)
        back = [a for a in path.approaches if a.reflections == o.m][-1]
        assert back.distance <= 1e-9 * ion.rho
        np.testing.assert_allclose(back.path_length, o.length, rtol=1e-9)
        gap = abs(back.direction_azimuth - o.phi_ret) % TWO_PI
        assert min(gap, TWO_PI - gap) <= 1e-9


def test_find_numeric_keeps_both_orbits_of_a_pair_just_below_pi_over_2():
    # alpha 4.6e-4 below pi/2: the m = 2 pair closes on either side of the
    # launch at the apex, less than one scan step apart.
    wedge = WedgeGeometry.from_alpha(1.5700792)
    ion = IonPosition(200.0, 0.94764 * 1.5700792)
    orbits = find_numeric(wedge, ion, default_search_config(wedge))
    assert len(orbits) == 4
    assert unpaired(orbits) == []
    assert_retraces(wedge, ion, orbits)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), offset=st.floats(-8.0, -2.0),
       side=st.sampled_from((-1.0, 1.0)), beta_frac=st.floats(0.05, 0.95),
       rho=st.floats(50.0, 800.0))
def test_find_numeric_pairs_every_orbit_near_pi_over_n(n, offset, side, beta_frac, rho):
    """Within 1e-8 to 1e-2 (relative) of a pi/N, on either side, every orbit
    has its time-reversed partner and retraces to the ion."""
    wedge = WedgeGeometry.from_alpha(math.pi / n * (1.0 + side * 10.0**offset))
    ion = IonPosition(rho, beta_frac * wedge.opening_angle)
    orbits = find_numeric(wedge, ion, default_search_config(wedge))
    assert orbits
    assert unpaired(orbits) == []
    assert_retraces(wedge, ion, orbits)


def test_search_config_validation():
    with pytest.raises(ValidationError):
        OrbitSearchConfig(max_reflections=0)


# ------------------------------------------------ images for any opening angle

#: Where the shooting search is known to lose orbits that the images keep
#: (and that retrace under the ray tracer), so the two are not compared:
#: - an orbit whose |Delta| lies within SEARCH_APEX_BAND of pi launches
#:   within half that of the apex, and the scan skips the launches within
#:   2e-11 of it (losses seen up to |Delta| = pi - 4e-11);
#: - within SEARCH_PI_N_BAND (relative) below a pi/N, the launches of the
#:   m = N pair lie pi |1 - alpha N / pi| apart, and the search merges roots
#:   closer than its 1e-8 dedupe tolerance (losses seen up to 3.2e-9);
#: - two launches on one side of the apex closer than SEARCH_SCAN_STEPS scan
#:   steps (beta or alpha - beta apart: the ion is near a wall) share one
#:   bracket (losses seen up to 1.9 steps).
SEARCH_APEX_BAND = 1e-9
SEARCH_PI_N_BAND = 1e-8
SEARCH_SCAN_STEPS = 4


def half_deltas(alpha, beta):
    """Delta_i / 2 of every image i != 0 that could close, from the image
    positions i alpha + beta (even i) and (i+1) alpha - beta (odd i)."""
    top = math.ceil(math.pi / alpha) + 2
    return {i: 0.5 * ((i * alpha + beta if i % 2 == 0 else (i + 1) * alpha - beta) - beta)
            for i in range(-top, top + 1) if i}


def closing(alpha, beta):
    """(m, |Delta_i| / 2) of every image with |Delta_i| <= pi, sorted, or
    None when an image within 1e-12 of |Delta| = pi leaves it to rounding."""
    halves = half_deltas(alpha, beta).items()
    if any(abs(math.pi - 2.0 * abs(h)) <= 1e-12 for _, h in halves):
        return None
    return sorted((abs(i), abs(h)) for i, h in halves if abs(h) <= math.pi / 2)


def in_search_band(wedge, ion):
    alpha, beta = wedge.opening_angle, ion.beta
    n = round(math.pi / alpha)
    if n >= 1 and abs(alpha * n / math.pi - 1.0) < SEARCH_PI_N_BAND:
        return True
    halves = [h for h in half_deltas(alpha, beta).values() if abs(h) <= math.pi / 2]
    if any(math.pi - 2.0 * abs(h) < SEARCH_APEX_BAND for h in halves):
        return True
    step = (2.0 * math.pi - alpha) / (
        SCAN_SAMPLES_PER_REFLECTION * default_search_config(wedge).max_reflections)
    for side in ([h for h in halves if h > 0], [h for h in halves if h < 0]):
        launches = sorted(side)
        if any(b - a < SEARCH_SCAN_STEPS * step for a, b in zip(launches, launches[1:])):
            return True
    return False


def assert_matches_shooting(wedge, ion):
    """The runtime catalog against the shooting search, its oracle."""
    catalog = orbit_catalog(wedge, ion, "numeric")
    reference = find_numeric(wedge, ion, default_search_config(wedge))
    assert len(catalog) == len(reference)
    for ref, got in zip(reference, catalog):
        assert (got.index, got.m) == (ref.index, ref.m)
        for a, b in ((got.phi_out, ref.phi_out), (got.phi_ret, ref.phi_ret)):
            gap = abs(a - b) % TWO_PI
            assert min(gap, TWO_PI - gap) <= 1e-9
        assert abs(got.length - ref.length) <= 1e-9 * ref.length


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.3, math.pi), beta_frac=st.floats(0.001, 0.999),
       rho=st.floats(0.0, 3.0).map(lambda e: 10.0**e))
@example(alpha=math.pi / 4 * (1.0 - 2.0 * SEARCH_PI_N_BAND), beta_frac=0.46, rho=200.0)
@example(alpha=1.0, beta_frac=math.pi / 2 - 1.0 + 1e-8, rho=200.0)
@example(alpha=1.0, beta_frac=0.01, rho=200.0)
def test_shooting_equals_the_images_outside_its_bands(alpha, beta_frac, rho):
    """The numeric catalog, from the images off pi/N, agrees with the
    shooting search to 1e-9 in count, order, m, phi_out, phi_ret and L,
    except in the search's stated bands, and every orbit retraces under
    the ray tracer."""
    wedge = WedgeGeometry.from_alpha(alpha)
    ion = IonPosition(rho, beta_frac * alpha)
    assume(not in_search_band(wedge, ion))
    assert_matches_shooting(wedge, ion)
    assert_retraces(wedge, ion, orbit_catalog(wedge, ion, "numeric"))


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.01, math.pi), beta_frac=st.floats(0.001, 0.999),
       rho=st.floats(1e-3, 1e8))
def test_images_keep_the_count_law_rescaling_and_time_reversal(alpha, beta_frac, rho):
    """The numeric catalog's count is #{i : |Delta_i| <= pi} (2N-1 at
    pi/N), m = |i| and L = 2 rho |sin(Delta_i / 2)|; the orbits are
    numbered from 1 in strictly ascending phi_out; angles do not move with
    rho and lengths scale with it exactly; odd-m orbits retrace themselves,
    and every even-m orbit has its time-reversed partner, with the same
    length bits."""
    wedge = WedgeGeometry.from_alpha(alpha)
    ion = IonPosition(rho, beta_frac * alpha)
    orbits = orbit_catalog(wedge, ion, "numeric")
    assert [o.index for o in orbits] == list(range(1, len(orbits) + 1))
    assert all(a.phi_out < b.phi_out for a, b in zip(orbits, orbits[1:]))
    if wedge.n_integer:
        assert len(orbits) == 2 * wedge.n_integer - 1
    else:
        expected = closing(alpha, ion.beta)
        assume(expected is not None)
        assert len(orbits) == len(expected)
        for o, (m, h) in zip(sorted(orbits, key=lambda o: (o.m, o.length)), expected):
            assert o.m == m
            assert o.length == pytest.approx(2.0 * rho * math.sin(h), rel=1e-12)
    unit = orbit_catalog(wedge, IonPosition(1.0, ion.beta), "numeric")
    for got, ref in zip(orbits, unit, strict=True):
        assert (got.phi_out, got.phi_ret, got.m) == (ref.phi_out, ref.phi_ret, ref.m)
        assert got.length == rho * ref.length
    assert unpaired(orbits, tol=1e-12) == []
    for o in orbits:
        if o.m % 2:
            gap = abs(o.phi_ret - o.phi_out - math.pi) % TWO_PI
            assert min(gap, TWO_PI - gap) <= 1e-12
        else:
            assert sum(p.m == o.m and p.length == o.length for p in orbits) >= 2


def test_numeric_catalog_is_the_analytic_catalog_for_every_n():
    # N = 1 is the flat wall, alpha = pi: one orbit.
    for n in range(1, 201):
        wedge = WedgeGeometry.from_alpha(math.pi / n)
        for frac in (BETA_MIN, 0.37, 0.5, 1.0 - BETA_MIN):
            ion = IonPosition(150.0, frac * wedge.opening_angle)
            numeric = orbit_catalog(wedge, ion, "numeric")
            assert numeric == orbit_catalog(wedge, ion, "analytic")
            assert len(numeric) == 2 * n - 1


@pytest.mark.parametrize("alpha, search_resolves", [(1.0, False), (2.9, True)])
def test_images_at_the_guard_band_edges(alpha, search_resolves):
    """beta at BETA_MIN and at alpha - BETA_MIN: every orbit of the numeric
    catalog retraces under the ray tracer, and the shooting search equals
    it where it resolves the orbits.  At alpha = 1 it does not: the m = 1
    and m = 2 launches lie BETA_MIN apart, inside one scan step, and it
    finds 2 of the 5."""
    wedge = WedgeGeometry.from_alpha(alpha)
    for beta in (BETA_MIN, alpha - BETA_MIN):
        ion = IonPosition(200.0, beta)
        orbits = orbit_catalog(wedge, ion, "numeric")
        assert len(orbits) == len(closing(alpha, beta))
        assert_retraces(wedge, ion, orbits)
        assert in_search_band(wedge, ion) is not search_resolves
        if search_resolves:
            assert_matches_shooting(wedge, ion)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 200), offset=st.floats(-12.0, math.log10(3e-9)),
       side=st.sampled_from((-1.0, 1.0)), beta_frac=st.floats(0.001, 0.999))
@example(n=6, offset=math.log10(3e-9), side=-1.0, beta_frac=0.46)
@example(n=4, offset=math.log10(2.7e-9), side=-1.0, beta_frac=0.7)
def test_images_pair_every_orbit_next_to_pi_over_n(n, offset, side, beta_frac):
    """1e-12 to 3e-9 (relative) either side of a pi/N, inside the shooting
    search's band, the numeric catalog keeps the count law and both orbits
    of every time-reversed pair: the m = N pair closes just below pi/N."""
    alpha = math.pi / n * (1.0 + side * 10.0**offset)
    assume(alpha <= math.pi)
    wedge = WedgeGeometry.from_alpha(alpha)
    ion = IonPosition(200.0, beta_frac * alpha)
    orbits = orbit_catalog(wedge, ion, "numeric")
    expected = closing(alpha, ion.beta)
    if not wedge.n_integer and expected is not None:
        assert len(orbits) == len(expected)
    assert unpaired(orbits) == []


@pytest.mark.parametrize("epsilon", [1e-10, 1e-11, 5e-12])
def test_an_orbit_next_to_the_apex_is_kept(epsilon):
    """At alpha = 1 the image i = 3 sits at Delta = 4 alpha - 2 beta.  With
    |Delta| = pi - epsilon its orbit passes next to the apex and is kept,
    and it retraces; with pi + epsilon it does not close."""
    wedge = WedgeGeometry.from_alpha(1.0)
    for sign, count in ((-1.0, 6), (1.0, 5)):
        beta = (4.0 - (math.pi + sign * epsilon)) / 2.0
        ion = IonPosition(200.0, beta)
        orbits = orbit_catalog(wedge, ion, "numeric")
        assert len(orbits) == len(closing(1.0, beta)) == count
        longest = max(orbits, key=lambda o: o.length)
        if sign < 0.0:
            assert longest.m == 3
            assert longest.length == pytest.approx(2.0 * ion.rho, rel=1e-12)
            assert_retraces(wedge, ion, orbits)
        else:
            assert longest.length < 1.99 * ion.rho


@pytest.mark.parametrize("alpha", [0.02, math.nextafter(2.0 * BETA_MIN, 1.0)])
def test_narrow_wedges_build_their_catalog_fast_without_shooting(alpha,
                                                                 no_shooting):
    """alpha = 0.02 took the shooting search 50 s; it, and the narrowest
    wedge the guard band allows, each build the images in under 0.5 s,
    with neither the shooting search nor the ray tracer called."""
    wedge = WedgeGeometry.from_alpha(alpha)
    ion = IonPosition(200.0, 0.5 * alpha)
    start = time.perf_counter()
    orbits = orbit_catalog(wedge, ion, "numeric")
    assert time.perf_counter() - start < 0.5
    assert len(orbits) == len(closing(alpha, ion.beta))
    assert unpaired(orbits, tol=1e-12) == []
