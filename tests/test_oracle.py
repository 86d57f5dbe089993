"""Numeric cross-checks: quadratures against closed forms, FFT length recovery."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedge_cot.constants import DEFAULT_CONSTANTS, PhysicalConstants
from wedge_cot import oracle
from wedge_cot.errors import ConvergenceError, GridError, ValidationError
from wedge_cot.geometry import IonPosition, WedgeGeometry
from wedge_cot.oracle import (
    OVERLAP_TOLERANCE,
    ActionSpectrum,
    QuadratureSpec,
    _find_peaks,
    _radial_pass,
    action_spectrum,
    angular_integral_check,
    closed_form_overlap,
    overlap_quadrature,
    overlap_with_estimate,
    radial_integral,
)
from wedge_cot.orbits import enumerate_analytic
from wedge_cot.spectrum import Polarization, ReflectionModel, sigma_total

K_B = DEFAULT_CONSTANTS.k_b
X_AXIS = (1.0, 0.0, 0.0)


# --------------------------------------------------------- radial integral

def test_radial_integral_at_bound_momentum():
    # 2k/(k_b^2+k^2)^2 collapses to 1/(2 k_b^3) at k = k_b.
    np.testing.assert_allclose(radial_integral(K_B), 1.0 / (2.0 * K_B**3),
                               rtol=1e-10)


def test_radial_integral_small_momentum_limit():
    k = 1e-4
    np.testing.assert_allclose(radial_integral(k), 2.0 * k / K_B**4, rtol=1e-6)
    np.testing.assert_allclose(radial_integral(k),
                               2.0 * k / (K_B**2 + k**2) ** 2, rtol=1e-10)


def test_radial_integral_sweep():
    for k in (0.05, 0.3, K_B, 1.0):
        np.testing.assert_allclose(radial_integral(k),
                                   2.0 * k / (K_B**2 + k**2) ** 2, rtol=1e-10)


def test_radial_integral_rejects_nonpositive_k():
    with pytest.raises(ValidationError):
        radial_integral(-0.2)


def radial_closed_form(k):
    return 2.0 * k / (K_B**2 + k**2) ** 2


@settings(max_examples=200, deadline=None)
@given(k=st.floats(1e-4, 5.0))
def test_radial_integral_matches_closed_form(k):
    np.testing.assert_allclose(radial_integral(k), radial_closed_form(k),
                               rtol=1e-10)


def test_radial_integral_matches_scipy_quad():
    integrate = pytest.importorskip("scipy.integrate")
    special = pytest.importorskip("scipy.special")

    @settings(max_examples=50, deadline=None)
    @given(k=st.floats(1e-4, 5.0))
    def check(k):
        def integrand(r):
            return math.exp(-K_B * r) * special.spherical_jn(1, k * r) * r * r

        # A finite range: quad maps [0, inf) onto (0, 1], which crowds the
        # oscillation of j1 into one endpoint and misses rtol 1e-10 at
        # scattered k (k = 4.7395 among them). Past r = 80/K_B the
        # integrand is below e^-80 of its scale.
        value, _ = integrate.quad(integrand, 0.0, 80.0 / K_B, epsabs=1e-15,
                                  epsrel=1e-12, limit=2000)
        np.testing.assert_allclose(radial_integral(k), value, rtol=1e-10)

    check()


def test_radial_integral_refines_past_the_first_pass():
    # At k = 3 the 128-node pass is far off and must not be what is returned.
    exact = radial_closed_form(3.0)
    assert abs(_radial_pass(3.0, K_B, 128) - exact) > 0.5 * exact
    np.testing.assert_allclose(radial_integral(3.0), exact, rtol=1e-10)


def test_radial_integral_returns_the_finer_of_the_first_agreeing_passes(
        monkeypatch):
    # Passes by node count; k = 0.01 starts the doubling at 128 nodes.
    passes = {128: 1.0, 256: 0.5, 512: 0.5 + 1e-16, 1024: 0.25}
    monkeypatch.setattr(oracle, "_radial_pass",
                        lambda k, k_b, nodes: passes[nodes])
    assert radial_integral(0.01) == passes[512]
    monkeypatch.setattr(oracle, "_radial_pass",
                        lambda k, k_b, nodes: float(nodes))
    with pytest.raises(ConvergenceError):
        radial_integral(0.01)


def test_radial_integral_at_large_k_converges_or_raises_in_bounded_time():
    for k in (20.0, 50.0):
        start = time.perf_counter()
        np.testing.assert_allclose(radial_integral(k), radial_closed_form(k),
                                   rtol=1e-9)
        assert time.perf_counter() - start < 5.0
    # At k = 1e10 the integral (2e-30) lies far below the absolute agreement
    # bound, so passes too coarse to see the wave would agree on noise.
    for k in (1e4, 1e10):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError):
            radial_integral(k)
        assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call", [
    radial_integral,
    lambda k: overlap_with_estimate(k, Polarization.x(), X_AXIS),
    lambda k: overlap_quadrature(k, Polarization.x(), X_AXIS),
    lambda k: closed_form_overlap(k, Polarization.x(), X_AXIS),
], ids=["radial_integral", "overlap_with_estimate", "overlap_quadrature",
        "closed_form_overlap"])
def test_nonfinite_k_is_rejected(call, k):
    with pytest.raises(ValidationError):
        call(k)


# -------------------------------------------------------- angular integral

def test_angular_integral_parallel_case():
    value = angular_integral_check(Polarization.z(), (0.0, 0.0, 1.0))
    np.testing.assert_allclose(value, 4.0 * math.pi / 3.0, rtol=1e-12)


def test_angular_integral_perpendicular_case():
    value = angular_integral_check(Polarization.x(), (0.0, 0.0, 1.0))
    assert abs(value) <= 1e-12


def test_angular_integral_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pol = Polarization(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        expected = 4.0 * math.pi / 3.0 * float(
            np.asarray(pol.unit_vector()) @ direction
        )
        np.testing.assert_allclose(
            angular_integral_check(pol, tuple(direction)), expected,
            rtol=0, atol=1e-10 * 4.0 * math.pi / 3.0,
        )


# --------------------------------------------------------- overlap integral

def test_overlap_parallel_polarization_at_bound_momentum():
    # epsilon parallel to the return direction at k = k_b: i 2 pi B / k_b^3.
    value = overlap_quadrature(K_B, Polarization.x(), X_AXIS)
    expected = 2j * math.pi * DEFAULT_CONSTANTS.b_norm / K_B**3
    np.testing.assert_allclose(
        closed_form_overlap(K_B, Polarization.x(), X_AXIS).imag,
        expected.imag, rtol=1e-15,
    )
    np.testing.assert_allclose(value.imag, expected.imag, rtol=1e-9)
    assert abs(value.real) <= 1e-9 * abs(expected.imag)


def test_overlap_perpendicular_polarization_vanishes():
    value = overlap_quadrature(0.4, Polarization.z(), X_AXIS)
    scale = abs(closed_form_overlap(0.4, Polarization.x(), X_AXIS))
    assert abs(value) <= 1e-9 * scale


def test_overlap_composition_identity():
    """The 3-D quadrature factors into 3iB * radial * angular."""
    rng = np.random.default_rng(17)
    for _ in range(5):
        k = float(rng.uniform(0.05, 1.0))
        pol = Polarization(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        whole = overlap_quadrature(k, pol, tuple(direction))
        factored = (3j * DEFAULT_CONSTANTS.b_norm * radial_integral(k)
                    * angular_integral_check(pol, tuple(direction)))
        scale = 8.0 * DEFAULT_CONSTANTS.b_norm * k * math.pi / (K_B**2 + k**2) ** 2
        assert abs(whole - factored) <= 1e-6 * scale


def test_overlap_estimate_bounds_node_doubling():
    """Doubling every node count moves the value by less than the estimate."""
    spec = QuadratureSpec.default(DEFAULT_CONSTANTS)
    doubled = QuadratureSpec(
        radial_cutoff=spec.radial_cutoff,
        radial_nodes=2 * spec.radial_nodes,
        polar_nodes=2 * spec.polar_nodes,
        azimuthal_nodes=2 * spec.azimuthal_nodes,
    )
    cases = [
        (0.05, Polarization.x(), X_AXIS),
        (1.0, Polarization.x(), X_AXIS),
        (0.3, Polarization(1.1, 0.7), (0.3, -0.5, 0.81)),
    ]
    for k, pol, direction in cases:
        value, estimate = overlap_with_estimate(k, pol, direction, spec=spec)
        finer = overlap_quadrature(k, pol, direction, spec=doubled)
        assert abs(finer - value) <= estimate
        # and the estimate is honest against the closed form too
        assert abs(value - closed_form_overlap(k, pol, direction)) <= estimate


def test_overlap_flags_unconverged_spec():
    # A huge radial cutoff with the minimum node count starves the radial
    # rule at k = 1 and must be reported, not silently returned.
    starved = QuadratureSpec(radial_cutoff=120.0 / K_B, radial_nodes=64,
                             polar_nodes=64, azimuthal_nodes=64)
    with pytest.raises(ConvergenceError):
        overlap_quadrature(1.0, Polarization.x(), X_AXIS, spec=starved)


def test_overlap_rejects_short_cutoff():
    with pytest.raises(ValidationError):
        overlap_quadrature(
            0.3, Polarization.x(), X_AXIS,
            spec=QuadratureSpec(radial_cutoff=10.0 / K_B, radial_nodes=64,
                                polar_nodes=64, azimuthal_nodes=64),
        )
    with pytest.raises(ValidationError):
        overlap_quadrature(0.0, Polarization.x(), X_AXIS)


def test_overlap_tolerance_is_declared():
    assert OVERLAP_TOLERANCE == 1e-6


# ---------------------------------------------------------- action spectrum

def sample_sigma_osc(n_wedge, ion, k_grid):
    wedge = WedgeGeometry.from_n(n_wedge)
    hard = ReflectionModel.hard()
    consts = DEFAULT_CONSTANTS
    rows = []
    for k in k_grid:
        e_photon = 0.5 * k * k * consts.ev_per_hartree + consts.binding_energy_ev
        point = sigma_total(float(e_photon), wedge, ion, Polarization.x(), hard)
        rows.append((float(k), point.sigma_osc))
    return np.asarray(rows)


def test_action_spectrum_flat_mirror_single_peak():
    ion = IonPosition(200.0, math.pi / 15)
    k_grid = np.linspace(0.5, 2.1, 4096)
    spectrum = action_spectrum(sample_sigma_osc(1, ion, k_grid))
    assert isinstance(spectrum, ActionSpectrum)
    assert len(spectrum.peaks) == 1
    bin_width = spectrum.lengths[1] - spectrum.lengths[0]
    peak_length, _ = spectrum.peaks[0]
    assert abs(peak_length - 2.0 * 200.0 * math.sin(math.pi / 15)) <= bin_width


def test_action_spectrum_recovers_reference_lengths():
    ion = IonPosition(200.0, math.pi / 15)
    k_grid = np.linspace(0.5, 2.1, 4096)
    spectrum = action_spectrum(sample_sigma_osc(5, ion, k_grid))
    distinct = sorted({o.length for o in enumerate_analytic(5, ion)})
    assert len(distinct) == 7  # two time-reversed pairs collapse
    assert len(spectrum.peaks) == len(distinct)
    bin_width = spectrum.lengths[1] - spectrum.lengths[0]
    for found, expected in zip(sorted(L for L, _ in spectrum.peaks), distinct):
        assert abs(found - expected) <= bin_width


def test_action_spectrum_of_silence_is_empty():
    k_grid = np.linspace(0.5, 2.1, 1024)
    spectrum = action_spectrum(np.column_stack([k_grid, np.zeros_like(k_grid)]))
    assert spectrum.peaks == ()


def test_action_spectrum_grid_validation():
    k = np.linspace(0.5, 2.1, 1024)
    values = np.sin(40.0 * k)
    warped = np.column_stack([k**1.01, values])
    with pytest.raises(GridError):
        action_spectrum(warped)
    with pytest.raises(GridError):
        action_spectrum(np.column_stack([k[:300], values[:300]]))
    with pytest.raises(GridError):
        action_spectrum(np.stack([k, values]))  # transposed table
    with pytest.raises(ValidationError):
        action_spectrum(np.column_stack([k, values]), window="hamming")


def test_find_peaks_matches_scipy():
    signal = pytest.importorskip("scipy.signal")
    distance = st.integers(1, 12)

    def check(values, height, distance):
        x = np.asarray(values, dtype=float)
        expected = signal.find_peaks(x, height=height, distance=distance)[0]
        np.testing.assert_array_equal(_find_peaks(x, height, distance), expected)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=200),
           height=st.floats(-1e3, 1e3), distance=distance)
    def floats(values, height, distance):
        check(values, height, distance)

    # Small integers: plateaus and equal heights everywhere, which is where
    # the plateau midpoint and the tie order of the distance filter show.
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.integers(0, 3), min_size=1, max_size=200),
           height=st.integers(0, 3), distance=distance)
    def ties(values, height, distance):
        check(values, height, distance)

    floats()
    ties()


# ------------------------------------------------------------ input checks

_K_GRID = np.linspace(0.5, 2.1, 1024)


@pytest.mark.parametrize("call, error, message", [
    (lambda: closed_form_overlap(1.0, Polarization.x(), (1.0, 0.0)),
     ValidationError, "direction must be a 3-vector"),
    (lambda: closed_form_overlap(1.0, Polarization.x(), (0.0, 0.0, 0.0)),
     ValidationError, "direction must be a nonzero finite 3-vector"),
    (lambda: action_spectrum(np.column_stack(
        [_K_GRID + 1e-6 * (np.arange(1024) % 2), np.sin(40.0 * _K_GRID)])),
     GridError, "k grid must be uniform and ascending"),
    (lambda: action_spectrum(np.column_stack(
        [_K_GRID, np.where(np.arange(1024) == 7, np.nan, 0.0)])),
     GridError, "sigma_osc samples must be finite"),
])
def test_input_checks_raise_their_error(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message
