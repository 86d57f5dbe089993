"""Cross-section assembly: background, orbit terms, closed forms, identities.

Reference numbers marked "frozen" were computed once with 60-digit mpmath
and pasted here as decimals; the library must reproduce them in doubles.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedge_cot.constants import DEFAULT_CONSTANTS, PhysicalConstants
from wedge_cot.errors import (
    BelowThresholdError,
    ValidationError,
    ZeroLengthOrbitError,
)
from wedge_cot.geometry import BETA_MIN, IonPosition, WedgeGeometry
from wedge_cot.orbits import enumerate_analytic
from wedge_cot.spectrum import (
    Polarization,
    ReflectionModel,
    SpectrumPoint,
    angular_factor,
    energy_conversion,
    orbit_catalog,
    orbit_term,
    phase_sin,
    sigma_background,
    sigma_total,
    sigma_x_closed_form,
    sigma_y_closed_form,
    sigma_z_closed_form,
)

# frozen bound-state scales for the default constants
K_B = 0.23541023308447687
E_B_HARTREE = 0.027708988920443864


def test_bound_state_scales():
    assert DEFAULT_CONSTANTS.binding_energy == E_B_HARTREE
    assert DEFAULT_CONSTANTS.k_b == K_B


# ------------------------------------------------------- energy conversion

def test_energy_conversion_rejects_threshold():
    with pytest.raises(BelowThresholdError):
        energy_conversion(0.754)
    with pytest.raises(BelowThresholdError):
        energy_conversion(0.5)


def test_energy_conversion_one_binding_energy_above():
    # E_photon = 2 E_b leaves the electron with exactly E_b of kinetic energy.
    energy, k = energy_conversion(2 * 0.754)
    assert energy == E_B_HARTREE
    assert k == K_B


def test_energy_conversion_frozen_point():
    energy, k = energy_conversion(1.0)
    np.testing.assert_allclose(energy, 0.009040333255211128, rtol=1e-15)
    np.testing.assert_allclose(k, 0.13446436892508831, rtol=1e-15)


@settings(max_examples=200)
@given(e_photon=st.floats(0.7541, 500.0))
def test_energy_conversion_momentum_roundtrip(e_photon):
    energy, k = energy_conversion(e_photon)
    np.testing.assert_allclose(0.5 * k * k, energy, rtol=1e-15)


# ------------------------------------------------------------- background

def test_sigma_background_frozen_values():
    np.testing.assert_allclose(
        sigma_background(E_B_HARTREE), 1.4628012464193514, rtol=1e-15
    )
    np.testing.assert_allclose(
        sigma_background(0.009040333255211128), 0.9348350522281519, rtol=1e-15
    )
    coarse_c = PhysicalConstants(c_light=137.0)
    np.testing.assert_allclose(
        sigma_background(E_B_HARTREE, coarse_c), 1.4631856321483375, rtol=1e-15
    )


def test_sigma_background_peaks_at_binding_energy():
    optimize = pytest.importorskip("scipy.optimize")
    res = optimize.minimize_scalar(
        lambda e: -sigma_background(e),
        bounds=(E_B_HARTREE / 20, 20 * E_B_HARTREE),
        method="bounded",
        options={"xatol": 1e-14},
    )
    np.testing.assert_allclose(res.x, E_B_HARTREE, rtol=1e-6)


def test_sigma_background_rejects_nonpositive_energy():
    with pytest.raises(BelowThresholdError):
        sigma_background(0.0)


# ----------------------------------------------------------- angular factor

def test_angular_factor_axis_cases():
    assert angular_factor(0.7, 1.3, Polarization.z()) == pytest.approx(
        math.cos(0.7), rel=1e-15
    )
    assert angular_factor(math.pi / 2, 0.0, Polarization.x()) == pytest.approx(
        1.0, rel=1e-15
    )


def test_angular_factor_is_a_dot_product():
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        pol = Polarization(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        rhat = np.array([
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ])
        np.testing.assert_allclose(
            angular_factor(theta, phi, pol),
            float(rhat @ np.asarray(pol.unit_vector())),
            rtol=0, atol=1e-15,
        )


# -------------------------------------------------------- phase evaluation

def test_phase_sin_matches_naive_for_small_products():
    assert phase_sin(0.3, 100.0, 0.25) == math.sin(0.3 * 100.0 - 0.25)


def test_phase_sin_survives_huge_products():
    """k*L near 8.1e9: the naive product loses eight digits of phase, the
    compensated reduction keeps the frozen 60-digit value."""
    value = phase_sin(0.8371, 9.7e9, 0.0)
    np.testing.assert_allclose(value, -0.9963576297554717, rtol=5e-16)
    assert abs(math.sin(0.8371 * 9.7e9) - value) > 1e-9  # naive drifts

    shifted = phase_sin(0.8371, 9.7e9, 1.5 * math.pi)
    np.testing.assert_allclose(shifted, 0.08527293608207889, rtol=5e-14)


@pytest.mark.parametrize("k, length", [
    (0.134, 2e300),      # Dekker's split of L overflows
    (1e301, 2.0),        # ... of k
    (10.0, 1e300),       # ... of k*L/(2 pi)
    (1e10, 1e300),       # k*L overflows
])
def test_phase_sin_rejects_products_it_cannot_reduce(k, length):
    with pytest.raises(ValidationError, match=r"k\*L = .* too large"):
        phase_sin(k, length, math.pi)


def test_phase_sin_reduces_up_to_the_split_limit():
    # L = 1e300 is below the 1.3e300 split limit: a finite phase.
    assert abs(phase_sin(0.134, 1e300, math.pi)) <= 1.0


# ------------------------------------------------------------- orbit terms

def test_orbit_terms_vanish_for_out_of_plane_polarization(ion_ref, hard):
    for orbit in enumerate_analytic(5, ion_ref):
        assert orbit_term(orbit, 0.2, Polarization.z(), hard) == 0.0


def test_orbit_term_sign_of_left_perpendicular_orbit(ion_ref, hard):
    """The orbit bouncing straight off the left surface contributes
    +(3 sigma0/k) sin(kL)/L for x polarization and hard walls: the two
    angular factors are each -1 and the reflection phase flips the sine."""
    orbit = enumerate_analytic(5, ion_ref)[8]
    k = 0.2
    sigma0 = sigma_background(0.5 * k * k)
    expected = 3.0 * sigma0 / k * math.sin(k * orbit.length) / orbit.length
    np.testing.assert_allclose(orbit_term(orbit, k, Polarization.x(), hard),
                               expected, rtol=1e-12)


def test_time_reversed_pair_terms_agree(ion_ref):
    orbits = enumerate_analytic(5, ion_ref)
    pols = [Polarization.x(), Polarization.y(), Polarization(1.1, 0.7)]
    for refl in (ReflectionModel.hard(), ReflectionModel.soft(),
                 ReflectionModel(1.0)):
        for pol in pols:
            for k in (0.1, 0.5, 1.3):
                t2 = orbit_term(orbits[1], k, pol, refl)
                t8 = orbit_term(orbits[7], k, pol, refl)
                np.testing.assert_allclose(t2, t8, rtol=0,
                                           atol=1e-14 * max(1.0, abs(t2)))


def test_orbit_term_rejects_nonpositive_k(ion_ref, hard):
    orbit = enumerate_analytic(5, ion_ref)[0]
    with pytest.raises(ValidationError):
        orbit_term(orbit, 0.0, Polarization.x(), hard)


# ------------------------------------------------------------- sigma_total

def test_sigma_splits_exactly(wedge5, ion_ref, hard):
    point = sigma_total(1.0, wedge5, ion_ref, Polarization.x(), hard)
    assert point.sigma == point.sigma0 + point.sigma_osc
    assert point.sigma_osc != 0.0


def test_sigma_total_z_polarization_is_pure_background(wedge5, ion_ref, hard):
    for e in np.linspace(0.78, 1.4, 7):
        point = sigma_total(float(e), wedge5, ion_ref, Polarization.z(), hard)
        assert point.sigma_osc == 0.0


def test_polarization_sum_identity_and_bound(wedge5, ion_ref):
    """Summing the oscillation over the three axis polarizations collapses
    the two angular factors to cos(phi_out - phi_ret); independently, each
    |sigma_osc| is bounded by the all-orbits amplitude envelope."""
    orbits = enumerate_analytic(5, ion_ref)
    for delta in (math.pi, math.pi / 2):
        refl = ReflectionModel(delta)
        for e in np.linspace(0.78, 1.4, 100):
            e = float(e)
            point_x = sigma_total(e, wedge5, ion_ref, Polarization.x(), refl)
            point_y = sigma_total(e, wedge5, ion_ref, Polarization.y(), refl)
            point_z = sigma_total(e, wedge5, ion_ref, Polarization.z(), refl)
            total = point_x.sigma_osc + point_y.sigma_osc + point_z.sigma_osc
            k, sigma0 = point_x.k, point_x.sigma0
            rhs = sum(
                3.0 * sigma0 / k * math.cos(o.phi_out - o.phi_ret)
                * math.sin(k * o.length - o.m * delta) / o.length
                for o in orbits
            )
            envelope = 3.0 * sigma0 / k * sum(1.0 / o.length for o in orbits)
            scale = max(abs(rhs), sigma0)
            np.testing.assert_allclose(total, rhs, rtol=0, atol=1e-12 * scale)
            for point in (point_x, point_y, point_z):
                assert abs(point.sigma_osc) <= envelope


def test_oscillation_scales_as_sin_squared_theta(wedge5, ion_ref, hard):
    # In-plane orbits make sigma_osc proportional to sin^2(theta_L).
    base = sigma_total(1.0, wedge5, ion_ref, Polarization(math.pi / 2, 0.9),
                       hard).sigma_osc
    for theta in (0.3, 0.7, 1.2, 2.0):
        point = sigma_total(1.0, wedge5, ion_ref, Polarization(theta, 0.9), hard)
        np.testing.assert_allclose(point.sigma_osc,
                                   base * math.sin(theta) ** 2, rtol=1e-12)


def test_orbit_source_independence(wedge5, ion_ref, hard):
    for e in (0.8, 1.0, 1.3):
        a = sigma_total(e, wedge5, ion_ref, Polarization.x(), hard, "analytic")
        b = sigma_total(e, wedge5, ion_ref, Polarization.x(), hard, "numeric")
        np.testing.assert_allclose(b.sigma_osc, a.sigma_osc,
                                   rtol=0, atol=1e-8 * a.sigma0)
        assert b.sigma0 == a.sigma0


def test_sigma_total_at_extreme_lengths_names_the_problem(wedge5, hard):
    pol = Polarization.x()
    with pytest.raises(ValidationError, match=r"k\*L = .* too large"):
        sigma_total(1.0, wedge5, IonPosition(1e300, math.pi / 15), pol, hard)
    # 2 rho overflows: the catalog rejects the infinite length first.
    with pytest.raises(ZeroLengthOrbitError, match="got inf"):
        sigma_total(1.0, wedge5, IonPosition(1e308, math.pi / 15), pol, hard)


def test_sigma_total_names_a_non_finite_sigma_osc(wedge5):
    # Far inside the wavelength 1/L overflows, and +inf and -inf terms sum
    # to nan.
    with pytest.raises(ValidationError,
                       match=r"^sigma_osc is nan \(e_photon_ev = 1\.0\)$"):
        sigma_total(1.0, wedge5, IonPosition(1e-310, 0.2), Polarization.x(),
                    ReflectionModel.soft())
    fields = dict(e_photon_ev=1.0, energy=0.01, k=0.1, sigma0=1.0,
                  sigma_osc=0.5, sigma=1.5)
    for name in ("sigma0", "sigma_osc", "sigma"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError, match=f"^{name} is {value} "):
                SpectrumPoint(**{**fields, name: value})
    with pytest.raises(ValidationError, match="sigma0 \\+ sigma_osc exactly"):
        SpectrumPoint(**{**fields, "sigma": math.nextafter(1.5, 2.0)})


def test_sigma_total_enforces_beta_guard(wedge5, hard):
    from wedge_cot.errors import BetaRangeError
    with pytest.raises(BetaRangeError):
        sigma_total(1.0, wedge5, IonPosition(200.0, 1e-5), Polarization.x(), hard)


# ------------------------------------------------------------ closed forms

def test_closed_forms_match_orbit_sum(wedge5, ion_ref, hard):
    """The expanded formulas reproduce the orbit-sum evaluation, for hard
    walls, soft walls and any other phase loss.

    Tolerance is relative to max(|sigma|, sigma0): near the zeros of sigma
    a plain relative comparison is unsatisfiable in doubles.
    """
    cases = [
        (1, IonPosition(180.0, 0.9)),
        (3, IonPosition(333.0, 0.21)),
        (5, IonPosition(200.0, math.pi / 15)),
        (8, IonPosition(92.0, 0.3)),
    ]
    # Every N up to 8, across the guard band and out to large rho.
    for n in range(1, 9):
        alpha = math.pi / n
        cases += [
            (n, IonPosition(57.0, 0.1 * alpha)),
            (n, IonPosition(410.0, 0.5 * alpha)),
            (n, IonPosition(1234.5, 0.93 * alpha)),
            (n, IonPosition(300.0, BETA_MIN)),
            (n, IonPosition(300.0, alpha - BETA_MIN)),
        ]
    walls = (None, ReflectionModel.soft(), ReflectionModel(2.5))
    for (n, ion), refl in itertools.product(cases, walls):
        wedge = WedgeGeometry.from_n(n)
        for e in np.linspace(0.79, 1.38, 10):
            e = float(e)
            via_orbits_x = sigma_total(e, wedge, ion, Polarization.x(), refl or hard)
            closed_x = sigma_x_closed_form(e, n, ion, refl=refl)
            scale = max(abs(via_orbits_x.sigma), via_orbits_x.sigma0)
            np.testing.assert_allclose(closed_x.sigma, via_orbits_x.sigma,
                                       rtol=0, atol=1e-12 * scale)
            via_orbits_y = sigma_total(e, wedge, ion, Polarization.y(), refl or hard)
            closed_y = sigma_y_closed_form(e, n, ion, refl=refl)
            np.testing.assert_allclose(closed_y.sigma, via_orbits_y.sigma,
                                       rtol=0, atol=1e-12 * scale)


def test_flat_mirror_closed_forms():
    # N=1: x polarization keeps the single perpendicular orbit, y drops it.
    ion = IonPosition(200.0, 0.4)
    point_y = sigma_y_closed_form(1.0, 1, ion)
    assert point_y.sigma == point_y.sigma0
    point_x = sigma_x_closed_form(1.0, 1, ion)
    energy, k = energy_conversion(1.0)
    sigma0 = sigma_background(energy)
    chord = math.sin(0.4)
    standalone = (3.0 * sigma0 * math.sin(2 * k * 200.0 * chord)
                  / (2 * k * 200.0 * chord))
    np.testing.assert_allclose(point_x.sigma_osc, standalone, rtol=1e-12)


def test_z_closed_form_is_background_only(wedge5, ion_ref, hard):
    point = sigma_z_closed_form(1.0)
    assert point.sigma == point.sigma0
    assert point.sigma_osc == 0.0
    # E_photon = 2 E_b puts the background exactly at its maximum.
    at_peak = sigma_z_closed_form(2 * 0.754)
    np.testing.assert_allclose(at_peak.sigma, 1.4628012464193514, rtol=1e-15)
    via_orbits = sigma_total(1.0, wedge5, ion_ref, Polarization.z(), hard)
    assert abs(point.sigma_osc - via_orbits.sigma_osc) <= 1e-15


@pytest.mark.parametrize("closed", [sigma_x_closed_form, sigma_y_closed_form])
def test_closed_forms_refuse_a_phase_loss_that_swamps_k_l(closed, ion_ref):
    with pytest.raises(ValidationError, match=(
            r"^m\*Delta = 1e\+17 \(m = 1, Delta = 1e\+17\) is too large: ")):
        closed(1.0, 5, ion_ref, refl=ReflectionModel(1e17))


def test_amplitude_envelope_decays_with_rho(wedge5, hard):
    # 1/L per orbit means the oscillation amplitude falls off as 1/rho.
    small = sigma_total(1.0, wedge5, IonPosition(100.0, math.pi / 15),
                        Polarization.x(), hard)
    large = sigma_total(1.0, wedge5, IonPosition(10000.0, math.pi / 15),
                        Polarization.x(), hard)
    envelope_small = abs(small.sigma_osc)
    # At 100x the distance the envelope allows at most 1/100 of the
    # amplitude; compare against the analytic bound rather than the
    # oscillating sample itself.
    k = large.k
    bound_large = (3.0 * large.sigma0 / k) * sum(
        1.0 / o.length for o in enumerate_analytic(5, IonPosition(10000.0,
                                                                  math.pi / 15))
    )
    assert bound_large < envelope_small


# ------------------------------------------------------------ input checks

@pytest.mark.parametrize("call, error, message", [
    (lambda: Polarization(1.0, math.inf), ValidationError,
     "phi_L must be finite"),
    (lambda: orbit_catalog(WedgeGeometry.from_n(5),
                           IonPosition(200.0, math.pi / 15), "exact"),
     ValidationError,
     "orbit_source must be one of ('analytic', 'numeric'), got 'exact'"),
])
def test_input_checks_raise_their_error(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message
