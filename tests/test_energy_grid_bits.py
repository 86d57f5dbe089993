"""Orbit sums bit for bit: sigma_total against a reference written
without the kernel, and the energy grids and position sweeps against
per-point sigma_total.

The generators run the orbit-sum kernel over a whole grid at once, while
sigma_total runs it at one point; both must give the same bits, and those
must be the reference's.  This module imports no numpy, so it runs wherever
the dataset commands do, on every supported Python.
"""

import math
from datetime import timedelta

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wedge_cot.geometry import BETA_MIN, IonPosition, WedgeGeometry
from wedge_cot.spectrum import (
    Polarization,
    ReflectionModel,
    energy_conversion,
    orbit_catalog,
    phase_sin,
    sigma_background,
    sigma_total,
)
from wedge_cot.sweeps import energy_sweep, orbit_decomposition, position_sweep


def _bits(values):
    """float.hex of each value: -0.0 and 0.0 differ, and nan is kept."""
    return tuple(map(float.hex, values))


def _band(n):
    return BETA_MIN, WedgeGeometry.from_n(n).opening_angle - BETA_MIN


# (N, beta) with beta anywhere in the guard band.
_wedges = st.integers(1, 200).flatmap(
    lambda n: st.tuples(st.just(n), st.floats(*_band(n))))
_walls = st.one_of(
    st.just(ReflectionModel.hard()), st.just(ReflectionModel.soft()),
    st.builds(ReflectionModel, st.floats(-10.0, 10.0)),  # --delta
)
_polarizations = st.one_of(
    st.just(Polarization.x()), st.just(Polarization.y()),
    st.builds(Polarization, st.floats(0.0, math.pi),
              st.floats(0.0, 2.0 * math.pi, exclude_max=True)),
)
# The width of the grid in eV, or as a count of ulps of its start: a step
# of a few ulps makes _linspace repeat points.
_widths = st.one_of(st.floats(1e-3, 1.0), st.integers(1, 8))


def _grid_end(start, width):
    if isinstance(width, float):
        return start + width
    stop = start
    for _ in range(width):
        stop = math.nextafter(stop, math.inf)
    return stop


@settings(max_examples=100, deadline=timedelta(seconds=10))
@given(wedge_beta=_wedges, rho_exp=st.floats(-3.0, 12.0), refl=_walls,
       pol=_polarizations, start=st.floats(0.76, 2.0), width=_widths,
       steps=st.integers(2, 512))
# At rho = 1.8e10 the longest orbit's k L crosses 2**32 inside 0.9..1.1 eV.
@example(wedge_beta=(7, 0.1), rho_exp=math.log10(1.8e10),
         refl=ReflectionModel.soft(), pol=Polarization(0.8, 2.1),
         start=0.9, width=0.2, steps=64)
@example(wedge_beta=(200, _band(200)[1]), rho_exp=12.0,
         refl=ReflectionModel.hard(), pol=Polarization.y(),
         start=0.76, width=3, steps=512)
@example(wedge_beta=(1, _band(1)[0]), rho_exp=-3.0,
         refl=ReflectionModel(-2.5), pol=Polarization.x(),
         start=2.0, width=1.0, steps=2)
def test_energy_grid_rows_are_per_point_sigma_total(wedge_beta, rho_exp, refl,
                                                    pol, start, width, steps):
    """Every energy_sweep row, every orbit_decomposition total, and the
    running sum of that row's terms, equal per-point sigma_total's bits."""
    n, beta = wedge_beta
    wedge, ion = WedgeGeometry.from_n(n), IonPosition(10.0**rho_exp, beta)
    args = (start, _grid_end(start, width), steps, wedge, ion, pol, refl)
    sweep, decomposition = energy_sweep(*args), orbit_decomposition(*args)
    assert len(sweep.rows) == len(decomposition.rows) == steps
    for row, terms_row in zip(sweep.rows, decomposition.rows):
        p = sigma_total(row[0], wedge, ion, pol, refl)
        assert _bits(row) == _bits((p.e_photon_ev, p.sigma0, p.sigma_osc, p.sigma))
        running = 0.0
        for term in terms_row[2:]:
            running += term
        assert _bits(terms_row[:2] + (running,)) == _bits(
            (p.e_photon_ev, p.sigma_osc, p.sigma_osc))


def _reference_osc(e_photon_ev, wedge, ion, pol, refl):
    """sigma_osc written out from the catalog, orbit by orbit, apart from
    the kernel: f = sin(theta_L) cos(phi - phi_L), every phase a call of
    phase_sin, and a += running sum in catalog order."""
    energy, k = energy_conversion(e_photon_ev)
    prefactor = 3.0 * sigma_background(energy) / k
    sin_theta = math.sin(pol.theta_L)
    osc = 0.0
    for orbit in orbit_catalog(wedge, ion):
        f_out = sin_theta * math.cos(orbit.phi_out - pol.phi_L)
        f_ret = sin_theta * math.cos(orbit.phi_ret - pol.phi_L)
        phase = phase_sin(k, orbit.length, orbit.m * refl.delta)
        osc += prefactor * f_out * f_ret * phase / orbit.length
    return osc


@settings(max_examples=300, deadline=timedelta(seconds=10))
@given(wedge_beta=_wedges, rho_exp=st.floats(-3.0, 12.0), refl=_walls,
       pol=_polarizations, e_photon_ev=st.floats(0.76, 2.0))
# The ends of the domain: k L = 4.2e-8 for the one orbit at N = 1, and k L
# from 0.14 to 141 times 2**32 over the 399 orbits at N = 200.
@example(wedge_beta=(1, _band(1)[0]), rho_exp=-3.0, refl=ReflectionModel.hard(),
         pol=Polarization.x(), e_photon_ev=0.76)
@example(wedge_beta=(200, _band(200)[1]), rho_exp=12.0,
         refl=ReflectionModel(-2.5), pol=Polarization(0.8, 2.1), e_photon_ev=2.0)
# At rho = 1.8e10 and 1 eV, k L crosses 2**32 inside the catalog.
@example(wedge_beta=(7, 0.1), rho_exp=math.log10(1.8e10),
         refl=ReflectionModel.soft(), pol=Polarization.y(), e_photon_ev=1.0)
def test_sigma_total_is_the_reference_orbit_sum(wedge_beta, rho_exp, refl, pol,
                                                e_photon_ev):
    """sigma_total's sigma_osc and sigma equal the reference's bits."""
    n, beta = wedge_beta
    wedge, ion = WedgeGeometry.from_n(n), IonPosition(10.0**rho_exp, beta)
    p = sigma_total(e_photon_ev, wedge, ion, pol, refl)
    osc = _reference_osc(e_photon_ev, wedge, ion, pol, refl)
    assert _bits((p.sigma_osc, p.sigma)) == _bits((osc, p.sigma0 + osc))


# (N, beta, beta') with both betas anywhere in the guard band.
_band_betas = st.integers(1, 200).flatmap(lambda n: st.tuples(
    st.just(n), st.floats(*_band(n)), st.floats(*_band(n))))
# The same with an opening angle alpha in place of N, down to the narrowest
# wedge the guard band allows.
_alpha_betas = st.floats(2.0 * BETA_MIN, math.pi, exclude_min=True).flatmap(
    lambda alpha: st.tuples(st.just(alpha), st.floats(BETA_MIN, alpha - BETA_MIN),
                            st.floats(BETA_MIN, alpha - BETA_MIN)))
_exponents = st.floats(-3.0, 12.0)
_edge_args = dict(exps=(2.0, -3.0, 12.0), refl=ReflectionModel.hard(), theta=1.0,
                  phi=0.3, steps=32)
# Just below pi/4, where odd images leave the catalog inside the guard band:
# the two m = 5 rows are in no catalog of the band, and 5 Delta >= 2**32
# while 4 Delta < 2**32, so a sweep must not take their m Delta.
_BELOW_PI_4 = 0.78532
_TRAP = ReflectionModel(954437176.8888888)


def _wedge_source(spec):
    """(wedge, orbit source, guard band) for N, or for an opening angle."""
    if isinstance(spec, int):
        wedge, source = WedgeGeometry.from_n(spec), "analytic"
    else:
        wedge, source = WedgeGeometry.from_alpha(spec), "numeric"
    return wedge, source, (BETA_MIN, wedge.opening_angle - BETA_MIN)


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(_band_betas, _alpha_betas),
       exps=st.tuples(_exponents, _exponents, _exponents), refl=_walls,
       theta=st.floats(0.0, math.pi),
       phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
       steps=st.integers(2, 32))
@example(case=(1, *_band(1)), **_edge_args)      # alpha = pi
@example(case=(200, *_band(200)), **_edge_args)  # both guard-band edges
@example(case=(7, *_band(7)), exps=(12.0, -3.0, 12.0),  # k L > 2**32
         refl=ReflectionModel.soft(), theta=0.5 * math.pi, phi=0.0, steps=2)
@example(case=(1.0, BETA_MIN, 1.0 - BETA_MIN), **_edge_args)
@example(case=(2.9, 0.4, 2.5), exps=(12.0, -3.0, 12.0),
         refl=ReflectionModel.soft(), theta=0.5 * math.pi, phi=0.0, steps=32)
@example(case=(2.5e-3, 1.1e-3, 1.4e-3), **_edge_args)  # about 2,500 orbits
@example(case=(_BELOW_PI_4, BETA_MIN, _BELOW_PI_4 - BETA_MIN),
         exps=(math.log10(200.0), 1.0, 3.0), refl=_TRAP, theta=0.5 * math.pi,
         phi=0.0, steps=16)
@example(case=(math.pi / 3 * (1 - 1e-9), BETA_MIN, 1.0), exps=(2.0, 1.0, 3.0),
         refl=ReflectionModel(-2.5), theta=1.1, phi=0.4, steps=32)
def test_position_sweep_rows_are_per_point_sigma_total(case, exps, refl, theta,
                                                       phi, steps):
    """Every rho and beta row of a position sweep is per-point sigma_total
    bit for bit, for N = 1..200 from the analytic source and for any
    opening angle in the guard band from the numeric one, for any wall,
    with rho from 1e-3 to 1e12 bohr."""
    spec, beta_a, beta_b = case
    rho, *rhos = (10.0**e for e in exps)
    assume(beta_a != beta_b and rhos[0] != rhos[1])
    wedge, source, _ = _wedge_source(spec)
    betas = sorted((beta_a, beta_b))
    ion = IonPosition(rho, betas[0])
    pol = Polarization(theta, phi)
    for variable, ends, at in (
        ("rho", sorted(rhos), lambda v: IonPosition(v, ion.beta)),
        ("beta", betas, lambda v: IonPosition(ion.rho, v)),
    ):
        for row in position_sweep(variable, *ends, steps, 1.0, wedge, ion,
                                  pol, refl, source).rows:
            p = sigma_total(1.0, wedge, at(row[0]), pol, refl, source)
            assert _bits(row) == _bits((row[0], p.sigma0, p.sigma_osc, p.sigma))


@settings(max_examples=100, deadline=timedelta(seconds=10))
@given(case=st.one_of(_band_betas, _alpha_betas), rho_exp=_exponents,
       refl=_walls, pol=_polarizations,
       source=st.sampled_from(["analytic", "numeric"]), below=st.booleans(),
       offset=st.floats(1e-12, 10.0), steps=st.integers(2, 32))
@example(case=(200, *_band(200)), rho_exp=12.0, refl=ReflectionModel.soft(),
         pol=Polarization.x(), source="analytic", below=True, offset=1e-12,
         steps=2)
@example(case=(_BELOW_PI_4, BETA_MIN, _BELOW_PI_4 - BETA_MIN), rho_exp=2.0,
         refl=_TRAP, pol=Polarization.y(), source="numeric", below=False,
         offset=1e-12, steps=16)
def test_beta_sweep_does_not_read_ion_beta(case, rho_exp, refl, pol, source,
                                           below, offset, steps):
    """The rows of a beta sweep are the same bits for two ions that differ
    only in beta, one of them outside the guard band: the swept beta stands
    in for the ion's at every point, the first one included.  Off pi/N the
    source is the numeric one."""
    spec, beta_a, beta_b = case
    assume(beta_a != beta_b)
    wedge, fixed, (lo, hi) = _wedge_source(spec)
    source = source if wedge.n_integer else fixed
    rho = 10.0**rho_exp
    outside = lo - offset if below else hi + offset
    rows = [
        position_sweep("beta", *sorted((beta_a, beta_b)), steps, 1.0, wedge,
                       IonPosition(rho, beta), pol, refl, source).rows
        for beta in (beta_a, outside)
    ]
    assert [_bits(row) for row in rows[0]] == [_bits(row) for row in rows[1]]
