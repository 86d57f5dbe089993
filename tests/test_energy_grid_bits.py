"""Energy grids against per-point sigma_total, bit for bit.

The energy generators fold the orbit sum orbit by orbit over the whole
grid, while sigma_total folds one point at a time; both must give the same
bits.  This module imports no numpy, so it runs wherever the dataset
commands do, on every supported Python.
"""

import math
from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedge_cot.geometry import BETA_MIN, IonPosition, WedgeGeometry
from wedge_cot.spectrum import Polarization, ReflectionModel, sigma_total
from wedge_cot.sweeps import energy_sweep, orbit_decomposition


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
