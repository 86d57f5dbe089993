"""The catalog-free closed forms against the orbit sum, over the whole domain.

sigma_x_closed_form and sigma_y_closed_form build S_xx and S_yy from the
chords and bounce counts of a pi/N wedge, with no orbit catalog; sigma_total
sums the catalog of either orbit source through the kernel.  Both write each
orbit's wave as sin(k L - m Delta), so they must agree for hard walls, soft
walls and any other phase loss.  This module imports no numpy, so it runs
wherever the dataset commands do, on every supported Python.
"""

import math
from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedge_cot.geometry import BETA_MIN, IonPosition, WedgeGeometry
from wedge_cot.spectrum import (
    ORBIT_SOURCES,
    Polarization,
    ReflectionModel,
    sigma_total,
    sigma_x_closed_form,
    sigma_y_closed_form,
)

# (N, beta) with beta anywhere in the guard band.
_wedges = st.integers(1, 200).flatmap(lambda n: st.tuples(
    st.just(n), st.floats(BETA_MIN, math.pi / n - BETA_MIN)))
_walls = st.one_of(
    st.just(ReflectionModel.hard()), st.just(ReflectionModel.soft()),
    st.builds(ReflectionModel, st.floats(-10.0, 10.0)),  # --delta
)
_closed_forms = {"x": (Polarization.x(), sigma_x_closed_form),
                 "y": (Polarization.y(), sigma_y_closed_form)}


def _scale(sigma0, k, n, rho, beta):
    """sigma0 (1 + (3/k) sum_j 1/L_j): the background plus every orbit's
    amplitude, with the lengths from the wedge geometry."""
    lengths = [2.0 * rho * math.sin(beta)]
    for i in range(1, n):
        lengths.append(2.0 * rho * math.sin(i * math.pi / n - beta))
        lengths.append(2.0 * rho * math.sin(i * math.pi / n))
    return sigma0 * (1.0 + 3.0 / k * sum(1.0 / abs(L) for L in lengths))


@settings(max_examples=300, deadline=timedelta(seconds=10))
@given(wedge_beta=_wedges, rho_exp=st.floats(-3.0, 4.0), refl=_walls,
       axis=st.sampled_from(sorted(_closed_forms)),
       source=st.sampled_from(ORBIT_SOURCES), e_photon=st.floats(0.76, 3.0))
@example(wedge_beta=(200, math.pi / 200 - BETA_MIN), rho_exp=4.0,
         refl=ReflectionModel(-10.0), axis="y", source="numeric", e_photon=3.0)
@example(wedge_beta=(1, BETA_MIN), rho_exp=-3.0, refl=ReflectionModel.soft(),
         axis="x", source="analytic", e_photon=0.76)
def test_closed_forms_match_the_orbit_sum(wedge_beta, rho_exp, refl, axis,
                                          source, e_photon):
    n, beta = wedge_beta
    ion = IonPosition(10.0 ** rho_exp, beta)
    pol, closed_form = _closed_forms[axis]
    via_orbits = sigma_total(e_photon, WedgeGeometry.from_n(n), ion, pol,
                             refl, source)
    closed = closed_form(e_photon, n, ion, refl=refl)
    scale = _scale(via_orbits.sigma0, via_orbits.k, n, ion.rho, beta)
    assert abs(closed.sigma_osc - via_orbits.sigma_osc) <= 1e-12 * scale
