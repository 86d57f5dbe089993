"""Dataset generation: grids, columns, provenance, and the trends the
cross section must show as the ion or the polarization moves."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedge_cot.errors import (
    BelowThresholdError,
    BetaRangeError,
    GridError,
    ValidationError,
    ZeroLengthOrbitError,
)
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
from wedge_cot.sweeps import (
    Dataset,
    _linspace,
    energy_sweep,
    orbit_decomposition,
    polarization_map,
    position_sweep,
)


# ---------------------------------------------------------------- datasets

def test_dataset_rejects_ragged_rows():
    with pytest.raises(ValidationError):
        Dataset(columns=("a", "b"), rows=((1.0,),), meta=())


def test_dataset_rejects_non_finite_entries():
    with pytest.raises(ValidationError):
        Dataset(columns=("a",), rows=((math.inf,),), meta=())
    # The message names the column, the row, the value and the row's first
    # column.
    with pytest.raises(ValidationError, match=r"^b is nan in row 1 \(a = 3\.0\)$"):
        Dataset(columns=("a", "b", "c"), rows=((1.0, 2.0, 0.0), (3.0, math.nan, 0.0)),
                meta=())


@pytest.mark.parametrize("last, message", [
    ((4095.0, 1.0), r"^row width 2 does not match 3 columns$"),
    ((4095.0, 1.0, 2.0, 3.0), r"^row width 4 does not match 3 columns$"),
    ((4095.0, math.nan, 2.0), r"^b is nan in row 4095 \(a = 4095\.0\)$"),
    ((4095.0, 1.0, math.inf), r"^c is inf in row 4095 \(a = 4095\.0\)$"),
    ((-math.inf, 1.0, 2.0), r"^a is -inf in row 4095 \(a = -inf\)$"),
])
def test_dataset_names_a_bad_last_row_of_a_large_table(last, message):
    rows = tuple((float(r), 1.0, 2.0) for r in range(4095))
    assert len(Dataset(columns=("a", "b", "c"), rows=rows, meta=()).rows) == 4095
    with pytest.raises(ValidationError, match=message):
        Dataset(columns=("a", "b", "c"), rows=rows + (last,), meta=())


def test_dataset_column_accessor():
    ds = Dataset(columns=("a", "b"), rows=((1.0, 2.0), (3.0, 4.0)), meta=())
    np.testing.assert_array_equal(ds.column("b"), [2.0, 4.0])


# ------------------------------------------------------------------ grids

_magnitudes = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from((-1.0, 1.0)), st.floats(-300.0, 300.0),
)


@settings(max_examples=300, deadline=None)
@given(start=_magnitudes, stop=_magnitudes, num=st.integers(2, 5000),
       endpoint=st.booleans())
@example(start=0.0, stop=1e-320, num=5000, endpoint=True)  # step underflows
@example(start=1.0, stop=1.0000000000000002, num=5000, endpoint=False)
@example(start=0.76, stop=1.4, num=2048, endpoint=True)
def test_linspace_is_numpy_linspace_bit_for_bit(start, stop, num, endpoint):
    ours = _linspace(start, stop, num, endpoint)
    theirs = np.linspace(start, stop, num, endpoint=endpoint).tolist()
    assert [x.hex() for x in ours] == [x.hex() for x in theirs]


# ------------------------------------------------------------ energy sweep

def test_energy_sweep_columns_and_row_count(wedge5, ion_ref, hard):
    ds = energy_sweep(0.76, 1.4, 2, wedge5, ion_ref, Polarization.x(), hard)
    assert ds.columns == ("E_photon_eV", "sigma0_au", "sigma_osc_au", "sigma_au")
    assert len(ds.rows) == 2


def test_energy_sweep_oscillation_is_visible(wedge5, ion_ref, hard):
    ds = energy_sweep(0.76, 1.4, 2048, wedge5, ion_ref, Polarization.x(), hard)
    ratio = np.abs(ds.column("sigma_osc_au")).max() / ds.column("sigma0_au").max()
    assert ratio > 0.01


def test_energy_sweep_rows_split_exactly(wedge5, ion_ref, hard):
    ds = energy_sweep(0.8, 1.2, 64, wedge5, ion_ref, Polarization(1.0, 0.3), hard)
    for e, sigma0, osc, sigma in ds.rows:
        assert sigma == sigma0 + osc


def test_energy_sweep_z_polarization_column_is_zero(wedge5, ion_ref, hard):
    ds = energy_sweep(0.76, 1.4, 32, wedge5, ion_ref, Polarization.z(), hard)
    assert np.all(ds.column("sigma_osc_au") == 0.0)


def test_energy_sweep_grid_validation(wedge5, ion_ref, hard):
    with pytest.raises(BelowThresholdError):
        energy_sweep(0.754, 1.4, 8, wedge5, ion_ref, Polarization.x(), hard)
    with pytest.raises(GridError):
        energy_sweep(1.4, 0.76, 8, wedge5, ion_ref, Polarization.x(), hard)
    with pytest.raises(GridError):
        energy_sweep(0.76, 1.4, 1, wedge5, ion_ref, Polarization.x(), hard)


def test_energy_sweep_provenance(wedge5, ion_ref, hard):
    ds = energy_sweep(0.76, 1.4, 2, wedge5, ion_ref, Polarization.x(), hard)
    meta = dict(ds.meta)
    assert meta["generator"] == "energy_sweep"
    assert meta["n_integer"] == "5"
    assert meta["rho_a0"] == "200.0"
    assert meta["orbit_source"] == "analytic"
    assert "version" in meta


def test_energy_sweep_is_deterministic(wedge5, ion_ref, hard):
    a = energy_sweep(0.8, 1.2, 32, wedge5, ion_ref, Polarization.x(), hard)
    b = energy_sweep(0.8, 1.2, 32, wedge5, ion_ref, Polarization.x(), hard)
    assert a == b


# ----------------------------------------------------------- decomposition

def test_decomposition_columns_sum_to_total(wedge5, ion_ref, hard):
    ds = orbit_decomposition(0.76, 1.4, 128, wedge5, ion_ref,
                             Polarization.x(), hard)
    assert ds.columns[:2] == ("E_photon_eV", "sigma_osc_total_au")
    assert len(ds.columns) == 2 + 9
    for row in ds.rows:
        total, terms = row[1], row[2:]
        running = 0.0
        for term in terms:
            running += term
        assert running == total  # same order, bit for bit


def test_decomposition_total_matches_sigma_total(hard):
    """Every generator sums the orbits the way per-point sigma_total does,
    bit for bit: energy rows, decomposition totals, polarization cells and
    position rows, rho sweeps out to k L >= 2**32 included, from both orbit
    sources and off pi/N too."""
    oblique = Polarization(0.8, 2.1)
    cases = [(WedgeGeometry.from_n(n), refl, "analytic")
             for n in range(1, 9) for refl in (hard, ReflectionModel.soft())]
    # The numeric source on a pi/N wedge and on two that are not.
    cases += [(WedgeGeometry.from_n(3), hard, "numeric")]
    cases += [(WedgeGeometry.from_alpha(alpha), refl, "numeric")
              for alpha in (1.0, 2.9) for refl in (hard, ReflectionModel.soft())]
    steps = 16
    # 1e12 bohr at 1 eV: k L up to about 2.7e11, past 2**32.
    rho_ranges = [(1e-3, 1.0), (50.0, 800.0), (1e9, 1e12)]
    for wedge, refl, source in cases:
        ion = IonPosition(200.0, 0.3 * wedge.opening_angle)

        def point(e, pol=oblique, at=ion):
            return sigma_total(e, wedge, at, pol, refl, source)

        args = (0.9, 1.1, steps, wedge, ion, oblique, refl, source)
        for row in energy_sweep(*args).rows:
            p = point(row[0])
            assert row == (p.e_photon_ev, p.sigma0, p.sigma_osc, p.sigma)
        for row in orbit_decomposition(*args).rows:
            assert row[1] == point(row[0]).sigma_osc
        for theta, phi, osc in polarization_map(
                5, 4, 1.0, wedge, ion, refl, source).rows:
            assert osc == point(1.0, Polarization(theta, phi)).sigma_osc

        betas = (BETA_MIN, wedge.opening_angle - BETA_MIN)
        for pol in (Polarization.x(), oblique):
            for rho_range in rho_ranges:
                for row in position_sweep("rho", *rho_range, steps, 1.0, wedge,
                                          ion, pol, refl, source).rows:
                    p = point(1.0, pol, IonPosition(row[0], ion.beta))
                    assert row == (row[0], p.sigma0, p.sigma_osc, p.sigma)
            for row in position_sweep("beta", *betas, steps, 1.0, wedge,
                                      ion, pol, refl, source).rows:
                p = point(1.0, pol, IonPosition(ion.rho, row[0]))
                assert row == (row[0], p.sigma0, p.sigma_osc, p.sigma)


def _phase_sin_osc(e_photon_ev, wedge, ion, pol, refl):
    """sigma_osc with every phase from phase_sin and a += running sum: the
    reference for the generators' one-pass sums."""
    energy, k = energy_conversion(e_photon_ev)
    prefactor = 3.0 * sigma_background(energy) / k
    st = math.sin(pol.theta_L)
    osc = 0.0
    for o in orbit_catalog(wedge, ion):
        f_out = st * math.cos(o.phi_out - pol.phi_L)
        f_ret = st * math.cos(o.phi_ret - pol.phi_L)
        osc += prefactor * f_out * f_ret * phase_sin(k, o.length, o.m * refl.delta) / o.length
    return osc


def test_energy_grids_match_sigma_total_past_the_naive_phase(hard):
    """The generators inline phase_sin's first branch, sin(k L - m Delta) as
    written while k L < 2**32, and call phase_sin past it.  At rho = 1e12
    every energy is past 2**32; at rho = 1.8e10 the longest k L crosses it
    inside 0.9..1.1 eV.  Rows, decomposition totals and the folds of their
    terms, and polmap cells all equal per-point sigma_total and the
    phase_sin reference bit for bit."""
    oblique = Polarization(0.8, 2.1)
    k_min, k_max = (energy_conversion(e)[1] for e in (0.9, 1.1))
    for n in range(1, 9):
        wedge = WedgeGeometry.from_n(n)
        for refl in (hard, ReflectionModel.soft()):
            for rho in (1.8e10, 1e12):
                ion = IonPosition(rho, 0.3 * wedge.opening_angle)
                longest = max(o.length for o in orbit_catalog(wedge, ion))
                assert k_max * longest >= 2**32
                assert (k_min * longest < 2**32) == (rho < 1e12)

                def point(e, pol=oblique):
                    p = sigma_total(e, wedge, ion, pol, refl)
                    assert p.sigma_osc == _phase_sin_osc(e, wedge, ion, pol, refl)
                    return p

                args = (0.9, 1.1, 16, wedge, ion, oblique, refl)
                for row in energy_sweep(*args).rows:
                    p = point(row[0])
                    assert row == (p.e_photon_ev, p.sigma0, p.sigma_osc, p.sigma)
                for row in orbit_decomposition(*args).rows:
                    running = 0.0
                    for term in row[2:]:
                        running += term
                    assert row[1] == running == point(row[0]).sigma_osc
                for e in (0.9, 1.1):
                    for theta, phi, osc in polarization_map(
                            3, 4, e, wedge, ion, refl).rows:
                        assert osc == point(e, Polarization(theta, phi)).sigma_osc


def test_decomposition_short_orbit_dominates(wedge5, ion_ref, hard):
    # 1/L weighting: the first orbit's envelope tops the bisector orbit's.
    ds = orbit_decomposition(0.76, 1.4, 512, wedge5, ion_ref,
                             Polarization.x(), hard)
    amp_1 = np.abs(ds.column("term_1_au")).max()
    amp_5 = np.abs(ds.column("term_5_au")).max()
    assert amp_1 > amp_5


def test_decomposition_y_pol_drops_left_perpendicular_orbit(wedge5, ion_ref, hard):
    """The orbit along the x-axis is orthogonal to y polarization; its
    column is the analytic zero evaluated in doubles (cos(pi/2) ~ 1e-17
    enters squared, leaving ~1e-33 against a ~0.1 column scale)."""
    ds = orbit_decomposition(0.76, 1.4, 64, wedge5, ion_ref,
                             Polarization.y(), hard)
    assert np.abs(ds.column("term_9_au")).max() <= 1e-30


def test_decomposition_time_reversed_pair_columns_agree(wedge5, ion_ref, hard):
    ds = orbit_decomposition(0.76, 1.4, 200, wedge5, ion_ref,
                             Polarization(1.1, 0.7), hard)
    t2, t8 = ds.column("term_2_au"), ds.column("term_8_au")
    np.testing.assert_allclose(t2, t8, rtol=0, atol=1e-14 * np.abs(t2).max())


# ---------------------------------------------------------- position sweep

def test_rho_sweep_envelope_decays(wedge5, ion_ref, hard):
    ds = position_sweep("rho", 50.0, 800.0, 1024, 1.0, wedge5, ion_ref,
                        Polarization.x(), hard)
    assert ds.columns[0] == "rho_a0"
    osc = np.abs(ds.column("sigma_osc_au"))
    half = len(osc) // 2
    assert osc[half:].max() < osc[:half].max()


def test_beta_sweep_x_pol_enhanced_at_both_surfaces(wedge5, ion_ref, hard):
    alpha = wedge5.opening_angle
    ds = position_sweep("beta", BETA_MIN, alpha - BETA_MIN, 512, 1.0,
                        wedge5, ion_ref, Polarization.x(), hard)
    assert ds.columns[0] == "beta_rad"
    osc = np.abs(ds.column("sigma_osc_au"))
    edge = len(osc) // 16
    interior = osc[edge:-edge].max()
    assert osc[:edge].max() > interior
    assert osc[-edge:].max() > interior


def test_beta_sweep_y_pol_enhanced_at_right_surface_only(wedge5, ion_ref, hard):
    alpha = wedge5.opening_angle
    ds = position_sweep("beta", BETA_MIN, alpha - BETA_MIN, 512, 1.0,
                        wedge5, ion_ref, Polarization.y(), hard)
    osc = np.abs(ds.column("sigma_osc_au"))
    edge = len(osc) // 16
    interior = osc[edge:-edge].max()
    assert osc[-edge:].max() > interior   # toward the right surface
    assert osc[:edge].max() < interior    # flat toward the left surface


def test_position_sweep_validation(wedge5, ion_ref, hard):
    alpha = wedge5.opening_angle
    with pytest.raises(BetaRangeError):
        position_sweep("beta", 0.0, alpha - BETA_MIN, 16, 1.0, wedge5,
                       ion_ref, Polarization.x(), hard)
    with pytest.raises(BetaRangeError):
        position_sweep("beta", BETA_MIN, alpha, 16, 1.0, wedge5, ion_ref,
                       Polarization.x(), hard)
    with pytest.raises(ValidationError):
        position_sweep("radius", 50.0, 800.0, 16, 1.0, wedge5, ion_ref,
                       Polarization.x(), hard)
    with pytest.raises(ValidationError):
        position_sweep("rho", -5.0, 800.0, 16, 1.0, wedge5, ion_ref,
                       Polarization.x(), hard)


def test_position_sweep_at_extreme_lengths_names_the_problem(wedge5, ion_ref,
                                                            hard):
    x = Polarization.x()
    far = IonPosition(1e300, ion_ref.beta)
    band = (BETA_MIN, wedge5.opening_angle - BETA_MIN)
    too_large = r"k\*L = .* too large"
    for rho_max in (1e301, 1e308):
        with pytest.raises(ValidationError, match=too_large):
            position_sweep("rho", 1e300, rho_max, 16, 1.0, wedge5, ion_ref, x, hard)
    with pytest.raises(ValidationError, match=too_large):
        position_sweep("beta", *band, 16, 1.0, wedge5, far, x, hard)
    # From 2**1023 on, 2 rho overflows, and at the least subnormal rho the
    # shortest length rounds to 0: the catalog rejects the length.
    with pytest.raises(ZeroLengthOrbitError, match="got inf"):
        position_sweep("rho", 1e308, 1.5e308, 16, 1.0, wedge5, ion_ref, x, hard)
    with pytest.raises(ZeroLengthOrbitError, match="got 0.0"):
        position_sweep("rho", 5e-324, 1e-323, 16, 1.0, wedge5, ion_ref, x, hard)
    with pytest.raises(ZeroLengthOrbitError, match="got inf"):
        position_sweep("beta", *band, 16, 1.0, wedge5,
                       IonPosition(1e308, ion_ref.beta), x, hard)
    # A beta sweep names the first orbit in j order that fails, as a
    # catalog at every point would: the j = 1 length, then a length that
    # rounds to zero.
    with pytest.raises(ValidationError, match=r"L = 1\.901494047648126e\+300"):
        position_sweep("beta", *band, 16, 1.0, wedge5, far, x, hard)
    with pytest.raises(ZeroLengthOrbitError, match="got 0.0"):
        position_sweep("beta", *band, 16, 1.0, wedge5,
                       IonPosition(1e-323, ion_ref.beta), x, hard)


def test_beta_sweep_names_a_failing_even_orbit_as_its_first_point_does(wedge5,
                                                                      hard):
    # At rho = 1e300 the first orbit in j order whose phase cannot be
    # reduced has even j, whose length does not move with beta.
    x = Polarization.x()
    alpha = wedge5.opening_angle
    far = IonPosition(1e300, alpha - 0.02)
    message = r"L = 1\.902113032590307e\+300\)"
    with pytest.raises(ValidationError, match=message):
        sigma_total(1.0, wedge5, far, x, hard)
    with pytest.raises(ValidationError, match=message):
        position_sweep("beta", alpha - 0.02, alpha - BETA_MIN, 16, 1.0, wedge5,
                       far, x, hard)


def test_position_sweep_builds_one_catalog_in_rho_and_none_in_beta(
        monkeypatch, ion_ref, hard):
    """On any wedge, a rho sweep builds one catalog, and a beta sweep builds
    no catalog and the wedge's image table once.  The rows cannot tell: a
    catalog at every point gives the same bits."""
    import wedge_cot.orbits
    import wedge_cot.sweeps

    built, tables = [], []

    def counted(*args, **kwargs):
        built.append(args)
        return orbit_catalog(*args, **kwargs)

    def counted_table(wedge):
        tables.append(wedge)
        return table(wedge)

    table = wedge_cot.orbits._table
    monkeypatch.setattr(wedge_cot.sweeps, "orbit_catalog", counted)
    monkeypatch.setattr(wedge_cot.sweeps, "_table", counted_table)
    x = Polarization.x()
    for wedge, sources, ion in (
        (WedgeGeometry.from_n(5), ("analytic", "numeric"), ion_ref),
        (WedgeGeometry.from_alpha(2.0), ("numeric",), IonPosition(200.0, 0.7)),
        (WedgeGeometry.from_alpha(0.78532), ("numeric",), IonPosition(200.0, 0.3)),
    ):
        band = (BETA_MIN, wedge.opening_angle - BETA_MIN)
        for source in sources:
            for variable, ends, builds in (("rho", (50.0, 800.0), 1),
                                           ("beta", band, 0)):
                built.clear()
                tables.clear()
                position_sweep(variable, *ends, 16, 1.0, wedge, ion, x, hard,
                               source)
                assert len(built) == builds
                assert tables == ([wedge] if variable == "beta" else [])


# -------------------------------------------------------- polarization map

def test_polarization_map_shape_and_out_of_plane_zero(wedge5, ion_ref, hard):
    ds = polarization_map(9, 8, 1.0, wedge5, ion_ref, hard)
    assert ds.columns == ("theta_L_rad", "phi_L_rad", "sigma_osc_au")
    assert len(ds.rows) == 9 * 8
    table = np.asarray(ds.rows)
    top_row = table[table[:, 0] == 0.0]
    assert len(top_row) == 8
    assert np.all(top_row[:, 2] == 0.0)


def test_polarization_map_equator_dominates(wedge5, ion_ref, hard):
    ds = polarization_map(9, 8, 1.0, wedge5, ion_ref, hard)
    table = np.asarray(ds.rows)
    best = table[np.abs(table[:, 2]).argmax()]
    assert best[0] == pytest.approx(math.pi / 2, abs=1e-12)
    # on the pi/4-spaced equator ring, phi_L = 0 is the maximum; only its
    # antipode phi_L = pi (the same polarization line) ties it
    equator = table[np.abs(table[:, 0] - math.pi / 2) < 1e-12]
    at_zero = abs(equator[equator[:, 1] == 0.0][0, 2])
    assert np.all(at_zero >= np.abs(equator[:, 2]))
    off_line = equator[(equator[:, 1] != 0.0)
                       & (np.abs(equator[:, 1] - math.pi) > 1e-12)]
    assert np.all(at_zero > np.abs(off_line[:, 2]))


def test_polarization_map_negation_symmetry(wedge5, ion_ref, hard):
    """sigma_osc is even under polarization negation: the (theta, phi) and
    (pi-theta, phi+pi) entries match to rounding."""
    ds = polarization_map(5, 4, 1.0, wedge5, ion_ref, hard)
    table = {(round(t, 12), round(p, 12)): v for t, p, v in ds.rows}
    for (t, p), v in table.items():
        mirror = (round(math.pi - t, 12), round((p + math.pi) % (2 * math.pi), 12))
        if mirror in table:
            np.testing.assert_allclose(table[mirror], v, rtol=0,
                                       atol=1e-13 * max(1e-6, abs(v)))


def test_polarization_map_grid_validation(wedge5, ion_ref, hard):
    with pytest.raises(GridError):
        polarization_map(1, 8, 1.0, wedge5, ion_ref, hard)
    with pytest.raises(GridError, match="theta_steps must be an integer"):
        polarization_map(3.0, 4, 1.0, wedge5, ion_ref, hard)
    with pytest.raises(GridError, match="phi_steps must be an integer"):
        polarization_map(4, 2.5, 1.0, wedge5, ion_ref, hard)


@pytest.mark.parametrize("source", ["analytic", "numeric"])
@pytest.mark.parametrize("n", range(1, 9))
def test_polarization_map_is_one_tensor_quadratic_form(n, source):
    """Every cell is sin^2(theta_L) e^T S e with e = (cos phi_L, sin phi_L)
    and S = sum_j c_j u_out,j u_ret,j^T built here from the catalog, so on
    the equator sigma_x + sigma_y = tr S, and sigma_osc = 0 at theta_L = 0."""
    wedge = WedgeGeometry.from_n(n)
    ion = IonPosition(150.0, 0.37 * math.pi / n)
    catalog = orbit_catalog(wedge, ion, source)
    energy, k = energy_conversion(1.0)
    sigma0 = sigma_background(energy)
    for refl in (ReflectionModel.hard(), ReflectionModel.soft()):
        tensor = sum(
            3.0 * sigma0 / k * math.sin(k * o.length - o.m * refl.delta) / o.length
            * np.outer([math.cos(o.phi_out), math.sin(o.phi_out)],
                       [math.cos(o.phi_ret), math.sin(o.phi_ret)])
            for o in catalog
        )
        tol = 1e-12 * np.abs(tensor).sum()
        ds = polarization_map(9, 8, 1.0, wedge, ion, refl, orbit_source=source)
        cells = {(theta, phi): osc for theta, phi, osc in ds.rows}
        for (theta, phi), osc in cells.items():
            e = np.array([math.cos(phi), math.sin(phi)])
            assert abs(osc - math.sin(theta) ** 2 * (e @ tensor @ e)) <= tol
            if theta == 0.0:
                assert osc == 0.0
        equator = math.pi / 2
        sum_rule = cells[equator, 0.0] + cells[equator, equator]
        assert abs(sum_rule - np.trace(tensor)) <= tol
