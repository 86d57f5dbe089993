"""Parameter sweeps producing tabular datasets.

Four generators: the cross section against photon energy, its per-orbit
decomposition, its dependence on the ion position (rho or beta), and its
dependence on the laser polarization direction.  Each returns a Dataset
carrying its full provenance, ready for CSV or JSON serialization.

The generators need only the standard library; ``Dataset.column`` imports
numpy when it is called.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain
from operator import add

from .constants import DEFAULT_CONSTANTS, VERSION, PhysicalConstants
from .errors import BelowThresholdError, GridError, ValidationError
from .geometry import BETA_MIN, TWO_PI, IonPosition, WedgeGeometry, validate_beta
from .orbits import _table
from .records import Record
from .spectrum import (
    Polarization,
    ReflectionModel,
    _backgrounds,
    _check_source,
    _columns,
    _fold,
    _orbits,
    _shift,
    _shifts,
    energy_conversion,
    orbit_catalog,
    phase_sin,
    sigma_background,
)

MetaPairs = tuple[tuple[str, str], ...]


class Dataset(Record, namedtuple("Dataset", "columns rows meta")):
    """Rectangular table of reals with ordered provenance pairs."""

    __slots__ = ()

    def __new__(cls, columns: tuple[str, ...], rows: tuple[tuple[float, ...], ...],
                meta: MetaPairs):
        width = len(columns)
        # Both checks in C; the loop below only finds the entry to name.
        if not (set(map(len, rows)) <= {width}
                and all(map(math.isfinite, chain.from_iterable(rows)))):
            for r, row in enumerate(rows):
                if len(row) != width:
                    raise ValidationError(
                        f"row width {len(row)} does not match {width} columns"
                    )
                for value in row:
                    if not math.isfinite(value):
                        raise ValidationError(
                            f"{columns[row.index(value)]} is {value} in row "
                            f"{r} ({columns[0]} = {row[0]})"
                        )
        return tuple.__new__(cls, (columns, rows, meta))

    def column(self, name: str):
        """The named column as a numpy array."""
        import numpy as np

        i = self.columns.index(name)
        return np.array([row[i] for row in self.rows])


def _linspace(
    start: float, stop: float, num: int, endpoint: bool = True
) -> list[float]:
    """np.linspace(start, stop, num, endpoint).tolist(), bit for bit: numpy
    forms each point as i*step + start, and sets the last to stop."""
    div = num - 1 if endpoint else num
    step = (stop - start) / div
    if step == 0.0:  # numpy's branch for a step that underflows
        points = [i / div * (stop - start) + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    if endpoint:
        points[-1] = stop
    return points


def _base_meta(
    generator: str,
    wedge: WedgeGeometry,
    consts: PhysicalConstants,
    **params,
) -> list[tuple[str, str]]:
    meta = [
        ("generator", generator),
        ("version", VERSION),
        ("opening_angle_rad", repr(wedge.opening_angle)),
        ("n_integer", repr(wedge.n_integer)),
    ]
    for key, value in params.items():
        meta.append((key, value if isinstance(value, str) else repr(value)))
    meta += [
        ("B", repr(consts.b_norm)),
        ("E_b_eV", repr(consts.binding_energy_ev)),
        ("c_au", repr(consts.c_light)),
        ("eV_per_hartree", repr(consts.ev_per_hartree)),
    ]
    return meta


def _validate_steps(**counts: int):
    for name, steps in counts.items():
        if not (isinstance(steps, int) and steps >= 2):
            raise GridError(f"{name} must be an integer >= 2, got {steps!r}")


def _validate_grid(start: float, stop: float, steps: int):
    _validate_steps(steps=steps)
    if not (math.isfinite(start) and math.isfinite(stop) and start < stop):
        raise GridError(f"need start < stop, got [{start!r}, {stop!r}]")


def _energy_grid(
    generator: str,
    start_ev: float,
    stop_ev: float,
    steps: int,
    wedge: WedgeGeometry,
    ion: IonPosition,
    pol: Polarization,
    refl: ReflectionModel,
    orbit_source: str,
    consts: PhysicalConstants,
):
    """What both energy generators share: the catalog, the grid, sigma0 and
    sigma_osc at each grid point, one column of terms per orbit, and the
    provenance.  The kernel runs once over the whole grid, with scale 1.0
    at every point, so every value is per-point sigma_total's bit for bit.
    A grid in which the background or the kernel raises at some point
    raises what sigma_total raises at the first such point, for its lowest
    j.  A sum that comes out nan or inf raises nothing here: the Dataset
    names its first row ("sigma_osc_au is nan in row 0 (...)"), with the
    same class as sigma_total's "sigma_osc is nan (...)", and a point that
    raises further on is named instead."""
    _validate_grid(start_ev, stop_ev, steps)
    if start_ev <= consts.binding_energy_ev:
        raise BelowThresholdError(
            f"energy grid must start above the {consts.binding_energy_ev} eV "
            f"threshold, got {start_ev!r}"
        )
    validate_beta(wedge, ion, BETA_MIN)
    catalog = orbit_catalog(wedge, ion, orbit_source)
    orbits = _orbits(catalog, pol, refl)
    meta = _base_meta(
        generator, wedge, consts,
        rho_a0=ion.rho, beta_rad=ion.beta,
        theta_L_rad=pol.theta_L, phi_L_rad=pol.phi_L,
        delta_rad=refl.delta, orbit_source=orbit_source,
        E_min_eV=start_ev, E_max_eV=stop_ev, steps=steps,
    )
    grid = _linspace(start_ev, stop_ev, steps)
    # energy_conversion's arithmetic; every point is at least start_ev, so
    # above the threshold.  An energy that rounds to 0 or to inf is one
    # sigma_background rejects; with finite constants none is nan.
    e_b, per_hartree = consts.binding_energy_ev, consts.ev_per_hartree
    energies = [(e_ph - e_b) / per_hartree for e_ph in grid]
    try:
        if 0.0 < min(energies) and max(energies) < math.inf:
            sigma0s = _backgrounds(energies, consts)
            ks = [math.sqrt(2.0 * energy) for energy in energies]
            prefactors = [3.0 * sigma0 / k for sigma0, k in zip(sigma0s, ks)]
            columns = _columns(orbits, prefactors, ks, [1.0] * steps)
            sigma_osc = _fold(columns, steps)
            return catalog, grid, sigma0s, sigma_osc, columns, tuple(meta)
    except (OverflowError, ZeroDivisionError, ValidationError):
        pass
    # Some point fails.  Go through the grid point by point, as sigma_total
    # would, so that the first failing point raises, for its lowest j.
    for e_ph in grid:
        energy, k = energy_conversion(e_ph, consts)
        sigma0 = sigma_background(energy, consts)
        _columns(orbits, [3.0 * sigma0 / k], [k], [1.0])
    raise AssertionError("an energy grid failed at none of its points")


def energy_sweep(
    start_ev: float,
    stop_ev: float,
    steps: int,
    wedge: WedgeGeometry,
    ion: IonPosition,
    pol: Polarization,
    refl: ReflectionModel,
    orbit_source: str = "analytic",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> Dataset:
    """Cross section on a uniform photon-energy grid (eV, endpoints included)."""
    _, grid, sigma0s, sigma_osc, _, meta = _energy_grid(
        "energy_sweep", start_ev, stop_ev, steps,
        wedge, ion, pol, refl, orbit_source, consts,
    )
    return Dataset(
        columns=("E_photon_eV", "sigma0_au", "sigma_osc_au", "sigma_au"),
        rows=tuple(zip(grid, sigma0s, sigma_osc, map(add, sigma0s, sigma_osc))),
        meta=meta,
    )


def orbit_decomposition(
    start_ev: float,
    stop_ev: float,
    steps: int,
    wedge: WedgeGeometry,
    ion: IonPosition,
    pol: Polarization,
    refl: ReflectionModel,
    orbit_source: str = "analytic",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> Dataset:
    """Per-orbit oscillatory terms on an energy grid; the total column is the
    running sum of the term columns in catalog order, so it reproduces
    sigma_total's sigma_osc bit for bit."""
    catalog, grid, _, sigma_osc, columns, meta = _energy_grid(
        "orbit_decomposition", start_ev, stop_ev, steps,
        wedge, ion, pol, refl, orbit_source, consts,
    )
    return Dataset(
        columns=("E_photon_eV", "sigma_osc_total_au") + tuple(
            f"term_{orbit.index}_au" for orbit in catalog
        ),
        rows=tuple(zip(grid, sigma_osc, *columns)),
        meta=meta,
    )


POSITION_VARIABLES = ("rho", "beta")


def position_sweep(
    variable: str,
    start: float,
    stop: float,
    steps: int,
    e_photon_ev: float,
    wedge: WedgeGeometry,
    ion: IonPosition,
    pol: Polarization,
    refl: ReflectionModel,
    orbit_source: str = "analytic",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> Dataset:
    """Cross section at fixed photon energy while the ion moves.

    ``variable`` picks the swept coordinate; the other one is taken from
    ``ion``.  Beta sweeps must stay inside the guard band
    [BETA_MIN, alpha - BETA_MIN].

    On any wedge a rho sweep builds one catalog and a beta sweep none, and
    never reads ``ion.beta``.  Rows equal per-point ``sigma_total`` bit for
    bit.  A sweep in which a catalog or the kernel raises at some point
    replays its points from their own catalogs and raises what sigma_total
    raises at the first such point.  A sum that comes out nan or inf raises
    nothing here: the Dataset names its first row, as in ``_energy_grid``.
    """
    _validate_grid(start, stop, steps)
    if variable not in POSITION_VARIABLES:
        raise ValidationError(
            f"variable must be one of {POSITION_VARIABLES}, got {variable!r}"
        )
    if variable == "rho":
        if start <= 0.0:
            raise ValidationError(f"rho grid must be positive, got {start!r}")
        validate_beta(wedge, ion, BETA_MIN)
        column = "rho_a0"
    else:
        for beta in (start, stop):
            validate_beta(wedge, IonPosition(ion.rho, beta), BETA_MIN)
        column = "beta_rad"
    energy, k = energy_conversion(e_photon_ev, consts)
    sigma0 = sigma_background(energy, consts)
    prefactor = 3.0 * sigma0 / k

    def catalog_at(value: float) -> tuple:
        """The catalog with the swept coordinate at value."""
        moved = (IonPosition(value, ion.beta) if variable == "rho"
                 else IonPosition(ion.rho, value))
        return orbit_catalog(wedge, moved, orbit_source)

    grid = _linspace(start, stop, steps)
    try:
        sigma_osc = _one_catalog_sums(variable, grid, catalog_at, wedge, ion.rho,
                                      orbit_source, pol, refl, prefactor, k)
    except (ZeroDivisionError, ValidationError):
        # Some point fails: replay point by point from catalogs, so that
        # the first failing point raises what its sigma_total raises.
        for value in grid:
            _columns(_orbits(catalog_at(value), pol, refl), [prefactor], [k], [1.0])
        raise AssertionError("a position sweep failed at none of its points")
    meta = _base_meta(
        "position_sweep", wedge, consts,
        variable=variable,
        rho_a0=ion.rho, beta_rad=ion.beta,
        theta_L_rad=pol.theta_L, phi_L_rad=pol.phi_L,
        delta_rad=refl.delta, orbit_source=orbit_source,
        E_photon_eV=e_photon_ev, start=start, stop=stop, steps=steps,
    )
    return Dataset(
        columns=(column, "sigma0_au", "sigma_osc_au", "sigma_au"),
        rows=tuple((value, sigma0, osc, sigma0 + osc)
                   for value, osc in zip(grid, sigma_osc)),
        meta=tuple(meta),
    )


def _one_catalog_sums(variable, values, catalog_at, wedge, rho, source, pol,
                      refl, prefactor, k):
    """sigma_osc at every value of a sweep, orbit by orbit.

    A rho sweep takes the catalog at rho = 1/2, where every length is its
    chord bit for bit (2.0 * 0.5 is 1.0), and scales it by 2 rho.  A beta
    sweep runs over the rows of ``_table(wedge)`` as ``_evaluate`` does.
    An odd row keeps its factors and scales 2 rho by |sin(base - beta)|;
    where it is not in the catalog its term reads 0.0, which a fold from
    0.0 cannot tell from none, and a row in no catalog of the grid takes no
    m Delta, which could be refused.  An even row keeps its length and
    phase and turns its factors by beta, with % for wrap_angle: in the
    guard band no angle plus beta is a negative that rounds to 2 pi."""
    width = len(values)
    prefactors, ks = [prefactor] * width, [k] * width
    if variable == "rho":
        return _fold(_columns(_orbits(catalog_at(0.5), pol, refl), prefactors,
                              ks, [2.0 * value for value in values]), width)
    _check_source(wedge, source)
    sin, cos, half_pi = math.sin, math.cos, math.pi / 2
    sin_theta, phi_l, scale = sin(pol.theta_L), pol.phi_L, 2.0 * rho
    columns = []
    for m, out, ret, chord, base, tested in _table(wedge):
        if chord is not None:
            length = scale * chord
            phase = phase_sin(k, length, _shift(m, refl.delta))
            columns.append([
                prefactor * (sin_theta * cos((out + value) % TWO_PI - phi_l))
                * (sin_theta * cos((ret + value) % TWO_PI - phi_l)) * phase / length
                for value in values
            ])
            continue
        inside = [v for v in values if abs(base - v) <= half_pi] if tested else values
        if inside:
            orbit = (sin_theta * cos(out - phi_l), sin_theta * cos(ret - phi_l), scale,
                     _shift(m, refl.delta))
            column = _columns([orbit], prefactors, ks,
                              [abs(sin(base - value)) for value in inside])[0]
            if len(inside) < width:
                terms = iter(column)
                column = [next(terms) if abs(base - v) <= half_pi else 0.0 for v in values]
            columns.append(column)
    return _fold(columns, width)


def polarization_map(
    theta_steps: int,
    phi_steps: int,
    e_photon_ev: float,
    wedge: WedgeGeometry,
    ion: IonPosition,
    refl: ReflectionModel,
    orbit_source: str = "analytic",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> Dataset:
    """sigma_osc over the polarization sphere: theta_L in [0, pi] inclusive,
    phi_L uniform on [0, 2 pi) without the duplicate endpoint."""
    _validate_steps(theta_steps=theta_steps, phi_steps=phi_steps)
    validate_beta(wedge, ion, BETA_MIN)
    energy, k = energy_conversion(e_photon_ev, consts)
    prefactor = 3.0 * sigma_background(energy, consts) / k
    catalog = orbit_catalog(wedge, ion, orbit_source)
    waves = [(orbit.phi_out, orbit.phi_ret,
              phase_sin(k, orbit.length, shift), orbit.length)
             for orbit, shift in zip(catalog, _shifts(catalog, refl.delta))]
    phis = _linspace(0.0, 2.0 * math.pi, phi_steps, endpoint=False)
    # _orbits(catalog, Polarization(theta, phi), refl)'s factors in two
    # halves: the cosines once per phi column, with phi_L reduced as
    # Polarization reduces it, and sin(theta_L) once per row.
    columns = []
    for phi in phis:
        phi_l = phi % TWO_PI
        columns.append((phi, [
            (math.cos(phi_out - phi_l), math.cos(phi_ret - phi_l), phase, length)
            for phi_out, phi_ret, phase, length in waves
        ]))
    rows = []
    for theta in _linspace(0.0, math.pi, theta_steps):
        sin_theta = math.sin(theta)
        for phi, column in columns:
            # _columns' terms at this cell, folded left from 0.0.
            sigma_osc = 0.0
            for c_out, c_ret, phase, length in column:
                sigma_osc += (
                    prefactor * (sin_theta * c_out) * (sin_theta * c_ret) * phase / length
                )
            rows.append((theta, phi, sigma_osc))
    meta = _base_meta(
        "polarization_map", wedge, consts,
        rho_a0=ion.rho, beta_rad=ion.beta,
        delta_rad=refl.delta, orbit_source=orbit_source,
        E_photon_eV=e_photon_ev,
        theta_steps=theta_steps, phi_steps=phi_steps,
    )
    return Dataset(
        columns=("theta_L_rad", "phi_L_rad", "sigma_osc_au"),
        rows=tuple(rows),
        meta=tuple(meta),
    )
