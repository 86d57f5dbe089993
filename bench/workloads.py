"""The four workloads: seeded inputs, the call each input makes, and the
checks its output must pass.

In-process workloads run in decks.  A deck has a fixed structure (which
call, which wedge, which grid size) and seeded parameters (ion position,
polarization, wall model, energy range), shuffled by the seed.  Whole decks
are run, so every run does the same mix of work and rates stay comparable
across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import checks

SWEEP_GENERATORS = ("energy_sweep", "orbit_decomposition", "position_sweep", "polarization_map")

#: Opening angles pi/N of the in-process workloads.
N_RANGE = range(2, 13)

#: Energy-grid sizes; polarization maps use the square grids of equal size.
GRID_SIZES = (256, 1024, 4096)
POLMAP_SHAPES = {256: (16, 16), 1024: (32, 32), 4096: (64, 64)}

#: Position sweeps rebuild the catalog at every point, so their grids are
#: smaller: a deck takes under a second, and a run holds dozens of decks.
POSITION_SIZES = (64, 128, 256)

#: Closed-form rows sampled per checked call.
CHECK_SAMPLES = 17

#: The input of ROADMAP item 5: the shooting search drops one orbit of a
#: time-reversed pair (m = 2, phi_out ~ 3.0594) and logs nothing.
ITEM5 = (1.5700792, 0.94764, 200.0)  # alpha, beta / alpha, rho

#: The item 5 defect is not particular to that input: it drops one orbit
#: (m = N) on about half of the wedges whose alpha lies less than 1e-3 below
#: a pi/N, in relative terms, and on none 3e-3 or more below it or above it
#: (1,700 random wedges with N = 2..6).  Arbitrary wedges are drawn outside
#: [pi/N (1 - NEAR_PI_N), pi/N), so the defect fails exactly one operation
#: per run, the item 5 input, and not a number that grows with the decks a
#: run reaches.
NEAR_PI_N = 1e-2


def near_pi_n(alpha: float) -> bool:
    """Whether alpha lies just below some pi/N (see ``NEAR_PI_N``)."""
    n = math.floor(math.pi / alpha)
    return n >= 1 and alpha < math.pi / n and alpha >= math.pi / n * (1.0 - NEAR_PI_N)


@dataclass
class Op:
    """One library call and the checks on what it returns.

    ``check`` problems fail the operation.  ``known_check`` problems fail it
    too, but come from a documented open defect (see ``ITEM5``), so they do
    not mark the run as incorrect.
    """

    kind: str  # the same in every deck for the same call, wedge and grid size
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    known_check: Callable[[object], list[str]] = field(default=lambda out: [])


def _ion(rng, wedge):
    from wedge_cot.geometry import IonPosition

    return IonPosition(rng.uniform(50.0, 800.0), rng.uniform(0.05, 0.95) * wedge.opening_angle)


def _polarization(rng):
    from wedge_cot.spectrum import Polarization

    choice = rng.randrange(3)
    if choice == 0:
        return "x", Polarization.x()
    if choice == 1:
        return "y", Polarization.y()
    return "oblique", Polarization(rng.uniform(0.1, 3.0), rng.uniform(0.0, 2.0 * math.pi))


def _closed_form(name):
    from wedge_cot import spectrum

    return spectrum.sigma_x_closed_form if name == "x" else spectrum.sigma_y_closed_form


def _closed_form_rows(rows, column, attr, n, pol_name, energy_of, ion_of) -> list[str]:
    """Sampled rows of a hard-wall x or y dataset against the closed form:
    ``rows[r][column]`` must match the closed-form point's ``attr``."""
    closed = _closed_form(pol_name)
    for r in checks.sample_indices(len(rows), CHECK_SAMPLES):
        moved = ion_of(rows[r][0])
        point = closed(energy_of(rows[r][0]), n, moved)
        scale = checks.closed_form_scale(point.sigma0, point.k, n, moved.rho, moved.beta)
        if not checks.close_to(rows[r][column], getattr(point, attr), scale):
            return [f"row {r}: differs from the {pol_name} closed form"]
    return []


# -- energy-grid -------------------------------------------------------------


def _energy_op(gen: str, n: int, size: int, rng) -> Op:
    from wedge_cot import sweeps
    from wedge_cot.geometry import WedgeGeometry
    from wedge_cot.spectrum import ReflectionModel

    wedge = WedgeGeometry.from_n(n)
    ion = _ion(rng, wedge)
    hard = rng.random() < 0.5
    refl = ReflectionModel.hard() if hard else ReflectionModel.soft()
    pol_name, pol = _polarization(rng)
    e_min = rng.uniform(0.76, 0.9)
    e_max = e_min + rng.uniform(0.2, 0.6)
    closed = hard and pol_name in ("x", "y")
    kind = f"{gen}/N{n}/{size}"

    if gen == "polarization_map":
        shape = POLMAP_SHAPES[size]
        e_photon = rng.uniform(0.8, 1.4)

        def check(ds):
            return checks.row_count(ds.rows, size) + checks.theta_zero_rows(ds.rows)

        return Op(kind, lambda: sweeps.polarization_map(*shape, e_photon, wedge, ion, refl),
                  check)

    def energy_of(e):
        return e

    def ion_of(_):
        return ion

    if gen == "energy_sweep":
        def check(ds):
            problems = checks.row_count(ds.rows, size) + checks.sigma_identity(ds.rows, 1, 2, 3)
            if closed and not problems:
                problems = _closed_form_rows(ds.rows, 3, "sigma", n, pol_name, energy_of, ion_of)
            return problems

        return Op(kind, lambda: sweeps.energy_sweep(e_min, e_max, size, wedge, ion, pol, refl),
                  check)

    def check(ds):
        problems = checks.row_count(ds.rows, size) + checks.running_sum(ds.rows, 1, 2)
        if closed and not problems:
            problems = _closed_form_rows(ds.rows, 1, "sigma_osc", n, pol_name, energy_of, ion_of)
        return problems

    return Op(kind, lambda: sweeps.orbit_decomposition(e_min, e_max, size, wedge, ion, pol, refl),
              check)


def energy_grid_deck(rng: random.Random) -> list[Op]:
    ops = []
    for g, gen in enumerate(("energy_sweep", "orbit_decomposition", "polarization_map")):
        for n in N_RANGE:
            ops.append(_energy_op(gen, n, GRID_SIZES[(n + g) % 3], rng))
    rng.shuffle(ops)
    return ops


# -- position-sweep ----------------------------------------------------------


def _position_op(variable: str, n: int, size: int, rng) -> Op:
    from wedge_cot import sweeps
    from wedge_cot.geometry import IonPosition, WedgeGeometry
    from wedge_cot.spectrum import Polarization, ReflectionModel

    wedge = WedgeGeometry.from_n(n)
    alpha = wedge.opening_angle
    ion = _ion(rng, wedge)
    pol_name = rng.choice(("x", "y"))
    pol = Polarization.x() if pol_name == "x" else Polarization.y()
    refl = ReflectionModel.hard()
    e_photon = rng.uniform(0.8, 1.4)
    if variable == "rho":
        start = rng.uniform(20.0, 200.0)
        stop = start + rng.uniform(100.0, 600.0)

        def ion_of(value):
            return IonPosition(value, ion.beta)
    else:
        start = rng.uniform(0.02, 0.3) * alpha
        stop = rng.uniform(0.7, 0.98) * alpha

        def ion_of(value):
            return IonPosition(ion.rho, value)

    def check(ds):
        problems = checks.row_count(ds.rows, size) + checks.sigma_identity(ds.rows, 1, 2, 3)
        if not problems:
            problems = _closed_form_rows(ds.rows, 3, "sigma", n, pol_name,
                                         lambda _: e_photon, ion_of)
        return problems

    return Op(f"position_sweep.{variable}/N{n}/{size}",
              lambda: sweeps.position_sweep(variable, start, stop, size, e_photon,
                                            wedge, ion, pol, refl),
              check)


def position_sweep_deck(rng: random.Random) -> list[Op]:
    ops = []
    for v, variable in enumerate(("rho", "beta")):
        for n in N_RANGE:
            ops.append(_position_op(variable, n, POSITION_SIZES[(n + v) % 3], rng))
    rng.shuffle(ops)
    return ops


# -- numeric-catalog ---------------------------------------------------------

#: ceil(pi / alpha) of the arbitrary wedges, drawn once per deck each; alpha
#: is drawn in [0.3, 3.0] within the band that gives that ceiling.  The
#: search costs about (2 ceil - 1)^2: a few tens of ms at 2, a few hundred
#: at 11.  Two bands are drawn twice: 11, so that the tail call (ten calls
#: beyond it) falls among its calls, and 5, so that with the pi/N wedges
#: below the median call falls in the middle of the calls that cost as much
#: as ceiling 5 (5, 5 and pi/5), not in the gap between two costs.
NUMERIC_CEILINGS = (2, 3, 4, 5, 5, 7, 9, 11, 11)

#: pi/N wedges whose shooting catalog is checked against the analytic one.
NUMERIC_PI_N = (4, 5)


def _numeric_op(wedge, ion, kind: str) -> Op:
    from wedge_cot import geometry, orbits, spectrum
    from wedge_cot.errors import ApexSingularityError

    start = geometry.ion_cartesian(wedge, ion)

    def approach_of(phi, m):
        try:
            path = geometry.trace(wedge, start, (math.cos(phi), math.sin(phi)), m)
        except ApexSingularityError:
            return None
        returns = [a for a in path.approaches if a.reflections == m]
        return returns[-1] if returns else None

    def check(catalog):
        if wedge.n_integer is not None:
            reference = orbits.enumerate_analytic(wedge.n_integer, ion)
            return checks.matches_analytic(catalog, reference) + checks.partner_problems(catalog)
        problems = checks.retrace_problems(catalog, approach_of, ion.rho)
        if not known(catalog):
            problems += checks.partner_problems(catalog)
        return problems

    def known(catalog):
        # Just below pi/N, one orbit without its partner is the open defect
        # of ITEM5; elsewhere, or more than one, is a new failure (``check``).
        if near_pi_n(wedge.opening_angle) and len(checks.unpaired_orbits(catalog)) == 1:
            return checks.partner_problems(catalog)
        return []

    return Op(kind, lambda: spectrum.orbit_catalog(wedge, ion, "numeric"), check,
              known_check=known)


def item5_op() -> Op:
    from wedge_cot.geometry import IonPosition, WedgeGeometry

    alpha, beta_ratio, rho = ITEM5
    return _numeric_op(WedgeGeometry.from_alpha(alpha), IonPosition(rho, beta_ratio * alpha),
                       "orbit_catalog.item5")


def numeric_catalog_deck(rng: random.Random) -> list[Op]:
    from wedge_cot.geometry import WedgeGeometry

    ops = []
    for ceiling in NUMERIC_CEILINGS:
        lo = max(math.pi / ceiling, 0.3)
        hi = min(math.pi / (ceiling - 1), 3.0)
        alpha = rng.uniform(lo, hi)
        while near_pi_n(alpha):
            alpha = rng.uniform(lo, hi)
        wedge = WedgeGeometry.from_alpha(alpha)
        ops.append(_numeric_op(wedge, _ion(rng, wedge), f"orbit_catalog.alpha/ceil{ceiling}"))
    for n in NUMERIC_PI_N:
        wedge = WedgeGeometry.from_n(n)
        ops.append(_numeric_op(wedge, _ion(rng, wedge), f"orbit_catalog.pi_n/N{n}"))
    rng.shuffle(ops)
    return ops


def warmup_ops(workload: str) -> list[Op]:
    """Small calls of every kind the workload makes, run during set-up."""
    rng = random.Random(0)
    if workload == "energy-grid":
        return [_energy_op(g, 3, 256, rng)
                for g in ("energy_sweep", "orbit_decomposition", "polarization_map")]
    if workload == "position-sweep":
        return [_position_op(v, 3, 256, rng) for v in ("rho", "beta")]
    from wedge_cot.geometry import IonPosition, WedgeGeometry

    return [_numeric_op(WedgeGeometry.from_alpha(2.9), IonPosition(100.0, 1.0), "warmup")]


DECKS = {
    "energy-grid": energy_grid_deck,
    "position-sweep": position_sweep_deck,
    "numeric-catalog": numeric_catalog_deck,
}


# -- cli-cold ----------------------------------------------------------------

#: (metric name, argv, expected output) in the order the cycle runs them.
CLI_CYCLE = (
    ("orbits", ["orbits"], {"rows": 9}),
    ("spectrum", ["spectrum"], {"rows": 2048, "identity": True}),
    ("decompose", ["decompose"], {"rows": 2048, "running_sum": True}),
    ("sweep_rho", ["sweep-rho"], {"rows": 2048, "identity": True}),
    ("sweep_beta", ["sweep-beta"], {"rows": 2048, "identity": True}),
    ("polmap", ["polmap"], {"rows": 33 * 32, "theta_zero": True}),
    ("verify", ["verify"], {"verify": True}),
    ("sweep_rho_numeric", ["sweep-rho", "--orbit-source", "numeric", "--steps", "16"],
     {"rows": 16, "identity": True}),
)

#: Subcommands that run for over a second (scipy import, shooting search).
#: With only a few samples in a run their wall time varied by 20 % between
#: runs on a shared machine, so they run once at the start and once at the
#: end of a run and are reported per layer only (``cold.<name>_s``).
CLI_LONG = ("verify", "sweep_rho_numeric")
