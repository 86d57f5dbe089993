"""Photodetachment cross sections inside the wedge.

The total cross section splits into a smooth background, the cross section
of the free ion, plus one oscillatory term per closed orbit:

    sigma = sigma0 + sum_j (3 sigma0 / k) f_out f_ret sin(k L_j - m_j Delta) / L_j

where f_* projects the laser polarization onto the outgoing and returning
momentum directions and Delta is the phase lost per wall reflection (pi for
hard walls).  At a fixed energy this is sin^2(theta_L) e^T S e for one 2x2
tensor S = sum_j c_j u_out,j u_ret,j^T, with e = (cos phi_L, sin phi_L) and
c_j = (3 sigma0 / k) sin(k L_j - m_j Delta) / L_j.  For any Delta the x and
y cross sections, the diagonal S_xx and S_yy, have closed forms evaluated
here independently of the orbit catalog; z polarization leaves no imprint.

Energies are in hartree internally; photon energies enter in eV.  Cross
sections are in bohr^2.

Every orbit sum has the same bits, whichever function evaluates it:
sigma_total, an energy grid, a position sweep or a polarization map.
``_orbits`` pairs each orbit's (f_out, f_ret, L, m Delta), with m Delta
from ``_shift``; a term is prefactor * f_out * f_ret * sin(k L - m Delta) / L
with phase_sin's phase, and each point's sum is the left fold
((0.0 + t_1) + t_2) + ... in catalog order.  sigma_total and energy grids
take ``_columns`` of terms over their points and ``_fold`` them.  A
position sweep, whose prefactor and k are fixed, forms prefactor * f_out *
f_ret once per orbit and adds each term as it forms it; a polarization map
folds each cell with +=.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import add

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .errors import BelowThresholdError, ValidationError
from .geometry import (
    BETA_MIN, TWO_PI, IonPosition, WedgeGeometry, guard_band, validate_beta,
)
from .orbits import ClosedOrbit, enumerate_analytic, enumerate_images
from .records import Record

ORBIT_SOURCES = ("analytic", "numeric")


class Polarization(Record, namedtuple("Polarization", "theta_L phi_L")):
    """Linear laser polarization by its spherical angles (theta_L, phi_L);
    phi_L is kept reduced to [0, 2 pi)."""

    __slots__ = ()

    def __new__(cls, theta_L: float, phi_L: float):
        if not (0.0 <= theta_L <= math.pi):
            raise ValidationError(f"theta_L must lie in [0, pi], got {theta_L!r}")
        if not math.isfinite(phi_L):
            raise ValidationError("phi_L must be finite")
        return tuple.__new__(cls, (theta_L, phi_L % TWO_PI))

    @classmethod
    def x(cls) -> "Polarization":
        return cls(0.5 * math.pi, 0.0)

    @classmethod
    def y(cls) -> "Polarization":
        return cls(0.5 * math.pi, 0.5 * math.pi)

    @classmethod
    def z(cls) -> "Polarization":
        return cls(0.0, 0.0)

    def unit_vector(self) -> tuple[float, float, float]:
        st = math.sin(self.theta_L)
        return (
            st * math.cos(self.phi_L),
            st * math.sin(self.phi_L),
            math.cos(self.theta_L),
        )


class ReflectionModel(Record, namedtuple("ReflectionModel", "delta")):
    """Phase loss per wall reflection: pi for hard walls, pi/2 for soft."""

    __slots__ = ()

    def __new__(cls, delta: float):
        if not math.isfinite(delta):
            raise ValidationError("delta must be finite")
        return tuple.__new__(cls, (delta,))

    @classmethod
    def hard(cls) -> "ReflectionModel":
        return cls(math.pi)

    @classmethod
    def soft(cls) -> "ReflectionModel":
        return cls(0.5 * math.pi)


class SpectrumPoint(Record, namedtuple(
    "SpectrumPoint", "e_photon_ev energy k sigma0 sigma_osc sigma"
)):
    """Cross section at one photon energy, split into its parts; every
    field finite."""

    __slots__ = ()

    def __new__(cls, e_photon_ev: float, energy: float, k: float,
                sigma0: float, sigma_osc: float, sigma: float):
        fields = (e_photon_ev, energy, k, sigma0, sigma_osc, sigma)
        if not all(map(math.isfinite, fields)):
            for name, value in zip(cls._fields, fields):
                if not math.isfinite(value):
                    raise ValidationError(
                        f"{name} is {value} (e_photon_ev = {e_photon_ev!r})"
                    )
        if sigma != sigma0 + sigma_osc:
            raise ValidationError("sigma must equal sigma0 + sigma_osc exactly")
        return tuple.__new__(cls, fields)

    @classmethod
    def build(
        cls, e_photon_ev: float, energy: float, k: float,
        sigma0: float, sigma_osc: float,
    ) -> "SpectrumPoint":
        return cls(e_photon_ev, energy, k, sigma0, sigma_osc, sigma0 + sigma_osc)


def energy_conversion(
    e_photon_ev: float, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> tuple[float, float]:
    """Photon energy in eV -> (detached-electron energy in hartree, k)."""
    if not (e_photon_ev > consts.binding_energy_ev):
        raise BelowThresholdError(
            f"photon energy {e_photon_ev!r} eV does not exceed the "
            f"{consts.binding_energy_ev} eV binding energy"
        )
    energy = (e_photon_ev - consts.binding_energy_ev) / consts.ev_per_hartree
    return energy, math.sqrt(2.0 * energy)


def sigma_background(
    energy: float, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Smooth cross section of the free ion: rises from threshold as E^(3/2),
    peaks at E equal to the binding energy, then falls off as E^(-3/2)."""
    if not (energy > 0.0):
        raise BelowThresholdError(
            f"detached-electron energy must be positive, got {energy!r}"
        )
    try:
        if energy < math.inf:  # inf**1.5 / inf**3 would be nan
            (sigma0,) = _backgrounds([energy], consts)
            return sigma0
    except OverflowError:
        pass
    except ZeroDivisionError:
        raise ValidationError(
            f"detached-electron energy {energy!r} hartree is out of range: "
            "3 c (E_b + E)**3 in the background cross section underflows to "
            f"zero (c = {consts.c_light!r}, E_b = {consts.binding_energy!r} "
            "hartree)"
        ) from None
    raise ValidationError(
        f"detached-electron energy {energy!r} hartree is too large: "
        "its powers in the background cross section overflow"
    )


def _backgrounds(energies: list[float], consts: PhysicalConstants) -> list[float]:
    """sigma_background's formula at each energy, in order, for energies
    that are positive and finite.  Its OverflowError and ZeroDivisionError
    propagate; sigma_background turns them into errors naming the energy.
    The products run left to right, so their energy-free leading factors
    are formed once."""
    b2 = consts.b_norm * consts.b_norm
    e_b = consts.binding_energy
    numerator = 16.0 * math.sqrt(2.0) * b2 * math.pi**2
    denominator = 3.0 * consts.c_light
    return [
        numerator * energy**1.5 / (denominator * (e_b + energy) ** 3)
        for energy in energies
    ]


def angular_factor(theta: float, phi: float, pol: Polarization) -> float:
    """Projection of the polarization onto the unit vector at (theta, phi)."""
    return math.cos(theta) * math.cos(pol.theta_L) + math.sin(theta) * math.sin(
        pol.theta_L
    ) * math.cos(phi - pol.phi_L)


# Double-double splitting of 2*pi, for reducing large phase arguments.
_TWO_PI_HI = 6.283185307179586
_TWO_PI_LO = 2.4492935982947064e-16
_SPLITTER = 134217729.0  # 2**27 + 1, Dekker's constant
_REDUCE_THRESHOLD = float(2**32)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """a*b as an exact double-double (product, rounding error)."""
    p = a * b
    a_big = a * _SPLITTER
    a_hi = a_big - (a_big - a)
    a_lo = a - a_hi
    b_big = b * _SPLITTER
    b_hi = b_big - (b_big - b)
    b_lo = b - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err


def phase_sin(k: float, length: float, shift: float) -> float:
    """sin(k*length - shift), keeping the phase accurate when k*length is
    too large for a naive product to retain sub-radian precision.

    Dekker's split overflows for factors above about 1.3e300, so the
    reduction fails for such a k, length or k*length/(2 pi); that raises
    ValidationError rather than returning nan.  _columns and position
    sweeps inline the first branch, sin(k*length - shift) when k*length <
    2**32, deciding it once per orbit for all its points.
    """
    product = k * length
    if product < _REDUCE_THRESHOLD:
        return math.sin(product - shift)
    if product < math.inf:
        hi, lo = _two_prod(k, length)
        n = round(hi / _TWO_PI_HI)
        q_hi, q_lo = _two_prod(float(n), _TWO_PI_HI)
        reduced = ((hi - q_hi) - q_lo) + (lo - n * _TWO_PI_LO)
        if math.isfinite(reduced):
            return math.sin(reduced - shift)
    raise ValidationError(
        f"k*L = {product!r} (k = {k!r}, L = {length!r}) is too large to "
        "reduce the phase sin(k L - m Delta) modulo 2 pi"
    )


def orbit_term(
    orbit: ClosedOrbit,
    k: float,
    pol: Polarization,
    refl: ReflectionModel,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Oscillatory contribution of a single closed orbit at momentum k."""
    if not (k > 0.0):
        raise ValidationError(f"k must be positive, got {k!r}")
    prefactor = 3.0 * sigma_background(0.5 * k * k, consts) / k
    ((term,),) = _columns(_orbits((orbit,), pol, refl), [prefactor], [k])
    return term


def _orbits(
    catalog: tuple[ClosedOrbit, ...], pol: Polarization, refl: ReflectionModel
) -> list[tuple[float, float, float, float]]:
    """(f_out, f_ret, L, m Delta) of each orbit.  f is angular_factor at
    theta = pi/2 with cos(pi/2) taken as exactly zero, so z polarization
    yields an identically zero orbit sum."""
    sin_theta, phi_l, cos = math.sin(pol.theta_L), pol.phi_L, math.cos
    return [
        (sin_theta * cos(orbit.phi_out - phi_l),
         sin_theta * cos(orbit.phi_ret - phi_l), orbit.length, shift)
        for orbit, shift in zip(catalog, _shifts(catalog, refl.delta))
    ]


def _shift(m: int, delta: float) -> float:
    """m Delta, the phase an orbit loses at its m reflections.  One that
    overflows would make sin(k L - m Delta) nan; one of 2**32 or more would
    swamp k L, since phase_sin reduces k L modulo 2 pi but not m Delta (at
    1e17 its ulp is 16 rad).  Both are refused."""
    shift = m * delta
    if not abs(shift) < _REDUCE_THRESHOLD:
        why = ("overflows: the phase sin(k L - m Delta) is undefined"
               if math.isinf(shift) else
               "is too large: the phase sin(k L - m Delta) needs |m Delta| < 2**32")
        raise ValidationError(f"m*Delta = {shift!r} (m = {m!r}, Delta = {delta!r}) {why}")
    return shift


def _shifts(catalog: tuple[ClosedOrbit, ...], delta: float) -> list[float]:
    """_shift of each orbit, in catalog order, except that an m Delta that
    overflows is refused first, wherever it stands in the catalog."""
    for orbit in catalog:
        if math.isinf(orbit.m * delta):
            _shift(orbit.m, delta)  # raises the overflow
    return [_shift(orbit.m, delta) for orbit in catalog]


def _columns(orbits: list[tuple[float, float, float, float]], prefactors: list[float],
             ks: list[float]) -> list[list[float]]:
    """One column of terms per orbit, in catalog order, over the points
    (prefactor, k): prefactor * f_out * f_ret * sin(k L - m Delta) / L with
    L the orbit's third entry, the same at every point.

    The phase is phase_sin's.  A column inlines its first branch when
    k_max * L < 2**32; rounded products are monotone, so then k L < 2**32
    at every point.  Any other column calls phase_sin term by term.  A
    length of 0 raises ZeroDivisionError, and one of inf raises
    phase_sin's ValidationError."""
    points, k_max, sin = list(zip(prefactors, ks)), max(ks), math.sin
    return [
        [p * f_out * f_ret * sin(k * length - shift) / length for p, k in points]
        if k_max * length < _REDUCE_THRESHOLD else
        [p * f_out * f_ret * phase_sin(k, length, shift) / length for p, k in points]
        for f_out, f_ret, length, shift in orbits
    ]


def _fold(columns: list[list[float]], width: int) -> list[float]:
    """The orbit sum at each of width points: the left fold
    ((0.0 + t_1) + t_2) + ... of the columns, one C-level map(add) per
    orbit.  Never sum(): from CPython 3.12 it compensates float sums
    (Neumaier), so the last bits, and the output bytes, would depend on
    the Python version."""
    sums = [0.0] * width
    for column in columns:
        sums = list(map(add, sums, column))
    return sums


def _check_source(wedge: WedgeGeometry, source: str):
    """Raise unless source serves the wedge (either a pi/N wedge, only
    'numeric' any other) and the wedge holds the guard band 2 BETA_MIN, so
    that at most about 3,100 images are built."""
    if source not in ORBIT_SOURCES:
        raise ValidationError(
            f"orbit_source must be one of {ORBIT_SOURCES}, got {source!r}"
        )
    guard_band(wedge, BETA_MIN)
    if wedge.n_integer is None and source == "analytic":
        raise ValidationError(
            "the analytic orbit catalog requires an opening angle pi/N; "
            "use the numeric orbit source for this wedge"
        )


def orbit_catalog(
    wedge: WedgeGeometry,
    ion: IonPosition,
    source: str = "analytic",
) -> tuple[ClosedOrbit, ...]:
    """Closed orbits of the ion by the method of images: a pi/N wedge gets
    ``enumerate_analytic`` from either source, bit for bit, and any other
    the images in radians.  Built afresh on every call; a rho sweep builds
    one, at rho = 1/2, and a beta sweep none."""
    _check_source(wedge, source)
    if wedge.n_integer is not None:
        return tuple(enumerate_analytic(wedge.n_integer, ion))
    return tuple(enumerate_images(wedge, ion))


def sigma_total(
    e_photon_ev: float,
    wedge: WedgeGeometry,
    ion: IonPosition,
    pol: Polarization,
    refl: ReflectionModel,
    orbit_source: str = "analytic",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> SpectrumPoint:
    """Total cross section: background plus the sum over closed orbits."""
    validate_beta(wedge, ion, BETA_MIN)
    energy, k = energy_conversion(e_photon_ev, consts)
    sigma0 = sigma_background(energy, consts)
    catalog = orbit_catalog(wedge, ion, orbit_source)
    columns = _columns(_orbits(catalog, pol, refl), [3.0 * sigma0 / k], [k])
    (sigma_osc,) = _fold(columns, 1)
    return SpectrumPoint.build(e_photon_ev, energy, k, sigma0, sigma_osc)


def _closed_form(
    e_photon_ev: float,
    n: int,
    ion: IonPosition,
    consts: PhysicalConstants,
    refl: ReflectionModel | None,
    axis: int,
) -> SpectrumPoint:
    """Cross section with sigma_osc = 3 sigma0 S_aa (a = x for axis 0, y for
    axis 1) from the closed-form chords and bounce counts alone, never from
    the catalog; refl None means hard walls.

    Odd-j orbits leave along i pi/N (i = 1..N) with chord sin(i pi/N - beta)
    and m = min(2i - 1, 2(N - i) + 1); they retrace, u_ret = -u_out.  The
    loop takes i = N at i = 0, the same axis, with chord sin(beta) and
    m = 1.  Even-j orbits leave along i pi/N + beta (i = 1..N-1) and return
    along beta - i pi/N, with chord sin(i pi/N) and m = 2 min(i, N - i).
    With L = 2 rho chord, c_j / (3 sigma0) = sin(k L - m Delta) / (k L),
    and the factors below are u_out u_ret^T.
    """
    delta = math.pi if refl is None else refl.delta
    validate_beta(WedgeGeometry.from_n(n), ion, BETA_MIN)
    energy, k = energy_conversion(e_photon_ev, consts)
    sigma0 = sigma_background(energy, consts)
    two_k_rho = 2.0 * k * ion.rho
    beta = ion.beta

    def wave(chord: float, m: int) -> float:
        return phase_sin(two_k_rho, chord, _shift(m, delta)) / (two_k_rho * chord)

    s_xx = s_yy = 0.0
    for i in range(n):
        angle = i * math.pi / n
        odd = (wave(math.sin(angle - beta), min(2 * i - 1, 2 * (n - i) + 1))
               if i else wave(math.sin(beta), 1))
        s_xx -= math.cos(angle) ** 2 * odd
        s_yy -= math.sin(angle) ** 2 * odd
        if i:
            # sin(i pi/n) evaluated on the folded argument, as in the catalog.
            fold = min(i, n - i)
            even = wave(math.sin(fold * math.pi / n), 2 * fold)
            s_xx += math.cos(angle + beta) * math.cos(angle - beta) * even
            s_yy -= math.sin(angle + beta) * math.sin(angle - beta) * even
    osc = 3.0 * sigma0 * (s_xx, s_yy)[axis]
    return SpectrumPoint.build(e_photon_ev, energy, k, sigma0, osc)


def sigma_x_closed_form(
    e_photon_ev: float,
    n: int,
    ion: IonPosition,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
    refl: ReflectionModel | None = None,
) -> SpectrumPoint:
    """Cross section for x polarization in a pi/N wedge, written without
    reference to the orbit catalog; hard walls unless refl says otherwise."""
    return _closed_form(e_photon_ev, n, ion, consts, refl, 0)


def sigma_y_closed_form(
    e_photon_ev: float,
    n: int,
    ion: IonPosition,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
    refl: ReflectionModel | None = None,
) -> SpectrumPoint:
    """Cross section for y polarization in a pi/N wedge, as the x one."""
    return _closed_form(e_photon_ev, n, ion, consts, refl, 1)


def sigma_z_closed_form(
    e_photon_ev: float,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> SpectrumPoint:
    """z polarization: every orbit is perpendicular to the polarization, so
    the wedge leaves no imprint and the free-ion background survives alone."""
    energy, k = energy_conversion(e_photon_ev, consts)
    sigma0 = sigma_background(energy, consts)
    return SpectrumPoint.build(e_photon_ev, energy, k, sigma0, 0.0)
