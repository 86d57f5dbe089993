"""Catalogs of closed orbits: trajectories leaving the ion and returning to it.

Every catalog comes from the method of images.  Unfold the wedge about its
surfaces and measure angles from the left one: the ion sits at beta, its
image i != 0 at i alpha + beta for even i and (i+1) alpha - beta for odd i.
The line to image i folds back into a closed orbit with m = |i| bounces and
length L = 2 rho |sin(Delta_i / 2)| when the image's angle Delta_i from the
ion is at most pi.  ``_image`` writes its launch and return azimuths once:
odd-i orbits retrace themselves, even-i ones pair with their time-reversed
partners i <-> -i.  ``_table(wedge)`` holds what of each image's orbit is
free of rho and beta, and ``_evaluate`` makes the catalog at (rho, beta)
of it, so a rho sweep needs one catalog and a beta sweep one table.

A pi/N wedge has the 2N-1 images i = 1..N, -(N-1)..-1, indexed j = 1..2N-1
(j = i mod 2N) and listed in j order.  That is ascending phi_out, except in
floats when beta is a few ulps below pi/N: an even-j launch j pi/(2N) + beta
can then round one ulp above the next odd one.  Its angles are integer
numerators over 2N, each rounded once, plus beta for even j, so its count
needs no Delta = pi test; ``exact_catalog`` keeps them as exact Fractions
of pi.  Any other opening angle takes every image with |Delta_i| <= pi in
radians, so an orbit that passes next to the apex is kept.

``find_numeric`` finds the orbits of any wedge by shooting instead: scan
launch azimuths across the interior fan, record the signed miss distance at
each closest approach to the ion, and bisect the sign changes.  No catalog
the package computes with comes from it; the tests hold the images to it,
and to the ray tracer, as an independent oracle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import (
    ApexSingularityError,
    BetaRangeError,
    ValidationError,
    ZeroLengthOrbitError,
)
from .geometry import (
    TWO_PI,
    Approach,
    IonPosition,
    WedgeGeometry,
    ion_cartesian,
    trace,
    validate_beta,
    wrap_angle,
)
from .records import Record


class ClosedOrbit(Record, namedtuple("ClosedOrbit", "index phi_out phi_ret m length")):
    """One closed orbit on the cross-sectional plane.

    Both polar angles are implicitly pi/2 (the orbits are planar); phi_out is
    the launch azimuth, phi_ret the azimuth of the returning momentum, m the
    number of surface bounces, and length the path length in bohr.
    """

    __slots__ = ()

    def __new__(cls, index: int, phi_out: float, phi_ret: float, m: int,
                length: float):
        if m < 1:
            raise ValidationError(f"reflection count must be >= 1, got {m!r}")
        if not (math.isfinite(length) and length > 0.0):
            raise ZeroLengthOrbitError(
                f"orbit length must be positive, got {length!r}"
            )
        if not (0.0 <= phi_out < TWO_PI and 0.0 <= phi_ret < TWO_PI):
            name, value = (("phi_ret", phi_ret) if 0.0 <= phi_out < TWO_PI
                           else ("phi_out", phi_out))
            raise ValidationError(f"{name} must lie in [0, 2*pi), got {value!r}")
        return tuple.__new__(cls, (index, phi_out, phi_ret, m, length))


class ExactOrbit(Record, namedtuple(
    "ExactOrbit", "index phi_out_over_pi phi_ret_over_pi m chord_over_pi"
)):
    """Closed orbit of a pi/N wedge with angles kept as exact rationals.

    Angles are stored as multiples of pi (phi = fraction * pi), which is the
    form the analytic catalog takes when beta itself is a rational multiple
    of pi.  ``chord_over_pi`` is the q in L = 2 rho |sin(q pi)|.
    """

    __slots__ = ()

    def to_closed_orbit(self, rho: float) -> ClosedOrbit:
        # Folding q into [0, 1/2] before rounding gives partners equal length bits.
        q = self.chord_over_pi % 1
        return ClosedOrbit(
            index=self.index,
            phi_out=float(self.phi_out_over_pi) * math.pi,
            phi_ret=float(self.phi_ret_over_pi) * math.pi,
            m=self.m,
            length=2.0 * rho * abs(math.sin(float(min(q, 1 - q)) * math.pi)),
        )


def _validate_n(n: int):
    if not (isinstance(n, int) and n >= 1):
        raise ValidationError(f"N must be a positive integer, got {n!r}")


def _image(i: int, half_alpha, pi) -> tuple:
    """(phi_out, phi_ret) of the orbit to image i, unwrapped and less beta
    when i is even, in units where the opening angle is 2 half_alpha and a
    half turn is pi: integer numerators over 2N at pi/N, radians otherwise.
    An orbit to an image at a lower angle (i < 0) leaves turned by pi; an odd
    one returns reversed, an even one turned back by i opening angles."""
    out = (i + i % 2) * half_alpha - (pi if i < 0 else 0)
    return out, (out + pi if i % 2 else out - 2 * i * half_alpha)


def _pi_n_images(n: int) -> list[int]:
    """The 2N-1 images of a pi/N wedge in j order; +-N is one orbit."""
    return [*range(1, n + 1), *range(1 - n, 0)]


def exact_catalog(n: int, beta_over_pi: Fraction) -> list[ExactOrbit]:
    """Analytic catalog for a pi/N wedge with beta an exact fraction of pi.

    All angle arithmetic is exact, so the result can be compared against a
    reference table of rational multiples of pi without rounding.
    """
    _validate_n(n)
    beta_over_pi = Fraction(beta_over_pi)
    if not (0 < beta_over_pi < Fraction(1, n)):
        raise BetaRangeError(
            f"beta must lie in (0, pi/{n}), got {beta_over_pi} * pi"
        )
    two_n = 2 * n
    orbits = []
    for j, i in enumerate(_pi_n_images(n), 1):
        out, ret = (Fraction(p, two_n) % 2 for p in _image(i, 1, two_n))
        if i % 2:
            chord = out - beta_over_pi
        else:  # the table prints the even chord unfolded, as j/2N
            out, ret = out + beta_over_pi, (ret + beta_over_pi) % 2
            chord = Fraction(j, two_n)
        orbits.append(ExactOrbit(j, out, ret, abs(i), chord))
    return orbits


def _table(wedge: WedgeGeometry) -> list[tuple]:
    """One row per image, in catalog order: (m, phi_out, phi_ret, chord,
    base, tested).  An odd row keeps its angles and has chord None: it takes
    |sin(base - beta)|, where untested or |base - beta| <= pi/2.  An even
    row keeps its chord and has its angles less beta.  L = 2 rho chord."""
    rows, n = [], wedge.n_integer
    if n is not None:
        two_n = 2 * n  # every angle is p pi/(2N), rounded once, plus beta for even j
        angles = [p / two_n * math.pi % TWO_PI for p in range(2 * two_n)]
        for i in _pi_n_images(n):
            p_out, p_ret = _image(i, 1, two_n)
            out, ret = angles[p_out % (2 * two_n)], angles[p_ret % (2 * two_n)]
            # m pi/(2N) gives partners j <-> 2N-j equal length bits.
            chord = None if i % 2 else abs(math.sin(angles[abs(i)]))
            rows.append((abs(i), out, ret, chord, out, False))
        return rows
    alpha = wedge.opening_angle
    top = int(math.pi / alpha) + 1  # |i| <= pi/alpha + 1 for |Delta_i| <= pi
    for i in [*range(1, top + 1), *range(-top, 0)]:
        if i % 2:  # Delta_i / 2 is (i+1) alpha/2 - beta
            out, ret = _image(i, alpha / 2, math.pi)
            rows.append((abs(i), wrap_angle(out), wrap_angle(ret), None,
                         (i + 1) * alpha / 2, True))
        elif abs(i * alpha / 2) <= math.pi / 2:
            out, ret = _image(i, alpha / 2, math.pi)
            rows.append((abs(i), out, ret, abs(math.sin(i * alpha / 2)), None, False))
    return rows


def _evaluate(table: list[tuple], ion: IonPosition) -> list[ClosedOrbit]:
    """The catalog of a ``_table`` at (rho, beta), numbered from 1."""
    beta, two_rho, orbits = ion.beta, 2.0 * ion.rho, []
    for m, out, ret, chord, base, tested in table:
        if chord is not None:
            out, ret = wrap_angle(out + beta), wrap_angle(ret + beta)
        elif tested and not abs(base - beta) <= math.pi / 2:
            continue
        else:
            chord = abs(math.sin(base - beta))
        orbits.append(ClosedOrbit(len(orbits) + 1, out, ret, m, two_rho * chord))
    return orbits


def enumerate_analytic(n: int, ion: IonPosition) -> list[ClosedOrbit]:
    """Analytic catalog for a pi/N wedge: 2N-1 orbits in j order, which is
    ascending phi_out except for beta a few ulps below pi/N (see above)."""
    _validate_n(n)
    # The j = 1 launch (1/N) pi can round below pi/N; beta must stay under
    # it too, or the j = 1 chord is zero.
    alpha = min(math.pi / n, 1 / n * math.pi)
    if not (0.0 < ion.beta < alpha):
        raise BetaRangeError(
            f"beta={ion.beta!r} outside (0, {alpha!r}) for a pi/{n} wedge"
        )
    return _evaluate(_table(WedgeGeometry.from_n(n)), ion)


def enumerate_images(wedge: WedgeGeometry, ion: IonPosition) -> list[ClosedOrbit]:
    """Catalog of the method of images for any opening angle, in ascending
    wrapped phi_out, the order of every orbit sum: images i > 0 launch in
    (0, pi/2 + beta] and i < 0 in [pi/2 + beta, pi], each side in ascending
    i.  An orbit that comes close to the apex is kept however close."""
    validate_beta(wedge, ion)
    return _evaluate(_table(wedge), ion)


#: Shooting-search resolution: launch samples per allowed reflection, the
#: return radius as a fraction of rho, the bisection tolerance on the launch
#: azimuth, and the azimuth within which two roots count as one orbit.
SCAN_SAMPLES_PER_REFLECTION = 720
RETURN_RADIUS = 1e-6
ANGLE_TOLERANCE = 1e-11
DEDUPE_TOLERANCE = 1e-8


class OrbitSearchConfig(Record, namedtuple("OrbitSearchConfig", "max_reflections")):
    """Reflection budget of the shooting search."""

    __slots__ = ()

    def __new__(cls, max_reflections: int):
        if not (isinstance(max_reflections, int) and max_reflections >= 1):
            raise ValidationError("max_reflections must be a positive integer")
        return tuple.__new__(cls, (max_reflections,))


def default_search_config(wedge: WedgeGeometry) -> OrbitSearchConfig:
    """Reflection budget covering the full catalog: 2N-1 bounces, where N is
    rounded up for wedges whose opening angle is not pi/N."""
    n = wedge.n_integer or math.ceil(math.pi / wedge.opening_angle)
    return OrbitSearchConfig(max_reflections=2 * n - 1)


def find_numeric(
    wedge: WedgeGeometry, ion: IonPosition, cfg: OrbitSearchConfig
) -> list[ClosedOrbit]:
    """Shooting search for closed orbits of a wedge with any opening angle:
    the tests' independent oracle for ``enumerate_images``, which the
    package computes with instead.

    Scans launch azimuths over the interior fan (right surface to left
    surface), brackets sign changes of the perpendicular miss distance at
    each reflection count, and refines the brackets by bisection.  Launches
    that graze the apex are skipped with a log record; an empty catalog is a
    valid result, not an error.

    The miss distance jumps across the launch at the apex, pi/2 + beta.
    Just below a pi/N the m = N time-reversed pair closes on either side of
    it, closer than one scan step, so the scan adds a launch a hair to each
    side and refines the bracket between those two only at pi/N, where it
    holds the orbit through the apex (j = N of even N, the N = 1 mirror
    orbit).  Within about 3e-9 (relative) below a pi/N the pair's launches
    merge within DEDUPE_TOLERANCE; both graze the apex, where diffraction
    (Keller, J. Opt. Soc. Am. 52, 116 (1962)) takes over from the orbit
    sum.  Orbits launched within about two scan steps of each other (an ion
    that close to a wall) can share a bracket and be lost.
    """
    start = ion_cartesian(wedge, ion)
    return_radius = RETURN_RADIUS * ion.rho
    fan_lo = wedge.right_surface_azimuth
    fan_hi = wedge.left_surface_azimuth
    samples = SCAN_SAMPLES_PER_REFLECTION * cfg.max_reflections
    step = (fan_hi - fan_lo) / samples
    apex = 0.5 * math.pi + ion.beta

    def sample(phi: float) -> dict[int, Approach] | None:
        try:
            path = trace(
                wedge, start, (math.cos(phi), math.sin(phi)), cfg.max_reflections
            )
        except ApexSingularityError:
            return None
        return {a.reflections: a for a in path.approaches}

    # Midpoint sampling keeps the endpoints (launches parallel to a surface)
    # out of the grid.
    launches = [fan_lo + (i + 0.5) * step for i in range(samples)]
    launches += [apex - 2.0 * ANGLE_TOLERANCE, apex + 2.0 * ANGLE_TOLERANCE]
    grid = [(phi, sample(phi)) for phi in sorted(launches)]

    roots: list[tuple[float, Approach]] = []
    for phi, approaches in grid:
        if approaches is None:
            continue
        for app in approaches.values():
            # A sample landing exactly on a closed orbit is already a root.
            if app.signed_miss == 0.0:
                roots.append((phi, app))
    for (phi_a, sa), (phi_b, sb) in zip(grid, grid[1:]):
        if sa is None or sb is None:
            continue
        if phi_a < apex < phi_b and wedge.n_integer is None:
            continue
        for m, app_a in sa.items():
            app_b = sb.get(m)
            if app_b is None:
                continue
            if app_a.signed_miss * app_b.signed_miss < 0.0:
                found = _refine(phi_a, phi_b, app_a.signed_miss, m, sample)
                if found is not None and found[1].distance <= return_radius:
                    roots.append(found)

    roots = sorted(((wrap_angle(phi), app) for phi, app in roots), key=lambda r: r[0])
    orbits: list[ClosedOrbit] = []
    for phi, app in roots:
        if orbits:
            last = orbits[-1]
            gap = abs(phi - last.phi_out)
            if min(gap, TWO_PI - gap) <= DEDUPE_TOLERANCE and app.reflections == last.m:
                continue
        orbits.append(
            ClosedOrbit(
                index=len(orbits) + 1,
                phi_out=phi,
                phi_ret=app.direction_azimuth,
                m=app.reflections,
                length=app.path_length,
            )
        )
    return orbits


#: Interior split points tried in turn when the bisection midpoint loses the
#: bracketed reflection count or grazes the apex.
_SPLIT_FRACTIONS = (0.5, 0.57, 0.43, 0.65, 0.35)


def _refine(lo, hi, miss_lo, m, sample) -> tuple[float, Approach] | None:
    """Bisect one sign change of the miss distance at reflection count m."""
    while hi - lo > ANGLE_TOLERANCE:
        for frac in _SPLIT_FRACTIONS:
            phi = lo + frac * (hi - lo)
            approaches = sample(phi)
            if approaches is not None and m in approaches:
                break
        else:
            _warn("abandoning bracket near phi=%.12f (m=%d): "
                  "no usable split point", 0.5 * (lo + hi), m)
            return None
        miss = approaches[m].signed_miss
        if miss == 0.0:
            lo = hi = phi
            break
        if (miss > 0.0) == (miss_lo > 0.0):
            lo, miss_lo = phi, miss
        else:
            hi = phi
    root = 0.5 * (lo + hi)
    # The exactly closed launch can graze the apex (a corner-reflector orbit
    # passes through it); measure a hair to the side if it does.
    for phi in (root, root + 2.0 * ANGLE_TOLERANCE, root - 2.0 * ANGLE_TOLERANCE):
        approaches = sample(phi)
        if approaches is not None and m in approaches:
            return root, approaches[m]
    _warn("root near phi=%.12f (m=%d) grazes the apex; skipped", root, m)
    return None


def _warn(message: str, *args):
    """Log a lost root; logging loads only when a search loses one."""
    import logging

    logging.getLogger(__name__).warning(message, *args)
