"""Wedge cavity geometry and specular ray tracing on the cross-sectional plane.

Coordinate convention (fixed for the whole package): the wedge apex sits at
the origin, the left surface is the half-line {(0, -t): t >= 0}, the right
surface is the half-line at polar angle (alpha - pi/2), and the interior is
the sector between them.  The ion at distance rho from the apex and
declination beta from the left surface is at (rho sin(beta), -rho cos(beta)).
Azimuths are measured counterclockwise from +x.  Lengths are in bohr radii,
angles in radians.

All functions are pure; they are deliberately free of array dependencies so
that the closed-orbit search can call them in a tight scalar loop.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import (
    ApexSingularityError,
    BetaRangeError,
    DegenerateIncidenceError,
    ValidationError,
)
from .records import Record

TWO_PI = 2.0 * math.pi

#: A trajectory segment passing closer to the apex than APEX_GUARD times the
#: trace scale is treated as hitting the apex, where reflection is undefined.
APEX_GUARD = 1e-12

#: Default guard keeping the ion off the surfaces for cross-section work
#: (orbit lengths vanish and 1/L amplitudes diverge as beta -> 0 or alpha).
BETA_MIN = 1e-3

Point = tuple[float, float]
Vector = tuple[float, float]

LEFT = "left"
RIGHT = "right"


class WedgeGeometry(Record, namedtuple("WedgeGeometry", "opening_angle n_integer")):
    """Open wedge cavity with apex at the origin.

    ``n_integer`` is filled automatically whenever the opening angle equals
    pi/N for a positive integer N, to within 1e-12 times min(1, pi/N), a
    tolerance that shrinks with a narrow wedge; only then does the analytic
    closed-orbit catalog apply.
    """

    __slots__ = ()

    def __new__(cls, opening_angle: float, n_integer: int | None = None):
        alpha = opening_angle
        if not (0.0 < alpha <= math.pi):
            raise ValidationError(
                f"opening angle must lie in (0, pi], got {alpha!r}"
            )
        if n_integer is None:
            n = round(math.pi / alpha)
            if n >= 1 and abs(alpha - math.pi / n) <= 1e-12 * min(1.0, math.pi / n):
                n_integer = n
        else:
            n = n_integer
            if not (isinstance(n, int) and n >= 1):
                raise ValidationError("n_integer must be a positive integer")
            if abs(alpha - math.pi / n) > 1e-12 * min(1.0, math.pi / n):
                raise ValidationError(
                    f"opening angle {alpha!r} is not pi/{n} within "
                    "1e-12 * min(1, pi/N)"
                )
        return tuple.__new__(cls, (opening_angle, n_integer))

    @classmethod
    def from_n(cls, n: int) -> "WedgeGeometry":
        """Wedge with opening angle pi/n."""
        if not (isinstance(n, int) and n >= 1):
            raise ValidationError("n must be a positive integer")
        return cls(math.pi / n, n)

    @classmethod
    def from_alpha(cls, alpha: float) -> "WedgeGeometry":
        """Wedge with an arbitrary opening angle in (0, pi]."""
        return cls(float(alpha))

    @property
    def right_surface_azimuth(self) -> float:
        """Direction of the right surface half-line, away from the apex."""
        return self.opening_angle - 0.5 * math.pi

    @property
    def left_surface_azimuth(self) -> float:
        """Direction of the left surface half-line, away from the apex."""
        return 1.5 * math.pi

    def _right_normal(self) -> Vector:
        # Unit normal of the right surface pointing into the interior.
        a = self.opening_angle
        return (-math.cos(a), -math.sin(a))


class IonPosition(Record, namedtuple("IonPosition", "rho beta")):
    """Negative-ion placement: distance rho from the apex (bohr), declination
    beta from the left surface (radians)."""

    __slots__ = ()

    def __new__(cls, rho: float, beta: float):
        if not (math.isfinite(rho) and rho > 0.0):
            raise ValidationError(f"rho must be positive and finite, got {rho!r}")
        if not math.isfinite(beta):
            raise ValidationError("beta must be finite")
        return tuple.__new__(cls, (rho, beta))


class Approach(Record, namedtuple(
    "Approach", "reflections signed_miss path_length direction"
)):
    """Closest approach of a traced trajectory to its start point.

    ``signed_miss`` is the perpendicular distance from the segment's line to
    the start point, signed by the side on which the trajectory passes; it is
    the root-finding observable of the closed-orbit search.
    """

    __slots__ = ()

    @property
    def distance(self) -> float:
        return abs(self.signed_miss)

    @property
    def direction_azimuth(self) -> float:
        return wrap_angle(math.atan2(self.direction[1], self.direction[0]))


class RayPath(Record, namedtuple(
    "RayPath",
    "segments reflections total_length approaches final_direction escaped",
    defaults=((), (1.0, 0.0), False),
)):
    """Piecewise-straight trajectory inside the wedge."""

    __slots__ = ()


def wrap_angle(phi: float) -> float:
    """phi reduced to [0, 2*pi); % alone rounds tiny negatives up to 2*pi."""
    phi %= TWO_PI
    return 0.0 if phi == TWO_PI else phi


def guard_band(wedge: WedgeGeometry, beta_min: float) -> tuple[float, float]:
    """(beta_min, alpha - beta_min); raises when the wedge is narrower than
    2 beta_min, so that no beta is allowed."""
    lo, hi = beta_min, wedge.opening_angle - beta_min
    if hi < lo:
        raise BetaRangeError(
            f"opening angle {wedge.opening_angle!r} is narrower than the guard "
            f"band 2 * {beta_min!r}: no beta is allowed"
        )
    return lo, hi


def validate_beta(wedge: WedgeGeometry, ion: IonPosition, beta_min: float = 0.0):
    """Raise unless beta is interior: strictly inside (0, alpha) when
    beta_min is 0, else within the closed guard band [beta_min,
    alpha - beta_min]."""
    lo, hi = guard_band(wedge, beta_min)
    inside = lo <= ion.beta <= hi if beta_min > 0.0 else lo < ion.beta < hi
    if not inside:
        raise BetaRangeError(
            f"beta={ion.beta!r} outside [{lo!r}, {hi!r}] "
            f"for opening angle {wedge.opening_angle!r}"
        )


def ion_cartesian(wedge: WedgeGeometry, ion: IonPosition) -> Point:
    """Cartesian position of the ion: (rho sin(beta), -rho cos(beta))."""
    validate_beta(wedge, ion)
    return (ion.rho * math.sin(ion.beta), -ion.rho * math.cos(ion.beta))


def surface_distances(wedge: WedgeGeometry, point: Point) -> tuple[float, float]:
    """Signed distances of a point from the (left, right) surface planes.

    Both are positive strictly inside the wedge.
    """
    nx, ny = wedge._right_normal()
    return (point[0], nx * point[0] + ny * point[1])


def is_interior(wedge: WedgeGeometry, point: Point) -> bool:
    d_left, d_right = surface_distances(wedge, point)
    return d_left > 0.0 and d_right > 0.0


#: Incidence |d . n| below which a ray counts as parallel to a surface.
PARALLEL_GUARD = 1e-14


def reflect(direction: Vector, surface: str, wedge: WedgeGeometry) -> Vector:
    """Specular reflection of a unit direction off one wedge surface."""
    if surface == LEFT:
        normal = (1.0, 0.0)
    elif surface == RIGHT:
        normal = wedge._right_normal()
    else:
        raise ValidationError(f"surface must be 'left' or 'right', got {surface!r}")
    dn = direction[0] * normal[0] + direction[1] * normal[1]
    if abs(dn) < PARALLEL_GUARD:
        raise DegenerateIncidenceError(
            f"direction {direction!r} is parallel to the {surface} surface"
        )
    rx = direction[0] - 2.0 * dn * normal[0]
    ry = direction[1] - 2.0 * dn * normal[1]
    norm = math.hypot(rx, ry)
    return (rx / norm, ry / norm)


def _next_hit(
    wedge: WedgeGeometry, p: Point, d: Vector, t_min: float
) -> tuple[float, str] | None:
    """Earliest forward intersection of the ray p + t d with either surface.

    Contacts at incidence within PARALLEL_GUARD of parallel are ignored: in
    the parallel limit the contact point runs off to infinity, so the ray is
    treated as escaping rather than reflecting.
    """
    best: tuple[float, str] | None = None
    # Left surface: the plane x = 0, restricted to y <= 0.
    if d[0] < -PARALLEL_GUARD:
        t = -p[0] / d[0]
        if t > t_min and p[1] + t * d[1] <= 0.0:
            best = (t, LEFT)
    # Right surface: the line through the origin with inward normal n.
    nx, ny = wedge._right_normal()
    nd = nx * d[0] + ny * d[1]
    if nd < -PARALLEL_GUARD:
        t = -(nx * p[0] + ny * p[1]) / nd
        if t > t_min:
            hx, hy = p[0] + t * d[0], p[1] + t * d[1]
            # Keep only hits on the half-line (positive arc length from apex).
            ux, uy = math.sin(wedge.opening_angle), -math.cos(wedge.opening_angle)
            if ux * hx + uy * hy >= 0.0 and (best is None or t < best[0]):
                best = (t, RIGHT)
    return best


def trace(
    wedge: WedgeGeometry,
    start: Point,
    direction: Vector,
    max_reflections: int,
) -> RayPath:
    """Propagate a ray from an interior point through specular reflections.

    Stops after ``max_reflections`` bounces or when the ray escapes to
    infinity.  The final allowed segment is truncated at its closest approach
    to ``start`` so that an exactly closed orbit ends where it began.  Every
    closest approach to ``start`` occurring after at least one reflection is
    recorded on the returned path.

    Raises ApexSingularityError when a segment passes within
    ``APEX_GUARD * |start|`` of the apex, and a validation error when
    ``start`` is not strictly interior.
    """
    if max_reflections < 0:
        raise ValidationError("max_reflections must be >= 0")
    if not is_interior(wedge, start):
        raise ValidationError(
            f"trace start {start!r} is on a surface or outside the wedge"
        )
    scale = math.hypot(*start)
    apex_tol = APEX_GUARD * scale
    t_min = 1e-13 * scale

    norm = math.hypot(*direction)
    if norm == 0.0:
        raise ValidationError("direction must be nonzero")
    d: Vector = (direction[0] / norm, direction[1] / norm)

    p: Point = start
    m = 0
    total = 0.0
    segments: list[tuple[Point, Point]] = []
    approaches: list[Approach] = []
    escaped = False

    while True:
        hit = _next_hit(wedge, p, d, t_min)
        # Perpendicular foot of the start point on this segment's line.
        t_foot = (start[0] - p[0]) * d[0] + (start[1] - p[1]) * d[1]
        miss = d[0] * (start[1] - p[1]) - d[1] * (start[0] - p[0])

        if hit is None:
            # Escape segment [p, infinity).
            if t_foot > t_min:
                end = (p[0] + t_foot * d[0], p[1] + t_foot * d[1])
                if m >= 1:
                    approaches.append(Approach(m, miss, total + t_foot, d))
                segments.append((p, end))
                total += t_foot
            escaped = True
            break

        t_hit, surface = hit
        hit_point = (p[0] + t_hit * d[0], p[1] + t_hit * d[1])
        if math.hypot(*hit_point) <= apex_tol:
            raise ApexSingularityError(
                f"trajectory hits the wedge apex (within {apex_tol:.3e} bohr)"
            )

        interior_foot = t_min < t_foot < t_hit
        if m >= 1 and interior_foot:
            approaches.append(Approach(m, miss, total + t_foot, d))

        if m == max_reflections:
            # Reflection budget exhausted: end at the return point if there
            # is one on this segment, else at the wall.
            t_end = t_foot if interior_foot else t_hit
            end = (p[0] + t_end * d[0], p[1] + t_end * d[1])
            segments.append((p, end))
            total += t_end
            break

        segments.append((p, hit_point))
        total += t_hit
        d = reflect(d, surface, wedge)
        p = hit_point
        m += 1

    return RayPath(
        segments=tuple(segments),
        reflections=m,
        total_length=total,
        approaches=tuple(approaches),
        final_direction=d,
        escaped=escaped,
    )
