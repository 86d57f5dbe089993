"""Brute-force numeric checks of the analytic ingredients.

Three independent verifications live here:

* the bound-to-continuum overlap integral, evaluated as a full 3-D
  quadrature and compared against its closed form,
* its radial and angular sub-integrals, each against their own closed forms,
* Fourier recovery of closed-orbit lengths from a computed oscillatory
  cross section (the action spectrum).

Nothing in this module reuses the closed forms it is checking: the overlap
is integrated on a tensor grid, the radial piece by a node-doubling
Gauss-Legendre rule, and the lengths by an FFT.  It needs numpy alone.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .errors import ConvergenceError, GridError, ValidationError
from .records import Record
from .spectrum import Polarization

#: Relative accuracy the overlap quadrature must reach, measured against the
#: natural scale of the integral (its value for parallel polarization).
OVERLAP_TOLERANCE = 1e-6

#: Two passes of the radial rule agree when they differ by at most this times
#: 2/k_b^3, a bound on the radial integrand's L1 mass.
_RADIAL_TOLERANCE = 1e-13
#: The radial rule's cutoff in bound-state decay lengths 1/k_b (the tail it
#: drops is ~ e^(-60)), its Gauss-Legendre points per panel, and the most
#: nodes it may use: past that the panels cannot resolve the wave j_1(k r).
_RADIAL_CUTOFF = 60.0
_PANEL_NODES = 16
_RADIAL_MAX_NODES = 1 << 17


class QuadratureSpec(Record, namedtuple(
    "QuadratureSpec", "radial_cutoff radial_nodes polar_nodes azimuthal_nodes"
)):
    """Node counts and radial cutoff for the 3-D overlap quadrature."""

    __slots__ = ()

    def __new__(cls, radial_cutoff: float, radial_nodes: int = 256,
                polar_nodes: int = 64, azimuthal_nodes: int = 64):
        nodes = (radial_nodes, polar_nodes, azimuthal_nodes)
        for name, value in zip(cls._fields[1:], nodes):
            if value < 64:
                raise ValidationError(f"{name} must be at least 64")
        if not (math.isfinite(radial_cutoff) and radial_cutoff > 0):
            raise ValidationError("radial_cutoff must be positive and finite")
        return tuple.__new__(cls, (radial_cutoff, *nodes))

    @classmethod
    def default(
        cls, consts: PhysicalConstants = DEFAULT_CONSTANTS
    ) -> "QuadratureSpec":
        # 40 bound-state decay lengths: the truncated tail is ~ e^(-40).
        return cls(radial_cutoff=40.0 / consts.k_b)


def closed_form_overlap(
    k: float,
    pol: Polarization,
    k_ret_direction: tuple[float, float, float],
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> complex:
    """The analytic value the quadrature is checked against:
    (8 i B k pi / (k_b^2 + k^2)^2) * (polarization . k_ret)."""
    _check_momentum(k)
    k_b = consts.k_b
    direction = _unit(k_ret_direction)
    dot = float(np.dot(pol.unit_vector(), direction))
    return 8j * consts.b_norm * k * math.pi / (k_b**2 + k**2) ** 2 * dot


def _check_momentum(k: float) -> None:
    if not (math.isfinite(k) and k > 0.0):
        raise ValidationError(f"k must be positive and finite, got {k!r}")


def _unit(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValidationError("direction must be a 3-vector")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0 or not math.isfinite(norm):
        raise ValidationError("direction must be a nonzero finite 3-vector")
    return arr / norm


def _orthonormal_triad(z_axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing z_axis to a right-handed frame."""
    helper = np.array([1.0, 0.0, 0.0])
    if abs(z_axis[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(z_axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(z_axis, e1)
    return e1, e2


def _overlap_tensor(
    k: float,
    eps: np.ndarray,
    z_axis: np.ndarray,
    cutoff: float,
    k_b: float,
    b_norm: float,
    n_r: int,
    n_mu: int,
    n_phi: int,
) -> complex:
    """One tensor-grid evaluation in the frame whose pole is k_ret."""
    x, w = leggauss(n_r)
    r = 0.5 * cutoff * (x + 1.0)
    w_r = 0.5 * cutoff * w
    mu, w_mu = leggauss(n_mu)
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    w_phi = 2.0 * math.pi / n_phi

    e1, e2 = _orthonormal_triad(z_axis)
    sin_theta = np.sqrt(1.0 - mu**2)
    # Polarization projected on the unit sphere of the rotated frame.
    f = (
        np.dot(eps, e1) * np.outer(sin_theta, np.cos(phi))
        + np.dot(eps, e2) * np.outer(sin_theta, np.sin(phi))
        + np.dot(eps, z_axis) * mu[:, None]
    )
    f_phi = f.sum(axis=1) * w_phi

    radial = w_r * r**2 * np.exp(-k_b * r)
    oscillator = np.exp(1j * k * np.outer(r, mu))
    radial_by_mu = oscillator.T @ radial
    return complex(b_norm * np.sum(w_mu * f_phi * radial_by_mu))


def overlap_with_estimate(
    k: float,
    pol: Polarization,
    k_ret_direction,
    spec: QuadratureSpec | None = None,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> tuple[complex, float]:
    """Overlap integral and an error estimate.

    Evaluates the tensor quadrature at the requested node counts and again
    with every count raised by a quarter, returns the finer value, and
    estimates its error as the difference between the two plus the analytic
    bound on the truncated exponential tail plus a summation roundoff floor.
    Gauss rules converge fast enough that the grid difference bounds the
    finer grid's truncation error; once that drops below rounding level the
    floor term keeps the estimate honest.
    """
    _check_momentum(k)
    k_b = consts.k_b
    if spec is None:
        spec = QuadratureSpec.default(consts)
    if spec.radial_cutoff < 30.0 / k_b:
        raise ValidationError(
            f"radial_cutoff must be at least 30/k_b = {30.0 / k_b:.3f} bohr"
        )
    z_axis = _unit(k_ret_direction)
    eps = np.asarray(pol.unit_vector())

    def run(n_r, n_mu, n_phi):
        return _overlap_tensor(
            k, eps, z_axis, spec.radial_cutoff, k_b, consts.b_norm,
            n_r, n_mu, n_phi,
        )

    base = run(spec.radial_nodes, spec.polar_nodes, spec.azimuthal_nodes)
    fine = run(
        spec.radial_nodes + spec.radial_nodes // 4,
        spec.polar_nodes + spec.polar_nodes // 4,
        spec.azimuthal_nodes + spec.azimuthal_nodes // 4,
    )
    cutoff = spec.radial_cutoff
    tail = (
        4.0 * math.pi * consts.b_norm * math.exp(-k_b * cutoff)
        * (cutoff**2 / k_b + 2.0 * cutoff / k_b**2 + 2.0 / k_b**3)
    )
    # Random-walk roundoff over the finer grid's evaluations, scaled by the
    # analytic L1 mass 8 pi B / k_b^3 of the integrand.
    n_evals = (
        (spec.radial_nodes + spec.radial_nodes // 4)
        * (spec.polar_nodes + spec.polar_nodes // 4)
        * (spec.azimuthal_nodes + spec.azimuthal_nodes // 4)
    )
    floor = (
        math.sqrt(n_evals) * sys.float_info.epsilon
        * 8.0 * math.pi * consts.b_norm / k_b**3
    )
    return fine, abs(fine - base) + tail + floor


def overlap_quadrature(
    k: float,
    pol: Polarization,
    k_ret_direction,
    spec: QuadratureSpec | None = None,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> complex:
    """3-D quadrature of the overlap between the initial bound state and the
    outgoing wave, polarization-projected; see closed_form_overlap for the
    value it must reproduce.

    Raises a convergence error when the error estimate exceeds
    OVERLAP_TOLERANCE relative to the integral's natural scale.
    """
    value, estimate = overlap_with_estimate(k, pol, k_ret_direction, spec, consts)
    k_b = consts.k_b
    scale = 8.0 * consts.b_norm * k * math.pi / (k_b**2 + k**2) ** 2
    if estimate > OVERLAP_TOLERANCE * scale:
        raise ConvergenceError(
            f"overlap quadrature error estimate {estimate:.3e} exceeds "
            f"{OVERLAP_TOLERANCE:.0e} * scale ({scale:.3e}); "
            "increase the node counts or the radial cutoff"
        )
    return value


def _j1(x: np.ndarray) -> np.ndarray:
    """Spherical Bessel function j_1, by its Taylor series below x = 0.1,
    where the closed form loses digits to cancellation."""
    x2 = x * x
    series = x / 3.0 * (1.0 - x2 / 10.0 * (1.0 - x2 / 28.0 * (1.0 - x2 / 54.0)))
    return np.where(x < 0.1, series, np.sin(x) / x2 - np.cos(x) / x)


def _radial_pass(k: float, k_b: float, nodes: int) -> float:
    """Composite Gauss-Legendre sum of exp(-k_b r) j_1(k r) r^2 over
    [0, _RADIAL_CUTOFF / k_b], in nodes // _PANEL_NODES equal panels."""
    x, w = leggauss(_PANEL_NODES)
    panels = nodes // _PANEL_NODES
    width = _RADIAL_CUTOFF / k_b / panels
    r = (np.arange(panels)[:, None] + 0.5 * (x + 1.0)) * width
    return float(0.5 * width * np.sum(w * np.exp(-k_b * r) * _j1(k * r) * r * r))


def radial_integral(
    k: float, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Gauss-Legendre quadrature of the radial overlap factor

        integral_0^inf exp(-k_b r) j_1(k r) r^2 dr

    whose closed form is 2k / (k_b^2 + k^2)^2.

    The rule covers [0, _RADIAL_CUTOFF / k_b] in panels of _PANEL_NODES
    points.  It starts at 128 nodes, or more if that many panels would be
    wider than one wavelength 2 pi / k, and doubles them until two passes
    agree within _RADIAL_TOLERANCE * 2/k_b^3; it returns the finer pass.
    Past _RADIAL_MAX_NODES it raises a convergence error.
    Without the wavelength bound, two passes too coarse to see the wave can
    agree within that absolute tolerance once k is large enough that the
    integral itself lies below it, and a noise value would be returned.
    """
    _check_momentum(k)
    k_b = consts.k_b
    tolerance = _RADIAL_TOLERANCE * 2.0 / k_b**3
    cutoff = _RADIAL_CUTOFF / k_b
    nodes = 128
    while (nodes <= _RADIAL_MAX_NODES
           and k * cutoff * _PANEL_NODES > 2.0 * math.pi * nodes):
        nodes *= 2
    coarse = None
    while nodes <= _RADIAL_MAX_NODES:
        fine = _radial_pass(k, k_b, nodes)
        if coarse is not None and abs(fine - coarse) <= tolerance:
            return fine
        coarse, nodes = fine, 2 * nodes
    raise ConvergenceError(
        f"radial integral at k = {k!r} did not converge within "
        f"{_RADIAL_MAX_NODES} nodes"
    )


def angular_integral_check(
    pol: Polarization,
    k_ret_direction,
    polar_nodes: int = 64,
    azimuthal_nodes: int = 128,
) -> float:
    """Sphere quadrature of (polarization . rhat)(k_ret . rhat), evaluated in
    the lab frame; the closed form is (4 pi / 3)(polarization . k_ret)."""
    direction = _unit(k_ret_direction)
    eps = np.asarray(pol.unit_vector())
    mu, w_mu = leggauss(polar_nodes)
    phi = np.arange(azimuthal_nodes) * (2.0 * math.pi / azimuthal_nodes)
    w_phi = 2.0 * math.pi / azimuthal_nodes
    sin_theta = np.sqrt(1.0 - mu**2)

    rhat = np.empty((polar_nodes, azimuthal_nodes, 3))
    rhat[:, :, 0] = np.outer(sin_theta, np.cos(phi))
    rhat[:, :, 1] = np.outer(sin_theta, np.sin(phi))
    rhat[:, :, 2] = mu[:, None]
    integrand = (rhat @ eps) * (rhat @ direction)
    return float(np.sum(w_mu[:, None] * integrand) * w_phi)


class ActionSpectrum(Record, namedtuple("ActionSpectrum", "lengths magnitudes peaks")):
    """Magnitude of the Fourier transform of sigma_osc(k) against length.

    Peaks of the magnitude sit at the closed-orbit lengths present in the
    generating catalog.  The fields hold arrays, which have no single truth
    value, so a spectrum compares and hashes by identity.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def action_spectrum(
    samples,
    window: str = "hann",
    noise_floor: float = 0.012,
    min_separation_bins: int = 4,
) -> ActionSpectrum:
    """Recover orbit lengths from uniformly sampled sigma_osc(k).

    ``samples`` is an (n, 2) table of (k, sigma_osc) rows on a uniform
    ascending k grid with n >= 512.  Peaks are local maxima of the windowed
    magnitude spectrum above ``noise_floor`` times its maximum, at least
    ``min_separation_bins`` bins apart (suppresses window sidelobes).
    """
    table = np.asarray(samples, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2:
        raise GridError("samples must be an (n, 2) table of (k, sigma_osc)")
    n = table.shape[0]
    if n < 512:
        raise GridError(f"need at least 512 samples, got {n}")
    k = table[:, 0]
    values = table[:, 1]
    dk = np.diff(k)
    mean_dk = float(dk.mean())
    if mean_dk <= 0.0 or np.max(np.abs(dk - mean_dk)) > 1e-9 * abs(mean_dk):
        raise GridError("k grid must be uniform and ascending")
    if not np.all(np.isfinite(values)):
        raise GridError("sigma_osc samples must be finite")

    if window == "hann":
        taper = np.hanning(n)
    elif window == "none":
        taper = np.ones(n)
    else:
        raise ValidationError(f"window must be 'hann' or 'none', got {window!r}")

    magnitudes = np.abs(np.fft.rfft(values * taper))
    lengths = 2.0 * math.pi * np.arange(magnitudes.size) / (n * mean_dk)

    top = float(magnitudes.max())
    if top == 0.0:
        return ActionSpectrum(lengths, magnitudes, ())
    idx = _find_peaks(magnitudes, noise_floor * top, max(1, min_separation_bins))
    peaks = tuple((float(lengths[i]), float(magnitudes[i])) for i in idx)
    return ActionSpectrum(lengths, magnitudes, peaks)


def _find_peaks(x: np.ndarray, height: float, distance: int) -> np.ndarray:
    """Indices of the local maxima of x that reach height, thinned so that
    no two lie closer than distance samples.

    A plateau counts once, at its middle sample (rounded down); the ends of
    x are never peaks.  Thinning is greedy from the highest peak down; equal
    heights go in the reverse of numpy's default argsort order, as in
    scipy.signal.find_peaks(x, height=height, distance=distance), whose
    result this is.
    """
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:], x.size] - 1
    level = x[starts]
    raised = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    peaks = ((starts[1:-1] + ends[1:-1]) // 2)[raised]
    peaks = peaks[x[peaks] >= height]
    keep = np.ones(peaks.size, dtype=bool)
    for j in np.argsort(x[peaks])[::-1]:
        if keep[j]:
            keep[np.abs(peaks - peaks[j]) < distance] = False
            keep[j] = True
    return peaks[keep]
