"""Command-line front end.

Subcommands: ``orbits`` (closed-orbit catalog as a table), ``spectrum``
(cross section vs photon energy), ``decompose`` (per-orbit terms),
``sweep-rho`` / ``sweep-beta`` (ion-position dependence), ``polmap``
(polarization-direction map), and ``verify`` (quadrature oracle checks).

Angles are accepted either as decimal radians or as rational multiples of
pi ("pi/15", "2pi/5", "3pi"); the fraction form is kept exact so catalog
tables can print angles symbolically.  Exit codes: 0 success, 2 invalid
input, 3 numeric failure.  Dataset-producing subcommands write CSV or JSON
with a provenance header and are byte-deterministic for identical argv.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction

from .constants import DEFAULT_CONSTANTS, VERSION, PhysicalConstants
from .errors import (
    NumericError,
    OutputError,
    ValidationError,
    WedgeCotError,
)
from .geometry import BETA_MIN, IonPosition, WedgeGeometry, guard_band

_PI_FRACTION = re.compile(r"(\d+)?pi(?:/(\d+))?")


def parse_angle(text: str) -> tuple[float, Fraction | None]:
    """Parse an angle: decimal radians or a rational multiple of pi.

    Returns (value in radians, multiple of pi as an exact Fraction when the
    pi form was used, else None).
    """
    s = text.strip().lower().replace(" ", "").replace("*", "")
    m = _PI_FRACTION.fullmatch(s)
    if m:
        num = int(m.group(1)) if m.group(1) else 1
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ValidationError(f"zero denominator in angle {text!r}")
        frac = Fraction(num, den)
        return float(frac) * math.pi, frac
    try:
        return float(s), None
    except ValueError:
        raise ValidationError(
            f"cannot parse angle {text!r}; use radians or a pi fraction "
            "like pi/15 or 2pi/5"
        ) from None


def format_pi_fraction(frac: Fraction) -> str:
    """Render a non-negative multiple of pi the way angle tables write it:
    0, pi, 2pi/5, 6pi/5, ..."""
    frac = Fraction(frac)
    if frac < 0:
        raise ValidationError(f"expected a non-negative multiple of pi, got {frac}")
    if frac == 0:
        return "0"
    num, den = frac.numerator, frac.denominator
    head = "pi" if num == 1 else f"{num}pi"
    return head if den == 1 else f"{head}/{den}"


def parse_polarization(text: str):
    """'x', 'y', 'z', or 'theta,phi' with each part angle-syntax."""
    from .spectrum import Polarization

    name = text.strip().lower()
    if name == "x":
        return Polarization.x()
    if name == "y":
        return Polarization.y()
    if name == "z":
        return Polarization.z()
    parts = name.split(",")
    if len(parts) != 2:
        raise ValidationError(
            f"polarization must be x, y, z, or 'theta,phi', got {text!r}"
        )
    theta, _ = parse_angle(parts[0])
    phi, _ = parse_angle(parts[1])
    return Polarization(theta, phi)


def parse_delta(text: str):
    """'hard' (pi), 'soft' (pi/2), or an explicit angle."""
    from .spectrum import ReflectionModel

    name = text.strip().lower()
    if name == "hard":
        return ReflectionModel.hard()
    if name == "soft":
        return ReflectionModel.soft()
    value, _ = parse_angle(name)
    return ReflectionModel(value)


def _resolve_constants(args) -> PhysicalConstants:
    overrides = {}
    if args.c_au is not None:
        overrides["c_light"] = args.c_au
    if args.e_b_ev is not None:
        overrides["binding_energy_ev"] = args.e_b_ev
    if args.b_norm is not None:
        overrides["b_norm"] = args.b_norm
    if not overrides:
        return DEFAULT_CONSTANTS
    return DEFAULT_CONSTANTS._replace(**overrides)


def _resolve_wedge(args) -> WedgeGeometry:
    if args.n is not None and args.alpha is not None:
        raise ValidationError("give exactly one of --n and --alpha")
    if args.n is not None:
        return WedgeGeometry.from_n(args.n)
    if args.alpha is not None:
        value, _ = parse_angle(args.alpha)
        return WedgeGeometry.from_alpha(value)
    return WedgeGeometry.from_n(5)


def _resolve_ion(args) -> tuple[IonPosition, Fraction | None]:
    beta, beta_frac = parse_angle(args.beta)
    return IonPosition(args.rho, beta), beta_frac


def serialize(dataset, fmt: str, destination: str | None = None):
    """Write a dataset as CSV or JSON to a path, or stdout when destination
    is None or '-'.  Identical datasets serialize to identical bytes."""
    if fmt == "csv":
        text = _csv_text(dataset)
    elif fmt == "json":
        text = _json_text(dataset)
    else:
        raise ValidationError(f"format must be csv or json, got {fmt!r}")
    if destination is None or destination == "-":
        _write_stdout(text)
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {destination!r}: {exc}") from exc


def _write_stdout(text: str) -> None:
    # An unbuffered binary layer (PYTHONUNBUFFERED) may take only part of a
    # write to a pipe, and the text layer would drop the rest: write the
    # bytes until all are taken, so that a reader that closes raises here.
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:  # an in-memory stream
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[binary.write(data):]


def _csv_text(dataset) -> str:
    lines = [f"# wedge-cot v{VERSION}"]
    for key, value in dataset.meta:
        lines.append(f"# {key}={value}")
    lines.append(",".join(dataset.columns))
    for row in dataset.rows:
        lines.append(",".join(f"{value:.17g}" for value in row))
    return "\n".join(lines) + "\n"


def _json_text(dataset) -> str:
    import json

    payload = {
        "meta": {"tool": "wedge-cot", "version": VERSION, **dict(dataset.meta)},
        "columns": list(dataset.columns),
        "rows": [list(row) for row in dataset.rows],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _with_cli_meta(dataset, args, command: str):
    extra = [("command", command)]
    for name in ("beta", "pol", "delta", "output", "format"):
        if hasattr(args, name) and getattr(args, name) is not None:
            extra.append((f"cli_{name}", str(getattr(args, name))))
    return dataset._replace(meta=tuple(extra) + dataset.meta)


def _cmd_orbits(args) -> int:
    from .orbits import exact_catalog
    from .spectrum import orbit_catalog

    wedge = _resolve_wedge(args)
    ion, beta_frac = _resolve_ion(args)
    # Every row is built before anything is printed, so a failing catalog
    # leaves stdout empty.
    if args.orbit_source == "analytic" and beta_frac is not None and wedge.n_integer:
        # beta given as a fraction of pi: the table keeps its angles exact.
        lines = [
            f"{row.index} {format_pi_fraction(row.phi_out_over_pi)} "
            f"{format_pi_fraction(row.phi_ret_over_pi)} {row.m} "
            f"2*rho*|sin({format_pi_fraction(row.chord_over_pi)})| "
            f"{row.to_closed_orbit(ion.rho).length:.17g}"
            for row in exact_catalog(wedge.n_integer, beta_frac)
        ]
    else:
        lines = [
            f"{orbit.index} {orbit.phi_out:.17g} {orbit.phi_ret:.17g} "
            f"{orbit.m} - {orbit.length:.17g}"
            for orbit in orbit_catalog(wedge, ion, args.orbit_source)
        ]
    print("\n".join(["label phi_out phi_ret m length length_a0", *lines]))
    return 0


def _beta_grid(args, wedge):
    lo, hi = guard_band(wedge, BETA_MIN)
    start = parse_angle(args.beta_min)[0] if args.beta_min else lo
    stop = parse_angle(args.beta_max)[0] if args.beta_max else hi
    return "beta", start, stop, args.steps, args.e_photon


#: Dataset subcommands: the name of the ``sweeps`` generator each one runs,
#: looked up on the module when it runs (so ``orbits`` and ``verify`` never
#: import ``sweeps``, which itself runs on the standard library alone), and
#: the grid arguments that come before the wedge and the ion.
_DATASETS = {
    "spectrum": ("energy_sweep", lambda a, w: (a.e_min, a.e_max, a.steps)),
    "decompose": ("orbit_decomposition", lambda a, w: (a.e_min, a.e_max, a.steps)),
    "sweep-rho": ("position_sweep",
                  lambda a, w: ("rho", a.rho_min, a.rho_max, a.steps, a.e_photon)),
    "sweep-beta": ("position_sweep", _beta_grid),
    "polmap": ("polarization_map",
               lambda a, w: (a.theta_steps, a.phi_steps, a.e_photon)),
}


def _cmd_dataset(args) -> int:
    from . import sweeps

    name, grid = _DATASETS[args.command]
    wedge = _resolve_wedge(args)
    grid_args = grid(args, wedge)
    ion = _resolve_ion(args)[0]
    # polmap sweeps the polarization itself and has no --pol.
    pol = (parse_polarization(args.pol),) if "pol" in vars(args) else ()
    dataset = getattr(sweeps, name)(
        *grid_args, wedge, ion, *pol, parse_delta(args.delta),
        orbit_source=args.orbit_source, consts=_resolve_constants(args),
    )
    serialize(_with_cli_meta(dataset, args, args.command), args.format, args.output)
    return 0


def _cmd_verify(args) -> int:
    import numpy as np

    from .oracle import (
        angular_integral_check,
        closed_form_overlap,
        overlap_with_estimate,
        radial_integral,
    )
    from .spectrum import Polarization

    consts = _resolve_constants(args)
    k_b = consts.k_b
    rng = np.random.default_rng(20250818)

    def random_direction():
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    checks = []

    for k in (0.05, 0.3, k_b, 1.0):
        exact = 2.0 * k / (k_b**2 + k**2) ** 2
        err = abs(radial_integral(k, consts) - exact) / abs(exact)
        checks.append((f"radial-integral k={k:.5f}", err, 1e-10))

    for i in range(5):
        pol = Polarization(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        direction = random_direction()
        exact = 4.0 * math.pi / 3.0 * float(np.dot(pol.unit_vector(), direction))
        got = angular_integral_check(pol, direction)
        scale = 4.0 * math.pi / 3.0
        err = abs(got - exact) / scale
        checks.append((f"angular-integral pair={i}", err, 1e-10))

    for i in range(5):
        k = float(rng.uniform(0.01, 1.0))
        pol = Polarization(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        direction = random_direction()
        value, _ = overlap_with_estimate(k, pol, direction, consts=consts)
        exact = closed_form_overlap(k, pol, direction, consts)
        scale = 8.0 * consts.b_norm * k * math.pi / (k_b**2 + k**2) ** 2
        err = abs(value - exact) / scale
        checks.append((f"overlap-integral triple={i}", err, 1e-6))

        composed = (
            3j * consts.b_norm
            * radial_integral(k, consts)
            * angular_integral_check(pol, direction)
        )
        err = abs(value - composed) / scale
        checks.append((f"overlap-composition triple={i}", err, 1e-6))

    failures = 0
    for name, err, tol in checks:
        ok = err <= tol
        failures += 0 if ok else 1
        print(f"{name:<34} err={err:.3e} tol={tol:.0e} {'PASS' if ok else 'FAIL'}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    if failures:
        raise NumericError(f"{failures} oracle checks failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    wedge = argparse.ArgumentParser(add_help=False)
    wedge.add_argument("--n", type=int, help="wedge opening angle pi/N")
    wedge.add_argument("--alpha", help="wedge opening angle in radians or pi form")
    wedge.add_argument("--rho", type=float, default=200.0,
                       help="ion distance from the apex in bohr (default 200)")
    wedge.add_argument("--beta", default="pi/15",
                       help="ion declination from the left surface (default pi/15)")

    consts = argparse.ArgumentParser(add_help=False)
    consts.add_argument("--c-au", type=float, help="speed of light override")
    consts.add_argument("--e-b-ev", type=float, help="binding energy override, eV")
    consts.add_argument("--b-norm", type=float,
                        help="bound-state normalization override")

    phys = argparse.ArgumentParser(add_help=False)
    phys.add_argument("--pol", default="x",
                      help="polarization: x, y, z, or 'theta,phi' (default x)")
    phys.add_argument("--delta", default="hard",
                      help="reflection phase loss: hard, soft, or radians")
    phys.add_argument("--orbit-source", choices=("analytic", "numeric"),
                      default="analytic")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--output", "-o", help="output path (default stdout)")
    out.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(
        prog="wedge-cot",
        description="Closed-orbit photodetachment cross sections for an ion "
                    "inside a wedge cavity.",
    )
    parser.add_argument("--version", action="version", version=f"wedge-cot {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbits", parents=[wedge],
                       help="print the closed-orbit catalog")
    p.add_argument("--orbit-source", choices=("analytic", "numeric"),
                   default="analytic")
    p.set_defaults(func=_cmd_orbits)

    for name in ("spectrum", "decompose"):
        p = sub.add_parser(name, parents=[wedge, phys, consts, out],
                           help=f"{name} over a photon-energy grid")
        p.add_argument("--e-min", type=float, default=0.76,
                       help="grid start, eV (default 0.76)")
        p.add_argument("--e-max", type=float, default=1.4,
                       help="grid stop, eV (default 1.4)")
        p.add_argument("--steps", type=int, default=2048)
        p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("sweep-rho", parents=[wedge, phys, consts, out],
                       help="cross section vs ion distance")
    p.add_argument("--rho-min", type=float, default=50.0)
    p.add_argument("--rho-max", type=float, default=800.0)
    p.add_argument("--steps", type=int, default=2048)
    p.add_argument("--e-photon", type=float, default=1.0,
                   help="fixed photon energy, eV (default 1.0)")
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("sweep-beta", parents=[wedge, phys, consts, out],
                       help="cross section vs ion declination")
    p.add_argument("--beta-min", help="grid start (default the guard band edge)")
    p.add_argument("--beta-max", help="grid stop (default the guard band edge)")
    p.add_argument("--steps", type=int, default=2048)
    p.add_argument("--e-photon", type=float, default=1.0)
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("polmap", parents=[wedge, consts, out],
                       help="sigma_osc over polarization directions")
    p.add_argument("--delta", default="hard")
    p.add_argument("--orbit-source", choices=("analytic", "numeric"),
                   default="analytic")
    p.add_argument("--theta-steps", type=int, default=33)
    p.add_argument("--phi-steps", type=int, default=32)
    p.add_argument("--e-photon", type=float, default=1.0)
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("verify", parents=[consts],
                       help="run the quadrature oracle checks")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            status = args.func(args)
            sys.stdout.flush()  # a reader that has closed fails here
        except BrokenPipeError:
            # Point stdout at os.devnull, or the flush at interpreter exit
            # fails on the closed pipe a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise OutputError("cannot write to stdout: its reader has closed") from None
        return status
    except ValidationError as exc:
        print(f"error[{exc.code}] {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error[{exc.code}] {exc}", file=sys.stderr)
        return 3
    except WedgeCotError as exc:
        print(f"error[{exc.code}] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
