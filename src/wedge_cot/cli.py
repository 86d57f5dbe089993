"""Command-line front end.

Each subcommand is one row of ``_COMMANDS`` and each flag one entry of
``_OPTIONS``; ``wedge-cot --help`` and ``wedge-cot <cmd> --help`` list them.

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
from .errors import NumericError, OutputError, ValidationError, WedgeCotError
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
    if name in ("x", "y", "z"):
        return getattr(Polarization, name)()
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
    if name in ("hard", "soft"):
        return getattr(ReflectionModel, name)()
    value, _ = parse_angle(name)
    return ReflectionModel(value)


#: The constant each override flag sets, by the flag's dest.
_OVERRIDES = {"c_au": "c_light", "e_b_ev": "binding_energy_ev", "b_norm": "b_norm"}


def _resolve_constants(args) -> PhysicalConstants:
    overrides = {field: getattr(args, dest) for dest, field in _OVERRIDES.items()
                 if getattr(args, dest) is not None}
    return DEFAULT_CONSTANTS._replace(**overrides) if overrides else DEFAULT_CONSTANTS


def _resolve_wedge(args) -> WedgeGeometry:
    if args.alpha is None:
        return WedgeGeometry.from_n(5 if args.n is None else args.n)
    if args.n is not None:
        raise ValidationError("give exactly one of --n and --alpha")
    return WedgeGeometry.from_alpha(parse_angle(args.alpha)[0])


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
    # One printf template per row: the same digits as f"{value:.17g}".
    template = ",".join(["%.17g"] * len(dataset.columns))
    lines += [template % row for row in dataset.rows]
    return "\n".join(lines) + "\n"


def _json_text(dataset) -> str:
    import json

    payload = {
        "meta": {"tool": "wedge-cot", "version": VERSION, **dict(dataset.meta)},
        "columns": list(dataset.columns),
        "rows": [list(row) for row in dataset.rows],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _with_cli_meta(dataset, args):
    """The dataset with the CLI's provenance pairs in front of its own.  The
    rows are the same, already checked tuple, so the copy skips the checks
    in ``Dataset.__new__`` (and ``_replace``, which runs them)."""
    extra = [("command", args.command)]
    for name in ("beta", "pol", "delta", "output", "format"):
        if getattr(args, name, None) is not None:
            extra.append((f"cli_{name}", str(getattr(args, name))))
    return tuple.__new__(
        type(dataset), (dataset.columns, dataset.rows, tuple(extra) + dataset.meta)
    )


def _cmd_orbits(args) -> int:
    from .orbits import exact_catalog
    from .spectrum import orbit_catalog

    wedge = _resolve_wedge(args)
    ion, beta_frac = _resolve_ion(args)
    # Every row is built before anything is printed, so a failing catalog
    # leaves stdout empty.
    if args.orbit_source == "analytic" and beta_frac is not None and wedge.n_integer:
        # beta given as a fraction of pi: the table keeps its angles exact.
        # orbit_catalog applies the guard band on the other branch.
        guard_band(wedge, BETA_MIN)
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


def _dataset(generator: str, grid):
    """A dataset subcommand's runner: the named ``sweeps`` generator, looked up
    when it runs (so ``orbits`` and ``verify`` never import ``sweeps``), with
    the grid arguments ``grid(args, wedge)`` before the wedge and the ion."""

    def run(args) -> int:
        from . import sweeps

        wedge = _resolve_wedge(args)
        grid_args = grid(args, wedge)
        ion = _resolve_ion(args)[0]
        # polmap sweeps the polarization itself and has no --pol.
        pol = (parse_polarization(args.pol),) if "pol" in vars(args) else ()
        dataset = getattr(sweeps, generator)(
            *grid_args, wedge, ion, *pol, parse_delta(args.delta),
            orbit_source=args.orbit_source, consts=_resolve_constants(args),
        )
        serialize(_with_cli_meta(dataset, args), args.format, args.output)
        return 0

    return run


def _energy_grid(args, wedge):
    return args.e_min, args.e_max, args.steps


def _beta_grid(args, wedge):
    lo, hi = guard_band(wedge, BETA_MIN)
    start = parse_angle(args.beta_min)[0] if args.beta_min else lo
    stop = parse_angle(args.beta_max)[0] if args.beta_max else hi
    return "beta", start, stop, args.steps, args.e_photon


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


def _flag(help: str, **settings) -> dict:
    """argparse settings whose help ends with the default, when there is one."""
    if settings.get("default") is not None:
        help += " (default %(default)s)"
    return dict(settings, help=help)


#: Every flag once, with its help and argparse settings; a key "--long/-s"
#: also gives the short form.
_OPTIONS = {
    "--n": _flag("wedge opening angle pi/N (N = 5 unless --alpha is given)", type=int),
    "--alpha": _flag("wedge opening angle in radians or pi form"),
    "--rho": _flag("ion distance from the apex, bohr", type=float, default=200.0),
    "--beta": _flag("ion declination from the left surface", default="pi/15"),
    "--pol": _flag("polarization: x, y, z, or 'theta,phi'", default="x"),
    "--delta": _flag("reflection phase loss: hard, soft, or radians", default="hard"),
    "--orbit-source": _flag("closed-orbit catalog; only numeric takes a wedge not pi/N",
                            choices=("analytic", "numeric"), default="analytic"),
    "--c-au": _flag("speed of light override, atomic units", type=float),
    "--e-b-ev": _flag("binding energy override, eV", type=float),
    "--b-norm": _flag("bound-state normalization override", type=float),
    "--output/-o": _flag("output path (default stdout)"),
    "--format": _flag("output format", choices=("csv", "json"), default="csv"),
    "--e-min": _flag("grid start, eV", type=float, default=0.76),
    "--e-max": _flag("grid stop, eV", type=float, default=1.4),
    "--rho-min": _flag("grid start, bohr", type=float, default=50.0),
    "--rho-max": _flag("grid stop, bohr", type=float, default=800.0),
    "--beta-min": _flag("grid start (default the guard band edge)"),
    "--beta-max": _flag("grid stop (default the guard band edge)"),
    "--steps": _flag("number of grid points", type=int, default=2048),
    "--e-photon": _flag("fixed photon energy, eV", type=float, default=1.0),
    "--theta-steps": _flag("polar angles of the polarization", type=int, default=33),
    "--phi-steps": _flag("azimuths of the polarization", type=int, default=32),
}

_WEDGE = "--n --alpha --rho --beta"
_CONSTS = "--c-au --e-b-ev --b-norm"
_DATASET = f"{_WEDGE} --delta --orbit-source {_CONSTS} --output/-o --format"

#: One row per subcommand: its help, its flags and its runner.
_COMMANDS = {
    "orbits": ("print the closed-orbit catalog", f"{_WEDGE} --orbit-source",
               _cmd_orbits),
    "spectrum": ("cross section over a photon-energy grid",
                 f"{_DATASET} --pol --e-min --e-max --steps",
                 _dataset("energy_sweep", _energy_grid)),
    "decompose": ("per-orbit terms over a photon-energy grid",
                  f"{_DATASET} --pol --e-min --e-max --steps",
                  _dataset("orbit_decomposition", _energy_grid)),
    "sweep-rho": ("cross section vs ion distance",
                  f"{_DATASET} --pol --rho-min --rho-max --steps --e-photon",
                  _dataset("position_sweep", lambda a, w: (
                      "rho", a.rho_min, a.rho_max, a.steps, a.e_photon))),
    "sweep-beta": ("cross section vs ion declination",
                   f"{_DATASET} --pol --beta-min --beta-max --steps --e-photon",
                   _dataset("position_sweep", _beta_grid)),
    "polmap": ("sigma_osc over polarization directions",
               f"{_DATASET} --theta-steps --phi-steps --e-photon",
               _dataset("polarization_map", lambda a, w: (
                   a.theta_steps, a.phi_steps, a.e_photon))),
    "verify": ("run the quadrature oracle checks", _CONSTS, _cmd_verify),
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser whose errors end as one error[invalid-input] line;
    --help and --version still exit 0."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wedge-cot",
        description="Closed-orbit photodetachment cross sections for an ion "
                    "inside a wedge cavity.",
    )
    parser.add_argument("--version", action="version", version=f"wedge-cot {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, run) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags.split():
            p.add_argument(*flag.split("/"), **_OPTIONS[flag])
        p.set_defaults(func=run)
    return parser


#: Every flag string; each takes one value.
_FLAGS = frozenset(flag for key in _OPTIONS for flag in key.split("/"))
_NEGATIVE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each value that starts as a negative number (-1e-3, -inf,
    -0.5,1) joined to the flag before it, as --flag=value: argparse before
    3.13 takes --flag=-1e-3 but reads -1e-3 alone as a flag."""
    joined = []
    for arg in argv:
        if joined and joined[-1] in _FLAGS and _NEGATIVE.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_join_negative_values(argv))
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
    except WedgeCotError as exc:
        print(f"error[{exc.code}] {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
