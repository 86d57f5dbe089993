"""Command-line interface: argument parsing, table and file output,
machine-readable errors, and byte-identical reruns."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wedge_cot
from wedge_cot.cli import (
    build_parser,
    format_pi_fraction,
    main,
    parse_angle,
    parse_delta,
    parse_polarization,
)
from wedge_cot.constants import VERSION
from wedge_cot.errors import ValidationError
from wedge_cot.spectrum import Polarization


# ----------------------------------------------------------------- parsing

def test_parse_angle_pi_fractions():
    value, frac = parse_angle("pi/15")
    assert frac == Fraction(1, 15)
    assert value == float(Fraction(1, 15)) * math.pi
    value, frac = parse_angle("2pi/5")
    assert frac == Fraction(2, 5)
    assert value == float(Fraction(2, 5)) * math.pi
    value, frac = parse_angle("pi")
    assert frac == Fraction(1)
    assert value == math.pi


def test_parse_angle_decimal():
    value, frac = parse_angle("0.25")
    assert value == 0.25
    assert frac is None


def test_parse_angle_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_angle("quarter-turn")
    with pytest.raises(ValidationError):
        parse_angle("pi/0")


@pytest.mark.parametrize("frac, text", [
    (Fraction(0), "0"),
    (Fraction(1), "pi"),
    (Fraction(1, 5), "pi/5"),
    (Fraction(2, 5), "2pi/5"),
    (Fraction(6, 5), "6pi/5"),
    (Fraction(28, 15), "28pi/15"),
])
def test_format_pi_fraction(frac, text):
    assert format_pi_fraction(frac) == text
    # the table syntax parses back to the same exact fraction
    _, parsed = parse_angle(text) if text != "0" else (0.0, Fraction(0))
    assert parsed == frac


def test_parse_polarization():
    assert parse_polarization("x") == Polarization.x()
    assert parse_polarization("z") == Polarization.z()
    pol = parse_polarization("pi/2,pi/4")
    assert pol.theta_L == pytest.approx(math.pi / 2, abs=0)
    assert pol.phi_L == pytest.approx(math.pi / 4, abs=0)
    with pytest.raises(ValidationError):
        parse_polarization("circular")


def test_parse_delta():
    assert parse_delta("hard").delta == math.pi
    assert parse_delta("soft").delta == math.pi / 2
    assert parse_delta("2.5").delta == 2.5


# ------------------------------------------------------------------ flags

_WEDGE = {"n": None, "alpha": None, "rho": 200.0, "beta": "pi/15"}
_CONSTS = {"c_au": None, "e_b_ev": None, "b_norm": None}
_DATASET = {"delta": "hard", "orbit_source": "analytic", **_CONSTS,
            "output": None, "format": "csv"}
_ENERGY_GRID = {"pol": "x", "e_min": 0.76, "e_max": 1.4, "steps": 2048}

#: What each subcommand parses from its name alone: every flag's dest,
#: default and the default's type.
DEFAULTS = {
    "orbits": {**_WEDGE, "orbit_source": "analytic"},
    "spectrum": {**_WEDGE, **_DATASET, **_ENERGY_GRID},
    "decompose": {**_WEDGE, **_DATASET, **_ENERGY_GRID},
    "sweep-rho": {**_WEDGE, **_DATASET, "pol": "x", "rho_min": 50.0,
                  "rho_max": 800.0, "steps": 2048, "e_photon": 1.0},
    "sweep-beta": {**_WEDGE, **_DATASET, "pol": "x", "beta_min": None,
                   "beta_max": None, "steps": 2048, "e_photon": 1.0},
    "polmap": {**_WEDGE, **_DATASET, "theta_steps": 33, "phi_steps": 32,
               "e_photon": 1.0},
    "verify": _CONSTS,
}


@pytest.mark.parametrize("command", DEFAULTS)
def test_each_subcommand_parses_its_flags_and_defaults(command):
    parsed = vars(build_parser().parse_args([command]))
    assert callable(parsed.pop("func"))
    assert parsed == {"command": command, **DEFAULTS[command]}
    assert {k: type(v) for k, v in parsed.items()} == {
        "command": str, **{k: type(v) for k, v in DEFAULTS[command].items()}}


def test_short_output_flag():
    assert build_parser().parse_args(["spectrum", "-o", "x"]).output == "x"


@pytest.mark.parametrize("command", DEFAULTS)
def test_help_describes_every_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for dest in DEFAULTS[command]:
        flag = "--" + dest.replace("_", "-")
        # The flag's entry: its line, plus the indented lines argparse wraps
        # the help onto.  Whatever follows the invocation after two or more
        # spaces is the help.
        entry = re.search(rf"^  {flag}(?=[ ,]|$).*(?:\n   +\S.*)*", text, re.M)
        assert entry, f"{command} --help lists no {flag}"
        _, *help_text = re.split(r"\s{2,}", entry.group().strip(), maxsplit=1)
        assert help_text, f"{command} --help gives {flag} no help"


# ------------------------------------------------------------ orbits table

def test_orbits_table_symbolic_angles(capsys):
    assert main(["orbits", "--n", "5", "--beta", "pi/15"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["label", "phi_out", "phi_ret", "m",
                                "length", "length_a0"]
    body = [line.split() for line in lines[1:]]
    assert len(body) == 9
    assert [row[0] for row in body] == [str(j) for j in range(1, 10)]
    assert body[0][1:5] == ["pi/5", "6pi/5", "1", "2*rho*|sin(2pi/15)|"]
    assert body[8][1:5] == ["pi", "0", "1", "2*rho*|sin(14pi/15)|"]
    # time-reversed partners share the numeric length column exactly
    assert body[1][5] == body[7][5]
    assert body[3][5] == body[5][5]


def test_orbits_decimal_beta_gets_numeric_angles(capsys):
    assert main(["orbits", "--n", "2", "--beta", "0.3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 3


# ------------------------------------------------------------- exit codes

def test_conflicting_wedge_flags_exit_2(capsys):
    assert main(["orbits", "--n", "5", "--alpha", "pi/5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[")
    assert err.count("\n") == 1


def test_beta_out_of_range_exit_2(capsys):
    assert main(["orbits", "--n", "5", "--beta", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[beta-out-of-range]")


def test_beta_one_ulp_below_pi_over_21_exit_2(capsys):
    # (1/21) pi rounds to this beta: the j = 1 orbit would have no length.
    assert main(["orbits", "--n", "21", "--beta", "0.1495996501709425"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[beta-out-of-range]")


@pytest.mark.parametrize("argv", [
    ["orbits", "--alpha", "1.0"],     # not pi/N: no analytic catalog
    ["orbits", "--beta", "0.9"],      # float catalog, beta out of range
    ["orbits", "--beta", "pi/3"],     # exact catalog, beta out of range
])
def test_failing_orbits_table_prints_nothing(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[")


@pytest.mark.parametrize("argv, message", [
    (["sweep-rho", "--rho-min", "1e300", "--rho-max", "1e301"],
     "error[invalid-input] k*L = "),
    (["sweep-rho", "--rho-min", "1e300", "--rho-max", "1e308"],
     "error[invalid-input] k*L = "),
    (["spectrum", "--rho", "1e300", "--steps", "4"],
     "error[invalid-input] k*L = "),
    (["sweep-rho", "--rho-min", "1e308", "--rho-max", "1.5e308"],
     "error[zero-length-orbit] orbit length must be positive, got inf"),
    (["spectrum", "--rho", "1e308", "--steps", "4"],
     "error[zero-length-orbit] orbit length must be positive, got inf"),
])
def test_extreme_lengths_exit_2_and_say_why(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("command", ["spectrum", "decompose", "sweep-rho",
                                     "sweep-beta", "polmap"])
def test_overflowing_phase_loss_exit_2(command, capsys):
    # m Delta = 2e308 is inf, and sin(k L - inf) used to end in a
    # ValueError traceback.
    assert main([command, "--delta", "1e308"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error[invalid-input] m*Delta = inf (m = 2, Delta = 1e+308) "
                   "overflows: the phase sin(k L - m Delta) is undefined\n")


@pytest.mark.parametrize("command", ["spectrum", "decompose", "sweep-rho",
                                     "sweep-beta", "polmap"])
def test_phase_loss_that_swamps_k_l_exit_2(command, capsys):
    # m Delta swamps k L: at 1e17 its ulp is 16 rad, and the interference
    # used to vanish from the output without a word.
    assert main([command, "--delta", "1e17"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error[invalid-input] m*Delta = 1e+17 (m = 1, Delta = 1e+17) "
                   "is too large: the phase sin(k L - m Delta) needs "
                   "|m Delta| < 2**32\n")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--e-min", "1", "--e-max", "1e300"],
    ["sweep-rho", "--e-photon", "1e200"],
    ["sweep-beta", "--e-photon", "1e300"],
    ["polmap", "--e-photon", "1e300"],
    ["sweep-rho", "--e-photon", "inf"],
    ["sweep-beta", "--e-photon", "inf"],
    ["polmap", "--e-photon", "inf"],
])
def test_huge_photon_energy_exit_2(argv, capsys):
    # The background cross section's E**1.5 or (E_b + E)**3 overflows, or
    # is inf / inf.
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[invalid-input] detached-electron energy ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["spectrum", "decompose"])
@pytest.mark.parametrize("argv, message", [
    # The background first overflows at the second point, not at the last.
    (["--e-min", "1", "--e-max", "1e300", "--steps", "64"],
     "detached-electron energy 5.833225742167459e+296 hartree is too large: "
     "its powers in the background cross section overflow"),
    # A long orbit fails at an earlier point than the j = 1 orbit does.
    (["--beta", "0.6", "--rho", "1e258", "--e-min", "1", "--e-max", "1e90",
      "--steps", "64"],
     "k*L = 4.0153006641158513e+301 (k = 3.4156187557066314e+43, "
     "L = 1.1755705045849463e+258) is too large to reduce the phase "
     "sin(k L - m Delta) modulo 2 pi"),
    # An orbit fails at the second point, the background only further on.
    (["--rho", "1e299", "--e-min", "1", "--e-max", "1e105", "--steps", "64"],
     "k*L = inf (k = 1.0801134886823197e+51, L = 8.134732861516005e+298) "
     "is too large to reduce the phase sin(k L - m Delta) modulo 2 pi"),
])
def test_energy_grid_names_its_first_failing_point(command, argv, message,
                                                   capsys):
    # The first point in grid order that fails, and its lowest j: what
    # sigma_total raises there.
    assert main([command, *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error[invalid-input] {message}\n"


@pytest.mark.parametrize("command", [
    ["orbits"],
    ["spectrum", "--steps", "64"],
    ["sweep-rho", "--steps", "64"],
    ["sweep-beta", "--steps", "64"],
    ["polmap", "--theta-steps", "5", "--phi-steps", "8"],
])
def test_numeric_source_runs_without_the_shooting_search_at_pi_over_n(
        command, no_shooting, capsys):
    # On a pi/N wedge the numeric catalog is the analytic one: neither the
    # shooting search nor the ray tracer runs.
    assert main([*command, "--n", "5", "--orbit-source", "numeric"]) == 0
    out, err = capsys.readouterr()
    assert out and err == ""


_OFF_PI_N_COMMANDS = [
    ["orbits"],
    ["spectrum", "--steps", "64"],
    ["decompose", "--steps", "64"],
    ["sweep-rho", "--steps", "64"],
    ["sweep-beta", "--steps", "64"],
    ["polmap", "--theta-steps", "5", "--phi-steps", "8"],
]


@pytest.mark.parametrize("alpha", ["1.0", "2.9"])
@pytest.mark.parametrize("command", _OFF_PI_N_COMMANDS,
                         ids=[argv[0] for argv in _OFF_PI_N_COMMANDS])
def test_numeric_source_runs_without_the_shooting_search_off_pi_over_n(
        command, alpha, no_shooting, capsys):
    # Off pi/N the numeric catalog is the images in radians: neither the
    # shooting search nor the ray tracer runs either.
    assert main([*command, "--alpha", alpha, "--orbit-source", "numeric"]) == 0
    out, err = capsys.readouterr()
    assert out and err == ""


def test_beta_sweep_takes_m_delta_only_for_orbits_it_meets(capsys):
    # Just below pi/4 the two m = 5 images are in no catalog of the guard
    # band, and 5 Delta >= 2**32 > 4 Delta: taking their m Delta would
    # refuse a sweep whose every point runs.
    argv = ["sweep-beta", "--alpha", "0.78532", "--orbit-source", "numeric",
            "--steps", "16", "--delta", "954437176.8888888"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) > 16 and err == ""


def _outcome(argv, capsys):
    """(exit status, stdout, stderr) of one in-process run."""
    capsys.readouterr()
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    return (status, *capsys.readouterr())


#: (command, flag, the command's other arguments) for every flag that takes
#: a number.
_NUMERIC_FLAGS = [
    ("spectrum", flag, ["--steps", "4"]) for flag in (
        "--n", "--alpha", "--rho", "--beta", "--delta", "--pol", "--c-au",
        "--e-b-ev", "--b-norm", "--e-min", "--e-max", "--steps")
] + [
    ("sweep-rho", flag, ["--steps", "4"])
    for flag in ("--rho-min", "--rho-max", "--e-photon")
] + [
    ("sweep-beta", flag, ["--steps", "4"]) for flag in ("--beta-min", "--beta-max")
] + [
    ("polmap", flag, ["--theta-steps", "3", "--phi-steps", "4"])
    for flag in ("--theta-steps", "--phi-steps")
]


@pytest.mark.parametrize("value", ["-1e-3", "-5e9", "-inf"])
@pytest.mark.parametrize("command, flag, rest", _NUMERIC_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in _NUMERIC_FLAGS])
def test_negative_numbers_in_exponent_form_read_as_values(command, flag, rest,
                                                          value, capsys):
    # argparse before 3.13 read -1e-3 as a flag: exit 2 with a usage block,
    # while --flag=-1e-3 ran.  The two spellings must end the same way.
    if flag == "--pol":
        value += ",0.5"
    spaced = _outcome([command, *rest, flag, value], capsys)
    joined = _outcome([command, *rest, f"{flag}={value}"], capsys)
    assert spaced == joined


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--delta", "-1e-3", "--steps", "4"], None),
    (["spectrum", "--rho", "-1e-3", "--steps", "4"],
     "error[invalid-input] rho must be positive and finite, got -0.001\n"),
    (["spectrum", "--delta", "-1e999", "--steps", "4"],
     "error[invalid-input] delta must be finite\n"),
    (["sweep-rho", "--rho-min", "-5e9", "--steps", "4"],
     "error[invalid-input] rho grid must be positive, got -5000000000.0\n"),
], ids=["delta-runs", "rho", "delta-inf", "rho-min"])
def test_negative_values_run_or_give_one_error_line(argv, message, capsys):
    status, out, err = _outcome(argv, capsys)
    if message is None:
        assert (status, err) == (0, "") and out
    else:
        assert (status, out, err) == (2, "", message)


def test_below_threshold_exit_2(capsys):
    assert main(["spectrum", "--e-min", "0.1", "--e-max", "1.4",
                 "--steps", "16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[below-threshold]")


def test_unknown_flag_exit_2(capsys):
    # --max-reflections is gone: a budget below 2N - 1 dropped closed
    # orbits without notice.
    for argv in (["orbits", "--frequency", "12"],
                 ["orbits", "--orbit-source", "numeric", "--max-reflections", "2"]):
        status, out, err = _outcome(argv, capsys)
        assert (status, out) == (2, "")
        assert err.startswith("error[invalid-input] ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--steps", "2.5"], "argument --steps: invalid int value: '2.5'"),
    (["spectrum", "--steps", "nan"], "argument --steps: invalid int value: 'nan'"),
    (["spectrum", "--format", "xml"], "argument --format: invalid choice"),
    (["spectrum", "--orbit-source", "x"], "argument --orbit-source: invalid choice"),
    (["spectrum", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    ([], "the following arguments are required: command"),
], ids=["steps-float", "steps-nan", "format", "orbit-source", "bogus", "none"])
def test_argparse_errors_give_one_error_line(argv, message, capsys):
    """argparse's own errors end as every other invalid input does: exit 2,
    nothing on stdout, and one error[invalid-input] line naming the program
    and argparse's message, not a usage block."""
    status, out, err = _outcome(argv, capsys)
    assert (status, out) == (2, "")
    assert err.startswith("error[invalid-input] wedge-cot") and message in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_unwritable_output_exit_3(capsys):
    assert main(["spectrum", "--steps", "2",
                 "-o", "/nonexistent/dir/out.csv"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[unwritable-output]")


@pytest.mark.parametrize("flag, value", [
    ("--c-au", "-1"), ("--c-au", "inf"), ("--e-b-ev", "nan"),
])
def test_nonpositive_or_nonfinite_constant_exit_2(flag, value, capsys):
    # inf used to pass the positivity test and print every sigma as 0.
    assert main(["spectrum", "--steps", "4", flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[invalid-input] ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["spectrum", "sweep-beta", "polmap"])
def test_wedge_narrower_than_the_guard_band_exit_2(command, capsys):
    # pi/100000 < 2 BETA_MIN: the band [BETA_MIN, alpha - BETA_MIN] is
    # empty, and the message used to print it as an inverted interval.
    assert main([command, "--n", "100000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[beta-out-of-range] opening angle ")
    assert "narrower than the guard band 2 * 0.001: no beta is allowed" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("wedge", [
    # pi/N within 1e-12: the 2N - 1 orbits overflowed range()
    ["--alpha", "1e-300", "--orbit-source", "numeric", "--beta", "1e-301"],
    # 1.1e-7 (relative) from pi/3141593: not pi/N, the shooting search
    ["--alpha", "1e-6", "--orbit-source", "numeric", "--beta", "1e-7"],
    # not pi/N: the shooting search's launches
    ["--alpha", "1e-5", "--orbit-source", "numeric", "--beta", "1e-6"],
    # the exact table of a pi/N wedge
    ["--n", "2000", "--beta", "pi/4000"],
])
def test_orbits_on_a_wedge_narrower_than_the_guard_band_exit_2(wedge, capsys):
    assert main(["orbits", *wedge]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[beta-out-of-range] opening angle ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--b-norm", "1e300", "--steps", "4"],
     "sigma0_au is inf in row 0 (E_photon_eV = 0.76)"),
    (["spectrum", "--rho", "1e-310", "--delta", "soft", "--steps", "4"],
     "sigma_osc_au is nan in row 0 (E_photon_eV = 0.76)"),
    (["sweep-rho", "--rho-min", "1e-310", "--rho-max", "1", "--delta", "soft",
      "--steps", "3"],
     "sigma_osc_au is nan in row 0 (rho_a0 = 1e-310)"),
    (["sweep-beta", "--rho", "1e-310", "--delta", "soft", "--steps", "3"],
     "sigma_osc_au is nan in row 0 (beta_rad = 0.001)"),
])
def test_non_finite_dataset_entry_exit_2_and_say_where(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error[invalid-input] {message}\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--e-b-ev", "1e-320", "--e-min", "1e-319", "--e-max", "1",
     "--steps", "3"],
    ["sweep-rho", "--e-b-ev", "1e-320", "--e-photon", "1e-319", "--steps", "3"],
    ["spectrum", "--c-au", "1e-320", "--steps", "3"],
])
def test_background_denominator_underflow_exit_2(argv, capsys):
    # 3 c (E_b + E)**3 rounds to zero: no ZeroDivisionError traceback.
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[invalid-input] detached-electron energy ")
    assert "underflows to zero" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, lines_read", [
    (["orbits"], 0),
    (["orbits", "--n", "1000", "--beta", "0.001"], 1),
    (["spectrum"], 1),
])
def test_reader_that_closes_exit_3(argv, lines_read, unbuffered):
    # The reader of the short table closes before the child starts; the long
    # outputs outgrow a pipe's 64 KiB buffer, so the command is still writing
    # when the reader closes after one line.  Unbuffered, a write to the pipe
    # can be taken in part, and the rest must not be dropped in silence.
    src = str(Path(wedge_cot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "wedge_cot", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 3
    # One line and no "Exception ignored" from the flush at exit.
    assert err == ("error[unwritable-output] cannot write to stdout: "
                   "its reader has closed\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"wedge-cot {VERSION}"


# ------------------------------------------------------------ file formats

def test_csv_structure_and_precision(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["spectrum", "--steps", "4", "--e-min", "0.8",
                 "--e-max", "1.2", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"# wedge-cot v{VERSION}"
    comments = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# generator=") for ln in comments)
    header_at = len(comments)
    assert lines[header_at] == "E_photon_eV,sigma0_au,sigma_osc_au,sigma_au"
    rows = [ln.split(",") for ln in lines[header_at + 1:]]
    assert len(rows) == 4
    for row in rows:
        e, sigma0, osc, sigma = map(float, row)
        # 17 significant digits round-trip doubles exactly
        assert sigma == sigma0 + osc
    assert float(rows[0][0]) == 0.8
    assert float(rows[-1][0]) == 1.2


def test_json_structure(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["spectrum", "--steps", "3", "--e-min", "0.8",
                 "--e-max", "1.2", "--format", "json", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["tool"] == "wedge-cot"
    assert payload["meta"]["version"] == VERSION
    assert payload["columns"] == ["E_photon_eV", "sigma0_au",
                                  "sigma_osc_au", "sigma_au"]
    assert len(payload["rows"]) == 3
    for row in payload["rows"]:
        assert row[3] == row[1] + row[2]


def test_z_polarization_spectrum_is_flat(tmp_path):
    out = tmp_path / "z.json"
    assert main(["spectrum", "--pol", "z", "--steps", "32",
                 "--format", "json", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    osc = payload["columns"].index("sigma_osc_au")
    assert all(row[osc] == 0.0 for row in payload["rows"])


def test_decompose_csv_has_term_columns(tmp_path):
    out = tmp_path / "terms.csv"
    assert main(["decompose", "--n", "3", "--steps", "8",
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = next(ln for ln in lines if not ln.startswith("#"))
    names = header.split(",")
    assert names[:2] == ["E_photon_eV", "sigma_osc_total_au"]
    assert names[2:] == [f"term_{j}_au" for j in range(1, 6)]


def test_sweep_and_polmap_commands_run(tmp_path):
    assert main(["sweep-rho", "--rho-min", "50", "--rho-max", "200",
                 "--steps", "8", "-o", str(tmp_path / "r.csv")]) == 0
    assert main(["sweep-beta", "--steps", "8",
                 "-o", str(tmp_path / "b.csv")]) == 0
    assert main(["polmap", "--theta-steps", "3", "--phi-steps", "4",
                 "--format", "json", "-o", str(tmp_path / "p.json")]) == 0
    payload = json.loads((tmp_path / "p.json").read_text())
    assert len(payload["rows"]) == 12


@pytest.mark.parametrize("command", [c for c in DEFAULTS
                                     if c not in ("orbits", "verify")])
def test_each_dataset_command_checks_its_rows_once(command, monkeypatch,
                                                   tmp_path):
    """The generator's Dataset checks its rows; adding the CLI's provenance
    pairs must not check the same rows again."""
    from wedge_cot import sweeps

    checked = []
    new = sweeps.Dataset.__new__

    def counted(cls, *args, **kwargs):
        checked.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(sweeps.Dataset, "__new__", counted)
    out = tmp_path / "out.csv"
    assert main([command, "-o", str(out)]) == 0
    assert checked == [sweeps.Dataset]
    assert out.read_text().splitlines()[1] == f"# command={command}"


def test_commands_on_defaults_leave_numpy_unimported():
    code = (
        "import contextlib, io, sys\n"
        "from wedge_cot.cli import main\n"
        "for command in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([command]) == 0\n"
        "    print(command, 'numpy' in sys.modules)\n"
    )
    commands = ["orbits", "spectrum", "decompose", "sweep-rho", "sweep-beta",
                "polmap"]
    src = str(Path(wedge_cot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, *commands], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [f"{c} False" for c in commands]


def test_dataset_command_loads_no_dataclasses_logging_or_json():
    # -S keeps site-packages' own start-up imports out of the count.
    code = (
        "import contextlib, io, sys\n"
        "from wedge_cot.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['spectrum', '--steps', '8']) == 0\n"
        "print(sorted({'dataclasses', 'logging', 'json'} & set(sys.modules)))\n"
    )
    src = str(Path(wedge_cot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_verify_passes_cold_without_importing_scipy():
    pytest.importorskip("numpy")
    src = str(Path(wedge_cot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "wedge_cot", "verify"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "19/19 checks passed"

    code = (
        "import sys, wedge_cot.oracle\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------ determinism

def test_same_argv_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "run.csv"
    argv = ["spectrum", "--n", "4", "--beta", "pi/10", "--steps", "64",
            "-o", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first

    out_json = tmp_path / "run.json"
    argv_json = ["polmap", "--theta-steps", "5", "--phi-steps", "4",
                 "--format", "json", "-o", str(out_json)]
    assert main(argv_json) == 0
    first = out_json.read_bytes()
    assert main(argv_json) == 0
    assert out_json.read_bytes() == first
