"""Output checks the benchmark applies to everything the program returns.

Each check returns a list of problems, one short string each; an empty list
means the output passed.  A problem counts the operation as failed.  The
checks compare against references that do not share the code path under
test: the hard-wall closed forms for sigma, the analytic catalog for the
shooting search, and exact identities of the output contract.
"""

from __future__ import annotations

import hashlib
import math

TWO_PI = 2.0 * math.pi

#: Closed-form comparisons allow 1e-12 of the largest sum the row could
#: have (background plus every orbit amplitude).
CLOSED_FORM_RTOL = 1e-12

#: Shooting-search orbits must match the analytic catalog and their own
#: time-reversed partners to this many radians (and relative length).
ORBIT_TOL = 1e-9


def angle_gap(a: float, b: float) -> float:
    """Distance between two angles on the circle."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


# -- cross-section rows ------------------------------------------------------


def sigma_identity(rows, i_sigma0: int, i_osc: int, i_sigma: int) -> list[str]:
    """sigma must equal sigma0 + sigma_osc exactly, row by row."""
    for r, row in enumerate(rows):
        if row[i_sigma] != row[i_sigma0] + row[i_osc]:
            return [f"row {r}: sigma != sigma0 + sigma_osc"]
    return []


def running_sum(rows, i_total: int, first_term: int) -> list[str]:
    """The decomposition total must equal the running sum of its terms."""
    for r, row in enumerate(rows):
        total = 0.0
        for term in row[first_term:]:
            total += term
        if row[i_total] != total:
            return [f"row {r}: total != running sum of terms"]
    return []


def theta_zero_rows(rows) -> list[str]:
    """A polarization along the wedge axis (theta_L = 0) sees no orbits."""
    zero = [row for row in rows if row[0] == 0.0]
    if not zero:
        return ["no theta_L = 0 row"]
    if any(row[2] != 0.0 for row in zero):
        return ["sigma_osc != 0 at theta_L = 0"]
    return []


def row_count(rows, expected: int) -> list[str]:
    return [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]


def closed_form_scale(sigma0: float, k: float, n: int, rho: float, beta: float) -> float:
    """Background plus the summed orbit amplitudes 3 sigma0 / (k L) of a
    pi/N wedge, with lengths from the wedge geometry."""
    lengths = [2.0 * rho * math.sin(beta)]
    for i in range(1, n):
        lengths.append(2.0 * rho * math.sin(i * math.pi / n - beta))
        lengths.append(2.0 * rho * math.sin(i * math.pi / n))
    return sigma0 * (1.0 + 3.0 / k * sum(1.0 / abs(L) for L in lengths))


def close_to(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= CLOSED_FORM_RTOL * scale


def sample_indices(count: int, samples: int) -> range:
    """Evenly spaced row indices, the first and last rows included."""
    step = max(1, (count - 1) // max(1, samples - 1))
    return range(0, count, step)


# -- orbit catalogs ----------------------------------------------------------


def unpaired_orbits(catalog) -> list:
    """Orbits without a time-reversed partner in the same catalog.

    The partner of (phi_out, phi_ret, m) leaves at phi_ret + pi and returns
    at phi_out + pi with the same m; a self-retracing orbit is its own.
    """
    lonely = []
    for orbit in catalog:
        out = orbit.phi_ret + math.pi
        ret = orbit.phi_out + math.pi
        if not any(
            p.m == orbit.m
            and angle_gap(p.phi_out, out) <= ORBIT_TOL
            and angle_gap(p.phi_ret, ret) <= ORBIT_TOL
            for p in catalog
        ):
            lonely.append(orbit)
    return lonely


def partner_problems(catalog) -> list[str]:
    return [
        f"orbit m={o.m} phi_out={o.phi_out:.6f} has no time-reversed partner"
        for o in unpaired_orbits(catalog)
    ]


def retrace_problems(catalog, approach_of, rho: float) -> list[str]:
    """Orbits checked one by one, for wedges without an analytic catalog.

    The catalog must not be empty.  Each orbit, launched again at its
    phi_out, must come back to the ion after its m bounces: within
    ORBIT_TOL * rho of it, after its stated length, heading along phi_ret.
    ``approach_of(phi, m)`` traces that launch and returns its closest
    approach to the ion after m bounces, or None if there is none.
    """
    if not catalog:
        return ["empty catalog"]
    for orbit in catalog:
        name = f"orbit m={orbit.m} phi_out={orbit.phi_out:.6f}"
        got = approach_of(orbit.phi_out, orbit.m)
        if got is None:
            return [f"{name}: does not come back after {orbit.m} bounces"]
        if got.distance > ORBIT_TOL * rho:
            return [f"{name}: misses the ion by {got.distance:.3e}"]
        if abs(got.path_length - orbit.length) > ORBIT_TOL * orbit.length:
            return [f"{name}: length off by {abs(got.path_length - orbit.length):.3e}"]
        if angle_gap(got.direction_azimuth, orbit.phi_ret) > ORBIT_TOL:
            return [f"{name}: phi_ret off by {angle_gap(got.direction_azimuth, orbit.phi_ret):.3e}"]
    return []


def matches_analytic(catalog, reference) -> list[str]:
    """Count, bounce numbers, launch angles and lengths against the analytic
    catalog, both in ascending phi_out."""
    if len(catalog) != len(reference):
        return [f"{len(catalog)} orbits, analytic catalog has {len(reference)}"]
    for got, ref in zip(catalog, reference):
        if got.m != ref.m:
            return [f"orbit {ref.index}: m={got.m}, expected {ref.m}"]
        if angle_gap(got.phi_out, ref.phi_out) > ORBIT_TOL:
            return [f"orbit {ref.index}: phi_out off by {angle_gap(got.phi_out, ref.phi_out):.3e}"]
        if abs(got.length - ref.length) > ORBIT_TOL * ref.length:
            return [f"orbit {ref.index}: length off by {abs(got.length - ref.length):.3e}"]
    return []


# -- command-line output -----------------------------------------------------


def parse_csv(text: str) -> list[tuple[float, ...]]:
    """Data rows of a CSV dataset: after the provenance comments and the
    column header."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def cli_problems(kind: str, returncode: int, stdout: bytes, stderr: bytes,
                 expect: dict) -> list[str]:
    """Checks on one command-line run.

    ``expect`` gives what ``kind`` must produce: ``rows`` (data rows) for
    every dataset and table; ``identity`` (sigma = sigma0 + sigma_osc),
    ``running_sum`` or ``theta_zero`` for the datasets they apply to; and
    ``verify`` for the self-check summary.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    if any(line.startswith(b"error[") for line in stderr.splitlines()):
        problems.append("error[...] line on stderr")
    if problems:
        return problems
    text = stdout.decode("utf-8", "replace")
    if "verify" in expect:
        last = text.strip().splitlines()[-1] if text.strip() else ""
        parts = last.split()
        done, _, total = parts[0].partition("/") if parts else ("", "", "")
        if not (last.endswith(" checks passed") and done == total and done.isdigit()):
            problems.append(f"verify summary {last!r}")
        return problems
    if kind == "orbits":
        rows = text.splitlines()[1:]
        return row_count(rows, expect["rows"])
    try:
        rows = parse_csv(text)
    except ValueError:
        return ["unparseable CSV"]
    problems += row_count(rows, expect["rows"])
    if expect.get("identity"):
        problems += sigma_identity(rows, 1, 2, 3)
    if expect.get("running_sum"):
        problems += running_sum(rows, 1, 2)
    if expect.get("theta_zero"):
        problems += theta_zero_rows(rows)
    return problems


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
