"""The benchmark's output checks accept real outputs and reject tampered ones.

Run with ``python3 -m pytest bench/tests``.
"""

import io
import math
import random
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

import checks
import speed
import workloads
from tracer import Tracer, load_spans
from worker import LayerTrace, Tally
from wedge_cot import cli, sweeps
from wedge_cot.geometry import IonPosition, WedgeGeometry
from wedge_cot.orbits import default_search_config, enumerate_analytic, find_numeric
from wedge_cot.spectrum import Polarization, ReflectionModel, sigma_x_closed_form

ION = IonPosition(200.0, math.pi / 15)
WEDGE = WedgeGeometry.from_n(5)
SPECTRUM_EXPECT = {"rows": 64, "identity": True}


def one_ulp(x: float) -> float:
    return math.nextafter(x, math.inf)


def tamper(rows, r: int, column: int, value: float):
    rows = list(rows)
    rows[r] = tuple(value if i == column else v for i, v in enumerate(rows[r]))
    return rows


@pytest.fixture(scope="module")
def spectrum():
    return sweeps.energy_sweep(0.76, 1.4, 64, WEDGE, ION, Polarization.x(),
                               ReflectionModel.hard())


@pytest.fixture(scope="module")
def spectrum_csv(spectrum):
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli.serialize(spectrum, "csv")
    return buf.getvalue().encode()


def test_sigma_row_one_ulp_off_is_rejected(spectrum):
    assert checks.sigma_identity(spectrum.rows, 1, 2, 3) == []
    r = 17
    bad = tamper(spectrum.rows, r, 3, one_ulp(spectrum.rows[r][3]))
    assert checks.sigma_identity(bad, 1, 2, 3) == [f"row {r}: sigma != sigma0 + sigma_osc"]


def test_decomposition_total_one_ulp_off_is_rejected():
    ds = sweeps.orbit_decomposition(0.76, 1.4, 32, WEDGE, ION, Polarization.y(),
                                    ReflectionModel.soft())
    assert checks.running_sum(ds.rows, 1, 2) == []
    bad = tamper(ds.rows, 5, 1, one_ulp(ds.rows[5][1]))
    assert checks.running_sum(bad, 1, 2)


def test_closed_form_comparison_rejects_a_wrong_row(spectrum):
    def energy_of(e):
        return e

    def ion_of(_):
        return ION

    assert workloads._closed_form_rows(spectrum.rows, 3, "sigma", 5, "x", energy_of, ion_of) == []
    r = list(checks.sample_indices(len(spectrum.rows), workloads.CHECK_SAMPLES))[5]
    point = sigma_x_closed_form(spectrum.rows[r][0], 5, ION)
    scale = checks.closed_form_scale(point.sigma0, point.k, 5, ION.rho, ION.beta)
    bad = tamper(spectrum.rows, r, 3, spectrum.rows[r][3] + 1e-11 * scale)
    assert workloads._closed_form_rows(bad, 3, "sigma", 5, "x", energy_of, ion_of)


def test_polarization_map_needs_zero_at_theta_zero():
    ds = sweeps.polarization_map(5, 4, 1.0, WEDGE, ION, ReflectionModel.hard())
    assert checks.theta_zero_rows(ds.rows) == []
    assert checks.theta_zero_rows(tamper(ds.rows, 0, 2, 5e-324))


def test_cli_output_passes_untampered(spectrum_csv):
    assert checks.cli_problems("spectrum", 0, spectrum_csv, b"", SPECTRUM_EXPECT) == []


def test_cli_nonzero_exit_is_rejected(spectrum_csv):
    assert checks.cli_problems("spectrum", 3, spectrum_csv, b"", SPECTRUM_EXPECT) == [
        "exit status 3"]


def test_cli_error_line_is_rejected(spectrum_csv):
    stderr = b"error[numeric-failure] something\n"
    assert checks.cli_problems("spectrum", 0, spectrum_csv, stderr, SPECTRUM_EXPECT)


def test_cli_sigma_one_ulp_off_is_rejected(spectrum, spectrum_csv):
    sigma = spectrum.rows[9][3]
    old = f"{sigma:.17g}".encode()
    new = f"{one_ulp(sigma):.17g}".encode()
    assert old != new and spectrum_csv.count(old) == 1
    tampered = spectrum_csv.replace(old, new)
    assert checks.cli_problems("spectrum", 0, tampered, b"", SPECTRUM_EXPECT) == [
        "row 9: sigma != sigma0 + sigma_osc"]


def test_cli_missing_row_and_failed_verify_are_rejected(spectrum_csv):
    short = spectrum_csv.rsplit(b"\n", 2)[0] + b"\n"
    assert checks.cli_problems("spectrum", 0, short, b"", SPECTRUM_EXPECT) == [
        "63 rows, expected 64"]
    assert checks.cli_problems("verify", 0, b"19/19 checks passed\n", b"", {"verify": True}) == []
    assert checks.cli_problems("verify", 0, b"18/19 checks passed\n", b"", {"verify": True})


def test_catalog_with_one_orbit_removed_is_rejected():
    wedge = WedgeGeometry.from_n(3)
    ion = IonPosition(300.0, 0.3)
    catalog = find_numeric(wedge, ion, default_search_config(wedge))
    reference = enumerate_analytic(3, ion)
    assert checks.matches_analytic(catalog, reference) == []
    assert checks.partner_problems(catalog) == []
    dropped = catalog[:1] + catalog[2:]  # orbit 2 leaves its partner 4 alone
    assert checks.matches_analytic(dropped, reference)
    assert [o.index for o in checks.unpaired_orbits(dropped)] == [4]


@pytest.fixture(scope="module")
def arbitrary():
    """A numeric catalog of a wedge that is not pi/N, and its operation."""
    op = workloads._numeric_op(WedgeGeometry.from_alpha(0.7), IonPosition(200.0, 0.25), "test")
    catalog = op.call()
    assert op.check(catalog) == [] and op.known_check(catalog) == []
    return op, catalog


def drop_one_of_a_pair(catalog):
    """The catalog without the first orbit whose time-reversed partner is in it."""
    lone = checks.unpaired_orbits(catalog)
    first = next(o for o in catalog if o not in lone and checks.unpaired_orbits([o]))
    return tuple(o for o in catalog if o is not first)


def test_one_unpaired_orbit_is_a_known_failure_only_just_below_pi_n(arbitrary):
    op, catalog = arbitrary
    dropped = drop_one_of_a_pair(catalog)
    assert len(checks.unpaired_orbits(dropped)) == 1
    assert op.check(dropped) and op.known_check(dropped) == []
    alpha = math.pi / 5 * (1 - 5e-3)
    near = workloads._numeric_op(WedgeGeometry.from_alpha(alpha),
                                 IonPosition(200.0, 0.3 * alpha), "test")
    catalog = near.call()
    whole = tuple(o for o in catalog if o not in checks.unpaired_orbits(catalog))
    dropped = drop_one_of_a_pair(whole)
    assert len(checks.unpaired_orbits(dropped)) == 1
    assert near.check(dropped) == []
    assert near.known_check(dropped)


def test_arbitrary_wedges_are_drawn_outside_the_item5_window(monkeypatch):
    assert workloads.near_pi_n(workloads.ITEM5[0])
    assert workloads.near_pi_n(math.pi / 4 * (1 - 1e-4))
    assert not workloads.near_pi_n(math.pi / 4) and not workloads.near_pi_n(0.7)
    drawn = []
    monkeypatch.setattr(workloads, "_numeric_op", lambda wedge, ion, kind: drawn.append(wedge))
    rng = random.Random(3)
    for _ in range(300):
        workloads.numeric_catalog_deck(rng)
    assert len(drawn) == 300 * 11
    assert not any(workloads.near_pi_n(w.opening_angle) for w in drawn)


def test_two_unpaired_orbits_or_an_empty_catalog_fail(arbitrary):
    op, catalog = arbitrary
    paired = [o for o in catalog if checks.unpaired_orbits([o])]  # not self-retracing
    first = paired[0]
    partner = next(o for o in paired[1:] if not checks.unpaired_orbits([first, o]))
    second = next(o for o in paired[1:] if o is not partner)  # from another pair
    dropped = tuple(o for o in catalog if o is not first and o is not second)
    assert len(checks.unpaired_orbits(dropped)) == 2
    assert op.check(dropped) and op.known_check(dropped) == []
    assert op.check(()) == ["empty catalog"]


@pytest.mark.parametrize("field, delta", [("phi_out", 1e-7), ("length", 1e-5), ("phi_ret", 1e-7)])
def test_arbitrary_wedge_orbit_that_does_not_close_is_rejected(arbitrary, field, delta):
    op, catalog = arbitrary
    r = len(catalog) // 2
    moved = replace(catalog[r], **{field: getattr(catalog[r], field) + delta})
    assert op.check(catalog[:r] + (moved,) + catalog[r + 1:])


def test_decks_repeat_for_a_seed_and_keep_their_structure():
    for deck in workloads.DECKS.values():
        a = deck(random.Random(5))
        b = deck(random.Random(5))
        c = deck(random.Random(6))
        assert [op.kind for op in a] == [op.kind for op in b]
        assert sorted(op.kind for op in a) == sorted(op.kind for op in c)


def test_tail_has_ten_calls_beyond_it():
    tally = Tally()
    tally.deck = 0
    for ms in range(1, 101):
        tally.record(f"op{ms}", ms / 1e3, 1, [], [])
    s = tally.summary()
    assert s["call_tail_ms"] == pytest.approx(90.0)
    assert s["call_tail_percentile"] == 90.0
    assert s["call_p50_ms"] == pytest.approx(50.5)


def test_rates_and_latencies_count_every_call_in_a_deck():
    tally = Tally()
    tally.record("outside", 1.0, 5, [], [])  # before the first deck: not timed
    for deck, ms in enumerate((30, 10, 40, 20)):
        tally.deck = deck
        for kind in ("a", "b"):
            tally.record(kind, ms / 1e3, 5, [], [])
    s = tally.summary()
    assert s["calls_per_s"] == pytest.approx(8 / 0.2)
    assert s["rows_per_s"] == pytest.approx(40 / 0.2)
    assert s["call_p50_ms"] == pytest.approx(25.0)
    assert s["decks"] == 4 and s["calls"] == 8 and s["attempted"] == 9


def test_call_times_are_scaled_by_the_reference_loop_around_them():
    tally = Tally()
    tally.deck = 0
    slowdown = [2.0] * 9
    slowdown[4] = 10.0  # one reference pass hit by an interrupt
    for factor in slowdown:
        tally.record("a", 0.040, 1, [], [], ref=factor * speed.NOMINAL_S)
    s = tally.summary()
    assert s["call_p50_ms"] == pytest.approx(20.0) and s["call_tail_ms"] == pytest.approx(20.0)
    assert s["calls_per_s"] == pytest.approx(50.0)
    assert s["wall_call_p50_ms"] == pytest.approx(40.0) and s["slowdown"] == pytest.approx(2.0)


def test_traced_run_reports_a_missing_function(monkeypatch):
    from wedge_cot import orbits

    monkeypatch.delattr(orbits, "exact_catalog")
    layer = LayerTrace()
    layer.install()
    try:
        assert layer.problems == ["wedge_cot.orbits.exact_catalog is missing, so it is not traced"]
    finally:
        layer.tracer.unpatch()


def test_traced_run_counts_orbit_terms_from_the_catalogs_used():
    from wedge_cot import sweeps as traced_sweeps

    layer = LayerTrace()
    layer.install()
    try:
        traced_sweeps.energy_sweep(0.8, 1.2, 10, WEDGE, ION, Polarization.x(),
                                   ReflectionModel.hard())
        traced_sweeps.orbit_decomposition(0.8, 1.2, 7, WedgeGeometry.from_n(3), ION,
                                          Polarization.y(), ReflectionModel.hard())
    finally:
        layer.tracer.unpatch()
    assert layer.problems == []
    assert layer.stats()["orbit_terms"] == 10 * 9 + 7 * 5


def test_self_time_excludes_child_spans(tmp_path):
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    wrapped_inner = tracer.wrap("inner", inner)

    def outer_calling_wrapped():
        return wrapped_inner() + wrapped_inner()

    tracer.call("outer", outer_calling_wrapped)
    stats = tracer.summary()
    assert stats["inner"]["calls"] == 2
    child = stats["inner"]["busy_s"]
    assert stats["outer"]["self_s"] == pytest.approx(stats["outer"]["busy_s"] - child)
    assert tracer.children_of("outer") == 1
    tracer.dump(tmp_path / "spans.bin")
    _, spans = load_spans(tmp_path / "spans.bin")
    assert [(name, parent) for name, parent, _, _ in spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]


def test_benchmark_json_lists_the_metrics_run_prints():
    import json
    from pathlib import Path

    import run

    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
