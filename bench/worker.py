"""One fresh benchmark process: set up a workload, measure it, report JSON.

Started by ``run.py``, one at a time.  It prints ``READY`` once set-up is
done (imports, input generation, warm-up), then, unless ``--setup-only``,
measures for ``--seconds`` and prints one JSON line with the raw results.

``--cli-child MODE ARGV...`` is the other entry: it runs one command-line
call in-process, traced or not, and reports its spans; the ``cli-cold``
traced run starts it once per subcommand.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import speed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 120

#: Public functions wrapped in spans: (module, attribute, span name).
TRACED = (
    *(("wedge_cot.sweeps", g, f"sweeps.{g}") for g in workloads.SWEEP_GENERATORS),
    ("wedge_cot.spectrum", "sigma_total", "spectrum.sigma_total"),
    ("wedge_cot.spectrum", "orbit_catalog", "spectrum.orbit_catalog"),
    ("wedge_cot.orbits", "enumerate_analytic", "orbits.enumerate_analytic"),
    ("wedge_cot.orbits", "exact_catalog", "orbits.exact_catalog"),
    ("wedge_cot.orbits", "find_numeric", "orbits.find_numeric"),
    ("wedge_cot.geometry", "trace", "geometry.trace"),
    ("wedge_cot.oracle", "overlap_with_estimate", "oracle.overlap_with_estimate"),
    ("wedge_cot.oracle", "radial_integral", "oracle.radial_integral"),
    ("wedge_cot.cli", "build_parser", "cli.build_parser"),
    ("wedge_cot.cli", "serialize", "cli.serialize"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "wedge_cot" / "__init__.py").is_file():
        sys.exit(f"no wedge_cot package under {SRC}")
    sys.path.insert(0, str(SRC))
    import wedge_cot

    if Path(wedge_cot.__file__).resolve().parent != SRC / "wedge_cot":
        sys.exit(f"wedge_cot imported from {wedge_cot.__file__}, not {SRC}")


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


# -- tracing -------------------------------------------------------------------


class LayerTrace:
    """Tracer plus the counters that need the program's return values."""

    def __init__(self):
        self.tracer = Tracer()
        self.catalogs: list[tuple[object, tuple]] = []  # find_numeric (wedge, result)
        self.catalog_size = 0  # orbits in the catalog last looked up
        self.orbit_terms = 0
        self.serialize_bytes = 0
        #: Traced functions the program no longer has.
        self.problems: list[str] = []

    def install(self):
        """Wrap every function of ``TRACED`` whose module the run imported.

        A module that is imported but lacks the function is a problem: its
        layer would read 0 as if the workload never reached it.
        """
        around = {
            "find_numeric": self._capture,
            "orbit_catalog": self._sized,
            "sigma_total": lambda fn: self._summed(fn, lambda point: 1),
            "orbit_decomposition": lambda fn: self._summed(fn, lambda ds: len(ds.rows)),
            "serialize": self._counted,
        }
        self.problems = [
            f"{module}.{attr} is missing, so it is not traced"
            for module, attr, name in TRACED
            if module in sys.modules and not self.tracer.patch(module, attr, name,
                                                               around.get(attr))
        ]

    def _capture(self, find_numeric):
        def capture(wedge, ion, cfg):
            result = find_numeric(wedge, ion, cfg)
            self.catalogs.append((wedge, result))
            return result
        return capture

    def _sized(self, orbit_catalog):
        def sized(*args, **kwargs):
            catalog = orbit_catalog(*args, **kwargs)
            self.catalog_size = len(catalog)
            return catalog
        return sized

    def _summed(self, fn, rows_of):
        """Count the orbit terms of a call that sums over the catalog it
        looked up once per output row."""
        def summed(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.tracer.enabled:
                self.orbit_terms += rows_of(out) * self.catalog_size
            return out
        return summed

    def _counted(self, serialize):
        def counted(*args, **kwargs):
            before = sys.stdout.tell()
            try:
                return serialize(*args, **kwargs)
            finally:
                self.serialize_bytes += sys.stdout.tell() - before
        return counted

    def stats(self) -> dict:
        """Mergeable counts: span sums, raised exceptions, derived counters."""
        unpaired = sum(len(checks.unpaired_orbits(c)) for _, c in self.catalogs)
        misses = sum(1 for w, c in self.catalogs
                     if w.n_integer is not None and len(c) != 2 * w.n_integer - 1)
        return {
            "spans": self.tracer.summary(),
            "raised": {f"{n}|{e}": c for (n, e), c in self.tracer.raised.items()},
            "catalog_builds": self.tracer.children_of("spectrum.orbit_catalog"),
            "orbits_found": sum(len(c) for _, c in self.catalogs),
            "unpaired": unpaired,
            "count_law_misses": misses,
            "orbit_terms": self.orbit_terms,
            "serialize_bytes": self.serialize_bytes,
        }


def merge_stats(parts: list[dict]) -> dict:
    out = {"spans": {}, "raised": {}}
    for part in parts:
        for name, s in part["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for key, count in part["raised"].items():
            out["raised"][key] = out["raised"].get(key, 0) + count
        for key, value in part.items():
            if key not in ("spans", "raised"):
                out[key] = out.get(key, 0) + value
    return out


def import_probes() -> dict:
    """Fresh-process import times, the median of three each."""
    env = child_env()
    timed = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    probes = {"import.python_s": None, "import.wedge_cot_s": "wedge_cot",
              "import.sweeps_s": "wedge_cot.sweeps", "import.oracle_s": "wedge_cot.oracle"}
    out = {}
    for name, module in probes.items():
        samples = []
        for _ in range(3):
            code = "pass" if module is None else timed.format(module)
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                  capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
            wall = perf_counter() - t0
            samples.append(wall if module is None else float(proc.stdout))
        out[name] = statistics.median(samples)
    return out


# -- measurement ---------------------------------------------------------------


class Tally:
    """Calls, output rows and failures of the operations run.

    Only calls inside a deck are timed.  Every deck runs the same kinds of
    call on fresh inputs, so rates over whole decks compare across seeds.
    Each timed call comes with the time of the reference loop run just
    before it (see ``speed.py``).
    """

    def __init__(self):
        self.calls: list[tuple[int, float, int]] = []  # deck, seconds, rows
        self.refs: list[float] = []  # reference loop before each timed call
        self.deck = -1  # calls outside any deck are checked, not timed
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.problems: list[str] = []

    def record(self, kind: str, seconds: float | None, rows: int, problems, known,
               ref: float = speed.NOMINAL_S):
        self.attempted += 1
        if self.deck >= 0 and seconds is not None:
            self.calls.append((self.deck, seconds, rows))
            self.refs.append(ref)
        if problems or known:
            self.failed += 1
            self.unexpected += bool(problems)
            if len(self.problems) < 20:
                self.problems += [f"{kind}: {p}" for p in (problems + known)[:2]]

    def deck_busy(self) -> dict[int, float]:
        busy: dict[int, float] = {}
        for deck, seconds, _ in self.calls:
            busy[deck] = busy.get(deck, 0.0) + seconds
        return busy

    def summary(self) -> dict:
        """Rates over the time spent in calls and latency percentiles over
        every timed call, from the call times scaled to the reference speed;
        the same figures from the wall times carry a ``wall_`` prefix."""
        wall = [seconds for _, seconds, _ in self.calls]
        rows = sum(r for _, _, r in self.calls)
        n = len(wall)
        # The tail is the value with exactly ten calls beyond it, or the
        # slowest call when there are too few calls for that.
        tail_rank = n - 11 if n > 10 else n - 1
        out = {
            "calls": n,
            "decks": len({deck for deck, _, _ in self.calls}),
            "attempted": self.attempted,
            "failed": self.failed,
            "unexpected": self.unexpected,
            "problems": self.problems,
            "call_tail_percentile": 100.0 * (tail_rank + 1) / n if n else 0.0,
            # How much slower than nominal the machine ran: 1 is nominal.
            "slowdown": statistics.median(self.refs) / speed.NOMINAL_S if n else 0.0,
        }
        for prefix, times in (("", speed.scaled(wall, self.refs)), ("wall_", wall)):
            latencies = sorted(times)
            busy = sum(latencies)
            out[prefix + "calls_per_s"] = n / busy if busy else 0.0
            out[prefix + "rows_per_s"] = rows / busy if busy else 0.0
            out[prefix + "call_p50_ms"] = 1e3 * statistics.median(latencies) if n else 0.0
            out[prefix + "call_tail_ms"] = 1e3 * latencies[tail_rank] if n else 0.0
        return out


def run_op(op, tally: Tally, tracer: Tracer | None):
    ref = speed.reference_s() if tally.deck >= 0 else speed.NOMINAL_S
    t0 = perf_counter()
    try:
        if tracer is None:
            out = op.call()
        else:
            out = tracer.call(f"op.{op.kind}", op.call)
    except Exception as exc:  # every failure is counted, none stops the run
        tally.record(op.kind, None, 0, [f"{type(exc).__name__}: {exc}"], [])
        return
    seconds = perf_counter() - t0
    rows = len(out.rows) if hasattr(out, "rows") else len(out)
    if tracer is not None:
        tracer.enabled = False
    try:
        tally.record(op.kind, seconds, rows, op.check(out), op.known_check(out), ref)
    finally:
        if tracer is not None:
            tracer.enabled = True


def measure_in_process(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    deck = workloads.DECKS[workload]
    first = [workloads.item5_op()] if workload == "numeric-catalog" else []
    if trace:
        return traced_in_process(workload, deck, rng, first, seconds)
    tally = Tally()
    for op in first:
        run_op(op, tally, None)
    t_start = perf_counter()
    while perf_counter() - t_start < seconds:
        tally.deck += 1
        for op in deck(rng):
            run_op(op, tally, None)
    return {"tally": tally.summary(), "peak_rss_mb": peak_rss_mb()}


def traced_in_process(workload, deck, rng, first, seconds) -> dict:
    """Alternate an untraced and a traced deck of the same structure; the
    median ratio of their call times is the tracing overhead."""
    tally = Tally()
    layer = LayerTrace()
    layer.install()
    for op in first:
        run_op(op, tally, layer.tracer)
    layer.tracer.unpatch()
    t_start = perf_counter()
    while perf_counter() - t_start < seconds:
        tally.deck += 1
        for op in deck(rng):
            run_op(op, tally, None)
        tally.deck += 1
        layer.install()
        for op in deck(rng):
            run_op(op, tally, layer.tracer)
        layer.tracer.unpatch()
    OUT.mkdir(exist_ok=True)
    layer.tracer.dump(OUT / f"spans-{workload}.bin")
    busy = tally.deck_busy()
    return {
        "tally": tally.summary(),
        "layers": layer.stats(),
        # Odd decks are traced.
        "overhead_ratio": statistics.median(
            busy[d] / busy[d - 1] for d in busy if d % 2 == 1 and busy.get(d - 1)),
        "imports": import_probes(),
        "trace_problems": layer.problems,
    }


# -- cli-cold --------------------------------------------------------------------


def cold_call(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "wedge_cot", *argv], env=child_env(),
                          cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, proc


def measure_cli(seconds: float, trace: bool) -> dict:
    """The long subcommands once at the start and once at the end; the quick
    ones in cycles in between, and only they count in rates and latencies."""
    tally = Tally()
    times: dict[str, list[float]] = {kind: [] for kind, _, _ in workloads.CLI_CYCLE}
    digests: dict[str, str] = {}
    quick = [c for c in workloads.CLI_CYCLE if c[0] not in workloads.CLI_LONG]
    long = [c for c in workloads.CLI_CYCLE if c[0] in workloads.CLI_LONG]

    def call(kind, argv, expect, timed: bool):
        ref = speed.reference_s() if timed else speed.NOMINAL_S
        try:
            wall, proc = cold_call(argv)
        except subprocess.TimeoutExpired:
            tally.record(kind, None, 0, ["timed out"], [])
            return
        problems = checks.cli_problems(kind, proc.returncode, proc.stdout, proc.stderr, expect)
        if digests.setdefault(kind, checks.digest(proc.stdout)) != checks.digest(proc.stdout):
            problems.append("output bytes differ from the first run")
        lines = sum(1 for line in proc.stdout.splitlines() if not line.startswith(b"#"))
        times[kind].append(wall)
        tally.record(kind, wall if timed else None, lines, problems, [], ref)

    for c in long:
        call(*c, timed=False)
    t_start = perf_counter()
    while perf_counter() - t_start < seconds:
        tally.deck += 1
        for c in quick:
            call(*c, timed=True)
    for c in long:
        call(*c, timed=False)
    result = {
        "tally": tally.summary(),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "cold": {k: {"median_s": statistics.median(v), "samples": len(v)}
                 for k, v in times.items() if v},
    }
    if trace:
        result.update(traced_cli(digests))
    return result


def traced_cli(digests: dict[str, str]) -> dict:
    """Each subcommand in-process in a fresh child, once plain and once
    traced; the plain/traced ratio of their call times is the overhead."""
    parts, plain_s, traced_s = [], 0.0, 0.0
    problems = []
    for mode in ("plain", "traced"):
        for kind, argv, _ in workloads.CLI_CYCLE:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--cli-child", mode, kind, *argv],
                env=child_env(), cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                problems.append(f"{kind} {mode}: child exit {proc.returncode}")
                continue
            child = json.loads(proc.stdout.splitlines()[-1])
            if child["rc"] != 0 or child["digest"] != digests.get(kind):
                problems.append(f"{kind} {mode}: in-process output differs from the cold run")
            if mode == "plain":
                plain_s += child["main_s"]
            else:
                traced_s += child["main_s"]
                parts.append(child["layers"])
                problems += [f"{kind}: {p}" for p in child["trace_problems"]]
    return {
        "layers": merge_stats(parts) if parts else {},
        "overhead_ratio": traced_s / plain_s if plain_s else 0.0,
        "imports": import_probes(),
        "trace_problems": problems,
    }


def cli_child(mode: str, kind: str, argv: list[str]):
    import_program()
    from wedge_cot import cli, geometry, orbits, spectrum, sweeps  # noqa: F401

    if kind == "verify":
        from wedge_cot import oracle  # noqa: F401
    layer = LayerTrace() if mode == "traced" else None
    if layer is not None:
        layer.install()
        parse_args = argparse.ArgumentParser.parse_args
        argparse.ArgumentParser.parse_args = layer.tracer.wrap("cli.parse_args", parse_args)
    buf = io.StringIO()
    with redirect_stdout(buf):
        t0 = perf_counter()
        if layer is None:
            rc = cli.main(argv)
        else:
            rc = layer.tracer.call(f"op.{kind}", cli.main, argv)
        main_s = perf_counter() - t0
    out = {"rc": rc, "main_s": main_s, "digest": checks.digest(buf.getvalue().encode())}
    if layer is not None:
        OUT.mkdir(exist_ok=True)
        layer.tracer.dump(OUT / f"spans-cli-cold-{kind}.bin")
        out["layers"] = layer.stats()
        out["trace_problems"] = layer.problems
    print(json.dumps(out))


# -- entry -----------------------------------------------------------------------


def setup_in_process(workload: str):
    import_program()
    from wedge_cot import orbits, spectrum  # noqa: F401

    if workload != "numeric-catalog":
        from wedge_cot import sweeps  # noqa: F401
    warm = Tally()
    for op in workloads.warmup_ops(workload):
        run_op(op, warm, None)
    if warm.failed:
        sys.exit(f"warm-up failed: {warm.problems}")


def setup_cli():
    if not (SRC / "wedge_cot" / "__init__.py").is_file():
        sys.exit(f"no wedge_cot package under {SRC}")
    # One cheap call, which also compiles the package's bytecode.
    _, proc = cold_call(["orbits"])
    if proc.returncode != 0:
        sys.exit(f"wedge_cot orbits failed: {proc.stderr.decode(errors='replace')}")


def main():
    # On SIGTERM, unwind: subprocess.run kills a running child on the way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if len(sys.argv) > 1 and sys.argv[1] == "--cli-child":
        cli_child(sys.argv[2], sys.argv[3], sys.argv[4:])
        return
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", *workloads.DECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.workload == "cli-cold":
        setup_cli()
    else:
        setup_in_process(args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return
    if args.workload == "cli-cold":
        result = measure_cli(args.seconds, bool(args.trace))
    else:
        result = measure_in_process(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
