"""The iotrisk benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload static_layered --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                       # every workload, one after another

Workloads (see ``workloads.py`` for why each exists):

* ``static_layered``  -- VE point queries, all-node posteriors, cascade
  reports and criticality rankings on a seeded pool of 26-40 node models;
* ``temporal_stream`` -- filter / smooth / predict over seeded evidence
  streams, plus one ``horizon`` probe at ``max_horizon - 1`` in a capped child;
* ``cli_oneshot``     -- one fresh ``python -m iotrisk.cli`` process per op.

Load model: closed loop, one client; at most one child process at a time.
A run measures for at least ``--seconds`` and at least MIN_OPS ops, and stops
at a round boundary (every visit run equally often) so every run has the same
op mix.  Up to WARMUP_S of untimed ops from the first visit precede the timed
phase (not on cli_oneshot, whose ops are fresh processes).  Answers are
checked after it.  The library is imported from ``src/`` of the checkout this
file sits in.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
library's public functions (``spans.py``), runs each visit untraced and
traced, and reports per-layer calls, self time and counters (the horizon
probe runs only untraced: its child process is not traced).  Every run
prints a table (metric, value, unit, sample count), a ``record`` line with
the environment, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
NAMES = ("static_layered", "temporal_stream", "cli_oneshot")

MIN_OPS = 100        # so op_p90_ms has at least ten samples beyond it
SETUP_REPEATS = 5    # setup_s is the median of these, each in a fresh interpreter
WARMUP_S = 2.0       # untimed ops from the first visit before the timed phase
LAUNCHES = 5         # child launches behind cli.interpreter_ms / cli.import_ms

# Metrics on the result line; BENCHMARK.json lists the same names.
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")
CALLS_AND_SELF = ("inference.eliminate_marginal", "inference.posterior_update",
                  "temporal.unroll", "model.BayesianModel", "graph.topological_order",
                  "graph.descendants", "graph.ancestors", "graph.dependency_order",
                  "documents.parse_model", "documents.read_evidence",
                  "documents.ingest_evidence", "reporting.emit_report")
SELF_ONLY = ("temporal.filter_marginals", "temporal.smooth_marginals",
             "temporal.predict_marginals", "graph.validate",
             "cascade.impact_probabilities", "cascade.rank_criticality",
             "cascade.classify_levels", "uncontrollable.complete_model",
             "uncontrollable.resolve_uncontrollable", "sampling.monte_carlo_sample",
             "cli.main")
COUNTERS = (("inference.marginals_per_elimination", "ratio"),
            ("temporal.unrolled_nodes", "count"), ("reporting.report_bytes", "bytes"),
            ("sampling.node_samples", "count"), ("cli.interpreter_ms", "ms"),
            ("cli.import_ms", "ms"), ("trace.overhead_frac", "ratio"))


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for fn in CALLS_AND_SELF:
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_ms", "ms")]
    names += [(f"{fn}.self_ms", "ms") for fn in SELF_ONLY]
    return names + list(COUNTERS)


# ---------------------------------------------------------- closed loop

def drive(visits, seconds: float, min_ops: int = 0, max_visits: int | None = None):
    """Closed loop over ``visits``; returns (results, wall seconds, visits run).

    Each result is ``(visit no, op, seconds, output, error)``.  A round is one
    pass over every visit.  Stops at the first round boundary after
    ``seconds`` with ``min_ops`` done, so every run has the same op mix, or
    after ``max_visits`` visits when that is given.
    """
    results = []
    start = time.perf_counter()
    deadline = start + seconds
    done = 0
    while True:
        for op in visits[done % len(visits)]:
            t0 = time.perf_counter()
            try:
                out, error = op.call(), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            results.append((done, op, time.perf_counter() - t0, out, error))
        done += 1
        if max_visits is not None:
            if done >= max_visits:
                break
        elif (done % len(visits) == 0 and len(results) >= min_ops
              and time.perf_counter() >= deadline):
            break
    return results, time.perf_counter() - start, done


def check(workload, results) -> dict:
    """``{op key: error}`` over failed ops and wrong answers."""
    errors = {op.key: error for _, op, _, _, error in results if error}
    ok = [(visit, op, out) for visit, op, _, out, error in results if not error]
    errors.update(workload.check(ok))
    return errors


def wrong_ops(results, errors) -> int:
    return sum(1 for _, op, _, _, _ in results if op.key in errors)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_sha():
    if shutil.which("git") is None:
        return None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_record(args) -> dict:
    import numpy

    from workloads import PROBE_CAP_MIB
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "probe_cap_mib": PROBE_CAP_MIB}


def print_table(rows) -> None:
    """rows: (name, value, unit, sample count)."""
    print(f"{'metric':<44} {'value':>14} {'unit':<6} samples")
    for name, value, unit, n in rows:
        print(f"{name:<44} {value:>14.6g} {unit:<6} {n}")


# ----------------------------------------------------------- untraced run

_SETUP = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
t0 = time.perf_counter()
import workloads
workload = workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))
try:
    workload.setup()
    print(time.perf_counter() - t0)
finally:
    workload.close()
"""


def setup_seconds(name: str, seed: int) -> float:
    """Import plus input generation and loading, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _SETUP, str(SRC), str(BENCH_DIR), name,
                           str(seed)], capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


def run_plain(args, workload):
    from workloads import horizon_probe

    setups = [setup_seconds(workload.name, args.seed) for _ in range(SETUP_REPEATS)]
    workload.setup()
    workload.warm_up(WARMUP_S)
    results, wall, visits = drive(workload.visits, args.seconds, MIN_OPS)
    rss = peak_rss_mb(children=workload.name == "cli_oneshot")
    errors = check(workload, results)
    probe = horizon_probe() if workload.name == "temporal_stream" else None

    lat = [dt * 1e3 for _, _, dt, _, _ in results]
    failed = wrong_ops(results, errors)
    probe_failed = 0 if probe is None or probe["ok"] else 1
    probes = 0 if probe is None else 1
    rows = [("setup_s", statistics.median(setups), "s", SETUP_REPEATS),
            ("ops_per_s", len(results) / wall, "1/s", len(results)),
            ("op_p50_ms", statistics.median(lat), "ms", len(lat)),
            ("op_p90_ms", percentile(lat, 90), "ms", len(lat)),
            ("peak_rss_mb", rss, "MB", 1),
            ("failed_frac", (failed + probe_failed) / (len(results) + probes), "ratio",
             len(results) + probes)]
    for kind in workload.kinds:
        kind_lat = [dt * 1e3 for _, op, dt, _, _ in results if op.kind == kind]
        rows.append((f"{kind}_p50_ms", statistics.median(kind_lat), "ms", len(kind_lat)))

    print(f"== {workload.name}  seed={args.seed}  untraced  "
          f"{len(results)} ops in {visits // len(workload.visits)} rounds of "
          f"{len(workload.visits)} visits, {wall:.3f} s")
    print_table(rows)
    for key, error in sorted(errors.items())[:20]:
        print(f"wrong: {key}: {error}")
    record = run_record(args)
    if probe is not None:
        record["horizon_probe"] = probe
        print(f"horizon probe: {'ok' if probe['ok'] else 'FAILED: ' + probe['error']} "
              f"({probe['seconds']:.2f} s, counted in failed_frac only)")
    print("record " + json.dumps(record, sort_keys=True))
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name in END_TO_END}
    return {"correct": not errors, "attempted": len(results), "failed": failed,
            "metrics": metrics}


# ------------------------------------------------------------- traced run

def launch_ms(code: str, env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return (time.perf_counter() - t0) * 1e3


def run_traced(args, workload):
    from spans import Tracer, self_times
    from workloads import child_env

    tracer = Tracer()
    with tracer:
        workload.setup()
    visits = workload.traced_visits()
    # Each visit runs untraced and traced, in alternating order so neither
    # side always meets warm caches; the wall ratio is the tracing overhead.
    results, wall_plain, wall_traced = [], 0.0, 0.0
    n_visits, start = 0, time.perf_counter()
    while n_visits < 2 or time.perf_counter() - start < args.seconds:
        visit = [visits[n_visits % len(visits)]]
        for traced in (n_visits % 2 == 1, n_visits % 2 == 0):
            if traced:
                with tracer:
                    done, wall, _ = drive(visit, 0, max_visits=1)
                results += [(n_visits, *rest) for _, *rest in done]
                wall_traced += wall
            else:
                wall_plain += drive(visit, 0, max_visits=1)[1]
        n_visits += 1
    errors = check(workload, results)

    st = self_times(tracer.spans)
    calls = {name: c for name, (c, _) in st.items()}
    self_ms = {name: s * 1e3 for name, (_, s) in st.items()}
    counts = dict(tracer.counts)
    eliminations = calls.get("inference.eliminate_marginal", 0)
    counts["inference.marginals_per_elimination"] = (
        counts.pop("inference.marginals_delivered") / max(eliminations, 1))
    counts["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
    interp = imp = 0.0
    if workload.name == "cli_oneshot":
        env = child_env()
        interp = statistics.median(launch_ms("pass", env) for _ in range(LAUNCHES))
        imp = statistics.median(launch_ms("import iotrisk", env)
                                for _ in range(LAUNCHES)) - interp
    counts["cli.interpreter_ms"], counts["cli.import_ms"] = interp, imp

    rows = []
    for name, unit in per_layer_names():
        fn, _, what = name.rpartition(".")
        if what == "calls":
            value, n = calls.get(fn, 0), calls.get(fn, 0)
        elif what == "self_ms":
            value, n = self_ms.get(fn, 0.0), calls.get(fn, 0)
        else:
            value = counts[name]
            n = LAUNCHES if name.startswith("cli.") else len(results)
        rows.append((name, value, unit, n))

    print(f"== {workload.name}  seed={args.seed}  traced  "
          f"{len(results)} ops in {n_visits} visits, each run traced ({wall_traced:.3f} s) "
          f"and untraced ({wall_plain:.3f} s)")
    print_table(rows)
    print_split(workload, self_ms, tracer.installed_s, len(results), interp + imp)
    for key, error in sorted(errors.items())[:20]:
        print(f"wrong: {key}: {error}")
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    print("record " + json.dumps(run_record(args), sort_keys=True))
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    return {"correct": not errors, "attempted": len(results),
            "failed": wrong_ops(results, errors), "metrics": metrics}


def print_split(workload, self_ms: dict, installed_s: float, ops: int,
                startup_ms: float) -> None:
    """Self time per layer as a share of the traced time, setup included.

    For cli_oneshot the run is costed as one-shot processes would pay it:
    the in-process traced time plus interpreter start-up and import per op.
    """
    by_layer: dict[str, float] = {}
    for name, ms in self_ms.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + ms
    total = installed_s * 1e3
    if workload.name == "cli_oneshot":
        by_layer["start-up (interpreter + import)"] = startup_ms * ops
        total += startup_ms * ops
    by_layer["outside wrapped functions"] = total - sum(by_layer.values())
    print("layer split (self time):")
    for layer, ms in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<34} {ms:>12.1f} ms {100 * ms / total:>6.1f}%")


# ------------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "iotrisk" / "__init__.py").is_file():
        print(f"run.py: no library at {SRC}/iotrisk; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in NAMES:
            code = max(code, subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode)
        return code

    sys.path.insert(0, str(SRC))
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        result = run_traced(args, workload) if args.trace else run_plain(args, workload)
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
