"""cmstruct benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload search|analyze|sample|all \
        --seed 0 --seconds 35 --trace 0|1

One workload runs in this process, single-threaded: imports, set-up
(inputs built several times, then one warm-up pass), then timed passes over
a fixed job list until ``--seconds`` is spent. Every job's output is
checked. End-to-end times are scaled to a reference host speed sampled
throughout the run (see calibrate.py). ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` wraps the library's public functions, alternates untraced and
traced passes, prints the per-layer metrics and writes the spans to
``.perfbench/``. ``--workload all`` runs each workload in its own process.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The exit code is 0 only when the run completed; a run with failed
jobs still exits 0 and reports them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 900
# Wall time between two host-speed samples (see calibrate.py).
CALIBRATE_EVERY_S = 0.05

sys.path.insert(0, str(HERE))
from calibrate import REF_S, HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Traced public functions as (module or class, attribute), named
# "<module>.<attribute>" in the metrics, with the workloads on which each
# must be called at least once: a wrapper that misses a binding shows up as
# zero calls and fails the run.
TRACED = [
    ("search", "search_avoider", {"search"}),
    ("search", "ramsey_cm", {"search"}),
    ("search", "find_mono_cm", {"search", "analyze", "sample"}),
    ("search", "max_connected_matching", {"analyze"}),
    ("matching", "tutte_berge", {"analyze"}),
    ("matching", "matching_of_size", {"analyze", "sample"}),
    ("matching", "matching_number", {"analyze"}),
    ("matching", "maximum_matching", {"analyze"}),
    ("partition", "sqi_partition", {"analyze"}),
    ("partition", "component_partitions", {"analyze"}),
    ("partition", "verify_sqi", {"analyze"}),
    ("loss", "check_F_inequality", {"analyze"}),
    ("loss", "check_f_inequality", {"analyze"}),
    ("loss", "classify_vertices", {"analyze"}),
    ("loss", "f_graph", {"analyze"}),
    ("bounds", "audit_coloring", {"analyze"}),
    ("bounds", "small_components_bound", {"analyze"}),
    ("bounds", "erdos_gallai_check", {"analyze"}),
    ("graphs", "color_class", {"analyze", "sample", "search"}),
    ("graphs", "components", {"analyze", "sample", "search"}),
    ("graphs.Graph", "induced", {"analyze", "sample"}),
    ("graphs", "parse_graph", {"analyze"}),
    ("graphs", "serialize", {"analyze"}),
    ("constructions", "random_coloring", {"sample"}),
    ("constructions", "bounded_component_coloring", {"analyze", "sample"}),
    ("constructions", "affine_plane_coloring", {"analyze"}),
    ("cli", "main", {"analyze"}),
]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import cmstruct from this checkout's src/ and the test oracles."""
    src, oracles_path = ROOT / "src", ROOT / "tests" / "oracles.py"
    if not (src / "cmstruct" / "__init__.py").is_file() or not oracles_path.is_file():
        fail(f"no cmstruct sources under {ROOT}: run from a full checkout")
    sys.path.insert(0, str(src))
    cm = importlib.import_module("cmstruct")
    if src.resolve() not in Path(cm.__file__).resolve().parents:
        fail(f"imported cmstruct from {cm.__file__}, not from {src}")
    cli = importlib.import_module("cmstruct.cli")
    spec = importlib.util.spec_from_file_location("cmstruct_oracles", oracles_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return cm, cli, oracles


def traced_targets():
    targets = []
    for owner_name, attr, _ in TRACED:
        module, _, cls = owner_name.partition(".")
        owner = importlib.import_module("cmstruct." + module)
        if cls:
            owner = getattr(owner, cls)
        targets.append((f"{owner_name}.{attr}", owner, attr))
    return targets


class Pass:
    def __init__(self, traced: bool, first_span: int):
        self.traced = traced
        self.first_span = first_span
        self.last_span = first_span
        self.raw: list[float] = []  # measured seconds per job
        self.latencies: list[float] = []  # the same, scaled to the reference host
        self.failures = 0
        self.stats: dict[str, int] = {}


def run_pass(host: HostClock, workload, jobs, warm: bool, tracer: Tracer | None,
             traced: bool) -> Pass:
    """Run every job once: timed call, then an untimed and untraced check.

    Results are dropped after their check, so later jobs do not pay for the
    garbage collector walking earlier results. Each job's time is scaled by
    the host-speed samples from just before it to just after it.
    """
    p = Pass(traced, tracer.span_count if tracer else 0)
    intervals = []
    for i, job in enumerate(jobs):
        if traced:
            tracer.job, tracer.on = i, True
        begin = host.now()
        try:
            result = job.call()
        except Exception:  # a job that raises is a failed job; keep going
            result = None
            error = "raised:\n" + traceback.format_exc()
        else:
            error = None
        intervals.append((begin, host.now()))
        if tracer:
            tracer.on = False
        if error is None:
            try:
                error = job.check(result, warm)
            except Exception:
                error = "check raised:\n" + traceback.format_exc()
        if error:
            p.failures += 1
            print(f"perfbench: FAILED {job.name}: {error}", file=sys.stderr)
        else:
            for key, value in workload.job_stats(result).items():
                p.stats[key] = p.stats.get(key, 0) + value
    if tracer:
        p.last_span = tracer.span_count
    host.tick()
    p.raw = [(end - begin) / 1e9 for begin, end in intervals]
    p.latencies = [host.scaled_s(begin, end) for begin, end in intervals]
    return p


def run_workload(args) -> int:
    host = HostClock(CALIBRATE_EVERY_S)
    host.start()
    try:
        return measure(args, host)
    finally:
        host.stop()


def measure(args, host: HostClock) -> int:
    begin = host.now()
    cm, cli, oracles = load_program()
    imports = (begin, host.now())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = None
    if args.trace:
        tracer = Tracer(host.now)
        tracer.install(traced_targets(), "cmstruct")
    errors: list[str] = []
    workload = WORKLOADS[args.workload](cm, cli, oracles, args.seed, workdir)
    try:
        # Set-up: build the inputs several times (they must come out equal),
        # check them once, then one warm-up pass that leaves the reference
        # output for every timed pass. Set-up counts the program's work:
        # imports, the median build and the warm-up pass's jobs, but not the
        # benchmark's checks of their output.
        builds, setup_phases, fingerprints = [], [], []
        for _ in range(SETUP_REPS):
            first = tracer.span_count if tracer else 0
            begin = host.now()
            if tracer:
                tracer.on = True
            fingerprints.append(workload.build())
            if tracer:
                tracer.on = False
                setup_phases.append((first, tracer.span_count))
            builds.append((begin, host.now()))
        if any(f != fingerprints[0] for f in fingerprints):
            errors.append("set-up built different inputs from the same seed")
        errors += workload.self_check()
        warm = run_pass(host, workload, workload.warmup_jobs(), True, None, False)
        setup_s = (host.scaled_s(*imports)
                   + statistics.median(host.scaled_s(*b) for b in builds)
                   + sum(warm.latencies))
        # Objects that live through every pass (inputs, jobs, references)
        # are moved out of the collector's reach.
        gc.collect()
        gc.freeze()

        passes: list[Pass] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            traced = tracer is not None and len(passes) % 2 == 1
            passes.append(run_pass(host, workload, workload.jobs, False, tracer, traced))
            took = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and time.perf_counter() + took > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    walls = [sum(p.latencies) for p in plain]
    attempted = sum(len(p.latencies) for p in [warm, *passes])
    failed = sum(p.failures for p in [warm, *passes])
    stats = [p.stats for p in passes]
    if any(s != stats[0] for s in stats):
        errors.append(f"per-pass program counts differ between passes: {stats}")
    # Each job's latency is its median over the timed passes, which are
    # spread over the whole run; the percentiles are then taken over jobs.
    # A percentile of a single pass jumps between neighbouring jobs of
    # different sizes whenever host noise reorders them.
    job_ms = [statistics.median(p.latencies[i] for p in plain) * 1e3
              for i in range(len(workload.jobs))]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "job_p50_ms": statistics.median(job_ms),
        "job_p95_ms": statistics.quantiles(job_ms, n=20, method="inclusive")[18],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    kernel_ms = [k * 1e3 for k in host.kernel_s]
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} timed passes of "
          f"{len(workload.jobs)} jobs; pass times (s), scaled: "
          + " ".join(f"{w:.3f}" for w in walls) + "; as measured: "
          + " ".join(f"{sum(p.raw):.3f}" for p in plain))
    print(f"host speed: {len(kernel_ms)} kernel samples, median "
          f"{statistics.median(kernel_ms):.4f} ms, range {min(kernel_ms):.4f}-"
          f"{max(kernel_ms):.4f} ms; times are scaled to {REF_S * 1e3:g} ms")
    print(f"failed_ratio {failed / attempted} ({failed} of {attempted} jobs)")
    print(f"undecided {stats[0].get('undecided', 0)} count")
    if tracer:
        declared = spec["per_layer"]
        values.update(layer_metrics(tracer, setup_phases, passes, stats[0], walls, errors,
                                    args.workload))
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.tsv"
        tracer.write(trace_path)
        print(f"spans: {tracer.span_count} written to {trace_path.relative_to(ROOT)}")
    else:
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]} {m['unit']}")
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(tracer, setup_phases, passes, stats, plain_walls, errors, workload):
    """Per-layer figures for one set-up build plus one pass.

    Counts must repeat exactly between builds and between traced passes;
    self times are medians over them.
    """
    traced = [p for p in passes if p.traced]
    setups = [tracer.summary(a, b) for a, b in setup_phases]
    runs = [tracer.summary(p.first_span, p.last_span) for p in traced]
    values: dict[str, float] = {}
    for owner_name, attr, expected in TRACED:
        name = f"{owner_name}.{attr}"
        for phase in (setups, runs):
            if any(s[name][0] != phase[0][name][0] for s in phase):
                errors.append(f"{name}: call count differs between repetitions")
        calls = setups[0][name][0] + runs[0][name][0]
        if workload in expected and calls == 0:
            errors.append(f"{name}: no traced calls on {workload}; a binding was missed")
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = (
            statistics.median(s[name][1] for s in setups)
            + statistics.median(r[name][1] for r in runs)
        ) / 1e9
    total = tracer.summary(0, tracer.span_count)
    fmc = tracer.names.index("search.find_mono_cm")
    calls = total["search.find_mono_cm"][0]
    values["search.find_mono_cm.hit_ratio"] = tracer.hits[fmc] / calls if calls else 0.0
    search_ns = statistics.median(
        r["search.search_avoider"][2] + r["search.ramsey_cm"][2] for r in runs
    )
    nodes = stats.get("nodes", 0)
    values["search.nodes"] = nodes
    values["search.nodes_per_s"] = nodes / (search_ns / 1e9) if search_ns else 0.0
    values["trace.overhead_ratio"] = (
        statistics.median(sum(p.latencies) for p in traced) / statistics.median(plain_walls)
    )
    return values


def run_all(args) -> int:
    """Each workload in a fresh process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            return child.returncode
        result = json.loads(child.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
