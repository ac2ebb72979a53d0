"""End-to-end and per-layer benchmark of gfinv.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli-cold,synth,check} --seed N \
        --seconds S --trace {0,1}

One client in a closed loop, no threads.  A run measures whole passes over
the workload's operations, each pass in a seeded random order, until S
seconds have passed and at least 40 verdicts are in (and, in process, at
least 4 passes).  The in-process workloads first run one untimed warm-up
pass.  Times are scaled to a fixed reference speed of the machine, gauged
between operations (see speed.py).  Every output is checked (see checks.py).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
passes alternate between traced and untraced, and the metrics are the
per-layer self times and counts, per traced pass, plus the tracing overhead.
Results and traces are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cli-cold", "synth", "check")
MIN_VERDICTS = 40
# In-process runs time every input at least this often: a tail quantile of
# `synth` rests on the samples of one slow input, and three were too few to
# keep it steady from run to run.
MIN_INPROCESS_PASSES = 4
SETUP_RUNS = 7
TAIL_PERCENTILES = (99, 90, 75)   # MIN_VERDICTS leaves 10 beyond p75
CHILD_CPU_LIMIT_S = 120
HASH_SEED = "0"

# (metric, unit, source, span); a metric is absent when its span's function is
# missing.  Sources: the span's self time or calls, the counter of the metric's
# own name (kept by the span's return hook), the CLI's own overhead, and the
# tracing overhead.
PER_LAYER = (
    ("cli.overhead_s", "s", "cli_overhead", None),
    ("program.parse_s", "s", "self", "program.parse"),
    ("algebra.poly_gcd_s", "s", "self", "algebra.poly_gcd"),
    ("algebra.poly_gcd_calls", "count", "calls", "algebra.poly_gcd"),
    ("algebra.normalize_s", "s", "self", "algebra.normalize"),
    ("algebra.normalize_calls", "count", "calls", "algebra.normalize"),
    ("algebra.series_expand_s", "s", "self", "algebra.series_expand"),
    ("algebra.mass_s", "s", "self", "algebra.mass"),
    ("algebra.shape_nonneg_s", "s", "self", "algebra.shape_nonneg"),
    ("semantics.char_functional_s", "s", "self", "semantics.char_functional"),
    ("semantics.char_functional_calls", "count", "calls", "semantics.char_functional"),
    ("semantics.restrict_s", "s", "self", "semantics.restrict"),
    ("semantics.mod_filter_s", "s", "self", "semantics.mod_filter"),
    ("synthesis.templates_tried", "count", "calls", "synthesis.build_system"),
    ("synthesis.build_system_s", "s", "self", "synthesis.build_system"),
    ("synthesis.equations", "count", "counter", "synthesis.build_system"),
    ("synthesis.equation_terms", "count", "counter", "synthesis.build_system"),
    ("synthesis.solve_system_s", "s", "self", "synthesis.solve_system"),
    ("synthesis.row_reduce_s", "s", "self", "synthesis.row_reduce"),
    ("synthesis.row_reduce_calls", "count", "calls", "synthesis.row_reduce"),
    ("synthesis.factor_poly_s", "s", "self", "synthesis.factor_poly"),
    ("synthesis.factor_poly_calls", "count", "calls", "synthesis.factor_poly"),
    ("synthesis.valuations", "count", "counter", "synthesis.solve_system"),
    ("synthesis.divergence_probe_s", "s", "self", "synthesis.divergence_probe"),
    ("invariant.certify_s", "s", "self", "invariant.certify"),
    ("invariant.certify_calls", "count", "calls", "invariant.certify"),
    ("invariant.verify_s", "s", "self", "invariant.verify"),
    ("invariant.exact_posterior_s", "s", "self", "invariant.exact_posterior"),
    ("oracle.kleene_iterate_s", "s", "self", "oracle.kleene_iterate"),
    ("trace.overhead_pct", "%", "overhead", None),
)


def pin_to_one_cpu():
    """Keep the run, and every process it starts, on the processor it
    started on, so the speed gauge samples the processor the timed work
    runs on.  The vCPUs of a shared host can differ in speed by half."""
    try:
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(os.sched_getaffinity(0))
    if cpu in os.sched_getaffinity(0):
        os.sched_setaffinity(0, {cpu})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def spawn(cmd, env, stdout_path: Path, stderr_path: Path):
    """Run a child to its end; returns (exit code, wall s, rusage)."""
    with open(stdout_path, "wb") as fo, open(stderr_path, "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                             stdout=fo, stderr=fe, preexec_fn=_limit_cpu)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, usage


def setup_seconds(workload: str, env, tmp: Path, gauge) -> tuple:
    """Median set-up time over fresh interpreters, after one that compiles:
    (scaled to the reference speed, as measured)."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload]
    times = []
    for i in range(SETUP_RUNS + 1):
        mark = gauge.mark()
        code, _, _ = spawn(cmd, env, tmp / "stdout", tmp / "stderr")
        if code != 0:
            raise RuntimeError("set-up probe failed: " + (tmp / "stderr").read_text())
        if i:
            times.append((float((tmp / "stdout").read_text()), mark))
    gauge.mark()
    return (statistics.median(t * gauge.scale(m) for t, m in times),
            statistics.median(t for t, _ in times))


class Passes:
    """Latencies, with the gauge's mark before each, and wall times of the
    timed passes."""

    def __init__(self, trace: bool, min_passes: int):
        self.trace = trace
        self.min_passes = min_passes
        self.latencies = []
        self.marks = []
        self.walls = {True: [], False: []}

    def traced_next(self) -> bool:
        return self.trace and len(self.walls[True]) <= len(self.walls[False])

    def done(self, seconds: float) -> bool:
        n = len(self.walls[True]) + len(self.walls[False])
        if self.trace and not (self.walls[True] and self.walls[False]):
            return False
        return (n >= self.min_passes and self.elapsed() >= seconds
                and len(self.latencies) >= MIN_VERDICTS)

    def elapsed(self) -> float:
        return sum(self.walls[True]) + sum(self.walls[False])


def run_inprocess(ops, rng, seconds, passes: Passes, gauge, tracer, checker, output_key):
    """Warm-up pass, then timed passes.  Only the first output of each
    distinct (operation, output) pair is kept, so the heap does not grow with
    the run; those are checked after the timed phase."""
    distinct, index, attempted = [], {}, []

    def keep(op, out):
        key = (op.name, output_key(out))
        if key not in index:
            index[key] = len(distinct)
            distinct.append((op, out))
        return index[key]

    for op in _order(ops, rng):
        keep(op, op.run())
    while not passes.done(seconds):
        traced = passes.traced_next()
        p0 = time.perf_counter()
        for op in _order(ops, rng):
            tracer.request += 1
            passes.marks.append(gauge.mark())
            tracer.active = traced
            t0 = time.perf_counter()
            out = op.run()
            t1 = time.perf_counter()
            tracer.active = False
            passes.latencies.append(t1 - t0)
            attempted.append(keep(op, out))
        passes.walls[traced].append(time.perf_counter() - p0)
    gauge.mark()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    status = [checker.check_inprocess(op, out) for op, out in distinct]
    return [(distinct[i][0], status[i]) for i in attempted], peak_mb


def run_cli(ops, rng, seconds, passes: Passes, gauge, checker, layers, tmp: Path):
    """Every operation is a fresh `python -m gfinv.cli` process."""
    env = child_env()
    traced_env = dict(env, PERFBENCH_TRACE_FILE=str(tmp / "trace.json"))
    plain = [sys.executable, "-m", "gfinv.cli"]
    traced_cmd = [sys.executable, str(HERE / "traced_cli.py")]
    results, peak_kb = [], 0
    while not passes.done(seconds):
        traced = passes.traced_next()
        p0 = time.perf_counter()
        for op in _order(ops, rng):
            cmd = (traced_cmd if traced else plain) + op.argv
            passes.marks.append(gauge.mark())
            code, wall, usage = spawn(cmd, traced_env if traced else env,
                                      tmp / "stdout", tmp / "stderr")
            passes.latencies.append(wall)
            peak_kb = max(peak_kb, usage.ru_maxrss)
            stdout = (tmp / "stdout").read_text()
            stderr = (tmp / "stderr").read_text()
            results.append((op, checker.check_cli(op, code, stdout, stderr)))
            if traced:
                layers.add_child(json.loads((tmp / "trace.json").read_text()),
                                 wall - _report_seconds(stdout))
        passes.walls[traced].append(time.perf_counter() - p0)
    gauge.mark()
    return results, peak_kb / 1024


def _report_seconds(stdout: str) -> float:
    """The time a CLI call reports for its own work (its `timing` fields)."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return 0.0
    return sum(report.get("timing", {}).values()) if isinstance(report, dict) else 0.0


def _order(ops, rng):
    order = list(ops)
    rng.shuffle(order)
    return order


class Layers:
    """Span summaries and counters gathered from traced children."""

    def __init__(self):
        self.summary = {}
        self.counters = {}
        self.missing = set()
        self.cli_overhead = 0.0
        self.children = []

    def add_child(self, data, overhead: float):
        self.children.append(data)
        self.cli_overhead += overhead
        self.missing.update(data["missing"])
        for name, s in data["summary"].items():
            acc = self.summary.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += s["calls"]
            acc["self_s"] += s["self_s"]
        for name, n in data["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + n


def per_layer(summary, counters, missing, cli_overhead, passes: Passes):
    n = len(passes.walls[True])
    traced = statistics.mean(passes.walls[True])
    plain = statistics.mean(passes.walls[False])
    metrics = {}
    for name, unit, source, arg in PER_LAYER:
        if arg in missing:
            continue
        if source == "self":
            value = summary.get(arg, {}).get("self_s", 0.0) / n
        elif source == "calls":
            value = summary.get(arg, {}).get("calls", 0) / n
        elif source == "counter":
            value = counters.get(name, 0) / n
        elif source == "cli_overhead":
            value = cli_overhead / n
        else:
            value = 100.0 * (traced / plain - 1.0)
        if unit == "count" and float(value).is_integer():
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def timings(setup_s, lat):
    """setup_s, verdict_p50_s, verdict_tail_s and inputs_per_s of one list
    of latencies, with the percentile the tail is."""
    lat = sorted(lat)
    n = len(lat)
    p = next(p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10)
    return p, {
        "setup_s": setup_s,
        "verdict_p50_s": statistics.median(lat),
        "verdict_tail_s": statistics.quantiles(lat, n=100, method="inclusive")[p - 1],
        "inputs_per_s": n / sum(lat),
    }


def end_to_end(setup, passes: Passes, gauge, peak_mb):
    scaled = [t * gauge.scale(m) for t, m in zip(passes.latencies, passes.marks)]
    p, values = timings(setup[0], scaled)
    _, raw = timings(setup[1], passes.latencies)
    print(f"verdict_tail_s is the p{p} of {len(scaled)} verdicts "
          f"({sum(1 for x in scaled if x > values['verdict_tail_s'])} beyond it)")
    print(f"one speed sample took {gauge.median_sample_s():.6f} s (reference "
          f"{speed.REFERENCE_S} s); as measured: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    units = {"setup_s": "s", "verdict_p50_s": "s", "verdict_tail_s": "s", "inputs_per_s": "1/s"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    return metrics, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # gfinv's work depends on the iteration order of sets of strings, so
        # every process of a run uses the same string hashes (see README)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    if not (ROOT / "src" / "gfinv").is_dir() or not (ROOT / "benchmarks").is_dir():
        print("perfbench: error: run from a gfinv checkout: src/gfinv/ and benchmarks/ "
              "are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp)


def measure(args, tmp: Path) -> int:
    import checks
    import inputs
    from tracer import Tracer

    trace = bool(args.trace)
    setup = None if trace else setup_seconds(args.workload, child_env(), tmp, speed.Gauge())
    gauge = speed.Gauge()
    ops = inputs.build(args.workload)
    rng = random.Random(args.seed)
    checker = checks.Checker()
    passes = Passes(trace, 1 if args.workload == "cli-cold" else MIN_INPROCESS_PASSES)
    tracer = Tracer()
    layers = Layers()
    if args.workload == "cli-cold":
        results, peak_mb = run_cli(ops, rng, args.seconds, passes, gauge, checker, layers, tmp)
    else:
        import gfinv.cli  # noqa: F401  (load every layer before wrapping)
        if trace:
            tracer.install()
        results, peak_mb = run_inprocess(ops, rng, args.seconds, passes, gauge, tracer,
                                         checker, checks.output_key)

    missed = checks.self_test(checker, inputs.load_corpus())
    wrong = [(op.name, s) for op, s in results if s.startswith("wrong")]
    failed = [op for op, s in results if s == "failed"]
    print(f"workload {args.workload}: {len(results)} operations attempted, "
          f"{len(failed)} failed, {len(wrong)} wrong, "
          f"{len(passes.walls[True]) + len(passes.walls[False])} passes")
    for name, fault in sorted({(op.name, op.fault) for op in failed}):
        print(f"  failed (known fault): {name}: {fault}")
    for name, why in sorted(set(wrong)):
        print(f"  WRONG: {name}: {why}")
    print("self-test of the checks: " + ("both wrong results flagged" if not missed
                                         else "NOT FLAGGED: " + "; ".join(missed)))

    if trace:
        if args.workload == "cli-cold":
            summary, counters, missing = layers.summary, layers.counters, layers.missing
            trace_data = {"children": layers.children}
        else:
            summary, counters, missing = tracer.summary(), tracer.counters, set(tracer.missing)
            trace_data = tracer.data()
        metrics = per_layer(summary, counters, missing, layers.cli_overhead, passes)
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(trace_data, fh)
    else:
        metrics, raw = end_to_end(setup, passes, gauge, peak_mb)

    result = {"correct": not wrong and not missed, "attempted": len(results),
              "failed": len(failed), "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(dict(result, measured=None if trace else raw,
                       speed_sample_s=gauge.median_sample_s()), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
