"""dtvertex benchmark: CLI workloads timed end to end, and per module when traced.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout that holds src/dtvertex; nothing is
installed or built.  Each invocation launches `dtvertex.cli.main` in a
fresh interpreter (perfbench/worker.py) with `--jobs 1`, so the module
memos start empty, as they do for a user.  Closed loop: one caller, one
invocation at a time, repeated until --seconds have passed (at least
MIN_INVOCATIONS times).  Every report is checked: exit code 0, verdict
`confirmed`, the echoed seed, the report bytes against a recorded
digest, the number of partition rows and, for cache workloads, the
cache file contents.

solve_s and setup_s are normalized to a reference host speed
(perfbench/pace.py): a fixed kernel is timed while main runs and just
before and after each spawn, and each wall time is scaled by the host
speed it shows.  The raw wall times of main are printed alongside.

With --trace 0 the end-to-end metrics are printed; with --trace 1
untraced and traced invocations alternate, and the per-layer metrics
come from spans recorded around the package's functions from outside
(perfbench/tracer.py).  Metric names and units are those listed in
BENCHMARK.json at the checkout root.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.

The seed is forwarded to the CLI's --seed; it changes no input of these
workloads, whose reports are fixed, so it only shows up as the echoed
seed that the check expects.  Cache files live in a temporary
directory under the checkout root that is removed on exit, and
DTVERTEX_CACHE_DIR is removed from the child environment.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import pace

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_INVOCATIONS = 2
SETUP_SPAWNS = 10
INVOCATION_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    argv: tuple  # CLI arguments, without --jobs, --seed and --cache
    digest: str  # sha256 of the report with its echoed seed line removed
    rows: int  # partition rows the report must hold
    trace_expect: dict  # counts every traced invocation must show
    warmup: tuple  # untimed invocation: compiles .pyc, warms the file cache
    cache: str = ""  # "cold": fresh empty file per invocation; "warm": filled once
    fill: tuple = ()  # invocation that fills the warm cache


# Why each workload is here is stated in BENCHMARK.json.
WORKLOADS = {
    "fourk-d8-cold": Workload(
        argv=("check", "fourk", "-d", "8", "-n", "5"),
        digest="8b9092067ee0a52474dff6913435344d38f04a99f3642c0f52a4a34d27ea8585",
        rows=34,
        trace_expect={"forms.euler_class.calls": 34, "cache.misses": 34, "cache.hits": 0},
        warmup=("check", "fourk", "-d", "4", "-n", "2"),
        cache="cold",
    ),
    "keyconj-d12": Workload(
        argv=("check", "keyconj", "-d", "12", "-n", "3"),
        digest="57b1fc8c1ed3366e835f984e23ee5d84bd7b67c6022bdaa74a806259d5ecf56e",
        rows=91,
        trace_expect={"kclass.vertex.calls": 91, "forms.euler_class.calls": 0},
        warmup=("check", "keyconj", "-d", "4", "-n", "2"),
    ),
    "omega-d8-warm": Workload(
        argv=("check", "omega", "-d", "8", "-n", "5"),
        digest="c31ba08b1f90a19e2e544ac4aef19e0a07b3491e3d49e99146368fc4b9ec0304",
        rows=34,
        trace_expect={"cache.hits": 34, "cache.misses": 0, "cache.stale": 0,
                      "forms.euler_class.calls": 0},
        warmup=("check", "omega", "-d", "4", "-n", "2"),
        cache="warm",
        fill=("check", "fourk", "-d", "8", "-n", "5"),
    ),
}

# Span names reported as <name>.calls and <name>.self_s.
CALLS_AND_SELF = [
    "forms.euler_class", "forms.sqrt_form_product", "forms.taut_factor",
    "forms.specialize", "forms.omega_from_specialized", "forms.compute_weight",
    "forms.vertex_fingerprint", "ratpoly.poly_gcd", "kclass.vertex",
    "kclass.cy_reduce", "kclass.cy_fixed_part", "kclass.check_key_conjecture",
    "partitions.enumerate_partitions", "partitions.canonical_representatives",
    "partitions.canonicalize_axes", "omega.omega_c", "omega.check_exp_identity",
    "cache.append",
]
# Span names reported as <name>.self_s only.
SELF_ONLY = [
    "cache.weight_from_record", "series.build_z_4k", "series.target_4k",
    "cli._prepare_weights", "cli._render",
]
COUNTS = [
    "forms.euler_class.factors", "kclass.vertex.terms",
    "partitions.enumerate_partitions.items",
]


class BenchError(Exception):
    """The benchmark could not run a workload at all."""


def clock():
    # CLOCK_MONOTONIC is system-wide, so readings compare across processes.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env.pop("DTVERTEX_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def report_digest(report_text, seed):
    """sha256 of the report without its echoed seed line, or None if absent."""
    seed_line = '\n "seed": %d,' % seed
    if report_text.count(seed_line) != 1:
        return None
    return hashlib.sha256(report_text.replace(seed_line, "", 1).encode()).hexdigest()


def cache_keys(path):
    keys = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                keys.append((rec["d"], rec["partition"]))
    return keys


def layer_metrics(summary, bytes_written):
    """Per-layer metrics of one traced invocation from its span summary."""
    spans, counts, edges = summary["spans"], summary["counts"], summary["edges"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    m = {}
    for name in CALLS_AND_SELF:
        s = spans.get(name, zero)
        m[name + ".calls"] = s["calls"]
        m[name + ".self_s"] = s["self_s"]
    for name in SELF_ONLY:
        m[name + ".self_s"] = spans.get(name, zero)["self_s"]
    for name in COUNTS:
        m[name] = counts.get(name, 0)
    m["cache.load_s"] = spans.get("cache.load", zero)["total_s"]
    m["cache.records_loaded"] = counts.get("cache.load.records_loaded", 0)
    # A lookup that found a record either verified it (hit) or recomputed
    # it (stale); weights computed straight from _prepare_weights had no
    # record (miss).
    m["cache.hits"] = edges.get("cache.get_weight>cache.weight_from_record", 0)
    m["cache.stale"] = edges.get("cache.get_weight>forms.compute_weight", 0)
    m["cache.misses"] = edges.get("cli._prepare_weights>forms.compute_weight", 0)
    m["cache.bytes_written"] = bytes_written
    return m


class Runner:
    """Launches worker processes for one workload run; owns its temp files."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.env = child_env()

    def spawn(self, worker_args):
        """Run the worker to completion.

        Returns (exit code or None on timeout, parsed last stdout line or
        None, wall seconds, clock reading just before the spawn, host-speed
        kernel times taken just before the spawn).
        """
        probe = pace.sample(pace.SETUP_PROBES)
        spawned = clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *worker_args],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=INVOCATION_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, None, clock() - spawned, spawned, probe
        wall = clock() - spawned
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            out = None
        if proc.returncode != 0 and proc.stderr:
            sys.stderr.write(proc.stderr[-2000:])
        return proc.returncode, out, wall, spawned, probe

    def cli_args(self, argv, cache):
        args = [*argv, "--jobs", "1", "--seed", str(self.seed)]
        return args + ["--cache", str(cache)] if cache else args

    def setup_sample(self):
        code, out, _, spawned, probe = self.spawn(["--setup-only"])
        if code != 0 or out is None:
            raise BenchError("the worker cannot import dtvertex")
        return setup_time(out, spawned, probe)

    def fill_warm_cache(self, wl):
        """Fill the warm cache once and verify it holds every report row."""
        path = self.workdir / "warm.jsonl"
        path.write_text("")
        code, out, _, _, _ = self.spawn(self.cli_args(wl.fill, path))
        if code != 0 or out is None:
            raise BenchError("filling the warm cache failed")
        report = json.loads(out["report"])
        want = sorted((report["dimension"], r["partition"]) for r in report["partitions"])
        if sorted(cache_keys(path)) != want or len(want) != wl.rows:
            raise BenchError("the warm cache is incomplete")
        return path

    def invoke(self, wl, run_id, traced, warm_path):
        """One timed invocation; returns its measurements and failure reason."""
        cache = None
        if wl.cache == "cold":
            cache = self.workdir / "cold.jsonl"
            cache.write_text("")
        elif wl.cache == "warm":
            cache = warm_path
        size_before = cache.stat().st_size if cache else 0
        worker_args = (["--trace", str(run_id)] if traced else []) + self.cli_args(wl.argv, cache)
        code, out, wall, spawned, probe = self.spawn(worker_args)
        inv = {"traced": traced, "solve_s": wall, "wall_s": wall, "setup_s": None,
               "rss_mb": None}
        if out is not None:
            inv.update(solve_s=out["solve_s"] * out["solve_speed"], wall_s=out["solve_s"],
                       setup_s=setup_time(out, spawned, probe), rss_mb=out["rss_kb"] / 1024.0)
        size_after = cache.stat().st_size if cache else 0
        inv["failure"] = self.check(wl, code, out, cache, size_before, size_after)
        if traced and out is not None and "trace" in out:
            inv["layers"] = layer_metrics(out["trace"], size_after - size_before)
            if inv["failure"] is None:
                inv["failure"] = check_trace(wl, inv["layers"])
        elif traced and inv["failure"] is None:
            inv["failure"] = "no trace returned"
        return inv

    def check(self, wl, code, out, cache, size_before, size_after):
        """None when the invocation's outputs are right, else the reason."""
        if code is None:
            return "timed out after %d s" % INVOCATION_TIMEOUT_S
        if code != 0 or out is None or out.get("code") != 0:
            return "exit code %s" % code
        text = out["report"]
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return "the report is not JSON"
        if report.get("verdict") != "confirmed":
            return "verdict %r" % report.get("verdict")
        digest = report_digest(text, self.seed)
        if digest is None:
            return "seed %d not echoed once" % self.seed
        if digest != wl.digest:
            return "report digest %s differs from the recorded one" % digest[:12]
        rows = report.get("partitions", [])
        if len(rows) != wl.rows:
            return "%d partition rows, expected %d" % (len(rows), wl.rows)
        if wl.cache == "cold":
            want = sorted((report["dimension"], r["partition"]) for r in rows)
            if sorted(cache_keys(cache)) != want:
                return "the cache does not hold one record per partition row"
        if wl.cache == "warm" and size_after != size_before:
            return "the warm cache was written to"
        return None


def setup_time(out, spawned, probe):
    """Spawn-to-import time, normalized by the probes taken around it."""
    return (out["imported_at"] - spawned) * pace.speed(probe + out["setup_probe"])


def check_trace(wl, layers):
    for name, want in sorted(wl.trace_expect.items()):
        if layers[name] != want:
            return "traced %s = %s, expected %s" % (name, layers[name], want)
    return None


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) of the values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def run_workload(wl, seed, seconds, trace, workdir):
    """Run one workload; returns (metrics by name, attempted, failed, notes)."""
    runner = Runner(seed, workdir)
    runner.spawn(runner.cli_args(wl.warmup, None))
    warm_path = runner.fill_warm_cache(wl) if wl.cache == "warm" else None
    setup = [runner.setup_sample() for _ in range(SETUP_SPAWNS)]
    invocations = []
    rounds = (False, True) if trace else (False,)
    min_invocations = len(rounds) if trace else MIN_INVOCATIONS
    start = clock()
    while len(invocations) < min_invocations or clock() - start < seconds:
        for traced in rounds:
            invocations.append(runner.invoke(wl, len(invocations), traced, warm_path))
    failures = [inv["failure"] for inv in invocations if inv["failure"]]
    for reason in failures:
        print("FAILED: %s" % reason, file=sys.stderr)
    plain = [inv for inv in invocations if not inv["traced"]]
    solve = [inv["solve_s"] for inv in plain]
    wall = [inv["wall_s"] for inv in plain]
    notes = {"solve_samples": solve, "solve_s": spread(solve),
             "wall_samples": wall, "wall_s": spread(wall)}
    if not trace:
        setup += [inv["setup_s"] for inv in plain if inv["setup_s"] is not None]
        rss = [inv["rss_mb"] for inv in plain if inv["rss_mb"] is not None]
        metrics = {
            "solve_s": statistics.median(solve),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
            "pass_ratio": (len(invocations) - len(failures)) / len(invocations),
        }
        return metrics, len(invocations), len(failures), notes
    traced = [inv for inv in invocations if inv["traced"]]
    layers = [inv["layers"] for inv in traced if "layers" in inv]
    if not layers:
        raise BenchError("no traced invocation returned spans")
    metrics = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(inv["solve_s"] for inv in traced) - statistics.median(solve)
    )
    return metrics, len(invocations), len(failures), notes


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def describe(name, metrics, attempted, failed, notes, units):
    print("workload %s: %d invocations, %d failed, fail_ratio %.4g"
          % (name, attempted, failed, failed / attempted))
    for key, what in (("solve", "solve_s (normalized)"), ("wall", "wall time of main")):
        q1, med, q3, rel = notes[key + "_s"]
        samples = notes[key + "_samples"]
        print("  untraced %s over %d: q1 %.4f  median %.4f  q3 %.4f  spread %.1f%%"
              % (what, len(samples), q1, med, q3, 100 * rel))
        print("    samples: %s" % " ".join("%.3f" % s for s in samples))
    for key in sorted(metrics):
        print("  %-45s %14.6g %s" % (key, metrics[key], units[key]))


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dtvertex" / "cli.py").is_file():
        print("error: no dtvertex sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    names = [args.workload] if args.workload != "all" else list(WORKLOADS)
    print("seed %d  commit %s  python %s  nproc %d  seconds %g  trace %d"
          % (args.seed, git_commit(), platform.python_version(), os.cpu_count(),
             args.seconds, args.trace))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        results = {}
        for name in names:
            results[name] = run_workload(
                WORKLOADS[name], args.seed, args.seconds, args.trace, workdir
            )
            if set(results[name][0]) != set(units):
                raise BenchError("metrics %s differ from BENCHMARK.json"
                                 % sorted(set(results[name][0]) ^ set(units)))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, (metrics, attempted, failed, notes) in results.items():
        describe(name, metrics, attempted, failed, notes, units)
        out["attempted"] += attempted
        out["failed"] += failed
        prefix = "" if len(names) == 1 else name + "."
        for key, value in metrics.items():
            out["metrics"][prefix + key] = {"value": value, "unit": units[key]}
    out["correct"] = out["failed"] == 0
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
