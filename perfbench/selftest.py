"""Self-test of the benchmark runner at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Runs tiny versions of the three workload shapes (cold cache, no cache,
warm cache) untraced and traced, and checks that every metric named in
BENCHMARK.json is emitted and nothing fails.  Then checks that a wrong
report digest, a non-zero exit and a traced count that disagrees with
the report each count as failed invocations, and that the runner exits
non-zero without a result where there are no dtvertex sources.  Exits 0
when every check holds.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace

import run

FOURK = ("check", "fourk", "-d", "4", "-n", "2")
TINY = {
    "fourk-d4-cold": run.Workload(
        argv=FOURK,
        digest="f68647f40d172d4cfeac83b199d5add6e9cf64ccf0726b4af89d97f6b4bd1305",
        rows=3,
        trace_expect={"forms.euler_class.calls": 3, "cache.misses": 3},
        warmup=FOURK,
        cache="cold",
    ),
    "keyconj-d4": run.Workload(
        argv=("check", "keyconj", "-d", "4", "-n", "2"),
        digest="d0f9b80350e4b8c6bb38f33ddb4a3d4777f2261902bf3ebff3376e939d8c9cd1",
        rows=5,
        trace_expect={"kclass.vertex.calls": 5, "forms.euler_class.calls": 0},
        warmup=FOURK,
    ),
    "omega-d4-warm": run.Workload(
        argv=("check", "omega", "-d", "4", "-n", "2"),
        digest="77ba33e65e4b214d4cc1e697dfdd580d18b4a56d68e15f3b409d4bc4ba34dd62",
        rows=3,
        trace_expect={"cache.hits": 3, "cache.misses": 0, "forms.euler_class.calls": 0},
        warmup=FOURK,
        cache="warm",
        fill=FOURK,
    ),
}


def main():
    spec = run.load_spec()
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(cond, what):
        print("%s  %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            problems.append(what)

    workdir = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=run.ROOT)
    bare = tempfile.mkdtemp(prefix=".perfbench-selftest-bare-", dir=run.ROOT)
    try:
        for name, wl in TINY.items():
            for trace in (0, 1):
                metrics, attempted, failed, _ = run.run_workload(wl, 5, 0, trace, workdir)
                expect(set(metrics) == names[trace],
                       "%s trace %d emits every BENCHMARK.json metric" % (name, trace))
                expect(failed == 0 and attempted >= 2, "%s trace %d: %d of %d failed"
                       % (name, trace, failed, attempted))
                if not trace:
                    expect(metrics["pass_ratio"] == 1.0, "%s pass_ratio is 1" % name)

        faults = {
            "wrong digest": (replace(TINY["fourk-d4-cold"], digest="0" * 64), 0),
            "non-zero exit": (replace(TINY["keyconj-d4"], argv=("check", "odd", "-d", "4", "-n", "2")), 0),
        }
        for what, (wl, trace) in faults.items():
            metrics, attempted, failed, _ = run.run_workload(wl, 5, 0, trace, workdir)
            expect(failed == attempted and metrics["pass_ratio"] == 0.0,
                   "%s fails every invocation (%d of %d)" % (what, failed, attempted))
        wl = replace(TINY["keyconj-d4"], trace_expect={"kclass.vertex.calls": 6})
        _, attempted, failed, _ = run.run_workload(wl, 5, 0, 1, workdir)
        expect(failed == attempted // 2,
               "a wrong traced count fails each traced invocation (%d of %d)" % (failed, attempted))

        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare + "/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "keyconj-d12",
                               "--seconds", "1"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        lines = proc.stdout.strip().splitlines()
        printed_result = bool(lines) and lines[-1].startswith("{") and "correct" in json.loads(lines[-1])
        expect(proc.returncode != 0 and not printed_result,
               "without sources the runner exits %d and prints no result" % proc.returncode)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(bare, ignore_errors=True)

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
