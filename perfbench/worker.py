"""Run one dtvertex CLI invocation in this fresh interpreter and time it.

    python3 perfbench/worker.py [--setup-only | --trace RUN_ID] CLI_ARGS...

The runner sets PYTHONPATH to the checkout's src/ so that the package
is imported from source.  The last line of stdout is one JSON object:
  imported_at  CLOCK_MONOTONIC reading once `dtvertex.cli` is imported,
               comparable with the runner's reading taken before spawn
  setup_probe  host-speed kernel times taken right after the import
  code         return value of dtvertex.cli.main (also the exit code)
  report       the text main wrote to stdout
  solve_s      wall time of the call into main, less the probe's share
  solve_speed  mean host speed during the call (see perfbench/pace.py)
  rss_kb       ru_maxrss of this process
  trace        span summary (only with --trace)
"""

import sys
import time

import dtvertex.cli

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

# Imported after the timestamp, so that setup_s covers what a user pays.
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import pace  # noqa: E402


def main(argv):
    setup_probe = pace.sample(pace.SETUP_PROBES)
    if argv[:1] == ["--setup-only"]:
        print(json.dumps({"imported_at": IMPORTED_AT, "setup_probe": setup_probe}))
        return 0
    tracer = None
    if argv[:1] == ["--trace"]:
        from tracer import Tracer

        tracer = Tracer(int(argv[1]))
        tracer.install()
        argv = argv[2:]
    out = io.StringIO()
    sampler = pace.Sampler()
    saved, sys.stdout = sys.stdout, out
    sampler.start()
    try:
        start = time.perf_counter()
        code = dtvertex.cli.main(argv)
        solve_s = time.perf_counter() - start
    finally:
        sampler.stop()
        sys.stdout = saved
    result = {
        "imported_at": IMPORTED_AT,
        "setup_probe": setup_probe,
        "code": code,
        "report": out.getvalue(),
        "solve_s": solve_s - sampler.spent_s,
        "solve_speed": pace.speed(sampler.samples or pace.sample(1)),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
