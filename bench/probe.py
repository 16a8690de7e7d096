"""Fresh-process probes started by run.py, one job per process.

    probe.py setup WORKLOAD SEED   set-up CPU seconds: import eplab, then
                                   one warm-up round (input building
                                   excluded)
    probe.py import                milliseconds to import eplab.cli beyond
                                   import numpy
    probe.py cli OUT ARGS...       eplab.cli.main(ARGS) under the tracer;
                                   spans go to OUT, the exit code is main's

Each prints one JSON object on its last stdout line (``cli`` prints the
eplab envelope instead).  Nothing heavy is imported before the clock starts.
"""

import json
import resource
import sys
from time import perf_counter, process_time


def cpu_seconds():
    """CPU seconds of this process and of the children it has waited for,
    as run.py counts them."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


def setup(workload, seed):
    t0 = cpu_seconds()
    import eplab  # noqa: F401

    t1 = cpu_seconds()
    from workloads import WORKLOADS

    w = WORKLOADS[workload](seed)
    w.prepare()
    t2 = cpu_seconds()
    for op in w.round_ops(0):
        op()
    t3 = cpu_seconds()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


def import_cli():
    t0 = perf_counter()
    import numpy  # noqa: F401

    t1 = perf_counter()
    import eplab.cli  # noqa: F401

    t2 = perf_counter()
    print(json.dumps({"import_ms": 1e3 * (t2 - t1), "numpy_ms": 1e3 * (t1 - t0)}))


def traced_cli(out, argv):
    import eplab.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.wrap("bench.op", eplab.cli.main)(argv)
    finally:
        tracer.uninstall()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 3:
        setup(argv[1], int(argv[2]))
        return 0
    if argv == ["import"]:
        import_cli()
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 2:
        return traced_cli(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
