"""Layered benchmark for eplab: four workloads, one BLAS thread.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout that holds ``src/eplab``; eplab is imported from there.
With ``--trace 0`` a workload warms up, then runs whole rounds of ops for
``--seconds`` and reports the end-to-end metrics (ops_per_s, op_p50_ms,
peak_rss_mb, setup_s), timed in CPU seconds (see cpu_seconds) and, where
the workload is ``scaled``, scaled to the reference machine speed (see
reference_seconds and slowdown).  With ``--trace 1`` it runs a fixed number
of rounds untraced and then traced, and reports the per-layer metrics.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and metrics.
"""

import os

# One BLAS thread for this process and every process it starts; this has to
# be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time, thread_time  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, invoke  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
P90_MIN_OPS = 100  # at least ten samples beyond the 90th percentile
BLOCK_SECONDS = 1.0  # ops_per_s is the median rate over blocks this long
REFERENCE_SECONDS = 4.6e-4  # reference_seconds() on the reference machine, idle
REFERENCE_EVERY = 0.05  # wall seconds between reference samples


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy bundles, if found."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


class Result(NamedTuple):
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    failures: list  # what went wrong in the failed ops
    problems: list  # wrong answers; empty when the run is correct
    notes: list


def cpu_seconds():
    """CPU seconds used so far by this process and by the child processes
    it has waited for.  Where the kernel accounts steal time (Linux guests
    with paravirt time accounting), time the vCPU spent descheduled by the
    host is not in it; that is most of what moves a wall clock on a shared
    host."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


def steal_seconds():
    """Seconds the hypervisor has kept this machine's vCPUs from running,
    summed over them (the steal column of Linux's /proc/stat); None where
    that is not available."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


class Round(NamedTuple):
    wall: list  # per-op wall seconds
    cpu: list  # per-op CPU seconds (cpu_seconds)
    reference: list  # reference_seconds() samples taken between the ops
    wall_s: float  # the whole round
    cpu_s: float


class Loop(NamedTuple):
    rounds: list
    records: list
    errors: list  # tracebacks of the ops that raised; they count as failed

    @property
    def ops(self):
        return sum(len(r.wall) for r in self.rounds)

    @property
    def wall(self):
        return sum(r.wall_s for r in self.rounds)

    @property
    def cpu(self):
        return sum(r.cpu_s for r in self.rounds)


_REFERENCE = []


def _reference_pass():
    for m in _REFERENCE:
        np.linalg.svd(m, compute_uv=False)
        np.linalg.norm(m @ m.conj().T - m.conj().T @ m)
        np.linalg.eigvalsh(m + m.conj().T)


def reference_seconds():
    """Thread CPU seconds of one pass of fixed numpy work that eplab takes
    no part in: singular values, a commutator norm and Hermitian eigenvalues
    of nine small complex matrices.  An untimed pass first refills the
    caches that the op, or the child process it waited for, left cold.  The
    garbage collector is off meanwhile, so garbage the ops left behind is
    not collected on its time."""
    if not _REFERENCE:
        rng = np.random.default_rng(0)
        _REFERENCE.extend(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (3, 5, 8) * 3
        )
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_pass()
        t0 = thread_time()
        _reference_pass()
        return thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def run_rounds(w, seconds=None, rounds=None, wrap=None, trace_dir=None, reference=False):
    """Whole rounds until ``seconds`` of wall time have passed or ``rounds``
    are done.  With ``reference``, a reference_seconds() sample is taken
    after an op whenever REFERENCE_EVERY seconds have passed since the last."""
    loop = Loop([], [], [])
    start = next_reference = perf_counter()
    r = 0
    while True:
        r_wall, r_cpu = perf_counter(), cpu_seconds()
        walls, cpus, samples = [], [], []
        ops = w.round_ops(r, trace_dir)
        for op in ops:
            if wrap is not None:
                op = wrap(op)
            t0, c0 = perf_counter(), cpu_seconds()
            try:
                record = op()
            except Exception:
                loop.errors.append(traceback.format_exc(limit=3))
            else:
                loop.records.append(record)
            cpus.append(cpu_seconds() - c0)
            walls.append(perf_counter() - t0)
            if reference and perf_counter() >= next_reference:
                samples.append(reference_seconds())
                next_reference = perf_counter() + REFERENCE_EVERY
        loop.rounds.append(Round(walls, cpus, samples, perf_counter() - r_wall, cpu_seconds() - r_cpu))
        r += 1
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return loop


def blocks(rounds, clock):
    """Consecutive rounds grouped into blocks at least BLOCK_SECONDS long by
    ``clock`` ("wall_s" or "cpu_s"); a shorter tail joins the last block."""
    out, block, took = [], [], 0.0
    for r in rounds:
        block.append(r)
        took += getattr(r, clock)
        if took >= BLOCK_SECONDS:
            out.append(block)
            block, took = [], 0.0
    if block:
        if out:
            out[-1] += block
        else:
            out.append(block)
    return out


def slowdown(block):
    """How much slower than the reference machine the block ran: the median
    reference sample over REFERENCE_SECONDS; 1 without samples."""
    samples = [x for r in block for x in r.reference]
    return statistics.median(samples) / REFERENCE_SECONDS if samples else 1.0


def rate_and_latencies(rounds, wall_clock, scaled=True):
    """ops_per_s, the median over blocks of ops per second, and the sorted
    per-op milliseconds, timed by the wall clock or in CPU seconds.  When
    ``scaled``, each block's figures are scaled by its slowdown() to read
    as they would at the reference speed."""
    clock = "wall_s" if wall_clock else "cpu_s"
    rates, ms = [], []
    for block in blocks(rounds, clock):
        factor = slowdown(block) if scaled else 1.0
        ops = sum(len(r.wall) for r in block)
        rates.append(factor * ops / sum(getattr(r, clock) for r in block))
        ms += [1e3 * x / factor for r in block for x in (r.wall if wall_clock else r.cpu)]
    return statistics.median(rates), sorted(ms)


def probe(*args):
    """Run bench/probe.py in a fresh process; returns its JSON result."""
    code, out = invoke([sys.executable, str(BENCH / "probe.py"), *args])
    if code != 0:
        raise RuntimeError(f"probe {args} exited with {code}")
    return json.loads(out.splitlines()[-1])


def setup_seconds(w):
    """Median set-up CPU time: the first, untimed op when ops are cold
    processes (cli_files); otherwise import eplab plus one warm-up round,
    each sample in a fresh process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        if w.cold_ops:
            c0 = cpu_seconds()
            w.round_ops(0)[0]()
            samples.append(cpu_seconds() - c0)
        else:
            samples.append(probe("setup", w.name, str(w.seed))["setup_s"])
    return statistics.median(samples)


def peak_rss_mb(children):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def verdict(w, records, errors):
    failures, problems = w.check(records)
    return len(errors) + len(failures), errors + failures, problems


def timed(w, seconds):
    w.prepare()
    if w.cold_ops:
        setup = setup_seconds(w)  # these invocations are its warm-up too
    else:
        for op in w.round_ops(0):
            op()
    if w.scaled:
        reference_seconds()  # builds its matrices
    steal = steal_seconds()
    loop = run_rounds(w, seconds=seconds, reference=w.scaled)
    if steal is not None:
        steal = steal_seconds() - steal
    rss = peak_rss_mb(w.children)
    failed, failures, problems = verdict(w, loop.records, loop.errors)
    if not w.cold_ops:
        setup = setup_seconds(w)
    rate, ms = rate_and_latencies(loop.rounds, w.wall_clock)
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup, "s"),
    }
    clock = "wall" if w.wall_clock else "CPU"
    notes = [f"{len(ms)} ops in {loop.wall:.2f} s wall, {loop.cpu:.2f} s CPU; timed in {clock} seconds"]
    if w.scaled:
        factors = [slowdown(b) for b in blocks(loop.rounds, "cpu_s")]
        raw_rate, raw_ms = rate_and_latencies(loop.rounds, w.wall_clock, scaled=False)
        notes.append(
            f"scaled to the reference speed; slowdown median {statistics.median(factors):.4g}, "
            f"range {min(factors):.4g}-{max(factors):.4g} over {len(factors)} blocks; "
            f"unscaled: ops_per_s = {raw_rate:.6g}, op_p50_ms = {statistics.median(raw_ms):.6g}"
        )
    wall_rate, wall_ms = rate_and_latencies(loop.rounds, True, scaled=False)
    notes.append(f"wall clock, unscaled: ops_per_s = {wall_rate:.6g}, op_p50_ms = {statistics.median(wall_ms):.6g}")
    if steal is not None:
        vcpus = os.cpu_count() or 1
        notes.append(f"host steal: {100 * steal / (loop.wall * vcpus):.2g}% of {vcpus} vCPUs' time during the loop")
    if len(ms) >= P90_MIN_OPS:
        notes.append(f"op_p90_ms = {statistics.quantiles(ms, n=10)[-1]:.6g} ms")
    else:
        notes.append(f"op_p90_ms not reported: {len(ms)} ops < {P90_MIN_OPS}")
    return Result(metrics, len(ms), failed, failures, problems, notes)


def traced(w, seed):
    w.prepare()
    for op in w.round_ops(0)[:1] if w.cold_ops else w.round_ops(0):
        op()
    plain = run_rounds(w, rounds=w.trace_rounds)

    trace_dir = OUT / f"trace-tmp-{os.getpid()}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(worker_dir=str(trace_dir))
    tracer.install()
    try:
        loop = run_rounds(
            w, rounds=w.trace_rounds, wrap=lambda op: tracer.wrap("bench.op", op),
            trace_dir=str(trace_dir),
        )
    finally:
        tracer.uninstall()
    processes = [tracer.spans] + tracer.collect_workers()
    for path in sorted(trace_dir.glob("cli-*.json")):
        processes.append(json.loads(path.read_text(encoding="utf-8")))
    shutil.rmtree(trace_dir)

    metrics, counts = summarize(processes, ops=loop.ops, jobs=w.jobs)
    imports = [probe("import")["import_ms"] for _ in range(IMPORT_REPEATS)]
    metrics["cli.import_ms"] = (statistics.median(imports), "ms")
    plain_wall, wall = plain.wall, loop.wall
    metrics["trace.overhead_ratio"] = (plain_wall / wall, "ratio")

    failed, failures, problems = verdict(w, plain.records + loop.records, plain.errors + loop.errors)
    path = OUT / f"trace-{w.name}-{seed}.json"
    path.write_text(json.dumps({
        "workload": w.name, "seed": seed, "ops": loop.ops,
        "counts": dict(sorted(counts.items())), "processes": processes,
    }), encoding="utf-8")
    notes = [f"{loop.ops} traced ops in {wall:.2f} s, untraced {plain_wall:.2f} s; spans in {path}"]
    return Result(metrics, plain.ops + loop.ops, failed, failures, problems, notes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "eplab" / "__init__.py").is_file():
        print(f"bench: no eplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    print("environment: " + json.dumps(environment()), flush=True)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        w = WORKLOADS[name](args.seed)
        try:
            if args.trace:
                result = traced(w, args.seed)
            else:
                result = timed(w, args.seconds)
        finally:
            getattr(w, "cleanup", lambda: None)()
        attempted += result.attempted
        failed += result.failed
        correct = correct and not result.problems
        print(f"{name}: attempted={result.attempted} failed={result.failed} "
              f"correct={str(not result.problems).lower()} seed={args.seed}")
        for line in result.notes:
            print(f"  {line}")
        for metric, (value, unit) in result.metrics.items():
            print(f"  {metric} = {value:.6g} {unit}")
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = {"value": value, "unit": unit}
        for line in (result.failures + result.problems)[:20]:
            print(f"{name}: {line}", file=sys.stderr)
        sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
