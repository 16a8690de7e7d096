"""Spans and counts at eplab's layer boundaries, recorded from outside eplab.

:class:`Tracer` replaces each layer's functions by a wrapper everywhere an
eplab module binds them (``from .subspaces import range_basis`` makes a
second binding in ``eplab.products``, so patching ``eplab.subspaces`` alone
would miss it).  A wrapper records one span ``[name, parent, start, end]``
in memory; nothing is written until the run ends.  numpy's ``svd`` and
``eigvalsh`` are wrapped at ``numpy.linalg._linalg`` level as well, which
catches the SVDs hidden in ``norm(., 2)`` and ``cond``.

Pool workers forked while the tracer is installed inherit the wrappers,
start with an empty span list and dump it to ``worker_dir`` when they exit,
so :meth:`Tracer.collect_workers` brings their spans back.
"""

import functools
import hashlib
import inspect
import json
import multiprocessing.util
import os
import sys
from bisect import bisect_left
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = (
    "kernel", "subspaces", "predicates", "products", "structure",
    "generators", "fuzz", "matfile", "cli",
)
# methods that are layer boundaries but not module-level functions
_METHODS = (
    ("subspaces", "Subspace", "__post_init__"),
    ("structure", "BlockDecomposition", "b_compressed"),
)
CONSTRUCTION = "subspaces.Subspace.__post_init__"
SVD, SVD_REPEAT, EIGVALSH = "lapack.svd", "lapack.svd_repeat", "lapack.eigvalsh"


class Tracer:
    def __init__(self, worker_dir=None):
        self.spans = []
        self.stack = []
        self.factored = set()  # digests of matrices factored in this root span
        self.worker_dir = worker_dir
        self.installed = False
        self._undo = []

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if not stack:
                tracer.factored.clear()
            spans = tracer.spans
            record = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()

        return traced

    def _wrap_svd(self, fn):
        repeat, first = self.wrap(SVD_REPEAT, fn), self.wrap(SVD, fn)

        @functools.wraps(fn)
        def svd(a, *args, **kwargs):
            arr = np.asarray(a)
            digest = hashlib.blake2b(arr.tobytes(), digest_size=16).digest()
            key = (arr.shape, arr.dtype.str, digest)
            if key in self.factored:
                return repeat(a, *args, **kwargs)
            self.factored.add(key)
            return first(a, *args, **kwargs)

        return svd

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import numpy.linalg._linalg as linalg

        import eplab.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items() if n == "eplab" or n.startswith("eplab.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["eplab." + layer]
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                shared = any(vars(m).get(attr) is obj for m in modules if m is not mod)
                if not attr.startswith("_") or shared:
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for layer, cls_name, attr in _METHODS:
            cls = getattr(sys.modules["eplab." + layer], cls_name)
            self._patch(cls, attr, self.wrap(f"{layer}.{cls_name}.{attr}", cls.__dict__[attr]))

        svd = self._wrap_svd(linalg.svd)
        eigvalsh = self.wrap(EIGVALSH, linalg.eigvalsh)
        for owner in (linalg, np.linalg):
            self._patch(owner, "svd", svd)
            self._patch(owner, "eigvalsh", eigvalsh)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        self.installed = True

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self.installed = False

    # -- pool workers ----------------------------------------------------

    def _after_fork(self):
        if not self.installed:
            return
        self.spans, self.stack = [], []
        multiprocessing.util.Finalize(self, self._dump_worker, exitpriority=10)

    def _dump_worker(self):
        path = Path(self.worker_dir) / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")

    def collect_workers(self):
        """Span lists dumped by exited pool workers (files are removed)."""
        out = []
        if self.worker_dir is None:
            return out
        for path in sorted(Path(self.worker_dir).glob("worker-*.json")):
            out.append(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
        return out


def summarize(processes, ops, jobs):
    """Per-layer metrics from span lists, one list per process.

    Self time is a span's duration minus the time its direct children cover
    (children of one span never overlap: each process records one stack).
    ``jobs`` is the worker count the workload passes to ``run_suite``.
    """
    counts = Counter()
    self_s = Counter()
    lapack_s = 0.0
    generator_svds = 0
    suites, trials = [], []
    for spans in processes:
        covered = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, parent, start, end) in enumerate(spans):
            counts[name] += 1
            layer = name.split(".", 1)[0]
            self_s[layer] += end - start - covered[i]
            if layer == "lapack":
                lapack_s += end - start
                if name != EIGVALSH and parent >= 0 and spans[parent][0].startswith("generators."):
                    generator_svds += 1
            elif name == "fuzz.run_suite":
                suites.append((start, end))
            elif name == "fuzz.run_trial":
                trials.append((start, end))

    trials.sort()
    starts = [s for s, _ in trials]
    busy = wall = pool_start = 0.0
    for start, end in suites:
        lo = bisect_left(starts, start)
        inside = [t for t in trials[lo : bisect_left(starts, end, lo)] if t[1] <= end]
        busy += sum(e - s for s, e in inside)
        wall += end - start
        if inside:
            pool_start += inside[0][0] - start

    per_op = 1.0 / ops
    svds = counts[SVD] + counts[SVD_REPEAT]
    metrics = {
        "kernel.svd_calls_per_op": (svds * per_op, "count"),
        "kernel.repeat_svd_calls_per_op": (counts[SVD_REPEAT] * per_op, "count"),
        "kernel.eigvalsh_calls_per_op": (counts[EIGVALSH] * per_op, "count"),
        "kernel.lapack_ms_per_op": (1e3 * lapack_s * per_op, "ms"),
        "subspaces.constructions_per_op": (counts[CONSTRUCTION] * per_op, "count"),
        "generators.svd_calls_per_op": (generator_svds * per_op, "count"),
        "fuzz.parallel_efficiency": (busy / (jobs * wall) if wall else 0.0, "ratio"),
        "fuzz.pool_start_ms": (1e3 * pool_start / len(suites) if suites else 0.0, "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = (1e3 * self_s[layer] * per_op, "ms")
    return metrics, counts
