"""Record eplab's CLI outputs from one checkout, or compare two recordings.

    python tools/outputs.py [--src DIR] OUT.jsonl   # eplab from DIR, default ./src
    python tools/outputs.py --compare A.jsonl B.jsonl
    python tools/outputs.py [--src DIR] --digest tests/outputs_digest.json

A recording is one JSON line per run of :func:`_runs`.  Its input files go
to OUT.inputs, named relative to it, so paths echo alike from any checkout.
Comparing matches the two runs of each key leaf by leaf, by key path (list
items by index), and prints each changed float field with its count, runs
and largest |change|, then every other changed leaf (flags, counts, exit
codes, text), and leaves present in one run only.

A digest holds the runs of ``_runs(**DIGEST_RUNS)`` (every classify,
product, decompose and truncate run, and the fuzz runs at one seed and
fewer trials), each as its leaf values in order and a hash of its key
paths.  Checking replays those runs in process and compares them with the
digest as comparing does, except that a float moved by more than
``DIGEST_TOL`` fails too; tests/test_outputs.py does so in tier-1.  A
change that moves an output writes the digest again.
"""

import argparse, contextlib, hashlib, io, itertools, json, math, os, re, sys  # noqa: E401
import tempfile
from pathlib import Path

import numpy as np

SUITES = ("block_kernels collapse commuting_ep commuting_posinormal group_invertible "
          "hartwig_katz invariant_range johnson_vinoth powers same_kernel").split()
FAMILIES = ("tilted_projections", "shift_block", "weighted_shift")
DIGEST_RUNS = {"seeds": ("20260810",), "trials": "12"}
DIGEST_TOL = (1e-12, 1e-9)  # |change| <= 1e-12 + 1e-9 |digest's float|


def _write(name, m):
    fields = (" ".join(f"{float(z.real)!r}:{float(z.imag)!r}" for z in row) for row in m)
    rows = "".join(f"{line}\n" for line in fields)
    Path(name).write_text(f"cmat 1 {m.shape[0]} {m.shape[1]}\n{rows}")
    return name


def _random_pairs():
    """(name, A, B) in one frame U: A = U (I ⊕ 0) U* against B = U (B' ⊕ Z) U*
    (rank-one B', Z), a same-kernel pair, EP U (C ⊕ 0) U* against a Gaussian."""
    for n, seed in itertools.product(range(3, 8), range(4)):
        rng = np.random.default_rng([n, seed])
        g = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u, k = np.linalg.qr(g(n, n))[0], n // 2
        a, b, c = (np.zeros((n, n), complex) for _ in range(3))
        a[:k, :k], c[:k, :k] = np.eye(k), g(k, k)
        b[:k, :k], b[k:, k:] = g(k, 1) @ g(1, k), g(n - k, 1) @ g(1, n - k)
        yield f"commuting{n}_{seed}", u @ a @ u.conj().T, u @ b @ u.conj().T
        v = np.linalg.qr(g(n, n))[0][:, : n - 1].conj().T
        yield f"same_kernel{n}_{seed}", g(n, n - 1) @ v, g(n, n - 1) @ v
        yield f"ep_gaussian{n}_{seed}", u @ c @ u.conj().T, g(n, n)


def _runs(seeds=("20260810", "7"), trials="300"):
    """classify, product and decompose on the catalog's matrices, their ordered
    pairs and the random pairs; every fuzz suite at each seed, two subspace
    tolerances and --jobs 1 and 2, and three at a fine rank multiplier;
    truncate for each family; then the range edges: classify, product and
    decompose on each catalog pair scaled by 2**-1040 (subnormal) and 2**1000,
    and classify on a matrix of finite entries whose largest singular value
    overflows."""
    files = []
    for name in json.loads(_call(["catalog"])[1])["result"]["names"]:
        emitted = _call(["catalog", name, "--emit", "--out", "."])[1]
        files += json.loads(emitted)["result"]["files"]
    pairs = list(itertools.product(files, repeat=2))
    for name, a, b in _random_pairs():
        pairs.append((_write(f"{name}_a.cmat", a), _write(f"{name}_b.cmat", b)))
        files += pairs[-1]
    yield from (["classify", f] for f in files)
    for command in ("product", "decompose"):
        yield from ([command, a, b] for a, b in pairs)
    grid = itertools.product(SUITES, seeds, ("1e-8", "1e-15"), "12")
    for suite, seed, tol, jobs in grid:
        yield ["--tol-subspace", tol, "fuzz", suite, "--seed", seed,
               "--trials", trials, "--dims", "2:8", "--jobs", jobs]
    # a rank threshold below roundoff fails hartwig_katz checks, as no run above does
    grid = itertools.product(("block_kernels", "commuting_ep", "hartwig_katz"), "12")
    for suite, jobs in grid:
        yield ["--tol-rank-mult", "1e-3", "fuzz", suite, "--seed", seeds[0],
               "--trials", trials, "--dims", "2:8", "--jobs", jobs]
    yield from (["truncate", family, "--dims", "2:24"] for family in FAMILIES)
    from eplab import catalog, catalog_names

    for name, k in itertools.product(catalog_names(), (-1040, 1000)):
        pair, stem = catalog(name), f"{name}_2^{k}"
        a, b = _write(f"{stem}_a.cmat", 2.0**k * pair.a), _write(f"{stem}_b.cmat", 2.0**k * pair.b)
        yield from (["classify", a], ["classify", b], ["product", a, b], ["decompose", a, b])
    yield ["classify", _write("sigma1_overflow.cmat", 2.0**1023 * np.ones((2, 2)))]


def _call(argv):
    from eplab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _record(argv):
    code, out, err = _call(argv)
    record = {"key": " ".join(argv), "exit": code, "stderr": err}
    record["stdout"] = json.loads(out) if out else None
    return record


def _leaves(x, path=""):
    """(key path, value) of each leaf of ``x``, list items by index."""
    if isinstance(x, dict):
        for key in x:
            yield from _leaves(x[key], f"{path}.{key}")
    elif isinstance(x, list):
        yield f"{path}.len", len(x)
        for i, item in enumerate(x):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, x


class _Absent:
    def __repr__(self):
        return "<absent>"


_ABSENT = _Absent()  # the value of a leaf one of two runs lacks


def _paths_hash(leaves):
    return hashlib.sha256("\n".join(leaves).encode()).hexdigest()[:12]


def compare(path_a, path_b):
    a, b = ({r["key"]: dict(_leaves(r)) for r in map(json.loads, Path(p).read_text().splitlines())}
            for p in (path_a, path_b))
    return _report(a, b)


def _leaves_of_run(argv):
    """The leaves of ``argv``'s run, all but its key."""
    record = _record(argv)
    del record["key"]
    return dict(_leaves(record))


def write_digest(path):
    """Write the digest of ``_runs(**DIGEST_RUNS)``, made in the working
    directory, to ``path``: a JSON list of [key, key paths' hash, leaf
    values], one run a line."""
    runs = []
    for argv in _runs(**DIGEST_RUNS):
        leaves = _leaves_of_run(argv)
        runs.append([" ".join(argv), _paths_hash(leaves), list(leaves.values())])
    lines = (json.dumps(run, separators=(",", ":")) for run in runs)
    Path(path).write_text("[\n" + ",\n".join(lines) + "\n]\n")


def check_digest(path):
    """Replay the runs of the digest at ``path`` in the working directory and
    report them against it; 1 on a changed non-float leaf or set of runs, or
    a float moved beyond ``DIGEST_TOL``.  A run whose key paths changed is
    reported as a changed ``.paths`` hash."""
    digest = {key: (paths, values) for key, paths, values in json.loads(Path(path).read_text())}
    a, b = {}, {}
    for argv in _runs(**DIGEST_RUNS):
        key = " ".join(argv)
        b[key] = _leaves_of_run(argv)
        if key in digest:
            paths, values = digest.pop(key)
            if paths == _paths_hash(b[key]):
                a[key] = dict(zip(b[key], values))
            else:
                a[key], b[key] = {".paths": paths}, {".paths": _paths_hash(b[key])}
    a.update(dict.fromkeys(digest, {}))  # runs only the digest holds
    return _report(a, b, DIGEST_TOL)


def _report(a, b, tol=None):
    """Print the changes from runs ``a`` to runs ``b``, each a dict of key to
    {key path: leaf}.  1 when the keys or a non-float leaf differ, or, with
    ``tol`` = (absolute, relative), when a float moved by more than
    absolute + relative * |a's float|."""
    print(f"runs: {len(a)} / {len(b)}, in one only: {sorted(a.keys() ^ b.keys())}")
    floats, other, beyond = {}, [], []
    for key in sorted(a.keys() & b.keys()):
        leaves_a, leaves_b = a[key], b[key]
        paths = list(leaves_a) + [p for p in leaves_b if p not in leaves_a]
        for path in paths:
            x, y = leaves_a.get(path, _ABSENT), leaves_b.get(path, _ABSENT)
            if type(x) is float and type(y) is float:
                if not (x == y or math.isnan(x) and math.isnan(y)):
                    field = re.sub(r"\[\d+\]", "[]", path)
                    count, worst, runs = floats.get(field, (0, 0.0, set()))
                    floats[field] = (count + 1, max(worst, abs(x - y)), runs | {key})
                    if tol and not abs(x - y) <= tol[0] + tol[1] * abs(x):
                        beyond.append(f"{key}: {path}={x!r} vs {y!r}")
            elif type(x) is not type(y) or x != y:
                other.append(f"{key}: {path}={x!r} vs {y!r}")
    for field, (count, worst, runs) in sorted(floats.items()):
        print(f"float {field}: {count} in {len(runs)} runs, max |d| {worst:.3g}")
        print(*(f"    {run}" for run in sorted(runs)[:4]), sep="\n")
    if tol:
        print(f"floats beyond {tol[0]:g} + {tol[1]:g}|x|: {len(beyond)}",
              *(f"    {o}" for o in beyond), sep="\n")
    print(f"non-float changes: {len(other)}", *(f"    {o}" for o in other), sep="\n")
    return 1 if other or beyond or a.keys() != b.keys() else 0


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", nargs="?")
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--digest", metavar="OUT", help="write the digest to OUT")
    args = p.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    sys.path.insert(0, str(Path(args.src).resolve()))
    if args.digest:
        digest = Path(args.digest).resolve()
        with tempfile.TemporaryDirectory() as inputs:
            os.chdir(inputs)
            write_digest(digest)
        sys.exit()
    sink_path, inputs = Path(args.out).resolve(), Path(args.out + ".inputs").resolve()
    inputs.mkdir(exist_ok=True)
    os.chdir(inputs)
    with open(sink_path, "w") as sink:
        for argv in _runs():
            sink.write(json.dumps(_record(argv)) + "\n")
