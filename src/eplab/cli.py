"""Command-line front end.

Every invocation prints a single JSON report envelope on stdout with the
keys command/inputs/tolerances/result/violations/version.  Exit codes:
0 success (and no fuzz violations), 1 fuzz violations found, 2 usage,
parse or inapplicable errors.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULT_TOLERANCES, Record, ToleranceConfig
from .errors import EplabError, InapplicableError, InputError
from .fuzz import SUITES, run_suite
from .generators import TRUNCATION_FAMILIES, catalog, catalog_names, sweep
from .matfile import read_matrix, write_matrix
from .predicates import FLAG_NAMES, classify
from .products import djordjevic_check, hartwig_katz, johnson_vinoth_check
from .structure import (
    block_kernel_inclusions,
    decompose_pair,
    posinormal_product_conditions,
)


def _jsonable(value):
    if isinstance(value, Record):
        return {f: _jsonable(getattr(value, f)) for f in value._fields}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return None if math.isnan(value) else value
    return value


def _envelope(command, inputs, cfg, result, violations):
    return {
        "command": command,
        "inputs": _jsonable(inputs),
        "tolerances": _jsonable(cfg),
        "result": _jsonable(result),
        "violations": _jsonable(list(violations)),
        "version": __version__,
    }


def parse_size_list(text):
    """Parse "5", "2:8", or "2,4,8" into a sorted list of sizes."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo_s, colon, hi_s = chunk.partition(":")
        try:
            lo, hi = int(lo_s), int(hi_s if colon else lo_s)
        except ValueError:
            raise InputError(f"bad size {chunk!r}") from None
        if hi < lo:
            raise InputError(f"empty size range {chunk!r}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise InputError(f"no sizes in {text!r}")
    return sorted(set(out))


def _classification_result(report):
    return {
        "flags": {name: getattr(report, name) for name in FLAG_NAMES},
        "residuals": report.residuals,
        "rank": {
            "rank": report.rank.rank,
            "threshold": report.rank.threshold,
            "singular_values": report.rank.singular_values,
        },
        "conflicts": list(report.conflicts),
    }


def _applicable(procedure, *args):
    try:
        return procedure(*args)
    except InapplicableError as exc:
        return {"applicable": False, "reason": str(exc)}


# Each cmd_* returns (inputs, result, violations); main wraps them in the
# one envelope and exits 1 exactly when there are violations.


def cmd_classify(args, cfg):
    report = classify(read_matrix(args.path), cfg)
    return {"path": args.path}, _classification_result(report), ()


def cmd_product(args, cfg):
    # the three procedures read one memoized pair: A, B and AB are factored once
    a, b = read_matrix(args.path_a), read_matrix(args.path_b)
    result = {
        "hartwig_katz": hartwig_katz(a, b, cfg),
        "johnson_vinoth": johnson_vinoth_check(a, b, cfg),
        "djordjevic": _applicable(djordjevic_check, a, b, cfg),
    }
    return {"path_a": args.path_a, "path_b": args.path_b}, result, ()


def cmd_decompose(args, cfg):
    a, b = read_matrix(args.path_a), read_matrix(args.path_b)
    dec = decompose_pair(a, b, cfg)
    result = {
        "core_dim": dec.core_dim,
        "kernel_dim": dec.kernel_dim,
        "residuals": dec.residuals,
        "conditions": posinormal_product_conditions(dec),
        "kernel_inclusions": _applicable(block_kernel_inclusions, dec),
    }
    return {"path_a": args.path_a, "path_b": args.path_b}, result, ()


def cmd_fuzz(args, cfg):
    dims = parse_size_list(args.dims)
    outcome = run_suite(args.suite, args.trials, dims, seed=args.seed, jobs=args.jobs, cfg=cfg)
    # the jobs count is deliberately absent: the report is schedule
    # independent, so parallel and sequential runs emit identical documents
    result = {
        "suite": outcome.suite,
        "trials": outcome.trials,
        "dims": list(outcome.dims),
        "seed": outcome.seed,
        "checks": outcome.checks,
        "violation_count": len(outcome.violations),
        "ok": outcome.ok,
    }
    inputs = {"suite": args.suite, "trials": args.trials, "dims": args.dims, "seed": args.seed}
    return inputs, result, outcome.violations


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def cmd_truncate(args, cfg):
    sizes = parse_size_list(args.dims)
    series = sweep(args.family, sizes, cfg)
    columns = ("size", "cos_min_angle", "bouldin_cos", "sigma_min_plus", "ab_ep")
    rows = [{key: getattr(m, key) for key in columns} for m in series.metrics]
    if args.out:
        lines = [",".join(columns)]
        lines += [",".join(_csv_cell(row[key]) for key in columns) for row in rows]
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = {"family": series.family, "sizes": series.sizes, "rows": rows, "csv": args.out}
    return {"family": args.family, "sizes": args.dims, "out": args.out}, result, ()


def cmd_catalog(args, cfg):
    if args.name is None:
        if args.emit:
            raise InputError("--emit needs a catalog name")
        return {}, {"names": catalog_names()}, ()
    pair = catalog(args.name)
    result = {
        "name": pair.name,
        "shape": list(pair.a.shape),
        "expected": pair.expected,
        "notes": pair.notes,
    }
    if args.emit:
        out_dir = Path(args.out or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = [out_dir / f"{pair.name}_{tag}.cmat" for tag in "ab"]
        for path, m in zip(paths, (pair.a, pair.b)):
            write_matrix(path, m)
        result["files"] = [str(path) for path in paths]
    return {"name": args.name}, result, ()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eplab",
        description="Classification, product tests, block decompositions, "
        "truncation sweeps, and theorem fuzzing for complex matrices.",
    )
    defaults = DEFAULT_TOLERANCES
    parser.add_argument("--tol-rank-mult", type=float, default=defaults.rank_multiplier)
    parser.add_argument("--tol-subspace", type=float, default=defaults.subspace_tol)
    parser.add_argument("--tol-psd", type=float, default=defaults.psd_tol)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one matrix file")
    p.add_argument("path")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("product", help="product decision procedures for a pair")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(handler=cmd_product)

    p = sub.add_parser("decompose", help="block decomposition of a pair")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("fuzz", help="run a seeded theorem-fuzzing suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--dims", default="2:8")
    # a string default goes through type=int too, so a bad EPLAB_SEED is a usage error
    p.add_argument("--seed", type=int, default=os.environ.get("EPLAB_SEED", "0"))
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(handler=cmd_fuzz)

    p = sub.add_parser("truncate", help="sweep a truncation family, emit CSV")
    p.add_argument("family", choices=TRUNCATION_FAMILIES)
    p.add_argument("--dims", required=True, help="sizes, e.g. 0:20 or 2,4,8")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(handler=cmd_truncate)

    p = sub.add_parser("catalog", help="list or emit the example catalog")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--emit", action="store_true", help="write CMAT files")
    p.add_argument("--out", default=None, help="output directory for --emit")
    p.set_defaults(handler=cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = ToleranceConfig(
            rank_multiplier=args.tol_rank_mult,
            subspace_tol=args.tol_subspace,
            psd_tol=args.tol_psd,
        )
        inputs, result, violations = args.handler(args, cfg)
        json.dump(
            _envelope(args.command, inputs, cfg, result, violations), sys.stdout, indent=2
        )
        sys.stdout.write("\n")
    except InapplicableError as exc:
        print(f"eplab: inapplicable: {exc}", file=sys.stderr)
        return 2
    except (EplabError, OSError) as exc:
        print(f"eplab: error: {exc}", file=sys.stderr)
        return 2
    return 1 if violations else 0


def main_entry():
    """The ``eplab`` script and ``python -m eplab.cli``: :func:`main` in a
    process of its own, whose import-time heap no garbage collection walks."""
    import gc  # the process's collector, which main() leaves to its caller
    gc.freeze()  # that heap lives until exit, and forked --jobs workers share it
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
