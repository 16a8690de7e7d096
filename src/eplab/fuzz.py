"""Seeded theorem-fuzzing harness.

A suite is its list of named checks: a trial draws structured random
inputs and returns one ``(kind, holds, details)`` record per check.  Each
failed check is one :class:`Violation`, with the per-trial seed and the
residuals needed to replay and triage it.  A trial makes two checks in
``same_kernel`` and ``commuting_ep``, four in ``block_kernels`` (one when
its applicability gate raises) and ``collapse``, five in ``powers`` (one
per power) and one elsewhere.  A check decides from the residuals it
reads.  Its details are a dict, or a function that builds one from the
full report, called only when the check fails: ``hartwig_katz`` decides
from cond_i, cond_ii and ab_ep alone and ``commuting_ep`` from AB's EP
residual, and a failure reports the full report's residuals.

Trial seeds are derived as ``SeedSequence((master_seed, trial_index))``, so
runs are reproducible and independent of how trials are scheduled; parallel
runs collect results in trial order and are result-identical to sequential
ones.

Invertible cores drawn inside the suites are condition-capped more tightly
than the generator defaults (products multiply condition numbers; the
suites are meant to probe theorems, not floating-point cliffs).
"""

import numpy as np

from .config import DEFAULT_TOLERANCES, Record, gate
from .errors import InapplicableError, InputError, require_count, require_known
from .generators import (
    _complex_gaussian,
    random_commuting_ep_pair,
    random_ep,
    random_invariant_range_b,
    random_same_kernel_pair,
    random_unitary,
)
from .predicates import classify, is_ep
from .products import (
    _hartwig_katz,
    group_invertible_check,
    hartwig_katz,
    johnson_vinoth_check,
    power_ep,
    product_range_identity,
)
from .structure import block_kernel_inclusions, decompose_pair
from .subspaces import _factor, factor_pair

_PAIR_COND_CAP = 1e2   # cores entering products
_POWER_COND_CAP = 5.0  # cores raised to the 5th power
_POWER_MAX_RANK = 4


class Violation(Record):
    trial: int
    seed: tuple
    kind: str
    details: dict


class FuzzOutcome(Record, eq=False):
    suite: str
    trials: int
    dims: tuple
    seed: int
    checks: int
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def _pick_dim(rng, dims):
    return int(dims[int(rng.integers(0, len(dims)))])


def _ep(rng, n):
    return random_ep(n, int(rng.integers(0, n + 1)), rng, cond_cap=_PAIR_COND_CAP)


def _mixed_square(rng, n):
    """Random square matrix mixing invertible, EP, generic rank-deficient,
    and nilpotent draws so both truth values of each predicate occur."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return _complex_gaussian(rng, n, n)
    if kind == 1:
        return _ep(rng, n)
    if kind == 2:
        r = int(rng.integers(0, n + 1))
        return _complex_gaussian(rng, n, r) @ _complex_gaussian(rng, r, n)
    u = random_unitary(n, rng)
    nilpotent = np.triu(_complex_gaussian(rng, n, n), k=1)
    return u @ nilpotent @ u.conj().T


def _t_hartwig_katz(rng, n, cfg):
    a, b = _ep(rng, n), _ep(rng, n)
    flags = gate(cfg, **factor_pair(a, b, cfg).fact(_hartwig_katz))
    holds = flags["ab_ep"] == (flags["cond_i"] and flags["cond_ii"])
    return [("biconditional", holds, lambda: hartwig_katz(a, b, cfg).residuals)]


def _t_group_invertible(rng, n, cfg):
    report = group_invertible_check(_mixed_square(rng, n), cfg)
    holds = report.kernel_stable == report.range_stable == report.rank_stable
    return [("equivalence", holds, report.residuals)]


def _t_invariant_range(rng, n, cfg):
    a = _ep(rng, n)
    report = product_range_identity(a, random_invariant_range_b(a, rng, cfg), cfg)
    # the conclusion is checked only where the hypothesis holds
    kind = "conclusion" if report.hypothesis else "hypothesis"
    return [(kind, report.hypothesis and report.conclusion, report.residuals)]


def _t_same_kernel(rng, n, cfg):
    a, b = _same_kernel_pair(rng, n)
    records = []
    for tag, product in (("ab_ep", a @ b), ("ba_ep", b @ a)):
        ep, residual = is_ep(product, cfg)
        records.append((tag, ep, {"residual": residual}))
    return records


def _same_kernel_pair(rng, n):
    r = int(rng.integers(0, n + 1))
    return random_same_kernel_pair(n, r, rng, cond_cap=_PAIR_COND_CAP)


def _commuting_pair(rng, n):
    r = int(rng.integers(1, n + 1))
    return random_commuting_ep_pair(n, r, rng, cond_cap=_PAIR_COND_CAP)


def _t_commuting_posinormal(rng, n, cfg):
    a, b = _commuting_pair(rng, n)
    holds, residual = is_ep(a @ b, cfg)  # the EP residual is the posinormal one
    return [("product_posinormal", holds, {"residual": residual})]


def _t_commuting_ep(rng, n, cfg):
    a, b = _commuting_pair(rng, n)
    fab = _factor(a @ b, cfg)
    ep = gate(cfg, ab_residual=fab.ep_residual)["ab_residual"]
    ep_ba, res_ba = is_ep(b @ a, cfg)

    def inclusions():
        return {
            "posinormal_residual": fab.posinormal_residual,
            "coposinormal_residual": fab.coposinormal_residual,
        }

    orders = {"ab_residual": fab.ep_residual, "ba_residual": res_ba}
    return [("product_ep", ep, inclusions), ("order_agreement", ep == ep_ba, orders)]


def _t_johnson_vinoth(rng, n, cfg):
    # EP matrices sharing their kernel (so their range) meet both hypotheses
    report = johnson_vinoth_check(*_same_kernel_pair(rng, n), cfg)
    hypotheses = report.hyp_range and report.hyp_kernel
    kind = "product_hypo_ep" if hypotheses else "hypotheses"
    return [(kind, hypotheses and report.ab_hypo_ep, report.residuals)]


def _t_powers(rng, n, cfg):
    r = int(rng.integers(0, min(n, _POWER_MAX_RANK) + 1))
    flags = power_ep(random_ep(n, r, rng, cond_cap=_POWER_COND_CAP), 5, cfg)
    return [("power_ep", flag, {"power": k}) for k, flag in enumerate(flags, 1)]


def _t_block_kernels(rng, n, cfg):
    dec = decompose_pair(*_commuting_pair(rng, n), cfg)
    try:
        inc = block_kernel_inclusions(dec)
    except InapplicableError as exc:
        return [("applicability", False, {"error": str(exc), **dec.residuals})]
    x_norm, y_norm = (float(np.linalg.norm(m)) for m in (dec.block_x, dec.block_y))
    zero = gate(cfg, y_norm=y_norm, x_norm=x_norm)
    return [
        ("kernel_z", inc.kernel_z_included, {"residual": inc.kernel_z_residual}),
        ("kernel_bprime", inc.kernel_bprime_included, {"residual": inc.kernel_bprime_residual}),
        ("y_zero", zero["y_norm"], {"y_norm": y_norm}),
        ("x_zero", zero["x_norm"], {"x_norm": x_norm}),
    ]


def _t_collapse(rng, n, cfg):
    report = classify(_mixed_square(rng, n), cfg)
    res, conflicts = report.residuals, report.conflicts
    flags = {
        "quasiposinormal": report.quasiposinormal,
        "posinormal": report.posinormal,
        "hypo_ep": report.hypo_ep,
        "ep": report.ep,
    }
    # the projector route to EP: classify's projector commutator residual
    # under subspace_tol, which hypo-EP must agree with unless classify
    # already reports a conflict
    res_proj = res["projector_commutator"]
    ep_proj = gate(cfg, projector_commutator=res_proj)["projector_commutator"]
    routes_agree = report.hypo_ep == ep_proj or bool(conflicts)
    normal_agree = report.hyponormal == report.normal
    # quasiposinormal reads the posinormal residual, so it cannot differ
    collapsed = len({flags[k] for k in ("posinormal", "hypo_ep", "ep")}) == 1
    return [
        ("flag_collapse", collapsed, {**flags, **res}),
        ("hyponormal_normal", normal_agree, {"commutator": res["commutator"]}),
        ("route_agreement", routes_agree, {"projector_residual": res_proj}),
        ("classification_conflict", not conflicts, {"conflicts": "; ".join(conflicts)}),
    ]


SUITES = {
    "hartwig_katz": _t_hartwig_katz,
    "group_invertible": _t_group_invertible,
    "invariant_range": _t_invariant_range,
    "same_kernel": _t_same_kernel,
    "commuting_posinormal": _t_commuting_posinormal,
    "commuting_ep": _t_commuting_ep,
    "johnson_vinoth": _t_johnson_vinoth,
    "powers": _t_powers,
    "block_kernels": _t_block_kernels,
    "collapse": _t_collapse,
}


def trial_seed(master_seed, trial):
    return np.random.SeedSequence((int(master_seed), int(trial)))


def _suite(name):
    """The trial function of suite ``name``."""
    require_known(name, SUITES, "suite")
    return SUITES[name]


def run_trial(suite, master_seed, trial, dims, cfg=DEFAULT_TOLERANCES):
    """One trial, fully determined by (suite, master_seed, trial, dims):
    its violations, one for each failed check in check order, with the
    details a failed check builds, and its number of checks."""
    rng = np.random.default_rng(trial_seed(master_seed, trial))
    records = _suite(suite)(rng, _pick_dim(rng, dims), cfg)
    seed = (int(master_seed), int(trial))
    violations = [
        Violation(trial=trial, seed=seed, kind=kind,
                  details=dict(details() if callable(details) else details))
        for kind, holds, details in records
        if not holds
    ]
    return violations, len(records)


def _worker(args):
    return run_trial(*args)


def run_suite(suite, trials, dims, seed=0, jobs=1, cfg=DEFAULT_TOLERANCES):
    """Run ``trials`` seeded trials; violations are listed in trial order."""
    _suite(suite)
    dims = tuple(require_count(d, "each of dims", 1) for d in dims)
    if not dims:
        raise InputError("dims must contain positive sizes")
    trials, jobs = require_count(trials, "trials", 0), require_count(jobs, "jobs", 1)

    tasks = [(suite, int(seed), t, dims, cfg) for t in range(trials)]
    if jobs == 1 or trials <= 1:
        results = [_worker(task) for task in tasks]
    else:
        # imported here: multiprocessing is a cost only parallel runs pay
        from concurrent.futures import ProcessPoolExecutor
        # under fork the pool starts all its workers at the first submit
        workers = min(jobs, trials)
        chunksize = max(1, trials // (workers * 4))
        # map yields results in task order, whatever order workers finish in
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, tasks, chunksize=chunksize))

    return FuzzOutcome(
        suite=suite,
        trials=trials,
        dims=dims,
        seed=int(seed),
        checks=sum(checks for _, checks in results),
        violations=tuple(v for vs, _ in results for v in vs),
    )
