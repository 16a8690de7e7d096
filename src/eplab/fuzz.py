"""Seeded theorem-fuzzing harness.

Each suite draws structured random inputs and checks one theorem's
conclusion; any failure is recorded as a :class:`Violation` carrying the
per-trial seed and the residuals needed to replay and triage it.  Trial
seeds are derived as ``SeedSequence((master_seed, trial_index))``, so runs
are reproducible and independent of how trials are scheduled; parallel runs
collect results in trial order and are result-identical to sequential ones.

Invertible cores drawn inside the suites are condition-capped more tightly
than the generator defaults (products multiply condition numbers; the
suites are meant to probe theorems, not floating-point cliffs).
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, within
from .errors import InapplicableError, InputError
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
    group_invertible_check,
    hartwig_katz,
    johnson_vinoth_check,
    power_ep,
    product_range_identity,
)
from .structure import block_kernel_inclusions, decompose_pair, posinormal_product_conditions
from .subspaces import factor

_PAIR_COND_CAP = 1e2   # cores entering products
_POWER_COND_CAP = 5.0  # cores raised to the 5th power
_POWER_MAX_RANK = 4


@dataclass(frozen=True)
class Violation:
    trial: int
    seed: tuple
    kind: str
    details: dict


@dataclass(frozen=True, eq=False)
class FuzzOutcome:
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


def _t_hartwig_katz(rng, dims, cfg):
    n = _pick_dim(rng, dims)
    a, b = _ep(rng, n), _ep(rng, n)
    report = hartwig_katz(a, b, cfg)
    violations = []
    if report.ab_ep != (report.cond_i and report.cond_ii):
        violations.append(("biconditional", report.residuals))
    return violations, 1


def _t_group_invertible(rng, dims, cfg):
    n = _pick_dim(rng, dims)
    a = _mixed_square(rng, n)
    report = group_invertible_check(a, cfg)
    violations = []
    if not (report.kernel_stable == report.range_stable == report.rank_stable):
        violations.append(("equivalence", report.residuals))
    return violations, 1


def _t_invariant_range(rng, dims, cfg):
    a = _ep(rng, _pick_dim(rng, dims))
    b = random_invariant_range_b(a, rng, cfg)
    report = product_range_identity(a, b, cfg)
    violations = []
    if not report.hypothesis:
        violations.append(("hypothesis", report.residuals))
    elif not report.conclusion:
        violations.append(("conclusion", report.residuals))
    return violations, 1


def _t_same_kernel(rng, dims, cfg):
    a, b = _same_kernel_pair(rng, dims)
    violations = []
    for tag, product in (("ab_ep", a @ b), ("ba_ep", b @ a)):
        ep, residual = is_ep(product, cfg)
        if not ep:
            violations.append((tag, {"residual": residual}))
    return violations, 2


def _same_kernel_pair(rng, dims):
    n = _pick_dim(rng, dims)
    r = int(rng.integers(0, n + 1))
    return random_same_kernel_pair(n, r, rng, cond_cap=_PAIR_COND_CAP)


def _commuting_pair(rng, dims):
    n = _pick_dim(rng, dims)
    r = int(rng.integers(1, n + 1))
    return random_commuting_ep_pair(n, r, rng, cond_cap=_PAIR_COND_CAP)


def _t_commuting_posinormal(rng, dims, cfg):
    a, b = _commuting_pair(rng, dims)
    residual = factor(a @ b, cfg).posinormal_residual
    violations = []
    if not within(residual, cfg.subspace_tol, "posinormal_inclusion"):
        violations.append(("product_posinormal", {"residual": residual}))
    return violations, 1


def _t_commuting_ep(rng, dims, cfg):
    a, b = _commuting_pair(rng, dims)
    ab, ba = a @ b, b @ a
    report = classify(ab, cfg)
    violations = []
    if not (report.posinormal and report.coposinormal and report.ep):
        violations.append(
            (
                "product_ep",
                {
                    "posinormal_residual": report.residuals["posinormal_inclusion"],
                    "coposinormal_residual": report.residuals["coposinormal_inclusion"],
                },
            )
        )
    # classify's EP flag and residual are is_ep's: the same ep_residual of AB
    ep_ab, res_ab = report.ep, report.residuals["ep_equality"]
    ep_ba, res_ba = is_ep(ba, cfg)
    if ep_ab != ep_ba:
        violations.append(
            ("order_agreement", {"ab_residual": res_ab, "ba_residual": res_ba})
        )
    return violations, 2


def _t_johnson_vinoth(rng, dims, cfg):
    # EP matrices sharing their kernel (so their range) meet both hypotheses
    a, b = _same_kernel_pair(rng, dims)
    report = johnson_vinoth_check(a, b, cfg)
    violations = []
    if not (report.hyp_range and report.hyp_kernel):
        violations.append(("hypotheses", report.residuals))
    elif not report.ab_hypo_ep:
        violations.append(("product_hypo_ep", report.residuals))
    return violations, 1


def _t_powers(rng, dims, cfg):
    n = _pick_dim(rng, dims)
    r = int(rng.integers(0, min(n, _POWER_MAX_RANK) + 1))
    a = random_ep(n, r, rng, cond_cap=_POWER_COND_CAP)
    flags = power_ep(a, 5, cfg)
    violations = []
    if not all(flags):
        violations.append(
            ("power_ep", {"flags": "".join("1" if f else "0" for f in flags)})
        )
    return violations, len(flags)


def _t_block_kernels(rng, dims, cfg):
    a, b = _commuting_pair(rng, dims)
    dec = decompose_pair(a, b, cfg)
    violations = []
    try:
        report = block_kernel_inclusions(dec)
    except InapplicableError as exc:
        violations.append(("applicability", {"error": str(exc), **dec.residuals}))
        return violations, 1
    if not report.kernel_z_included:
        violations.append(("kernel_z", {"residual": report.kernel_z_residual}))
    if not report.kernel_bprime_included:
        violations.append(("kernel_bprime", {"residual": report.kernel_bprime_residual}))
    conditions = posinormal_product_conditions(dec)
    if not conditions.y_zero:
        violations.append(("y_zero", {"y_norm": conditions.y_norm}))
    x_norm = float(np.linalg.norm(dec.block_x))
    if not within(x_norm, cfg.subspace_tol, "x_norm"):
        violations.append(("x_zero", {"x_norm": x_norm}))
    return violations, 4


def _t_collapse(rng, dims, cfg):
    n = _pick_dim(rng, dims)
    m = _mixed_square(rng, n)
    report = classify(m, cfg)
    violations = []
    flags = (report.quasiposinormal, report.posinormal, report.hypo_ep, report.ep)
    if len(set(flags)) != 1:
        violations.append(
            (
                "flag_collapse",
                {
                    "quasiposinormal": flags[0],
                    "posinormal": flags[1],
                    "hypo_ep": flags[2],
                    "ep": flags[3],
                    **{k: v for k, v in report.residuals.items()},
                },
            )
        )
    if report.hyponormal != report.normal:
        violations.append(
            ("hyponormal_normal", {"commutator": report.residuals["commutator"]})
        )
    # the projector route to EP: classify's projector commutator residual
    # under subspace_tol, which hypo-EP must agree with
    res_proj = report.residuals["projector_commutator"]
    ep_proj = within(res_proj, cfg.subspace_tol, "projector_commutator")
    if report.hypo_ep != ep_proj and not report.conflicts:
        violations.append(("route_agreement", {"projector_residual": res_proj}))
    if report.conflicts:
        violations.append(("classification_conflict", {"conflicts": "; ".join(report.conflicts)}))
    return violations, 4


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
    try:
        return SUITES[name]
    except KeyError:
        raise InputError(
            f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
        ) from None


def run_trial(suite, master_seed, trial, dims, cfg=DEFAULT_TOLERANCES):
    """One trial, fully determined by (suite, master_seed, trial, dims)."""
    rng = np.random.default_rng(trial_seed(master_seed, trial))
    raw, checks = _suite(suite)(rng, tuple(dims), cfg)
    violations = [
        Violation(
            trial=trial,
            seed=(int(master_seed), int(trial)),
            kind=kind,
            details=dict(details),
        )
        for kind, details in raw
    ]
    return violations, checks


def _worker(args):
    return run_trial(*args)


def run_suite(suite, trials, dims, seed=0, jobs=1, cfg=DEFAULT_TOLERANCES):
    """Run ``trials`` seeded trials; violations are listed in trial order."""
    _suite(suite)
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise InputError("dims must contain positive sizes")
    if trials < 0:
        raise InputError("trials must be nonnegative")
    if jobs < 1:
        raise InputError("jobs must be >= 1")

    tasks = [(suite, int(seed), t, dims, cfg) for t in range(trials)]
    if jobs == 1 or trials <= 1:
        results = [_worker(task) for task in tasks]
    else:
        # imported here: multiprocessing is a cost only parallel runs pay
        from concurrent.futures import ProcessPoolExecutor
        chunksize = max(1, trials // (jobs * 4))
        # map yields results in task order, whatever order workers finish in
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_worker, tasks, chunksize=chunksize))

    violations = []
    checks = 0
    for trial_violations, trial_checks in results:
        violations.extend(trial_violations)
        checks += trial_checks
    return FuzzOutcome(
        suite=suite,
        trials=trials,
        dims=dims,
        seed=int(seed),
        checks=checks,
        violations=tuple(violations),
    )
