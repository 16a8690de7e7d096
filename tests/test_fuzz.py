import numpy as np
import pytest

from eplab import (
    InputError,
    SUITES,
    ToleranceConfig,
    block_kernel_inclusions,
    classify,
    decompose_pair,
    hartwig_katz,
    is_ep,
    posinormal_product_conditions,
    run_suite,
    run_trial,
)
from eplab import fuzz


ALL_SUITES = sorted(SUITES)
DIMS = tuple(range(2, 9))
# each suite's checks per trial at default tolerances (powers checks
# a, a^2, ..., a^5)
CHECKS_PER_TRIAL = {
    "hartwig_katz": 1, "group_invertible": 1, "invariant_range": 1,
    "same_kernel": 2, "commuting_posinormal": 1, "commuting_ep": 2,
    "johnson_vinoth": 1, "powers": 5, "block_kernels": 4, "collapse": 4,
}
# a subspace tolerance below roundoff, under which every suite but
# hartwig_katz reports violations within 30 trials
TIGHT = ToleranceConfig(subspace_tol=1e-15)


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_every_suite_clean_on_small_run(suite):
    outcome = run_suite(suite, 25, dims=range(2, 9), seed=97)
    assert outcome.ok, outcome.violations[:3]
    assert outcome.checks >= 25


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_checks_per_trial_are_pinned(suite):
    for t in range(8):
        violations, checks = run_trial(suite, 53, t, DIMS)
        assert not violations
        assert checks == CHECKS_PER_TRIAL[suite]


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_each_failed_check_is_one_replayable_violation(suite):
    failed = 0
    for t in range(30):
        violations, checks = run_trial(suite, 7, t, DIMS, TIGHT)
        failed += len(violations)
        assert len(violations) <= checks
        assert run_trial(suite, 7, t, DIMS, TIGHT) == (violations, checks)
        assert all(v.trial == t and v.seed == (7, t) for v in violations)
        if suite == "powers":
            # one violation per failed power, in power order
            powers = [v.details["power"] for v in violations]
            assert powers == sorted(set(powers))
            assert set(powers) <= {1, 2, 3, 4, 5}
    assert failed or suite == "hartwig_katz"


# a rank threshold below roundoff, under which hartwig_katz, commuting_ep and
# block_kernels fail checks (124, 12 and 25 of 300 trials at seed 20260810)
FINE_RANK = ToleranceConfig(rank_multiplier=1e-3)


def _full_details(suite, rng, cfg):
    """Each check's details, keyed by kind, read from the full reports of
    the trial's own draws."""
    if suite == "hartwig_katz":
        n = fuzz._pick_dim(rng, DIMS)
        a, b = fuzz._ep(rng, n), fuzz._ep(rng, n)
        return {"biconditional": hartwig_katz(a, b, cfg).residuals}
    if suite == "commuting_ep":
        a, b = fuzz._commuting_pair(rng, fuzz._pick_dim(rng, DIMS))
        residuals = classify(a @ b, cfg).residuals
        inclusions = {
            "posinormal_residual": residuals["posinormal_inclusion"],
            "coposinormal_residual": residuals["coposinormal_inclusion"],
        }
        orders = {
            "ab_residual": is_ep(a @ b, cfg)[1], "ba_residual": is_ep(b @ a, cfg)[1]
        }
        return {"product_ep": inclusions, "order_agreement": orders}
    dec = decompose_pair(*fuzz._commuting_pair(rng, fuzz._pick_dim(rng, DIMS)), cfg)
    report = block_kernel_inclusions(dec)
    conditions = posinormal_product_conditions(dec)
    return {
        "kernel_z": {"residual": report.kernel_z_residual},
        "kernel_bprime": {"residual": report.kernel_bprime_residual},
        "y_zero": {"y_norm": conditions.y_norm},
        "x_zero": {"x_norm": float(np.linalg.norm(dec.block_x))},
    }


@pytest.mark.parametrize(
    ("suite", "kind"),
    [("hartwig_katz", "biconditional"), ("commuting_ep", "product_ep"),
     ("block_kernels", "y_zero")],
)
def test_a_failed_checks_details_are_the_full_reports(suite, kind):
    # a check decides from the residuals it reads and builds its details
    # only when it fails; they are the full reports' residuals, bit for bit
    kinds = set()
    for t in range(300):
        violations, _ = run_trial(suite, 20260810, t, DIMS, FINE_RANK)
        if not violations:
            continue
        rng = np.random.default_rng(fuzz.trial_seed(20260810, t))
        full = _full_details(suite, rng, FINE_RANK)
        for v in violations:
            kinds.add(v.kind)
            want = full[v.kind]
            assert list(v.details) == list(want)
            for key, value in want.items():
                got = np.float64(v.details[key]).tobytes()
                assert got == np.float64(value).tobytes()
    assert kind in kinds


def test_zero_trials_vacuous_pass():
    outcome = run_suite("hartwig_katz", 0, dims=[4], seed=0)
    assert outcome.ok
    assert outcome.trials == 0
    assert outcome.checks == 0


def test_unknown_suite():
    with pytest.raises(InputError):
        run_suite("nope", 1, dims=[4], seed=0)


def test_bad_dims():
    with pytest.raises(InputError):
        run_suite("collapse", 1, dims=[], seed=0)
    with pytest.raises(InputError):
        run_suite("collapse", 1, dims=[0], seed=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": -1}, "^trials must be a nonnegative integer, got -1$"),
        ({"trials": 2.5}, "^trials must be a nonnegative integer, got 2.5$"),
        ({"trials": True}, "^trials must be a nonnegative integer, got True$"),
        ({"jobs": 0}, "^jobs must be a positive integer, got 0$"),
        ({"jobs": 1.5}, "^jobs must be a positive integer, got 1.5$"),
        ({"jobs": True}, "^jobs must be a positive integer, got True$"),
        ({"dims": [2.5]}, "^each of dims must be a positive integer, got 2.5$"),
        ({"dims": [4, True]}, "^each of dims must be a positive integer, got True$"),
        ({"seed": -1}, "^seed must be a nonnegative integer, got -1$"),
        ({"seed": 2.5}, "^seed must be a nonnegative integer, got 2.5$"),
        ({"seed": True}, "^seed must be a nonnegative integer, got True$"),
    ],
)
def test_bad_trials_and_jobs(kwargs, message):
    with pytest.raises(InputError, match=message):
        run_suite("collapse", **{"trials": 1, "dims": [4], **kwargs})


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, 0, (2, 3)), "^seed must be a nonnegative integer, got -1$"),
        ((True, 0, (2, 3)), "^seed must be a nonnegative integer, got True$"),
        ((1.5, 0, (2, 3)), "^seed must be a nonnegative integer, got 1.5$"),
        ((0, -1, (2, 3)), "^trial must be a nonnegative integer, got -1$"),
        ((0, 1.5, (2, 3)), "^trial must be a nonnegative integer, got 1.5$"),
        ((0, 0, ()), "^dims must contain positive sizes$"),
    ],
)
def test_run_trial_rejects_bad_arguments(args, message):
    # the exported single trial checks what run_suite checks for it
    with pytest.raises(InputError, match=message):
        run_trial("powers", *args)


def test_trial_replay_is_identical():
    # replaying a trial from its seed must reproduce identical residuals
    for suite in ("hartwig_katz", "collapse", "block_kernels"):
        first = [run_trial(suite, 31, t, (2, 3, 4, 5, 6, 7, 8)) for t in range(10)]
        second = [run_trial(suite, 31, t, (2, 3, 4, 5, 6, 7, 8)) for t in range(10)]
        assert first == second


def test_block_kernel_inclusions_hold_at_scale():
    # the block-structure kernel inclusions must hold with zero violations
    # over at least a thousand generated commuting EP pairs
    outcome = run_suite("block_kernels", 1000, dims=range(2, 9), seed=4242)
    assert outcome.ok, outcome.violations[:3]


def test_parallel_matches_sequential():
    seq = run_suite("hartwig_katz", 40, dims=range(2, 7), seed=5, jobs=1)
    par = run_suite("hartwig_katz", 40, dims=range(2, 7), seed=5, jobs=2)
    assert seq.checks == par.checks
    assert seq.violations == par.violations
    assert vars(seq) == vars(par)  # the outcome does not record the schedule


def test_the_pool_never_starts_more_workers_than_trials(monkeypatch):
    # under fork a pool starts all its workers at the first submit, so a
    # pool wider than the run would fork processes that get no task; the
    # stand-in records the width and runs the tasks here
    import concurrent.futures

    widths = []

    class InProcessPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    for trials, jobs in ((2, 64), (7, 3), (4, 4)):
        par = run_suite("invariant_range", trials, DIMS, seed=7, jobs=jobs, cfg=TIGHT)
        seq = run_suite("invariant_range", trials, DIMS, seed=7, jobs=1, cfg=TIGHT)
        assert widths.pop() == min(trials, jobs)
        assert vars(par) == vars(seq)
    assert not widths


def test_outcome_is_order_independent_of_dims_container():
    a = run_suite("collapse", 12, dims=[2, 3, 4], seed=8)
    b = run_suite("collapse", 12, dims=(2, 3, 4), seed=8)
    assert a.checks == b.checks
    assert a.violations == b.violations
