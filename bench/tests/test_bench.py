"""Fast self-test of the benchmark itself.

Each checker must reject a deliberately wrong answer, and a small traced
slice must give identical counts twice.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import eplab  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from workloads import (  # noqa: E402
    BATCH_TRIALS, PAIR_KINDS, TRUTH, CliFiles, FuzzJobs2, FuzzSmall, PairLarge,
    independent_facts, make_pair,
)


def test_fuzz_small_checker_rejects_wrong_counts_and_counts_violations():
    w = FuzzSmall(3)
    w.prepare()
    records = [op() for op in w.round_ops(0)]
    assert w.check(records) == ([], [])

    suite, t, checks, _ = records[0]
    assert w.check([(suite, t, checks + 1, ())])[1]
    injected = (suite, t, checks, (((3, t), "biconditional"),))
    failures, problems = w.check([injected])
    assert len(failures) == 1
    assert any("replay differs" in p for p in problems)


def test_fuzz_jobs2_checker_compares_with_jobs_1():
    w = FuzzJobs2(3)
    w.prepare()
    record = w.batch("same_kernel", 2)
    assert w.check([record]) == ([], [])

    suite, checks, violations = record
    assert w.check([(suite, checks - 2, violations)])[1]
    failures, problems = w.check([(suite, checks, ((0, "ab_ep", (3, 0)),))])
    assert len(failures) == 1 and problems


def test_pair_large_checker_rejects_a_flipped_flag():
    w = PairLarge(3, n=8, pair_rounds=1)
    w.prepare()
    records = [op() for op in w.round_ops(0)]
    assert w.check(records) == ([], [])

    index, i, facts = records[2]
    flipped = dict(facts, ab_ep=not facts["ab_ep"])
    assert w.check([(index, i, flipped)])[1]
    # applicability the construction rules out is a wrong answer too
    index, i, facts = records[1]
    applicable = dict(facts, inclusions_applicable=True, kernel_z_included=True)
    assert w.check([(index, i, applicable)])[1]


def test_pair_kinds_cover_both_truth_values_and_rank_tests_agree():
    assert {TRUTH[k]["ab_ep"] for k in PAIR_KINDS} == {True, False}
    rng = np.random.default_rng(5)
    for kind in PAIR_KINDS:
        a, b = make_pair(rng, kind, 12)
        facts = independent_facts(a, b)
        assert facts == {"ab_ep": TRUTH[kind]["ab_ep"], "cond_i": TRUTH[kind]["cond_i"]}


def test_cli_files_checker_rejects_bad_exit_envelope_and_flags():
    w = CliFiles(3)
    w.prepare()
    try:
        ops = w.round_ops(0)
        records = [ops[0](), ops[-1]()]  # classify one file, one short fuzz
    finally:
        w.cleanup()
    assert w.check(records) == ([], [])

    kind, command, code, stdout = records[0]
    assert len(w.check([(kind, command, 1, stdout)])[0]) == 1
    envelope = json.loads(stdout)
    del envelope["version"]
    assert w.check([(kind, command, 0, json.dumps(envelope))])[1]
    envelope = json.loads(stdout)
    envelope["result"]["flags"]["ep"] = not envelope["result"]["flags"]["ep"]
    assert w.check([(kind, command, 0, json.dumps(envelope))])[1]


def test_self_time_subtracts_children():
    spans = [
        ["bench.op", -1, 0.0, 10.0],
        ["products.hartwig_katz", 0, 1.0, 9.0],
        ["subspaces.range_basis", 1, 2.0, 5.0],
        ["lapack.svd", 2, 3.0, 4.0],
        ["lapack.svd_repeat", 1, 6.0, 7.0],
    ]
    metrics, counts = summarize([spans], ops=2, jobs=1)
    assert metrics["products.self_ms_per_op"][0] == pytest.approx(1e3 * 4.0 / 2)
    assert metrics["subspaces.self_ms_per_op"][0] == pytest.approx(1e3 * 2.0 / 2)
    assert metrics["kernel.lapack_ms_per_op"][0] == pytest.approx(1e3 * 2.0 / 2)
    assert metrics["kernel.svd_calls_per_op"][0] == 1.0
    assert metrics["kernel.repeat_svd_calls_per_op"][0] == 0.5


def _traced_counts(ops, worker_dir):
    tracer = Tracer(worker_dir=str(worker_dir))
    tracer.install()
    try:
        for op in ops:
            tracer.wrap("bench.op", op)()
    finally:
        tracer.uninstall()
    return summarize([tracer.spans] + tracer.collect_workers(), ops=len(ops), jobs=2)[1]


def test_traced_slice_counts_repeat_and_worker_spans_return(tmp_path):
    original = eplab.products.range_basis
    small = FuzzSmall(4)
    small.prepare()
    pool = FuzzJobs2(4)
    pool.prepare()
    ops = small.round_ops(0) + [lambda: pool.batch("hartwig_katz", 2)]

    first = _traced_counts(ops, tmp_path)
    assert first == _traced_counts(ops, tmp_path)
    assert eplab.products.range_basis is original
    assert first["fuzz.run_trial"] == len(small.round_ops(0)) + BATCH_TRIALS["hartwig_katz"]
    assert first["lapack.svd"] > 0 and first["subspaces.Subspace.__post_init__"] > 0


def test_rate_is_the_median_over_blocks_scaled_by_their_slowdown():
    from run import REFERENCE_SECONDS as ref
    from run import Round, rate_and_latencies

    def rnd(ops, wall, cpu, reference=()):
        return Round([wall / ops] * ops, [cpu / ops] * ops, list(reference), wall, cpu)

    # CPU blocks: 2 x 0.5 s, then 4 x 0.25 s plus the short tail 0.1 s
    rounds = [rnd(10, 0.6, 0.5)] * 2 + [rnd(10, 0.3, 0.25)] * 4 + [rnd(10, 0.1, 0.1)]
    rate, ms = rate_and_latencies(rounds, wall_clock=False)
    assert rate == pytest.approx((20 / 1.0 + 50 / 1.1) / 2)
    assert len(ms) == 70 and ms[0] == pytest.approx(10.0)
    assert rate_and_latencies(rounds, wall_clock=True)[0] == pytest.approx((20 / 1.2 + 50 / 1.3) / 2)

    # a block that ran twice as slow as the reference reads as at the reference
    slow = [rnd(10, 2.0, 2.0, [2 * ref, 2 * ref, 3 * ref])]
    rate, ms = rate_and_latencies(slow, wall_clock=False)
    assert rate == pytest.approx(10.0) and ms[0] == pytest.approx(100.0)
    assert rate_and_latencies(slow, wall_clock=False, scaled=False)[0] == pytest.approx(5.0)


def test_cpu_seconds_counts_a_child_process_waited_for():
    import subprocess

    from run import cpu_seconds

    burn = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.2: pass"
    before = cpu_seconds()
    subprocess.run([sys.executable, "-c", burn], check=True)
    assert cpu_seconds() - before >= 0.2
