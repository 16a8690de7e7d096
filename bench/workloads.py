"""The four benchmark workloads: inputs, one round of ops, and checkers.

A workload builds its inputs from the seed (untimed, not part of set-up),
then runs rounds of ops.  Every round is a fixed list of ops, so a run that
attempts whole rounds attempts the same mix whatever its length.  An op
returns a small record of the answers it got; :meth:`check` compares those
records with a separate computation or a property the answers must have,
and returns ``(failures, problems)``: ``failures`` describes ops that
failed (a theorem violation or a nonzero exit), ``problems`` the wrong
answers among the rest.  ``children`` says whether ops start processes
whose memory counts toward the workload's; ``cold_ops`` that each op is a
fresh process, so its set-up is the first, untimed op; ``wall_clock`` that
ops are timed by the wall clock rather than in CPU seconds, because they run
on several cores at once; ``scaled`` that the timed figures are scaled to
the reference machine speed, measured in the run.py process between ops.

eplab functions are looked up through their modules at call time, so a
tracer that replaced them is seen by these ops too.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SUITES = (
    "hartwig_katz", "group_invertible", "invariant_range", "same_kernel",
    "commuting_posinormal", "commuting_ep", "johnson_vinoth", "powers",
    "block_kernels", "collapse",
)
# checks each suite makes per trial (powers checks a, a^2, ..., a^5)
CHECKS_PER_TRIAL = {
    "hartwig_katz": 1, "group_invertible": 1, "invariant_range": 1,
    "same_kernel": 2, "commuting_posinormal": 1, "commuting_ep": 2,
    "johnson_vinoth": 1, "powers": 5, "block_kernels": 4, "collapse": 4,
}
FUZZ_DIMS = tuple(range(2, 9))
# trials per fuzz_jobs2 batch: about 100 ms of sequential work per suite
# (eplab 0.1.0, one BLAS thread), so batch latencies overlap
BATCH_TRIALS = {
    "hartwig_katz": 44, "group_invertible": 128, "invariant_range": 60,
    "same_kernel": 128, "commuting_posinormal": 80, "commuting_ep": 52,
    "johnson_vinoth": 76, "powers": 28, "block_kernels": 30, "collapse": 76,
}


# -- pair construction ------------------------------------------------------

PAIR_KINDS = ("commuting", "same_kernel", "generic")

# What each pair kind's construction makes true (see make_pair).
TRUTH = {
    "commuting": {
        "ab_ep": True, "ab_normal": True, "cond_i": True, "cond_ii": True,
        "range_identity": True, "kernel_identity": True,
        "jv_hyp_range": False, "jv_hyp_kernel": True,
        "b_prime_posinormal": True, "z_coposinormal": True, "y_zero": True,
        "inclusions_applicable": True,
    },
    "same_kernel": {
        "ab_ep": True, "ab_normal": False, "cond_i": True, "cond_ii": True,
        "range_identity": True, "kernel_identity": True,
        "jv_hyp_range": True, "jv_hyp_kernel": True,
        "b_prime_posinormal": True, "z_coposinormal": True, "y_zero": True,
        "inclusions_applicable": False,
    },
    "generic": {
        "ab_ep": False, "ab_normal": False, "cond_i": False, "cond_ii": False,
        "range_identity": False, "kernel_identity": False,
        "jv_hyp_range": False, "jv_hyp_kernel": False,
        "b_prime_posinormal": True, "z_coposinormal": True, "y_zero": False,
        "inclusions_applicable": False,
    },
}


def _unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _core(rng, r):
    """Invertible, non-normal r x r matrix with singular values in [1, 4]."""
    return _unitary(rng, r) @ np.diag(rng.uniform(1.0, 4.0, r)) @ _unitary(rng, r).conj().T


def _embed(u, *blocks):
    """u (block-diagonal of blocks) u*."""
    n = u.shape[0]
    full = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for block in blocks:
        k = block.shape[0]
        full[at : at + k, at : at + k] = block
        at += k
    return u @ full @ u.conj().T


def make_pair(rng, kind, n):
    """An EP pair (A, B) of rank n/2 whose facts are listed in TRUTH[kind].

    commuting: A = U (V Da V* + 0) U*, B = U (V Db V* + Z) U* with Da, Db
      diagonal and Z an EP block of rank n/4: AB = BA is normal and EP,
      N(A) reduces both, and R(B) is larger than R(A).
    same_kernel: A = U (Ca + 0) U*, B = U (Cb + 0) U* with independent
      non-normal cores: AB is EP, AB != BA.
    generic: A and B as above but with independent unitaries, so R(A) and
      R(B) are in general position and AB is not EP.
    """
    r = n // 2
    zero = np.zeros((n - r, n - r), dtype=np.complex128)
    if kind == "commuting":
        u, v = _unitary(rng, n), _unitary(rng, r)

        def normal_core():
            spectrum = rng.uniform(0.5, 2.0, r) * np.exp(2j * math.pi * rng.uniform(size=r))
            return v @ np.diag(spectrum) @ v.conj().T

        s = (n - r) // 2
        z = _embed(_unitary(rng, n - r), _core(rng, s), np.zeros((n - r - s,) * 2))
        return _embed(u, normal_core(), zero), _embed(u, normal_core(), z)
    if kind == "same_kernel":
        u = _unitary(rng, n)
        return _embed(u, _core(rng, r), zero), _embed(u, _core(rng, r), zero)
    return (
        _embed(_unitary(rng, n), _core(rng, r), zero),
        _embed(_unitary(rng, n), _core(rng, r), zero),
    )


def own_rank(m):
    """Numerical rank by the benchmark's own cutoff, 1e-9 * sigma_max."""
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > 1e-9 * s[0])) if s.size and s[0] > 0 else 0


def independent_facts(a, b):
    """AB's EP-ness and R(AB) in R(B), from rank tests alone."""
    ab = a @ b
    rank_ab = own_rank(ab)
    return {
        "ab_ep": own_rank(np.hstack([ab, ab.conj().T])) == rank_ab,
        "cond_i": own_rank(np.hstack([b, ab])) == own_rank(b),
    }


def compare(label, got, truth):
    """Problems for every key of ``got`` that differs from ``truth``."""
    return [
        f"{label}: {k} = {v}, expected {truth.get(k)}"
        for k, v in got.items()
        if v != truth.get(k)
    ]


# -- workloads --------------------------------------------------------------


class FuzzSmall:
    """One op is one ``run_trial``; a round is one trial of each suite."""

    name = "fuzz_small"
    trace_rounds = 50
    jobs = 1
    children = cold_ops = wall_clock = False
    scaled = True
    replay_every = 37  # replay every 37th op after the timed loop

    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        import eplab.fuzz

        self.fuzz = eplab.fuzz

    def round_ops(self, r, trace_dir=None):
        return [
            (lambda s=suite: self.trial(s, r)) for suite in SUITES
        ]

    def trial(self, suite, t):
        violations, checks = self.fuzz.run_trial(suite, self.seed, t, FUZZ_DIMS)
        return (suite, t, checks, tuple((v.seed, v.kind) for v in violations))

    def check(self, records):
        failures, problems = [], []
        for i, (suite, t, checks, violations) in enumerate(records):
            if violations:
                failures.append(f"violation {suite} seed={self.seed} trial={t}: {violations}")
            elif checks != CHECKS_PER_TRIAL[suite]:
                problems.append(f"{suite} trial {t}: {checks} checks, expected {CHECKS_PER_TRIAL[suite]}")
            if i % self.replay_every == 0 and self.trial(suite, t) != records[i]:
                problems.append(f"{suite} trial {t}: replay differs")
        return failures, problems


class FuzzJobs2(FuzzSmall):
    """One op is one ``run_suite(..., jobs=2)`` batch of one suite.

    Batch s covers trials 0..BATCH_TRIALS[s]-1 of suite s under the seed,
    which are the first rounds of ``fuzz_small``; each round repeats the ten
    batches.
    """

    name = "fuzz_jobs2"
    trace_rounds = 2
    jobs = 2
    children = wall_clock = True
    scaled = False

    def round_ops(self, r, trace_dir=None):
        return [(lambda s=suite: self.batch(s, self.jobs)) for suite in SUITES]

    def batch(self, suite, jobs):
        out = self.fuzz.run_suite(suite, BATCH_TRIALS[suite], FUZZ_DIMS, seed=self.seed, jobs=jobs)
        return (suite, out.checks, tuple((v.trial, v.kind, v.seed) for v in out.violations))

    def check(self, records):
        sequential = {suite: self.batch(suite, 1) for suite in {rec[0] for rec in records}}
        failures, problems = [], []
        for suite, checks, violations in records:
            if violations:
                failures.append(f"violations in {suite} batch, seed={self.seed}: {violations}")
            if (suite, checks, violations) != sequential[suite]:
                problems.append(f"{suite}: jobs=2 gives {checks} checks {violations}, jobs=1 {sequential[suite][1:]}")
            expected = BATCH_TRIALS[suite] * CHECKS_PER_TRIAL[suite]
            if not violations and checks != expected:
                problems.append(f"{suite}: {checks} checks, expected {expected}")
        return failures, problems


class PairLarge:
    """One op runs every library decision behind ``eplab classify``,
    ``product`` and ``decompose`` on one pair; a round is one pair of each
    kind.  ``pair_rounds`` distinct rounds of pairs are built and cycled."""

    name = "pair_large"
    trace_rounds = 2
    jobs = 1
    children = cold_ops = wall_clock = False
    scaled = True

    def __init__(self, seed, n=96, pair_rounds=6):
        self.seed, self.n, self.pair_rounds = seed, n, pair_rounds

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.pairs = [
            [(kind, make_pair(rng, kind, self.n)) for kind in PAIR_KINDS]
            for _ in range(self.pair_rounds)
        ]
        import eplab

        self.eplab = eplab

    def round_ops(self, r, trace_dir=None):
        index = r % self.pair_rounds
        return [
            (lambda a=a, b=b, i=i: (index, i, self.decide(a, b)))
            for i, (_, (a, b)) in enumerate(self.pairs[index])
        ]

    def decide(self, a, b):
        ep = self.eplab
        report = ep.predicates.classify(a @ b)
        hk = ep.products.hartwig_katz(a, b)
        jv = ep.products.johnson_vinoth_check(a, b)
        dj = ep.products.djordjevic_check(a, b)
        dec = ep.structure.decompose_pair(a, b)
        conditions = ep.structure.posinormal_product_conditions(dec)
        facts = {
            "ab_ep": report.ep,
            "ab_normal": report.normal,
            "ab_posinormal": report.posinormal,
            "ab_coposinormal": report.coposinormal,
            "ab_quasiposinormal": report.quasiposinormal,
            "ab_hypo_ep": report.hypo_ep,
            "classify_conflicts": bool(report.conflicts),
            "hk_ab_ep": hk.ab_ep,
            "cond_i": hk.cond_i,
            "cond_ii": hk.cond_ii,
            "a_ep": hk.a_ep,
            "b_ep": hk.b_ep,
            "range_identity": hk.range_identity,
            "kernel_identity": hk.kernel_identity,
            "jv_hyp_range": jv.hyp_range,
            "jv_hyp_kernel": jv.hyp_kernel,
            "jv_ab_hypo_ep": jv.ab_hypo_ep,
            "dj_ab_ep": dj.ab_ep,
            "b_prime_posinormal": conditions.b_prime_posinormal,
            "z_coposinormal": conditions.z_coposinormal,
            "y_zero": conditions.y_zero,
        }
        try:
            inclusions = ep.structure.block_kernel_inclusions(dec)
        except ep.errors.InapplicableError:
            facts["inclusions_applicable"] = False
        else:
            facts["inclusions_applicable"] = True
            facts["kernel_z_included"] = inclusions.kernel_z_included
            facts["kernel_bprime_included"] = inclusions.kernel_bprime_included
        return facts

    @staticmethod
    def expected(kind):
        truth = dict(TRUTH[kind])
        ab_ep = truth["ab_ep"]
        # on C^n the posinormal family and hypo-EP coincide with EP
        for key in ("hk_ab_ep", "ab_posinormal", "ab_coposinormal",
                    "ab_quasiposinormal", "ab_hypo_ep", "jv_ab_hypo_ep", "dj_ab_ep"):
            truth[key] = ab_ep
        truth.update(a_ep=True, b_ep=True, classify_conflicts=False)
        if truth["inclusions_applicable"]:
            truth.update(kernel_z_included=True, kernel_bprime_included=True)
        return truth

    def check(self, records):
        problems = []
        independent = {}
        for index, i, facts in records:
            kind, (a, b) = self.pairs[index][i]
            truth = self.expected(kind)
            label = f"pair {index}/{kind}"
            problems += compare(label, facts, truth)
            if (index, i) not in independent:
                independent[(index, i)] = independent_facts(a, b)
                problems += compare(label + " (rank test)", independent[(index, i)], truth)
        return [], problems


class CliFiles:
    """One op is one cold ``python -m eplab.cli`` process.

    A round runs classify (on AB), product and decompose for one small pair
    of each kind, then one short ``fuzz``, all on files written in
    :meth:`prepare`.
    """

    name = "cli_files"
    trace_rounds = 1
    jobs = 1
    children = cold_ops = scaled = True
    wall_clock = False
    n = 8
    fuzz_trials = 24
    ENVELOPE_KEYS = {"command", "inputs", "tolerances", "result", "violations", "version"}

    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        self.dir = OUT / f"cli-files-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.commands = []
        for kind in PAIR_KINDS:
            a, b = make_pair(rng, kind, self.n)
            paths = {}
            for tag, m in (("a", a), ("b", b), ("ab", a @ b)):
                paths[tag] = str(self.dir / f"{kind}_{tag}.cmat")
                Path(paths[tag]).write_text(format_cmat(m), encoding="utf-8")
            self.commands += [
                (kind, ["classify", paths["ab"]]),
                (kind, ["product", paths["a"], paths["b"]]),
                (kind, ["decompose", paths["a"], paths["b"]]),
            ]
        self.commands.append(("fuzz", [
            "fuzz", "hartwig_katz", "--trials", str(self.fuzz_trials),
            "--dims", f"{FUZZ_DIMS[0]}:{FUZZ_DIMS[-1]}", "--seed", str(self.seed),
        ]))

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def round_ops(self, r, trace_dir=None):
        ops = []
        for i, (kind, argv) in enumerate(self.commands):
            if trace_dir is None:
                cmd = [sys.executable, "-m", "eplab.cli", *argv]
            else:
                out = str(Path(trace_dir) / f"cli-{r}-{i}.json")
                cmd = [sys.executable, str(BENCH / "probe.py"), "cli", out, *argv]
            ops.append(lambda kind=kind, argv=argv, cmd=cmd: (kind, argv[0], *invoke(cmd)))
        return ops

    def check(self, records):
        failures, problems = [], []
        for kind, command, code, stdout in records:
            label = f"{command} {kind}"
            if code != 0:
                failures.append(f"{label}: exit code {code}")
                continue
            try:
                envelope = json.loads(stdout)
            except ValueError:
                envelope = None
            if not isinstance(envelope, dict) or set(envelope) != self.ENVELOPE_KEYS:
                problems.append(f"{label}: output is not one envelope with the six keys")
                continue
            problems += compare(label, self.answers(command, envelope["result"]), self.truth(kind, command))
        return failures, problems

    @staticmethod
    def answers(command, result):
        if command == "classify":
            flags = result["flags"]
            return {"ab_ep": flags["ep"], "ab_posinormal": flags["posinormal"]}
        if command == "product":
            hk, dj = result["hartwig_katz"], result["djordjevic"]
            return {
                "ab_ep": hk["ab_ep"], "cond_i": hk["cond_i"], "cond_ii": hk["cond_ii"],
                "dj_applicable": "ab_ep" in dj, "jv_hyp_range": result["johnson_vinoth"]["hyp_range"],
            }
        if command == "decompose":
            return {
                "inclusions_applicable": result["kernel_inclusions"].get("applicable", True),
                "y_zero": result["conditions"]["y_zero"],
            }
        return {"ok": result["ok"], "checks": result["checks"], "violation_count": result["violation_count"]}

    def truth(self, kind, command):
        if command == "fuzz":
            return {"ok": True, "checks": self.fuzz_trials * CHECKS_PER_TRIAL["hartwig_katz"], "violation_count": 0}
        truth = dict(TRUTH[kind])
        truth.update(ab_posinormal=truth["ab_ep"], dj_applicable=True)
        return truth


def format_cmat(m):
    """CMAT v1 text, written here rather than by eplab's matfile layer."""
    lines = [f"cmat 1 {m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(f"{float(z.real)!r}:{float(z.imag)!r}" for z in row))
    return "\n".join(lines) + "\n"


def invoke(cmd):
    """Run one child process, importing eplab from this checkout, to
    completion; returns (exit code, stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


WORKLOADS = {w.name: w for w in (FuzzSmall, PairLarge, CliFiles, FuzzJobs2)}
