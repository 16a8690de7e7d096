import numpy as np
import pytest

from eplab import (
    DEFAULT_TOLERANCES,
    EplabError,
    InapplicableError,
    InputError,
    catalog,
    catalog_names,
    classify,
    decompose_pair,
    djordjevic_check,
    group_invertible_check,
    hartwig_katz,
    intersect,
    is_ep,
    johnson_vinoth_check,
    posinormal_product_conditions,
    power_ep,
    product_range_identity,
    random_commuting_ep_pair,
    random_ep,
    random_invariant_range_b,
    random_same_kernel_pair,
    random_unitary,
    range_basis,
)
from eplab import subspaces
from eplab.config import gate
from eplab.products import _hartwig_katz
from eplab.subspaces import factor_pair

G = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
P = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
# N^2 = 0 exactly, but the square of N / ||N||_2 is roundoff, not 0
NILPOTENT = np.array([[1 + 1j, 1 + 1j], [-1 - 1j, -1 - 1j]])


def _ep_pair_draws():
    """240 seeded EP pairs, drawn as the hartwig_katz fuzz suite draws."""
    for seed in range(240):
        rng = np.random.default_rng(12_100 + seed)
        n = int(rng.integers(2, 9))
        yield tuple(
            random_ep(n, int(rng.integers(0, n + 1)), seed=rng, cond_cap=1e2)
            for _ in range(2)
        )


class TestHartwigKatz:
    def test_the_theorem_facts_are_the_reports(self):
        # the hartwig_katz suite decides from cond_i, cond_ii and ab_ep alone,
        # on a pair of its own; the full report reads the same three facts
        keys = ("cond_i", "cond_ii", "ab_ep")
        ab_ep_seen = set()
        for a, b in _ep_pair_draws():
            facts = factor_pair(a, b).fact(_hartwig_katz)
            flags = gate(DEFAULT_TOLERANCES, **facts)
            subspaces._last_pair = (None, None)
            report = hartwig_katz(a, b)
            assert list(facts) == list(keys)
            for key in keys:
                want = np.float64(report.residuals[key]).tobytes()
                assert np.float64(facts[key]).tobytes() == want
                assert flags[key] is getattr(report, key)
            ab_ep_seen.add(report.ab_ep)
        assert ab_ep_seen == {True, False}

    def test_shear_then_projection(self):
        report = hartwig_katz(G, P)
        assert report.cond_i and report.cond_ii
        assert report.ab_ep
        assert report.a_ep and report.b_ep

    def test_projection_then_shear(self):
        # oracle by direct arithmetic: kernel(P) is the e2 line, and
        # PG e2 = (1, 0) != 0, so kernel(P) is not inside kernel(PG)
        pg = P @ G
        e2 = np.array([0.0, 1.0])
        assert np.linalg.norm(pg @ e2) == pytest.approx(1.0)
        report = hartwig_katz(P, G)
        assert report.cond_i is True
        assert report.cond_ii is False
        assert report.ab_ep is False
        assert report.ab_ep == (report.cond_i and report.cond_ii)

    def test_identity_pair(self):
        report = hartwig_katz(np.eye(2), np.eye(2))
        assert all(
            [
                report.cond_i,
                report.cond_ii,
                report.ab_ep,
                report.a_ep,
                report.b_ep,
                report.range_identity,
                report.kernel_identity,
            ]
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_biconditional_on_random_ep_pairs(self, seed):
        rng = np.random.default_rng(9000 + seed)
        n = int(rng.integers(2, 9))
        a = random_ep(n, int(rng.integers(0, n + 1)), seed=rng, cond_cap=1e2)
        b = random_ep(n, int(rng.integers(0, n + 1)), seed=rng, cond_cap=1e2)
        report = hartwig_katz(a, b)
        assert report.ab_ep == (report.cond_i and report.cond_ii)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_vanishing_product_of_ep_pairs(self, n):
        # A = U (C ⊕ 0) U*, B = U (0 ⊕ D) U*: R(B) = N(A), so AB = 0 and
        # every range and kernel fact of the product holds
        rng = np.random.default_rng(9100 + n)
        wrong = []
        for _ in range(30):
            r = int(rng.integers(1, n))
            u = random_unitary(n, rng)
            c, d = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                    for k in (r, n - r))
            a = u[:, :r] @ c @ u[:, :r].conj().T
            b = u[:, r:] @ d @ u[:, r:].conj().T
            report = hartwig_katz(a, b)
            flags = (report.cond_i, report.cond_ii, report.range_identity,
                     report.kernel_identity, report.ab_ep)
            if not all(flags):
                wrong.append((r, flags))
        assert wrong == []

    @pytest.mark.parametrize("d", [1e-12, 1e-10, 1e-9])
    def test_tilt_below_the_gate_is_no_tilt(self, d):
        # B projects onto span(e1, e2 + d e3): R(B) is within the sine d of
        # R(A) = span(e1, e2), which the gate cannot tell from 0, so the
        # range intersection and kernel sum are those of d = 0
        a = np.diag([1.0, 1.0, 0.0]).astype(complex)
        q, _ = np.linalg.qr(np.array([[1, 0], [0, 1], [0, d]], dtype=complex))
        report = hartwig_katz(a, q @ q.conj().T)
        flags = {k: getattr(report, k) for k in (
            "cond_i", "cond_ii", "ab_ep", "a_ep", "b_ep",
            "range_identity", "kernel_identity",
        )}
        assert all(flags.values()), flags
        assert report.residuals["range_identity"] == 0.0
        assert report.residuals["kernel_identity"] == 0.0


class TestGroupInvertible:
    def test_nilpotent_all_false(self):
        report = group_invertible_check(JORDAN)
        assert not report.kernel_stable
        assert not report.range_stable
        assert not report.rank_stable
        assert report.residuals["rank"] == 1.0
        assert report.residuals["rank_squared"] == 0.0

    def test_nilpotent_with_inexact_unit_scale(self):
        report = group_invertible_check(NILPOTENT)
        assert (report.kernel_stable, report.range_stable, report.rank_stable) == (
            False, False, False
        )
        assert report.residuals["rank_squared"] == 0.0

    def test_invertible_all_true(self):
        report = group_invertible_check(G)
        assert report.kernel_stable and report.range_stable and report.rank_stable

    @pytest.mark.parametrize("delta", [1e-13, 1e-12, 1e-11])
    def test_near_nilpotent_rank_counts_what_the_gate_does_not(self, delta):
        # A = U [[delta, 1], [0, 0]] U* has rank 1 and index 1, but A^2 has
        # the singular value delta, below the gate and above the rank
        # threshold: roundoff of order eps tilts N(A^2) and R(A^2) by about
        # eps / delta, which the gated faces see, while the rank count
        # keeps rank A^2 = rank A.  This pins the split as it stands.
        u = random_unitary(2, seed=3)
        a = u @ np.array([[delta, 1.0], [0.0, 0.0]]) @ u.conj().T
        report = group_invertible_check(a)
        assert (report.kernel_stable, report.range_stable, report.rank_stable) == (
            False, False, True
        )
        assert report.residuals["rank"] == report.residuals["rank_squared"] == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_ep_matrices_all_true(self, seed):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(2, 9))
        a = random_ep(n, int(rng.integers(0, n + 1)), seed=rng)
        report = group_invertible_check(a)
        assert report.kernel_stable and report.range_stable and report.rank_stable


class TestProductRangeIdentity:
    def test_nilpotent_witness(self):
        # hypothesis holds vacuously (range of the square is {0}) but the
        # conclusion fails: the intersection is the whole range line
        report = product_range_identity(JORDAN, JORDAN)
        assert report.hypothesis is True
        assert report.conclusion is False
        meet = intersect(range_basis(JORDAN), range_basis(JORDAN))
        assert meet.dim == 1

    def test_identity_second_factor(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        report = product_range_identity(a, np.eye(4))
        assert report.hypothesis and report.conclusion

    @pytest.mark.parametrize("seed", range(15))
    def test_invariant_range_pairs(self, seed):
        rng = np.random.default_rng(11_000 + seed)
        n = int(rng.integers(2, 9))
        a = random_ep(n, int(rng.integers(0, n + 1)), seed=rng, cond_cap=1e2)
        b = random_invariant_range_b(a, seed=rng)
        report = product_range_identity(a, b)
        assert report.hypothesis
        assert report.conclusion


class TestDjordjevic:
    def test_requires_ep_pair(self):
        with pytest.raises(InapplicableError):
            djordjevic_check(JORDAN, np.eye(2))

    def test_order_dependent_pair_keeps_equivalence(self):
        for pair in ((G, P), (P, G)):
            report = djordjevic_check(*pair)
            assert report.ab_ep == (report.range_identity and report.kernel_identity)

    @pytest.mark.parametrize("seed", range(10))
    def test_commuting_ep_pairs_all_hold(self, seed):
        rng = np.random.default_rng(12_000 + seed)
        n = int(rng.integers(2, 9))
        a, b = random_commuting_ep_pair(n, int(rng.integers(1, n + 1)), seed=rng)
        report = djordjevic_check(a, b)
        assert report.ab_ep and report.range_identity and report.kernel_identity

    def test_identities_decide_ab_ep_on_random_ep_pairs(self):
        # for EP operands AB is EP iff R(AB) = R(A) ∩ R(B) and
        # N(AB) = N(A) + N(B)
        wrong, ab_ep_seen = [], set()
        for seed, (a, b) in enumerate(_ep_pair_draws()):
            report = hartwig_katz(a, b)
            if not (report.a_ep and report.b_ep):
                continue
            ab_ep_seen.add(report.ab_ep)
            if report.ab_ep != (report.range_identity and report.kernel_identity):
                wrong.append((seed, report.residuals))
        assert wrong == []
        assert ab_ep_seen == {True, False}

    def test_the_kernel_identity_by_coranges_is_the_sum_route(self):
        # N(AB) = N(A) + N(B) is decided by complements, R((AB)*) = R(B*) ∩
        # R(A*); the sum of the kernels is the reference, within 8 eps n
        rng = np.random.default_rng(34_000)

        def low_rank(n):
            k = int(rng.integers(0, n + 1))
            g = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return g(n, k) @ g(k, n)

        drawn = [(n, int(rng.integers(0, n + 1))) for n in range(2, 9) for _ in range(8)]
        pairs = [
            *_ep_pair_draws(),
            *(random_commuting_ep_pair(n, max(r, 1), seed=rng) for n, r in drawn),
            *(random_same_kernel_pair(n, r, seed=rng) for n, r in drawn),
            *((low_rank(n), low_rank(n)) for n, _ in drawn),
        ]
        flags = set()
        for a, b in pairs:
            pair = factor_pair(a, b)
            sum_route = subspaces.equality_residual(
                pair.fab.kernel, subspaces.subspace_sum(pair.fa.kernel, pair.fb.kernel)
            )
            report = hartwig_katz(a, b)
            eps_n = 8 * np.finfo(float).eps * len(a)
            assert abs(report.residuals["kernel_identity"] - sum_route) <= eps_n
            assert report.kernel_identity == gate(DEFAULT_TOLERANCES, r=sum_route)["r"]
            flags.add(report.kernel_identity)
        assert flags == {True, False}

    def test_identity_with_random_ep(self):
        b = random_ep(5, 3, seed=3)
        report = djordjevic_check(np.eye(5), b)
        assert report.ab_ep and report.range_identity and report.kernel_identity


class TestJohnsonVinoth:
    @pytest.mark.parametrize("seed", range(10))
    def test_generated_pairs_satisfy_hypotheses(self, seed):
        rng = np.random.default_rng(13_000 + seed)
        n = int(rng.integers(2, 9))
        # EP matrices sharing their kernel share their range too
        a, b = random_same_kernel_pair(
            n, int(rng.integers(0, n + 1)), seed=rng, cond_cap=1e2
        )
        report = johnson_vinoth_check(a, b)
        assert report.hyp_range and report.hyp_kernel
        assert report.ab_hypo_ep

    def test_self_pair_for_ep_input(self):
        a = random_ep(6, 4, seed=9)
        report = johnson_vinoth_check(a, a)
        assert report.hyp_range and report.hyp_kernel
        assert report.ab_hypo_ep  # the square of an EP matrix stays hypo-EP

    def test_hypotheses_fail_without_domination(self):
        report = johnson_vinoth_check(P, G)
        assert report.hyp_range is False


class TestPowers:
    def test_projection_powers(self):
        assert power_ep(np.diag([1.0, 0.0]), 3) == [True, True, True]

    def test_jordan_powers(self):
        assert power_ep(JORDAN, 2) == [False, True]

    def test_vanishing_powers_are_ep(self):
        assert power_ep(NILPOTENT, 3) == [False, True, True]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_ep_powers(self, seed):
        a = random_ep(8, 5, seed=14_000 + seed, cond_cap=5.0)
        assert power_ep(a, 5) == [True] * 5

    def test_rejects_bad_power(self):
        with pytest.raises(InputError):
            power_ep(np.eye(2), 0)

    @pytest.mark.parametrize("n", [True, False, 2.0])
    def test_rejects_a_count_that_is_not_an_integer(self, n):
        # a bool is an int to isinstance, so True read as the power count 1
        with pytest.raises(InputError, match="power count must be a positive integer"):
            power_ep(np.eye(2), n)


class TestReverseOrder:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_kernel_pairs_ep_in_both_orders(self, seed):
        rng = np.random.default_rng(15_000 + seed)
        n = int(rng.integers(2, 9))
        a, b = random_same_kernel_pair(n, int(rng.integers(0, n + 1)), seed=rng)
        assert classify(a @ b).ep
        assert classify(b @ a).ep

    @pytest.mark.parametrize("seed", range(8))
    def test_commuting_pairs_agree_across_orders(self, seed):
        rng = np.random.default_rng(16_000 + seed)
        n = int(rng.integers(2, 9))
        a, b = random_commuting_ep_pair(n, int(rng.integers(1, n + 1)), seed=rng)
        ab_flag, _ = is_ep(a @ b)
        ba_flag, _ = is_ep(b @ a)
        assert ab_flag == ba_flag
        report = classify(a @ b)
        assert report.ep and report.coposinormal


class TestScaleSafety:
    """The procedures are homogeneous: scaling the inputs across the double
    range must not change a flag (products of the raw inputs would overflow
    at 1e170 and underflow at 1e-170)."""

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_hartwig_katz(self, scale):
        x, y = random_same_kernel_pair(6, 3, 11)
        expected = hartwig_katz(x, y)
        report = hartwig_katz(scale * x, scale * y)
        for flag in ("cond_i", "cond_ii", "ab_ep", "a_ep", "b_ep",
                     "range_identity", "kernel_identity"):
            assert getattr(report, flag) == getattr(expected, flag), flag
        assert expected.range_identity and expected.kernel_identity

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_group_invertible(self, scale):
        a = random_ep(6, 3, 12)
        expected = group_invertible_check(a)
        report = group_invertible_check(scale * a)
        assert (report.kernel_stable, report.range_stable, report.rank_stable) == (
            expected.kernel_stable, expected.range_stable, expected.rank_stable,
        ) == (True, True, True)
        assert report.residuals["rank_squared"] == 3.0

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_johnson_vinoth(self, scale):
        x, y = random_same_kernel_pair(6, 3, 11)
        expected = johnson_vinoth_check(x, y)
        report = johnson_vinoth_check(scale * x, scale * y)
        assert (report.hyp_range, report.hyp_kernel, report.ab_hypo_ep) == (
            expected.hyp_range, expected.hyp_kernel, expected.ab_hypo_ep,
        ) == (True, True, True)

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_power_ep(self, scale):
        x, _ = random_same_kernel_pair(6, 3, 11)
        assert power_ep(scale * x, 3) == power_ep(x, 3) == [True] * 3

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_product_range_identity(self, scale):
        x, y = random_same_kernel_pair(6, 3, 11)
        expected = product_range_identity(x, y)
        report = product_range_identity(scale * x, scale * y)
        assert (report.hypothesis, report.conclusion) == (
            expected.hypothesis, expected.conclusion,
        ) == (True, True)

    @pytest.mark.parametrize("k", [-1060, -1050, -1045, -1040, -1030, -1000, -500, 500, 1000])
    def test_integer_pairs_are_decided_alike_across_the_double_range(self, k):
        # 2**k times a pair of integer entries is stored exactly, subnormal
        # (k <= -1030) or not, so it is the same pair: every flag, every error
        # raised and, within 1e-14, every unitless residual is the unit pair's.
        # At 2**-1045 shear_projection_pair's AB reads hypo-EP only so, and its
        # cond_i and ab_ep read 2.7e-17 only if the product keeps its bits
        pairs = [(p.a, p.b) for p in map(catalog, catalog_names())]
        for a, b in [*pairs, (np.eye(3), np.diag([2.0, 1.0, 0.0]))]:
            for part in ("real", "imag"):  # 2**k * a is stored exactly
                assert np.array_equal(np.ldexp(getattr(2.0**k * a, part), -k), getattr(a, part))
            flags, residuals = _every_outcome(2.0**k * a, 2.0**k * b)
            unit_flags, unit_residuals = _every_outcome(a, b)
            assert flags == unit_flags
            assert residuals.keys() == unit_residuals.keys()
            for key, residual in residuals.items():
                assert abs(residual - unit_residuals[key]) <= 1e-14, (key, residual)

    def test_a_largest_singular_value_beyond_the_double_range_is_inapplicable(self):
        # finite entries, but sigma_1 = 2**1024 overflows: no rank 0, no flag
        m = 2.0**1023 * np.ones((2, 2))
        for procedure in (classify, group_invertible_check, lambda m: hartwig_katz(m, m)):
            with pytest.raises(InapplicableError, match="singular value is not finite"):
                procedure(m)


def _every_outcome(a, b):
    """The flags of every report on (a, b), or the name of the error raised,
    and every residual they report, all unitless, keyed by report."""
    procedures = {
        "classify_a": lambda: classify(a), "classify_b": lambda: classify(b),
        "hartwig_katz": lambda: hartwig_katz(a, b),
        "johnson_vinoth": lambda: johnson_vinoth_check(a, b),
        "group_invertible": lambda: group_invertible_check(a),
        "power_ep": lambda: power_ep(a, 3),
        "decompose": lambda: decompose_pair(a, b),
        "posinormal_product": lambda: posinormal_product_conditions(decompose_pair(a, b)),
    }
    flags, residuals = [], {}
    for name, procedure in procedures.items():
        try:
            report = procedure()
        except EplabError as exc:
            flags.append(type(exc).__name__)
            continue
        values = report if isinstance(report, list) else report._values()
        flags.append([v for v in values if type(v) is bool])
        fields = getattr(report, "_fields", ())  # y_norm is a field, not a residual
        named = getattr(report, "residuals", {}) | {
            f: v for f, v in zip(fields, values) if type(v) is float
        }
        residuals |= {f"{name}.{key}": value for key, value in named.items()}
    return flags, residuals
