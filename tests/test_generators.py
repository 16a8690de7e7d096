import math

import numpy as np
import pytest

from eplab import (
    DEFAULT_TOLERANCES,
    InputError,
    ToleranceConfig,
    catalog,
    catalog_names,
    classify,
    equals,
    hartwig_katz,
    includes,
    intersect,
    kernel_basis,
    minimal_angle,
    numerical_rank,
    product_range_identity,
    random_commuting_ep_pair,
    random_ep,
    random_invariant_range_b,
    random_same_kernel_pair,
    random_unitary,
    range_basis,
    run_suite,
    shift_block_pair,
    sweep,
    tilted_projection_pair,
    weighted_shift_truncation,
)
from eplab import generators, subspaces


class TestDeterminism:
    def test_bit_identical_draws(self):
        for maker in (
            lambda s: random_ep(6, 3, seed=s),
            lambda s: random_unitary(5, seed=s),
            lambda s: random_commuting_ep_pair(6, 2, seed=s)[1],
            lambda s: random_same_kernel_pair(5, 3, seed=s)[0],
        ):
            first, second = maker(424242), maker(424242)
            assert np.array_equal(first, second)
            assert not np.array_equal(first, maker(424243))

    def test_invariant_range_deterministic(self):
        a = random_ep(5, 3, seed=1)
        assert np.array_equal(
            random_invariant_range_b(a, seed=77), random_invariant_range_b(a, seed=77)
        )


def _two_call_gaussian(rng, rows, cols):
    """The complex Gaussian rule the draws are pinned to: two
    standard_normal calls, real part first."""
    re = rng.standard_normal((rows, cols))
    return (re + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)


def _cond_capped_core(rng, r, cap):
    """(core, rejected tries) under the pinned cap rule, numpy's cond."""
    rejected = 0
    while True:
        c = _two_call_gaussian(rng, r, r)
        if np.linalg.cond(c) <= cap:
            return c, rejected
        rejected += 1


class TestDrawsAreReplayed:
    # the generators draw complex Gaussians from one standard_normal call and
    # test condition caps on subspaces._cond; both must replay, bit for bit,
    # the stream and the accept/reject decisions of the rules above

    def test_gaussians_and_unitaries(self):
        for seed in range(500):
            rows, cols = (int(k) for k in np.random.default_rng(seed).integers(0, 9, 2))
            got = generators._complex_gaussian(np.random.default_rng(seed), rows, cols)
            want = _two_call_gaussian(np.random.default_rng(seed), rows, cols)
            assert np.array_equal(got, want)
            n = max(rows, 1)
            q, r = np.linalg.qr(_two_call_gaussian(np.random.default_rng(seed), n, n))
            d = np.diag(r).copy()
            d[d == 0] = 1.0
            assert np.array_equal(random_unitary(n, seed), q * (d / np.abs(d)))

    def test_gaussians_are_the_one_call_formula_byte_for_byte(self):
        # filled in place, as (g[0] + 1j * g[1]) / sqrt(2) of the same draws
        for seed in range(200):
            for rows, cols in ((3, 3), (0, 4), (4, 0), (0, 0), (8, 3)):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = generators._complex_gaussian(rng, rows, cols)
                g = ref_rng.standard_normal((2, rows, cols))
                want = (g[0] + 1j * g[1]) / math.sqrt(2.0)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cap", [5.0, 1e2])
    def test_condition_capped_cores(self, cap, monkeypatch):
        tries, gaussian = [], generators._complex_gaussian

        def counting(rng, rows, cols):
            tries.append(1)
            return gaussian(rng, rows, cols)

        monkeypatch.setattr(generators, "_complex_gaussian", counting)
        rejected = []
        for seed in range(500):
            r = 1 + seed % 4
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            tries.clear()
            core = generators._invertible_core(rng, r, cap)
            want, ref_rejected = _cond_capped_core(ref_rng, r, cap)
            assert np.array_equal(core, want)
            assert len(tries) - 1 == ref_rejected
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert subspaces._cond(core) == np.linalg.cond(core)
            rejected.append(ref_rejected)
        if cap == 5.0:  # the cap decides: 676 of 1176 tries are rejected
            assert sum(rejected) > 0.4 * (len(rejected) + sum(rejected))

    def test_the_sampler_gives_up_after_its_tries(self, monkeypatch):
        monkeypatch.setattr(generators, "_MAX_REJECTION_TRIES", 3)
        with pytest.raises(InputError, match="^could not sample a 3x3 core"):
            generators._invertible_core(np.random.default_rng(0), 3, 1.0 + 1e-9)

    @pytest.mark.parametrize(
        "m", [np.zeros((3, 3)), np.diag([1.0, 0.0]), np.diag([2j, 0.0, 1.0])]
    )
    def test_a_singular_matrix_has_infinite_condition(self, m):
        assert subspaces._cond(m) == np.linalg.cond(m) == math.inf


class TestRandomEp:
    def test_full_rank_and_zero_rank(self):
        assert classify(random_ep(4, 4, seed=0)).ep
        assert np.array_equal(random_ep(4, 0, seed=0), np.zeros((4, 4)))

    @pytest.mark.parametrize("seed", range(10))
    def test_classifies_ep_with_tight_residuals(self, seed):
        rng = np.random.default_rng(20_000 + seed)
        n = int(rng.integers(2, 9))
        r = int(rng.integers(0, n + 1))
        report = classify(random_ep(n, r, seed=rng))
        assert report.ep
        assert report.rank.rank == r
        assert report.residuals["ep_equality"] < 1e-9

    def test_condition_cap_respected(self):
        a = random_ep(6, 6, seed=3, cond_cap=10.0)
        assert np.linalg.cond(a) <= 10.0 + 1e-6

    def test_invalid_rank(self):
        with pytest.raises(InputError):
            random_ep(3, 4, seed=0)
        with pytest.raises(InputError):
            random_ep(3, -1, seed=0)


class TestPairs:
    @pytest.mark.parametrize("seed", range(10))
    def test_commuting_pair_commutes_and_is_ep(self, seed):
        rng = np.random.default_rng(21_000 + seed)
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        a, b = random_commuting_ep_pair(n, r, seed=rng)
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        assert np.linalg.norm(a @ b - b @ a) <= 1e-10 * scale
        assert classify(a).ep and classify(b).ep

    def test_commuting_pair_full_rank(self):
        a, b = random_commuting_ep_pair(4, 4, seed=5)
        assert numerical_rank(a).rank == 4
        assert numerical_rank(b).rank == 4

    def test_commuting_pair_rejects_rank_zero(self):
        with pytest.raises(InputError):
            random_commuting_ep_pair(4, 0, seed=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_same_kernel_pair(self, seed):
        rng = np.random.default_rng(22_000 + seed)
        n = int(rng.integers(2, 9))
        r = int(rng.integers(0, n + 1))
        a, b = random_same_kernel_pair(n, r, seed=rng)
        assert equals(kernel_basis(a), kernel_basis(b))
        assert classify(a @ b).ep

    def test_same_kernel_full_rank_product_invertible(self):
        a, b = random_same_kernel_pair(4, 4, seed=11)
        assert numerical_rank(a @ b).rank == 4


# each generator drawing a core under cond_cap, as f(rank, cond_cap) at n = 4;
# the commuting pair rejects rank 0 itself, and at rank 4 the EP block on its
# complement has rank 0
_CAPPED = {
    "random_ep": lambda r, cap: random_ep(4, r, 0, cap),
    "random_same_kernel_pair": lambda r, cap: random_same_kernel_pair(4, r, 0, cap),
    "random_commuting_ep_pair": lambda r, cap: random_commuting_ep_pair(
        4, r or 4, 0, cap
    ),
}


class TestConditionCap:
    # no condition number is below 1, so a cap of 1 or less is an input
    # error at once, never a spin through the rejection sampler, and at
    # rank 0 too, where no core is sampled
    @pytest.mark.parametrize("cap", [1.0, 0.5])
    @pytest.mark.parametrize("rank", [0, 2])
    @pytest.mark.parametrize("name", sorted(_CAPPED))
    def test_a_cap_of_at_most_one_is_rejected(self, name, rank, cap):
        with pytest.raises(InputError, match="^cond_cap must exceed 1$"):
            _CAPPED[name](rank, cap)


class TestInvariantRange:
    @pytest.mark.parametrize("seed", range(8))
    def test_hypothesis_holds_on_every_draw(self, seed):
        rng = np.random.default_rng(23_000 + seed)
        n = int(rng.integers(2, 8))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = random_invariant_range_b(a, seed=rng)
        assert includes(range_basis(a @ b), range_basis(b))

    def test_an_empty_matrix_gives_an_empty_draw(self):
        a = np.zeros((0, 0), dtype=complex)
        b = random_invariant_range_b(a, seed=0)
        assert b.shape == (0, 0) and b is not a

    def test_diagonal_invariant_spans(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        seen = set()
        for seed in range(40):
            b = random_invariant_range_b(a, seed=seed)
            s = range_basis(b)
            if s.dim == 2:
                seen.add("full")
            elif abs(s.basis[0, 0]) > abs(s.basis[1, 0]):
                seen.add("e1")
            else:
                seen.add("e2")
        assert seen == {"full", "e1", "e2"}

    def test_every_rank_decision_is_under_the_callers_config(self, monkeypatch):
        # the span, from eigenvectors or, for the Jordan block, a Krylov
        # chain, is the one rank decision the generator makes, and it is
        # made under the config given
        cfg = ToleranceConfig(rank_multiplier=20.0, subspace_tol=1e-9)
        matrices = [random_ep(5, 3, seed, cond_cap=1e2) for seed in range(6)]
        matrices.append(np.eye(3, k=1, dtype=complex))
        decide, configs = subspaces.decide_rank, []

        def recording(s, shape, cfg=DEFAULT_TOLERANCES, scale=None):
            configs.append(cfg)
            return decide(s, shape, cfg, scale)

        monkeypatch.setattr(subspaces, "decide_rank", recording)
        for seed, a in enumerate(matrices):
            random_invariant_range_b(a, seed, cfg)
        assert configs and set(configs) == {cfg}

    def test_one_span_per_draw_at_a_tight_tolerance(self, monkeypatch):
        # the generator draws and the trial decides: below roundoff, where
        # R(AB) ⊆ R(B) often fails numerically, B is still one span times
        # one Gaussian block, never redrawn
        cfg = ToleranceConfig(subspace_tol=1e-15)
        span, calls = generators._random_invariant_subspace, []

        def counting(a, rng, cfg):
            calls.append(cfg)
            return span(a, rng, cfg)

        monkeypatch.setattr(generators, "_random_invariant_subspace", counting)
        rng = np.random.default_rng(19)
        for seed in range(50):
            n = int(rng.integers(2, 9))
            a = random_ep(n, int(rng.integers(0, n + 1)), seed, cond_cap=1e2)
            calls.clear()
            random_invariant_range_b(a, seed, cfg)
            assert calls == [cfg]

    @pytest.mark.parametrize("seed", range(6))
    def test_spans_inside_the_kernel_give_a_vanishing_product(self, seed):
        # for EP A with 0 < rank < n, a span of zero-eigenvalue eigenvectors
        # lies in N(A): AB is roundoff, rank 0 at its unit scale, and
        # R(AB) = {0} = R(A) ∩ R(B) since R(A) ∩ N(A) = {0}
        a = random_ep(4, 2, seed, cond_cap=1e2)
        vanishing = 0
        for draw in range(40):
            b = random_invariant_range_b(a, draw)
            pair = subspaces.factor_pair(a, b)
            report = product_range_identity(a, b)
            assert report.hypothesis and report.conclusion
            assert (pair.fab.rank == 0) == includes(pair.fb.range, pair.fa.kernel)
            vanishing += pair.fab.rank == 0
        assert vanishing > 0

    @pytest.mark.parametrize(
        "a, dim", [(np.eye(3, k=1), 3), (np.kron(np.eye(2), np.eye(2, k=1)), 2)]
    )
    def test_a_defective_matrix_draws_a_krylov_span(self, a, dim):
        # nilpotent Jordan blocks: their eigenvectors are numerically
        # parallel, so the span is the closure of a Krylov chain, the whole
        # space for one 3x3 block and a proper invariant subspace for two 2x2
        assert not np.linalg.cond(np.linalg.eig(a)[1]) <= 1e8
        b = random_invariant_range_b(a, 11)
        assert np.array_equal(b, random_invariant_range_b(a, 11))
        assert numerical_rank(b).rank == dim
        assert product_range_identity(a, b).hypothesis


class TestCatalog:
    def test_names(self):
        names = catalog_names()
        assert len(names) >= 3
        assert "shear_projection_pair" in names

    def test_shear_projection_facts(self):
        pair = catalog("shear_projection_pair")
        ab = classify(pair.a @ pair.b)
        ba = classify(pair.b @ pair.a)
        assert ab.posinormal == pair.expected["ab_posinormal"]
        assert ba.posinormal == pair.expected["ba_posinormal"]
        assert classify(pair.a).ep == pair.expected["a_ep"]

    def test_epr_entry(self):
        pair = catalog("epr_not_ep")
        report = classify(pair.a)
        assert report.ep_r == pair.expected["a_ep_r"]
        assert report.ep == pair.expected["a_ep"]
        assert report.rank.rank == pair.expected["a_rank"]

    def test_jordan_entry(self):
        from eplab import group_invertible_check, power_ep

        pair = catalog("jordan2")
        gi = group_invertible_check(pair.a)
        assert gi.rank_stable == pair.expected["rank_stable_under_squaring"]
        assert power_ep(pair.a, 2) == pair.expected["power_ep"]

    def test_unknown_name(self):
        with pytest.raises(InputError):
            catalog("nope")


class TestTiltedProjections:
    def test_smallest_instance_cosine(self):
        pair = tilted_projection_pair(0)
        assert pair.a.shape == (2, 2)
        cos = minimal_angle(pair.m1, pair.m2).cos_min_angle
        assert cos == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_closed_form_at_ten(self):
        pair = tilted_projection_pair(10)
        cos = minimal_angle(pair.m1, pair.m2).cos_min_angle
        assert cos == pytest.approx(1 / math.sqrt(1 + 1 / 441), abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    def test_hermitian_idempotents(self, n):
        pair = tilted_projection_pair(n)
        for m in (pair.a, pair.b):
            assert np.linalg.norm(m @ m - m) <= 1e-10
            assert np.linalg.norm(m - m.conj().T) <= 1e-12

    @pytest.mark.parametrize("n", [0, 2, 7])
    def test_trivial_intersection(self, n):
        pair = tilted_projection_pair(n)
        assert intersect(pair.m1, pair.m2).dim == 0

    def test_cosine_equals_last_term_of_family(self):
        # the per-index cosines increase, so the minimal angle is attained
        # at the top index
        n = 6
        pair = tilted_projection_pair(n)
        cos = minimal_angle(pair.m1, pair.m2).cos_min_angle
        per_index = [1 / math.sqrt(1 + 1 / (2 * k + 1) ** 2) for k in range(n + 1)]
        assert cos == pytest.approx(max(per_index), abs=1e-12)
        assert max(per_index) == per_index[-1]


class TestShiftBlock:
    def test_unitary_defect_exactly_one(self):
        for m in (2, 4, 9):
            pair = shift_block_pair(m)
            eye = np.eye(2 * m)
            assert np.linalg.norm(pair.b @ pair.b.conj().T - eye) == 1.0

    def test_expected_flags_at_four(self):
        pair = shift_block_pair(4)
        assert classify(pair.a).ep == pair.expected["a_ep"]
        assert classify(pair.b).ep == pair.expected["b_ep"]
        ab = classify(pair.a @ pair.b)
        assert ab.ep == pair.expected["ab_ep"]
        assert ab.posinormal == pair.expected["ab_posinormal"]
        assert ab.coposinormal == pair.expected["ab_coposinormal"]
        report = hartwig_katz(pair.a, pair.b)
        assert report.cond_i == pair.expected["cond_i"]
        assert report.cond_ii == pair.expected["cond_ii"]

    def test_kernel_structure_of_truncated_unitary(self):
        m = 5
        pair = shift_block_pair(m)
        ker = kernel_basis(pair.b)
        coker = kernel_basis(pair.b.conj().T)
        assert ker.dim == 1 and coker.dim == 1
        # kernel sits in the top block, cokernel in the bottom block
        assert abs(ker.basis[m - 1, 0]) == pytest.approx(1.0)
        assert abs(coker.basis[2 * m - 1, 0]) == pytest.approx(1.0)

    def test_minimum_size(self):
        with pytest.raises(InputError):
            shift_block_pair(1)


@pytest.mark.parametrize(
    "family, size, message",
    [
        (tilted_projection_pair, -1, "^truncation index must be >= 0$"),
        (weighted_shift_truncation, 1, "^truncation size must be >= 2$"),
    ],
)
def test_a_size_below_the_familys_first_is_rejected(family, size, message):
    with pytest.raises(InputError, match=message):
        family(size)


class TestWeightedShift:
    def test_two_by_two(self):
        np.testing.assert_allclose(
            weighted_shift_truncation(2), [[0.0, 0.0], [1.0, 0.0]]
        )

    @pytest.mark.parametrize("m", range(2, 9))
    def test_singular_values_are_the_weights(self, m):
        # brute-force oracle: singular values computed directly by SVD
        w = weighted_shift_truncation(m)
        s = np.linalg.svd(w, compute_uv=False)
        expected = sorted((1.0 / k for k in range(1, m)), reverse=True) + [0.0]
        np.testing.assert_allclose(s, expected, atol=1e-12)
        decision = numerical_rank(w)
        assert decision.rank == m - 1
        assert decision.singular_values[decision.rank - 1] == pytest.approx(
            1.0 / (m - 1), abs=1e-12
        )

    def test_nilpotent(self):
        w = weighted_shift_truncation(5)
        assert np.linalg.norm(np.linalg.matrix_power(w, 5)) == 0.0

    def test_truncation_is_not_posinormal(self):
        # the shifted range picks up the last coordinate, which the adjoint
        # range never contains, so posinormality fails at every finite size
        report = classify(weighted_shift_truncation(4))
        assert report.posinormal is False
        assert report.ep is False


class TestSweep:
    def test_tilted_family_metrics(self):
        series = sweep("tilted_projections", range(0, 8))
        cosines = [m.cos_min_angle for m in series.metrics]
        for n, cos in zip(series.sizes, cosines):
            assert cos == pytest.approx(1 / math.sqrt(1 + 1 / (2 * n + 1) ** 2), abs=1e-10)
        assert all(b > a for a, b in zip(cosines, cosines[1:]))
        for m in series.metrics:
            assert m.bouldin_cos == pytest.approx(m.cos_min_angle, abs=1e-10)

    def test_weighted_shift_sigma_column(self):
        series = sweep("weighted_shift", range(2, 20))
        for m in series.metrics:
            assert m.sigma_min_plus == pytest.approx(1.0 / (m.size - 1), abs=1e-12)
            assert m.ab_ep is False

    def test_shift_block_ep_column_all_false(self):
        series = sweep("shift_block", range(2, 10))
        assert all(m.ab_ep is False for m in series.metrics)
        for m in series.metrics:
            assert m.residuals["unitary_defect"] == 1.0

    def test_unknown_family(self):
        with pytest.raises(InputError):
            sweep("nope", [1, 2])

    def test_sizes_must_increase(self):
        with pytest.raises(InputError):
            sweep("weighted_shift", [4, 3])


@pytest.mark.parametrize(
    "lookup, message",
    [
        (
            lambda: run_suite("nope", 1, dims=[2]),
            "unknown suite 'nope'; known: block_kernels, collapse, commuting_ep, "
            "commuting_posinormal, group_invertible, hartwig_katz, invariant_range, "
            "johnson_vinoth, powers, same_kernel",
        ),
        (
            lambda: catalog("nope"),
            "unknown catalog name 'nope'; known: epr_not_ep, jordan2, shear_projection_pair",
        ),
        (
            lambda: sweep("nope", [2]),
            "unknown family 'nope'; known: shift_block, tilted_projections, weighted_shift",
        ),
    ],
)
def test_an_unknown_name_lists_the_known_names_sorted(lookup, message):
    with pytest.raises(InputError) as raised:
        lookup()
    assert str(raised.value) == message
