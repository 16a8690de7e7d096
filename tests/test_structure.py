import numpy as np
import pytest

from eplab import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    InapplicableError,
    ToleranceConfig,
    block_kernel_inclusions,
    classify,
    decompose_pair,
    factor,
    posinormal_product_conditions,
    random_commuting_ep_pair,
    random_ep,
    random_same_kernel_pair,
    random_unitary,
)
from eplab.fuzz import _mixed_square
from eplab.kernel import embed
from eplab.subspaces import inclusion_residual

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0  # the spectral norm of the 2x2 shear


def _block_draws():
    """200 seeded (B', Z, A, B): A = U diag(I_k, 0) U* and B = U (B' ⊕ Z) U*
    commute and N(A) reduces both, so X = Y = 0."""
    for seed in range(200):
        rng = np.random.default_rng(7100 + seed)
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        bp, z = _mixed_square(rng, k), _mixed_square(rng, n - k)
        u = random_unitary(n, rng)
        yield bp, z, embed(u, np.eye(k)), embed(u, bp, z)


class TestDecompose:
    # the blocks are those of A/||A||_2 and B/||B||_2
    def test_aligned_diagonals(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([2.0, 3.0]).astype(complex)
        dec = decompose_pair(a, b)
        np.testing.assert_allclose(dec.block_a_prime, [[1.0]])
        np.testing.assert_allclose(dec.block_b_prime, [[2.0 / 3.0]])
        np.testing.assert_allclose(dec.block_x, [[0.0]])
        np.testing.assert_allclose(dec.block_y, [[0.0]])
        np.testing.assert_allclose(dec.block_z, [[1.0]])
        assert dec.residuals["commutation"] == pytest.approx(0.0)

    def test_noncommuting_pair_reports_coupling(self):
        # oracle by direct 2x2 arithmetic: AB = [[1,1],[0,0]], BA = [[1,0],[0,0]],
        # and ||A||_2 = 1, ||G||_2 = golden ratio
        a = np.diag([1.0, 0.0]).astype(complex)
        g = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        ab, ba = a @ g, g @ a
        assert np.linalg.norm(ab - ba) == pytest.approx(1.0)
        assert np.linalg.norm(g, 2) == pytest.approx(_GOLDEN)
        dec = decompose_pair(a, g)
        np.testing.assert_allclose(dec.block_x, [[1.0 / _GOLDEN]])
        assert dec.residuals["commutation"] == pytest.approx(1.0 / _GOLDEN)

    def test_zero_first_operand(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        dec = decompose_pair(np.zeros((2, 2)), b)
        assert dec.core_dim == 0
        assert dec.block_a_prime.shape == (0, 0)
        assert dec.block_x.shape == (0, 2)
        assert dec.block_y.shape == (2, 0)
        np.testing.assert_allclose(dec.block_z, b / np.linalg.norm(b, 2))

    def test_basis_unitary(self):
        rng = np.random.default_rng(17)
        a = random_ep(6, 3, seed=1)
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        u = decompose_pair(a, b).basis_u
        assert np.linalg.norm(u.conj().T @ u - np.eye(6)) <= 1e-10

    def test_reconstruction_of_reduced_operand(self):
        a, b = random_commuting_ep_pair(7, 4, seed=5)
        dec = decompose_pair(a, b)
        rebuilt = embed(dec.basis_u, dec.block_a_prime)
        unit_a = a / np.linalg.norm(a, 2)
        assert np.linalg.norm(unit_a - rebuilt) <= 1e-10 * np.linalg.norm(unit_a)

    def test_product_reconstruction_for_commuting_ep(self):
        a, b = random_commuting_ep_pair(6, 3, seed=8)
        dec = decompose_pair(a, b)
        product = embed(dec.basis_u, dec.block_a_prime @ dec.block_b_prime)
        unit_ab = (a / np.linalg.norm(a, 2)) @ (b / np.linalg.norm(b, 2))
        assert np.linalg.norm(unit_ab - product) <= 1e-8

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            decompose_pair(np.eye(2), np.eye(3))


class TestKernelInclusions:
    def test_aligned_rank_one_pair(self):
        dec = decompose_pair(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))
        report = block_kernel_inclusions(dec)
        assert report.kernel_z_included
        assert report.kernel_bprime_included

    def test_vacuous_when_z_invertible(self):
        dec = decompose_pair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        report = block_kernel_inclusions(dec)
        assert report.kernel_z_included
        assert report.kernel_bprime_included

    @pytest.mark.parametrize("seed", range(10))
    def test_commuting_ep_pairs(self, seed):
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        a, b = random_commuting_ep_pair(n, r, seed=rng)
        report = block_kernel_inclusions(decompose_pair(a, b))
        assert report.kernel_z_included
        assert report.kernel_bprime_included
        # both operands here are EP, so the equality versions apply too
        assert report.kernel_z_equal
        assert report.kernel_bprime_equal

    @pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-9])
    def test_coupling_below_the_gate_is_no_coupling(self, eps):
        # B' = [[0, 1], [0, 0]], Z = diag(1, 0) and Y = diag(eps, 0): the pair
        # commutes to within eps, so the gate makes Y = 0, and N(B') = e1
        # is not inside N(B'*) = e2 whatever Y's own kernel
        a = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        b = np.zeros((4, 4), dtype=complex)
        b[0, 1], b[2, 2], b[2, 0] = 1.0, 1.0, eps
        dec = decompose_pair(a, b)
        report = block_kernel_inclusions(dec)
        assert report.kernel_bprime_included is False
        assert report.kernel_bprime_residual == pytest.approx(1.0)
        assert report.kernel_z_included is True
        assert posinormal_product_conditions(dec).y_zero is True

    def test_each_flag_is_its_block_being_ep(self):
        # for square blocks N(M) ⊆ N(M*) iff M is EP iff rank [M; M*] = rank M
        def ep(m):
            return np.linalg.matrix_rank(np.vstack([m, m.conj().T])) == (
                np.linalg.matrix_rank(m)
            )

        wrong, seen = [], set()
        for seed, (bp, z, a, b) in enumerate(_block_draws()):
            report = block_kernel_inclusions(decompose_pair(a, b))
            got = (report.kernel_bprime_included, report.kernel_z_included)
            want = (ep(bp), ep(z))
            seen.add(got)
            if got != want:
                wrong.append((seed, got, want))
        assert wrong == []
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_kernel_facts_read_the_range_facts(self):
        # in C^n N(M) ⊆ N(M*) iff R(M) ⊆ R(M*) (orthogonal complements), and
        # N(M) = N(M*) iff M is EP: one residual each, bit for bit; the kernel
        # cross matrix U_r* V_⊥ is the adjoint of the range one, so it has the
        # same sines up to roundoff
        for bp, z, a, b in _block_draws():
            for m in (bp, z, b):
                f, report = factor(m), classify(m)
                residuals = report.residuals
                assert residuals["quasiposinormal_inclusion"] == residuals[
                    "posinormal_inclusion"
                ]
                assert report.quasiposinormal == report.posinormal
                kernel_route = inclusion_residual(f.kernel, f.cokernel)
                assert abs(kernel_route - f.posinormal_residual) <= 1e-14
            dec = decompose_pair(a, b)
            report = block_kernel_inclusions(dec)
            assert report.kernel_z_residual == dec.fz.posinormal_residual
            assert report.kernel_bprime_residual == dec.fbp.posinormal_residual
            assert report.kernel_z_equal_residual == dec.fz.ep_residual
            assert report.kernel_bprime_equal_residual == dec.fbp.ep_residual

    def test_equal_versions_are_the_inclusions(self):
        # a block's kernel and its adjoint's have one dimension, so each
        # equality is its inclusion: the same flag and residual, bit for bit,
        # whether or not B is coposinormal
        coposinormal = set()
        for bp, z, a, b in _block_draws():
            report = block_kernel_inclusions(decompose_pair(a, b))
            for block in ("z", "bprime"):
                included = getattr(report, f"kernel_{block}_included")
                residual = getattr(report, f"kernel_{block}_residual")
                assert getattr(report, f"kernel_{block}_equal") is included
                equal_residual = getattr(report, f"kernel_{block}_equal_residual")
                assert np.float64(equal_residual).tobytes() == (
                    np.float64(residual).tobytes()
                )
            coposinormal.add(classify(b).coposinormal)
        assert coposinormal == {True, False}

    def test_noncommuting_inapplicable(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        g = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(InapplicableError):
            block_kernel_inclusions(decompose_pair(a, g))

    def test_non_reducing_inapplicable(self):
        # commuting, but the kernel of the first operand does not reduce it
        j = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(InapplicableError):
            block_kernel_inclusions(decompose_pair(j, np.eye(2)))


class TestProductConditions:
    def test_block_diagonal_invertible_core(self):
        dec = decompose_pair(np.diag([1.0, 0.0]), np.diag([2.0, 3.0]))
        conditions = posinormal_product_conditions(dec)
        assert conditions.b_prime_posinormal
        assert conditions.z_coposinormal
        assert conditions.y_zero

    def test_jordan_kernel_block_is_not_coposinormal(self):
        # Z = [[0,1],[0,0]]: range(Z*) = span{e2} is not inside range(Z) = span{e1}
        a = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        b = np.zeros((4, 4), dtype=complex)
        b[:2, :2] = np.eye(2)
        b[2, 3] = 1.0
        dec = decompose_pair(a, b)
        np.testing.assert_allclose(dec.block_z, [[0.0, 1.0], [0.0, 0.0]])
        conditions = posinormal_product_conditions(dec)
        assert conditions.z_coposinormal is False
        assert conditions.b_prime_posinormal is True
        z = dec.block_z
        assert not classify(z).coposinormal

    @pytest.mark.parametrize("seed", range(8))
    def test_commuting_ep_pairs_have_no_coupling(self, seed):
        rng = np.random.default_rng(8000 + seed)
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        a, b = random_commuting_ep_pair(n, r, seed=rng)
        dec = decompose_pair(a, b)
        conditions = posinormal_product_conditions(dec)
        assert conditions.y_zero
        # blocks of the unit-scaled operands: no norm factor in the bounds
        assert np.linalg.norm(dec.block_x) <= 1e-8
        assert np.linalg.norm(dec.block_y) <= 1e-8
        assert dec.residuals["ya"] <= 1e-8


# from deep underflow to near overflow of the operands' entries
_SCALES = [1.0, 1e-12, 1e-40, 1e-100, 1e-200, 1e12, 1e160, 1e170, 1e250]


def _assert_residuals_match(dec, unit):
    # the residuals are those of the unit-scaled operands: finite, and the
    # unit-scale ones up to the rounding of the scaling
    for key, value in unit.residuals.items():
        assert dec.residuals[key] == pytest.approx(value, rel=1e-12, abs=1e-14)


class TestRelativeBounds:
    # every decision must be the one taken at unit scale: the blocks and
    # residuals are those of A/||A||_2 and B/||B||_2
    @pytest.mark.parametrize("scale", _SCALES)
    def test_generic_pair_decided_alike_at_every_scale(self, scale):
        a, b = random_ep(6, 3, 1), random_ep(6, 3, 2)
        dec = decompose_pair(scale * a, scale * b)
        with pytest.raises(InapplicableError, match="do not commute"):
            block_kernel_inclusions(dec)
        conditions = posinormal_product_conditions(dec)
        assert conditions.y_zero is False
        unit = decompose_pair(a, b)
        assert conditions.y_norm == pytest.approx(
            posinormal_product_conditions(unit).y_norm, rel=1e-12
        )
        _assert_residuals_match(dec, unit)

    @pytest.mark.parametrize("scale", _SCALES)
    def test_commuting_pair_decided_alike_at_every_scale(self, scale):
        a, b = random_commuting_ep_pair(6, 3, 0)
        dec = decompose_pair(scale * a, scale * b)
        report = block_kernel_inclusions(dec)
        assert report.kernel_z_included and report.kernel_bprime_included
        assert posinormal_product_conditions(dec).y_zero is True
        _assert_residuals_match(dec, decompose_pair(a, b))

    @pytest.mark.parametrize("scale", _SCALES)
    def test_same_kernel_pair_decided_alike_at_every_scale(self, scale):
        # a non-commuting same-kernel EP pair: its commutator must neither
        # overflow nor underflow, so it fails its gate at every scale
        a, b = random_same_kernel_pair(6, 3, 0)
        dec = decompose_pair(scale * a, scale * b)
        with pytest.raises(InapplicableError, match="do not commute"):
            block_kernel_inclusions(dec)
        _assert_residuals_match(dec, decompose_pair(a, b))


class TestTheDecompositionsConfig:
    def test_the_checks_follow_the_config_of_the_decomposition(self):
        # a pair that commutes only to about 1e-7: within a 1e-6 gate, not
        # within the default 1e-8 one
        a, b = random_commuting_ep_pair(6, 3, 5)
        rng = np.random.default_rng(5)
        b = b + 1e-7 * np.linalg.norm(b, 2) * rng.standard_normal((6, 6))
        loose = decompose_pair(a, b, ToleranceConfig(subspace_tol=1e-6))
        assert 1e-8 < loose.residuals["commutation"] < 1e-6
        assert block_kernel_inclusions(loose).kernel_z_residual <= 1e-6
        assert posinormal_product_conditions(loose).y_zero is True
        dec = decompose_pair(a, b)
        with pytest.raises(InapplicableError, match="do not commute"):
            block_kernel_inclusions(dec)
        assert posinormal_product_conditions(dec).y_zero is False


# the seeds of the pair tests above
_PAIR_SEEDS = [*range(7000, 7010), *range(8000, 8008)]


def _seeded_pair(make, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    return make(n, int(rng.integers(1, n + 1)), seed=rng)


def _jordan_pair(kernel_block):
    # A = diag(1, 1, 0, 0) and a block-diagonal B with a Jordan block in
    # its core (B' not posinormal) or in its kernel part (Z not coposinormal)
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.zeros((4, 4), dtype=complex)
    b[:2, :2], b[2:, 2:] = (np.eye(2), jordan) if kernel_block else (jordan, np.eye(2))
    return np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex), b


_COMMUTING = [_seeded_pair(random_commuting_ep_pair, s) for s in _PAIR_SEEDS]
_SAME_KERNEL = [_seeded_pair(random_same_kernel_pair, s) for s in _PAIR_SEEDS]
_JORDAN = [_jordan_pair(False), _jordan_pair(True)]


def _snapped(block):
    # an independent reference for a roundoff block: zero when its Frobenius
    # norm, in units of the unit-scaled B, is within subspace_tol
    if block.size and np.linalg.norm(block) <= DEFAULT_TOLERANCES.subspace_tol:
        return np.zeros_like(block)
    return block


class TestClassifyEquivalence:
    """The block checks read one range inclusion from a block's
    factorization; ``classify`` on the same block, zeroed when it is
    roundoff, is the reference."""

    @pytest.mark.parametrize("pair", _COMMUTING + _SAME_KERNEL + _JORDAN)
    def test_product_conditions(self, pair):
        dec = decompose_pair(*pair)
        bp, z = _snapped(dec.block_b_prime), _snapped(dec.block_z)
        conditions = posinormal_product_conditions(dec)
        assert conditions.b_prime_posinormal == (bp.size == 0 or classify(bp).posinormal)
        assert conditions.z_coposinormal == (z.size == 0 or classify(z).coposinormal)

    @pytest.mark.parametrize("pair", _COMMUTING + _JORDAN)
    def test_equal_versions_gated_on_compressed_b(self, pair):
        # the only gates are commutation and reducing: whether the compressed
        # B is coposinormal or not, each equality version is reported and is
        # its inclusion, flag and residual bit for bit
        dec = decompose_pair(*pair)
        report = block_kernel_inclusions(dec)
        b_full = dec.b_compressed()
        if any(pair is p for p in _JORDAN):
            # a Jordan block keeps B from being coposinormal
            assert not classify(b_full).coposinormal
        for block in ("z", "bprime"):
            equal = getattr(report, f"kernel_{block}_equal")
            assert equal is not None
            assert equal is getattr(report, f"kernel_{block}_included")
            assert np.float64(
                getattr(report, f"kernel_{block}_equal_residual")
            ).tobytes() == np.float64(getattr(report, f"kernel_{block}_residual")).tobytes()

    def test_jordan_pairs_exercise_both_truth_values(self):
        core, kernel = (posinormal_product_conditions(decompose_pair(*p)) for p in _JORDAN)
        assert (core.b_prime_posinormal, core.z_coposinormal) == (False, True)
        assert (kernel.b_prime_posinormal, kernel.z_coposinormal) == (True, False)
        # neither B is coposinormal, and the equality versions are reported
        equal = [block_kernel_inclusions(decompose_pair(*p)) for p in _JORDAN]
        assert [(r.kernel_bprime_equal, r.kernel_z_equal) for r in equal] == [
            (False, True), (True, False)
        ]
