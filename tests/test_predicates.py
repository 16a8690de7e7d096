import numpy as np
import pytest

from eplab import (
    InputError,
    ToleranceConfig,
    classify,
    equals,
    factor,
    johnson_vinoth_check,
    kernel_basis,
    random_ep,
    random_unitary,
)

G = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
P = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
EPR = np.array([[1.0, 1.0j], [1.0j, -1.0]])
JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def all_flags(report):
    return {
        "normal": report.normal,
        "hyponormal": report.hyponormal,
        "quasiposinormal": report.quasiposinormal,
        "posinormal": report.posinormal,
        "coposinormal": report.coposinormal,
        "ep": report.ep,
        "hypo_ep": report.hypo_ep,
        "ep_r": report.ep_r,
    }


def projector_route(report):
    """classify's projector route to EP: ``(flag, residual)``, the
    projector commutator's norm against ``subspace_tol``."""
    residual = report.residuals["projector_commutator"]
    return residual <= report.tolerances.subspace_tol, residual


class TestClassifyExamples:
    def test_order_dependent_products(self):
        gp = classify(G @ P)
        pg = classify(P @ G)
        assert gp.posinormal is True
        assert pg.posinormal is False
        # margins: the true side is far below tolerance, the false side far above
        tol = gp.tolerances.subspace_tol
        assert gp.residuals["posinormal_inclusion"] <= 1e-2 * tol
        assert pg.residuals["posinormal_inclusion"] >= tol + 1e-6

    def test_epr_but_not_ep(self):
        report = classify(EPR)
        assert report.ep_r is True
        assert report.ep is False
        assert report.rank.rank == 1

    def test_identity_all_true(self):
        report = classify(np.eye(3))
        assert all(all_flags(report).values())
        assert report.conflicts == []

    @pytest.mark.parametrize("n", range(5))
    def test_zero_matrix_all_true(self, n):
        report = classify(np.zeros((n, n)))
        assert all(all_flags(report).values())
        assert report.rank.rank == 0
        assert report.residuals == dict.fromkeys(report.residuals, 0.0)
        assert report.conflicts == []

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            classify(np.zeros((2, 3)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            m = random_ep(5, 3, seed=seed)
            if seed % 2:
                m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            for c in (1e-7, 1e6, 2.5j, -3.0 + 4.0j):
                assert all_flags(classify(c * m)) == all_flags(classify(m))

    def test_unitary_is_normal_not_hermitian_projector(self):
        theta = 0.6
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        report = classify(u)
        assert report.normal and report.ep

    def test_shear_posinormal_but_not_normal(self):
        report = classify(G)
        assert report.ep is True  # invertible
        assert report.normal is False
        assert report.hyponormal is False


class TestTightPsdTolerance:
    # classify's commutator m m* - m* m is Hermitian only up to the roundoff
    # of its two products; a psd_tol below that roundoff decides the flag
    # and never blames the input for a Hermitian defect it does not have
    @pytest.mark.parametrize("psd_tol", [1e-16, 1e-17])
    @pytest.mark.parametrize("seed", range(5))
    def test_non_normal_input_is_decided(self, seed, psd_tol):
        rng = np.random.default_rng(7000 + seed)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        report = classify(m, ToleranceConfig(psd_tol=psd_tol))
        # a hyponormal matrix is normal in finite dimensions: the
        # commutator is traceless, so PSD means zero
        assert not report.normal and not report.hyponormal


class TestProjectorRoute:
    def test_orthogonal_projection(self):
        flag, residual = projector_route(classify(P))
        assert flag is True
        assert residual <= 1e-12

    def test_jordan_block_projectors(self):
        # pinv of the block is its adjoint: the two projectors are diag(0,1)
        # and diag(1,0), which differ
        flag, residual = projector_route(classify(JORDAN))
        assert flag is False
        assert residual == pytest.approx(np.sqrt(2.0))

    def test_invertible_always_passes(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        flag, _ = projector_route(classify(m))
        assert flag is True


class TestHypoEp:
    def test_identity(self):
        assert classify(np.eye(2)).hypo_ep is True

    def test_projection_first_product_is_indefinite(self):
        # oracle: D = pinv(PG) PG - PG pinv(PG) has trace 0 and nonzero norm,
        # hence a negative eigenvalue
        pg = P @ G
        mp = np.linalg.pinv(pg)
        d = mp @ pg - pg @ mp
        assert abs(np.trace(d)) <= 1e-12
        assert np.linalg.norm(d) > 0.1
        assert classify(pg).hypo_ep is False

    def test_shear_first_product(self):
        assert classify(G @ P).hypo_ep is True

    def test_smallest_eigenvalue_is_minus_the_ep_residual_at_any_condition(self):
        # V_rV_r* - U_rU_r* has eigenvalues 0 and ±sin of the principal angles
        # between R(m) and R(m*) (Björck-Golub): its smallest is minus the
        # largest sine, the EP residual, to roundoff at any condition number
        # and scale, where pinv(m) m - m pinv(m) is off by about eps·cond(m);
        # classify reports it as that, and numpy's eigvalsh of the Hermitian
        # part is the oracle
        rng, eps = np.random.default_rng(30), np.finfo(float).eps
        for _ in range(400):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n + 1))
            u, v = random_unitary(n, rng), random_unitary(n, rng)
            s = np.logspace(0, -rng.uniform(0, 13), r) * 10.0 ** rng.uniform(-200, 200)
            m = (u[:, :r] * s) @ v[:, :r].conj().T
            res = classify(m).residuals
            assert abs(res["hypo_ep_min_eigenvalue"] + res["ep_equality"]) <= 8 * eps * n
            d = factor(m).projector_commutator
            smallest = np.linalg.eigvalsh(0.5 * (d + d.conj().T))[0]
            assert abs(smallest - res["hypo_ep_min_eigenvalue"]) <= 8 * eps * n

    @pytest.mark.parametrize("n", [8, 32, 64, 96])
    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_ill_conditioned_matrices_are_decided(self, n, k):
        # rank n/2 with condition 10^k: the projector commutator's roundoff
        # leaves it farther from Hermitian than the PSD bound allows, so
        # both PSD tests must see its Hermitian part, not raise on it
        rng = np.random.default_rng(0)
        r = n // 2
        u, v = random_unitary(n, rng), random_unitary(n, rng)
        m = (u[:, :r] * np.logspace(0, -k, r)) @ v[:, :r].conj().T
        report = classify(m)
        # generic, so neither M nor M² is EP, which is hypo-EP on C^n
        assert (report.rank.rank, report.hypo_ep, report.conflicts) == (r, False, [])
        assert not johnson_vinoth_check(m, m).ab_hypo_ep


@pytest.mark.xfail(
    strict=True,
    reason="known: below sigma_r/sigma_1 ~ 1e-8 roundoff tilts the singular "
    "subspaces past subspace_tol (ROADMAP.md, open item 2)",
)
def test_an_ep_matrix_finer_than_the_subspace_gate_is_not_silently_non_ep():
    # M is exactly Hermitian, so EP, of rank 2; today its EP residual is
    # 3.85e-7 and the projector route fails with it, so no conflict fires
    u = random_unitary(4, seed=0)
    m = u @ np.diag([1.0, 1e-10, 0.0, 0.0]) @ u.conj().T
    report = classify(m)
    assert report.ep or report.conflicts


class TestFiniteDimensionalCollapse:
    @pytest.mark.parametrize("seed", range(20))
    def test_posinormal_family_flags_agree(self, seed):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(2, 8))
        kind = seed % 3
        if kind == 0:
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        elif kind == 1:
            m = random_ep(n, int(rng.integers(0, n + 1)), seed=rng)
        else:
            r = int(rng.integers(0, n + 1))
            m = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) @ (
                rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            )
        report = classify(m)
        flags = {report.quasiposinormal, report.posinormal, report.hypo_ep, report.ep}
        assert len(flags) == 1
        assert report.hyponormal == report.normal
        assert report.hypo_ep == projector_route(report)[0]
        assert report.conflicts == []

    @pytest.mark.parametrize("seed", range(8))
    def test_ep_implies_kernel_stable_under_squaring(self, seed):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(2, 8))
        m = random_ep(n, int(rng.integers(0, n + 1)), seed=rng)
        assert classify(m).ep
        assert equals(kernel_basis(m @ m), kernel_basis(m))

    @pytest.mark.parametrize("seed", range(10))
    def test_real_epr_implies_ep(self, seed):
        rng = np.random.default_rng(6000 + seed)
        n = int(rng.integers(2, 7))
        kind = seed % 2
        if kind == 0:
            # singular real symmetric: EP_r by symmetry, EP since real
            g = rng.standard_normal((n, n))
            m = (g + g.T) / 2
            m[:, 0] = 0.0
            m[0, :] = 0.0
        else:
            m = rng.standard_normal((n, n))
            m[:, : n // 2] = 0.0
        report = classify(m.astype(complex))
        if report.ep_r:
            assert report.ep
