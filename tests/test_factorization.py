import numpy as np
import pytest

from eplab import (
    Factorization,
    Subspace,
    block_kernel_inclusions,
    classify,
    decompose_pair,
    djordjevic_check,
    factor,
    group_invertible_check,
    hartwig_katz,
    johnson_vinoth_check,
    pinv,
    posinormal_product_conditions,
    power_ep,
    product_range_identity,
    random_commuting_ep_pair,
    random_ep,
    random_johnson_vinoth_pair,
    sweep,
    write_matrix,
)
from eplab.cli import main
from eplab.subspaces import equality_residual, kernel_basis


def _mixed(seed, n=5, r=3):
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    right = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    return left @ right


class TestViews:
    @pytest.mark.parametrize("shape", [(5, 5), (4, 6), (6, 4)])
    def test_dimensions_follow_the_rank(self, shape):
        rows, cols = shape
        m = _mixed(0, n=max(shape), r=3)[:rows, :cols]
        f = factor(m)
        assert isinstance(f, Factorization)
        assert f.rank == 3
        assert (f.range.dim, f.cokernel.dim) == (3, rows - 3)
        assert (f.corange.dim, f.kernel.dim) == (3, cols - 3)
        assert f.range.ambient_dim == f.cokernel.ambient_dim == rows
        assert f.corange.ambient_dim == f.kernel.ambient_dim == cols

    def test_views_annihilate_and_span(self):
        m = _mixed(1)
        f = factor(m)
        assert np.linalg.norm(m @ f.kernel.basis) < 1e-12
        assert np.linalg.norm(m.conj().T @ f.cokernel.basis) < 1e-12
        assert equality_residual(f.corange, factor(m.conj().T).range) < 1e-10

    def test_views_are_built_once(self):
        f = factor(_mixed(2))
        assert f.range is f.range and f.kernel is f.kernel and f.pinv is f.pinv

    def test_pinv_matches_numpy(self):
        m = _mixed(3)
        np.testing.assert_allclose(factor(m).pinv, np.linalg.pinv(m), atol=1e-10)
        np.testing.assert_allclose(pinv(m), factor(m).pinv, atol=0)

    def test_zero_and_empty(self):
        f = factor(np.zeros((3, 2)))
        assert f.rank == 0 and f.range.dim == 0 and f.kernel.dim == 2
        np.testing.assert_array_equal(f.pinv, np.zeros((2, 3)))
        assert factor(np.zeros((0, 0))).pinv.shape == (0, 0)

    def test_conjugated_cokernel_is_the_transpose_kernel(self):
        m = _mixed(4)
        coker = factor(m).cokernel
        assert equality_residual(kernel_basis(m.T), Subspace(5, coker.basis.conj())) < 1e-10


@pytest.fixture
def full_svds(monkeypatch):
    """Shapes of the matrices given a full (compute_uv) SVD from now on."""
    svd = np.linalg.svd
    shapes = []

    def counting_svd(m, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return shapes


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Shapes of the matrices given to eigvalsh from now on."""
    eigvalsh = np.linalg.eigvalsh
    shapes = []

    def counting_eigvalsh(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return shapes


# exact full-SVD counts, one factorization per distinct matrix: classify
# factors M; a product procedure factors A, B and AB (A and A^2 for the
# squaring check); intersect and subspace_sum add their own stacked bases;
# a block check factors Z, Y, B' and the compressed B.
SVD_COUNTS = {
    "classify": 1,
    "hartwig_katz": 6,
    "djordjevic_check": 6,
    "group_invertible_check": 2,
    "johnson_vinoth_check": 3,
    "product_range_identity": 5,
    "block_kernel_inclusions": 6,
    "posinormal_product_conditions": 2,
}


@pytest.mark.parametrize("name", sorted(SVD_COUNTS))
def test_full_svd_count(name, full_svds):
    a, b = random_commuting_ep_pair(6, 4, 2)
    dec = decompose_pair(a, b)
    calls = {
        "classify": lambda: classify(a @ b),
        "hartwig_katz": lambda: hartwig_katz(a, b),
        "djordjevic_check": lambda: djordjevic_check(a, b),
        "group_invertible_check": lambda: group_invertible_check(a),
        "johnson_vinoth_check": lambda: johnson_vinoth_check(a, b),
        "product_range_identity": lambda: product_range_identity(a, b),
        "block_kernel_inclusions": lambda: block_kernel_inclusions(dec),
        "posinormal_product_conditions": lambda: posinormal_product_conditions(dec),
    }
    full_svds.clear()
    calls[name]()
    assert len(full_svds) == SVD_COUNTS[name]


# exact eigvalsh counts: classify decides hyponormal and hypo-EP with one
# eigensolve each and skips both for a zero matrix; power_ep, the block
# checks and the truncation sweep read range inclusions from factorizations.
EIGVALSH_COUNTS = {
    "classify": 2,
    "power_ep": 0,
    "posinormal_product_conditions": 0,
    "block_kernel_inclusions": 0,
    "sweep": 0,
}


@pytest.mark.parametrize("name", sorted(EIGVALSH_COUNTS))
def test_eigvalsh_count(name, eigvalsh_calls):
    a, b = random_commuting_ep_pair(6, 4, 2)
    dec = decompose_pair(a, b)
    calls = {
        "classify": lambda: classify(a @ b),
        "power_ep": lambda: power_ep(a, 5),
        "posinormal_product_conditions": lambda: posinormal_product_conditions(dec),
        "block_kernel_inclusions": lambda: block_kernel_inclusions(dec),
        "sweep": lambda: sweep("shift_block", [2, 3, 4]),
    }
    eigvalsh_calls.clear()
    calls[name]()
    assert len(eigvalsh_calls) == EIGVALSH_COUNTS[name]


@pytest.fixture
def pair_files(tmp_path):
    a, b = random_commuting_ep_pair(6, 4, 2)
    write_matrix(tmp_path / "a.cmat", a)
    write_matrix(tmp_path / "b.cmat", b)
    return str(tmp_path / "a.cmat"), str(tmp_path / "b.cmat")


def test_product_command_factors_a_b_and_ab_once_per_procedure(
    full_svds, pair_files, capsys
):
    # A, B and AB (3) serve both Hartwig-Katz and Johnson-Vinoth, and
    # Hartwig-Katz's intersect and subspace_sum add 3; Djordjevic gates the
    # Hartwig-Katz report instead of factoring again
    full_svds.clear()
    assert main(["product", *pair_files]) == 0
    capsys.readouterr()
    assert len(full_svds) == 6


def test_decompose_command_counts(full_svds, eigvalsh_calls, pair_files, capsys):
    # A (1), the product conditions (2) and the kernel inclusions (6)
    full_svds.clear()
    eigvalsh_calls.clear()
    assert main(["decompose", *pair_files]) == 0
    capsys.readouterr()
    assert len(full_svds) == 9
    assert len(eigvalsh_calls) == 0


def test_johnson_vinoth_generator_factors_once(full_svds):
    a = random_ep(5, 3, 0)
    full_svds.clear()
    random_johnson_vinoth_pair(a, 1)
    assert full_svds == [(5, 5)]
