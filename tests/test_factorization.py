import copy
import sys
import threading

import numpy as np
import pytest

from eplab import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    Factorization,
    InapplicableError,
    Subspace,
    ToleranceConfig,
    block_kernel_inclusions,
    classify,
    decompose_pair,
    djordjevic_check,
    factor,
    group_invertible_check,
    hartwig_katz,
    is_ep,
    johnson_vinoth_check,
    pinv,
    posinormal_product_conditions,
    power_ep,
    product_range_identity,
    random_commuting_ep_pair,
    random_ep,
    random_invariant_range_b,
    random_same_kernel_pair,
    random_unitary,
    sweep,
    write_matrix,
)
from eplab import kernel, subspaces
from eplab.cli import main
from eplab.fuzz import SUITES, _mixed_square, run_trial
from eplab.generators import _complex_gaussian
from eplab.kernel import rank_threshold
from eplab.subspaces import equality_residual, inclusion_residual, kernel_basis


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
        assert f.projector_commutator is f.projector_commutator
        # R(m) and R(m*) share a dimension: one inclusion decides equality
        assert f.ep_residual == f.posinormal_residual
        assert "ep_residual" in vars(f)  # kept on first use

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


def _of_rank(rng, n, r):
    """n x n of rank r with singular values in [1, 2] and Haar bases."""
    u, v = random_unitary(n, rng), random_unitary(n, rng)
    return (u[:, :r] * rng.uniform(1.0, 2.0, r)) @ v[:, :r].conj().T


def _product_defects(a, b):
    """How far the pair's product factorization is from factor() of the
    product at unit scale: rank difference, range and kernel equality
    residuals, unitarity of u and vh, and reconstruction of the product,
    which the pair's factorization never forms: ``ref.m``."""
    pair = subspaces.factor_pair(a, b)
    fab = pair.fab
    ref = factor(pair.fa.unit @ pair.fb.unit, pair.cfg, 1.0)
    n, r = len(a), fab.rank
    return (
        fab.rank - ref.rank,
        equality_residual(fab.range, ref.range),
        equality_residual(fab.kernel, ref.kernel),
        np.linalg.norm(fab.u.conj().T @ fab.u - np.eye(n)),
        np.linalg.norm(fab.vh @ fab.vh.conj().T - np.eye(n)),
        np.linalg.norm((fab.u[:, :r] * fab.s[:r]) @ fab.vh[:r] - ref.m),
    )


class TestProductFactorization:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_rank_pair_matches_the_product_factorization(self, n):
        rng = np.random.default_rng(300 + n)
        for ra in range(n + 1):
            for rb in range(n + 1):
                a, b = _of_rank(rng, n, ra), _of_rank(rng, n, rb)
                rank_gap, *defects = _product_defects(a, b)
                assert rank_gap == 0, (ra, rb)
                assert max(defects) <= 1e-12, (ra, rb, defects)

    def test_large_pair_matches_the_product_factorization(self):
        rng = np.random.default_rng(396)
        a, b = _of_rank(rng, 96, 48), _of_rank(rng, 96, 40)
        rank_gap, *defects = _product_defects(a, b)
        assert rank_gap == 0
        assert max(defects) <= 1e-12

    def test_no_svd_when_an_operand_is_zero(self, full_svds):
        a = _of_rank(np.random.default_rng(7), 5, 3)
        for pair in ((a, np.zeros((5, 5))), (np.zeros((5, 5)), a)):
            full_svds.clear()
            fab = subspaces.factor_pair(*pair).fab
            assert full_svds == [(5, 5), (5, 5)]  # A and 0, no core
            assert fab.rank == 0

    @pytest.mark.parametrize("b", [np.diag([1.0, 2.0, 0.0]), np.zeros((3, 3))])
    def test_a_pairs_product_has_no_unit_form(self, b, forget_pair):
        # fab.m is None, the product never formed: its unit form is an
        # error naming that, for a nonzero and a zero product alike
        fab = subspaces.factor_pair(np.eye(3), b).fab
        assert fab.m is None
        with pytest.raises(InapplicableError, match="never formed"):
            fab.unit


class TestRankZeroWithoutAnSvd:
    # with a scale, a matrix whose Frobenius norm is at or below the rank
    # threshold has rank 0 for certain, so factor makes no SVD

    def test_roundoff_against_a_scale_is_not_factored(self, full_svds):
        m = 1e-20 * _mixed(5, n=6, r=4)[:4]
        full_svds.clear()
        f = factor(m, DEFAULT_TOLERANCES, 1.0)
        assert full_svds == []
        assert f.rank == 0 and f.kernel.dim == 6 and f.cokernel.dim == 4
        np.testing.assert_array_equal(f.u, np.eye(4))
        np.testing.assert_array_equal(f.vh, np.eye(6))
        np.testing.assert_array_equal(f.s, np.zeros(4))
        # decided against its own largest singular value, it is factored
        assert factor(m).rank == 4
        assert full_svds == [(4, 6)]

    def test_just_above_the_threshold_is_factored(self, full_svds):
        m = _mixed(6, n=6, r=4)
        threshold = rank_threshold(1.0, m.shape, DEFAULT_TOLERANCES)
        m *= 1.01 * threshold / np.linalg.norm(m)
        full_svds.clear()
        f = factor(m, DEFAULT_TOLERANCES, 1.0)
        assert full_svds == [(6, 6)]
        assert f.rank == int(np.count_nonzero(f.s > threshold))


@pytest.fixture(autouse=True)
def forget_pair():
    """Empties the one-entry pair memo before and after each test, so a
    count pin measures one cold call; call it to empty the memo again."""

    def forget():
        subspaces._last_pair = (None, None)

    forget()
    yield forget
    forget()


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
def svd_calls(monkeypatch):
    """``compute_uv`` of every SVD from now on, singular-value-only ones
    included, those inside ``np.linalg.cond`` too."""
    svd = np.linalg.svd
    calls = []

    def recording_svd(m, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    # cond calls the svd of numpy's implementation module
    monkeypatch.setattr(np.linalg._linalg, "svd", recording_svd)
    return calls


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


# exact full-SVD counts of one cold call, one factorization per distinct
# matrix: classify factors M; a product procedure factors A, B and AB (AB
# through the r_a x r_b core of their factors; A and A^2 for the squaring
# check); intersect and subspace_sum add one cross matrix each, none when
# the first space is {0}, the second the whole space or the cross matrix
# within subspace_tol (on this commuting pair, each of Hartwig-Katz's); a
# block check factors B' and Z, each once per decomposition, and reads B's
# factorization from the decomposition: on this pair Z is roundoff, rank 0
# without an SVD, so only B' is factored; per size the sweep factors A, B
# and AB (the pair's fab, through the r_a x r_b core), and the Bouldin
# angle's one intersection adds none (within subspace_tol here: N(A) lies
# in R(B)), both angles reading one N(A) and one R(B).
SVD_COUNTS = {
    "classify": 1,
    "hartwig_katz": 3,
    "djordjevic_check": 3,
    "group_invertible_check": 2,
    "johnson_vinoth_check": 3,
    "product_range_identity": 3,
    "block_kernel_inclusions": 1,
    "posinormal_product_conditions": 1,
    "sweep": 9,
}


@pytest.mark.parametrize("name", sorted(SVD_COUNTS))
def test_full_svd_count(name, full_svds, forget_pair):
    a, b = random_commuting_ep_pair(6, 4, 2)
    dec = decompose_pair(a, b)
    forget_pair()
    calls = {
        "classify": lambda: classify(a @ b),
        "hartwig_katz": lambda: hartwig_katz(a, b),
        "djordjevic_check": lambda: djordjevic_check(a, b),
        "group_invertible_check": lambda: group_invertible_check(a),
        "johnson_vinoth_check": lambda: johnson_vinoth_check(a, b),
        "product_range_identity": lambda: product_range_identity(a, b),
        "block_kernel_inclusions": lambda: block_kernel_inclusions(dec),
        "posinormal_product_conditions": lambda: posinormal_product_conditions(dec),
        "sweep": lambda: sweep("shift_block", [2, 3, 4]),
    }
    full_svds.clear()
    calls[name]()
    assert len(full_svds) == SVD_COUNTS[name]


# every SVD of one cold call, singular-value-only ones included, as
# (all, full): the sweep's sigma_min_plus and EP flag read the pair's fab,
# AB's one factorization, with the minimal angle and AB's EP residual (one
# cross matrix) as the rest (the Bouldin angle's W is {0} here); the invariant-range generator factors the span it
# draws and nothing else, and the range identity of the draw decides A, B
# and AB's core on its pair, so together they factor each of the four once
# (here the span is the whole space, and the singular-value-only SVDs are
# the eigenbasis's cond and the one cross matrix of R(AB) = R(A), spaces of
# one dimension).
def test_every_svd_of_the_sweep(svd_calls):
    sweep("shift_block", [2, 3, 4])
    assert (len(svd_calls), sum(svd_calls)) == (15, 9)


def test_every_svd_of_the_invariant_range_generator(svd_calls, forget_pair):
    a = random_ep(6, 3, 1, cond_cap=1e2)
    svd_calls.clear()
    product_range_identity(a, random_invariant_range_b(a, 2))
    assert (len(svd_calls), sum(svd_calls)) == (6, 4)


# classify makes its one factorization, the posinormal and coposinormal
# cross matrices (quasiposinormal reads the posinormal one: N(m) ⊆ N(m*)
# is R(m) ⊆ R(m*) in C^n) and EP_r's one (N(m) and N(m^T) share a dimension)
def test_every_svd_of_classify(svd_calls):
    a, b = random_commuting_ep_pair(6, 4, 2)
    svd_calls.clear()
    classify(a @ b)
    assert (len(svd_calls), sum(svd_calls)) == (4, 1)


def _equal_dimension_draws():
    """(n, m): random_ep at every rank, _mixed_square draws of all four
    kinds and rank-deficient Gaussian products, five rounds at n 2..8 (630
    draws), then a few at n = 48 and 96."""
    rng = np.random.default_rng(20261019)
    kinds = set()
    for _ in range(5):
        for n in range(2, 9):
            for r in range(n + 1):
                yield n, random_ep(n, r, rng)
            for r in range(n):
                yield n, _complex_gaussian(rng, n, r) @ _complex_gaussian(rng, r, n)
            for _ in range(7):
                kinds.add(int(copy.deepcopy(rng).integers(0, 4)))  # its first draw
                yield n, _mixed_square(rng, n)
    assert kinds == {0, 1, 2, 3}
    for n in (48, 96):
        for r in (1, n // 2, n - 1):
            yield n, random_ep(n, r, rng)
        yield n, _complex_gaussian(rng, n, n // 3) @ _complex_gaussian(rng, n // 3, n)
        yield n, _mixed_square(rng, n)


# R(m) and R(m*) both have dimension rank m, and N(m) and N(m^T) both
# n - rank m, so each pair's principal-angle sines are symmetric
# (Bjorck-Golub): one cross matrix decides each equality, and the other
# agrees with it to roundoff
def test_one_cross_matrix_decides_an_equal_dimension_equality():
    eps, draws = np.finfo(float).eps, 0
    for n, m in _equal_dimension_draws():
        f, bound = factor(m), 8 * eps * n
        assert abs(f.posinormal_residual - f.coposinormal_residual) <= bound
        # N(m^T) = conj N(m*), as classify builds it
        ker_t = subspaces._spanned(f.cokernel.basis.conj(), f.range.basis.conj())
        forward, backward = (
            inclusion_residual(f.kernel, ker_t), inclusion_residual(ker_t, f.kernel)
        )
        assert abs(forward - backward) <= bound
        assert equality_residual(f.kernel, ker_t) == forward
        assert f.ep_residual == f.posinormal_residual
        draws += 1
    assert draws >= 600


def _block_and_view_residuals(a, b):
    """(name, block route, view route) of each residual eplab reads from
    factor blocks, for the pair (a, b): the posinormal family of A, B, AB
    and A's unit square, EP_r of A, the pair facts and the squaring check's
    equalities, each also through :func:`inclusion_residual` or
    :func:`equality_residual` on the public views."""
    pair = subspaces.factor_pair(a, b)
    fa, fb, fab = pair.fa, pair.fb, pair.fab
    fa2 = factor(fa.unit @ fa.unit, pair.cfg, 1.0)
    for tag, f in (("a", fa), ("b", fb), ("ab", fab), ("a2", fa2)):
        yield tag + " posinormal", f.posinormal_residual, inclusion_residual(
            f.range, f.corange
        )
        yield tag + " coposinormal", f.coposinormal_residual, inclusion_residual(
            f.corange, f.range
        )
        yield tag + " ep", f.ep_residual, equality_residual(f.range, f.corange)
    ker_t = subspaces._spanned(fa.cokernel.basis.conj(), fa.range.basis.conj())
    yield "ep_r", classify(a).residuals["ep_r_equality"], equality_residual(
        fa.kernel, ker_t
    )
    theorem = hartwig_katz(a, b).residuals
    yield "cond_i", theorem["cond_i"], inclusion_residual(fab.range, fb.range)
    yield "cond_ii", theorem["cond_ii"], inclusion_residual(fa.kernel, fab.kernel)
    jv = johnson_vinoth_check(a, b).residuals
    yield "hyp_range", jv["hyp_range"], inclusion_residual(fb.range, fa.range)
    yield "hyp_kernel", jv["hyp_kernel"], inclusion_residual(fb.kernel, fa.kernel)
    squaring = group_invertible_check(a).residuals
    yield "kernel_stable", squaring["kernel_stable"], equality_residual(
        fa2.kernel, fa.kernel
    )
    yield "range_stable", squaring["range_stable"], equality_residual(
        fa2.range, fa.range
    )


# every residual built from factor blocks is the view route's, bit for bit,
# on rank-r Gaussian products against EP operands at every rank 0..n, where
# a space {0} or C^n makes the cross matrix empty, and on one pair at n = 48
def test_block_residuals_are_the_view_residuals(forget_pair):
    rng = np.random.default_rng(20261019)
    draws = [(n, r) for n in range(1, 9) for r in range(n + 1)] + [(48, 20)]
    empty = nonzero = 0
    for n, r in draws:
        a = _complex_gaussian(rng, n, r) @ _complex_gaussian(rng, r, n)
        b = random_ep(n, int(rng.integers(0, n + 1)), rng)
        for name, block, view in _block_and_view_residuals(a, b):
            assert np.float64(block).tobytes() == np.float64(view).tobytes(), name
            nonzero += block > 1e-3
        fa = subspaces.factor_pair(a, b).fa
        empty += fa.rank in (0, n)
        k = fa.rank
        want = (fa.vh[:k].conj().T / fa.s[:k]) @ fa.u[:, :k].conj().T
        assert np.array_equal(fa.pinv, want)
    assert empty == 16 and nonzero > 200


def test_unequal_dimensions_are_unequal_without_an_svd(svd_calls):
    f = factor(_mixed(5, n=6, r=2))
    spaces = [f.range, f.kernel, Subspace(6, np.eye(6)[:, :3]), Subspace.trivial(6)]
    svd_calls.clear()
    for s1 in spaces:
        for s2 in spaces:
            if s1.dim != s2.dim:
                assert equality_residual(s1, s2) == 1.0
    other = Subspace(5, np.eye(5)[:, :1])
    with pytest.raises(DimensionMismatchError):
        equality_residual(f.range, other)
    assert svd_calls == []


# every SVD of the large-pair benchmark's battery, as (all, full): classify
# of AB, the product facts, Djordjevic's EP gate, the decomposition and both
# block checks, on a commuting EP pair and on EP operands in general
# position, whose block inclusions are inapplicable
def _pair_battery(a, b):
    classify(a @ b)
    hartwig_katz(a, b)
    johnson_vinoth_check(a, b)
    djordjevic_check(a, b)
    dec = decompose_pair(a, b)
    posinormal_product_conditions(dec)
    try:
        block_kernel_inclusions(dec)
    except InapplicableError:
        pass


@pytest.mark.parametrize(
    ("kind", "counts"), [("commuting", (21, 7)), ("generic", (18, 8))]
)
def test_every_svd_of_the_pair_battery(kind, counts, svd_calls, forget_pair):
    if kind == "commuting":
        a, b = random_commuting_ep_pair(12, 6, 5)
    else:
        a, b = random_ep(12, 6, 6), random_ep(12, 6, 7)
    svd_calls.clear()
    _pair_battery(a, b)
    assert (len(svd_calls), sum(svd_calls)) == counts


# the conditions factor B' and Z (Z singular and nonzero here) and read
# B' posinormal (none: B' is invertible) and Z coposinormal; the kernel
# inclusions add Z posinormal, and report each equality as its inclusion
def test_every_svd_of_the_block_checks(svd_calls):
    a, b = random_commuting_ep_pair(12, 6, 1)
    dec = decompose_pair(a, b)
    z_values = np.linalg.svd(dec.block_z, compute_uv=False)
    assert z_values[0] > 0.5 and z_values[-1] < 1e-12
    svd_calls.clear()
    posinormal_product_conditions(dec)
    report = block_kernel_inclusions(dec)
    assert report.kernel_z_equal is True
    assert (len(svd_calls), sum(svd_calls)) == (4, 2)


# every SVD (all, full) and eigvalsh of the first 20 trials of each suite
# (seed 20260810, dims 2..8, the regime of a fuzz_small benchmark op); an
# edit may only lower a count.  commuting_ep reads AB's EP flag from one
# factorization, with no classify battery (its commutator, two Choleskys
# and EP_r residuals); a check decides from the residuals it
# reads, so hartwig_katz makes no Djordjevic identity, block_kernels no
# Z coposinormal and commuting_ep no AB coposinormal unless a check fails
FUZZ_COUNTS = {
    "block_kernels": (96, 73, 0),
    "collapse": (51, 20, 0),
    "commuting_ep": (85, 40, 0),
    "commuting_posinormal": (49, 20, 0),
    "group_invertible": (55, 38, 0),
    "hartwig_katz": (104, 50, 0),
    "invariant_range": (128, 80, 0),
    "johnson_vinoth": (96, 52, 0),
    "powers": (150, 68, 0),
    "same_kernel": (84, 40, 0),
}


@pytest.mark.parametrize("suite", sorted(FUZZ_COUNTS))
def test_fuzz_suite_counts(suite, svd_calls, eigvalsh_calls):
    for trial in range(20):
        run_trial(suite, 20260810, trial, range(2, 9))
    counts = (len(svd_calls), sum(svd_calls), len(eigvalsh_calls))
    assert counts == FUZZ_COUNTS[suite]


def test_fuzz_counts_cover_every_suite():
    assert sorted(FUZZ_COUNTS) == sorted(SUITES)


# exact eigvalsh counts: none.  classify decides hyponormal and hypo-EP by a
# Cholesky each and reports the hypo-EP eigenvalue as minus the EP residual;
# Johnson-Vinoth's AB hypo-EP flag is a Cholesky too; power_ep, the product
# facts, the block checks and the truncation sweep read range inclusions
# from factorizations.
EIGVALSH_COUNTS = {
    "classify": 0,
    "hartwig_katz": 0,
    "johnson_vinoth_check": 0,
    "power_ep": 0,
    "posinormal_product_conditions": 0,
    "block_kernel_inclusions": 0,
    "sweep": 0,
}


@pytest.mark.parametrize("name", sorted(EIGVALSH_COUNTS))
def test_eigvalsh_count(name, eigvalsh_calls, forget_pair):
    a, b = random_commuting_ep_pair(6, 4, 2)
    dec = decompose_pair(a, b)
    forget_pair()
    calls = {
        "classify": lambda: classify(a @ b),
        "hartwig_katz": lambda: hartwig_katz(a, b),
        "johnson_vinoth_check": lambda: johnson_vinoth_check(a, b),
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
    # Hartwig-Katz's two intersect cross matrices are within
    # subspace_tol on this commuting pair, so they add none; Djordjevic
    # gates the Hartwig-Katz report instead of factoring again
    full_svds.clear()
    assert main(["product", *pair_files]) == 0
    capsys.readouterr()
    assert len(full_svds) == 3


def test_decompose_command_counts(full_svds, eigvalsh_calls, pair_files, capsys):
    # the decomposition's A and B (2), then the product conditions' B' (1);
    # Z is roundoff, rank 0 without an SVD; the kernel inclusions read B's
    # factorization from the decomposition and B' and Z from the conditions
    full_svds.clear()
    eigvalsh_calls.clear()
    assert main(["decompose", *pair_files]) == 0
    capsys.readouterr()
    assert len(full_svds) == 3
    assert len(eigvalsh_calls) == 0


# every nonzero matrix a fuzz trial gives a full SVD is given one once;
# a zero matrix may be factored as two operands (A = B = 0 in a rank-0
# pair)
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_each_fuzz_trial_factors_each_matrix_once(suite, monkeypatch):
    svd = np.linalg.svd
    factored = []

    def hashing_svd(m, *args, **kwargs):
        if kwargs.get("compute_uv", True) and np.any(m):
            factored.append((np.shape(m), np.ascontiguousarray(m).tobytes()))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", hashing_svd)
    repeats = {}
    for trial in range(100):
        factored.clear()
        run_trial(suite, 20260810, trial, range(2, 9))
        if len(set(factored)) < len(factored):
            repeats[trial] = len(factored) - len(set(factored))
    assert repeats == {}


def test_pair_decision_chain_factors_each_matrix_once(full_svds):
    # Hartwig-Katz factors A and B (6x6) and AB through the 4x4 core of
    # their rank-4 factors (never a 6x6 SVD of AB); its intersect and sum
    # cross matrices (2x4) are within subspace_tol, so none is factored;
    # Johnson-Vinoth, Djordjevic and the decomposition read the same pair;
    # the conditions factor B' (4x4) and decide the roundoff Z without an
    # SVD, and the inclusions reuse them and the decomposition's B
    a, b = random_commuting_ep_pair(6, 4, 2)
    shapes = []

    def record(call):
        full_svds.clear()
        result = call()
        shapes.append(list(full_svds))
        return result

    record(lambda: hartwig_katz(a, b))
    record(lambda: johnson_vinoth_check(a, b))
    record(lambda: djordjevic_check(a, b))
    dec = record(lambda: decompose_pair(a, b))
    record(lambda: posinormal_product_conditions(dec))
    record(lambda: block_kernel_inclusions(dec))
    assert [len(s) for s in shapes] == [3, 0, 0, 0, 1, 0]
    assert shapes == [[(6, 6), (6, 6), (4, 4)], [], [], [], [(4, 4)], []]


@pytest.fixture
def as_matrix_calls(monkeypatch):
    """The argument of every ``as_matrix`` call from now on, under every
    name an eplab module binds it to."""
    original, calls = kernel.as_matrix, []

    def recording(a):
        calls.append(a)
        return original(a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "eplab" and vars(module).get("as_matrix") is original:
            monkeypatch.setattr(module, "as_matrix", recording)
    return calls


def test_each_caller_given_matrix_is_validated_once(as_matrix_calls):
    # the caller's matrices are checked where they enter; the matrices eplab
    # forms from them (cross matrices, blocks, unit products, powers) are not
    m, a, b = (_mixed(seed, n=6, r=4) for seed in (5, 6, 7))
    c, d = random_commuting_ep_pair(6, 4, 3)
    # classify's two commutators and Johnson-Vinoth's one are exactly
    # Hermitian as formed, so their PSD tests check neither (lowered from 2)
    cases = [
        (lambda: classify(m), [m]),
        (lambda: hartwig_katz(a, b), [a, b]),
        (lambda: johnson_vinoth_check(a, b), [a, b]),
        (lambda: power_ep(a, 5), [a]),
        (lambda: block_kernel_inclusions(decompose_pair(c, d)), [c, d]),
    ]
    for call, given in cases:
        as_matrix_calls.clear()
        call()
        assert [id(x) for x in as_matrix_calls] == [id(x) for x in given]


def test_each_view_enters_post_init_once_unchecked(as_matrix_calls, post_inits):
    # the bench's subspaces.constructions_per_op counts these calls
    m = _mixed(5, n=6, r=4)
    as_matrix_calls.clear()
    f = factor(m)
    names = ("range", "kernel", "corange", "cokernel")
    views = [getattr(f, name) for name in names]
    for name, view in zip(names, views):
        assert getattr(f, name) is view and view.complement is vars(view)["complement"]
    assert len(post_inits) == 4 and all(x is y for x, y in zip(post_inits, views))
    assert [id(x) for x in as_matrix_calls] == [id(m)]


@pytest.fixture
def post_inits(monkeypatch):
    """Every :class:`Subspace` entering ``__post_init__`` from now on."""
    built, post_init = [], Subspace.__post_init__

    def recording(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Subspace, "__post_init__", recording)
    return built


# Subspace constructions of one cold call, on the pair of SVD_COUNTS; an
# edit may only lower a count.  Decisions read the factors' blocks with no
# view (each of these was 5, 2, 10, 12 and 4 through views); views are
# built for callers and lattice operations: hartwig_katz's are those of
# Djordjevic's identities, two intersections and the spaces they are
# compared with.
VIEW_COUNTS = {
    "classify": 0,
    "is_ep": 0,
    "power_ep": 0,
    "hartwig_katz": 6,
    "johnson_vinoth_check": 0,
}


@pytest.mark.parametrize("name", sorted(VIEW_COUNTS))
def test_view_count(name, post_inits, forget_pair):
    a, b = random_commuting_ep_pair(6, 4, 2)
    calls = {
        "classify": lambda: classify(a @ b),
        "is_ep": lambda: is_ep(a @ b),
        "power_ep": lambda: power_ep(a, 5),
        "hartwig_katz": lambda: hartwig_katz(a, b),
        "johnson_vinoth_check": lambda: johnson_vinoth_check(a, b),
    }
    post_inits.clear()
    calls[name]()
    assert len(post_inits) == VIEW_COUNTS[name]


PAIR_PROCEDURES = {
    "hartwig_katz": hartwig_katz,
    "djordjevic_check": djordjevic_check,
    "johnson_vinoth_check": johnson_vinoth_check,
    "product_range_identity": product_range_identity,
    "decompose_pair": decompose_pair,
}
_MEMO_PAIRS = [random_commuting_ep_pair(6, 4, 2), random_same_kernel_pair(5, 3, 4)]


def _residual_bytes(report):
    return list(report.residuals), np.array(list(report.residuals.values())).tobytes()


class TestPairMemo:
    @pytest.mark.parametrize("pair", _MEMO_PAIRS)
    def test_cold_warm_and_reversed_order_agree(self, pair, forget_pair):
        cold = {}
        for name, procedure in PAIR_PROCEDURES.items():
            forget_pair()
            cold[name] = _residual_bytes(procedure(*pair))
        for order in (list(PAIR_PROCEDURES), list(reversed(PAIR_PROCEDURES))):
            forget_pair()
            for name in order * 2:
                assert _residual_bytes(PAIR_PROCEDURES[name](*pair)) == cold[name]

    def test_an_operand_mutated_in_place_gets_a_fresh_answer(self, forget_pair):
        (a, b), (c, _) = _MEMO_PAIRS[0], random_commuting_ep_pair(6, 2, 9)
        fresh = {name: _residual_bytes(p(c, b)) for name, p in PAIR_PROCEDURES.items()}
        for name, procedure in PAIR_PROCEDURES.items():
            forget_pair()
            x = a.copy()
            before = _residual_bytes(procedure(x, b))
            x[...] = c
            assert _residual_bytes(procedure(x, b)) == fresh[name] != before

    def test_the_pair_keeps_read_only_copies(self):
        a, b = (m.copy() for m in _MEMO_PAIRS[0])
        pair = subspaces.factor_pair(a, b)
        a[0, 0] += 1.0
        assert pair.a[0, 0] != a[0, 0]
        dec = decompose_pair(*_MEMO_PAIRS[0])
        for m in (pair.a, pair.b, dec.block_z, dec.basis_u):
            with pytest.raises(ValueError):
                m[0, 0] = 0.0

    def test_the_decomposition_basis_is_the_factorization_v(self):
        # V = vh* is formed once, in Factorization._v, and stays read-only
        dec = decompose_pair(*_MEMO_PAIRS[0])
        assert dec.basis_u is subspaces.factor_pair(*_MEMO_PAIRS[0]).fa._v
        with pytest.raises(ValueError):
            dec.basis_u[0, 0] = 0.0

    @pytest.mark.parametrize("name", sorted(PAIR_PROCEDURES))
    def test_a_caller_owns_the_residuals_it_is_given(self, name):
        procedure, pair = PAIR_PROCEDURES[name], _MEMO_PAIRS[0]
        expected = _residual_bytes(procedure(*pair))
        for key in procedure(*pair).residuals:
            procedure(*pair).residuals[key] = -1.0
        returned = procedure(*pair)
        returned.residuals.clear()
        assert _residual_bytes(procedure(*pair)) == expected

    def test_a_different_config_misses_and_an_equal_one_hits(self, full_svds):
        a, b = _MEMO_PAIRS[0]
        pair = subspaces.factor_pair(a, b)
        assert subspaces.factor_pair(a, b, ToleranceConfig()) is pair
        hartwig_katz(a, b)
        full_svds.clear()
        loose = ToleranceConfig(subspace_tol=1e-6)
        assert subspaces.factor_pair(a, b, loose) is not pair
        hartwig_katz(a, b, loose)
        assert len(full_svds) == SVD_COUNTS["hartwig_katz"]

    def test_the_memo_holds_one_pair(self, full_svds):
        (a, b), (c, d) = _MEMO_PAIRS[0], random_commuting_ep_pair(6, 4, 3)
        hartwig_katz(a, b)
        hartwig_katz(c, d)
        full_svds.clear()
        hartwig_katz(a, b)
        assert len(full_svds) == SVD_COUNTS["hartwig_katz"]

    def test_threads_sharing_the_memo_get_their_own_answers(self):
        pairs = [random_commuting_ep_pair(5, r, r) for r in (1, 2, 3, 4)]
        expected = [_residual_bytes(hartwig_katz(*p)) for p in pairs]
        wrong = []

        def work(i):
            for _ in range(25):
                if _residual_bytes(hartwig_katz(*pairs[i])) != expected[i]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(pairs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
