import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eplab import (
    AngleReport,
    BouldinComponents,
    DimensionMismatchError,
    InputError,
    Subspace,
    ToleranceConfig,
    TrivialSubspaceError,
    bouldin_angle,
    equality_residual,
    equals,
    factor,
    includes,
    inclusion_residual,
    intersect,
    kernel_basis,
    minimal_angle,
    numerical_rank,
    pinv,
    projector,
    range_basis,
    subspace_sum,
    tilted_projection_pair,
)
from eplab import subspaces


def span(*columns):
    basis = np.column_stack([np.asarray(c, dtype=complex) for c in columns])
    norms = np.linalg.norm(basis, axis=0)
    return Subspace(basis.shape[0], basis / norms)


def e(n, i):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


def random_subspace(rng, n, k):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return Subspace(n, q[:, :k])


class TestBases:
    def test_range_of_identity_is_full(self):
        s = range_basis(np.eye(2, dtype=complex))
        assert s.dim == 2

    def test_range_single_nonzero_row(self):
        s = range_basis(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
        assert equals(s, span(e(2, 0)))

    def test_range_of_singular_complex_symmetric(self):
        # columns (1, i) and (i, -1) = i*(1, i): a one-dimensional range
        a = np.array([[1.0, 1.0j], [1.0j, -1.0]])
        s = range_basis(a)
        assert s.dim == 1
        assert equals(s, span([1.0, 1.0j]))

    def test_kernel_trivial_for_identity(self):
        assert kernel_basis(np.eye(2)).dim == 0

    def test_kernel_of_diagonal_projection(self):
        assert equals(kernel_basis(np.diag([1.0, 0.0])), span(e(2, 1)))

    def test_kernel_of_nilpotent_block(self):
        assert equals(kernel_basis(np.array([[0.0, 1.0], [0.0, 0.0]])), span(e(2, 0)))

    def test_kernel_orthogonal_to_adjoint_range(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
            m = m @ np.diag(rng.integers(0, 2, size=7).astype(float))
            ker = kernel_basis(m)
            corange = range_basis(m.conj().T)
            assert ker.dim + corange.dim == 7
            if ker.dim and corange.dim:
                cross = ker.basis.conj().T @ corange.basis
                assert np.linalg.norm(cross) <= 1e-8

    def test_range_stable_under_pinv_smoothing(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            m[:, :3] = 0
            assert equals(range_basis(m), range_basis(m @ pinv(m) @ m))


class TestProjector:
    def test_coordinate_span(self):
        np.testing.assert_allclose(projector(span(e(2, 0))), np.diag([1.0, 0.0]))

    def test_zero_subspace(self):
        np.testing.assert_allclose(projector(Subspace.trivial(2)), np.zeros((2, 2)))

    def test_rank_one_diagonal_line(self):
        p = projector(span([1.0, 1.0]))
        np.testing.assert_allclose(p, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_hermitian_idempotent_trace(self):
        rng = np.random.default_rng(3)
        s = random_subspace(rng, 6, 4)
        p = projector(s)
        assert np.linalg.norm(p - p.conj().T) <= 1e-12
        assert np.linalg.norm(p @ p - p) <= 1e-12
        assert np.trace(p).real == pytest.approx(4.0)

    def test_rejects_non_orthonormal(self):
        bad = Subspace.__new__(Subspace)
        object.__setattr__(bad, "ambient_dim", 2)
        object.__setattr__(bad, "basis", np.array([[1.0], [1.0]], dtype=complex))
        with pytest.raises(InputError):
            projector(bad)


class TestIncludesEquals:
    def test_coordinate_inclusion(self):
        assert includes(span(e(2, 0)), span(e(2, 0), e(2, 1)))

    def test_disjoint_lines(self):
        assert not includes(span(e(2, 0)), span(e(2, 1)))

    def test_projection_product_range_inside_invertible_range(self):
        g = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        p = np.diag([1.0, 0.0]).astype(complex)
        assert includes(range_basis(p @ g), range_basis(g))

    def test_scaling_invariance(self):
        assert equals(span(e(2, 0)), span(2 * e(2, 0)))

    def test_range_differs_from_adjoint_range(self):
        a = np.array([[1.0, 1.0j], [1.0j, -1.0]])
        assert not equals(range_basis(a), range_basis(a.conj().T))

    def test_trivial_equals_trivial(self):
        assert equals(Subspace.trivial(3), Subspace.trivial(3))

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            includes(Subspace.trivial(2), Subspace.trivial(3))


class TestIntersectSum:
    def test_plane_intersection(self):
        s1 = span(e(3, 0), e(3, 1))
        s2 = span(e(3, 1), e(3, 2))
        assert equals(intersect(s1, s2), span(e(3, 1)))

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        s = random_subspace(rng, 5, 3)
        assert equals(intersect(s, s), s)

    def test_tilted_spaces_meet_only_at_zero(self):
        for n in (0, 1, 4):
            pair = tilted_projection_pair(n)
            assert intersect(pair.m1, pair.m2).dim == 0

    @pytest.mark.parametrize("d, shared", [(1e-10, 1), (1e-9, 1), (1e-6, 0)])
    def test_a_sine_within_the_gate_is_shared(self, d, shared):
        # the sines of span(e1, e2) against span(e1 + d e3, e4) are 1 and
        # about d: e1 is shared exactly when d is within subspace_tol, the
        # zero includes reads
        s1 = span(e(4, 0), e(4, 1))
        s2 = span(e(4, 0) + d * e(4, 2), e(4, 3))
        assert includes(span(e(4, 0)), s2) == bool(shared)
        meet = intersect(s1, s2)
        assert meet.dim == shared
        assert subspace_sum(s1, s2).dim == 4 - shared
        if shared:
            assert equality_residual(meet, span(e(4, 0))) <= 1e-12
            assert intersect(s1, s2, ToleranceConfig(subspace_tol=0.1 * d)).dim == 0

    def test_sum_of_coordinate_lines(self):
        assert equals(subspace_sum(span(e(2, 0)), span(e(2, 1))), span(e(2, 0), e(2, 1)))

    def test_sum_with_trivial(self):
        s = span(e(3, 1))
        assert equals(subspace_sum(s, Subspace.trivial(3)), s)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    d1=st.integers(min_value=0, max_value=9),
    d2=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_dimension_formula(n, d1, d2, seed):
    # oracle: dim(S1 + S2) computed directly as the rank of the stacked bases
    d1, d2 = min(d1, n), min(d2, n)
    rng = np.random.default_rng(seed)
    s1 = random_subspace(rng, n, d1)
    s2 = random_subspace(rng, n, d2)
    stacked_rank = numerical_rank(np.hstack([s1.basis, s2.basis])).rank
    total = subspace_sum(s1, s2)
    meet = intersect(s1, s2)
    assert total.dim == stacked_rank
    assert total.dim == d1 + d2 - meet.dim


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    d1=st.integers(min_value=1, max_value=9),
    d2=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_minimal_angle_symmetric(n, d1, d2, seed):
    d1, d2 = min(d1, n), min(d2, n)
    rng = np.random.default_rng(seed)
    s1 = random_subspace(rng, n, d1)
    s2 = random_subspace(rng, n, d2)
    left = minimal_angle(s1, s2).cos_min_angle
    right = minimal_angle(s2, s1).cos_min_angle
    assert abs(left - right) <= 1e-12


class TestMinimalAngle:
    def test_same_line(self):
        r = minimal_angle(span(e(2, 0)), span(e(2, 0)))
        assert r.cos_min_angle == pytest.approx(1.0)
        assert r.angle_radians == pytest.approx(0.0)

    def test_diagonal_line(self):
        r = minimal_angle(span(e(2, 0)), span([1.0, 1.0]))
        assert r.cos_min_angle == pytest.approx(1 / math.sqrt(2))

    def test_closed_form_for_tilted_family(self):
        for n in (0, 3, 10):
            pair = tilted_projection_pair(n)
            cos = minimal_angle(pair.m1, pair.m2).cos_min_angle
            assert cos == pytest.approx(1 / math.sqrt(1 + 1 / (2 * n + 1) ** 2), abs=1e-12)

    def test_trivial_raises(self):
        with pytest.raises(TrivialSubspaceError):
            minimal_angle(Subspace.trivial(2), span(e(2, 0)))


def _two_intersection_bouldin(s, t, cfg=ToleranceConfig()):
    """The deflated-kernel angle with W = N(s) ∩ V⊥ by a second intersection:
    the reference for bouldin_angle's one intersection."""
    pair = subspaces.factor_pair(s, t, cfg)
    ns, rt = pair.fa.kernel, pair.fb.range
    v = intersect(ns, rt, cfg)
    w = intersect(ns, subspaces._orth(v), cfg)
    components = BouldinComponents(v.dim, w.dim)
    if w.dim == 0 or rt.dim == 0:
        return AngleReport(0.0, math.pi / 2.0, components)
    report = minimal_angle(rt, w)
    return AngleReport(report.cos_min_angle, report.angle_radians, components)


def _bouldin_draws():
    """300 seeded (s, t) at n 2..7: N(s), of dimension k, shares d generic
    directions with R(t), of dimension r, spanned with r - d others."""
    rng = np.random.default_rng(20261021)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(0, n + 1))
        d = int(rng.integers(0, k + 1))
        r = int(rng.integers(d, n + 1))
        q = np.linalg.qr(_gaussian(rng, n, n))[0]
        s = _gaussian(rng, n, n - k) @ q[:, k:].conj().T
        shared = q[:, :k] @ _gaussian(rng, k, d)
        yield s, np.hstack([shared, _gaussian(rng, n, r - d)]) @ _gaussian(rng, r, n)


class TestBouldinAngle:
    def test_one_intersection_is_the_two_intersection_route(self):
        seen = set()
        for s, t in _bouldin_draws():
            got, expected = bouldin_angle(s, t), _two_intersection_bouldin(s, t)
            assert got.bouldin_components == expected.bouldin_components
            assert abs(got.cos_min_angle - expected.cos_min_angle) <= 1e-14
            parts = got.bouldin_components
            seen.add((parts.dim_kernel_range_intersection > 0, parts.dim_deflated_kernel > 0))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_zero_times_identity_uses_trivial_convention(self):
        # kernel(S) is everything, so the deflated kernel piece is {0}:
        # the report falls back to cos 0 / angle pi/2
        r = bouldin_angle(np.zeros((3, 3)), np.eye(3))
        assert r.cos_min_angle == 0.0
        assert r.angle_radians == pytest.approx(math.pi / 2)
        assert r.bouldin_components.dim_kernel_range_intersection == 3
        assert r.bouldin_components.dim_deflated_kernel == 0

    def test_invertible_first_factor(self):
        r = bouldin_angle(np.eye(3), np.diag([1.0, 1.0, 0.0]))
        assert r.cos_min_angle == 0.0
        assert r.angle_radians == pytest.approx(math.pi / 2)

    def test_matches_minimal_angle_for_tilted_family(self):
        pair = tilted_projection_pair(6)
        direct = minimal_angle(pair.m1, pair.m2).cos_min_angle
        report = bouldin_angle(pair.a, pair.b)
        assert report.cos_min_angle == pytest.approx(direct, abs=1e-12)
        assert report.bouldin_components.dim_kernel_range_intersection == 0

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bouldin_angle(np.eye(2), np.eye(3))


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _factored(rng, columns):
    """R(G H) for the n x k matrix ``columns`` and a random k x n H: a
    factor slice spanning the columns, carrying its complement."""
    n, k = columns.shape
    return factor(columns @ _gaussian(rng, k, n)).range


def _projector_residual(s1, s2):
    """The projector formula ||Q1 - Q2 (Q2* Q1)||_2, as an oracle."""
    q1, q2 = s1.basis, s2.basis
    if q1.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(q1 - q2 @ (q2.conj().T @ q1), 2))


class TestComplementResidual:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_projector_formula_at_every_dimension(self, n):
        rng = np.random.default_rng(600 + n)
        for k1 in range(n + 1):
            g1 = _gaussian(rng, n, k1)
            s1 = _factored(rng, g1)
            for k2 in range(n + 1):
                # a random k2-space, and one holding s1 whenever k2 >= k1
                extra = _gaussian(rng, n, max(0, k2 - k1))
                for s2 in (_factored(rng, _gaussian(rng, n, k2)),
                           _factored(rng, np.hstack([g1, extra])) if k2 >= k1 else None):
                    if s2 is None:
                        continue
                    assert s2.dim == k2
                    for left, right in ((s1, s2), (s2, s1)):
                        got = inclusion_residual(left, right)
                        assert abs(got - _projector_residual(left, right)) <= 1e-14

    def test_matches_projector_formula_at_n96(self):
        # R(G[:, :k] H) for one G: nested ranges, so small angles as well
        # as generic ones; the coranges are k-spaces in general position
        n = 96
        rng = np.random.default_rng(696)
        g = _gaussian(rng, n, n)
        fs = [factor(g[:, :k] @ _gaussian(rng, k, n)) for k in range(n + 1)]
        for k, f in enumerate(fs):
            assert f.range.dim == f.corange.dim == k
            for s2 in (fs[min(n, k + 1)].range, fs[k // 2].corange):
                for left, right in ((f.range, s2), (s2, f.range)):
                    got = inclusion_residual(left, right)
                    assert abs(got - _projector_residual(left, right)) <= 1e-14

    def test_trivial_and_full_spaces(self):
        rng = np.random.default_rng(5)
        s = _factored(rng, _gaussian(rng, 6, 3))
        zero, full = Subspace.trivial(6), factor(_gaussian(rng, 6, 6)).range
        assert inclusion_residual(zero, s) == 0.0
        assert inclusion_residual(s, full) == 0.0
        assert inclusion_residual(zero, full) == inclusion_residual(full, full) == 0.0
        assert abs(inclusion_residual(s, zero) - 1.0) <= 1e-14
        assert abs(inclusion_residual(full, s) - 1.0) <= 1e-14
        assert inclusion_residual(Subspace.trivial(0), Subspace.trivial(0)) == 0.0

    def test_user_basis_matches_the_factor_slice(self):
        rng = np.random.default_rng(11)
        for n, k in ((1, 1), (4, 0), (4, 2), (7, 7), (8, 5)):
            sliced = _factored(rng, _gaussian(rng, n, k))
            rotation, _ = np.linalg.qr(_gaussian(rng, k, k))
            user = Subspace(n, sliced.basis @ rotation)  # the same space
            assert "complement" not in vars(user)  # completed on first use only
            for j in range(n + 1):
                t = _factored(rng, _gaussian(rng, n, j))
                assert abs(inclusion_residual(t, user) - inclusion_residual(t, sliced)) <= 1e-14
                assert abs(inclusion_residual(user, t) - inclusion_residual(sliced, t)) <= 1e-14
            assert equality_residual(user, sliced) <= 1e-14

    def test_non_orthonormal_user_basis_still_rejected(self):
        with pytest.raises(InputError):
            Subspace(2, np.array([[1.0], [1.0]]))
        with pytest.raises(InputError):
            Subspace(3, np.array([[1.0, 0.9], [0.0, 0.1], [0.0, 0.0]]))
        # every other rejection of a caller-given basis, message and all
        rejected = [
            (2, [[np.nan], [0.0]], "^matrix has non-finite entries$"),
            (2, [[np.inf], [0.0]], "^matrix has non-finite entries$"),
            (3, np.eye(2), "^basis has 2 rows but ambient dimension is 3$"),
            (2, np.ones((2, 3)) / 2, r"^basis has more columns \(3\) than ambient rows \(2\)$"),
            (2, np.array([1.0, 0.0]), "^expected a 2-D matrix, got ndim=1$"),
            (2, [[1.0], [1.0]], "^basis columns are not orthonormal$"),
        ]
        for n, basis, message in rejected:
            with pytest.raises(InputError, match=message):
                Subspace(n, basis)

    @pytest.mark.parametrize(
        "m, message",
        [
            ([[np.nan, 0.0], [0.0, 1.0]], "^matrix has non-finite entries$"),
            ([[1.0, 0.0], [0.0, -np.inf]], "^matrix has non-finite entries$"),
            (np.zeros((2, 2, 2)), "^expected a 2-D matrix, got ndim=3$"),
        ],
    )
    def test_factor_rejects_a_bad_matrix(self, m, message):
        with pytest.raises(InputError, match=message):
            factor(m)
        with pytest.raises(InputError, match=message):
            factor(m, scale=1.0)

    @pytest.mark.parametrize("n", [3, 8])
    def test_one_singular_value_svd_per_inclusion(self, n, monkeypatch):
        rng = np.random.default_rng(21)
        spaces = [_factored(rng, _gaussian(rng, n, k)) for k in range(n + 1)]
        for s in spaces:
            s.complement  # noqa: B018  (already held, from the factor)
        calls = []
        svd = np.linalg.svd

        def recording_svd(m, *args, **kwargs):
            calls.append((np.shape(m), kwargs.get("compute_uv", True)))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        for s1 in spaces:
            for s2 in spaces:
                calls.clear()
                inclusion_residual(s1, s2)
                if s1.dim == 0 or s2.dim == n:
                    assert calls == []
                else:
                    assert calls == [((n - s2.dim, s1.dim), False)]


def _stacked_intersect(s1, s2):
    """The null space of the stacked basis [Q1 | -Q2] mapped through Q1 and
    orthonormalized, as an oracle."""
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.trivial(s1.ambient_dim)
    null = kernel_basis(np.hstack([s1.basis, -s2.basis]))
    if null.dim == 0:
        return Subspace.trivial(s1.ambient_dim)
    return range_basis(s1.basis @ null.basis[: s1.dim, :])


def _stacked_sum(s1, s2):
    """The range of the stacked basis [Q1 | Q2], as an oracle."""
    stacked = np.hstack([s1.basis, s2.basis])
    if stacked.shape[1] == 0:
        return Subspace.trivial(s1.ambient_dim)
    return range_basis(stacked)


def _assert_unitary_split(s):
    """[basis | complement] of ``s`` is unitary within 1e-12."""
    u = np.hstack([s.basis, s.complement])
    assert u.shape == (s.ambient_dim, s.ambient_dim)
    assert np.linalg.norm(u.conj().T @ u - np.eye(s.ambient_dim)) <= 1e-12


def _assert_lattice_matches_stacked(s1, s2):
    for got, want in (
        (intersect(s1, s2), _stacked_intersect(s1, s2)),
        (subspace_sum(s1, s2), _stacked_sum(s1, s2)),
    ):
        assert got.dim == want.dim
        assert equality_residual(got, want) <= 1e-12
        _assert_unitary_split(got)


class TestLatticeFromTheCrossMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_stacked_bases_at_every_dimension(self, n):
        rng = np.random.default_rng(900 + n)
        for k1 in range(n + 1):
            g1 = _gaussian(rng, n, k1)
            s1 = _factored(rng, g1)
            for k2 in range(n + 1):
                # a random k2-space, and one holding s1 whenever k2 >= k1
                extra = _gaussian(rng, n, max(0, k2 - k1))
                for s2 in (_factored(rng, _gaussian(rng, n, k2)),
                           _factored(rng, np.hstack([g1, extra])) if k2 >= k1 else None):
                    if s2 is None:
                        continue
                    _assert_lattice_matches_stacked(s1, s2)
                    _assert_lattice_matches_stacked(s2, s1)

    def test_matches_stacked_bases_at_n96(self):
        # nested ranges R(G[:, :k] H) for one G, and k-spaces in general
        # position, in both orders
        n = 96
        rng = np.random.default_rng(996)
        g = _gaussian(rng, n, n)
        fs = [factor(g[:, :k] @ _gaussian(rng, k, n)) for k in range(n + 1)]
        for k in range(0, n + 1, 4):
            for s2 in (fs[min(n, k + 5)].range, fs[k // 2].corange):
                _assert_lattice_matches_stacked(fs[k].range, s2)
                _assert_lattice_matches_stacked(s2, fs[k].range)

    def test_user_bases_get_a_unitary_split(self):
        rng = np.random.default_rng(41)
        for n in range(1, 7):
            q, _ = np.linalg.qr(_gaussian(rng, n, n))
            for k1 in range(n + 1):
                for k2 in range(n + 1):
                    # nested when they share q, random otherwise
                    for s2 in (Subspace(n, q[:, :k2]), random_subspace(rng, n, k2)):
                        _assert_lattice_matches_stacked(Subspace(n, q[:, :k1]), s2)

    def test_a_space_meets_and_joins_itself_at_n96(self):
        # every sine of s against s is roundoff: decided against the largest
        # sine, most of s would be lost
        n = 96
        rng = np.random.default_rng(97)
        g = _gaussian(rng, n, n)
        for k in (1, 3, 17, 48, 95, 96):
            f = factor(g[:, :k] @ _gaussian(rng, k, n))
            for s in (f.range, f.kernel, f.corange, f.cokernel):
                for got in (intersect(s, s), subspace_sum(s, s)):
                    assert got.dim == s.dim
                    assert equality_residual(got, s) <= 1e-12

    @pytest.mark.parametrize("n", [3, 8])
    def test_one_full_svd_of_the_cross_matrix_per_operation(self, n, monkeypatch):
        rng = np.random.default_rng(22)
        spaces = [_factored(rng, _gaussian(rng, n, k)) for k in range(n + 1)]
        calls = []
        svd = np.linalg.svd

        def recording_svd(m, *args, **kwargs):
            calls.append((np.shape(m), kwargs.get("compute_uv", True)))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        for s1 in spaces:
            for s2 in spaces:
                # s1 inside s2 (here s1 is s2): the cross matrix is roundoff,
                # within subspace_tol, so no SVD is made
                trivial = s1.dim == 0 or s2.dim == n or s1 is s2
                calls.clear()
                intersect(s1, s2)
                assert calls == ([] if trivial else [((n - s2.dim, s1.dim), True)])
                calls.clear()
                subspace_sum(s1, s2)
                assert calls == ([] if trivial else [((s1.dim, n - s2.dim), True)])
