import re
from pathlib import Path

import numpy as np
import pytest

import eplab
from eplab import (
    DEFAULT_TOLERANCES, InputError, ToleranceConfig, factor, numerical_rank, pinv,
    psd_check, random_unitary,
)
from eplab.fuzz import _mixed_square
from eplab.kernel import _psd, as_matrix, rank_threshold

I2 = np.eye(2, dtype=complex)
DIAG10 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def random_matrix(rng, rows, cols, rank=None):
    """Complex Gaussian, optionally of prescribed rank via a thin product."""
    if rank is None:
        return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    return left @ right


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(I2).rank == 2

    def test_diagonal_projection(self):
        assert numerical_rank(DIAG10).rank == 1

    def test_singular_complex_symmetric(self):
        # oracle: exact 2x2 determinant vanishes while the matrix is nonzero
        a = np.array([[1.0, 1.0j], [1.0j, -1.0]])
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        assert det == 0
        assert np.linalg.norm(a) > 0
        assert numerical_rank(a).rank == 1

    def test_zero_matrix(self):
        decision = numerical_rank(np.zeros((3, 4)))
        assert decision.rank == 0
        assert decision.threshold == 0.0

    def test_threshold_formula(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 6, 4)
        decision = numerical_rank(m)
        s = decision.singular_values
        eps = np.finfo(np.float64).eps
        assert decision.threshold == pytest.approx(50.0 * eps * 6 * s[0])
        assert np.all(s[: decision.rank] > decision.threshold)
        assert np.all(s[decision.rank :] <= decision.threshold)

    def test_singular_values_nonincreasing(self):
        rng = np.random.default_rng(6)
        s = numerical_rank(random_matrix(rng, 8, 8, rank=5)).singular_values
        assert np.all(np.diff(s) <= 0)

    def test_rank_multiplier_respected(self):
        cfg = ToleranceConfig(rank_multiplier=1e12)
        m = np.diag([1.0, 1e-6]).astype(complex)
        assert numerical_rank(m).rank == 2
        assert numerical_rank(m, cfg).rank == 1

    @pytest.mark.parametrize("shape", [(6, 6), (4, 7), (0, 4)])
    def test_is_the_factorization_decision(self, shape):
        # one rank decision per matrix: the same singular values, rank and
        # threshold, bit for bit, as the factorization every view reads
        m = random_matrix(np.random.default_rng(8), *shape)
        decision, f = numerical_rank(m), factor(m)
        np.testing.assert_array_equal(decision.singular_values, f.s)
        assert (decision.rank, decision.threshold) == (f.rank, f.decision.threshold)
        assert decision.threshold == rank_threshold(f.s.max(initial=0.0), shape)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            numerical_rank([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InputError):
            numerical_rank([[np.inf, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "entry",
        [complex(np.nan, 0.0), complex(0.0, np.nan), complex(0.0, -np.inf),
         complex(np.inf, 1.0), complex(np.nan, np.inf)],
    )
    def test_rejects_nonfinite_in_either_part(self, entry):
        with pytest.raises(InputError, match="^matrix has non-finite entries$"):
            as_matrix([[entry, 0.0], [0.0, 1.0]])


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(pinv(I2), I2)

    def test_projection_is_own_pseudoinverse(self):
        np.testing.assert_allclose(pinv(DIAG10), DIAG10)

    def test_partial_isometry_gives_adjoint(self):
        m = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(pinv(m), m.conj().T)

    def test_zero_matrix_transposed_shape(self):
        out = pinv(np.zeros((3, 5)))
        assert out.shape == (5, 3)
        assert np.all(out == 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_penrose_identities(self, seed):
        rng = np.random.default_rng(1000 + seed)
        rows = int(rng.integers(1, 33))
        cols = int(rng.integers(1, 33))
        rank = int(rng.integers(0, min(rows, cols) + 1)) if seed % 2 else None
        m = random_matrix(rng, rows, cols, rank=rank)
        mp = pinv(m)
        norm_m = np.linalg.norm(m)
        norm_mp = np.linalg.norm(mp)
        assert np.linalg.norm(m @ mp @ m - m) <= 1e-9 * max(norm_m, 1e-300)
        assert np.linalg.norm(mp @ m @ mp - mp) <= 1e-9 * max(norm_mp, 1e-300)
        assert np.linalg.norm((m @ mp).conj().T - m @ mp) <= 1e-10
        assert np.linalg.norm((mp @ m).conj().T - mp @ m) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_shared_with_adjoint_and_pinv(self, seed):
        rng = np.random.default_rng(2000 + seed)
        m = random_matrix(rng, 7, 5, rank=int(rng.integers(0, 6)))
        r = numerical_rank(m).rank
        assert numerical_rank(m.conj().T).rank == r
        assert numerical_rank(pinv(m)).rank == r


class TestPsdCheck:
    def test_zero(self):
        assert psd_check(np.zeros((3, 3))) is True

    def test_indefinite_diagonal(self):
        assert psd_check(np.diag([1.0, -1.0])) is False

    def test_positive_definite_by_char_poly(self):
        # oracle: eigenvalues of [[2,1],[1,2]] from the quadratic formula
        h = np.array([[2.0, 1.0], [1.0, 2.0]])
        tr, det = 4.0, 3.0
        disc = np.sqrt(tr * tr - 4 * det)
        lo, hi = (tr - disc) / 2, (tr + disc) / 2
        assert (lo, hi) == (1.0, 3.0)
        assert psd_check(h) is True

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_tolerates_roundoff_asymmetry(self):
        h = np.eye(3) + 1e-14 * np.triu(np.ones((3, 3)), k=1)
        assert psd_check(h) is True

    def test_near_zero_negative_eigenvalue_allowed(self):
        h = np.diag([1.0, -1e-12])
        assert psd_check(h) is True
        assert psd_check(np.diag([1.0, -1e-6])) is False

    def test_indefinite_diagonal_is_indefinite_at_any_scale(self):
        # PSD-ness is scale-free: -1e-12 is far outside 1e-12 times psd_tol
        assert not psd_check(1e-12 * np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("kind", ["indefinite", "psd"])
    def test_every_power_of_two_scaling_is_decided_alike(self, kind):
        # 2**k h is stored exactly across the double range, so it is the same
        # PSD question; at k = 1000 ||herm||_F overflows, and at k = -1000 an
        # absolute bound would swallow the negative eigenvalue
        u = random_unitary(3, np.random.default_rng(17))
        lam = [-0.5, 1.0, 2.0] if kind == "indefinite" else [0.0, 1.0, 2.0]
        h = (u * lam) @ u.conj().T
        h = 0.5 * (h + h.conj().T)
        flags = {k: psd_check(2.0**k * h) for k in (-1000, -40, 0, 40, 1000)}
        assert set(flags.values()) == {kind == "psd"}

    @pytest.mark.parametrize("k", [-1074, -1050, -1000, 0, 1000, 1023])
    def test_singular_and_indefinite_are_told_apart_at_the_range_edges(self, k):
        # a singular PSD h needs its bound: psd_tol * 2**k underflows to 0 at
        # k = -1050, and h + h* overflows at k = 1023, unless h is rescaled
        psd, indefinite = np.array([[1, 1j], [-1j, 1]]), np.array([[0.5, 1j], [-1j, 0.5]])
        assert psd_check(2.0**k * psd) is True
        assert psd_check(2.0**k * indefinite) is False

    def test_a_tiny_skew_matrix_is_not_hermitian(self):
        # its defect, 2.8e-12, is below psd_tol but not below psd_tol times
        # its scale 1e-12: it is an input error at every scale
        with pytest.raises(InputError, match="not Hermitian"):
            psd_check(1e-12 * np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_empty(self):
        assert psd_check(np.zeros((0, 0))) is True

    @pytest.mark.parametrize("n", [*range(2, 9), 96])
    def test_flag_is_the_spectrum_flag_either_side_of_the_bound(self, n):
        # smallest eigenvalue -c * bound, bound = psd_tol * scale for scale the
        # largest real or imaginary part of h: the flag is True for c < 1 and
        # False for c > 1, by the Cholesky and by numpy's eigvalsh, the oracle
        rng = np.random.default_rng(400 + n)
        u = random_unitary(n, rng)
        for c in (*rng.uniform(0.1, 0.9, 6), *rng.uniform(1.1, 10.0, 6)):
            lam = np.concatenate([[0.0], rng.uniform(0.0, 3.0, n - 1)])
            h = (u * lam) @ u.conj().T
            lam[0] = -c * DEFAULT_TOLERANCES.psd_tol * _scale(h)
            h = (u * lam) @ u.conj().T
            h = 0.5 * (h + h.conj().T)
            bound = DEFAULT_TOLERANCES.psd_tol * _scale(h)
            smallest = np.linalg.eigvalsh(h)[0]
            assert psd_check(h) is bool(-smallest <= bound) is bool(c < 1.0)

    @pytest.mark.parametrize("k", [-1074, -1000, -40, 0, 40, 1000, 1023])
    def test_a_one_by_one_matrix_is_psd_iff_its_entry_is_nonnegative(self, k):
        # a 1x1 h has no eigenvalue strictly inside psd_tol times its scale
        for x in (2.0**k, -(2.0**k), 0.0):
            assert psd_check([[x]]) is (x >= 0.0)


def _scale(h):
    """The largest real or imaginary part of an entry of ``h``."""
    return max(np.abs(h.real).max(), np.abs(h.imag).max())


class TestAsMatrix:
    def test_rejects_vector(self):
        with pytest.raises(InputError):
            as_matrix(np.ones(3))

    def test_empty_shapes_allowed(self):
        assert as_matrix(np.zeros((0, 4))).shape == (0, 4)
        assert numerical_rank(np.zeros((0, 4))).threshold == 0.0


def test_unit_scale_forms_decide_psd_as_their_spectrum():
    # classify's commutator m*m - mm* of unit-scaled m and the projector
    # commutator V_rV_r* - U_rU_r* are at scale 1: _psd with the bound psd_tol
    # is the flag of their Hermitian part's smallest eigenvalue (eigvalsh)
    rng = np.random.default_rng(11)
    tol = DEFAULT_TOLERANCES.psd_tol
    for _ in range(300):
        n = int(rng.integers(0, 9))
        f = factor(_mixed_square(rng, n))
        c = f.unit @ f.unit.conj().T - f.unit.conj().T @ f.unit
        for h in (-c, f.projector_commutator):
            herm = 0.5 * (h + h.conj().T)
            smallest = np.linalg.eigvalsh(herm)[0] if n else 0.0
            assert _psd(h, tol) is bool(smallest >= -tol)


def test_only_subspaces_calls_the_svd():
    # subspaces is the one home of factorizations, cross-matrix norms and
    # completed complements; an SVD anywhere else would be a second rank path
    src = Path(eplab.__file__).parent
    callers = [p.name for p in sorted(src.glob("*.py")) if "linalg.svd" in p.read_text()]
    assert callers == ["subspaces.py"]


def test_one_subspace_gate():
    # every subspace decision is config.gate: within_each is gone, and no
    # module but config passes subspace_tol to within as its bound
    src = Path(eplab.__file__).parent
    texts = {p.name: p.read_text() for p in sorted(src.glob("*.py"))}
    assert [name for name, text in texts.items() if "within_each" in text] == []
    bound = re.compile(r"within\([^()]*(\([^()]*\)[^()]*)*subspace_tol")
    assert [name for name, text in texts.items() if bound.search(text)] == ["config.py"]
    # nor reads it otherwise, but for intersect's principal-vector threshold
    # and the CLI's default
    reads = {name: len(re.findall(r"\.subspace_tol\b", text)) for name, text in texts.items()}
    assert {name: k for name, k in reads.items() if k} == {
        "cli.py": 1, "config.py": 1, "subspaces.py": 2
    }


def test_no_locking_lazy_facts_and_no_cond():
    # the lazy facts are config._lazy, which, unlike Python 3.11's
    # functools one, takes no lock on first use, and every condition cap
    # reads subspaces._cond's one singular-value SVD, not numpy's cond with
    # its errstate and NaN passes; and no module makes an eigensolve, every
    # PSD flag being kernel.psd_check's one Cholesky
    src = Path(eplab.__file__).parent
    for needle in ("cached_property", "linalg.cond", "eigvalsh"):
        assert [p.name for p in sorted(src.glob("*.py")) if needle in p.read_text()] == []


def test_pair_facts_read_the_pair_once(monkeypatch):
    # the sweep factors no product it forms (it reads the pair's fab), the
    # Bouldin angle makes one intersection and no complement view, and the
    # kernel identity intersects coranges instead of summing kernels
    src = Path(eplab.__file__).parent
    assert re.findall(r"_factor\([^()]*@", (src / "generators.py").read_text()) == []
    assert "subspace_sum" not in (src / "products.py").read_text()
    calls = []
    for name in ("intersect", "_orth", "subspace_sum"):
        def recording(*args, _name=name, _real=getattr(eplab.subspaces, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(eplab.subspaces, name, recording)
    a, b = np.diag([1.0, 0.0, 0.0, 1.0]), np.diag([1.0, 1.0, 0.0, 0.0])
    b[1, 2] = 1.0
    assert eplab.bouldin_angle(a, b).bouldin_components.dim_deflated_kernel == 1
    assert calls == ["intersect"]
