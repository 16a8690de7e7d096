"""Structured random matrix generators, the example catalog, and
finite-section truncation families.

All randomness flows through ``numpy.random.default_rng``; identical seeds
yield bit-identical output.  Invertible cores are rejection-sampled under a
condition-number cap (default 1e4) so rank thresholds never sit near a
singular value.
"""

import math

import numpy as np

from .config import DEFAULT_TOLERANCES, Record, gate
from .errors import InputError, require_known
from .kernel import embed, require_square
from .subspaces import (
    Subspace,
    _cond,
    _factor,
    bouldin_angle,
    factor_pair,
    minimal_angle,
    projector,
)

_MAX_REJECTION_TRIES = 100_000

TRUNCATION_FAMILIES = ("tilted_projections", "shift_block", "weighted_shift")


class ExamplePair(Record, eq=False):
    """A named (a, b) pair with its expected facts and short notes."""

    name: str
    a: np.ndarray
    b: np.ndarray
    expected: dict
    notes: dict


class TiltedProjectionPair(Record, eq=False):
    """Two Hermitian idempotents whose ranges tilt together as n grows."""

    a: np.ndarray
    b: np.ndarray
    m1: Subspace
    m2: Subspace


class TruncationMetrics(Record):
    size: int
    cos_min_angle: float
    bouldin_cos: float
    sigma_min_plus: float
    ab_ep: bool
    residuals: dict


class TruncationSeries(Record, eq=False):
    family: str
    sizes: list
    metrics: list


def _complex_gaussian(rng, rows, cols):
    g = rng.standard_normal((2, rows, cols))  # the stream of two draws
    z = np.empty((rows, cols), dtype=np.complex128)
    z.real, z.imag = g  # (g[0] + 1j * g[1]) / sqrt(2), byte for byte
    return np.divide(z, math.sqrt(2.0), out=z)


def random_unitary(n, seed=None):
    """Haar-like random unitary: QR of a complex Gaussian with the phases
    fixed so the triangular factor has positive real diagonal."""
    rng = np.random.default_rng(seed)
    z = _complex_gaussian(rng, n, n)
    q, r = np.linalg.qr(z)
    d = r.diagonal().copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def _invertible_core(rng, r, cond_cap):
    """Complex Gaussian r x r, resampled until cond <= cond_cap.  Every core
    is drawn here, so here the cap is checked to exceed 1, at rank 0 too."""
    if cond_cap <= 1.0:
        raise InputError("cond_cap must exceed 1")
    if r == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    for _ in range(_MAX_REJECTION_TRIES):
        c = _complex_gaussian(rng, r, r)
        if _cond(c) <= cond_cap:
            return c
    raise InputError(
        f"could not sample a {r}x{r} core with condition <= {cond_cap}"
    )


def _validate_rank(n, r):
    if not (0 <= r <= n):
        raise InputError(f"rank must satisfy 0 <= r <= {n}, got {r}")


def random_ep(n, r, seed=None, cond_cap=1e4):
    """Random EP matrix of exact rank r: U (C ⊕ 0) U* with C invertible,
    drawn under ``cond_cap``, which must exceed 1."""
    _validate_rank(n, r)
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    c = _invertible_core(rng, r, cond_cap)
    return embed(u, c)


def random_commuting_ep_pair(n, r, seed=None, cond_cap=1e4):
    """Commuting EP pair sharing the kernel-splitting unitary.

    The invertible cores share a random unitary eigenbasis with independent
    nonzero spectra, so they commute exactly up to roundoff; the second
    matrix additionally carries a random EP block on the complement.
    """
    _validate_rank(n, r)
    if r == 0:
        raise InputError("rank 0 not supported here; use random_same_kernel_pair")
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    v = random_unitary(r, rng)

    def spectrum():
        moduli = rng.uniform(1.0 / 3.0, 1.0, size=r)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=r)
        return moduli * np.exp(1j * phases)

    a_core = v @ np.diag(spectrum()) @ v.conj().T
    b_core = v @ np.diag(spectrum()) @ v.conj().T
    z_rank = int(rng.integers(0, n - r + 1))
    z = random_ep(n - r, z_rank, rng, cond_cap)
    a = embed(u, a_core)
    b = embed(u, b_core, z)
    return a, b


def random_same_kernel_pair(n, r, seed=None, cond_cap=1e4):
    """Two EP matrices of rank r with identical kernel (cores independent)."""
    _validate_rank(n, r)
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    a = embed(u, _invertible_core(rng, r, cond_cap))
    b = embed(u, _invertible_core(rng, r, cond_cap))
    return a, b


def _random_invariant_subspace(a, rng, cfg):
    n = a.shape[0]
    w, vecs = np.linalg.eig(a)
    if np.isfinite(vecs).all() and _cond(vecs) <= 1e8:
        k = int(rng.integers(1, n + 1))
        idx = rng.choice(n, size=k, replace=False)
        return _factor(vecs[:, np.sort(idx)], cfg).range
    # ill-conditioned eigenbasis: fall back to the closure of a Krylov chain
    v = _complex_gaussian(rng, n, 1)
    columns = []
    cur = v
    for _ in range(n):
        norm = np.linalg.norm(cur)
        if norm == 0.0:
            break
        cur = cur / norm
        columns.append(cur)
        cur = a @ cur
    return _factor(np.hstack(columns), cfg).range


def random_invariant_range_b(a, seed=None, cfg=DEFAULT_TOLERANCES):
    """Random B = S·M, S an A-invariant span decided under ``cfg`` and M
    Gaussian, so R(AB) ⊆ R(B) in exact arithmetic; whether it holds
    numerically is for the pair decision that reads B to decide."""
    a = require_square(a)
    n = a.shape[0]
    if n == 0:
        return a.copy()
    rng = np.random.default_rng(seed)
    # never {0}: it spans unit eigenvectors or a Krylov chain from a unit vector
    s = _random_invariant_subspace(a, rng, cfg)
    return s.basis @ _complex_gaussian(rng, s.dim, n)


# ---------------------------------------------------------------------------
# Exact example catalog


def _catalog_entries():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
    proj = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    sym = np.array([[1.0, 1.0j], [1.0j, -1.0]], dtype=np.complex128)
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    return {
        "shear_projection_pair": ExamplePair(
            name="shear_projection_pair",
            a=shear,
            b=proj,
            expected={
                "a_ep": True,
                "b_ep": True,
                "ab_posinormal": True,
                "ab_ep": True,
                "ba_posinormal": False,
                "ba_ep": False,
            },
            notes={
                "ab": "shear-first product is the Hermitian projection diag(1,0)",
                "ba": "projection-first product maps onto span{e1} while its "
                "adjoint range is the diagonal line: ranges differ",
            },
        ),
        "epr_not_ep": ExamplePair(
            name="epr_not_ep",
            a=sym,
            b=sym,
            expected={"a_ep_r": True, "a_ep": False, "a_rank": 1},
            notes={
                "a": "complex symmetric, so kernel(a) = kernel(a^T); but the "
                "range is spanned by (1, i) while the adjoint range is "
                "spanned by (1, -i)",
            },
        ),
        "jordan2": ExamplePair(
            name="jordan2",
            a=jordan,
            b=jordan,
            expected={
                "a_ep": False,
                "a_rank": 1,
                "a_squared_rank": 0,
                "rank_stable_under_squaring": False,
                "power_ep": [False, True],
            },
            notes={"a": "nilpotent block: squaring kills the rank"},
        ),
    }


def catalog_names():
    return sorted(_catalog_entries())


def catalog(name):
    entries = _catalog_entries()
    require_known(name, entries, "catalog name")
    return entries[name]


# ---------------------------------------------------------------------------
# Truncation families


def tilted_projection_pair(n):
    """Two (2n+2)-dimensional Hermitian idempotents with closing angle.

    m1 is spanned by the even coordinates e_0, e_2, ..., e_2n; m2 by the
    normalized vectors e_2k + e_{2k+1}/(2k+1).  The cosine of their minimal
    angle is 1/sqrt(1 + 1/(2n+1)^2), climbing to 1 as n grows, while the
    two spaces intersect only in 0 at every n.
    """
    if n < 0:
        raise InputError("truncation index must be >= 0")
    dim = 2 * n + 2
    m1_basis = np.zeros((dim, n + 1), dtype=np.complex128)
    m2_basis = np.zeros((dim, n + 1), dtype=np.complex128)
    for k in range(n + 1):
        m1_basis[2 * k, k] = 1.0
        weight = 1.0 / (2 * k + 1)
        scale = 1.0 / math.sqrt(1.0 + weight**2)
        m2_basis[2 * k, k] = scale
        m2_basis[2 * k + 1, k] = weight * scale
    m1 = Subspace(dim, m1_basis)
    m2 = Subspace(dim, m2_basis)
    a = np.eye(dim, dtype=np.complex128) - projector(m1)
    b = projector(m2)
    return TiltedProjectionPair(a=a, b=b, m1=m1, m2=m2)


def shift_block_pair(m):
    """Block pair built from a truncated forward shift.

    A = 0 ⊕ I and B = [[F, P], [0, F*]] on C^{2m}, where F is the m x m
    forward shift (last basis vector mapped to 0) and P projects onto the
    first coordinate.  The untruncated version of B is unitary; truncation
    leaves the rank-one defect ||BB* - I|| = 1, B loses EP-ness, and the
    product AB = 0 ⊕ F* is neither posinormal nor coposinormal, while the
    range and kernel conditions of the product test still hold.
    """
    if m < 2:
        raise InputError("block size must be >= 2")
    f = np.zeros((m, m), dtype=np.complex128)
    for j in range(m - 1):
        f[j + 1, j] = 1.0
    p = np.zeros((m, m), dtype=np.complex128)
    p[0, 0] = 1.0
    zero = np.zeros((m, m), dtype=np.complex128)
    eye = np.eye(m, dtype=np.complex128)
    a = np.block([[zero, zero], [zero, eye]])
    b = np.block([[f, p], [zero, f.conj().T]])
    return ExamplePair(
        name=f"shift_block_{m}",
        a=a,
        b=b,
        expected={
            "a_ep": True,
            "b_ep": False,
            "ab_ep": False,
            "ab_posinormal": False,
            "ab_coposinormal": False,
            "cond_i": True,
            "cond_ii": True,
            "unitary_defect": 1.0,
        },
        notes={
            "b": "one lost shift direction: kernel(b) and kernel(b*) sit in "
            "different blocks",
            "ab": "0 ⊕ backward-shift: its range and adjoint range are "
            "incomparable coordinate spans at finite size",
        },
    )


def weighted_shift_truncation(m):
    """m x m lower shift with subdiagonal weights 1, 1/2, ..., 1/(m-1).

    Nilpotent; its singular values are exactly the weights plus one zero,
    so the smallest above-threshold singular value is 1/(m-1), decaying to
    0 along the family.
    """
    if m < 2:
        raise InputError("truncation size must be >= 2")
    w = np.zeros((m, m), dtype=np.complex128)
    for i in range(m - 1):
        w[i + 1, i] = 1.0 / (i + 1)
    return w


def _metrics_for_pair(size, a, b, cfg, extra_residuals):
    pair = factor_pair(a, b, cfg)
    fa, fb, fab = pair.fa, pair.fb, pair.fab  # fab factors AB / (σ₁(A)·σ₁(B))
    n_a, r_b = fa.kernel, fb.range
    cos = minimal_angle(n_a, r_b).cos_min_angle if n_a.dim and r_b.dim else math.nan
    return TruncationMetrics(
        size=int(size),
        cos_min_angle=cos,
        bouldin_cos=bouldin_angle(a, b, cfg).cos_min_angle,
        sigma_min_plus=(
            float(fab.s[fab.rank - 1] * fa.s[0] * fb.s[0]) if fab.rank else math.nan
        ),
        **gate(cfg, ab_ep=fab.ep_residual),
        residuals=extra_residuals,
    )


def sweep(family, sizes, cfg=DEFAULT_TOLERANCES):
    """Per-size metrics for one truncation family.

    Reported per size: cosine of the minimal angle between kernel(a) and
    range(b), the deflated-kernel (product-closedness) cosine, and AB's
    smallest above-threshold singular value (in AB's units) and EP flag,
    both from the pair's ``fab``.  Monotonicity assertions are left to callers.
    """
    require_known(family, TRUNCATION_FAMILIES, "family")
    sizes = [int(s) for s in sizes]
    if any(later <= earlier for earlier, later in zip(sizes, sizes[1:])):
        raise InputError("sizes must be strictly increasing")
    metrics = []
    for size in sizes:
        if family == "tilted_projections":
            pair = tilted_projection_pair(size)
            a, b = pair.a, pair.b
            extra = {
                "a_idempotency": float(np.linalg.norm(a @ a - a)),
                "b_idempotency": float(np.linalg.norm(b @ b - b)),
            }
        elif family == "shift_block":
            pair = shift_block_pair(size)
            a, b = pair.a, pair.b
            eye = np.eye(b.shape[0])
            extra = {"unitary_defect": float(np.linalg.norm(b @ b.conj().T - eye))}
        else:
            w = weighted_shift_truncation(size)
            a, b = w, np.eye(size, dtype=np.complex128)
            extra = {"nilpotency": float(np.linalg.norm(np.linalg.matrix_power(w, size)))}
        metrics.append(_metrics_for_pair(size, a, b, cfg, extra))
    return TruncationSeries(family=family, sizes=sizes, metrics=metrics)
