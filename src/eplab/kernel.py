"""Dense complex-matrix primitives: numerical rank policy, PSD test.

Every downstream predicate is built on the single rank policy implemented
here: singular values above ``rank_multiplier * eps * max(m, n) * sigma_max``
count toward the rank, everything at or below does not.  The one
:class:`RankDecision` of a matrix's factorization
(:class:`eplab.subspaces.Factorization`) is threaded through its
range/kernel/pseudoinverse, which keeps all of them consistent.
"""

from dataclasses import dataclass

import numpy as np

from .config import resolve
from .errors import InputError

_EPS = float(np.finfo(np.float64).eps)


def as_matrix(a):
    """Coerce ``a`` to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise InputError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not (np.isfinite(m.real).all() and np.isfinite(m.imag).all()):
        raise InputError("matrix has non-finite entries")
    return m


def require_square(m, what="matrix"):
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise InputError(f"{what} must be square, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class RankDecision:
    """Numerical rank together with the evidence that produced it."""

    rank: int
    singular_values: np.ndarray  # nonincreasing, >= 0
    threshold: float


def rank_threshold(singular_values, shape, cfg=None):
    """Cutoff below which singular values are treated as zero."""
    cfg = resolve(cfg)
    if len(singular_values) == 0:
        return 0.0
    sigma_max = float(singular_values[0])
    return cfg.rank_multiplier * _EPS * max(shape) * sigma_max


def decide_rank(singular_values, shape, cfg=None):
    s = np.asarray(singular_values, dtype=np.float64)
    tol = rank_threshold(s, shape, cfg)
    rank = int(np.count_nonzero(s > tol))
    return RankDecision(rank=rank, singular_values=s, threshold=tol)


def numerical_rank(m, cfg=None):
    """Rank decision for ``m`` under the shared threshold policy, from its
    singular values alone (no singular vectors)."""
    m = as_matrix(m)
    s = np.linalg.svd(m, compute_uv=False)
    return decide_rank(s, m.shape, cfg)


def psd_check(h, cfg=None):
    """True iff the Hermitian part of ``h`` has no eigenvalue below
    ``-psd_tol * (1 + ||h||)``.

    ``h`` must be Hermitian to within ``psd_tol * (1 + ||h||)`` in Frobenius
    norm; anything farther from Hermitian is an input error rather than a
    silent False.
    """
    cfg = resolve(cfg)
    h = require_square(h, "psd_check input")
    if h.size == 0:
        return True
    scale = float(np.linalg.norm(h))
    defect = float(np.linalg.norm(h - h.conj().T))
    if defect > cfg.psd_tol * (1.0 + scale):
        raise InputError(
            f"matrix is not Hermitian within tolerance (defect {defect:.3e})"
        )
    hs = 0.5 * (h + h.conj().T)
    eigenvalues = np.linalg.eigvalsh(hs)
    return bool(eigenvalues[0] >= -cfg.psd_tol * (1.0 + scale))


def min_symmetric_eigenvalue(h):
    """Smallest eigenvalue of the Hermitian part of ``h`` (0 for empty)."""
    h = require_square(h)
    if h.size == 0:
        return 0.0
    hs = 0.5 * (h + h.conj().T)
    return float(np.linalg.eigvalsh(hs)[0])
