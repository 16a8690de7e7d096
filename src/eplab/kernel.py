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

from .config import DEFAULT_TOLERANCES, within
from .errors import DimensionMismatchError, InputError

_EPS = float(np.finfo(np.float64).eps)


def as_matrix(a):
    """Coerce ``a`` to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise InputError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise InputError("matrix has non-finite entries")
    return m


def require_square(m, what="matrix"):
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise InputError(f"{what} must be square, got shape {m.shape}")
    return m


def require_pair(a, b):
    """Two square operands of one size, as complex matrices."""
    a = require_square(a, "first operand")
    b = require_square(b, "second operand")
    if a.shape != b.shape:
        raise DimensionMismatchError(f"size mismatch: {a.shape} vs {b.shape}")
    return a, b


@dataclass(frozen=True, eq=False)
class RankDecision:
    """Numerical rank together with the evidence that produced it."""

    rank: int
    singular_values: np.ndarray  # nonincreasing, >= 0
    threshold: float


def rank_threshold(singular_values, shape, cfg=DEFAULT_TOLERANCES):
    """Cutoff below which singular values are treated as zero."""
    if len(singular_values) == 0:
        return 0.0
    sigma_max = float(singular_values[0])
    return cfg.rank_multiplier * _EPS * max(shape) * sigma_max


def decide_rank(singular_values, shape, cfg=DEFAULT_TOLERANCES):
    s = np.asarray(singular_values, dtype=np.float64)
    tol = rank_threshold(s, shape, cfg)
    rank = int(np.count_nonzero(s > tol))
    return RankDecision(rank=rank, singular_values=s, threshold=tol)


def numerical_rank(m, cfg=DEFAULT_TOLERANCES):
    """Rank decision for ``m`` under the shared threshold policy, from its
    singular values alone (no singular vectors)."""
    m = as_matrix(m)
    s = np.linalg.svd(m, compute_uv=False)
    return decide_rank(s, m.shape, cfg)


def psd_spectrum(h, cfg=DEFAULT_TOLERANCES):
    """``(flag, smallest eigenvalue)`` of the Hermitian part of ``h``, where
    flag is True iff that eigenvalue is at least ``-psd_tol * (1 + ||h||)``.

    ``h`` must be Hermitian to within ``psd_tol * (1 + ||h||)`` in Frobenius
    norm; anything farther from Hermitian is an input error rather than a
    silent False.  The empty matrix gives ``(True, 0.0)``.
    """
    h = require_square(h, "psd_check input")
    if h.size == 0:
        return True, 0.0
    bound = cfg.psd_tol * (1.0 + float(np.linalg.norm(h)))
    defect = float(np.linalg.norm(h - h.conj().T))
    if not within(defect, bound, "Hermitian defect"):
        raise InputError(
            f"matrix is not Hermitian within tolerance (defect {defect:.3e})"
        )
    smallest = float(np.linalg.eigvalsh(0.5 * (h + h.conj().T))[0])
    return within(-smallest, bound, "smallest eigenvalue"), smallest


def psd_check(h, cfg=DEFAULT_TOLERANCES):
    """True iff ``h`` is positive semidefinite within tolerance
    (see :func:`psd_spectrum`)."""
    return psd_spectrum(h, cfg)[0]
