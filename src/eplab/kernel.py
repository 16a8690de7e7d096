"""Dense complex-matrix primitives: rank policy, PSD test, block embedding.

Every downstream predicate is built on the single rank policy implemented
here: singular values above ``rank_multiplier * eps * max(m, n) * sigma_max``
count toward the rank, everything at or below does not.  A product or power
of unit-scaled factors is decided against its unit scale in place of
``sigma_max``.  This module makes no SVD: the singular values come from a
matrix's one factorization (:class:`eplab.subspaces.Factorization`), whose
:class:`RankDecision` its range, kernel and pseudoinverse share.  Every PSD
flag is one Cholesky (:func:`_psd`) against ``psd_tol`` times the matrix's
scale: 1 for eplab's unit-scaled forms, the input's own in :func:`psd_check`.
"""

import numpy as np

from .config import DEFAULT_TOLERANCES, Record, within
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


def embed(u, *blocks):
    """U (block-diagonal stack ⊕ 0) U*: the blocks along the diagonal from
    the top left, zero beyond them."""
    n = u.shape[0]
    full = np.zeros((n, n), dtype=np.complex128)
    offset = 0
    for blk in blocks:
        k = blk.shape[0]
        full[offset : offset + k, offset : offset + k] = blk
        offset += k
    return u @ full @ u.conj().T


def require_pair(a, b):
    """Two square operands of one size, as complex matrices."""
    a = require_square(a, "first operand")
    b = require_square(b, "second operand")
    if a.shape != b.shape:
        raise DimensionMismatchError(f"size mismatch: {a.shape} vs {b.shape}")
    return a, b


class RankDecision(Record, eq=False):
    """Numerical rank together with the evidence that produced it."""

    rank: int
    singular_values: np.ndarray  # nonincreasing, >= 0
    threshold: float


def rank_threshold(scale, shape, cfg=DEFAULT_TOLERANCES):
    """Cutoff at or below which singular values count as zero, against ``scale``."""
    return cfg.rank_multiplier * _EPS * max(shape) * scale


def decide_rank(singular_values, shape, cfg, scale):
    """Rank decision on ``singular_values`` against ``scale`` (see
    :func:`factor <eplab.subspaces.factor>`)."""
    s = np.asarray(singular_values, dtype=np.float64)
    tol = rank_threshold(scale, shape, cfg)
    rank = int(np.count_nonzero(s > tol))
    return RankDecision(rank, s, tol)


def _psd(h, bound):
    """True iff (h + h*)/2 has no eigenvalue below ``-bound``: one Cholesky of
    it plus bound·I.  eplab's own forms (m*m − mm* of unit-scaled m, and
    V_rV_r* − U_rU_r*) are at scale 1, so their bound is ``psd_tol``."""
    herm = 0.5 * (h + h.conj().T)
    herm.flat[:: len(herm) + 1] += bound  # herm + bound * I, in place
    try:
        np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        return False
    return True


def psd_check(h, cfg=DEFAULT_TOLERANCES):
    """True iff ``h`` is PSD within ``psd_tol`` times its scale, its largest
    real or imaginary part (from ||h||_2 / (sqrt(2) n) to ||h||_2): :func:`_psd`
    of h brought to a scale in [1/2, 1) by two exact powers of two, so c·h is
    decided as h for every c > 0.  An ``h`` farther than that bound from
    Hermitian (Frobenius norm) is an input error.  Zero and empty are PSD."""
    h = require_square(h, "psd_check input")
    scale, e = np.frexp(max(abs(h.real).max(initial=0.0), abs(h.imag).max(initial=0.0)))
    h, bound = h * 2.0 ** -(e // 2) * 2.0 ** (e // 2 - e), cfg.psd_tol * scale
    defect = float(np.linalg.norm(h - h.conj().T))
    if not within(defect, bound, "Hermitian defect"):
        raise InputError(f"matrix is not Hermitian: defect {defect / scale:.3e} of its scale")
    return not scale or _psd(h, bound)
