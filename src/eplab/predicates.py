"""One-matrix predicates: normal, hyponormal, posinormal family, EP family.

Each predicate is decided two independent ways where possible (subspace
route vs projector route); disagreements beyond tolerance are surfaced in
``ClassificationReport.conflicts`` instead of being silently resolved.
Residuals are normalized by powers of the spectral norm, so classify(c*M)
agrees with classify(M) for any nonzero scalar c.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import ToleranceConfig, resolve
from .kernel import RankDecision, psd_check, psd_spectrum, require_square
from .subspaces import Subspace, equality_residual, factor, inclusion_residual

# the eight predicate flags of a ClassificationReport, in report order
FLAG_NAMES = (
    "normal", "hyponormal", "quasiposinormal", "posinormal",
    "coposinormal", "ep", "hypo_ep", "ep_r",
)


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    normal: bool
    hyponormal: bool
    quasiposinormal: bool
    posinormal: bool
    coposinormal: bool
    ep: bool
    hypo_ep: bool
    ep_r: bool
    residuals: dict
    rank: RankDecision
    tolerances: ToleranceConfig
    conflicts: list = field(default_factory=list)


def _projector_commutator(f):
    """m_pinv m - m m_pinv, from the factorization ``f`` of ``m``."""
    return f.pinv @ f.m - f.m @ f.pinv


def _hypo_ep(d, cfg):
    """PSD test of the projector commutator ``d``: ``(flag, smallest
    eigenvalue)`` of its Hermitian part, which absorbs matmul roundoff."""
    return psd_spectrum(0.5 * (d + d.conj().T), cfg)


def ep_via_projectors(m, cfg=None):
    """Projector route for the EP test: does m commute with its pseudoinverse?

    Returns ``(flag, residual)`` with residual = ||m_pinv m - m m_pinv||.
    """
    cfg = resolve(cfg)
    m = require_square(m)
    residual = float(np.linalg.norm(_projector_commutator(factor(m, cfg))))
    return residual <= cfg.subspace_tol, residual


def hypo_ep_check(m, cfg=None):
    """PSD route: m_pinv m - m m_pinv positive semidefinite."""
    cfg = resolve(cfg)
    m = require_square(m)
    return _hypo_ep(_projector_commutator(factor(m, cfg)), cfg)[0]


def classify(m, cfg=None):
    """Full predicate battery for one square matrix."""
    cfg = resolve(cfg)
    m = require_square(m)

    f = factor(m, cfg)
    scale = float(f.s[0]) if f.s.size else 0.0

    if scale == 0.0:
        residuals = {
            "commutator": 0.0,
            "posinormal_inclusion": 0.0,
            "coposinormal_inclusion": 0.0,
            "quasiposinormal_inclusion": 0.0,
            "ep_equality": 0.0,
            "projector_commutator": 0.0,
            "ep_r_equality": 0.0,
            "hypo_ep_min_eigenvalue": 0.0,
        }
        return ClassificationReport(
            **dict.fromkeys(FLAG_NAMES, True),
            residuals=residuals, rank=f.decision, tolerances=cfg,
        )

    mn = f.unit
    commutator = mn @ mn.conj().T - mn.conj().T @ mn
    r_commutator = float(np.linalg.norm(commutator))
    normal = r_commutator <= cfg.subspace_tol
    hyponormal = psd_check(-commutator, cfg)  # m*m - m m* up to sign convention

    r_pos = inclusion_residual(f.range, f.corange)
    r_copos = inclusion_residual(f.corange, f.range)
    r_quasi = inclusion_residual(f.kernel, f.cokernel)
    posinormal = r_pos <= cfg.subspace_tol
    coposinormal = r_copos <= cfg.subspace_tol
    quasiposinormal = r_quasi <= cfg.subspace_tol
    ep = posinormal and coposinormal

    d = _projector_commutator(f)
    r_proj = float(np.linalg.norm(d))
    ep_proj = r_proj <= cfg.subspace_tol
    hypo_ep, min_eig = _hypo_ep(d, cfg)

    # EP_r uses the plain transpose, not the adjoint: N(m^T) = conj N(m*)
    ker_t = Subspace(m.shape[0], f.cokernel.basis.conj())
    r_ep_r = equality_residual(f.kernel, ker_t)
    ep_r = r_ep_r <= cfg.subspace_tol

    conflicts = []
    if ep != ep_proj:
        conflicts.append(
            f"ep: subspace route {ep} vs projector route {ep_proj} "
            f"(residuals {max(r_pos, r_copos):.3e} / {r_proj:.3e})"
        )
    if posinormal != hypo_ep:
        conflicts.append(
            f"posinormal {posinormal} vs hypo_ep {hypo_ep} "
            f"(inclusion {r_pos:.3e}, min eigenvalue {min_eig:.3e})"
        )

    residuals = {
        "commutator": r_commutator,
        "posinormal_inclusion": r_pos,
        "coposinormal_inclusion": r_copos,
        "quasiposinormal_inclusion": r_quasi,
        "ep_equality": max(r_pos, r_copos),
        "projector_commutator": r_proj,
        "ep_r_equality": r_ep_r,
        "hypo_ep_min_eigenvalue": min_eig,
    }
    return ClassificationReport(
        normal=normal,
        hyponormal=hyponormal,
        quasiposinormal=quasiposinormal,
        posinormal=posinormal,
        coposinormal=coposinormal,
        ep=ep,
        hypo_ep=hypo_ep,
        ep_r=ep_r,
        residuals=residuals,
        rank=f.decision,
        tolerances=cfg,
        conflicts=conflicts,
    )


def _ep(f, cfg):
    """EP test on a factorization: R(m) equals R(m*)."""
    residual = equality_residual(f.range, f.corange)
    return residual <= cfg.subspace_tol, residual


def is_ep(m, cfg=None):
    """Fast EP test from a single SVD: R(m) equals R(m*).

    Returns ``(flag, residual)``; used by the product procedures where the
    full report would be wasteful.
    """
    cfg = resolve(cfg)
    return _ep(factor(require_square(m), cfg), cfg)
