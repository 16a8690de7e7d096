"""One-matrix predicates: normal, hyponormal, posinormal family, EP family.

Each predicate is decided two independent ways where possible (subspace
route vs projector route); disagreements beyond tolerance are surfaced in
``ClassificationReport.conflicts`` instead of being silently resolved.
Residuals are normalized by powers of the spectral norm, so classify(c*M)
agrees with classify(M) for any nonzero scalar c.
"""

from dataclasses import dataclass, fields

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig, within, within_each
from .kernel import RankDecision, psd_check, psd_spectrum, require_square
from .subspaces import _factor, _spanned, equality_residual


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
    conflicts: list


# the eight predicate flags of a ClassificationReport, in report order
FLAG_NAMES = tuple(f.name for f in fields(ClassificationReport) if f.type is bool)


def classify(m, cfg=DEFAULT_TOLERANCES):
    """Full predicate battery for one square matrix."""
    f = _factor(require_square(m), cfg)
    mn = f.unit
    commutator = mn @ mn.conj().T - mn.conj().T @ mn
    # m*m - m m*, by its exact Hermitian part: the roundoff of the two
    # products is not Hermitian, and is no defect of m
    hyponormal = psd_check(-0.5 * (commutator + commutator.conj().T), cfg)
    r_pos, r_copos = f.posinormal_residual, f.coposinormal_residual
    hypo_ep, min_eig = psd_spectrum(f.hermitian_commutator, cfg)
    # EP_r uses the plain transpose, not the adjoint: N(m^T) = conj N(m*)
    ker_t = _spanned(f.cokernel.basis.conj(), f.range.basis.conj())

    residuals = {
        "commutator": float(np.linalg.norm(commutator)),
        "posinormal_inclusion": r_pos,
        "coposinormal_inclusion": r_copos,
        "quasiposinormal_inclusion": f.quasiposinormal_residual,
        "ep_equality": f.ep_residual,
        "projector_commutator": float(np.linalg.norm(f.projector_commutator)),
        "ep_r_equality": equality_residual(f.kernel, ker_t),
    }
    gate = within_each(residuals, cfg.subspace_tol)
    residuals["hypo_ep_min_eigenvalue"] = min_eig  # gated by psd_tol above
    posinormal, ep = gate["posinormal_inclusion"], gate["ep_equality"]
    ep_proj = gate["projector_commutator"]

    conflicts = []
    if ep != ep_proj:
        conflicts.append(
            f"ep: subspace route {ep} vs projector route {ep_proj} "
            f"(residuals {residuals['ep_equality']:.3e} / "
            f"{residuals['projector_commutator']:.3e})"
        )
    if posinormal != hypo_ep:
        conflicts.append(
            f"posinormal {posinormal} vs hypo_ep {hypo_ep} "
            f"(inclusion {r_pos:.3e}, min eigenvalue {min_eig:.3e})"
        )

    return ClassificationReport(
        normal=gate["commutator"],
        hyponormal=hyponormal,
        quasiposinormal=gate["quasiposinormal_inclusion"],
        posinormal=posinormal,
        coposinormal=gate["coposinormal_inclusion"],
        ep=ep,
        hypo_ep=hypo_ep,
        ep_r=gate["ep_r_equality"],
        residuals=residuals,
        rank=f.decision,
        tolerances=cfg,
        conflicts=conflicts,
    )


def is_ep(m, cfg=DEFAULT_TOLERANCES):
    """Fast EP test from a single SVD: R(m) equals R(m*).

    Returns ``(flag, residual)``; used by the procedures where the
    full report would be wasteful.
    """
    residual = _factor(require_square(m), cfg).ep_residual
    return within(residual, cfg.subspace_tol, "ep residual"), residual
