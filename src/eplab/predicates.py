"""One-matrix predicates: normal, hyponormal, posinormal family, EP family.

Each predicate is decided two independent ways where possible (subspace
route vs projector route); disagreements beyond tolerance are surfaced in
``ClassificationReport.conflicts`` instead of being silently resolved.
Quasiposinormal is posinormal in C^n and reads the posinormal residual.
Each PSD flag (hyponormal, hypo-EP) is one Cholesky (``kernel._psd``) of a
form at scale 1, against ``psd_tol``; the smallest eigenvalue of m⁺m − mm⁺
reported is minus the EP residual.  Residuals are normalized by powers of
the spectral norm, so classify(c*M) agrees with classify(M) for any c ≠ 0.
"""

import numpy as np

from .config import DEFAULT_TOLERANCES, Record, ToleranceConfig, gate
from .kernel import RankDecision, _psd, require_square
from .subspaces import _factor, _sigma1


class ClassificationReport(Record, eq=False):
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
FLAG_NAMES = tuple(k for k, t in ClassificationReport.__annotations__.items() if t is bool)


def classify(m, cfg=DEFAULT_TOLERANCES):
    """Full predicate battery for one square matrix."""
    f = _factor(require_square(m), cfg)
    mn, mh = f.unit, f.unit.conj().T
    commutator = mn @ mh - mh @ mn
    hyponormal = _psd(-commutator, cfg.psd_tol)  # m*m - m m* >= 0
    r_pos, r_copos = f.posinormal_residual, f.coposinormal_residual
    hypo_ep = _psd(f.projector_commutator, cfg.psd_tol)  # m⁺m - mm⁺ >= 0

    residuals = {
        "commutator": float(np.linalg.norm(commutator)),
        "posinormal_inclusion": r_pos,
        "coposinormal_inclusion": r_copos,
        # in C^n N(m) ⊆ N(m*) iff R(m) ⊆ R(m*): take orthogonal complements
        "quasiposinormal_inclusion": r_pos,
        # both sides, computed independently, as both flags are reported
        "ep_equality": max(r_pos, r_copos),
        "projector_commutator": float(np.linalg.norm(f.projector_commutator)),
        # EP_r: N(m^T) = conj N(m*) has complement conj R(m), of adjoint u_r^T
        "ep_r_equality": _sigma1(f._block("range").T @ f._block("kernel")),
    }
    flags = gate(cfg, **residuals)
    min_eig = residuals["hypo_ep_min_eigenvalue"] = 0.0 - r_pos  # not -r_pos: no -0.0
    posinormal, ep = flags["posinormal_inclusion"], flags["ep_equality"]
    ep_proj = flags["projector_commutator"]

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
        normal=flags["commutator"],
        hyponormal=hyponormal,
        quasiposinormal=flags["quasiposinormal_inclusion"],
        posinormal=posinormal,
        coposinormal=flags["coposinormal_inclusion"],
        ep=ep,
        hypo_ep=hypo_ep,
        ep_r=flags["ep_r_equality"],
        residuals=residuals,
        rank=f.decision,
        tolerances=cfg,
        conflicts=conflicts,
    )


def is_ep(m, cfg=DEFAULT_TOLERANCES):
    """R(m) = R(m*) from one factorization and at most one cross-matrix SVD.

    Returns ``(flag, residual)``, gated as ``ep_residual``; used by the
    procedures where the full report would be wasteful.
    """
    residual = _factor(require_square(m), cfg).ep_residual
    return gate(cfg, ep_residual=residual)["ep_residual"], residual
