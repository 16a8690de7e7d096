"""Decision procedures about products of EP matrices and matrix powers.

Every procedure returns residuals alongside booleans so a fuzz failure can
be triaged as numerical (residual near a threshold) or mathematical.
Hypotheses are checked, never assumed; procedures with an EP precondition
raise InapplicableError instead of returning a silent False.
"""

from dataclasses import dataclass

import numpy as np

from .config import resolve
from .errors import InapplicableError, InputError
from .kernel import require_pair, require_square
from .predicates import _ep, _hypo_ep, _projector_commutator
from .subspaces import (
    equality_residual,
    factor,
    inclusion_residual,
    intersect,
    range_basis,
    subspace_sum,
)


@dataclass(frozen=True)
class ProductReport:
    """Range/kernel facts about a product AB of square matrices.

    ``cond_i``: R(AB) ⊆ R(B).  ``cond_ii``: N(A) ⊆ N(AB).  For EP operands
    the product is EP exactly when both conditions hold; ``a_ep``/``b_ep``
    are reported so callers know whether that biconditional applies.
    """

    cond_i: bool
    cond_ii: bool
    ab_ep: bool
    a_ep: bool
    b_ep: bool
    range_identity: bool
    kernel_identity: bool
    residuals: dict


@dataclass(frozen=True)
class GroupInvertibleReport:
    """The three equivalent faces of rank stability under squaring."""

    kernel_stable: bool  # N(A^2) = N(A)
    range_stable: bool   # R(A^2) = R(A)
    rank_stable: bool    # rank A^2 = rank A
    residuals: dict


@dataclass(frozen=True)
class RangeIdentityReport:
    hypothesis: bool   # R(AB) ⊆ R(B)
    conclusion: bool   # R(AB) = R(A) ∩ R(B)
    residuals: dict


@dataclass(frozen=True)
class JohnsonVinothReport:
    hyp_range: bool    # R(B) ⊆ R(A)
    hyp_kernel: bool   # N(B) ⊆ N(A)
    ab_hypo_ep: bool
    residuals: dict


def _factored_pair(a, b, cfg):
    """Factorizations of A, B and of the product of their unit-scaled forms:
    AB up to a positive scalar, so every range, kernel and EP fact of AB."""
    a, b = require_pair(a, b)
    fa, fb = factor(a, cfg), factor(b, cfg)
    return fa, fb, factor(fa.unit @ fb.unit, cfg)


def _product_report(fa, fb, fab, cfg):
    """Product facts for (a, b), given the factorizations of a, b and ab."""
    res_i = inclusion_residual(fab.range, fb.range)
    res_ii = inclusion_residual(fa.kernel, fab.kernel)
    a_ep, res_a = _ep(fa, cfg)
    b_ep, res_b = _ep(fb, cfg)
    ab_ep, res_ab = _ep(fab, cfg)
    res_range = equality_residual(fab.range, intersect(fa.range, fb.range, cfg))
    res_kernel = equality_residual(fab.kernel, subspace_sum(fa.kernel, fb.kernel, cfg))

    tol = cfg.subspace_tol
    return ProductReport(
        cond_i=res_i <= tol,
        cond_ii=res_ii <= tol,
        ab_ep=ab_ep,
        a_ep=a_ep,
        b_ep=b_ep,
        range_identity=res_range <= tol,
        kernel_identity=res_kernel <= tol,
        residuals={
            "cond_i": res_i,
            "cond_ii": res_ii,
            "a_ep": res_a,
            "b_ep": res_b,
            "ab_ep": res_ab,
            "range_identity": res_range,
            "kernel_identity": res_kernel,
        },
    )


def hartwig_katz(a, b, cfg=None):
    """All range/kernel product facts, with no hypothesis enforcement."""
    cfg = resolve(cfg)
    return _product_report(*_factored_pair(a, b, cfg), cfg)


def _require_ep(report):
    """``report`` itself when both operands are EP; raises otherwise."""
    if not (report.a_ep and report.b_ep):
        raise InapplicableError(
            f"both operands must be EP (residuals {report.residuals['a_ep']:.3e}, "
            f"{report.residuals['b_ep']:.3e})"
        )
    return report


def djordjevic_check(a, b, cfg=None):
    """Product facts for a pair that must be EP; raises otherwise.

    For EP operands, the product is EP exactly when both the range
    intersection identity and the kernel sum identity hold.
    """
    return _require_ep(hartwig_katz(a, b, cfg))


def group_invertible_check(a, cfg=None):
    """Rank stability under squaring, decided three equivalent ways."""
    cfg = resolve(cfg)
    a = require_square(a)
    fa = factor(a, cfg)
    fa2 = factor(fa.unit @ fa.unit, cfg)
    res_kernel = equality_residual(fa2.kernel, fa.kernel)
    res_range = equality_residual(fa2.range, fa.range)
    rank_a, rank_a2 = fa.rank, fa2.rank
    tol = cfg.subspace_tol
    return GroupInvertibleReport(
        kernel_stable=res_kernel <= tol,
        range_stable=res_range <= tol,
        rank_stable=rank_a2 == rank_a,
        residuals={
            "kernel_stable": res_kernel,
            "range_stable": res_range,
            "rank": float(rank_a),
            "rank_squared": float(rank_a2),
        },
    )


def product_range_identity(a, b, cfg=None):
    """Does R(AB) ⊆ R(B) entail R(AB) = R(A) ∩ R(B) for this pair?

    Both sides are reported; combine with group_invertible_check(a) to test
    the entailment under kernel stability of ``a``.
    """
    cfg = resolve(cfg)
    a, b = require_pair(a, b)
    fa, fb = factor(a, cfg), factor(b, cfg)
    r_ab = range_basis(fa.unit @ fb.unit, cfg)
    res_hyp = inclusion_residual(r_ab, fb.range)
    res_conc = equality_residual(r_ab, intersect(fa.range, fb.range, cfg))
    tol = cfg.subspace_tol
    return RangeIdentityReport(
        hypothesis=res_hyp <= tol,
        conclusion=res_conc <= tol,
        residuals={"hypothesis": res_hyp, "conclusion": res_conc},
    )


def johnson_vinoth_check(a, b, cfg=None):
    """Hypotheses R(B) ⊆ R(A), N(B) ⊆ N(A), and whether AB is hypo-EP."""
    cfg = resolve(cfg)
    fa, fb, fab = _factored_pair(a, b, cfg)
    res_range = inclusion_residual(fb.range, fa.range)
    res_kernel = inclusion_residual(fb.kernel, fa.kernel)
    tol = cfg.subspace_tol
    return JohnsonVinothReport(
        hyp_range=res_range <= tol,
        hyp_kernel=res_kernel <= tol,
        ab_hypo_ep=_hypo_ep(_projector_commutator(fab), cfg)[0],
        residuals={"hyp_range": res_range, "hyp_kernel": res_kernel},
    )


def power_ep(a, n, cfg=None):
    """EP flags for a, a^2, ..., a^n, decided power by power."""
    cfg = resolve(cfg)
    a = require_square(a)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InputError(f"power count must be a positive integer, got {n!r}")
    f = factor(a, cfg)
    flags = [_ep(f, cfg)[0]]
    power = f.unit
    for _ in range(int(n) - 1):
        power = power @ f.unit
        flags.append(_ep(factor(power, cfg), cfg)[0])
    return flags
