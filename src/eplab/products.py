"""Decision procedures about products of EP matrices and matrix powers.

Every procedure returns residuals alongside booleans so a fuzz failure can
be triaged as numerical (residual near a threshold) or mathematical.
Hypotheses are checked, never assumed; procedures with an EP precondition
raise InapplicableError instead of returning a silent False.
"""

from dataclasses import dataclass

import numpy as np

from .config import resolve
from .errors import DimensionMismatchError, InapplicableError, InputError
from .kernel import require_square
from .predicates import _ep, classify, hypo_ep_check
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


def _pair(a, b):
    a = require_square(a, "first operand")
    b = require_square(b, "second operand")
    if a.shape != b.shape:
        raise DimensionMismatchError(f"size mismatch: {a.shape} vs {b.shape}")
    return a, b


def _unit(m, f):
    """``m`` divided by its largest singular value (a zero matrix as is), so
    that forming products or powers neither overflows nor underflows."""
    return m / f.s[0] if f.s.size and f.s[0] else m


def _product_report(a, fa, b, fb, cfg):
    """Product facts for (a, b), given their factorizations fa and fb."""
    fab = factor(_unit(a, fa) @ _unit(b, fb), cfg)
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
    a, b = _pair(a, b)
    return _product_report(a, factor(a, cfg), b, factor(b, cfg), cfg)


def djordjevic_check(a, b, cfg=None):
    """Product facts for a pair that must be EP; raises otherwise.

    For EP operands, the product is EP exactly when both the range
    intersection identity and the kernel sum identity hold.
    """
    cfg = resolve(cfg)
    a, b = _pair(a, b)
    fa, fb = factor(a, cfg), factor(b, cfg)
    a_ep, res_a = _ep(fa, cfg)
    b_ep, res_b = _ep(fb, cfg)
    if not (a_ep and b_ep):
        raise InapplicableError(
            f"both operands must be EP (residuals {res_a:.3e}, {res_b:.3e})"
        )
    return _product_report(a, fa, b, fb, cfg)


def group_invertible_check(a, cfg=None):
    """Rank stability under squaring, decided three equivalent ways."""
    cfg = resolve(cfg)
    a = require_square(a)
    fa = factor(a, cfg)
    unit = _unit(a, fa)
    fa2 = factor(unit @ unit, cfg)
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
    a, b = _pair(a, b)
    r_ab = range_basis(a @ b, cfg)
    r_b = range_basis(b, cfg)
    res_hyp = inclusion_residual(r_ab, r_b)
    res_conc = equality_residual(r_ab, intersect(range_basis(a, cfg), r_b, cfg))
    tol = cfg.subspace_tol
    return RangeIdentityReport(
        hypothesis=res_hyp <= tol,
        conclusion=res_conc <= tol,
        residuals={"hypothesis": res_hyp, "conclusion": res_conc},
    )


def johnson_vinoth_check(a, b, cfg=None):
    """Hypotheses R(B) ⊆ R(A), N(B) ⊆ N(A), and whether AB is hypo-EP."""
    cfg = resolve(cfg)
    a, b = _pair(a, b)
    fa, fb = factor(a, cfg), factor(b, cfg)
    res_range = inclusion_residual(fb.range, fa.range)
    res_kernel = inclusion_residual(fb.kernel, fa.kernel)
    ab_hypo = hypo_ep_check(a @ b, cfg)
    tol = cfg.subspace_tol
    return JohnsonVinothReport(
        hyp_range=res_range <= tol,
        hyp_kernel=res_kernel <= tol,
        ab_hypo_ep=bool(ab_hypo),
        residuals={"hyp_range": res_range, "hyp_kernel": res_kernel},
    )


def power_ep(a, n, cfg=None):
    """EP flags for a, a^2, ..., a^n, classified power by power."""
    cfg = resolve(cfg)
    a = require_square(a)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InputError(f"power count must be a positive integer, got {n!r}")
    flags = []
    power = a
    for _ in range(int(n)):
        flags.append(bool(classify(power, cfg).ep))
        power = power @ a
    return flags
