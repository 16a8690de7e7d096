"""Decision procedures about products of EP matrices and matrix powers.

Every procedure returns residuals alongside booleans so a fuzz failure can
be triaged as numerical (residual near a threshold) or mathematical.
Hypotheses are checked, never assumed; procedures with an EP precondition
raise InapplicableError instead of returning a silent False.  The pair
procedures read one memoized :class:`~eplab.subspaces.FactoredPair`, so a
chain of them on one pair factors A, B and AB once.
"""

import numpy as np

from .config import DEFAULT_TOLERANCES, Record, gate
from .errors import InapplicableError, InputError
from .kernel import _psd, require_square
from .subspaces import (
    _factor,
    _inclusion,
    equality_residual,
    factor_pair,
    intersect,
    range_basis,  # not called here; bench/tests read products.range_basis
)


class ProductReport(Record):
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


class GroupInvertibleReport(Record):
    """The three equivalent faces of rank stability under squaring."""

    kernel_stable: bool  # N(A^2) = N(A)
    range_stable: bool   # R(A^2) = R(A)
    rank_stable: bool    # rank A^2 = rank A
    residuals: dict


class RangeIdentityReport(Record):
    hypothesis: bool   # R(AB) ⊆ R(B)
    conclusion: bool   # R(AB) = R(A) ∩ R(B)
    residuals: dict


class JohnsonVinothReport(Record):
    hyp_range: bool    # R(B) ⊆ R(A)
    hyp_kernel: bool   # N(B) ⊆ N(A)
    ab_hypo_ep: bool
    residuals: dict


def _cond_i(pair):
    """R(AB) ⊆ R(B): Hartwig–Katz's cond_i, the range identity's hypothesis."""
    return _inclusion(pair.fab, "range", pair.fb, "range")


def _range_identity(pair):
    """R(AB) ⊆ R(B) and R(AB) = R(A) ∩ R(B) for the pair."""
    fa, fb, fab, cfg = pair.fa, pair.fb, pair.fab, pair.cfg
    residuals = {
        "hypothesis": pair.fact(_cond_i),
        "conclusion": equality_residual(fab.range, intersect(fa.range, fb.range, cfg)),
    }
    return RangeIdentityReport(**gate(cfg, **residuals), residuals=residuals)


def _hartwig_katz(pair):
    """The residuals of the Hartwig–Katz theorem's facts, which its fuzz
    suite reads alone: cond_i, cond_ii and ab_ep."""
    return {
        "cond_i": pair.fact(_cond_i),
        "cond_ii": _inclusion(pair.fa, "kernel", pair.fab, "kernel"),
        "ab_ep": pair.fab.ep_residual,
    }


def _product_report(pair):
    """Product facts for the pair: the Hartwig–Katz residuals, the operands'
    EP residuals and Djordjević's identities, which both intersect: the range
    identity's conclusion, and N(AB) = N(A) + N(B) by complements, as
    R((AB)*) = R(B*) ∩ R(A*) (R((AB)*) ⊆ R(B*) by construction)."""
    fa, fb, fab, cfg = pair.fa, pair.fb, pair.fab, pair.cfg
    theorem = pair.fact(_hartwig_katz)
    residuals = {
        "cond_i": theorem["cond_i"],
        "cond_ii": theorem["cond_ii"],
        "a_ep": fa.ep_residual,
        "b_ep": fb.ep_residual,
        "ab_ep": theorem["ab_ep"],
        "range_identity": pair.fact(_range_identity).residuals["conclusion"],
        "kernel_identity": equality_residual(
            fab.corange, intersect(fb.corange, fa.corange, cfg)
        ),
    }
    return ProductReport(**gate(cfg, **residuals), residuals=residuals)


def hartwig_katz(a, b, cfg=DEFAULT_TOLERANCES):
    """All range/kernel product facts, with no hypothesis enforcement."""
    return factor_pair(a, b, cfg).report(_product_report)


def _require_ep(report):
    """``report`` itself when both operands are EP; raises otherwise."""
    if not (report.a_ep and report.b_ep):
        raise InapplicableError(
            f"both operands must be EP (residuals {report.residuals['a_ep']:.3e}, "
            f"{report.residuals['b_ep']:.3e})"
        )
    return report


def djordjevic_check(a, b, cfg=DEFAULT_TOLERANCES):
    """Product facts for a pair that must be EP; raises otherwise.

    For EP operands, the product is EP exactly when both the range
    intersection identity and the kernel sum identity hold.
    """
    return _require_ep(hartwig_katz(a, b, cfg))


def group_invertible_check(a, cfg=DEFAULT_TOLERANCES):
    """Rank stability under squaring, decided three equivalent ways; the
    square of A's unit-scaled form has its rank decided against 1, so a
    nilpotent A ≠ 0 is not rank stable."""
    fa = _factor(require_square(a), cfg)
    fa2 = _factor(fa.unit @ fa.unit, cfg, 1.0)
    stable = fa2.rank == fa.rank  # else unequal, as in equality_residual
    residuals = {
        "kernel_stable": _inclusion(fa2, "kernel", fa, "kernel") if stable else 1.0,
        "range_stable": _inclusion(fa2, "range", fa, "range") if stable else 1.0,
    }
    return GroupInvertibleReport(
        **gate(cfg, **residuals),
        rank_stable=stable,
        residuals={
            **residuals, "rank": float(fa.rank), "rank_squared": float(fa2.rank)
        },
    )


def product_range_identity(a, b, cfg=DEFAULT_TOLERANCES):
    """Does R(AB) ⊆ R(B) entail R(AB) = R(A) ∩ R(B) for this pair?

    Both sides are reported; combine with group_invertible_check(a) to test
    the entailment under kernel stability of ``a``.
    """
    return factor_pair(a, b, cfg).report(_range_identity)


def _johnson_vinoth(pair):
    """Johnson-Vinoth facts for the pair."""
    fa, fb = pair.fa, pair.fb
    residuals = {
        "hyp_range": _inclusion(fb, "range", fa, "range"),
        "hyp_kernel": _inclusion(fb, "kernel", fa, "kernel"),
    }
    return JohnsonVinothReport(
        **gate(pair.cfg, **residuals),
        ab_hypo_ep=_psd(pair.fab.projector_commutator, pair.cfg.psd_tol),
        residuals=residuals,
    )


def johnson_vinoth_check(a, b, cfg=DEFAULT_TOLERANCES):
    """Hypotheses R(B) ⊆ R(A), N(B) ⊆ N(A), and whether AB is hypo-EP."""
    return factor_pair(a, b, cfg).report(_johnson_vinoth)


def power_ep(a, n, cfg=DEFAULT_TOLERANCES):
    """EP flags for a, a^2, ..., a^n, gated as ``ep_power_1`` ... ``ep_power_n``;
    each power of A's unit-scaled form has its rank decided against 1, so a
    power that vanishes is the zero matrix, which is EP."""
    f = _factor(require_square(a), cfg)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InputError(f"power count must be a positive integer, got {n!r}")
    residuals = [f.ep_residual]
    power = f.unit
    for _ in range(int(n) - 1):
        power = power @ f.unit
        residuals.append(_factor(power, cfg, 1.0).ep_residual)
    powers = gate(cfg, **{f"ep_power_{k}": r for k, r in enumerate(residuals, 1)})
    return list(powers.values())
