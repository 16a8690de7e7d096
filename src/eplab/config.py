"""Tolerance configuration threaded through every numerical decision, and
the one gate that compares a residual with its tolerance."""

import math
from dataclasses import dataclass, fields

from .errors import InapplicableError, InputError

# Gram-matrix defect allowed of a basis handed to Subspace
ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class ToleranceConfig:
    """Thresholds used by rank decisions, subspace tests, and PSD checks.

    rank_multiplier scales the singular-value cutoff
    ``rank_multiplier * eps * max(rows, cols) * sigma_max``; subspace_tol
    bounds inclusion/equality residuals (sines of principal angles);
    psd_tol bounds how negative an eigenvalue may be before a Hermitian
    matrix is declared indefinite.  Each must be finite and positive.
    """

    rank_multiplier: float = 50.0
    subspace_tol: float = 1e-8
    psd_tol: float = 1e-10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0.0):
                raise InputError(
                    f"{f.name} must be finite and strictly positive, got {value!r}"
                )


DEFAULT_TOLERANCES = ToleranceConfig()


def within(residual, bound, name="residual"):
    """True iff ``residual <= bound``: the one tolerance gate.

    A NaN or infinite residual (an overflow, or inf - inf) raises
    InapplicableError naming it, instead of silently passing or failing.
    """
    if not math.isfinite(residual):
        raise InapplicableError(f"{name} is not finite ({residual!r})")
    return residual <= bound


def within_each(residuals, bound):
    """``within`` applied to each value of a dict of named residuals: the
    flags, under the residuals' own keys."""
    return {key: within(r, bound, key) for key, r in residuals.items()}
