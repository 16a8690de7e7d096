"""Block decomposition of a pair (A, B) relative to C^n = N(A)^perp + N(A).

The unitary [Q | K] comes from the right singular vectors of A: Q spans
N(A)^perp = R(A*), K spans N(A).  A and B are compressed to

    A ~ [[A', 0], [0, 0]]      B ~ [[B', X], [Y, Z]]

with A' = Q*AQ, B' = Q*BQ, X = Q*BK, Y = K*BQ, Z = K*BK.  A and B are
taken unit-scaled, A/‖A‖₂ and B/‖B‖₂, so every block and residual is of
order 1 whatever the pair's scale: roundoff in them is of order eps
(Higham §3.5), and each gate is ``subspace_tol`` itself.  Decomposition
never fails on "bad" inputs; residuals let callers decide applicability.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig, within
from .errors import InapplicableError
from .subspaces import Factorization, _factor, _lazy, factor_pair, inclusion_residual


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Compression of (A, B) to the splitting N(A)^perp + N(A).

    ``basis_u`` is the unitary U = [Q | K]; the blocks are slices of U*AU
    and U*BU for the unit-scaled A/‖A‖₂ and B/‖B‖₂, each formed with one
    product.  ``residuals`` carries ``reducing`` = ||K*AQ|| + ||Q*AK|| +
    ||K*AK|| (zero exactly when N(A) reduces A; in units of ‖A‖₂),
    ``commutation`` = ||AB - BA|| and ``ya`` = ||Y A'|| (both in units of
    ‖A‖₂‖B‖₂).  ``fb`` is B's factorization (not the pair, which keeps
    the decomposition) and ``cfg`` the config the pair was decomposed
    under; the block checks read both from here.
    ``fbp`` and ``fz`` factor B' and Z on first use and keep them, each
    decided against 1, the norm of the unit-scaled B it is a block of: a
    roundoff block has rank 0.
    """

    basis_u: np.ndarray
    block_a_prime: np.ndarray
    block_b_prime: np.ndarray
    block_x: np.ndarray
    block_y: np.ndarray
    block_z: np.ndarray
    residuals: dict
    fb: Factorization
    cfg: ToleranceConfig

    fbp = _lazy(lambda self: _factor(self.block_b_prime, self.cfg, 1.0))
    fz = _lazy(lambda self: _factor(self.block_z, self.cfg, 1.0))

    @property
    def core_dim(self):
        return self.block_a_prime.shape[0]

    @property
    def kernel_dim(self):
        return self.block_z.shape[0]

    def b_compressed(self):
        """The full compression [[B', X], [Y, Z]] (unitarily equivalent to B)."""
        top = np.hstack([self.block_b_prime, self.block_x])
        bottom = np.hstack([self.block_y, self.block_z])
        return np.vstack([top, bottom])


@dataclass(frozen=True)
class InclusionReport:
    """Kernel inclusions of the compressed blocks.

    ``kernel_z_included``: N(Z) contained in N(Z*).
    ``kernel_bprime_included``: N(B') contained in N(B'*).
    The ``*_equal`` fields hold the equality versions, populated only when
    the compressed operator is also coposinormal, else None.
    """

    kernel_z_included: bool
    kernel_z_residual: float
    kernel_bprime_included: bool
    kernel_bprime_residual: float
    kernel_z_equal: Optional[bool] = None
    kernel_z_equal_residual: Optional[float] = None
    kernel_bprime_equal: Optional[bool] = None
    kernel_bprime_equal_residual: Optional[float] = None


@dataclass(frozen=True)
class PosinormalProductConditions:
    """Sufficient conditions for a commuting product to stay posinormal
    with closed range: B' posinormal, Z coposinormal; y_zero records whether
    N(A) reduces B, y_norm = ||Y|| in units of ‖B‖₂."""

    b_prime_posinormal: bool
    z_coposinormal: bool
    y_zero: bool
    y_norm: float


def _decompose(pair):
    f = pair.fa
    a, b = f.unit, pair.fb.unit
    r, basis_u = f.rank, f.vh.conj().T
    ua, ub = f.vh @ a @ basis_u, f.vh @ b @ basis_u
    for m in (basis_u, ua, ub):  # the blocks are slices, shared by every copy
        m.setflags(write=False)
    a_prime, y = ua[:r, :r], ub[r:, :r]
    off_core = (ua[r:, :r], ua[:r, r:], ua[r:, r:])
    residuals = {
        "reducing": sum(float(np.linalg.norm(block)) for block in off_core),
        "commutation": float(np.linalg.norm(a @ b - b @ a)),
        "ya": float(np.linalg.norm(y @ a_prime)),
    }
    return BlockDecomposition(
        basis_u=basis_u,
        block_a_prime=a_prime,
        block_b_prime=ub[:r, :r],
        block_x=ub[:r, r:],
        block_y=y,
        block_z=ub[r:, r:],
        residuals=residuals,
        fb=pair.fb,
        cfg=pair.cfg,
    )


def decompose_pair(a, b, cfg=DEFAULT_TOLERANCES):
    """The :class:`BlockDecomposition` of (a, b), from A's and B's
    factorizations."""
    return factor_pair(a, b, cfg).report(_decompose)


def block_kernel_inclusions(dec):
    """Kernel inclusions implied by a commuting quasiposinormal pair.

    Raises InapplicableError when the recorded commutation or reducing
    residual shows the pair was not actually commuting / reducing, or is
    not finite.  Each bound is the decomposition's ``subspace_tol``: the
    residuals are those of the unit-scaled operands.  Past the gate, B maps
    R(A) = N(A)^perp into itself, so Y = 0 in C^n and N(Y), N(Y*) drop out.
    """
    tol = dec.cfg.subspace_tol
    if not within(dec.residuals["commutation"], tol, "commutation"):
        raise InapplicableError(
            f"operands do not commute (residual {dec.residuals['commutation']:.3e})"
        )
    if not within(dec.residuals["reducing"], tol, "reducing"):
        raise InapplicableError(
            f"kernel does not reduce the first operand "
            f"(residual {dec.residuals['reducing']:.3e})"
        )

    r_z, r_bp = (f.quasiposinormal_residual for f in (dec.fz, dec.fbp))

    z_equal = z_equal_res = bp_equal = bp_equal_res = None
    # the equality versions apply when the compressed B, unitarily similar
    # to B, is coposinormal: B's own factorization decides it
    if within(dec.fb.coposinormal_residual, tol, "block inclusion"):
        # equality residual = max of the two inclusion residuals, one of them known
        z_equal_res = max(r_z, inclusion_residual(dec.fz.cokernel, dec.fz.kernel))
        z_equal = within(z_equal_res, tol, "kernel_z_equal")
        bp_equal_res = max(r_bp, inclusion_residual(dec.fbp.cokernel, dec.fbp.kernel))
        bp_equal = within(bp_equal_res, tol, "kernel_bprime_equal")

    return InclusionReport(
        kernel_z_included=within(r_z, tol, "kernel_z"),
        kernel_z_residual=r_z,
        kernel_bprime_included=within(r_bp, tol, "kernel_bprime"),
        kernel_bprime_residual=r_bp,
        kernel_z_equal=z_equal,
        kernel_z_equal_residual=z_equal_res,
        kernel_bprime_equal=bp_equal,
        kernel_bprime_equal_residual=bp_equal_res,
    )


def posinormal_product_conditions(dec):
    y_norm = float(np.linalg.norm(dec.block_y))
    # an empty block's residuals are 0
    tol = dec.cfg.subspace_tol
    return PosinormalProductConditions(
        b_prime_posinormal=within(dec.fbp.posinormal_residual, tol, "block inclusion"),
        z_coposinormal=within(dec.fz.coposinormal_residual, tol, "block inclusion"),
        y_zero=within(y_norm, tol, "y_norm"),
        y_norm=y_norm,
    )


__all__ = [
    "BlockDecomposition",
    "InclusionReport",
    "PosinormalProductConditions",
    "decompose_pair",
    "block_kernel_inclusions",
    "posinormal_product_conditions",
]
