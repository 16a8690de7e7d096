"""Subspace algebra of C^n: ranges, kernels, lattice operations, angles.

Subspaces are carried as matrices with orthonormal columns, each with an
orthonormal basis of its orthogonal complement.  A matrix's range,
corange, kernel, cokernel and pseudoinverse all come from one
:class:`Factorization`, its full SVD under the shared rank decision; a
pair's product is factored from its operands' factors and the SVD of
their r_a×r_b core, and decided against its unit scale.
Subspaces are compared through one cross matrix, s2's complement* Q1,
whose singular values are the sines of the principal angles of s1 against
s2 (Björck-Golub).  Inclusion reads the largest sine, never dimension
comparison, so it stays meaningful when two spaces share a dimension but
differ.  Equality reads one cross matrix: between spaces of equal
dimension the sines are symmetric, and spaces of unequal dimension are
unequal with no SVD.  Intersection and sum take the principal vectors
whose sines are within ``subspace_tol`` and carry their complement.
:class:`Subspace` views serve callers and the lattice operations; eplab's
decisions read cross matrices from factor blocks (:meth:`Factorization._block`).
"""

import math

import numpy as np

from .config import DEFAULT_TOLERANCES, ORTHONORMALITY_TOL, Record, ToleranceConfig, _lazy
from .config import _store, gate, within
from .errors import DimensionMismatchError, InapplicableError, InputError, TrivialSubspaceError
from .kernel import (
    RankDecision, as_matrix, decide_rank, rank_threshold, require_pair,
)


class Subspace(Record, eq=False):
    """A linear subspace of C^n, represented by an orthonormal basis.

    ``basis`` has shape ``(ambient_dim, dim)``; a zero-column basis is the
    zero subspace.  A caller's basis is validated here (InputError), and an
    orthonormal basis of its orthogonal complement, ``complement``, is
    completed by one full SVD on first use.  A view eplab builds (columns of
    a unitary factor) carries the other columns and is not re-checked.
    """

    ambient_dim: int
    basis: np.ndarray
    _view = _lazy(lambda self: False)  # True on a view eplab builds: see _spanned

    def __post_init__(self):
        if self._view:
            return
        basis = as_matrix(self.basis)
        _store(self, "basis", basis)
        n, k = basis.shape
        if n != self.ambient_dim:
            raise InputError(
                f"basis has {n} rows but ambient dimension is {self.ambient_dim}"
            )
        if k > n:
            raise InputError(f"basis has more columns ({k}) than ambient rows ({n})")
        if not within(_gram_defect(basis), ORTHONORMALITY_TOL, "Gram defect"):
            raise InputError("basis columns are not orthonormal")

    @property
    def dim(self):
        return self.basis.shape[1]

    @_lazy
    def complement(self):
        return np.linalg.svd(self.basis)[0][:, self.dim :]

    @staticmethod
    def trivial(ambient_dim):
        zero = np.zeros((ambient_dim, 0), dtype=np.complex128)
        return _spanned(zero, np.eye(ambient_dim, dtype=np.complex128))


def _gram_defect(q):
    """‖q*q − I‖_F: zero exactly when the columns of ``q`` are orthonormal."""
    return float(np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])))


def _spanned(basis, complement):
    """A view: the span of complex128 ``basis``, carrying ``complement`` (the
    other columns of a unitary), marked before ``__post_init__`` trusts it."""
    s = Subspace.__new__(Subspace)
    _store(s, "complement", complement)
    _store(s, "_view", True)
    s.__init__(basis.shape[0], basis)
    return s


class Factorization(Record, eq=False):
    """The matrix ``m`` (None for a pair's product, which is never formed),
    its full SVD ``m = u diag(s) vh`` and its rank decision.

    The first ``rank`` columns of ``u`` span the range R(m), the rest the
    cokernel N(m*); the first ``rank`` rows of ``vh`` span the corange
    R(m*), the rest the kernel N(m).  Decisions read these blocks
    (:meth:`_block`); each view, for callers, is built on first use and
    carries the other columns as its complement.  Two cross matrices decide
    the posinormal family: N(m) ⊆ N(m*) is R(m) ⊆ R(m*) in C^n, and so is
    R(m) = R(m*), both spaces having dimension rank m: EP reads the
    posinormal one.  A matrix at the range's edge (:func:`factor`) keeps its
    2¹⁰²² multiple's ``m``, ``u``, ``s`` and ``vh``, with ``decision`` in its units.
    """

    m: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    decision: RankDecision

    @property
    def rank(self):
        return self.decision.rank

    _v = _lazy(lambda self: self.vh.conj().T)  # V, formed once

    def _block(self, space, complement=False):
        """The orthonormal basis of ``space`` ("range", "cokernel", "corange"
        or "kernel"), columns of u or V = vh*; with ``complement``, the
        adjoint of its orthogonal complement's, rows of u* or vh."""
        first = (space in ("range", "corange")) != complement
        part = slice(None, self.rank) if first else slice(self.rank, None)
        if space in ("range", "cokernel"):
            return self.u[:, part].conj().T if complement else self.u[:, part]
        return self.vh[part] if complement else self._v[:, part]

    range = _lazy(lambda f: _spanned(f._block("range"), f._block("cokernel")))
    cokernel = _lazy(lambda f: _spanned(f._block("cokernel"), f._block("range")))
    corange = _lazy(lambda f: _spanned(f._block("corange"), f._block("kernel")))
    kernel = _lazy(lambda f: _spanned(f._block("kernel"), f._block("corange")))

    @_lazy
    def posinormal_residual(self):
        """Residual of R(m) inside R(m*), computed once."""
        return _inclusion(self, "range", self, "corange")

    @_lazy
    def coposinormal_residual(self):
        """Residual of R(m*) inside R(m), computed once."""
        return _inclusion(self, "corange", self, "range")

    ep_residual = _lazy(lambda f: f.posinormal_residual)  # R(m) = R(m*): see above

    @_lazy
    def projector_commutator(self):
        """m⁺m − mm⁺ as V_rV_r* − U_rU_r* from the factor blocks: Hermitian to
        roundoff at any condition, of eigenvalues 0 and ±sin of the principal
        angles of R(m) and R(m*); zero iff m is EP, PSD iff m is hypo-EP."""
        v, u = self._block("corange"), self._block("range")
        return v @ v.conj().T - u @ u.conj().T

    @_lazy
    def unit(self):
        """``m`` divided by its largest singular value (a zero matrix as is),
        so that products and powers of it neither overflow nor underflow."""
        if self.m is None:
            raise InapplicableError("a pair's product is never formed: it has no unit form")
        return self.m / self.s[0] if self.s.size and self.s[0] else self.m

    @_lazy
    def pinv(self):
        inverse = self._block("corange") / self.decision.singular_values[: self.rank]
        return inverse @ self._block("range").conj().T


def factor(m, cfg=DEFAULT_TOLERANCES, scale=None):
    """The :class:`Factorization` of ``m``: the one full SVD every range,
    kernel and pseudoinverse of ``m`` is read from.

    Its rank is decided against ``m``'s largest singular value or, when
    ``scale`` is given, against that scale.  A product or power of
    unit-scaled factors passes 1.0: its rounding error is of order eps
    times the product of the factors' norms (Higham, §3.5), so a product
    it cannot tell from 0 is decided as 0.  The trade-off: a product with
    ‖AB‖₂ at or below ``rank_multiplier * eps * n * ‖A‖₂‖B‖₂`` (about
    1e-13·‖A‖‖B‖ at n = 8) has rank 0.  With a scale, a matrix whose
    Frobenius norm is at or below the threshold has rank 0 for certain
    (every singular value is at most that norm), so it is not factored:
    ``u`` and ``vh`` are identities and ``s`` is zeros.  Where the
    threshold at σ₁, or at a larger scale, would be subnormal, a singular
    value the decision counts could lose bits: the exact 2¹⁰²² multiple of
    ``m`` is factored against 2¹⁰²² times the scale, and its decision is
    put in ``m``'s units.  ``m`` is validated here (``as_matrix``).
    """
    return _factor(as_matrix(m), cfg, scale)


def _factor(m, cfg, scale=None):
    """:func:`factor` of a finite 2-D complex128 ``m`` eplab formed or checked."""
    if scale is None or np.linalg.norm(m) > rank_threshold(scale, m.shape, cfg):
        u, s, vh = np.linalg.svd(m, full_matrices=True)
        if s.size and not math.isfinite(s[0]):
            raise InapplicableError(f"largest singular value is not finite ({s[0]})")
    else:
        u, vh = (np.eye(k, dtype=np.complex128) for k in m.shape)
        s = np.zeros(min(m.shape))
    top = max(float(s[0]) if s.size else 0.0, scale or 0.0)  # σ₁, or a larger scale
    if 0.0 < top and rank_threshold(top, m.shape, cfg) < 2.0**-1022:
        up = _factor(m * 2.0**1022, cfg, scale and scale * 2.0**1022)  # both exact
        rank, s, threshold = up.decision._values()
        return up._replace(decision=RankDecision(rank, s / 2.0**1022, threshold / 2.0**1022))
    decision = decide_rank(s, m.shape, cfg, top if scale is None else scale)
    return Factorization(m, u, s, vh, decision)


def _cond(m):
    """σ₁/σₙ of ``m`` by one singular-value SVD; inf when σₙ = 0, as numpy's cond."""
    s = np.linalg.svd(m, compute_uv=False)
    return s[0] / s[-1] if s[-1] else math.inf


def numerical_rank(m, cfg=DEFAULT_TOLERANCES):
    """``factor(m, cfg).decision``: the rank decision of ``m``'s one
    factorization, which runs the full SVD, with m×m and n×n unitary
    factors."""
    return factor(m, cfg).decision


def _factor_product(fa, fb, cfg):
    """The :class:`Factorization` of ``fa.unit @ fb.unit``, never formed (its
    ``m`` is None), decided against 1 from the operands' own factors and one
    SVD of the r_a×r_b core.

    With A = Ua_r Sa Va_r* and B = Ub_r Sb Vb_r* (unit-scaled, truncated at
    their ranks) the product is Ua_r C Vb_r* for C = Sa (Va_r* Ub_r) Sb.  If
    C = P S Q*, then u = [Ua_r P | Ua⊥] and vh = [Q* Vb_r* ; Vb⊥*] are
    unitary, s is S padded with zeros, and R(AB) ⊆ R(A), N(B) ⊆ N(AB) hold
    by construction.  No SVD is made when either rank is 0.
    """
    ra, rb = fa.rank, fb.rank
    u, vh = fa.u.copy(), fb.vh.copy()
    s = np.zeros(len(u))
    if ra and rb:
        core = (fa.s[:ra, None] / fa.s[0]) * (fa.vh[:ra] @ fb.u[:, :rb])
        p, s_core, qh = np.linalg.svd(core * (fb.s[:rb] / fb.s[0]))
        np.matmul(fa.u[:, :ra], p, out=u[:, :ra])
        np.matmul(qh, fb.vh[:rb], out=vh[:rb])
        s[: s_core.size] = s_core
    return Factorization(None, u, s, vh, decide_rank(s, (len(u), len(vh)), cfg, 1.0))


class FactoredPair(Record, eq=False):
    """A validated square pair (A, B) under one tolerance config, with
    read-only copies of the operands.  The factorizations ``fa``, ``fb`` and
    ``fab``, and each fact or report built from them, are made on first use
    and kept.  ``fab`` factors the product of the unit-scaled operands (AB
    up to a positive scalar, so every range, kernel and EP fact of AB),
    never forming it (``fab.m`` is None), from ``fa`` and ``fb`` and the SVD
    of their r_a×r_b core, and decides its rank against 1, its unit scale.
    """

    a: np.ndarray
    b: np.ndarray
    cfg: ToleranceConfig

    _reports = _lazy(lambda self: {})  # build -> its kept fact
    fa = _lazy(lambda self: _factor(self.a, self.cfg))
    fb = _lazy(lambda self: _factor(self.b, self.cfg))
    fab = _lazy(lambda self: _factor_product(self.fa, self.fb, self.cfg))

    def fact(self, build):
        """``build(self)``, built on the first request and kept; the kept
        value itself, which callers read and do not change."""
        if build not in self._reports:
            self._reports[build] = build(self)
        return self._reports[build]

    def report(self, build):
        """The :meth:`fact` ``build``, copied so that its ``residuals`` dict
        is the caller's own."""
        built = self.fact(build)
        return built._replace(residuals=dict(built.residuals))


_last_pair = (None, None)  # (key, pair) of the last pair factor_pair built


def factor_pair(a, b, cfg=DEFAULT_TOLERANCES):
    """The :class:`FactoredPair` of (a, b) under ``cfg``.

    The last pair built is kept and returned again while both operands are
    byte-equal to its own and ``cfg`` is equal, so a chain of pair
    decisions on one pair factors A, B and AB once.  It is replaced in one
    assignment, so concurrent callers can at worst miss it.
    """
    global _last_pair
    a, b = require_pair(a, b)
    key = (a.shape, a.tobytes(), b.tobytes(), cfg)
    last_key, pair = _last_pair
    if last_key != key:
        # views of the immutable key bytes: operands no caller can write to
        data = (np.frombuffer(m, np.complex128).reshape(a.shape) for m in key[1:3])
        pair = FactoredPair(*data, cfg)
        _last_pair = (key, pair)
    return pair


class BouldinComponents(Record):
    """Dimensions entering the deflated-kernel angle computation."""

    dim_kernel_range_intersection: int
    dim_deflated_kernel: int


class AngleReport(Record):
    cos_min_angle: float
    angle_radians: float
    bouldin_components: BouldinComponents = None


def projector(s, cfg=DEFAULT_TOLERANCES):
    """Orthogonal projector onto ``s`` as a dense matrix (Q Q*)."""
    if not gate(cfg, gram_defect=_gram_defect(s.basis))["gram_defect"]:
        raise InputError("subspace basis is not orthonormal within tolerance")
    return s.basis @ s.basis.conj().T


def range_basis(m, cfg=DEFAULT_TOLERANCES):
    """Orthonormal basis of the column space; dimension = numerical rank."""
    return factor(m, cfg).range


def kernel_basis(m, cfg=DEFAULT_TOLERANCES):
    """Orthonormal basis of the null space; dimension = cols - rank."""
    return factor(m, cfg).kernel


def pinv(m, cfg=DEFAULT_TOLERANCES):
    """Moore-Penrose pseudoinverse with the shared rank cutoff.

    Singular values at or below the rank threshold are zeroed, so the
    pseudoinverse of the zero matrix is the zero matrix of transposed shape.
    """
    return factor(m, cfg).pinv


def _check_same_ambient(s1, s2):
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )


def _sigma1(cross):
    """σ₁ of a cross matrix, 0.0 when it is empty: of complement* Q, the
    largest principal-angle sine of R(Q) against complement⊥
    (Knyazev-Argentati); of Q1* Q2, the cosine of the minimal angle."""
    return float(np.linalg.svd(cross, compute_uv=False)[0]) if cross.size else 0.0


def _inclusion(f1, space1, f2, space2):
    """:func:`inclusion_residual` of ``f1``'s ``space1`` in ``f2``'s
    ``space2``, read from the factors' blocks with no view."""
    return _sigma1(f2._block(space2, complement=True) @ f1._block(space1))


def inclusion_residual(s1, s2):
    """sin of the largest principal angle of s1 against s2: :func:`_sigma1` of
    s2's complement* Q1, 0 when s1 = {0} or s2 is the whole space."""
    _check_same_ambient(s1, s2)
    return _sigma1(s2.complement.conj().T @ s1.basis)


def includes(s1, s2, cfg=DEFAULT_TOLERANCES):
    """True iff s1 is contained in s2 within ``subspace_tol``."""
    return gate(cfg, inclusion_residual=inclusion_residual(s1, s2))["inclusion_residual"]


def equality_residual(s1, s2):
    """Residual of s1 = s2: 1.0, with no SVD, when the dimensions differ (a
    unit vector of the larger space is orthogonal to the smaller one), else
    :func:`inclusion_residual` of s1 in s2, one cross matrix: between
    subspaces of equal dimension the principal-angle sines are symmetric."""
    _check_same_ambient(s1, s2)
    return inclusion_residual(s1, s2) if s1.dim == s2.dim else 1.0


def equals(s1, s2, cfg=DEFAULT_TOLERANCES):
    return gate(cfg, equality_residual=equality_residual(s1, s2))["equality_residual"]


def _orth(s):
    """The orthogonal complement of ``s``, carrying ``s`` as its complement."""
    return _spanned(s.complement, s.basis)


def intersect(s1, s2, cfg=DEFAULT_TOLERANCES):
    """s1 ∩ s2: the principal vectors of s1 at angle zero from s2
    (Björck-Golub), carrying the other principal vectors and s1's
    complement as its complement.

    They are Q1 V for the right singular vectors V of the one cross matrix
    s2.complement* Q1 whose sines are within ``subspace_tol``, the zero of
    :func:`includes`: by Wedin's sin-θ bound a smaller sine cannot be told
    from 0.  s1 itself, with no SVD, when s1 = {0}, s2 is C^n or the cross
    matrix's Frobenius norm, which bounds every sine, is that small.
    """
    _check_same_ambient(s1, s2)
    if s1.dim == 0 or s2.dim == s2.ambient_dim:
        return s1
    cross = s2.complement.conj().T @ s1.basis
    if np.linalg.norm(cross) <= cfg.subspace_tol:
        return s1
    _, sines, vh = np.linalg.svd(cross)
    k = int(np.count_nonzero(sines > cfg.subspace_tol))
    q = s1.basis @ vh.conj().T  # orthonormal: V is unitary
    return _spanned(q[:, k:], np.hstack([q[:, :k], s1.complement]))


def subspace_sum(s1, s2, cfg=DEFAULT_TOLERANCES):
    """s1 + s2, by De Morgan: the complement of s2⊥ ∩ s1⊥, one cross matrix
    Q1* s2.complement (see :func:`intersect`); it carries its complement."""
    return _orth(intersect(_orth(s2), _orth(s1), cfg))


def _angle(q1, q2, components=None):
    """Minimal angle of R(q1), R(q2): cos σ₁(q1* q2) in [0, 1], π/2 when either is {0}."""
    cos = min(1.0, max(0.0, _sigma1(q1.conj().T @ q2)))
    return AngleReport(cos, math.acos(cos), components)


def minimal_angle(s1, s2):
    """Minimal angle between two nontrivial subspaces: :func:`_angle` of their bases."""
    _check_same_ambient(s1, s2)
    if s1.dim == 0 or s2.dim == 0:
        raise TrivialSubspaceError("minimal angle requires two nontrivial subspaces")
    return _angle(s1.basis, s2.basis)


def bouldin_angle(s, t, cfg=DEFAULT_TOLERANCES):
    """Angle controlling closedness of the product range of ``s @ t``: the
    minimal angle between R(t) and W = N(s) ⊖ V, V = N(s) ∩ R(t), read from
    one :func:`intersect` (W leads its complement) on the memoized
    :func:`factor_pair`.  When W or R(t) is {0} no direction can degenerate,
    and the report reads cos 0 / angle π/2 instead of erroring.
    """
    pair = factor_pair(s, t, cfg)
    ns, rt = pair.fa.kernel, pair.fb.range
    v = intersect(ns, rt, cfg)
    w = v.complement[:, : ns.dim - v.dim]  # N(s) ⊖ V, in intersect's layout
    return _angle(rt.basis, w, BouldinComponents(v.dim, w.shape[1]))
