"""Numerical decisions checked against exact ranks of Gaussian-integer matrices.

Each fact below is a rank equality, so it is decided exactly from a
fraction-free (Bareiss) elimination over Python ints:

- EP:       R(M) = R(M*)           iff rank [M, M*] = rank M; on C^n
            posinormal, coposinormal and hypo-EP are each EP
- quasiposinormal: N(M) ⊆ N(M*)    iff rank [M; M*] = rank M
- EP_r:     N(M) = N(Mᵀ)           iff rank [M; Mᵀ] = rank M
- cond_i:   R(AB) ⊆ R(B)           iff rank [B, AB] = rank B
- cond_ii:  N(A) ⊆ N(AB)           iff rank [A; AB] = rank A
- range identity: R(AB) = R(A) ∩ R(B)
            iff cond_i and rank AB = rank A + rank B − rank [A, B]
- kernel identity: N(AB) = N(A) + N(B)
            iff cond_ii and nullity AB = nullity A + nullity B − nullity [A; B]
- group invertible (all three faces of the squaring check)
                                   iff rank A² = rank A

Normality, M M* = M* M, is decided by exact equality of the two products.

A complex matrix X + iY has rank half that of its real form
[[X, -Y], [Y, X]].  Draws are n = 1..5 with real and imaginary parts in
-2..2; most are low-rank products L·R of small factors, so nilpotent
matrices and vanishing products and powers are common, and their
unit-scaled roundoff is not always zero.  Without the unit-scale rank
decision of products and powers this finds about two dozen wrong flags.
Every entry, of A², A³ and AB too, is an integer far below 2**53, so numpy
forms them exactly.
"""

from collections import Counter

import numpy as np
import pytest

from eplab import (
    block_kernel_inclusions,
    bouldin_angle,
    classify,
    decompose_pair,
    group_invertible_check,
    hartwig_katz,
    johnson_vinoth_check,
    posinormal_product_conditions,
    power_ep,
)


def _bareiss_rank(rows):
    """Exact rank of an integer matrix given as a list of rows of ints:
    fraction-free elimination to echelon form, every division exact
    (Bareiss 1968; skipping a zero column keeps the entries minors)."""
    rows = [list(r) for r in rows]
    rank, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top, p = rows[rank], rows[rank][c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        rank += 1
    return rank


def _rank(m):
    """Exact complex rank of a Gaussian-integer matrix held in complex128."""
    x = np.rint(m.real).astype(np.int64).tolist()
    y = np.rint(m.imag).astype(np.int64).tolist()
    real_form = [xr + [-v for v in yr] for xr, yr in zip(x, y)]
    real_form += [yr + xr for xr, yr in zip(x, y)]
    return _bareiss_rank(real_form) // 2


def _ep(m):
    return _rank(np.hstack([m, m.conj().T])) == _rank(m)


def _gaussian_ints(rng, rows, cols):
    """A factor with parts in -2..2, or in -1..1 half the time, and real
    half the time: such factors often multiply to a vanishing R·L, and so
    to nilpotent matrices and vanishing products and powers."""
    bound, shape = int(rng.integers(1, 3)), (rows, cols)
    m = rng.integers(-bound, bound + 1, shape).astype(np.complex128)
    if rng.random() < 0.5:
        m += 1j * rng.integers(-bound, bound + 1, shape)
    return m


def _draw(rng, n):
    """A Gaussian-integer n x n matrix; 70% are products L·R of inner
    dimension below n (0 for n = 1)."""
    if rng.random() < 0.7:
        k = int(rng.integers(min(1, n - 1), n))
        return _gaussian_ints(rng, n, k) @ _gaussian_ints(rng, k, n)
    return _gaussian_ints(rng, n, n)


def _disagreements(a, b):
    """(fact, numerical, exact) for every fact the two decide differently."""
    n, ab, a2 = len(a), a @ b, a @ a
    rank_a, rank_b, rank_ab = _rank(a), _rank(b), _rank(ab)
    exact_hk = {
        "cond_i": _rank(np.hstack([b, ab])) == rank_b,
        "cond_ii": _rank(np.vstack([a, ab])) == rank_a,
        "ab_ep": _ep(ab),
        "a_ep": _ep(a),
        "b_ep": _ep(b),
    }
    exact_hk["range_identity"] = exact_hk["cond_i"] and (
        rank_ab == rank_a + rank_b - _rank(np.hstack([a, b]))
    )
    exact_hk["kernel_identity"] = exact_hk["cond_ii"] and (
        n - rank_ab == (n - rank_a) + (n - rank_b) - (n - _rank(np.vstack([a, b])))
    )
    report = hartwig_katz(a, b)
    found = [(k, getattr(report, k), v) for k, v in exact_hk.items()]
    stable = _rank(a2) == rank_a
    gi = group_invertible_check(a)
    found += [
        (k, getattr(gi, k), stable)
        for k in ("kernel_stable", "range_stable", "rank_stable")
    ]
    exact_powers = [exact_hk["a_ep"], _ep(a2), _ep(a2 @ a)]
    found += [
        (f"power_ep[{i}]", got, want)
        for i, (got, want) in enumerate(zip(power_ep(a, 3), exact_powers))
    ]
    a_ep, a_adj = exact_hk["a_ep"], a.conj().T
    exact_classify = {
        "normal": np.array_equal(a @ a_adj, a_adj @ a),
        "quasiposinormal": _rank(np.vstack([a, a_adj])) == rank_a,
        "posinormal": a_ep,
        "coposinormal": a_ep,
        "ep": a_ep,
        "hypo_ep": a_ep,
        "ep_r": _rank(np.vstack([a, a.T])) == rank_a,
    }
    flags = classify(a)
    found += [
        (f"classify.{k}", getattr(flags, k), v) for k, v in exact_classify.items()
    ]
    return [f for f in found if f[1] != f[2]]


class TestExactRank:
    @pytest.mark.parametrize(
        "m, rank",
        [
            (np.zeros((3, 3)), 0),
            (np.eye(4), 4),
            (np.array([[1, 1j], [1j, -1]]), 1),  # second row = i * first
            (np.array([[1 + 1j, 1 + 1j], [-1 - 1j, -1 - 1j]]), 1),
            (np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), 2),
            (np.array([[2, 4, 1], [1, 2, 0], [3, 6, 1]]), 2),  # zero column mid-way
            (np.zeros((2, 0)), 0),
        ],
    )
    def test_known_ranks(self, m, rank):
        assert _rank(np.asarray(m, dtype=np.complex128)) == rank

    def test_agrees_with_the_svd_on_well_separated_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = _draw(rng, int(rng.integers(1, 6)))
            s = np.linalg.svd(m, compute_uv=False)
            top = s[0] if s.size else 0.0
            if np.any((s > 1e-12 * top) & (s <= 1e-6 * top)):
                continue  # only draws with a clear gap between roundoff and rank
            assert _rank(m) == int(np.count_nonzero(s > 1e-9 * top))


def test_decisions_match_the_exact_oracle():
    # 600 draws, 20 facts each
    rng = np.random.default_rng(20260810)
    wrong = []
    for draw in range(600):
        n = int(rng.integers(1, 6))
        wrong += [(draw, *f) for f in _disagreements(_draw(rng, n), _draw(rng, n))]
    assert wrong == []


def test_complex_symmetric_draws_separate_ep_r_from_ep():
    # A = L·Lᵀ equals its transpose, so N(A) = N(Aᵀ) (EP_r), while R(A) and
    # R(A*) often differ: on such draws an EP_r decided from N(A*) in place
    # of N(Aᵀ) is wrong, which the draws above never show
    rng = np.random.default_rng(49)
    wrong, separated = [], 0
    for draw in range(300):
        n = int(rng.integers(1, 6))
        l = _gaussian_ints(rng, n, int(rng.integers(1, n + 1)))
        a = l @ l.T
        exact = {"ep_r": _rank(np.vstack([a, a.T])) == _rank(a), "ep": _ep(a)}
        separated += exact["ep_r"] != exact["ep"]
        report = classify(a)
        wrong += [(draw, k, v) for k, v in exact.items() if getattr(report, k) != v]
    assert wrong == []
    assert separated >= 0.15 * 300


def test_johnson_vinoth_matches_the_exact_oracle():
    # R(B) ⊆ R(A) iff rank [A, B] = rank A; N(B) ⊆ N(A) iff the rows of A
    # lie in those of B, rank [A; B] = rank B; on C^n AB is hypo-EP iff EP
    rng = np.random.default_rng(27)
    wrong, seen = [], Counter()
    for draw in range(300):
        n = int(rng.integers(1, 6))
        a, b = _draw(rng, n), _draw(rng, n)
        exact = {
            "hyp_range": _rank(np.hstack([a, b])) == _rank(a),
            "hyp_kernel": _rank(np.vstack([a, b])) == _rank(b),
            "ab_hypo_ep": _ep(a @ b),
        }
        seen.update(exact.items())
        report = johnson_vinoth_check(a, b)
        wrong += [(draw, k, v) for k, v in exact.items() if getattr(report, k) != v]
    assert wrong == []
    assert len(seen) == 6 and min(seen.values()) >= 50  # each fact, both ways


def test_bouldin_dimensions_match_the_exact_oracle():
    # A maps R(B) onto R(AB) with kernel V = N(A) ∩ R(B), so dim V =
    # rank B − rank AB; W, the complement of V inside N(A), has the rest
    rng = np.random.default_rng(28)
    wrong, seen = [], Counter()
    for draw in range(300):
        n = int(rng.integers(1, 6))
        a, b = _draw(rng, n), _draw(rng, n)
        shared = _rank(b) - _rank(a @ b)
        exact = {
            "dim_kernel_range_intersection": shared,
            "dim_deflated_kernel": n - _rank(a) - shared,
        }
        seen.update((k, v > 0) for k, v in exact.items())
        got = bouldin_angle(a, b).bouldin_components
        wrong += [(draw, k, v) for k, v in exact.items() if getattr(got, k) != v]
    assert wrong == []
    assert len(seen) == 4 and min(seen.values()) >= 50  # each zero and nonzero


def test_block_decomposition_matches_the_exact_oracle():
    # A = P·diag(I_r, 0)·P* and B = P·(B' ⊕ Z)·P* for a signed permutation P
    # (entries ±1, ±i) commute exactly and stay Gaussian-integer; the
    # decomposition's B' and Z are the drawn blocks up to a unitary and a
    # positive scale, so on C^n each block flag is its block's EP
    rng = np.random.default_rng(29)
    wrong, seen = [], Counter()
    for draw in range(300):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        bp, z = _draw(rng, r), _draw(rng, n - r)
        p = np.zeros((n, n), dtype=np.complex128)
        p[np.arange(n), rng.permutation(n)] = rng.choice([1, -1, 1j, -1j], n)
        blocks = np.zeros((n, n), dtype=np.complex128)
        blocks[:r, :r], blocks[r:, r:] = bp, z
        a = p @ np.diag([1.0] * r + [0.0] * (n - r)) @ p.conj().T
        b = p @ blocks @ p.conj().T
        bp_ep, z_ep = _ep(bp), _ep(z)
        exact = {
            "b_prime_posinormal": bp_ep,
            "kernel_bprime_included": bp_ep,
            "kernel_bprime_equal": bp_ep,
            "z_coposinormal": z_ep,
            "kernel_z_included": z_ep,
            "kernel_z_equal": z_ep,
            "y_zero": True,
            "core_dim": r,
        }
        seen.update((k, exact[k]) for k in ("b_prime_posinormal", "z_coposinormal"))
        dec = decompose_pair(a, b)
        got = {"core_dim": dec.core_dim}
        for report in (block_kernel_inclusions(dec), posinormal_product_conditions(dec)):
            got.update((f, getattr(report, f)) for f in report._fields)
        wrong += [(draw, k, v) for k, v in exact.items() if got[k] != v]
    assert wrong == []
    assert len(seen) == 4 and min(seen.values()) >= 50  # each block EP and not
