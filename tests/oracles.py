"""Independent oracle implementations for cross-checking the library.

Everything here is deliberately written along a different path from the
package code: coboundary matrices are assembled by direct subset
enumeration, Smith invariants come from sympy, mod-p dimensions from a
plain Gaussian elimination, product cohomology from the Kuenneth formula,
Toeplitz blocks from a double loop over mode pairs, the untwisted
lifting obstruction from a from-scratch formula, and cup products from
the Alexander-Whitney front-face/back-face rule.
"""

from itertools import combinations
from math import gcd

import numpy as np
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf


def simplex_lists(nerve):
    """Re-derive the simplex lists from the top cells, independently."""
    cells = set()
    for level in nerve.simplices:
        cells.update(level)
    levels = [set() for _ in range(5)]
    for cell in cells:
        for size in range(1, len(cell) + 1):
            levels[size - 1].update(combinations(cell, size))
    return [sorted(level) for level in levels]


def coboundary_matrix(nerve, k, eps=None, negate=True):
    """Matrix of the twisted coboundary, assembled by direct enumeration.

    eps: dict edge -> sign (default all +1).  negate: whether the
    coefficient involution is negation (signs enter the leading face).
    """
    eps = eps or {}
    levels = simplex_lists(nerve)
    sources = levels[k]
    targets = levels[k + 1] if k + 1 < len(levels) else []
    index = {s: i for i, s in enumerate(sources)}
    rows = np.zeros((len(targets), len(sources)), dtype=np.int64)
    for r, simplex in enumerate(targets):
        for drop in range(len(simplex)):
            face = simplex[:drop] + simplex[drop + 1:]
            sign = (-1) ** drop
            if drop == 0 and negate:
                e = (simplex[0], simplex[1])
                sign = eps.get(e, eps.get((e[1], e[0]), 1))
            rows[r, index[face]] += sign
    return rows


def integer_invariants(matrix):
    """(rank, invariant factors > 1) via sympy's Smith normal form."""
    if matrix.size == 0:
        return 0, []
    m = sympy_snf(Matrix(matrix.tolist()), domain=ZZ)
    diag = [abs(int(m[i, i])) for i in range(min(m.shape))]
    nonzero = [d for d in diag if d != 0]
    return len(nonzero), [d for d in nonzero if d > 1]


def integer_cohomology(nerve, k, eps=None, negate=True):
    """(free rank, torsion) of H^k over Z, fully independent route."""
    levels = simplex_lists(nerve)
    n_k = len(levels[k]) if k < len(levels) else 0
    if n_k == 0:
        return 0, []
    d_k = coboundary_matrix(nerve, k, eps, negate)
    rank_out, _ = integer_invariants(d_k)
    if k == 0:
        return n_k - rank_out, []
    d_km1 = coboundary_matrix(nerve, k - 1, eps, negate)
    rank_in, torsion = integer_invariants(d_km1)
    return n_k - rank_out - rank_in, torsion


def gf2_rank(matrix):
    m = (np.array(matrix, dtype=np.int64) % 2).astype(np.int8)
    rank = 0
    rows, cols = m.shape if m.size else (0, 0)
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def gfp_rank(matrix, p):
    """Rank over GF(p), p prime, by Gaussian elimination with inverses."""
    m = [[int(x) % p for x in row] for row in np.array(matrix, dtype=np.int64).tolist()]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def modp_cohomology_dim(nerve, k, p, eps=None, negate=True):
    """dim H^k over GF(p) of the twisted complex, by GF(p) ranks."""
    levels = simplex_lists(nerve)
    n_k = len(levels[k]) if k < len(levels) else 0
    if n_k == 0:
        return 0
    rank_out = gfp_rank(coboundary_matrix(nerve, k, eps, negate), p)
    rank_in = gfp_rank(coboundary_matrix(nerve, k - 1, eps, negate), p) if k else 0
    return n_k - rank_out - rank_in


def invariant_form(orders):
    """Invariant factors > 1 of a direct sum of cyclic groups Z/m (sympy)."""
    orders = [m for m in orders if m > 1]
    return integer_invariants(np.diag(orders))[1] if orders else []


def kunneth(ha, hb, top=4):
    """H^n(X x Y; Z) for n <= top from the factors' (free, torsion) lists.

    H^n = sum_{i+j=n} H^i(X) (x) H^j(Y) + sum_{i+j=n+1} Tor(H^i(X), H^j(Y))
    (Hatcher, Thm 3B.6), with Z/a (x) Z/b = Tor(Z/a, Z/b) = Z/gcd(a, b).
    Torsion comes back in invariant-factor form.
    """
    out = []
    for n in range(top + 1):
        free, cyclic = 0, []
        for i, (fa, ta) in enumerate(ha):
            for j, (fb, tb) in enumerate(hb):
                if i + j == n:
                    free += fa * fb
                    cyclic += list(ta) * fb + list(tb) * fa
                    cyclic += [gcd(a, b) for a in ta for b in tb]
                elif i + j == n + 1:
                    cyclic += [gcd(a, b) for a in ta for b in tb]
        out.append((free, invariant_form(cyclic)))
    return out


def mod2_cohomology_dim(nerve, k, eps=None):
    """dim H^k over GF(2) by Gaussian elimination (twist invisible mod 2)."""
    levels = simplex_lists(nerve)
    n_k = len(levels[k]) if k < len(levels) else 0
    if n_k == 0:
        return 0
    rank_out = gf2_rank(coboundary_matrix(nerve, k, eps))
    rank_in = gf2_rank(coboundary_matrix(nerve, k - 1, eps)) if k else 0
    return n_k - rank_out - rank_in


def toeplitz_assembly(loop, K):
    """The truncated multiplication operator by brute force over (s, r)."""
    N = loop.size
    out = np.zeros((2 * K * N, 2 * K * N), dtype=complex)
    for s in range(-K, K):
        for r in range(-K, K):
            coeff = loop.coeff(s - r)
            out[(s + K) * N:(s + K + 1) * N, (r + K) * N:(r + K + 1) * N] = coeff
    return out


def untwisted_obstruction(nerve, g_edges, section, hat_mul, hat_inv, projection):
    """Classical (untwisted) lifting obstruction, coded from scratch.

    g_edges: dict ascending edge -> base element; section: base -> hat;
    returns dict triangle -> hat element s(g_ij) s(g_jk) s(g_ik)^-1.
    """
    levels = simplex_lists(nerve)

    def lift(i, j):
        if i < j:
            return section[g_edges[(i, j)]]
        return hat_inv[section[g_edges[(j, i)]]]

    out = {}
    for (i, j, k) in levels[2]:
        out[(i, j, k)] = hat_mul[hat_mul[lift(i, j)][lift(j, k)]][hat_inv[lift(i, k)]]
    return out


def cup_product(nerve, p, a, q, b):
    """Alexander-Whitney cup product of a p-cochain a and a q-cochain b.

    a, b: dicts ascending simplex -> integer (absent simplices are 0).
    (a cup b)(v_0 .. v_{p+q}) = a(v_0 .. v_p) b(v_p .. v_{p+q}); returns a
    dict over every (p+q)-simplex.
    """
    levels = simplex_lists(nerve)
    return {s: a.get(s[:p + 1], 0) * b.get(s[p:], 0) for s in levels[p + q]}


def winding_number(values):
    """Winding of a closed loop of phases, by unwrapped argument."""
    phases = np.unwrap(np.angle(np.asarray(values, dtype=complex)))
    return (phases[-1] - phases[0]) / (2 * np.pi)
