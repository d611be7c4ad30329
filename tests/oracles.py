"""Independent oracle implementations for cross-checking the library.

Everything here is deliberately written along a different path from the
package code: coboundary matrices are assembled by direct subset
enumeration, Smith invariants come from sympy, mod-p dimensions from a
plain Gaussian elimination, product cohomology from the Kuenneth formula,
Toeplitz blocks from a double loop over mode pairs, the twisted
coboundary of a cochain face by face from the simplices (the bit-for-bit
reference for cech.coboundary, which reads the rows of delta_matrix), the
untwisted lifting obstruction from a from-scratch formula, cup products from
the Alexander-Whitney front-face/back-face rule, the twisted transition
cocycle check and lifting obstruction with the semidirect product written
out by hand (the bit-for-bit reference for lifting, which reads
coeffs.semidirect_mul), trivialization by a second solve of d b' = -a
checked by a second obstruction (the bit-for-bit reference for
lifting.trivialize, which negates the one solve of d b = a), the order of
a class by one solve per multiple (the reference for the order that
is_coboundary reads from its one solve), and the connection pipeline
(pullback connection, curvature, gauge residual, Chern number) on full
grids, with matrix products and the curvature bracket at every rank and a
separate bilinear interpolation of each form, and a bundle's samples and
transition report on dense ``np.meshgrid`` copies of the chart grids (the
bit-for-bit reference for the broadcast grid views and the overlap-point
report).

It also holds the small fixtures only the tests read: the edge-sign action
and tolerant equality of a coefficient group, the standard nerve corpus,
the trivial bundle over an interval, and a unitarity report of a bundle's
samples.
"""

from itertools import combinations
from math import gcd

import numpy as np
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from gerbelab import lifting, models
from gerbelab.cech import Cochain, cochain, cochain_neg, is_coboundary, zero_cochain
from gerbelab.errors import DegreeOverflow
from gerbelab.nerve import MAX_DIM, faces


def standard_corpus():
    """The named small complexes every oracle comparison runs over."""
    return {
        "circle": models.circle_nerve(),
        "sphere2": models.boundary_simplex(2),
        "sphere3": models.boundary_simplex(3),
        "rp2": models.rp2_nerve(),
    }


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


def act(coeff, eps, a):
    """The edge sign eps on a coefficient: the involution for eps == -1,
    the identity otherwise."""
    if eps == -1 and coeff.involution == "negation":
        return coeff.neg(a)
    return coeff.normalize(a)


def coeff_eq(coeff, a, b):
    """a == b in the coefficient group, to within its tolerance."""
    return coeff.is_zero(coeff.normalize(a - b))


def face_by_face_coboundary(c, sys):
    """The twisted coboundary of a cochain, summed face by face: the
    leading face acted on by its edge sign, then each further face added or
    subtracted in order, normalized after every step."""
    k = c.degree
    if k > MAX_DIM - 1:
        raise DegreeOverflow(f"coboundary of degree {k} exceeds the dimension cap")
    if k == -1:
        return zero_cochain(sys, 0)
    coeff = sys.coeff
    out = []
    for s in sys.nerve.simplices[k + 1]:
        fs = faces(s)
        v = act(coeff, sys.eps_of(s[0], s[1]), c.values[sys.nerve.index_of(fs[0])])
        for r in range(1, len(fs)):
            w = c.values[sys.nerve.index_of(fs[r])]
            v = coeff.normalize(v - w) if r % 2 else coeff.add(v, w)
        out.append(v)
    return Cochain(k + 1, tuple(out))


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


def _hand_edge(nerve, values, eps, group, sigma, i, j):
    """(value, eps) on the ordered edge (i, j); for i > j the semidirect
    inverse (sigma^eps(v^-1), eps) of the ascending value."""
    if i == j:
        return group.identity, 1
    if i < j:
        idx = nerve.index_of((i, j))
        return values[idx], eps[idx]
    idx = nerve.index_of((j, i))
    vi = group.inv(values[idx])
    return (sigma(vi) if eps[idx] == -1 else vi), eps[idx]


def hand_written_cocycle_report(td):
    """The first triangle failing (g_ij sigma^{eps_ij}(g_jk), eps_ij eps_jk)
    = (g_ik, eps_ik), as (triangle, lhs, rhs); None when all hold."""
    grp = td.group
    for (i, j, k) in td.nerve.simplices[2]:
        gij, eij = _hand_edge(td.nerve, td.g, td.eps, grp, td.sigma, i, j)
        gjk, ejk = _hand_edge(td.nerve, td.g, td.eps, grp, td.sigma, j, k)
        gik, eik = _hand_edge(td.nerve, td.g, td.eps, grp, td.sigma, i, k)
        tw = td.sigma(gjk) if eij == -1 else gjk
        lhs, rhs = (grp.mul(gij, tw), eij * ejk), (gik, eik)
        if lhs != rhs:
            return (i, j, k), lhs, rhs
    return None


def hand_written_obstruction(td, ext, lifts):
    """a_ijk = ghat_ij sigmahat^{eps_ij}(ghat_jk) ghat_ik^-1 in the hat group
    on every triangle, in triangle order."""
    hat, nerve = ext.hat, td.nerve

    def edge(i, j):
        return _hand_edge(nerve, lifts.values, td.eps, hat, ext.sigma_hat, i, j)

    out = []
    for (i, j, k) in nerve.simplices[2]:
        (gij, eij), (gjk, _), (gik, _) = edge(i, j), edge(j, k), edge(i, k)
        tw = ext.sigma_hat(gjk) if eij == -1 else gjk
        out.append(hat.mul(hat.mul(gij, tw), hat.inv(gik)))
    return out


def negated_solve_trivialize(result):
    """(corrected lift values, certificate) for an ObstructionResult: solve
    d b' = -a, set ghat'_ij = kernel(b'_ij) . ghat_ij, and require the
    obstruction of the new lifts to vanish; (None, certificate) when -a is
    not a coboundary."""
    sys_, ext = result.system, result.ext
    solved = is_coboundary(cochain_neg(sys_, result.cochain), sys_)
    if not solved.trivial:
        return None, solved.certificate
    corrected = tuple(ext.hat.mul(ext.kernel_element(v), h)
                      for v, h in zip(solved.primitive.values, result.lifts.values))
    check = lifting.obstruction(result.td, ext, lifting.LiftChoice(corrected))
    if any(v != 0 for v in check.cochain.values):
        raise AssertionError("corrected lifts fail the strict cocycle condition")
    return corrected, None


def loop_class_order(z, sys, bound):
    """Order of the class of the cocycle z by one full solve per multiple:
    the least m in 1..bound with m z a coboundary, 0 when none is (the
    brute-force reference for is_coboundary's order, read from one scan)."""
    for m in range(1, bound + 1):
        if is_coboundary(cochain(sys, z.degree, [m * v for v in z.values]), sys).trivial:
            return m
    return 0


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


# --- the connection pipeline on full grids ---------------------------------

def trivial_interval_bundle(resolution=21, size=1):
    """The trivial bundle over one 1D chart, the smallest charted base."""
    from gerbelab.connection import BundleData, Chart, ChartedBase
    chart = Chart("interval", [(0.0, 1.0, resolution)])
    base = ChartedBase([chart], {}, closed_surface=False, name="interval")
    return BundleData(base, size, {}, {(0, 0): lambda u: np.ones_like(u)},
                      name="trivial-interval")


def unitarity_report(data, tol=1e-8):
    """(max deviation of h^* h from the identity over every transition
    sample, h_kk included, whether it is within tol)."""
    pairs = set(data.transitions) | {(k, k) for k in range(data.base.chart_count)}
    worst = 0.0
    for k, i in sorted(pairs):
        h = data.transition_values(k, i)
        dev = np.abs(np.swapaxes(h.conj(), -2, -1) @ h - np.eye(data.size))
        worst = max(worst, float(dev.max()))
    return worst, worst <= tol


def _sample_inverse(h):
    """Inverse of every N x N sample: the reciprocal for N = 1."""
    return 1 / h if h.shape[-1] == 1 else np.linalg.inv(h)


def full_grid_connection(data, k):
    """Components (dims, grid, N, N) of A_k = sum_i lambda_i h_ki^-1 dh_ki."""
    chart = data.base.charts[k]
    n = data.size
    comps = np.zeros((chart.dims,) + chart.shape + (n, n), dtype=complex)
    for i in range(data.base.chart_count):
        lam = data.partition_values(i, k)
        active = lam > 0.0
        if i == k or not active.any():
            continue
        h = data.transition_values(k, i)
        with np.errstate(invalid="ignore"):
            h_inv = _sample_inverse(h)
        weight = np.where(active, lam, 0.0)[..., None, None]
        for axis in range(chart.dims):
            dh = np.gradient(h, chart.spacing[axis], axis=axis, edge_order=2)
            comps[axis] += np.where(active[..., None, None],
                                    weight * (h_inv @ dh), 0.0)
    return comps


def full_grid_curvature(data, k, comps):
    """dA_v/du - dA_u/dv + [A_u, A_v] on chart k, bracket included."""
    chart = data.base.charts[k]
    au, av = comps
    dav_du = np.gradient(av, chart.spacing[0], axis=0, edge_order=2)
    dau_dv = np.gradient(au, chart.spacing[1], axis=1, edge_order=2)
    return dav_du - dau_dv + au @ av - av @ au


def bilinear(chart, values, u, v):
    """Bilinear interpolation of one array of 2D grid samples at (u, v)."""
    idx, frac = [], []
    for axis, x in enumerate((u, v)):
        nodes = chart.nodes[axis]
        f = (np.asarray(x) - nodes[0]) / chart.spacing[axis]
        i0 = np.clip(np.floor(f).astype(int), 0, len(nodes) - 2)
        idx.append(i0)
        frac.append(f - i0)
    extra = values.ndim - 2
    tu = frac[0].reshape(frac[0].shape + (1,) * extra)
    tv = frac[1].reshape(frac[1].shape + (1,) * extra)
    v00 = values[idx[0], idx[1]]
    v10 = values[idx[0] + 1, idx[1]]
    v01 = values[idx[0], idx[1] + 1]
    v11 = values[idx[0] + 1, idx[1] + 1]
    return ((1 - tu) * (1 - tv) * v00 + tu * (1 - tv) * v10
            + (1 - tu) * tv * v01 + tu * tv * v11)


def full_grid_forms(data):
    """[(A_k, F_k)] of every chart, as plain arrays."""
    out = []
    for k in range(data.base.chart_count):
        comps = full_grid_connection(data, k)
        out.append((comps, full_grid_curvature(data, k, comps)))
    return out


def full_grid_gauge_residual(data, k, l, forms):
    """Both gauge identities evaluated on all of chart l's grid, then masked
    to the usable overlap; ``forms`` from ``full_grid_forms``."""
    base = data.base
    chart_l = base.charts[l]
    om = base.overlaps[(k, l)]
    mask = np.asarray(om.mask(*chart_l.grid), dtype=bool)
    (a_l, f_l), (a_k, f_k) = forms[l], forms[k]
    mapped = om.coords(*chart_l.grid)
    jac = om.jacobian(*chart_l.grid)
    h = data.transition_values(l, k)
    h_inv = _sample_inverse(h)
    interp_k = [bilinear(base.charts[k], a_k[b], *mapped) for b in range(2)]
    worst = 0.0
    for a in range(2):
        pulled = sum(jac[b][a][..., None, None] * interp_k[b] for b in range(2))
        dh = np.gradient(h, chart_l.spacing[a], axis=a, edge_order=2)
        rhs = h_inv @ pulled @ h + h_inv @ dh
        dev = np.abs(a_l[a] - rhs).max(axis=(-2, -1))
        worst = max(worst, float(np.where(mask, dev, 0.0).max()))
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    pulled_f = det[..., None, None] * bilinear(base.charts[k], f_k, *mapped)
    rhs_f = h_inv @ pulled_f @ h
    dev_f = np.abs(f_l - rhs_f).max(axis=(-2, -1))
    return max(worst, float(np.where(mask, dev_f, 0.0).max()))


def full_grid_chern_number(data, forms):
    """(i/2pi) times the partition-weighted chart sums of tr F; ``forms``
    from ``full_grid_forms``."""
    base = data.base
    total = 0.0 + 0.0j
    for k, chart in enumerate(base.charts):
        tr = np.trace(forms[k][1], axis1=-2, axis2=-1)
        cell = chart.spacing[0] * chart.spacing[1]
        total += base.orientation[k] * cell * np.sum(
            data.partition_values(k, k) * tr)
    return float((1j / (2 * np.pi) * total).real)


def meshgrid_samples(data):
    """{(k, i): (h_ki, lambda_i)} on chart k, every function evaluated on
    dense ``np.meshgrid(..., indexing="ij")`` copies of the chart grid and
    h_kk written out as a full array of identities."""
    out = {}
    for k, chart in enumerate(data.base.charts):
        grid = np.meshgrid(*chart.nodes, indexing="ij")
        for i in range(data.base.chart_count):
            if i == k:
                h = np.array(np.broadcast_to(np.eye(data.size, dtype=complex),
                                             chart.shape + (data.size,) * 2))
            else:
                h = np.asarray(data.transitions[(k, i)](*grid), dtype=complex)
            lam = np.asarray(data.partitions[(i, k)](*grid), dtype=float)
            out[(k, i)] = h, lam
    return out


def full_grid_transition_report(data, tol=1e-9):
    """h_ki(phi(x)) h_ik(x) - 1 on all of chart i's meshgrid, masked to the
    usable overlap afterwards; a NaN residual is passed over because
    ``nan > worst`` is false.  Reads the stored h_ik samples."""
    worst, where = 0.0, None
    for (k, i), om in data.base.overlaps.items():
        grid = np.meshgrid(*data.base.charts[i].nodes, indexing="ij")
        mask = np.asarray(om.mask(*grid), dtype=bool)
        if not mask.any():
            continue
        h_ki = np.asarray(data.transitions[(k, i)](*om.coords(*grid)),
                          dtype=complex)
        prod = h_ki @ data.transition_values(i, k)
        dev = np.abs(prod - np.eye(data.size)).max(axis=(-2, -1))
        dev = np.where(mask, dev, 0.0)
        local = float(dev.max())
        if local > worst:
            worst = local
            where = ((k, i), tuple(int(x) for x in
                                   np.unravel_index(np.argmax(dev), dev.shape)))
    return worst, worst <= tol, where


def matvec(matrix, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in matrix]


def kernel_basis(snf):
    """Basis of the integer kernel lattice of A: the columns of T past the
    rank, from one read of the dense T."""
    t = snf.t
    return [[row[j] for row in t] for j in range(snf.rank, snf.ncols)]


def reference_smith_form(matrix, ncols=None):
    """The dense Smith elimination with explicit transforms: (diag, S, S^-1,
    T) with D = S A T.  Every row operation updates S and S^-1 and every
    column operation T, and each pivot other than +-1 is checked against
    the whole submatrix left.  ``snf.smith_normal_form`` performs the same
    operations, so its dense views must equal these entry for entry."""
    m = [list(map(int, row)) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else (ncols or 0)
    s = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    s_inv = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    t = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        s[i], s[j] = s[j], s[i]
        for r in range(nrows):
            s_inv[r][i], s_inv[r][j] = s_inv[r][j], s_inv[r][i]

    def col_swap(i, j):
        for r in range(nrows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(ncols):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    def row_addmul(i, j, q):
        for c in range(ncols):
            m[i][c] += q * m[j][c]
        for c in range(nrows):
            s[i][c] += q * s[j][c]
        for r in range(nrows):
            s_inv[r][j] -= q * s_inv[r][i]

    def col_addmul(j, i, q):
        for r in range(nrows):
            m[r][j] += q * m[r][i]
        for r in range(ncols):
            t[r][j] += q * t[r][i]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        s[i] = [-x for x in s[i]]
        for r in range(nrows):
            s_inv[r][i] = -s_inv[r][i]

    def find_pivot(k):
        best = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                v = m[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        return best

    k = 0
    while k < min(nrows, ncols):
        best = find_pivot(k)
        if best is None:
            break
        _, pi, pj = best
        if pi != k:
            row_swap(k, pi)
        if pj != k:
            col_swap(k, pj)
        while True:
            changed = False
            for i in range(k + 1, nrows):
                if m[i][k]:
                    row_addmul(i, k, -(m[i][k] // m[k][k]))
                    if m[i][k]:
                        row_swap(k, i)
                        changed = True
            for j in range(k + 1, ncols):
                if m[k][j]:
                    col_addmul(j, k, -(m[k][j] // m[k][k]))
                    if m[k][j]:
                        col_swap(k, j)
                        changed = True
            if not changed:
                break
        d = m[k][k]
        offender = None
        if abs(d) != 1:
            offender = next((i for i in range(k + 1, nrows)
                             if any(m[i][j] % d for j in range(k + 1, ncols))), None)
        if offender is not None:
            row_addmul(k, offender, 1)
            continue
        if d < 0:
            negate_row(k)
        k += 1
    return [m[i][i] for i in range(k)], s, s_inv, t
