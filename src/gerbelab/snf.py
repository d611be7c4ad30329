"""Exact integer linear algebra over arbitrary-precision integers.

Smith normal form with unimodular transforms, kernel bases, and an
integer solve that returns either a solution or an image-membership
certificate from one scan of S b.  Matrices are
lists of lists of Python ints; sizes here are nerve-sized (a few hundred),
so clarity and exactness win over asymptotics.

``invariant_factors`` is the transform-free route for when only the
invariants are wanted (cohomology groups): sparse rows, +-1 pivots first,
and the dense Smith form only for the small block left without a unit.
"""

from heapq import heappop, heappush


class SmithForm:
    """D = S @ A @ T with S, T unimodular and D diagonal, d_i | d_{i+1}.

    ``diag`` holds the nonzero invariant factors (all positive), ``rank``
    their count.  ``s_inv`` is the inverse of ``S``: the image of A is
    spanned by d_i times its i-th column, so that column has order d_i in
    the cokernel.
    """

    __slots__ = ("nrows", "ncols", "diag", "rank", "s", "s_inv", "t")

    def __init__(self, nrows, ncols, diag, s, s_inv, t):
        self.nrows = nrows
        self.ncols = ncols
        self.diag = diag
        self.rank = len(diag)
        self.s = s
        self.s_inv = s_inv
        self.t = t


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix, ncols=None):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns a SmithForm.  The input is not modified.  ``ncols`` must be
    passed explicitly when the matrix has no rows (a zero map out of a
    nonzero space still has a kernel).
    """
    m = [list(map(int, row)) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else (ncols or 0)
    s = _identity(nrows)
    s_inv = _identity(nrows)
    t = _identity(ncols)

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
        # row i += q * row j
        mi, mj = m[i], m[j]
        for c in range(ncols):
            mi[c] += q * mj[c]
        si, sj = s[i], s[j]
        for c in range(nrows):
            si[c] += q * sj[c]
        for r in range(nrows):
            s_inv[r][j] -= q * s_inv[r][i]

    def col_addmul(j, i, q):
        # col j += q * col i
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
                    if best[0] == 1:
                        return best
        return best

    k = 0
    limit = min(nrows, ncols)
    while k < limit:
        best = find_pivot(k)
        if best is None:
            break
        _, pi, pj = best
        if pi != k:
            row_swap(k, pi)
        if pj != k:
            col_swap(k, pj)
        while True:
            # reduce column k below the pivot, then row k to the right
            changed = False
            for i in range(k + 1, nrows):
                if m[i][k]:
                    q = m[i][k] // m[k][k]
                    row_addmul(i, k, -q)
                    if m[i][k]:
                        row_swap(k, i)  # strictly smaller remainder is new pivot
                        changed = True
            for j in range(k + 1, ncols):
                if m[k][j]:
                    q = m[k][j] // m[k][k]
                    col_addmul(j, k, -q)
                    if m[k][j]:
                        col_swap(k, j)
                        changed = True
            if not changed:
                break
        # pivot must divide the rest of the submatrix; a unit always does
        d = m[k][k]
        offender = None
        if abs(d) != 1:
            offender = next((i for i in range(k + 1, nrows)
                             if any(m[i][j] % d for j in range(k + 1, ncols))), None)
        if offender is not None:
            row_addmul(k, offender, 1)
            continue  # redo this k with the enlarged row
        if d < 0:
            negate_row(k)
        k += 1

    # every pivot divides the submatrix left after it, so the later pivots
    # (integer combinations of its entries) keep the chain d_i | d_{i+1}
    diag = [m[i][i] for i in range(k)]
    return SmithForm(nrows, ncols, diag, s, s_inv, t)


def smith_normal_form_mod(matrix, n, ncols):
    """Smith form of [A | n I] for an integer matrix A with ``ncols``
    columns.  Solving against it solves A x = b mod n (keep the first
    ``ncols`` entries of x), and its kernel basis cut to those entries
    spans the kernel of A mod n.
    """
    nrows = len(matrix)
    rows = [list(row) + [n if j == i else 0 for j in range(nrows)]
            for i, row in enumerate(matrix)]
    return smith_normal_form(rows, ncols=ncols + nrows)


def invariant_factors(matrix):
    """Nonzero invariant factors of an integer matrix, d_i | d_{i+1}.

    The same list as ``smith_normal_form(matrix).diag``, without building
    transforms.  Rows are sparse {col: val} dicts.  A +-1 entry is a unit
    pivot: clearing its column by row operations and its row by column
    operations leaves the Schur complement and one invariant factor 1.
    Pivots come from the shortest row first and, within it, from the unit
    in the sparsest column, which keeps fill-in low.  The block left with
    no unit entry goes to the dense Smith form.
    """
    rows, cols = {}, {}
    for i, row in enumerate(matrix):
        sparse = {j: int(v) for j, v in enumerate(row) if v}
        if sparse:
            rows[i] = sparse
            for j in sparse:
                cols.setdefault(j, set()).add(i)
    heap = sorted((len(r), i) for i, r in rows.items())
    units = 0
    while heap:
        length, i = heappop(heap)
        row = rows.get(i)
        if row is None or len(row) != length:
            continue  # stale: eliminated or changed since it was pushed
        unit_cols = [j for j, v in row.items() if v == 1 or v == -1]
        if not unit_cols:
            continue  # pushed again if a later elimination changes it
        j = min(unit_cols, key=lambda c: len(cols[c]))
        p = row[j]
        del rows[i]
        for c in row:
            cols[c].discard(i)
        for t in list(cols[j]):
            target = rows[t]
            q = target[j] * p  # p = +-1, so dividing by p is multiplying
            for c, v in row.items():
                w = target.get(c, 0) - q * v
                if w:
                    if c not in target:
                        cols[c].add(t)
                    target[c] = w
                else:
                    del target[c]
                    cols[c].discard(t)
            if target:
                heappush(heap, (len(target), t))
            else:
                del rows[t]
        del cols[j]
        units += 1
    if not rows:
        return [1] * units
    used = sorted({c for r in rows.values() for c in r})
    block = [[r.get(c, 0) for c in used] for r in rows.values()]
    return [1] * units + smith_normal_form(block).diag


def matvec(matrix, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in matrix]


def solve(snf, b):
    """Solve A x = b over the integers given snf = smith_normal_form(A).

    Returns (x, None) when b is in the column space of A, otherwise
    (None, (functional, modulus, value)): the functional f (a row of S)
    kills the image of A modulo ``modulus`` (modulus 0 meaning over the
    integers) yet pairs with b to ``value``, nonzero mod ``modulus``.
    """
    sb = matvec(snf.s, list(b))
    y = [0] * snf.ncols
    for i in range(snf.nrows):
        if i < snf.rank:
            q, r = divmod(sb[i], snf.diag[i])
            if r:
                return None, (list(snf.s[i]), snf.diag[i], r)
            y[i] = q
        elif sb[i]:
            return None, (list(snf.s[i]), 0, sb[i])
    return matvec(snf.t, y), None


def kernel_basis(snf):
    """Basis of the integer kernel lattice of A (columns of T past the rank)."""
    return [[snf.t[r][j] for r in range(snf.ncols)]
            for j in range(snf.rank, snf.ncols)]
