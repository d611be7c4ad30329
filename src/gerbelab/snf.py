"""Exact integer linear algebra over arbitrary-precision integers.

Smith normal form with unimodular transforms, kernel bases, and an
integer solve that returns either a solution or an image-membership
certificate, with the order of the right-hand side in the cokernel, from
one scan of S b.  Dense matrices are lists of lists of Python ints;
sparse ones are lists of {column: value} rows.

Two forms share one interface (``apply_s``, ``row_of_s``, ``apply_t``),
so ``solve`` reads either.  ``SparseSmithForm`` is the one elimination
behind the coboundaries: +-1 pivots first on sparse rows, its row
operations recorded instead of multiplied out, and the dense
``smith_normal_form`` only for the small block left without a unit (Dumas,
Saunders and Villard, J. Symbolic Comput. 32, 2001).  The dense form with
explicit S, S^-1 and T also serves [A | nI], for the solve mod n only;
that is the one place where sparse rows are written out densely.
"""

from heapq import heappop, heappush
from math import gcd, lcm


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

    def apply_s(self, b):
        return matvec(self.s, b)

    def row_of_s(self, i):
        return list(self.s[i])

    def apply_t(self, y):
        return matvec(self.t, y)


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


def smith_normal_form_mod(rows, n, ncols):
    """Dense Smith form of [A | n I] for A given as sparse {column: value}
    rows with ``ncols`` columns.  Solving against it solves A x = b mod n
    (keep the first ``ncols`` entries of x); that solve is its one use.
    """
    nrows = len(rows)
    dense = [[row.get(j, 0) for j in range(ncols)] + [n if j == i else 0 for j in range(nrows)]
             for i, row in enumerate(rows)]
    return smith_normal_form(dense, ncols=ncols + nrows)


class SparseSmithForm:
    """Smith form S A T = D of an integer matrix from one sparse elimination.

    A is given as sparse {col: val} rows and its column count ``ncols``;
    the rows are copied, not modified.  A +-1 entry is a unit pivot: its
    column is cleared from every other row by row operations (target row,
    pivot row, multiplier), which are recorded, and the pivot row is kept
    as it stands; clearing that row by column operations then leaves the
    Schur complement and one invariant factor 1.  Pivots come from the
    shortest row first and, within it, from the unit in the sparsest
    column, which keeps fill-in low.  The block left with no unit entry
    goes to the dense ``smith_normal_form``.

    S, S^-1 and T are never built.  With L the recorded row operations,
    L A holds the pivot rows, the block and zero rows, and the methods
    below apply S, S^-1 and T to a vector (or give one row of S) by
    forward application of L, back-substitution through the pivot rows and
    the block's dense transforms.  The order of S is pivots, then the
    block, then the zero rows by row index; past the rank come the
    block's rows past its rank and the zero rows.
    """

    __slots__ = ("nrows", "ncols", "diag", "rank", "_ops", "_pivots",
                 "_block", "_block_rows", "_block_cols", "_zero_rows", "_free_cols")

    def __init__(self, matrix, ncols):
        nrows = len(matrix)
        rows, cols = {}, {}
        for i, row in enumerate(matrix):
            sparse = {j: v for j, v in row.items() if v}
            if sparse:
                rows[i] = sparse
                for j in sparse:
                    cols.setdefault(j, set()).add(i)
        heap = sorted((len(r), i) for i, r in rows.items())
        ops, pivots = [], []
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
                ops.append((t, i, q))
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
            pivots.append((i, j, p, row))
        self.nrows, self.ncols = nrows, ncols
        self._ops, self._pivots = ops, pivots
        self._block_rows = list(rows)
        self._block_cols = sorted({c for r in rows.values() for c in r})
        self._block = smith_normal_form(
            [[r.get(c, 0) for c in self._block_cols] for r in rows.values()],
            ncols=len(self._block_cols))
        nonzero_rows = {i for i, *_ in pivots}.union(rows)
        self._zero_rows = [i for i in range(nrows) if i not in nonzero_rows]
        bound_cols = {j for _, j, *_ in pivots}.union(self._block_cols)
        self._free_cols = [j for j in range(ncols) if j not in bound_cols]
        self.diag = [1] * len(pivots) + self._block.diag
        self.rank = len(self.diag)

    def apply_s(self, b):
        """S b, by the recorded row operations in order, then the block's S."""
        v = list(b)
        for t, i, q in self._ops:
            v[t] -= q * v[i]
        return ([p * v[i] for i, _, p, _ in self._pivots]
                + matvec(self._block.s, [v[i] for i in self._block_rows])
                + [v[i] for i in self._zero_rows])

    def row_of_s(self, k):
        """Row k of S, an integral functional on the rows of A: e_k S, by
        the transposed row operations in reverse order."""
        g = [0] * self.nrows
        u, m = len(self._pivots), len(self._block_rows)
        if k < u:
            i, _, p, _ = self._pivots[k]
            g[i] = p
        elif k < u + m:
            for i, v in zip(self._block_rows, self._block.s[k - u]):
                g[i] = v
        else:
            g[self._zero_rows[k - u - m]] = 1
        for t, i, q in reversed(self._ops):
            if g[t]:
                g[i] -= q * g[t]
        return g

    def apply_s_inv(self, w):
        """S^-1 w: the block's S^-1, then the inverse row operations in
        reverse order."""
        u, m = len(self._pivots), len(self._block_rows)
        v = [0] * self.nrows
        for (i, _, p, _), x in zip(self._pivots, w):
            v[i] = p * x
        for i, x in zip(self._block_rows, matvec(self._block.s_inv, w[u:u + m])):
            v[i] = x
        for i, x in zip(self._zero_rows, w[u + m:]):
            v[i] = x
        for t, i, q in reversed(self._ops):
            v[t] += q * v[i]
        return v

    def apply_t(self, y):
        """T y: the block's T and the free columns, then back-substitution
        through the pivot rows, last pivot first."""
        u, n = len(self._pivots), len(self._block_cols)
        x = [0] * self.ncols
        for j, v in zip(self._block_cols, matvec(self._block.t, y[u:u + n])):
            x[j] = v
        for j, v in zip(self._free_cols, y[u + n:]):
            x[j] = v
        for k in range(u - 1, -1, -1):
            _, j, p, row = self._pivots[k]  # x[j] is still 0 in the sum
            x[j] = y[k] - p * sum(v * x[c] for c, v in row.items())
        return x


def matvec(matrix, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in matrix]


def solve(snf, b):
    """Solve A x = b over the integers given a Smith form of A (dense or
    sparse), and read the order of b in the cokernel of A from the same
    scan of c = S b.

    The cokernel is Z/d_i on row i, with d_i = 0 (Z) past the rank, so the
    order is the lcm of d_i / gcd(c_i, d_i) over the rows, 0 meaning
    infinite (universal coefficients, Hatcher, Algebraic Topology, Thm
    3A.3).  Returns (x, None, 1) when b is in the column space of A,
    otherwise (None, (functional, modulus, value), order) from the first
    row that fails: the functional f (a row of S) kills the image of A
    modulo ``modulus`` (modulus 0 meaning over the integers) yet pairs with
    b to ``value``, nonzero mod ``modulus``.
    """
    sb = snf.apply_s(list(b))
    y = [0] * snf.ncols
    rank, diag = snf.rank, snf.diag
    cert, order = None, 1
    for i, r in enumerate(sb):
        d = diag[i] if i < rank else 0
        if d:
            y[i], r = divmod(r, d)
        if r:
            order = lcm(order, d // gcd(r, d))  # 0 when d = 0, and lcm keeps 0
            cert = cert or (snf.row_of_s(i), d, r)
    if cert is not None:
        return None, cert, order
    return snf.apply_t(y), None, 1


def kernel_basis(snf):
    """Basis of the integer kernel lattice of A (columns of T past the rank)."""
    return [[snf.t[r][j] for r in range(snf.ncols)]
            for j in range(snf.rank, snf.ncols)]
