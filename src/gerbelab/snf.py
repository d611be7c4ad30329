"""Exact integer linear algebra over arbitrary-precision integers.

Smith normal form with unimodular transforms and an integer solve that
returns either a solution or an image-membership certificate, with the
order of the right-hand side in the cokernel, from one scan of S b.
Dense matrices are lists of lists of Python ints; sparse ones are lists
of {column: value} rows.

Two forms share one interface (``apply_s``, ``row_of_s``, ``apply_s_inv``,
``apply_t``), so ``solve`` reads either.  Neither multiplies by a full S or
S^-1: both keep the row operations of their elimination as (target row,
pivot row, multiplier) triples and replay them, forward for S, transposed
in reverse for a row of S and inverted in reverse for S^-1, in the manner
of Dumas, Saunders and Villard (J. Symbolic Comput. 32, 2001).
``SparseSmithForm`` is the one elimination behind the coboundaries: +-1
pivots first on sparse rows, and the dense ``smith_normal_form`` only for
the small block left without a unit.  The dense form keeps D, its recorded
row operations and the non-zero entries of T; it also serves [A | nI], for
the solve mod n only, the one place where sparse rows are written out
densely.
"""

from heapq import heappop, heappush
from math import gcd, lcm


# Recorded row operations L: each triple (t, i, q) replaces row t by
# row t - q row i.  Each helper works in place.

def _replay(ops, v):
    """v <- L v: the operations in order."""
    for t, i, q in ops:
        v[t] -= q * v[i]


def _replay_transposed(ops, g):
    """g <- g L: the transposed operations in reverse order."""
    for t, i, q in reversed(ops):
        if g[t]:
            g[i] -= q * g[t]


def _replay_inverse(ops, v):
    """v <- L^-1 v: the inverse operations in reverse order."""
    for t, i, q in reversed(ops):
        v[t] += q * v[i]


class SmithForm:
    """D = S @ A @ T with S, T unimodular and D diagonal, d_i | d_{i+1}.

    ``diag`` holds the nonzero invariant factors (all positive), ``rank``
    their count.  S is kept as the elimination's row operations: triples
    (t, i, q), each replacing row t by row t - q row i of the rows of A as
    first labelled, then the label and sign of the row that ends at each
    position.  T is kept by its non-zero entries, one {row: value} dict per
    column.  The methods apply S, S^-1 and T to a vector and give one row
    of S; the column of S^-1 at i has order d_i in the cokernel, since the
    image of A is spanned by d_i times it.  The dense ``s``, ``s_inv`` and
    ``t`` are built each time they are read, for tests and tracing; no
    solve reads them.
    """

    __slots__ = ("nrows", "ncols", "diag", "rank", "_ops", "_order", "_signs",
                 "_t_cols")

    def __init__(self, nrows, ncols, diag, ops, order, signs, t_cols):
        self.nrows = nrows
        self.ncols = ncols
        self.diag = diag
        self.rank = len(diag)
        self._ops, self._order, self._signs = ops, order, signs
        self._t_cols = t_cols

    def apply_s(self, b):
        """S b: the row operations in order, then the rows' order and signs."""
        v = list(b)
        _replay(self._ops, v)
        return [p * v[i] for i, p in zip(self._order, self._signs)]

    def row_of_s(self, k):
        """Row k of S: e_k S, by the transposed row operations in reverse
        order."""
        g = [0] * self.nrows
        g[self._order[k]] = self._signs[k]
        _replay_transposed(self._ops, g)
        return g

    def apply_s_inv(self, w):
        """S^-1 w: the rows' signs and order undone, then the inverse row
        operations in reverse order."""
        v = [0] * self.nrows
        for i, p, x in zip(self._order, self._signs, w):
            v[i] = p * x
        _replay_inverse(self._ops, v)
        return v

    def apply_t(self, y):
        """T y, from the non-zero entries of the columns that y weights."""
        x = [0] * self.ncols
        for col, c in zip(self._t_cols, y):
            if c:
                for r, v in col.items():
                    x[r] += v * c
        return x

    @property
    def s(self):
        return [self.row_of_s(k) for k in range(self.nrows)]

    @property
    def s_inv(self):
        return [list(row) for row in zip(*(
            self.apply_s_inv([int(i == k) for i in range(self.nrows)])
            for k in range(self.nrows)))]

    @property
    def t(self):
        t = [[0] * self.ncols for _ in range(self.ncols)]
        for j, col in enumerate(self._t_cols):
            for r, v in col.items():
                t[r][j] = v
        return t


def _first_offender(m, k, d):
    """The first row past k with an entry past column k that d does not
    divide, or None."""
    ncols = len(m[k])
    return next((i for i in range(k + 1, len(m))
                 if any(m[i][j] % d for j in range(k + 1, ncols))), None)


def smith_normal_form(matrix, ncols=None):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns a SmithForm.  The input is not modified.  ``ncols`` must be
    passed explicitly when the matrix has no rows (a zero map out of a
    nonzero space still has a kernel).

    A floor, |d| of the last finished pivot (1 before the first), divides
    every entry left, since every later entry is an integer combination of
    entries it divided.  So a pivot equal to the floor divides the whole
    submatrix without a scan, and the pivot search stops at the first
    entry of absolute value the floor, the one a full search picks.  Row
    operations are recorded on the rows of A as first labelled: a swap
    exchanges labels, and a sign is kept per position, because a row is
    negated only once its pivot is finished and no later operation
    touches it.  The column operations build T densely, one list per
    column, and only its non-zero entries are kept.
    """
    m = [list(map(int, row)) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else (ncols or 0)
    order = list(range(nrows))  # the label of the row at each position
    signs = [1] * nrows
    ops = []
    t_cols = [[int(r == j) for r in range(ncols)] for j in range(ncols)]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        order[i], order[j] = order[j], order[i]

    def col_swap(i, j):
        for r in range(nrows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        t_cols[i], t_cols[j] = t_cols[j], t_cols[i]

    def row_addmul(i, j, q):
        # row i += q * row j
        mi, mj = m[i], m[j]
        for c in range(ncols):
            mi[c] += q * mj[c]
        ops.append((order[i], order[j], -q))

    def col_addmul(j, i, q):
        # col j += q * col i
        for r in range(nrows):
            m[r][j] += q * m[r][i]
        t_cols[j] = [a + q * b for a, b in zip(t_cols[j], t_cols[i])]

    def find_pivot(k):
        best = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                v = m[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == floor:
                        return best
        return best

    k = 0
    floor = 1
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
        # the pivot must divide the rest of the submatrix; one equal to the
        # floor does
        d = m[k][k]
        if abs(d) != floor:
            offender = _first_offender(m, k, d)
            if offender is not None:
                row_addmul(k, offender, 1)
                continue  # redo this k with the enlarged row
        floor = abs(d)
        if d < 0:
            signs[k] = -1
        k += 1

    # every pivot divides the submatrix left after it, so the later pivots
    # (integer combinations of its entries) keep the chain d_i | d_{i+1}
    diag = [abs(m[i][i]) for i in range(k)]
    t_cols = [{r: v for r, v in enumerate(col) if v} for col in t_cols]
    return SmithForm(nrows, ncols, diag, ops, order, signs, t_cols)


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
    the same four methods of the block's form.  The order of S is pivots,
    then the block, then the zero rows by row index; past the rank come
    the block's rows past its rank and the zero rows.
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
        _replay(self._ops, v)
        return ([p * v[i] for i, _, p, _ in self._pivots]
                + self._block.apply_s([v[i] for i in self._block_rows])
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
            for i, v in zip(self._block_rows, self._block.row_of_s(k - u)):
                g[i] = v
        else:
            g[self._zero_rows[k - u - m]] = 1
        _replay_transposed(self._ops, g)
        return g

    def apply_s_inv(self, w):
        """S^-1 w: the block's S^-1, then the inverse row operations in
        reverse order."""
        u, m = len(self._pivots), len(self._block_rows)
        v = [0] * self.nrows
        for (i, _, p, _), x in zip(self._pivots, w):
            v[i] = p * x
        for i, x in zip(self._block_rows, self._block.apply_s_inv(w[u:u + m])):
            v[i] = x
        for i, x in zip(self._zero_rows, w[u + m:]):
            v[i] = x
        _replay_inverse(self._ops, v)
        return v

    def apply_t(self, y):
        """T y: the block's T and the free columns, then back-substitution
        through the pivot rows, last pivot first."""
        u, n = len(self._pivots), len(self._block_cols)
        x = [0] * self.ncols
        for j, v in zip(self._block_cols, self._block.apply_t(y[u:u + n])):
            x[j] = v
        for j, v in zip(self._free_cols, y[u + n:]):
            x[j] = v
        for k in range(u - 1, -1, -1):
            _, j, p, row = self._pivots[k]  # x[j] is still 0 in the sum
            x[j] = y[k] - p * sum(v * x[c] for c, v in row.items())
        return x


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

