from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbelab import snf as snf_module
from gerbelab.cech import TwistedLocalSystem
from gerbelab.coeffs import CoefficientGroup
from gerbelab.models import rp2_cross_circle, rp2_nerve
from gerbelab.snf import (SparseSmithForm, smith_normal_form, smith_normal_form_mod,
                          solve)
from oracles import integer_invariants, kernel_basis, matvec, reference_smith_form


def exact_det(matrix):
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            factor = m[r][c] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[c])]
    return det


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def check_form(matrix, ncols=None):
    snf = smith_normal_form(matrix, ncols=ncols)
    if matrix:
        d = matmul(matmul(snf.s, [list(r) for r in matrix]), snf.t)
        for i, row in enumerate(d):
            for j, v in enumerate(row):
                expected = snf.diag[i] if i == j and i < snf.rank else 0
                assert v == expected
        assert abs(exact_det(snf.s)) == 1
        assert abs(exact_det(snf.t)) == 1
        prod = matmul(snf.s, snf.s_inv)
        assert all(prod[i][j] == (1 if i == j else 0)
                   for i in range(len(prod)) for j in range(len(prod)))
    for i in range(snf.rank - 1):
        assert snf.diag[i + 1] % snf.diag[i] == 0
        assert snf.diag[i] > 0
    return snf



def check_reference(matrix, ncols, seed=0):
    """smith_normal_form against the reference elimination with explicit
    transforms: D, S, S^-1 and T equal entry for entry, and apply_s,
    row_of_s, apply_s_inv and apply_t equal the products with the dense
    transforms on unit and random vectors."""
    form = smith_normal_form(matrix, ncols=ncols)
    diag, s, s_inv, t = reference_smith_form(matrix, ncols=ncols)
    assert form.diag == diag
    assert form.s == s
    assert form.s_inv == s_inv
    assert form.t == t
    rng = np.random.default_rng(seed)
    nrows = len(matrix)
    for k in range(nrows):
        assert form.row_of_s(k) == s[k]
    vectors = [[int(i == k) for i in range(nrows)] for k in range(nrows)]
    for b in vectors + [rng.integers(-9, 10, nrows).tolist() for _ in range(3)]:
        assert form.apply_s(b) == matvec(s, b)
        assert form.apply_s_inv(b) == matvec(s_inv, b)
    vectors = [[int(i == k) for i in range(ncols)] for k in range(ncols)]
    for y in vectors + [rng.integers(-9, 10, ncols).tolist() for _ in range(3)]:
        assert form.apply_t(y) == matvec(t, y)
    return form


CASES = [
    [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
    [[1, 0], [0, 1]],
    [[0, 0], [0, 0]],
    [[6]],
    [[2, 0], [0, 3]],
    [[4, 0], [0, 6]],
    [[1, 2, 3]],
    [[1], [2], [3]],
    [[3, 1, -4], [2, -3, 1]],
]


@pytest.mark.parametrize("matrix", CASES)
def test_fixed_cases_match_sympy(matrix):
    snf = check_form(matrix)
    rank, torsion = integer_invariants(np.array(matrix))
    assert snf.rank == rank
    assert [d for d in snf.diag if d > 1] == torsion


def check_order(form, b, order):
    """``order`` from solve is the least m >= 1 with m b in the image, or 0
    when no multiple is (then not even lcm(d_i) b is)."""
    def solvable(m):
        return solve(form, [m * v for v in b])[1] is None
    if order == 0:
        assert not solvable(lcm(1, *form.diag))
        return
    assert solvable(order)
    primes = [p for p in range(2, order + 1)
              if order % p == 0 and all(p % q for q in range(2, p))]
    assert not any(solvable(order // p) for p in primes)


def sparse(matrix):
    """The {column: value} rows of a dense matrix."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def check_sparse_form(matrix, ncols, rng):
    """SparseSmithForm of a dense matrix's sparse rows against the Smith form
    contract, with S built a row and T a column at a time: S A T = D with
    S, T unimodular, S^-1 the inverse of S, apply_s agreeing with the rows
    of S, and solve returning an exact x or a valid functional.  The rows
    given are left as they were."""
    rows = sparse(matrix)
    form = SparseSmithForm(rows, ncols)
    assert rows == sparse(matrix)
    nrows = len(matrix)
    assert (form.nrows, form.ncols) == (nrows, ncols)
    s = [form.row_of_s(i) for i in range(nrows)]
    t = [list(c) for c in zip(*[form.apply_t([int(i == j) for i in range(ncols)])
                                for j in range(ncols)])]
    if nrows and ncols:
        d = matmul(matmul(s, [list(r) for r in matrix]), t)
        assert d == [[form.diag[i] if i == j and i < form.rank else 0
                      for j in range(ncols)] for i in range(nrows)]
    if nrows:
        assert abs(exact_det(s)) == 1
    if ncols:
        assert abs(exact_det(t)) == 1
    for i in range(nrows):
        unit = [int(i == j) for j in range(nrows)]
        assert matvec(s, form.apply_s_inv(unit)) == unit
    for _ in range(3):
        b = rng.integers(-9, 10, nrows).tolist()
        assert form.apply_s(b) == matvec(s, b)
        x, cert, order = solve(form, b)
        check_order(form, b, order)
        if cert is None:
            assert matvec(matrix, x) == b and order == 1
            continue
        assert x is None
        fun, mod, val = cert
        kills = [sum(f * row[j] for f, row in zip(fun, matrix)) for j in range(ncols)]
        pairing = sum(f * v for f, v in zip(fun, b))
        if mod:
            assert all(v % mod == 0 for v in kills) and pairing % mod == val % mod != 0
        else:
            assert not any(kills) and pairing == val != 0
        x, cert, order = solve(form, matvec(matrix, rng.integers(-4, 5, ncols).tolist()))
        assert cert is None and order == 1
    return form


@given(st.lists(st.one_of(st.just([0, 0, 0, 0]),
                          st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                          st.lists(st.integers(-1, 1), min_size=4, max_size=4)),
                min_size=0, max_size=5),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_random_matrices_match_sympy(matrix, scale, seed):
    # scale > 1 leaves no unit entry, so SparseSmithForm runs its dense block
    matrix = [[scale * x for x in row] for row in matrix]
    snf = check_form(matrix, ncols=4)
    check_reference(matrix, 4, seed)
    rank, torsion = integer_invariants(np.array(matrix))
    assert snf.rank == rank
    assert [d for d in snf.diag if d > 1] == torsion
    factors = check_sparse_form(matrix, 4, np.random.default_rng(seed)).diag
    assert len(factors) == rank
    assert [d for d in factors if d > 1] == torsion
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


RP2_D1 = [[row.get(j, 0) for j in range(15)] for row in
          TwistedLocalSystem(rp2_nerve(), CoefficientGroup.integers()).delta_matrix(1)]


@pytest.mark.parametrize("matrix, ncols", [([], 3), ([[], []], 0), ([[0, 0]] * 3, 2),
                                           (RP2_D1, 15)] + [(m, len(m[0])) for m in CASES])
def test_sparse_form_edge_shapes(matrix, ncols):
    form = check_sparse_form(matrix, ncols, np.random.default_rng(5))
    assert form.diag == smith_normal_form(matrix, ncols=ncols).diag


@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=4, max_size=4),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_solve_roundtrip(matrix, x):
    b = matvec(matrix, x)
    snf = smith_normal_form(matrix)
    got, cert, order = solve(snf, b)
    assert got is not None and order == 1
    assert matvec(matrix, got) == b
    assert cert is None


def test_unsolvable_has_valid_certificate():
    matrix = [[2, 0], [0, 2]]
    snf = smith_normal_form(matrix)
    x, cert, order = solve(snf, [1, 0])
    assert x is None and order == 2
    fun, mod, val = cert
    assert mod == 2 and val % 2 == 1
    # the functional kills the image mod 2
    for col in ([2, 0], [0, 2]):
        assert sum(f * c for f, c in zip(fun, col)) % mod == 0


def test_kernel_basis_spans_kernel():
    matrix = [[1, 1, 1], [1, 1, 1]]
    snf = smith_normal_form(matrix)
    basis = kernel_basis(snf)
    assert len(basis) == 2
    for vec in basis:
        assert matvec(matrix, vec) == [0, 0]


def test_empty_matrix_kernel_is_everything():
    snf = smith_normal_form([], ncols=3)
    assert len(kernel_basis(snf)) == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(2, 6),
       st.integers(0, 10 ** 6))
def test_smith_form_mod_n_solves_and_spans_kernel(nrows, ncols, n, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-3, 4, (nrows, ncols)).tolist()
    snf = smith_normal_form_mod(sparse(matrix), n, ncols)
    assert snf.ncols == ncols + nrows
    for vec in kernel_basis(snf):
        assert all(v % n == 0 for v in matvec(matrix, vec[:ncols]))
    # every b in the image mod n is solved, every other b is certified
    for b in np.ndindex(*(n,) * nrows):
        x, cert, order = solve(snf, list(b))
        check_order(snf, list(b), order)
        assert order and n % order == 0  # [A | nI] has full row rank
        if cert is None:
            assert all((v - w) % n == 0 for v, w in zip(matvec(matrix, x[:ncols]), b))
            continue
        assert x is None
        fun, mod, val = cert
        assert mod and n % mod == 0
        assert all(sum(f * a for f, a in zip(fun, col)) % mod == 0
                   for col in zip(*matrix))
        assert sum(f * v for f, v in zip(fun, b)) % mod == val != 0


DIAGONAL = [[[2, 0], [0, 3]], [[2, 0, 0], [0, 2, 0], [0, 0, 4]], [[3, 0], [0, 2]],
            [[-2, 0, 0], [0, -2, 0], [0, 0, 4]], [[4, 0, 0], [0, 2, 0], [0, 0, 2]],
            [[2, 0, 0], [0, 4, 0], [0, 0, 6]]]


@pytest.mark.parametrize("matrix", CASES + DIAGONAL + [RP2_D1])
@pytest.mark.parametrize("scale", [1, 2, 3])
def test_fixed_cases_match_reference(matrix, scale):
    """On diag(2, 3) and diag(2, 2, 4) a pivot equals the floor without
    dividing the rest, or divides it only as a multiple of the floor, so a
    wrong skip of the divisibility scan shows in D."""
    matrix = [[scale * x for x in row] for row in matrix]
    form = check_reference(matrix, len(matrix[0]))
    assert all(b % a == 0 for a, b in zip(form.diag, form.diag[1:]))


@given(st.lists(st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3]),
                         min_size=5, max_size=5), min_size=1, max_size=6),
       st.sampled_from([2, 3, 4, 6]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_mod_n_forms_match_reference(matrix, n, seed):
    """The dense [A | nI] of a random sparse A, as the solve mod n reads it."""
    form = smith_normal_form_mod(sparse(matrix), n, 5)
    dense = [row + [n * (i == j) for j in range(len(matrix))]
             for i, row in enumerate(matrix)]
    assert (form.diag, form.s, form.s_inv, form.t) == reference_smith_form(dense)
    check_reference(dense, len(dense[0]), seed)


@given(st.lists(st.lists(st.sampled_from([-2, 0, 2]), min_size=3, max_size=3),
                min_size=1, max_size=2),
       st.lists(st.tuples(st.integers(0, 1), st.sampled_from([-1, 1])),
                min_size=4, max_size=12),
       st.sampled_from([1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_tall_repeated_rows_match_reference(base, picks, scale):
    """Tall blocks without a unit: repeated +-2 rows, which leave many
    pivots equal to the floor."""
    matrix = [[scale * sign * x for x in base[i % len(base)]] for i, sign in picks]
    check_reference(matrix, 3)


def test_dense_mod_two_form_of_rp2_cross_circle_matches_reference():
    """The [d_1 | 2I] of RP^2 x S^1 that the lifting obstruction solves
    against: 180 x 288, with every recorded row operation replayed."""
    nerve = rp2_cross_circle()
    rows = TwistedLocalSystem(nerve, CoefficientGroup.integers_mod(2)).delta_matrix(1)
    form = smith_normal_form_mod(rows, 2, nerve.count(1))
    dense = [[row.get(j, 0) for j in range(nerve.count(1))]
             + [2 * (i == j) for j in range(len(rows))] for i, row in enumerate(rows)]
    diag, s, s_inv, t = reference_smith_form(dense)
    assert (form.diag, form.s, form.s_inv, form.t) == (diag, s, s_inv, t)
    b = np.random.default_rng(3).integers(0, 2, len(rows)).tolist()
    assert form.apply_s(b) == matvec(s, b)
    assert form.apply_s_inv(b) == matvec(s_inv, b)
    y = np.random.default_rng(4).integers(-2, 3, form.ncols).tolist()
    assert form.apply_t(y) == matvec(t, y)


def test_pivot_equal_to_the_floor_skips_the_divisibility_scan(monkeypatch):
    """Only a pivot whose absolute value differs from the floor is checked
    against the rest of the submatrix: on diag(-2, -2, 4) that is the first
    and the last pivot, and never the second, whose -2 equals the floor 2
    in absolute value."""
    scanned = []
    scan = snf_module._first_offender

    def spy(m, k, d):
        scanned.append(k)
        return scan(m, k, d)

    monkeypatch.setattr(snf_module, "_first_offender", spy)
    form = smith_normal_form([[-2, 0, 0], [0, -2, 0], [0, 0, 4]])
    assert form.diag == [2, 2, 4]
    assert scanned == [0, 2]
