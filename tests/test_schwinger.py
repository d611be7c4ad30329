import numpy as np
import pytest

from gerbelab import schwinger
from gerbelab.schwinger import (CentralElement, LoopPolynomial,
                                cocycle_identity_defect, defect_curvature,
                                dirac_defect, extension_bracket, jacobi_defect,
                                loop_scale, schwinger_residue, schwinger_trace,
                                _operator_entries)
from gerbelab.errors import ShapeMismatch, TruncationTooSmall
from oracles import toeplitz_assembly


def rand_loop(rng, size, band):
    return LoopPolynomial.random(rng, size, band)


# Dense oracles: the formulas as written, on the full truncated space.

def dense_trace(x, y, K):
    mx, my = toeplitz_assembly(x, K), toeplitz_assembly(y, K)
    cut = K * x.size
    return complex(np.trace(mx[:cut, cut:] @ my[cut:, :cut]
                            - my[:cut, cut:] @ mx[cut:, :cut]))


def dense_mode_operator(K, N):
    return np.kron(np.diag(np.arange(-K, K, dtype=float)), np.eye(N))


def dense_commutator(K, m):
    d = dense_mode_operator(K, m.shape[0] // (2 * K))
    return d @ m - m @ d


def interior(matrix, K, N, window):
    """The rows and columns of modes |m| <= window of a 2KN x 2KN matrix."""
    idx = np.flatnonzero(np.abs(np.repeat(np.arange(-K, K), N)) <= window)
    return matrix[np.ix_(idx, idx)]


def polarization_blocks(loop, K):
    """(M_X)_{-+}, (M_X)_{+-} and (M_X)_{--} at truncation K: H_- holds the
    modes -K..-1 and H_+ the modes 0..K-1."""
    minus, plus = range(-K, 0), range(K)
    return (_operator_entries(loop, minus, plus),
            _operator_entries(loop, plus, minus),
            _operator_entries(loop, minus, minus))


# --- operator entries ------------------------------------------------------

def test_constant_loop_is_block_diagonal():
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    minus_plus, plus_minus, minus_minus = \
        polarization_blocks(LoopPolynomial(2, {0: c}), 3)
    assert np.all(minus_plus == 0)
    assert np.all(plus_minus == 0)
    assert np.allclose(minus_minus, np.kron(np.eye(3), c))


def test_single_mode_off_diagonal_convention():
    # X(z) = z: couples r to r+1; no (+ -> -) coupling at all
    minus_plus, plus_minus, _ = polarization_blocks(LoopPolynomial(1, {1: [[1.0]]}), 2)
    assert np.all(minus_plus == 0)
    assert np.count_nonzero(plus_minus) == 1
    # X(z) = 1/z: exactly one coupling from r=0 down to s=-1
    minus_plus, _, _ = polarization_blocks(LoopPolynomial(1, {-1: [[1.0]]}), 2)
    assert np.count_nonzero(minus_plus) == 1
    assert minus_plus[1, 0] == 1.0  # row: mode -1, col: mode 0


def test_assembly_matches_brute_force():
    """The full operator, and any row and column ranges of it, against the
    brute-force assembly over (s, r)."""
    rng = np.random.default_rng(0)
    for _ in range(10):
        size = int(rng.integers(1, 4))
        band = int(rng.integers(0, 5))
        K = band + int(rng.integers(1, 4))
        loop = rand_loop(rng, size, band)
        full = toeplitz_assembly(loop, K)
        modes = range(-K, K)
        assert np.array_equal(_operator_entries(loop, modes, modes), full)
        (r0, r1), (c0, c1) = (sorted(rng.integers(-K, K + 1, size=2) + K)
                              for _ in range(2))
        block = full[r0 * size:r1 * size, c0 * size:c1 * size]
        got = _operator_entries(loop, range(r0 - K, r1 - K), range(c0 - K, c1 - K))
        assert np.array_equal(got, block)


# --- trace and residue -----------------------------------------------------

def test_constant_loops_give_zero():
    c1 = LoopPolynomial(2, {0: np.eye(2)})
    c2 = LoopPolynomial(2, {0: [[0, 1], [1, 0]]})
    assert schwinger_trace(c1, c2, 1) == 0
    assert schwinger_residue(c1, c2) == 0


def test_single_mode_pair():
    rng = np.random.default_rng(1)
    e = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = LoopPolynomial(3, {1: e})
    y = LoopPolynomial(3, {-1: f})
    expected = -np.trace(e @ f)
    assert abs(schwinger_trace(x, y, 1) - expected) < 1e-12
    assert abs(schwinger_residue(x, y) - expected) < 1e-12


def test_antisymmetry_in_same_argument():
    rng = np.random.default_rng(2)
    x = rand_loop(rng, 3, 4)
    assert schwinger_trace(x, x, 4) == 0  # exact: the expression cancels
    assert abs(schwinger_residue(x, x)) <= 1e-12 * loop_scale(x, x)


def test_trace_equals_residue_and_truncation_independent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        x, y = rand_loop(rng, n, m), rand_loop(rng, n, m)
        scale = loop_scale(x, y)
        residue = schwinger_residue(x, y)
        values = [schwinger_trace(x, y, k) for k in (m, m + 1, m + 5)]
        assert max(abs(v - values[0]) for v in values) <= 1e-10 * scale
        assert abs(values[0] - residue) <= 1e-10 * scale


def test_truncation_guard():
    rng = np.random.default_rng(4)
    x, y = rand_loop(rng, 2, 4), rand_loop(rng, 2, 4)
    with pytest.raises(TruncationTooSmall):
        schwinger_trace(x, y, 3)
    value = schwinger_trace(x, y, 3, allow_truncated=True)
    assert isinstance(value, complex)
    for k in (0, -2):
        with pytest.raises(TruncationTooSmall, match="at least 1"):
            schwinger_trace(x, y, k, allow_truncated=True)


def test_trace_matches_dense_formula_and_is_equal_across_truncations():
    rng = np.random.default_rng(17)
    for _ in range(12):
        n = int(rng.integers(1, 4))
        b = int(rng.integers(1, 5))
        x, y = rand_loop(rng, n, b), rand_loop(rng, n, int(rng.integers(0, b + 1)))
        if rng.integers(2):
            x, y = y, x
        scale = loop_scale(x, y)
        values = [schwinger_trace(x, y, k) for k in (b, b + 1, 4 * b)]
        for k, value in zip((b, b + 1, 4 * b), values):
            assert abs(value - dense_trace(x, y, k)) <= 1e-12 * scale
        assert values[1] == values[0] and values[2] == values[0]


def spy_on_entries(monkeypatch):
    """Record the (rows, cols) mode ranges of every operator built."""
    seen = []
    real = schwinger._operator_entries

    def spy(loop, rows, cols):
        seen.append((rows, cols))
        return real(loop, rows, cols)

    monkeypatch.setattr(schwinger, "_operator_entries", spy)
    return seen


def off_diagonal(K):
    minus, plus = range(-K, 0), range(K)
    return [(minus, plus), (plus, minus)] * 2


def test_trace_builds_operators_at_the_band(monkeypatch):
    """Only the four off-diagonal blocks, at truncation min(K, threshold)."""
    rng = np.random.default_rng(18)
    x, y = rand_loop(rng, 2, 3), rand_loop(rng, 2, 2)
    seen = spy_on_entries(monkeypatch)
    for k in (3, 4, 12):
        schwinger_trace(x, y, k)
    schwinger_trace(x, y, 2, allow_truncated=True)
    assert seen == off_diagonal(3) * 3 + off_diagonal(2)
    seen.clear()
    constant = LoopPolynomial(2, {0: np.eye(2)})
    schwinger_trace(constant, constant, 5)
    assert seen == off_diagonal(1)


def test_trace_never_builds_a_mode_past_the_threshold(monkeypatch):
    rng = np.random.default_rng(22)
    seen = spy_on_entries(monkeypatch)
    for n, b in ((1, 1), (2, 3), (4, 2), (3, 8)):
        x, y = rand_loop(rng, n, b), rand_loop(rng, n, int(rng.integers(0, b + 1)))
        for k in range(1, 4 * b + 1):
            seen.clear()
            schwinger_trace(x, y, k, allow_truncated=True)
            assert len(seen) == 4
            for ranges in seen:
                for r in ranges:
                    assert -b <= r.start and r.stop <= b


def test_truncated_trace_matches_dense_formula():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        b = int(rng.integers(2, 6))
        x, y = rand_loop(rng, n, b), rand_loop(rng, n, b)
        scale = loop_scale(x, y)
        for k in range(1, b):
            value = schwinger_trace(x, y, k, allow_truncated=True)
            assert abs(value - dense_trace(x, y, k)) <= 1e-12 * scale


def test_bilinearity_and_antisymmetry_of_residue():
    rng = np.random.default_rng(5)
    x1, x2, y = (rand_loop(rng, 3, 3) for _ in range(3))
    a, b = 1.7 - 0.3j, -2.1 + 0.9j
    combo = x1.scale(a) + x2.scale(b)
    lhs = schwinger_residue(combo, y)
    rhs = a * schwinger_residue(x1, y) + b * schwinger_residue(x2, y)
    assert abs(lhs - rhs) <= 1e-10 * loop_scale(x1, x2, y)
    assert abs(schwinger_residue(x1, y)
               + schwinger_residue(y, x1)) <= 1e-12 * loop_scale(x1, y)


# --- cocycle identity and central extension --------------------------------

def test_identity_constant_triple():
    c = LoopPolynomial(2, {0: [[0, 1], [0, 0]]})
    assert cocycle_identity_defect(c, c, c) == 0


def test_identity_exact_small_modes():
    # z, 1/z, constant with small integer entries: exact in floats
    e = np.array([[0, 1], [1, 0]], dtype=complex)
    f = np.array([[1, 0], [0, -1]], dtype=complex)
    g = np.array([[0, 0], [1, 0]], dtype=complex)
    x = LoopPolynomial(2, {1: e})
    y = LoopPolynomial(2, {-1: f})
    z = LoopPolynomial(2, {0: g})
    assert cocycle_identity_defect(x, y, z) == 0


def test_identity_random():
    rng = np.random.default_rng(6)
    for _ in range(25):
        loops = [rand_loop(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
                 for _ in range(3)]
        loops = [LoopPolynomial(3, {m: np.pad(c, ((0, 3 - c.shape[0]),) * 2)
                                    for m, c in lp.coeffs.items()})
                 for lp in loops]
        defect = cocycle_identity_defect(*loops)
        assert defect <= 1e-10 * loop_scale(*loops)


def test_central_elements_bracket_to_zero():
    rng = np.random.default_rng(7)
    x = rand_loop(rng, 2, 3)
    zero = LoopPolynomial(2, {})
    central = CentralElement(zero, 2.5)
    out = extension_bracket(central, CentralElement(x, -1.0))
    assert out.loop.band == 0 and not out.loop.coeffs
    assert out.central == 0


def test_bracket_central_part_matches_cocycle():
    rng = np.random.default_rng(8)
    e = rng.standard_normal((2, 2))
    f = rng.standard_normal((2, 2))
    u = CentralElement(LoopPolynomial(2, {1: e}), 0)
    v = CentralElement(LoopPolynomial(2, {-1: f}), 0)
    assert abs(extension_bracket(u, v).central + np.trace(e @ f)) < 1e-12


def test_jacobi_defect_random():
    rng = np.random.default_rng(9)
    for _ in range(15):
        loops = [rand_loop(rng, 3, 4) for _ in range(3)]
        elems = [CentralElement(lp, complex(rng.standard_normal()))
                 for lp in loops]
        assert jacobi_defect(*elems) <= 1e-10 * loop_scale(*loops)


# --- Dirac defect ----------------------------------------------------------

def test_constant_loop_has_zero_defect():
    c = LoopPolynomial(2, {0: [[1, 2], [3, 4]]})
    result = dirac_defect(c, 3)
    assert np.all(result.commutator == 0)
    assert np.all(result.predicted == 0)


def test_single_mode_hand_assembly():
    # N=1, X = z at K=3: the interior modes are -2..2, and there [D, M_X]
    # has ones on the first subdiagonal
    result = dirac_defect(LoopPolynomial(1, {1: [[1.0]]}), 3)
    assert result.window == 2
    expected = np.zeros((5, 5), dtype=complex)
    for r in range(4):
        expected[r + 1, r] = 1.0
    assert np.array_equal(result.commutator, expected)
    assert np.array_equal(result.predicted, expected)
    assert result.interior_deviation == 0


def test_interior_equality_random():
    rng = np.random.default_rng(10)
    for _ in range(25):
        loop = rand_loop(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6)))
        result = dirac_defect(loop, loop.band + 3)
        assert result.interior_deviation <= 1e-12
        assert result.window == 3


def test_dirac_commutator_equals_dense_products():
    """Bit for bit: the interior of D M - M D and of -i M_{X'} on the
    brute-force assembly, and the largest entry of their difference."""
    rng = np.random.default_rng(20)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        b = int(rng.integers(0, 5))
        loop = rand_loop(rng, n, b)
        for k in range(b + 1, b + 4):
            result = dirac_defect(loop, k)
            assert result.window == k - b
            commutator = interior(dense_commutator(k, toeplitz_assembly(loop, k)),
                                  k, n, k - b)
            predicted = interior(-1j * toeplitz_assembly(loop.derivative(), k),
                                 k, n, k - b)
            assert np.array_equal(result.commutator, commutator)
            assert np.array_equal(result.predicted, predicted)
            assert result.interior_deviation == \
                np.max(np.abs(commutator - predicted))


def test_dirac_defect_builds_only_the_interior(monkeypatch):
    rng = np.random.default_rng(23)
    seen = spy_on_entries(monkeypatch)
    for n, b in ((1, 0), (2, 1), (3, 4), (2, 8)):
        loop = rand_loop(rng, n, b)
        for k in range(b + 1, 3 * b + 3):
            seen.clear()
            dirac_defect(loop, k)
            window = k - b
            assert len(seen) == 2
            for ranges in seen:
                assert ranges == (range(-window, min(window, k - 1) + 1),) * 2


def test_dirac_truncation_guard():
    loop = LoopPolynomial(1, {2: [[1.0]]})
    with pytest.raises(TruncationTooSmall):
        dirac_defect(loop, 2)


# --- defect curvature ------------------------------------------------------

def test_constant_pair_zero_curvature():
    c1 = LoopPolynomial(2, {0: [[0, 1], [0, 0]]})
    c2 = LoopPolynomial(2, {0: [[0, 0], [1, 0]]})
    result = defect_curvature(c1, c2, 3)
    assert np.all(result.matrix == 0)


def test_alternating():
    rng = np.random.default_rng(11)
    x = rand_loop(rng, 2, 2)
    result = defect_curvature(x, x, 5)
    assert np.max(np.abs(result.matrix)) <= 1e-12


def test_antisymmetry_and_bilinearity():
    rng = np.random.default_rng(12)
    x, y, z = (rand_loop(rng, 2, 2) for _ in range(3))
    k = 9
    fxy = defect_curvature(x, y, k).matrix
    fyx = defect_curvature(y, x, k).matrix
    assert np.max(np.abs(fxy + fyx)) <= 1e-10 * loop_scale(x, y)
    a, b = 0.7, -1.3
    combo = x.scale(a) + z.scale(b)
    lhs = defect_curvature(combo, y, k).matrix
    rhs = a * defect_curvature(x, y, k).matrix \
        + b * defect_curvature(z, y, k).matrix
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * loop_scale(x, y, z)


def test_matches_closed_form():
    """F(X, Y) equals -M_{[X',Y']} + i M_{[X',Y]} + i M_{[X,Y']} away from
    the truncation edges (expand [D, M] = -i M' twice)."""
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = rand_loop(rng, 2, int(rng.integers(1, 4)))
        y = rand_loop(rng, 2, int(rng.integers(1, 4)))
        mb = max(x.band, y.band)
        k = 2 * mb + 2
        result = defect_curvature(x, y, k)
        xp, yp = x.derivative(), y.derivative()
        closed = (-toeplitz_assembly(xp.bracket(yp), k)
                  + 1j * toeplitz_assembly(xp.bracket(y), k)
                  + 1j * toeplitz_assembly(x.bracket(yp), k))
        closed_interior = interior(closed, k, x.size, result.window)
        dev = np.max(np.abs(result.matrix - closed_interior))
        assert dev <= 1e-10 * loop_scale(x, y)


def test_curvature_matches_dense_products_on_the_interior():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        for b in (1, 2, 3):
            x = rand_loop(rng, n, b)
            y = rand_loop(rng, n, int(rng.integers(0, b + 1)))
            if rng.integers(2):
                x, y = y, x
            scale = loop_scale(x, y)
            for k in range(2 * b + 1, 2 * b + 5):
                mx = toeplitz_assembly(x, k)
                my = toeplitz_assembly(y, k)
                dx, dy = dense_commutator(k, mx), dense_commutator(k, my)
                full = dx @ dy - dy @ dx \
                    - dense_commutator(k, toeplitz_assembly(x.bracket(y), k))
                result = defect_curvature(x, y, k)
                expected = interior(full, k, n, k - 2 * b)
                assert result.window == k - 2 * b
                assert result.matrix.shape == expected.shape
                assert np.max(np.abs(result.matrix - expected)) <= 1e-12 * scale


def test_curvature_truncation_guard():
    rng = np.random.default_rng(14)
    x, y = rand_loop(rng, 2, 3), rand_loop(rng, 2, 3)
    with pytest.raises(TruncationTooSmall):
        defect_curvature(x, y, 6)


# --- loop bookkeeping ------------------------------------------------------

def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        LoopPolynomial(2, {0: np.eye(3)})


def test_caller_coefficients_are_copied_and_zero_modes_dropped():
    mat = np.eye(2, dtype=complex)
    x = LoopPolynomial(2, {3: mat, -1: np.zeros((2, 2)), 0: [[0, 1], [0, 0]]})
    mat[0, 0] = 5.0
    assert list(x.coeffs) == [3, 0] and x.band == 3
    assert np.array_equal(x.coeff(3), np.eye(2))


def _same_loop(got, want):
    """Same size, band, mode order and coefficient bits."""
    assert (got.size, got.band, list(got.coeffs)) == \
        (want.size, want.band, list(want.coeffs))
    for m, mat in want.coeffs.items():
        assert got.coeffs[m].shape == mat.shape
        assert got.coeffs[m].tobytes() == mat.tobytes()


def test_loops_the_class_builds_equal_the_init_route():
    """Sums, scales, derivatives and brackets, built without __init__'s
    copy and scan, equal the same coefficients passed through __init__,
    with the zero modes of cancellations and gaps dropped."""
    rng = np.random.default_rng(19)
    diag = LoopPolynomial(2, {m: np.diag(rng.standard_normal(2)) for m in (-1, 2)})
    gappy = LoopPolynomial(3, {m: rng.standard_normal((3, 3)) for m in (-4, -1, 3)})
    loops = [rand_loop(rng, 3, 2), gappy,
             LoopPolynomial(3, {5: rng.standard_normal((3, 3))}),
             LoopPolynomial(3, {0: rng.standard_normal((3, 3))}),
             LoopPolynomial.random(rng, 3, 2, skew=True), LoopPolynomial(3, {})]
    pairs = [(x, y) for x in loops for y in loops] + [(diag, diag.scale(2.0))]
    for x, y in pairs:
        lo = min(x.coeffs, default=0) + min(y.coeffs, default=0)
        xy = x._convolve(y) - y._convolve(x) if x.coeffs and y.coeffs else []
        _same_loop(x.bracket(y), LoopPolynomial(
            x.size, {lo + i: mat for i, mat in enumerate(xy)}))
        _same_loop(x + y, LoopPolynomial(x.size, {
            m: x.coeff(m) + y.coeff(m) for m in set(x.coeffs) | set(y.coeffs)}))
    for x in loops + [diag]:
        for factor in (0.5 - 2j, 0.0, -1):
            _same_loop(x.scale(factor), LoopPolynomial(
                x.size, {m: factor * mat for m, mat in x.coeffs.items()}))
        _same_loop(x.derivative(), LoopPolynomial(
            x.size, {m: 1j * m * mat for m, mat in x.coeffs.items()}))
        assert not (x + x.scale(-1)).coeffs
    assert not diag.bracket(diag.scale(2.0)).coeffs
    assert not LoopPolynomial(3, {0: np.eye(3)}).derivative().coeffs


def test_skew_flag():
    rng = np.random.default_rng(15)
    skew = LoopPolynomial.random(rng, 3, 2, skew=True)
    for m in range(-2, 3):
        assert np.allclose(skew.coeff(-m), -skew.coeff(m).conj().T)
    with pytest.raises(ValueError):
        LoopPolynomial(2, {1: np.eye(2)}, skew=True)


@pytest.mark.parametrize("size,band", [(0, 2), (2, -1), (-1, 0)])
def test_random_loop_rejects_empty_shapes(size, band):
    with pytest.raises(ValueError, match="size >= 1 and band >= 0"):
        LoopPolynomial.random(np.random.default_rng(0), size, band)


def test_random_constant_loop():
    x = LoopPolynomial.random(np.random.default_rng(0), 2, 0)
    assert x.band == 0 and set(x.coeffs) == {0}


def test_bracket_of_skew_loops_is_skew():
    rng = np.random.default_rng(16)
    x = LoopPolynomial.random(rng, 2, 2, skew=True)
    y = LoopPolynomial.random(rng, 2, 3, skew=True)
    LoopPolynomial(2, x.bracket(y).coeffs, skew=True)  # validates


def pairwise_bracket(x, y):
    """[X, Y] summed mode pair by mode pair, as the definition reads."""
    out = {}
    for p, xp in x.coeffs.items():
        for q, yq in y.coeffs.items():
            out[p + q] = out.get(p + q, 0) + xp @ yq - yq @ xp
    return out


def test_bracket_matches_the_pairwise_sum():
    """Dense and gappy mode sets, different bands, and an empty loop."""
    rng = np.random.default_rng(17)
    gappy = LoopPolynomial(3, {m: rng.standard_normal((3, 3))
                               for m in (-4, -1, 3)})
    loops = [rand_loop(rng, 3, 2), rand_loop(rng, 3, 0), gappy,
             LoopPolynomial(3, {5: rng.standard_normal((3, 3))}),
             LoopPolynomial(3, {})]
    for x in loops:
        for y in loops:
            got = x.bracket(y)
            expected = LoopPolynomial(3, pairwise_bracket(x, y))
            for m in set(got.coeffs) | set(expected.coeffs):
                assert np.max(np.abs(got.coeff(m) - expected.coeff(m))) <= \
                    1e-13 * loop_scale(x, y)


def test_bracket_of_a_loop_with_itself_is_exactly_zero():
    rng = np.random.default_rng(18)
    for n, b in ((2, 1), (4, 8), (16, 8)):
        x = LoopPolynomial.random(rng, n, b, skew=True)
        assert x.bracket(x).coeffs == {}


@pytest.mark.parametrize("n,b", [(1, 1), (2, 3), (4, 2)])
def test_curvature_equals_the_full_operator_formula(n, b):
    """Bit for bit: the interior of the commutators of the full 2KN x 2KN
    operators, as the curvature was first computed."""
    rng = np.random.default_rng(19)
    x, y = rand_loop(rng, n, b), rand_loop(rng, n, b)
    for k in (2 * b + 1, 2 * b + 3):
        window = k - 2 * b
        d = np.repeat(np.arange(-k, k), n)
        inner = np.flatnonzero(np.abs(d) <= window)
        mx, my = toeplitz_assembly(x, k), toeplitz_assembly(y, k)
        mxy = toeplitz_assembly(x.bracket(y), k)[np.ix_(inner, inner)]

        def rows(m):
            return d[inner][:, None] * m[inner] - m[inner] * d

        def cols(m):
            return d[:, None] * m[:, inner] - m[:, inner] * d[inner]

        expected = rows(mx) @ cols(my) - rows(my) @ cols(mx) \
            - (d[inner][:, None] * mxy - mxy * d[inner])
        result = defect_curvature(x, y, k)
        assert np.array_equal(result.matrix, expected)
        assert result.modes == tuple(range(-window, window + 1))
