"""Band-limited matrix loops, Fourier polarization, and the Schwinger cocycle.

A loop polynomial X(z) = sum_{|m| <= M} X_m z^m acts on the truncated mode
space span{z^r e_a : -K <= r < K} by multiplication; the polarization puts
modes r >= 0 in H_+ and r < 0 in H_-.  The Schwinger cocycle is computed
two independent ways:

    trace form    c(X, Y) = Tr((M_X)_{-+}(M_Y)_{+-} - (M_Y)_{-+}(M_X)_{+-})
    residue form  c(X, Y) = sum_m m tr(X_{-m} Y_m)

and the two agree exactly for any truncation K >= max band, because the
off-diagonal blocks only couple modes within one band of the cut; the trace
form is therefore evaluated at that band, whatever K is asked for.  The
central extension bracket, the Dirac defect [D, M_X] = -i M_{X'} (D the
diagonal mode-number operator, X' the theta-derivative with
(X')_m = i m X_m), and the defect curvature F(X, Y) = [DX, DY] - D[X, Y]
round out the toolkit.  Since D is diagonal, [D, M] is formed entrywise as
(s - r) M_{sr}, never as a matrix product.

No full 2KN x 2KN operator is assembled: each computation builds only the
blocks it reads (the four off-diagonal blocks for the trace, the interior
modes for the defects), all through one builder of chosen rows and
columns.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, TruncationTooSmall


class LoopPolynomial:
    """Fourier coefficients m -> X_m (N x N complex) for |m| <= band."""

    __slots__ = ("size", "coeffs", "band")

    def __init__(self, size, coeffs, skew=False, tol=1e-10):
        self.size = int(size)
        clean = {}
        for m, mat in coeffs.items():
            arr = np.asarray(mat, dtype=complex)
            if arr.shape != (self.size, self.size):
                raise ShapeMismatch(
                    f"coefficient at mode {m} has shape {arr.shape}, "
                    f"expected {(self.size, self.size)}")
            if np.any(arr != 0):
                clean[int(m)] = arr.copy()
        self.coeffs = clean
        self.band = max((abs(m) for m in clean), default=0)
        if skew:
            for m in range(-self.band, self.band + 1):
                dev = np.max(np.abs(self.coeff(-m) + self.coeff(m).conj().T))
                if dev > tol:
                    raise ValueError(
                        f"skew-hermitian loop fails X_-m = -X_m^* at m={m}")

    @classmethod
    def _fresh(cls, size, modes, mats):
        """A loop from coefficients this class has just computed: ``mats``
        holds the (N, N) arrays of ``modes`` in order, stacked or listed.
        Unlike ``__init__`` it neither copies nor checks them; one scan
        over all of them drops the zero modes."""
        loop = cls.__new__(cls)
        loop.size = size
        nonzero = np.reshape(mats, (len(modes), size * size)).any(axis=1)
        loop.coeffs = {m: mat for m, mat, keep in zip(modes, mats, nonzero)
                       if keep}
        loop.band = max(map(abs, loop.coeffs), default=0)
        return loop

    def coeff(self, m):
        mat = self.coeffs.get(int(m))
        if mat is None:
            return np.zeros((self.size, self.size), dtype=complex)
        return mat

    def __add__(self, other):
        modes = list(set(self.coeffs) | set(other.coeffs))
        return self._fresh(self.size, modes,
                           [self.coeff(m) + other.coeff(m) for m in modes])

    def scale(self, factor):
        return self._fresh(self.size, list(self.coeffs),
                           [factor * mat for mat in self.coeffs.values()])

    def bracket(self, other):
        """Pointwise bracket: [X, Y]_m = sum_p X_p Y_{m-p} - Y_p X_{m-p}.

        Each sum takes one batched np.matmul over all mode pairs and adds
        its rows in ascending p, the same order for XY as for YX, so
        [X, X] is exactly 0."""
        if not self.coeffs or not other.coeffs:
            return LoopPolynomial(self.size, {})
        lo = min(self.coeffs) + min(other.coeffs)
        xy, yx = self._convolve(other), other._convolve(self)
        return self._fresh(self.size, range(lo, lo + len(xy)), xy - yx)

    def _convolve(self, other):
        """sum_p X_p Y_{m-p} for every m from min X + min Y up to
        max X + max Y, as one (modes, N, N) array: the products of each
        X_p with Y's coefficients from min Y to max Y (zero where Y has
        none) are added as one shifted slice, in ascending p."""
        xm, y0 = sorted(self.coeffs), min(other.coeffs)
        ys = np.zeros((max(other.coeffs) - y0 + 1, self.size, self.size),
                      dtype=complex)
        for m, mat in other.coeffs.items():
            ys[m - y0] = mat
        xs = np.stack([self.coeffs[m] for m in xm])
        out = np.zeros((xm[-1] - xm[0] + len(ys), self.size, self.size),
                       dtype=complex)
        for p, row in zip(xm, np.matmul(xs[:, None], ys[None, :])):
            out[p - xm[0]:p - xm[0] + len(ys)] += row
        return out

    def derivative(self):
        """Theta-derivative: (X')_m = i m X_m."""
        return self._fresh(self.size, list(self.coeffs),
                           [1j * m * mat for m, mat in self.coeffs.items()])

    def frobenius(self):
        return float(np.sqrt(sum(np.sum(np.abs(m) ** 2)
                                 for m in self.coeffs.values())))

    @classmethod
    def random(cls, rng, size, band, skew=False):
        if size < 1 or band < 0:
            raise ValueError(f"random loop wants size >= 1 and band >= 0, "
                             f"got size {size}, band {band}")
        coeffs = {}
        for m in range(-band, band + 1):
            coeffs[m] = rng.standard_normal((size, size)) \
                + 1j * rng.standard_normal((size, size))
        if skew:
            half = {m: coeffs[m] for m in range(1, band + 1)}
            out = {m: mat for m, mat in half.items()}
            for m, mat in half.items():
                out[-m] = -mat.conj().T
            diag = coeffs[0] - coeffs[0].conj().T
            out[0] = diag
            return cls(size, out, skew=True)
        return cls(size, coeffs)

    def __repr__(self):
        return f"LoopPolynomial(size={self.size}, band={self.band})"


def loop_scale(*loops):
    """Scale used by relative tolerances: max(1, product of Frobenius norms)."""
    prod = 1.0
    for x in loops:
        prod *= x.frobenius()
    return max(1.0, prod)


def _operator_entries(X, rows, cols):
    """The rows of output modes ``rows`` and the columns of input modes
    ``cols`` (ranges) of the multiplication operator of X: the block
    coupling input mode r to output mode s is X_{s-r}."""
    N = X.size
    mat = np.zeros((len(rows) * N, len(cols) * N), dtype=complex)
    for m, coeff in X.coeffs.items():
        for r in range(max(cols.start, rows.start - m),
                       min(cols.stop, rows.stop - m)):
            si, ri = (r + m - rows.start) * N, (r - cols.start) * N
            mat[si:si + N, ri:ri + N] = coeff
    return mat


def schwinger_trace(X, Y, K, allow_truncated=False):
    """Tr((M_X)_{-+}(M_Y)_{+-} - (M_Y)_{-+}(M_X)_{+-}) at truncation K.

    Exact (K-independent) once K >= threshold = max(band X, band Y, 1):
    the off-diagonal blocks only hold modes within one band of the cut, so
    only those four blocks are built, at truncation min(K, threshold), and
    the cost does not grow with K.  Below the threshold the call raises
    TruncationTooSmall unless allow_truncated is set, in which case the
    non-converged value at K is returned.
    """
    threshold = max(X.band, Y.band, 1)
    if K < threshold and not allow_truncated:
        raise TruncationTooSmall(
            f"truncation {K} below the exactness threshold {threshold}")
    K = min(K, threshold)
    if K < 1:
        raise TruncationTooSmall("truncation must be at least 1")
    minus, plus = range(-K, 0), range(K)

    def blocks(x):  # (M_x)_{-+} and (M_x)_{+-}
        return _operator_entries(x, minus, plus), _operator_entries(x, plus, minus)

    (xmp, xpm), (ymp, ypm) = blocks(X), blocks(Y)
    return complex(np.trace(xmp @ ypm - ymp @ xpm))


def schwinger_residue(X, Y):
    """sum_m m tr(X_{-m} Y_m): the residue (1/2 pi i) oint tr(X dY)."""
    total = 0.0 + 0.0j
    for m in set(Y.coeffs):
        if m and -m in X.coeffs:
            total += m * np.trace(X.coeffs[-m] @ Y.coeffs[m])
    return complex(total)


def cocycle_identity_defect(X, Y, Z):
    """|c([X,Y],Z) + c([Y,Z],X) + c([Z,X],Y)|; zero up to rounding."""
    return abs(schwinger_residue(X.bracket(Y), Z)
               + schwinger_residue(Y.bracket(Z), X)
               + schwinger_residue(Z.bracket(X), Y))


@dataclass(frozen=True)
class CentralElement:
    """A loop plus a central scalar: an element of the extended algebra."""
    loop: LoopPolynomial
    central: complex


def extension_bracket(u, v):
    """[(X, a), (Y, b)] = ([X, Y], c(X, Y)); the central coordinates of the
    inputs never appear, which is what 'central' means."""
    return CentralElement(u.loop.bracket(v.loop),
                          schwinger_residue(u.loop, v.loop))


def jacobi_defect(u, v, w):
    """Max norm of the cyclic Jacobi sum of the extension bracket."""
    s1 = extension_bracket(extension_bracket(u, v), w)
    s2 = extension_bracket(extension_bracket(v, w), u)
    s3 = extension_bracket(extension_bracket(w, u), v)
    loop_sum = s1.loop + s2.loop + s3.loop
    loop_norm = max((float(np.max(np.abs(mat)))
                     for mat in loop_sum.coeffs.values()), default=0.0)
    central_norm = abs(s1.central + s2.central + s3.central)
    return max(loop_norm, central_norm)


@dataclass(frozen=True)
class DiracDefect:
    """[D, M_X] next to its prediction -i M_{X'} on the interior modes
    -window..min(window, K - 1), away from the truncation edges: both
    matrices hold only those input and output modes, and
    interior_deviation is the largest entry of their difference."""
    commutator: np.ndarray
    predicted: np.ndarray
    window: int
    interior_deviation: float


def _commutator(x, rows, cols):
    """The rows of output modes ``rows`` and the columns of input modes
    ``cols`` (ranges) of [D, M_x]: D is diagonal, so entry (s, r) is
    s M_sr - M_sr r, one term of D M and one of M D."""
    m = _operator_entries(x, rows, cols)
    return np.repeat(rows, x.size)[:, None] * m - m * np.repeat(cols, x.size)


def dirac_defect(X, K):
    """Commutator of the mode-number operator with M_X, with prediction.

    Requires K >= band + 1; only the input and output modes with
    |mode| <= window = K - band are built, where the two agree.
    """
    if K < X.band + 1:
        raise TruncationTooSmall(
            f"truncation {K} too small for band {X.band} (need K >= band+1)")
    window = K - X.band
    inner = range(-window, min(window, K - 1) + 1)
    commutator = _commutator(X, inner, inner)
    predicted = -1j * _operator_entries(X.derivative(), inner, inner)
    dev = float(np.max(np.abs(commutator - predicted))) if commutator.size else 0.0
    return DiracDefect(commutator, predicted, window, dev)


@dataclass(frozen=True)
class DefectCurvature:
    """F(X, Y) = [[D,M_X],[D,M_Y]] - [D, M_[X,Y]] on interior modes."""
    matrix: np.ndarray
    window: int
    modes: tuple


def defect_curvature(X, Y, K):
    """Failure of X -> [D, M_X] to be a bracket morphism, truncation-safe.

    Products widen the band, so K >= 2*max(band) + 1 is required and only
    modes with |mode| <= K - 2*max(band) are kept; there the matrix equals
    its untruncated value.  Only those interior rows and columns are
    built and computed: the interior rows of [D, M_X] times the interior
    columns of [D, M_Y], and so on, and the interior block of [D, M_[X,Y]].
    """
    mb = max(X.band, Y.band)
    if K < 2 * mb + 1:
        raise TruncationTooSmall(
            f"truncation {K} too small for bands {X.band},{Y.band} "
            f"(need K >= {2 * mb + 1})")
    window = K - 2 * mb
    modes, inner = range(-K, K), range(-window, window + 1)
    matrix = (_commutator(X, inner, modes) @ _commutator(Y, modes, inner)
              - _commutator(Y, inner, modes) @ _commutator(X, modes, inner)
              - _commutator(X.bracket(Y), inner, inner))
    return DefectCurvature(matrix, window, tuple(inner))
