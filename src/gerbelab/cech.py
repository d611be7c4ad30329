"""Twisted Cech cochain complexes on finite nerves.

A twisted local system is a coefficient group together with a Z2-valued
edge cocycle eps acting through the group's involution.  The twisted
coboundary on an ordered simplex (i0, ..., i_{k+1}) is

    (dc)(i0..i_{k+1}) = eps_{i0 i1} . c(i1..i_{k+1})
                        + sum_{r=1}^{k+1} (-1)^r c(i0.. ^i_r ..i_{k+1}),

i.e. only the leading face is transported, along the first edge.  This is
the unique convention for which d o d = 0 and for which the degree-2
cocycle equation written multiplicatively is a_ijk a_ikl =
sigma^{eps_ij}(a_jkl) a_ijl, the quadruple-overlap identity of lifting
obstructions.

The sign rule is written once, in TwistedLocalSystem.delta_matrix: the
cached sparse rows of d_k, one {k-simplex index: +-1} dict per
(k+1)-simplex in face order.  coboundary evaluates those rows, and each
degree has one cached sparse integer Smith form S d_k T = D of them
(snf.SparseSmithForm): one unit-pivot elimination whose row operations are
recorded, so S, S^-1 and T are applied to vectors and never built.
Cohomology over the integers, mod n and the reals is read off its
invariant factors in exact arithmetic (universal coefficients for mod n;
the Smith rank for reals).  Whether a cocycle is a coboundary is read off
the form of d_{k-1}: over Z in exact arithmetic, over Z/n from the dense
form of [d_{k-1} | nI], over R and R/Z by one rule past the rank,
where (S z)_i must be a multiple of a period, 0 for R and 1 for R/Z, to
within tol |S_i|_1 max(1, |z|_inf).  When it is not, the integral row S_i
is the certificate; over Z and Z/n the same scan of S z gives the order
of the class.  The Bockstein route (lift, take the coboundary, read
off an integer cocycle: the twisted Dixmier-Douady construction) names a
circle-valued class that is not trivial.  A system made by
with_coefficients shares its parent's cache of matrices and Smith forms
when their integer coboundaries agree.
"""

from dataclasses import dataclass, field, replace
from math import gcd, isfinite
from typing import Optional

from . import snf as _snf
from .coeffs import CIRCLE, INTEGERS, MOD, NEGATION, REALS, CoefficientGroup
from .errors import (DegreeOverflow, LiftNotIntegral, NotACocycle,
                     NotU1Cocycle, UnsupportedCoefficient)
from .nerve import MAX_DIM, faces


def edge_signs(nerve, eps):
    """One +-1 per edge of ``nerve``, in edge order, read from None (every
    sign +1), a dict over ascending edges (unlisted edges +1) or a sequence
    listing every edge.  Raises ValueError on a sequence of the wrong
    length or a value other than +-1; the triangle law is the caller's."""
    edges = nerve.simplices[1]
    if eps is None:
        return (1,) * len(edges)
    if isinstance(eps, dict):
        signs = tuple(int(eps.get(e, 1)) for e in edges)
    else:
        signs = tuple(int(x) for x in eps)
        if len(signs) != len(edges):
            raise ValueError("eps length must match the number of edges")
    if any(x not in (1, -1) for x in signs):
        raise ValueError("eps values must be +1 or -1")
    return signs


class TwistedLocalSystem:
    """A nerve, a coefficient group, and an edge-sign cocycle eps.

    ``eps`` maps each 1-simplex (ascending edge) to +-1 and must satisfy
    eps_ij eps_jk = eps_ik on every triangle; violations raise NotACocycle.
    """

    __slots__ = ("nerve", "coeff", "eps", "_cache")

    def __init__(self, nerve, coeff, eps=None):
        self.nerve = nerve
        self.coeff = coeff
        self.eps = edge_signs(nerve, eps)
        self._cache = {}
        for (i, j, k) in nerve.simplices[2]:
            if self.eps_of(i, j) * self.eps_of(j, k) != self.eps_of(i, k):
                raise NotACocycle(f"eps fails the cocycle law on triangle {(i, j, k)}")

    def eps_of(self, i, j):
        """Edge sign, order-insensitive (a sign is its own inverse)."""
        if i == j:
            return 1
        e = (i, j) if i < j else (j, i)
        return self.eps[self.nerve.index_of(e)]

    def with_coefficients(self, coeff):
        """The same nerve and twist over ``coeff``; the twist, checked
        when this system was made, is not checked again.  The cache is
        shared when the integer coboundary is the same, i.e. the involution
        is negation in both systems or in neither."""
        other = object.__new__(TwistedLocalSystem)
        other.nerve, other.coeff, other.eps = self.nerve, coeff, self.eps
        same = (coeff.involution == NEGATION) == (self.coeff.involution == NEGATION)
        other._cache = self._cache if same else {}
        return other

    def twist_is_trivial(self):
        return all(x == 1 for x in self.eps)

    def delta_matrix(self, k):
        """The twisted coboundary d_k as sparse integer rows, one per
        (k+1)-simplex: {k-simplex index: coefficient}, faces in face order.

        The leading-face entry is eps_{i0 i1} when the involution is
        negation and +1 otherwise; face r contributes (-1)^r.  d_{-1} is
        the zero map into the 0-cochains (empty rows), so degree 0 solves
        like the rest.
        """
        key = ("delta", k)
        if key not in self._cache:
            if not -1 <= k <= MAX_DIM:
                raise DegreeOverflow(f"no coboundary out of degree {k}")
            if k == -1:
                rows = [{} for _ in self.nerve.simplices[0]]
            else:
                index = self.nerve.index_of
                twist_signs = self.coeff.involution == NEGATION
                rows = []
                for s in self.nerve.simplices[k + 1] if k < MAX_DIM else ():
                    lead = self.eps_of(s[0], s[1]) if twist_signs else 1
                    rows.append({index(f): (-1) ** r if r else lead
                                 for r, f in enumerate(faces(s))})
            self._cache[key] = rows
        return self._cache[key]

    def delta_snf(self, k):
        """Sparse integer Smith form of d_k (snf.SparseSmithForm): its
        invariant factors give H^k, and its recorded elimination solves and
        certifies over Z, R and R/Z."""
        key = ("snf", k)
        if key not in self._cache:
            self._cache[key] = _snf.SparseSmithForm(
                self.delta_matrix(k), ncols=self.nerve.count(k))
        return self._cache[key]

    def delta_snf_mod(self, k):
        """Dense Smith form of [d_k | n I] (snf.smith_normal_form_mod), read
        only by is_coboundary's solve of d_k x = b mod n.  It stores D, the
        recorded row operations that apply S and S^-1, and the non-zero
        entries of T; its dense S, S^-1 and T are built only when read."""
        n = self.coeff.modulus
        key = ("snf_mod", k, n)
        if key not in self._cache:
            self._cache[key] = _snf.smith_normal_form_mod(
                self.delta_matrix(k), n, self.nerve.count(k))
        return self._cache[key]


@dataclass(frozen=True)
class Cochain:
    """A degree-k cochain: one coefficient per canonical k-simplex."""
    degree: int
    values: tuple

    def __len__(self):
        return len(self.values)


def cochain(sys, degree, values):
    """A cochain over the system's coefficients.  Raises ValueError on the
    wrong number of values or on a NaN or infinite real or circle value."""
    vals = tuple(sys.coeff.normalize(v) for v in values)
    if len(vals) != sys.nerve.count(degree):
        raise ValueError(
            f"degree-{degree} cochain needs {sys.nerve.count(degree)} values, "
            f"got {len(vals)}")
    if not sys.coeff.exact and not all(isfinite(v) for v in vals):
        raise ValueError(f"degree-{degree} cochain has a non-finite value")
    return Cochain(degree, vals)


def zero_cochain(sys, degree):
    return Cochain(degree, tuple(sys.coeff.zero() for _ in range(sys.nerve.count(degree))))


def cochain_from_dict(sys, degree, mapping, default=0):
    vals = [mapping.get(s, default) for s in sys.nerve.simplices[degree]]
    return cochain(sys, degree, vals)


def cochain_add(sys, a, b):
    if a.degree != b.degree:
        raise ValueError("cochain degrees differ")
    add = sys.coeff.add
    return Cochain(a.degree, tuple(add(x, y) for x, y in zip(a.values, b.values)))


def cochain_neg(sys, a):
    neg = sys.coeff.neg
    return Cochain(a.degree, tuple(neg(x) for x in a.values))


def cochain_sub(sys, a, b):
    return cochain_add(sys, a, cochain_neg(sys, b))


def random_cochain(sys, degree, rng):
    return Cochain(degree, tuple(sys.coeff.random(rng)
                                 for _ in range(sys.nerve.count(degree))))


def coboundary(c, sys):
    """The twisted coboundary, read off the rows of delta_matrix: each value
    is the normalized leading term, then each further face added or
    subtracted and normalized in turn.  Raises DegreeOverflow past degree
    3; the coboundary of the (-1)-cochain is zero, as d_{-1} is."""
    k = c.degree
    if k > MAX_DIM - 1:
        raise DegreeOverflow(f"coboundary of degree {k} exceeds the dimension cap")
    norm, values = sys.coeff.normalize, c.values
    out = []
    for row in sys.delta_matrix(k):
        v = None
        for j, a in row.items():
            v = norm(a * values[j] if v is None else v + a * values[j])
        out.append(sys.coeff.zero() if v is None else v)
    return Cochain(k + 1, tuple(out))


def is_cocycle(c, sys):
    if c.degree >= MAX_DIM:
        return True  # no simplices above the cap to obstruct
    return all(sys.coeff.is_zero(v) for v in coboundary(c, sys).values)


@dataclass(frozen=True)
class CohomologyGroup:
    """Free rank and torsion invariants (integer coefficients), or the
    invariant-factor list of a finite module (mod-n), or a real dimension."""
    free_rank: int
    torsion: tuple
    ring: str

    def describe(self):
        if self.ring == INTEGERS:
            return f"free {self.free_rank}, torsion {list(self.torsion)}"
        if self.ring == REALS:
            return f"dim {self.free_rank}"
        return f"dim {len(self.torsion)} (factors {list(self.torsion)})"

    @property
    def dimension(self):
        """Vector-space dimension; meaningful for reals and prime moduli."""
        if self.ring == REALS:
            return self.free_rank
        return len(self.torsion)

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion


def cohomology(sys, k):
    """H^k of the twisted system, from the invariant factors of d_{k-1}
    and d_k (exact integer arithmetic for every ring).

    With c_k the number of k-simplices and r_j the rank of d_j, the free
    rank is c_k - r_k - r_{k-1}.  Integers: that free rank and the factors
    of d_{k-1} above 1.  Reals: that free rank as the dimension.  Mod n,
    by universal coefficients (Hatcher, Algebraic Topology, Thm 3A.3):
    (Z/n)^free plus Z/gcd(d, n) for every factor d of d_{k-1} (the
    cokernel part) and of d_k (the kernel part), brought to invariant-factor
    form by pairwise gcd/lcm (for prime n just count them for the
    dimension).  Circle coefficients are unsupported here; use the
    Bockstein route instead.
    """
    kind = sys.coeff.kind
    if kind == CIRCLE:
        raise UnsupportedCoefficient(
            "circle-valued cohomology: use bockstein_dd / u1_is_coboundary")
    n_k = sys.nerve.count(k)
    if n_k == 0:
        return CohomologyGroup(0, (), kind)
    out = sys.delta_snf(k).diag
    into = sys.delta_snf(k - 1).diag
    free = n_k - len(out) - len(into)
    if kind == INTEGERS:
        return CohomologyGroup(free, tuple(d for d in into if d > 1), kind)
    if kind == REALS:
        return CohomologyGroup(free, (), kind)
    n = sys.coeff.modulus
    orders = [d for d in [n] * free + [gcd(f, n) for f in into + out] if d > 1]
    # Z/a + Z/b = Z/gcd + Z/lcm; the sweep leaves a divisibility chain
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            g = gcd(orders[i], orders[j])
            orders[i], orders[j] = g, orders[i] // g * orders[j]
    return CohomologyGroup(0, tuple(d for d in orders if d > 1), MOD)


@dataclass(frozen=True)
class Certificate:
    """Verifiable evidence that a cocycle is not a coboundary.

    ``functional`` is integral, has one entry per k-simplex, and pairs to
    ``pairing`` != 0 (mod ``modulus``; modulus 0 means over Z or R) with
    the cocycle while killing every coboundary.  Circle certificates of
    stage "real-vs-integral" have modulus 1: their real pairing is not an
    integer.
    """
    functional: tuple
    modulus: int
    pairing: object
    stage: str = "linear"


@dataclass(frozen=True)
class CoboundaryResult:
    """A solve of d b = z: the primitive b or a certificate.  ``order`` is
    the order of [z] over Z and Z/n, read in the same scan (1 when
    trivial, 0 when infinite); None over R and R/Z."""
    trivial: bool
    primitive: Optional[Cochain] = None
    certificate: Optional[Certificate] = None
    order: Optional[int] = None


def is_coboundary(z, sys):
    """Solve d b = z, or certify that no primitive exists.

    Z, R and R/Z read the cached sparse Smith form S d_{k-1} T = D, with
    nonzero factors d_i for i < r; S z is the recorded row operations
    applied forward, T y a back-substitution, and a row S_i is formed only
    for a certificate.  Z takes one exact pass of snf.solve over it, Z/n
    one over the dense form of [d_{k-1} | nI] (the primitive cut to its
    first count(k-1) entries; that form has full row rank, so every row is
    below the rank).  The same pass gives the result's ``order``, the order
    of [z] in H^k: the lcm of d_i / gcd((S z)_i mod d_i, d_i) below the
    rank, or 0 (infinite) when a row past the rank is nonzero.  R and R/Z
    (u1_is_coboundary) share one reading with a period p, 0 for R and 1
    for R/Z: z is exact when every (S z)_i with i >= r is within
    tol |S_i|_1 max(1, |z|_inf) of a multiple of p, where
    tol = max(tolerance, 1e-12) for R and max(tolerance, 1e-9) for R/Z.
    The primitive is then T y with y_i = (S z)_i / d_i, and
    AssertionError is raised unless d(T y) is within tol max(1, |z|_inf)
    of z or of z - S^-1 e mod p, e being the past-rank part of S z less
    its multiples of p.  Otherwise the integral row S_i, which kills
    d_{k-1} exactly, is the certificate, of modulus p.  d_{-1} is zero, so
    in degree 0 the primitive is the empty (-1)-cochain and a certificate
    is the indicator of the first vertex where z is not zero.  Raises
    NotACocycle when z is not closed; for R/Z that is the NotU1Cocycle of
    u1_is_coboundary's one pass over d(lift).
    """
    kind = sys.coeff.kind
    if kind == CIRCLE:
        return u1_is_coboundary(z, sys)
    if not is_cocycle(z, sys):
        raise NotACocycle(f"degree-{z.degree} cochain is not closed")
    k = z.degree
    if kind in (INTEGERS, MOD):
        s = sys.delta_snf(k - 1) if kind == INTEGERS else sys.delta_snf_mod(k - 1)
        x, cert, order = _snf.solve(s, z.values)
        if cert is not None:
            fun, mod, val = cert
            return CoboundaryResult(False, None, Certificate(tuple(fun), mod, val), order)
        x = x[:sys.nerve.count(k - 1)]
        return CoboundaryResult(True, cochain(sys, k - 1, x), None, 1)
    return _solve_past_rank(z, sys, 0, max(sys.coeff.tolerance, 1e-12))


def _solve_past_rank(z, sys, period, tol):
    """The R and R/Z reading of is_coboundary, modulo ``period`` (0 or 1).

    The rule past the rank is universal coefficients (Hatcher, Algebraic
    Topology, Thm 3A.3).  With e the past-rank part of S z less its
    multiples of the period, the primitive has d b = z - S^-1 e mod the
    period; the self-check holds d b to that, or to z, within tol
    max(1, |z|_inf).  A row S_i is built only when (S z)_i misses by more
    than tol max(1, |z|_inf), since |S_i|_1 >= 1.
    """
    k = z.degree
    s = sys.delta_snf(k - 1)
    lift = [float(v) for v in z.values]
    bound = tol * max([1.0] + [abs(v) for v in lift])

    def rem(v):  # v less its nearest multiple of the period
        return v - period * round(v / period) if period else v

    sz = s.apply_s(lift)
    for i in range(s.rank, s.nrows):
        off = abs(rem(sz[i]))
        if off > bound:
            row = s.row_of_s(i)
            if off > bound * sum(map(abs, row)):
                return CoboundaryResult(False, None, Certificate(
                    tuple(row), period, sz[i] % period if period else sz[i],
                    stage="real-vs-integral" if period else "linear"))
    y = [sz[i] / s.diag[i] for i in range(s.rank)] + [0.0] * (s.ncols - s.rank)
    primitive = cochain(sys, k - 1, s.apply_t(y))
    db = coboundary(primitive, sys).values
    miss = [rem(x - v) for x, v in zip(db, lift)]
    if any(not abs(m) <= bound for m in miss):  # e was past tol: subtract S^-1 e
        fix = s.apply_s_inv([0.0] * s.rank + [rem(v) for v in sz[s.rank:]])
        if any(not abs(rem(m + f)) <= bound for m, f in zip(miss, fix)):
            raise AssertionError(f"degree-{k} primitive fails d b = z")
    return CoboundaryResult(True, primitive, None)


def u1_is_coboundary(z, sys):
    """Triviality test for circle-valued cocycles from one integer Smith form.

    The lift zh of z to [0,1) must have a coboundary n = d(zh) that is
    integral within tolerance (else NotU1Cocycle) and closed once rounded
    (else LiftNotIntegral).  z is then a coboundary mod 1
    exactly when is_coboundary's reading with period 1 finds every (S zh)_i
    past the rank an integer: S zh = D y + m with m integral, and b = T y
    has d b = zh - S^-1 m.  Otherwise the row S_i pairs with zh to a
    non-integer.  The certificate's stage comes from the Bockstein cocycle
    n: when n is not an integral coboundary, its certificate is returned as
    "dixmier-douady"; else the row S_i is returned as "real-vs-integral".
    """
    if sys.coeff.kind != CIRCLE:
        raise UnsupportedCoefficient("u1_is_coboundary needs circle coefficients")
    n_cochain, int_sys = _integral_coboundary_of_lift(z, sys)
    result = _solve_past_rank(z, sys, 1, max(sys.coeff.tolerance, 1e-9))
    if result.trivial:
        return result
    stage1 = is_coboundary(n_cochain, int_sys)
    if stage1.trivial:
        return result
    return CoboundaryResult(False, None, replace(stage1.certificate, stage="dixmier-douady"))


def _integral_coboundary_of_lift(z, sys):
    """Round d(lift) to the integer cocycle it must be; also return the
    integer-coefficient system carrying the same twist.

    One real pass sums d(lift); each value must be zero mod 1 in the
    circle's own sense (coeff.is_zero), else NotU1Cocycle.  The rounded
    values must then be closed, else LiftNotIntegral.
    """
    k = z.degree
    lift = Cochain(k, tuple(float(v) for v in z.values))
    real_sys = sys.with_coefficients(
        CoefficientGroup.reals(involution=sys.coeff.involution))
    n_int = []
    for val in coboundary(lift, real_sys).values if k < MAX_DIM else ():
        if not sys.coeff.is_zero(val):
            raise NotU1Cocycle(f"degree-{k} cochain is not closed modulo 1")
        n_int.append(int(round(val)))
    int_sys = sys.with_coefficients(
        CoefficientGroup.integers(involution=sys.coeff.involution))
    n_cochain = Cochain(k + 1, tuple(n_int))
    if k + 1 <= MAX_DIM - 1 and not is_cocycle(n_cochain, int_sys):
        raise LiftNotIntegral("rounded coboundary is not closed")
    return n_cochain, int_sys


@dataclass(frozen=True)
class BocksteinResult:
    """Integer 3-cocycle of a circle-valued 2-cocycle, with its class data."""
    cocycle: Cochain
    system: TwistedLocalSystem  # integer-coefficient system with the same twist
    trivial: bool
    primitive: Optional[Cochain]
    certificate: Optional[Certificate]
    group: CohomologyGroup = field(repr=False)


def bockstein_dd(a, sys):
    """Twisted Dixmier-Douady map: lift to [0,1), apply d, read integers.

    ``a`` must be a circle-valued 2-cocycle (mod 1, within tolerance).
    Returns the integer 3-cocycle together with its class in H^3 of the
    twisted integer system: a primitive when trivial, a certificate when
    not.
    """
    if sys.coeff.kind != CIRCLE:
        raise UnsupportedCoefficient("bockstein_dd needs circle coefficients")
    if a.degree != 2:
        raise DegreeOverflow("the Dixmier-Douady map takes degree-2 cocycles")
    n_cochain, int_sys = _integral_coboundary_of_lift(a, sys)
    result = is_coboundary(n_cochain, int_sys)
    group = cohomology(int_sys, 3)
    return BocksteinResult(n_cochain, int_sys, result.trivial,
                           result.primitive, result.certificate, group)
