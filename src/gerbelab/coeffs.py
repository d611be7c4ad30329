"""Coefficient groups, finite groups, involutions, and central extensions.

Coefficient groups are the abelian value groups of twisted cochains:
integers, integers mod n, reals, and the circle R/Z (written additively,
values normalized to [0, 1)).  Finite groups are multiplication tables,
which is enough for every worked lifting example.  The semidirect product
G x| Z2 lives here once: semidirect_mul and semidirect_inv are the only
code that multiplies or inverts in it, and lifting reads them for both the
base group and an extension's hat group.  Central-extension bookkeeping
lives here too, with verify_extension as its one validity report.
"""

from dataclasses import dataclass

from .errors import UnsupportedCoefficient

INTEGERS = "integers"
MOD = "mod"
REALS = "reals"
CIRCLE = "circle"

IDENTITY = "identity"
NEGATION = "negation"


class CoefficientGroup:
    """An abelian value group with an order <= 2 involution.

    The involution is what an edge sign eps = -1 applies to a coefficient;
    it is either the identity or negation.  ``tolerance`` governs equality
    for the inexact kinds (reals, circle) and is 0 for the exact ones.
    """

    __slots__ = ("kind", "modulus", "involution", "tolerance")

    def __init__(self, kind, modulus=None, involution=IDENTITY, tolerance=0.0):
        if kind not in (INTEGERS, MOD, REALS, CIRCLE):
            raise UnsupportedCoefficient(f"unknown coefficient kind {kind!r}")
        if kind == MOD:
            if not isinstance(modulus, int) or modulus < 1:
                raise UnsupportedCoefficient("mod coefficients need modulus >= 1")
        elif modulus is not None:
            raise UnsupportedCoefficient(f"{kind} coefficients take no modulus")
        if involution not in (IDENTITY, NEGATION):
            raise UnsupportedCoefficient(f"unknown involution {involution!r}")
        tolerance = float(tolerance)
        if kind in (INTEGERS, MOD) and tolerance:
            raise UnsupportedCoefficient("exact coefficients have tolerance 0")
        if not tolerance >= 0:
            raise UnsupportedCoefficient(f"tolerance {tolerance} must be >= 0")
        if kind == CIRCLE and tolerance >= 0.5:
            # every value lies within 1/2 of an integer, so all would be zero
            raise UnsupportedCoefficient(f"circle tolerance {tolerance} is not below 1/2")
        self.kind = kind
        self.modulus = modulus
        self.involution = involution
        self.tolerance = tolerance

    @classmethod
    def integers(cls, involution=IDENTITY):
        return cls(INTEGERS, involution=involution)

    @classmethod
    def integers_mod(cls, n, involution=IDENTITY):
        return cls(MOD, modulus=n, involution=involution)

    @classmethod
    def reals(cls, involution=IDENTITY, tolerance=1e-9):
        return cls(REALS, involution=involution, tolerance=tolerance)

    @classmethod
    def circle(cls, involution=IDENTITY, tolerance=1e-9):
        return cls(CIRCLE, involution=involution, tolerance=tolerance)

    @property
    def exact(self):
        return self.kind in (INTEGERS, MOD)

    def zero(self):
        return 0 if self.exact else 0.0

    def normalize(self, value):
        if self.kind == INTEGERS:
            return int(value)
        if self.kind == MOD:
            return int(value) % self.modulus
        if self.kind == CIRCLE:
            return float(value) % 1.0
        return float(value)

    def add(self, a, b):
        return self.normalize(a + b)

    def neg(self, a):
        return self.normalize(-a)

    def is_zero(self, a):
        if self.exact:
            return self.normalize(a) == 0
        if self.kind == CIRCLE:
            d = float(a) % 1.0
            return min(d, 1.0 - d) <= self.tolerance
        return abs(a) <= self.tolerance

    def random(self, rng):
        if self.kind == INTEGERS:
            return int(rng.integers(-5, 6))
        if self.kind == MOD:
            return int(rng.integers(0, self.modulus))
        return self.normalize(float(rng.uniform(-2.0, 2.0)))

    def describe(self):
        name = {INTEGERS: "integers", REALS: "reals", CIRCLE: "circle"}.get(self.kind)
        if self.kind == MOD:
            name = f"mod {self.modulus}"
        return f"{name} involution={self.involution}"

    def __repr__(self):
        return f"CoefficientGroup({self.describe()})"

    def __eq__(self, other):
        if not isinstance(other, CoefficientGroup):
            return NotImplemented
        return (self.kind, self.modulus, self.involution) == \
               (other.kind, other.modulus, other.involution)

    def __hash__(self):
        return hash((self.kind, self.modulus, self.involution))


class FiniteGroup:
    """A finite group as a multiplication table over element indices.

    Group axioms are verified on construction (exhaustive associativity;
    fine at table sizes used here).
    """

    __slots__ = ("order", "table", "identity", "inverse")

    def __init__(self, table):
        table = tuple(tuple(int(x) for x in row) for row in table)
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square")
        if any(not 0 <= x < n for row in table for x in row):
            raise ValueError("table entries out of range")
        identity = None
        for e in range(n):
            if all(table[e][g] == g and table[g][e] == g for g in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity element")
        inverse = [None] * n
        for g in range(n):
            for h in range(n):
                if table[g][h] == identity:
                    inverse[g] = h
                    break
            if inverse[g] is None:
                raise ValueError(f"element {g} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise ValueError(
                            f"table not associative at ({a},{b},{c})")
        self.order = n
        self.table = table
        self.identity = identity
        self.inverse = tuple(inverse)

    @classmethod
    def cyclic(cls, n):
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(table)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


class Automorphism:
    """A group automorphism stored as a permutation of element indices."""

    __slots__ = ("group", "perm")

    def __init__(self, group, perm):
        perm = tuple(int(x) for x in perm)
        if sorted(perm) != list(range(group.order)):
            raise ValueError("automorphism image is not a permutation")
        for a in range(group.order):
            for b in range(group.order):
                if perm[group.mul(a, b)] != group.mul(perm[a], perm[b]):
                    raise ValueError(
                        f"map does not preserve multiplication at ({a},{b})")
        self.group = group
        self.perm = perm

    @classmethod
    def identity(cls, group):
        return cls(group, range(group.order))

    @classmethod
    def negation(cls, group):
        """g -> g^-1; an automorphism exactly when the group is abelian."""
        return cls(group, group.inverse)

    def __call__(self, g):
        return self.perm[g]

    def is_involution(self):
        return all(self.perm[self.perm[g]] == g for g in range(self.group.order))


@dataclass(frozen=True)
class SemidirectElement:
    """A pair (g, eps) in G x| Z2, eps in {+1, -1}."""
    g: int
    eps: int


def semidirect_mul(x, y, sigma):
    """(g, eps)(g', eps') = (g * sigma^eps(g'), eps * eps')."""
    group = sigma.group
    gy = sigma(y.g) if x.eps == -1 else y.g
    return SemidirectElement(group.mul(x.g, gy), x.eps * y.eps)


def semidirect_inv(x, sigma):
    group = sigma.group
    gi = group.inv(x.g)
    return SemidirectElement(sigma(gi) if x.eps == -1 else gi, x.eps)


def semidirect_group(group, sigma):
    """Materialize G x| Z2 as a FiniteGroup of order 2|G|.

    Element encoding: (g, +1) -> g and (g, -1) -> g + |G|.
    """
    if not sigma.is_involution():
        raise ValueError("semidirect product needs an involutive action")
    n = group.order

    def enc(el):
        return el.g + (n if el.eps == -1 else 0)

    def dec(i):
        return SemidirectElement(i % n, -1 if i >= n else 1)

    table = [[enc(semidirect_mul(dec(a), dec(b), sigma)) for b in range(2 * n)]
             for a in range(2 * n)]
    return FiniteGroup(table)


@dataclass(frozen=True)
class ExtensionReport:
    ok: bool
    violation: str = ""
    witness: tuple = ()
    message: str = ""


class CentralExtension:
    """Data for 1 -> A -> hat_group -> base_group -> 1 with A central.

    ``kernel`` lists the hat elements realizing the coefficient values
    0..m-1 of a cyclic kernel, so ``kernel[v]`` is the central element
    standing for v.  ``section`` is an arbitrary set-theoretic lift with
    q(s(h)) = h; it need not be a homomorphism.  Construction performs only
    shape checks; call ``verify_extension`` for the algebraic laws.
    """

    __slots__ = ("hat", "base", "projection", "section", "kernel",
                 "sigma_hat", "sigma", "_kernel_value")

    def __init__(self, hat, base, projection, section, kernel,
                 sigma_hat=None, sigma=None):
        self.hat = hat
        self.base = base
        self.projection = tuple(int(x) for x in projection)
        self.section = tuple(int(x) for x in section)
        self.kernel = tuple(int(x) for x in kernel)
        self.sigma_hat = sigma_hat or Automorphism.identity(hat)
        self.sigma = sigma or Automorphism.identity(base)
        if len(self.projection) != hat.order:
            raise ValueError("projection must list an image for every hat element")
        if len(self.section) != base.order:
            raise ValueError("section must list a lift for every base element")
        if len(set(self.kernel)) != len(self.kernel):
            raise ValueError("kernel elements must be distinct")
        self._kernel_value = {h: v for v, h in enumerate(self.kernel)}

    @property
    def kernel_order(self):
        return len(self.kernel)

    def q(self, h):
        return self.projection[h]

    def s(self, g):
        return self.section[g]

    def kernel_element(self, value):
        return self.kernel[value % self.kernel_order]

    def kernel_value(self, h):
        """Coefficient value of a central element, or None if h is not in A."""
        return self._kernel_value.get(h)

    def kernel_involution(self):
        """Involution induced on kernel values by the lifted action.

        Must be v -> v or v -> -v mod m; anything else is outside the
        coefficient model and raises UnsupportedCoefficient.
        """
        m = self.kernel_order
        images = []
        for v in range(m):
            w = self.kernel_value(self.sigma_hat(self.kernel[v]))
            if w is None:
                raise UnsupportedCoefficient(
                    "lifted involution does not preserve the kernel")
            images.append(w)
        if images == list(range(m)):
            return IDENTITY
        if images == [(-v) % m for v in range(m)]:
            return NEGATION
        raise UnsupportedCoefficient(
            f"kernel involution {images} is neither identity nor negation")

    def kernel_coefficients(self):
        return CoefficientGroup.integers_mod(self.kernel_order,
                                             involution=self.kernel_involution())


def verify_extension(ext):
    """Check the defining identities of a central extension, in order:

    kernel centrality, projection homomorphism + kernel exactness, the
    kernel labelling (kernel[0] is the identity and kernel[v] kernel[w] =
    kernel[(v + w) mod m]), section property q(s(g)) = g, and equivariance
    q(sigma_hat(h)) = sigma(q(h)).  Returns the first violated identity;
    the violation is named by a string (NotCentral, NotHomomorphism,
    BadSection or NotEquivariant).
    """
    hat, base = ext.hat, ext.base
    for a in ext.kernel:
        for h in range(hat.order):
            if hat.mul(a, h) != hat.mul(h, a):
                return ExtensionReport(
                    False, "NotCentral", (a, h),
                    f"kernel element {a} does not commute with {h}")
    for x in range(hat.order):
        for y in range(hat.order):
            if ext.q(hat.mul(x, y)) != base.mul(ext.q(x), ext.q(y)):
                return ExtensionReport(
                    False, "NotHomomorphism", (x, y),
                    f"q({x}*{y}) != q({x})*q({y})")
    if set(ext.projection) != set(range(base.order)):
        return ExtensionReport(False, "NotHomomorphism", (),
                               "projection is not surjective")
    ker = {h for h in range(hat.order) if ext.q(h) == base.identity}
    if ker != set(ext.kernel):
        return ExtensionReport(False, "NotHomomorphism", tuple(sorted(ker)),
                               "declared kernel differs from ker(q)")
    m, kernel = ext.kernel_order, ext.kernel
    if kernel[0] != hat.identity:
        return ExtensionReport(False, "NotHomomorphism", (0,),
                               f"kernel[0] = {kernel[0]} is not the identity")
    for v in range(m):
        for w in range(m):
            if hat.mul(kernel[v], kernel[w]) != kernel[(v + w) % m]:
                return ExtensionReport(
                    False, "NotHomomorphism", (v, w),
                    f"kernel[{v}]*kernel[{w}] != kernel[{(v + w) % m}]")
    for g in range(base.order):
        if ext.q(ext.s(g)) != g:
            return ExtensionReport(False, "BadSection", (g,),
                                   f"q(s({g})) = {ext.q(ext.s(g))} != {g}")
    for h in range(hat.order):
        if ext.q(ext.sigma_hat(h)) != ext.sigma(ext.q(h)):
            return ExtensionReport(
                False, "NotEquivariant", (h,),
                f"q(sigma_hat({h})) != sigma(q({h}))")
    return ExtensionReport(True)


def cyclic_central_extension(kernel_order, base_order, twist=IDENTITY):
    """The extension Z_k -> Z_{k*b} -> Z_b with q = reduction mod b.

    The section is s(x) = x and the kernel value v sits at b*v.  ``twist``
    selects the lifted involution (identity, or negation on both levels).
    """
    m, b = kernel_order, base_order
    hat = FiniteGroup.cyclic(m * b)
    base = FiniteGroup.cyclic(b)
    projection = [x % b for x in range(m * b)]
    section = list(range(b))
    kernel = [b * v for v in range(m)]
    if twist == NEGATION:
        sigma_hat = Automorphism.negation(hat)
        sigma = Automorphism.negation(base)
    else:
        sigma_hat = Automorphism.identity(hat)
        sigma = Automorphism.identity(base)
    return CentralExtension(hat, base, projection, section, kernel,
                            sigma_hat=sigma_hat, sigma=sigma)
