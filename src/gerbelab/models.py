"""Standard nerves used throughout the test corpus and the CLI samples.

All builders return plain Nerve objects: the three-arc circle, boundaries
of simplices (sphere models), the minimal 6-vertex triangulation of the
real projective plane, and ordered products such as RP^2 x S^1.  The
order-2 witnesses read T e_i for a factor d_i = 2 of a sparse Smith form.
"""

from itertools import combinations

from . import cech
from .cech import TwistedLocalSystem
from .coeffs import CoefficientGroup
from .nerve import Nerve, build_nerve

# Facets of the 6-vertex RP^2 (antipodal quotient of the icosahedron).
RP2_TRIANGLES = (
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
)


def circle_nerve():
    """Nerve of a three-arc cover of the circle: a hollow triangle."""
    return build_nerve([(0, 1), (1, 2), (0, 2)], vertex_count=3)


def boundary_simplex(n):
    """The boundary of the (n+1)-simplex, a model of the n-sphere (n <= 3)."""
    verts = range(n + 2)
    return build_nerve(list(combinations(verts, n + 1)), vertex_count=n + 2)


def rp2_nerve():
    """Minimal 6-vertex triangulation of the real projective plane."""
    return build_nerve(RP2_TRIANGLES, vertex_count=6)


def mobius_twist():
    """Edge signs on the circle nerve with product -1 around the loop."""
    return {(0, 2): -1}


def circle_mobius_system(coeff=None):
    """The circle nerve with the orientation-reversing twist."""
    coeff = coeff or CoefficientGroup.integers(involution="negation")
    return TwistedLocalSystem(circle_nerve(), coeff, mobius_twist())


def ordered_product(a: Nerve, b: Nerve) -> Nerve:
    """Ordered simplicial product of two nerves.

    Vertices are pairs (u, v) encoded as u * b.vertex_count + v.  Simplices
    are the monotone chains in the componentwise order whose projections
    are simplices of the factors; the maximal such chains (staircases over
    pairs of factor simplices) are fed to build_nerve, whose closure
    recovers every chain.  A product of total dimension above 4 raises
    DimensionTooLarge.
    """
    nb = b.vertex_count

    def enc(u, v):
        return u * nb + v

    maximal = []
    for level_a in a.simplices:
        for level_b in b.simplices:
            for sa in level_a:
                for sb in level_b:
                    maximal.extend(_staircases(sa, sb, enc))
    return build_nerve(maximal, vertex_count=a.vertex_count * nb)


def _staircases(sa, sb, enc):
    """Maximal monotone chains through the (p+1) x (q+1) grid sa x sb."""
    p, q = len(sa) - 1, len(sb) - 1
    out = []

    def walk(i, j, chain):
        if i == p and j == q:
            out.append(tuple(chain))
            return
        if i < p:
            chain.append(enc(sa[i + 1], sb[j]))
            walk(i + 1, j, chain)
            chain.pop()
        if j < q:
            chain.append(enc(sa[i], sb[j + 1]))
            walk(i, j + 1, chain)
            chain.pop()

    walk(0, 0, [enc(sa[0], sb[0])])
    return out


def rp2_cross_circle():
    """Prism triangulation of RP^2 x S^1 (18 vertices, 90 tetrahedra).

    Its integer degree-3 cohomology is pure 2-torsion, which makes it the
    standard witness for a nonzero Dixmier-Douady class.
    """
    return ordered_product(rp2_nerve(), circle_nerve())


def _order_two_column(system, k):
    """T e_i for the first factor d_i = 2 of S d_k T = D, system.delta_snf(k):
    d(T e_i) = 2 S^-1 e_i, twice an integer cocycle of order exactly 2."""
    s = system.delta_snf(k)
    if 2 not in s.diag:
        raise ValueError(f"nerve has no 2-torsion in degree-{k + 1} cohomology")
    i = s.diag.index(2)
    return s.apply_t([int(j == i) for j in range(s.ncols)])


def rp2_generator_cocycle(system=None):
    """A mod-2 edge cocycle generating H^1 of the 6-vertex RP^2: T e_i mod 2
    for the factor d_i = 2 of the untwisted integer d_1 (mod 2 the twist is
    invisible).  It is not exact: T e_i = d b + 2 c would give d c = S^-1 e_i.
    """
    system = system or TwistedLocalSystem(rp2_nerve(), CoefficientGroup.integers_mod(2))
    integral = system.with_coefficients(CoefficientGroup.integers())
    return cech.cochain(system, 1, [v % 2 for v in _order_two_column(integral, 1)])


def half_integer_two_cocycle(system):
    """A circle-valued 2-cocycle whose Dixmier-Douady class generates the
    2-torsion of H^3 of the given integer system's nerve.

    Exact, from the sparse Smith form S d_2 T = D: for an invariant factor
    d_i = 2, x = T e_i / 2 has d x = S^-1 e_i, an integer 3-cocycle of
    order exactly 2.  So x mod 1, with values in {0, 1/2}, is a circle
    cocycle with that Bockstein.  d_3 is never read, so the nerve may have
    4-simplices.
    """
    column = _order_two_column(system, 2)
    circle_sys = system.with_coefficients(
        CoefficientGroup.circle(involution=system.coeff.involution))
    return cech.cochain(circle_sys, 2, [v % 2 / 2 for v in column]), circle_sys
