import struct
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbelab import models
from gerbelab.cech import (Certificate, Cochain, TwistedLocalSystem, bockstein_dd,
                           cochain, cochain_from_dict, cochain_neg, cochain_sub,
                           coboundary, cohomology, is_coboundary, is_cocycle,
                           random_cochain, u1_is_coboundary, zero_cochain)
from gerbelab.coeffs import CoefficientGroup
from gerbelab.errors import (DegreeOverflow, LiftNotIntegral, NotACocycle,
                             NotU1Cocycle, UnsupportedCoefficient)
from gerbelab.nerve import build_nerve, random_nerve
from oracles import (act, coboundary_matrix, coeff_eq, face_by_face_coboundary,
                     integer_cohomology, kernel_basis, kunneth, loop_class_order,
                     mod2_cohomology_dim, modp_cohomology_dim, standard_corpus)

Z = CoefficientGroup.integers()
ZNEG = CoefficientGroup.integers(involution="negation")
MOD2 = CoefficientGroup.integers_mod(2)


def random_twist(nerve, rng):
    """Uniform draw from the mod-2 cocycle lattice of the nerve's edges, the
    edge coboundary taken from the oracle."""
    from gerbelab import snf as _snf
    rows = coboundary_matrix(nerve, 1).tolist()
    nrows = len(rows)
    for i, row in enumerate(rows):
        row.extend(2 if j == i else 0 for j in range(nrows))
    basis = kernel_basis(_snf.smith_normal_form(
        rows, ncols=nerve.count(1) + nrows))
    signs = [0] * nerve.count(1)
    for vec in basis:
        if rng.integers(2):
            signs = [(a + b) % 2 for a, b in zip(signs, vec[:len(signs)])]
    return {e: -1 if signs[i] else 1 for i, e in enumerate(nerve.simplices[1])}


# --- coboundary -----------------------------------------------------------

def test_mobius_circle_coboundary_values():
    sys_ = models.circle_mobius_system()
    b = cochain(sys_, 0, [1, 1, 1])
    db = coboundary(b, sys_)
    by_edge = dict(zip(sys_.nerve.simplices[1], db.values))
    assert by_edge[(0, 1)] == 0
    assert by_edge[(1, 2)] == 0
    assert by_edge[(0, 2)] == -2


def test_delta_delta_zero_untwisted():
    rng = np.random.default_rng(11)
    sys_ = TwistedLocalSystem(models.boundary_simplex(3), ZNEG)
    for k in range(3):
        c = random_cochain(sys_, k, rng)
        assert all(v == 0 for v in coboundary(coboundary(c, sys_), sys_).values)


def test_delta_delta_zero_randomized():
    rng = np.random.default_rng(5)
    for _ in range(200):
        nerve = random_nerve(rng)
        coeff = ZNEG if rng.integers(2) else Z
        sys_ = TwistedLocalSystem(nerve, coeff, random_twist(nerve, rng))
        k = int(rng.integers(0, 3))
        c = random_cochain(sys_, k, rng)
        dd = coboundary(coboundary(c, sys_), sys_)
        assert all(v == 0 for v in dd.values)


def test_degree_overflow():
    nerve = build_nerve([tuple(range(5))])  # a 4-simplex
    sys_ = TwistedLocalSystem(nerve, Z)
    with pytest.raises(DegreeOverflow):
        coboundary(random_cochain(sys_, 4, np.random.default_rng(0)), sys_)


def bits(values):
    """Each value with its type, a float as its IEEE bytes (-0.0 != 0.0)."""
    return [(type(v), struct.pack("<d", v) if type(v) is float else v) for v in values]


def test_coboundary_is_bit_identical_to_the_face_by_face_sum():
    """coboundary (the rows of delta_matrix) against the oracle's face-by-face
    sum: every coefficient kind, both involutions, twisted and untwisted,
    degrees -1 to 3 on random nerves up to dimension 4, floats with signed
    zeros and values off their normal range."""
    rng = np.random.default_rng(83)
    specials = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1e-17, -1e-17, 0.1, 2.75]
    compared, top, twisted, negative_zero = 0, 0, False, False
    for _ in range(30):
        nerve = random_nerve(rng, max_vertices=7, max_cells=8, max_dim=4)
        top = max(top, nerve.dimension())
        twist = random_twist(nerve, rng)
        twisted |= -1 in twist.values()
        for involution in ("identity", "negation"):
            for coeff in (CoefficientGroup.integers(involution=involution),
                          CoefficientGroup.integers_mod(2, involution=involution),
                          CoefficientGroup.integers_mod(6, involution=involution),
                          CoefficientGroup.reals(involution=involution),
                          CoefficientGroup.circle(involution=involution)):
                for eps in (None, twist):
                    sys_ = TwistedLocalSystem(nerve, coeff, eps)
                    for k in range(-1, 4):
                        n = nerve.count(k)
                        if coeff.exact:
                            values = rng.integers(-7, 8, n).tolist()
                        else:
                            values = [specials[i] if i < len(specials) else x for i, x in
                                      zip(rng.integers(0, 2 * len(specials), n),
                                          rng.uniform(-3, 3, n).tolist())]
                        c = Cochain(k, tuple(values))
                        got = coboundary(c, sys_).values
                        assert bits(got) == bits(face_by_face_coboundary(c, sys_).values)
                        negative_zero |= any(bits([v]) == bits([-0.0]) for v in got)
                        compared += 1
                    c = Cochain(4, (0,) * nerve.count(4))
                    for d in (coboundary, face_by_face_coboundary):
                        with pytest.raises(DegreeOverflow):
                            d(c, sys_)
    assert compared == 30 * 2 * 5 * 2 * 5 and top == 4 and twisted and negative_zero


def test_twist_must_be_cocycle():
    nerve = models.boundary_simplex(2)
    with pytest.raises(NotACocycle):
        TwistedLocalSystem(nerve, Z, {(0, 1): -1})


def test_degree2_condition_matches_multiplicative_identity():
    """delta a = 0 in degree 2 is exactly the quadruple-overlap identity
    a_ijk + a_ikl = eps_ij . a_jkl + a_ijl, written additively."""
    rng = np.random.default_rng(7)
    nerve = build_nerve([(0, 1, 2, 3), (1, 2, 3, 4)])
    for _ in range(100):
        sys_ = TwistedLocalSystem(nerve, ZNEG, random_twist(nerve, rng))
        a = random_cochain(sys_, 2, rng)
        da = coboundary(a, sys_)
        for idx, (i, j, k, l) in enumerate(nerve.simplices[3]):
            av = lambda t: a.values[nerve.index_of(t)]
            lhs = av((i, j, k)) + av((i, k, l))
            rhs = act(sys_.coeff, sys_.eps_of(i, j), av((j, k, l))) + av((i, j, l))
            assert (da.values[idx] == 0) == (lhs == rhs)


# --- cohomology -----------------------------------------------------------

def test_sphere_cohomology():
    sys_ = TwistedLocalSystem(models.boundary_simplex(2), Z)
    assert cohomology(sys_, 0).describe() == "free 1, torsion []"
    assert cohomology(sys_, 1).describe() == "free 0, torsion []"
    assert cohomology(sys_, 2).describe() == "free 1, torsion []"


def test_circle_mobius_cohomology():
    sys_ = models.circle_mobius_system()
    assert cohomology(sys_, 0).is_trivial()
    h1 = cohomology(sys_, 1)
    assert h1.free_rank == 0 and h1.torsion == (2,)


def test_rp2_mod2_dimensions():
    sys_ = TwistedLocalSystem(models.rp2_nerve(), MOD2)
    assert [cohomology(sys_, k).dimension for k in range(3)] == [1, 1, 1]


def test_circle_coefficients_unsupported():
    sys_ = TwistedLocalSystem(models.circle_nerve(), CoefficientGroup.circle())
    with pytest.raises(UnsupportedCoefficient):
        cohomology(sys_, 1)


def test_untwisted_integer_cohomology_matches_oracle_on_corpus():
    corpus = list(standard_corpus().values())
    rng = np.random.default_rng(23)
    corpus += [random_nerve(rng) for _ in range(15)]
    for nerve in corpus:
        assert nerve.vertex_count <= 6
        sys_ = TwistedLocalSystem(nerve, Z)
        for k in range(4):
            got = cohomology(sys_, k)
            free, torsion = integer_cohomology(nerve, k, negate=False)
            assert got.free_rank == free, (nerve, k)
            assert sorted(got.torsion) == sorted(torsion), (nerve, k)


def test_twisted_integer_cohomology_matches_oracle():
    rng = np.random.default_rng(29)
    for _ in range(15):
        nerve = random_nerve(rng)
        eps = random_twist(nerve, rng)
        sys_ = TwistedLocalSystem(nerve, ZNEG, eps)
        for k in range(3):
            got = cohomology(sys_, k)
            free, torsion = integer_cohomology(nerve, k, eps=eps, negate=True)
            assert got.free_rank == free
            assert sorted(got.torsion) == sorted(torsion)


def test_mod2_cohomology_matches_gf2_oracle():
    rng = np.random.default_rng(31)
    nerves = list(standard_corpus().values()) \
        + [random_nerve(rng) for _ in range(10)]
    for nerve in nerves:
        sys_ = TwistedLocalSystem(nerve, MOD2)
        for k in range(3):
            assert cohomology(sys_, k).dimension == mod2_cohomology_dim(nerve, k)


def test_real_cohomology_dimensions():
    sys_ = TwistedLocalSystem(models.rp2_nerve(), CoefficientGroup.reals())
    assert [cohomology(sys_, k).dimension for k in range(3)] == [1, 0, 0]
    sysm = models.circle_mobius_system().with_coefficients(
        CoefficientGroup.reals(involution="negation"))
    assert [cohomology(sysm, k).dimension for k in range(2)] == [0, 0]


def test_mod4_cohomology_group_structure():
    # H^1(circle Mobius; Z/4 twisted) = Z/2: the mod-4 reduction keeps
    # exactly the 2-torsion of the integral class
    sys_ = models.circle_mobius_system().with_coefficients(
        CoefficientGroup.integers_mod(4, involution="negation"))
    assert cohomology(sys_, 1).torsion == (2,)


def test_mod3_cohomology_matches_gfp_oracle():
    rng = np.random.default_rng(37)
    mod3 = CoefficientGroup.integers_mod(3, involution="negation")
    cases = [(models.circle_nerve(), models.mobius_twist())]
    cases += [(nerve, random_twist(nerve, rng))
              for nerve in (random_nerve(rng) for _ in range(15))]
    for nerve, eps in cases:
        sys_ = TwistedLocalSystem(nerve, mod3, eps)
        for k in range(4):
            assert cohomology(sys_, k).dimension == \
                modp_cohomology_dim(nerve, k, 3, eps=eps), (nerve, eps, k)


def test_mod6_is_crt_of_mod2_and_mod3():
    rng = np.random.default_rng(41)
    cases = [(models.circle_nerve(), models.mobius_twist()),
             (models.rp2_cross_circle(), {})]
    cases += [(nerve, random_twist(nerve, rng))
              for nerve in (random_nerve(rng) for _ in range(10))]
    for nerve, eps in cases:
        groups = {}
        for n in (2, 3, 6):
            sys_ = TwistedLocalSystem(
                nerve, CoefficientGroup.integers_mod(n, involution="negation"), eps)
            groups[n] = [cohomology(sys_, k).torsion for k in range(4)]
        for t2, t3, t6 in zip(groups[2], groups[3], groups[6]):
            assert set(t2) <= {2} and set(t3) <= {3}
            # Z/6 = Z/2 + Z/3: pair a 2 with a 3 into a 6 while both last
            both = min(len(t2), len(t3))
            rest = [2] * (len(t2) - both) + [3] * (len(t3) - both)
            assert t6 == tuple(rest) + (6,) * both, (nerve, eps)


# --- four-dimensional products ----------------------------------------------

def mod2_betti(groups):
    """Universal coefficients: dim H^k(Z/2) = free rank of H^k plus the
    even torsion factors of H^k and of H^{k+1}."""
    even = [sum(1 for t in torsion if t % 2 == 0) for _, torsion in groups] + [0]
    return [free + even[k] + even[k + 1] for k, (free, _) in enumerate(groups)]


@pytest.mark.parametrize("a, b", [
    (models.boundary_simplex(2), models.boundary_simplex(2)),
    (models.rp2_nerve(), models.rp2_nerve()),
    (models.boundary_simplex(3), models.circle_nerve()),
], ids=["S2xS2", "RP2xRP2", "S3xS1"])
def test_product_cohomology_matches_kunneth(a, b):
    product = models.ordered_product(a, b)
    ha = [integer_cohomology(a, k) for k in range(5)]
    hb = [integer_cohomology(b, k) for k in range(5)]
    sys_z = TwistedLocalSystem(product, Z)
    got = [cohomology(sys_z, k) for k in range(5)]
    assert [(g.free_rank, list(g.torsion)) for g in got] == kunneth(ha, hb)
    pa, pb = mod2_betti(ha), mod2_betti(hb)
    sys_2 = TwistedLocalSystem(product, MOD2)
    assert [cohomology(sys_2, k).dimension for k in range(5)] == \
        [sum(pa[i] * pb[n - i] for i in range(n + 1)) for n in range(5)]


# --- is_coboundary --------------------------------------------------------

def test_coboundary_roundtrip_integer():
    rng = np.random.default_rng(3)
    sys_ = TwistedLocalSystem(models.rp2_nerve(), ZNEG)
    for k in (1, 2):
        b = random_cochain(sys_, k - 1, rng)
        z = coboundary(b, sys_)
        result = is_coboundary(z, sys_)
        assert result.trivial
        assert coboundary(result.primitive, sys_).values == z.values


def test_mobius_generator_not_coboundary_but_double_is():
    sys_ = models.circle_mobius_system()
    z = cochain_from_dict(sys_, 1, {(0, 1): 1})
    result = is_coboundary(z, sys_)
    assert not result.trivial
    cert = result.certificate
    assert cert.modulus == 2 and cert.pairing % 2 == 1
    # certificate kills the image of the coboundary
    rng = np.random.default_rng(0)
    for _ in range(20):
        db = coboundary(random_cochain(sys_, 0, rng), sys_)
        pairing = sum(f * v for f, v in zip(cert.functional, db.values))
        assert pairing % cert.modulus == 0
    double = cochain(sys_, 1, [2 * v for v in z.values])
    assert is_coboundary(double, sys_).trivial
    # brute force over the rank-3 lattice image: small potentials suffice,
    # since any primitive can be shifted by a kernel vector (here: none)
    hits_z, hits_double = [], []
    for b0 in range(-6, 7):
        for b1 in range(-6, 7):
            for b2 in range(-6, 7):
                db = coboundary(cochain(sys_, 0, [b0, b1, b2]), sys_)
                if db.values == z.values:
                    hits_z.append((b0, b1, b2))
                if db.values == double.values:
                    hits_double.append((b0, b1, b2))
    assert not hits_z and hits_double


def test_zero_cochain_has_zero_primitive():
    sys_ = TwistedLocalSystem(models.boundary_simplex(2), Z)
    result = is_coboundary(zero_cochain(sys_, 2), sys_)
    assert result.trivial
    assert all(v == 0 for v in coboundary(result.primitive, sys_).values)


def test_not_a_cocycle_rejected():
    sys_ = TwistedLocalSystem(models.boundary_simplex(2), Z)
    bad = cochain_from_dict(sys_, 1, {(0, 1): 1})
    with pytest.raises(NotACocycle):
        is_coboundary(bad, sys_)


def test_mod_coefficients_roundtrip():
    rng = np.random.default_rng(13)
    sys_ = TwistedLocalSystem(models.rp2_nerve(), MOD2)
    b = random_cochain(sys_, 1, rng)
    z = coboundary(b, sys_)
    result = is_coboundary(z, sys_)
    assert result.trivial
    assert coboundary(result.primitive, sys_).values == z.values


# --- the order of a class, read from the solve's one scan --------------------

ORDER_NERVES = ("random", "RP2", "RP2xS1")
ORDER_COEFFICIENTS = {
    "Z": CoefficientGroup.integers(),
    "Z~": CoefficientGroup.integers(involution="negation"),
    "Z/2": CoefficientGroup.integers_mod(2),
    "Z/4": CoefficientGroup.integers_mod(4),
    "Z/6": CoefficientGroup.integers_mod(6),
    "Z/9~": CoefficientGroup.integers_mod(9, involution="negation"),
}


def order_systems(nerve_name, coeff, rng):
    """Systems over ``coeff`` on twelve random nerves, RP^2 or RP^2 x S^1,
    twisted when the involution is negation: by a random edge cocycle, or
    by the sign of RP^2's generator, pulled back to the product."""
    twisted = coeff.involution == "negation"
    if nerve_name == "random":
        nerves = [random_nerve(rng, max_vertices=6, max_cells=6, max_dim=2)
                  for _ in range(12)]
        return [TwistedLocalSystem(nerve, coeff, random_twist(nerve, rng) if twisted else None)
                for nerve in nerves]
    rp2 = models.rp2_nerve()
    gen = dict(zip(rp2.simplices[1], models.rp2_generator_cocycle().values))
    if nerve_name == "RP2":
        nerve, w1 = rp2, [gen[e] for e in rp2.simplices[1]]
    else:
        nerve = models.rp2_cross_circle()
        w1 = pulled_back_edges(nerve, 3, gen, which=0)
    eps = {e: -1 for e, g in zip(nerve.simplices[1], w1) if g} if twisted else None
    return [TwistedLocalSystem(nerve, coeff, eps)]


def cocycle_generators(sys_, k):
    """Cocycles spanning the degree-k cocycles: the integer kernel of d_k,
    or for Z/n the kernel of [d_k | nI] cut to the k-cochains."""
    if sys_.coeff.kind == "integers":
        return kernel_of(sys_.delta_snf(k))
    count = sys_.nerve.count(k)
    return [vec[:count] for vec in kernel_basis(sys_.delta_snf_mod(k))]


@pytest.mark.parametrize("coeff_name", ORDER_COEFFICIENTS)
@pytest.mark.parametrize("nerve_name", ORDER_NERVES)
def test_class_order_equals_the_loop_over_multiples(nerve_name, coeff_name):
    """z = f sum_j m_j K_j + d b over a spanning set K_j of the cocycles:
    the order is_coboundary reads from its one solve equals the least m
    with m z exact (0 when none is), 1 exactly for a trivial class.  Every
    case meets a class that is not trivial."""
    rng = np.random.default_rng([ORDER_NERVES.index(nerve_name),
                                 list(ORDER_COEFFICIENTS).index(coeff_name)])
    orders = set()
    for sys_ in order_systems(nerve_name, ORDER_COEFFICIENTS[coeff_name], rng):
        n = sys_.coeff.modulus
        for k in (0, 1, 2):
            if not sys_.nerve.count(k):
                continue
            generators = cocycle_generators(sys_, k)
            bound = n or lcm(1, *sys_.delta_snf(k - 1).diag)
            for _ in range(6):
                f = int(rng.integers(0, 4))
                z = [0] * sys_.nerve.count(k)
                for vec in generators:
                    if rng.random() < 0.4:
                        m = f * int(rng.integers(-3, 4))
                        z = [a + m * v for a, v in zip(z, vec)]
                exact = coboundary(random_cochain(sys_, k - 1, rng), sys_)
                z = cochain(sys_, k, [a + v for a, v in zip(z, exact.values)])
                result = is_coboundary(z, sys_)
                expected = loop_class_order(z, sys_, bound)
                assert result.order == expected, (nerve_name, k, z.values)
                assert result.trivial == (expected == 1)
                orders.add(expected)
    assert orders - {1}


def real_systems():
    """(label, system) over R: RP^2 and RP^2 x S^1, plain and twisted by
    the orientation character, and the circle."""
    rp2, prod = models.rp2_nerve(), models.rp2_cross_circle()
    gen = dict(zip(rp2.simplices[1], models.rp2_generator_cocycle().values))
    w1 = pulled_back_edges(prod, 3, gen, which=0)
    r, rneg = CoefficientGroup.reals(), CoefficientGroup.reals(involution="negation")
    return [
        ("RP2", TwistedLocalSystem(rp2, r)),
        ("RP2~", TwistedLocalSystem(rp2, rneg, {e: -1 for e, g in gen.items() if g})),
        ("RP2xS1", TwistedLocalSystem(prod, r)),
        ("RP2xS1~", TwistedLocalSystem(
            prod, rneg, {e: -1 for e, g in zip(prod.simplices[1], w1) if g})),
        ("circle", TwistedLocalSystem(models.circle_nerve(), r)),
    ]


def test_real_coefficients_roundtrip_and_certificate():
    from gerbelab import snf as _snf
    rng = np.random.default_rng(17)
    seen = set()
    for label, sys_ in real_systems():
        for k in (1, 2, 3):
            if not sys_.nerve.count(k):
                continue
            d = twisted_delta(sys_, k - 1)
            kernel = kernel_basis(_snf.smith_normal_form(
                twisted_delta(sys_, k).tolist(), ncols=sys_.nerve.count(k)))
            for trial in range(7):
                z = coboundary(random_cochain(sys_, k - 1, rng), sys_)
                trivial = True
                if trial:  # plus t times an integer cocycle, t above or below tolerance
                    t = (rng.uniform(0.2, 2.0), 1e-6, 1e-12)[trial % 3]
                    c = np.array(kernel, dtype=np.int64).T @ rng.integers(-1, 2, len(kernel))
                    z = cochain(sys_, k, z.values + t * c)
                    trivial = t < 1e-9 or (np.linalg.matrix_rank(np.column_stack([d, c])) ==
                                           np.linalg.matrix_rank(d))
                result = is_coboundary(z, sys_)
                assert result.trivial == trivial, (label, k, trial)
                seen.add((label, k, result.trivial))
                if trivial:
                    residual = cochain_sub(sys_, coboundary(result.primitive, sys_), z)
                    bound = 1e-9 * max([1.0] + [abs(v) for v in z.values])
                    assert max(abs(v) for v in residual.values) <= bound
                    continue
                cert = result.certificate
                assert (cert.modulus, cert.stage) == (0, "linear")
                assert all(type(f) is int for f in cert.functional)
                assert not (np.array(cert.functional, dtype=object) @ d).any()
                pairing = sum(f * v for f, v in zip(cert.functional, z.values))
                assert abs(pairing) > 1e-9 and abs(pairing - cert.pairing) <= 1e-12
    # H^1(circle), H^1(RP2 x S1), H^2 and H^3 of twisted RP2 x S1 and H^2 of
    # twisted RP2 are R; each was met both exact and not
    free = [("circle", 1), ("RP2xS1", 1), ("RP2~", 2), ("RP2xS1~", 2), ("RP2xS1~", 3)]
    assert {(label, k, v) for label, k in free for v in (True, False)} <= seen
    assert {(label, k) for label, k, v in seen if not v} == set(free)


@pytest.mark.parametrize("coeff, value, modulus, pairing, stage", [
    (Z, -2, 0, -2, "linear"),
    (CoefficientGroup.integers_mod(3), 5, 3, 2, "linear"),
    (CoefficientGroup.reals(), 0.75, 0, 0.75, "linear"),
    (CoefficientGroup.circle(), 1.25, 1, 0.25, "real-vs-integral"),
])
def test_degree_zero_certificate_is_a_vertex_indicator(coeff, value, modulus, pairing, stage):
    nerve = build_nerve([(0, 1), (2, 3)])  # two components
    sys_ = TwistedLocalSystem(nerve, coeff)
    assert is_coboundary(zero_cochain(sys_, 0), sys_).trivial
    z = cochain(sys_, 0, [0, 0, value, value])
    results = [is_coboundary(z, sys_)]
    if coeff.kind == "circle":
        results.append(u1_is_coboundary(z, sys_))
    for result in results:
        assert not result.trivial
        assert result.certificate == Certificate((0, 0, 1, 0), modulus, pairing, stage)
        assert all(type(f) is int for f in result.certificate.functional)


@pytest.mark.parametrize("coeff", [CoefficientGroup.reals(), CoefficientGroup.circle()])
def test_non_finite_real_cochain_is_rejected(coeff):
    """On S^4 in degree 4 every cochain is closed, so only the cochain's own
    check stands between a NaN and a claimed primitive."""
    sys_ = TwistedLocalSystem(models.boundary_simplex(4), coeff)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            cochain(sys_, 4, [bad] + [0.0] * (sys_.nerve.count(4) - 1))
    z = cochain(sys_, 4, [0.25] + [0.0] * (sys_.nerve.count(4) - 1))
    cert = is_coboundary(z, sys_).certificate
    pairing = sum(f * v for f, v in zip(cert.functional, z.values))
    assert abs(pairing) == 0.25
    assert cert.pairing == (pairing % 1 if cert.modulus else pairing)


@pytest.mark.parametrize("coeff", [CoefficientGroup.reals(), CoefficientGroup.circle()])
def test_real_primitive_self_check_catches_a_wrong_transform(coeff, monkeypatch):
    sys_ = TwistedLocalSystem(models.rp2_nerve(), coeff)
    z = coboundary(random_cochain(sys_, 1, np.random.default_rng(19)), sys_)
    assert is_coboundary(z, sys_).trivial
    form = type(sys_.delta_snf(1))
    apply_t = form.apply_t
    monkeypatch.setattr(form, "apply_t", lambda self, y: [2 * x for x in apply_t(self, y)])
    with pytest.raises(AssertionError, match="primitive"):
        is_coboundary(z, sys_)


@pytest.mark.parametrize("coeff", [CoefficientGroup.reals(), CoefficientGroup.circle()])
def test_circle_decision_bound_is_tol_times_the_row_norm(coeff):
    # past the rank S_2 = +-(1, -1, 1), so the bound on (S z)_2 is 3 tol = 3e-9
    sys_ = TwistedLocalSystem(models.circle_nerve(), coeff)
    inside = is_coboundary(cochain(sys_, 1, [2e-9, 0, 0]), sys_)
    assert inside.trivial  # d b - z = (0, 0, -2e-9), past tol but allowed
    outside = is_coboundary(cochain(sys_, 1, [4e-9, 0, 0]), sys_)
    assert not outside.trivial
    assert abs(outside.certificate.pairing) == pytest.approx(4e-9)


def dense_s(form):
    """S and S^-1 of a sparse Smith form as arrays, a row or a column at a time."""
    n = form.nrows
    s = np.array([form.row_of_s(i) for i in range(n)], dtype=np.int64).reshape(n, n)
    s_inv = np.array([form.apply_s_inv([int(i == j) for i in range(n)])
                      for j in range(n)], dtype=np.int64).reshape(n, n).T
    return s, s_inv


def kernel_of(form):
    """Columns of T past the rank: a basis of the integer kernel."""
    return [form.apply_t([int(i == j) for i in range(form.ncols)])
            for j in range(form.rank, form.ncols)]


def test_past_rank_band_passes_the_self_check():
    """A non-exact part with (S z)_i between tol and tol |S_i|_1 past the
    rank is exact by the decision, so the primitive's self-check must
    accept it; d b - z is then bounded by |S^-1|_inf times the decision's
    bound, not by tol alone."""
    rng = np.random.default_rng(23)
    band = set()
    for label, real_sys in real_systems():
        circle = CoefficientGroup.circle(involution=real_sys.coeff.involution)
        for sys_, period, floor in ((real_sys, 0, 1e-12),
                                    (real_sys.with_coefficients(circle), 1, 1e-9)):
            tol = max(sys_.coeff.tolerance, floor)
            for k in (1, 2, 3):
                if not sys_.nerve.count(k):
                    continue
                s = sys_.delta_snf(k - 1)
                s_rows, s_inv = dense_s(s)
                kernel = np.array(kernel_of(sys_.delta_snf(k)), dtype=np.int64)
                c = kernel.T @ rng.integers(-1, 2, len(kernel))
                sc = s_rows @ c
                norms = np.abs(s_rows).sum(axis=1)
                past = [i for i in range(s.rank, s.nrows) if sc[i]]
                if not past:
                    continue  # c is exact
                exact = coboundary(random_cochain(sys_, k - 1, rng), sys_)
                bound = tol * max([1.0] + [abs(v) for v in exact.values])
                t = 0.5 * bound * min(norms[i] / abs(sc[i]) for i in past)
                z = cochain(sys_, k, np.array(exact.values) + t * c)
                result = is_coboundary(z, sys_)
                assert result.trivial, (label, period, k)
                if t * max(abs(sc[i]) for i in past) > bound:
                    band.add((label, period, k))
                residual = np.array(coboundary(result.primitive, sys_).values) - z.values
                residual -= period * np.round(residual) if period else 0
                s_inv_norm = np.abs(s_inv).sum(axis=1).max()
                assert np.abs(residual).max() <= 1.01 * bound * norms.max() * s_inv_norm
    assert {period for _, period, _ in band} == {0, 1}


# --- bockstein / Dixmier-Douady -------------------------------------------

def circle_system(nerve, involution="identity"):
    return TwistedLocalSystem(nerve, CoefficientGroup.circle(involution=involution))


def test_dd_of_coboundary_is_trivial():
    rng = np.random.default_rng(41)
    sys_ = circle_system(models.boundary_simplex(3))
    for _ in range(25):
        b = random_cochain(sys_, 1, rng)
        a = coboundary(b, sys_)
        result = bockstein_dd(a, sys_)
        assert result.trivial
        # and the integer cocycle really is d(primitive)
        back = coboundary(result.primitive, result.system)
        assert back.values == result.cocycle.values


def test_dd_rejects_non_cocycles():
    sys_ = circle_system(models.boundary_simplex(3))
    a = cochain_from_dict(sys_, 2, {(0, 1, 2): 0.3})
    with pytest.raises(NotU1Cocycle):
        bockstein_dd(a, sys_)


def test_dd_requires_degree_two():
    sys_ = circle_system(models.boundary_simplex(3))
    with pytest.raises(DegreeOverflow):
        bockstein_dd(zero_cochain(sys_, 1), sys_)


def test_dd_on_sphere3_always_trivial():
    """H^3 of the 3-sphere model is torsion-free, so every circle-valued
    2-cocycle has vanishing Dixmier-Douady class."""
    rng = np.random.default_rng(43)
    sys_ = circle_system(models.boundary_simplex(3))
    group = cohomology(sys_.with_coefficients(Z), 3)
    assert group.free_rank == 1 and group.torsion == ()
    for _ in range(25):
        b = cochain(sys_, 1, rng.uniform(0, 1, sys_.nerve.count(1)).tolist())
        a = coboundary(b, sys_)
        assert is_cocycle(a, sys_)
        result = bockstein_dd(a, sys_)
        assert result.trivial
        assert any(v != 0 for v in result.cocycle.values) or result.trivial


def test_dd_order_two_generator_on_rp2_cross_circle():
    prod = models.rp2_cross_circle()
    sys_z = TwistedLocalSystem(prod, Z)
    assert cohomology(sys_z, 3).torsion == (2,)
    a, circle_sys = models.half_integer_two_cocycle(sys_z)
    result = bockstein_dd(a, circle_sys)
    assert not result.trivial
    double = cochain(result.system, 3, [2 * v for v in result.cocycle.values])
    assert is_coboundary(double, result.system).trivial


def test_half_integer_two_cocycle_is_exact():
    """x = T e_i / 2 mod 1 for the order-2 factor: only 0 and 1/2 occur,
    and its Bockstein is the order-2 class of H^3."""
    sys_z = TwistedLocalSystem(models.rp2_cross_circle(), Z)
    a, circle_sys = models.half_integer_two_cocycle(sys_z)
    assert set(a.values) <= {0.0, 0.5} and 0.5 in a.values
    result = bockstein_dd(a, circle_sys)
    assert not result.trivial
    assert result.group.torsion == (2,)


def test_order_two_witnesses_read_one_column_and_never_solve(monkeypatch):
    """The RP^2 generator and the half-integer 2-cocycle both come from
    models._order_two_column (T e_i for a factor d_i = 2 of the sparse
    form): no is_coboundary call and no dense [d | nI] form.  The generator
    is closed mod 2 and not exact, twisted or not."""
    from gerbelab import cech, snf
    read, solves, dense = [], [], []
    real_column = models._order_two_column
    monkeypatch.setattr(models, "_order_two_column", lambda s, k:
                        read.append(k) or real_column(s, k))
    monkeypatch.setattr(cech, "is_coboundary", lambda *a: solves.append(a))
    monkeypatch.setattr(snf, "smith_normal_form_mod", lambda *a: dense.append(a))
    monkeypatch.setattr(TwistedLocalSystem, "delta_snf_mod", lambda *a: dense.append(a))
    rp2 = models.rp2_nerve()
    plain = models.rp2_generator_cocycle()
    twisted_sys = TwistedLocalSystem(
        rp2, CoefficientGroup.integers_mod(2, involution="negation"),
        {e: -1 for e, g in zip(rp2.simplices[1], plain.values) if g})
    twisted = models.rp2_generator_cocycle(twisted_sys)
    models.half_integer_two_cocycle(TwistedLocalSystem(models.rp2_cross_circle(), Z))
    assert (read, solves, dense) == ([1, 1, 2], [], [])
    monkeypatch.undo()
    for sys_, gen in ((TwistedLocalSystem(rp2, MOD2), plain), (twisted_sys, twisted)):
        assert is_cocycle(gen, sys_)
        result = is_coboundary(gen, sys_)
        assert not result.trivial and result.order == 2


def test_dd_class_stable_under_u1_coboundary():
    rng = np.random.default_rng(47)
    prod = models.rp2_cross_circle()
    sys_z = TwistedLocalSystem(prod, Z)
    a, circle_sys = models.half_integer_two_cocycle(sys_z)
    base = bockstein_dd(a, circle_sys)
    for _ in range(5):
        b = random_cochain(circle_sys, 1, rng)
        shifted = bockstein_dd(
            cochain(circle_sys, 2,
                    [circle_sys.coeff.add(x, y) for x, y in
                     zip(a.values, coboundary(b, circle_sys).values)]),
            circle_sys)
        diff = cochain_sub(base.system, shifted.cocycle, base.cocycle)
        assert is_coboundary(diff, base.system).trivial
        assert not shifted.trivial


# --- circle-valued triviality (two-stage test) ----------------------------

def test_u1_coboundary_roundtrip():
    rng = np.random.default_rng(53)
    sys_ = circle_system(models.boundary_simplex(2))
    for _ in range(20):
        b = random_cochain(sys_, 1, rng)
        z = coboundary(b, sys_)
        result = u1_is_coboundary(z, sys_)
        assert result.trivial
        back = coboundary(result.primitive, sys_)
        assert all(coeff_eq(sys_.coeff, x, y) for x, y in zip(back.values, z.values))


def test_u1_rp2_sign_cocycle_is_trivial():
    """The order-2 obstruction class on RP^2, seen in U(1), dies: H^2 with
    circle coefficients embeds in torsion-free H^3(Z) = 0 territory."""
    sys_ = circle_system(models.rp2_nerve())
    z2sys = TwistedLocalSystem(models.rp2_nerve(), MOD2)
    gen = models.rp2_generator_cocycle(z2sys)
    # push the Z2-valued obstruction a = carry(g) into U(1) as 0 or 1/2
    from gerbelab.coeffs import cyclic_central_extension, FiniteGroup, Automorphism
    from gerbelab.lifting import TransitionData, obstruction
    z2 = FiniteGroup.cyclic(2)
    td = TransitionData(models.rp2_nerve(), z2, Automorphism.identity(z2),
                        list(gen.values))
    obs = obstruction(td, cyclic_central_extension(2, 2))
    a = cochain(sys_, 2, [v / 2.0 for v in obs.cochain.values])
    result = u1_is_coboundary(a, sys_)
    assert result.trivial
    back = coboundary(result.primitive, sys_)
    assert all(coeff_eq(sys_.coeff, x, y) for x, y in zip(back.values, a.values))


def test_u1_nontrivial_on_rp2_cross_circle():
    prod = models.rp2_cross_circle()
    sys_z = TwistedLocalSystem(prod, Z)
    a, circle_sys = models.half_integer_two_cocycle(sys_z)
    result = u1_is_coboundary(a, circle_sys)
    assert not result.trivial
    assert result.certificate.stage == "dixmier-douady"


def test_circle_is_coboundary_takes_one_closedness_pass(monkeypatch):
    """A trivial circle 2-cocycle on RP^2 x S^1 costs three coboundaries:
    d(lift), the closedness of its rounding and the primitive's self-check.
    A cochain that is not closed mod 1 is still a NotACocycle."""
    from gerbelab import cech
    rng = np.random.default_rng(5)
    sys_ = circle_system(models.rp2_cross_circle())
    a = coboundary(random_cochain(sys_, 1, rng), sys_)
    calls = []
    real = cech.coboundary
    monkeypatch.setattr(cech, "coboundary", lambda *args: calls.append(1) or real(*args))
    assert is_coboundary(a, sys_).trivial
    assert len(calls) == 3
    bad = cochain(sys_, 2, [0.3] + list(a.values[1:]))
    with pytest.raises(NotACocycle) as info:
        is_coboundary(bad, sys_)
    assert isinstance(info.value, NotU1Cocycle)


def test_rounded_coboundary_that_is_not_closed_raises_lift_not_integral():
    """On one tetrahedron with circle tolerance 0.35, d(lift) =
    (-0.7, -0.3, 0.2, -0.2) is within tolerance of integers, but its
    rounding (-1, 0, 0, 0) is not closed."""
    sys_ = TwistedLocalSystem(build_nerve([(0, 1, 2, 3)]),
                              CoefficientGroup.circle(tolerance=0.35))
    # edges 01 02 03 12 13 23
    z = cochain(sys_, 1, [0.1, 0.8, 0.7, 0.0, 0.3, 0.1])
    lift = TwistedLocalSystem(sys_.nerve, CoefficientGroup.reals())
    assert np.allclose(coboundary(Cochain(1, z.values), lift).values,
                       (-0.7, -0.3, 0.2, -0.2))
    for check in (u1_is_coboundary, is_coboundary):
        with pytest.raises(LiftNotIntegral):
            check(z, sys_)


# --- circle-valued triviality from one integer Smith form --------------------

def unit(nerve, k, simplex):
    return [1 if s == simplex else 0 for s in nerve.simplices[k]]


def pulled_back_edges(product, factor_vertices, edges, which):
    """Edge values pulled back along a projection of ordered_product: vertex
    x maps to x // m (first factor) or x % m (second); degenerate edges
    get 0."""
    def proj(x):
        return x // factor_vertices if which == 0 else x % factor_vertices
    return [edges.get((proj(a), proj(b)), 0) for a, b in product.simplices[1]]


def u1_classes():
    """(label, circle system, degree, kind, data), the class known by
    construction.  ``free``: data is an integer cocycle generating a free
    summand of H^k(Z), so t*m*data is trivial mod 1 exactly when t*m is an
    integer.  ``torsion``: an integer cocycle of finite order, so every
    real multiple is trivial.  ``trivial`` / ``dd``: a circle cochain that
    is trivial / has a non-zero Dixmier-Douady (Bockstein) class."""
    circle, rp2, prod = (models.circle_nerve(), models.rp2_nerve(),
                         models.rp2_cross_circle())
    gen = list(models.rp2_generator_cocycle().values)
    orient = {e: -1 for e, g in zip(rp2.simplices[1], gen) if g}
    s3 = models.boundary_simplex(3)
    s2 = models.boundary_simplex(2)
    sys_circle = circle_system(circle)
    sys_mobius = TwistedLocalSystem(
        circle, CoefficientGroup.circle(involution="negation"), models.mobius_twist())
    sys_rp2 = circle_system(rp2)
    sys_rp2t = TwistedLocalSystem(
        rp2, CoefficientGroup.circle(involution="negation"), orient)
    sys_prod = circle_system(prod)
    half_gen = [g / 2 for g in gen]
    s1_gen = pulled_back_edges(prod, 3, {(0, 2): 1}, which=1)
    rp2_gen = pulled_back_edges(prod, 3, dict(zip(rp2.simplices[1], gen)), which=0)
    half_dd, _ = models.half_integer_two_cocycle(TwistedLocalSystem(prod, Z))
    return [
        ("circle H^1", sys_circle, 1, "free", unit(circle, 1, (0, 2))),
        ("mobius H^1", sys_mobius, 1, "torsion", unit(circle, 1, (0, 2))),
        ("S2 H^2", circle_system(s2), 2, "free", unit(s2, 2, (0, 1, 2))),
        ("S3 H^3", circle_system(s3), 3, "free", unit(s3, 3, (0, 1, 2, 3))),
        ("RP2 H^1", sys_rp2, 1, "dd", half_gen),
        ("RP2 H^2", sys_rp2, 2, "torsion", unit(rp2, 2, (0, 1, 2))),
        ("RP2~ H^1", sys_rp2t, 1, "trivial", half_gen),
        ("RP2~ H^2", sys_rp2t, 2, "free", unit(rp2, 2, (0, 1, 2))),
        ("RP2xS1 H^1 circle", sys_prod, 1, "free", s1_gen),
        ("RP2xS1 H^1 half", sys_prod, 1, "dd", [g / 2 for g in rp2_gen]),
        ("RP2xS1 H^2", sys_prod, 2, "dd", list(half_dd.values)),
    ]


def twisted_delta(sys_, k):
    """The integer d_k of the system's twist, from the oracle."""
    eps = {e: -1 for e, s in zip(sys_.nerve.simplices[1], sys_.eps) if s == -1}
    return coboundary_matrix(sys_.nerve, k, eps, sys_.coeff.involution == "negation")


def check_u1_answer(sys_, z, result, trivial, stage):
    k = z.degree
    assert result.trivial == trivial
    if trivial:
        back = coboundary(result.primitive, sys_)
        assert all(coeff_eq(sys_.coeff, x, y) for x, y in zip(back.values, z.values))
        return
    cert = result.certificate
    assert cert.stage == stage
    lift = [float(v) for v in z.values]
    if stage == "real-vs-integral":
        # integral, kills every coboundary exactly, non-integer on the lift
        d = twisted_delta(sys_, k - 1)
        assert cert.modulus == 1
        assert all(isinstance(f, int) for f in cert.functional)
        assert not (np.array(cert.functional, dtype=object) @ d).any()
        pairing = sum(f * v for f, v in zip(cert.functional, lift))
        assert abs(pairing - round(pairing)) > 1e-6
        assert abs((pairing - cert.pairing + 0.5) % 1.0 - 0.5) <= 1e-9
    else:
        # a certificate for the integer cocycle d(lift) over d_k
        d = twisted_delta(sys_, k)
        n = [round(v) for v in d.astype(float) @ np.array(lift)]
        m = cert.modulus
        kills = np.array(cert.functional, dtype=object) @ d
        assert all(v % m == 0 for v in kills) if m else not kills.any()
        pairing = sum(f * v for f, v in zip(cert.functional, n))
        assert (pairing % m if m else pairing) != 0


def test_u1_one_check_matches_construction():
    rng = np.random.default_rng(59)
    seen = set()
    classes = u1_classes()
    for label, sys_, k, kind, data in classes:
        for trial in range(12):
            z = coboundary(random_cochain(sys_, k - 1, rng), sys_)
            check_u1_answer(sys_, z, u1_is_coboundary(z, sys_), True, None)
            t = (0.5, 1 / 3, 0.3)[trial % 3]
            m = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            if kind in ("free", "torsion"):
                # t times the class of m*data, spread by an integer coboundary
                w = rng.integers(-2, 3, sys_.nerve.count(k - 1))
                dw = twisted_delta(sys_, k - 1) @ w
                shift = [t * (m * g + int(x)) for g, x in zip(data, dw)]
            else:
                shift = data
            z = cochain(sys_, k, [a + s for a, s in zip(z.values, shift)])
            trivial = {"free": abs(t * m - round(t * m)) < 1e-9, "torsion": True,
                       "trivial": True, "dd": False}[kind]
            stage = "dixmier-douady" if kind == "dd" else "real-vs-integral"
            result = u1_is_coboundary(z, sys_)
            check_u1_answer(sys_, z, result, trivial, stage)
            seen.add((label, result.trivial))
    # every free class was met both as a trivial and as a non-trivial multiple
    free = {c[0] for c in classes if c[3] == "free"}
    assert {(label, v) for label in free for v in (True, False)} <= seen


# --- cold solves on the 4-D products ----------------------------------------

PRODUCTS = {
    "RP2xRP2": (models.rp2_nerve, models.rp2_nerve),
    "S2xS2": (lambda: models.boundary_simplex(2), lambda: models.boundary_simplex(2)),
    "S3xS1": (lambda: models.boundary_simplex(3), models.circle_nerve),
}
# degrees 1..3 with H^k(Z) != 0 and with H^k(R) != 0 (Kunneth)
NONZERO = {"RP2xRP2": ({2, 3}, set()), "S2xS2": ({2}, {2}), "S3xS1": ({1, 3}, {1, 3})}


def check_integer_answer(d, z, result):
    """A primitive b with d b = z exactly, or an integral functional that
    kills d (mod its modulus) and pairs non-zero with z."""
    if result.trivial:
        assert (d @ np.array(result.primitive.values, dtype=np.int64) == z).all()
        return
    cert = result.certificate
    assert all(type(f) is int for f in cert.functional)
    kills = np.array(cert.functional, dtype=object) @ d
    pairing = sum(f * v for f, v in zip(cert.functional, z))
    m = cert.modulus
    assert all(v % m == 0 for v in kills) if m else not kills.any()
    assert (pairing - cert.pairing) % m == 0 if m else pairing == cert.pairing
    assert (pairing % m if m else pairing) != 0


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_cold_solves_on_four_dimensional_products(name):
    """Z, R and R/Z solves and the Dixmier-Douady map on fresh systems over
    RP2 x RP2, S2 x S2 and S3 x S1, in degrees 1 to 3, each answer checked
    against the oracle's coboundary matrices."""
    nerve = models.ordered_product(*(f() for f in PRODUCTS[name]))
    integral, real = NONZERO[name]
    rng = np.random.default_rng(73)
    seen = set()
    for k in (1, 2, 3):
        d = coboundary_matrix(nerve, k - 1, negate=False)
        form = TwistedLocalSystem(nerve, Z).delta_snf(k)
        c = form.apply_t([0] * form.rank + rng.integers(-1, 2, form.ncols - form.rank).tolist())
        assert not (coboundary_matrix(nerve, k, negate=False) @ c).any()
        for ring, coeff, t in (("Z", Z, 1), ("R", CoefficientGroup.reals(), 0.37),
                               ("R/Z", CoefficientGroup.circle(), 0.5)):
            sys_ = TwistedLocalSystem(nerve, coeff)
            exact = coboundary(random_cochain(sys_, k - 1, rng), sys_)
            for shift in (0, t):
                z = cochain(sys_, k, [a + shift * g for a, g in zip(exact.values, c)])
                if ring == "R/Z":
                    result = u1_is_coboundary(z, sys_)
                    stage = None if result.trivial else result.certificate.stage
                    check_u1_answer(sys_, z, result, result.trivial, stage)
                elif ring == "Z":
                    result = is_coboundary(z, sys_)
                    check_integer_answer(d, z.values, result)
                else:
                    result = is_coboundary(z, sys_)
                    if result.trivial:
                        residual = d @ np.array(result.primitive.values) - z.values
                        assert np.abs(residual).max() <= 1e-9 * max(1, np.abs(z.values).max())
                    else:
                        cert = result.certificate
                        assert not (np.array(cert.functional, dtype=object) @ d).any()
                        assert abs(cert.pairing) > 1e-9
                assert result.trivial or shift, (ring, k)
                seen.add((ring, k, result.trivial))
        assert ("Z", k, False) in seen or k not in integral
        assert ("R", k, False) in seen or k not in real
    assert {(ring, k) for ring, k, v in seen if not v and ring != "R/Z"} == \
        {("Z", k) for k in integral} | {("R", k) for k in real}
    # the Dixmier-Douady map on half_integer_two_cocycle (T e_i / 2 for an
    # invariant factor d_i = 2 of d_2; only RP2 x RP2 has one) and on twice it
    integral = TwistedLocalSystem(nerve, Z)
    if name == "RP2xRP2":
        half_dd, sys_ = models.half_integer_two_cocycle(integral)
        x = half_dd.values
    else:
        with pytest.raises(ValueError, match="no 2-torsion"):
            models.half_integer_two_cocycle(integral)
        x, sys_ = [0.0] * nerve.count(2), circle_system(nerve)
    d2 = coboundary_matrix(nerve, 2, negate=False)
    for half in (x, [2 * v for v in x]):
        a = cochain(sys_, 2, [u + v for u, v in zip(
            coboundary(random_cochain(sys_, 1, rng), sys_).values, half)])
        result = bockstein_dd(a, sys_)
        n = np.round(d2 @ np.array(a.values)).astype(np.int64)
        assert (np.array(result.cocycle.values) == n).all()
        check_integer_answer(d2, result.cocycle.values, result)
        assert result.trivial == (name != "RP2xRP2" or half is not x)
        assert result.group.torsion == ((2,) if name == "RP2xRP2" else ())


def count_smith_forms(monkeypatch):
    """Record every Smith form, dense or sparse, from here on."""
    from gerbelab import snf
    calls = []
    for name in ("smith_normal_form", "SparseSmithForm"):
        real = getattr(snf, name)
        monkeypatch.setattr(snf, name, lambda *a, _real=real, _name=name, **kw:
                            calls.append(_name) or _real(*a, **kw))
    return calls


def test_repeated_circle_queries_reuse_the_integer_smith_forms(monkeypatch):
    rng = np.random.default_rng(61)
    prod = models.rp2_cross_circle()
    sys_ = circle_system(prod)
    gen = models.rp2_generator_cocycle().values
    half = pulled_back_edges(prod, 3, dict(zip(models.rp2_nerve().simplices[1], gen)), 0)
    calls = count_smith_forms(monkeypatch)
    for round_ in range(2):
        a = coboundary(random_cochain(sys_, 1, rng), sys_)
        assert bockstein_dd(a, sys_).trivial
        assert u1_is_coboundary(a, sys_).trivial
        z = cochain(sys_, 1, [v / 2 for v in half])
        assert u1_is_coboundary(z, sys_).certificate.stage == "dixmier-douady"
        if round_ == 0:
            assert calls  # the first round builds the Smith forms
            calls.clear()
    assert calls == []


def test_mod_n_child_does_not_read_the_parents_mod_n_smith_form(monkeypatch):
    rng = np.random.default_rng(67)
    nerve = models.rp2_nerve()
    sys2 = TwistedLocalSystem(nerve, MOD2)
    z2 = coboundary(random_cochain(sys2, 1, rng), sys2)
    assert is_coboundary(z2, sys2).trivial
    sys3 = sys2.with_coefficients(CoefficientGroup.integers_mod(3))
    calls = count_smith_forms(monkeypatch)
    assert sys3.delta_matrix(1) is sys2.delta_matrix(1)  # shared, not rebuilt
    assert sys3.delta_snf_mod(1) is not sys2.delta_snf_mod(1)
    assert calls == ["smith_normal_form"]
    assert sys3.delta_snf_mod(1).diag == \
        TwistedLocalSystem(nerve, CoefficientGroup.integers_mod(3)).delta_snf_mod(1).diag
    for _ in range(5):
        z3 = coboundary(random_cochain(sys3, 1, rng), sys3)
        result = is_coboundary(z3, sys3)
        assert result.trivial
        assert coboundary(result.primitive, sys3).values == z3.values
