import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbelab import models
from gerbelab.cech import (TwistedLocalSystem, bockstein_dd, cochain,
                           cochain_from_dict, cochain_neg, cochain_sub,
                           coboundary, cohomology, is_coboundary, is_cocycle,
                           random_cochain, u1_is_coboundary, zero_cochain)
from gerbelab.coeffs import CoefficientGroup
from gerbelab.errors import (DegreeOverflow, NotACocycle, NotU1Cocycle,
                             UnsupportedCoefficient)
from gerbelab.nerve import build_nerve, random_nerve
from oracles import (integer_cohomology, kunneth, mod2_cohomology_dim,
                     modp_cohomology_dim)

Z = CoefficientGroup.integers()
ZNEG = CoefficientGroup.integers(involution="negation")
MOD2 = CoefficientGroup.integers_mod(2)


def random_twist(nerve, rng):
    """Uniform draw from the mod-2 cocycle lattice of the nerve's edges."""
    from gerbelab import snf as _snf
    mod2 = TwistedLocalSystem(nerve, MOD2)
    rows = [list(r) for r in mod2.delta_matrix(1)]
    nrows = len(rows)
    for i, row in enumerate(rows):
        row.extend(2 if j == i else 0 for j in range(nrows))
    basis = _snf.kernel_basis(_snf.smith_normal_form(
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
            rhs = sys_.coeff.act(sys_.eps_of(i, j), av((j, k, l))) + av((i, j, l))
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
    corpus = list(models.standard_corpus().values())
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
    nerves = list(models.standard_corpus().values()) \
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


def test_real_coefficients_roundtrip_and_certificate():
    rng = np.random.default_rng(17)
    sys_ = TwistedLocalSystem(models.rp2_nerve(), CoefficientGroup.reals())
    b = random_cochain(sys_, 1, rng)
    z = coboundary(b, sys_)
    result = is_coboundary(z, sys_)
    assert result.trivial
    residual = cochain_sub(sys_, coboundary(result.primitive, sys_), z)
    assert max(abs(v) for v in residual.values) <= 1e-9
    # a real 1-cocycle on the circle that is not exact
    sysc = TwistedLocalSystem(models.circle_nerve(), CoefficientGroup.reals())
    z1 = cochain_from_dict(sysc, 1, {(0, 1): 1.0})
    result = is_coboundary(z1, sysc)
    assert not result.trivial and result.certificate is not None


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
        assert all(sys_.coeff.eq(x, y) for x, y in zip(back.values, z.values))


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
    assert all(sys_.coeff.eq(x, y) for x, y in zip(back.values, a.values))


def test_u1_nontrivial_on_rp2_cross_circle():
    prod = models.rp2_cross_circle()
    sys_z = TwistedLocalSystem(prod, Z)
    a, circle_sys = models.half_integer_two_cocycle(sys_z)
    result = u1_is_coboundary(a, circle_sys)
    assert not result.trivial
    assert result.certificate.stage == "dixmier-douady"
