import numpy as np
import pytest

from gerbelab.coeffs import (Automorphism, CentralExtension, CoefficientGroup,
                             FiniteGroup, SemidirectElement,
                             cyclic_central_extension, semidirect_group,
                             semidirect_inv, semidirect_mul, verify_extension)
from gerbelab.errors import UnsupportedCoefficient
from oracles import act, coeff_eq


def test_coefficient_kinds():
    z = CoefficientGroup.integers(involution="negation")
    assert act(z, -1, 3) == -3 and act(z, 1, 3) == 3
    m2 = CoefficientGroup.integers_mod(2, involution="negation")
    # negation equals identity mod 2
    assert all(act(m2, -1, v) == act(m2, 1, v) for v in (0, 1))
    circle = CoefficientGroup.circle()
    assert circle.normalize(1.25) == 0.25
    assert circle.is_zero(1.0 - 1e-12)
    reals = CoefficientGroup.reals()
    assert coeff_eq(reals, 0.3, 0.3 + 1e-12)


def test_exact_kinds_reject_tolerance():
    with pytest.raises(UnsupportedCoefficient):
        CoefficientGroup("integers", tolerance=1e-9)


@pytest.mark.parametrize("kind", ["integers", "reals", "circle"])
def test_modulus_outside_mod_rejected(kind):
    with pytest.raises(UnsupportedCoefficient, match="take no modulus"):
        CoefficientGroup(kind, modulus=2)
    assert CoefficientGroup(kind).modulus is None


@pytest.mark.parametrize("kind", ["reals", "circle"])
def test_negative_tolerance_rejected(kind):
    with pytest.raises(UnsupportedCoefficient):
        CoefficientGroup(kind, tolerance=-1)


def test_circle_tolerance_below_half():
    assert CoefficientGroup.circle(tolerance=0.49).tolerance == 0.49
    for tolerance in (0.5, 0.6):
        with pytest.raises(UnsupportedCoefficient):
            CoefficientGroup.circle(tolerance=tolerance)
    # reals compare absolute values, so a large tolerance is no contradiction
    assert CoefficientGroup.reals(tolerance=0.6).tolerance == 0.6


def test_trivial_sigma_recovers_direct_product():
    z5 = FiniteGroup.cyclic(5)
    ident = Automorphism.identity(z5)
    a = SemidirectElement(2, 1)
    b = SemidirectElement(4, 1)
    assert semidirect_mul(a, b, ident) == SemidirectElement(1, 1)


def test_z3_semidirect_is_s3():
    """The twisted product of Z3 by negation is the symmetric group S3,
    verified against a brute-force permutation multiplication table."""
    z3 = FiniteGroup.cyclic(3)
    neg = Automorphism.negation(z3)
    got = semidirect_group(z3, neg)

    # S3 as permutations of {0,1,2}: rotation r = (0 1 2), reflection f = x -> -x
    def perm(g, eps):
        return tuple((g + x) % 3 if eps == 1 else (g - x) % 3 for x in range(3))

    elements = [(g, e) for e in (1, -1) for g in range(3)]
    perms = {perm(g, e): (g, e) for g, e in elements}

    def compose(p, q):
        return tuple(p[q[x]] for x in range(3))

    def enc(g, e):
        return g + (3 if e == -1 else 0)

    for ga, ea in elements:
        for gb, eb in elements:
            composed = compose(perm(ga, ea), perm(gb, eb))
            expect = perms[composed]
            assert got.mul(enc(ga, ea), enc(gb, eb)) == enc(*expect)


def test_spec_table_value():
    z3 = FiniteGroup.cyclic(3)
    neg = Automorphism.negation(z3)
    x = SemidirectElement(1, -1)
    assert semidirect_mul(x, x, neg) == SemidirectElement(0, 1)


def test_identity_is_neutral_and_inverses_work():
    z6 = FiniteGroup.cyclic(6)
    neg = Automorphism.negation(z6)
    rng = np.random.default_rng(0)
    e = SemidirectElement(0, 1)
    for _ in range(50):
        x = SemidirectElement(int(rng.integers(6)), -1 if rng.integers(2) else 1)
        assert semidirect_mul(e, x, neg) == x
        assert semidirect_mul(x, e, neg) == x
        assert semidirect_mul(x, semidirect_inv(x, neg), neg) == e


def test_associativity_exhaustive_small():
    for order in (2, 3, 4, 12):
        g = FiniteGroup.cyclic(order)
        neg = Automorphism.negation(g)
        elems = [SemidirectElement(i, e) for i in range(order) for e in (1, -1)]
        for a in elems:
            for b in elems:
                for c in elems:
                    assert semidirect_mul(semidirect_mul(a, b, neg), c, neg) \
                        == semidirect_mul(a, semidirect_mul(b, c, neg), neg)


def test_associativity_randomized_beyond_exhaustive_range():
    rng = np.random.default_rng(6)
    g = FiniteGroup.cyclic(36)
    neg = Automorphism.negation(g)
    for _ in range(500):
        a, b, c = (SemidirectElement(int(rng.integers(36)),
                                     -1 if rng.integers(2) else 1)
                   for _ in range(3))
        assert semidirect_mul(semidirect_mul(a, b, neg), c, neg) \
            == semidirect_mul(a, semidirect_mul(b, c, neg), neg)


def test_extension_z2_z4():
    ext = cyclic_central_extension(2, 2)
    assert verify_extension(ext).ok
    assert ext.kernel_coefficients().describe() == "mod 2 involution=identity"


def test_extension_z3_z9_negation_equivariance():
    ext = cyclic_central_extension(3, 3, twist="negation")
    report = verify_extension(ext)
    assert report.ok
    # exhaustive equivariance over all 9 elements
    for h in range(9):
        assert ext.q(ext.sigma_hat(h)) == ext.sigma(ext.q(h))
    assert ext.kernel_coefficients().involution == "negation"


def test_mismatched_involutions_flagged():
    good = cyclic_central_extension(3, 3, twist="negation")
    bad = CentralExtension(good.hat, good.base, good.projection, good.section,
                           good.kernel,
                           sigma_hat=Automorphism.identity(good.hat),
                           sigma=Automorphism.negation(good.base))
    report = verify_extension(bad)
    assert not report.ok and report.violation == "NotEquivariant"
    # witnessed by element 1: q(sigma_hat(1)) = 1 but sigma(q(1)) = 2
    assert 1 in report.witness or report.witness


def test_centrality_of_kernel_after_verification():
    ext = cyclic_central_extension(2, 3)
    assert verify_extension(ext).ok
    hat = ext.hat
    for a in ext.kernel:
        for h in range(hat.order):
            assert hat.mul(a, h) == hat.mul(h, a)


def test_section_defect_lies_in_kernel():
    rng = np.random.default_rng(1)
    for kernel_order, base_order in ((2, 2), (2, 3), (3, 3)):
        ext = cyclic_central_extension(kernel_order, base_order)
        for _ in range(30):
            x = int(rng.integers(base_order))
            y = int(rng.integers(base_order))
            d = ext.hat.mul(ext.hat.mul(ext.s(x), ext.s(y)),
                            ext.hat.inv(ext.s(ext.base.mul(x, y))))
            assert ext.kernel_value(d) is not None


def test_declared_kernel_must_match():
    ext = cyclic_central_extension(2, 2)
    broken = CentralExtension(ext.hat, ext.base, ext.projection, ext.section,
                              (0, 1))
    report = verify_extension(broken)
    assert not report.ok and report.violation == "NotHomomorphism"


@pytest.mark.parametrize("kernel, witness, message", [
    ((2, 0), (0,), "kernel[0] = 2 is not the identity"),
    ((0, 4, 2, 6), (1, 1), "kernel[1]*kernel[1] != kernel[2]"),
])
def test_kernel_labelling_must_be_a_homomorphism(kernel, witness, message):
    """kernel[v] must realize v: kernel[0] is the identity and kernel[v]
    kernel[w] = kernel[(v + w) mod m], not only the right set."""
    ext = cyclic_central_extension(len(kernel), 2)
    assert verify_extension(ext).ok
    relabelled = CentralExtension(ext.hat, ext.base, ext.projection,
                                  ext.section, kernel)
    report = verify_extension(relabelled)
    assert not report.ok and report.violation == "NotHomomorphism"
    assert report.witness == witness and report.message == message


def test_exotic_kernel_involution_rejected():
    # Z8 kernel with sigma_hat = x -> 3x is an involution on Z8 but acts on
    # the kernel as neither identity nor negation.
    hat = FiniteGroup.cyclic(8)
    base = FiniteGroup.cyclic(1)
    sigma_hat = Automorphism(hat, [(3 * x) % 8 for x in range(8)])
    ext = CentralExtension(hat, base, [0] * 8, [0], list(range(8)),
                           sigma_hat=sigma_hat)
    with pytest.raises(UnsupportedCoefficient):
        ext.kernel_coefficients()


def test_group_table_validation():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [0, 1]])  # no inverse row structure
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1, 2], [1, 2, 0]])  # not square
