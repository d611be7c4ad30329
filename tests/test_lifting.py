import numpy as np
import pytest

from gerbelab import models
from gerbelab.cech import (TwistedLocalSystem, cochain, cochain_sub,
                           coboundary, is_coboundary, is_cocycle,
                           random_cochain, zero_cochain)
from gerbelab.coeffs import (Automorphism, CentralExtension, CoefficientGroup,
                             FiniteGroup, cyclic_central_extension,
                             semidirect_inv, SemidirectElement, semidirect_mul)
from gerbelab.errors import (LiftMismatch, NotACocycle, ShapeMismatch,
                             ValueNotInKernel)
from gerbelab.lifting import (LiftChoice, TransitionData, change_lifts,
                              check_gerbe_module, check_twisted_cocycle,
                              lifts_via_section, obstruction, trivialize)
from gerbelab.nerve import random_nerve
from oracles import (act, coboundary_matrix, cup_product, gf2_rank,
                     hand_written_cocycle_report, hand_written_obstruction,
                     loop_class_order, negated_solve_trivialize, simplex_lists,
                     untwisted_obstruction)

Z2 = FiniteGroup.cyclic(2)
Z3 = FiniteGroup.cyclic(3)
MOD2 = CoefficientGroup.integers_mod(2)


def rp2_transition():
    gen = models.rp2_generator_cocycle()
    return TransitionData(models.rp2_nerve(), Z2, Automorphism.identity(Z2),
                          list(gen.values))


def sphere_transition(rng=None):
    """A mod-2 coboundary cocycle on the 2-sphere model (H^1 = 0 there)."""
    rng = rng or np.random.default_rng(0)
    nerve = models.boundary_simplex(2)
    sysb = TwistedLocalSystem(nerve, MOD2)
    pot = cochain(sysb, 0, [int(rng.integers(2)) for _ in range(4)])
    g = coboundary(pot, sysb)
    return TransitionData(nerve, Z2, Automorphism.identity(Z2), list(g.values))


def gauge_transition(nerve, group, sigma, rng):
    """Pure-gauge twisted cocycle h_ij = u_i^{-1} u_j from random potentials
    u_i = (c_i, v_i): always satisfies the twisted cocycle law."""
    pots = [SemidirectElement(int(rng.integers(group.order)),
                              -1 if rng.integers(2) else 1)
            for _ in range(nerve.vertex_count)]
    g = {}
    eps = {}
    for (i, j) in nerve.simplices[1]:
        h = semidirect_mul(semidirect_inv(pots[i], sigma), pots[j], sigma)
        g[(i, j)] = h.g
        eps[(i, j)] = h.eps
    return TransitionData(nerve, group, sigma, g, eps)


# --- check_twisted_cocycle -------------------------------------------------

def test_identity_data_passes():
    nerve = models.boundary_simplex(2)
    td = TransitionData(nerve, Z2, Automorphism.identity(Z2),
                        {e: 0 for e in nerve.simplices[1]})
    assert check_twisted_cocycle(td).ok


def test_rp2_generator_passes():
    assert check_twisted_cocycle(rp2_transition()).ok


def test_perturbed_edge_fails_with_named_triangle():
    td = rp2_transition()
    g = list(td.g)
    g[0] ^= 1  # flip the (0, 1) edge
    bad = TransitionData(td.nerve, td.group, td.sigma, g, td.eps)
    report = check_twisted_cocycle(bad)
    assert not report.ok
    assert report.triangle is not None
    assert 0 in report.triangle and 1 in report.triangle
    assert report.lhs != report.rhs


def test_gauge_cocycles_always_pass():
    rng = np.random.default_rng(19)
    z3 = FiniteGroup.cyclic(3)
    neg = Automorphism.negation(z3)
    for _ in range(20):
        nerve = random_nerve(rng)
        td = gauge_transition(nerve, z3, neg, rng)
        assert check_twisted_cocycle(td).ok


# --- obstruction -----------------------------------------------------------

def split_extension_z2():
    """Z2 -> Z2 x Z2 -> Z2 with a homomorphic section x -> (0, x)."""
    table = []
    for a in range(4):
        row = []
        for b in range(4):
            row.append(((a ^ b) & 1) | ((a ^ b) & 2))
        table.append(row)
    hat = FiniteGroup(table)
    return CentralExtension(hat, Z2, [x >> 1 for x in range(4)], [0, 2],
                            [0, 1])


def test_homomorphic_section_gives_identity_obstruction():
    ext = split_extension_z2()
    td = rp2_transition()
    result = obstruction(td, ext)
    assert all(v == 0 for v in result.cochain.values)
    assert result.class_result().trivial


def test_rp2_obstruction_is_bockstein_square():
    td = rp2_transition()
    ext = cyclic_central_extension(2, 2)
    result = obstruction(td, ext)
    assert is_cocycle(result.cochain, result.system)
    cls = result.class_result()
    assert not cls.trivial
    # values are the carries of mod-2 addition, normalized from {0, 2} in Z4
    g = dict(zip(td.nerve.simplices[1], td.g))
    for t, v in zip(td.nerve.simplices[2], result.cochain.values):
        i, j, k = t
        carry = (g[(i, j)] + g[(j, k)] - g[(i, k)]) // 2 % 2
        assert v == carry


def test_rp2_nontriviality_agrees_with_exhaustive_search():
    td = rp2_transition()
    result = obstruction(td, cyclic_central_extension(2, 2))
    sys_ = result.system
    delta1 = coboundary_matrix(sys_.nerve, 1) % 2
    target = np.array(result.cochain.values, dtype=np.int64)
    n_edges = td.nerve.count(1)
    assert n_edges == 15
    candidates = ((np.arange(2 ** n_edges)[:, None] >> np.arange(n_edges)) & 1)
    images = candidates @ delta1.T % 2
    assert not (images == target).all(axis=1).any()


def test_sphere_obstruction_trivializes_exactly():
    rng = np.random.default_rng(2)
    ext = cyclic_central_extension(2, 2)
    for _ in range(10):
        td = sphere_transition(rng)
        result = obstruction(td, ext)
        fixed = trivialize(result)
        assert fixed.trivial
        strict = obstruction(td, ext, fixed.lifts)
        assert all(v == 0 for v in strict.cochain.values)


def test_rp2_trivialize_returns_certificate():
    result = obstruction(rp2_transition(), cyclic_central_extension(2, 2))
    fixed = trivialize(result)
    assert not fixed.trivial
    cert = fixed.certificate
    assert cert is not None and cert.modulus == 2


def test_lift_mismatch_detected():
    td = rp2_transition()
    ext = cyclic_central_extension(2, 2)
    bad = LiftChoice(tuple(0 for _ in td.nerve.simplices[1]))
    with pytest.raises(LiftMismatch):
        obstruction(td, ext, bad)


def test_obstruction_outside_the_declared_kernel_rejected():
    """Z/2 -> Z/4 -> Z/2 declared with the kernel {0} only: the RP^2
    generator's obstruction takes the central value 2, which the extension
    does not list."""
    z4 = FiniteGroup.cyclic(4)
    ext = CentralExtension(z4, Z2, [x % 2 for x in range(4)], [0, 1], kernel=[0])
    with pytest.raises(ValueNotInKernel, match="outside the kernel"):
        obstruction(rp2_transition(), ext)


def test_broken_cocycle_rejected():
    td = rp2_transition()
    g = list(td.g)
    g[0] ^= 1
    bad = TransitionData(td.nerve, td.group, td.sigma, g, td.eps)
    with pytest.raises(NotACocycle):
        obstruction(bad, cyclic_central_extension(2, 2))


def test_twisted_gauge_obstruction_identity_and_triviality():
    """Pure-gauge twisted data over Z3 x| Z2 with negation lifts through
    Z9: the obstruction passes the quadruple-overlap identity internally
    and its class vanishes."""
    rng = np.random.default_rng(37)
    z3 = FiniteGroup.cyclic(3)
    neg3 = Automorphism.negation(z3)
    ext = cyclic_central_extension(3, 3, twist="negation")
    for _ in range(10):
        nerve = random_nerve(rng, max_vertices=6)
        td = gauge_transition(nerve, z3, neg3, rng)
        lifts = lifts_via_section(td, ext)
        noise = [int(rng.integers(3)) for _ in td.g]
        noisy = LiftChoice(tuple(
            ext.hat.mul(ext.kernel_element(r), v)
            for r, v in zip(noise, lifts.values)))
        result = obstruction(td, ext, noisy)
        assert is_cocycle(result.cochain, result.system)
        fixed = trivialize(result)
        assert fixed.trivial
        strict = obstruction(td, ext, fixed.lifts)
        assert all(v == 0 for v in strict.cochain.values)


def test_alternate_quadruple_ordering_for_two_torsion():
    """For 2-torsion coefficients the reversed ordering of the quadruple
    identity agrees with the enforced one on every tetrahedron."""
    rng = np.random.default_rng(59)
    ext = cyclic_central_extension(2, 2)
    z2 = FiniteGroup.cyclic(2)
    for _ in range(10):
        nerve = random_nerve(rng)
        if not nerve.simplices[3]:
            continue
        td = gauge_transition(nerve, z2, Automorphism.identity(z2), rng)
        result = obstruction(td, ext)
        a = result.cochain
        sys_ = result.system
        nv = sys_.nerve
        for (i, j, k, l) in nv.simplices[3]:
            av = lambda t: a.values[nv.index_of(t)]
            eps_act = act(sys_.coeff, sys_.eps_of(i, j), av((i, k, l)))
            alt = (av((j, k, l)) - av((i, j, l)) + av((i, j, k)) - eps_act) % 2
            assert alt == 0


def test_untwisted_path_matches_independent_oracle():
    """With trivial twist the obstruction agrees entry-by-entry with a
    from-scratch classical computation."""
    td = rp2_transition()
    ext = cyclic_central_extension(2, 2)
    result = obstruction(td, ext)
    hat = ext.hat
    mul_table = [list(row) for row in hat.table]
    inv_table = list(hat.inverse)
    g_edges = {e: td.g[td.nerve.index_of(e)] for e in td.nerve.simplices[1]}
    oracle = untwisted_obstruction(td.nerve, g_edges, list(ext.section),
                                   mul_table, inv_table, list(ext.projection))
    for t, v in zip(td.nerve.simplices[2], result.cochain.values):
        assert ext.kernel_value(oracle[t]) == v


def test_lift_outside_the_hat_group_rejected():
    td = rp2_transition()
    ext = cyclic_central_extension(2, 2)
    values = list(lifts_via_section(td, ext).values)
    edge = td.g.index(1)
    for bad in (-3, -1, 4, 5):  # -3 reads projection[1] = 1 = g without the check
        values[edge] = bad
        with pytest.raises(LiftMismatch, match="not an element of the hat group"):
            obstruction(td, ext, LiftChoice(tuple(values)))


@pytest.mark.parametrize("count", [2, 14, 16, 20])
def test_transition_data_rejects_a_sign_list_of_the_wrong_length(count):
    nerve = models.rp2_nerve()
    assert nerve.count(1) == 15
    with pytest.raises(ValueError, match="eps length"):
        TransitionData(nerve, Z2, Automorphism.identity(Z2), [0] * 15, [1] * count)


# --- the product rule against the hand-written reference -------------------

def extension_cases():
    """(name, extension, transition group, its action) for the four
    extensions the reference comparison runs over."""
    return [
        ("z2-z4", cyclic_central_extension(2, 2), Z2, Automorphism.identity(Z2)),
        ("z2-z4-twisted", cyclic_central_extension(2, 2, twist="negation"), Z2,
         Automorphism.negation(Z2)),
        ("z3-z9", cyclic_central_extension(3, 3, twist="negation"), Z3,
         Automorphism.negation(Z3)),
        ("split-z2xz2", split_extension_z2(), Z2, Automorphism.identity(Z2)),
    ]


def random_lifts(td, ext, rng):
    """A random hat element over every edge value."""
    fibres = {g: [h for h in range(ext.hat.order) if ext.q(h) == g]
              for g in range(ext.base.order)}
    return LiftChoice(tuple(int(rng.choice(fibres[g])) for g in td.g))


@pytest.mark.parametrize("name, ext, group, sigma", extension_cases(),
                         ids=[c[0] for c in extension_cases()])
def test_obstruction_matches_the_hand_written_rule(name, ext, group, sigma):
    """Values from semidirect_mul equal the old hand-written product bit for
    bit, on random gauge transitions over random nerves and RP^2 x S^1."""
    rng = np.random.default_rng(83)
    nerves = [random_nerve(rng) for _ in range(12)] + [models.rp2_cross_circle()]
    for nerve in nerves:
        td = gauge_transition(nerve, group, sigma, rng)
        for lifts in (lifts_via_section(td, ext), random_lifts(td, ext, rng)):
            result = obstruction(td, ext, lifts)
            expect = hand_written_obstruction(td, ext, lifts)
            assert list(result.cochain.values) == [ext.kernel_value(h) for h in expect]
            assert result.lifts == lifts


@pytest.mark.parametrize("group, sigma", [(Z2, Automorphism.identity(Z2)),
                                          (Z3, Automorphism.negation(Z3))],
                         ids=["z2", "z3-negation"])
def test_cocycle_reports_match_the_hand_written_rule(group, sigma):
    """check_twisted_cocycle names the same first failing triangle, with the
    same (g, eps) sides, as the hand-written rule, after one edge's value or
    sign is changed."""
    rng = np.random.default_rng(89)
    nerves = [random_nerve(rng) for _ in range(20)] + [models.rp2_cross_circle()]
    failures = 0
    for nerve in nerves:
        td = gauge_transition(nerve, group, sigma, rng)
        assert check_twisted_cocycle(td).ok and hand_written_cocycle_report(td) is None
        if not nerve.simplices[2]:
            continue
        g, eps = list(td.g), list(td.eps)
        edge = int(rng.integers(len(g)))
        if rng.integers(2):
            g[edge] = (g[edge] + 1) % group.order
        else:
            eps[edge] = -eps[edge]
        bad = TransitionData(nerve, group, sigma, g, eps)
        report = check_twisted_cocycle(bad)
        expect = hand_written_cocycle_report(bad)
        if expect is None:
            assert report.ok
            continue
        failures += 1
        assert not report.ok
        assert (report.triangle, report.lhs, report.rhs) == expect
    assert failures >= 10


# --- trivialize against the negated-solve route ---------------------------

@pytest.mark.parametrize("name, ext, group, sigma", extension_cases(),
                         ids=[c[0] for c in extension_cases()])
def test_trivialize_matches_the_negated_solve_route(name, ext, group, sigma):
    """The one solve of d b = a, negated, corrects the lifts bit for bit as
    a second solve of d b' = -a did, on random gauge transitions with
    random kernel noise over random nerves and RP^2 x S^1."""
    rng = np.random.default_rng(97)
    nerves = [random_nerve(rng) for _ in range(12)] + [models.rp2_cross_circle()]
    for nerve in nerves:
        td = gauge_transition(nerve, group, sigma, rng)
        for lifts in (lifts_via_section(td, ext), random_lifts(td, ext, rng)):
            result = obstruction(td, ext, lifts)
            fixed = trivialize(result)
            assert fixed.trivial
            assert fixed.lifts.values == negated_solve_trivialize(result)[0]
            assert fixed.certificate == result.class_result().certificate


def generator_cases():
    """(transition, extension, trivial) for the RP^2 generator c on RP^2 and
    RP^2 x S^1: untwisted (a non-trivial class) and twisted by w1 = c."""
    out = []
    for nerve, project in ((models.rp2_nerve(), lambda x: x),
                           (models.rp2_cross_circle(), lambda x: x // 3)):
        c = rp2_generator_on(nerve, project)
        out.append((TransitionData(nerve, Z2, Automorphism.identity(Z2), c),
                    cyclic_central_extension(2, 2), False))
        out.append((TransitionData(nerve, Z2, Automorphism.negation(Z2), c,
                                   {e: -1 for e, v in c.items() if v}),
                    cyclic_central_extension(2, 2, twist="negation"), True))
    return out


def test_trivialize_matches_the_negated_solve_route_on_the_generator():
    rng = np.random.default_rng(101)
    for td, ext, trivial in generator_cases():
        for lifts in (lifts_via_section(td, ext), random_lifts(td, ext, rng)):
            result = obstruction(td, ext, lifts)
            fixed = trivialize(result)
            assert fixed.trivial == trivial
            expect = negated_solve_trivialize(result)[0]
            assert (fixed.lifts.values if trivial else None) == expect
            assert fixed.certificate == result.class_result().certificate
            assert (fixed.certificate is None) == trivial
            assert fixed.order == loop_class_order(result.cochain, result.system,
                                                   ext.kernel_order) == (1 if trivial else 2)


@pytest.mark.parametrize("wrong", [
    lambda self, v: self.kernel[(v + 1) % self.kernel_order],
    lambda self, v: 1,
], ids=["shifted-kernel-element", "outside-the-kernel"])
def test_trivialize_self_check_catches_a_wrong_correction(monkeypatch, wrong):
    td, ext, _ = generator_cases()[1]
    result = obstruction(td, ext, random_lifts(td, ext, np.random.default_rng(3)))
    assert trivialize(result).trivial
    monkeypatch.setattr(CentralExtension, "kernel_element", wrong)
    with pytest.raises(AssertionError, match="strict cocycle condition"):
        trivialize(result)


# --- change_lifts ----------------------------------------------------------

def test_change_lifts_identity():
    result = obstruction(rp2_transition(), cyclic_central_extension(2, 2))
    b = zero_cochain(result.system, 1)
    assert change_lifts(result.cochain, b, result.system).values \
        == result.cochain.values


def test_change_lifts_of_zero_is_coboundary():
    rng = np.random.default_rng(61)
    result = obstruction(sphere_transition(), cyclic_central_extension(2, 2))
    sys_ = result.system
    zero = zero_cochain(sys_, 2)
    for _ in range(10):
        b = random_cochain(sys_, 1, rng)
        moved = change_lifts(zero, b, sys_)
        assert moved.values == coboundary(b, sys_).values
        assert is_coboundary(moved, sys_).trivial


def test_change_lifts_preserves_class():
    rng = np.random.default_rng(67)
    result = obstruction(rp2_transition(), cyclic_central_extension(2, 2))
    sys_ = result.system
    for _ in range(25):
        b = random_cochain(sys_, 1, rng)
        moved = change_lifts(result.cochain, b, sys_)
        diff = cochain_sub(sys_, moved, result.cochain)
        assert is_coboundary(diff, sys_).trivial
        assert not is_coboundary(moved, sys_).trivial


def test_change_lifts_matches_actual_lift_change():
    """Multiplying the stored lifts by kernel elements changes the cochain
    by exactly the twisted coboundary of the kernel 1-cochain."""
    rng = np.random.default_rng(71)
    td = rp2_transition()
    ext = cyclic_central_extension(2, 2)
    base = obstruction(td, ext)
    for _ in range(5):
        b_vals = [int(rng.integers(2)) for _ in td.g]
        noisy = LiftChoice(tuple(
            ext.hat.mul(ext.kernel_element(r), v)
            for r, v in zip(b_vals, base.lifts.values)))
        moved = obstruction(td, ext, noisy)
        b = cochain(base.system, 1, b_vals)
        assert moved.cochain.values \
            == change_lifts(base.cochain, b, base.system).values


# --- gerbe modules ---------------------------------------------------------

def test_ordinary_cocycle_is_gerbe_module_with_trivial_band():
    rng = np.random.default_rng(73)
    nerve = models.boundary_simplex(2)
    sys_ = TwistedLocalSystem(nerve, CoefficientGroup.circle())
    # phi_ij = u_i^* u_j for random unitaries: an honest matrix cocycle
    def unitary():
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(m)
        return q
    us = [unitary() for _ in range(4)]
    phi = {(i, j): us[i].conj().T @ us[j] for (i, j) in nerve.simplices[1]}
    report = check_gerbe_module(phi, zero_cochain(sys_, 2), sys_)
    assert report.ok and report.max_deviation <= 1e-12


def test_rescaled_edge_detected():
    rng = np.random.default_rng(79)
    nerve = models.boundary_simplex(2)
    sys_ = TwistedLocalSystem(nerve, CoefficientGroup.circle())
    us = [np.eye(2) for _ in range(4)]
    phi = {(i, j): us[i].T @ us[j] for (i, j) in nerve.simplices[1]}
    phi[(0, 1)] = np.exp(2j * np.pi * 0.2) * phi[(0, 1)]
    report = check_gerbe_module(phi, zero_cochain(sys_, 2), sys_)
    assert not report.ok
    assert report.triangle is not None and 0 in report.triangle


def test_shape_mismatch():
    nerve = models.boundary_simplex(2)
    sys_ = TwistedLocalSystem(nerve, CoefficientGroup.circle())
    phi = {e: np.eye(2) for e in nerve.simplices[1]}
    phi[(0, 1)] = np.eye(3)
    with pytest.raises(ShapeMismatch):
        check_gerbe_module(phi, zero_cochain(sys_, 2), sys_)


def test_rank_one_module_over_rp2_gerbe():
    """The RP^2 obstruction, pushed into U(1) as +-1 scalars, supports a
    rank-1 twisted module: solve the scalar relation with a real primitive
    of the half-integer cocycle."""
    from gerbelab.cech import u1_is_coboundary
    result = obstruction(rp2_transition(), cyclic_central_extension(2, 2))
    nerve = result.system.nerve
    circle_sys = TwistedLocalSystem(nerve, CoefficientGroup.circle())
    a = cochain(circle_sys, 2, [v / 2.0 for v in result.cochain.values])
    solved = u1_is_coboundary(a, circle_sys)
    assert solved.trivial
    b = solved.primitive
    phi = {e: np.array([[np.exp(2j * np.pi * b.values[nerve.index_of(e)])]])
           for e in nerve.simplices[1]}
    report = check_gerbe_module(phi, a, circle_sys)
    assert report.ok, report.message()


# --- cup-product oracle for the Z2-twisted obstruction ----------------------

def rp2_generator_on(nerve, project):
    """The RP^2 generator c pulled back along a vertex map onto RP^2
    (degenerate edges get 0), as a dict over the nerve's edges."""
    gen = dict(zip(models.rp2_nerve().simplices[1],
                   models.rp2_generator_cocycle().values))
    return {(i, j): gen.get((project(i), project(j)), 0)
            for (i, j) in simplex_lists(nerve)[1]}


def mod2_coboundary(nerve, k, values):
    """Is the k-cochain (dict over k-simplices) a mod-2 coboundary?
    Decided by GF(2) ranks of the oracle's own coboundary matrix."""
    if k == 0:
        return not any(v % 2 for v in values.values())
    d = coboundary_matrix(nerve, k - 1)
    z = [values.get(s, 0) % 2 for s in simplex_lists(nerve)[k]]
    return gf2_rank(d) == gf2_rank(np.column_stack([d, z]))


def cochain_sum(*cochains):
    return {s: sum(c[s] for c in cochains) % 2 for s in cochains[0]}


@pytest.mark.parametrize("name", ["rp2", "rp2xs1"])
def test_twisted_obstruction_is_c_cup_c_plus_w1_cup_c(name):
    """Z/2 -> Z/4 on the RP^2 generator c: untwisted, the obstruction is
    c cup c up to a mod-2 coboundary, a non-trivial class; twisted by
    w1 = c (also after a gauge change), it is c cup c + w1 cup c, which
    vanishes in cohomology."""
    if name == "rp2":
        nerve, project = models.rp2_nerve(), (lambda x: x)
    else:  # ordered product vertex u * 3 + v projects to RP^2 vertex u
        nerve, project = models.rp2_cross_circle(), (lambda x: x // 3)
    c = rp2_generator_on(nerve, project)
    delta1 = coboundary_matrix(nerve, 1)
    edges, triangles = simplex_lists(nerve)[1], simplex_lists(nerve)[2]
    assert not np.any(delta1 @ [c[e] for e in edges] % 2)
    cc = cup_product(nerve, 1, c, 1, c)
    assert not mod2_coboundary(nerve, 2, cc)

    result = obstruction(TransitionData(nerve, Z2, Automorphism.identity(Z2), c),
                         cyclic_central_extension(2, 2))
    o = dict(zip(nerve.simplices[2], result.cochain.values))
    assert sorted(o) == triangles
    assert mod2_coboundary(nerve, 2, cochain_sum(o, cc))
    assert not mod2_coboundary(nerve, 2, o)
    assert not result.class_result().trivial

    rng = np.random.default_rng(5)
    signs = [int(rng.integers(2)) for _ in range(nerve.vertex_count)]
    gauged = {(i, j): (v + signs[i] + signs[j]) % 2 for (i, j), v in c.items()}
    ext = cyclic_central_extension(2, 2, twist="negation")
    for w1 in (c, gauged):
        td = TransitionData(nerve, Z2, Automorphism.negation(Z2), c,
                            {e: -1 for e, v in w1.items() if v})
        assert check_twisted_cocycle(td).ok
        result = obstruction(td, ext)
        o = dict(zip(nerve.simplices[2], result.cochain.values))
        wc = cup_product(nerve, 1, w1, 1, c)
        assert mod2_coboundary(nerve, 2, cochain_sum(o, cc, wc))
        assert mod2_coboundary(nerve, 2, cochain_sum(cc, wc))
        assert mod2_coboundary(nerve, 2, o)
        assert result.class_result().trivial
