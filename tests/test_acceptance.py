"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single PASS line on success (run pytest -s to see them);
tolerances and runtime bounds are pinned here, not configurable.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from gerbelab import models
from gerbelab.cech import (TwistedLocalSystem, bockstein_dd, cochain,
                           cochain_sub, coboundary, cohomology, is_coboundary,
                           is_cocycle, random_cochain)
from gerbelab.coeffs import (Automorphism, CoefficientGroup, FiniteGroup,
                             SemidirectElement, cyclic_central_extension,
                             semidirect_inv, semidirect_mul)
from gerbelab.lifting import (LiftChoice, TransitionData, change_lifts,
                              lifts_via_section, obstruction, trivialize)
from gerbelab.nerve import random_nerve
from gerbelab.schwinger import (CentralElement, LoopPolynomial,
                                cocycle_identity_defect, dirac_defect,
                                jacobi_defect, loop_scale, schwinger_residue,
                                schwinger_trace)
from gerbelab.connection import chern_number, gauge_residual, two_chart_sphere
from oracles import act, coboundary_matrix, integer_cohomology, standard_corpus
from test_cech import random_twist

SAMPLES = Path(__file__).parent.parent / "sample_inputs"


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_01_trace_equals_residue():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_gap = 0.0
    worst_spread = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        x = LoopPolynomial.random(rng, n, m)
        y = LoopPolynomial.random(rng, n, m)
        scale = loop_scale(x, y)
        residue = schwinger_residue(x, y)
        values = [schwinger_trace(x, y, k) for k in (m, m + 1, m + 5)]
        spread = max(abs(v - values[0]) for v in values)
        gap = abs(values[0] - residue)
        assert gap <= 1e-10 * scale
        assert spread <= 1e-10 * scale
        worst_gap = max(worst_gap, gap / scale)
        worst_spread = max(worst_spread, spread / scale)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"200 pairs, worst |trace-residue|/scale {worst_gap:.2e}, "
              f"worst K-spread {worst_spread:.2e}, {elapsed:.2f}s")


def test_02_cocycle_identity_and_jacobi():
    rng = np.random.default_rng(102)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        loops = [LoopPolynomial.random(rng, n, m) for _ in range(3)]
        scale = loop_scale(*loops)
        cyclic = cocycle_identity_defect(*loops)
        elems = [CentralElement(lp, complex(rng.standard_normal()))
                 for lp in loops]
        jac = jacobi_defect(*elems)
        assert cyclic <= 1e-10 * scale
        assert jac <= 1e-10 * scale
        worst = max(worst, cyclic / scale, jac / scale)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"200 triples, worst defect/scale {worst:.2e}, {elapsed:.2f}s")


def test_03_dirac_defect():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        loop = LoopPolynomial.random(rng, n, m)
        result = dirac_defect(loop, m + 3)
        assert result.interior_deviation <= 1e-12
        worst = max(worst, result.interior_deviation)
    report(3, f"100 loops at K=M+3, worst interior deviation {worst:.2e}")


def test_04_twisted_cech_suite():
    rng = np.random.default_rng(104)
    start = time.monotonic()
    for _ in range(500):
        nerve = random_nerve(rng)
        coeff = CoefficientGroup.integers(
            involution="negation" if rng.integers(2) else "identity")
        sys_ = TwistedLocalSystem(nerve, coeff, random_twist(nerve, rng))
        k = int(rng.integers(0, 3))
        c = random_cochain(sys_, k, rng)
        dd = coboundary(coboundary(c, sys_), sys_)
        assert all(v == 0 for v in dd.values)
    corpus = list(standard_corpus().values()) \
        + [random_nerve(rng) for _ in range(15)]
    checked = 0
    for nerve in corpus:
        assert nerve.vertex_count <= 6
        sys_ = TwistedLocalSystem(nerve, CoefficientGroup.integers())
        for k in range(4):
            got = cohomology(sys_, k)
            free, torsion = integer_cohomology(nerve, k, negate=False)
            assert (got.free_rank, sorted(got.torsion)) == (free, sorted(torsion))
            checked += 1
    mobius = models.circle_mobius_system()
    assert cohomology(mobius, 0).is_trivial()
    assert cohomology(mobius, 1).free_rank == 0
    assert cohomology(mobius, 1).torsion == (2,)
    rp2 = TwistedLocalSystem(models.rp2_nerve(), CoefficientGroup.integers_mod(2))
    assert [cohomology(rp2, k).dimension for k in range(3)] == [1, 1, 1]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(4, f"500 delta-delta triples, {checked} oracle groups, "
              f"Mobius Z/2, RP2 dims (1,1,1), {elapsed:.2f}s")


def test_05_obstruction_round_trip():
    start = time.monotonic()
    z2 = FiniteGroup.cyclic(2)
    ext = cyclic_central_extension(2, 2)
    # trivial side: boundary of the 3-simplex
    nerve = models.boundary_simplex(2)
    sysb = TwistedLocalSystem(nerve, CoefficientGroup.integers_mod(2))
    g = coboundary(cochain(sysb, 0, [0, 1, 1, 0]), sysb)
    td = TransitionData(nerve, z2, Automorphism.identity(z2), list(g.values))
    fixed = trivialize(obstruction(td, ext))
    assert fixed.trivial
    strict = obstruction(td, ext, fixed.lifts)
    assert all(v == 0 for v in strict.cochain.values)
    # nontrivial side: RP2 generator, certificate vs exhaustive search
    td_rp2 = TransitionData(models.rp2_nerve(), z2, Automorphism.identity(z2),
                            list(models.rp2_generator_cocycle().values))
    result = obstruction(td_rp2, ext)
    fixed = trivialize(result)
    assert not fixed.trivial and fixed.certificate is not None
    delta1 = coboundary_matrix(result.system.nerve, 1) % 2
    target = np.array(result.cochain.values, dtype=np.int64)
    bits = ((np.arange(2 ** 15)[:, None] >> np.arange(15)) & 1)
    assert not (bits @ delta1.T % 2 == target).all(axis=1).any()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(5, f"sphere strict lift exact, RP2 certificate confirmed over "
              f"2^15 cochains, {elapsed:.2f}s")


def test_06_lift_independence():
    rng = np.random.default_rng(106)
    z2 = FiniteGroup.cyclic(2)
    ext = cyclic_central_extension(2, 2)
    td = TransitionData(models.rp2_nerve(), z2, Automorphism.identity(z2),
                        list(models.rp2_generator_cocycle().values))
    base = obstruction(td, ext)
    sys_ = base.system
    for _ in range(100):
        b = random_cochain(sys_, 1, rng)
        moved = change_lifts(base.cochain, b, sys_)
        diff = cochain_sub(sys_, moved, base.cochain)
        assert is_coboundary(diff, sys_).trivial
        assert not is_coboundary(moved, sys_).trivial
    report(6, "100 lift perturbations, class unchanged every time")


def test_07_twisted_two_cocycle_identity():
    """Every obstruction output satisfies the quadruple-overlap identity on
    every tetrahedron, in exact arithmetic (the computation also asserts it
    internally in the hat group)."""
    rng = np.random.default_rng(107)
    z3 = FiniteGroup.cyclic(3)
    neg3 = Automorphism.negation(z3)
    ext3 = cyclic_central_extension(3, 3, twist="negation")
    nerves = [models.boundary_simplex(3), models.rp2_cross_circle()]
    nerves += [random_nerve(rng) for _ in range(10)]
    tets = 0
    for nerve in nerves:
        pots = [SemidirectElement(int(rng.integers(3)),
                                  -1 if rng.integers(2) else 1)
                for _ in range(nerve.vertex_count)]
        g, eps = {}, {}
        for (i, j) in nerve.simplices[1]:
            h = semidirect_mul(semidirect_inv(pots[i], neg3), pots[j], neg3)
            g[(i, j)], eps[(i, j)] = h.g, h.eps
        td = TransitionData(nerve, z3, neg3, g, eps)
        lifts = lifts_via_section(td, ext3)
        noisy = LiftChoice(tuple(
            ext3.hat.mul(ext3.kernel_element(int(rng.integers(3))), v)
            for v in lifts.values))
        result = obstruction(td, ext3, noisy)
        assert is_cocycle(result.cochain, result.system)
        sys_ = result.system
        for (i, j, k, l) in nerve.simplices[3]:
            av = lambda t: result.cochain.values[nerve.index_of(t)]
            lhs = (av((i, j, k)) + av((i, k, l))) % 3
            rhs = (act(sys_.coeff, sys_.eps_of(i, j), av((j, k, l)))
                   + av((i, j, l))) % 3
            assert lhs == rhs
            tets += 1
    assert tets > 100
    report(7, f"identity exact on {tets} tetrahedra over {len(nerves)} nerves")


def test_08_bockstein_functoriality():
    rng = np.random.default_rng(108)
    circle = CoefficientGroup.circle()
    # DD of a coboundary is an integral coboundary: 100 seeded cases
    nerves = [models.boundary_simplex(2), models.boundary_simplex(3),
              models.rp2_nerve(), models.circle_nerve()]
    systems = [TwistedLocalSystem(n, circle) for n in nerves]
    for i in range(100):
        sys_ = systems[i % len(systems)]
        b = random_cochain(sys_, 1, rng)
        result = bockstein_dd(coboundary(b, sys_), sys_)
        assert result.trivial
    # any circle 2-cocycle on the 3-sphere model: torsion-free H^3
    sys3 = TwistedLocalSystem(models.boundary_simplex(3), circle)
    for _ in range(25):
        a = coboundary(random_cochain(sys3, 1, rng), sys3)
        assert bockstein_dd(a, sys3).trivial
    # the product of RP2 with the circle carries the order-2 generator
    prod_sys = TwistedLocalSystem(models.rp2_cross_circle(),
                                  CoefficientGroup.integers())
    a, circle_sys = models.half_integer_two_cocycle(prod_sys)
    result = bockstein_dd(a, circle_sys)
    assert not result.trivial
    assert result.group.torsion == (2,)
    double = cochain(result.system, 3, [2 * v for v in result.cocycle.values])
    assert is_coboundary(double, result.system).trivial
    report(8, "100 coboundary cases trivial, 3-sphere always trivial, "
              "product complex hits the order-2 generator")


def test_09_chern_integrality():
    per_degree = {}
    for degree in (-2, -1, 0, 1, 2):
        start = time.monotonic()
        data = two_chart_sphere(degree, resolution=400)
        value = chern_number(data)
        assert abs(value - degree) <= 1e-3
        coarse = gauge_residual(two_chart_sphere(degree, resolution=200), 0, 1)
        fine = gauge_residual(data, 0, 1)
        if degree != 0:
            assert coarse / fine >= 3.5
        else:
            assert fine <= 1e-12
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        per_degree[degree] = (abs(value - degree),
                              coarse / fine if degree else float("inf"))
    worst = max(err for err, _ in per_degree.values())
    ratio = min(r for _, r in per_degree.values())
    report(9, f"degrees -2..2 at 400x400, worst |chern-n| {worst:.1e}, "
              f"min refinement ratio {ratio:.2f}")


def test_10_cli_determinism(tmp_path):
    bundle = tmp_path / "bundle.yaml"
    bundle.write_text("kind: bundle\nformat: v1\nmodel: two-chart-sphere\n"
                      "clutching: 1\nresolution: 100\n")
    invocations = [
        ("cohomology", str(SAMPLES / "system_circle_mobius.yaml"),
         "--degree", "1"),
        ("cohomology", str(SAMPLES / "system_rp2_mod2.yaml"), "--degree", "2"),
        ("obstruction", str(SAMPLES / "transition_rp2_z2.yaml"),
         str(SAMPLES / "extension_z2_z4.yaml")),
        ("schwinger", str(SAMPLES / "loop_single_mode.yaml"),
         str(SAMPLES / "loop_single_mode_inverse.yaml"), "--mode", "trace"),
        ("schwinger", "--mode", "identity", "--random", "4,6", "--seed", "21"),
        ("schwinger", "--mode", "defect", "--random", "2,5", "--seed", "22"),
        ("chern", str(bundle)),
        ("verify", "--seed", "13"),
        ("--machine-readable", "cohomology",
         str(SAMPLES / "system_circle_mobius.yaml"), "--degree", "1"),
    ]
    for args in invocations:
        runs = [subprocess.run([sys.executable, "-m", "gerbelab", *args],
                               capture_output=True, text=True)
                for _ in range(2)]
        assert runs[0].returncode == 0, (args, runs[0].stderr)
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout, args
        if "--machine-readable" in args:
            json.loads(runs[0].stdout)
    report(10, f"{len(invocations)} commands byte-identical across reruns")
