"""The cohomology jobs of the exact workload: fresh-system invariants.

Each job builds a fresh TwistedLocalSystem for one (nerve, twist, ring), as
a user would, and computes H^k for every degree: nerve -> coboundary ->
Smith form -> invariants, with no reuse across rings.  Answers are checked
against closed-form Kuenneth tables, across rings by universal coefficients,
and by the Euler characteristic of the real dimensions.
"""

from types import SimpleNamespace

import gerbelab.cech as cech
import gerbelab.models as models
from gerbelab.coeffs import CoefficientGroup

import checks
from harness import Job

RINGS = ("Z", "Z/2", "Z/3", "R")
# The Z/n sweeps of RP^2 x S^1 take 4-5 s each, as long as the rest of a
# round together; a round runs one of them (Z/2, untwisted), so that a run
# repeats every job several times.
SKIPPED = {("rp2xs1", "Z/3"), ("rp2xs1~", "Z/2"), ("rp2xs1~", "Z/3")}


def coefficients(ring):
    if ring == "Z":
        return CoefficientGroup.integers(involution="negation")
    if ring == "R":
        return CoefficientGroup.reals(involution="negation")
    return CoefficientGroup.integers_mod(int(ring[2:]), involution="negation")


def setup(rng, ctx):
    circle = models.circle_nerve()
    rp2 = models.rp2_nerve()
    rp2_x_s1 = models.rp2_cross_circle()
    orient = checks.sign_twist(rp2, models.rp2_generator_cocycle().values)
    orient_x_s1 = checks.pull_back_edges(rp2_x_s1, circle.vertex_count, orient)
    cases = [  # (name, nerve, twist, integer cohomology table)
        ("circle", circle, {}, checks.CIRCLE),
        ("mobius", circle, checks.gauge(models.mobius_twist(), circle, rng), checks.MOBIUS),
        ("rp2", rp2, {}, checks.RP2),
        ("rp2~", rp2, checks.gauge(orient, rp2, rng), checks.RP2_TWISTED),
        ("s2xs1", models.ordered_product(models.boundary_simplex(2), circle), {},
         checks.S2_X_S1),
        ("rp2xs1", rp2_x_s1, {}, checks.RP2_X_S1),
        ("rp2xs1~", rp2_x_s1, checks.gauge(orient_x_s1, rp2_x_s1, rng),
         checks.RP2_X_S1_TWISTED),
        ("s4", models.boundary_simplex(4), {}, checks.S4),
    ]
    return SimpleNamespace(cases=cases, sizes=input_sizes(cases))


def input_sizes(cases):
    """Simplex counts, coboundary shapes and densities (computed, not timed)."""
    nerves, seen = {}, {}
    for name, nerve, eps, _ in cases:
        shapes = []
        for k in range(checks.TOP):
            rows = checks.delta_rows(nerve, eps, k)
            shapes.append([len(rows), nerve.count(k),
                           round(checks.density(rows, nerve.count(k)), 4)])
        nerves[name] = {"simplices": [nerve.count(k) for k in range(checks.TOP + 1)],
                        "coboundary_shape_nnz_frac": shapes}
        seen[id(nerve)] = sum(nerves[name]["simplices"])
    return {"computed": True, "nerves": nerves,
            "nerve.simplices": sum(seen.values())}


def make_round(state, rng):
    jobs = []
    for name, nerve, eps, tab in state.cases:
        for ring in RINGS:
            if (name, ring) in SKIPPED:
                continue
            jobs.append(Job(f"{name} over {ring}", _job(nerve, eps, ring),
                            _checker(nerve, tab, ring), key=(name, ring)))
    return jobs


def _job(nerve, eps, ring):
    def run():
        system = cech.TwistedLocalSystem(nerve, coefficients(ring), eps)
        return [(g.free_rank, tuple(g.torsion))
                for g in (cech.cohomology(system, k) for k in range(checks.TOP + 1))]
    return run


def _checker(nerve, tab, ring):
    want = [checks.expected_group(tab, k, ring) for k in range(checks.TOP + 1)]
    chi = checks.euler(tab)

    def check(answer):
        if nerve.euler_characteristic() != chi:
            return f"nerve Euler characteristic {nerve.euler_characteristic()} != {chi}"
        got = [(f, tuple(sorted(t))) for f, t in answer]
        if got != want:
            return f"H^* = {got}, expected {want}"
        if ring == "R" and checks.euler([(f, ()) for f, _ in got]) != chi:
            return "real dimensions do not sum to the Euler characteristic"
        return None
    return check


def round_check(group):
    """Universal coefficients: the Z answers predict the Z/p and R answers."""
    by_key = {rec.job.key: (i, rec) for i, rec in group}
    bad = {}
    for (name, ring), (i, rec) in by_key.items():
        z = by_key.get((name, "Z"))
        if ring == "Z" or z is None or z[1].answer is None or rec.answer is None:
            continue
        predicted = checks.uct_table(z[1].answer, ring)
        got = [(f, tuple(sorted(t))) for f, t in rec.answer]
        if got != predicted:
            bad[i] = f"universal coefficients from H^*(Z) predict {predicted}, got {got}"
    return bad
