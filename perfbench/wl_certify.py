"""The certify jobs of the exact workload: warm-system solves and certificates.

Sixteen systems (RP^2 and RP^2 x S^1, twisted and untwisted, over Z, Z/2, R
and R/Z) answer a seeded stream of cocycles in degrees 1-3.  Each cocycle is
an exact coboundary d(random), with or without a known non-trivial class
added, so the expected triviality is known by construction.  Circle
2-cocycles also go through bockstein_dd, and transition data run through the
lifting obstruction for Z/2 -> Z/4 and its twisted form.  Set-up warms every
(system, degree) with one untimed query, so the timed jobs reuse cached
Smith forms.

Every primitive is checked by d b = z and every certificate by pairing it
against the coboundary matrix, both computed from the definition.
"""

from types import SimpleNamespace

import gerbelab.cech as cech
import gerbelab.coeffs as coeffs
import gerbelab.lifting as lifting
import gerbelab.models as models
from gerbelab.coeffs import Automorphism, CoefficientGroup, FiniteGroup

import checks
from harness import Job

RINGS = ("Z", "Z/2", "R", "R/Z")
KIND = {"Z": "Z", "Z/2": "Z/n", "R": "R", "R/Z": "R/Z"}


def coefficients(ring):
    return {"Z": CoefficientGroup.integers(involution="negation"),
            "Z/2": CoefficientGroup.integers_mod(2, involution="negation"),
            "R": CoefficientGroup.reals(involution="negation"),
            "R/Z": CoefficientGroup.circle(involution="negation")}[ring]


def setup(rng, ctx):
    st = SimpleNamespace()
    circle = models.circle_nerve()
    rp2 = models.rp2_nerve()
    rp2_x_s1 = models.rp2_cross_circle()
    gen = list(models.rp2_generator_cocycle().values)
    orient = checks.sign_twist(rp2, gen)
    edges = dict(zip(rp2.simplices[1], gen))
    gen_x_s1 = checks.pull_back_edges(rp2_x_s1, circle.vertex_count, edges)
    s1_gen = checks.pull_back_edges(rp2_x_s1, circle.vertex_count, {(0, 2): 1}, which=1)
    st.nerves = {
        "rp2": (rp2, gen, orient, checks.RP2, checks.RP2_TWISTED),
        "rp2xs1": (rp2_x_s1, [gen_x_s1.get(e, 0) for e in rp2_x_s1.simplices[1]],
                   checks.pull_back_edges(rp2_x_s1, circle.vertex_count, orient),
                   checks.RP2_X_S1, checks.RP2_X_S1_TWISTED),
    }
    st.systems = {}
    st.classes = {}
    for nname, (nerve, mod2, twist, *_) in st.nerves.items():
        for twisted in (False, True):
            eps = checks.gauge(twist, nerve, rng) if twisted else {}
            for ring in RINGS:
                st.systems[(nname, twisted, ring)] = (
                    cech.TwistedLocalSystem(nerve, coefficients(ring), eps), eps)
        # known non-trivial classes, by construction
        st.classes[(nname, False, "Z/2", 1)] = mod2
        st.classes[(nname, True, "Z/2", 1)] = mod2  # the twist is invisible mod 2
        st.classes[(nname, False, "R/Z", 1)] = [v / 2 for v in mod2]  # Bockstein = beta(c)
        lift = checks.apply(checks.delta_rows(nerve, {}, 1), mod2)
        st.classes[(nname, False, "Z", 2)] = [v // 2 for v in lift]  # beta(c), order 2
    s1 = [s1_gen.get(e, 0) for e in rp2_x_s1.simplices[1]]
    st.classes[("rp2xs1", False, "Z", 1)] = s1
    st.classes[("rp2xs1", False, "R", 1)] = s1
    integral = st.systems[("rp2xs1", False, "Z")][0]
    st.classes[("rp2xs1", False, "R/Z", 2)] = list(
        models.half_integer_two_cocycle(integral)[0].values)
    st.extensions = {}
    z2 = FiniteGroup.cyclic(2)
    for twisted in (False, True):
        ext = coeffs.cyclic_central_extension(2, 2, twist="negation" if twisted else "identity")
        report = coeffs.verify_extension(ext)
        sigma = Automorphism.negation(z2) if twisted else Automorphism.identity(z2)
        st.extensions[twisted] = (ext, sigma, report.ok)
    st.group = z2
    st.sizes = input_sizes(st)
    for (nname, twisted, ring), (system, eps) in st.systems.items():
        for k in degrees(system.nerve):
            cech.is_coboundary(cech.cochain(system, k, exact_cocycle(
                system.nerve, eps, ring, k, rng)), system)
    return st


def degrees(nerve):
    return [k for k in (1, 2, 3) if nerve.count(k)]


def input_sizes(st):
    nerves = {}
    for nname, (nerve, *_) in st.nerves.items():
        nerves[nname] = {
            "simplices": [nerve.count(k) for k in range(checks.TOP + 1)],
            "coboundary_shape_nnz_frac": [
                [nerve.count(k + 1), nerve.count(k),
                 round(checks.density(checks.delta_rows(nerve, {}, k), nerve.count(k)), 4)]
                for k in range(checks.TOP)]}
    return {"computed": True, "nerves": nerves, "systems": len(st.systems),
            "nerve.simplices": sum(sum(n["simplices"]) for n in nerves.values())}


def random_values(ring, count, rng):
    if ring == "Z":
        return [int(x) for x in rng.integers(-5, 6, count)]
    if ring == "Z/2":
        return [int(x) for x in rng.integers(0, 2, count)]
    return [float(x) for x in rng.uniform(-2.0, 2.0, count)]


def reduce(ring, values):
    if ring == "Z/2":
        return [v % 2 for v in values]
    if ring == "R/Z":
        return [v % 1.0 for v in values]
    return values


def exact_cocycle(nerve, eps, ring, k, rng):
    b = random_values(ring, nerve.count(k - 1), rng)
    return reduce(ring, checks.apply(checks.delta_rows(nerve, eps, k - 1), b))


def make_round(state, rng):
    jobs = []
    for (nname, twisted, ring), (system, eps) in state.systems.items():
        nerve = system.nerve
        for k in degrees(nerve):
            for cls in (None, state.classes.get((nname, twisted, ring, k))):
                z = exact_cocycle(nerve, eps, ring, k, rng)
                if cls is not None:
                    z = reduce(ring, [a + b for a, b in zip(z, cls)])
                label = f"{nname}{'~' if twisted else ''} {ring} H^{k} {'class' if cls else 'exact'}"
                cochain = cech.cochain(system, k, z)
                jobs.append(Job(label, _query(cochain, system),
                                _query_check(nerve, eps, ring, k, z, cls is None)))
                if ring == "R/Z" and k == 2:
                    tab = state.nerves[nname][4 if twisted else 3]
                    jobs.append(Job("bockstein " + label, _bockstein(cochain, system),
                                    _bockstein_check(nerve, eps, z, cls is None, tab)))
                if cls is None and (nname, twisted, ring, k) not in state.classes:
                    break
    for nname, (nerve, mod2, twist, *_) in state.nerves.items():
        for twisted in (False, True):
            ext, sigma, ext_ok = state.extensions[twisted]
            eps = checks.gauge(twist, nerve, rng) if twisted else {}
            for with_class in (False, True):
                g = exact_cocycle(nerve, {}, "Z/2", 1, rng)
                if with_class:
                    g = [(a + b) % 2 for a, b in zip(g, mod2)]
                td = lifting.TransitionData(nerve, state.group, sigma, g, eps)
                # Untwisted, the class is Sq^1 c = c^2, non-zero for the RP^2
                # generator c.  Twisted by w1 = c, the Z/4 Bockstein picks up
                # w1 c and the class c^2 + w1 c vanishes.
                trivial = not with_class or twisted
                label = (f"lift {nname}{'~' if twisted else ''} "
                         f"{'class' if with_class else 'exact'}")
                jobs.append(Job(label, _lift(td, ext), _lift_check(td, ext, ext_ok, trivial)))
    return jobs


def _query(cochain, system):
    return lambda: cech.is_coboundary(cochain, system)


def _query_check(nerve, eps, ring, k, z, trivial):
    kind = KIND[ring]

    def check(result):
        if result.trivial != trivial:
            return f"trivial={result.trivial}, expected {trivial}"
        if trivial:
            return checks.primitive_error(checks.delta_rows(nerve, eps, k - 1),
                                          result.primitive.values if result.primitive else None,
                                          z, kind, modulus=2)
        cert = result.certificate
        if ring == "R/Z":  # decided by the Dixmier-Douady stage over Z
            if cert.stage != "dixmier-douady":
                return f"unexpected certificate stage {cert.stage}"
            n = [round(v) for v in checks.apply(checks.delta_rows(nerve, eps, k), z)]
            return checks.certificate_error(checks.delta_rows(nerve, eps, k),
                                            nerve.count(k), cert.functional,
                                            cert.modulus, n)
        return checks.certificate_error(checks.delta_rows(nerve, eps, k - 1),
                                        nerve.count(k - 1), cert.functional,
                                        cert.modulus, z,
                                        n=2 if ring == "Z/2" else None,
                                        exact=ring != "R")
    return check


# Jobs keep only what their check reads: the result objects hold systems with
# cached Smith forms, and keeping those would make memory grow with rounds.


def _bockstein(cochain, system):
    def run():
        r = cech.bockstein_dd(cochain, system)
        return (list(r.cocycle.values), r.trivial, r.primitive and r.primitive.values,
                r.certificate, (r.group.free_rank, tuple(r.group.torsion)))
    return run


def _bockstein_check(nerve, eps, z, trivial, tab):
    def check(answer):
        cocycle, is_trivial, primitive, cert, group = answer
        n = [round(v) for v in checks.apply(checks.delta_rows(nerve, eps, 2), z)]
        if cocycle != n:
            return "Dixmier-Douady cocycle differs from d(lift)"
        if is_trivial != trivial:
            return f"trivial={is_trivial}, expected {trivial}"
        if group != tab[3]:
            return f"H^3 = {group}, expected {tab[3]}"
        if trivial:
            return checks.primitive_error(checks.delta_rows(nerve, eps, 2), primitive, n, "Z")
        return checks.certificate_error(checks.delta_rows(nerve, eps, 2), nerve.count(2),
                                        cert.functional, cert.modulus, n)
    return check


def _lift(td, ext):
    def run():
        result = lifting.obstruction(td, ext)
        values = result.cochain.values
        cls = result.class_result()
        if cls.trivial:
            return values, lifting.trivialize(result).lifts.values, None
        system = result.system
        for order in range(1, ext.kernel_order + 1):
            multiple = cech.cochain(system, 2, [order * v for v in values])
            if cech.is_coboundary(multiple, system).trivial:
                return values, cls.certificate, order
        return values, cls.certificate, None
    return run


def _lift_check(td, ext, ext_ok, trivial):
    def check(answer):
        if not ext_ok:
            return "verify_extension rejected a valid extension"
        cochain, outcome, order = answer
        if (order is None) != trivial:
            return f"trivial={order is None}, expected {trivial}"
        if trivial:
            return _strict_lift_error(td, ext, outcome)
        nerve = td.nerve
        eps = {e: -1 for e, s in zip(nerve.simplices[1], td.eps) if s == -1}
        if order != 2:
            return f"class order {order}, expected 2"
        return checks.certificate_error(checks.delta_rows(nerve, eps, 1), nerve.count(1),
                                        outcome.functional, outcome.modulus,
                                        cochain, n=ext.kernel_order)
    return check


def _strict_lift_error(td, ext, lifts):
    """Corrected lifts must project to g and satisfy the strict twisted
    cocycle condition ghat_ij sigmahat^eps_ij(ghat_jk) = ghat_ik."""
    nerve, hat = td.nerve, ext.hat
    index = {e: i for i, e in enumerate(nerve.simplices[1])}
    if [ext.q(h) for h in lifts] != list(td.g):
        return "corrected lifts do not project to the transition data"
    for i, j, k in nerve.simplices[2]:
        gij, gjk, gik = (lifts[index[e]] for e in ((i, j), (j, k), (i, k)))
        if td.eps[index[(i, j)]] == -1:
            gjk = ext.sigma_hat(gjk)
        if hat.mul(gij, gjk) != gik:
            return f"corrected lifts fail the cocycle condition on {(i, j, k)}"
    return None
