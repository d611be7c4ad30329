"""Twisted transition cocycles and the central-extension lifting obstruction.

Transition data assigns to each ascending edge (i, j) a pair (g_ij, eps_ij)
in G x| Z2, subject to eps_ij eps_jk = eps_ik and g_ij sigma^{eps_ij}(g_jk)
= g_ik on triangles.  Choosing lifts of the g_ij through a central
extension, the failure of the lifted cocycle condition

    a_ijk = ghat_ij . sigmahat^{eps_ij}(ghat_jk) . ghat_ik^{-1}

lands in the central kernel and is a twisted 2-cocycle there.  Its class
does not depend on the lifts, and vanishes exactly when corrected lifts
satisfying the strict cocycle condition exist.
"""

from dataclasses import dataclass
from typing import Optional

from . import cech
from .cech import Certificate, Cochain, TwistedLocalSystem
from .errors import (CocycleIdentityViolated, LiftMismatch, NotACocycle,
                     ShapeMismatch, ValueNotInKernel)


class TransitionData:
    """Edge-indexed (g, eps) pairs on a nerve, with an involutive G-action.

    Values are stored on ascending edges only; the descending value is the
    semidirect inverse (g_ji, eps_ji) = (g_ij, eps_ij)^{-1}.
    """

    __slots__ = ("nerve", "group", "sigma", "g", "eps")

    def __init__(self, nerve, group, sigma, g, eps=None):
        self.nerve = nerve
        self.group = group
        self.sigma = sigma
        if not sigma.is_involution():
            raise ValueError("the Z2-action must be involutive")
        edges = nerve.simplices[1]
        if isinstance(g, dict):
            self.g = tuple(int(g.get(e, group.identity)) for e in edges)
        else:
            self.g = tuple(int(x) for x in g)
        if len(self.g) != len(edges):
            raise ValueError("transition values must cover every edge")
        if eps is None:
            self.eps = tuple(1 for _ in edges)
        elif isinstance(eps, dict):
            self.eps = tuple(int(eps.get(e, 1)) for e in edges)
        else:
            self.eps = tuple(int(x) for x in eps)
        if any(x not in (1, -1) for x in self.eps):
            raise ValueError("eps values must be +1 or -1")

    def edge_value(self, i, j):
        """(g, eps) on the ordered edge (i, j); inverse rule for i > j."""
        if i == j:
            return self.group.identity, 1
        if i < j:
            idx = self.nerve.index_of((i, j))
            return self.g[idx], self.eps[idx]
        idx = self.nerve.index_of((j, i))
        g, e = self.g[idx], self.eps[idx]
        gi = self.group.inv(g)
        return (self.sigma(gi) if e == -1 else gi), e

    def act(self, eps, g):
        return self.sigma(g) if eps == -1 else g


@dataclass(frozen=True)
class CocycleReport:
    ok: bool
    triangle: Optional[tuple] = None
    lhs: Optional[tuple] = None
    rhs: Optional[tuple] = None

    def message(self):
        if self.ok:
            return "twisted cocycle condition holds on every triangle"
        return (f"failure on triangle {self.triangle}: "
                f"lhs {self.lhs} != rhs {self.rhs}")


def check_twisted_cocycle(td):
    """Verify eps_ij eps_jk = eps_ik and g_ij sigma^{eps_ij}(g_jk) = g_ik
    on every triangle; report the first failing one with both sides."""
    grp = td.group
    for (i, j, k) in td.nerve.simplices[2]:
        gij, eij = td.edge_value(i, j)
        gjk, ejk = td.edge_value(j, k)
        gik, eik = td.edge_value(i, k)
        lhs = (grp.mul(gij, td.act(eij, gjk)), eij * ejk)
        rhs = (gik, eik)
        if lhs != rhs:
            return CocycleReport(False, (i, j, k), lhs, rhs)
    return CocycleReport(True)


@dataclass(frozen=True)
class LiftChoice:
    """Edge-indexed lifts into the extension's hat group, q(ghat) = g."""
    values: tuple


def lifts_via_section(td, ext):
    """The tautological lifts ghat_ij = s(g_ij)."""
    return LiftChoice(tuple(ext.s(g) for g in td.g))


class ObstructionResult:
    """The kernel-valued obstruction cochain plus everything needed to
    change lifts, test triviality, and rebuild corrected lifts."""

    __slots__ = ("cochain", "system", "td", "ext", "lifts")

    def __init__(self, cochain_, system, td, ext, lifts):
        self.cochain = cochain_
        self.system = system
        self.td = td
        self.ext = ext
        self.lifts = lifts

    def class_result(self):
        return cech.is_coboundary(self.cochain, self.system)


def obstruction(td, ext, lifts=None):
    """Compute a_ijk over all triangles and normalize into kernel values.

    Verifies that each entry is central (ValueNotInKernel otherwise), that
    the lifts project correctly (LiftMismatch), and that the twisted
    2-cocycle identity a_ijk a_ikl = sigmahat^{eps_ij}(a_jkl) a_ijl holds
    in the hat group on every tetrahedron (CocycleIdentityViolated).
    """
    report = check_twisted_cocycle(td)
    if not report.ok:
        raise NotACocycle(report.message())
    if lifts is None:
        lifts = lifts_via_section(td, ext)
    hat = ext.hat
    edges = td.nerve.simplices[1]
    if len(lifts.values) != len(edges):
        raise LiftMismatch("lift list does not cover every edge")
    for idx, e in enumerate(edges):
        if ext.q(lifts.values[idx]) != td.g[idx]:
            raise LiftMismatch(f"lift on edge {e} projects to "
                               f"{ext.q(lifts.values[idx])}, expected {td.g[idx]}")

    def hat_edge(i, j):
        if i < j:
            return lifts.values[td.nerve.index_of((i, j))]
        h = lifts.values[td.nerve.index_of((j, i))]
        _, e = td.edge_value(j, i)
        hi = hat.inv(h)
        return ext.sigma_hat(hi) if e == -1 else hi

    def hat_a(i, j, k):
        gij = hat_edge(i, j)
        gjk = hat_edge(j, k)
        gik = hat_edge(i, k)
        _, eij = td.edge_value(i, j)
        tw = ext.sigma_hat(gjk) if eij == -1 else gjk
        return hat.mul(hat.mul(gij, tw), hat.inv(gik))

    values = []
    hat_values = {}
    for t in td.nerve.simplices[2]:
        ah = hat_a(*t)
        v = ext.kernel_value(ah)
        if v is None:
            raise ValueNotInKernel(
                f"obstruction entry on {t} is {ah}, outside the kernel")
        hat_values[t] = ah
        values.append(v)
    for (i, j, k, l) in td.nerve.simplices[3]:
        _, eij = td.edge_value(i, j)
        a_jkl = hat_values[(j, k, l)]
        lhs = hat.mul(hat_values[(i, j, k)], hat_values[(i, k, l)])
        rhs = hat.mul(ext.sigma_hat(a_jkl) if eij == -1 else a_jkl,
                      hat_values[(i, j, l)])
        if lhs != rhs:
            raise CocycleIdentityViolated(
                f"twisted 2-cocycle identity fails on {(i, j, k, l)}")
    system = TwistedLocalSystem(td.nerve, ext.kernel_coefficients(), td.eps)
    return ObstructionResult(cech.cochain(system, 2, values), system, td, ext, lifts)


def change_lifts(a, b, sys):
    """New obstruction after ghat -> b . ghat: a' = (db) + a (additively)."""
    if b.degree != 1 or a.degree != 2:
        raise ValueError("change_lifts wants a 2-cochain and a 1-cochain")
    return cech.cochain_add(sys, cech.coboundary(b, sys), a)


@dataclass(frozen=True)
class TrivializeResult:
    lifts: Optional[LiftChoice]
    certificate: Optional[Certificate]

    @property
    def trivial(self):
        return self.lifts is not None


def trivialize(result):
    """Correct the stored lifts when the obstruction class vanishes.

    Solves d b = -a in the kernel coefficients, sets ghat'_ij =
    kernel(b_ij) . ghat_ij, re-verifies the strict twisted cocycle
    condition exactly, and returns the corrected lifts; otherwise returns
    the nontriviality certificate.
    """
    sys = result.system
    solved = cech.is_coboundary(cech.cochain_neg(sys, result.cochain), sys)
    if not solved.trivial:
        return TrivializeResult(None, solved.certificate)
    b = solved.primitive
    ext, hat = result.ext, result.ext.hat
    corrected = tuple(
        hat.mul(ext.kernel_element(b.values[idx]), result.lifts.values[idx])
        for idx in range(len(result.lifts.values)))
    new = LiftChoice(corrected)
    check = obstruction(result.td, ext, new)
    if any(v != 0 for v in check.cochain.values):
        raise AssertionError("corrected lifts fail the strict cocycle condition")
    return TrivializeResult(new, None)


@dataclass(frozen=True)
class GerbeModuleReport:
    ok: bool
    max_deviation: float
    triangle: Optional[tuple] = None

    def message(self):
        if self.ok:
            return f"gerbe module relation holds (max deviation {self.max_deviation:.3e})"
        return (f"gerbe module relation fails on {self.triangle} "
                f"(max deviation {self.max_deviation:.3e})")


def check_gerbe_module(phi, a, sys, tol=1e-9):
    """Verify phi_ij phi_jk = e^{2 pi i a_ijk} phi_ik on every triangle.

    ``phi`` maps ascending edges to invertible matrices (phi_ji is the
    inverse); ``a`` is a circle-valued 2-cochain acting by scalars.
    """
    import numpy as np
    nerve = sys.nerve
    mats = {}
    shape = None
    for e in nerve.simplices[1]:
        if e not in phi:
            raise ShapeMismatch(f"no module map on edge {e}")
        m = np.asarray(phi[e], dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeMismatch(f"module map on {e} is not square")
        if shape is None:
            shape = m.shape
        elif m.shape != shape:
            raise ShapeMismatch(f"module map on {e} has shape {m.shape} != {shape}")
        mats[e] = m
    worst = 0.0
    worst_t = None
    for (i, j, k) in nerve.simplices[2]:
        lhs = mats[(i, j)] @ mats[(j, k)]
        scalar = np.exp(2j * np.pi * a.values[nerve.index_of((i, j, k))])
        rhs = scalar * mats[(i, k)]
        dev = float(np.max(np.abs(lhs - rhs)))
        if dev > worst:
            worst, worst_t = dev, (i, j, k)
    return GerbeModuleReport(worst <= tol, worst, None if worst <= tol else worst_t)
