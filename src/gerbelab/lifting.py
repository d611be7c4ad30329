"""Twisted transition cocycles and the central-extension lifting obstruction.

Transition data assigns to each ascending edge (i, j) a pair x_ij =
(g_ij, eps_ij) in G x| Z2, subject to the cocycle law x_ij x_jk = x_ik on
triangles, i.e. eps_ij eps_jk = eps_ik and g_ij sigma^{eps_ij}(g_jk) = g_ik.
Choosing lifts of the g_ij through a central extension, the failure of the
lifted cocycle condition

    (P, eps_ik) = xhat_ij xhat_jk in hat x| Z2 under sigmahat,
    a_ijk = P . ghat_ik^{-1}

lands in the central kernel and is a twisted 2-cocycle there.  Its class
does not depend on the lifts, and vanishes exactly when corrected lifts
satisfying the strict cocycle condition exist: one solve of d b = a
(ObstructionResult.class_result) decides it and reads the order of the
class from the same scan of S a, and trivialize builds the corrected lifts
kernel(-b_ij) . ghat_ij from that same solve, or passes on its
certificate and order.  Every product in G x| Z2 and in hat x| Z2 is
coeffs.semidirect_mul; nerve simplices are increasing tuples, so only
ascending edges are ever read.
"""

from dataclasses import dataclass
from typing import Optional

from . import cech
from .cech import Certificate, Cochain, TwistedLocalSystem, edge_signs
from .coeffs import SemidirectElement, semidirect_mul
from .errors import (CocycleIdentityViolated, LiftMismatch, NotACocycle,
                     ShapeMismatch, ValueNotInKernel)


class TransitionData:
    """Edge-indexed (g, eps) pairs on a nerve, with an involutive G-action.

    Values are stored on ascending edges, in the nerve's edge order; ``eps``
    is read by cech.edge_signs, and its triangle law is left to
    check_twisted_cocycle.
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
        self.eps = edge_signs(nerve, eps)


def _triangle_products(nerve, values, eps, sigma):
    """(triangle, x_ij x_jk, x_ik) on every triangle (i, j, k), where x_e is
    (values[e], eps[e]) in the semidirect product under ``sigma``."""
    x = [SemidirectElement(v, e) for v, e in zip(values, eps)]
    index = nerve.index_of
    for (i, j, k) in nerve.simplices[2]:
        yield ((i, j, k), semidirect_mul(x[index((i, j))], x[index((j, k))], sigma),
               x[index((i, k))])


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
    """Verify x_ij x_jk = x_ik in G x| Z2 on every triangle; report the
    first failing one with both sides as (g, eps) pairs."""
    for t, lhs, rhs in _triangle_products(td.nerve, td.g, td.eps, td.sigma):
        if lhs != rhs:
            return CocycleReport(False, t, (lhs.g, lhs.eps), (rhs.g, rhs.eps))
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

    Verifies that the lifts lie in the hat group and project correctly
    (LiftMismatch), that each entry is central (ValueNotInKernel), and that
    the twisted 2-cocycle identity a_ijk a_ikl = sigmahat^{eps_ij}(a_jkl)
    a_ijl holds in the hat group on every tetrahedron
    (CocycleIdentityViolated).
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
        h = lifts.values[idx]
        if not 0 <= h < hat.order:
            raise LiftMismatch(f"lift on edge {e} is {h}, not an element of "
                               f"the hat group (0..{hat.order - 1})")
        if ext.q(h) != td.g[idx]:
            raise LiftMismatch(f"lift on edge {e} projects to "
                               f"{ext.q(h)}, expected {td.g[idx]}")
    values = []
    hat_values = {}
    for t, p, x_ik in _triangle_products(td.nerve, lifts.values, td.eps,
                                         ext.sigma_hat):
        ah = hat.mul(p.g, hat.inv(x_ik.g))
        v = ext.kernel_value(ah)
        if v is None:
            raise ValueNotInKernel(
                f"obstruction entry on {t} is {ah}, outside the kernel")
        hat_values[t] = ah
        values.append(v)
    index = td.nerve.index_of
    for (i, j, k, l) in td.nerve.simplices[3]:
        a_jkl = hat_values[(j, k, l)]
        if td.eps[index((i, j))] == -1:
            a_jkl = ext.sigma_hat(a_jkl)
        lhs = hat.mul(hat_values[(i, j, k)], hat_values[(i, k, l)])
        if lhs != hat.mul(a_jkl, hat_values[(i, j, l)]):
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
    """Corrected lifts, or the certificate and order (> 1) of the class."""
    lifts: Optional[LiftChoice]
    certificate: Optional[Certificate]
    order: int = 1

    @property
    def trivial(self):
        return self.lifts is not None


def trivialize(result):
    """Correct the stored lifts when the obstruction class vanishes.

    Reads the one solve of d b = a, result.class_result().  When b exists,
    sets ghat'_ij = kernel(-b_ij) . ghat_ij, checks exactly that
    q(ghat'_ij) = g_ij on every edge and xhat'_ij xhat'_jk = xhat'_ik
    under sigmahat on every triangle, and returns the corrected lifts;
    otherwise returns the solve's certificate, which pairs with a, and the
    order of the class that the solve read.
    """
    solved = result.class_result()
    if not solved.trivial:
        return TrivializeResult(None, solved.certificate, solved.order)
    ext, td = result.ext, result.td
    corrected = tuple(ext.hat.mul(ext.kernel_element(-v), h)
                      for v, h in zip(solved.primitive.values, result.lifts.values))
    if (any(ext.q(h) != g for h, g in zip(corrected, td.g))
            or any(lhs != rhs for _, lhs, rhs in _triangle_products(
                td.nerve, corrected, td.eps, ext.sigma_hat))):
        raise AssertionError("corrected lifts fail the strict cocycle condition")
    return TrivializeResult(LiftChoice(corrected), None)


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
