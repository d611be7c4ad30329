"""Discrete pullback connections, curvature, gauge residuals, Chern numbers.

Charted bases carry rectangular parameter grids; bundles carry transition
matrices and a partition of unity evaluable in every chart.  The pullback
connection on chart k is the barycentric sum

    A_k = sum_i lambda_i . h_ki^{-1} dh_ki,

differentiated by second-order finite differences (one-sided at chart
edges), with curvature F_k = dA_k + (1/2)[A_k, A_k].  On overlaps the
forms obey the usual gauge transformation rule, which gauge_residual
measures pointwise; the first Chern number is the partition-weighted
Riemann sum of (i/2pi) tr F over the charts of a closed oriented surface.
Line-bundle samples (N = 1) are inverted elementwise, as reciprocals;
N >= 2 samples go through LAPACK's batched inverse.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (GridTooCoarse, NoOverlap, NotClosedSurface,
                     PointOutsideCharts)


class Chart:
    """A rectangular grid in 1 or 2 parameters."""

    __slots__ = ("name", "axes", "nodes", "spacing", "grid")

    def __init__(self, name, axes):
        """``axes``: list of (lo, hi, npoints) per dimension."""
        self.name = name
        self.axes = tuple(axes)
        nodes = []
        spacing = []
        for lo, hi, n in self.axes:
            if n < 3:
                raise GridTooCoarse(f"chart {name} needs >= 3 points per axis")
            nodes.append(np.linspace(lo, hi, n))
            spacing.append((hi - lo) / (n - 1))
        self.nodes = tuple(nodes)
        self.spacing = tuple(spacing)
        self.grid = np.meshgrid(*nodes, indexing="ij")

    @property
    def dims(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(n for _, _, n in self.axes)

    def contains(self, point, margin=0.0):
        return all(lo + margin <= x <= hi - margin
                   for x, (lo, hi, _) in zip(point, self.axes))


@dataclass(frozen=True)
class OverlapMap:
    """Chart-to-chart transition of coordinates: x in chart ``src`` maps to
    ``apply(x)`` in chart ``dst``; ``jacobian`` returns d(dst)/d(src)."""
    apply: object
    jacobian: object
    mask: object  # usable-overlap indicator on src coordinates

    def coords(self, *args):
        out = self.apply(*args)
        return out if isinstance(out, tuple) else (out,)


class ChartedBase:
    """Charts, coordinate overlaps, orientations, and surface flags."""

    def __init__(self, charts, overlaps, orientation=None, closed_surface=False,
                 name="base"):
        self.charts = list(charts)
        self.overlaps = dict(overlaps)  # (dst, src) -> OverlapMap
        self.orientation = tuple(orientation or (1,) * len(self.charts))
        self.closed_surface = closed_surface
        self.name = name

    @property
    def chart_count(self):
        return len(self.charts)


class BundleData:
    """A charted base plus matrix transition functions and a partition.

    ``transitions[(k, i)]`` evaluates h_ki on chart-k coordinate arrays
    (returning shape grid + (N, N)); the diagonal h_kk is implicitly the
    identity.  ``partitions[(i, k)]`` evaluates lambda_i on chart-k
    coordinates.  Samples on the chart grids are computed once and cached;
    ``corrupt_sample`` perturbs a single stored transition value, which is
    how detection tests break the cocycle on purpose.
    """

    def __init__(self, base, size, transitions, partitions, name="bundle"):
        self.base = base
        self.size = size
        self.transitions = transitions
        self.partitions = partitions
        self.name = name
        self._transition_samples = {}
        self._partition_samples = {}

    def partition_values(self, i, k):
        key = (i, k)
        if key not in self._partition_samples:
            chart = self.base.charts[k]
            vals = np.asarray(self.partitions[(i, k)](*chart.grid), dtype=float)
            self._partition_samples[key] = vals
        return self._partition_samples[key]

    def transition_values(self, k, i):
        key = (k, i)
        if key not in self._transition_samples:
            chart = self.base.charts[k]
            if k == i:
                eye = np.broadcast_to(np.eye(self.size, dtype=complex),
                                      chart.shape + (self.size, self.size))
                self._transition_samples[key] = np.array(eye)
            else:
                self._transition_samples[key] = np.asarray(
                    self.transitions[(k, i)](*chart.grid), dtype=complex)
        return self._transition_samples[key]

    def corrupt_sample(self, k, i, index, factor):
        vals = self.transition_values(k, i).copy()
        vals[index] = vals[index] * factor
        self._transition_samples[(k, i)] = vals

    def partition_report(self, tol=1e-12):
        """Max deviation of sum_i lambda_i from 1 over all chart grids."""
        worst = 0.0
        for k in range(self.base.chart_count):
            total = sum(self.partition_values(i, k)
                        for i in range(self.base.chart_count))
            worst = max(worst, float(np.max(np.abs(total - 1.0))))
        return worst, worst <= tol

    def unitarity_report(self, tol=1e-8):
        """Max deviation of h^* h from the identity over all stored samples."""
        worst = 0.0
        for (k, i) in list(self._transition_samples) + \
                [pair for pair in self.transitions if pair not in
                 self._transition_samples]:
            h = self.transition_values(k, i)
            dev = np.abs(np.swapaxes(h.conj(), -2, -1) @ h - np.eye(self.size))
            worst = max(worst, float(dev.max()))
        return worst, worst <= tol

    def reorthonormalize(self):
        """Project every stored transition sample to its nearest unitary
        (polar factor via SVD); counteracts drift in tabulated data."""
        for key in list(self._transition_samples):
            if key[0] == key[1]:
                continue
            u, _, vh = np.linalg.svd(self._transition_samples[key])
            self._transition_samples[key] = u @ vh

    def transition_report(self, tol=1e-9):
        """Pointwise inverse-consistency residual h_ki(phi(x)) h_ik(x) = 1.

        For each overlap keyed (k, i) the map carries chart-i coordinates
        into chart k; the product of the stored h_ik samples with the
        (interpolated) h_ki samples at the mapped points must be the
        identity.  Returns (max residual, ok, location) with the chart
        pair and grid index of the worst point.
        """
        worst, where = 0.0, None
        for (k, i), om in self.base.overlaps.items():
            chart_src = self.base.charts[i]
            mask = np.asarray(om.mask(*chart_src.grid), dtype=bool)
            if not mask.any():
                continue
            h_ik = self.transition_values(i, k)
            mapped = om.coords(*chart_src.grid)
            h_ki_there = np.asarray(self.transitions[(k, i)](*mapped),
                                    dtype=complex)
            prod = h_ki_there @ h_ik
            dev = np.abs(prod - np.eye(self.size)).max(axis=(-2, -1))
            dev = np.where(mask, dev, 0.0)
            local = float(dev.max())
            if local > worst:
                worst = local
                where = ((k, i), tuple(int(x) for x in
                                       np.unravel_index(np.argmax(dev), dev.shape)))
        return worst, worst <= tol, where


@dataclass(frozen=True)
class SampledForm:
    """A matrix-valued form sampled on one chart's grid.

    Degree 0: grid + (N, N).  Degree 1: (dims,) + grid + (N, N).
    Degree 2 (2D charts): grid + (N, N), the du^dv component.
    """
    degree: int
    chart: int
    components: np.ndarray


def classifying_point(data, k, point):
    """Spherically normalized classifying data (sqrt(lambda_i), h_ki) at a
    point of chart k, over the active indices lambda_i > 0."""
    chart = data.base.charts[k]
    if not chart.contains(point):
        raise PointOutsideCharts(f"{point} is outside chart {k}")
    args = [np.asarray([x]) for x in point]
    lams = [float(np.asarray(data.partitions[(i, k)](*args))[0])
            for i in range(data.base.chart_count)]
    total = sum(lams)
    if abs(total - 1.0) > 1e-12:
        raise PointOutsideCharts(
            f"partition sums to {total} at {point}; point not properly covered")
    out = []
    for i, lam in enumerate(lams):
        if lam <= 0.0:
            continue
        if i == k:
            h = np.eye(data.size, dtype=complex)
        else:
            h = np.asarray(data.transitions[(k, i)](*args), dtype=complex)[0]
        out.append((float(np.sqrt(lam)), h))
    return out


def _inverse(h):
    """Inverse of every N x N sample in h: the reciprocal for N = 1, LAPACK
    for N >= 2.  A zero line-bundle sample raises LAPACK's LinAlgError."""
    if h.shape[-1] != 1:
        return np.linalg.inv(h)
    if not h.all():
        raise np.linalg.LinAlgError("Singular matrix")
    with np.errstate(invalid="ignore"):  # NaN samples propagate, as in LAPACK
        return 1 / h


def local_connection(data, k):
    """A_k = sum_i lambda_i h_ki^{-1} dh_ki on chart k's grid.

    Line-bundle samples are inverted elementwise (h^{-1} = 1/h); N >= 2
    samples go through LAPACK's batched inverse.
    """
    chart = data.base.charts[k]
    if any(n < 3 for n in chart.shape):
        raise GridTooCoarse("need >= 3 grid points per axis")
    N = data.size
    comps = np.zeros((chart.dims,) + chart.shape + (N, N), dtype=complex)
    for i in range(data.base.chart_count):
        if i == k:
            continue  # h_kk is constant, contributes nothing
        lam = data.partition_values(i, k)
        active = lam > 0.0
        if not active.any():
            continue
        h = data.transition_values(k, i)
        h_inv = _inverse(h)
        weight = np.where(active, lam, 0.0)[..., None, None]
        for axis in range(chart.dims):
            dh = np.gradient(h, chart.spacing[axis], axis=axis, edge_order=2)
            comps[axis] += np.where(active[..., None, None],
                                    weight * (h_inv @ dh), 0.0)
    if np.isnan(comps).any():
        raise GridTooCoarse(
            "transition samples undefined inside a partition support")
    return SampledForm(1, k, comps)


def curvature(data, form):
    """F = dA + (1/2)[A, A]; on a 2D chart the single du^dv component
    is dA_v/du - dA_u/dv + [A_u, A_v] (the bracket vanishes for N = 1)."""
    if form.degree != 1:
        raise ValueError("curvature takes a degree-1 form")
    chart = data.base.charts[form.chart]
    if chart.dims != 2:
        raise NotClosedSurface("curvature is computed on 2D charts")
    au, av = form.components[0], form.components[1]
    dav_du = np.gradient(av, chart.spacing[0], axis=0, edge_order=2)
    dau_dv = np.gradient(au, chart.spacing[1], axis=1, edge_order=2)
    f = dav_du - dau_dv + au @ av - av @ au
    return SampledForm(2, form.chart, f)


def _interpolate(chart, values, *coords):
    """Bilinear (or linear in 1D) interpolation of grid samples at points."""
    idx = []
    frac = []
    for axis in range(chart.dims):
        nodes = chart.nodes[axis]
        f = (np.asarray(coords[axis]) - nodes[0]) / chart.spacing[axis]
        i0 = np.clip(np.floor(f).astype(int), 0, len(nodes) - 2)
        idx.append(i0)
        frac.append(f - i0)
    extra = values.ndim - chart.dims
    if chart.dims == 1:
        t = frac[0].reshape(frac[0].shape + (1,) * extra)
        return (1 - t) * values[idx[0]] + t * values[idx[0] + 1]
    tu = frac[0].reshape(frac[0].shape + (1,) * extra)
    tv = frac[1].reshape(frac[1].shape + (1,) * extra)
    v00 = values[idx[0], idx[1]]
    v10 = values[idx[0] + 1, idx[1]]
    v01 = values[idx[0], idx[1] + 1]
    v11 = values[idx[0] + 1, idx[1] + 1]
    return ((1 - tu) * (1 - tv) * v00 + tu * (1 - tv) * v10
            + (1 - tu) * tv * v01 + tu * tv * v11)


def gauge_residual(data, k, l):
    """Max deviation of the two gauge identities on the (k, l) overlap:

        A_l = Ad_{h_lk^{-1}} A_k + h_lk^{-1} dh_lk,
        F_l = Ad_{h_lk^{-1}} F_k,

    with the chart-k forms pulled back through the overlap coordinate map
    and compared at the overlap grid points of chart l.  The forms
    themselves are differentiated on the full grids; everything else
    (h_lk, its inverse and derivative, the Jacobian, the interpolated
    chart-k forms) is evaluated at the overlap points only.
    """
    base = data.base
    if (k, l) not in base.overlaps or (l, k) not in base.overlaps:
        raise NoOverlap(f"charts {k} and {l} do not overlap")
    chart_l = base.charts[l]
    om = base.overlaps[(k, l)]  # carries chart-l coordinates into chart k
    mask = np.asarray(om.mask(*chart_l.grid), dtype=bool)
    if not mask.any():
        raise NoOverlap(f"no usable overlap points between charts {k} and {l}")
    at = np.nonzero(mask)
    a_l = local_connection(data, l)
    a_k = local_connection(data, k)
    f_l = curvature(data, a_l)
    f_k = curvature(data, a_k)
    points = [axis[at] for axis in chart_l.grid]
    mapped = om.coords(*points)
    jac = om.jacobian(*points)  # jac[b][a] = d(mapped_b)/d(x_a)
    h_full = data.transition_values(l, k)  # h_lk on chart l
    h = h_full[at]
    h_inv = _inverse(h)
    interp_k = [_interpolate(base.charts[k], a_k.components[b], *mapped)
                for b in range(2)]
    worst = 0.0
    for a in range(2):
        pulled = sum(jac[b][a][..., None, None] * interp_k[b] for b in range(2))
        dh = np.gradient(h_full, chart_l.spacing[a], axis=a, edge_order=2)[at]
        rhs = h_inv @ pulled @ h + h_inv @ dh
        dev = np.abs(a_l.components[a][at] - rhs).max(axis=(-2, -1))
        worst = max(worst, float(dev.max()))
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    pulled_f = det[..., None, None] * _interpolate(base.charts[k],
                                                   f_k.components, *mapped)
    rhs_f = h_inv @ pulled_f @ h
    dev_f = np.abs(f_l.components[at] - rhs_f).max(axis=(-2, -1))
    return max(worst, float(dev_f.max()))


def chern_number(data):
    """(i/2pi) integral of tr F, by partition-weighted chart sums."""
    base = data.base
    if not base.closed_surface:
        raise NotClosedSurface(f"{base.name} is not a closed oriented surface")
    total = 0.0 + 0.0j
    for k in range(base.chart_count):
        chart = base.charts[k]
        f = curvature(data, local_connection(data, k))
        weight = data.partition_values(k, k)
        tr = np.trace(f.components, axis1=-2, axis2=-1)
        cell = chart.spacing[0] * chart.spacing[1]
        total += base.orientation[k] * cell * np.sum(weight * tr)
    value = 1j / (2 * np.pi) * total
    return float(value.real)


# ---------------------------------------------------------------------------
# shipped base and bundle models


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def radial_profile(r, inner, outer):
    """C^2 cutoff: 1 for r <= inner, 0 for r >= outer."""
    return _smoothstep((outer - np.asarray(r, dtype=float)) / (outer - inner))


def two_chart_sphere(clutching, resolution=200, inner=0.7, outer=1.4,
                     extent=1.6, size=1):
    """The sphere as two square charts glued by w -> 1/w, carrying the
    U(1) bundle whose clutching map has the given degree.

    The transition h_01 is (conj(w)/|w|)^clutching, so the computed Chern
    number approximates +clutching.  ``inner``/``outer`` bound the annulus
    on which the partition interpolates; both charts use the same profile.
    """
    charts = [Chart("north", [(-extent, extent, resolution)] * 2),
              Chart("south", [(-extent, extent, resolution)] * 2)]

    def invert(u, v):
        rho = u * u + v * v
        safe = np.where(rho > 0, rho, 1.0)
        return u / safe, -v / safe

    def invert_jacobian(u, v):
        rho = u * u + v * v
        safe = np.where(rho > 0, rho, 1.0) ** 2
        duu = (v * v - u * u) / safe
        duv = -2.0 * u * v / safe
        dvu = 2.0 * u * v / safe
        dvv = (v * v - u * u) / safe
        # rows: derivatives of (u', v') = (u/rho, -v/rho)
        return ((duu, duv), (dvu, dvv))

    lo, hi = 1.0 / 1.35, 1.35

    def annulus(u, v):
        r = np.sqrt(u * u + v * v)
        return (r >= lo) & (r <= hi)

    om = OverlapMap(invert, invert_jacobian, annulus)
    base = ChartedBase(charts, {(0, 1): om, (1, 0): om},
                       orientation=(1, 1), closed_surface=True,
                       name="two-chart-sphere")

    n = int(clutching)

    def phase(u, v, power):
        r = np.sqrt(u * u + v * v)
        safe = np.where(r > 1e-12, r, 1.0)
        w = np.where(r > 1e-12, (u - 1j * v) / safe, 1.0)  # conj(w)/|w|
        mat = (w ** power)[..., None, None] * np.eye(size, dtype=complex)
        return mat

    transitions = {
        (0, 1): lambda u, v: phase(u, v, n),
        (1, 0): lambda u, v: phase(u, v, n),
    }
    # h_10 in chart-1 coordinates: theta = -theta', so the same formula.

    def lam0_north(u, v):
        return radial_profile(np.sqrt(u * u + v * v), inner, outer)

    def lam0_south(u, v):
        r = np.sqrt(u * u + v * v)
        rr = np.where(r > 1e-12, 1.0 / np.where(r > 1e-12, r, 1.0), np.inf)
        return radial_profile(rr, inner, outer)

    partitions = {
        (0, 0): lam0_north,
        (0, 1): lam0_south,
        (1, 0): lambda u, v: 1.0 - lam0_north(u, v),
        (1, 1): lambda u, v: 1.0 - lam0_south(u, v),
    }
    return BundleData(base, size, transitions, partitions,
                      name=f"sphere-clutching-{n}")


def interval_base(resolution=21):
    """A single 1D chart; the smallest base with a (trivial) bundle."""
    chart = Chart("interval", [(0.0, 1.0, resolution)])
    return ChartedBase([chart], {}, closed_surface=False, name="interval")


def trivial_interval_bundle(resolution=21, size=1):
    base = interval_base(resolution)
    partitions = {(0, 0): lambda u: np.ones_like(u)}
    return BundleData(base, size, {}, partitions, name="trivial-interval")


def two_arc_circle(resolution=101, flip=False):
    """The circle covered by two arcs (two overlap components).

    With ``flip`` the transition is -1 on one component: the standard
    sign cocycle whose class generates H^1(S^1; Z2).
    """
    a0 = Chart("east", [(-0.6 * np.pi, 0.6 * np.pi, resolution)])
    a1 = Chart("west", [(0.4 * np.pi, 1.6 * np.pi, resolution)])

    def to_west(t):
        return np.where(t > 0, t, t + 2 * np.pi)

    def to_east(t):
        return np.where(t < np.pi, t, t - 2 * np.pi)

    def jac_one(t):
        return ((np.ones_like(t),),)

    def east_mask(t):
        return (np.abs(t) >= 0.4 * np.pi) & (np.abs(t) <= 0.6 * np.pi)

    def west_mask(t):
        return ((t >= 0.4 * np.pi) & (t <= 0.6 * np.pi)) \
            | ((t >= 1.4 * np.pi) & (t <= 1.6 * np.pi))

    base = ChartedBase(
        [a0, a1],
        {(1, 0): OverlapMap(to_west, jac_one, east_mask),
         (0, 1): OverlapMap(to_east, jac_one, west_mask)},
        closed_surface=False, name="two-arc-circle")

    def sign_east(t):
        val = np.where(flip & (t < 0), -1.0, 1.0)
        return val[..., None, None] * np.eye(1, dtype=complex)

    def sign_west(t):
        val = np.where(flip & (t > np.pi), -1.0, 1.0)
        return val[..., None, None] * np.eye(1, dtype=complex)

    transitions = {(0, 1): sign_east, (1, 0): sign_west}

    def lam0_east(t):
        up = _smoothstep((t + 0.55 * np.pi) / (0.1 * np.pi))
        down = _smoothstep((0.55 * np.pi - t) / (0.1 * np.pi))
        return np.minimum(up, down)

    def lam0_west(t):
        return 1.0 - lam0_east(to_east(t))

    partitions = {
        (0, 0): lam0_east,
        (0, 1): lam0_west,
        (1, 0): lambda t: 1.0 - lam0_east(t),
        (1, 1): lambda t: 1.0 - lam0_west(t),
    }
    return BundleData(base, 1, transitions, partitions, name="two-arc-circle")
