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
Line-bundle samples (N = 1) are inverted and multiplied elementwise, and
their curvature skips the bracket, which vanishes; N >= 2 samples go
through LAPACK's batched inverse and np.matmul.  Each full-grid array is
written once: derivatives are written into buffers the caller owns
(``_derivative``, numpy's ``np.gradient`` formulas), connection terms
accumulate in place, and gauge_residual interpolates A_u, A_v and F
through one shared bilinear stencil.  A_k, F_k and the Chern sum are
full-grid by nature; gauge_residual reads h_lk, A_l and F_l at the
overlap points only, and only its overlap mask and the forms it is not
given are computed on full grids.

A bundle stores only the samples it cannot get for free.  Chart grids are
read-only broadcast views of the node vectors, and the identity samples
h_kk one read-only broadcast view of the N x N identity: neither takes
memory, and writing to either raises ValueError.  ``corrupt_sample``
replaces a stored sample by a writable, perturbed copy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (GridTooCoarse, NoOverlap, NotClosedSurface,
                     PointOutsideCharts)


class Chart:
    """A rectangular grid in 1 or 2 parameters.

    ``grid`` holds, per axis, the coordinate of every grid point, indexed
    like ``np.meshgrid(*nodes, indexing="ij")``; each entry is a read-only
    broadcast view of that axis's node vector, so writing to it raises.
    """

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
        self.grid = tuple(
            np.broadcast_to(x.reshape((-1,) + (1,) * (len(nodes) - 1 - a)),
                            self.shape) for a, x in enumerate(nodes))

    @property
    def dims(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(n for _, _, n in self.axes)

    def contains(self, point):
        return all(lo <= x <= hi for x, (lo, hi, _) in zip(point, self.axes))


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
    ``corrupt_sample`` perturbs a single stored transition value, in a
    writable copy of the samples, which is how detection tests break the
    cocycle on purpose.
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
        """Samples grid + (N, N) of h_ki on chart k's grid, cached.  The
        identity samples h_kk are a read-only broadcast view of one N x N
        identity, so writing to them raises; ``corrupt_sample`` copies."""
        key = (k, i)
        if key not in self._transition_samples:
            chart = self.base.charts[k]
            if k == i:
                self._transition_samples[key] = np.broadcast_to(
                    np.eye(self.size, dtype=complex),
                    chart.shape + (self.size, self.size))
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

    def transition_report(self, tol=1e-9):
        """Pointwise inverse-consistency residual h_ki(phi(x)) h_ik(x) = 1.

        For each overlap keyed (k, i) the map carries chart-i coordinates
        into chart k; the product of the stored h_ik samples with h_ki
        evaluated at the mapped points must be the identity.  Both are
        read at the overlap points only.  Returns (max
        residual, ok, location) with the chart pair and grid index of the
        worst point; a NaN residual is passed over.
        """
        worst, where = 0.0, None
        for (k, i), om in self.base.overlaps.items():
            chart_src = self.base.charts[i]
            at, pos, points = _overlap_points(chart_src, om)
            if not at.size:
                continue
            h_ik = _gather(self.transition_values(i, k), at)
            h_ki_there = np.asarray(self.transitions[(k, i)](*om.coords(*points)),
                                    dtype=complex)
            prod = h_ki_there @ h_ik
            dev = np.abs(prod - np.eye(self.size)).max(axis=(-2, -1))
            local = float(dev.max())
            if local > worst:
                worst, worst_at = local, np.argmax(dev)
                where = ((k, i), tuple(int(p[worst_at]) for p in pos))
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


def _product(a, b, out=None):
    """Product of every N x N sample pair: elementwise for N = 1, where a
    batched 1 x 1 matmul costs twice as much, np.matmul for N >= 2."""
    if a.shape[-1] == 1:
        return np.multiply(a, b, out=out)
    return np.matmul(a, b, out=out)


# numpy's second-order one-sided stencils at the first and the last point
# of an axis: (offset from that point, coefficient times the spacing).
_ONE_SIDED = ((0, ((0, -1.5), (1, 2.), (2, -0.5))),
              (-1, ((-2, 0.5), (-1, -2.), (0, 1.5))))


def _derivative(f, dx, axis, out):
    """``np.gradient(f, dx, axis=axis, edge_order=2)`` written into ``out``
    and returned: central differences inside, the ``_ONE_SIDED`` stencils
    at both edges, each evaluated in numpy's order so that the bits
    agree."""
    f, d = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(f[2:], f[:-2], out=d[1:-1])
    d[1:-1] /= 2. * dx
    for edge, stencil in _ONE_SIDED:
        (shift, c), *rest = stencil
        np.multiply(c / dx, f[edge + shift], out=d[edge])
        for shift, c in rest:
            d[edge] += c / dx * f[edge + shift]
    return out


def local_connection(data, k):
    """A_k = sum_i lambda_i h_ki^{-1} dh_ki on chart k's grid.

    Line-bundle samples are inverted and multiplied elementwise
    (h^{-1} = 1/h); N >= 2 samples go through LAPACK's batched inverse and
    np.matmul.  Each term is formed in one buffer, reused across axes and
    partition indices, and added only where lambda_i > 0, so samples
    outside the support never reach A.
    """
    chart = data.base.charts[k]
    if any(n < 3 for n in chart.shape):
        raise GridTooCoarse("need >= 3 grid points per axis")
    N = data.size
    comps = np.zeros((chart.dims,) + chart.shape + (N, N), dtype=complex)
    term = np.empty(chart.shape + (N, N), dtype=complex)
    for i in range(data.base.chart_count):
        if i == k:
            continue  # h_kk is constant, contributes nothing
        lam = data.partition_values(i, k)
        active = lam > 0.0
        if not active.any():
            continue
        h = data.transition_values(k, i)
        h_inv = _inverse(h)
        lam, active = lam[..., None, None], active[..., None, None]
        for axis in range(chart.dims):
            _derivative(h, chart.spacing[axis], axis, term)
            _product(h_inv, term, out=term)
            term *= lam
            np.add(comps[axis], term, out=comps[axis], where=active)
    if np.isnan(comps).any():
        raise GridTooCoarse(
            "transition samples undefined inside a partition support")
    return SampledForm(1, k, comps)


def curvature(data, form):
    """F = dA + (1/2)[A, A]; on a 2D chart the single du^dv component
    is dA_v/du - dA_u/dv + [A_u, A_v].  For N = 1 the bracket vanishes
    and is not formed."""
    if form.degree != 1:
        raise ValueError("curvature takes a degree-1 form")
    chart = data.base.charts[form.chart]
    if chart.dims != 2:
        raise NotClosedSurface("curvature is computed on 2D charts")
    au, av = form.components[0], form.components[1]
    f, scratch = np.empty_like(av), np.empty_like(au)
    _derivative(av, chart.spacing[0], 0, f)
    f -= _derivative(au, chart.spacing[1], 1, scratch)
    if f.shape[-1] != 1:
        f += np.matmul(au, av, out=scratch)
        f -= np.matmul(av, au, out=scratch)
    return SampledForm(2, form.chart, f)


def chart_forms(data, k):
    """The pair (A_k, F_k): chart k's connection and its curvature."""
    a = local_connection(data, k)
    return a, curvature(data, a)


def _stencil(chart, u, v):
    """Bilinear stencil of points (u, v) on a 2D chart: the flat grid
    indices of the four surrounding corners and their weights, in the
    order (0, 0), (1, 0), (0, 1), (1, 1).  Points beyond the last cell
    extrapolate from it."""
    idx, frac = [], []
    for axis, x in enumerate((u, v)):
        nodes = chart.nodes[axis]
        f = (np.asarray(x) - nodes[0]) / chart.spacing[axis]
        i0 = np.clip(np.floor(f).astype(int), 0, len(nodes) - 2)
        idx.append(i0)
        frac.append(f - i0)
    tu, tv = frac
    step = chart.shape[1]
    flat = idx[0] * step + idx[1]
    corners = (flat, flat + step, flat + 1, flat + step + 1)
    weights = ((1 - tu) * (1 - tv), tu * (1 - tv), (1 - tu) * tv, tu * tv)
    return corners, weights


def _overlap_points(chart, om):
    """The usable overlap points of ``chart`` under ``om``: their flat grid
    indices, their index along each axis, and their coordinates, read from
    the node vectors (``np.take`` on a grid view would copy it whole)."""
    at = np.flatnonzero(np.asarray(om.mask(*chart.grid), dtype=bool))
    pos = np.unravel_index(at, chart.shape)
    return at, pos, [nodes[p] for nodes, p in zip(chart.nodes, pos)]


def _gather(values, idx):
    """Grid samples (grid + (N, N)) at flat grid indices ``idx``."""
    return np.take(values.reshape((-1,) + values.shape[-2:]), idx, axis=0)


def _interpolate(stencil, values):
    """Grid samples (grid + (N, N)) interpolated by a ``_stencil``."""
    out = None
    for corner, weight in zip(*stencil):
        term = _gather(values, corner)
        term *= weight[..., None, None]
        if out is None:
            out = term
        else:
            out += term
    return out


def _derivative_at(values, idx, pos, n, step, dx):
    """``_derivative`` of grid samples along one axis, at flat grid indices
    ``idx`` only: ``pos`` holds their coordinates along the axis, ``n`` its
    length and ``step`` its flat stride.  Points inside read their +-1
    neighbours; numpy's one-sided stencils run only at the chart edges."""
    at_edge = [pos == edge % n for edge, _ in _ONE_SIDED]
    edge = at_edge[0] | at_edge[1]
    inner = idx[~edge] if edge.any() else idx
    d = _gather(values, inner + step)
    d -= _gather(values, inner - step)
    d /= 2. * dx
    if inner is idx:
        return d
    out = np.empty((idx.size,) + d.shape[1:], dtype=d.dtype)
    out[~edge] = d
    for at, (_, stencil) in zip(at_edge, _ONE_SIDED):
        if at.any():
            terms = [c / dx * _gather(values, idx[at] + shift * step)
                     for shift, c in stencil]
            out[at] = terms[0] + terms[1] + terms[2]
    return out


def gauge_residual(data, k, l, forms=None):
    """Max deviation of the two gauge identities on the (k, l) overlap:

        A_l = Ad_{h_lk^{-1}} A_k + h_lk^{-1} dh_lk,
        F_l = Ad_{h_lk^{-1}} F_k,

    with the chart-k forms pulled back through the overlap coordinate map
    and compared at the overlap grid points of chart l.  Everything the
    comparison reads is gathered at the overlap points only: h_lk, its
    inverse and its derivative (from the neighbouring samples, one-sided
    at chart edges), the Jacobian, A_l, F_l and the interpolated chart-k
    forms, where one bilinear stencil serves A_u, A_v and F.  Only the
    overlap mask, and the forms when they are not given, are computed on
    full grids: ``forms[j]`` may give ``chart_forms(data, j)`` for
    j = k, l.  A NaN deviation at any overlap point makes the result NaN.
    """
    base = data.base
    if (k, l) not in base.overlaps or (l, k) not in base.overlaps:
        raise NoOverlap(f"charts {k} and {l} do not overlap")
    chart_l = base.charts[l]
    om = base.overlaps[(k, l)]  # carries chart-l coordinates into chart k
    at, pos, points = _overlap_points(chart_l, om)
    if not at.size:
        raise NoOverlap(f"no usable overlap points between charts {k} and {l}")
    if forms is None:
        forms = {j: chart_forms(data, j) for j in (l, k)}
    (a_l, f_l), (a_k, f_k) = forms[l], forms[k]
    mapped = om.coords(*points)
    jac = om.jacobian(*points)  # jac[b][a] = d(mapped_b)/d(x_a)
    h_full = data.transition_values(l, k)  # h_lk on chart l
    h = _gather(h_full, at)
    h_inv = _inverse(h)
    stencil = _stencil(base.charts[k], *mapped)
    interp_k = [_interpolate(stencil, a_k.components[b]) for b in range(2)]
    steps = (chart_l.shape[1], 1)
    worst = []
    for a in range(2):
        pulled = sum(jac[b][a][..., None, None] * interp_k[b] for b in range(2))
        dh = _derivative_at(h_full, at, pos[a], chart_l.shape[a], steps[a],
                            chart_l.spacing[a])
        rhs = _product(_product(h_inv, pulled), h) + _product(h_inv, dh)
        dev = np.abs(_gather(a_l.components[a], at) - rhs).max(axis=(-2, -1))
        worst.append(dev.max())
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    pulled_f = det[..., None, None] * _interpolate(stencil, f_k.components)
    rhs_f = _product(_product(h_inv, pulled_f), h)
    dev_f = np.abs(_gather(f_l.components, at) - rhs_f).max(axis=(-2, -1))
    worst.append(dev_f.max())
    return float(np.max(worst))


def chern_number(data, forms=None):
    """(i/2pi) integral of tr F, by partition-weighted chart sums.
    ``forms[k]`` may give ``chart_forms(data, k)`` for every chart k; by
    default each chart's forms are computed here, one chart at a time."""
    base = data.base
    if not base.closed_surface:
        raise NotClosedSurface(f"{base.name} is not a closed oriented surface")
    total = 0.0 + 0.0j
    for k in range(base.chart_count):
        chart = base.charts[k]
        f = (chart_forms(data, k) if forms is None else forms[k])[1]
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
