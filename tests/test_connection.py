import gc
import tracemalloc

import numpy as np
import pytest

from gerbelab import connection
from gerbelab.connection import (BundleData, Chart, SampledForm,
                                 chart_forms, chern_number, classifying_point,
                                 curvature, gauge_residual, local_connection,
                                 radial_profile, two_arc_circle, two_chart_sphere,
                                 _derivative, _interpolate, _inverse,
                                 _product, _stencil)
from gerbelab.errors import (GridTooCoarse, NoOverlap, NotClosedSurface,
                             PointOutsideCharts)
import oracles
from oracles import trivial_interval_bundle, unitarity_report, winding_number


def equator_phase_samples(data, n_samples=720):
    """The stored clutching map sampled counterclockwise around |w| = 1."""
    theta = np.linspace(0.0, 2 * np.pi, n_samples)
    u, v = np.cos(theta), np.sin(theta)
    mat = np.asarray(data.transitions[(0, 1)](u, v))
    return mat[..., 0, 0]


# --- classifying points -----------------------------------------------------

def test_single_chart_classifying_point():
    data = trivial_interval_bundle()
    out = classifying_point(data, 0, (0.5,))
    assert len(out) == 1
    s, h = out[0]
    assert s == 1.0
    assert np.array_equal(h, np.eye(1))


def test_equal_split_on_circle():
    data = two_arc_circle()
    out = classifying_point(data, 0, (0.5 * np.pi,))
    assert len(out) == 2
    sq = sum(s * s for s, _ in out)
    assert abs(sq - 1.0) <= 1e-12
    assert all(abs(s - np.sqrt(0.5)) < 1e-12 for s, _ in out)


def test_sum_of_squares_is_one_everywhere():
    data = two_chart_sphere(1, resolution=50)
    rng = np.random.default_rng(0)
    for _ in range(50):
        pt = tuple(rng.uniform(-1.5, 1.5, size=2))
        out = classifying_point(data, 0, pt)
        assert abs(sum(s * s for s, _ in out) - 1.0) <= 1e-12


def test_reference_chart_change_is_left_multiplication():
    data = two_chart_sphere(2, resolution=50)
    pt = (0.9, 0.35)  # inside the overlap annulus
    rho = pt[0] ** 2 + pt[1] ** 2
    pt_south = (pt[0] / rho, -pt[1] / rho)
    north = dict_entries(data, 0, pt)
    south = dict_entries(data, 1, pt_south)
    h10 = np.asarray(data.transitions[(1, 0)](np.array([pt_south[0]]),
                                              np.array([pt_south[1]])))[0]
    for i in (0, 1):
        assert np.allclose(south[i][1], h10 @ north[i][1], atol=1e-12)
        assert abs(south[i][0] - north[i][0]) <= 1e-12  # sqrt(lambda) unchanged


def dict_entries(data, k, pt):
    out = {}
    idx = 0
    for i in range(data.base.chart_count):
        lam = float(np.asarray(data.partitions[(i, k)](
            np.array([pt[0]]), np.array([pt[1]])))[0])
        if lam > 0:
            out[i] = classifying_point(data, k, pt)[idx]
            idx += 1
    return out


def test_point_outside_chart():
    data = trivial_interval_bundle()
    with pytest.raises(PointOutsideCharts):
        classifying_point(data, 0, (2.0,))


# --- local connection -------------------------------------------------------

def test_trivial_bundle_connection_vanishes():
    data = two_chart_sphere(0, resolution=60)
    for k in (0, 1):
        form = local_connection(data, k)
        # edge stencils of np.gradient leak ~1e-15 even on constant arrays
        assert np.max(np.abs(form.components)) <= 1e-13


def test_abelian_connection_matches_analytic_derivative():
    """Where lambda_1 = 1 on the north chart, A = h^{-1} dh = -i n dtheta."""
    n = 3
    data = two_chart_sphere(n, resolution=320)
    chart = data.base.charts[0]
    form = local_connection(data, 0)
    uu, vv = chart.grid
    r2 = uu ** 2 + vv ** 2
    region = (r2 >= 1.45 ** 2) & (uu >= chart.nodes[0][2]) \
        & (uu <= chart.nodes[0][-3]) & (vv >= chart.nodes[1][2]) \
        & (vv <= chart.nodes[1][-3])
    assert region.any()
    exact_u = -1j * n * (-vv / r2)
    exact_v = -1j * n * (uu / r2)
    dev_u = np.abs(form.components[0][..., 0, 0] - exact_u)
    dev_v = np.abs(form.components[1][..., 0, 0] - exact_v)
    h = chart.spacing[0]
    assert float(np.where(region, dev_u, 0).max()) <= 10 * h ** 2
    assert float(np.where(region, dev_v, 0).max()) <= 10 * h ** 2


def test_partition_shift_leaves_connection_alone():
    """Splitting one chart's weight across two copies with identical
    transition functions does not change A (only the total weight enters)."""
    base_data = two_chart_sphere(1, resolution=80)
    base = base_data.base

    class ThreeChartBase:
        charts = base.charts + [base.charts[1]]
        overlaps = base.overlaps
        orientation = (1, 1, 1)
        closed_surface = False
        chart_count = 3
        name = "split-south"

    t01 = base_data.transitions[(0, 1)]
    lam0 = base_data.partitions[(0, 0)]
    for alpha in (1.0, 0.35, 0.0):
        data = BundleData(
            ThreeChartBase(), 1,
            {(0, 1): t01, (0, 2): t01},
            {(0, 0): lam0,
             (1, 0): lambda u, v, a=alpha: a * (1.0 - lam0(u, v)),
             (2, 0): lambda u, v, a=alpha: (1.0 - a) * (1.0 - lam0(u, v))})
        form = data and local_connection(data, 0)
        if alpha == 1.0:
            reference = form.components
        else:
            assert np.allclose(form.components, reference, atol=1e-13)


# --- finite differences ------------------------------------------------------

@pytest.mark.parametrize("length", [3, 4, 7, 400])
@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("complex_values", [False, True])
def test_derivative_equals_numpy_gradient(length, size, complex_values):
    rng = np.random.default_rng(length)
    for axis in (0, 1):
        shape = [5, 5, size, size]
        shape[axis] = length
        f = rng.normal(size=shape)
        if complex_values:
            f = f + 1j * rng.normal(size=shape)
        dx = rng.uniform(0.01, 1.0)
        out = np.full_like(f, np.nan)
        assert _derivative(f, dx, axis, out) is out
        assert np.array_equal(out, np.gradient(f, dx, axis=axis,
                                               edge_order=2))


# --- elementwise inverse of line-bundle samples -----------------------------

def lapack_reference(monkeypatch, fn):
    """fn() evaluated with every transition sample inverted by LAPACK."""
    with monkeypatch.context() as m:
        m.setattr(connection, "_inverse", np.linalg.inv)
        return fn()


@pytest.mark.parametrize("resolution", [50, 100, 200, 400])
def test_elementwise_inverse_matches_lapack(monkeypatch, resolution):
    for clutching in range(-2, 4):
        data = two_chart_sphere(clutching, resolution=resolution)
        for k in (0, 1):
            a = local_connection(data, k).components
            ref = lapack_reference(monkeypatch,
                                   lambda: local_connection(data, k).components)
            assert np.max(np.abs(a - ref)) <= 2e-15 * np.max(np.abs(ref))
        ref = lapack_reference(monkeypatch, lambda: chern_number(data))
        assert abs(chern_number(data) - ref) <= 1e-13
        value = gauge_residual(data, 0, 1)
        ref = lapack_reference(monkeypatch, lambda: gauge_residual(data, 0, 1))
        assert abs(value - ref) <= 1e-12
        if clutching == 0:
            assert value <= 1e-12


@pytest.mark.parametrize("clutching", [-1, 2])
def test_rank_two_bundle_is_line_bundle_times_identity(clutching):
    line = two_chart_sphere(clutching, resolution=100)
    rank2 = two_chart_sphere(clutching, resolution=100, size=2)
    for k in (0, 1):
        a1 = local_connection(line, k).components
        a2 = local_connection(rank2, k).components
        assert np.max(np.abs(a2 - a1 * np.eye(2))) <= \
            2e-15 * np.max(np.abs(a1))
    value = chern_number(rank2)
    assert abs(value - 2 * chern_number(line)) <= 1e-12
    assert round(value) == 2 * clutching


@pytest.mark.parametrize("size", [1, 2])
def test_zero_transition_sample_is_singular(size):
    data = two_chart_sphere(1, resolution=60, size=size)
    data.corrupt_sample(0, 1, (30, 45), 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        local_connection(data, 0)
    with pytest.raises(np.linalg.LinAlgError):
        gauge_residual(data, 0, 1)


def test_nan_sample_matters_only_inside_partition_support():
    """A NaN sample where lambda = 0 is never read (and raises no warning);
    inside the support it makes the connection undefined."""
    data = two_chart_sphere(1, resolution=101)
    data.corrupt_sample(0, 1, (50, 50), np.nan)  # the north pole, lambda_1 = 0
    assert np.isfinite(local_connection(data, 0).components).all()
    data.corrupt_sample(0, 1, (50, 80), np.nan)
    with pytest.raises(GridTooCoarse):
        local_connection(data, 0)


# --- the pipeline against its full-grid oracle -------------------------------

@pytest.mark.parametrize("resolution", [50, 100, 200, 400])
@pytest.mark.parametrize("size", [1, 2])
def test_pipeline_matches_full_grid_oracle(size, resolution):
    """Equal bits for N = 2; for N = 1 the elementwise products and the
    skipped bracket move values at rounding level only."""
    for clutching in range(-2, 4):
        data = two_chart_sphere(clutching, resolution=resolution, size=size)
        forms = [chart_forms(data, k) for k in (0, 1)]
        forms_ref = oracles.full_grid_forms(data)
        for (a, f), (a_ref, f_ref) in zip(forms, forms_ref):
            if size == 2:
                assert np.array_equal(a.components, a_ref)
                assert np.array_equal(f.components, f_ref)
            else:
                scale = max(np.max(np.abs(a_ref)), 1.0)
                assert np.max(np.abs(a.components - a_ref)) <= 1e-13 * scale
                scale = max(np.max(np.abs(f_ref)), 1.0)
                assert np.max(np.abs(f.components - f_ref)) <= 1e-13 * scale
        chern = chern_number(data, forms)
        chern_ref = oracles.full_grid_chern_number(data, forms_ref)
        gauge = gauge_residual(data, 0, 1, forms)
        gauge_ref = oracles.full_grid_gauge_residual(data, 0, 1, forms_ref)
        if size == 2:
            assert chern == chern_ref and gauge == gauge_ref
        else:
            assert abs(chern - chern_ref) <= 1e-15
            assert abs(gauge - gauge_ref) <= 1e-13


@pytest.mark.parametrize("size", [1, 2])
def test_explicit_forms_give_the_same_answers(size):
    data = two_chart_sphere(-1, resolution=60, size=size)
    forms = [chart_forms(data, k) for k in (0, 1)]
    assert chern_number(data, forms) == chern_number(data)
    for k, l in ((0, 1), (1, 0)):
        assert gauge_residual(data, k, l, forms) == gauge_residual(data, k, l)


def test_shared_stencil_matches_per_array_interpolation():
    """Bit for bit, on a non-square chart, at random points and on the
    chart's edges, where the upper one clips to the last cell."""
    chart = Chart("test", [(-1.0, 2.0, 13), (0.5, 1.5, 7)])
    rng = np.random.default_rng(11)
    u = np.concatenate([rng.uniform(-1.0, 2.0, 300), [2.0, 2.0, -1.0, 0.3]])
    v = np.concatenate([rng.uniform(0.5, 1.5, 300), [1.5, 0.9, 1.5, 0.5]])
    stencil = _stencil(chart, u, v)
    values = rng.normal(size=chart.shape + (2, 2)) \
        + 1j * rng.normal(size=chart.shape + (2, 2))
    for samples in (values, values[..., :1, :1]):
        assert np.array_equal(_interpolate(stencil, samples),
                              oracles.bilinear(chart, samples, u, v))


# --- curvature --------------------------------------------------------------

def test_zero_connection_zero_curvature():
    data = two_chart_sphere(0, resolution=60)
    f = curvature(data, local_connection(data, 0))
    assert np.max(np.abs(f.components)) <= 1e-13


def test_abelian_exact_connection_is_flat():
    """A = 2 pi i dphi for single-valued phi gives F = O(h^2) ~ 0."""
    data = two_chart_sphere(0, resolution=200, size=1)
    chart = data.base.charts[0]
    uu, vv = chart.grid
    phi = np.sin(uu) * np.cos(vv)
    a_u = 2j * np.pi * np.cos(uu) * np.cos(vv)
    a_v = -2j * np.pi * np.sin(uu) * np.sin(vv)
    comps = np.stack([a_u[..., None, None], a_v[..., None, None]])
    f = curvature(data, SampledForm(1, 0, comps))
    h = chart.spacing[0]
    assert float(np.max(np.abs(f.components))) <= 20 * h ** 2
    assert phi.shape == uu.shape


def test_nonabelian_constant_forms():
    data = two_chart_sphere(0, resolution=40, size=2)
    chart = data.base.charts[0]
    c1 = np.array([[0, 1], [0, 0]], dtype=complex)
    c2 = np.array([[0, 0], [1, 0]], dtype=complex)
    shape = chart.shape
    # A = C1 dx: F = [C1, C1] dx^dx = 0
    same = np.stack([np.broadcast_to(c1, shape + (2, 2)),
                     np.zeros(shape + (2, 2), dtype=complex)])
    f = curvature(data, SampledForm(1, 0, same))
    assert np.max(np.abs(f.components)) <= 1e-14
    # A = C1 dx + C2 dy: F = [C1, C2] dx^dy
    mixed = np.stack([np.broadcast_to(c1, shape + (2, 2)),
                      np.broadcast_to(c2, shape + (2, 2))])
    f = curvature(data, SampledForm(1, 0, mixed))
    bracket = c1 @ c2 - c2 @ c1
    assert np.allclose(f.components, np.broadcast_to(bracket, shape + (2, 2)),
                       atol=1e-12)


# --- gauge residual ---------------------------------------------------------

def test_trivial_bundle_gauge_residual_zero():
    data = two_chart_sphere(0, resolution=80)
    assert gauge_residual(data, 0, 1) <= 1e-12


def test_gauge_residual_second_order():
    values = {}
    for res in (100, 200, 400):
        values[res] = gauge_residual(two_chart_sphere(2, resolution=res), 0, 1)
    assert values[100] / values[200] >= 3.5
    assert values[200] / values[400] >= 3.5


def full_grid_gauge_residual(data, k, l):
    """The gauge residual evaluated on all of chart l's grid, then masked."""
    base = data.base
    chart_l = base.charts[l]
    om = base.overlaps[(k, l)]
    mask = np.asarray(om.mask(*chart_l.grid), dtype=bool)
    a_l, f_l = chart_forms(data, l)
    a_k, f_k = chart_forms(data, k)
    mapped = om.coords(*chart_l.grid)
    jac = om.jacobian(*chart_l.grid)
    h = data.transition_values(l, k)
    h_inv = _inverse(h)
    stencil = _stencil(base.charts[k], *mapped)
    interp_k = [_interpolate(stencil, a_k.components[b]) for b in range(2)]
    worst = 0.0
    for a in range(2):
        pulled = sum(jac[b][a][..., None, None] * interp_k[b] for b in range(2))
        dh = np.gradient(h, chart_l.spacing[a], axis=a, edge_order=2)
        rhs = _product(_product(h_inv, pulled), h) + _product(h_inv, dh)
        dev = np.abs(a_l.components[a] - rhs).max(axis=(-2, -1))
        worst = max(worst, float(np.where(mask, dev, 0.0).max()))
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    pulled_f = det[..., None, None] * _interpolate(stencil, f_k.components)
    rhs_f = _product(_product(h_inv, pulled_f), h)
    dev_f = np.abs(f_l.components - rhs_f).max(axis=(-2, -1))
    return max(worst, float(np.where(mask, dev_f, 0.0).max()))


@pytest.mark.parametrize("resolution", [40, 80])
def test_gauge_residual_equals_full_grid_reference(resolution):
    for clutching in range(-2, 3):
        data = two_chart_sphere(clutching, resolution=resolution)
        for k, l in ((0, 1), (1, 0)):
            assert gauge_residual(data, k, l) == \
                full_grid_gauge_residual(data, k, l)


@pytest.mark.parametrize("size", [1, 2])
def test_gauge_residual_at_chart_edges_equals_full_grid_reference(size):
    """With extent 1.3 the annulus crosses the chart edges, so the
    one-sided derivative stencils run at overlap points."""
    for clutching in range(-2, 4):
        data = two_chart_sphere(clutching, resolution=80, extent=1.3,
                                size=size)
        chart = data.base.charts[0]
        mask = data.base.overlaps[(1, 0)].mask(*chart.grid)
        inside = np.zeros_like(mask)
        inside[1:-1, 1:-1] = True
        assert np.count_nonzero(mask & ~inside) == 88
        for k, l in ((0, 1), (1, 0)):
            assert gauge_residual(data, k, l) == \
                full_grid_gauge_residual(data, k, l)


def test_gauge_residual_differentiates_no_full_grid(monkeypatch):
    """With the forms given, neither np.gradient nor the full-grid
    derivative runs: dh is formed at the overlap points only."""
    data = two_chart_sphere(2, resolution=80, extent=1.3)
    forms = {k: chart_forms(data, k) for k in (0, 1)}
    expected = gauge_residual(data, 0, 1, forms)

    def spy(*args, **kwargs):
        raise AssertionError("gauge_residual differentiated a full grid")

    monkeypatch.setattr(np, "gradient", spy)
    monkeypatch.setattr(connection, "_derivative", spy)
    assert gauge_residual(data, 0, 1, forms) == expected


def test_gauge_residual_needs_an_overlap():
    with pytest.raises(NoOverlap, match="do not overlap"):
        gauge_residual(two_chart_sphere(1, resolution=16), 0, 0)


@pytest.mark.parametrize("form", [0, 1])
def test_gauge_residual_propagates_nan(form):
    """A NaN in A_l's dv component or in F_l at one overlap point makes
    the residual NaN, whichever deviation is reduced first."""
    data = two_chart_sphere(1, resolution=60)
    forms = {k: chart_forms(data, k) for k in (0, 1)}
    assert np.isfinite(gauge_residual(data, 1, 0, forms))
    chart = data.base.charts[0]
    mask = data.base.overlaps[(1, 0)].mask(*chart.grid)
    point = tuple(int(x[0]) for x in np.nonzero(mask))
    values = forms[0][form].components
    values[(1,) + point if form == 0 else point] = np.nan
    assert np.isnan(gauge_residual(data, 1, 0, forms))


def test_corner_corruption_outside_the_annulus_is_not_read():
    data = two_chart_sphere(1, resolution=40)
    before = [gauge_residual(data, 0, 1), gauge_residual(data, 1, 0)]
    a_north = local_connection(data, 0).components
    for k, i in ((0, 1), (1, 0)):
        data.corrupt_sample(k, i, (0, 0), 1.5)
    assert not np.array_equal(local_connection(data, 0).components, a_north)
    assert [gauge_residual(data, 0, 1), gauge_residual(data, 1, 0)] == before


def test_corrupted_sample_detected():
    data = two_chart_sphere(1, resolution=100)
    data.corrupt_sample(0, 1, (50, 80), 1.5)
    assert gauge_residual(data, 0, 1) > 1e-1
    residual, ok, where = data.transition_report()
    assert not ok and where is not None


def test_unitarity_report_flags_a_corrupted_sample():
    data = two_chart_sphere(1, resolution=60)
    dev, ok = unitarity_report(data)
    assert ok and dev <= 1e-12
    data.corrupt_sample(0, 1, (30, 40), 1.1)
    dev, ok = unitarity_report(data)
    assert not ok


# --- stored samples -----------------------------------------------------------

SHIPPED_MODELS = [
    *[(f"sphere-{res}-clutching{c}", lambda res=res, c=c: two_chart_sphere(c, res))
      for res in (8, 100, 400) for c in range(-2, 3)],
    ("circle", two_arc_circle),
    ("circle-flip", lambda: two_arc_circle(flip=True)),
    ("interval", trivial_interval_bundle),
]


@pytest.mark.parametrize("make", [m for _, m in SHIPPED_MODELS],
                         ids=[name for name, _ in SHIPPED_MODELS])
def test_samples_equal_the_meshgrid_route(make):
    """Every sample taken on the broadcast grid views is, bit for bit, the
    same function evaluated on dense meshgrid copies."""
    data = make()
    for (k, i), (h, lam) in oracles.meshgrid_samples(data).items():
        assert np.array_equal(data.transition_values(k, i), h, equal_nan=True)
        assert np.array_equal(data.partition_values(i, k), lam, equal_nan=True)
    for chart in data.base.charts:
        dense = np.meshgrid(*chart.nodes, indexing="ij")
        assert all(np.array_equal(a, b) for a, b in zip(chart.grid, dense))


@pytest.mark.parametrize("make", [two_arc_circle, trivial_interval_bundle,
                                  lambda: two_chart_sphere(1, 40, size=2)])
def test_grids_and_identity_samples_are_read_only_views(make):
    data = make()
    for chart in data.base.charts:
        for axis, (view, nodes) in enumerate(zip(chart.grid, chart.nodes)):
            assert view.shape == chart.shape and not view.flags.writeable
            assert np.shares_memory(view, nodes)
            assert sum(view.strides) == view.strides[axis]  # one axis strides
            with pytest.raises(ValueError):
                view[(0,) * chart.dims] = 7.0
    n = data.size
    h = data.transition_values(0, 0)
    assert h.shape == data.base.charts[0].shape + (n, n)
    assert not h.flags.writeable
    assert not any(h.strides[:-2])  # every sample is the one identity
    first, last = h[(0,) * (h.ndim - 2)], h[(-1,) * (h.ndim - 2)]
    assert np.shares_memory(first, last) and np.array_equal(last, np.eye(n))
    with pytest.raises(ValueError):
        h[(0,) * (h.ndim - 2)] = 0.0
    index = (1,) * (h.ndim - 2)
    data.corrupt_sample(0, 0, index, 2.0)
    corrupted = data.transition_values(0, 0)
    assert corrupted.flags.writeable and not np.shares_memory(corrupted, h)
    assert np.array_equal(corrupted[index], 2.0 * np.eye(n))
    assert np.array_equal(corrupted[(0,) * (h.ndim - 2)], np.eye(n))
    assert np.array_equal(h[index], np.eye(n))  # the view is untouched


def test_a_sampled_400_grid_bundle_holds_half_the_memory():
    """Both charts of two_chart_sphere(1, 400) sampled on every (k, i) pair
    hold the two transitions and four partitions, 9.8 MiB; dense grid
    copies and identity samples would add 9.8 MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        data = two_chart_sphere(1, 400)
        for k in range(2):
            for i in range(2):
                data.transition_values(k, i)
                data.partition_values(i, k)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 11 * 2 ** 20


# (name, bundle, corruptions, whether the report passes)
REPORT_CASES = [
    ("sphere", lambda: two_chart_sphere(1, 100), [], True),
    ("sphere-rank2", lambda: two_chart_sphere(-2, 60, size=2), [], True),
    ("circle-flip", lambda: two_arc_circle(flip=True), [], True),
    ("circle-point", lambda: two_arc_circle(41), [(0, 1, (3,), 1.25)], False),
    ("interval", trivial_interval_bundle, [], True),
    ("one-point", lambda: two_chart_sphere(1, 100), [(0, 1, (50, 80), 1.5)],
     False),
    ("two-points", lambda: two_chart_sphere(2, 80),
     [(1, 0, (40, 60), 1.1), (0, 1, (40, 62), 1.3)], False),
    ("tie", lambda: two_chart_sphere(1, 80),
     [(0, 1, (40, 60), 1.5), (0, 1, (40, 20), 1.5)], False),
    ("nan", lambda: two_chart_sphere(1, 80), [(0, 1, (40, 60), np.nan)], True),
    ("nan-and-point", lambda: two_chart_sphere(1, 80),
     [(0, 1, (40, 60), np.nan), (1, 0, (40, 62), 1.5)], False),
    ("outside-overlap", lambda: two_chart_sphere(1, 80), [(0, 1, (0, 0), 3.0)],
     True),
]


@pytest.mark.parametrize("make, corruptions, ok", [c[1:] for c in REPORT_CASES],
                         ids=[c[0] for c in REPORT_CASES])
def test_transition_report_equals_the_full_grid_route(make, corruptions, ok):
    """Read at the overlap points only, the report gives the full-grid
    route's residual and location; a NaN residual is passed over."""
    data = make()
    for corruption in corruptions:
        data.corrupt_sample(*corruption)
    got = data.transition_report()
    assert repr(got) == repr(oracles.full_grid_transition_report(data))
    assert got[1] == ok


# --- Chern numbers ----------------------------------------------------------

def test_trivial_bundle_chern_zero():
    data = two_chart_sphere(0, resolution=200)
    assert abs(chern_number(data)) <= 1e-6


@pytest.mark.parametrize("degree", [-2, -1, 1, 2])
def test_chern_matches_clutching_degree(degree):
    data = two_chart_sphere(degree, resolution=400)
    value = chern_number(data)
    assert abs(value - degree) <= 1e-3
    # winding oracle: the stored h_01, followed counterclockwise around the
    # equator of the north chart, winds -degree times (the chart-0 angle
    # runs against the transition's phase)
    winding = winding_number(equator_phase_samples(data))
    assert abs(winding + degree) <= 1e-9


def test_chern_invariant_under_profile_change():
    a = chern_number(two_chart_sphere(1, resolution=300))
    b = chern_number(two_chart_sphere(1, resolution=300, inner=0.55, outer=1.25))
    assert abs(a - b) <= 2e-3
    assert round(a) == round(b) == 1


def test_chern_invariant_under_grid_refinement():
    a = chern_number(two_chart_sphere(-1, resolution=200))
    b = chern_number(two_chart_sphere(-1, resolution=400))
    assert abs(a - b) <= 2e-3
    assert round(a) == round(b) == -1


def test_chern_invariant_under_winding_preserving_homotopy():
    data = two_chart_sphere(1, resolution=300)

    def wobbly(u, v):
        r = np.sqrt(u * u + v * v)
        safe = np.where(r > 1e-12, r, 1.0)
        w = np.where(r > 1e-12, (u - 1j * v) / safe, 1.0)
        extra = np.exp(0.4j * (v / safe))  # e^{i eps sin(theta)}: winding 0
        return (w * extra)[..., None, None] * np.eye(1, dtype=complex)

    hom = BundleData(data.base, 1, {(0, 1): wobbly, (1, 0): wobbly},
                     data.partitions)
    assert hom.transition_report()[1]
    value = chern_number(hom)
    assert abs(value - 1.0) <= 2e-3
    assert abs(winding_number(equator_phase_samples(hom)) + 1) <= 1e-6


def test_chern_needs_closed_surface():
    with pytest.raises(NotClosedSurface):
        chern_number(two_arc_circle())


def test_exact_abelian_connection_integrates_to_zero():
    data = two_chart_sphere(0, resolution=300)
    assert abs(chern_number(data)) <= 1e-6


def test_radial_profile_shape():
    assert radial_profile(0.5, 0.7, 1.4) == 1.0
    assert radial_profile(1.5, 0.7, 1.4) == 0.0
    mid = radial_profile(1.05, 0.7, 1.4)
    assert 0.0 < mid < 1.0
