import numpy as np
import pytest

from gerbelab import connection
from gerbelab.connection import (BundleData, SampledForm, chern_number,
                                 classifying_point, curvature, gauge_residual,
                                 local_connection, radial_profile,
                                 trivial_interval_bundle, two_arc_circle,
                                 two_chart_sphere, _interpolate, _inverse)
from gerbelab.errors import (GridTooCoarse, NotClosedSurface,
                             PointOutsideCharts)
from oracles import winding_number


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
    a_l = local_connection(data, l)
    a_k = local_connection(data, k)
    f_l = curvature(data, a_l)
    f_k = curvature(data, a_k)
    mapped = om.coords(*chart_l.grid)
    jac = om.jacobian(*chart_l.grid)
    h = data.transition_values(l, k)
    h_inv = _inverse(h)
    interp_k = [_interpolate(base.charts[k], a_k.components[b], *mapped)
                for b in range(2)]
    worst = 0.0
    for a in range(2):
        pulled = sum(jac[b][a][..., None, None] * interp_k[b] for b in range(2))
        dh = np.gradient(h, chart_l.spacing[a], axis=a, edge_order=2)
        rhs = h_inv @ pulled @ h + h_inv @ dh
        dev = np.abs(a_l.components[a] - rhs).max(axis=(-2, -1))
        worst = max(worst, float(np.where(mask, dev, 0.0).max()))
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    pulled_f = det[..., None, None] * _interpolate(base.charts[k],
                                                   f_k.components, *mapped)
    rhs_f = h_inv @ pulled_f @ h
    dev_f = np.abs(f_l.components - rhs_f).max(axis=(-2, -1))
    return max(worst, float(np.where(mask, dev_f, 0.0).max()))


@pytest.mark.parametrize("resolution", [40, 80])
def test_gauge_residual_equals_full_grid_reference(resolution):
    for clutching in range(-2, 3):
        data = two_chart_sphere(clutching, resolution=resolution)
        for k, l in ((0, 1), (1, 0)):
            assert gauge_residual(data, k, l) == \
                full_grid_gauge_residual(data, k, l)


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


def test_unitarity_report_and_reorthonormalization():
    data = two_chart_sphere(1, resolution=60)
    dev, ok = data.unitarity_report()
    assert ok and dev <= 1e-12
    data.corrupt_sample(0, 1, (30, 40), 1.1)
    dev, ok = data.unitarity_report()
    assert not ok
    data.reorthonormalize()
    dev, ok = data.unitarity_report()
    assert ok


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
