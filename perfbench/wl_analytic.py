"""analytic: dense floating-point pipelines with the exact layers idle.

Schwinger jobs run on seeded skew-hermitian loops at N in {4, 16} and band
B in {2, 8}: the trace at K = B, 2B, 4B next to the residue, the Dirac
defect at K = B+1 and 3B, the defect curvature at K = 2B+2, and the cocycle
identity and Jacobi defects.  Connection jobs run chern_number and
gauge_residual on the two-chart sphere with clutching -2..2 at resolutions
100, 200 and 400; the bundles are built and sampled in set-up, so every
round does the same work.  Answers are held to the acceptance tolerances.
"""

from types import SimpleNamespace

import numpy as np

import gerbelab.connection as connection
import gerbelab.schwinger as schwinger

import checks
from harness import Job

SHAPES = ((4, 2), (4, 8), (16, 2), (16, 8))
CLUTCHINGS = (-2, -1, 0, 1, 2)
RESOLUTIONS = (100, 200, 400)


def setup(rng, ctx):
    st = SimpleNamespace()
    st.loops = {(n, b): [schwinger.LoopPolynomial.random(rng, n, b, skew=True)
                         for _ in range(3)] for n, b in SHAPES}
    st.bundles = {(c, r): connection.two_chart_sphere(c, resolution=r)
                  for c in CLUTCHINGS for r in RESOLUTIONS}
    for data in st.bundles.values():  # sample every chart once, as building does
        charts = range(data.base.chart_count)
        for k in charts:
            for i in charts:
                data.transition_values(k, i)
                data.partition_values(i, k)
    operators = {f"N{n}B{b}K{k}": {"2KN": 2 * k * n, "bytes": (2 * k * n) ** 2 * 16}
                 for n, b in SHAPES for k in (b, b + 1, 2 * b, 2 * b + 2, 3 * b, 4 * b)}
    grid = sum(int(np.prod(ch.shape)) for data in st.bundles.values()
               for ch in data.base.charts)
    st.sizes = {"computed": True, "operators": operators,
                "grid_points_per_resolution": {r: 2 * r * r for r in RESOLUTIONS},
                "connection.grid_points": grid}
    return st


def make_round(state, rng):
    jobs = []
    for (n, b), (x, y, z) in state.loops.items():
        scale2, scale3 = schwinger.loop_scale(x, y), schwinger.loop_scale(x, y, z)
        tag = f"N={n} B={b}"
        for k in (b, 2 * b, 4 * b):
            jobs.append(Job(f"trace {tag} K={k}", _trace(x, y, k),
                            _trace_check(scale2), key=("trace", n, b, scale2)))
        for k in (b + 1, 3 * b):
            jobs.append(Job(f"dirac {tag} K={k}",
                            lambda x=x, k=k: schwinger.dirac_defect(x, k).interior_deviation,
                            lambda dev: checks.within(dev, 1e-12, "Dirac interior deviation")))
        k = 2 * b + 2
        jobs.append(Job(f"curvature {tag} K={k}", _curvature(x, y, k),
                        _curvature_check(n, b, k)))
        jobs.append(Job(f"identity {tag}",
                        lambda x=x, y=y, z=z: schwinger.cocycle_identity_defect(x, y, z),
                        lambda d, s=scale3: checks.within(d, 1e-10 * s, "cyclic defect")))
        jobs.append(Job(f"jacobi {tag}", _jacobi(x, y, z),
                        lambda d, s=scale3: checks.within(d, 1e-10 * s, "Jacobi defect")))
    for (c, r), data in state.bundles.items():
        jobs.append(Job(f"chern n={c} res={r}",
                        lambda data=data: connection.chern_number(data),
                        _chern_check(c, r)))
        jobs.append(Job(f"gauge n={c} res={r}",
                        lambda data=data: connection.gauge_residual(data, 0, 1),
                        lambda g: None if np.isfinite(g) else "gauge residual not finite",
                        key=("gauge", c, r)))
    return jobs


def _trace(x, y, k):
    return lambda: (schwinger.schwinger_trace(x, y, k), schwinger.schwinger_residue(x, y))


def _trace_check(scale):
    def check(answer):
        trace, residue = answer
        return checks.within(abs(trace - residue), 1e-10 * scale, "|trace - residue|")
    return check


def _curvature(x, y, k):
    def run():
        f = schwinger.defect_curvature(x, y, k)
        return f.window, f.matrix.shape, bool(np.isfinite(f.matrix).all())
    return run


def _curvature_check(n, b, k):
    window = k - 2 * b
    side = (2 * window + 1) * n

    def check(answer):
        if answer != (window, (side, side), True):
            return f"curvature window/shape/finiteness {answer}, expected {window}, {side}"
        return None
    return check


def _jacobi(x, y, z):
    def run():
        elems = [schwinger.CentralElement(v, 0.0) for v in (x, y, z)]
        return schwinger.jacobi_defect(*elems)
    return run


def _chern_check(clutching, resolution):
    def check(value):
        if round(value) != clutching:
            return f"Chern number {value} rounds to {round(value)}, expected {clutching}"
        if resolution >= 400:
            return checks.within(abs(value - clutching), 1e-3, "|chern - n| at 400")
        return None
    return check


def round_check(group):
    """The trace must not depend on K past the band, and the gauge residual
    must shrink at least 3.5x per grid doubling (vanish for clutching 0)."""
    bad = {}
    traces, gauges = {}, {}
    for i, rec in group:
        if rec.answer is None or rec.job.key is None:
            continue
        if rec.job.key[0] == "trace":
            traces.setdefault(rec.job.key, []).append((i, rec.answer[0], rec.answer[1]))
        else:
            gauges[rec.job.key[1:]] = (i, rec.answer)
    for key, entries in traces.items():
        values = [t for _, t, _ in entries]
        spread = max(abs(v - values[0]) for v in values)
        if spread > 1e-10 * key[3]:
            for i, _, _ in entries:
                bad[i] = f"trace changes with K by {spread:.3e}"
    for (c, r), (i, value) in gauges.items():
        coarse = gauges.get((c, r // 2))
        if c == 0:
            if value > 1e-12:
                bad[i] = f"gauge residual {value:.3e} on the trivial bundle"
        elif coarse is not None and coarse[1] / value < 3.5:
            bad[i] = f"gauge residual refinement ratio {coarse[1] / value:.2f} < 3.5"
    return bad
