"""Self-tests for the benchmark: self-time arithmetic, tracing, and that every
answer check rejects a deliberately wrong answer.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import wl_analytic  # noqa: E402
import wl_certify  # noqa: E402
import wl_cli  # noqa: E402
import wl_cohomology  # noqa: E402
import wl_exact  # noqa: E402
from gerbelab import models  # noqa: E402


def spans_from(rows):
    """rows: (name, start, end, parent index, job)."""
    out = []
    for name, start, end, parent, job in rows:
        s = tracing.Span(name, start, parent, job)
        s.end = end
        out.append(s)
    return out


def test_self_time_subtracts_union_of_children():
    spans = spans_from([
        ("job", 0.0, 10.0, None, 0),
        ("cech.cohomology", 1.0, 9.0, 0, 0),
        ("snf.smith_normal_form", 2.0, 5.0, 1, 0),
        ("snf.smith_normal_form", 4.0, 6.0, 1, 0),   # overlaps its sibling
        ("snf.matvec", 7.0, 8.0, 1, 0),
        ("snf.matvec", 7.5, 7.75, 4, 0),              # nested inside matvec
    ])
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 3.0, 2.0, 0.75, 0.25])


def test_layer_metrics_average_rounds_and_keep_setup_whole():
    spans = spans_from([
        ("setup", 0.0, 1.0, None, "setup"),
        ("nerve.build_nerve", 0.0, 0.5, 0, "setup"),
        ("job", 1.0, 3.0, None, 0),
        ("cech.cohomology", 1.0, 2.5, 2, 0),
        ("job", 3.0, 5.0, None, 1),
        ("cech.cohomology", 3.0, 4.0, 4, 1),
    ])
    m = tracing.layer_metrics(spans, rounds=2, sizes={}, overhead=1.0)
    assert m["nerve.build_nerve.calls"] == 1
    assert m["nerve.build_nerve.self_s"] == pytest.approx(0.5)
    assert m["cech.cohomology.calls"] == 1
    assert m["cech.cohomology.self_s"] == pytest.approx(1.25)
    assert m["job.time_s"] == pytest.approx(2.0)
    assert m["unattributed_s"] == pytest.approx(0.75)
    assert set(m) == {name for name, *_ in tracing.PER_LAYER}


def test_wrappers_patch_every_namespace_and_nest():
    import gerbelab
    import gerbelab.cech as cech
    import gerbelab.cli as cli
    import gerbelab.coeffs as coeffs
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert gerbelab.cohomology is cech.cohomology
        assert cli.verify_extension is coeffs.verify_extension
        assert cech.cohomology.__wrapped__ is not None
        root = tracer.open(tracing.JOB, job=0)
        system = cech.TwistedLocalSystem(models.rp2_nerve(),
                                         coeffs.CoefficientGroup.integers())
        gerbelab.cohomology(system, 2)
        tracer.close(root)
    finally:
        tracing.uninstall(undo)
    assert not hasattr(cech.cohomology, "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert "cech.cohomology" in names and "snf.smith_normal_form" in names
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent is not None}
    assert parents["cech.delta_snf"] == "cech.cohomology"
    assert parents["snf.smith_normal_form"] == "cech.delta_snf"
    assert all(s.job == 0 for s in tracer.spans)


def test_wrapped_exception_closes_its_span():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")
    wrapped = tracer.wrap("cech.boom", boom)
    root = tracer.open(tracing.JOB, job=0)
    with pytest.raises(ValueError):
        wrapped()
    tracer.close(root)
    assert tracer.stack == [] and all(s.end is not None for s in tracer.spans)


def test_latency_metrics_average_each_slot_at_reference_speed():
    job = harness.Job("", None, None)
    # slot 0 ran twice, once on a host at half speed; slot 2 was cut off
    # after one run; the last slot-1 run is still scaled to reference speed
    records = [harness.Record(0, job, None, None, 1.0, 0, 1.0),
               harness.Record(0, job, None, None, 4.0, 1, 0.5),
               harness.Record(1, job, None, None, 2.0, 0, 0.5),
               harness.Record(1, job, None, None, 3.0, 2, 1.0)]
    assert harness.slot_latencies(records) == {0: 1.0, 1: 2.0, 2: 3.0}
    assert harness.slot_latencies(records, reference=False) == {0: 1.5, 1: 4.0, 2: 3.0}
    m = harness.latency_metrics(records, failed=1)
    assert m["jobs_per_s"] == pytest.approx(0.75 * 3 / 6.0)
    assert m["job_p50_s"] == 2.0 and m["job_tail_s"] == 3.0
    assert harness.percentile([3, 1, 2, 4], 0.5) == 2
    assert harness.middle_mean(range(10)) == 4.5  # the middle fifth: 4 and 5
    assert harness.middle_mean([1, 2, 9, 10, 11]) == 9


def test_run_rounds_stops_mid_round_after_one_whole_round():
    state = SimpleNamespace(runs=0)

    def tick():
        state.runs += 1
        return state.runs

    workload = SimpleNamespace(
        make_round=lambda st, rng: [harness.Job(str(i), tick, lambda a: None) for i in range(4)])
    records, wall, rounds = harness.run_rounds(workload, state, np.random.default_rng(0), 0.0)
    assert (len(records), rounds) == (4, 1)
    assert sorted(r.slot for r in records) == [0, 1, 2, 3]
    assert all(r.speed > 0 for r in records)
    probes = []
    records, _, rounds = harness.run_rounds(workload, state, np.random.default_rng(0), 1e-9,
                                            probe=lambda: probes.append(1), probe_every=0.0)
    assert rounds == 1 and len(probes) == len(records) == 4


def test_tables_and_universal_coefficients():
    assert checks.invariant_factors((2, 3, 2)) == (2, 6)
    assert checks.RP2_X_S1[:4] == (checks.Z, checks.Z, checks.Z2, checks.Z2)
    assert checks.RP2_X_S1_TWISTED[2] == (1, (2,))
    assert checks.expected_group(checks.RP2, 1, "Z/2") == (0, (2,))
    assert checks.expected_group(checks.RP2, 1, "Z/3") == (0, ())
    assert checks.euler(checks.S4) == 2 and checks.euler(checks.RP2_X_S1) == 0


def test_cohomology_oracle_rejects_flipped_torsion():
    rp2 = models.rp2_nerve()
    check = wl_cohomology._checker(rp2, checks.RP2, "Z")
    right = [(1, ()), (0, ()), (0, (2,)), (0, ()), (0, ())]
    assert check(right) is None
    assert check([(1, ()), (0, ()), (0, (3,)), (0, ()), (0, ())]) is not None
    # universal coefficients across rings catch an inconsistent Z/2 answer
    job = harness.Job("", None, None, key=("rp2", "Z"))
    job2 = harness.Job("", None, None, key=("rp2", "Z/2"))
    wrong = [(0, (2,)), (0, (2,)), (0, ()), (0, ()), (0, ())]
    group = [(0, harness.Record(0, job, right, None, 0.0)),
             (1, harness.Record(0, job2, wrong, None, 0.0))]
    assert 1 in wl_cohomology.round_check(group)
    keyless = (2, harness.Record(0, harness.Job("", None, None), None, None, 0.0))
    assert 1 in wl_exact.round_check(group + [keyless])


def test_cohomology_oracle_rejects_truncated_nerve():
    nerve = models.rp2_nerve()
    truncated = type(nerve)(nerve.vertex_count, nerve.simplices[:2] + ((),) * 3)
    check = wl_cohomology._checker(truncated, checks.RP2, "R")
    assert "Euler" in check([(1, ()), (0, ()), (0, ()), (0, ()), (0, ())])


def test_certify_oracles_reject_corrupted_primitive_and_certificate():
    nerve = models.rp2_nerve()
    rows = checks.delta_rows(nerve, {}, 0)
    b = list(range(nerve.count(0)))
    z = checks.apply(rows, b)
    assert checks.primitive_error(rows, b, z, "Z") is None
    bad = list(b)
    bad[0] += 1
    assert checks.primitive_error(rows, bad, z, "Z") is not None
    assert checks.primitive_error(rows, b, [v + 0.25 for v in z], "R/Z") is not None
    # beta(c) is 2-torsion in H^2(RP^2; Z): the all-ones functional on
    # triangles kills d_1 mod 2 and pairs oddly with it.
    gen = list(models.rp2_generator_cocycle().values)
    d1 = checks.delta_rows(nerve, {}, 1)
    beta = [v // 2 for v in checks.apply(d1, gen)]
    ones = [1] * nerve.count(2)
    assert checks.certificate_error(d1, nerve.count(1), ones, 2, beta) is None
    assert checks.certificate_error(d1, nerve.count(1), ones, 0, beta) is not None
    assert checks.certificate_error(d1, nerve.count(1), ones, 2,
                                    [0] * nerve.count(2)) is not None
    check = wl_certify._query_check(nerve, {}, "Z", 2, beta, trivial=False)
    trivial_claim = SimpleNamespace(trivial=True, primitive=None, certificate=None)
    assert check(trivial_claim) is not None


def test_analytic_oracles_reject_wrong_chern_and_slow_gauge_decay():
    assert wl_analytic._chern_check(1, 400)(1.0004) is None
    assert wl_analytic._chern_check(1, 400)(2.0) is not None
    assert wl_analytic._chern_check(1, 400)(1.01) is not None
    job = lambda res: harness.Job("", None, None, key=("gauge", 1, res))  # noqa: E731
    group = [(0, harness.Record(0, job(200), 0.04, None, 0.0)),
             (1, harness.Record(0, job(400), 0.02, None, 0.0))]
    assert 1 in wl_analytic.round_check(group)
    assert wl_analytic._trace_check(1.0)((1.0 + 1e-9, 1.0)) is not None


def test_cli_oracle_compares_keys_not_bytes():
    check = wl_cli._check({"verdict": "PASS"})
    assert check((0, "command: x\nverdict: PASS\nnew-key: 1\n")) is None
    assert check((0, "verdict: FAIL\n")) is not None
    assert check((3, "verdict: PASS\n")) is not None


def test_benchmark_json_mirrors_the_metric_lists():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [row[:3] for row in tracing.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == ["exact", "analytic", "cli"]
    assert {row[4] for row in tracing.PER_LAYER} <= {"exact", "analytic", "cli", "every workload"}
    names = {m["name"] for m in doc["end_to_end"]}
    assert names == {"setup_s", "jobs_per_s", "job_p50_s", "job_tail_s", "peak_rss_mb",
                     "import_s"}
