"""gerbelab benchmark: one workload per run, one closed-loop client.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; gerbelab is imported from its
``src/`` (nothing needs installing).  Workloads: exact, analytic, cli (see
perfbench/README.md).

--trace 0 reports the end-to-end metrics, with every time taken at
reference speed (see harness.py).  --trace 1 first runs whole rounds of jobs
untraced for half the time, then wraps gerbelab's public functions and runs
a traced set-up and whole traced rounds for the other half, and reports
per-layer metrics; its spans are written to perfbench/out/.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, set before numpy loads

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("exact", "analytic", "cli")
SETUP_REPEATS = 3
IMPORT_BEFORE = 3  # cold imports before set-up
IMPORT_EVERY = 2.0  # and one per this many seconds of timed jobs
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gerbelab.cli; "
                "t = time.perf_counter() - t; import gerbelab; print(t, gerbelab.__file__)")


def import_checkout_gerbelab():
    """Import gerbelab from this checkout's src/, and fail if it resolves
    anywhere else."""
    sys.path.insert(0, str(SRC))
    import gerbelab
    if not Path(gerbelab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"gerbelab resolved to {gerbelab.__file__}, not {SRC}")
    return gerbelab


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_import(env):
    """Seconds for a cold ``import gerbelab.cli`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    seconds, path = out.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"child imported gerbelab from {path}, not {SRC}")
    return float(seconds)


def environment(seed):
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit to record
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"commit": commit, "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version")},
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
            "seed": seed}


def load_workload(name):
    import importlib
    return importlib.import_module(f"wl_{name}")


def pin_to_one_cpu():
    """Run this process, and the subprocesses it starts, on one CPU, so that
    the calibration between jobs sees the CPU the jobs run on."""
    if hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    return None


def run(args):
    import numpy as np

    import harness
    import tracing

    workload = load_workload(args.workload)
    env = child_env()
    ctx = types.SimpleNamespace(traced_run=bool(args.trace), root=ROOT, env=env, out_dir=OUT)
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  "
          f"trace: {args.trace}")
    print("environment:", json.dumps({**environment(args.seed), "cpu": pin_to_one_cpu()}))

    def fresh_setup():
        return workload.setup(np.random.default_rng([args.seed, 0]), ctx)

    rng = np.random.default_rng([args.seed, 1])
    metrics = {}
    if not args.trace:
        imports, builds = [], []  # (wall seconds, factor to reference speed)

        def probe_import():
            seconds, _, speed = harness.timed(lambda: measure_import(env))
            imports.append((seconds, speed))

        for _ in range(IMPORT_BEFORE):
            probe_import()
        for _ in range(SETUP_REPEATS):
            state, seconds, speed = harness.timed(fresh_setup)
            builds.append((seconds, speed))
        records, wall, rounds = harness.run_rounds(
            workload, state, rng, args.seconds, probe=probe_import, probe_every=IMPORT_EVERY)
    else:
        state = fresh_setup()  # one round per half is enough for per-round values
        plain, plain_wall, _ = harness.run_rounds(workload, state, rng, args.seconds / 2,
                                                  whole_rounds=True)
        tracer = tracing.Tracer()
        namespaces = [workload, *getattr(workload, "PARTS", ())]
        undo = tracing.install(tracer, namespaces=namespaces)
        try:
            root = tracer.open(tracing.SETUP, job=tracing.SETUP)
            state = fresh_setup()
            tracer.close(root)
            records, wall, rounds = harness.run_rounds(
                workload, state, rng, args.seconds / 2, tracer, whole_rounds=True)
        finally:
            tracing.uninstall(undo)
        overhead = (len(plain) / plain_wall) / (len(records) / wall)
        metrics = tracing.layer_metrics(tracer.spans, rounds, state.sizes, overhead)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(tracer.spans, spans_file)
        records = plain + records
    print("input sizes:", json.dumps(state.sizes, default=str))

    failures = harness.verify(workload, records)
    for reason in list(failures.values())[:10]:
        print("FAILED", reason)
    attempted, failed = len(records), len(failures)
    units = {}
    if not args.trace:
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF

        def timings(reference):
            import_s = statistics.median(s * f if reference else s for s, f in imports)
            build_s = statistics.median(s * f if reference else s for s, f in builds)
            return {"setup_s": import_s + build_s,
                    **harness.latency_metrics(records, failed, reference),
                    "import_s": import_s}

        metrics = timings(reference=True)
        metrics["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
        wall_clock = timings(reference=False)
        speeds = [r.speed for r in records] + [f for _, f in imports + builds]
        units = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
                 "peak_rss_mb": "MB", "import_s": "s"}
        slots = harness.slot_latencies(records)
        tail = metrics["job_tail_s"]
        beyond = {s for s, v in slots.items() if v > tail}
        print(f"timed phase: {attempted} job runs of {len(slots)} slots ({rounds} whole "
              f"round(s)) in {wall:.3f} s wall; job_tail_s is p{round(harness.TAIL * 100)} of "
              f"the slot latencies, with {len(beyond)} slots and "
              f"{sum(r.slot in beyond for r in records)} job runs beyond it; "
              f"{len(builds)} set-up builds, {len(imports)} cold imports")
        print(f"host speed factor (to reference speed): median "
              f"{statistics.median(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f}")
        print("wall-clock values:", ", ".join(
            f"{name} {value:.6g} {units[name]}" for name, value in wall_clock.items()))
    else:
        units = {name: unit for name, unit, *_ in tracing.PER_LAYER}
        shares = tracing.job_shares(tracer.spans)
        print("layer self time as a share of traced job time:",
              json.dumps({k: round(v, 3) for k, v in sorted(shares.items())}))
        print(f"spans written to {spans_file.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"failed_ratio: {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_checkout_gerbelab()
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import gerbelab from {SRC}: {exc}\n")
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
