"""cli: per-command cost, as a user pays it.

Every README and sample-input command runs as ``python -m gerbelab``, one
subprocess at a time, so each answer pays interpreter start, import, YAML
parsing and report formatting.  The traced run instead calls
``gerbelab.cli.main(argv)`` in process with stdout captured, so that io and
cli time can be attributed.  Checks compare the answer keys of the report
(result, class, verdict, nearest-integer, residue, failures), not its bytes.
"""

import contextlib
import io as stdio
import subprocess
import sys
from types import SimpleNamespace

import gerbelab.cli as cli

import checks
from harness import Job

RANDOM_SHAPE = "4,3"


def describe(group, ring):
    """A CohomologyGroup.describe() line from a (free, torsion) pair."""
    free, torsion = group
    if ring == "Z":
        return f"free {free}, torsion {list(torsion)}"
    return f"dim {len(torsion)} (factors {list(torsion)})"


def setup(rng, ctx):
    st = SimpleNamespace()
    st.in_process = ctx.traced_run
    st.env = ctx.env
    samples = ctx.root / "sample_inputs"
    s = {name: str(samples / f"{name}.yaml") for name in (
        "system_circle_mobius", "system_rp2_mod2", "transition_rp2_z2",
        "extension_z2_z4", "lifts_rp2", "loop_single_mode",
        "loop_single_mode_inverse", "bundle_sphere_degree1")}
    clutching = int(rng.choice([-2, -1, 1, 2]))
    bundle = ctx.out_dir / f"bundle-{clutching}.yaml"
    bundle.parent.mkdir(parents=True, exist_ok=True)
    bundle.write_text("kind: bundle\nformat: v1\nmodel: two-chart-sphere\n"
                      f"clutching: {clutching}\nresolution: 200\n")
    seeds = [str(int(x)) for x in rng.integers(0, 10 ** 6, 6)]
    loops = [s["loop_single_mode"], s["loop_single_mode_inverse"]]
    rand = ["--random", RANDOM_SHAPE, "--seed"]
    commands = []  # (argv, expected answer keys, trace command with the same loops)
    for degree in (0, 1):
        commands.append((["cohomology", s["system_circle_mobius"], "--degree", str(degree)],
                         {"result": describe(checks.MOBIUS[degree], "Z")}, None))
    for degree in (0, 1, 2):
        want = checks.expected_group(checks.RP2, degree, "Z/2")
        commands.append((["cohomology", s["system_rp2_mod2"], "--degree", str(degree)],
                         {"result": describe(want, "Z/2")}, None))
    obstruction = ["obstruction", s["transition_rp2_z2"], s["extension_z2_z4"]]
    order2 = {"class": "NONTRIVIAL (order 2)"}
    commands.append((obstruction, order2, None))
    commands.append((obstruction + ["--lifts", s["lifts_rp2"]], order2, None))
    passing = {"verdict": "PASS"}
    trace_files, trace_random = len(commands), len(commands) + 4
    commands += [
        (["schwinger", *loops, "--mode", "trace"], passing, None),
        (["schwinger", *loops, "--mode", "residue"], {}, trace_files),
        (["schwinger", *loops, "--mode", "curvature"], passing, None),
        (["schwinger", loops[0], "--mode", "defect"], passing, None),
        (["schwinger", "--mode", "trace", *rand, seeds[0]], passing, None),
        (["schwinger", "--mode", "residue", *rand, seeds[0]], {}, trace_random),
        (["schwinger", "--mode", "identity", *rand, seeds[1]], passing, None),
        (["schwinger", "--mode", "jacobi", *rand, seeds[2]], passing, None),
        (["schwinger", "--mode", "defect", *rand, seeds[3]], passing, None),
        (["schwinger", "--mode", "curvature", *rand, seeds[4]], passing, None),
        (["chern", s["bundle_sphere_degree1"]], {"nearest-integer": "1", **passing}, None),
        (["chern", str(bundle)], {"nearest-integer": str(clutching), **passing}, None),
        (["verify", "--seed", seeds[5]], {"failures": "0"}, None),
    ]
    st.commands = commands
    st.sizes = {"computed": True, "commands_per_round": len(commands),
                "bundle_grid_points": {"sample (400)": 2 * 400 ** 2, "generated (200)": 2 * 200 ** 2}}
    return st


def make_round(state, rng):
    run = _in_process if state.in_process else _subprocess
    return [Job(" ".join(argv[:1] + [a.rsplit("/", 1)[-1] for a in argv[1:]]),
                run(argv, state.env), _check(want), key=(idx, same_as))
            for idx, (argv, want, same_as) in enumerate(state.commands)]


def _subprocess(argv, env):
    def run():
        proc = subprocess.run([sys.executable, "-m", "gerbelab", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout
    return run


def _in_process(argv, _env):
    def run():
        buf = stdio.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(stdio.StringIO()):
            code = cli.main(list(argv))
        return code, buf.getvalue()
    return run


def report_keys(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _check(want):
    def check(answer):
        code, text = answer
        if code != 0:
            return f"exit code {code}"
        got = report_keys(text)
        for key, value in want.items():
            if got.get(key) != value:
                return f"{key} = {got.get(key)!r}, expected {value!r}"
        return None
    return check


def round_check(group):
    """Residue-mode answers must equal the residue the trace mode printed
    for the same loops (when the round, cut short at the end of a run, has
    both)."""
    by_index = {rec.job.key[0]: rec for _, rec in group}
    bad = {}
    for i, rec in group:
        same_as = rec.job.key[1]
        if same_as is None or rec.answer is None or same_as not in by_index:
            continue
        trace = by_index[same_as].answer
        mine = report_keys(rec.answer[1]).get("residue")
        if mine is None or trace is None or report_keys(trace[1]).get("residue") != mine:
            bad[i] = "residue differs from the trace mode's residue"
    return bad
