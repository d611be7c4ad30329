import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from gerbelab import cli
from gerbelab import io as gio
from gerbelab.errors import GridTooCoarse, ProblemFileError

SAMPLES = Path(__file__).parent.parent / "sample_inputs"
NAN, INF = float("nan"), float("inf")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "gerbelab", *args],
                          capture_output=True, text=True)


# --- parsing ----------------------------------------------------------------

def test_parse_sample_nerve():
    doc = gio.load_document(SAMPLES / "nerve_rp2.yaml")
    nerve = gio.parse_nerve(doc, str(SAMPLES / "nerve_rp2.yaml"))
    assert nerve.vertex_count == 6
    assert len(nerve.simplices[2]) == 10


def test_parse_sample_system_with_inline_nerve():
    system = gio.parse_system(str(SAMPLES / "system_circle_mobius.yaml"))
    assert system.coeff.describe() == "integers involution=negation"
    assert system.eps_of(0, 2) == -1


def test_parse_sample_system_with_referenced_nerve():
    system = gio.parse_system(str(SAMPLES / "system_rp2_mod2.yaml"))
    assert system.nerve.vertex_count == 6


def test_parse_sample_transition_and_extension():
    td = gio.parse_transition(str(SAMPLES / "transition_rp2_z2.yaml"))
    assert sum(td.g) > 0
    ext = gio.parse_extension(str(SAMPLES / "extension_z2_z4.yaml"))
    assert ext.kernel == (0, 2)


def test_parse_sample_loops():
    x = gio.parse_loop(str(SAMPLES / "loop_single_mode.yaml"))
    assert x.band == 1 and x.size == 2


def write_loop(path, size, modes):
    entries = "".join(f"  - mode: {m}\n    matrix: [[1, 0]]\n" for m in modes)
    path.write_text(f"kind: loop\nformat: v1\nsize: {size}\n"
                    f"coefficients:\n{entries or '  []'}\n")
    return str(path)


@pytest.mark.parametrize("size,modes,message", [
    ("0", [], "size must be an integer >= 1, got 0"),
    ("-1", [1], "size must be an integer >= 1, got -1"),
    ("1.0", [1], "size must be an integer >= 1, got 1.0"),
    ("'1'", [1], "size must be an integer >= 1, got '1'"),
    ("true", [1], "size must be an integer >= 1, got True"),
    ("1", ["1.7", 1], "mode must be an integer, got 1.7"),
    ("1", ["'1'"], "mode must be an integer, got '1'"),
    ("1", ["true"], "mode must be an integer, got True"),
    ("1", [1, 0, 1], "mode 1 appears twice"),
])
def test_loop_file_rejects_bad_size_and_modes(tmp_path, capsys, size, modes, message):
    path = write_loop(tmp_path / "loop.yaml", size, modes)
    with pytest.raises(ProblemFileError, match=message):
        gio.parse_loop(path)
    assert cli.main(["schwinger", path, "--mode", "defect"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_loop_file_with_integer_modes_parses(tmp_path):
    x = gio.parse_loop(write_loop(tmp_path / "loop.yaml", 1, [-2, 0, 3]))
    assert sorted(x.coeffs) == [-2, 0, 3] and x.band == 3


def test_parse_sample_bundle():
    build, options = gio.parse_bundle(str(SAMPLES / "bundle_sphere_degree1.yaml"))
    assert options["clutching"] == 1
    data = build(resolution=24)
    assert data.base.chart_count == 2


def test_bundle_build_keeps_an_explicit_zero_resolution():
    build, _ = gio.parse_bundle(str(SAMPLES / "bundle_sphere_degree1.yaml"))
    with pytest.raises(GridTooCoarse):
        build(resolution=0)


def test_bad_yaml_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("kind: [unclosed\n")
    with pytest.raises(ProblemFileError):
        gio.load_document(path)


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "old.yaml"
    path.write_text("kind: nerve\nformat: v0\nvertices: 1\nmaximal: []\n")
    with pytest.raises(ProblemFileError):
        gio.load_document(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "odd.yaml"
    path.write_text("kind: mystery\nformat: v1\n")
    with pytest.raises(ProblemFileError):
        gio.load_document(path)


def test_degenerate_nerve_rejected(tmp_path):
    path = tmp_path / "nerve.yaml"
    path.write_text("kind: nerve\nformat: v1\nvertices: 3\nmaximal: [[0, 0]]\n")
    doc = gio.load_document(path)
    with pytest.raises(ProblemFileError):
        gio.parse_nerve(doc, str(path))


@pytest.mark.parametrize("kind", ["reals", "circle"])
def test_coefficient_tolerance_read_as_given(kind):
    assert gio.parse_coefficients({"set": kind}).tolerance == 1e-9
    assert gio.parse_coefficients({"set": kind, "tolerance": 0}).tolerance == 0.0


@pytest.mark.parametrize("kind, tolerance", [("reals", -1), ("circle", -1),
                                             ("circle", 0.6)])
def test_bad_coefficient_tolerance_rejected(kind, tolerance):
    with pytest.raises(ProblemFileError):
        gio.parse_coefficients({"set": kind, "tolerance": tolerance})


# --- strict number fields and edge lists: a mutation sweep -----------------

TRANSITION_RUN = ["obstruction", "transition_rp2_z2.yaml", "extension_z2_z4.yaml",
                  "--lifts", "lifts_rp2.yaml"]
RUNS = {  # sample file -> a command that reads it
    "nerve_rp2.yaml": ["cohomology", "system_rp2_mod2.yaml", "--degree", "1"],
    "system_rp2_mod2.yaml": ["cohomology", "system_rp2_mod2.yaml", "--degree", "1"],
    "system_circle_mobius.yaml": ["cohomology", "system_circle_mobius.yaml",
                                  "--degree", "1"],
    "transition_rp2_z2.yaml": TRANSITION_RUN,
    "extension_z2_z4.yaml": TRANSITION_RUN,
    "lifts_rp2.yaml": TRANSITION_RUN,
    "bundle_sphere_degree1.yaml": ["chern", "bundle_sphere_degree1.yaml"],
    "loop_single_mode.yaml": ["schwinger", "loop_single_mode.yaml", "--mode", "defect"],
}
# (file, keys of an integer field, values below its least value)
INTEGER_FIELDS = [
    ("nerve_rp2.yaml", ("vertices",), [0, -6]),
    ("system_rp2_mod2.yaml", ("coefficients", "modulus"), [0, -2]),
    ("transition_rp2_z2.yaml", ("group", "cyclic"), [0, -2]),
    ("extension_z2_z4.yaml", ("hat_group", "cyclic"), [0, -4]),
    ("extension_z2_z4.yaml", ("base_group", "cyclic"), [0, -2]),
]
# (file, keys of a scalar field, bad values): bundle numbers and a loop's skew
NUMBER_FIELDS = [
    ("bundle_sphere_degree1.yaml", ("clutching",), [True, 1.9, "1"]),
    ("bundle_sphere_degree1.yaml", ("resolution",), [True, 40.0, "40", 7, -1]),
    *[("bundle_sphere_degree1.yaml", (key,), [True, "0.7", float("nan"), float("inf")])
      for key in ("inner", "outer", "extent")],
    ("loop_single_mode.yaml", ("skew",), ["no", "true", 1, 0, None]),
]
# (file, keys of a nested block, values of the wrong shape): a loop's
# coefficients are a list of mappings, a system's a mapping
BLOCK_SHAPES = [
    ("loop_single_mode.yaml", ("coefficients",), [[5], {"mode": 1}, "mod", None]),
    ("system_rp2_mod2.yaml", ("coefficients",), [[5], "mod", None]),
]
CORRUPTION = {"chart": 0, "other": 1, "index": [50, 80], "factor": [1.5, 0]}
RP2_MAXIMAL = yaml.safe_load((SAMPLES / "nerve_rp2.yaml").read_text())["maximal"]
LOOP_COEFFICIENTS = yaml.safe_load(
    (SAMPLES / "loop_single_mode.yaml").read_text())["coefficients"]
REALS = {"set": "reals", "involution": "negation", "tolerance": 1e-9}
INTEGERS = {"set": "integers", "involution": "negation"}
MOD2 = {"set": "mod", "modulus": 2}
# (file, field the message names, keys of the block, a valid block, the path
# in it to one integer entry, bad values beyond bool, float and str: below 0,
# or past the group for an extension map)
INTEGER_ENTRIES = [
    ("transition_rp2_z2.yaml", "group.table", ("group",),
     {"table": [[0, 1], [1, 0]]}, ("table", 1, 0), []),
    ("extension_z2_z4.yaml", "base_group.table", ("base_group",),
     {"table": [[0, 1], [1, 0]]}, ("table", 0, 1), []),
    ("transition_rp2_z2.yaml", "sigma.permutation", ("sigma",),
     {"permutation": [0, 1]}, ("permutation", 1), []),
    ("extension_z2_z4.yaml", "sigma_hat.permutation", ("sigma_hat",),
     {"permutation": [0, 1, 2, 3]}, ("permutation", 2), []),
    ("extension_z2_z4.yaml", "projection", ("projection",), [0, 1, 0, 1], (1,),
     [-1, 2]),
    ("extension_z2_z4.yaml", "section", ("section",), [0, 1], (1,), [-3, 4]),
    ("extension_z2_z4.yaml", "kernel", ("kernel",), [0, 2], (1,), [-2, 4]),
    ("nerve_rp2.yaml", "maximal", ("maximal",), RP2_MAXIMAL, (1, 2), [-1, 6]),
    *[("bundle_sphere_degree1.yaml", f"corruption.{key}", ("corruption",),
       CORRUPTION, where, [-1]) for key, where in (("chart", ("chart",)),
                                                  ("other", ("other",)),
                                                  ("index", ("index", 0)))],
]
# (file, field the message names, keys of the block, a valid block, the path
# in it to one entry, bad values for that entry)
BAD_ENTRIES = [
    ("nerve_rp2.yaml", "maximal", ("maximal",), RP2_MAXIMAL, (0,),
     [5, "0 1 2", None]),
    ("system_circle_mobius.yaml", "coefficients.tolerance", ("coefficients",),
     REALS, ("tolerance",), [True, "0.1", NAN, INF, -1]),
    # a field the set has no use for: tolerance on an exact set, modulus
    # on a set other than mod
    ("system_rp2_mod2.yaml", "coefficients.tolerance", ("coefficients",), MOD2,
     ("tolerance",), [0.3, 1e-9, 1]),
    ("system_circle_mobius.yaml", "coefficients.tolerance", ("coefficients",),
     INTEGERS, ("tolerance",), [0.3]),
    ("system_circle_mobius.yaml", "coefficients.modulus", ("coefficients",),
     INTEGERS, ("modulus",), [2, 1]),
    ("system_circle_mobius.yaml", "coefficients.modulus", ("coefficients",),
     REALS, ("modulus",), [3]),
    ("loop_single_mode.yaml", "matrix", ("coefficients",), LOOP_COEFFICIENTS,
     (0, "matrix", 0, 0), [True, "1.5", NAN, INF]),
    ("loop_single_mode.yaml", "matrix", ("coefficients",), LOOP_COEFFICIENTS,
     (0, "matrix", 1), [1, [1], [1, 0, 0], "1, 0", ["1.5", True]]),
    ("loop_single_mode.yaml", "matrix", ("coefficients",), LOOP_COEFFICIENTS,
     (0, "matrix"), [5, "1, 0"]),
    ("bundle_sphere_degree1.yaml", "corruption.index", ("corruption",), CORRUPTION,
     ("index",), [[10], [10, 30, 5], [], [400, 0], [0, 400], "10, 30"]),
    ("bundle_sphere_degree1.yaml", "corruption.factor", ("corruption",), CORRUPTION,
     ("factor",), [True, "1.5", [1, "0"], [NAN, 0], INF, [1, 2, 3], [True, 0]]),
    *[("bundle_sphere_degree1.yaml", "corruption.chart", ("corruption",), CORRUPTION,
       (key,), bad) for key, bad in (("chart", [1, 2]), ("other", [0, 5]))],
]
# (file, edge list key, vertex count, values out of range, another valid value
# for the first entry's edge)
EDGE_LISTS = [
    ("system_circle_mobius.yaml", "twist", 3, [0, 2, -2], 1),
    ("transition_rp2_z2.yaml", "edges", 6, [2, -1], 0),
    ("lifts_rp2.yaml", "edges", 6, [4, -1], 3),
]


def _set(keys, value):
    def mutate(doc):
        *outer, last = keys
        for key in outer:
            doc = doc[key]
        doc[last] = value
    return mutate


def _entry(keys, block, where, bad):
    def mutate(doc):
        value = copy.deepcopy(block)
        inner = value
        for step in where[:-1]:
            inner = inner[step]
        inner[where[-1]] = bad
        _set(keys, value)(doc)
    return mutate


def _edges(key, change):
    def mutate(doc):
        (i, j, v), rest = doc[key][0], doc[key][1:]
        doc[key] = change(i, j, v, rest)
    return mutate


def _mutants():
    for name, keys, low in INTEGER_FIELDS:
        for bad in [True, 2.7, "2", *low]:
            yield name, ".".join(keys), f"{bad!r}", _set(keys, bad)
    for name, key, vertices, out_of_range, other in EDGE_LISTS:
        changes = {
            "value-bool": lambda i, j, v, rest: [[i, j, True]] + rest,
            "value-float": lambda i, j, v, rest: [[i, j, float(v)]] + rest,
            "value-str": lambda i, j, v, rest: [[i, j, str(v)]] + rest,
            "endpoint-float": lambda i, j, v, rest: [[i + 0.5, j, v]] + rest,
            "endpoint-str": lambda i, j, v, rest: [[str(i), j, v]] + rest,
            "duplicate": lambda i, j, v, rest: [[i, j, v]] + rest + [[i, j, v]],
            "reversed-duplicate":
                lambda i, j, v, rest, o=other: [[i, j, v]] + rest + [[j, i, o]],
            "non-edge":
                lambda i, j, v, rest, n=vertices: [[i, j, v]] + rest + [[i, n, v]],
            "self-loop": lambda i, j, v, rest: [[i, j, v]] + rest + [[i, i, v]],
            **{f"value-{x}": lambda i, j, v, rest, x=x: [[i, j, x]] + rest
               for x in out_of_range},
        }
        for label, change in changes.items():
            yield name, key, label, _edges(key, change)
    for name, keys, bad_values in NUMBER_FIELDS + BLOCK_SHAPES:
        for bad in bad_values:
            yield name, ".".join(keys), f"{bad!r}", _set(keys, bad)
    for name, field, keys, block, where, more in INTEGER_ENTRIES:
        good = block
        for step in where:
            good = good[step]
        for bad in [True, float(good), str(good), *more]:
            yield name, field, f"{bad!r}", _entry(keys, block, where, bad)
    for name, field, keys, block, where, bad_values in BAD_ENTRIES:
        for bad in bad_values:
            yield name, field, f"{where[-1]}={bad!r}", _entry(keys, block, where, bad)


MUTANTS = list(_mutants())


@pytest.mark.parametrize("name, field, label, mutate", MUTANTS,
                         ids=[f"{m[0]}:{m[1]}:{m[2]}" for m in MUTANTS])
def test_strict_readers_reject_every_mutant(tmp_path, capsys, name, field, label,
                                            mutate):
    shutil.copytree(SAMPLES, tmp_path, dirs_exist_ok=True)
    path = tmp_path / name
    doc = yaml.safe_load(path.read_text())
    mutate(doc)
    path.write_text(yaml.safe_dump(doc))
    argv = [str(tmp_path / a) if a.endswith(".yaml") else a for a in RUNS[name]]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"{path}: {field}" in captured.err  # names the file and the field
    assert captured.out == ""


def test_edge_entries_name_their_edge_in_either_order(tmp_path):
    path = tmp_path / "mobius.yaml"
    text = (SAMPLES / "system_circle_mobius.yaml").read_text()
    path.write_text(text.replace("[0, 2, -1]", "[2, 0, -1]"))
    assert gio.parse_system(str(path)).eps_of(0, 2) == -1
    proc = run_cli("cohomology", str(path), "--degree", "1")
    assert proc.returncode == 0
    assert "result: free 0, torsion [2]" in proc.stdout


# --- CLI end to end ---------------------------------------------------------

def test_cli_cohomology_mobius():
    proc = run_cli("cohomology", str(SAMPLES / "system_circle_mobius.yaml"),
                   "--degree", "1")
    assert proc.returncode == 0
    assert "result: free 0, torsion [2]" in proc.stdout


def test_cli_cohomology_rp2_mod2():
    proc = run_cli("cohomology", str(SAMPLES / "system_rp2_mod2.yaml"),
                   "--degree", "1")
    assert proc.returncode == 0
    assert "result: dim 1" in proc.stdout


def test_cli_cohomology_empty_degree():
    proc = run_cli("cohomology", str(SAMPLES / "system_circle_mobius.yaml"),
                   "--degree", "3")
    assert proc.returncode == 0
    assert "result: free 0, torsion []" in proc.stdout


def test_cli_obstruction_nontrivial():
    proc = run_cli("obstruction", str(SAMPLES / "transition_rp2_z2.yaml"),
                   str(SAMPLES / "extension_z2_z4.yaml"))
    assert proc.returncode == 0
    assert "class: NONTRIVIAL (order 2)" in proc.stdout
    assert "certificate-functional" in proc.stdout


def test_cli_obstruction_with_explicit_lifts():
    proc = run_cli("obstruction", str(SAMPLES / "transition_rp2_z2.yaml"),
                   str(SAMPLES / "extension_z2_z4.yaml"),
                   "--lifts", str(SAMPLES / "lifts_rp2.yaml"))
    assert proc.returncode == 0
    assert "class: NONTRIVIAL (order 2)" in proc.stdout


def test_cli_obstruction_trivial_case(tmp_path):
    # transition data on the 2-sphere model: a mod-2 coboundary cocycle
    from gerbelab import models
    from gerbelab.cech import TwistedLocalSystem, cochain, coboundary
    from gerbelab.coeffs import CoefficientGroup
    nerve = models.boundary_simplex(2)
    sysb = TwistedLocalSystem(nerve, CoefficientGroup.integers_mod(2))
    g = coboundary(cochain(sysb, 0, [0, 1, 1, 0]), sysb)
    edges = "\n".join(f"  - [{i}, {j}, {v}]"
                      for (i, j), v in zip(nerve.simplices[1], g.values))
    path = tmp_path / "transition_sphere.yaml"
    path.write_text(
        "kind: transition\nformat: v1\n"
        "nerve: {vertices: 4, maximal: [[0,1,2],[0,1,3],[0,2,3],[1,2,3]]}\n"
        "group: {cyclic: 2}\nsigma: identity\nedges:\n" + edges + "\n")
    proc = run_cli("obstruction", str(path),
                   str(SAMPLES / "extension_z2_z4.yaml"))
    assert proc.returncode == 0
    assert "class: TRIVIAL" in proc.stdout
    assert "lift-verified: yes" in proc.stdout


def test_cli_obstruction_mislabelled_kernel_exits_3(tmp_path):
    """kernel: [2, 0] is ker(q) as a set but labels 0 by a non-identity."""
    nerve = "{vertices: 4, maximal: [[0,1,2],[0,1,3],[0,2,3],[1,2,3]]}"
    transition = tmp_path / "transition_sphere.yaml"
    transition.write_text("kind: transition\nformat: v1\n"
                          f"nerve: {nerve}\ngroup: {{cyclic: 2}}\n")
    extension = tmp_path / "extension.yaml"
    extension.write_text((SAMPLES / "extension_z2_z4.yaml").read_text()
                         .replace("kernel: [0, 2]", "kernel: [2, 0]"))
    proc = run_cli("obstruction", str(transition), str(extension))
    assert proc.returncode == 3
    assert proc.stderr == ("invariant violation: extension invalid: NotHomomorphism "
                           "kernel[0] = 2 is not the identity\n")
    assert proc.stdout == ""


def test_cli_obstruction_broken_cocycle_exits_3(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text(
        "kind: transition\nformat: v1\n"
        "nerve: {vertices: 3, maximal: [[0,1,2]]}\n"
        "group: {cyclic: 2}\nsigma: identity\nedges:\n  - [0, 1, 1]\n")
    proc = run_cli("obstruction", str(path),
                   str(SAMPLES / "extension_z2_z4.yaml"))
    assert proc.returncode == 3
    assert "triangle" in proc.stderr


TWISTED = [str(SAMPLES / "transition_rp2_twisted.yaml"),
           str(SAMPLES / "extension_z2_z4_twisted.yaml"),
           "--lifts", str(SAMPLES / "lifts_rp2_twisted.yaml")]


def count_calls(monkeypatch, module, name):
    """The argument tuples of every call to ``module.name`` from now on."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("argv, line", [
    (TWISTED, "class: TRIVIAL"),
    ([str(SAMPLES / "transition_rp2_z2.yaml"), str(SAMPLES / "extension_z2_z4.yaml")],
     "class: NONTRIVIAL (order 2)"),
], ids=["trivial-twisted", "nontrivial-order-2"])
def test_cli_obstruction_computes_each_object_once(monkeypatch, capsys, argv, line):
    """One transition check, one obstruction cochain and one kernel system
    per run; one solve decides the class and, when it is not trivial,
    reads its order."""
    from gerbelab import cech, lifting
    counts = {name: count_calls(monkeypatch, module, name)
              for module, name in ((lifting, "check_twisted_cocycle"),
                                   (lifting, "obstruction"),
                                   (lifting, "TwistedLocalSystem"),
                                   (cech, "is_coboundary"))}
    assert cli.main(["obstruction", *argv]) == 0
    assert {name: len(calls) for name, calls in counts.items()} == {
        "check_twisted_cocycle": 1, "obstruction": 1, "TwistedLocalSystem": 1,
        "is_coboundary": 1}
    assert f"\n{line}\n" in capsys.readouterr().out


@pytest.mark.parametrize("broken", ["transition", "extension"])
def test_cli_obstruction_reads_every_file_before_any_law(tmp_path, capsys, broken):
    """A malformed lifts file exits 2, naming itself, even when the
    transition or the extension breaks a law (exit 3 on its own)."""
    nerve = "{vertices: 3, maximal: [[0,1,2]]}"
    transition = tmp_path / "transition.yaml"
    transition.write_text("kind: transition\nformat: v1\n"
                          f"nerve: {nerve}\ngroup: {{cyclic: 2}}\n"
                          + ("edges:\n  - [0, 1, 1]\n" if broken == "transition" else ""))
    extension = tmp_path / "extension.yaml"
    text = (SAMPLES / "extension_z2_z4.yaml").read_text()
    extension.write_text(text.replace("kernel: [0, 2]", "kernel: [2, 0]")
                         if broken == "extension" else text)
    lifts = tmp_path / "lifts.yaml"
    lifts.write_text("kind: lifts\nformat: v1\nedges:\n  - [0, 1, 1]\n")
    argv = ["obstruction", str(transition), str(extension)]
    assert cli.main(argv) == 3
    capsys.readouterr()
    assert cli.main(argv + ["--lifts", str(lifts)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {lifts}: lifts missing for edges [(0, 2), (1, 2)]\n"
    assert captured.out == ""


def test_cli_obstruction_self_check_runs_under_optimize():
    """A wrong kernel element makes trivialize's self-check raise, also
    under -O, which strips assert statements."""
    script = ("import sys\n"
              "from gerbelab import cli, coeffs\n"
              "coeffs.CentralExtension.kernel_element = "
              "lambda self, v: self.kernel[(v + 1) % self.kernel_order]\n"
              f"sys.exit(cli.main(['obstruction', *{TWISTED!r}]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stderr == ("internal error: AssertionError: corrected lifts "
                           "fail the strict cocycle condition\n")
    assert proc.stdout == ""


def test_cli_obstruction_order_self_check_runs_under_optimize():
    """An order that does not divide the kernel's is a failed self-check,
    exit 4 also under -O."""
    script = ("import dataclasses, sys\n"
              "from gerbelab import cli, lifting\n"
              "real = lifting.trivialize\n"
              "lifting.trivialize = lambda r: dataclasses.replace(real(r), order=3)\n"
              "sys.exit(cli.main(['obstruction', 'sample_inputs/transition_rp2_z2.yaml',"
              " 'sample_inputs/extension_z2_z4.yaml']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=SAMPLES.parent,
                          capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stderr == ("internal error: AssertionError: class order 3 does "
                           "not divide the kernel order 2\n")
    assert proc.stdout == ""


def test_cli_system_twist_breaking_the_triangle_law_exits_3(tmp_path):
    path = tmp_path / "system.yaml"
    path.write_text("kind: system\nformat: v1\n"
                    "nerve: {vertices: 3, maximal: [[0, 1, 2]]}\n"
                    "twist:\n  - [0, 2, -1]\n")
    proc = run_cli("cohomology", str(path), "--degree", "1")
    assert proc.returncode == 3
    assert proc.stderr == ("invariant violation: eps fails the cocycle law "
                           "on triangle (0, 1, 2)\n")
    assert proc.stdout == ""


def test_cli_schwinger_trace_sample_loops():
    proc = run_cli("schwinger", str(SAMPLES / "loop_single_mode.yaml"),
                   str(SAMPLES / "loop_single_mode_inverse.yaml"),
                   "--mode", "trace")
    assert proc.returncode == 0
    assert "residue: -3+0j" in proc.stdout
    assert "verdict: PASS" in proc.stdout


def test_cli_schwinger_random_modes():
    for mode in ("identity", "jacobi", "defect", "curvature"):
        proc = run_cli("schwinger", "--mode", mode, "--random", "3,4",
                       "--seed", "11")
        assert proc.returncode == 0, proc.stderr
        assert "verdict: PASS" in proc.stdout


def test_cli_schwinger_truncation_exit_3():
    proc = run_cli("schwinger", "--mode", "trace", "--random", "2,4",
                   "--seed", "0", "--truncation", "2")
    assert proc.returncode == 3


def test_cli_schwinger_truncation_override():
    """--allow-truncated runs the truncated trace and prints its report;
    the trace then misses the residue, a FAIL verdict (exit 3)."""
    proc = run_cli("schwinger", "--mode", "trace", "--random", "2,4",
                   "--seed", "0", "--truncation", "2", "--allow-truncated")
    assert proc.returncode == 3
    assert "trace-K2: " in proc.stdout and "verdict: FAIL" in proc.stdout
    assert proc.stderr == "invariant violation: schwinger-trace: verdict FAIL\n"


@pytest.mark.parametrize("mode", ["trace", "curvature"])
@pytest.mark.parametrize("shape", ["2,-1", "0,2", "-1,0"])
def test_cli_schwinger_empty_random_loops_exit_2(mode, shape, capsys):
    code = cli.main(["schwinger", "--mode", mode, f"--random={shape}"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"--random wants SIZE >= 1 and BAND >= 0, got '{shape}'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["trace", "curvature"])
def test_cli_schwinger_constant_random_loops_are_valid(mode, capsys):
    assert cli.main(["schwinger", "--mode", mode, "--random=2,0"]) == 0
    out = capsys.readouterr().out
    assert "band: 0" in out and "verdict: PASS" in out


@pytest.mark.parametrize("mode", ["trace", "defect", "curvature"])
@pytest.mark.parametrize("truncation", ["0", "-1"])
def test_cli_schwinger_explicit_truncation_is_kept(mode, truncation, capsys):
    code = cli.main(["schwinger", "--mode", mode, "--random", "2,3",
                     "--truncation", truncation])
    captured = capsys.readouterr()
    assert code == 3
    assert f"truncation {truncation} " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("mode,count", [("defect", 2), ("trace", 3)])
def test_cli_schwinger_rejects_extra_loop_files(mode, count, capsys):
    loops = [str(SAMPLES / "loop_single_mode.yaml")] * count
    assert cli.main(["schwinger", *loops, "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert f"mode {mode} takes {count - 1} loop files, got {count}" in captured.err
    assert captured.out == ""


def test_cli_schwinger_rejects_loop_files_with_random(capsys):
    loop = str(SAMPLES / "loop_single_mode.yaml")
    assert cli.main(["schwinger", loop, "--mode", "defect", "--random", "2,2"]) == 2
    captured = capsys.readouterr()
    assert "loop files or --random, not both" in captured.err
    assert captured.out == ""


def test_cli_schwinger_zero_truncation_allowed_truncated_exits_3(capsys):
    code = cli.main(["schwinger", "--mode", "trace", "--random", "2,3",
                     "--truncation", "0", "--allow-truncated"])
    assert code == 3
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0", "-4", "3", "5", "6", "7"])
def test_cli_chern_explicit_grid_is_kept(grid, capsys):
    """--grid is held to the bundle file's resolution bound (bad input)."""
    code = cli.main(["chern", str(SAMPLES / "bundle_sphere_degree1.yaml"),
                     "--grid", grid])
    captured = capsys.readouterr()
    assert code == 2
    assert f"resolution {grid} too small" in captured.err
    assert captured.out == ""


def test_cli_chern(tmp_path):
    path = tmp_path / "bundle.yaml"
    path.write_text("kind: bundle\nformat: v1\nmodel: two-chart-sphere\n"
                    "clutching: -1\nresolution: 120\n")
    proc = run_cli("chern", str(path))
    assert proc.returncode == 0
    assert "nearest-integer: -1" in proc.stdout
    assert "verdict: PASS" in proc.stdout


@pytest.mark.parametrize("machine", [[], ["--machine-readable"]])
def test_cli_chern_fail_verdict_exits_3(tmp_path, capsys, machine):
    """A FAIL verdict prints the whole report, then exits 3."""
    path = tmp_path / "bundle.yaml"
    path.write_text("kind: bundle\nformat: v1\nmodel: two-chart-sphere\n"
                    "clutching: 10\nresolution: 32\n")
    assert cli.main(machine + ["chern", str(path)]) == 3
    captured = capsys.readouterr()
    assert ("verdict: FAIL" in captured.out if not machine
            else '"verdict": "FAIL"' in captured.out)
    assert captured.err == "invariant violation: chern: verdict FAIL\n"


@pytest.mark.parametrize("mode, name", [("trace", "schwinger_residue"),
                                        ("identity", "cocycle_identity_defect"),
                                        ("jacobi", "jacobi_defect")])
def test_cli_schwinger_fail_verdict_exits_3(monkeypatch, capsys, mode, name):
    """Every schwinger verdict goes through the one exit rule: a defect
    forced to 1 prints FAIL and exits 3."""
    from gerbelab import schwinger
    original = getattr(schwinger, name)
    monkeypatch.setattr(schwinger, name, lambda *a: original(*a) + 1.0)
    code = cli.main(["schwinger", "--mode", mode, "--random", "2,2", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "verdict: FAIL" in captured.out
    assert captured.err == f"invariant violation: schwinger-{mode}: verdict FAIL\n"


def test_cli_chern_corrupted_exits_3(tmp_path):
    path = tmp_path / "bundle.yaml"
    path.write_text("kind: bundle\nformat: v1\nmodel: two-chart-sphere\n"
                    "clutching: 1\nresolution: 100\n"
                    "corruption: {chart: 0, other: 1, index: [50, 80], "
                    "factor: [1.5, 0]}\n")
    proc = run_cli("chern", str(path))
    assert proc.returncode == 3
    assert "cocycle-location" in proc.stdout


def write_bundle(path, corruption=""):
    path.write_text("kind: bundle\nformat: v1\nmodel: two-chart-sphere\n"
                    "clutching: 1\nresolution: 40\n" + corruption)
    return str(path)


def report_lines(capsys):
    return dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("grid", [None, "60"])
def test_cli_chern_corruption_stays_on_the_named_grid(tmp_path, capsys, grid):
    """A corruption small enough to pass the cocycle check changes the
    named grid only: the coarse grid's gauge residual is the clean one's.
    Both grids are too coarse for a PASS (deviation above 1e-3), so each
    full report is printed before exit 3."""
    option = [] if grid is None else ["--grid", grid]
    clean = write_bundle(tmp_path / "clean.yaml")
    dirty = write_bundle(tmp_path / "dirty.yaml", "corruption: {chart: 0, other: 1, "
                         "index: [10, 30], factor: 1.0000001}\n")
    assert cli.main(["chern", clean, *option]) == 3
    want = report_lines(capsys)
    assert cli.main(["chern", dirty, *option]) == 3
    got = report_lines(capsys)
    res = 40 if grid is None else 60
    assert got[f"gauge-residual-{res // 2}"] == want[f"gauge-residual-{res // 2}"]
    assert float(got["cocycle-residual"]) > float(want["cocycle-residual"])


def test_cli_chern_frees_the_coarse_bundle_before_the_fine_forms(monkeypatch, capsys):
    """The res//2 bundle serves one gauge residual; no sample of it is
    alive while the fine grid's forms are built."""
    import weakref
    from gerbelab import connection
    built, alive_at_forms = [], []
    make, forms = connection.two_chart_sphere, connection.chart_forms

    def tracked(*args, **kwargs):
        data = make(*args, **kwargs)
        built.append(weakref.ref(data))
        return data

    def spy(data, k):
        alive_at_forms.append([ref() is not None for ref in built])
        return forms(data, k)

    monkeypatch.setattr(connection, "two_chart_sphere", tracked)
    monkeypatch.setattr(connection, "chart_forms", spy)
    # grid 40 misses the integer by 0.0044, a FAIL verdict (exit 3)
    assert cli.main(["chern", str(SAMPLES / "bundle_sphere_degree1.yaml"),
                     "--grid", "40"]) == 3
    assert "nearest-integer: 1" in capsys.readouterr().out
    # built: the fine bundle, then the coarse one; chart_forms runs twice
    # inside the coarse gauge residual and twice for the fine grid
    assert alive_at_forms == [[True, True]] * 2 + [[True, False]] * 2


def test_cli_chern_corruption_index_must_lie_in_the_grid_override(tmp_path, capsys):
    path = write_bundle(tmp_path / "bundle.yaml", "corruption: {chart: 0, other: 1, "
                        "index: [10, 30], factor: 1.5}\n")
    assert cli.main(["chern", path, "--grid", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}: corruption.index must be a list of "
                            "integers in 0..19, got [10, 30]\n")
    assert captured.out == ""


def test_cli_parse_error_exits_2(tmp_path):
    path = tmp_path / "junk.yaml"
    path.write_text("kind: nerve\nformat: v1\nvertices: -3\nmaximal: []\n")
    proc = run_cli("cohomology", str(path), "--degree", "0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("kind, tolerance", [("reals", -1), ("circle", 0.6)])
def test_cli_bad_tolerance_exits_2(tmp_path, kind, tolerance):
    path = tmp_path / "system.yaml"
    path.write_text("kind: system\nformat: v1\n"
                    "nerve: {vertices: 3, maximal: [[0, 1], [1, 2], [0, 2]]}\n"
                    f"coefficients: {{set: {kind}, tolerance: {tolerance}}}\n")
    proc = run_cli("cohomology", str(path), "--degree", "1")
    assert proc.returncode == 2
    assert "tolerance" in proc.stderr


@pytest.mark.parametrize("tolerance", ["-1", "nan"])
def test_cli_chern_bad_tolerance_exits_2(tolerance):
    proc = run_cli("chern", str(SAMPLES / "bundle_sphere_degree1.yaml"),
                   "--grid", "40", "--tolerance", tolerance)
    assert proc.returncode == 2
    assert "--tolerance" in proc.stderr


def test_cli_chern_zero_tolerance_is_valid(tmp_path):
    path = tmp_path / "bundle.yaml"
    path.write_text("kind: bundle\nformat: v1\nmodel: two-chart-sphere\n"
                    "clutching: 0\nresolution: 40\n")
    proc = run_cli("chern", str(path), "--tolerance", "0")
    assert proc.returncode == 0, proc.stderr
    assert "cocycle-residual: 0" in proc.stdout


def test_cli_missing_file_exits_2():
    proc = run_cli("cohomology", "no_such_file.yaml", "--degree", "0")
    assert proc.returncode == 2


def test_cli_verify():
    proc = run_cli("verify", "--seed", "5")
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 6
    assert "failures: 0" in proc.stdout


def test_cli_verify_checks_under_optimize():
    # -O strips assert statements; a broken invariant must still be reported
    script = ("import sys\n"
              "from gerbelab import cli, nerve\n"
              "nerve.Nerve.euler_characteristic = lambda self: 99\n"
              "sys.exit(cli.main(['verify']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert "suite-nerve: FAIL ()" in proc.stdout
    assert "failures: 1" in proc.stdout


def test_cli_machine_readable_json():
    proc = run_cli("--machine-readable", "cohomology",
                   str(SAMPLES / "system_circle_mobius.yaml"), "--degree", "1")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["command"] == "cohomology"
    assert data["result"] == "free 0, torsion [2]"


def test_cli_reports_are_deterministic():
    invocations = [
        ("cohomology", str(SAMPLES / "system_rp2_mod2.yaml"), "--degree", "2"),
        ("schwinger", "--mode", "identity", "--random", "2,3", "--seed", "4"),
        ("verify", "--seed", "9"),
    ]
    for args in invocations:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
