import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gerbelab import cli
from gerbelab import io as gio
from gerbelab.errors import GridTooCoarse, ProblemFileError

SAMPLES = Path(__file__).parent.parent / "sample_inputs"


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
    proc = run_cli("schwinger", "--mode", "trace", "--random", "2,4",
                   "--seed", "0", "--truncation", "2", "--allow-truncated")
    assert proc.returncode == 0


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


def test_cli_schwinger_zero_truncation_allowed_truncated_exits_3(capsys):
    code = cli.main(["schwinger", "--mode", "trace", "--random", "2,3",
                     "--truncation", "0", "--allow-truncated"])
    assert code == 3
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0", "-4"])
def test_cli_chern_explicit_grid_is_kept(grid, capsys):
    code = cli.main(["chern", str(SAMPLES / "bundle_sphere_degree1.yaml"),
                     "--grid", grid])
    captured = capsys.readouterr()
    assert code == 3
    assert "needs >= 3 points" in captured.err
    assert captured.out == ""


def test_cli_chern(tmp_path):
    path = tmp_path / "bundle.yaml"
    path.write_text("kind: bundle\nformat: v1\nmodel: two-chart-sphere\n"
                    "clutching: -1\nresolution: 120\n")
    proc = run_cli("chern", str(path))
    assert proc.returncode == 0
    assert "nearest-integer: -1" in proc.stdout
    assert "verdict: PASS" in proc.stdout


def test_cli_chern_corrupted_exits_3(tmp_path):
    path = tmp_path / "bundle.yaml"
    path.write_text("kind: bundle\nformat: v1\nmodel: two-chart-sphere\n"
                    "clutching: 1\nresolution: 100\n"
                    "corruption: {chart: 0, other: 1, index: [50, 80], "
                    "factor: [1.5, 0]}\n")
    proc = run_cli("chern", str(path))
    assert proc.returncode == 3
    assert "cocycle-location" in proc.stdout


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
