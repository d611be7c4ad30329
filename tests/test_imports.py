"""The import contract: every layer loads the first time it is used.

``import gerbelab`` loads no layer and ``import gerbelab.cli`` only
``errors``, with neither ``json`` nor ``dataclasses``; each command loads
the layers it runs and no other, and ``json`` only for
``--machine-readable``.  The exact side never loads numpy: the
``cohomology`` and ``obstruction`` commands run to their golden bytes
without it, and so do real or circle-valued coboundary solves.  Every
check of what loads runs in a fresh interpreter, since this test session
has long imported all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden_cli import CASES, EXIT_CODES, GOLDEN, LOOPS, S

ROOT = Path(__file__).parent.parent
FLOAT_MODULES = ("numpy", "gerbelab.connection", "gerbelab.schwinger")

# Every name gerbelab/__init__ exported when it imported all layers eagerly,
# by defining module; the modules themselves were exported too.
EXPORTS = {
    "errors": "",
    "snf": "",
    "cech": "BocksteinResult Certificate CoboundaryResult Cochain CohomologyGroup "
            "TwistedLocalSystem bockstein_dd cochain cochain_add cochain_from_dict "
            "cochain_neg cochain_sub coboundary cohomology is_coboundary is_cocycle "
            "u1_is_coboundary zero_cochain",
    "coeffs": "Automorphism CentralExtension CoefficientGroup FiniteGroup "
              "SemidirectElement cyclic_central_extension semidirect_group "
              "semidirect_inv semidirect_mul verify_extension",
    "connection": "BundleData Chart ChartedBase OverlapMap SampledForm chern_number "
                  "classifying_point curvature gauge_residual local_connection "
                  "two_arc_circle two_chart_sphere",
    "lifting": "CocycleReport LiftChoice ObstructionResult TransitionData "
               "TrivializeResult change_lifts check_gerbe_module "
               "check_twisted_cocycle lifts_via_section obstruction trivialize",
    "nerve": "Nerve build_nerve faces random_nerve simplices",
    "schwinger": "CentralElement DefectCurvature DiracDefect LoopPolynomial "
                 "cocycle_identity_defect defect_curvature dirac_defect "
                 "extension_bracket jacobi_defect loop_scale schwinger_residue "
                 "schwinger_trace",
}


def run_python(script):
    """Run ``script`` in a fresh interpreter at the repository root and
    return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_by(script):
    """The gerbelab layers (by short name), numpy, yaml, json and
    dataclasses that ``script`` leaves loaded in a fresh interpreter; the
    probe reads ``sys.modules`` before it imports ``json`` itself."""
    return set(run_python(
        "import sys\n"
        f"{script}\n"
        "loaded = [m.partition('gerbelab.')[2] or m for m in sys.modules\n"
        "          if m.startswith('gerbelab.')\n"
        "          or m in ('numpy', 'yaml', 'json', 'dataclasses')]\n"
        "import json\n"
        "print(json.dumps(loaded))\n"))


def test_importing_the_package_loads_no_layer():
    assert loaded_by("import gerbelab") == set()


def test_importing_the_cli_loads_only_errors():
    assert loaded_by("import gerbelab.cli") == {"cli", "errors"}


EXACT_LAYERS = {"cech", "coeffs", "snf", "nerve", "lifting", "models"}
COHOMOLOGY = ["cohomology", S + "system_rp2_mod2.yaml", "--degree", "2"]


@pytest.mark.parametrize("argv, used, unused", [
    (["schwinger", "--mode", "trace", "--random", "2,3"], {"schwinger"},
     EXACT_LAYERS | {"yaml", "io", "connection", "json"}),
    (["schwinger", *LOOPS, "--mode", "trace"], {"schwinger", "io"},
     EXACT_LAYERS | {"connection", "json"}),
    (["chern", S + "bundle_sphere_degree1.yaml", "--grid", "100"],  # the coarsest PASS
     {"connection", "io"}, EXACT_LAYERS | {"schwinger", "json"}),
    (COHOMOLOGY, {"cech", "coeffs"},
     {"numpy", "lifting", "models", "schwinger", "connection", "json"}),
    (["--machine-readable", *COHOMOLOGY], {"cech", "json"},
     {"numpy", "lifting", "models", "schwinger", "connection"}),
], ids=["schwinger-random", "schwinger-files", "chern", "cohomology",
        "cohomology-machine-readable"])
def test_each_command_loads_only_the_layers_it_runs(argv, used, unused):
    loaded = loaded_by(
        "import contextlib, io\n"
        "from gerbelab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "if code:\n"
        "    sys.exit(code)")
    assert {"cli"} | used <= loaded and not loaded & unused


def test_cli_serves_its_coeffs_names_lazily():
    from gerbelab import cli, coeffs
    names = ("Automorphism CoefficientGroup FiniteGroup SemidirectElement "
             "cyclic_central_extension semidirect_group semidirect_mul "
             "verify_extension").split()
    for name in names:
        assert name not in vars(cli)
        assert cli.__getattr__(name) is getattr(coeffs, name)
        assert getattr(cli, name) is getattr(coeffs, name)
        assert name not in vars(cli), f"{name} was cached"
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_importing_the_package_and_cli_loads_no_numpy():
    loaded = run_python(
        "import json, sys\n"
        "import gerbelab, gerbelab.cli\n"
        f"print(json.dumps([m for m in {FLOAT_MODULES!r} if m in sys.modules]))\n")
    assert loaded == []


def test_exact_commands_load_no_numpy_and_match_golden():
    cases = {name: argv for name, argv in CASES
             if name.startswith(("cohomology", "obstruction"))}
    assert len(cases) == 20
    out = run_python(
        "import contextlib, io, json, sys\n"
        "from gerbelab import cli\n"
        "runs = {}\n"
        f"for name, argv in {cases!r}.items():\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        runs[name] = [cli.main(argv), buf.getvalue()]\n"
        f"loaded = [m for m in {FLOAT_MODULES!r} if m in sys.modules]\n"
        "print(json.dumps({'runs': runs, 'loaded': loaded}))\n")
    assert out["loaded"] == []
    codes = json.loads(EXIT_CODES.read_text())
    for name, (code, stdout) in out["runs"].items():
        assert stdout.encode() == (GOLDEN / f"{name}.txt").read_bytes(), name
        assert code == codes[name], name


def test_real_and_circle_solves_load_no_numpy():
    out = run_python(
        "import json, sys\n"
        "from gerbelab import cech, models\n"
        "from gerbelab.coeffs import CoefficientGroup\n"
        "half = [v / 2 for v in models.rp2_generator_cocycle().values]\n"
        "answers = []\n"
        "for coeff, k, values in ((CoefficientGroup.reals(), 2, [1.5] + [0] * 9),\n"
        "                         (CoefficientGroup.circle(), 1, half)):\n"
        "    sys_ = cech.TwistedLocalSystem(models.rp2_nerve(), coeff)\n"
        "    b = cech.cochain(sys_, k - 1, [0.1 * i for i in range(sys_.nerve.count(k - 1))])\n"
        "    for z in (cech.coboundary(b, sys_), cech.cochain(sys_, k, values)):\n"
        "        answers.append(cech.is_coboundary(z, sys_).trivial)\n"
        f"loaded = [m for m in {FLOAT_MODULES!r} if m in sys.modules]\n"
        "print(json.dumps({'answers': answers, 'loaded': loaded}))\n")
    # H^2(RP^2; R) = 0, while the halved H^1 generator has a non-zero
    # Bockstein in H^2(RP^2; Z) = Z/2
    assert out == {"answers": [True, True, True, False], "loaded": []}


def test_every_exported_name_resolves_to_its_defining_object():
    wrong = run_python(
        "import importlib, json\n"
        "import gerbelab\n"
        "from gerbelab import LoopPolynomial, schwinger_trace\n"
        "wrong = []\n"
        f"for module, names in {EXPORTS!r}.items():\n"
        "    names = [module] + names.split()\n"
        "    got = [getattr(gerbelab, n) for n in names]\n"
        "    mod = importlib.import_module('gerbelab.' + module)\n"
        "    want = [mod] + [getattr(mod, n) for n in names[1:]]\n"
        "    wrong += [n for n, a, b in zip(names, got, want) if a is not b]\n"
        "if schwinger_trace is not gerbelab.schwinger.schwinger_trace:\n"
        "    wrong.append('from gerbelab import schwinger_trace')\n"
        "try:\n"
        "    gerbelab.no_such_name\n"
        "    wrong.append('no_such_name')\n"
        "except AttributeError:\n"
        "    pass\n"
        "print(json.dumps(wrong))\n")
    assert wrong == []
