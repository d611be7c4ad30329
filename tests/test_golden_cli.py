"""Byte-level golden reports for every command on ``sample_inputs/``.

Each command runs through ``gerbelab.cli.main`` in process, from the
repository root so the ``input-*`` lines carry the same relative paths, in
text and ``--machine-readable`` form.  Its stdout must equal
``tests/golden/<name>.txt`` byte for byte and its exit code the entry in
``tests/golden/exit_codes.json``.  The ``chern`` reports print residuals
at rounding level, so their bytes are pinned for one numpy build and CPU.
Refresh the files deliberately with

    GERBELAB_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_cli.py
"""

import json
import os
from pathlib import Path

import pytest

from gerbelab import cli

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
REGEN = os.environ.get("GERBELAB_REGEN_GOLDEN") == "1"

S = "sample_inputs/"
LOOPS = [S + "loop_single_mode.yaml", S + "loop_single_mode_inverse.yaml"]
OBSTRUCTION = ["obstruction", S + "transition_rp2_z2.yaml", S + "extension_z2_z4.yaml"]
TWISTED = ["obstruction", S + "transition_rp2_twisted.yaml",
           S + "extension_z2_z4_twisted.yaml", "--lifts", S + "lifts_rp2_twisted.yaml"]

COMMANDS = {
    **{f"cohomology-mobius-{k}": ["cohomology", S + "system_circle_mobius.yaml",
                                  "--degree", str(k)] for k in range(3)},
    **{f"cohomology-rp2-mod2-{k}": ["cohomology", S + "system_rp2_mod2.yaml",
                                    "--degree", str(k)] for k in range(3)},
    "cohomology-nerve-file": ["cohomology", S + "nerve_rp2.yaml", "--degree", "1"],
    "obstruction": OBSTRUCTION,
    "obstruction-lifts": OBSTRUCTION + ["--lifts", S + "lifts_rp2.yaml"],
    "obstruction-twisted-lifts": TWISTED,
    **{f"schwinger-{mode}": ["schwinger", *LOOPS, "--mode", mode]
       for mode in ("trace", "residue", "curvature")},
    "schwinger-defect": ["schwinger", LOOPS[0], "--mode", "defect"],
    "schwinger-identity-too-few": ["schwinger", *LOOPS, "--mode", "identity"],
    "chern": ["chern", S + "bundle_sphere_degree1.yaml"],
    "verify": ["verify", "--seed", "0"],
}
CASES = [(name + suffix, prefix + argv)
         for name, argv in COMMANDS.items()
         for suffix, prefix in (("", []), ("-json", ["--machine-readable"]))]


@pytest.fixture(scope="module")
def exit_codes():
    codes = json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}
    yield codes
    if REGEN:
        EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_report_matches_golden(name, argv, exit_codes, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(argv)
    out = capsys.readouterr().out
    golden = GOLDEN / f"{name}.txt"
    if REGEN:
        GOLDEN.mkdir(exist_ok=True)
        golden.write_bytes(out.encode())
        exit_codes[name] = code
    assert out.encode() == golden.read_bytes()
    assert code == exit_codes[name]
