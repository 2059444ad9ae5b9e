"""A process loads numpy and the subcommand modules only when its request
runs them."""

import json
import subprocess
import sys

import powerdex

# Runs in a fresh interpreter: the modules loaded by the import alone, then
# whether numpy is loaded after the exact requests and after ``psi --mc``.
_PROBE = """
import contextlib, io, json, sys

import powerdex.cli

step, coalition = sys.argv[1:]
watched = ("numpy", "powerdex.his", "powerdex.axioms")
report = {"import": [m for m in watched if m in sys.modules]}
for argv in (["psi", step], ["psi-point", step, "--alpha", "1/3"],
             ["his-build", step], ["ssi", coalition]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert powerdex.cli.main(argv) == 0, argv
report["exact"] = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert powerdex.cli.main(["psi", step, "--mc", "--samples", "100"]) == 0
report["mc"] = "numpy" in sys.modules
print(json.dumps(report))
"""


def test_cli_loads_numpy_only_for_monte_carlo(tmp_path):
    step = tmp_path / "step.json"
    step.write_text(json.dumps(
        {"n": 2, "alpha": ["0", "1/2", "1"], "tag": "regular",
         "boxes": {"1,1": "0", "1,2": "1/4", "2,1": "1/2", "2,2": "1"}}))
    coalition = tmp_path / "coalition.json"
    coalition.write_text(json.dumps({"n": 3, "winning": [[1, 2], [1, 3]]}))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(step),
                           str(coalition)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": [], "exact": False, "mc": True}


def test_every_public_name_resolves_and_is_listed():
    listed = dir(powerdex)
    for name in powerdex.__all__:
        assert getattr(powerdex, name) is not None, name
        assert name in listed, name
