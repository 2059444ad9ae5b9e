"""A process loads numpy and the subcommand modules only when its request
runs them."""

import json
import subprocess
import sys

import pytest

import powerdex

# Runs in a fresh interpreter: the watched modules loaded by the import
# alone, then after each named request in turn.
_PROBE = """
import contextlib, io, json, sys

import powerdex.cli

step, coalition, jk, *labels = sys.argv[1:]
watched = ("numpy", "dataclasses", "powerdex.coalitions", "powerdex.his",
           "powerdex.axioms", "powerdex.montecarlo", "powerdex.embeddings",
           "powerdex.commands", "powerdex.increments", "powerdex.oracles",
           "powerdex.families", "powerdex.transforms")
requests = {"psi": ["psi", step],
            "psi-point": ["psi-point", step, "--alpha", "1/3"],
            "his-build": ["his-build", step],
            "ssi": ["ssi", coalition],
            "jk-ssi-marginal": ["jk-ssi", jk, "--form", "marginal"],
            "jk-ssi-pivot": ["jk-ssi", jk, "--form", "pivot"],
            "embed": ["embed", jk],
            "rollcall": ["rollcall", coalition],
            "table1": ["table1", "--l", "2"],
            "corner": ["corner", "--L", "1", "--U", "2,3", "--l", "2"],
            "replay-appendix": ["replay-appendix"],
            "mc": ["psi", step, "--mc", "--samples", "100"]}
report = {"import": [m for m in watched if m in sys.modules]}
for label in labels:
    argv = requests[label]
    with contextlib.redirect_stdout(io.StringIO()):
        assert powerdex.cli.main(argv) == 0, argv
    report[label] = [m for m in watched if m in sys.modules]
print(json.dumps(report))
"""


def _probe(tmp_path, labels=("psi", "psi-point", "his-build", "ssi",
                              "mc")) -> dict:
    step = tmp_path / "step.json"
    step.write_text(json.dumps(
        {"n": 2, "alpha": ["0", "1/2", "1"], "tag": "regular",
         "boxes": {"1,1": "0", "1,2": "1/4", "2,1": "1/2", "2,2": "1"}}))
    coalition = tmp_path / "coalition.json"
    coalition.write_text(json.dumps({"n": 3, "winning": [[1, 2], [1, 3]]}))
    jk = tmp_path / "jk.json"
    jk.write_text(json.dumps({"n": 2, "j": 3, "k": 2, "values": {
        "0,0": 0, "0,1": 0, "0,2": 0, "1,0": 0, "1,1": 0, "1,2": 1,
        "2,0": 0, "2,1": 1, "2,2": 1}}))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(step),
                           str(coalition), str(jk), *labels],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_loads_numpy_only_for_monte_carlo(tmp_path):
    report = _probe(tmp_path)
    assert "powerdex.his" not in report["import"]
    assert "powerdex.axioms" not in report["mc"]
    assert ["numpy" in report[k] for k in report] == [False] * 5 + [True]
    assert ["powerdex.montecarlo" in report[k] for k in report] == (
        [False] * 5 + [True])


def test_step_game_requests_load_no_dataclasses_or_coalitions(tmp_path):
    report = _probe(tmp_path)
    assert {k: [m for m in v if m in ("dataclasses", "powerdex.coalitions")]
            for k, v in report.items() if k != "mc"} == {
        "import": [], "psi": [], "psi-point": [], "his-build": [],
        "ssi": ["powerdex.coalitions"]}


def test_jk_requests_load_coalitions_and_no_other_subcommand_module(tmp_path):
    # both forms of jk-ssi, then embed of the same (j,k) table
    report = _probe(tmp_path, ("jk-ssi-marginal", "jk-ssi-pivot", "embed"))
    cli = ["powerdex.coalitions", "powerdex.commands"]
    assert report == {
        "import": [], "jk-ssi-marginal": cli,
        "jk-ssi-pivot": [*cli, "powerdex.oracles"],
        "embed": ["powerdex.coalitions", "powerdex.embeddings", *cli[1:],
                  "powerdex.oracles", "powerdex.transforms"]}


# the modules that hold what no index request runs
MOVED = ("powerdex.commands", "powerdex.increments", "powerdex.oracles",
         "powerdex.families", "powerdex.transforms")


def test_index_requests_load_no_moved_module(tmp_path):
    report = _probe(tmp_path)
    assert {k: [m for m in v if m in MOVED] for k, v in report.items()} == {
        k: [] for k in ("import", "psi", "psi-point", "his-build", "ssi", "mc")}


@pytest.mark.parametrize("label, module", [
    ("table1", "powerdex.increments"), ("replay-appendix", "powerdex.increments"),
    ("rollcall", "powerdex.oracles"), ("jk-ssi-pivot", "powerdex.oracles")])
def test_moved_commands_load_their_module(tmp_path, label, module):
    report = _probe(tmp_path, (label,))
    assert report["import"] == []
    assert {"powerdex.commands", module} <= set(report[label])


def test_increment_tables_load_no_his_and_his_build_no_increments(tmp_path):
    # IncrementError lives in stepfun, so neither module imports the other
    # at its top
    report = _probe(tmp_path, ("table1", "corner"))
    assert ["powerdex.his" in report[k] for k in report] == [False] * 3
    assert "powerdex.increments" in report["table1"]
    report = _probe(tmp_path, ("his-build",))
    assert "powerdex.his" in report["his-build"]
    assert "powerdex.increments" not in report["his-build"]


def test_every_public_name_resolves_and_is_listed():
    listed = dir(powerdex)
    for name in powerdex.__all__:
        assert getattr(powerdex, name) is not None, name
        assert name in listed, name
