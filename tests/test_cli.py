import json
import subprocess
import sys
import time

import pytest

from powerdex.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_replay_appendix_final_line(capsys):
    code, out, _ = run_cli(["replay-appendix"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 14
    final = json.loads(lines[-1])
    assert final["shares"] == ["9/16", "7/16"]
    assert final["matches_target"] and final["tracks_agree"]
    third = json.loads(lines[2])
    assert third["psi_his"] == ["39/80", "41/80"]
    assert third["psi_exact"] == ["39/80", "41/80"]
    assert third["verified"]


def test_ssi_non_monotone_game(tmp_path, capsys):
    path = write(tmp_path, "game.json",
                 {"n": 3, "winning": [[1], [3], [1, 3], [1, 2, 3]],
                  "closure": False})
    code, out, _ = run_cli(["ssi", path], capsys)
    assert code == 0
    assert "-1/3" in json.loads(out)["shares"]


def test_ssi_rejects_repeated_player_in_key(tmp_path, capsys):
    # "1,1" used to be read as player 2 and gave shares ["0", "1"]
    path = write(tmp_path, "game.json",
                 {"n": 2, "values": {"": "0", "1": "0", "2": "0",
                                     "1,1": "1", "1,2": "1"}})
    code, out, err = run_cli(["ssi", path], capsys)
    assert code == 2 and out == ""
    assert "'1,1'" in json.loads(err)["error"]


def test_ssi_rejects_player_out_of_range_in_key(tmp_path, capsys):
    # "5" with n=2 used to end in an IndexError traceback
    path = write(tmp_path, "game.json",
                 {"n": 2, "values": {"": "0", "1": "0", "2": "0",
                                     "5": "1", "1,2": "1"}})
    code, out, err = run_cli(["ssi", path], capsys)
    assert code == 2 and out == ""
    assert "'5'" in json.loads(err)["error"]


def test_psi_exact_zero_game(tmp_path, capsys):
    path = write(tmp_path, "zero.json",
                 {"n": 4, "alpha": ["0", "1"], "tag": "regular",
                  "boxes": {"1,1,1,1": "0"}})
    code, out, _ = run_cli(["psi", path], capsys)
    assert code == 0
    assert json.loads(out)["shares"] == ["1/4", "1/4", "1/4", "1/4"]


def test_cli_outputs_are_deterministic(tmp_path):
    game = {"n": 2, "j": 2, "k": 2,
            "values": {"0,0": 0, "0,1": 0, "1,0": 0, "1,1": 1}}
    path = tmp_path / "jk.json"
    path.write_text(json.dumps(game))
    outs = set()
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-m", "powerdex.cli", "jk-ssi", str(path),
             "--form", "marginal"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_psi_mc_deterministic_output(tmp_path, capsys):
    path = write(tmp_path, "g.json",
                 {"n": 2, "alpha": ["0", "1/2", "1"], "tag": "regular",
                  "boxes": {"1,1": "0", "1,2": "1/4", "2,1": "1/2", "2,2": "3/4"}})
    code, first, _ = run_cli(["psi", path, "--mc", "--samples", "2000",
                              "--seed", "7"], capsys)
    assert code == 0
    code, second, _ = run_cli(["psi", path, "--mc", "--samples", "2000",
                               "--seed", "7"], capsys)
    assert first == second
    payload = json.loads(first)
    assert payload["mode"] == "mc" and payload["seed"] == 7


def test_embed_and_round_trip(tmp_path, capsys):
    jk = {"n": 2, "j": 2, "k": 2,
          "values": {"0,0": 0, "0,1": 0, "1,0": 0, "1,1": 1}}
    path = write(tmp_path, "jk.json", jk)
    code, out, _ = run_cli(["embed", path], capsys)
    assert code == 0
    emitted = json.loads(out)
    path2 = write(tmp_path, "emb.json", emitted)
    code, out2, _ = run_cli(["psi", path2], capsys)
    assert json.loads(out2)["shares"] == ["1/2", "1/2"]
    # tau embedding
    code, out3, _ = run_cli(["embed", path, "--tau", "1/4"], capsys)
    assert json.loads(out3)["alpha"] == ["0", "1/4", "1"]


def test_coarsen_cli(tmp_path, capsys):
    from powerdex.his import appendix_game
    from powerdex.serialize import step_game_to_json
    path = write(tmp_path, "app.json", step_game_to_json(appendix_game()))
    code, out, _ = run_cli(["coarsen", path, "--alpha", "0,1/4,1"], capsys)
    assert code == 0
    assert json.loads(out)["boxes"]["2,2"] == "3/5"


def test_his_apply_cli(tmp_path, capsys):
    game = {"n": 2, "alpha": ["0", "1/2", "1"], "tag": "regular",
            "boxes": {"1,1": "0", "1,2": "0", "2,1": "0", "2,2": "1/2"}}
    path = write(tmp_path, "g.json", game)
    code, out, _ = run_cli(["his-apply", path, "--box", "2,2", "--eps", "1/4"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == ["0", "0"]
    assert payload["psi_after"] == payload["psi_before"]


def test_his_build_cli(tmp_path, capsys):
    from powerdex.his import appendix_game
    from powerdex.serialize import step_game_to_json
    path = write(tmp_path, "app.json", step_game_to_json(appendix_game()))
    code, out, _ = run_cli(["his-build", path], capsys)
    lines = out.strip().split("\n")
    assert json.loads(lines[-1]) == {"final": True, "psi": ["9/16", "7/16"]}


def test_table1_csv(capsys):
    code, out, _ = run_cli(["table1", "--l", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "face,S,vol,d1,d2,d3"
    assert len(out.strip().splitlines()) == 5


def test_corner_cli(capsys):
    code, out, _ = run_cli(["corner", "--L", "2", "--U", "1,3", "--l", "2",
                            "--eps", "1"], capsys)
    payload = json.loads(out)
    assert payload["delta"] == {"1": "1/6", "2": "-1/3", "3": "1/6"}


def test_axioms_cli(capsys):
    code, out, _ = run_cli(["axioms", "--index", "two_psi", "--random", "6",
                            "--seed", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "efficiency" in payload["violations"]
    code, out, _ = run_cli(["axioms", "--index", "psi_exact", "--random", "6",
                            "--seed", "3"], capsys)
    assert json.loads(out)["violations"] == {}


def test_separation_demo_cli(capsys):
    code, out, _ = run_cli(["separation-demo"], capsys)
    payload = json.loads(out)
    assert payload["psi"] == ["5/12", "7/12"]
    assert payload["classical_axioms_insufficient"]


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run_cli(["ssi", str(path)], capsys)
    assert code == 2
    assert "error" in json.loads(err)


def test_invalid_game_exits_2(tmp_path, capsys):
    game = {"n": 2, "alpha": ["0", "1/2", "1"], "tag": "regular",
            "boxes": {"1,1": "1", "1,2": "0", "2,1": "0", "2,2": "1"}}
    path = write(tmp_path, "bad.json", game)
    code, _, err = run_cli(["psi", path], capsys)
    assert code == 2
    assert "monoton" in json.loads(err)["error"]


def test_oversized_step_game_exits_2_before_allocating(tmp_path, capsys):
    # 41 grid intervals on 5 axes: the parser used to build the set of all
    # 41^5 boxes before any size check and died with a MemoryError
    alpha = ["0"] + [f"{h}/41" for h in range(1, 41)] + ["1"]
    path = write(tmp_path, "big.json",
                 {"n": 5, "alpha": alpha, "tag": "regular", "boxes": {}})
    start = time.perf_counter()
    code, out, err = run_cli(["psi", path], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "desk scale" in json.loads(err)["error"]


def test_incomplete_jk_table_exits_2(tmp_path, capsys):
    path = write(tmp_path, "big.json", {"n": 9, "j": 2, "k": 2, "values": {}})
    code, _, err = run_cli(["jk-ssi", path], capsys)
    assert code == 2


def test_coarsen_accepts_grids_beyond_five_intervals(tmp_path, capsys):
    # psi accepted this 8-interval game, but coarsen used to exit 2 with
    # "desk scale caps the grid at p <= 5" on the way to a 6-interval grid
    alpha = ["0"] + [f"{h}/8" for h in range(1, 8)] + ["1"]
    path = write(tmp_path, "g.json",
                 {"n": 1, "alpha": alpha, "tag": "regular",
                  "boxes": {str(h + 1): f"{h}/8" for h in range(8)}})
    code, out, _ = run_cli(["coarsen", path, "--alpha",
                            "0,1/8,1/4,3/8,1/2,5/8,1"], capsys)
    assert code == 0
    boxes = json.loads(out)["boxes"]
    assert len(boxes) == 6 and boxes["6"] == "5/8"


# A child process limited to 1.5 GB of address space runs the CLI and
# reports on its last stderr line how long ``main`` took; a traceback never
# reaches that line.
_CAPPED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
from powerdex.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("command, game, extra, needle", [
    # each used to end in a traceback with exit 1, or (the exponent) in a
    # parse of more than 20 s
    ("psi", {"n": 1, "alpha": ["0", "1"], "tag": "regular",
             "boxes": {"1": "1/0"}}, [], "zero denominator"),
    ("psi", {"n": 1, "alpha": ["0", "1/0", "1"], "tag": "regular",
             "boxes": {"1": "0", "2": "1"}}, [], "zero denominator"),
    ("ssi", {"n": 1, "values": {"": "0", "1": "1/0"}}, [], "zero denominator"),
    ("psi", {"n": 1, "alpha": ["0", "1"], "tag": "regular",
             "boxes": {"1": "1e999999999"}}, [], "'1e999999999'"),
    ("ssi", {"n": 40, "values": {}}, [], "player count"),
    ("ssi", {"n": 30, "winning": [[1]]}, [], "player count"),
    ("ssi", {"n": 100000, "values": {}}, [], "player count"),
    ("psi", {"n": 6, "alpha": ["0", "1"], "tag": "regular",
             "boxes": {"1,1,1,1,1,1": "0"}},
     ["--mc", "--samples", "20000000"], "Monte-Carlo cap"),
])
def test_bad_input_exits_2_fast_under_memory_limit(tmp_path, command, game,
                                                   extra, needle):
    path = write(tmp_path, "game.json", game)
    proc = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, command, path,
                           *extra], capture_output=True, text=True, timeout=60)
    diagnostic, took = proc.stderr.strip().split("\n")
    assert proc.returncode == 2 and proc.stdout == ""
    assert needle in json.loads(diagnostic)["error"]
    assert float(took) < 1
