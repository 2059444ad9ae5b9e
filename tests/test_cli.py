import json
import subprocess
import sys
import time

import pytest

from powerdex.cli import main
from powerdex.serialize import parse_step_game
from powerdex.stepfun import validate


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


# A semi-regular game with 21 boundary overrides, some of them on faces that
# pinned sample points reach.  The expected outputs were recorded with the
# estimator that evaluated every sample on its own; evaluating once per face
# cell must keep every byte.
SEMI_REGULAR = {
    "n": 3, "alpha": ["0", "1/3", "1"], "tag": "semi_regular",
    "boxes": {"1,1,1": "1/3", "1,1,2": "1/3", "1,2,1": "11/12",
              "1,2,2": "11/12", "2,1,1": "1/2", "2,1,2": "1/2",
              "2,2,1": "11/12", "2,2,2": "11/12"},
    "faces": {"0,0,1": "0", "0,0,2": "0", "0,0,3": "0", "0,0,4": "0",
              "0,3,0": "37/48", "0,3,1": "37/48", "0,4,0": "27/32",
              "1,0,0": "1/6", "1,3,0": "27/32", "2,1,4": "11/24",
              "2,2,0": "31/48", "3,0,0": "11/24", "3,0,1": "23/48",
              "3,1,0": "11/24", "3,4,4": "23/24", "4,0,0": "23/48",
              "4,0,1": "47/96", "4,1,0": "23/48", "4,1,4": "29/48",
              "4,2,4": "13/16", "4,3,4": "23/24"}}
PSI_MC_SEED_3 = (
    '{"index": "psi", "mode": "mc", "samples": 3000, "seed": 3'
    ', "shares": [[0.27357060185185184, 0.0011393778713957613]'
    ', [0.6513414351851851, 0.0008834589020133099], [0.075087962962963'
    ', 0.00033457428973385683]]}'
    '\n')
PSI_MC_WITH_C = (
    '{"C": {"": 0.0, "1": 0.08794458333333333'
    ', "1,2": 0.9166666666666665, "1,2,3": 1.0'
    ', "1,3": 0.21537083333333332, "2": 0.4767995833333333'
    ', "2,3": 0.583315, "3": 0.02553864583333333}, "index": "psi"'
    ', "mode": "mc", "samples": 100000, "seed": 0'
    ', "shares": [[0.27315973958333334, 0.00019836738992310915]'
    ', [0.6515593229166665, 0.00015375624643872344]'
    ', [0.07528093750000002, 5.823562922465701e-05]]}'
    '\n')


@pytest.mark.parametrize("argv, expected", [
    (["--mc", "--samples", "3000", "--seed", "3"], PSI_MC_SEED_3),
    (["--mc", "--with-c"], PSI_MC_WITH_C)])
def test_psi_mc_stdout_is_pinned(tmp_path, capsys, argv, expected):
    path = write(tmp_path, "semi.json", SEMI_REGULAR)
    assert run_cli(["psi", path] + argv, capsys) == (0, expected, "")


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
    assert json.loads(err)["error"].startswith("invalid step game: 2 violations: ")


def test_invalid_game_diagnostic_counts_all_violations(tmp_path, capsys):
    # box values fall along both axes: every box cover is broken
    game = {"n": 2, "alpha": ["0", "1/3", "2/3", "1"], "tag": "regular",
            "boxes": {f"{a},{b}": f"{6 - a - b}/6"
                      for a in range(1, 4) for b in range(1, 4)}}
    found = validate(parse_step_game(game)).violations
    assert len(found) > 5
    code, out, err = run_cli(["psi", write(tmp_path, "bad.json", game)], capsys)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error == (f"invalid step game: {len(found)} violations, first 5: "
                     + "; ".join(found[:5]))


@pytest.mark.parametrize("command, game, key", [
    # each of the first four ended in an AttributeError traceback with exit 1
    ("ssi", {"n": 2, "values": "01"}, "values"),
    ("psi", {"n": 1, "alpha": ["0", "1"], "tag": "regular", "boxes": ""},
     "boxes"),
    ("psi", {"n": 1, "alpha": ["0", "1"], "tag": "semi_regular",
             "boxes": {"1": "1/2"}, "faces": [["0"]]}, "faces"),
    ("jk-ssi", {"n": 2, "j": 2, "k": 2, "values": [1]}, "values"),
    # "false" was read as true; 2.7 and 1.5 as 2 and 1, true as 1, 2.0 as 2
    ("ssi", {"n": 3, "winning": [[1], [2, 3]], "closure": "false"}, "closure"),
    ("ssi", {"n": 2.7, "winning": [[1]]}, "n"),
    ("ssi", {"n": True, "winning": [[1]]}, "n"),
    ("ssi", {"n": 2, "winning": "12"}, "winning"),
    ("psi", {"n": 1.0, "alpha": ["0", "1"], "boxes": {"1": "0"}}, "n"),
    ("psi", {"n": 1, "alpha": "01", "boxes": {"1": "0"}}, "alpha"),
    ("jk-ssi", {"n": 1, "j": 2.0, "k": 2, "values": {"0": 0, "1": 1}}, "j"),
    ("jk-ssi", {"n": 1, "j": 2, "k": True, "values": {"0": 0, "1": 1}}, "k"),
    ("jk-ssi", {"n": 1, "j": 2, "k": 2, "values": {"0": 0, "1": 1.5}}, "1"),
    ("jk-ssi", {"n": 1, "j": 2, "k": 2, "values": {"0": False, "1": 1}}, "0"),
])
def test_wrongly_typed_key_exits_2_naming_it(tmp_path, capsys, command, game,
                                             key):
    code, out, err = run_cli([command, write(tmp_path, "g.json", game)], capsys)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert f"key {key!r} must be a JSON " in json.loads(line)["error"]


def test_closure_false_keeps_the_exhaustive_list(tmp_path, capsys):
    game = {"n": 3, "winning": [[1], [2, 3]], "closure": False}
    code, out, _ = run_cli(["ssi", write(tmp_path, "g.json", game)], capsys)
    assert code == 0
    assert json.loads(out)["shares"] == ["0", "0", "0"]


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
    # JKGame built two n-tuples before it checked anything
    ("jk-ssi", {"n": 100_000_000, "j": 2, "k": 2, "values": {}}, [],
     "player count"),
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


def _diagnostic(err: str) -> dict:
    (line,) = err.splitlines()
    diagnostic = json.loads(line)
    assert set(diagnostic) == {"error", "type"}
    return diagnostic


JK_AND = {"0,0": 0, "0,1": 0, "1,0": 0, "1,1": 1}
STEP_1 = {"n": 1, "alpha": ["0", "1/2", "1"], "tag": "regular"}


@pytest.mark.parametrize("command, game, where", [
    # the later key "0, 1" used to win silently: shares ["0", "1"]
    ("jk-ssi", {"n": 2, "j": 2, "k": 2,
                "values": {**JK_AND, "0, 1": 1}}, 'values["0, 1"]'),
    # keys out of range were ignored and the run exited 0
    ("jk-ssi", {"n": 2, "j": 2, "k": 2, "values": {**JK_AND, "5,0": 1}},
     'values["5,0"]'),
    ("jk-ssi", {"n": 2, "j": 2, "k": 2, "values": {**JK_AND, "-1,0": 7}},
     'values["-1,0"]'),
    # a JSON boolean or float in a rational position was read as a number
    ("psi", {"n": 1, "alpha": ["0", "1"], "boxes": {"1": True}},
     'boxes["1"]'),
    ("psi", {**STEP_1, "alpha": [False, "1/2", "1"],
             "boxes": {"1": "0", "2": "1"}}, "alpha[0]"),
    ("psi", {**STEP_1, "boxes": {"1": "0", "2": 0.5}}, 'boxes["2"]'),
    ("ssi", {"n": 1, "values": {"": "0", "1": 1.0}}, 'values["1"]'),
    # winning members must be JSON integers: true was read as player 1
    ("ssi", {"n": 2, "winning": [[True]]}, "winning[0][0]"),
    ("ssi", {"n": 2, "winning": [[1, "2"]]}, "winning[0][1]"),
    ("ssi", {"n": 2, "winning": [[1], [3]]}, "winning[1]"),
    ("rollcall", {"n": 2, "winning": [[1, 1]]}, "winning[0]"),
])
def test_refused_value_exits_2_naming_its_json_path(tmp_path, capsys,
                                                    command, game, where):
    code, out, err = run_cli([command, write(tmp_path, "g.json", game)],
                             capsys)
    assert code == 2 and out == ""
    assert _diagnostic(err)["error"].startswith(where + ": ")


def test_jk_table_without_the_repeated_key_still_reads(tmp_path, capsys):
    game = {"n": 2, "j": 2, "k": 2, "values": JK_AND}
    code, out, _ = run_cli(["jk-ssi", write(tmp_path, "g.json", game)], capsys)
    assert code == 0 and json.loads(out)["shares"] == ["1/2", "1/2"]


def test_rational_positions_take_json_integers(tmp_path, capsys):
    game = {"n": 1, "alpha": [0, "1/2", 1], "boxes": {"1": 0, "2": "1"}}
    code, out, _ = run_cli(["psi", write(tmp_path, "g.json", game)], capsys)
    assert code == 0 and json.loads(out)["shares"] == ["1"]


@pytest.mark.parametrize("command, blob, message", [
    ("ssi", "[1, 2]", "the top level must be a JSON object, not array"),
    ("psi", "null", "the top level must be a JSON object, not null"),
    ("jk-ssi", '"x"', "the top level must be a JSON object, not string"),
    # the diagnostic used to be "'n'"
    ("ssi", "{}", "missing key 'n'"),
    ("psi", '{"n": 1, "alpha": ["0", "1"]}', "missing key 'boxes'"),
])
def test_document_shape_diagnostics(tmp_path, capsys, command, blob, message):
    path = tmp_path / "g.json"
    path.write_text(blob)
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 2 and out == ""
    assert _diagnostic(err)["error"] == message


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    # json.loads raised RecursionError, which main did not catch: exit 1
    # with a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run_cli(["ssi", str(path)], capsys)
    assert code == 2 and out == ""
    assert str(path) in _diagnostic(err)["error"]


def test_his_apply_box_with_the_wrong_arity_exits_2(tmp_path, capsys):
    game = {"n": 2, "alpha": ["0", "1/2", "1"], "tag": "regular",
            "boxes": {"1,1": "0", "1,2": "0", "2,1": "0", "2,2": "1/2"}}
    path = write(tmp_path, "g.json", game)
    code, out, err = run_cli(["his-apply", path, "--box", "1", "--eps", "0"],
                             capsys)
    assert code == 2 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["type"] == "IncrementError"
    assert "(1,)" in diagnostic["error"] and "2 players" in diagnostic["error"]


def test_corner_names_a_repeated_player(capsys):
    code, out, err = run_cli(["corner", "--L", "2,2", "--U", "1,3", "--l", "2"],
                             capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "player 2 listed twice"


@pytest.mark.parametrize("argv,message", [
    (["his-apply", "{game}", "--box", "1,x", "--eps", "0"],
     "--box: 'x' is not a player number"),
    (["corner", "--L", "2", "--U", "1, 3.0", "--l", "2"],
     "--U: '3.0' is not a player number"),
    (["corner", "--L", "two", "--U", "1,3", "--l", "2"],
     "--L: 'two' is not a player number"),
])
def test_player_lists_name_the_option_and_the_item(tmp_path, capsys, argv,
                                                  message):
    game = {"n": 2, "alpha": ["0", "1"], "tag": "regular",
            "boxes": {"1,1": "0"}}
    path = write(tmp_path, "g.json", game)
    code, out, err = run_cli([a.format(game=path) for a in argv], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": message, "type": "InputError"}


@pytest.mark.parametrize("doc,found", [
    ({"n": 1, "alpha": ["0", "1"], "boxes": {"1": "0"}}, "object"),
    (5, "integer"),
])
def test_axioms_suite_must_be_an_array(tmp_path, capsys, doc, found):
    path = write(tmp_path, "suite.json", doc)
    code, out, err = run_cli(["axioms", "--index", "psi_exact", "--suite",
                              path], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == \
        f"a suite must be a JSON array of step games, not {found}"


def test_axioms_suite_diagnostic_names_the_game(tmp_path, capsys):
    good = {"n": 1, "alpha": ["0", "1"], "boxes": {"1": "1/2"}}
    path = write(tmp_path, "suite.json", [good, {"n": 1, "alpha": ["0", "1"]}])
    code, out, err = run_cli(["axioms", "--index", "psi_exact", "--suite",
                              path], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "suite[1]: missing key 'boxes'"


TABLE1_L3_MARKDOWN = """\
| face | S | vol | d1 | d2 | d3 |
|---|---|---|---|---|---|
| x1=1, x3=1 | {1,3} | 1/3 | 1/18 | -1/9 | 1/18 |
| x1=1 | {1} | 1/9 | 1/27 | -1/54 | -1/54 |
| x3=1 | {3} | 1/9 | -1/54 | -1/54 | 1/27 |
| x2=0 | {2} | 1/9 | 1/54 | -1/27 | 1/54 |
"""
TABLE1_L3_CSV = """\
face,S,vol,d1,d2,d3
x1=1, x3=1,{1,3},1/3,1/18,-1/9,1/18
x1=1,{1},1/9,1/27,-1/54,-1/54
x3=1,{3},1/9,-1/54,-1/54,1/27
x2=0,{2},1/9,1/54,-1/27,1/54
"""
TABLE1_L3_JSON = (
    '[{"S": "{1,3}", "d1": "1/18", "d2": "-1/9", "d3": "1/18", '
    '"face": "x1=1, x3=1", "vol": "1/3"}, '
    '{"S": "{1}", "d1": "1/27", "d2": "-1/54", "d3": "-1/54", '
    '"face": "x1=1", "vol": "1/9"}, '
    '{"S": "{3}", "d1": "-1/54", "d2": "-1/54", "d3": "1/27", '
    '"face": "x3=1", "vol": "1/9"}, '
    '{"S": "{2}", "d1": "1/54", "d2": "-1/27", "d3": "1/54", '
    '"face": "x2=0", "vol": "1/9"}]\n')
# each row's sign comes from the cube side of its face, not from eps
TABLE1_L2_EPS0 = """\
| face | S | vol | d1 | d2 | d3 |
|---|---|---|---|---|---|
| x1=1, x3=1 | {1,3} | 1/2 | 0 | 0 | 0 |
| x1=1 | {1} | 1/4 | 0 | 0 | 0 |
| x3=1 | {3} | 1/4 | 0 | 0 | 0 |
| x2=0 | {2} | 1/4 | 0 | 0 | 0 |
"""
TABLE1_L2_EPS_MINUS_1 = """\
| face | S | vol | d1 | d2 | d3 |
|---|---|---|---|---|---|
| x1=1, x3=1 | {1,3} | 1/2 | -1/12 | 1/6 | -1/12 |
| x1=1 | {1} | 1/4 | -1/12 | 1/24 | 1/24 |
| x3=1 | {3} | 1/4 | 1/24 | 1/24 | -1/12 |
| x2=0 | {2} | 1/4 | -1/24 | 1/12 | -1/24 |
"""
HIS_APPLY_GAME = {"n": 3, "alpha": ["0", "1/2", "1"], "tag": "regular",
                  "boxes": {"1,1,1": "0", "1,1,2": "0", "1,2,1": "1",
                            "1,2,2": "1", "2,1,1": "0", "2,1,2": "0",
                            "2,2,1": "1", "2,2,2": "1"}}
HIS_APPLY_STDOUT = (
    '{"delta": ["1/12", "-1/6", "1/12"], "game": {"alpha": ["0", "1/2", "1"], '
    '"boxes": {"1,1,1": "0", "1,1,2": "0", "1,2,1": "1", "1,2,2": "1", '
    '"2,1,1": "0", "2,1,2": "1/2", "2,2,1": "1", "2,2,2": "1"}, "n": 3, '
    '"tag": "regular"}, "psi_after": ["1/12", "5/6", "1/12"], '
    '"psi_before": ["0", "1", "0"]}\n')


@pytest.mark.parametrize("argv,expected", [
    (["table1", "--l", "3"], TABLE1_L3_MARKDOWN),
    (["table1", "--l", "3", "--format", "csv"], TABLE1_L3_CSV),
    (["table1", "--l", "3", "--format", "json"], TABLE1_L3_JSON),
    (["table1", "--l", "2", "--eps", "0"], TABLE1_L2_EPS0),
    (["table1", "--l", "2", "--eps", "-1"], TABLE1_L2_EPS_MINUS_1),
    (["his-apply", "{game}", "--box", "2,1,2", "--eps", "1/2"],
     HIS_APPLY_STDOUT),
], ids=["table1-markdown", "table1-csv", "table1-json", "table1-eps0",
        "table1-eps-1", "his-apply"])
def test_pinned_stdout(tmp_path, capsys, argv, expected):
    path = write(tmp_path, "g.json", HIS_APPLY_GAME)
    code, out, _ = run_cli([a.replace("{game}", path) for a in argv], capsys)
    assert code == 0
    assert out == expected
