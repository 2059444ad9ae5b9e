import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import powerdex.stepfun as stepfun
from powerdex import budget
from powerdex.cli import main
from powerdex.coalitions import SimpleGame, subset_sums
from powerdex.embeddings import embed_simple_semiregular
from powerdex.indices import ssi_coalition
from powerdex.serialize import parse_step_game, step_game_to_json
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


FALLING = {"n": 2, "alpha": ["0", "1/2", "1"], "tag": "regular",
           "boxes": {"1,1": "1/2", "1,2": "1/4", "2,1": "1/2", "2,2": "3/4"}}
RAW = {**FALLING, "tag": "raw",
       "boxes": {"1,1": "0", "1,2": "1/4", "2,1": "1/2", "2,2": "3/4"}}


@pytest.mark.parametrize("game, code, err", [
    (FALLING, 2, '{"error": "invalid step game: 1 violations: monotonicity: '
                 'value 1/2 at (1, 1) exceeds 1/4 at (1, 3)", '
                 '"type": "InputError"}\n'),
    (RAW, 2, '{"error": "build requires a validated regular monotone game", '
             '"type": "ValueError"}\n'),
    ({**RAW, "tag": "regular"}, 0, "")], ids=["invalid", "raw", "regular"])
def test_his_build_validates_its_input_once(tmp_path, capsys, monkeypatch,
                                            game, code, err):
    import powerdex.cli as cli
    import powerdex.his as his

    checked = []

    def counted(g):
        checked.append(g)
        return validate(g)
    monkeypatch.setattr(cli, "validate", counted)
    monkeypatch.setattr(his, "validate", counted)
    path = write(tmp_path, "g.json", game)
    assert run_cli(["his-build", path], capsys)[::2] == (code, err)
    assert len(checked) == 1
    # a library caller that passes no report still gets the check
    if code == 2:
        with pytest.raises(ValueError, match="build requires a validated"):
            his.build_by_increments(parse_step_game(game))
        assert len(checked) == 2


def test_table1_csv(capsys):
    code, out, _ = run_cli(["table1", "--l", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "face,S,vol,d1,d2,d3"
    assert len(out.strip().splitlines()) == 5


def test_table1_at_a_large_l_builds_only_four_breakpoints(capsys):
    # the box reads the breakpoints 0, 1/l, (l-1)/l and 1 alone, so l is
    # not charged as a grid of l + 1 breakpoints
    l = 3_000_000
    code, out, _ = run_cli(["table1", "--l", str(l), "--format", "json"],
                           capsys)
    assert code == 0
    assert [(r["S"], r["vol"]) for r in json.loads(out)] == [
        ("{1,3}", f"1/{l}"), ("{1}", f"1/{l * l}"), ("{3}", f"1/{l * l}"),
        ("{2}", f"1/{l * l}")]


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
    assert "work budget" in json.loads(err)["error"]


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
    # the builders enumerated their grid before anything checked its size:
    # the first sorted up to 3^20 boxes, the second ran 18 s and ran out of
    # memory, the third built 3^14 faces before StepGame refused them
    ("axioms", None,
     ["--index", "psi_exact", "--players", "20", "--seed", "0"],
     "work budget"),
    ("embed", {"n": 20, "winning": [[1]]}, ["--semiregular"], "work budget"),
    ("embed", {"n": 14, "winning": [[1]]}, ["--semiregular"], "work budget"),
    # corner read a factorial table sized by the player cap (IndexError at
    # 48 players); its --eps goes through the same parser as a game file
    ("corner", None, ["--L", ",".join(map(str, range(1, 25))),
                      "--U", ",".join(map(str, range(25, 49))), "--l", "2"],
     "player count must be in 1..20"),
    ("corner", None, ["--L", "1", "--U", "2", "--l", "2",
                      "--eps", "1e999999999"], "'1e999999999'"),
    # table1's box needs a grid of at least two intervals per axis
    ("table1", None, ["--l", "1"], "l >= 2"),
    # a short table names its first missing profile without listing the
    # profiles; with 10^12 levels per voter the walk used to run out of
    # memory
    ("jk-ssi", {"n": 20, "j": 1000, "k": 2, "values": {",".join("0" * 20): 0}},
     [], f"missing value at {(0,) * 19 + (1,)}"),
    ("jk-ssi", {"n": 1, "j": 10 ** 12, "k": 2, "values": {"0": 0}}, [],
     "missing value at (1,)"),
    # a negative count ran only the two salted games and exited 0
    ("axioms", None, ["--index", "psi_exact", "--random", "-5"], "--random"),
    # samples * 2^n was at the cap, and the per-sample arrays (512 MB each)
    # ran out of memory after 2 s
    ("psi", {"n": 1, "alpha": ["0", "1"], "tag": "regular",
             "boxes": {"1": "1/2"}}, ["--mc", "--samples", str(1 << 26)],
     "Monte-Carlo cap"),
])
def test_bad_input_exits_2_fast_under_memory_limit(tmp_path, command, game,
                                                   extra, needle):
    path = [] if game is None else [write(tmp_path, "game.json", game)]
    proc = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, command, *path,
                           *extra], capture_output=True, text=True, timeout=60)
    diagnostic, took = proc.stderr.strip().split("\n")
    assert proc.returncode == 2 and proc.stdout == ""
    assert needle in json.loads(diagnostic)["error"]
    assert float(took) < 1


def test_corner_at_the_player_cap_exits_0_fast_under_memory_limit():
    # the corner increase used to enumerate every team of each side, and
    # the CLI refused this split by the work budget
    proc = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, "corner",
                           "--L", "1", "--U", ",".join(map(str, range(2, 21))),
                           "--l", "2"], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0 and float(proc.stderr) < 1
    deltas = json.loads(proc.stdout)["delta"]
    assert len(deltas) == 20 and sum(map(F, deltas.values())) == 0


def test_override_heavy_game_exits_2_before_listing_covers(tmp_path, capsys,
                                                          monkeypatch):
    # validate charges 2n steps per pinned face (the overrides and the two
    # corners) before it lists a cover pair, for psi and his-apply alike
    g = embed_simple_semiregular(SimpleGame.weighted(3, [2, 1, 1, 1]))
    pinned = len(set(g.overrides) | {(0,) * 4, (2,) * 4})
    path = write(tmp_path, "g.json", step_game_to_json(g))
    monkeypatch.setattr(budget, "MAX_STEPS", 8 * pinned - 1)
    for argv in (["psi", path],
                 ["his-apply", path, "--box", "1,1,1,1", "--eps", "0"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": f"listing the cover pairs of {pinned} pinned faces "
                     f"exceeds the work budget of {8 * pinned - 1} steps",
            "type": "ValueError"}
    monkeypatch.setattr(budget, "MAX_STEPS", 8 * pinned)
    assert run_cli(["psi", path], capsys)[0] == 0


def test_jk_ssi_marginal_at_18_players_under_memory_limit(tmp_path):
    # a weighted majority as a (2,2) table over 2^18 profiles (11 MB): the
    # C-table kernel used to expand it to 3^18 integers and ran out of
    # memory after 42 s; its shares are the classical index of the game
    weights = [5, 5, 4, 4, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1]
    # the profile in row-major position r has player i's level on bit 17 - i
    sums = subset_sums(weights[::-1])
    values = {",".join(map(str, x)): int(s >= 22)
              for x, s in zip(itertools.product((0, 1), repeat=18), sums)}
    path = tmp_path / "jk18.json"
    path.write_text(json.dumps({"n": 18, "j": 2, "k": 2, "values": values}))
    proc = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, "jk-ssi",
                           str(path), "--form", "marginal"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    shares = (["218821/1750320"] * 2 + ["8266/85085"] * 2
              + ["41407/583440"] * 3 + ["565819/12252240"] * 4
              + ["92201/4084080"] * 7)
    assert proc.stdout == json.dumps({"index": "jk-ssi-marginal",
                                      "mode": "exact", "shares": shares},
                                     sort_keys=True) + "\n"
    classical = ssi_coalition(SimpleGame.weighted(22, weights)).shares
    assert shares == [str(s) for s in classical]


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


APPENDIX_GAME = {"n": 2, "alpha": ["0", "1/4", "1/2", "1"], "tag": "regular",
                 "boxes": {"1,1": "1/10", "1,2": "1/5", "2,1": "3/10",
                           "1,3": "2/5", "3,1": "1/2", "2,2": "3/5",
                           "2,3": "7/10", "3,2": "4/5", "3,3": "9/10"}}
# a semi-regular game with an interior override, which is off its tag, and
# overrides that break monotonicity
REJECTED_GAME = {"n": 2, "alpha": ["0", "1/2", "1"], "tag": "semi_regular",
                 "boxes": {"1,1": "1/4", "1,2": "1/2", "2,1": "1/2",
                           "2,2": "3/4"},
                 "faces": {"2,2": "9/10", "0,3": "1/3", "4,1": "1/5"}}
# a monotone raw game whose boxes mix the denominators 5, 7 and 3 and whose
# faces move the box "2,2" (face "3,3") alone, repeat the completion at
# "4,5" and leave it at "6,1"
FACES_GAME = {"n": 2, "alpha": ["0", "1/4", "3/5", "1"], "tag": "raw",
              "boxes": {"1,1": "1/7", "1,2": "1/5", "1,3": "2/5",
                        "2,1": "1/5", "2,2": "2/7", "2,3": "3/7",
                        "3,1": "2/7", "3,2": "1/3", "3,3": "4/7"},
              "faces": {"3,3": "3/10", "4,5": "1/2", "6,1": "3/10"}}
FACES_PSI_STDOUT = (
    '{"C": {"": "0", "1": "649/4200", "1,2": "1", "2": "181/700"}, '
    '"index": "psi", "mode": "exact", "shares": ["3763/8400", "4637/8400"]}\n')
FACES_PSI_POINT_STDOUT = (
    '{"index": "psi-point", "mode": "exact", "shares": ["19/42", "23/42"]}\n')
FACES_HIS_APPLY_STDOUT = (
    '{"delta": ["13/3360", "-13/3360"], "game": {"alpha": ["0", "1/4", "3/5", '
    '"1"], "boxes": {"1,1": "1/7", "1,2": "1/5", "1,3": "2/5", "2,1": "1/5", '
    '"2,2": "3/10", "2,3": "3/7", "3,1": "25/84", "3,2": "1/3", "3,3": "4/7"}, '
    '"faces": {"2,2": "29/140", "2,3": "17/70", "2,4": "23/70", '
    '"3,2": "17/70", "3,4": "5/14", "4,2": "67/240", "4,3": "13/42", '
    '"4,4": "17/42", "6,1": "131/420"}, "n": 2, "tag": "raw"}, '
    '"psi_after": ["7591/16800", "9209/16800"], '
    '"psi_before": ["3763/8400", "4637/8400"]}\n')
FACES_COARSEN_STDOUT = (
    '{"alpha": ["0", "3/5", "1"], "boxes": {"1,1": "1/7", "1,2": "2/5", '
    '"2,1": "2/7", "2,2": "4/7"}, "n": 2, "tag": "regular"}\n')
EMBED_SEMIREGULAR_STDOUT = (
    '{"alpha": ["0", "1"], "boxes": {"1,1,1": "0"}, "faces": {"2,0,2": "1", '
    '"2,1,2": "1", "2,2,0": "1", "2,2,1": "1"}, "n": 3, '
    '"tag": "semi_regular"}\n')
COARSEN_STDOUT = (
    '{"alpha": ["0", "1/2", "1"], "boxes": {"1,1": "1/10", "1,2": "2/5", '
    '"2,1": "1/2", "2,2": "9/10"}, "n": 2, "tag": "regular"}\n')
REPLAY_APPENDIX_STDOUT = (
    '{"D": [["0", "1"], ["0", "1"]], "S": [], "eps": "1/10", "move": 1, '
    '"psi_exact": ["1/2", "1/2"], "psi_his": ["1/2", "1/2"], '
    '"verified": true}\n{"D": [["1/4", "1"], ["1/4", "1"]], "S": [1, 2], '
    '"eps": "1/2", "move": 2, "psi_exact": ["1/2", "1/2"], '
    '"psi_his": ["1/2", "1/2"], "verified": true}\n{"D": [["0", "1/4"]], '
    '"S": [2], "eps": "1/10", "move": 3, "psi_exact": ["39/80", "41/80"], '
    '"psi_his": ["39/80", "41/80"], "verified": true}\n{"D": [["1/4", "1"]], '
    '"S": [1], "eps": "-1/10", "move": 4, "psi_exact": ["9/20", "11/20"], '
    '"psi_his": ["9/20", "11/20"], "verified": true}\n{"D": [["0", "1/4"]], '
    '"S": [1], "eps": "1/5", "move": 5, "psi_exact": ["19/40", "21/40"], '
    '"psi_his": ["19/40", "21/40"], "verified": true}\n{"D": [["1/4", "1"]], '
    '"S": [2], "eps": "-1/5", "move": 6, "psi_exact": ["11/20", "9/20"], '
    '"psi_his": ["11/20", "9/20"], "verified": true}\n{"D": [["1/2", "1"], '
    '["1/2", "1"]], "S": [1, 2], "eps": "3/10", "move": 7, '
    '"psi_exact": ["11/20", "9/20"], "psi_his": ["11/20", "9/20"], '
    '"verified": true}\n{"D": [["1/4", "1/2"]], "S": [2], "eps": "1/10", '
    '"move": 8, "psi_exact": ["43/80", "37/80"], "psi_his": ["43/80", '
    '"37/80"], "verified": true}\n{"D": [["0", "1/4"]], "S": [2], '
    '"eps": "1/5", "move": 9, "psi_exact": ["41/80", "39/80"], '
    '"psi_his": ["41/80", "39/80"], "verified": true}\n{"D": [["1/2", "1"]], '
    '"S": [1], "eps": "-1/5", "move": 10, "psi_exact": ["37/80", "43/80"], '
    '"psi_his": ["37/80", "43/80"], "verified": true}\n{"D": [["1/4", '
    '"1/2"]], "S": [1], "eps": "1/5", "move": 11, "psi_exact": ["39/80", '
    '"41/80"], "psi_his": ["39/80", "41/80"], "verified": true}\n{"D": [["0", '
    '"1/4"]], "S": [1], "eps": "1/5", "move": 12, "psi_exact": ["41/80", '
    '"39/80"], "psi_his": ["41/80", "39/80"], '
    '"verified": true}\n{"D": [["1/2", "1"]], "S": [2], "eps": "-1/5", '
    '"move": 13, "psi_exact": ["9/16", "7/16"], "psi_his": ["9/16", "7/16"], '
    '"verified": true}\n{"matches_target": true, "move": "final", '
    '"shares": ["9/16", "7/16"], "tracks_agree": true}\n')
# a regular monotone n=3, p=3 game on breakpoints over 7 and 15, so the grid's
# common denominator is 105 = 3 * 5 * 7, with box values over the coprime
# denominators 11 to 31; stdout captured before the box increments summed
# their shifts in integers
HIS_BUILD_GAME = {
    "n": 3, "alpha": ["0", "2/7", "8/15", "1"], "tag": "regular",
    "boxes": {
        "1,1,1": "0", "1,1,2": "1/13", "1,1,3": "3/17", "1,2,1": "4/19",
        "1,2,2": "8/23", "1,2,3": "13/29", "1,3,1": "10/31", "1,3,2": "4/11",
        "1,3,3": "7/13", "2,1,1": "3/17", "2,1,2": "5/19", "2,1,3": "9/23",
        "2,2,1": "13/29", "2,2,2": "17/31", "2,2,3": "7/11", "2,3,1": "6/13",
        "2,3,2": "10/17", "2,3,3": "14/19", "3,1,1": "9/23", "3,1,2": "15/29",
        "3,1,3": "20/31", "3,2,1": "7/11", "3,2,2": "10/13", "3,2,3": "15/17",
        "3,3,1": "14/19", "3,3,2": "20/23", "3,3,3": "28/29"}}
HIS_BUILD_STDOUT = (
    '{"box": [1, 1, 1], "delta": ["0", "0", "0"], "eps": "0", "phase": 1, '
    '"psi": ["1/3", "1/3", "1/3"]}\n'
    '{"box": [2, 2, 2], "delta": ["0", "0", "0"], "eps": "17/31", "phase": 2, '
    '"psi": ["1/3", "1/3", "1/3"]}\n'
    '{"box": [2, 2, 1], "delta": ["13/174", "13/174", "-13/87"], '
    '"eps": "13/29", "phase": 2, "psi": ["71/174", "71/174", "16/87"]}\n'
    '{"box": [2, 1, 2], "delta": ["5/114", "-5/57", "5/114"], "eps": "5/19", '
    '"phase": 2, "psi": ["249/551", "353/1102", "251/1102"]}\n'
    '{"box": [2, 1, 1], "delta": ["1/17", "-1/34", "-1/34"], "eps": "3/17", '
    '"phase": 2, "psi": ["4784/9367", "2725/9367", "1858/9367"]}\n'
    '{"box": [1, 2, 2], "delta": ["-8/69", "4/69", "4/69"], "eps": "8/23", '
    '"phase": 2, "psi": ["255160/646323", "225493/646323", "165670/646323"]}\n'
    '{"box": [1, 2, 1], "delta": ["-2/57", "4/57", "-2/57"], "eps": "4/19", '
    '"phase": 2, "psi": ["77494/215441", "90283/215441", "47664/215441"]}\n'
    '{"box": [1, 1, 2], "delta": ["-1/78", "-1/78", "1/39"], "eps": "1/13", '
    '"phase": 2, "psi": ["5829091/16804398", "6826633/16804398", '
    '"2074337/8402199"]}\n'
    '{"box": [3, 3, 3], "delta": ["0", "0", "0"], "eps": "375/899", "phase": 3, '
    '"psi": ["5829091/16804398", "6826633/16804398", "2074337/8402199"]}\n'
    '{"box": [3, 3, 2], "delta": ["65494/3368925", "65494/3368925", '
    '"-130988/3368925"], "eps": "229/713", "phase": 3, '
    '"psi": ["300555907823/820474732350", "349260895973/820474732350", '
    '"85328964277/410237366175"]}\n'
    '{"box": [3, 3, 1], "delta": ["53159/1735650", "53159/1735650", '
    '"-53159/867825"], "eps": "159/551", "phase": 3, '
    '"psi": ["162842588572/410237366175", "187195082647/410237366175", '
    '"60199694956/410237366175"]}\n'
    '{"box": [3, 2, 3], "delta": ["50336/2490075", "-100672/2490075", '
    '"50336/2490075"], "eps": "176/527", "phase": 3, '
    '"psi": ["19015043804/45581929575", "8124260539/19535112675", '
    '"4566166708/27349157745"]}\n'
    '{"box": [3, 2, 2], "delta": ["4628/1025325", "-2314/1025325", '
    '"-2314/1025325"], "eps": "89/403", "phase": 3, '
    '"psi": ["1210909551976/2871661563225", "1187785403071/2871661563225", '
    '"472966608178/2871661563225"]}\n'
    '{"box": [3, 2, 1], "delta": ["5668/703395", "988/703395", "-6656/703395"], '
    '"eps": "60/319", "phase": 3, "psi": ["13574545344476/31588277195475", '
    '"13110008839121/31588277195475", "4903723011878/31588277195475"]}\n'
    '{"box": [3, 1, 3], "delta": ["1003/24738", "-1003/12369", "1003/24738"], '
    '"eps": "225/589", "phase": 3, "psi": ["1563714654883/3325081810050", '
    '"10548521085296/31588277195475", "12368933777581/63176554390950"]}\n'
    '{"box": [3, 1, 2], "delta": ["5668/520695", "-6656/520695", "52/27405"], '
    '"eps": "140/551", "phase": 3, "psi": ["10132761247019/21058851463650", '
    '"3381576939472/10529425731825", "4162936337687/21058851463650"]}\n'
    '{"box": [3, 1, 1], "delta": ["668/13685", "-334/13685", "-334/13685"], '
    '"eps": "84/391", "phase": 3, "psi": ["11160697876739/21058851463650", '
    '"3124592782042/10529425731825", "3648968022827/21058851463650"]}\n'
    '{"box": [2, 3, 3], "delta": ["-21164/927675", "10582/927675", '
    '"10582/927675"], "eps": "111/589", "phase": 3, '
    '"psi": ["10680260727547/21058851463650", "648940413868/2105885146365", '
    '"3889186597423/21058851463650"]}\n'
    '{"box": [2, 3, 2], "delta": ["-338/830025", "676/830025", "-338/830025"], '
    '"eps": "21/527", "phase": 3, "psi": ["10671685212599/21058851463650", '
    '"191369269664/619377984225", "155224443299/842354058546"]}\n'
    '{"box": [2, 3, 1], "delta": ["19/191835", "109/191835", "-128/191835"], '
    '"eps": "5/377", "phase": 3, "psi": ["32021312861627/63176554390950", '
    '"575163594437/1858133952675", "331419409099/1805044411170"]}\n'
    '{"box": [2, 2, 3], "delta": ["-676/751905", "-676/751905", "1352/751905"], '
    '"eps": "30/341", "phase": 3, "psi": ["4566359142341/9025222055850", '
    '"573493039577/1858133952675", "2342655409789/12635310878190"]}\n'
    '{"box": [2, 1, 3], "delta": ["104/108675", "-13312/2064825", '
    '"11336/2064825"], "eps": "56/437", "phase": 3, '
    '"psi": ["4574996115829/9025222055850", "29553346531/97796523825", '
    '"12060119721121/63176554390950"]}\n'
    '{"box": [1, 3, 3], "delta": ["-19057/470925", "19057/941850", '
    '"19057/941850"], "eps": "57/299", "phase": 3, '
    '"psi": ["120279170273/257863487310", "12612848239/39118609530", '
    '"1333840776808/6317655439095"]}\n'
    '{"box": [1, 3, 2], "delta": ["-6656/8367975", "5668/8367975", '
    '"988/8367975"], "eps": "4/253", "phase": 3, '
    '"psi": ["9806048411591/21058851463650", "21065575009/65197682550", '
    '"2224311162076/10529425731825"]}\n'
    '{"box": [1, 3, 1], "delta": ["-1837/144305", "3674/144305", '
    '"-1837/144305"], "eps": "66/589", "phase": 3, '
    '"psi": ["9537969619181/21058851463650", "61683515233/176965138350", '
    '"2090271765871/10529425731825"]}\n'
    '{"box": [1, 2, 3], "delta": ["-111488/22061025", "16549/22061025", '
    '"94939/22061025"], "eps": "67/667", "phase": 3, '
    '"psi": ["28294638665159/63176554390950", "1298141565139/3716267905350", '
    '"6406754559214/31588277195475"]}\n'
    '{"box": [1, 1, 3], "delta": ["-1837/162435", "-1837/162435", '
    '"3674/162435"], "eps": "22/221", "phase": 3, '
    '"psi": ["27580166227469/63176554390950", "3050562024239/9025222055850", '
    '"7121226996904/31588277195475"]}\n'
    '{"final": true, "psi": ["27580166227469/63176554390950", '
    '"3050562024239/9025222055850", "7121226996904/31588277195475"]}\n')
AXIOMS_PSI_SQUARE_STDOUT = (
    '{"games": 4, "index": "psi_square", "passed": ["anonymity", '
    '"efficiency", "null_player", "positivity", "symmetry", "transfer"], '
    '"violations": {"his": ["S={2}: constants (Fraction(9, 20), Fraction(9, '
    '20)) vs (13/20, 13/20) across witnesses (eps=1/10, vol=1/2)", '
    '"S={1}: constants (Fraction(9, 20), Fraction(9, 20)) vs (13/20, '
    '13/20) across witnesses (eps=1/10, vol=1/2)", '
    '"S={2}: constants (Fraction(9, 20), Fraction(9, 20)) vs (13/20, '
    '13/20) across witnesses (eps=1/10, vol=2/3)", '
    '"S={1}: constants (Fraction(9, 20), Fraction(9, 20)) vs (13/20, '
    '13/20) across witnesses (eps=1/10, vol=2/3)", '
    '"S={2}: constants (Fraction(91, 144), Fraction(91, 288)) vs (25/144, '
    '25/288) across witnesses (eps=1/48, vol=361/576)", '
    '"S={2}: constants (Fraction(91, 144), Fraction(91, 288)) vs (23/36, '
    '23/72) across witnesses (eps=1/12, vol=25/576)", '
    '"S={1}: constants (Fraction(19, 48), Fraction(19, 96)) vs (67/144, '
    '67/288) across witnesses (eps=1/16, vol=9/64)"]}}\n')
PSI_REJECTED_STDERR = (
    '{"error": "invalid step game: 6 violations, '
    'first 5: monotonicity: value 3/8 at (0, 2) exceeds 1/3 at (0, '
    '3); monotonicity: value 9/10 at (2, 2) exceeds 5/8 at (3, '
    '2); monotonicity: value 9/10 at (2, 2) exceeds 5/8 at (2, '
    '3); monotonicity: value 1/2 at (3, 1) exceeds 1/5 at (4, '
    '1); monotonicity: value 1/2 at (4, 0) exceeds 1/5 at (4, 1)", '
    '"type": "InputError"}\n')

# a coalition table and a (j,k) table as the writers spell them, with their
# keys in reverse order and with their keys respelled: every spelling the
# readers accept gives the same stdout
SSI_GAME = {"n": 3, "values": dict(zip(
    ["", "1", "2", "1,2", "3", "1,3", "2,3", "1,2,3"],
    ["0", "1/2", "1/3", "1", "0", "2/3", "1/2", "2"]))}
SSI_INT_GAME = {"n": 3, "values": dict(zip(
    ["", "1", "2", "1,2", "3", "1,3", "2,3", "1,2,3"], [0, 0, 0, 1, 0, 1, 2, 3]))}
SSI_STDOUT = ('{"index": "ssi", "mode": "exact", '
              '"shares": ["8/9", "13/18", "7/18"]}\n')
SSI_INT_STDOUT = ('{"index": "ssi", "mode": "exact", '
                  '"shares": ["2/3", "7/6", "7/6"]}\n')
JK_GAME = {"n": 3, "j": 3, "k": 3, "values": {
    ",".join(map(str, x)): int(level) for x, level in zip(
        itertools.product(range(3), repeat=3), "011222222012222222112222222")}}
JK_SHARES = '"shares": ["5/36", "7/12", "5/18"]}\n'
EMBED_JK_STDOUT = (
    '{"alpha": ["0", "1/3", "2/3", "1"], "boxes": {"1,1,1": "0", '
    '"1,1,2": "1/2", "1,1,3": "1/2", "1,2,1": "1", "1,2,2": "1", '
    '"1,2,3": "1", "1,3,1": "1", "1,3,2": "1", "1,3,3": "1", "2,1,1": "0", '
    '"2,1,2": "1/2", "2,1,3": "1", "2,2,1": "1", "2,2,2": "1", "2,2,3": "1", '
    '"2,3,1": "1", "2,3,2": "1", "2,3,3": "1", "3,1,1": "1/2", '
    '"3,1,2": "1/2", "3,1,3": "1", "3,2,1": "1", "3,2,2": "1", "3,2,3": "1", '
    '"3,3,1": "1", "3,3,2": "1", "3,3,3": "1"}, "n": 3, "tag": "regular"}\n')
JK_23_GAME = {"n": 2, "j": 2, "k": 3,
              "values": {"0,0": 0, "0,1": 1, "1,0": 0, "1,1": 2}}
EMBED_TAU_STDOUT = (
    '{"alpha": ["0", "1/4", "1"], "boxes": {"1,1": "0", "1,2": "1/2", '
    '"2,1": "0", "2,2": "1"}, "n": 2, "tag": "regular"}\n')


def _reversed_keys(game: dict) -> dict:
    return {**game, "values": dict(reversed(game["values"].items()))}


def _respelled(game: dict, respell) -> dict:
    return {**game, "values": {respell(k): v for k, v in game["values"].items()}}


SSI_RESPELLED = _respelled(
    SSI_GAME, lambda k: " " + " , ".join(reversed(k.split(","))) + " ")
JK_RESPELLED = _respelled(JK_GAME, lambda k: " " + k.replace(",", " , ") + " ")


@pytest.mark.parametrize("argv,game,expected", [
    (["table1", "--l", "3"], None, TABLE1_L3_MARKDOWN),
    (["table1", "--l", "3", "--format", "csv"], None, TABLE1_L3_CSV),
    (["table1", "--l", "3", "--format", "json"], None, TABLE1_L3_JSON),
    (["table1", "--l", "2", "--eps", "0"], None, TABLE1_L2_EPS0),
    (["table1", "--l", "2", "--eps", "-1"], None, TABLE1_L2_EPS_MINUS_1),
    (["his-apply", "{game}", "--box", "2,1,2", "--eps", "1/2"],
     HIS_APPLY_GAME, HIS_APPLY_STDOUT),
    (["embed", "--semiregular", "{game}"],
     {"n": 3, "winning": [[1, 2], [1, 3]]}, EMBED_SEMIREGULAR_STDOUT),
    (["embed", "{game}"], JK_GAME, EMBED_JK_STDOUT),
    (["embed", "{game}", "--tau", "1/4"], JK_23_GAME, EMBED_TAU_STDOUT),
    (["coarsen", "{game}", "--alpha", "0,1/2,1"], APPENDIX_GAME,
     COARSEN_STDOUT),
    (["psi", "{game}", "--with-c"], FACES_GAME, FACES_PSI_STDOUT),
    (["psi-point", "{game}", "--alpha", "1/3"], FACES_GAME,
     FACES_PSI_POINT_STDOUT),
    (["his-apply", "{game}", "--box", "3,1", "--eps", "1/84"], FACES_GAME,
     FACES_HIS_APPLY_STDOUT),
    (["coarsen", "{game}", "--alpha", "0,3/5,1"], FACES_GAME,
     FACES_COARSEN_STDOUT),
    (["his-build", "{game}"], HIS_BUILD_GAME, HIS_BUILD_STDOUT),
    (["replay-appendix"], None, REPLAY_APPENDIX_STDOUT),
    (["axioms", "--index", "psi_square", "--players", "3", "--random", "2"],
     None, AXIOMS_PSI_SQUARE_STDOUT),
    (["ssi", "{game}"], SSI_GAME, SSI_STDOUT),
    (["ssi", "{game}"], SSI_INT_GAME, SSI_INT_STDOUT),
    (["ssi", "{game}"], _reversed_keys(SSI_GAME), SSI_STDOUT),
    (["ssi", "{game}"], SSI_RESPELLED, SSI_STDOUT),
    *[(["jk-ssi", "{game}", "--form", form], game,
       f'{{"index": "jk-ssi-{form}", "mode": "exact", {JK_SHARES}')
      for form in ("marginal", "pivot")
      for game in (JK_GAME, _reversed_keys(JK_GAME), JK_RESPELLED)],
    # refused: nothing on stdout, and the violations on stderr
    (["psi", "{game}"], REJECTED_GAME, PSI_REJECTED_STDERR),
], ids=["table1-markdown", "table1-csv", "table1-json", "table1-eps0",
        "table1-eps-1", "his-apply", "embed-semiregular", "embed-jk",
        "embed-tau", "coarsen", "faces-psi", "faces-psi-point",
        "faces-his-apply", "faces-coarsen", "his-build", "replay-appendix",
        "axioms", "ssi-canonical", "ssi-int",
        "ssi-reversed", "ssi-respelled",
        *[f"jk-ssi-{form}-{spelling}" for form in ("marginal", "pivot")
          for spelling in ("canonical", "reversed", "respelled")],
        "psi-rejected"])
def test_pinned_stdout(tmp_path, capsys, argv, game, expected):
    path = write(tmp_path, "g.json", game)
    code, out, err = run_cli([a.replace("{game}", path) for a in argv], capsys)
    if game is REJECTED_GAME:
        assert (code, out, err) == (2, "", expected)
    else:
        assert (code, out) == (0, expected)


def test_point_readers_never_build_the_face_table(tmp_path, capsys,
                                                 monkeypatch):
    # psi, psi-point and his-build validate their game and read single
    # faces; none of them may build the dense face table, which costs
    # (2p + 1)^n entries per game
    def built(*args):
        raise AssertionError("the face table was built")
    monkeypatch.setattr(stepfun, "_completion_table", built)
    game = {"n": 3, "alpha": ["0", "1/3", "1/2", "1"], "tag": "regular",
            "boxes": {",".join(map(str, k)): str(F(sum(k) - 3, 6))
                      for k in itertools.product((1, 2, 3), repeat=3)}}
    path = write(tmp_path, "g.json", game)
    for argv in (["psi", path], ["psi-point", path, "--alpha", "1/3"],
                 ["psi-point", path, "--alpha", "2/5"], ["his-build", path]):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, ""), argv
        assert out


def test_ssi_at_the_player_cap(tmp_path, capsys):
    # the first test at MAX_PLAYERS: a 2^20 table closed upward from ten
    # singletons, combined in one process
    path = write(tmp_path, "g.json",
                 {"n": 20, "winning": [[i] for i in range(1, 11)]})
    code, out, _ = run_cli(["ssi", path], capsys)
    assert code == 0
    shares = ", ".join(['"1/10"'] * 10 + ['"0"'] * 10)
    assert out == f'{{"index": "ssi", "mode": "exact", "shares": [{shares}]}}\n'


def test_his_apply_names_the_monotonicity_violations(tmp_path, capsys):
    # the top box is already 1: raising it breaks the cover pairs into the
    # top corner, which refuse the increment; the box's own value above 1
    # is a range violation and is not named
    boxes = {",".join(map(str, b)): "0" for b in
             itertools.product((1, 2, 3), repeat=3)}
    boxes["3,3,3"] = "1"
    path = write(tmp_path, "g.json", {"n": 3, "alpha": ["0", "1/3", "2/3", "1"],
                                      "tag": "regular", "boxes": boxes})
    code, out, err = run_cli(["his-apply", path, "--box", "3,3,3",
                              "--eps", "1/100"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"type": "IncrementError", "error": (
        "increment breaks monotonicity: 3 violations: "
        "value 101/100 at (5, 6, 6) exceeds 1 at (6, 6, 6); "
        "value 101/100 at (6, 5, 6) exceeds 1 at (6, 6, 6); "
        "value 101/100 at (6, 6, 5) exceeds 1 at (6, 6, 6)")}


def test_bare_memory_error_names_the_request(tmp_path, capsys, monkeypatch):
    # a MemoryError raised without a message used to print "error": ""
    import powerdex.cli as cli

    def out_of_memory(args):
        raise MemoryError()
    monkeypatch.setattr(cli, "_cmd_psi", out_of_memory)
    path = write(tmp_path, "zero.json", {"n": 1, "alpha": ["0", "1"],
                                         "boxes": {"1": "0"}})
    code, out, err = run_cli(["psi", path], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "psi: out of memory",
                               "type": "MemoryError"}


# every subcommand whose handler is in ``commands``, on a small input
_MOVED = [
    ["embed", "{jk}"],
    ["coarsen", "{step}", "--alpha", "0,1/4,1"],
    ["his-apply", "{step}", "--box", "3,3", "--eps", "1/20"],
    ["replay-appendix"],
    ["table1", "--l", "2", "--format", "csv"],
    ["corner", "--L", "1", "--U", "2", "--l", "2"],
    ["axioms", "--index", "psi_exact", "--random", "1"],
    ["separation-demo"],
    ["rollcall", "{coalition}"],
    ["jk-ssi", "{jk}"],
]


@pytest.mark.parametrize("argv", _MOVED, ids=lambda argv: argv[0])
def test_moved_command_under_python_m_prints_what_main_prints(tmp_path, capsys,
                                                              argv):
    from powerdex.his import appendix_game

    paths = {
        "step": write(tmp_path, "step.json", step_game_to_json(appendix_game())),
        "jk": write(tmp_path, "jk.json", {"n": 2, "j": 2, "k": 2, "values": {
            "0,0": 0, "0,1": 0, "1,0": 0, "1,1": 1}}),
        "coalition": write(tmp_path, "coalition.json",
                           {"n": 3, "winning": [[1, 2], [1, 3]]})}
    argv = [a.format(**paths) for a in argv]
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0 and expected
    # -X importtime logs every import on stderr: cli runs as __main__, and
    # ``commands`` must not import it a second time as powerdex.cli
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m",
                           "powerdex.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, expected)
    imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()]
    assert "powerdex.commands" in imported
    assert "powerdex.cli" not in imported


# ---------------------------------------------------------------------------
# the process entry: ``run`` freezes the heap after ``main``, ``main`` never

def _small_step_game(tmp_path):
    from powerdex.his import appendix_game

    return write(tmp_path, "step.json", step_game_to_json(appendix_game()))


def test_main_in_process_never_freezes_the_heap(tmp_path, capsys):
    import gc

    frozen = gc.get_freeze_count()
    assert run_cli(["psi", _small_step_game(tmp_path)], capsys)[0] == 0
    assert gc.get_freeze_count() == frozen
    assert run_cli(["psi", str(tmp_path / "missing.json")], capsys)[0] == 2
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("code", [0, 2])
def test_run_freezes_once_after_main_and_exits_with_its_code(monkeypatch,
                                                             code):
    import gc

    import powerdex.cli as cli

    calls = []

    def fake_main():
        calls.append("main")
        return code
    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == code
    assert calls == ["main", "freeze"]


def test_python_m_psi_prints_what_main_prints(tmp_path, capsys):
    path = _small_step_game(tmp_path)
    code, expected, _ = run_cli(["psi", path], capsys)
    assert code == 0 and expected
    proc = subprocess.run([sys.executable, "-m", "powerdex.cli", "psi", path],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


def test_python_m_missing_file_exits_2_with_the_diagnostic(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    code, _, expected = run_cli(["psi", path], capsys)
    assert code == 2 and json.loads(expected)["type"] == "InputError"
    proc = subprocess.run([sys.executable, "-m", "powerdex.cli", "psi", path],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", expected)
