"""perfbench's traced replay (``perfbench/layers.py``) rebinds package names
for the length of a replay and wraps the step-game evaluable, so renaming a
name it reads breaks only the traced benchmark run.  Checked here without
running the benchmark."""

import contextlib
import io
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import powerdex.cli as cli
import powerdex.indices as indices
from powerdex.evaluables import step_game_evaluable
from powerdex.his import appendix_game

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    # read perfbench/ only: no bytecode cache is written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    return layers


def test_traced_replay_rebinds_and_restores_every_name(layers):
    def bound():
        return ([getattr(module, attr) for module, attr, _ in layers.BINDINGS]
                + [cli.json, indices.step_game_evaluable])

    before = bound()
    with layers._rebound(layers.Tracer()):
        during = bound()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, bound()))


def test_timed_evaluable_gives_the_step_game_values(layers):
    g = appendix_game()
    timed, plain = layers.Tracer().timed_evaluable(g), step_game_evaluable(g)
    points = [(F(0), F(0)), (F(1, 8), F(3, 4)), (F(1, 4), F(1, 2)),
              (F(1, 3), F(1)), (F(1), F(1))]
    assert ([timed.eval_exact(x) for x in points]
            == [plain.eval_exact(x) for x in points])
    floats = np.array(points, dtype=np.float64)
    assert np.array_equal(timed.eval_array(floats), plain.eval_array(floats))


def test_traced_requests_count_a_call_on_every_layer(layers, tmp_path):
    # a name that a lazy import reads past its module attribute would keep
    # its identity test above and still read 0 calls here
    step = tmp_path / "step.json"
    step.write_text(json.dumps(
        {"n": 2, "alpha": ["0", "1/2", "1"], "tag": "regular",
         "boxes": {"1,1": "0", "1,2": "1/4", "2,1": "1/2", "2,2": "1"}}))
    coalition = tmp_path / "coalition.json"
    coalition.write_text(json.dumps({"n": 3, "winning": [[1, 2], [1, 3]]}))
    tracer = layers.Tracer()
    with layers._rebound(tracer), contextlib.redirect_stdout(io.StringIO()):
        for argv in (["psi", str(step)], ["ssi", str(coalition)],
                     ["psi", str(step), "--mc", "--samples", "10"]):
            assert cli.main(argv) == 0, argv
    spans = ("stepfun.validate", "serialize.parse_step_game",
             "indices.psi_from_c", "evaluables.eval_array")
    assert [name for name in spans if tracer.calls[name] == 0] == []
