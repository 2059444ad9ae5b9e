"""perfbench's traced replay (``perfbench/layers.py``) rebinds package names
for the length of a replay and wraps the step-game evaluable, so renaming a
name it reads breaks only the traced benchmark run.  Checked here without
running the benchmark."""

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
