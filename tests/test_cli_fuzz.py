"""Fuzz property for the CLI's input handling, run in-process through
``cli.main``: small valid inputs, mutated, must end in exit 0 or in exit 2
with nothing on stdout and one JSON diagnostic line on stderr."""

import contextlib
import copy
import io
import json
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powerdex.cli import main

JK = {"n": 2, "j": 2, "k": 2,
      "values": {"0,0": 0, "0,1": 0, "1,0": 0, "1,1": 1}}
JK3 = {"n": 2, "j": 3, "k": 2,
       "values": {f"{a},{b}": int(a + b >= 3) for a in range(3)
                  for b in range(3)}}
WINNING = {"n": 3, "winning": [[1, 2], [1, 3]]}
VALUES = {"n": 2, "values": {"": "0", "1": "1/3", "2": "0", "1,2": "1"}}
STEP = {"n": 2, "alpha": ["0", "1/2", "1"], "tag": "regular",
        "boxes": {"1,1": "0", "1,2": "1/4", "2,1": "1/2", "2,2": "3/4"}}
SEMI = {"n": 1, "alpha": ["0", "1/3", "1"], "tag": "semi_regular",
        "boxes": {"1": "1/4", "2": "1/2"}, "faces": {"2": "1/3"}}

# (argv before the file, valid input)
SEEDS = [
    (["ssi"], WINNING),
    (["ssi"], VALUES),
    (["rollcall"], WINNING),
    (["jk-ssi", "--form", "pivot"], JK),
    (["jk-ssi", "--form", "marginal"], JK3),
    (["psi"], STEP),
    (["psi"], SEMI),
    (["psi-point", "--alpha", "1/3"], STEP),
    (["embed"], JK),
    (["embed", "--tau", "1/4"], JK),
    (["embed", "--semiregular"], WINNING),
    (["coarsen", "--alpha", "0,1"], STEP),
    (["his-apply", "--box", "1,2", "--eps", "1/8"], STEP),
    (["axioms", "--index", "psi_exact", "--suite"], [STEP]),
]

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "0", "1", "1/2", "1/0", "0.5", " 1 ", "1e-7", "x",
                     "-1", "7/3", "1,1", "٣"]))
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["", "1", "1,1", "0,1", "n", "x"]),
                        inner, max_size=3)),
    max_leaves=5)
# what goes where an integer or a rational belongs
NEAR_NUMBERS = st.sampled_from([True, False, 0.5, 1.0, 2.0, 1e-7, -0.0])


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, path + (index,))


def _mutate(doc, data):
    """``doc`` after one random edit of the kinds malformed inputs take."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent, last = None, None
    node = doc
    for part in path:
        parent, last, node = node, part, node[part]
    op = data.draw(st.sampled_from(
        ["drop", "retype", "near_number", "wrap", "respace", "out_of_range"]))
    if op in ("respace", "out_of_range") and isinstance(node, dict) and node:
        key = data.draw(st.sampled_from(sorted(node)))
        if op == "respace":
            # the same coordinates written with other spacing
            other = data.draw(st.sampled_from(
                [" " + key, key + " ", key.replace(",", ", ")]))
            node[other] = data.draw(st.one_of(st.just(node[key]), SCALARS))
        else:
            coords = key.split(",") if key else ["1"]
            coords[data.draw(st.integers(0, len(coords) - 1))] = \
                data.draw(st.sampled_from(["-1", "0", "9", "99"]))
            node[",".join(coords)] = node[key]
        return doc
    if op == "drop" and parent is not None:
        del parent[last]
        return doc
    if op == "near_number":
        new = data.draw(NEAR_NUMBERS)
    elif op == "wrap":
        new = data.draw(st.sampled_from([[node], {"x": node}, [[node]]]))
    else:
        new = data.draw(JSON_VALUES)
    if parent is None:
        return new
    parent[last] = new
    return doc


def _run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["-"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300,
          deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SEEDS), st.integers(1, 3), st.data())
def test_mutated_inputs_exit_0_or_2_with_one_diagnostic(seed, edits, data):
    argv, doc = seed
    doc = copy.deepcopy(doc)
    for _ in range(edits):
        doc = _mutate(doc, data)
    code, out, err = _run(argv, json.dumps(doc))
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        (line,) = err.splitlines()
        diagnostic = json.loads(line)
        assert set(diagnostic) == {"error", "type"}
