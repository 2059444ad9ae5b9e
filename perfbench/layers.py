"""Traced in-process replay: per-layer times and counts.

Every request of every workload is replayed by calling ``powerdex.cli.main``
in this process.  Spans come from rebinding, for the duration of the replay,
the public names through which one layer calls the next:

  cli:        json.loads as seen by the cli module; cli.main itself
  serialize:  cli.parse_step_game, cli.parse_coalition_input
  stepfun:    serialize.regular_completion, cli.validate, his.validate
  indices:    cli.psi_exact, cli.ssi_coalition, cli.psi_mc, cli.psi_point,
              indices.boundary_averages, indices.psi_from_c
  evaluables: indices.step_game_evaluable returns an EvaluableGame built with
              the public constructor whose callables time and count each
              call through to the real step_game_evaluable's methods
  his:        his.build_by_increments, his.apply_box_increment

A span's self time is its duration minus the spans nested in it.  Memory
peaks come from a separate tracemalloc pass, because tracemalloc slows the
Fraction-heavy code enough to distort the timings.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import tracemalloc
from collections import defaultdict

import powerdex.cli as cli
import powerdex.evaluables as evaluables
import powerdex.his as his
import powerdex.indices as indices
import powerdex.serialize as serialize
from powerdex.evaluables import EvaluableGame

import gate
from workloads import MC_SAMPLES, Workload

# (module, attribute, span name).  The same span name on two bindings sums
# both call sites.
BINDINGS = [
    (cli, "parse_step_game", "serialize.parse_step_game"),
    (cli, "parse_coalition_input", "serialize.parse_coalition_input"),
    (serialize, "regular_completion", "stepfun.regular_completion"),
    (cli, "validate", "stepfun.validate"),
    (his, "validate", "stepfun.validate"),
    (cli, "psi_exact", "indices.psi_exact"),
    (cli, "ssi_coalition", "indices.ssi_coalition"),
    (cli, "psi_mc", "indices.psi_mc"),
    (cli, "psi_point", "indices.psi_point"),
    (indices, "boundary_averages", "indices.boundary_averages"),
    (indices, "psi_from_c", "indices.psi_from_c"),
    (his, "build_by_increments", "his.build_by_increments"),
    (his, "apply_box_increment", "his.apply_box_increment"),
]


class Tracer:
    """Total time, self time and call count per span name."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[float] = []

    def wrap(self, fn, name: str):
        def timed(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                nested = self._children.pop()
                self.total[name] += took
                self.self_time[name] += took - nested
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += took
        return timed

    def timed_evaluable(self, g) -> EvaluableGame:
        inner = evaluables.step_game_evaluable(g)
        exact = self.wrap(inner.eval_exact, "evaluables.eval_exact")
        array = self.wrap(inner.eval_array, "evaluables.eval_array")

        def count_points(pts):
            self.counts["evaluables.points"] += len(pts)
            return array(pts)
        return EvaluableGame(inner.n, exact, count_points, inner.monotone, inner.name)


class _TimedJson:
    """The json module as the cli sees it, with loads traced."""

    def __init__(self, tracer: Tracer) -> None:
        self.loads = tracer.wrap(json.loads, "cli.json_load")

    def __getattr__(self, name):
        return getattr(json, name)


@contextlib.contextmanager
def _rebound(tracer: Tracer):
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in BINDINGS]
    saved += [(cli, "json", cli.json),
              (indices, "step_game_evaluable", indices.step_game_evaluable)]
    try:
        for module, attr, name in BINDINGS:
            setattr(module, attr, tracer.wrap(getattr(module, attr), name))
        cli.json = _TimedJson(tracer)
        indices.step_game_evaluable = tracer.timed_evaluable
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def replay(w: Workload, workdir: str, main) -> list[tuple[bytes, int]]:
    """Run the workload's requests in-process: stdout and exit code of each."""
    results = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for req in w.requests:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(req.argv)
            results.append((buf.getvalue().encode(), code))
    finally:
        os.chdir(cwd)
    return results


def failures(w: Workload, results: list[tuple[bytes, int]], digests: dict) -> list[str]:
    pin = gate.pinned(digests, w)
    reasons = []
    for index, (stdout, code) in enumerate(results):
        reason = gate.check(w, index, stdout, pin, code)
        if reason is not None:
            reasons.append(f"{w.name} request {index}: {reason}")
    return reasons


def layer_metrics(w: Workload, t: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one workload, from its traced replay."""
    s = t.self_time
    out = {
        "cli.json_load_s": (t.total["cli.json_load"], "s"),
        # cli.main minus every traced call: argparse, file reads and
        # building, encoding and printing the output.
        "cli.emit_s": (s["cli.main"], "s"),
    }
    (game,) = (json.loads(text) for text in w.files.values())
    n, p = game["n"], len(game.get("alpha", ())) - 1
    if p > 0:
        out["serialize.parse_step_self_s"] = (s["serialize.parse_step_game"], "s")
        out["stepfun.completion_s"] = (t.total["stepfun.regular_completion"], "s")
        out["stepfun.validate_s"] = (t.total["stepfun.validate"], "s")
    if w.name == "step_regular":
        out["stepfun.validate_calls"] = (t.calls["stepfun.validate"], "count")
        out["stepfun.faces"] = ((2 * p + 1) ** n, "count")
        out["stepfun.cover_pairs"] = (n * 2 * p * (2 * p + 1) ** (n - 1), "count")
        out["indices.c_table_s"] = (t.total["indices.boundary_averages"], "s")
        out["indices.c_table_face_reads"] = (2 * ((p + 1) ** n - p ** n), "count")
        out["indices.combine_s"] = (t.total["indices.psi_from_c"], "s")
        out["indices.combine_terms"] = (n * 2 ** (n - 1), "count")
    elif w.name == "coalition_ssi":
        out["serialize.parse_coalition_s"] = (
            t.total["serialize.parse_coalition_input"], "s")
        out["indices.combine_s"] = (t.total["indices.ssi_coalition"], "s")
        out["indices.combine_terms"] = (n * 2 ** (n - 1), "count")
    elif w.name == "blackbox":
        out["indices.mc_combine_s"] = (s["indices.psi_mc"], "s")
        out["indices.mc_array_bytes"] = (8 * MC_SAMPLES * 2 ** n, "bytes")
        out["indices.point_s"] = (s["indices.psi_point"], "s")
        out["evaluables.eval_array_s"] = (t.total["evaluables.eval_array"], "s")
        out["evaluables.points"] = (t.counts["evaluables.points"], "count")
        out["evaluables.exact_evals"] = (t.calls["evaluables.eval_exact"], "count")
    elif w.name == "his_build":
        out["stepfun.validate_calls"] = (t.calls["stepfun.validate"], "count")
        out["his.build_self_s"] = (s["his.build_by_increments"], "s")
        out["his.increment_self_s"] = (s["his.apply_box_increment"], "s")
        out["his.increments"] = (t.calls["his.apply_box_increment"], "count")
    return out


def memory_metrics(ws: dict[str, Workload]) -> dict[str, tuple[int, str]]:
    """tracemalloc peaks: the step_regular parse and the blackbox psi_mc."""
    step = json.loads(ws["step_regular"].files["step.json"])
    tracemalloc.start()
    try:
        serialize.parse_step_game(step)
        _, table_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bb = ws["blackbox"]
    g = serialize.parse_step_game(json.loads(bb.files["game.json"]))
    tracemalloc.start()
    try:
        indices.psi_mc(g, MC_SAMPLES, bb.seed)
        _, mc_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"step_regular.stepfun.table_peak_bytes": (table_peak, "bytes"),
            "blackbox.indices.mc_peak_bytes": (mc_peak, "bytes")}


def run(ws: dict[str, Workload], workdirs: dict[str, str], focus: str,
        digests: dict) -> tuple[dict, int, list[str], dict[str, list[bytes]]]:
    """Traced replay of every workload, the untraced replay of ``focus`` for
    the overhead, then the memory pass.  Returns the metrics, the number of
    requests attempted, the reasons of those that failed and the stdout of
    each workload's traced replay."""
    metrics: dict[str, tuple[float, str]] = {}
    attempted = 0
    reasons: list[str] = []
    outputs: dict[str, list[bytes]] = {}
    for name, w in ws.items():
        tracer = Tracer()
        main = tracer.wrap(cli.main, "cli.main")
        with _rebound(tracer):
            start = time.perf_counter()
            results = replay(w, workdirs[name], main)
            took = time.perf_counter() - start
        if name == focus:
            traced_focus = took
        attempted += len(results)
        reasons += failures(w, results, digests)
        outputs[name] = [stdout for stdout, _ in results]
        for key, value in layer_metrics(w, tracer).items():
            metrics[f"{name}.{key}"] = value
    start = time.perf_counter()
    results = replay(ws[focus], workdirs[focus], cli.main)
    untraced_focus = time.perf_counter() - start
    attempted += len(results)
    reasons += failures(ws[focus], results, digests)
    metrics["trace.overhead_ratio"] = (traced_focus / untraced_focus, "ratio")
    metrics.update(memory_metrics(ws))
    return metrics, attempted, reasons, outputs
