"""Seeded end-to-end and per-layer benchmark for the powerdex CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload step_regular --seed 1 --seconds 25 --trace 0

--trace 0 is a closed loop with one client: one fresh ``python -m
powerdex.cli`` process at a time, the next starting when the previous one
has exited, in passes over the workload's requests until --seconds have
been used.  It reports the end-to-end metrics; a fixed reference loop timed
between passes turns each pass's wall time into ``solve_rel``.  --trace 1 is a separate
in-process replay of all four workloads that reports the per-layer metrics
(see layers.py).  Every request's stdout goes through the output gate
(gate.py).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  README.md maps each per-layer
metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

SETUP_PER_PASS = 3
MIN_PASSES = 3
REFERENCE_STEPS = 90_000
# A fresh interpreter that imports these standard-library modules does what
# set-up does (start, find, read and load modules, some of them compiled)
# without the program.  setup_s is scaled to a machine on which it takes
# STARTUP_NOMINAL_S, about its median on the reference machine.
STARTUP_REFERENCE = ("import argparse, dataclasses, decimal, email.parser, "
                     "fractions, http.client, json, unittest, xml.dom.minidom")
STARTUP_NOMINAL_S = 0.1
# Workloads whose time is mostly numpy array work add REFERENCE_ROUNDS
# rounds of such work to their reference, about 0.3 s.
NUMPY_WORKLOADS = {"blackbox"}
REFERENCE_ROWS = 150_000
REFERENCE_ROUNDS = 12


def reference_seconds(numpy: bool = False) -> float:
    """Wall time of fixed code that never touches the program.

    It does what the program's hot loops do, exact ``Fraction`` arithmetic
    and comparisons on a dict keyed by tuples, so it slows down with them
    when the shared machine does.  With ``numpy`` it also does what
    ``psi_mc`` does to its sample arrays: copy, overwrite a column, locate
    each row's face by binary search, gather and accumulate.
    """
    start = time.perf_counter()
    table: dict[tuple[int, int, int], Fraction] = {}
    total = Fraction(0)
    for i in range(REFERENCE_STEPS):
        key = (i % 5, i % 7, i % 9)
        value = Fraction(i % 13, 12)
        if value > table.get(key, -1):
            table[key] = value
        total += value
    if not numpy:
        return time.perf_counter() - start
    import numpy as np

    rng = np.random.default_rng(0)
    pts = rng.random((REFERENCE_ROWS, 6))
    alpha = np.array([0.0, 0.5, 1.0])
    flat = rng.random(5 ** 6)
    acc = np.zeros(REFERENCE_ROWS)
    for r in range(REFERENCE_ROUNDS):
        hi = pts.copy()
        hi[:, r % 6] = 1.0
        idx = np.zeros(REFERENCE_ROWS, dtype=np.int64)
        for i in range(6):
            col = hi[:, i]
            h = np.searchsorted(alpha, col, side="left")
            on_point = alpha[np.minimum(h, 2)] == col
            idx = idx * 5 + np.where(on_point, 2 * h, 2 * h - 1)
        acc += 0.5 * (flat[idx] - acc)
    return time.perf_counter() - start


def run_cli(argv: list[str], cwd: str, env: dict) -> tuple[float, float, int, bytes]:
    """Wall seconds from spawn to exit, peak RSS in MB, exit code, stdout."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "powerdex.cli", *argv],
                            cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    took = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return took, usage.ru_maxrss / 1024, proc.returncode, stdout


def startup_seconds(code: str, cwd: str, env: dict) -> float:
    """Wall time of a fresh interpreter that runs ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_sample(cwd: str, env: dict) -> tuple[float, float]:
    """Fresh-interpreter cost of ``import powerdex.cli``: raw, and scaled by
    the startup reference timed right after it."""
    took = startup_seconds("import powerdex.cli", cwd, env)
    ref = startup_seconds(STARTUP_REFERENCE, cwd, os.environ)
    return took, took * STARTUP_NOMINAL_S / ref


def untraced(w, workdir: str, env: dict, seconds: float, digests: dict):
    import gate

    pin = gate.pinned(digests, w)
    numpy = w.name in NUMPY_WORKLOADS
    walls, refs, rss, setup, raw_setup = [], [], [], [], []
    reasons, attempted, first = [], 0, []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start + walls[-1] <= seconds:
        # Set-up samples and a reference time before each pass, so that all
        # three sample the same stretch of machine load.
        for _ in range(SETUP_PER_PASS):
            raw, scaled = setup_sample(workdir, env)
            raw_setup.append(raw)
            setup.append(scaled)
        refs.append(reference_seconds(numpy))
        wall, peak, outputs = 0.0, 0.0, []
        for index, req in enumerate(w.requests):
            took, mb, code, stdout = run_cli(req.argv, workdir, env)
            wall += took
            peak = max(peak, mb)
            attempted += 1
            reason = gate.check(w, index, stdout, pin, code)
            if reason is not None:
                reasons.append(f"pass {len(walls)} request {index}: {reason}")
            outputs.append(stdout)
        first = first or outputs
        walls.append(wall)
        rss.append(peak)
    refs.append(reference_seconds(numpy))
    solve, ref = statistics.median(walls), statistics.median(refs)
    # Each pass against the mean of the reference times taken just before
    # and just after it.
    rel = [wall / ((a + b) / 2) for wall, a, b in zip(walls, refs, refs[1:])]
    metrics = {
        "solve_rel": (statistics.median(rel), "ref"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    print(f"# {len(walls)} passes of {len(w.requests)} request(s), min "
          f"{min(walls):.4f} s, max {max(walls):.4f} s; reference min "
          f"{min(refs):.4f} s, max {max(refs):.4f} s; {len(setup)} set-up samples")
    print(f"solve_s {solve:.6g} s")
    print(f"reference_s {ref:.6g} s")
    print(f"setup_raw_s {statistics.median(raw_setup):.6g} s")
    return metrics, attempted, reasons, {w.name: first}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so that the running CLI process is
    # stopped and the input directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "powerdex", "cli.py")):
        print("perfbench: src/powerdex/cli.py not found; run from the root "
              "of a powerdex checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import gate
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    digests = gate.load_digests()
    names = [args.workload] if not args.trace else list(workloads.NAMES)
    ws = {name: workloads.GENERATORS[name](args.seed) for name in names}
    reasons = []
    for w in ws.values():
        pin = gate.pinned(digests, w)
        if pin is not None and gate.inputs_digest(w) != pin["inputs"]:
            reasons.append(f"{w.name}: generated inputs differ from the pinned ones")

    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        workdirs = {}
        for name, w in ws.items():
            workdirs[name] = os.path.join(tmp, name)
            os.mkdir(workdirs[name])
            w.write(workdirs[name])
        if args.trace:
            import layers
            metrics, attempted, failed, outputs = layers.run(
                ws, workdirs, args.workload, digests)
        else:
            metrics, attempted, failed, outputs = untraced(
                ws[args.workload], workdirs[args.workload], env, args.seconds,
                digests)
    # Every run proves that the gate would count a corrupted share.
    for name, outs in outputs.items():
        caught = gate.self_check(ws[name], outs)
        if caught is not None:
            reasons.append(f"{name}: gate self-check: {caught}")
    reasons += failed
    for reason in reasons:
        print(f"# FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    n_failed = len(failed)
    print(f"error_rate {n_failed / attempted:.6g} ({n_failed} of {attempted} requests)")
    print(json.dumps({
        "correct": not reasons,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
