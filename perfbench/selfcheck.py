"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Asserts that each workload's generator gives byte-identical inputs for the
same seed (and the pinned inputs for pinned seeds), different inputs for
different seeds, and that the output gate passes the real CLI output and
counts the same output with one share altered as a failure.  It also
asserts that the Monte-Carlo gate passes a share whose stderr is 0 and
whose estimate is the exact share up to float rounding.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import tempfile

from run import run_cli

SEEDS = (1, 7)
# Player 3 of this blackbox game has the same per-sample value in every box.
ZERO_STDERR_SEED = 327905616


def zero_stderr_problem(gate, workloads) -> str | None:
    """None when the gate passes a rounded estimate with stderr 0 and
    fails the same output with one share altered."""
    from powerdex.indices import psi_exact
    from powerdex.sampling import random_regular_game

    w = workloads.blackbox(ZERO_STDERR_SEED)
    g = random_regular_game(random.Random(ZERO_STDERR_SEED), 6, 2)
    expected = psi_exact(g).shares
    sigmas = workloads.mc_sigmas(g, expected)
    if min(sigmas) != 0:
        return f"blackbox seed {ZERO_STDERR_SEED} has no zero-stderr player"
    shares = [[math.nextafter(float(x), 0.0), s / math.sqrt(workloads.MC_SAMPLES)]
              for x, s in zip(expected, sigmas)]
    stdout = (json.dumps({"mode": "mc", "samples": workloads.MC_SAMPLES,
                          "seed": ZERO_STDERR_SEED, "shares": shares}) + "\n").encode()
    reason = gate.check(w, 0, stdout, None)
    if reason is not None:
        return f"zero-stderr share rejected: {reason}"
    if gate.check(w, 0, gate.corrupt(stdout), None) is None:
        return "zero-stderr share: the gate missed an altered share"
    return None


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gate
    import workloads

    digests = gate.load_digests()
    env = dict(os.environ, PYTHONPATH=src)
    problems = []
    for name in workloads.NAMES:
        make = workloads.GENERATORS[name]
        first, again, other = make(SEEDS[0]), make(SEEDS[0]), make(SEEDS[1])
        if first.files != again.files:
            problems.append(f"{name}: seed {SEEDS[0]} gave two different inputs")
        if first.files == other.files:
            problems.append(f"{name}: seeds {SEEDS} gave the same inputs")
        pin = gate.pinned(digests, first)
        if pin is None:
            problems.append(f"{name}: seed {SEEDS[0]} is not pinned")
        elif gate.inputs_digest(first) != pin["inputs"]:
            problems.append(f"{name}: inputs differ from the pinned ones")
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
            first.write(tmp)
            results = [run_cli(req.argv, tmp, env)[2:] for req in first.requests]
        for index, (code, stdout) in enumerate(results):
            reason = gate.check(first, index, stdout, pin, code)
            if reason is not None:
                problems.append(f"{name} request {index}: {reason}")
        outputs = [stdout for _, stdout in results]
        caught = gate.self_check(first, outputs)
        if caught is not None:
            problems.append(f"{name}: {caught}")
        print(f"{name}: checked", flush=True)
    zero = zero_stderr_problem(gate, workloads)
    if zero is not None:
        problems.append(zero)
    for problem in problems:
        print("FAILED", problem)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
