"""Record the reference stdout digests of the pinned seeds in digests.json.

    python3 perfbench/pin.py FIRST_SEED LAST_SEED

Run it only at a commit whose CLI stdout is the reference, from the root of
the checkout.  For each workload and seed it stores the sha256 of the
generated inputs and of each request's stdout, after the request has passed
its invariant.  Later runs with a pinned seed fail on any byte of difference.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import run_cli


def main(first: int, last: int) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gate
    import workloads

    env = dict(os.environ, PYTHONPATH=src)
    digests: dict = {name: {} for name in workloads.NAMES}
    for seed in range(first, last + 1):
        for name in workloads.NAMES:
            w = workloads.GENERATORS[name](seed)
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
                w.write(tmp)
                outputs = []
                for index, req in enumerate(w.requests):
                    _, _, code, stdout = run_cli(req.argv, tmp, env)
                    reason = gate.check(w, index, stdout, None, code)
                    if reason is not None:
                        print(f"{name} seed {seed} request {index}: {reason}",
                              file=sys.stderr)
                        return 1
                    outputs.append(gate.sha256(stdout))
            digests[name][str(seed)] = {"inputs": gate.inputs_digest(w),
                                        "outputs": outputs}
            print(name, seed, outputs, flush=True)
    with open(gate.DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
