"""Output gate: every request's stdout must pass its workload invariant and,
for the pinned seeds, hash to the digest recorded at the reference commit.

``digests.json`` maps workload -> seed -> {"inputs": sha256 of the input
files, "outputs": [sha256 of each request's stdout]}.  Any stdout byte
change for a pinned input is a regression.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from workloads import Workload

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def inputs_digest(w: Workload) -> str:
    h = hashlib.sha256()
    for name in sorted(w.files):
        h.update(name.encode() + b"\0" + sha256(w.files[name]).encode() + b"\n")
    return h.hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def pinned(digests: dict, w: Workload) -> dict | None:
    return digests.get(w.name, {}).get(str(w.seed))


def check(w: Workload, index: int, stdout: bytes, pin: dict | None,
          code: int = 0) -> str | None:
    """None when request ``index`` of ``w`` exited with ``code`` 0 and
    produced ``stdout`` correctly; otherwise the reason."""
    if code:
        return f"exit code {code}"
    if pin is not None and sha256(stdout) != pin["outputs"][index]:
        return "stdout differs from the pinned digest"
    try:
        return w.requests[index].check(stdout)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def corrupt(stdout: bytes) -> bytes:
    """The same output with the first share of its last line altered."""
    lines = stdout.decode().splitlines()
    last = json.loads(lines[-1])
    key = "shares" if "shares" in last else "psi"
    first = last[key][0]
    if isinstance(first, list):  # Monte-Carlo [estimate, stderr]
        last[key][0] = [first[0] + 0.25, first[1]]
    else:
        last[key][0] = str(Fraction(first) + Fraction(1, 97))
    lines[-1] = json.dumps(last, sort_keys=True)
    return ("\n".join(lines) + "\n").encode()


def self_check(w: Workload, outputs: list[bytes]) -> str | None:
    """None when the invariants reject each passing output with one share
    altered.  Outputs that already fail are counted elsewhere."""
    for index, stdout in enumerate(outputs):
        if check(w, index, stdout, None) is not None:
            continue
        if check(w, index, corrupt(stdout), None) is None:
            return f"request {index}: the gate missed an altered share"
    return None
