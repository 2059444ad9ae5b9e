"""One work budget for every exhaustive enumeration.

Each enumerating kernel counts the elementary steps its input asks for and
calls ``check_work`` before it starts, so every size rule for enumeration
time is the same comparison against the same constant.
"""

from __future__ import annotations

# the largest input each kernel admits under it, with its time on a 2-core
# machine, is listed in README.md ("Scale and concurrency")
MAX_STEPS = 2_000_000


def check_work(steps: int, what: str) -> None:
    """Raise ValueError when ``what`` would take more than MAX_STEPS
    elementary steps."""
    if steps > MAX_STEPS:
        raise ValueError(f"{what} exceeds the work budget of "
                         f"{MAX_STEPS:,} steps")
