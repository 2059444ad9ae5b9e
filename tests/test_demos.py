"""Every demo script runs to completion."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
