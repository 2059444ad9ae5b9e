import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from powerdex import appendix_game

# child processes that run "python -m powerdex.cli" import the same package
# as the tests, also when pytest alone put src/ on the path
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def appendix():
    return appendix_game()


@pytest.fixture
def rng():
    return random.Random(20260808)


def frac(text) -> Fraction:
    return Fraction(text)
