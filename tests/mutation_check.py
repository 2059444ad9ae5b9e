"""Mutation check for the exact kernels and the checks around them.

Each mutant below is one exact text edit to a module under ``src/`` that
changes a result.  The script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, checks that the listed test
files pass on the unmutated copy, then applies each mutant alone and runs
its listed test files; a mutant survives when they all still pass.  It
exits 1 if any mutant survives, so a test that no longer kills its mutant
fails the check.  pytest does not collect this file (its name does not
start with ``test_``).  Run it from anywhere:

    python tests/mutation_check.py

pytest and hypothesis are imported once, here; each run is a forked child
that calls ``pytest.main`` and imports powerdex and the tests afresh from
the copy, one child at a time.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hypothesis  # noqa: F401  (imported once, before the children fork)
import pytest

ROOT = Path(__file__).resolve().parent.parent

INDICES = "src/powerdex/indices.py"
HIS = "src/powerdex/his.py"
INCREMENTS = "src/powerdex/increments.py"
STEPFUN = "src/powerdex/stepfun.py"
RATIONAL = "src/powerdex/rational.py"
CLI = "src/powerdex/cli.py"
COMMANDS = "src/powerdex/commands.py"
FAMILIES = "src/powerdex/families.py"
CHECK = "tests/test_his.py::test_check_local_increment_"
WEIGHTED = ("tests/test_stepgame_properties.py"
            "::test_weighted_boundary_averages_match_dense_table")

# (what the mutant breaks, file, exact old text, new text, test files)
MUTANTS = [
    ("an inner breakpoint's mass is not split over its two rows", INDICES,
     "    share[2:top:2] = mass[2:top:2]\n", "",
     [WEIGHTED]),
    ("the top breakpoint's mass is split like an inner one's", INDICES,
     "share[2:top:2] = mass[2:top:2]", "share[2:top + 1:2] = mass[2:top + 1:2]",
     [WEIGHTED]),
    ("a pinned face is read only by T = all its end axes", INDICES,
     "reads = [(t | 1 << i, x * s) for t, x in reads] + [\n"
     "                    (t, x * share[end]) for t, x in reads if share[end]]",
     "reads = [(t | 1 << i, x * s) for t, x in reads]",
     ["tests/test_indices.py"]),
    ("a free end axis weighs s instead of its share", INDICES,
     "(t, x * share[end]) for t, x in reads if share[end]]",
     "(t, x * s) for t, x in reads if share[end]]",
     [WEIGHTED]),
    ("a pinned face's gap lacks the 2^k shift", INDICES,
     "gap = (value << k) - total if end else total - (value << k)",
     "gap = value - total if end else total - value",
     ["tests/test_invariants.py"]),
    ("the lower end's gap has the upper end's sign", INDICES,
     "gap = (value << k) - total if end else total - (value << k)",
     "gap = (value << k) - total",
     ["tests/test_indices.py"]),
    ("a weightless end digit is no longer excused", INDICES,
     "ends = [(end, weightless - {end}) for end in (0, top)]",
     "ends = [(end, weightless) for end in (0, top)]",
     ["tests/test_indices.py"]),
    ("a box row loses its lower breakpoint's weight", INDICES,
     "weights = list(map(add, map(add, share[:top:2], share[1::2]), share[2::2]))",
     "weights = list(map(add, share[1::2], share[2::2]))",
     ["tests/test_indices.py"]),
    ("psi_point weighs the digit below alpha's", INDICES,
     "v, [0] * at + [1] + [0] * (2 * v.p - at)))",
     "v, [0] * max(at - 1, 0) + [1] + [0] * (2 * v.p - max(at - 1, 0))))",
     ["tests/test_axioms.py"]),
    ("_ends_table sums the zero-weight rows instead of the weighted ones",
     INDICES,
     "itertools.compress(enumerate(weights), weights)",
     "itertools.compress(enumerate(weights), map(not_, weights))",
     ["tests/test_indices.py"]),
    ("_ends_table's lower end reads the second row", INDICES,
     "last, first = contract(m - 1), contract(0)",
     "last, first = contract(m - 1), contract(1)",
     ["tests/test_indices.py"]),
    ("psi_from_c's ordering weight is s!(n-s)!", INDICES,
     "w = [0] + [factorial(s - 1) * factorial(n - s)",
     "w = [0] + [factorial(s) * factorial(n - s)",
     ["tests/test_indices.py"]),
    ("psi_from_c's efficiency total ignores the empty coalition", INDICES,
     "(factorial(n) * (nums[-1] - nums[0]) - sum(with_i)) // n",
     "(factorial(n) * nums[-1] - sum(with_i)) // n",
     ["tests/test_kernel_properties.py"
      "::test_kernel_matches_the_explicit_sum_and_is_efficient"]),
    ("jk_boundary_averages' denominator is k, not k - 1", INDICES,
     "v.k - 1))", "v.k))",
     ["tests/test_indices.py"]),
    ("the interval widths are the right breakpoints", INDICES,
     "mass[1::2] = map(sub, ends[1:], ends)", "mass[1::2] = ends[1:]",
     ["tests/test_indices.py"]),
    ("_box_shift's lower band takes the top band's width", HIS,
     "(-1, 1, ends[1])", "(-1, 1, den - ends[-2])",
     ["tests/test_his.py"]),
    ("the empty coalition's influence is read as a difference, always 0",
     INCREMENTS, "            if t:\n", "            if True:\n",
     [CHECK + "refuses_a_wrong_eps_for_the_grand_coalition"]),
    ("S = {} reads D's ends", INCREMENTS,
     "                         if inc.coalition]", "                         ]",
     [CHECK + "empty_and_grand_coalition_conventions"]),
    ("T = S is not checked outside D either", INCREMENTS,
     "elif grand or all(", "elif True or all(",
     [CHECK + "refuses_a_raise_beyond_the_claimed_domain"]),
    ("validate skips the covers at pinned faces", STEPFUN,
     "falling_covers(g, covers + pinned_covers(g))", "falling_covers(g, covers)",
     ["tests/test_acceptance.py::test_criterion_10_non_monotone_guard"]),
    ("validate's range check has no upper end", STEPFUN,
     "for k, x in stored if not 0 <= x <= den]", "for k, x in stored if not 0 <= x]",
     ["tests/test_stepfun.py"
      "::test_validate_flags_every_stored_value_outside_the_unit_range"]),
    ("validate skips the box covers", STEPFUN,
     "if all(nondecreasing_along(nums, s, p) for s in g.box_strides):",
     "if True:",
     ["tests/test_cli.py::test_invalid_game_exits_2"]),
    ("face_index counts an inner breakpoint below x once, not twice",
     "src/powerdex/evaluables.py", "                    digit += block >= a\n", "",
     ["tests/test_indices.py::test_psi_mc_matches_exact_on_step_games"]),
    ("estimate weighs a coalition of size s as one of size s - 1",
     "src/powerdex/montecarlo.py",
     "weight = weight[[t.bit_count() for t in range(coalitions)]]",
     "weight = weight[[t.bit_count() - 1 for t in range(coalitions)]]",
     ["tests/test_indices.py::test_psi_mc_weighted_mean_recovers_weights"]),
    ("the grid charge counts 2p, not 2p + 1, digits per axis", STEPFUN,
     "check_work((2 * p + 1) ** n", "check_work((2 * p) ** n",
     ["tests/test_budget.py"
      "::test_grid_check_admits_the_largest_grid_and_refuses_one_more_player"]),
    ("_in_key_order compares only how many keys a block holds",
     "src/powerdex/serialize.py",
     '"\\n".join(itertools.islice(keys, count)) == b',
     "len(list(itertools.islice(keys, count))) == count",
     ["tests/test_serialize.py::test_keys_out_of_block_order_give_the_same_game"]),
    ("with_values leaves the other faces over the old denominator", STEPFUN,
     "table = [x * (new // den) for x in table]", "table = list(table)",
     ["tests/test_his.py::test_replay_appendix_golden"]),
    ("with_values compares a face with the completion over the old "
     "denominator", STEPFUN,
     "if x << n == _completion(self, k) * up:",
     "if x << n == _completion(self, k):",
     ["tests/test_serialize.py::test_a_few_faces_on_a_large_grid_are_set_"
      "without_its_face_table"]),
    ("with_values builds the face table for faces alone", STEPFUN,
     "if not set(box_positions(n, self.p)).isdisjoint(updates):", "if True:",
     ["tests/test_serialize.py::test_a_few_faces_on_a_large_grid_are_set_"
      "without_its_face_table"]),
    ("_on_box holds only the box itself", HIS,
     "return all(abs(di - b) <= 1 for di, b in zip(d, e_bar))",
     "return all(abs(di - b) <= 0 for di, b in zip(d, e_bar))",
     ["tests/test_cli.py::test_his_apply_names_the_monotonicity_violations"]),
    ("row-major strides put the first coordinate fastest", RATIONAL,
     "return [size ** (n - 1 - i) for i in range(n)]",
     "return [size ** i for i in range(n)]",
     ["tests/test_rational.py"
      "::test_row_major_addressing_follows_product_order"]),
    ("positions steps every axis by the first one's stride", RATIONAL,
     "map(add, at, itertools.repeat(d * s)) for d in axis)]",
     "map(add, at, itertools.repeat(d * strides[0])) for d in axis)]",
     ["tests/test_rational.py"
      "::test_row_major_addressing_follows_product_order"]),
    ("S = {} walks the empty coalition alone", INCREMENTS,
     "for t in range(0 if degenerate else 1, 1 << n):",
     "for t in [0] if degenerate else range(1, 1 << n):",
     [CHECK + "refuses_an_open_cube_claim_that_moves_a_side"]),
    ("S = N takes any domain", INCREMENTS,
     "if grand and any(ab != (c, 1) for _, ab in inc.domain.intervals):",
     "if False:",
     [CHECK + "holds_the_grand_coalition_to_even_moves"]),
    ("S = N lets no nonempty T's influence move", INCREMENTS,
     "            elif grand:\n", "            elif False:\n",
     [CHECK + "holds_the_grand_coalition_to_even_moves"]),
    ("the build raises a box above its upper neighbours", HIS,
     "if b < band and vals[k + s] < target])", "if False])",
     ["tests/test_his.py"
      "::test_build_refuses_a_raise_above_an_upper_neighbour"]),
    ("stdout spells an exact number as a float", CLI,
     "default=format_rational))", "default=float))",
     ["tests/test_cli.py::test_pinned_stdout"]),
    ("product_power_game's exact path drops the denominator's exponent",
     FAMILIES, "prod(map(pow, (xi.denominator for xi in x), ints))",
     "prod(xi.denominator for xi in x)",
     ["tests/test_mc_properties.py"
      "::test_product_power_exact_is_the_fraction_product"]),
    ("the axiom battery is charged one game, whatever --random", COMMANDS,
     "check_work((args.random + 2) * ax.battery_steps(args.players, 3),",
     "check_work(ax.battery_steps(args.players, 3),",
     ["tests/test_budget.py::test_axiom_battery_admits_its_largest_draw_and_"
      "refuses_one_more_game"]),
]


def pytest_fails(work: Path, tests: list[str]) -> bool:
    """Run the test files of the copy in a forked child; True when one
    fails, False when all pass, and an error on any other pytest outcome.
    The child's output goes to a log that is shown only on an error."""
    log = work / "pytest.log"
    pid = os.fork()
    if pid == 0:  # the child: it must not return into the parent's code
        code = 3
        try:
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            # one hypothesis seed, so that a mutant is killed or survives
            # on every run alike; hypothesis' plugin module was imported
            # before pytest could mark it for assertion rewriting, which
            # pytest warns of
            code = pytest.main([
                "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                "-W", "ignore::pytest.PytestAssertRewriteWarning", *tests])
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(int(code))
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code not in (0, 1):
        sys.exit(f"pytest exited {code} on {tests}:\n"
                 f"{log.read_text()[-4000:]}")
    return code == 1


def main() -> int:
    for _, path, old, _, _ in MUTANTS:
        found = (ROOT / path).read_text().count(old)
        assert found == 1, f"{path}: the old text occurs {found} times: {old!r}"
    assert "powerdex" not in sys.modules  # each child imports it afresh
    # no bytecode cache: a mutant and the restored text may share a size and
    # an mtime second, and a stale .pyc would then run the wrong text
    sys.dont_write_bytecode = True
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        # the copy, not an installed powerdex, is what the tests import,
        # and what the processes they start import
        os.chdir(work)
        sys.path[:0] = [str(work / "src")]
        os.environ.update(PYTHONPATH=str(work / "src"),
                          PYTHONDONTWRITEBYTECODE="1")
        found = importlib.util.find_spec("powerdex").origin
        assert Path(found).resolve().is_relative_to(work.resolve()), found
        listed = sorted({t for *_, tests in MUTANTS for t in tests})
        if pytest_fails(work, listed):
            sys.exit(f"the listed tests fail without a mutant: {listed}")
        survivors = []
        for what, path, old, new, tests in MUTANTS:
            original = (work / path).read_text()
            (work / path).write_text(original.replace(old, new))
            took = time.perf_counter()
            killed = pytest_fails(work, tests)
            took = time.perf_counter() - took
            (work / path).write_text(original)
            print(f"{'killed' if killed else 'SURVIVED'} in {took:.1f} s: "
                  f"{what} ({path}; {' '.join(tests)})", flush=True)
            if not killed:
                survivors.append(what)
        os.chdir(ROOT)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
