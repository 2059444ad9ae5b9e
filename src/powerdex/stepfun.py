"""Step functions on rectangular pavings of the unit cube.

A grid is a strictly increasing breakpoint vector alpha = (0, a_1, ..., 1).
Faces of the paving are encoded with doubled integer coordinates
d_i in {0, ..., 2p}: even d_i means coordinate i is pinned to the breakpoint
alpha[d_i/2], odd d_i means it ranges over the open interval
(alpha[(d_i-1)/2], alpha[(d_i+1)/2]).  The face dimension is the number of
odd entries; all-odd faces are the open boxes.

The doubled encoding makes the "exists x <= y" comparability between two
faces coincide with componentwise <= on the encodings (points are closed,
intervals open), so monotonicity reduces to cover relations d -> d + e_i.

A step game stores one form, integer numerators over one denominator: every
box value in row-major order (first coordinate slowest), and the overrides,
the faces whose value differs from the regular completion of the boxes, by
row-major face position.  The completion gives the all-zeros corner 0, the
all-ones corner 1 and every other face the mean of its adjacent boxes.  A
face is read in one of two ways, both in integers:

- ``face_numerator(g, k)`` reads one face from its adjacent boxes; the
  point readers use it (``validate`` and the box increments);
- ``face_table(g)`` builds every face once per game, by the per-axis stencil
  of the completion; the paths that walk every face use it.

A grid is admitted when its (2p+1)^n faces fit the work budget
(``check_grid``), so every path that walks all faces is bounded by that one
comparison: n <= 13 players for p = 1, n <= 9 for p = 2, n <= 7 for p = 3.

The transforms that no index request runs (coarsen, permute, join and
meet, building a game from its face table) are in ``transforms``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import NamedTuple, Sequence

from .budget import check_work
from .rational import (check_players, digits_of, index_of, nondecreasing_along,
                       on_one_denominator, positions, strides)

Face = tuple[int, ...]

TAG_RAW = "raw"
TAG_SEMI_REGULAR = "semi_regular"
TAG_REGULAR = "regular"
_TAGS = (TAG_RAW, TAG_SEMI_REGULAR, TAG_REGULAR)


class Discretization:
    """Breakpoints 0 = alpha_0 < alpha_1 < ... < alpha_p = 1."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: Sequence) -> None:
        alpha = tuple(Fraction(a) for a in alpha)
        if len(alpha) < 2:
            raise ValueError("need at least the breakpoints 0 and 1")
        if alpha[0] != 0 or alpha[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(alpha, alpha[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        self.alpha: tuple[Fraction, ...] = alpha

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Discretization) and self.alpha == other.alpha

    def __hash__(self) -> int:
        return hash(self.alpha)

    def __repr__(self) -> str:
        return f"Discretization(alpha={self.alpha!r})"

    @property
    def p(self) -> int:
        return len(self.alpha) - 1

    def is_refinement_of(self, other: "Discretization") -> bool:
        return set(other.alpha) <= set(self.alpha)

    def merge(self, other: "Discretization") -> "Discretization":
        return Discretization(tuple(sorted(set(self.alpha) | set(other.alpha))))


def uniform_grid(l: int) -> Discretization:
    """alpha = (0, 1/l, ..., 1)."""
    check_work(l + 1, f"a grid of {l + 1:,} breakpoints")
    return Discretization(tuple(Fraction(h, l) for h in range(l + 1)))


def check_grid(n: int, p: int) -> None:
    """Refuse n players on p intervals per axis unless n is a valid player
    count and the (2p+1)^n faces fit the work budget; called before
    anything grid-sized is built."""
    check_players(n)
    check_work((2 * p + 1) ** n, f"a grid of {2 * p + 1}^{n} faces")


def check_tag(tag: str) -> None:
    if tag not in _TAGS:
        raise ValueError(f"unknown tag {tag!r}")


def face_center(disc: Discretization, d: Face) -> tuple[Fraction, ...]:
    # doubled coordinate d spans alpha[d // 2] .. alpha[(d + 1) // 2]
    return tuple((disc.alpha[di // 2] + disc.alpha[(di + 1) // 2]) / 2
                 for di in d)


def box_keys(n: int, p: int) -> list[Face]:
    """Every full-dimensional box of the grid, in row-major order."""
    return list(itertools.product(range(1, 2 * p, 2), repeat=n))


def box_positions(n: int, p: int) -> list[int]:
    """The row-major face position of every box, in row-major box order."""
    return positions([range(1, 2 * p, 2)] * n, strides(2 * p + 1, n))


def box_numerators(boxes: Mapping[Face, Fraction], n: int,
                   p: int) -> tuple[list[int], int]:
    """The values of a box table that holds every box of an admitted grid,
    in row-major order, as numerators over their least common denominator."""
    keys = box_keys(n, p)
    if len(boxes) != len(keys) or not all(map(boxes.__contains__, keys)):
        raise ValueError("boxes table must cover every full-dimensional box")
    return on_one_denominator(list(map(boxes.__getitem__, keys)))


def box_faces(e_bar: Face) -> list[Face]:
    """All 3^n faces of a box, in descending lexicographic order."""
    return list(itertools.product(*((b + 1, b, b - 1) for b in e_bar)))


def adjacent_box_sum(g: StepGame, d: Sequence[int]) -> tuple[int, int]:
    """The sum of g's 2^k boxes adjacent to the face with digits d, and k,
    the number of its digits on inner breakpoints."""
    top, at, offsets, nums = 2 * g.p, 0, [0], g.nums
    for di, up in zip(d, g.box_strides):
        # the lower adjacent box on this axis; an inner breakpoint has a
        # second one a row up
        at += (di - (di > 0)) // 2 * up
        if di % 2 == 0 and 0 < di < top:
            offsets += [o + up for o in offsets]
    return sum(nums[at + o] for o in offsets), len(offsets).bit_length() - 1


def _completion(g: StepGame, k: int) -> int:
    """The regular completion of g's boxes at face position k, over
    ``g.den << g.n``."""
    if k == 0 or k == g.corner:
        return g.den << g.n if k else 0
    total, j = adjacent_box_sum(g, digits_of(k, 2 * g.p + 1, g.strides))
    return total << (g.n - j)


def _completion_table(nums: list[int], den: int, n: int, p: int) -> list[int]:
    """The regular completion of the row-major boxes ``nums`` / ``den`` at
    every face, row-major, as numerators over den * 2^n.

    One stencil pass per axis, each doubling the values: an odd face row
    copies its box row, doubled; an inner even row sums its two neighbours;
    an end row copies the end box row, doubled.  Then the two corners.
    """
    t = nums
    for _ in range(n):
        # expand the last axis, whose box row h is the slice t[h::p], and
        # put its 2p + 1 face rows in front: after n passes the axes are
        # back in their order
        rows = [t[h::p] for h in range(p)]
        twice = [list(map(add, r, r)) for r in rows]
        faces = [twice[0], twice[0]]
        for h in range(1, p):
            faces += [list(map(add, rows[h - 1], rows[h])), twice[h]]
        t = list(itertools.chain(*faces, twice[-1]))
    t[0], t[-1] = 0, den << n
    return t


class StepGame:
    """A step function stored as integer numerators over its least
    denominator ``den``: ``nums``, every full-dimensional box in row-major
    order, and ``overrides``, only the faces whose value differs from the
    regular completion of the boxes, by row-major face position (``strides``
    and ``box_strides`` address the two tables; ``corner`` is the all-ones
    corner's), so equal functions on one grid store equal forms.

    The constructor takes that form and reduces it to the least
    denominator.  It does not compare an override with the completion:
    each producer hands it only faces off the completion.  Arbitrary face
    values go through ``with_values``, which drops the ones on the
    completion; ``make_regular_step`` takes a box mapping of ``Fraction``.
    """

    def __init__(self, disc: Discretization, n: int, nums: list[int],
                 den: int = 1, overrides: dict[int, int] | None = None,
                 tag: str = TAG_RAW):
        check_grid(n, disc.p)
        check_tag(tag)
        if len(nums) != disc.p ** n:
            raise ValueError(f"{len(nums)} box values for {disc.p ** n} boxes")
        self.disc, self.n, self.p, self.tag = disc, n, disc.p, tag
        self.strides = strides(2 * disc.p + 1, n)
        self.box_strides = strides(disc.p, n)
        self.corner = (2 * disc.p + 1) ** n - 1
        overrides = {} if overrides is None else overrides
        if overrides and (set(map(type, overrides)) != {int} or min(overrides)
                          < 0 or max(overrides) > self.corner):
            bad = next(k for k in overrides
                       if type(k) is not int or not 0 <= k <= self.corner)
            raise ValueError(f"face {bad} invalid for this grid")
        boxes = set(box_positions(n, disc.p)) if overrides else set()
        for k in boxes.intersection(overrides):
            raise ValueError(f"face {self.face(k)} is a box: its value goes in nums")
        common = gcd(den, *nums, *overrides.values())
        if common > 1:
            nums = [x // common for x in nums]
            overrides = {k: x // common for k, x in overrides.items()}
            den //= common
        self.nums, self.den, self.overrides = nums, den, overrides
        self._table = None

    def face(self, k: int) -> Face:
        """The doubled coordinates of the face at row-major position k."""
        return tuple(digits_of(k, 2 * self.p + 1, self.strides))

    def position(self, d: Face) -> int:
        """The row-major position of face d: its digits must come back from
        it, else d is not a face of the grid."""
        k = index_of(d, self.strides) if type(d) is tuple else -1
        if k < 0 or self.face(k) != d:
            raise ValueError(f"face {d} invalid for this grid")
        return k

    def box(self, b: Face) -> Fraction:
        """The value of the full-dimensional box b."""
        return Fraction(self.nums[index_of([bi // 2 for bi in b], self.box_strides)],
                        self.den)

    @property
    def values(self) -> Mapping[Face, Fraction]:
        """Every face's value, each read on its own when looked up.
        perfbench's workload generator reads games this way; the package
        reads ``regular_completion`` and ``face_table``."""
        return _FaceReader(self)

    def with_tag(self, tag: str) -> "StepGame":
        return StepGame(self.disc, self.n, self.nums, self.den, self.overrides,
                        tag)

    def with_values(self, updates: Mapping[Face, Fraction]) -> "StepGame":
        """The same game with the given face values; every other face keeps
        its value.  A value on a box key moves that box alone: its other
        faces keep their values, as overrides where the moved box's
        completion no longer gives them.  No face equal to the new
        completion is stored."""
        return self._with_positions({self.position(d): v
                                     for d, v in updates.items()})

    def _with_positions(self, updates: Mapping[int, Fraction]) -> "StepGame":
        """``with_values`` with each face given by its row-major position.
        Updates on faces alone touch only those faces' overrides; once one
        lands on a box, the face table with the values is read back."""
        n, dens = self.n, {v.denominator for v in updates.values()}
        if not set(box_positions(n, self.p)).isdisjoint(updates):
            from .transforms import from_face_table
            table, den = face_table(self)
            new = lcm(den, *dens)
            table = [x * (new // den) for x in table]
            for k, v in updates.items():
                table[k] = v.numerator * (new // v.denominator)
            return from_face_table(self.disc, n, table, new, self.tag)
        new = lcm(self.den, *dens)
        up = new // self.den
        overrides = {k: x * up for k, x in self.overrides.items()}
        for k, v in updates.items():
            overrides[k] = x = v.numerator * (new // v.denominator)
            if x << n == _completion(self, k) * up:
                del overrides[k]
        return StepGame(self.disc, n, [x * up for x in self.nums], new,
                        overrides, self.tag)

    def same_values(self, other: "StepGame") -> bool:
        """Whether both games take the same value at every face of one
        grid, whatever their tags."""
        return (self.n == other.n and self.disc == other.disc
                and self.den == other.den and self.nums == other.nums
                and self.overrides == other.overrides)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, StepGame) and self.tag == other.tag
                and self.same_values(other))


class _FaceReader(Mapping):
    """The read-only mapping ``StepGame.values``: it stores nothing."""

    def __init__(self, g: StepGame):
        self._g = g

    def __getitem__(self, d: Face) -> Fraction:
        return regular_completion(self._g, d)

    def __iter__(self):
        return itertools.product(range(2 * self._g.p + 1), repeat=self._g.n)

    def __len__(self) -> int:
        return (2 * self._g.p + 1) ** self._g.n


def face_numerator(g: StepGame, k: int) -> int:
    """The value of g at face position k as a numerator over ``g.den <<
    g.n``: its override, or the regular completion of its adjacent boxes."""
    x = g.overrides.get(k)
    return _completion(g, k) if x is None else x << g.n


def regular_completion(g: StepGame, d: Face) -> Fraction:
    """The value of g at face d, read on its own: its override, or the
    regular completion of its adjacent boxes."""
    return Fraction(face_numerator(g, g.position(d)), g.den << g.n)


def face_table(g: StepGame) -> tuple[list[int], int]:
    """The value of g at every face in row-major order, as numerators over
    the returned denominator ``g.den << g.n``: the completion stencil, then
    the overrides.  Built on first call and kept; callers must not change
    the list."""
    if g._table is None:
        g._table = _completion_table(g.nums, g.den, g.n, g.p)
        for k, x in g.overrides.items():
            g._table[k] = x << g.n
    return g._table, g.den << g.n


def locate_face(disc: Discretization, x: Sequence) -> Face:
    """The unique face whose region contains the point x."""
    d = []
    for xi in x:
        xi = Fraction(xi)
        if xi < 0 or xi > 1:
            raise ValueError(f"coordinate {xi} outside [0, 1]")
        h = bisect_left(disc.alpha, xi)
        d.append(2 * h if disc.alpha[h] == xi else 2 * h - 1)
    return tuple(d)


def evaluate_step(g: StepGame, x: Sequence) -> Fraction:
    """Value of the step function at a point of the unit cube."""
    if len(x) != g.n:
        raise ValueError(f"point has {len(x)} coordinates, game has {g.n}")
    return regular_completion(g, locate_face(g.disc, x))


def make_regular_step(disc: Discretization, box_values: dict[Face, Fraction],
                      n: int) -> StepGame:
    """Regular step game from values on the full-dimensional boxes."""
    table = dict(zip(box_values, map(Fraction, box_values.values())))
    for v in table.values():
        if v < 0 or v > 1:
            raise ValueError(f"box value {v} outside [0, 1]")
    check_grid(n, disc.p)
    return StepGame(disc, n, *box_numerators(table, n, disc.p),
                    tag=TAG_REGULAR)


def zero_game(n: int, disc: Discretization | None = None) -> StepGame:
    """The game worth 1 at the all-ones corner and 0 everywhere else."""
    if disc is None:
        disc = Discretization((Fraction(0), Fraction(1)))
    check_grid(n, disc.p)
    return StepGame(disc, n, [0] * disc.p ** n, tag=TAG_REGULAR)


def refine(g: StepGame, disc2: Discretization) -> StepGame:
    """The same function re-indexed on a finer grid (raw tag)."""
    if not disc2.is_refinement_of(g.disc):
        raise ValueError("target grid must contain all breakpoints of the source")
    check_grid(g.n, disc2.p)
    # each fine coordinate lies in the coarse face holding its center
    coord_map = locate_face(g.disc, face_center(disc2, range(2 * disc2.p + 1)))
    # the completion of the re-indexed boxes agrees with the old completion
    # on every fine face, so only the fine faces inside an override carry it
    inside = [[d2 for d2, d in enumerate(coord_map) if d == d1]
              for d1 in range(2 * g.p + 1)]
    at = positions([[d // 2 for d in coord_map[1::2]]] * g.n, g.box_strides)
    fine = strides(2 * disc2.p + 1, g.n)
    overrides = {k2: x for k, x in g.overrides.items() for k2 in positions(
        map(inside.__getitem__, digits_of(k, 2 * g.p + 1, g.strides)), fine)}
    return StepGame(disc2, g.n, [g.nums[k] for k in at], g.den, overrides)


class ValidationReport(NamedTuple):
    """Outcome of the structural checks on a step game."""

    monotone: bool
    tag_ok: bool
    in_range: bool
    violations: list[str]

    @property
    def ok(self) -> bool:
        return self.monotone and self.tag_ok and self.in_range


class IncrementError(ValueError):
    """An increment would break monotonicity or violates a precondition."""


def pinned_covers(g: StepGame) -> list[tuple[int, int]]:
    """The cover pairs k -> k + stride of face positions that touch a pinned
    face (an override or a cube corner): for each pinned face in order, its
    covers upward, then its covers from below by faces that are not pinned."""
    top, fs = 2 * g.p, g.strides
    pinned = {*g.overrides, 0, g.corner}
    # up to n covers from above and n from below per pinned face
    check_work(2 * g.n * len(pinned),
               f"listing the cover pairs of {len(pinned):,} pinned faces")
    covers = []
    for k in sorted(pinned):
        d = digits_of(k, top + 1, fs)
        covers += [(k, k + s) for di, s in zip(d, fs) if di < top]
        covers += [(k - s, k) for di, s in zip(d, fs)
                   if di and k - s not in pinned]
    return covers


def falling_covers(g: StepGame, covers) -> list[str]:
    """Describe each cover pair of face positions on which the game falls."""
    den, out = g.den << g.n, []
    for lo, hi in covers:
        a, b = face_numerator(g, lo), face_numerator(g, hi)
        if a > b:
            out.append(f"value {Fraction(a, den)} at {g.face(lo)} exceeds "
                       f"{Fraction(b, den)} at {g.face(hi)}")
    return out


def validate(g: StepGame) -> ValidationReport:
    """Check monotonicity, the claimed regularity tag and the value range.

    Cover pairs d -> d + e_i suffice.  Faces that follow the regular
    completion take means of box values and keep every cover pair between
    them once the box covers b -> b + 2e_i hold, so only boxes, box covers
    and pairs touching a pinned face (override or corner) are checked.
    The boxes are checked as integer numerators along each axis of the
    row-major box table; a pair is described only when the check fails.
    """
    n, p, top, fs = g.n, g.p, 2 * g.p, g.strides
    nums, den = g.nums, g.den
    boxes_in_range = 0 <= min(nums) and max(nums) <= den
    stored = itertools.chain(
        () if boxes_in_range else zip(box_positions(n, p), nums),
        g.overrides.items())
    violations = [f"value {Fraction(x, den)} at face {g.face(k)} outside [0, 1]"
                  for k, x in stored if not 0 <= x <= den]
    in_range = not violations

    if all(nondecreasing_along(nums, s, p) for s in g.box_strides):
        covers = []
    else:
        covers = [(k, k + 2 * s) for k in box_positions(n, p)
                  for d, s in zip(digits_of(k, top + 1, fs), fs) if d + 2 < top]
    broken = [f"monotonicity: {v}"
              for v in falling_covers(g, covers + pinned_covers(g))]
    # regular games follow the completion on every face, semi-regular ones
    # on every face off the cube boundary
    off_tag = [k for k in sorted(g.overrides) if g.tag == TAG_REGULAR or (
        g.tag == TAG_SEMI_REGULAR
        and all(0 < d < top for d in digits_of(k, top + 1, fs)))]
    violations += broken + [
        f"{g.tag}: face {g.face(k)} has {Fraction(g.overrides[k], den)}, the regular "
        f"completion gives {Fraction(_completion(g, k), den << n)}"
        for k in off_tag]
    return ValidationReport(not broken, not off_tag, in_range, violations)
