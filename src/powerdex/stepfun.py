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
the faces whose value differs from the regular completion of the boxes.
The completion gives the all-zeros corner 0, the all-ones corner 1 and
every other face the mean of its adjacent boxes.  A face is read in one of
two ways, both in integers:

- ``regular_completion(g, d)`` reads one face from its adjacent boxes; the
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
from math import gcd, lcm, prod
from operator import add, mul
from typing import NamedTuple, Sequence

from .budget import check_work
from .rational import check_players, nondecreasing_along, on_one_denominator

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


def box_index(b: Face, p: int) -> int:
    """The position of box b in the row-major box table."""
    k = 0
    for bi in b:
        k = k * p + bi // 2
    return k


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


def _boxes_among(faces: Mapping, n: int, top: int) -> list[Face]:
    """The keys of ``faces`` that are boxes, whose coordinates (so their
    product) are all odd; refuses the first key that is not a face of n
    coordinates in 0..top."""
    # every key's coordinates at once; a malformed key adds -1
    coords = set(itertools.chain.from_iterable(
        d if isinstance(d, tuple) and len(d) == n else (-1,) for d in faces))
    if coords and (min(coords) < 0 or max(coords) > top):
        bad = next(d for d in faces if not isinstance(d, tuple) or len(d) != n
                   or min(d) < 0 or max(d) > top)
        raise ValueError(f"face {bad} invalid for this grid")
    return list(itertools.compress(faces, map((1).__and__, map(prod, faces))))


def adjacent_box_sum(nums: Sequence[int], p: int, d: Face) -> tuple[int, int]:
    """The sum of the 2^k boxes ``nums`` adjacent to face d, and k, the
    number of coordinates of d on inner breakpoints."""
    n, top = len(d), 2 * p
    at, offsets = 0, [0]
    for i, di in enumerate(d):
        # the lower adjacent box on this axis; an inner breakpoint has a
        # second one a row up
        at = at * p + (di - (di > 0)) // 2
        if di % 2 == 0 and 0 < di < top:
            up = p ** (n - 1 - i)
            offsets += [o + up for o in offsets]
    return sum(nums[at + o] for o in offsets), len(offsets).bit_length() - 1


def _completion(nums: Sequence[int], den: int, p: int, d: Face) -> int:
    """The regular completion of ``nums`` / ``den`` at face d, over den * 2^n."""
    if not any(d) or min(d) == 2 * p:
        return den << len(d) if any(d) else 0
    total, k = adjacent_box_sum(nums, p, d)
    return total << (len(d) - k)


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
    regular completion of the boxes, so equal functions on one grid store
    equal forms.

    The constructor takes that form and reduces it to the least
    denominator.  It does not compare an override with the completion:
    each producer hands it only faces off the completion.  Arbitrary face
    values go through ``with_values``, which drops the ones on the
    completion; ``make_regular_step`` takes a box mapping of ``Fraction``.
    """

    def __init__(self, disc: Discretization, n: int, nums: list[int],
                 den: int = 1, overrides: dict[Face, int] | None = None,
                 tag: str = TAG_RAW):
        check_grid(n, disc.p)
        check_tag(tag)
        if len(nums) != disc.p ** n:
            raise ValueError(f"{len(nums)} box values for {disc.p ** n} boxes")
        overrides = {} if overrides is None else overrides
        for b in _boxes_among(overrides, n, 2 * disc.p):
            raise ValueError(f"face {b} is a box: its value goes in nums")
        common = gcd(den, *nums, *overrides.values())
        if common > 1:
            nums = [x // common for x in nums]
            overrides = {d: x // common for d, x in overrides.items()}
            den //= common
        self.disc, self.n, self.tag = disc, n, tag
        self.nums, self.den, self.overrides = nums, den, overrides
        self._table = None

    @property
    def p(self) -> int:
        return self.disc.p

    def box(self, b: Face) -> Fraction:
        """The value of the full-dimensional box b."""
        return Fraction(self.nums[box_index(b, self.p)], self.den)

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
        completion no longer gives them.  Of the faces touched, those equal
        to the new completion are dropped."""
        n, p = self.n, self.p
        boxes = _boxes_among(updates, n, 2 * p)
        # over den << n every face value of this game is a whole numerator
        den = lcm(self.den, *{v.denominator for v in updates.values()}) << n
        up = den // self.den
        nums = [x * up for x in self.nums]
        faces = {d: x * up for d, x in self.overrides.items()}
        faces.update((d, v.numerator * (den // v.denominator))
                     for d, v in updates.items())
        moved = {}
        for b in boxes:
            x, k = faces.pop(b), box_index(b, p)
            if x != nums[k]:
                moved[b] = nums[k] = x
        for f in ({f for b in moved for f in box_faces(b)}
                  - faces.keys() - moved.keys()):
            faces[f] = face_numerator(self, f) * (up >> n)
        touched = set(updates).union(*map(box_faces, moved))
        return StepGame(self.disc, n, nums, den, {
            d: x for d, x in faces.items()
            if d not in touched or x << n != _completion(nums, den, p, d)},
            self.tag)

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


def face_numerator(g: StepGame, d: Face) -> int:
    """The value of g at face d as a numerator over ``g.den << g.n``: its
    override, or the regular completion of its adjacent boxes."""
    x = g.overrides.get(d)
    return _completion(g.nums, g.den, g.p, d) if x is None else x << g.n


def regular_completion(g: StepGame, d: Face) -> Fraction:
    """The value of g at face d, read on its own: its override, or the
    regular completion of its adjacent boxes."""
    return Fraction(face_numerator(g, d), g.den << g.n)


def face_table(g: StepGame) -> tuple[list[int], int]:
    """The value of g at every face in row-major order, as numerators over
    the returned denominator ``g.den << g.n``: the completion stencil, then
    the overrides.  Built on first call and kept; callers must not change
    the list."""
    if g._table is None:
        n, side = g.n, 2 * g.p + 1
        strides = [side ** (n - 1 - i) for i in range(n)]
        table = _completion_table(g.nums, g.den, n, g.p)
        for d, x in g.overrides.items():
            table[sum(map(mul, d, strides))] = x << n
        g._table = table
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
    at = [0]
    for _ in range(g.n):
        at = [k * g.p + coord_map[b] // 2 for k in at
              for b in range(1, 2 * disc2.p, 2)]
    overrides = {d2: x for d, x in g.overrides.items()
                 for d2 in itertools.product(*(inside[di] for di in d))}
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


def _step(d: Face, i: int, by: int) -> Face:
    return d[:i] + (d[i] + by,) + d[i + 1:]


def pinned_covers(g: StepGame) -> list[tuple[Face, Face]]:
    """The cover pairs d -> d + e_i that touch a pinned face (an override
    or a cube corner): for each pinned face in sorted order, its covers
    upward, then its covers from below by faces that are not pinned."""
    n, top = g.n, 2 * g.p
    pinned = set(g.overrides) | {(0,) * n, (top,) * n}
    # up to n covers from above and n from below per pinned face
    check_work(2 * n * len(pinned),
               f"listing the cover pairs of {len(pinned):,} pinned faces")
    covers = []
    for d in sorted(pinned):
        covers += [(d, _step(d, i, 1)) for i in range(n) if d[i] < top]
        covers += [(_step(d, i, -1), d) for i in range(n)
                   if d[i] > 0 and _step(d, i, -1) not in pinned]
    return covers


def falling_covers(g: StepGame, covers) -> list[str]:
    """A description of each cover pair on which the game falls."""
    den, out = g.den << g.n, []
    for lo, hi in covers:
        a, b = face_numerator(g, lo), face_numerator(g, hi)
        if a > b:
            out.append(f"value {Fraction(a, den)} at {lo} exceeds "
                       f"{Fraction(b, den)} at {hi}")
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
    n, p, top = g.n, g.p, 2 * g.p
    nums, den = g.nums, g.den
    boxes_in_range = 0 <= min(nums) and max(nums) <= den
    stored = itertools.chain(
        () if boxes_in_range else zip(box_keys(n, p), nums),
        g.overrides.items())
    violations = [f"value {Fraction(x, den)} at face {d} outside [0, 1]"
                  for d, x in stored if not 0 <= x <= den]
    in_range = not violations

    if all(nondecreasing_along(nums, p ** (n - 1 - i), p) for i in range(n)):
        covers = []
    else:
        covers = [(b, _step(b, i, 2)) for b in box_keys(n, p) for i in range(n)
                  if b[i] + 2 < top]
    broken = [f"monotonicity: {v}"
              for v in falling_covers(g, covers + pinned_covers(g))]
    # regular games follow the completion on every face, semi-regular ones
    # on every face off the cube boundary
    off_tag = [d for d in sorted(g.overrides) if g.tag == TAG_REGULAR or (
        g.tag == TAG_SEMI_REGULAR and not any(di in (0, top) for di in d))]
    violations += broken + [
        f"{g.tag}: face {d} has {Fraction(g.overrides[d], den)}, the regular "
        f"completion gives {Fraction(_completion(nums, den, p, d), den << n)}"
        for d in off_tag]
    return ValidationReport(not broken, not off_tag, in_range, violations)
