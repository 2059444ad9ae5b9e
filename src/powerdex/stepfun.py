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

A step game stores its JSON form: every box value, plus the faces whose
value differs from the regular completion of the boxes; every other face
value is derived on access.  A grid is admitted when its (2p+1)^n faces fit
the work budget (``check_grid``), so every path that walks all faces is
bounded by that one comparison: n <= 13 players for p = 1, n <= 9 for
p = 2, n <= 7 for p = 3.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

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


def face_center(disc: Discretization, d: Face) -> tuple[Fraction, ...]:
    # doubled coordinate d spans alpha[d // 2] .. alpha[(d + 1) // 2]
    return tuple((disc.alpha[di // 2] + disc.alpha[(di + 1) // 2]) / 2
                 for di in d)


def adjacent_boxes(d: Face, p: int) -> list[Face]:
    """E(d): the full-dimensional boxes whose closure contains face d."""
    return list(itertools.product(*(
        (di,) if di % 2 else (1,) if di == 0 else
        (di - 1,) if di == 2 * p else (di - 1, di + 1) for di in d)))


def box_faces(e_bar: Face) -> list[Face]:
    """All 3^n faces of a box, in descending lexicographic order."""
    return [tuple(f) for f in itertools.product(
        *((b + 1, b, b - 1) for b in e_bar))]


def regular_completion(boxes: Mapping[Face, Fraction], p: int,
                       d: Face) -> Fraction:
    """The value the regular completion gives face d: 0 at the all-zeros
    corner, 1 at the all-ones corner, the mean of the adjacent boxes
    elsewhere."""
    if not any(d):
        return Fraction(0)
    if all(di == 2 * p for di in d):
        return Fraction(1)
    vals = [boxes[b] for b in adjacent_boxes(d, p)]
    if len(vals) == 1:
        return vals[0]
    # one integer sum over a common denominator, not one Fraction per term
    nums, den = on_one_denominator(vals)
    return Fraction(sum(nums), den * len(vals))


class FaceValues(Mapping):
    """Read-only value of a step game at every face, derived on access."""

    def __init__(self, g: "StepGame"):
        self._g = g

    def __getitem__(self, d: Face) -> Fraction:
        g = self._g
        val = g.faces.get(d)
        if val is None:
            val = g.boxes.get(d)
        if val is None:
            if d not in self:
                raise KeyError(d)
            val = regular_completion(g.boxes, g.p, d)
        return val

    def __contains__(self, d: object) -> bool:
        return (isinstance(d, tuple) and len(d) == self._g.n
                and min(d) >= 0 and max(d) <= 2 * self._g.p)

    def __iter__(self) -> Iterator[Face]:
        return itertools.product(range(2 * self._g.p + 1), repeat=self._g.n)

    def __len__(self) -> int:
        return (2 * self._g.p + 1) ** self._g.n

    def __eq__(self, other: object) -> bool:
        # the stored form is canonical: equal tables store equal dicts
        u = self._g
        if isinstance(other, FaceValues) and (u.n, u.p) == (other._g.n, other._g.p):
            return (u.boxes, u.faces) == (other._g.boxes, other._g.faces)
        return super().__eq__(other)


class StepGame:
    """A step function stored as ``boxes`` (every full-dimensional box) and
    ``faces`` (only the faces whose value differs from the regular completion
    of the boxes, so equal functions store equal dicts).  A ``faces`` entry
    on a box key moves that box; the box's other faces keep their values.
    """

    def __init__(self, disc: Discretization, n: int,
                 boxes: Mapping[Face, Fraction],
                 faces: Mapping[Face, Fraction] | None = None,
                 tag: str = TAG_RAW):
        check_grid(n, disc.p)
        if tag not in _TAGS:
            raise ValueError(f"unknown tag {tag!r}")
        p = disc.p
        if len(boxes) != p ** n or not all(
                len(b) == n and all(bi % 2 == 1 and 0 < bi < 2 * p for bi in b)
                for b in boxes):
            raise ValueError("boxes table must cover every full-dimensional box")
        self.disc, self.n, self.tag = disc, n, tag
        self.boxes, self.faces = dict(boxes), {}
        self.values = FaceValues(self)
        overrides = dict(faces or {})
        for d in overrides:
            if d not in self.values:
                raise ValueError(f"face {d} invalid for this grid")
        moved = {b: v for b, v in overrides.items()
                 if b in self.boxes and v != self.boxes[b]}
        for f in {f for b in moved for f in box_faces(b)} - overrides.keys():
            overrides[f] = self.values[f]
        self.boxes.update(moved)
        self.faces = {d: v for d, v in overrides.items()
                      if d not in self.boxes and v != self.values[d]}

    @property
    def p(self) -> int:
        return self.disc.p

    def with_tag(self, tag: str) -> "StepGame":
        return StepGame(self.disc, self.n, self.boxes, self.faces, tag)

    def with_values(self, updates: Mapping[Face, Fraction]) -> "StepGame":
        """The same game with the given face values; every other face keeps
        its value."""
        return StepGame(self.disc, self.n, self.boxes,
                        {**self.faces, **updates}, self.tag)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, StepGame) and self.n == other.n
                and self.disc == other.disc and self.tag == other.tag
                and self.boxes == other.boxes and self.faces == other.faces)


def locate_face(disc: Discretization, x: Sequence) -> Face:
    """The unique face whose region contains the point x."""
    d = []
    for xi in x:
        xi = Fraction(xi)
        if xi < 0 or xi > 1:
            raise ValueError(f"coordinate {xi} outside [0, 1]")
        h = bisect_left(disc.alpha, xi)
        if disc.alpha[h] == xi:
            d.append(2 * h)
        else:
            d.append(2 * h - 1)
    return tuple(d)


def evaluate_step(g: StepGame, x: Sequence) -> Fraction:
    """Value of the step function at a point of the unit cube."""
    if len(x) != g.n:
        raise ValueError(f"point has {len(x)} coordinates, game has {g.n}")
    return g.values[locate_face(g.disc, x)]


def make_regular_step(disc: Discretization, box_values: dict[Face, Fraction],
                      n: int) -> StepGame:
    """Regular step game from values on the full-dimensional boxes."""
    table: dict[Face, Fraction] = {}
    for b, v in box_values.items():
        v = Fraction(v)
        if v < 0 or v > 1:
            raise ValueError(f"box value {v} outside [0, 1]")
        table[b] = v
    return StepGame(disc, n, table, tag=TAG_REGULAR)


def zero_game(n: int, disc: Discretization | None = None) -> StepGame:
    """The game worth 1 at the all-ones corner and 0 everywhere else."""
    if disc is None:
        disc = Discretization((Fraction(0), Fraction(1)))
    check_grid(n, disc.p)
    boxes = {b: Fraction(0)
             for b in itertools.product(range(1, 2 * disc.p, 2), repeat=n)}
    return make_regular_step(disc, boxes, n)


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
    boxes = {b: g.boxes[tuple(coord_map[di] for di in b)]
             for b in itertools.product(range(1, 2 * disc2.p, 2), repeat=g.n)}
    faces = {d2: val for d, val in g.faces.items()
             for d2 in itertools.product(*(inside[di] for di in d))}
    return StepGame(disc2, g.n, boxes, faces, TAG_RAW)


def pointwise_equal(u: StepGame, v: StepGame) -> bool:
    if u.n != v.n:
        return False
    merged = u.disc.merge(v.disc)
    return refine(u, merged).values == refine(v, merged).values


def join_meet(u: StepGame, v: StepGame) -> tuple[StepGame, StepGame]:
    """Pointwise max and min of two games on their merged grid (raw tags)."""
    if u.n != v.n:
        raise ValueError("player counts differ")
    merged = u.disc.merge(v.disc)
    ru, rv = refine(u, merged), refine(v, merged)
    pairs = [(d, a, rv.values[d]) for d, a in ru.values.items()]
    return (ru.with_values({d: max(a, b) for d, a, b in pairs}),
            ru.with_values({d: min(a, b) for d, a, b in pairs}))


def coarsen(v: StepGame, disc2: Discretization) -> StepGame:
    """Project onto a sub-grid, each coarse box taking the minimum of the
    fine boxes it covers; remaining faces by the regular completion."""
    if not v.disc.is_refinement_of(disc2):
        raise ValueError("target breakpoints must be a subset of the source")
    fine = v.disc.alpha
    spans = []
    for h in range(disc2.p):
        lo = fine.index(disc2.alpha[h])
        hi = fine.index(disc2.alpha[h + 1])
        spans.append([2 * t + 1 for t in range(lo, hi)])
    box_values = {}
    for cb in itertools.product(range(1, 2 * disc2.p, 2), repeat=v.n):
        covered = itertools.product(*(spans[(c - 1) // 2] for c in cb))
        box_values[cb] = min(v.boxes[b] for b in covered)
    return make_regular_step(disc2, box_values, v.n)


def permute_axes(g: StepGame, pi: Sequence[int]) -> StepGame:
    """(pi g)(x) = g(pi(x)) with pi(x)_i = x_{pi(i)}; pi is 1-based."""
    if sorted(pi) != list(range(1, g.n + 1)):
        raise ValueError("pi must be a permutation of 1..n")
    inverse = sorted(range(g.n), key=lambda i: pi[i])

    def image(d: Face) -> Face:
        return tuple(d[i] for i in inverse)
    return StepGame(g.disc, g.n, {image(b): val for b, val in g.boxes.items()},
                    {image(d): val for d, val in g.faces.items()}, g.tag)


class ValidationReport(NamedTuple):
    """Outcome of the structural checks on a step game."""

    monotone: bool
    tag_ok: bool
    in_range: bool
    violations: list[str]

    @property
    def ok(self) -> bool:
        return self.monotone and self.tag_ok and self.in_range


def box_numerators(g: StepGame) -> tuple[list[int], int]:
    """The box values in row-major order (first coordinate slowest), as
    numerators over their least common denominator, and that denominator."""
    return on_one_denominator(
        [g.boxes[b] for b in itertools.product(range(1, 2 * g.p, 2), repeat=g.n)])


def _step(d: Face, i: int, by: int) -> Face:
    return d[:i] + (d[i] + by,) + d[i + 1:]


def pinned_covers(g: StepGame) -> list[tuple[Face, Face]]:
    """The cover pairs d -> d + e_i that touch a pinned face (an override
    or a cube corner): for each pinned face in sorted order, its covers
    upward, then its covers from below by faces that are not pinned."""
    n, top = g.n, 2 * g.p
    pinned = set(g.faces) | {(0,) * n, (top,) * n}
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
    values = g.values
    return [f"value {values[lo]} at {lo} exceeds {values[hi]} at {hi}"
            for lo, hi in covers if values[lo] > values[hi]]


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
    nums, den = box_numerators(g)
    boxes_in_range = 0 <= min(nums) and max(nums) <= den
    stored = itertools.chain(() if boxes_in_range else g.boxes.items(),
                             g.faces.items())
    violations = [f"value {val} at face {d} outside [0, 1]"
                  for d, val in stored if not 0 <= val <= 1]
    in_range = not violations

    if all(nondecreasing_along(nums, p ** (n - 1 - i), p) for i in range(n)):
        covers = []
    else:
        covers = [(b, _step(b, i, 2)) for b in g.boxes for i in range(n)
                  if b[i] + 2 < top]
    broken = [f"monotonicity: {v}"
              for v in falling_covers(g, covers + pinned_covers(g))]
    # regular games follow the completion on every face, semi-regular ones
    # on every face off the cube boundary
    off_tag = [d for d in sorted(g.faces) if g.tag == TAG_REGULAR or (
        g.tag == TAG_SEMI_REGULAR and not any(di in (0, top) for di in d))]
    violations += broken + [
        f"{g.tag}: face {d} has {g.faces[d]}, the regular completion gives "
        f"{regular_completion(g.boxes, g.p, d)}" for d in off_tag]
    return ValidationReport(not broken, not off_tag, in_range, violations)
