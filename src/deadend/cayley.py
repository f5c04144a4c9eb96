"""Exact closed balls, word norms, and geodesics in Cayley graphs.

``bfs_layers`` is the one breadth-first kernel of the package: balls,
quotient checks, the depth oracle and the construction's neighbourhood
all expand layers through it, under one budget.  The ball BFS explores
the implicit Cayley graph of a group under the symmetrized view of a
generating set.  BFS order is deterministic: frontier FIFO, neighbors
per generator in listed order, positive sign before negative.  Distances
are exact; parent letters make geodesic recovery O(length).  A ball runs
and keeps its BFS on the element codes of ``Group.integer_code`` (ints for
Z, Z^k and the lamplighter while they stay small, else payloads) and
decodes only at the edge: payload lookups and iteration, and the CSV.  The
disk cache keeps the BFS tree and rebuilds each code from its parent's.
"""

from __future__ import annotations

import csv
import hashlib
import os
import struct
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from itertools import chain, count, islice, repeat
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from .groups import (Codec, GeneratingSet, Group, GroupElement, MixedGroupError,
                     RangeOverflowError, Word)
from .serialize import dumps, genset_to_json

__all__ = [
    "Budget",
    "DEFAULT_BUDGET",
    "Ball",
    "BudgetExceededError",
    "ball",
    "ball_cached",
    "bfs_layers",
    "save_ball",
    "load_ball",
    "ball_content_hash",
    "ball_to_csv",
    "write_csv",
]

CACHE_MAGIC = b"DECB"
CACHE_VERSION = 2
# magic, version, content hash, radius, element count, sphere count
_HEADER = struct.Struct(">4sH32sIQI")
_MAX_CACHED_RADIUS = 2**32 - 1  # the header's u32 radius field
# CSV rows joined per write: a few kB of text, so the peak RSS does not grow with the file
_CSV_BLOCK = 256


@dataclass(frozen=True)
class Budget:
    """Resource ceilings for a run.  Every search under a budget shares one deadline,
    ``max_seconds`` after ``started``: the clock reading when it is made, kept by ``replace``."""

    max_elements: int = 10_000_000
    max_radius: int = 10_000
    max_seconds: float = 600.0
    started: float = field(default_factory=time.monotonic, compare=False)

    def __post_init__(self):
        # "not > 0" also rejects NaN, which would switch the time limit off
        if not (self.max_elements > 0 and self.max_radius > 0 and self.max_seconds > 0):
            raise ValueError("budget limits must be positive")


DEFAULT_BUDGET = Budget(max_seconds=float("inf"))  # no time limit, so no clock to run out


class BudgetExceededError(Exception):
    """Raised when a ball computation hits its budget; partial work is discarded."""

    def __init__(self, message: str, radius_reached: int, elements_seen: int):
        super().__init__(message)
        self.radius_reached = radius_reached
        self.elements_seen = elements_seen


class Ball:
    """Closed ball about the identity: exact distances plus parent links.

    ``dist`` and ``parent`` map element codes to distances and parent
    letters in BFS discovery order; ``letter_codes`` maps signed letters to
    step codes.  The codec covers every walk of radius + 1 steps from the
    ball.  Immutable once built.
    """

    def __init__(
        self,
        group: Group,
        gens: GeneratingSet,
        radius: int,
        dist: dict,
        parent: dict,
        sphere_sizes: tuple[int, ...],
        codec: Codec,
    ):
        self.group = group
        self.gens = gens
        self.radius = radius
        self.dist = dist
        self.parent = parent
        self.sphere_sizes = sphere_sizes
        self.codec = codec
        self.letter_codes = dict(zip(gens.letters, codec.codes))

    def __len__(self) -> int:
        return len(self.dist)

    def norm_payload(self, payload: Any) -> Optional[int]:
        return self.dist.get(self.codec.encode(payload))

    def norm(self, x: GroupElement) -> Optional[int]:
        """Exact word norm of x, or None when x lies outside the ball."""
        return self.norm_payload(x.payload)

    def elements(self) -> Iterator[GroupElement]:
        return (GroupElement(self.group, payload) for payload in self.payloads())

    def payloads(self) -> Iterator[Any]:
        return map(self.codec.decode, self.dist)

    def first_payload_at(self, distance: int) -> Any:
        """First payload at the given distance in BFS order."""
        if not 0 <= distance < len(self.sphere_sizes) or self.sphere_sizes[distance] == 0:
            raise ValueError(f"no elements at distance {distance}")
        return self.codec.decode(next(islice(self.dist, sum(self.sphere_sizes[:distance]), None)))

    def geodesic_payload(self, payload: Any) -> Word:
        code = self.codec.encode(payload)
        d = self.dist.get(code)
        if d is None:
            raise ValueError("element not recorded in this ball")
        step, back = self.codec.step, self.letter_codes
        letters: list[int] = []
        for _ in range(d):
            letters.append(self.parent[code])
            code = step(code, back[-letters[-1]])
        letters.reverse()
        return tuple(letters)

    def along_parents(self, start: Any, step: Callable[[Any, int], Any]) -> dict:
        """Fold ``step`` down the BFS tree: code -> value, in discovery order.

        The identity gets ``start``; every other element gets
        ``step(value of its parent, its parent letter)``, so the value of
        x is ``step`` folded over the letters of ``geodesic_payload(x)``.  ``codec.decode``
        gives the payloads of the keys."""
        mul, back = self.codec.step, self.letter_codes
        values: dict = {}
        for code, d in self.dist.items():
            letter = self.parent[code]
            values[code] = step(values[mul(code, back[-letter])], letter) if d else start
        return values

    def geodesic(self, x: GroupElement) -> Word:
        """Word of length exactly norm(x) evaluating to x (first-parent rule)."""
        return self.geodesic_payload(x.payload)


def _codec(group: Group, gens: GeneratingSet, radius: int) -> Codec:
    # Covers a walk of radius + 1 steps from any element of the radius ball.  Every
    # ball, computed or loaded, is coded here: so here gens must lie in group.
    if gens.group is not group and gens.group != group:
        raise MixedGroupError(f"generators of {gens.group!r} given for a ball of {group!r}")
    return group.integer_code(list(gens.letters.values()), 2 * radius + 1)


def _check_budget(budget: Budget, seen: int, r: int, where: str = "") -> None:
    """Raise BudgetExceededError, radius r reached, past the element budget or
    the budget's deadline; ``where`` ends the message."""
    if seen > budget.max_elements:
        what = f"element budget {budget.max_elements}"
    elif time.monotonic() > budget.started + budget.max_seconds:
        what = f"time budget {budget.max_seconds}s"
    else:
        return
    raise BudgetExceededError(f"{what} exceeded{where}", radius_reached=r, elements_seen=seen)


def bfs_layers(
    mul: Callable[[Any, Any], Any],
    letters: Sequence[tuple[int, Any]],
    start: Any,
    seen: dict,
    budget: Budget = DEFAULT_BUDGET,
) -> Iterator[tuple[int, list]]:
    """Breadth-first layers about ``start`` under right multiplication.

    ``letters`` holds (signed letter, step payload) pairs in neighbour
    order; ``seen`` must hold ``start`` and receives, in place, the
    first-discovery parent letter of every payload reached.  Yields
    (r, new_layer) for r = 1, 2, ... until a layer comes out empty; the
    frontier is FIFO, so discovery order is deterministic.  Raises
    BudgetExceededError once ``seen`` outgrows the element budget or the
    budget's deadline has passed.

    A step equal to an earlier one (``a`` and ``a^-1`` for an involution
    ``a``) reaches nothing new, so only the first pair of each step is kept.
    """
    firsts: dict = {}
    for letter, step in letters:
        firsts.setdefault(step, letter)
    letters = [(letter, step) for step, letter in firsts.items()]
    checked = 0
    layer = [start]
    for r in count(1):
        next_layer: list = []
        for x in layer:
            for letter, step in letters:
                y = mul(x, step)
                if y not in seen:
                    seen[y] = letter
                    next_layer.append(y)
            checked += 1
            if (checked & 0x3FF) == 0:
                _check_budget(budget, len(seen), r - 1)
        _check_budget(budget, len(seen), r - 1)
        if not next_layer:
            return
        yield r, next_layer
        layer = next_layer


def ball(
    group: Group,
    gens: GeneratingSet,
    radius: int,
    budget: Budget = DEFAULT_BUDGET,
) -> Ball:
    """Exact closed ball of the given radius under the symmetrized generators.

    The BFS steps on the codes of ``Group.integer_code``; discovery order,
    parent letters and budget stops are those of the BFS on payloads.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius > budget.max_radius:
        raise BudgetExceededError(
            f"requested radius {radius} exceeds budget radius {budget.max_radius}",
            radius_reached=0,
            elements_seen=1,
        )
    codec = _codec(group, gens, radius)
    start = codec.encode(group.identity_payload())
    letters = list(zip(gens.letters, codec.codes))
    parent: dict = {start: 0}
    spheres = [1]
    for _, layer in islice(bfs_layers(codec.step, letters, start, parent, budget), radius):
        spheres.append(len(layer))
    # parent holds the codes in discovery order, sphere by sphere; a budget
    # stop raises before any distance is stored
    dist = dict(zip(parent, chain.from_iterable(map(repeat, count(), spheres))))
    return Ball(group, gens, radius, dist, parent, tuple(spheres), codec)


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------


def ball_content_hash(gens: GeneratingSet, radius: int) -> str:
    """SHA-256 of the ``genset.v1`` document of ``gens``, which embeds its
    group, and the radius."""
    doc = {"gens": genset_to_json(gens), "radius": str(radius)}
    return hashlib.sha256(dumps(doc).encode("utf-8")).hexdigest()


def save_ball(b: Ball, path: Union[str, Path], *, digest: Optional[str] = None) -> None:
    """Write a ball to disk as its BFS tree: a header, then three columns.

    The header holds magic, version, content hash (``digest`` when the
    caller has it, else hashed here), radius, element count and sphere
    count.  The big-endian columns are the sphere sizes (u64), then, per
    record in BFS order, its parent's index (u32) and its parent letter
    (i32); no element is stored.  The bytes go to a temporary file that is
    then renamed over ``path``, so a crash mid-write never leaves a
    truncated cache file behind.  A radius above the header's u32 field
    raises ValueError before anything is written.
    """
    if b.radius > _MAX_CACHED_RADIUS:
        raise ValueError(f"ball radius {b.radius} does not fit the cache header "
                         f"(at most {_MAX_CACHED_RADIUS})")
    path = Path(path)
    digest = digest or ball_content_hash(b.gens, b.radius)
    index = dict(zip(b.dist, count()))
    step, back = b.codec.step, b.letter_codes
    parents = array("I", [0])
    parents.extend([index[step(code, back[-letter])]
                    for code, letter in islice(b.parent.items(), 1, None)])
    columns = [array("Q", b.sphere_sizes), parents, array("i", b.parent.values())]
    if sys.byteorder == "little":
        for column in columns:
            column.byteswap()
    header = _HEADER.pack(CACHE_MAGIC, CACHE_VERSION, bytes.fromhex(digest), b.radius, len(b),
                          len(b.sphere_sizes))
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for column in columns:
                column.tofile(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_ball(
    path: Union[str, Path],
    group: Group,
    gens: GeneratingSet,
    *,
    key: Optional[tuple[int, str]] = None,
) -> Ball:
    """Reload a cached ball; the stored content hash must match (group, gens, R).

    ``key``, a radius and its ``ball_content_hash`` when the caller has
    hashed already, must equal the stored radius and hash; without it the
    stored radius is hashed here.

    Each element is rebuilt as its parent's code stepped by its letter, so
    the checks are structural: the file length matches the header; the
    sphere sizes are nonzero, start with 1, sum to the count and number at
    most radius + 1; record 0 is the identity with parent 0 and letter 0;
    every parent lies in the previous sphere; every letter is one of
    ``gens``; no parent step overflows; the rebuilt codes are distinct.  Every element then lies
    within its claimed distance, and as many distinct elements as the ball
    holds make up the whole ball, at exact distances.
    Raises ValueError on a foreign, mismatched, truncated or garbled file,
    and MixedGroupError when ``gens`` lie in another group than ``group``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        magic, version, stored, radius, size, layers = _HEADER.unpack_from(data)
    except struct.error:
        raise ValueError(f"truncated ball cache file: {path}") from None
    if magic != CACHE_MAGIC:
        raise ValueError(f"not a ball cache file: {path}")
    if version != CACHE_VERSION:
        raise ValueError(f"unsupported ball cache version {version}")
    if len(data) != _HEADER.size + 8 * layers + 8 * size:
        raise ValueError(f"ball cache file length does not match its header: {path}")
    if (radius, stored.hex()) != (key or (radius, ball_content_hash(gens, radius))):
        raise ValueError("ball cache content hash does not match (group, gens, radius)")
    spheres, parents, letters = array("Q"), array("I"), array("i")
    view = memoryview(data)[_HEADER.size :]
    spheres.frombytes(view[: 8 * layers])
    parents.frombytes(view[8 * layers : 8 * layers + 4 * size])
    letters.frombytes(view[8 * layers + 4 * size :])
    if sys.byteorder == "little":
        for column in (spheres, parents, letters):
            column.byteswap()
    garbled = ValueError(f"garbled sphere sizes, parents or letters in {path}")
    if not (0 < layers <= radius + 1 and spheres[0] == 1 and 0 not in spheres
            and sum(spheres) == size):
        raise garbled
    dists = list(chain.from_iterable(map(repeat, range(layers), spheres)))
    # each record's parent is one sphere closer; the identity is its own parent
    closer = [0, *chain.from_iterable(map(repeat, range(layers), spheres[1:]))]
    try:
        if letters[0] or list(map(dists.__getitem__, parents)) != closer:
            raise garbled
        codec = _codec(group, gens, radius)
        step, steps = codec.step, map(dict(zip(gens.letters, codec.codes)).__getitem__, letters[1:])
        codes = [codec.encode(group.identity_payload())]
        append = codes.append
        for p, s in zip(parents[1:], steps):
            append(step(codes[p], s))
    except (IndexError, KeyError, RangeOverflowError):
        raise garbled from None
    dist = dict(zip(codes, dists))
    if len(dist) != size:
        raise garbled
    return Ball(group, gens, radius, dist, dict(zip(codes, letters)), tuple(spheres), codec)


def ball_cached(
    group: Group,
    gens: GeneratingSet,
    radius: int,
    cache_dir: Optional[Union[str, Path]],
    budget: Budget = DEFAULT_BUDGET,
) -> Ball:
    """Compute a ball or reload it from ``cache_dir``, keyed by content hash.

    The content hash is computed once and passed to the load and the save.
    A cache file that cannot be loaded counts as a miss and is rewritten.
    Without a ``cache_dir``, or for a radius the cache header cannot hold,
    the ball is computed and nothing is cached.
    """
    if not cache_dir or radius > _MAX_CACHED_RADIUS:
        return ball(group, gens, radius, budget)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    digest = ball_content_hash(gens, radius)
    path = cache_dir / f"ball-{digest[:24]}.bin"
    if path.exists():
        try:
            return load_ball(path, group, gens, key=(radius, digest))
        except (OSError, ValueError):
            pass
    b = ball(group, gens, radius, budget)
    save_ball(b, path, digest=digest)
    return b


def write_csv(path: Union[str, Path], header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write ``header`` and ``rows`` of str fields (at least two per row), exactly
    as ``csv.writer`` writes them (excel dialect).

    Rows are joined in C a block of ``_CSV_BLOCK`` at a time.  A block is written
    as joined only when it holds none of the characters on which ``csv.writer``
    quotes a field: its commas are exactly the separators, and it has no ``"``
    and one ``\r`` and one ``\n`` per row.  From the first block that fails,
    that block and the rest go through one ``csv.writer``.
    """
    commas = len(header) - 1
    rows = chain([header], rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        while block := list(islice(rows, _CSV_BLOCK)):
            text = "\r\n".join(map(",".join, block)) + "\r\n"
            n = len(block)
            if (text.count(",") == commas * n and '"' not in text
                    and text.count("\r") == n and text.count("\n") == n):
                fh.write(text)
                continue
            writer = csv.writer(fh)
            writer.writerows(block)
            writer.writerows(rows)
            break


def ball_to_csv(b: Ball, path: Union[str, Path]) -> None:
    """CSV export of (element, norm) pairs in BFS order."""
    write_csv(path, ["element", "norm"], zip(b.codec.texts(b.dist), map(str, b.dist.values())))
