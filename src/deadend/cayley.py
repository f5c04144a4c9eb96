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
decodes only at the edge: payload lookups and iteration, the cache and the
CSV.
"""

from __future__ import annotations

import csv
import hashlib
import os
import struct
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from itertools import count, islice
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from .groups import Codec, GeneratingSet, Group, GroupElement, GroupError, Word
from .serialize import dumps, genset_to_json, group_to_json

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
]

CACHE_MAGIC = b"DECB"
CACHE_VERSION = 1
_LENGTH = struct.Struct(">H")
_LINK = struct.Struct(">Ii")


@dataclass(frozen=True)
class Budget:
    """Resource ceilings for ball construction."""

    max_elements: int = 10_000_000
    max_radius: int = 10_000
    max_seconds: float = 600.0

    def __post_init__(self):
        # "not > 0" also rejects NaN, which would switch the time limit off
        if not (self.max_elements > 0 and self.max_radius > 0 and self.max_seconds > 0):
            raise ValueError("budget limits must be positive")


DEFAULT_BUDGET = Budget()


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

    def __contains__(self, x: GroupElement) -> bool:
        return self.codec.encode(x.payload) in self.dist

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
        """Fold ``step`` down the BFS tree: payload -> value, in discovery order.

        The identity gets ``start``; every other payload gets
        ``step(value of its parent, its parent letter)``, so the value of
        x is ``step`` folded over the letters of ``geodesic_payload(x)``.
        """
        mul, back = self.codec.step, self.letter_codes
        values: dict = {}
        for code, d in self.dist.items():
            letter = self.parent[code]
            values[code] = step(values[mul(code, back[-letter])], letter) if d else start
        return dict(zip(self.payloads(), values.values()))

    def geodesic(self, x: GroupElement) -> Word:
        """Word of length exactly norm(x) evaluating to x (first-parent rule)."""
        return self.geodesic_payload(x.payload)


def _codec(gens: GeneratingSet, radius: int) -> Codec:
    # Covers a walk of radius + 1 steps from any element of the radius ball.
    return gens.group.integer_code(list(gens.letters.values()), 2 * radius + 1)


def _check_budget(budget: Budget, seen: int, r: int, deadline: Optional[float] = None) -> None:
    """Raise BudgetExceededError, radius r reached, past the element budget or the deadline."""
    if seen > budget.max_elements:
        what = f"element budget {budget.max_elements}"
    elif deadline is not None and time.monotonic() > deadline:
        what = f"time budget {budget.max_seconds}s"
    else:
        return
    raise BudgetExceededError(f"{what} exceeded", radius_reached=r, elements_seen=seen)


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
    time budget runs out.
    """
    deadline = time.monotonic() + budget.max_seconds
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
                _check_budget(budget, len(seen), r - 1, deadline)
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
    if len(gens) == 0 and group.order() != 1:
        raise ValueError("empty generating set only generates the trivial group")
    if radius > budget.max_radius:
        raise BudgetExceededError(
            f"requested radius {radius} exceeds budget radius {budget.max_radius}",
            radius_reached=0,
            elements_seen=1,
        )
    codec = _codec(gens, radius)
    start = codec.encode(group.identity_payload())
    letters = list(zip(gens.letters, codec.codes))
    dist: dict = {start: 0}
    parent: dict = {start: 0}
    spheres = [1]
    for r, layer in islice(bfs_layers(codec.step, letters, start, parent, budget), radius):
        for y in layer:
            dist[y] = r
        spheres.append(len(layer))
    return Ball(group, gens, radius, dist, parent, tuple(spheres), codec)


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------


def ball_content_hash(group: Group, gens: GeneratingSet, radius: int) -> str:
    doc = {
        "group": group_to_json(group),
        "gens": genset_to_json(gens),
        "radius": str(radius),
    }
    return hashlib.sha256(dumps(doc).encode("utf-8")).hexdigest()


def save_ball(b: Ball, path: Union[str, Path]) -> None:
    """Write a ball to disk: header (magic, version, content hash), records.

    The bytes go to a temporary file that is then renamed over ``path``,
    so a crash mid-write never leaves a truncated cache file behind.  An
    element encoding too long for a record's 2-byte length is a ValueError.
    """
    path = Path(path)
    digest = bytes.fromhex(ball_content_hash(b.group, b.gens, b.radius))
    encode, decode = b.group.encode_payload, b.codec.decode
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(struct.pack(">H", CACHE_VERSION))
            fh.write(digest)
            fh.write(struct.pack(">IQ", b.radius, len(b.dist)))
            for (code, d), letter in zip(b.dist.items(), b.parent.values()):
                enc = encode(decode(code))
                if len(enc) > 0xFFFF:
                    raise ValueError(f"an element encodes to {len(enc)} bytes, above the "
                                     "65535-byte limit of a ball cache record")
                fh.write(_LENGTH.pack(len(enc)) + enc + _LINK.pack(d, letter))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_ball(path: Union[str, Path], group: Group, gens: GeneratingSet) -> Ball:
    """Reload a cached ball; the stored content hash must match (group, gens, R).

    Records must come in non-decreasing distance, the identity alone at
    distance 0 with letter 0, and every other record's parent step (one
    step on its code) must land on a record one layer closer.
    Raises ValueError on a foreign, mismatched, truncated or garbled file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CACHE_MAGIC:
        raise ValueError(f"not a ball cache file: {path}")
    decode = group.decode_payload
    dist: dict = {}
    parent: dict = {}
    spheres: list[int] = []
    try:
        (version,) = struct.unpack_from(">H", data, 4)
        if version != CACHE_VERSION:
            raise ValueError(f"unsupported ball cache version {version}")
        digest = data[6:38].hex()
        radius, count = struct.unpack_from(">IQ", data, 38)
        if digest != ball_content_hash(group, gens, radius):
            raise ValueError("ball cache content hash does not match (group, gens, radius)")
        codec = _codec(gens, radius)
        encode, step, back = codec.encode, codec.step, dict(zip(gens.letters, codec.codes))
        identity = encode(group.identity_payload())
        offset = 50
        for _ in range(count):
            (enc_len,) = _LENGTH.unpack_from(data, offset)
            offset += 2
            payload = decode(data[offset : offset + enc_len])
            offset += enc_len
            d, letter = _LINK.unpack_from(data, offset)
            offset += 8
            code = encode(payload)
            if code is None:
                raise GroupError(f"{payload!r} lies outside the codes of this ball")
            if d == 0:
                linked = letter == 0 and code == identity and not dist
            else:
                # Exact: the codes cover 2 * radius + 1 steps, so a step from a
                # code in their range lands on its product's code or on none here.
                s = back.get(-letter)
                linked = s is not None and dist.get(step(code, s)) == d - 1
            if d == len(spheres):
                spheres.append(0)
            if d > radius or d != len(spheres) - 1 or code in dist or not linked:
                raise ValueError(f"garbled parent links or distances in {path}")
            dist[code] = d
            parent[code] = letter
            spheres[d] += 1
    except (struct.error, IndexError, GroupError) as exc:
        raise ValueError(f"truncated or garbled ball cache file: {path}") from exc
    if not spheres:
        raise ValueError(f"no identity record in {path}")
    return Ball(group, gens, radius, dist, parent, tuple(spheres), codec)


def ball_cached(
    group: Group,
    gens: GeneratingSet,
    radius: int,
    cache_dir: Optional[Union[str, Path]],
    budget: Budget = DEFAULT_BUDGET,
) -> Ball:
    """Compute a ball or reload it from ``cache_dir``, keyed by content hash.

    A cache file that cannot be loaded counts as a miss and is rewritten.
    Without a ``cache_dir``, or when an element is too long for a cache
    record, the ball is computed and nothing is cached.
    """
    if not cache_dir:
        return ball(group, gens, radius, budget)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = ball_content_hash(group, gens, radius)
    path = cache_dir / f"ball-{key[:24]}.bin"
    if path.exists():
        try:
            return load_ball(path, group, gens)
        except (OSError, ValueError):
            pass
    b = ball(group, gens, radius, budget)
    with suppress(ValueError):  # an element too long for a cache record
        save_ball(b, path)
    return b


def ball_to_csv(b: Ball, path: Union[str, Path]) -> None:
    """CSV export of (element, norm) pairs in BFS order."""
    fmt = b.group.format_payload
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "norm"])
        writer.writerows(zip(map(fmt, b.payloads()), b.dist.values()))
