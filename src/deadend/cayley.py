"""Exact closed balls, word norms, and geodesics in Cayley graphs.

``bfs_layers`` is the one breadth-first kernel of the package: balls,
quotient checks, the depth oracle and the construction's neighbourhood
all expand layers through it, under one budget.  The ball BFS explores
the implicit Cayley graph of a group under the symmetrized view of a
generating set.  BFS order is deterministic: frontier FIFO, neighbors
per generator in listed order, positive sign before negative.  Distances
are exact; parent letters make geodesic recovery O(length).  Where the
group codes its elements additively as integers (``Group.integer_code``:
Z and Z^k below their cap), ``ball`` runs the same BFS over the codes, one
int addition per step, and decodes the finished ball.
"""

from __future__ import annotations

import csv
import hashlib
import operator
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from itertools import count, islice
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from .groups import GeneratingSet, Group, GroupElement, GroupError, Word
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


@dataclass(frozen=True)
class Budget:
    """Resource ceilings for ball construction."""

    max_elements: int = 10_000_000
    max_radius: int = 10_000
    max_seconds: float = 600.0

    def __post_init__(self):
        if self.max_elements <= 0 or self.max_radius <= 0 or self.max_seconds <= 0:
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

    Immutable once built; iteration follows BFS discovery order.
    """

    def __init__(
        self,
        group: Group,
        gens: GeneratingSet,
        radius: int,
        dist: dict,
        parent: dict,
        sphere_sizes: tuple[int, ...],
    ):
        self.group = group
        self.gens = gens
        self.radius = radius
        self._dist = dist
        self._parent = parent
        self.sphere_sizes = sphere_sizes

    def __len__(self) -> int:
        return len(self._dist)

    def __contains__(self, x: GroupElement) -> bool:
        return x.payload in self._dist

    def norm_payload(self, payload: Any) -> Optional[int]:
        return self._dist.get(payload)

    def norm(self, x: GroupElement) -> Optional[int]:
        """Exact word norm of x, or None when x lies outside the ball."""
        return self._dist.get(x.payload)

    def elements(self) -> Iterator[GroupElement]:
        for payload in self._dist:
            yield GroupElement(self.group, payload)

    def payloads(self) -> Iterator[Any]:
        return iter(self._dist)

    def first_payload_at(self, distance: int) -> Any:
        """First payload at the given distance in BFS order."""
        if not 0 <= distance < len(self.sphere_sizes) or self.sphere_sizes[distance] == 0:
            raise ValueError(f"no elements at distance {distance}")
        for payload, d in self._dist.items():
            if d == distance:
                return payload
        raise AssertionError("sphere sizes inconsistent with distance table")

    def geodesic_payload(self, payload: Any) -> Word:
        d = self._dist.get(payload)
        if d is None:
            raise ValueError("element not recorded in this ball")
        mul = self.group.mul_payload
        table = self.gens.letters
        letters: list[int] = []
        current = payload
        for _ in range(d):
            letters.append(self._parent[current])
            current = mul(current, table[-letters[-1]])
        letters.reverse()
        return tuple(letters)

    def along_parents(self, start: Any, step: Callable[[Any, int], Any]) -> dict:
        """Fold ``step`` down the BFS tree: payload -> value, in discovery order.

        The identity gets ``start``; every other payload gets
        ``step(value of its parent, its parent letter)``, so the value of
        x is ``step`` folded over the letters of ``geodesic_payload(x)``.
        """
        mul = self.group.mul_payload
        table = self.gens.letters
        values: dict = {}
        for payload, d in self._dist.items():
            letter = self._parent[payload]
            values[payload] = step(values[mul(payload, table[-letter])], letter) if d else start
        return values

    def geodesic(self, x: GroupElement) -> Word:
        """Word of length exactly norm(x) evaluating to x (first-parent rule)."""
        return self.geodesic_payload(x.payload)


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
                if len(seen) > budget.max_elements:
                    raise BudgetExceededError(
                        f"element budget {budget.max_elements} exceeded",
                        radius_reached=r - 1,
                        elements_seen=len(seen),
                    )
                if time.monotonic() > deadline:
                    raise BudgetExceededError(
                        f"time budget {budget.max_seconds}s exceeded",
                        radius_reached=r - 1,
                        elements_seen=len(seen),
                    )
        if len(seen) > budget.max_elements:
            raise BudgetExceededError(
                f"element budget {budget.max_elements} exceeded",
                radius_reached=r - 1,
                elements_seen=len(seen),
            )
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

    When ``group.integer_code`` codes the generators for this radius, the
    BFS steps by ``operator.add`` on the codes; discovery order, parent
    letters and budget stops are those of the payload BFS.
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
    letters = gens.symmetrized_letters()
    coded = group.integer_code([p for _, p in letters], radius)
    if coded is None:
        mul, start, decode = group.mul_payload, group.identity_payload(), None
    else:
        codes, decode = coded
        mul, start = operator.add, 0
        letters = [(x, c) for (x, _), c in zip(letters, codes)]
    dist: dict = {start: 0}
    parent: dict = {start: 0}
    spheres = [1]
    for r, layer in islice(bfs_layers(mul, letters, start, parent, budget), radius):
        for y in layer:
            dist[y] = r
        spheres.append(len(layer))
    if decode is not None:
        # Both dicts list the ball in discovery order; each coded dict is
        # dropped as soon as its decoded replacement is built.
        dist = {decode(c): d for c, d in dist.items()}
        parent = dict(zip(dist, parent.values()))
    return Ball(group, gens, radius, dist, parent, tuple(spheres))


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
    so a crash mid-write never leaves a truncated cache file behind.
    """
    path = Path(path)
    digest = bytes.fromhex(ball_content_hash(b.group, b.gens, b.radius))
    encode = b.group.encode_payload
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(struct.pack(">H", CACHE_VERSION))
            fh.write(digest)
            fh.write(struct.pack(">IQ", b.radius, len(b._dist)))
            for payload, d in b._dist.items():
                enc = encode(payload)
                fh.write(struct.pack(">H", len(enc)))
                fh.write(enc)
                fh.write(struct.pack(">Ii", d, b._parent[payload]))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_ball(path: Union[str, Path], group: Group, gens: GeneratingSet) -> Ball:
    """Reload a cached ball; the stored content hash must match (group, gens, R).

    Records must come in non-decreasing distance, the identity alone at
    distance 0 with letter 0, and every other record's parent step (one
    multiplication per record) must land on a record one layer closer.
    Raises ValueError on a foreign, mismatched, truncated or garbled file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CACHE_MAGIC:
        raise ValueError(f"not a ball cache file: {path}")
    decode = group.decode_payload
    mul = group.mul_payload
    identity = group.identity_payload()
    table = gens.letters
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
        offset = 50
        for _ in range(count):
            (enc_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            payload = decode(data[offset : offset + enc_len])
            offset += enc_len
            d, letter = struct.unpack_from(">Ii", data, offset)
            offset += 8
            if d == 0:
                linked = letter == 0 and payload == identity and not dist
            else:
                step = table.get(-letter)
                linked = step is not None and dist.get(mul(payload, step)) == d - 1
            if d == len(spheres):
                spheres.append(0)
            if d > radius or d != len(spheres) - 1 or payload in dist or not linked:
                raise ValueError(f"garbled parent links or distances in {path}")
            dist[payload] = d
            parent[payload] = letter
            spheres[d] += 1
    except (struct.error, IndexError, GroupError) as exc:
        raise ValueError(f"truncated or garbled ball cache file: {path}") from exc
    if not spheres:
        raise ValueError(f"no identity record in {path}")
    return Ball(group, gens, radius, dist, parent, tuple(spheres))


def ball_cached(
    group: Group,
    gens: GeneratingSet,
    radius: int,
    cache_dir: Optional[Union[str, Path]],
    budget: Budget = DEFAULT_BUDGET,
) -> Ball:
    """Compute a ball or reload it from ``cache_dir``, keyed by content hash.

    A cache file that cannot be loaded counts as a miss and is rewritten.
    Without a ``cache_dir`` the ball is computed and nothing is cached.
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
    save_ball(b, path)
    return b


def ball_to_csv(b: Ball, path: Union[str, Path]) -> None:
    """CSV export of (element, norm) pairs in BFS order."""
    fmt = b.group.format_payload
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "norm"])
        for payload, d in b._dist.items():
            writer.writerow([fmt(payload), d])
