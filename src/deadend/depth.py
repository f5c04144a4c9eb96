"""Dead-end depth of group elements, ball-wide profiles, and a brute-force oracle.

The depth of g is its Cayley-graph distance to the complement of the
closed ball of radius norm(g) about the identity.  Working inside a
precomputed ball of radius >= norm(g) is enough: a path leaving that
closed ball hits the complement at its first exit, and any element absent
from the ball necessarily lies in the complement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress, repeat
from operator import le
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

from .cayley import Ball, Budget, DEFAULT_BUDGET, ball, bfs_layers, write_csv
from .groups import GeneratingSet, Group, GroupElement, RangeOverflowError

__all__ = [
    "DepthValue",
    "DepthProfile",
    "depth",
    "depth_profile",
    "depth_oracle",
    "ORACLE_ORDER_LIMIT",
]

ORACLE_ORDER_LIMIT = 10_000

_FINITE = "finite"
_AT_LEAST = "at_least"
_INFINITE = "infinite"


@dataclass(frozen=True)
class DepthValue:
    """Finite(k), AtLeast(k) (search capped), or Infinite (empty complement)."""

    kind: str
    value: Optional[int] = None

    @classmethod
    def finite(cls, k: int) -> "DepthValue":
        if k < 1:
            raise ValueError(f"finite depth must be >= 1, got {k}")
        return cls(_FINITE, k)

    @classmethod
    def at_least(cls, k: int) -> "DepthValue":
        return cls(_AT_LEAST, k)

    @classmethod
    def infinite(cls) -> "DepthValue":
        return cls(_INFINITE)

    @property
    def is_finite(self) -> bool:
        return self.kind == _FINITE

    @property
    def is_infinite(self) -> bool:
        return self.kind == _INFINITE

    def sort_key(self) -> tuple[int, int]:
        if self.kind == _INFINITE:
            return (2, 0)
        if self.kind == _AT_LEAST:
            return (1, self.value)
        return (0, self.value)

    def render(self) -> str:
        if self.kind == _INFINITE:
            return "inf"
        if self.kind == _AT_LEAST:
            return f">={self.value}"
        return str(self.value)

    def __str__(self) -> str:
        return self.render()


def _steps(b: Ball) -> tuple:
    """The distinct step codes of b in letter order: an equal step finds nothing new."""
    return tuple(dict.fromkeys(b.letter_codes.values()))


def _searcher(b: Ball, cap: int,
              finite: Callable[[int], DepthValue]) -> Callable[[Any, int], DepthValue]:
    """(code, norm) of an element of b -> its depth, searched outward up to ``cap`` layers.

    Equal outcomes are one shared ``DepthValue``: one per distance found,
    made on first use by ``finite`` (a cache), one ``at_least(cap)`` and one
    ``infinite()``.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    step, lookup, steps = b.codec.step, b.dist.get, _steps(b)
    capped, infinite = DepthValue.at_least(cap), DepthValue.infinite()

    # Own loop, not cayley.bfs_layers: the hot path of profiles, it exits mid-layer.
    def search(start: Any, norm_g: int) -> DepthValue:
        # The first layer, with nothing allocated: most elements have depth 1.
        for s in steps:
            norm_y = lookup(step(start, s))
            if norm_y is None or norm_y > norm_g:
                return finite(1)
        visited = {start}
        layer = [start]
        for dist in range(1, cap + 1):
            nxt = []
            for x in layer:
                for s in steps:
                    y = step(x, s)
                    if y in visited:
                        continue
                    visited.add(y)
                    norm_y = lookup(y)
                    if norm_y is None or norm_y > norm_g:
                        return finite(dist)
                    nxt.append(y)
            if not nxt:
                # Whole group explored without leaving the closed ball.
                return infinite
            layer = nxt
        return capped

    return search


def depth(b: Ball, g: GroupElement, cap: int) -> DepthValue:
    """Dead-end depth of g, searched outward up to ``cap`` layers.

    g must be recorded in b: b then holds the whole closed ball of radius
    norm(g), so membership in it is decidable from b alone.
    """
    search = _searcher(b, cap, functools.cache(DepthValue.finite))
    code = b.codec.encode(g.payload)
    norm_g = b.dist.get(code)
    if norm_g is None:
        raise ValueError("element not recorded in the ball")
    return search(code, norm_g)


class DepthProfile:
    """Per-element depth over a closed ball in BFS discovery order, each norm read off the ball.

    ``entries`` lists the depths in the order of ``b.dist``; equal depths are
    mostly one shared ``DepthValue``, which the summary and the CSV rely on for
    speed, not for their results.
    """

    def __init__(self, b: Ball, entries: list, cap: int):
        self.group = b.group
        self.gens = b.gens
        self.radius = b.radius
        self.cap = cap
        self._codec = b.codec
        self._dist = b.dist
        self._entries = entries
        self._index: Optional[dict] = None  # code -> DepthValue, built by the first depth_of

    def depth_of(self, x: GroupElement) -> DepthValue:
        if self._index is None:
            self._index = dict(zip(self._dist, self._entries))
        dv = self._index.get(self._codec.encode(x.payload))
        if dv is None:
            raise ValueError("element not recorded in the profile")
        return dv

    def rows(self) -> Iterator[tuple[Any, int, DepthValue]]:
        decode = self._codec.decode
        for (code, norm), dv in zip(self._dist.items(), self._entries):
            yield decode(code), norm, dv

    def _maxima(self) -> tuple[list[DepthValue], Optional[int]]:
        """The deepest value at each norm and the largest finite depth, from one read
        of each distinct (norm, value object) pair."""
        pairs = dict(zip(zip(self._dist.values(), map(id, self._entries)), self._entries))
        deepest: dict[int, DepthValue] = {}  # by norm: the radius may far exceed the ball's
        finite: Optional[int] = None
        for (norm, _), dv in pairs.items():
            cur = deepest.get(norm)
            if cur is None or dv.sort_key() > cur.sort_key():
                deepest[norm] = dv
            if dv.is_finite and (finite is None or dv.value > finite):
                finite = dv.value
        return [deepest[norm] for norm in sorted(deepest)], finite

    def max_depth_by_norm(self) -> list[DepthValue]:
        return self._maxima()[0]

    def max_finite_depth(self) -> Optional[int]:
        return self._maxima()[1]

    def to_csv(self, path: Union[str, Path]) -> None:
        # Equal outcomes mostly share one DepthValue: render each object once.
        distinct = dict(zip(map(id, self._entries), self._entries))
        rendered = {key: dv.render() for key, dv in distinct.items()}
        write_csv(path, ["element", "norm", "depth"],
                  zip(self._codec.texts(self._dist), map(str, self._dist.values()),
                      map(rendered.__getitem__, map(id, self._entries))))

    def summary_json(self) -> dict:
        by_norm, max_finite = self._maxima()
        return {
            "schema": "depth-profile-summary.v1",
            "radius": self.radius,
            "cap": self.cap,
            "elements": len(self._entries),
            "max_depth_by_norm": [dv.render() for dv in by_norm],
            "max_finite_depth": max_finite,
            "overall_max": max(by_norm, key=DepthValue.sort_key).render(),
        }


def depth_profile(b: Ball, cap: int) -> DepthProfile:
    """Depth of every element recorded in the ball (cap per element).

    Depth 1 is screened a step at a time over the whole ball: for each
    distinct step in turn, the elements left are stepped at once and those
    with a neighbour further out (off the ball counts as further, as in the
    search) get depth 1.  Only the elements left after every step go through
    the search.  A step that overflows the group's cap reruns the profile an
    element at a time, so the error raised is the per-element search's.
    """
    finite = functools.cache(DepthValue.finite)
    search = _searcher(b, cap, finite)
    dist, step_all = b.dist, b.codec.step_all
    outside = b.radius + 1  # the norm that counts an element off the ball as further out
    codes, norms = dist, dist.values()  # the elements left, and their norms
    try:
        for s in _steps(b):
            kept = bytes(map(le, map(dist.get, step_all(codes, s), repeat(outside)), norms))
            codes, norms = list(compress(codes, kept)), list(compress(norms, kept))
        deeper = dict(zip(codes, map(search, codes, norms)))
        entries = list(map(deeper.get, dist, repeat(finite(1))))
    except RangeOverflowError:
        entries = list(map(search, dist, dist.values()))
    return DepthProfile(b, entries, cap)


def depth_oracle(
    group: Group, gens: GeneratingSet, budget: Budget = DEFAULT_BUDGET
) -> DepthProfile:
    """Ground-truth depth profile for a small finite group.

    Runs a fresh unrestricted BFS from every element; the depth of g is
    the least distance to any element of strictly larger norm, so each
    search stops at the first layer that holds one.  Independent of
    depth()'s closed-ball search, hence usable as an oracle against it.
    Equal outcomes are one shared ``DepthValue``, as in ``depth_profile``.
    """
    order = group.order()
    if order is None:
        raise ValueError("the brute-force oracle requires a finite group")
    if order > ORACLE_ORDER_LIMIT:
        raise ValueError(f"group order {order} exceeds oracle limit {ORACLE_ORDER_LIMIT}")
    b = ball(group, gens, radius=order, budget=budget)
    if len(b) != order:
        raise ValueError(f"generators reach only {len(b)} of {order} elements")
    letters = tuple(b.letter_codes.items())
    finite, infinite = functools.cache(DepthValue.finite), DepthValue.infinite()
    entries = []
    for code, norm_g in b.dist.items():
        dv = infinite
        for d, layer in bfs_layers(b.codec.step, letters, code, {code: 0}, budget):
            if any(b.dist[y] > norm_g for y in layer):
                dv = finite(d)
                break
        entries.append(dv)
    return DepthProfile(b, entries, cap=order + 1)
