"""Shared test helpers: random permutation-closure table groups, the A-ball
oracle of a construction, the reference depth search with the coded-ball
cases it is checked on, the bytes csv.writer writes, the traced bytes a
result retains, and a fake clock."""

from __future__ import annotations

import csv
import gc
import random
import time
import tracemalloc

import pytest
from hypothesis import strategies as st

from deadend.cayley import ball
from deadend.depth import DepthValue
from deadend.groups import (
    GeneratingSet,
    IntegerGrid,
    IntegerLine,
    Lamplighter,
    RangeOverflowError,
    TableGroup,
)


class FakeClock:
    """A stand-in for ``time.monotonic``: it gives the readings set last in turn,
    then the last of them from there on, and counts how often it was read."""

    def __init__(self):
        self.set(0.0)

    def set(self, *readings: float) -> None:
        self.pending, self.reads = list(readings), 0

    def __call__(self) -> float:
        self.reads += 1
        return self.pending.pop(0) if len(self.pending) > 1 else self.pending[0]


@pytest.fixture
def clock(monkeypatch):
    """The one clock of a run, faked: ``time.monotonic``, which the CLI reads as
    the run starts and ``_check_budget`` against the budget's deadline.  A
    ``Budget`` made in a test under it names its ``started`` reading."""
    fake = FakeClock()
    monkeypatch.setattr(time, "monotonic", fake)
    return fake


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def random_table_groups(count: int, max_order: int = 64, seed: int = 2024,
                        degree: int = 4, n_gens: int = 3):
    """Deterministic stream of (TableGroup, GeneratingSet) pairs.

    Each group is the closure of a few random permutations; closures
    larger than max_order are skipped, so the stream is reproducible for
    a fixed seed.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        perms = []
        for _ in range(n_gens):
            p = list(range(degree))
            rng.shuffle(p)
            perms.append(tuple(p))
        identity = tuple(range(degree))
        elements = [identity]
        index = {identity: 0}
        frontier = [identity]
        too_big = False
        while frontier and not too_big:
            nxt = []
            for x in frontier:
                for p in perms:
                    y = _compose(x, p)
                    if y not in index:
                        if len(elements) >= max_order:
                            too_big = True
                            break
                        index[y] = len(elements)
                        elements.append(y)
                        nxt.append(y)
                if too_big:
                    break
            frontier = nxt
        if too_big:
            continue
        m = len(elements)
        table = [[index[_compose(elements[i], elements[j])] for j in range(m)] for i in range(m)]
        group = TableGroup(table, identity_id=0, name=f"perm{degree}-{len(out)}")
        gen_ids = sorted({index[p] for p in perms} - {0})
        if not gen_ids:
            continue
        gens = GeneratingSet([group.element(i) for i in gen_ids])
        out.append((group, gens))
    return out


def gens_of(group, *payloads):
    return GeneratingSet([group.element(p) for p in payloads])


def a_ball(ctx):
    """The A-ball of radius n of a construction: a BFS oracle for the norms
    and depths its certificates prove."""
    return ball(ctx.source_gens.group, ctx.genset, ctx.params.n)


def retained_bytes(make):
    """``make()`` and the traced bytes it leaves allocated while its result lives."""
    tracing = tracemalloc.is_tracing()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = make()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def reference_depth(group, gens, norms, payload, cap):
    """depth.depth's closed-ball search, on payloads and a plain norm dict."""
    norm_g = norms[payload]
    visited, layer = {payload}, [payload]
    for dist in range(1, cap + 1):
        nxt = []
        for x in layer:
            for _, step in gens.symmetrized_letters():
                y = group.mul_payload(x, step)
                if y in visited:
                    continue
                visited.add(y)
                if norms.get(y) is None or norms[y] > norm_g:
                    return DepthValue.finite(dist)
                nxt.append(y)
        if not nxt:
            return DepthValue.infinite()
        layer = nxt
    return DepthValue.at_least(cap)


def outcome(f, *args):
    """f(*args), or the type of the RangeOverflowError it raises."""
    try:
        return f(*args)
    except RangeOverflowError:
        return RangeOverflowError


def csv_writer_bytes(path, header, rows):
    """The bytes ``csv.writer`` writes for ``header`` and ``rows``, written to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def outcome_text(f, *args):
    """f(*args), or the type and the text of the RangeOverflowError it raises."""
    try:
        return f(*args)
    except RangeOverflowError as exc:
        return RangeOverflowError, str(exc)


@st.composite
def free_abelian_cases(draw):
    rank = draw(st.integers(0, 3))  # 0 stands for IntegerLine
    bits = draw(st.sampled_from([8, 16, 64]))
    coord = st.integers(-40, 40)
    if rank == 0:
        group = IntegerLine(bits=bits)
        payload = coord.filter(bool)
    else:
        group = IntegerGrid(rank, bits=bits)
        payload = st.tuples(*[coord] * rank).filter(any)
    payloads = draw(st.lists(payload, min_size=1, max_size=3, unique=True))
    return group, gens_of(group, *payloads), draw(st.integers(0, 6))


_TABLES = [group for group, _ in random_table_groups(4, max_order=24, seed=5)]


@st.composite
def table_cases(draw):
    """A random table group of order at most 24 with one to three generator ids,
    which need not generate it, and a radius up to its order."""
    group = draw(st.sampled_from(_TABLES))
    ids = draw(st.lists(st.integers(1, group.order() - 1), min_size=1, max_size=3, unique=True))
    return group, gens_of(group, *ids), draw(st.integers(0, group.order()))


@st.composite
def lamplighter_cases(draw):
    """One or two generators with lamps and cursor in +-3, or one of them with
    a far cursor: too wide to code at 8 bits, and past the 8-bit cap within
    six steps when it exceeds 127 / 6.  The far generator's inverse, whose
    lamps sit at q - cursor, stays within the cap."""
    group = Lamplighter(bits=draw(st.sampled_from([8, 64])))
    lamps = st.lists(st.integers(-3, 3), max_size=3, unique=True).map(sorted).map(tuple)
    payload = st.tuples(lamps, st.integers(-3, 3)).filter(lambda p: p != ((), 0))
    payloads = draw(st.lists(payload, min_size=1, max_size=2, unique=True))
    if draw(st.booleans()):
        far_lamps, sign = draw(lamps), draw(st.sampled_from([-1, 1]))
        far = draw(st.integers(20, 127 + min([0, *(sign * q for q in far_lamps)])))
        payloads[-1] = (far_lamps, sign * far)
    return group, gens_of(group, *payloads), draw(st.integers(0, 6))
