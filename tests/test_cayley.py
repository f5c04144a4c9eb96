"""Ball BFS against brute-force word enumeration, plus cache and budget."""

from __future__ import annotations

import hashlib
import random
import struct
import time
from collections import Counter
from functools import partial
from itertools import islice, repeat
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (csv_writer_bytes, free_abelian_cases, gens_of, lamplighter_cases, outcome,
                      outcome_text, reference_depth, table_cases)
from deadend import cayley
from deadend.cayley import (
    Ball,
    Budget,
    BudgetExceededError,
    ball,
    ball_cached,
    ball_content_hash,
    ball_to_csv,
    bfs_layers,
    load_ball,
    save_ball,
    write_csv,
)
from deadend.depth import depth, depth_profile
from deadend.groups import (
    Codec,
    Cyclic,
    Dihedral,
    GeneratingSet,
    GroupElement,
    IntegerGrid,
    IntegerLine,
    Lamplighter,
    MixedGroupError,
    RangeOverflowError,
    TableGroup,
    evaluate_word,
    standard_gens,
)

ZZ = IntegerLine()


def brute_force_norms(group, gens, radius):
    """Independent oracle: close the identity under products, length by length.

    Set-based closure with no queue or parent bookkeeping; the first
    length at which an element appears is its norm.
    """
    steps = list(gens.letters.values())
    norms = {group.identity_payload(): 0}
    current = {group.identity_payload()}
    for length in range(1, radius + 1):
        nxt = set()
        for x in current:
            for s in steps:
                y = group.mul_payload(x, s)
                if y not in norms:
                    nxt.add(y)
        for y in nxt:
            norms[y] = length
        current = nxt
    return norms


# -- spec'd examples -----------------------------------------------------------


def test_line_unit_ball():
    b = ball(ZZ, gens_of(ZZ, 1), 3)
    assert sorted(p for p in b.payloads()) == list(range(-3, 4))
    assert b.sphere_sizes == (1, 2, 2, 2)


def test_line_two_three_ball():
    gens = gens_of(ZZ, 2, 3)
    b = ball(ZZ, gens, 2)
    oracle = brute_force_norms(ZZ, gens, 2)
    assert {p: b.norm_payload(p) for p in b.payloads()} == oracle
    assert b.sphere_sizes == (1, 4, 8)
    assert b.norm(ZZ.element(1)) == 2


def test_cyclic_ball_covers_group():
    c10 = Cyclic(10)
    b = ball(c10, gens_of(c10, 1), 5)
    assert len(b) == 10
    assert b.sphere_sizes == (1, 2, 2, 2, 2, 1)


def test_norm_not_in_ball_is_none():
    b = ball(ZZ, gens_of(ZZ, 1), 3)
    assert b.norm(ZZ.element(7)) is None


# -- geodesics ------------------------------------------------------------------


def test_geodesic_line():
    b = ball(ZZ, gens_of(ZZ, 1), 6)
    assert b.geodesic(ZZ.element(5)) == (1, 1, 1, 1, 1)
    assert b.geodesic(ZZ.identity()) == ()


def test_geodesic_two_three():
    gens = gens_of(ZZ, 2, 3)
    b = ball(ZZ, gens, 2)
    word = b.geodesic(ZZ.element(1))
    assert len(word) == 2
    assert evaluate_word(word, gens) == ZZ.element(1)
    # deterministic first-parent order: 1 is discovered as -2 then +3
    assert word == (-1, 2)


def test_geodesic_outside_ball_raises():
    b = ball(ZZ, gens_of(ZZ, 1), 2)
    with pytest.raises(ValueError):
        b.geodesic(ZZ.element(5))


@pytest.mark.parametrize(
    "group,gens_payloads,radius",
    [
        (ZZ, (2, 3), 4),
        (Cyclic(12), (1, 5), 6),
        (Dihedral(6), ((1, 0), (0, 1)), 7),
        (Lamplighter(), (((), 1), ((0,), 0)), 5),
    ],
    ids=["line", "cyclic", "dihedral", "lamplighter"],
)
def test_geodesics_valid_everywhere(group, gens_payloads, radius):
    gens = GeneratingSet([group.element(p) for p in gens_payloads])
    b = ball(group, gens, radius)
    oracle = brute_force_norms(group, gens, radius)
    assert {p: b.norm_payload(p) for p in b.payloads()} == oracle
    for x in b.elements():
        word = b.geodesic(x)
        assert len(word) == b.norm(x)
        assert evaluate_word(word, gens) == x


# -- invariants -----------------------------------------------------------------


def test_triangle_inequality_and_symmetry():
    gens = gens_of(ZZ, 2, 3)
    b = ball(ZZ, gens, 6)
    rng = random.Random(5)
    payloads = list(b.payloads())
    for _ in range(300):
        x, y = rng.choice(payloads), rng.choice(payloads)
        z = x + y
        nz = b.norm_payload(z)
        if nz is not None:
            assert nz <= b.norm_payload(x) + b.norm_payload(y)
    for p in payloads:
        assert b.norm_payload(-p) == b.norm_payload(p)


def test_symmetrized_gens_give_identical_ball():
    gens = gens_of(ZZ, 2, 3)
    sym = gens_of(ZZ, 2, -2, 3, -3)
    b1 = ball(ZZ, gens, 5)
    b2 = ball(ZZ, sym, 5)
    assert {p: b1.norm_payload(p) for p in b1.payloads()} == {
        p: b2.norm_payload(p) for p in b2.payloads()
    }


def test_line_spheres_are_two_forever():
    b = ball(ZZ, gens_of(ZZ, 1), 200)
    assert b.sphere_sizes[0] == 1
    assert all(s == 2 for s in b.sphere_sizes[1:])
    assert len(b.sphere_sizes) == 201


def test_interior_neighbors_all_recorded():
    # closure invariant: each element strictly inside the ball has every
    # one-generator neighbor recorded, at distance within one of its own
    for group, gens in [
        (ZZ, gens_of(ZZ, 2, 3)),
        (Lamplighter(), standard_gens(Lamplighter())),
    ]:
        b = ball(group, gens, 5)
        assert b.norm(group.identity()) == 0
        letters = gens.symmetrized_letters()
        for payload in b.payloads():
            d = b.norm_payload(payload)
            if d >= b.radius:
                continue
            for _, step in letters:
                neighbor = group.mul_payload(payload, step)
                nd = b.norm_payload(neighbor)
                assert nd is not None and abs(nd - d) <= 1


def test_sphere_sizes_sum_to_table_size():
    for group, gens in [
        (Cyclic(9), gens_of(Cyclic(9), 1)),
        (Dihedral(5), standard_gens(Dihedral(5))),
        (Lamplighter(), standard_gens(Lamplighter())),
    ]:
        b = ball(group, gens, 6)
        assert sum(b.sphere_sizes) == len(b)


def test_finite_group_ball_closes_early():
    c6 = Cyclic(6)
    b = ball(c6, gens_of(c6, 1), 50)
    assert len(b) == 6
    assert b.sphere_sizes == (1, 2, 2, 1)


# -- budgets ----------------------------------------------------------------------


def test_budget_elements_exceeded():
    with pytest.raises(BudgetExceededError) as info:
        ball(ZZ, gens_of(ZZ, 1), 100, Budget(max_elements=10, max_radius=1000))
    assert info.value.radius_reached < 100


def test_budget_radius_exceeded():
    with pytest.raises(BudgetExceededError):
        ball(ZZ, gens_of(ZZ, 1), 100, Budget(max_radius=50))


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        Budget(max_elements=0)
    # NaN passes a "<= 0" test and would switch the time limit off
    with pytest.raises(ValueError, match="positive"):
        Budget(max_seconds=float("nan"))


# -- cache and export -------------------------------------------------------------


def test_ball_cache_round_trip(tmp_path):
    group = Lamplighter()
    gens = standard_gens(group)
    b = ball(group, gens, 4)
    path = tmp_path / "ball.bin"
    save_ball(b, path)
    loaded = load_ball(path, group, gens)
    assert loaded.radius == b.radius
    assert list(loaded.payloads()) == list(b.payloads())
    assert {p: loaded.norm_payload(p) for p in loaded.payloads()} == {
        p: b.norm_payload(p) for p in b.payloads()
    }
    for x in b.elements():
        assert loaded.geodesic(x) == b.geodesic(x)
    assert loaded.sphere_sizes == b.sphere_sizes


def test_ball_cache_rejects_mismatched_context(tmp_path):
    b = ball(ZZ, gens_of(ZZ, 1), 3)
    path = tmp_path / "ball.bin"
    save_ball(b, path)
    with pytest.raises(ValueError):
        load_ball(path, ZZ, gens_of(ZZ, 2))


def test_ball_cached_reuses_file(tmp_path):
    gens = gens_of(ZZ, 1)
    b1 = ball_cached(ZZ, gens, 5, tmp_path)
    files = list(tmp_path.glob("ball-*.bin"))
    assert len(files) == 1
    before = files[0].stat().st_mtime_ns
    b2 = ball_cached(ZZ, gens, 5, tmp_path)
    assert files[0].stat().st_mtime_ns == before
    assert list(b2.payloads()) == list(b1.payloads())


def test_ball_cache_header_holds_radii_below_2_to_the_32(tmp_path, monkeypatch):
    group, budget = Cyclic(5), Budget(max_radius=2**32)
    gens = gens_of(group, 1)
    too_far = ball_cached(group, gens, 2**32, tmp_path / "far", budget)
    assert (too_far.radius, too_far.sphere_sizes) == (2**32, (1, 2, 2))
    assert not (tmp_path / "far").exists()
    with pytest.raises(ValueError, match="ball radius 4294967296 does not fit"):
        save_ball(too_far, tmp_path / "far.bin")
    assert list(tmp_path.iterdir()) == []
    widest = ball_cached(group, gens, 2**32 - 1, tmp_path, budget)
    (path,) = tmp_path.iterdir()
    monkeypatch.setattr(cayley, "ball", None)  # a hit builds no ball
    hit = ball_cached(group, gens, 2**32 - 1, tmp_path, budget)
    assert ball_record(hit) == ball_record(widest) and hit.radius == 2**32 - 1
    assert list(tmp_path.iterdir()) == [path]


def test_ball_cache_keeps_a_rank_1024_ball(tmp_path):
    # 1024 coordinates of 64 bytes: one element took 65,536 bytes in the
    # version-1 records, too long to cache; the BFS tree has no element bytes
    grid = IntegerGrid(1024, bits=512)
    gens = GeneratingSet([grid.element((1,) + (0,) * 1023), grid.element((0, 1) + (0,) * 1022)])
    b = ball_cached(grid, gens, 2, tmp_path)
    (path,) = tmp_path.glob("ball-*.bin")
    loaded = load_ball(path, grid, gens)
    assert ball_record(loaded) == ball_record(b)
    assert ball_record(ball_cached(grid, gens, 2, tmp_path)) == ball_record(b)


def test_ball_cached_hashes_once_per_call(tmp_path, monkeypatch):
    calls = []
    real = cayley.ball_content_hash
    monkeypatch.setattr(cayley, "ball_content_hash",
                        lambda *args: calls.append(args) or real(*args))
    gens = standard_gens(Lamplighter())
    miss = ball_cached(Lamplighter(), gens, 3, tmp_path)
    assert len(calls) == 1
    hit = ball_cached(Lamplighter(), gens, 3, tmp_path)
    assert len(calls) == 2
    assert ball_record(hit) == ball_record(miss)


# The version-2 layout: a header of magic, version, content hash, radius,
# count and sphere count, then the big-endian columns of sphere sizes (u64),
# parent indices (u32) and parent letters (i32).
HEADER_FIELDS = {"radius": (38, 4), "count": (42, 8), "layers": (50, 4)}


def column_offset(b, column, i):
    """Offset of entry i of a column in the version-2 bytes of ball b."""
    layers, size = len(b.sphere_sizes), len(b)
    return 54 + {"spheres": 8 * i, "parents": 8 * layers + 4 * i,
                 "letters": 8 * layers + 4 * size + 4 * i}[column]


def patched(data, offset, value):
    return data[:offset] + value + data[offset + len(value):]


# Per garbled column of a D_7 ball of radius 3 (spheres 1, 3, 4, 4): the
# column, the entry and its new big-endian bytes.  Record 4 is r^2, in
# sphere 2; its parent set to record 0 lies two spheres closer.  Record 1 is
# r; letter 3 names no generator.  The sizes of the distances 1, 2 and 3
# sum to one more than the count.
GARBLED_FIELDS = {
    "distance": ("spheres", 1, (4).to_bytes(8, "big")),
    "parent_index": ("parents", 4, (0).to_bytes(4, "big")),
    "parent_letter": ("letters", 1, (3).to_bytes(4, "big", signed=True)),
    "count": ("header", 42, (13).to_bytes(8, "big")),
}


@pytest.mark.parametrize("field", sorted(GARBLED_FIELDS))
def test_ball_cached_recomputes_garbled_file(tmp_path, field):
    column, i, value = GARBLED_FIELDS[field]
    group = Dihedral(7)
    gens = standard_gens(group)
    b1 = ball_cached(group, gens, 3, tmp_path)
    assert (b1.sphere_sizes, len(b1)) == ((1, 3, 4, 4), 12)
    (path,) = tmp_path.glob("ball-*.bin")
    data = path.read_bytes()
    offset = i if column == "header" else column_offset(b1, column, i)
    path.write_bytes(patched(data, offset, value))
    with pytest.raises(ValueError):
        load_ball(path, group, gens)
    b2 = ball_cached(group, gens, 3, tmp_path)
    assert b2.sphere_sizes == b1.sphere_sizes
    assert path.read_bytes() == data


@pytest.mark.parametrize("field", sorted(HEADER_FIELDS))
def test_header_field_at_its_maximum_is_a_quick_miss(tmp_path, field):
    # A garbled version-1 record once named about 4.3e9 lamps and hung the
    # loader; every field is now checked against the file before it sizes
    # anything.
    offset, width = HEADER_FIELDS[field]
    lamp = Lamplighter()
    gens = standard_gens(lamp)
    ball_cached(lamp, gens, 1, tmp_path)
    (path,) = tmp_path.glob("ball-*.bin")
    data = path.read_bytes()
    path.write_bytes(patched(data, offset, b"\xff" * width))
    start = time.monotonic()
    with pytest.raises(ValueError):
        load_ball(path, lamp, gens)
    assert ball_cached(lamp, gens, 1, tmp_path).sphere_sizes == (1, 3)
    assert time.monotonic() - start < 1
    assert path.read_bytes() == data


def test_garbled_parent_links_raise(tmp_path):
    # Z under {1}, radius 3: records 0, 1, -1, 2, -2, 3, -3.  The parent of
    # record 1 (the element 1) set to record 3 (the element 2) lies one
    # layer further out, not one closer.
    gens = gens_of(ZZ, 1)
    path = tmp_path / "ball.bin"
    b = ball(ZZ, gens, 3)
    save_ball(b, path)
    data = path.read_bytes()
    offset = column_offset(b, "parents", 1)
    assert data[offset : offset + 4] == (0).to_bytes(4, "big")
    path.write_bytes(patched(data, offset, (3).to_bytes(4, "big")))
    with pytest.raises(ValueError, match="garbled"):
        load_ball(path, ZZ, gens)


def test_load_ball_rejects_a_repeated_element(tmp_path):
    # C_10 under {1}: the last record is 5, reached from 4 by +1.  With
    # letter -1 its parent step lands on 3, already a record: the rebuilt
    # codes are not distinct.
    c10 = Cyclic(10)
    gens = gens_of(c10, 1)
    path = tmp_path / "ball.bin"
    b = ball(c10, gens, 10)
    save_ball(b, path)
    data = path.read_bytes()
    offset = column_offset(b, "letters", 9)
    assert data[offset : offset + 4] == (1).to_bytes(4, "big", signed=True)
    path.write_bytes(patched(data, offset, (-1).to_bytes(4, "big", signed=True)))
    with pytest.raises(ValueError, match="garbled"):
        load_ball(path, c10, gens)


@pytest.mark.parametrize("letter", [0, 2, -(2**31), 2**31 - 1])
def test_load_ball_rejects_a_letter_outside_gens(tmp_path, letter):
    # Z under {1}: record 2 is -1 with letter -1; letter 0 belongs to the
    # identity alone, and no other letter is one of the generators'.
    gens = gens_of(ZZ, 1)
    path = tmp_path / "ball.bin"
    b = ball(ZZ, gens, 3)
    save_ball(b, path)
    data = path.read_bytes()
    offset = column_offset(b, "letters", 2)
    assert data[offset : offset + 4] == (-1).to_bytes(4, "big", signed=True)
    path.write_bytes(patched(data, offset, letter.to_bytes(4, "big", signed=True)))
    with pytest.raises(ValueError, match="garbled"):
        load_ball(path, ZZ, gens)


def test_load_ball_rejects_overflowing_parent_step(tmp_path):
    # Z with an 8-bit cap under {100}: the radius-2 ball overflows, so none
    # is saved.  A file forged for it, with the hash of (Z, {100}, 2), its
    # spheres 1, 2, 1 and record 3 as record 1 (100) stepped by +1, makes
    # the parent step 100 + 100 pass the cap.
    z8 = IntegerLine(bits=8)
    gens = gens_of(z8, 100)
    with pytest.raises(RangeOverflowError):
        ball(z8, gens, 2)
    path = tmp_path / "ball.bin"
    save_ball(ball(z8, gens, 1), path)
    magic_and_version = path.read_bytes()[:6]
    digest = bytes.fromhex(ball_content_hash(gens, 2))
    header = magic_and_version + digest + struct.pack(">IQI", 2, 4, 3)
    path.write_bytes(header + struct.pack(">3Q4I4i", 1, 2, 1, 0, 0, 0, 1, 0, 1, -1, 1))
    with pytest.raises(ValueError, match="garbled"):
        load_ball(path, z8, gens)


@pytest.mark.parametrize("parent", ["own", "next", "past_the_count"])
def test_load_ball_rejects_a_parent_outside_the_previous_sphere(tmp_path, parent):
    # Lamplighter under {t^3, a}, radius 2: a parent index in the record's
    # own sphere, in no sphere yet, or past the last record.
    lamp = Lamplighter()
    gens = gens_of(lamp, ((), 3), ((0,), 0))
    b = ball(lamp, gens, 2)
    path = tmp_path / "ball.bin"
    save_ball(b, path)
    data = path.read_bytes()
    i = b.sphere_sizes[0] + b.sphere_sizes[1]  # the first record of sphere 2
    index = {"own": i, "next": i + 1, "past_the_count": 2**32 - 1}[parent]
    path.write_bytes(patched(data, column_offset(b, "parents", i), index.to_bytes(4, "big")))
    with pytest.raises(ValueError, match="garbled"):
        load_ball(path, lamp, gens)


def v1_cache_bytes(b):
    """The version-1 bytes of a ball on Z^k or the lamplighter at 64 bits:
    header (magic, version, content hash, radius, count), then per record in
    BFS order a 2-byte length, the element bytes, its distance and its parent
    letter."""

    def coord(c):
        return c.to_bytes(8, "big", signed=True)

    def element(p):
        if isinstance(b.group, Lamplighter):
            lamps, cursor = p
            return coord(cursor) + len(lamps).to_bytes(4, "big") + b"".join(map(coord, lamps))
        return b"".join(map(coord, p))

    out = [b"DECB", (1).to_bytes(2, "big"),
           bytes.fromhex(ball_content_hash(b.gens, b.radius)),
           b.radius.to_bytes(4, "big"), len(b).to_bytes(8, "big")]
    for p, d, letter in zip(b.payloads(), b.dist.values(), b.parent.values()):
        enc = element(p)
        out += [len(enc).to_bytes(2, "big"), enc, d.to_bytes(4, "big"),
                letter.to_bytes(4, "big", signed=True)]
    return b"".join(out)


def test_version_1_cache_file_is_a_miss_and_rewritten(tmp_path):
    lamp = Lamplighter()
    gens = standard_gens(lamp)
    b = ball(lamp, gens, 4)
    key = ball_content_hash(gens, 4)
    path = tmp_path / f"ball-{key[:24]}.bin"
    path.write_bytes(v1_cache_bytes(b))
    with pytest.raises(ValueError, match="version 1"):
        load_ball(path, lamp, gens)
    assert ball_record(ball_cached(lamp, gens, 4, tmp_path)) == ball_record(b)
    save_ball(b, tmp_path / "v2.bin")
    assert path.read_bytes() == (tmp_path / "v2.bin").read_bytes()
    assert path.read_bytes()[4:6] == (2).to_bytes(2, "big")


def _table_of(group):
    """An identity-codec copy of a finite group: its multiplication table."""
    payloads = [x.payload for x in group.elements()]
    ids = {p: i for i, p in enumerate(payloads)}
    return TableGroup([[ids[group.mul_payload(p, q)] for q in payloads] for p in payloads], 0)


FUZZ_BALLS = {
    "Z-R5": (ZZ, (1,), 5),
    "Z2-R3": (IntegerGrid(2), ((1, 0), (0, 1)), 3),
    "C10-R10": (Cyclic(10), (1,), 10),
    "D7-R3": (Dihedral(7), ((1, 0), (0, 1)), 3),
    "lamplighter-R4": (Lamplighter(), (((), 1), ((0,), 0)), 4),
    "lamplighter-t3-R2": (Lamplighter(), (((), 3), ((0,), 0)), 2),
    "table-D5-R3": (_table_of(Dihedral(5)), (1, 5), 3),
}


@pytest.mark.parametrize("name", FUZZ_BALLS)
def test_mutated_cache_bytes_load_the_ball_or_raise(tmp_path, name):
    # Every byte flipped (^1, ^0x80), and truncations: each mutated file
    # loads a ball equal to the fresh one, or is a ValueError.
    group, payloads, radius = FUZZ_BALLS[name]
    gens = gens_of(group, *payloads)
    b = ball(group, gens, radius)
    path = tmp_path / "ball.bin"
    save_ball(b, path)
    fresh = load_ball(path, group, gens)
    assert (fresh.radius, ball_record(fresh)) == (b.radius, ball_record(b))
    assert all(fresh.geodesic(x) == b.geodesic(x) for x in b.elements())
    data = path.read_bytes()
    rng = random.Random(name)
    mutants = [patched(data, i, bytes([data[i] ^ bit]))
               for i in range(len(data)) for bit in (1, 0x80)]
    mutants += [data[:n] for n in sorted(rng.sample(range(len(data)), 20)) + [0, 54, len(data) - 1]]
    expected = (b.radius, ball_record(b))
    for mutant in mutants:
        path.write_bytes(mutant)
        try:
            loaded = load_ball(path, group, gens)
        except ValueError:
            continue
        assert (loaded.radius, ball_record(loaded)) == expected


def test_ball_csv_export(tmp_path):
    b = ball(ZZ, gens_of(ZZ, 1), 2)
    path = tmp_path / "ball.csv"
    ball_to_csv(b, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "element,norm"
    assert lines[1] == "0,0"
    assert set(lines[1:]) == {"0,0", "1,1", "-1,1", "2,2", "-2,2"}


HEADER = ["element", "norm", "depth"]


def plain_rows(count):
    return [(f"{{{i % 7}}}@{i}", str(i % 13), "1") for i in range(count)]


@pytest.mark.parametrize("count", [0, 1, 255, 256, 1000])
def test_write_csv_is_csv_writers_bytes_for_plain_rows(tmp_path, count):
    # the header is the first row of the first block: 255 rows fill it
    rows = plain_rows(count)
    write_csv(tmp_path / "joined.csv", HEADER, rows)
    expected = csv_writer_bytes(tmp_path / "writer.csv", HEADER, rows)
    assert (tmp_path / "joined.csv").read_bytes() == expected
    assert expected.count(b"\r\n") == count + 1 and b'"' not in expected


@pytest.mark.parametrize("special", [",", '"', "\r", "\n", "\r\n"], ids=repr)
@pytest.mark.parametrize("at, field", [(0, 0), (254, 2), (255, 0), (511, 1), (700, 2)],
                         ids=["first-row", "last-of-first-block", "first-of-second-block",
                              "first-of-third-block", "mid-third-block"])
def test_write_csv_quotes_as_csv_writer_does(tmp_path, special, at, field):
    rows = [list(row) for row in plain_rows(1000)]
    rows[at][field] = f"a{special}b"
    rows[at + 3][field] = f"{special}"  # a later row in the same block, or the next
    write_csv(tmp_path / "joined.csv", HEADER, rows)
    expected = csv_writer_bytes(tmp_path / "writer.csv", HEADER, rows)
    assert (tmp_path / "joined.csv").read_bytes() == expected
    assert expected.count(b'"') >= 4


def test_determinism_two_runs_identical():
    gens = standard_gens(Lamplighter())
    b1 = ball(Lamplighter(), gens, 5)
    b2 = ball(Lamplighter(), gens, 5)
    assert list(b1.payloads()) == list(b2.payloads())
    for x in b1.elements():
        assert b1.geodesic(x) == b2.geodesic(x)


# -- coded balls (Z, Z^k, lamplighter) against the BFS on payloads ----------------


def reference_ball(group, gens, radius):
    """(dist items, parent items, sphere sizes) of a BFS on payloads."""
    identity = group.identity_payload()
    parent = {identity: 0}
    dist = [(identity, 0)]
    spheres = [1]
    layers = bfs_layers(group.mul_payload, gens.symmetrized_letters(), identity, parent)
    for r, layer in islice(layers, radius):
        dist.extend((y, r) for y in layer)
        spheres.append(len(layer))
    return dist, list(parent.items()), tuple(spheres)


def ball_record(b):
    """The reference_ball record of a ball, decoded from its codes."""
    payloads = list(b.payloads())
    return (
        list(zip(payloads, b.dist.values())),
        list(zip(payloads, b.parent.values())),
        b.sphere_sizes,
    )


def payload_ball(group, gens, radius):
    """The reference BFS as a Ball on the identity codec: codes are payloads."""
    dist, parent, spheres = reference_ball(group, gens, radius)
    same = lambda p: p  # noqa: E731
    codec = Codec(list(gens.letters.values()), group.mul_payload,
                  lambda codes, s: list(map(group.mul_payload, codes, repeat(s))), same, same,
                  partial(map, group.format_payload))
    return Ball(group, gens, radius, dict(dist), dict(parent), spheres, codec)


def reference_geodesic(group, gens, parent, payload, d):
    letters = []
    for _ in range(d):
        letters.append(parent[payload])
        payload = group.mul_payload(payload, gens.letters[-letters[-1]])
    return tuple(reversed(letters))


@settings(max_examples=200, deadline=None)
@given(st.one_of(free_abelian_cases(), lamplighter_cases()))
def test_coded_ball_matches_payload_bfs(tmp_path_factory, case):
    group, gens, radius = case
    expected = outcome(reference_ball, group, gens, radius)
    if expected is RangeOverflowError:
        with pytest.raises(RangeOverflowError):
            ball(group, gens, radius)
        return
    b = ball(group, gens, radius)
    # Must not change: dist order, parent letters, sphere sizes.
    assert ball_record(b) == expected
    ref = payload_ball(group, gens, radius)
    norms, parent = dict(expected[0]), dict(expected[1])
    for payload, d in expected[0]:
        geodesic = reference_geodesic(group, gens, parent, payload, d)
        assert b.geodesic_payload(payload) == geodesic
        assert outcome(depth, b, GroupElement(group, payload), 4) == outcome(
            reference_depth, group, gens, norms, payload, 4
        )
    words = b.along_parents((), lambda word, letter: word + (letter,))
    assert list(words) == list(b.dist)  # keyed by code
    assert list(zip(b.payloads(), words.values())) == [
        (p, reference_geodesic(group, gens, parent, p, d)) for p, d in expected[0]
    ]
    rows = outcome(lambda: list(depth_profile(b, 4).rows()))
    assert rows == outcome(lambda: list(depth_profile(ref, 4).rows()))
    # Must not change: cache bytes and CSV; a save and load returns the same ball.
    tmp = tmp_path_factory.mktemp("coded")
    save_ball(b, tmp / "coded.bin")
    save_ball(ref, tmp / "payload.bin")
    assert (tmp / "coded.bin").read_bytes() == (tmp / "payload.bin").read_bytes()
    loaded = load_ball(tmp / "coded.bin", group, gens)
    assert (loaded.radius, loaded.sphere_sizes) == (b.radius, b.sphere_sizes)
    assert list(loaded.dist.items()) == list(b.dist.items())
    assert list(loaded.parent.items()) == list(b.parent.items())
    ball_to_csv(b, tmp / "coded.csv")
    ball_to_csv(ref, tmp / "payload.csv")
    assert (tmp / "coded.csv").read_bytes() == (tmp / "payload.csv").read_bytes()
    assert outcome(profile_csv, b, tmp / "coded-depth.csv") == outcome(
        profile_csv, ref, tmp / "payload-depth.csv"
    )


@pytest.mark.parametrize("group, radius", [(Lamplighter(), 6), (Dihedral(6), 12)], ids=repr)
def test_kernel_steps_each_distinct_step_once(group, radius):
    # a and s are involutions: of the four signed letters, two step alike
    gens = standard_gens(group)
    expanded = Counter()

    def mul(x, step):
        expanded[x] += 1
        return group.mul_payload(x, step)

    identity = group.identity_payload()
    for _ in islice(bfs_layers(mul, gens.symmetrized_letters(), identity, {identity: 0}), radius):
        pass
    assert set(expanded.values()) == {3}
    assert len(expanded) == (len(ball(group, gens, radius - 1)) if group.order() is None
                             else group.order())


def profile_csv(b, path):
    """The bytes of the cap-4 depth profile CSV of b, written to path."""
    depth_profile(b, 4).to_csv(path)
    return path.read_bytes()


def is_coded(b):
    return b.codec.step != b.group.mul_payload


AT_THE_CAP = [
    # A radius-1 ball's codes cover 3 steps: 3 * 42 <= 127 < 3 * 43.
    (IntegerLine(bits=8), (42,), (43,)),
    (IntegerGrid(2, bits=8), ((42, -3), (0, 1)), ((43, -3), (0, 1))),
    # Lamp 11: a 3-bit cursor field under 2 * (3 + 11) + 1 lamp bits, 32 in
    # all, the most for 3 steps of 8 bits; lamp 12 needs 34.
    (Lamplighter(bits=8), (((), 1), ((11,), 0)), (((), 1), ((12,), 0))),
]


def test_coded_ball_at_the_cap():
    for group, inside, outside in AT_THE_CAP:
        for payloads, coded in ((inside, True), (outside, False)):
            gens = gens_of(group, *payloads)
            b = ball(group, gens, 1)
            assert is_coded(b) == coded
            assert ball_record(b) == reference_ball(group, gens, 1)


def test_codes_fall_back_past_the_cap():
    line = IntegerLine(bits=8)
    assert line.integer_code([127, -127], 1).step is add
    assert line.integer_code([100, -100], 2).step == line.mul_payload
    with pytest.raises(RangeOverflowError):
        ball(line, gens_of(line, 100), 2)
    with pytest.raises(RangeOverflowError):
        ball(IntegerGrid(2, bits=8), gens_of(IntegerGrid(2, bits=8), (64, 0)), 2)
    lamp = Lamplighter(bits=8)
    steps = [((), 1), ((), -1), ((0,), 0)]
    assert lamp.integer_code(steps, 127).step != lamp.mul_payload
    assert lamp.integer_code(steps, 128).step == lamp.mul_payload
    gens = gens_of(lamp, ((0,), 60), ((), 1))
    assert ball_record(ball(lamp, gens, 2)) == reference_ball(lamp, gens, 2)
    with pytest.raises(RangeOverflowError):
        ball(lamp, gens, 3)


def test_lamplighter_far_cursor_takes_the_payloads():
    # A code has a bit for every lamp position the cursor can reach, 1e10 of
    # them for a cursor step of 1e9 over 5 steps; the payloads hold only the
    # lit lamps.
    lamp = Lamplighter()
    gens = gens_of(lamp, ((0,), 0), ((), 10**9))
    b = ball(lamp, gens, 2)
    assert not is_coded(b)
    assert ball_record(b) == reference_ball(lamp, gens, 2)
    assert is_coded(ball(lamp, gens_of(lamp, ((0,), 0), ((), 32)), 2))


@pytest.mark.parametrize(
    "group,payloads",
    [
        (Lamplighter(), (((), 3), ((-1, 2), 0))),
        (IntegerGrid(2), ((3, -1), (0, 2))),
        (IntegerLine(), (3, 5)),
    ],
    ids=["lamplighter", "grid", "line"],
)
def test_ball_codes_cover_walks_of_radius_plus_one(group, payloads):
    # The depth search steps once past the ball, and the walk about a
    # construction's witness goes n + d + 1 <= 2n + 1 steps out: every walk
    # of radius + 1 steps from an element of the ball must stay exact.
    gens = gens_of(group, *payloads)
    b = ball(group, gens, 4)
    rng = random.Random(11)
    letters = list(gens.letters)
    walks = [[x] * (b.radius + 1) for x in letters]  # straight out, the farthest
    for start in b.dist:
        for word in walks + [rng.choices(letters, k=b.radius + 1)]:
            code, payload = start, b.codec.decode(start)
            for letter in word:
                code = b.codec.step(code, b.letter_codes[letter])
                payload = group.mul_payload(payload, gens.letters[letter])
            assert b.codec.decode(code) == payload
            assert b.codec.encode(payload) == code


def test_grid_code_is_additive_and_decodes():
    grid = IntegerGrid(3)
    steps = [(3, -1, 0), (-2, 5, 7), (0, 0, -4)]
    codec = grid.integer_code(steps, 8)
    codes, decode = codec.codes, codec.decode
    for p, c in zip(steps, codes):
        assert decode(c) == p
        assert codec.encode(p) == c
    assert decode(4 * codes[1] - 3 * codes[2] + codes[0]) == (3 - 8, -1 + 20, 28 + 12)
    assert decode(0) == (0, 0, 0)
    assert codec.encode((0, 0, 57)) is None


def test_lamplighter_code_steps_and_decodes():
    lamp = Lamplighter()
    steps = [((-2, 1), 3), ((0,), 0), ((), -1)]
    codec = lamp.integer_code(steps, 10)
    identity = codec.encode(lamp.identity_payload())
    assert codec.decode(identity) == lamp.identity_payload()
    rng = random.Random(3)
    codes, payloads = [], []
    for _ in range(200):
        code, payload = identity, lamp.identity_payload()
        for _ in range(rng.randint(0, 10)):
            i = rng.randrange(len(steps))
            code = codec.step(code, codec.codes[i])
            payload = lamp.mul_payload(payload, steps[i])
        assert codec.decode(code) == payload
        assert codec.encode(payload) == code
        codes.append(code)
        payloads.append(payload)
    assert list(codec.texts(codes)) == list(map(lamp.format_payload, payloads))
    assert codec.encode(((), 31)) is None
    assert codec.encode(((-33,), 0)) is None


CODEC_TEXT_CASES = [
    # steps ((-2, 1), 3), ((0,), 0), ((), -1) for 10 steps: cursor within 30, lamps within 32
    (Lamplighter(), [((-2, 1), 3), ((0,), 0), ((), -1)], 10, [
        ((), 0), ((), 30), ((), -30),  # no lamps, cursors of both signs
        ((-32,), 5),  # a lamp at -reach, bit 0 of the mask
        ((-25, -24, -17, -16), -3),  # lamps on both sides of two byte boundaries
        ((32,), -7), ((-32, 32), 0),  # a far lamp, alone and with the nearest
        (tuple(range(-32, 33, 3)), 17),
    ]),
    # one call renders each lamp mask once: masks recur under other cursors
    (Lamplighter(), [((-2, 1), 3), ((0,), 0), ((), -1)], 10, [
        ((-2, 1), 0), ((), 0), ((-2, 1), 5), ((-32, 32), -30), ((-2, 1), -30),
        ((), 30), ((-32, 32), 30), ((-2, 1), 0), ((), -1),
    ]),
    (IntegerGrid(3), [(3, -1, 0), (-2, 5, 7), (0, 0, -4)], 8,
     [(0, 0, 0), (-24, 40, 56), (3, -8, -32)]),
    (IntegerLine(), [3, -5], 4, [0, 20, -20, 7]),
    # lamp 12 is too wide for 8-bit codes over 3 steps: the identity codec
    (Lamplighter(bits=8), [((), 1), ((12,), 0)], 3, [((), 0), ((-12, 12), -1)]),
]


@pytest.mark.parametrize("group, steps, radius, payloads", CODEC_TEXT_CASES,
                         ids=["lamplighter", "lamplighter-shared-masks", "grid", "line", "identity"])
def test_codec_text_is_the_format_of_the_payload(group, steps, radius, payloads):
    codec = group.integer_code(steps, radius)
    codes = list(map(codec.encode, payloads))
    for code, payload in zip(codes, payloads):
        assert code is not None and codec.decode(code) == payload
    assert list(codec.texts(codes)) == list(map(group.format_payload, payloads))


# -- whole-list steps ----------------------------------------------------------------


def assert_step_all_is_the_map_of_step(codec, codes):
    for s in dict.fromkeys(codec.codes):
        assert outcome_text(lambda: list(codec.step_all(codes, s))) == outcome_text(
            lambda: [codec.step(code, s) for code in codes])


@settings(max_examples=200, deadline=None)
@given(st.one_of(free_abelian_cases(), lamplighter_cases(), table_cases()))
def test_step_all_is_the_map_of_step(case):
    group, gens, radius = case
    b = outcome(ball, group, gens, radius)
    if b is RangeOverflowError:
        return
    # a ball's dist, as a profile's first step passes it, and a list of its codes
    assert_step_all_is_the_map_of_step(b.codec, b.dist)
    assert_step_all_is_the_map_of_step(b.codec, list(b.dist)[::-1])


@pytest.mark.parametrize("group, payloads, radius, coded", [
    (IntegerLine(), (3, -7), 5, True),
    (IntegerGrid(2), ((1, 0), (2, -3)), 4, True),
    (Cyclic(12), (5,), 6, False),
    (Dihedral(7), ((1, 0), (0, 1)), 5, False),
    (Lamplighter(), (((), 1),), 6, True),  # the cursor alone
    (Lamplighter(), (((), 1), ((0,), 0), ((0, 1), 2)), 4, True),  # t,a,0.1@2: lamps and a move
    (Lamplighter(bits=8), (((), 1), ((20,), 0)), 2, False),  # too wide for 8-bit codes
    (TableGroup([[(i + j) % 6 for j in range(6)] for i in range(6)], 0), (1, 4), 3, False),
], ids=["line", "grid", "cyclic", "dihedral", "lamplighter-t", "lamplighter-t-a-0.1@2",
        "lamplighter-identity-codec", "table"])
def test_step_all_of_every_group_class(group, payloads, radius, coded):
    b = ball(group, gens_of(group, *payloads), radius)
    assert is_coded(b) == coded
    assert_step_all_is_the_map_of_step(b.codec, b.dist)


def test_step_all_past_the_64_bit_cap_raises_the_first_steps_error():
    # 2**62 over 3 steps outgrows the 64-bit cap: the identity codec, whose
    # whole-list step reruns the per-element sums to raise at the first overflow
    line = IntegerLine()
    codec = line.integer_code([2**62, -2**62], 3)
    assert codec.step == line.mul_payload
    codes = [0, -5, 2**62 - 1, 2**62, 2**62 + 1, -1]
    assert list(codec.step_all(codes, -2**62)) == [-2**62, -2**62 - 5, -1, 0, 1, -2**62 - 1]
    with pytest.raises(RangeOverflowError, match=rf"^sum {2**62} \+ {2**62} exceeds the 64-bit cap$"):
        codec.step_all(codes, 2**62)
    assert_step_all_is_the_map_of_step(codec, codes)


# SHA-256 of the version-1 record stream, pinned before balls kept their
# codes, and of the version-2 save_ball bytes: both pin BFS order and parents.
# Both hold the content hash, so they were pinned again when it became the
# hash of the genset.v1 document and the radius; no other byte changed.
BALL_CACHE_PINS = [
    ("lamplighter", (((), 1), ((0,), 0)), 10,
     "ef9b99b4c56416990f4a48470b3833af6193fad8f39f72c314efec68f32a34bd",
     "12809db4ad18b5a1fa1f826fe6153a3206853fe1e6d679f45a65c2dbc5659cdf"),
    ("grid2", ((1, 0), (0, 1)), 6,
     "7e56fa3e4fa9185e87a848c76de6e5dea5a5f17bbdd12cccf1d2a7019b842f52",
     "cc5a70085645d0566a9fc3865c144b8cd67fecac01914c8d724f141b06c3b330"),
]


@pytest.mark.parametrize("name,payloads,radius,v1_sha,v2_sha", BALL_CACHE_PINS,
                         ids=["lamplighter", "grid2"])
def test_ball_cache_bytes_pinned(tmp_path, name, payloads, radius, v1_sha, v2_sha):
    group = Lamplighter() if name == "lamplighter" else IntegerGrid(2)
    b = ball(group, gens_of(group, *payloads), radius)
    assert hashlib.sha256(v1_cache_bytes(b)).hexdigest() == v1_sha
    path = tmp_path / "ball.bin"
    save_ball(b, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == v2_sha


def test_ball_rejects_generators_of_another_group(tmp_path):
    # a C_5 generator does not step in Z: no ball, computed, cached or loaded, mixes them
    c5 = gens_of(Cyclic(5), 1)
    message = r"generators of Cyclic\(5\) given for a ball of IntegerLine\(bits=64\)"
    with pytest.raises(MixedGroupError, match=message):
        ball(IntegerLine(), c5, 3)
    with pytest.raises(MixedGroupError, match=message):
        ball_cached(IntegerLine(), c5, 3, tmp_path)
    save_ball(ball(Cyclic(5), c5, 3), tmp_path / "c5.bin")
    with pytest.raises(MixedGroupError, match=message):
        load_ball(tmp_path / "c5.bin", IntegerLine(), c5)
    assert not list(tmp_path.glob("ball-*"))
