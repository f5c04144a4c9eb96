"""Ball BFS against brute-force word enumeration, plus cache and budget."""

from __future__ import annotations

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadend.cayley import (
    Budget,
    BudgetExceededError,
    ball,
    ball_cached,
    ball_to_csv,
    bfs_layers,
    load_ball,
    save_ball,
)
from deadend.groups import (
    Cyclic,
    Dihedral,
    GeneratingSet,
    IntegerGrid,
    IntegerLine,
    Lamplighter,
    RangeOverflowError,
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


def gens_of(group, *payloads):
    return GeneratingSet([group.element(p) for p in payloads])


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


# Offset and new bytes per field of a D_7 record.  Records are 19 bytes from
# offset 50: a 2-byte length, a 9-byte encoding, a 4-byte distance and a
# 4-byte parent letter.  The first record is the identity; the parent letter
# of the second (the rotation r) flipped from +1 to -1 names r^2 as parent.
GARBLED_FIELDS = {
    "record_length": (50, b"\x00\x08"),
    "distance": (61, (1000).to_bytes(4, "big")),
    "parent_letter": (84, (-1).to_bytes(4, "big", signed=True)),
    # the second record, r = (1, 0), with its rotation raised by 7 to 8
    "non_canonical_rotation": (71, (8).to_bytes(8, "big")),
}


@pytest.mark.parametrize("field", sorted(GARBLED_FIELDS))
def test_ball_cached_recomputes_garbled_file(tmp_path, field):
    offset, value = GARBLED_FIELDS[field]
    group = Dihedral(7)
    gens = standard_gens(group)
    b1 = ball_cached(group, gens, 3, tmp_path)
    (path,) = tmp_path.glob("ball-*.bin")
    data = path.read_bytes()
    path.write_bytes(data[:offset] + value + data[offset + len(value) :])
    b2 = ball_cached(group, gens, 3, tmp_path)
    assert b2.sphere_sizes == b1.sphere_sizes
    assert path.read_bytes() == data


def test_load_ball_rejects_non_canonical_payload(tmp_path):
    # C_10 under {1}: records are 18 bytes from offset 50 and the last one
    # is 5.  Written as 15, its parent step (15 + 9 mod 10 = 4) still lands
    # one layer closer, so only the canonical decode rejects it.
    c10 = Cyclic(10)
    gens = gens_of(c10, 1)
    path = tmp_path / "ball.bin"
    save_ball(ball(c10, gens, 10), path)
    data = path.read_bytes()
    offset = 50 + 9 * 18 + 2
    assert data[offset : offset + 8] == (5).to_bytes(8, "big")
    path.write_bytes(data[:offset] + (15).to_bytes(8, "big") + data[offset + 8 :])
    with pytest.raises(ValueError, match="garbled ball cache file"):
        load_ball(path, c10, gens)


def test_garbled_parent_links_raise(tmp_path):
    # Records of Z under {1} are 18 bytes from offset 50; the parent letter
    # of the second record (the element 1) is its last 4 bytes.  Flipped
    # from +1 to -1, the parent of 1 becomes 2, one layer further out.
    gens = gens_of(ZZ, 1)
    path = tmp_path / "ball.bin"
    save_ball(ball(ZZ, gens, 3), path)
    data = path.read_bytes()
    offset = 50 + 18 + 14
    assert data[offset : offset + 4] == (1).to_bytes(4, "big", signed=True)
    path.write_bytes(data[:offset] + (-1).to_bytes(4, "big", signed=True) + data[offset + 4 :])
    with pytest.raises(ValueError, match="garbled parent links"):
        load_ball(path, ZZ, gens)


def test_load_ball_rejects_overflowing_parent_step(tmp_path):
    # The third record of Z under {1} is -1, letter -1; its payload set to
    # the 64-bit cap makes the parent step cap + 1 overflow.
    gens = gens_of(ZZ, 1)
    path = tmp_path / "ball.bin"
    save_ball(ball(ZZ, gens, 3), path)
    data = path.read_bytes()
    offset = 50 + 2 * 18 + 2
    assert data[offset : offset + 8] == (-1).to_bytes(8, "big", signed=True)
    cap = (2**63 - 1).to_bytes(8, "big", signed=True)
    path.write_bytes(data[:offset] + cap + data[offset + 8 :])
    with pytest.raises(ValueError, match="garbled ball cache file"):
        load_ball(path, ZZ, gens)


def test_ball_csv_export(tmp_path):
    b = ball(ZZ, gens_of(ZZ, 1), 2)
    path = tmp_path / "ball.csv"
    ball_to_csv(b, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "element,norm"
    assert lines[1] == "0,0"
    assert set(lines[1:]) == {"0,0", "1,1", "-1,1", "2,2", "-2,2"}


def test_determinism_two_runs_identical():
    gens = standard_gens(Lamplighter())
    b1 = ball(Lamplighter(), gens, 5)
    b2 = ball(Lamplighter(), gens, 5)
    assert list(b1.payloads()) == list(b2.payloads())
    for x in b1.elements():
        assert b1.geodesic(x) == b2.geodesic(x)


# -- integer-coded BFS (Z and Z^k) against the payload BFS ----------------------


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


def ball_record(group, gens, radius):
    b = ball(group, gens, radius)
    return list(b._dist.items()), list(b._parent.items()), b.sphere_sizes


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


@settings(max_examples=150, deadline=None)
@given(free_abelian_cases())
def test_coded_ball_matches_payload_bfs(case):
    group, gens, radius = case
    try:
        expected = reference_ball(group, gens, radius)
    except RangeOverflowError:
        with pytest.raises(RangeOverflowError):
            ball(group, gens, radius)
        return
    assert ball_record(group, gens, radius) == expected


def test_coded_ball_at_the_cap():
    line = IntegerLine(bits=8)
    gens = gens_of(line, 127)
    assert line.integer_code([127, -127], 1) is not None
    assert ball_record(line, gens, 1) == reference_ball(line, gens, 1)
    gens = gens_of(line, 100)
    assert line.integer_code([100, -100], 2) is None
    with pytest.raises(RangeOverflowError):
        ball(line, gens, 2)
    grid = IntegerGrid(2, bits=8)
    gens = gens_of(grid, (127, -3), (0, 1))
    assert ball_record(grid, gens, 1) == reference_ball(grid, gens, 1)
    with pytest.raises(RangeOverflowError):
        ball(grid, gens_of(grid, (64, 0)), 2)


def test_grid_code_is_additive_and_decodes():
    grid = IntegerGrid(3)
    steps = [(3, -1, 0), (-2, 5, 7), (0, 0, -4)]
    codes, decode = grid.integer_code(steps, 8)
    for p, c in zip(steps, codes):
        assert decode(c) == p
    assert decode(4 * codes[1] - 3 * codes[2] + codes[0]) == (3 - 8, -1 + 20, 28 + 12)
    assert decode(0) == (0, 0, 0)
