"""Element algebra: canonical forms, group laws, words, table validation."""

from __future__ import annotations

import copy
import itertools
import random
import re
import time
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadend.groups import (
    Cyclic,
    Dihedral,
    GeneratingSet,
    IntegerGrid,
    IntegerLine,
    InvalidElementError,
    Lamplighter,
    MixedGroupError,
    RangeOverflowError,
    TableGroup,
    TableGroupError,
    evaluate_word,
    fold_word,
    invert_word,
    standard_gens,
)

from conftest import random_table_groups

ZZ = IntegerLine()
C10 = Cyclic(10)
LAMP = Lamplighter()


def cyclic_table(m: int) -> list[list[int]]:
    return [[(i + j) % m for j in range(m)] for i in range(m)]


def _sample_elements(group, rng, count=40):
    if isinstance(group, IntegerLine):
        return [group.element(rng.randrange(-10**6, 10**6)) for _ in range(count)]
    if isinstance(group, IntegerGrid):
        return [
            group.element([rng.randrange(-1000, 1000) for _ in range(group.rank)])
            for _ in range(count)
        ]
    if isinstance(group, Lamplighter):
        out = []
        for _ in range(count):
            lamps = sorted(rng.sample(range(-8, 9), rng.randrange(0, 5)))
            out.append(group.element((tuple(lamps), rng.randrange(-8, 9))))
        return out
    return [group.element(rng.randrange(group.order())) if isinstance(group, (Cyclic, TableGroup))
            else group.element((rng.randrange(group.m), rng.randrange(2)))
            for _ in range(count)]


# -- products / invert / evaluate_word ---------------------------------------


def test_multiply_integers():
    assert ZZ.element(3) * ZZ.element(4) == ZZ.element(7)


def test_multiply_cyclic_residues():
    assert C10.element(7) * C10.element(5) == C10.element(2)


def test_multiply_lamplighter_inverse_law():
    t = LAMP.element(((), 1))
    assert t * t.inverse() == LAMP.identity()


def test_multiply_mixed_groups_rejected():
    with pytest.raises(MixedGroupError):
        ZZ.element(1) * C10.element(1)


def test_invert_examples():
    assert ZZ.element(5).inverse() == ZZ.element(-5)
    reflection = Dihedral(4).element((0, 1))
    assert reflection.inverse() == reflection
    assert C10.element(3).inverse() == C10.element(7)


def test_evaluate_word_line():
    gens = GeneratingSet([ZZ.element(1)])
    assert evaluate_word([1, 1, 1, 1, 1], gens) == ZZ.element(5)


def test_evaluate_word_empty_is_identity():
    gens = GeneratingSet([ZZ.element(1)])
    assert evaluate_word([], gens) == ZZ.identity()


def test_evaluate_word_cyclic_inverses():
    gens = GeneratingSet([C10.element(1)])
    assert evaluate_word([-1, -1, -1, -1], gens) == C10.element(6)


def test_evaluate_word_index_out_of_range():
    gens = GeneratingSet([ZZ.element(1)])
    with pytest.raises(ValueError):
        evaluate_word([2], gens)
    with pytest.raises(ValueError):
        evaluate_word([0], gens)
    # letters are looked up as given: the string "1" is no letter
    with pytest.raises(ValueError, match="word letter 1 out of range for 1 generators"):
        evaluate_word(["1"], gens)


def test_fold_word_pieces_in_sequence():
    # folding pieces one after another, each from the last result, is
    # folding their concatenation; D_5 does not commute, so order shows
    group = Dihedral(5)
    gens = standard_gens(group)
    rng = random.Random(3)
    for _ in range(30):
        word = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(15)))
        cuts = sorted(rng.randrange(len(word) + 1) for _ in range(3))
        acc = group.identity_payload()
        for a, b in zip([0] + cuts, cuts + [len(word)]):
            acc = fold_word(word[a:b], gens.letters, group.mul_payload, acc)
        assert acc == evaluate_word(word, gens).payload


def test_invert_word_reverses_and_flips():
    assert invert_word((1, -2, 3)) == (-3, 2, -1)


# -- group laws ---------------------------------------------------------------


@pytest.mark.parametrize(
    "group",
    [ZZ, IntegerGrid(2), C10, Cyclic(7), Dihedral(5), LAMP],
    ids=lambda g: repr(g),
)
def test_group_laws_sampled(group):
    rng = random.Random(1234)
    elems = _sample_elements(group, rng, count=25)
    identity = group.identity()
    for x in elems:
        assert x * identity == x
        assert identity * x == x
        assert x * x.inverse() == identity
        assert x.inverse().inverse() == x
    for _ in range(120):
        x, y, z = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize(
    "group",
    [ZZ, IntegerGrid(2), C10, Cyclic(7), Dihedral(5), LAMP,
     TableGroup(cyclic_table(6), identity_id=0),
     *(group for group, _ in random_table_groups(3, seed=41))],  # S4, A4, S4: not abelian
    ids=lambda g: repr(g),
)
def test_whole_list_arithmetic_equals_the_per_element_maps(group):
    rng = random.Random(99)
    for count in (0, 1, 30):
        ps = [x.payload for x in _sample_elements(group, rng, count)]
        qs = [x.payload for x in _sample_elements(group, rng, count)]
        assert group.products(ps, qs) == list(map(group.mul_payload, ps, qs))
        assert group.inverses(ps) == list(map(group.inv_payload, ps))
        prefixes, acc = [group.identity_payload()], group.identity_payload()
        for p in ps:
            acc = group.mul_payload(acc, p)
            prefixes.append(acc)
        assert group.prefix_products(ps) == prefixes


@pytest.mark.parametrize(
    "group",
    [Cyclic(7), Dihedral(5), TableGroup(cyclic_table(6), identity_id=0),
     *(group for group, _ in random_table_groups(2, seed=41))],
    ids=lambda g: repr(g),
)
def test_every_finite_group_codes_its_elements_by_payload(group):
    # a quotient's target ball is keyed by payload: certificates read target
    # norms and lifts off it with no encode
    payloads = [x.payload for x in group.elements()]
    codec = group.integer_code(payloads, len(payloads))
    assert list(map(codec.encode, payloads)) == payloads == list(map(codec.decode, payloads))
    assert codec.step == group.mul_payload


@pytest.mark.parametrize("bits", [8, 64])
def test_integer_line_lists_raise_mul_payloads_error_at_the_cap(bits):
    line = IntegerLine(bits=bits)
    cap = 2 ** (bits - 1) - 1
    ps, qs = [1, cap, -cap, 5], [2, 1, -1, cap]  # the first overflow is cap + 1
    with pytest.raises(RangeOverflowError) as per_element:
        line.mul_payload(cap, 1)
    with pytest.raises(RangeOverflowError) as whole_list:
        line.products(ps, qs)
    message = f"sum {cap} + 1 exceeds the {bits}-bit cap"
    assert str(whole_list.value) == str(per_element.value) == message
    with pytest.raises(RangeOverflowError, match=f"^sum {-cap} \\+ -1 exceeds the {bits}-bit cap$"):
        line.prefix_products([-cap, -1, 2 * cap])
    assert line.products([cap, -cap], array("q", [0, 0])) == [cap, -cap]  # an array, as tables hold
    assert line.prefix_products([cap, -cap, -cap]) == [0, cap, 0, -cap]
    assert line.inverses([cap, -cap]) == [-cap, cap]


def test_table_group_laws_exhaustive():
    group = TableGroup(cyclic_table(12), identity_id=0)
    elems = list(group.elements())
    for x, y, z in itertools.product(elems, repeat=3):
        assert (x * y) * z == x * (y * z)
    # payload-level sweep at the order-64 corpus ceiling
    big = TableGroup(cyclic_table(64), identity_id=0)
    t = big.table
    for x, y, z in itertools.product(range(64), repeat=3):
        assert t[t[x][y]][z] == t[x][t[y][z]]


def test_dihedral_relations():
    d = Dihedral(6)
    r = d.element((1, 0))
    s = d.element((0, 1))
    rk = d.identity()
    for _ in range(6):
        rk = rk * r
    assert rk == d.identity()
    assert s * s == d.identity()
    # s r s = r^-1
    assert s * r * s == r.inverse()


def test_lamplighter_toggle_and_shift():
    t = LAMP.element(((), 1))
    a = LAMP.element(((0,), 0))
    # walk right, toggle, walk back: lamp lit at position 1, cursor home
    g = t * a * t.inverse()
    assert g == LAMP.element(((1,), 0))
    assert a * a == LAMP.identity()


# -- canonical payloads ----------------------------------------------------------


@pytest.mark.parametrize(
    "group",
    [ZZ, IntegerGrid(3), C10, Dihedral(7), LAMP, TableGroup(cyclic_table(6), 0)],
    ids=lambda g: repr(g),
)
def test_canonical_encoding_unique(group):
    # equal elements have equal payloads, and a payload is its own canonical form
    rng = random.Random(7)
    elems = _sample_elements(group, rng, count=30)
    for x in elems:
        for y in elems:
            assert (x == y) == (x.payload == y.payload)
        assert group.canonical_payload(x.payload) == x.payload


@pytest.mark.parametrize(
    "group, raw, canonical",
    [
        (C10, 15, 5),
        (Dihedral(7), (8, 0), (1, 0)),
        (Dihedral(7), (1, 2), InvalidElementError),
        (TableGroup(cyclic_table(6), 0), 6, InvalidElementError),
        (LAMP, ((3, 1), 0), ((1, 3), 0)),
    ],
    ids=["cyclic-residue", "dihedral-rotation", "dihedral-reflection", "table-id", "lamps"],
)
def test_canonical_payload_of_non_canonical_raw(group, raw, canonical):
    # a non-canonical raw value is reduced to the one payload of its element, or rejected
    if canonical is InvalidElementError:
        with pytest.raises(InvalidElementError):
            group.canonical_payload(raw)
    else:
        assert group.canonical_payload(raw) == canonical


def test_lamplighter_canonical_sorted():
    g = LAMP.element(((5, -2, 3), 0))
    assert g.payload == ((-2, 3, 5), 0)
    with pytest.raises(InvalidElementError):
        LAMP.element(((1, 1), 0))


def test_cyclic_canonicalizes_residues():
    assert C10.element(76).payload == 6
    assert C10.element(-4).payload == 6


def test_invalid_payloads_rejected():
    with pytest.raises(InvalidElementError):
        ZZ.element("3")
    with pytest.raises(InvalidElementError):
        IntegerGrid(2).element((1,))
    with pytest.raises(InvalidElementError):
        Dihedral(4).element((1, 2))
    with pytest.raises(InvalidElementError):
        TableGroup(cyclic_table(4), 0).element(5)


# -- overflow -------------------------------------------------------------------


def test_integer_overflow_is_hard_error():
    small = IntegerLine(bits=8)
    x = small.element(100)
    with pytest.raises(RangeOverflowError):
        x * x
    with pytest.raises(RangeOverflowError):
        small.element(1000)


def test_grid_rank_is_capped():
    assert IntegerGrid(1024).rank == 1024
    # rejected before anything is allocated at that size
    for rank in (1025, 100_000_000):
        with pytest.raises(ValueError, match=r"rank must be an integer in \[1, 1024\]"):
            IntegerGrid(rank)


def test_lamplighter_overflow():
    tiny = Lamplighter(bits=8)
    far = tiny.element(((), 100))
    with pytest.raises(RangeOverflowError):
        far * far


def test_lamplighter_inverse_stays_within_the_cap():
    # the inverse of (lamps, c) lights q - c for each lamp q
    tiny = Lamplighter(bits=8)
    assert tiny.inv_payload(((126,), -1)) == ((127,), 1)
    assert tiny.inv_payload(((-127,), 0)) == ((-127,), 0)
    for payload, message in [(((127,), -1), "lamp position 127 - -1 exceeds the 8-bit cap"),
                             (((0, -3), 125), "lamp position -3 - 125 exceeds the 8-bit cap")]:
        with pytest.raises(RangeOverflowError, match=message):
            tiny.inv_payload(payload)
        with pytest.raises(RangeOverflowError, match=message):
            GeneratingSet([tiny.element(payload)])


# -- generating sets --------------------------------------------------------------


def test_generating_set_rejects_identity_and_dups():
    with pytest.raises(ValueError):
        GeneratingSet([ZZ.element(0)])
    with pytest.raises(ValueError):
        GeneratingSet([ZZ.element(2), ZZ.element(2)])
    with pytest.raises(MixedGroupError):
        GeneratingSet([ZZ.element(1), C10.element(1)])


def test_generating_set_symmetrized_letters_order():
    gens = GeneratingSet([ZZ.element(2), ZZ.element(3)])
    assert gens.symmetrized_letters() == ((1, 2), (-1, -2), (2, 3), (-2, -3))


def test_standard_gens():
    assert [e.payload for e in standard_gens(ZZ)] == [1]
    assert [e.payload for e in standard_gens(Cyclic(5))] == [1]
    assert [e.payload for e in standard_gens(Dihedral(4))] == [(1, 0), (0, 1)]
    assert [e.payload for e in standard_gens(LAMP)] == [((), 1), ((0,), 0)]
    grid = IntegerGrid(2)
    assert [e.payload for e in standard_gens(grid)] == [(1, 0), (0, 1)]


# -- table group validation --------------------------------------------------------


def brute_force_associative(table) -> bool:
    m = len(table)
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in range(m)
        for y in range(m)
        for z in range(m)
    )


def brute_force_is_group(table, identity) -> bool:
    """Cubic-time oracle for the full set of group axioms."""
    m = len(table)
    ids = set(range(m))
    if any(set(row) != ids for row in table):
        return False
    if any({table[y][x] for y in range(m)} != ids for x in range(m)):
        return False
    if any(table[identity][x] != x or table[x][identity] != x for x in range(m)):
        return False
    if any(identity not in table[x] for x in range(m)):
        return False
    return brute_force_associative(table)


def test_table_group_valid_tables_load():
    for m in (1, 2, 3, 8):
        group = TableGroup(cyclic_table(m), identity_id=0)
        assert group.order() == m
    # a table group is its table and identity: the name does not count
    c4 = TableGroup(cyclic_table(4), identity_id=0)
    assert c4 == TableGroup(cyclic_table(4), identity_id=0, name="other")
    assert hash(c4) == hash(TableGroup(cyclic_table(4), identity_id=0, name="other"))
    other_identity = copy.copy(c4)
    other_identity.identity_id = 1
    klein = TableGroup([[i ^ j for j in range(4)] for i in range(4)], identity_id=0)
    for other in (other_identity, klein, Cyclic(4)):
        assert c4 != other and other != c4


def test_table_group_large_table_loads():
    m = 520  # Light's test is conclusive at every order
    group = TableGroup(cyclic_table(m), identity_id=0)
    assert group.order() == m
    assert (group.element(300) * group.element(400)).payload == 180


def test_table_inverses_are_two_sided():
    # the loader reads each inverse off its row's identity cell alone
    for group, _ in random_table_groups(12, seed=7):
        e = group.identity_payload()
        for x in range(group.order()):
            y = group.inv_payload(x)
            assert group.mul_payload(x, y) == e and group.mul_payload(y, x) == e


def test_table_group_rejects_bad_identity():
    with pytest.raises(TableGroupError):
        TableGroup(cyclic_table(4), identity_id=1)


def test_table_group_rejects_non_latin():
    table = [[0, 1], [0, 1]]
    with pytest.raises(TableGroupError):
        TableGroup(table, identity_id=0)
    # identity and every row pass; column 1 reads 1, 0, 0
    with pytest.raises(TableGroupError, match="column 1 is not a permutation"):
        TableGroup([[0, 1, 2], [1, 0, 2], [2, 0, 1]], identity_id=0)


def test_table_group_rejects_cells_that_are_not_ids():
    for cell in ("1", 1.0, True, 2):
        with pytest.raises(TableGroupError, match=f"table entry {cell!r} is not an id in 0..1"):
            TableGroup([[0, cell], [cell, 0]], identity_id=0)


def test_table_group_names_a_cell_equal_to_an_id_that_is_no_int():
    # True == 1 == 1.0: each is named though an equal int cell comes before it
    for cell in (True, 1.0):
        with pytest.raises(TableGroupError) as info:
            TableGroup([[0, 1], [cell, 0]], identity_id=0)
        assert str(info.value) == f"table entry {cell!r} is not an id in 0..1"


def test_table_group_rejects_an_identity_id_that_is_no_int():
    for identity in (True, 1.0, "1", 2):
        with pytest.raises(TableGroupError) as info:
            TableGroup([[1, 0], [0, 1]], identity_id=identity)
        assert str(info.value) == f"identity id {identity!r} out of range"


def test_table_group_rejects_non_associative():
    # A Latin square with two-sided identity that is not a group:
    # the smallest such quasigroups have order 5.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    assert not brute_force_associative(table)
    with pytest.raises(TableGroupError):
        TableGroup(table, identity_id=0)


def test_table_group_rejects_large_non_associative():
    # Z/1024 with the 2x2 block at rows and columns 1 and 513 swapped: still
    # a Latin square with identity 0 and two-sided inverses, not associative.
    table = cyclic_table(1024)
    table[1][1], table[1][513] = 514, 2
    table[513][1], table[513][513] = 2, 514
    with pytest.raises(TableGroupError, match=r"associativity fails at \(1, 1, 2\)"):
        TableGroup(table, identity_id=0)


@pytest.mark.parametrize("table, message", [
    # column 1 reads 1, 0, 0, 2 and row 2 reads 2, 0, 0, 1: column 1 comes first
    ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 0, 0, 1], [3, 2, 1, 0]], "column 1 is not a permutation"),
    # row 1 and column 1 both read 1, 1, ...: row 1 comes first
    ([[0, 1, 2, 3], [1, 1, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], "row 1 is not a permutation"),
    # a Latin square with identity 0 whose Light's test picks generators 1 and 2,
    # failing at both: at g = 1 first with x = 2, though x = 1 fails at g = 2
    ([
        [0, 1, 2, 3, 4, 5, 6],
        [1, 3, 6, 0, 5, 2, 4],
        [2, 4, 0, 5, 6, 3, 1],
        [3, 0, 4, 1, 2, 6, 5],
        [4, 2, 5, 6, 0, 1, 3],
        [5, 6, 1, 2, 3, 4, 0],
        [6, 5, 3, 4, 1, 0, 2],
    ], "associativity fails at (2, 1, 1)"),
], ids=["column-before-later-row", "row-before-its-column", "associativity-generator-order"])
def test_table_group_names_the_first_failure(table, message):
    with pytest.raises(TableGroupError) as info:
        TableGroup(table, identity_id=0)
    assert str(info.value) == message


def test_table_validation_agrees_with_brute_force_oracle():
    # Relabeled group tables must load; perturbed ones must be rejected
    # exactly when the cubic oracle rejects them.
    rng = random.Random(99)
    for trial in range(40):
        m = rng.choice([4, 5, 6, 8])
        table = cyclic_table(m)
        identity = 0
        if trial % 2 == 0:
            # relabel through a random bijection: still a group
            perm = list(range(m))
            rng.shuffle(perm)
            inv = [0] * m
            for i, p in enumerate(perm):
                inv[p] = i
            table = [[perm[table[inv[i]][inv[j]]] for j in range(m)] for i in range(m)]
            identity = perm[0]
        else:
            # swap two non-identity rows: no longer a group
            i, j = rng.sample(range(1, m), 2)
            table[i], table[j] = table[j], table[i]
        expected = brute_force_is_group(table, identity)
        try:
            TableGroup(table, identity_id=identity)
            accepted = True
        except TableGroupError:
            accepted = False
        assert accepted == expected, f"trial {trial}: oracle {expected}, loader {accepted}"


# -- the order checks run in, and the order failures are named in ---------------------


def table_of(elements, mul):
    """The multiplication table of ``elements`` (identity first) on ids 0..m-1."""
    ids = {x: i for i, x in enumerate(elements)}
    return [[ids[mul(x, y)] for y in elements] for x in elements]


def _dihedral(m):
    elements = [(k, s) for s in (0, 1) for k in range(m)]
    return table_of(elements, lambda p, q: ((p[0] + (-q[0] if p[1] else q[0])) % m, p[1] ^ q[1]))


def _abelian(*moduli):
    elements = list(itertools.product(*map(range, moduli)))
    return table_of(elements, lambda p, q: tuple((a + b) % n for a, b, n in zip(p, q, moduli)))


def _quaternion():
    # i^a j^b (a < 4, b < 2), with j i = i^-1 j and j^2 = i^2
    elements = [(a, b) for b in (0, 1) for a in range(4)]

    def mul(p, q):
        a = p[0] + (-q[0] if p[1] else q[0]) + 2 * (p[1] & q[1])
        return a % 4, p[1] ^ q[1]

    return table_of(elements, mul)


# Group tables of orders 2 to 8, identity 0, then two Latin squares with identity 0
# that are not associative (the order-5 and order-7 tables above).
SMALL_GROUPS = [cyclic_table(m) for m in range(2, 9)] + [
    _abelian(2, 2), _dihedral(3), _abelian(2, 4), _abelian(2, 2, 2), _dihedral(4), _quaternion()]
LOOPS = [
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
    [[0, 1, 2, 3, 4, 5, 6], [1, 3, 6, 0, 5, 2, 4], [2, 4, 0, 5, 6, 3, 1], [3, 0, 4, 1, 2, 6, 5],
     [4, 2, 5, 6, 0, 1, 3], [5, 6, 1, 2, 3, 4, 0], [6, 5, 3, 4, 1, 0, 2]],
]


@st.composite
def small_tables(draw):
    """(table, identity): a relabelled group or loop of order 2 to 8, then maybe one
    change: cells, rows or columns swapped, the identity broken, a cell out of range,
    or a 2x2 subsquare off the identity's lines swapped (a Latin square again)."""
    base = draw(st.sampled_from(SMALL_GROUPS + LOOPS))
    m = len(base)
    label = draw(st.permutations(range(m)))
    t = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            t[label[a]][label[b]] = label[base[a][b]]
    e = label[0]
    ids = st.integers(0, m - 1)
    change = draw(st.sampled_from(["none", "cells", "row cells", "rows", "columns", "identity",
                                   "identity cell", "out of range", "subsquare"]))
    if change == "cells":
        (i, j), (k, l) = draw(st.tuples(ids, ids)), draw(st.tuples(ids, ids))
        t[i][j], t[k][l] = t[k][l], t[i][j]
    elif change == "row cells":
        i, j, k = draw(ids), draw(ids), draw(ids)
        t[i][j], t[i][k] = t[i][k], t[i][j]
    elif change == "rows":
        i, j = draw(ids), draw(ids)
        t[i], t[j] = t[j], t[i]
    elif change == "columns":
        i, j = draw(ids), draw(ids)
        for row in t:
            row[i], row[j] = row[j], row[i]
    elif change == "identity":
        e = draw(ids)
    elif change == "identity cell":
        x = draw(ids)
        t[e][x] = draw(ids)
    elif change == "out of range":
        i, j = draw(ids), draw(ids)
        t[i][j] = draw(st.sampled_from([m, m + 5, -1, True, False, 1.0, str(t[i][j]), None]))
    elif change == "subsquare":
        spots = [(a, b, c, d) for a, b in itertools.combinations(range(m), 2)
                 for c, d in itertools.combinations(range(m), 2)
                 if e not in (a, b, c, d) and t[a][c] == t[b][d] and t[a][d] == t[b][c]]
        if spots:
            a, b, c, d = draw(st.sampled_from(spots))
            t[a][c], t[a][d], t[b][c], t[b][d] = t[a][d], t[a][c], t[b][d], t[b][c]
    return t, e


def named_failure(t, e):
    """What the loader names a table for, its checks made in the order the names follow:
    the first bad cell in row order, the identity, the first of row 0, column 0, row 1,
    ... that is not a permutation; "associativity" for a Latin square with an identity
    that is not a group (its (x, g, y) is the loader's to choose); None for a group."""
    m = len(t)
    for row in t:
        for x in row:
            if type(x) is not int or not 0 <= x < m:
                return f"table entry {x!r} is not an id in 0..{m - 1}"
    if not 0 <= e < m:
        return f"identity id {e} out of range"
    if any(t[e][x] != x or t[x][e] != x for x in range(m)):
        return f"id {e} is not a two-sided identity"
    for x in range(m):
        if len(set(t[x])) < m:
            return f"row {x} is not a permutation"
        if len({t[y][x] for y in range(m)}) < m:
            return f"column {x} is not a permutation"
    return None if brute_force_associative(t) else "associativity"


def closure(t, e, gens):
    """The ids right multiplication by ``gens`` reaches from ``e``."""
    seen, todo = {e}, [e]
    while todo:
        x = todo.pop()
        for g in gens:
            if t[x][g] not in seen:
                seen.add(t[x][g])
                todo.append(t[x][g])
    return seen


def light_generators(t, e):
    """Light's picks: the least id not yet generated until all are, then each pick
    that the others generate without dropped, in pick order."""
    m, gens = len(t), []
    while len(reached := closure(t, e, gens)) < m:
        gens.append(min(set(range(m)) - reached))
    for g in list(gens):
        others = [h for h in gens if h != g]
        if len(closure(t, e, others)) == m:
            gens = others
    return gens


@settings(max_examples=400, deadline=None)
@given(small_tables())
def test_table_failures_are_named_in_the_line_check_order(case):
    t, e = case
    expected = named_failure(t, e)
    try:
        group = TableGroup(t, identity_id=e)
    except TableGroupError as exc:
        got = str(exc)
    else:
        assert expected is None
        assert [group.inv_payload(x) for x in range(len(t))] == [row.index(e) for row in t]
        return
    if expected != "associativity":
        assert got == expected
        return
    x, g, y = map(int, re.fullmatch(r"associativity fails at \((\d+), (\d+), (\d+)\)", got).groups())
    assert t[x][t[g][y]] != t[t[x][g]][y]
    assert g in light_generators(t, e)


def test_table_that_is_no_latin_square_is_rejected_by_its_lines_at_order_1024():
    # x*y = x for y != e: Light's pick gives up at the closure {0, 1, 2}, whose size does
    # not divide m, before any of its m^2 passes; picking on to all m ids would be cubic
    m = 1024
    table = [list(range(m))] + [[x] * m for x in range(1, m)]
    started = time.perf_counter()
    with pytest.raises(TableGroupError) as info:
        TableGroup(table, identity_id=0)
    assert time.perf_counter() - started < 0.5
    assert str(info.value) == "row 1 is not a permutation"


def test_light_picks_two_generators_on_a_relabelled_dihedral_table_of_order_520():
    # D_260 relabelled as the benchmark writes it under seed 1: r^k is k, r^k s is 260 + k
    m = 260
    label = list(range(2 * m))
    random.Random(1).shuffle(label)
    natural = _dihedral(m)
    t = [[0] * (2 * m) for _ in range(2 * m)]
    for a in range(2 * m):
        for b in range(2 * m):
            t[label[a]][label[b]] = label[natural[a][b]]
    group = TableGroup(t, identity_id=label[0])
    assert group._generators(guarded=True) == light_generators(t, label[0])
    assert len(light_generators(t, label[0])) == 2
