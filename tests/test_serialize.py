"""JSON round trips for the four core types."""

from __future__ import annotations

import json

import pytest

from deadend.groups import (
    Cyclic,
    Dihedral,
    GeneratingSet,
    IntegerGrid,
    IntegerLine,
    Lamplighter,
    TableGroup,
    standard_gens,
)
from deadend.serialize import (
    dumps,
    element_from_json,
    element_to_json,
    genset_from_json,
    genset_to_json,
    group_from_json,
    group_to_json,
    word_from_json,
    word_to_json,
)

GROUPS = [
    IntegerLine(),
    IntegerLine(bits=32),
    IntegerGrid(3),
    Cyclic(17),
    Dihedral(5),
    Lamplighter(),
    TableGroup([[(i + j) % 4 for j in range(4)] for i in range(4)], 0, name="c4"),
]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: repr(g))
def test_group_round_trip(group):
    doc = group_to_json(group)
    assert doc["schema"] == "group.v1"
    assert group_from_json(json.loads(dumps(doc))) == group


def test_table_rows_are_converted_in_place():
    doc = json.loads(dumps(group_to_json(GROUPS[-1])))
    rows = doc["table"]
    group = group_from_json(doc)
    # each row of strings was replaced by its ints, and the group keeps those tuples
    assert all(a is b for a, b in zip(rows, group.table))
    assert rows[1] == (1, 2, 3, 0)
    assert group_from_json(doc) == group


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: repr(g))
def test_element_round_trip(group):
    samples = {
        "integer_line": [0, 5, -123],
        "integer_grid": [(0, 0, 0), (1, -2, 3)],
        "cyclic": [0, 7, 16],
        "dihedral": [(0, 0), (3, 1)],
        "lamplighter": [((), 0), ((-2, 1), 3)],
        "table": [0, 3],
    }
    for raw in samples[group.variant]:
        x = group.element(raw)
        doc = element_to_json(x)
        assert element_from_json(json.loads(dumps(doc))) == x


def test_integers_travel_as_decimal_strings():
    x = IntegerLine().element(2**62)
    doc = element_to_json(x)
    assert doc["payload"] == str(2**62)
    lamp = Lamplighter().element(((-3, 4), 2))
    doc = element_to_json(lamp)
    assert doc["payload"] == {"lamps": ["-3", "4"], "cursor": "2"}


def test_dumps_sorts_keys():
    text = dumps({"b": 1, "a": {"d": 2, "c": 3}})
    assert text == '{"a":{"c":3,"d":2},"b":1}'


def test_genset_round_trip():
    gens = GeneratingSet(
        [IntegerLine().element(2), IntegerLine().element(3)], labels=["two", "three"]
    )
    doc = genset_to_json(gens)
    back = genset_from_json(doc)
    assert back.group == gens.group
    assert [e.payload for e in back.entries] == [2, 3]
    assert back.labels == ("two", "three")


def test_genset_round_trip_standard_sets():
    for group in (Dihedral(4), Lamplighter()):
        gens = standard_gens(group)
        back = genset_from_json(genset_to_json(gens))
        assert [e.payload for e in back.entries] == [e.payload for e in gens.entries]


def test_word_round_trip():
    word = (1, -2, 2, -1)
    doc = word_to_json(word)
    assert doc["letters"] == ["1", "-2", "2", "-1"]
    assert word_from_json(doc) == word


def test_unknown_schema_rejected():
    with pytest.raises(ValueError):
        group_from_json({"schema": "group.v999", "variant": "cyclic", "modulus": "5"})
    with pytest.raises(ValueError):
        word_from_json({"schema": "word.v1", "letters": ["0"]})
