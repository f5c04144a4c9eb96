"""JSON round trips for the four core types."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadend.groups import (
    Cyclic,
    InvalidElementError,
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
    payload_from_json,
    payload_to_json,
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


C4_TABLE = '[["0","1","2","3"],["1","2","3","0"],["2","3","0","1"],["3","0","1","2"]]'
# Per variant: the exact group.v1 text and the exact JSON text of one payload.
FORMAT_PINS = [
    (GROUPS[0], 5, '{"bits":"64","schema":"group.v1","variant":"integer_line"}', '"5"'),
    (GROUPS[1], -9, '{"bits":"32","schema":"group.v1","variant":"integer_line"}', '"-9"'),
    (GROUPS[2], (1, -2, 3),
     '{"bits":"64","rank":"3","schema":"group.v1","variant":"integer_grid"}', '["1","-2","3"]'),
    (GROUPS[3], 7, '{"modulus":"17","schema":"group.v1","variant":"cyclic"}', '"7"'),
    (GROUPS[4], (3, 1), '{"m":"5","schema":"group.v1","variant":"dihedral"}',
     '{"ref":"1","rot":"3"}'),
    (GROUPS[5], ((-2, 1), 3), '{"bits":"64","schema":"group.v1","variant":"lamplighter"}',
     '{"cursor":"3","lamps":["-2","1"]}'),
    (GROUPS[6], 3,
     '{"identity":"0","name":"c4","schema":"group.v1","table":' + C4_TABLE + ',"variant":"table"}',
     '"3"'),
]


@pytest.mark.parametrize("group, payload, group_text, payload_text", FORMAT_PINS,
                         ids=[repr(pin[0]) for pin in FORMAT_PINS])
def test_formats_are_pinned(group, payload, group_text, payload_text):
    assert dumps(group_to_json(group)) == group_text
    assert dumps(payload_to_json(group, payload)) == payload_text
    assert payload_from_json(group, json.loads(payload_text)) == payload


# Per variant: a payload with a float where an integer belongs, and one with a boolean.
NON_INTEGER_PAYLOADS = [
    (GROUPS[0], 1.9),
    (GROUPS[0], True),
    (GROUPS[2], ["1", 2.0, "3"]),
    (GROUPS[2], ["1", True, "3"]),
    (GROUPS[3], 2.7),
    (GROUPS[3], False),
    (GROUPS[4], {"rot": 2.7, "ref": "0"}),
    (GROUPS[4], {"rot": "2", "ref": True}),
    (GROUPS[5], {"lamps": ["-2", 1.0], "cursor": "3"}),
    (GROUPS[5], {"lamps": [], "cursor": True}),
    (GROUPS[6], 3.0),
    (GROUPS[6], True),
]


@pytest.mark.parametrize("group, obj", NON_INTEGER_PAYLOADS,
                         ids=[f"{g.variant}-{('float', 'bool')[i % 2]}"
                              for i, (g, _) in enumerate(NON_INTEGER_PAYLOADS)])
def test_payload_from_json_rejects_floats_and_booleans(group, obj):
    with pytest.raises(InvalidElementError, match="malformed payload"):
        payload_from_json(group, obj)


@pytest.mark.parametrize("doc", [
    {"schema": "group.v1", "variant": "cyclic"},
    {"schema": "group.v1", "variant": "dihedral", "m": 4.0},
    {"schema": "group.v1", "variant": "integer_line", "bits": 64.0},
])
def test_group_from_json_rejects_bad_documents(doc):
    with pytest.raises(ValueError):
        group_from_json(doc)


def test_table_rows_are_converted_in_place():
    doc = json.loads(dumps(group_to_json(GROUPS[-1])))
    rows = doc["table"]
    group = group_from_json(doc)
    # each row of strings was replaced by its ints, and the group keeps those tuples
    assert all(a is b for a, b in zip(rows, group.table))
    assert rows[1] == (1, 2, 3, 0)
    assert group_from_json(doc) == group


# Spellings of an id that int() reads as that id, canonical first.
CELL_FORMS = [str, lambda x: f"0{x}", lambda x: f" {x}", lambda x: f"+{x}", lambda x: x]
BAD_CELLS = ["x", "", [1], None]


@st.composite
def table_docs(draw, orders):
    """A cyclic group.v1 table whose cells are spelled in a mix of CELL_FORMS:
    every cell drawn at orders up to 8, a few at larger orders; sometimes
    with a few BAD_CELLS too."""
    m = draw(st.sampled_from(orders))
    rows = [[str((i + j) % m) for j in range(m)] for i in range(m)]
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    spots = [(i, j) for i in range(m) for j in range(m)] if m <= 8 else draw(
        st.lists(cell, max_size=12))
    for i, j in spots:
        rows[i][j] = draw(st.sampled_from(CELL_FORMS))(int(rows[i][j]))
    for i, j in draw(st.lists(cell, max_size=2)):
        rows[i][j] = draw(st.sampled_from(BAD_CELLS))
    return {"schema": "group.v1", "variant": "table", "identity": "0", "table": rows}


def int_rows(table):
    """The rows as ``tuple(map(int, row))`` makes them, and its error as the loader words it."""
    try:
        return [tuple(map(int, row)) for row in table]
    except TypeError as exc:
        raise ValueError(f"group.v1 table cells must be integers: {exc}") from None


def check_cells_convert_as_int_does(doc):
    rows = doc["table"]
    try:
        expected = int_rows(rows)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            group_from_json(doc)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    group = group_from_json(doc)
    assert list(group.table) == expected
    assert all(a is b for a, b in zip(rows, group.table))  # replaced in place


@settings(max_examples=100, deadline=None)
@given(table_docs(range(1, 9)))
def test_table_cells_convert_as_int_does(doc):
    check_cells_convert_as_int_does(doc)


@settings(max_examples=10, deadline=None)
@given(table_docs([256]))
def test_table_cells_convert_as_int_does_at_order_256(doc):
    check_cells_convert_as_int_does(doc)


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
