"""JSON round trips for groups, payloads and generating sets."""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadend.cli import UsageError, _no_float, _read_json, parse_group
from deadend.groups import (
    Cyclic,
    GroupError,
    InvalidElementError,
    Dihedral,
    GeneratingSet,
    IntegerGrid,
    IntegerLine,
    Lamplighter,
    TableGroup,
    TableRows,
    standard_gens,
)
from deadend.serialize import (
    dumps,
    genset_from_json,
    genset_to_json,
    group_from_json,
    group_to_json,
    payload_from_json,
    table_doc_from_text,
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
    assert dumps(group.payload_to_json(payload)) == payload_text
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


def test_table_cells_that_json_int_rejects_are_rejected():
    # int() reads true as 1 and 0.9 as 0; a group.v1 cell is an integer or a decimal string
    for cell, text in ((True, "True"), (0.9, "0.9"), (1.0, "1.0")):
        doc = json.loads(json.dumps({"schema": "group.v1", "variant": "table", "identity": "0",
                                     "table": [["0", "1"], ["1", cell]]}))
        with pytest.raises(ValueError, match=f"table cells must be integers, got {text}$"):
            group_from_json(doc)


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


# -- table:FILE, decoded a row at a time --------------------------------------------------

INTEGERS_ONLY = json.JSONDecoder(parse_float=_no_float, parse_constant=_no_float)
SPACE = st.text(" \t\n\r", max_size=2)
# What an edit of a JSON text inserts or puts in place of one character.
EDITS = ["{", "}", "[", "]", ",", ":", '"', "0", "7", "-", " ", "x", "\\", ".5", "e1", "NaN", "true"]


@st.composite
def json_texts(draw, value, decoys=False):
    """``value`` as JSON text: random whitespace between tokens and each object's keys
    shuffled; with ``decoys``, one key of the top object is given twice (a decoy value
    before or after the real one)."""
    if isinstance(value, dict):
        items = draw(st.permutations(list(value.items())))
        if decoys:
            key = draw(st.sampled_from(sorted(value)))
            decoy = draw(st.sampled_from(["0", None, [], [["9"]], [["0", "x"]], value[key]]))
            items.insert(draw(st.integers(0, len(items))), (key, decoy))
        parts = [json.dumps(k) + draw(SPACE) + ":" + draw(SPACE) + draw(json_texts(v))
                 for k, v in items]
        opening, closing = "{}"
    elif isinstance(value, list):
        parts, (opening, closing) = [draw(json_texts(v)) for v in value], "[]"
    else:
        return json.dumps(value)
    inner = ",".join(draw(SPACE) + part + draw(SPACE) for part in parts)
    return opening + (inner or draw(SPACE)) + closing


@st.composite
def table_texts(draw):
    """A ``table_docs`` document (its variant sometimes cyclic, still with its table)
    as ``json_texts`` renders it, maybe with a decoy key; then maybe truncated, or
    with one character replaced, inserted or deleted.  Also the document when the
    text is a plain rendering of it: no decoy, no edit."""
    doc = draw(table_docs(range(1, 9)))
    if draw(st.booleans()):
        doc.update(variant="cyclic", m=str(len(doc["table"])))
    decoys = draw(st.booleans())
    text = draw(json_texts(doc, decoys))
    edit = draw(st.sampled_from(["none", "none", "truncate", "replace", "insert", "delete"]))
    k, c = draw(st.integers(0, len(text) - 1)), draw(st.sampled_from(EDITS))
    text = {"none": text, "truncate": text[:k], "replace": text[:k] + c + text[k + 1:],
            "insert": text[:k] + c + text[k:], "delete": text[:k] + text[k + 1:]}[edit]
    return text, doc if edit == "none" and not decoys else None


def outcome(read):
    """The group and its table that ``read()`` gives, or its error's type and message."""
    try:
        group = read()
    except (UsageError, ValueError, GroupError) as exc:
        return type(exc), str(exc)
    return group, getattr(group, "table", None)


def check_walk(text):
    """Where the row-wise walk takes ``text``, it gives the document of the whole text,
    bar the table's conversion, and the same group or error; the walk's document."""
    doc = table_doc_from_text(text, INTEGERS_ONLY)
    if doc is not None:
        whole = INTEGERS_ONLY.decode(text)  # raises if the walk took a malformed text
        rows = doc.get("table")
        assert isinstance(whole, dict) and doc.keys() == whole.keys()
        assert all(doc[k] == whole[k] for k in doc if doc[k] is not rows)
        if isinstance(rows, TableRows):  # else a later "table" key was not an array
            assert list(rows) == int_rows(whole["table"])
        else:
            assert rows == whole.get("table")
        assert outcome(lambda: group_from_json(doc)) == outcome(lambda: group_from_json(whole))
    return doc


@settings(max_examples=150, deadline=None)
@given(table_texts())
def test_table_text_decoded_row_wise_reads_as_decoded_whole(tmp_path_factory, case):
    text, plain = case
    if check_walk(text) is None and plain is not None:
        with pytest.raises(ValueError):  # the walk stops at a plain rendering only for a bad cell
            int_rows(plain["table"])
    # the command line reads table:FILE as it reads the whole document
    path = tmp_path_factory.getbasetemp() / "table.json"
    path.write_text(text, encoding="utf-8")
    assert outcome(lambda: parse_group(f"table:{path}")) == outcome(
        lambda: group_from_json(_read_json(str(path))))


def test_table_walk_agrees_with_decoding_whole_after_any_one_character_edit():
    text = '{"a":[1],"table":[["0","1"],["1","0"]],"b":{"c":2}}'
    for k in range(len(text) + 1):
        for c in '{}[],:" 0x':
            for edited in (text[:k] + c + text[k + 1:], text[:k] + c + text[k:],
                           text[:k] + text[k + 1:]):
                check_walk(edited)
    assert check_walk(text) is not None


def test_table_walk_takes_the_usual_renderings_and_stops_at_the_rest():
    doc = group_to_json(GROUPS[-1])
    for text in (dumps(doc), json.dumps(doc), json.dumps(doc, indent=2), f" {dumps(doc)}\n"):
        walked = table_doc_from_text(text, INTEGERS_ONLY)
        assert walked is not None and group_from_json(walked) == GROUPS[-1]
    for text in ["", "[]", "{}", dumps(doc) + "x", "\ufeff" + dumps(doc), '{1:2}', '{null:1}',
                 '{"a":1 "b":2}', '{"a":1,}', '{"table":[]}', '{"table":[["0"],]}',
                 '{"table":[["0"] ["0"]]}', '{"table":[["0"]}', '{"table":["0"]}',
                 '{"table":[["x"]]}', '{"table":[[0.5]]}', '{"table":[["0"]],"n":NaN}']:
        assert table_doc_from_text(text, INTEGERS_ONLY) is None, text


def test_order_520_table_loads_under_6_mb_traced(tmp_path):
    m = 520
    path = tmp_path / "c520.json"
    path.write_text(json.dumps({"schema": "group.v1", "variant": "table", "identity": "0",
                                "table": [[str((i + j) % m) for j in range(m)] for i in range(m)]}))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        group = parse_group(f"table:{path}")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert group.order() == m and group.table[1][m - 1] == 0
    assert peak < 6_000_000, f"traced peak {peak / 1e6:.1f} MB"


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
        text = dumps(group.payload_to_json(x.payload))
        assert group.element(payload_from_json(group, json.loads(text))) == x


def test_integers_travel_as_decimal_strings():
    zz = IntegerLine()
    assert zz.payload_to_json(zz.element(2**62).payload) == str(2**62)
    lamp = Lamplighter()
    assert lamp.payload_to_json(lamp.element(((-3, 4), 2)).payload) == {
        "lamps": ["-3", "4"], "cursor": "2"}


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


def test_unknown_schema_rejected():
    with pytest.raises(ValueError):
        group_from_json({"schema": "group.v999", "variant": "cyclic", "modulus": "5"})
    with pytest.raises(ValueError):
        genset_from_json({**genset_to_json(standard_gens(Cyclic(5))), "schema": "genset.v999"})
