"""Versioned JSON encodings for groups, elements, generating sets, words.

All integers inside these encodings travel as decimal strings so that
consumers without 64-bit exact integers cannot lose precision.  Keys are
emitted sorted; ``dumps`` is the canonical form used for content hashes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .groups import (
    Cyclic,
    Dihedral,
    GeneratingSet,
    Group,
    GroupElement,
    IntegerGrid,
    IntegerLine,
    InvalidElementError,
    Lamplighter,
    TableGroup,
    Word,
)

GROUP_SCHEMA = "group.v1"
ELEMENT_SCHEMA = "element.v1"
GENSET_SCHEMA = "genset.v1"
WORD_SCHEMA = "word.v1"

__all__ = [
    "dumps",
    "content_hash",
    "group_to_json",
    "group_from_json",
    "payload_to_json",
    "payload_from_json",
    "element_to_json",
    "element_from_json",
    "genset_to_json",
    "genset_from_json",
    "word_to_json",
    "word_from_json",
]


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, no frivolous whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj: Any) -> str:
    return hashlib.sha256(dumps(obj).encode("utf-8")).hexdigest()


def _expect_schema(obj: Any, schema: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"JSON object required, got {type(obj).__name__}")
    found = obj.get("schema")
    if found != schema:
        raise ValueError(f"expected schema {schema!r}, found {found!r}")
    return obj


def _required(doc: dict, key: str, kind: Any = object) -> Any:
    """``doc[key]``; ValueError if the key is missing or its value is not a ``kind``."""
    value = doc.get(key)
    if key not in doc or not isinstance(value, kind):
        raise ValueError(f"{doc['schema']} document: {key!r} missing or of the wrong type")
    return value


def _int(value: Any) -> int:
    """A JSON integer or decimal string as an int; ValueError for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"integer expected, got {value!r}")
    return int(value)


def group_to_json(group: Group) -> dict:
    doc: dict[str, Any] = {"schema": GROUP_SCHEMA, "variant": group.variant}
    if isinstance(group, IntegerLine):
        doc["bits"] = str(group.bits)
    elif isinstance(group, IntegerGrid):
        doc["rank"] = str(group.rank)
        doc["bits"] = str(group.bits)
    elif isinstance(group, Cyclic):
        doc["modulus"] = str(group.modulus)
    elif isinstance(group, Dihedral):
        doc["m"] = str(group.m)
    elif isinstance(group, Lamplighter):
        doc["bits"] = str(group.bits)
    elif isinstance(group, TableGroup):
        doc["name"] = group.name
        doc["identity"] = str(group.identity_id)
        doc["table"] = [[str(x) for x in row] for row in group.table]
    else:
        raise ValueError(f"unknown group variant {group!r}")
    return doc


def group_from_json(doc: Any) -> Group:
    """The group of a ``group.v1`` document, whose table rows become int tuples in place."""
    doc = _expect_schema(doc, GROUP_SCHEMA)
    variant = doc.get("variant")
    if variant == "integer_line":
        return IntegerLine(bits=_int(doc.get("bits", "64")))
    if variant == "integer_grid":
        return IntegerGrid(rank=_int(_required(doc, "rank")), bits=_int(doc.get("bits", "64")))
    if variant == "cyclic":
        return Cyclic(_int(_required(doc, "modulus")))
    if variant == "dihedral":
        return Dihedral(_int(_required(doc, "m")))
    if variant == "lamplighter":
        return Lamplighter(bits=_int(doc.get("bits", "64")))
    if variant == "table":
        rows = _required(doc, "table", list)
        if not all(isinstance(row, (list, tuple)) for row in rows):
            raise ValueError("group.v1 table rows must be lists")
        try:  # int() per cell, not _int(): an order-520 table has 270k cells
            for i, row in enumerate(rows):  # in place: each row's strings go as its ints come
                rows[i] = tuple(map(int, row))
        except TypeError as exc:
            raise ValueError(f"group.v1 table cells must be integers: {exc}") from None
        return TableGroup(rows, _int(_required(doc, "identity")), name=doc.get("name", "table"))
    raise ValueError(f"unknown group variant {variant!r}")


def payload_to_json(group: Group, payload: Any) -> Any:
    if isinstance(group, (IntegerLine, Cyclic, TableGroup)):
        return str(payload)
    if isinstance(group, IntegerGrid):
        return [str(c) for c in payload]
    if isinstance(group, Dihedral):
        r, s = payload
        return {"rot": str(r), "ref": str(s)}
    if isinstance(group, Lamplighter):
        lamps, cursor = payload
        return {"lamps": [str(p) for p in lamps], "cursor": str(cursor)}
    raise ValueError(f"unknown group variant {group!r}")


def payload_from_json(group: Group, obj: Any) -> Any:
    try:
        if isinstance(group, (IntegerLine, Cyclic, TableGroup)):
            return group.canonical_payload(int(obj))
        if isinstance(group, IntegerGrid):
            return group.canonical_payload([int(c) for c in obj])
        if isinstance(group, Dihedral):
            return group.canonical_payload((int(obj["rot"]), int(obj["ref"])))
        if isinstance(group, Lamplighter):
            return group.canonical_payload(
                (tuple(int(p) for p in obj["lamps"]), int(obj["cursor"]))
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidElementError(f"malformed payload {obj!r} for {group!r}") from exc
    raise ValueError(f"unknown group variant {group!r}")


def element_to_json(x: GroupElement) -> dict:
    return {
        "schema": ELEMENT_SCHEMA,
        "group": group_to_json(x.group),
        "payload": payload_to_json(x.group, x.payload),
    }


def element_from_json(doc: Any) -> GroupElement:
    doc = _expect_schema(doc, ELEMENT_SCHEMA)
    group = group_from_json(_required(doc, "group"))
    return GroupElement(group, payload_from_json(group, _required(doc, "payload")))


def genset_to_json(gens: GeneratingSet) -> dict:
    return {
        "schema": GENSET_SCHEMA,
        "group": group_to_json(gens.group),
        "entries": [payload_to_json(gens.group, e.payload) for e in gens.entries],
        "labels": list(gens.labels),
    }


def genset_from_json(doc: Any) -> GeneratingSet:
    doc = _expect_schema(doc, GENSET_SCHEMA)
    group = group_from_json(_required(doc, "group"))
    objs = _required(doc, "entries", list)
    entries = [GroupElement(group, payload_from_json(group, obj)) for obj in objs]
    labels = None if doc.get("labels") is None else _required(doc, "labels", list)
    if not entries:
        return GeneratingSet.empty(group)
    return GeneratingSet(entries, labels)


def word_to_json(word: Word) -> dict:
    return {"schema": WORD_SCHEMA, "letters": [str(x) for x in word]}


def word_from_json(doc: Any) -> Word:
    doc = _expect_schema(doc, WORD_SCHEMA)
    letters = tuple(_int(x) for x in _required(doc, "letters", list))
    if any(x == 0 for x in letters):
        raise ValueError("word letters must be nonzero signed indices")
    return letters
