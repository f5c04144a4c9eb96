"""Versioned JSON encodings for groups and generating sets, and checked payload decoding.

All integers inside these encodings travel as decimal strings so that
consumers without 64-bit exact integers cannot lose precision.  Keys are
emitted sorted; ``dumps`` is the canonical form used for content hashes.
"""

from __future__ import annotations

import hashlib
import json
from json.decoder import WHITESPACE
from typing import Any, Optional

from .groups import (
    GeneratingSet,
    Group,
    GroupElement,
    InvalidElementError,
    TableRows,
    json_field,
    table_row_ints,
)

GROUP_SCHEMA = "group.v1"
GENSET_SCHEMA = "genset.v1"

__all__ = [
    "dumps",
    "content_hash",
    "group_to_json",
    "group_from_json",
    "table_doc_from_text",
    "payload_from_json",
    "genset_to_json",
    "genset_from_json",
]


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, no frivolous whitespace."""
    return _CANONICAL.encode(obj)


def content_hash(obj: Any) -> str:
    return hashlib.sha256(dumps(obj).encode("utf-8")).hexdigest()


def _expect_schema(obj: Any, schema: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"JSON object required, got {type(obj).__name__}")
    found = obj.get("schema")
    if found != schema:
        raise ValueError(f"expected schema {schema!r}, found {found!r}")
    return obj


def group_to_json(group: Group) -> dict:
    return {"schema": GROUP_SCHEMA, "variant": group.variant, **group.params_to_json()}


def group_from_json(doc: Any) -> Group:
    """The group of a ``group.v1`` document, read by the class of its variant."""
    doc = _expect_schema(doc, GROUP_SCHEMA)
    variant = doc.get("variant")
    cls = Group.variants.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValueError(f"unknown group variant {variant!r}")
    return cls.params_from_json(doc)


def table_doc_from_text(text: str, decoder: json.JSONDecoder) -> Optional[dict]:
    """``decoder.decode(text)`` for an object, its top-level ``table`` decoded a row at a time
    into ``TableRows``; None for a non-object, a decoding error, an empty table or a bad row."""

    def at(i: int, allowed: str) -> int:  # the next non-whitespace character, one of allowed
        i = WHITESPACE.match(text, i).end()
        if not text.startswith(tuple(allowed), i):
            raise ValueError(f"expected one of {allowed} at {i}")
        return i

    try:
        i, doc = at(0, "{"), {}
        while text[i] != "}":  # at the '{' or a ','
            key, i = decoder.raw_decode(text, at(i + 1, '"'))
            i = WHITESPACE.match(text, at(i, ":") + 1).end()
            if key == "table" and text.startswith("[", i):
                doc[key] = rows = TableRows()
                while text[i] != "]":  # at the '[' or a ','
                    row, i = decoder.raw_decode(text, at(i + 1, "["))
                    row_ints = row_ints if rows else table_row_ints(len(row))  # m, if square
                    rows.append(row_ints(row))
                    i = at(i, ",]")
                i += 1
            else:
                doc[key], i = decoder.raw_decode(text, i)
            i = at(i, ",}")
    except (ValueError, RecursionError):  # JSONDecodeError, a hook's or a row's rejection
        return None
    return doc if WHITESPACE.match(text, i + 1).end() == len(text) else None


def payload_from_json(group: Group, obj: Any) -> Any:
    try:
        return group.payload_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidElementError(f"malformed payload {obj!r} for {group!r}") from exc


def genset_to_json(gens: GeneratingSet) -> dict:
    return {
        "schema": GENSET_SCHEMA,
        "group": group_to_json(gens.group),
        "entries": [gens.group.payload_to_json(e.payload) for e in gens.entries],
        "labels": list(gens.labels),
    }


def genset_from_json(doc: Any) -> GeneratingSet:
    doc = _expect_schema(doc, GENSET_SCHEMA)
    group = group_from_json(json_field(doc, "group"))
    objs = json_field(doc, "entries", list)
    entries = [GroupElement(group, payload_from_json(group, obj)) for obj in objs]
    labels = None if doc.get("labels") is None else json_field(doc, "labels", list)
    if not entries:
        return GeneratingSet.empty(group)
    return GeneratingSet(entries, labels)

